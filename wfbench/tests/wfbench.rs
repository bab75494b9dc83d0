//! The benchmark's library entry point on short runs: every workload
//! passes its audits and reports exactly the metrics `BENCHMARK.json`
//! declares, and the generated inputs follow the seed.

use std::time::Duration;

use wfbench::{input_digest, run, Options, Workload, RUN_SECONDS};

/// About 300 ms per workload, with trees small enough for a debug build.
fn short(seed: u64, trace: bool) -> Options {
    Options {
        warmup: Duration::from_millis(50),
        setups: 2,
        trace,
        tree_tasks: 20_000,
        ..Options::new(seed, Duration::from_millis(300))
    }
}

/// The repository's `BENCHMARK.json`.
fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `name`s listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let text = benchmark_json();
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &text[start..];
    let section = &section[..section.find(']').expect("the section is a list")];
    let mut names: Vec<String> = section
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
        .collect();
    names.sort();
    names
}

#[test]
fn declared_workloads_exist() {
    let mut ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    ours.sort_unstable();
    assert_eq!(declared("workloads"), ours);
}

#[test]
fn declared_run_length_is_the_binarys() {
    let text = benchmark_json();
    let at = text
        .find("\"run_seconds\":")
        .expect("BENCHMARK.json has run_seconds");
    let value: String = text[at + "\"run_seconds\":".len()..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    assert_eq!(value.parse(), Ok(RUN_SECONDS));
}

#[test]
fn every_workload_passes_its_audits_and_reports_every_metric() {
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let names = declared(key);
        for w in Workload::ALL {
            let r = run(w, &short(1, trace));
            assert!(
                r.correct(),
                "{} trace={trace}: {:?}",
                w.name(),
                r.audit_failures
            );
            assert_eq!(r.failed, 0, "{} trace={trace}", w.name());
            assert!(r.attempted > 0);
            let mut reported: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
            reported.sort_unstable();
            assert_eq!(reported, names, "{} trace={trace}", w.name());
            assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            assert!(r.json().starts_with("{\"correct\": true, "));
            assert_eq!(r.trace.is_some(), trace);
            if !trace {
                for m in &r.metrics {
                    assert!(m.value > 0.0, "{} {} is 0", w.name(), m.name);
                }
            }
        }
    }
}

#[test]
fn inputs_follow_the_seed() {
    for w in Workload::ALL {
        assert_eq!(input_digest(w, 7), input_digest(w, 7), "{}", w.name());
        assert_ne!(input_digest(w, 7), input_digest(w, 8), "{}", w.name());
    }
}
