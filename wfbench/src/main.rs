//! `wfbench --workload <name|all> --seed <u64> [--seconds 15] --trace <0|1>`
//!
//! Runs one workload (or each in its own child process, for `all`),
//! prints every metric by name with its unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits non-zero when an audit fails. `--trace 1` reports per-layer
//! metrics instead of end-to-end ones and writes the spans to
//! `wfbench-trace/<workload>-<seed>.jsonl` beside the executable.
//!
//! The measured window is fixed at [`RUN_SECONDS`]. `--seconds` may only
//! repeat it: `heap_mb`, `rss_mb` and the window medians depend on the
//! run length, so runs of different lengths would not compare.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use wfbench::{Options, Workload, RUN_SECONDS};

const USAGE: &str =
    "usage: wfbench --workload <unbounded-open|bounded-closed|forkjoin-closed|service-open|all> \
     [--seed <u64>] [--seconds 15] [--trace <0|1>]";

struct Args {
    workload: String,
    seed: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected a u64"))?,
            "--seconds" => {
                if value.parse() != Ok(RUN_SECONDS) {
                    return Err(bad(&format!("the run length is fixed at {RUN_SECONDS}")));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::from_name(&args.workload) else {
        eprintln!("wfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let opts = Options {
        trace: args.trace,
        ..Options::new(args.seed, Duration::from_secs(RUN_SECONDS))
    };
    let report = wfbench::run(workload, &opts);
    for line in &report.lines {
        println!("{line}");
    }
    for failure in &report.audit_failures {
        println!("AUDIT FAILED: {failure}");
    }
    if let Some(trace) = &report.trace {
        match write_trace(workload, args.seed, trace) {
            Ok(path) => println!("trace: {}", path.display()),
            Err(e) => {
                eprintln!("wfbench: cannot write the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_trace(workload: Workload, seed: u64, trace: &str) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("the executable has no directory"))?
        .join("wfbench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-{seed}.jsonl", workload.name()));
    std::fs::write(&path, trace)?;
    Ok(path)
}

/// Runs every workload in its own child process, so each reports its own
/// peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wfbench: cannot find the executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
