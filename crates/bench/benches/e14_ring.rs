//! Experiment E14-ring — what the wCQ-style ring backend buys the
//! capacity-bounded channel.
//!
//! BENCH_e10/e11 put the paper's §6 bounded-space queue ~25–70× behind
//! the unbounded §3 queue at batch 1: per-operation GC walks make the
//! capacity-bounded path — the one a broker needs for backpressure — the
//! slowest in the stack. The ring backend replaces the ordering tree
//! with a power-of-two ring of phase-tagged slots (FIFO via cycle tags,
//! fullness native to the slot cycle), so a bounded channel no longer
//! pays tree propagation or GC at all.
//!
//! One series per backend, all through the channel facade in try mode
//! (batch 1, 60/40 closed loop, p harness threads ∈ {1, 2, 4, 8}):
//!
//! - `ring` — `Backend::Ring`, fullness detected natively by the ring.
//! - `bounded-tree` — `Backend::BoundedTree`, the §6 queue behind the
//!   channel-layer capacity gate.
//! - `unbounded` — `Backend::Unbounded`, the §3 queue: the throughput
//!   ceiling a bounded backend chases (no capacity enforcement at all).
//!
//! Every series runs the same seeds with capacity sized above the
//! workload's maximum in-flight count, so no send ever observes Full and
//! the comparison measures the data path, not backpressure policy.
//!
//! The binary **asserts** the acceptance criterion: ring throughput
//! ≥ 10× the §6 bounded tree at batch 1, p = 4.
//!
//! `--json` prints a machine-readable summary (used by
//! `scripts/bench.sh e14_ring` to record `BENCH_e14.json`).

use wfqueue_harness::channel_api::{ChannelMode, WfChannel};
use wfqueue_harness::table::{f1, f2, Table};
use wfqueue_harness::workload::{run_workload, RunReport, WorkloadSpec};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const OPS_PER_THREAD: usize = 8_192;
/// Best-of-N wall-clock runs per point.
const REPS: usize = 3;
/// Shared by the ring and the capacity gate: above the 60/40 workload's
/// worst-case in-flight count at p = 8 (~0.2 × 65k), so Full is never
/// observed and all three series run the identical op mix.
const CAPACITY: usize = wfqueue_ring::MAX_CAPACITY;

fn spec(threads: usize) -> WorkloadSpec {
    WorkloadSpec {
        threads,
        ops_per_thread: OPS_PER_THREAD,
        // Enqueue-biased so dequeues mostly hit; one fixed seed per p so
        // every series sees the same mix.
        enqueue_permille: 600,
        prefill: 0,
        seed: 0xE14 + threads as u64,
    }
}

struct SeriesPoint {
    series: &'static str,
    threads: usize,
    report: RunReport,
}

fn best_of(threads: usize, make: impl Fn() -> WfChannel<u64>) -> RunReport {
    let mut best: Option<RunReport> = None;
    for _ in 0..REPS {
        let q = make();
        let report = run_workload(&q, &spec(threads));
        assert!(report.audits_ok(), "audits failed");
        if best.is_none_or(|b| report.ops_per_sec() > b.ops_per_sec()) {
            best = Some(report);
        }
    }
    best.expect("REPS >= 1")
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    let mut series: Vec<SeriesPoint> = Vec::new();
    for &p in &THREAD_COUNTS {
        series.push(SeriesPoint {
            series: "ring",
            threads: p,
            report: best_of(p, || WfChannel::ring(p, CAPACITY, ChannelMode::Try)),
        });
        series.push(SeriesPoint {
            series: "bounded-tree",
            threads: p,
            report: best_of(p, || WfChannel::bounded(p, CAPACITY, ChannelMode::Try)),
        });
        series.push(SeriesPoint {
            series: "unbounded",
            threads: p,
            report: best_of(p, || WfChannel::unbounded(p, ChannelMode::Try)),
        });
    }

    // Acceptance: the ring moves the capacity-bounded path at least an
    // order of magnitude past the §6 tree at the headline point.
    let at = |name: &str, p: usize| {
        series
            .iter()
            .find(|s| s.series == name && s.threads == p)
            .expect("series recorded")
            .report
    };
    let (ring4, tree4) = (at("ring", 4), at("bounded-tree", 4));
    assert!(
        ring4.ops_per_sec() >= 10.0 * tree4.ops_per_sec(),
        "ring backend is not >=10x the bounded tree at p=4: ring {:.0} ops/s vs tree {:.0}",
        ring4.ops_per_sec(),
        tree4.ops_per_sec()
    );

    if json {
        // Hand-rolled JSON (no serde in the offline workspace).
        let mut rows = String::new();
        for (i, s) in series.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"series\": \"{}\", \"threads\": {}, \"ops_per_sec\": {:.0}, \
                 \"steps_per_op\": {:.2}, \"cas_per_op\": {:.3}}}",
                s.series,
                s.threads,
                s.report.ops_per_sec(),
                s.report.steps_avg(),
                s.report.cas_avg(),
            ));
        }
        println!(
            "{{\n  \"experiment\": \"e14_ring\",\n  \"capacity\": {CAPACITY},\n  \
             \"series\": [\n{rows}\n  ]\n}}"
        );
        return;
    }

    let mut table = Table::new(
        &format!("E14-ring: bounded-channel backends at batch 1 (60/40 mix, capacity {CAPACITY})"),
        &["series", "p", "ops/s", "steps/op", "cas/op", "vs tree"],
    );
    for s in &series {
        let tree = at("bounded-tree", s.threads);
        table.row_owned(vec![
            s.series.to_string(),
            s.threads.to_string(),
            format!("{:.0}", s.report.ops_per_sec()),
            f1(s.report.steps_avg()),
            f2(s.report.cas_avg()),
            format!("{:.1}x", s.report.ops_per_sec() / tree.ops_per_sec()),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape: the ring sits within a small factor of the unbounded ceiling\n\
         (single fill CAS per enqueue, no tree propagation, no GC walks) while the §6\n\
         tree pays its per-op GC; capacity enforcement moves from the channel gate\n\
         (tree) into the slot cycle itself (ring) at no extra CAS.\n"
    );
}
