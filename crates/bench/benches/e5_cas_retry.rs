//! Experiment E5 — the CAS retry problem (§1–§2 of the paper): under a
//! contended closed loop, MS-queue-style algorithms spend `Ω(p)` amortized
//! steps per operation while the ordering-tree queue stays polylogarithmic.
//!
//! Reported series: amortized steps per operation vs `p` for both wait-free
//! variants and the Michael–Scott queue, plus each queue's growth factor
//! relative to its own p=min baseline — the separation claim is that the
//! ms-queue factor keeps growing with p while the wf factors track
//! log-polynomial curves.

use wfqueue::{bounded, unbounded};
use wfqueue_bench::exp;
use wfqueue_harness::queue_api::Ms;
use wfqueue_harness::table::{f1, f2, Table};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

fn main() {
    // The paper's Omega(p) claims are about worst-case schedules; enable the
    // adversarial scheduler so the read-to-CAS races actually occur (see
    // wfqueue_metrics::set_adversary).
    wfqueue_metrics::set_adversary(true);
    println!("(adversarial round-robin scheduler: ON)\n");

    let mut table = Table::new(
        "E5: amortized steps per operation vs p (CAS retry problem separation)",
        &[
            "p",
            "wf-unb",
            "wf-unb xgrow",
            "wf-bnd",
            "wf-bnd xgrow",
            "ms",
            "ms xgrow",
        ],
    );
    let mut base: Option<(f64, f64, f64)> = None;
    for &p in exp::p_sweep() {
        let s = WorkloadSpec {
            threads: p,
            ops_per_thread: (40_000 / p).max(500),
            enqueue_permille: 500,
            prefill: 256,
            seed: 0xE5,
        };
        let unb = run_workload(&unbounded::Queue::new(p), &s).steps_avg();
        let bnd = run_workload(&bounded::Queue::new(p), &s).steps_avg();
        let ms = run_workload(&Ms::new(), &s).steps_avg();
        let (bu, bb, bm) = *base.get_or_insert((unb, bnd, ms));
        table.row_owned(vec![
            p.to_string(),
            f1(unb),
            f2(unb / bu),
            f1(bnd),
            f2(bnd / bb),
            f1(ms),
            f2(ms / bm),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape: the wf growth factors track polylog curves in p; the ms-queue\n\
         factor keeps climbing with contention. Absolute wf constants are higher — the\n\
         paper's §7 notes the queue is costlier than MS-queue in the uncontended case.\n"
    );
}
