//! Experiment E2 — Theorem 22 (enqueue bound): an `Enqueue` takes
//! `O(log p)` shared-memory steps.
//!
//! Reported series: mean and max steps per enqueue vs `p` under an
//! enqueue-only closed loop, with the `steps / log2(p)` ratio that should
//! converge to a constant if the bound is tight.

use wfqueue::{bounded, unbounded};
use wfqueue_bench::exp;
use wfqueue_harness::queue_api::Ms;
use wfqueue_harness::table::{f1, f2, Table};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

fn main() {
    let mut table = Table::new(
        "E2: steps per enqueue vs p (Theorem 22: O(log p))",
        &[
            "p",
            "log2(p)",
            "wf-unb avg",
            "wf-unb /log2p",
            "wf-unb max",
            "wf-bnd avg",
            "ms avg",
        ],
    );
    for &p in exp::p_sweep() {
        let s = WorkloadSpec {
            threads: p,
            ops_per_thread: (40_000 / p).max(500),
            enqueue_permille: 1000,
            prefill: 0,
            seed: 0xE2,
        };
        let unb = run_workload(&unbounded::Queue::new(p), &s);
        let bnd = run_workload(&bounded::Queue::new(p), &s);
        let ms = run_workload(&Ms::new(), &s);
        let lg = exp::log2(p.max(2) as f64);
        table.row_owned(vec![
            p.to_string(),
            f1(lg),
            f1(unb.enqueue.steps_avg()),
            f2(unb.enqueue.steps_avg() / lg),
            unb.enqueue.steps_max.to_string(),
            f1(bnd.enqueue.steps_avg()),
            f1(ms.enqueue.steps_avg()),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape: the wf-unb /log2p ratio flattens to a constant (logarithmic growth);\n\
         ms-queue's average grows with contention instead.\n"
    );
}
