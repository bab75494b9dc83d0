//! Experiment E10 — Corollary 23 (wait-freedom): the worst single operation
//! of the ordering-tree queue stays bounded under contention, while a
//! lock-free CAS-retry queue's tail grows with `p` (its loops can retry
//! arbitrarily often).
//!
//! Reported series: the maximum steps any single operation took during a
//! contended run, vs `p`, with the max/avg ratio (tail amplification).

use wfqueue::{bounded, unbounded};
use wfqueue_bench::exp;
use wfqueue_harness::queue_api::Ms;
use wfqueue_harness::table::{f1, Table};
use wfqueue_harness::workload::{run_workload, RunReport, WorkloadSpec};

fn max_steps(r: &RunReport) -> u64 {
    r.enqueue
        .steps_max
        .max(r.dequeue_hit.steps_max)
        .max(r.dequeue_null.steps_max)
}

fn main() {
    // The paper's Omega(p) claims are about worst-case schedules; enable the
    // adversarial scheduler so the read-to-CAS races actually occur (see
    // wfqueue_metrics::set_adversary).
    wfqueue_metrics::set_adversary(true);
    println!("(adversarial round-robin scheduler: ON)\n");

    let mut table = Table::new(
        "E10: worst single-operation step count vs p (wait-freedom evidence)",
        &[
            "p",
            "wf-unb max",
            "wf-unb max/avg",
            "wf-bnd max",
            "ms max",
            "ms max/avg",
        ],
    );
    for &p in exp::p_sweep() {
        let s = WorkloadSpec {
            threads: p,
            ops_per_thread: (40_000 / p).max(500),
            enqueue_permille: 500,
            prefill: 256,
            seed: 0xE10,
        };
        let unb = run_workload(&unbounded::Queue::new(p), &s);
        let bnd = run_workload(&bounded::Queue::new(p), &s);
        let ms = run_workload(&Ms::new(), &s);
        table.row_owned(vec![
            p.to_string(),
            max_steps(&unb).to_string(),
            f1(max_steps(&unb) as f64 / unb.steps_avg()),
            max_steps(&bnd).to_string(),
            max_steps(&ms).to_string(),
            f1(max_steps(&ms) as f64 / ms.steps_avg()),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape: wf maxima stay within a small factor of their averages\n\
         (every operation finishes in a bounded number of its own steps);\n\
         the ms-queue max/avg ratio grows with contention (unbounded retry tail).\n\
         note: the wf-bounded max includes whole GC phases (amortized away in E6).\n"
    );
}
