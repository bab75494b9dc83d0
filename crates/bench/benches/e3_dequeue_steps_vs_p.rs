//! Experiment E3 — Theorem 22 (dequeue bound, `p` axis): a non-null
//! `Dequeue` takes `O(log p · log c + log q_e + log q_d)` steps; with the
//! queue size held roughly constant and contention `c = p`, the dominant
//! term is `log² p`.
//!
//! Reported series: mean/max steps per successful dequeue vs `p` on a
//! prefilled queue under a dequeue-leaning mix, with the `steps / log²2(p)`
//! ratio that should flatten if the bound is tight.

use wfqueue::{bounded, unbounded};
use wfqueue_bench::exp;
use wfqueue_harness::queue_api::Ms;
use wfqueue_harness::table::{f1, f2, Table};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

fn main() {
    let mut table = Table::new(
        "E3: steps per non-null dequeue vs p (Theorem 22: O(log^2 p) at fixed q)",
        &[
            "p",
            "log2(p)^2",
            "wf-unb avg",
            "wf-unb /log^2",
            "wf-unb max",
            "wf-bnd avg",
            "ms avg",
        ],
    );
    for &p in exp::p_sweep() {
        // Balanced mix over a large prefill keeps q near-constant while
        // keeping all p processes contending.
        let s = WorkloadSpec {
            threads: p,
            ops_per_thread: (40_000 / p).max(500),
            enqueue_permille: 500,
            prefill: 4_096,
            seed: 0xE3,
        };
        let unb = run_workload(&unbounded::Queue::new(p), &s);
        let bnd = run_workload(&bounded::Queue::new(p), &s);
        let ms = run_workload(&Ms::new(), &s);
        let lg = exp::log2(p.max(2) as f64);
        table.row_owned(vec![
            p.to_string(),
            f1(lg * lg),
            f1(unb.dequeue_hit.steps_avg()),
            f2(unb.dequeue_hit.steps_avg() / (lg * lg)),
            unb.dequeue_hit.steps_max.to_string(),
            f1(bnd.dequeue_hit.steps_avg()),
            f1(ms.dequeue_hit.steps_avg()),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape: wf-unb grows no faster than log^2(p) (ratio column flattens);\n\
         the ms-queue column grows linearly with contention in adversarial regimes.\n"
    );
}
