//! Experiment E1 — Proposition 19/19′: every wait-free queue operation
//! performs `O(log p)` CAS instructions, versus the `Ω(p)`-CAS behaviour of
//! CAS-retry queues (§1 of the paper).
//!
//! Reported series: mean and worst-case CAS instructions per operation as a
//! function of the process count `p`, for both wait-free variants and the
//! Michael–Scott queue, under a contended 50/50 closed loop.

use wfqueue::{bounded, unbounded};
use wfqueue_bench::exp;
use wfqueue_harness::queue_api::Ms;
use wfqueue_harness::table::{f1, f2, Table};
use wfqueue_harness::workload::{run_workload, RunReport, WorkloadSpec};

fn spec(p: usize) -> WorkloadSpec {
    WorkloadSpec {
        threads: p,
        ops_per_thread: (40_000 / p).max(500),
        enqueue_permille: 500,
        prefill: 256,
        seed: 0xE1,
    }
}

fn cas_cols(r: &RunReport) -> (f64, u64) {
    let total = r.enqueue.cas_total + r.dequeue_hit.cas_total + r.dequeue_null.cas_total;
    let max = r
        .enqueue
        .cas_max
        .max(r.dequeue_hit.cas_max)
        .max(r.dequeue_null.cas_max);
    (total as f64 / r.total_ops() as f64, max)
}

fn main() {
    // The paper's Omega(p) claims are about worst-case schedules; enable the
    // adversarial scheduler so the read-to-CAS races actually occur (see
    // wfqueue_metrics::set_adversary).
    wfqueue_metrics::set_adversary(true);
    println!("(adversarial round-robin scheduler: ON)\n");

    let mut table = Table::new(
        "E1: CAS instructions per operation vs p (Proposition 19: wf = O(log p))",
        &[
            "p",
            "log2(p)",
            "wf-unb avg",
            "wf-unb max",
            "wf-bnd avg",
            "wf-bnd max",
            "ms avg",
            "ms max",
            "ms failed/op",
        ],
    );
    for &p in exp::p_sweep() {
        let s = spec(p);
        let unb = run_workload(&unbounded::Queue::new(p), &s);
        assert!(unb.audits_ok(), "E1 audits failed on wf-unbounded at p={p}");
        let bnd = run_workload(&bounded::Queue::new(p), &s);
        assert!(bnd.audits_ok(), "E1 audits failed on wf-bounded at p={p}");
        let ms = run_workload(&Ms::new(), &s);
        assert!(ms.audits_ok(), "E1 audits failed on ms-queue at p={p}");
        let (ua, um) = cas_cols(&unb);
        let (ba, bm) = cas_cols(&bnd);
        let (ma, mm) = cas_cols(&ms);
        let ms_failed =
            (ms.enqueue.cas_failed + ms.dequeue_hit.cas_failed + ms.dequeue_null.cas_failed) as f64
                / ms.total_ops() as f64;
        table.row_owned(vec![
            p.to_string(),
            f1(exp::log2(p.max(2) as f64)),
            f2(ua),
            um.to_string(),
            f2(ba),
            bm.to_string(),
            f2(ma),
            mm.to_string(),
            f2(ms_failed),
        ]);
    }
    println!("{table}");
    println!(
        "expected shape: wf columns grow ~ with log2(p) and their max stays small and bounded;\n\
         ms-queue's failed-CAS column grows with contention (the CAS retry problem).\n"
    );
}
