//! Experiment E6 — Theorem 32: the bounded-space queue has amortized step
//! complexity `O(log p · log(p + q))` per operation, *including* all
//! garbage-collection work (SplitBlock, Help, tree splits).
//!
//! Two sweeps: amortized steps vs `p` at small fixed `q`, and vs `q` at
//! fixed `p`, each with the `steps / (log2 p · log2(p+q))` ratio column
//! that should flatten if the bound is tight.

use wfqueue::bounded;
use wfqueue_bench::exp;
use wfqueue_harness::table::{f1, f2, Table};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

fn main() {
    let mut by_p = Table::new(
        "E6a: bounded queue amortized steps vs p (Theorem 32), q ~ 256",
        &[
            "p",
            "lgp*lg(p+q)",
            "steps avg",
            "ratio",
            "gc phases",
            "helps",
        ],
    );
    for &p in exp::p_sweep() {
        let s = WorkloadSpec {
            threads: p,
            ops_per_thread: (30_000 / p).max(400),
            enqueue_permille: 500,
            prefill: 256,
            seed: 0xE6,
        };
        let q = bounded::Queue::new(p);
        let report = run_workload(&q, &s);
        let gc =
            report.enqueue.gc_phases + report.dequeue_hit.gc_phases + report.dequeue_null.gc_phases;
        let helps = report.enqueue.help_calls
            + report.dequeue_hit.help_calls
            + report.dequeue_null.help_calls;
        let lg = exp::log2(p.max(2) as f64) * exp::log2((p + 256) as f64);
        by_p.row_owned(vec![
            p.to_string(),
            f1(lg),
            f1(report.steps_avg()),
            f2(report.steps_avg() / lg),
            gc.to_string(),
            helps.to_string(),
        ]);
    }
    println!("{by_p}");

    let mut by_q = Table::new(
        "E6b: bounded queue amortized steps vs q (Theorem 32), p = 4",
        &["q", "lgp*lg(p+q)", "steps avg", "ratio"],
    );
    for exp2 in [4u32, 6, 8, 10, 12, 14] {
        let qsize = 1usize << exp2;
        let s = WorkloadSpec {
            threads: 4,
            ops_per_thread: 4_000,
            enqueue_permille: 500,
            prefill: qsize,
            seed: 0xE6B,
        };
        let q = bounded::Queue::new(4);
        let report = run_workload(&q, &s);
        let lg = exp::log2(4.0_f64) * exp::log2((4 + qsize) as f64);
        by_q.row_owned(vec![
            qsize.to_string(),
            f1(lg),
            f1(report.steps_avg()),
            f2(report.steps_avg() / lg),
        ]);
    }
    println!("{by_q}");
    println!(
        "expected shape: both ratio columns flatten (amortized cost tracks\n\
         log p * log(p+q), including GC work).\n"
    );
}
