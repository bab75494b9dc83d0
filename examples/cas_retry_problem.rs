//! The CAS retry problem, live (§1 of the paper).
//!
//! Runs the same contended 50/50 workload twice on the Michael–Scott queue
//! and on the wait-free queue: once under the natural OS schedule, once
//! under the adversarial scheduler (every queue yields the CPU inside its
//! read-to-CAS race window, realising the worst-case round-robin schedule
//! the paper's Ω(p) argument uses). The MS-queue's CAS count explodes; the
//! wait-free queue's does not — a lost CAS never makes it retry.
//!
//! Run with: `cargo run --release --example cas_retry_problem`

use wfqueue::unbounded;
use wfqueue_harness::queue_api::Ms;
use wfqueue_harness::table::{f2, Table};
use wfqueue_harness::workload::{run_workload, RunReport, WorkloadSpec};

fn cas_per_op(r: &RunReport) -> f64 {
    (r.enqueue.cas_total + r.dequeue_hit.cas_total + r.dequeue_null.cas_total) as f64
        / r.total_ops() as f64
}

fn failed_per_op(r: &RunReport) -> f64 {
    (r.enqueue.cas_failed + r.dequeue_hit.cas_failed + r.dequeue_null.cas_failed) as f64
        / r.total_ops() as f64
}

fn main() {
    let threads = 16;
    let spec = WorkloadSpec {
        threads,
        ops_per_thread: 3_000,
        enqueue_permille: 500,
        prefill: 128,
        seed: 7,
    };

    let mut table = Table::new(
        "CAS instructions per operation, p=16 (natural vs adversarial schedule)",
        &["queue", "schedule", "cas/op", "failed cas/op"],
    );
    for adversarial in [false, true] {
        wfqueue_metrics::set_adversary(adversarial);
        let schedule = if adversarial {
            "adversarial"
        } else {
            "natural"
        };
        let ms = run_workload(&Ms::new(), &spec);
        table.row_owned(vec![
            "ms-queue".into(),
            schedule.into(),
            f2(cas_per_op(&ms)),
            f2(failed_per_op(&ms)),
        ]);
        let wf = run_workload(&unbounded::Queue::new(threads), &spec);
        table.row_owned(vec![
            "wf-queue".into(),
            schedule.into(),
            f2(cas_per_op(&wf)),
            f2(failed_per_op(&wf)),
        ]);
    }
    wfqueue_metrics::set_adversary(false);
    println!("{table}");
    println!(
        "The adversary turns nearly every MS-queue CAS into a retry (cost grows with p),\n\
         while the wait-free queue's CAS count stays at its O(log p) budget: its lost\n\
         CASes are absorbed by the double-Refresh rule instead of being retried."
    );
}
