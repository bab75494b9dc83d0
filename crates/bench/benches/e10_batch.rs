//! Experiment E10-batch — batched leaf blocks amortize propagation.
//!
//! The tree's internal blocks always aggregated many operations via the
//! O(1)-mergeable prefix sums; batched leaf blocks extend that to the leaf
//! level, so one `try_install` + one `Propagate` covers a whole batch of
//! `k` operations. This experiment sweeps the batch size 1→256 against the
//! per-op baseline and reports:
//!
//! * enqueue-only throughput and amortized steps/CAS per operation at
//!   `p = 4` producer threads (acceptance: throughput strictly improves
//!   with the batch size);
//! * a mixed 50/50 batched closed loop for the same sweep;
//! * a CAS-parity check — batch size 1 must cost **exactly** the same CAS
//!   instructions as the per-op path (`metrics` counters), i.e. the batch
//!   path is the per-op path when `k = 1`.
//!
//! `--json` prints a machine-readable summary (used by
//! `scripts/bench.sh e10_batch` to record `BENCH_e10.json`).

use wfqueue::{bounded, unbounded};
use wfqueue_harness::queue_api::ConcurrentQueue;
use wfqueue_harness::table::{f1, f2, Table};
use wfqueue_harness::workload::{run_batch_workload, BatchRunReport, BatchWorkloadSpec};

const BATCH_SIZES: &[usize] = &[1, 4, 16, 64, 256];
const THREADS: usize = 4;
/// Values each thread enqueues per measured run (divisible by every k).
const VALUES_PER_THREAD: usize = 16_384;

fn enqueue_only_spec(batch_size: usize) -> BatchWorkloadSpec {
    BatchWorkloadSpec {
        threads: THREADS,
        batches_per_thread: VALUES_PER_THREAD / batch_size,
        batch_size,
        enqueue_permille: 1000,
        prefill: 0,
        seed: 0xE10,
    }
}

fn mixed_spec(batch_size: usize) -> BatchWorkloadSpec {
    BatchWorkloadSpec {
        threads: THREADS,
        batches_per_thread: VALUES_PER_THREAD / batch_size,
        batch_size,
        enqueue_permille: 500,
        prefill: 1_024,
        seed: 0xE10 + 1,
    }
}

struct SeriesPoint {
    queue: &'static str,
    mode: &'static str,
    batch_size: usize,
    report: BatchRunReport,
}

fn sweep<Q: ConcurrentQueue<u64>, F: Fn() -> Q>(
    make: F,
    queue: &'static str,
    mode: &'static str,
    spec_of: fn(usize) -> BatchWorkloadSpec,
    out: &mut Vec<SeriesPoint>,
) {
    for &k in BATCH_SIZES {
        let q = make();
        let report = run_batch_workload(&q, &spec_of(k));
        assert!(report.audits_ok(), "{queue}/{mode} k={k}: audits failed");
        out.push(SeriesPoint {
            queue,
            mode,
            batch_size: k,
            report,
        });
    }
}

/// Measures total CAS instructions for the same single-threaded script once
/// through the per-op API and once through batch size 1. Must be equal.
fn cas_parity() -> (u64, u64) {
    let script_len = 4_000u64;
    let per_op = {
        let q = unbounded::Queue::new(2);
        let mut h = q.handle();
        let (_, steps) = wfqueue_metrics::measure(|| {
            for i in 0..script_len {
                if i % 3 == 2 {
                    let _ = h.dequeue();
                } else {
                    h.enqueue(i);
                }
            }
        });
        steps.cas_total()
    };
    let batched_k1 = {
        let q = unbounded::Queue::new(2);
        let mut h = q.handle();
        let (_, steps) = wfqueue_metrics::measure(|| {
            for i in 0..script_len {
                if i % 3 == 2 {
                    let _ = h.dequeue_batch(1);
                } else {
                    h.enqueue_batch(vec![i]);
                }
            }
        });
        steps.cas_total()
    };
    (per_op, batched_k1)
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    let mut series: Vec<SeriesPoint> = Vec::new();
    sweep(
        || unbounded::Queue::new(THREADS),
        "wf-unbounded",
        "enqueue-only",
        enqueue_only_spec,
        &mut series,
    );
    sweep(
        || bounded::Queue::new(THREADS),
        "wf-bounded",
        "enqueue-only",
        enqueue_only_spec,
        &mut series,
    );
    sweep(
        || unbounded::Queue::new(THREADS),
        "wf-unbounded",
        "mixed-50/50",
        mixed_spec,
        &mut series,
    );
    let (cas_per_op_path, cas_batch1_path) = cas_parity();
    assert_eq!(
        cas_per_op_path, cas_batch1_path,
        "batch size 1 must match the per-op path's CAS count exactly"
    );

    if json {
        // Hand-rolled JSON (no serde in the offline workspace).
        let mut rows = String::new();
        for (i, p) in series.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"queue\": \"{}\", \"mode\": \"{}\", \"batch_size\": {}, \
                 \"ops_per_sec\": {:.0}, \"steps_per_op\": {:.2}, \"cas_per_op\": {:.3}}}",
                p.queue,
                p.mode,
                p.batch_size,
                p.report.ops_per_sec(),
                p.report.steps_per_op(),
                p.report.cas_per_op(),
            ));
        }
        println!(
            "{{\n  \"experiment\": \"e10_batch\",\n  \"threads\": {THREADS},\n  \
             \"values_per_thread\": {VALUES_PER_THREAD},\n  \"cas_parity\": \
             {{\"per_op\": {cas_per_op_path}, \"batch_of_one\": {cas_batch1_path}}},\n  \
             \"series\": [\n{rows}\n  ]\n}}"
        );
        return;
    }

    for mode in ["enqueue-only", "mixed-50/50"] {
        let mut table = Table::new(
            &format!("E10-batch: {mode} amortization vs batch size (p = {THREADS})"),
            &[
                "queue",
                "k",
                "ops/s",
                "steps/op",
                "cas/op",
                "speedup vs k=1",
            ],
        );
        for p in series.iter().filter(|p| p.mode == mode) {
            let base = series
                .iter()
                .find(|b| b.mode == mode && b.queue == p.queue && b.batch_size == 1)
                .expect("k=1 baseline present");
            table.row_owned(vec![
                p.queue.to_owned(),
                p.batch_size.to_string(),
                format!("{:.0}", p.report.ops_per_sec()),
                f1(p.report.steps_per_op()),
                f2(p.report.cas_per_op()),
                format!("{:.2}x", p.report.ops_per_sec() / base.report.ops_per_sec()),
            ]);
        }
        println!("{table}");
    }
    println!(
        "CAS parity: per-op path = {cas_per_op_path}, batch-of-one path = {cas_batch1_path} \
         (exactly equal)\n"
    );
    println!(
        "expected shape: steps/op and cas/op fall ~k-fold with the batch size (one\n\
         propagation per batch); ops/s climbs accordingly until allocation and memory\n\
         bandwidth dominate.\n"
    );
}
