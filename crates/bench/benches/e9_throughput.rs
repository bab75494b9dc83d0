//! Experiment E9 — wall-clock throughput context (Criterion).
//!
//! The paper makes no throughput claims (and §7 concedes the queue costs
//! more than the MS-queue when uncontended); this bench records the
//! ops/sec landscape on this machine for completeness, across queues and
//! thread counts.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wfqueue::{bounded, unbounded};
use wfqueue_harness::queue_api::{CoarseMutex, ConcurrentQueue, Ms, TwoLock};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

fn spec(p: usize, total_ops: u64) -> WorkloadSpec {
    WorkloadSpec {
        threads: p,
        ops_per_thread: (total_ops as usize / p).max(1),
        enqueue_permille: 500,
        prefill: 128,
        seed: 0xE9,
    }
}

fn bench_queue<Q, F>(c: &mut Criterion, make: F, name: &str)
where
    Q: ConcurrentQueue<u64>,
    F: Fn(usize) -> Q,
{
    let mut group = c.benchmark_group("e9_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for p in [1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements(1));
        group.bench_function(BenchmarkId::new(name, p), |b| {
            b.iter_custom(|iters| {
                // One "element" = one queue operation: run `iters` ops split
                // across p threads and report the measured wall time.
                let q = make(p);
                let r = run_workload(&q, &spec(p, iters));
                assert!(r.audits_ok());
                r.elapsed
            });
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_queue(c, unbounded::Queue::new, "wf-unbounded");
    bench_queue(c, bounded::Queue::new, "wf-bounded");
    bench_queue(c, |_| Ms::new(), "ms-queue");
    bench_queue(c, |_| TwoLock::new(), "two-lock");
    bench_queue(c, |_| CoarseMutex::new(), "mutex");
}

criterion_group!(e9, benches);
criterion_main!(e9);
