//! Uncontended single-operation latency (Criterion) — quantifies the §7
//! remark that the ordering-tree queue "has a higher cost than the MS-queue
//! in the best case (when an operation runs by itself)".

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use wfqueue::{bounded, unbounded};
use wfqueue_harness::queue_api::{CoarseMutex, ConcurrentQueue, Ms, QueueHandle, TwoLock};

fn bench_pair<Q, F>(c: &mut Criterion, make: F, name: &str)
where
    Q: ConcurrentQueue<u64>,
    F: Fn() -> Q,
{
    let mut group = c.benchmark_group("latency_pair");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    let q = make();
    let mut h = q.handle();
    group.bench_function(name, |b| {
        b.iter(|| {
            h.enqueue(7);
            std::hint::black_box(h.dequeue())
        })
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_pair(c, || unbounded::Queue::new(1), "wf-unbounded");
    bench_pair(c, || bounded::Queue::new(1), "wf-bounded");
    bench_pair(c, Ms::new, "ms-queue");
    bench_pair(c, TwoLock::new, "two-lock");
    bench_pair(c, CoarseMutex::new, "mutex");
}

criterion_group!(latency, benches);
criterion_main!(latency);
