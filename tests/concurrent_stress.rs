//! Heavier concurrent stress with built-in audits, through the shared
//! workload runner: per-producer FIFO, no loss, no duplication, across
//! thread counts and mixes, for both queue variants.

use wfqueue::{bounded, unbounded};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

fn stress_spec(threads: usize, seed: u64, enqueue_permille: u32) -> WorkloadSpec {
    WorkloadSpec {
        threads,
        ops_per_thread: 4_000,
        enqueue_permille,
        prefill: 128,
        seed,
    }
}

#[test]
fn unbounded_balanced_mix_scaling() {
    for threads in [2, 4, 8] {
        let q = unbounded::Queue::new(threads);
        let r = run_workload(&q, &stress_spec(threads, 11, 500));
        assert!(r.audits_ok(), "p={threads}: {r:?}");
        assert_eq!(r.total_ops(), (threads * 4_000) as u64);
        wfqueue::unbounded::introspect::check_invariants(&q).unwrap();
    }
}

#[test]
fn unbounded_enqueue_heavy_and_dequeue_heavy() {
    for (seed, permille) in [(21, 800), (22, 200)] {
        let q = unbounded::Queue::new(6);
        let r = run_workload(&q, &stress_spec(6, seed, permille));
        assert!(r.audits_ok(), "permille={permille}: {r:?}");
        wfqueue::unbounded::introspect::check_invariants(&q).unwrap();
    }
}

#[test]
fn bounded_balanced_mix_scaling_default_gc() {
    for threads in [2, 4, 8] {
        let q = bounded::Queue::new(threads);
        let r = run_workload(&q, &stress_spec(threads, 31, 500));
        assert!(r.audits_ok(), "p={threads}: {r:?}");
        wfqueue::bounded::introspect::check_invariants(&q).unwrap();
    }
}

#[test]
fn bounded_with_tiny_gc_periods() {
    for gc in [1, 2, 5] {
        let q = bounded::Queue::with_gc_period(4, gc);
        let r = run_workload(
            &q,
            &WorkloadSpec {
                threads: 4,
                ops_per_thread: 1_500,
                enqueue_permille: 500,
                prefill: 32,
                seed: 41 + gc as u64,
            },
        );
        assert!(r.audits_ok(), "gc={gc}: {r:?}");
        wfqueue::bounded::introspect::check_invariants(&q).unwrap();
    }
}

#[test]
fn null_dequeues_are_exercised_and_safe() {
    // Dequeue-only on an empty queue: every dequeue is null; then verify a
    // subsequent mixed phase still behaves.
    let q = unbounded::Queue::new(3);
    let r = run_workload(
        &q,
        &WorkloadSpec {
            threads: 3,
            ops_per_thread: 1_000,
            enqueue_permille: 0,
            prefill: 0,
            seed: 77,
        },
    );
    assert_eq!(r.dequeue_null.count, 3_000);
    assert_eq!(r.dequeue_hit.count, 0);
    assert!(r.audits_ok());
}

#[test]
fn conservation_of_values() {
    // enqueued == dequeued + still-in-queue, measured by a full drain.
    let threads = 5;
    let q = unbounded::Queue::new(threads + 1);
    let r = run_workload(&q, &stress_spec(threads, 55, 600));
    let mut drain = q.register().expect("one spare handle");
    let mut remaining = 0u64;
    while drain.dequeue().is_some() {
        remaining += 1;
    }
    assert_eq!(
        r.enqueued + 128, // prefill
        r.dequeued + remaining,
        "values lost or invented: {r:?}"
    );
}
