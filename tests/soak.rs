//! Long-running soak tests (excluded from the default run; invoke with
//! `cargo test --release --test soak -- --ignored`).

use wfqueue::{bounded, unbounded};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};
use wfqueue_ring::Ring;

#[test]
#[ignore = "long-running soak; run explicitly with --ignored"]
fn unbounded_half_million_ops() {
    let threads = 8;
    let q = unbounded::Queue::new(threads);
    let r = run_workload(
        &q,
        &WorkloadSpec {
            threads,
            ops_per_thread: 64_000,
            enqueue_permille: 500,
            prefill: 1_024,
            seed: 0x50AC,
        },
    );
    assert!(r.audits_ok(), "{r:?}");
    wfqueue::unbounded::introspect::check_invariants(&q).unwrap();
}

#[test]
#[ignore = "long-running soak; run explicitly with --ignored"]
fn bounded_half_million_ops_small_gc() {
    let threads = 8;
    let q = bounded::Queue::with_gc_period(threads, 32);
    let r = run_workload(
        &q,
        &WorkloadSpec {
            threads,
            ops_per_thread: 64_000,
            enqueue_permille: 500,
            prefill: 1_024,
            seed: 0x50AD,
        },
    );
    assert!(r.audits_ok(), "{r:?}");
    wfqueue::bounded::introspect::check_invariants(&q).unwrap();
    let stats = wfqueue::bounded::introspect::space_stats(&q);
    assert!(
        stats.total_blocks < 200_000,
        "space not reclaimed over the soak: {stats:?}"
    );
}

#[test]
#[ignore = "long-running soak; run explicitly with --ignored"]
fn ring_half_million_ops() {
    let threads = 8;
    // Maximum ring capacity: the 50/50 workload's queue-length random
    // walk stays far below it, so Full (and the adapter's spin) is rare.
    let q = Ring::new(wfqueue_ring::MAX_CAPACITY, threads);
    let r = run_workload(
        &q,
        &WorkloadSpec {
            threads,
            ops_per_thread: 64_000,
            enqueue_permille: 500,
            prefill: 1_024,
            seed: 0x50AE,
        },
    );
    assert!(r.audits_ok(), "{r:?}");
}
