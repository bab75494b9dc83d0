//! Cross-crate behaviour of the **sharded frontend**: a one-shard
//! `ShardedQueue` is observationally identical to its inner queue (with
//! exact CAS parity, mirroring the batch-size-1 parity of the batched
//! API), per-shard sub-histories of the composite are linearizable
//! (Wing–Gong in per-shard mode), and the composite's per-producer FIFO
//! contract survives an adversarial-scheduler violation hunt.

use proptest::prelude::*;

use wfqueue_harness::lincheck::{self, Event, Op};
use wfqueue_harness::queue_api::Routing;
use wfqueue_harness::workload::{run_workload, WorkloadSpec};
use wfqueue_harness::QueueHandle;
use wfqueue_shard::{ShardedBounded, ShardedQueue, ShardedUnbounded};

/// Both routing policies. Each preserves per-producer FIFO on the
/// composite and keeps handle `i`'s enqueues on shard `i % S`, so a
/// value's shard is derivable from its producer tag — what the per-shard
/// sub-history filter needs.
const ROUTINGS: [Routing; 2] = [Routing::PerProducer, Routing::Nearest];

/// A composite over `shards` §6 shards with a fixed GC period.
fn bounded_shards(
    shards: usize,
    handles: usize,
    gc_period: usize,
    routing: Routing,
) -> ShardedBounded<u64> {
    ShardedQueue::build(shards, handles, routing, |cap| {
        wfqueue::bounded::Queue::with_gc_period(cap, gc_period)
    })
}

// ---------------------------------------------------------------------------
// S = 1 is the inner queue
// ---------------------------------------------------------------------------

/// One step of a generated single-threaded script: `(kind % 4, size)`.
fn apply_script<H: QueueHandle<u64>, G: QueueHandle<u64>>(
    script: &[(u8, u8)],
    a: &mut H,
    b: &mut G,
) -> Result<(), TestCaseError> {
    let mut next = 0u64;
    for &(kind, size) in script {
        match kind % 4 {
            0 => {
                a.enqueue(next);
                b.enqueue(next);
                next += 1;
            }
            1 => prop_assert_eq!(a.dequeue(), b.dequeue()),
            2 => {
                let batch: Vec<u64> = (0..u64::from(size)).map(|j| next + j).collect();
                next += u64::from(size);
                a.enqueue_batch(batch.clone());
                b.enqueue_batch(batch);
            }
            _ => prop_assert_eq!(
                a.dequeue_batch(size as usize),
                b.dequeue_batch(size as usize)
            ),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Mirror of PR 2's batch-size-1 parity property: a ShardedQueue with
    // S = 1 must be observationally identical to the queue it wraps, under
    // every routing policy and on both variants.
    #[test]
    fn sharded_s1_matches_inner_queue(script in proptest::collection::vec((0u8..4, 1u8..6), 0..48)) {
        for routing in ROUTINGS {
            let sharded: ShardedUnbounded<u64> = ShardedUnbounded::new(1, 1, routing);
            let inner = wfqueue::unbounded::Queue::new(1);
            let mut sh = sharded.try_handle().expect("one handle");
            let mut ih = inner.register().expect("one handle");
            apply_script(&script, &mut sh, &mut ih)?;

            let sharded = bounded_shards(1, 1, 4, routing);
            let inner: wfqueue::bounded::Queue<u64> = wfqueue::bounded::Queue::with_gc_period(1, 4);
            let mut sh = sharded.try_handle().expect("one handle");
            let mut ih = inner.register().expect("one handle");
            apply_script(&script, &mut sh, &mut ih)?;
        }
    }
}

#[test]
fn sharded_s1_cas_parity_with_inner_queue() {
    // Exact CAS parity on a fixed mixed script, including registration:
    // the S = 1 frontend adds routing arithmetic (thread-local) and
    // nothing else to the shared-memory footprint.
    fn drive<H: QueueHandle<u64>>(mut h: H) {
        for i in 0..3_000u64 {
            match i % 5 {
                4 => {
                    let _ = h.dequeue();
                }
                3 => {
                    let _ = h.dequeue_batch(3);
                }
                2 => h.enqueue_batch(vec![i, i + 1]),
                _ => h.enqueue(i),
            }
        }
    }
    let plain = {
        let q = wfqueue::unbounded::Queue::<u64>::new(1);
        let (_, steps) = wfqueue_metrics::measure(|| drive(q.register().expect("one handle")));
        steps.cas_total()
    };
    let sharded = {
        let q: ShardedUnbounded<u64> = ShardedUnbounded::new(1, 1, Routing::PerProducer);
        let (_, steps) = wfqueue_metrics::measure(|| drive(q.try_handle().expect("one handle")));
        steps.cas_total()
    };
    assert_eq!(
        plain, sharded,
        "S=1 sharded frontend must match the inner queue's CAS count exactly"
    );
}

// ---------------------------------------------------------------------------
// Wing–Gong checking: composite at S = 1, per-shard mode for S > 1
// ---------------------------------------------------------------------------

#[test]
fn composite_with_one_shard_is_linearizable() {
    // Under either policy the composite at S = 1 must be one
    // linearizable FIFO.
    for routing in ROUTINGS {
        for round in 0..10u64 {
            let q = ShardedUnbounded::new(1, 3, routing);
            let h = lincheck::record_history(&q, 3, 4, 500, round * 13 + 1);
            assert_eq!(h.len(), 12);
            lincheck::check_linearizable(&h)
                .unwrap_or_else(|e| panic!("{routing:?} round {round}: {e}"));
        }
    }
}

/// The shard a recorded value lives on: `record_history` tags values with
/// the producing thread in the upper bits, and both FIFO-preserving
/// policies pin handle `i`'s enqueues to shard `i % S`.
fn shard_of(value: u32, shards: usize) -> usize {
    ((value >> 16) as usize) % shards
}

#[test]
fn per_shard_sub_histories_are_linearizable() {
    // For S > 1 the composite is deliberately not one linearizable FIFO;
    // the checkable contract is per shard. Restricting the history to one
    // shard's operations keeps every constraint that concerns that shard:
    // composite intervals contain the shard-op intervals, and dropping
    // null dequeues (which touch several shards and change no state) never
    // hides a violation.
    for routing in ROUTINGS {
        for shards in [2usize, 3] {
            for round in 0..12u64 {
                let q = ShardedUnbounded::new(shards, 4, routing);
                let history = lincheck::record_history(&q, 4, 4, 500, round * 29 + 5);
                for s in 0..shards {
                    let sub: Vec<Event> = history
                        .iter()
                        .copied()
                        .filter(|e| match e.op {
                            Op::Enqueue(v) | Op::Dequeue(Some(v)) => shard_of(v, shards) == s,
                            Op::Dequeue(None) => false,
                        })
                        .collect();
                    lincheck::check_linearizable(&sub).unwrap_or_else(|e| {
                        panic!("{routing:?} S={shards} shard {s} round {round}: {e}")
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-producer FIFO violation hunt under the adversarial scheduler
// ---------------------------------------------------------------------------

#[test]
fn adversarial_fifo_hunt_on_composites() {
    // With every read-to-CAS window yielding, lost CASes and helping paths
    // fire constantly inside each shard while the frontend routes around
    // them. Per-producer FIFO and no-duplication must survive under both
    // policies, every shard count and both variants.
    wfqueue_metrics::set_adversary(true);
    for routing in ROUTINGS {
        for shards in [2usize, 4] {
            let spec = WorkloadSpec {
                threads: 8,
                ops_per_thread: 400,
                enqueue_permille: 550,
                prefill: 0,
                seed: 0xF1F0 + shards as u64,
            };
            let q = ShardedUnbounded::new(shards, 8, routing);
            let r = run_workload(&q, &spec);
            assert!(r.audits_ok(), "unbounded {routing:?} S={shards}: {r:?}");
            for shard in q.shards() {
                wfqueue::unbounded::introspect::check_invariants(shard).unwrap();
            }

            let spec = WorkloadSpec {
                threads: 6,
                ops_per_thread: 250,
                ..spec
            };
            let q = bounded_shards(shards, 6, 8, routing);
            let r = run_workload(&q, &spec);
            assert!(r.audits_ok(), "bounded {routing:?} S={shards}: {r:?}");
            for shard in q.shards() {
                wfqueue::bounded::introspect::check_invariants(shard).unwrap();
            }
        }
    }
    wfqueue_metrics::set_adversary(false);
}
