//! Mutation testing for the linearizability checker: a checker that accepts
//! everything proves nothing, so we verify it *rejects* subtly corrupted
//! histories — the exact bug classes a broken queue would produce.

use proptest::prelude::*;
use wfqueue_harness::lincheck::{check_linearizable, record_history, Event, Op};
use wfqueue_harness::queue_api::CoarseMutex;

fn record_valid(seed: u64) -> Vec<Event> {
    let q = CoarseMutex::new();
    record_history(&q, 3, 4, 500, seed)
}

#[test]
fn valid_histories_accepted() {
    for seed in 0..20 {
        check_linearizable(&record_valid(seed)).unwrap();
    }
}

/// Swaps the responses of the first two value-returning dequeues (a FIFO
/// order violation a buggy queue could produce). Returns `None` if the
/// history has fewer than two hits or they returned the same value.
fn swap_two_dequeue_responses(history: &mut [Event]) -> Option<()> {
    let hits: Vec<usize> = history
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.op, Op::Dequeue(Some(_))))
        .map(|(i, _)| i)
        .collect();
    if hits.len() < 2 {
        return None;
    }
    let (a, b) = (hits[0], hits[1]);
    let (Op::Dequeue(x), Op::Dequeue(y)) = (history[a].op, history[b].op) else {
        unreachable!()
    };
    if x == y {
        return None;
    }
    history[a].op = Op::Dequeue(y);
    history[b].op = Op::Dequeue(x);
    Some(())
}

#[test]
fn value_invention_rejected() {
    for seed in 0..10 {
        let mut h = record_valid(seed);
        // Replace a null dequeue's response with a never-enqueued value.
        if let Some(e) = h.iter_mut().find(|e| matches!(e.op, Op::Dequeue(None))) {
            e.op = Op::Dequeue(Some(0xDEAD));
            assert!(
                check_linearizable(&h).is_err(),
                "invented value accepted (seed {seed})"
            );
            return;
        }
    }
    panic!("no null dequeue found to mutate in 10 seeds");
}

#[test]
fn duplicated_delivery_rejected() {
    for seed in 0..20 {
        let mut h = record_valid(seed);
        let hit_value = h.iter().find_map(|e| match e.op {
            Op::Dequeue(Some(v)) => Some(v),
            _ => None,
        });
        let (Some(v), Some(null_idx)) = (
            hit_value,
            h.iter().position(|e| matches!(e.op, Op::Dequeue(None))),
        ) else {
            continue;
        };
        // A second dequeue also claims to have received v.
        h[null_idx].op = Op::Dequeue(Some(v));
        assert!(
            check_linearizable(&h).is_err(),
            "duplicate delivery accepted (seed {seed})"
        );
        return;
    }
    panic!("no suitable history found to mutate");
}

#[test]
fn lost_value_then_spurious_empty_rejected() {
    // Enqueue(v) completes, nothing ever dequeues v, but a later dequeue
    // that starts after everything finished returns None while v is the
    // only value: not linearizable.
    let h = vec![
        Event {
            invoke: 0,
            ret: 1,
            op: Op::Enqueue(42),
        },
        Event {
            invoke: 2,
            ret: 3,
            op: Op::Dequeue(None),
        },
    ];
    assert!(check_linearizable(&h).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn swapped_fifo_order_rejected_when_ops_are_sequential(seed in 0u64..5_000) {
        // Build a *sequential* history (one thread) so every pair of
        // dequeues is strictly ordered; swapping two distinct responses
        // must then always be non-linearizable.
        let q = CoarseMutex::new();
        let mut h = record_history(&q, 1, 8, 600, seed);
        prop_assume!(swap_two_dequeue_responses(&mut h).is_some());
        prop_assert!(check_linearizable(&h).is_err());
    }
}

// ---------------------------------------------------------------------------
// Mutation testing for the interleaving model checker (`--features model`)
// ---------------------------------------------------------------------------

/// The same philosophy as above, aimed at the *model checker*: exhaustive
/// green runs in `tests/model.rs` prove nothing unless the explorer
/// demonstrably rejects broken variants of the same protocols. Each test
/// seeds one historical-bug-shaped mutation into a protocol replica
/// (see `wfqueue_sync::model::protocols`) and requires the explorer to
/// find a failing schedule. Together with `tests/model.rs` this is the
/// sound/complete pair: correct protocols pass every schedule, each
/// mutation is caught in at least one.
#[cfg(feature = "model")]
mod model_checker_power {
    use wfqueue_sync::model::{protocols, try_explore, Options};

    fn opts() -> Options {
        Options::from_env()
    }

    /// Dropping `Signal::notify`'s SeqCst fence re-opens the Dekker race:
    /// the notifier can miss the waiter's publication while the waiter
    /// can still read the stale (pre-store) data value — a lost wakeup,
    /// surfacing as a modeled deadlock.
    #[test]
    fn signal_dropped_notify_fence_detected() {
        let failure = try_explore(
            opts(),
            protocols::signal_scenario(
                protocols::SignalBugs {
                    skip_notify_fence: true,
                    ..Default::default()
                },
                false,
            ),
        )
        .expect_err("dropped notify fence must be caught");
        assert!(
            failure.message.contains("deadlock"),
            "expected a lost-wakeup deadlock, got: {failure}"
        );
    }

    /// Skipping the waiter's re-check between `listen` and `wait` loses
    /// the wakeup whenever the notify ran entirely before the
    /// publication.
    #[test]
    fn signal_skipped_listen_recheck_detected() {
        let failure = try_explore(
            opts(),
            protocols::signal_scenario(
                protocols::SignalBugs {
                    skip_listen_recheck: true,
                    ..Default::default()
                },
                false,
            ),
        )
        .expect_err("skipped listen re-check must be caught");
        assert!(
            failure.message.contains("deadlock"),
            "expected a lost-wakeup deadlock, got: {failure}"
        );
    }

    /// Weakening the capacity gate's reservation CAS to `Relaxed` lets a
    /// producer whose CAS lands directly on a consumer's release observe
    /// the slot's previous payload (the cleanup edge is lost).
    #[test]
    fn gate_weakened_cas_ordering_detected() {
        let failure = try_explore(
            opts(),
            protocols::gate_scenario(protocols::GateBugs { weak_cas: true }),
        )
        .expect_err("weakened gate CAS ordering must be caught");
        assert!(
            failure.message.contains("cleanup is not visible"),
            "expected a stale-slot assert, got: {failure}"
        );
    }

    /// Skipping `begin_op`'s frontier re-check lets a truncator that
    /// scanned hazards between the reader's frontier load and its
    /// publication free the very slot the reader clamps to.
    #[test]
    fn hazard_skipped_recheck_detected() {
        let failure = try_explore(
            opts(),
            protocols::hazard_scenario(protocols::HazardBugs {
                skip_publish_recheck: true,
                ..Default::default()
            }),
        )
        .expect_err("skipped hazard re-check must be caught");
        assert!(
            failure.message.contains("freed the slot"),
            "expected a freed-slot assert, got: {failure}"
        );
    }

    /// Publishing the hazard with `Relaxed` keeps it out of the SC order
    /// the truncator's scan relies on: the scan can miss it entirely.
    #[test]
    fn hazard_relaxed_publication_detected() {
        let failure = try_explore(
            opts(),
            protocols::hazard_scenario(protocols::HazardBugs {
                relaxed_hazard_store: true,
                ..Default::default()
            }),
        )
        .expect_err("relaxed hazard publication must be caught");
        assert!(
            failure.message.contains("freed the slot"),
            "expected a freed-slot assert, got: {failure}"
        );
    }

    /// Rounding the truncator's chunk release up to the next chunk boundary
    /// releases the chunk that holds the boundary summary — the slot a held
    /// hazard clamps to — even though the slot itself was kept.
    #[test]
    fn hazard_chunk_release_rounded_up_detected() {
        let failure = try_explore(
            opts(),
            protocols::hazard_scenario(protocols::HazardBugs {
                round_chunk_release_up: true,
                ..Default::default()
            }),
        )
        .expect_err("chunk release rounded up must be caught");
        assert!(
            failure.message.contains("released the chunk"),
            "expected a released-chunk assert, got: {failure}"
        );
    }

    /// Skipping the nearest scan's fallback pass strands a value behind
    /// a stale `Relaxed` hint: the consumer can re-read the lowered hint
    /// forever (coherence permits it) and never probe the shard —
    /// surfacing as a livelock at the step bound.
    #[test]
    fn scan_skipped_fallback_detected() {
        let failure = try_explore(
            opts(),
            protocols::scan_scenario(protocols::ScanBugs {
                skip_fallback: true,
            }),
        )
        .expect_err("skipped scan fallback must be caught");
        assert!(
            failure.message.contains("livelock"),
            "expected a stranded-value livelock, got: {failure}"
        );
    }

    /// Dropping the phase tag from the ring's fill CAS lets an enqueue
    /// helper that stalled across a whole slot recycle re-fill the next
    /// ticket's slot with its stale value — lap 2 dequeues lap 1's value.
    #[test]
    fn ring_untagged_slot_cas_detected() {
        let failure = try_explore(
            opts(),
            protocols::ring_scenario(protocols::RingBugs {
                untagged_slot_cas: true,
                ..Default::default()
            }),
        )
        .expect_err("untagged ring fill CAS must be caught");
        assert!(
            failure.message.contains("stale ring helper"),
            "expected a crossed-generation assert, got: {failure}"
        );
    }

    /// Dropping the phase tag from the ring's result word lets a dequeue
    /// helper that stalled past its operation's completion deliver its
    /// stale value into the successor's freshly-reset result.
    ///
    /// The offending schedule parks the helper between its slot read and
    /// its result CAS while the main thread crosses a whole operation
    /// boundary (finish dequeue 0, run enqueue 1, reset dequeue 1's
    /// result) — one more involuntary switch than the default bound of 2
    /// covers, so this test widens the bound to 3.
    #[test]
    fn ring_untagged_result_detected() {
        let mut o = opts();
        o.preemption_bound = o.preemption_bound.max(3);
        let failure = try_explore(
            o,
            protocols::ring_scenario(protocols::RingBugs {
                untagged_result: true,
                ..Default::default()
            }),
        )
        .expect_err("untagged ring result word must be caught");
        assert!(
            failure.message.contains("stale ring helper"),
            "expected a crossed-generation assert, got: {failure}"
        );
    }

    /// Skipping the executor worker's post-`listen` re-check loses the
    /// wakeup whenever the stealer drains the last task and notifies
    /// between the worker's empty probe and its `listen` — the worker
    /// parks forever, a modeled deadlock.
    #[test]
    fn steal_park_skipped_recheck_detected() {
        let failure = try_explore(
            opts(),
            protocols::steal_park_scenario(protocols::StealParkBugs {
                skip_park_recheck: true,
                ..Default::default()
            }),
        )
        .expect_err("skipped pre-park re-check must be caught");
        assert!(
            failure.message.contains("deadlock"),
            "expected a lost-wakeup deadlock, got: {failure}"
        );
    }

    /// Weakening the steal's claim CAS to `Relaxed` keeps the claim
    /// atomic but drops the acquire of the spawner's task publication:
    /// the stealer can run a task whose payload store is not yet
    /// visible.
    #[test]
    fn steal_park_relaxed_steal_cas_detected() {
        let failure = try_explore(
            opts(),
            protocols::steal_park_scenario(protocols::StealParkBugs {
                relaxed_steal_cas: true,
                ..Default::default()
            }),
        )
        .expect_err("relaxed steal CAS must be caught");
        assert!(
            failure.message.contains("payload publication"),
            "expected a stale-payload assert, got: {failure}"
        );
    }
}
