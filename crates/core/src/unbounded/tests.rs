//! Unit and property tests for the unbounded queue.

use std::collections::VecDeque;

use super::introspect;
use super::{Queue, ReclaimPolicy};

/// Drives a single handle through a script and mirrors it on a `VecDeque`.
fn run_script_single(ops: &[Option<u64>]) {
    let q: Queue<u64> = Queue::new(1);
    let mut h = q.register().unwrap();
    let mut model: VecDeque<u64> = VecDeque::new();
    for op in ops {
        match op {
            Some(v) => {
                h.enqueue(*v);
                model.push_back(*v);
            }
            None => {
                assert_eq!(h.dequeue(), model.pop_front());
            }
        }
    }
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn empty_dequeue_returns_none() {
    let q: Queue<u32> = Queue::new(1);
    let mut h = q.register().unwrap();
    assert_eq!(h.dequeue(), None);
    assert_eq!(h.dequeue(), None);
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn fifo_basic() {
    let q: Queue<u32> = Queue::new(1);
    let mut h = q.register().unwrap();
    h.enqueue(1);
    h.enqueue(2);
    h.enqueue(3);
    assert_eq!(h.dequeue(), Some(1));
    assert_eq!(h.dequeue(), Some(2));
    h.enqueue(4);
    assert_eq!(h.dequeue(), Some(3));
    assert_eq!(h.dequeue(), Some(4));
    assert_eq!(h.dequeue(), None);
}

#[test]
fn interleaved_empty_and_nonempty_phases() {
    run_script_single(&[
        None,
        Some(1),
        None,
        None,
        Some(2),
        Some(3),
        None,
        Some(4),
        None,
        None,
        None,
        Some(5),
        None,
    ]);
}

#[test]
fn long_single_process_script() {
    let mut ops = Vec::new();
    for i in 0..500u64 {
        ops.push(Some(i));
        if i % 3 == 0 {
            ops.push(None);
        }
    }
    for _ in 0..600 {
        ops.push(None);
    }
    run_script_single(&ops);
}

#[test]
fn registration_is_bounded() {
    let q: Queue<u8> = Queue::new(3);
    let h1 = q.register();
    let h2 = q.register();
    let h3 = q.register();
    let h4 = q.register();
    assert!(h1.is_some() && h2.is_some() && h3.is_some());
    assert!(h4.is_none());
    assert_eq!(q.num_processes(), 3);
}

#[test]
fn exhausted_registration_does_not_inflate_counter() {
    // Regression: `register` used to `fetch_add` unconditionally, so the
    // Debug `registered` field kept climbing after exhaustion (and the
    // counter could theoretically wrap back to pid 0).
    let q: Queue<u8> = Queue::new(2);
    let _handles = q.handles();
    for _ in 0..50 {
        assert!(q.register().is_none());
    }
    assert!(
        format!("{q:?}").contains("registered: 2"),
        "counter over-reported: {q:?}"
    );
}

#[test]
fn registration_is_race_free_under_contention() {
    // Exactly `cap` of the competing threads may win a handle, with
    // distinct pids, no matter how many race.
    let q: Queue<u8> = Queue::new(4);
    let won: Vec<usize> = wfqueue_sync::thread::scope(|s| {
        let joins: Vec<_> = (0..16)
            .map(|_| s.spawn(|| q.register().map(|h| h.process_id())))
            .collect();
        joins
            .into_iter()
            .filter_map(|j| j.join().unwrap())
            .collect()
    });
    let mut pids = won;
    pids.sort_unstable();
    assert_eq!(pids, vec![0, 1, 2, 3]);
}

#[test]
fn handles_returns_all_remaining() {
    let q: Queue<u8> = Queue::new(4);
    let _first = q.register().unwrap();
    let rest = q.handles();
    assert_eq!(rest.len(), 3);
    let pids: Vec<_> = rest.iter().map(|h| h.process_id()).collect();
    assert_eq!(pids, vec![1, 2, 3]);
}

#[test]
fn round_robin_handles_single_thread() {
    // Sequential use of several handles must still be a FIFO queue (program
    // order is a valid linearization of non-overlapping operations).
    let q: Queue<u64> = Queue::new(4);
    let mut handles = q.handles();
    let mut model: VecDeque<u64> = VecDeque::new();
    for i in 0..400u64 {
        let h = &mut handles[(i % 4) as usize];
        if i % 5 == 3 || i % 11 == 7 {
            assert_eq!(h.dequeue(), model.pop_front(), "op {i}");
        } else {
            h.enqueue(i);
            model.push_back(i);
        }
    }
    // Drain through yet another rotation of handles.
    let mut i = 0;
    while let Some(expect) = model.pop_front() {
        let h = &mut handles[i % 4];
        assert_eq!(h.dequeue(), Some(expect));
        i += 1;
    }
    assert_eq!(handles[0].dequeue(), None);
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn values_can_be_clone_only_types() {
    let q: Queue<String> = Queue::new(1);
    let mut h = q.register().unwrap();
    h.enqueue("hello".to_owned());
    h.enqueue("world".to_owned());
    assert_eq!(h.dequeue().as_deref(), Some("hello"));
    assert_eq!(h.dequeue().as_deref(), Some("world"));
}

#[test]
fn linearization_matches_sequential_program_order() {
    let q: Queue<u64> = Queue::new(2);
    let mut handles = q.handles();
    let mut expected_ops = Vec::new();
    let mut actual_responses = Vec::new();
    for i in 0..120u64 {
        let h = &mut handles[(i % 2) as usize];
        if i % 3 == 2 {
            actual_responses.push(h.dequeue());
            expected_ops.push(introspect::LinOp::Dequeue);
        } else {
            h.enqueue(i);
            expected_ops.push(introspect::LinOp::Enqueue(i));
        }
    }
    // In a sequential execution the linearization must equal program order.
    let lin = introspect::linearization(&q);
    assert_eq!(lin, expected_ops);
    // And replaying it yields exactly the observed responses.
    let (responses, _) = introspect::replay(&lin);
    assert_eq!(responses, actual_responses);
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn concurrent_no_loss_no_duplication() {
    let producers = 4usize;
    let consumers = 4usize;
    let per_producer = 2_000u64;
    let q: Queue<u64> = Queue::new(producers + consumers);
    let mut handles = q.handles();
    let consumed: Vec<Vec<u64>> = wfqueue_sync::thread::scope(|s| {
        let mut producer_handles = Vec::new();
        for pid in 0..producers {
            let mut h = handles.remove(0);
            producer_handles.push(s.spawn(move || {
                for i in 0..per_producer {
                    h.enqueue(((pid as u64) << 32) | i);
                }
            }));
        }
        let consumer_joins: Vec<_> = (0..consumers)
            .map(|_| {
                let mut h = handles.remove(0);
                s.spawn(move || {
                    let mut got = Vec::new();
                    let target = (producers as u64 * per_producer) / consumers as u64;
                    let mut misses = 0u32;
                    while (got.len() as u64) < target && misses < 1_000_000 {
                        match h.dequeue() {
                            Some(v) => {
                                got.push(v);
                                misses = 0;
                            }
                            None => misses += 1,
                        }
                    }
                    got
                })
            })
            .collect();
        for j in producer_handles {
            j.join().unwrap();
        }
        consumer_joins
            .into_iter()
            .map(|j| j.join().unwrap())
            .collect()
    });

    let mut all: Vec<u64> = consumed.iter().flatten().copied().collect();
    // Per-producer FIFO: each consumer sees each producer's values in order.
    for got in &consumed {
        let mut last = vec![None::<u64>; producers];
        for v in got {
            let pid = (v >> 32) as usize;
            let seq = v & 0xffff_ffff;
            if let Some(prev) = last[pid] {
                assert!(seq > prev, "per-producer order violated");
            }
            last[pid] = Some(seq);
        }
    }
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        consumed.iter().map(Vec::len).sum::<usize>(),
        "duplicate values dequeued"
    );
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn concurrent_drain_recovers_every_value() {
    let threads = 6usize;
    let per_thread = 1_500u64;
    let q: Queue<u64> = Queue::new(threads);
    let mut handles = q.handles();
    let results: Vec<(Vec<u64>, u64)> = wfqueue_sync::thread::scope(|s| {
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let mut h = handles.remove(0);
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut enqueued = 0u64;
                    for i in 0..per_thread {
                        if i % 2 == 0 {
                            h.enqueue(((t as u64) << 32) | i);
                            enqueued += 1;
                        } else if let Some(v) = h.dequeue() {
                            got.push(v);
                        }
                    }
                    // Drain what is left cooperatively.
                    while let Some(v) = h.dequeue() {
                        got.push(v);
                    }
                    (got, enqueued)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let total_enqueued: u64 = results.iter().map(|(_, e)| *e).sum();
    let mut all: Vec<u64> = results.into_iter().flat_map(|(g, _)| g).collect();
    assert_eq!(
        all.len() as u64,
        total_enqueued,
        "every value is dequeued exactly once"
    );
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, total_enqueued, "no duplicates");
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn enqueue_steps_do_not_grow_with_history() {
    // Theorem 22: enqueue cost is O(log p), independent of how many
    // operations happened before.
    let q: Queue<u64> = Queue::new(2);
    let mut h = q.register().unwrap();
    let early: u64 = (0..200)
        .map(|i| wfqueue_metrics::measure(|| h.enqueue(i)).1.memory_steps())
        .sum();
    for i in 0..20_000 {
        h.enqueue(i);
    }
    let late: u64 = (0..200)
        .map(|i| wfqueue_metrics::measure(|| h.enqueue(i)).1.memory_steps())
        .sum();
    assert!(
        late < early * 3,
        "enqueue steps grew with history: early={early}, late={late}"
    );
}

#[test]
fn debug_impls_are_nonempty() {
    let q: Queue<u8> = Queue::new(1);
    let h = q.register().unwrap();
    assert!(!format!("{q:?}").is_empty());
    assert!(!format!("{h:?}").is_empty());
}

#[test]
fn introspect_dump_and_render() {
    let q: Queue<u8> = Queue::new(2);
    let mut h = q.register().unwrap();
    h.enqueue(9);
    let _ = h.dequeue();
    let nodes = introspect::dump(&q);
    assert_eq!(nodes.len(), q.topology().len() - 1);
    let text = introspect::render(&nodes);
    assert!(text.contains("root"));
    assert!(text.contains("Enq(9)"));
    assert!(text.contains("Deq"));
    assert!(introspect::total_blocks(&q) > 0);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum ScriptOp {
        Enq(u64),
        Deq,
    }

    fn script() -> impl Strategy<Value = Vec<(usize, ScriptOp)>> {
        proptest::collection::vec(
            (
                0usize..3,
                prop_oneof![any::<u64>().prop_map(ScriptOp::Enq), Just(ScriptOp::Deq),],
            ),
            0..200,
        )
    }

    proptest! {
        #[test]
        fn sequential_equivalence_with_vecdeque(ops in script()) {
            let q: Queue<u64> = Queue::new(3);
            let mut handles = q.handles();
            let mut model: VecDeque<u64> = VecDeque::new();
            for (who, op) in ops {
                match op {
                    ScriptOp::Enq(v) => {
                        handles[who].enqueue(v);
                        model.push_back(v);
                    }
                    ScriptOp::Deq => {
                        prop_assert_eq!(handles[who].dequeue(), model.pop_front());
                    }
                }
            }
            prop_assert!(introspect::check_invariants(&q).is_ok());
            // The reconstructed linearization replays to the same final state.
            let (_, final_state) = introspect::replay(&introspect::linearization(&q));
            let model_state: Vec<u64> = model.into_iter().collect();
            prop_assert_eq!(final_state, model_state);
        }
    }

    #[derive(Debug, Clone)]
    enum BatchOp {
        Enq(Vec<u64>),
        Deq(usize),
    }

    fn batch_script() -> impl Strategy<Value = Vec<(usize, BatchOp)>> {
        proptest::collection::vec(
            (
                0usize..3,
                prop_oneof![
                    proptest::collection::vec(any::<u64>(), 0..9).prop_map(BatchOp::Enq),
                    (0usize..9).prop_map(BatchOp::Deq),
                ],
            ),
            0..60,
        )
    }

    proptest! {
        #[test]
        fn batched_histories_match_per_op_vecdeque_replay(ops in batch_script()) {
            let q: Queue<u64> = Queue::new(3);
            let mut handles = q.handles();
            let mut model: VecDeque<u64> = VecDeque::new();
            for (who, op) in ops {
                match op {
                    BatchOp::Enq(vs) => {
                        model.extend(vs.iter().copied());
                        handles[who].enqueue_batch(vs);
                    }
                    BatchOp::Deq(k) => {
                        let expect: Vec<Option<u64>> =
                            (0..k).map(|_| model.pop_front()).collect();
                        prop_assert_eq!(handles[who].dequeue_batch(k), expect);
                    }
                }
            }
            prop_assert!(introspect::check_invariants(&q).is_ok());
            let (_, final_state) = introspect::replay(&introspect::linearization(&q));
            prop_assert_eq!(final_state, model.into_iter().collect::<Vec<_>>());
        }
    }
}

#[test]
fn approx_len_tracks_quiescent_size() {
    let q: Queue<u32> = Queue::new(2);
    assert_eq!(q.approx_len(), 0);
    let mut h = q.register().unwrap();
    for i in 0..10 {
        h.enqueue(i);
        assert_eq!(q.approx_len(), i as usize + 1);
    }
    for i in (0..10).rev() {
        let _ = h.dequeue();
        assert_eq!(q.approx_len(), i);
    }
    // Null dequeues keep it at zero.
    assert_eq!(h.dequeue(), None);
    assert_eq!(q.approx_len(), 0);
}

#[test]
fn batch_operations_match_vecdeque() {
    let q: Queue<u64> = Queue::new(2);
    let mut handles = q.handles();
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut next = 0u64;
    for round in 0..60usize {
        let who = round % 2;
        let k = round % 7; // includes empty batches
        if round % 3 == 0 {
            let batch: Vec<u64> = (0..k as u64).map(|j| next + j).collect();
            next += k as u64;
            model.extend(batch.iter().copied());
            handles[who].enqueue_batch(batch);
        } else {
            let expect: Vec<Option<u64>> = (0..k).map(|_| model.pop_front()).collect();
            assert_eq!(handles[who].dequeue_batch(k), expect, "round {round}");
        }
    }
    introspect::check_invariants(&q).unwrap();
    // Batched histories replay identically through the linearization.
    let (_, final_state) = introspect::replay(&introspect::linearization(&q));
    assert_eq!(final_state, model.into_iter().collect::<Vec<_>>());
}

#[test]
fn batch_is_contiguous_in_linearization() {
    // Values of one batch appear back-to-back in L even when other
    // processes operate in between at the handle level (sequentially here:
    // blocks are appended whole, so this holds by construction).
    let q: Queue<u64> = Queue::new(2);
    let mut handles = q.handles();
    handles[0].enqueue_batch([1, 2, 3]);
    handles[1].enqueue_batch([10, 20]);
    handles[0].enqueue_batch([4, 5]);
    let lin = introspect::linearization(&q);
    let values: Vec<u64> = lin
        .iter()
        .map(|op| match op {
            introspect::LinOp::Enqueue(v) => *v,
            introspect::LinOp::Dequeue => unreachable!(),
        })
        .collect();
    assert_eq!(values, vec![1, 2, 3, 10, 20, 4, 5]);
}

#[test]
fn batch_of_one_matches_per_op_cas_count_exactly() {
    // Acceptance criterion: batch size 1 is byte-for-byte the per-op path —
    // same CAS instructions, same shared steps, same blocks.
    let script = |ops: &mut dyn FnMut(bool, u64)| {
        for i in 0..120u64 {
            ops(i % 3 != 2, i);
        }
    };
    let per_op = {
        let q: Queue<u64> = Queue::new(2);
        let mut h = q.register().unwrap();
        let (_, steps) = wfqueue_metrics::measure(|| {
            script(&mut |enq, i| {
                if enq {
                    h.enqueue(i);
                } else {
                    let _ = h.dequeue();
                }
            });
        });
        steps
    };
    let batched = {
        let q: Queue<u64> = Queue::new(2);
        let mut h = q.register().unwrap();
        let (_, steps) = wfqueue_metrics::measure(|| {
            script(&mut |enq, i| {
                if enq {
                    h.enqueue_batch([i]);
                } else {
                    let _ = h.dequeue_batch(1);
                }
            });
        });
        steps
    };
    assert_eq!(per_op.cas_total(), batched.cas_total(), "CAS count differs");
    assert_eq!(per_op, batched, "full step breakdown differs");
}

#[test]
fn batched_enqueues_amortize_propagation() {
    // One propagate per batch: enqueueing n values in batches of k must
    // spend roughly 1/k of the per-op path's shared steps.
    let n = 512u64;
    let steps_for = |k: usize| {
        let q: Queue<u64> = Queue::new(4);
        let mut h = q.register().unwrap();
        let (_, steps) = wfqueue_metrics::measure(|| {
            let mut sent = 0u64;
            while sent < n {
                let batch: Vec<u64> = (sent..sent + k as u64).collect();
                sent += k as u64;
                h.enqueue_batch(batch);
            }
        });
        steps.memory_steps()
    };
    let per_op = steps_for(1);
    let batched = steps_for(64);
    assert!(
        batched * 8 < per_op,
        "batching 64 should cut steps by ≫8×: per-op={per_op}, batched={batched}"
    );
}

#[test]
fn drain_empties_in_fifo_order() {
    let q: Queue<u32> = Queue::new(1);
    let mut h = q.register().unwrap();
    for i in 0..50 {
        h.enqueue(i);
    }
    let drained: Vec<u32> = h.drain().collect();
    assert_eq!(drained, (0..50).collect::<Vec<_>>());
    assert_eq!(h.dequeue(), None);
    // Drain on empty yields nothing.
    assert_eq!(h.drain().count(), 0);
}

// ---------------------------------------------------------------------------
// Epoch-based tree truncation (unbounded::reclaim)
// ---------------------------------------------------------------------------

/// Mixed single-handle script shared by the reclamation tests: enqueues,
/// dequeues (hitting both empty and non-empty states) and batches.
fn reclaim_script(h: &mut super::Handle<'_, u64>, model: &mut VecDeque<u64>) {
    for round in 0..240u64 {
        match round % 6 {
            0 | 1 | 3 => {
                h.enqueue(round);
                model.push_back(round);
            }
            2 | 4 => {
                assert_eq!(h.dequeue(), model.pop_front());
            }
            _ => {
                let batch: Vec<u64> = vec![round, round + 1_000];
                model.extend(batch.iter().copied());
                h.enqueue_batch(batch);
                for r in h.dequeue_batch(3) {
                    assert_eq!(r, model.pop_front());
                }
            }
        }
    }
}

#[test]
fn reclaim_off_is_step_identical_to_default_queue() {
    // The acceptance criterion: with `ReclaimPolicy::Off` the operation
    // path must be byte-for-byte the paper's — same CASes, same loads, same
    // stores, same allocs.
    let run = |q: Queue<u64>| {
        let mut h = q.register().unwrap();
        let mut model = VecDeque::new();
        let (_, steps) = wfqueue_metrics::measure(|| reclaim_script(&mut h, &mut model));
        introspect::check_invariants(&q).unwrap();
        steps
    };
    let default_steps = run(Queue::new(2));
    let off_steps = run(Queue::with_reclaim(2, ReclaimPolicy::Off));
    assert_eq!(
        default_steps, off_steps,
        "ReclaimPolicy::Off must not change the hot path"
    );
}

#[test]
fn reclaim_truncates_dead_prefix_and_preserves_semantics() {
    let q: Queue<u64> = Queue::with_reclaim(2, ReclaimPolicy::EveryKRootBlocks(8));
    let mut h = q.register().unwrap();
    let mut model = VecDeque::new();
    reclaim_script(&mut h, &mut model);
    let stats = q.reclaim_stats();
    assert!(stats.truncations > 0, "the every-8 trigger must have fired");
    assert!(stats.reclaimed_blocks > 0);
    assert!(stats.frontier > 1);
    introspect::check_invariants(&q).unwrap();
    // The retained state still dequeues the correct values.
    while let Some(expect) = model.pop_front() {
        assert_eq!(h.dequeue(), Some(expect));
    }
    assert_eq!(h.dequeue(), None);
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn reclaim_logical_totals_match_paper_queue() {
    // live + reclaimed on the truncating queue must equal the block count
    // the never-reclaiming queue retains for the identical script.
    let run = |q: Queue<u64>| {
        let mut h = q.register().unwrap();
        let mut model = VecDeque::new();
        reclaim_script(&mut h, &mut model);
        introspect::block_counts(&q)
    };
    let paper = run(Queue::new(2));
    let reclaiming = run(Queue::with_reclaim(2, ReclaimPolicy::EveryKRootBlocks(4)));
    assert_eq!(paper.reclaimed, 0);
    assert_eq!(
        reclaiming.logical, paper.logical,
        "truncation must not change how many blocks the tree ever retained"
    );
    assert!(
        reclaiming.live < paper.live / 4,
        "churn must leave most of the paper queue's {} blocks dead; \
         reclaiming queue still holds {}",
        paper.live,
        reclaiming.live
    );
}

#[test]
fn try_reclaim_on_drained_queue_truncates_everything_dead() {
    // A period too large to ever self-trigger: only the explicit call runs.
    let q: Queue<u64> = Queue::with_reclaim(1, ReclaimPolicy::EveryKRootBlocks(1_000_000));
    let mut h = q.register().unwrap();
    for i in 0..100 {
        h.enqueue(i);
    }
    assert_eq!(h.drain().count(), 100);
    let before = introspect::total_blocks(&q);
    let freed = q.try_reclaim();
    assert!(freed > 0, "a fully drained history is all dead");
    let after = introspect::total_blocks(&q);
    assert_eq!(after, before - freed, "freed slots leave the live count");
    let nodes = q.topology().len() - 1;
    assert!(
        after <= nodes,
        "at most one summary block per node may remain, got {after} over {nodes} nodes"
    );
    introspect::check_invariants(&q).unwrap();
    // A second pass finds nothing new.
    assert_eq!(q.try_reclaim(), 0);
    // The queue keeps working past a full truncation.
    let mut model = VecDeque::new();
    reclaim_script(&mut h, &mut model);
    for expect in model {
        assert_eq!(h.dequeue(), Some(expect));
    }
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn reclaim_off_queue_never_truncates() {
    let q: Queue<u64> = Queue::with_reclaim(1, ReclaimPolicy::Off);
    let mut h = q.register().unwrap();
    for i in 0..50 {
        h.enqueue(i);
        let _ = h.dequeue();
    }
    assert_eq!(q.try_reclaim(), 0);
    let stats = q.reclaim_stats();
    assert_eq!((stats.truncations, stats.reclaimed_blocks), (0, 0));
    assert_eq!(stats.frontier, 1, "frontier never moves when off");
    assert!(!q.reclaim_policy().enabled());
}

#[test]
#[should_panic(expected = "at least 1")]
fn zero_reclaim_period_is_rejected() {
    let _ = Queue::<u64>::with_reclaim(1, ReclaimPolicy::EveryKRootBlocks(0));
}

/// Swaps `blocks[i]` of node `v` for `twin`, runs the invariant audit, and
/// swaps the original back, returning the audit's verdict on the twin.
fn audit_with_block_swapped(
    q: &Queue<u64>,
    v: usize,
    i: usize,
    twin: super::block::Block<u64>,
) -> Result<(), String> {
    let blocks = &q.node(v).blocks;
    let original = blocks.replace_raw(i, Box::new(twin)).expect("installed");
    let verdict = introspect::check_invariants(q);
    // SAFETY: both pointers came from `Box::into_raw` and were just
    // unlinked from their slot by `replace_raw`; the test is
    // single-threaded, so no reader holds either one.
    unsafe {
        let twin = blocks
            .replace_raw(i, Box::from_raw(original))
            .expect("installed");
        drop(Box::from_raw(twin));
    }
    verdict
}

#[test]
fn audits_require_an_intrinsic_summary_at_the_boundary() {
    use super::block::Block;

    let q: Queue<u64> = Queue::with_reclaim(2, ReclaimPolicy::EveryKRootBlocks(1_000_000));
    let mut h = q.register().unwrap();
    for i in 0..20 {
        h.enqueue(i);
        let _ = h.dequeue();
    }
    h.enqueue(99);
    assert!(q.try_reclaim() > 0);
    introspect::check_invariants(&q).unwrap();

    let root = q.topology().root();
    let node = q.node(root);
    let boundary = node.boundary();
    assert!(boundary > 0);
    // A non-summary block with the boundary summary's exact scalars: only
    // the payload tells them apart.
    let b = node.block(boundary).unwrap();
    let twin = Block::internal(b.sumenq, b.sumdeq, b.endleft, b.endright, b.size());
    let err = audit_with_block_swapped(&q, root, boundary, twin).unwrap_err();
    assert!(err.contains("is not a summary sentinel"), "{err}");

    // A summary above the boundary is rejected as well.
    let above = Block::summary_of(node.block(boundary + 1).unwrap());
    let err = audit_with_block_swapped(&q, root, boundary + 1, above).unwrap_err();
    assert!(err.contains("above the boundary"), "{err}");

    introspect::check_invariants(&q).unwrap();
    assert_eq!(h.dequeue(), Some(99));
}
