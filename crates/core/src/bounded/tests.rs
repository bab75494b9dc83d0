//! Unit and property tests for the bounded-space queue.

use std::collections::VecDeque;

use super::introspect;
use super::Queue;

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
    let q: Queue<u32> = Queue::new(2);
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
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn single_process_long_script_with_paper_gc_period() {
    let q: Queue<u64> = Queue::new(1);
    let mut h = q.register().unwrap();
    let mut model: VecDeque<u64> = VecDeque::new();
    for i in 0..600u64 {
        if i % 3 == 2 {
            assert_eq!(h.dequeue(), model.pop_front(), "op {i}");
        } else {
            h.enqueue(i);
            model.push_back(i);
        }
    }
    while let Some(v) = model.pop_front() {
        assert_eq!(h.dequeue(), Some(v));
    }
    assert_eq!(h.dequeue(), None);
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn aggressive_gc_period_one_still_correct() {
    // GC on every insertion exercises every Discarded path constantly.
    let q: Queue<u64> = Queue::with_gc_period(2, 1);
    let mut handles = q.handles();
    let mut model: VecDeque<u64> = VecDeque::new();
    for i in 0..400u64 {
        let h = &mut handles[(i % 2) as usize];
        if i % 4 == 3 || i % 7 == 5 {
            assert_eq!(h.dequeue(), model.pop_front(), "op {i}");
        } else {
            h.enqueue(i);
            model.push_back(i);
        }
    }
    while let Some(v) = model.pop_front() {
        assert_eq!(handles[0].dequeue(), Some(v));
    }
    assert_eq!(handles[1].dequeue(), None);
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn gc_bounds_space_under_churn() {
    // With a small GC period and a bounded queue size, the number of live
    // blocks must stay bounded no matter how many operations run
    // (Lemma 29 / Theorem 31 shape).
    let q: Queue<u64> = Queue::with_gc_period(2, 8);
    let mut h = q.register().unwrap();
    let mut peak_after_warmup = 0;
    for round in 0..3_000u64 {
        h.enqueue(round);
        let _ = h.dequeue();
        if round == 300 {
            peak_after_warmup = introspect::space_stats(&q).total_blocks;
        }
    }
    let end = introspect::space_stats(&q).total_blocks;
    assert!(peak_after_warmup > 0);
    // Unbounded growth would give ~6000 extra blocks per node chain; allow
    // a generous constant factor over the warmed-up level instead.
    assert!(
        end <= peak_after_warmup * 4 + 200,
        "blocks grew without bound: {peak_after_warmup} -> {end}"
    );
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn unbounded_variant_grows_where_bounded_does_not() {
    // Contrast experiment backing E7: same workload, compare block counts.
    let unb: crate::unbounded::Queue<u64> = crate::unbounded::Queue::new(1);
    let mut hu = unb.register().unwrap();
    let bnd: Queue<u64> = Queue::with_gc_period(1, 4);
    let mut hb = bnd.register().unwrap();
    for i in 0..1_000 {
        hu.enqueue(i);
        let _ = hu.dequeue();
        hb.enqueue(i);
        let _ = hb.dequeue();
    }
    let unbounded_blocks = crate::unbounded::introspect::total_blocks(&unb);
    let bounded_blocks = introspect::space_stats(&bnd).total_blocks;
    assert!(
        unbounded_blocks > bounded_blocks * 10,
        "expected unbounded {unbounded_blocks} >> bounded {bounded_blocks}"
    );
}

#[test]
fn concurrent_no_loss_no_duplication_with_gc() {
    for (threads, gc_period) in [(6usize, 16), (4, 8)] {
        concurrent_no_loss_no_duplication(threads, gc_period);
    }
}

fn concurrent_no_loss_no_duplication(threads: usize, gc_period: usize) {
    let per_thread = 1_000u64;
    let q: Queue<u64> = Queue::with_gc_period(threads, gc_period);
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
    assert_eq!(all.len() as u64, total_enqueued, "lost or extra values");
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, total_enqueued, "duplicated values");
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn concurrent_per_producer_fifo_with_aggressive_gc() {
    let q: Queue<u64> = Queue::with_gc_period(4, 2);
    let mut handles = q.handles();
    let consumed: Vec<Vec<u64>> = wfqueue_sync::thread::scope(|s| {
        let mut producers = Vec::new();
        for pid in 0..2 {
            let mut h = handles.remove(0);
            producers.push(s.spawn(move || {
                for i in 0..800u64 {
                    h.enqueue(((pid as u64) << 32) | i);
                }
            }));
        }
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let mut h = handles.remove(0);
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut misses = 0;
                    while got.len() < 800 && misses < 3_000_000 {
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
        for p in producers {
            p.join().unwrap();
        }
        consumers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for got in &consumed {
        let mut last = [None::<u64>; 2];
        for v in got {
            let pid = (v >> 32) as usize;
            let seq = v & 0xffff_ffff;
            if let Some(prev) = last[pid] {
                assert!(seq > prev, "per-producer order violated");
            }
            last[pid] = Some(seq);
        }
    }
    let mut all: Vec<u64> = consumed.iter().flatten().copied().collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "duplicates dequeued");
}

#[test]
fn dump_reports_tree_shapes() {
    let q: Queue<u8> = Queue::new(2);
    let mut h = q.register().unwrap();
    h.enqueue(1);
    h.enqueue(2);
    let _ = h.dequeue();
    let nodes = introspect::dump(&q);
    assert_eq!(nodes.len(), q.topology().len() - 1);
    let root = nodes.iter().find(|n| n.is_root).unwrap();
    assert!(root.len >= 2);
    let stats = introspect::space_stats(&q);
    assert!(stats.total_blocks >= root.len);
    assert!(stats.max_node_blocks <= stats.total_blocks);
}

#[test]
fn values_with_drop_are_reclaimed() {
    use std::sync::Arc;
    use wfqueue_sync::atomic::{AtomicUsize, Ordering};
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    #[derive(Clone)]
    struct Tracked(
        #[allow(dead_code, reason = "field exists only to count drops via the Arc")] Arc<()>,
    );
    let q: Queue<Tracked> = Queue::with_gc_period(1, 4);
    let token = Arc::new(());
    {
        let mut h = q.register().unwrap();
        for _ in 0..200 {
            h.enqueue(Tracked(Arc::clone(&token)));
            let _ = h.dequeue();
        }
    }
    drop(q);
    // Flush epoch garbage so deferred tree versions are reclaimed. The
    // epoch is process-wide: a guard that a concurrently running test
    // pinned before these defers (and was preempted holding) blocks every
    // free until it drops, so keep flushing until that happens.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    crossbeam_epoch::pin().flush();
    while Arc::strong_count(&token) >= 64 && std::time::Instant::now() < deadline {
        wfqueue_sync::thread::yield_now();
        crossbeam_epoch::pin().flush();
    }
    let _ = DROPS.load(Ordering::Relaxed);
    // All clones must eventually be dropped: only our original remains.
    // (Epoch reclamation may keep a bounded number of versions alive, so we
    // allow some slack rather than an exact count.)
    assert!(
        Arc::strong_count(&token) < 64,
        "values leaked: {}",
        Arc::strong_count(&token)
    );
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
            0..150,
        )
    }

    proptest! {
        #[test]
        fn sequential_equivalence_with_vecdeque(ops in script(), gc in 1usize..20) {
            let q: Queue<u64> = Queue::with_gc_period(3, gc);
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
        }

        #[test]
        fn bounded_and_unbounded_agree(ops in script()) {
            let qb: Queue<u64> = Queue::with_gc_period(3, 5);
            let qu: crate::unbounded::Queue<u64> = crate::unbounded::Queue::new(3);
            let mut hb = qb.handles();
            let mut hu = qu.handles();
            for (who, op) in ops {
                match op {
                    ScriptOp::Enq(v) => {
                        hb[who].enqueue(v);
                        hu[who].enqueue(v);
                    }
                    ScriptOp::Deq => {
                        prop_assert_eq!(hb[who].dequeue(), hu[who].dequeue());
                    }
                }
            }
        }
    }
}

#[test]
fn space_stays_bounded() {
    let q: Queue<u64> = Queue::with_gc_period(1, 4);
    let mut h = q.register().unwrap();
    for i in 0..2_000u64 {
        h.enqueue(i);
        let _ = h.dequeue();
    }
    let stats = introspect::space_stats(&q);
    assert!(stats.total_blocks < 400, "{stats:?}");
    // The block store's depth is at most ⌈log₁₆ n⌉ + 1 levels; this run
    // measures depth 1 (at most 5 blocks per node), well inside the bound.
    assert!(stats.max_tree_depth <= 8, "{stats:?}");
}

#[test]
fn exhausted_registration_does_not_inflate_counter() {
    // Same regression as the unbounded twin: exhausted `register` calls
    // must not keep bumping the counter.
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
fn batch_operations_match_vecdeque_under_gc() {
    // Aggressive GC exercises the batched Discarded/help paths.
    let q: Queue<u64> = Queue::with_gc_period(2, 2);
    let mut handles = q.handles();
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut next = 0u64;
    for round in 0..80usize {
        let who = round % 2;
        let k = round % 6;
        if round % 3 != 1 {
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
}

#[test]
fn batch_of_one_matches_per_op_cas_count_exactly() {
    let script = |ops: &mut dyn FnMut(bool, u64)| {
        for i in 0..120u64 {
            ops(i % 3 != 2, i);
        }
    };
    let per_op = {
        let q: Queue<u64> = Queue::with_gc_period(2, 8);
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
        let q: Queue<u64> = Queue::with_gc_period(2, 8);
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
}

#[test]
fn concurrent_batches_no_loss_no_duplication() {
    let threads = 4usize;
    let q: Queue<u64> = Queue::with_gc_period(threads, 8);
    let mut handles = q.handles();
    let results: Vec<(Vec<u64>, u64)> = wfqueue_sync::thread::scope(|s| {
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let mut h = handles.remove(0);
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut enqueued = 0u64;
                    for i in 0..200u64 {
                        let k = (i % 5) as usize + 1;
                        if i % 2 == 0 {
                            let base = ((t as u64) << 32) | (i * 8);
                            h.enqueue_batch((0..k as u64).map(|j| base + j));
                            enqueued += k as u64;
                        } else {
                            got.extend(h.dequeue_batch(k).into_iter().flatten());
                        }
                    }
                    while let Some(v) = h.dequeue() {
                        got.push(v);
                    }
                    (got, enqueued)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let total: u64 = results.iter().map(|(_, e)| *e).sum();
    let mut all: Vec<u64> = results.into_iter().flat_map(|(g, _)| g).collect();
    assert_eq!(all.len() as u64, total, "lost or extra values");
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len() as u64, total, "duplicated values");
    introspect::check_invariants(&q).unwrap();
}

#[test]
fn approx_len_and_drain() {
    let q: Queue<u32> = Queue::with_gc_period(1, 4);
    let mut h = q.register().unwrap();
    assert_eq!(q.approx_len(), 0);
    for i in 0..20 {
        h.enqueue(i);
    }
    assert_eq!(q.approx_len(), 20);
    let drained: Vec<u32> = h.drain().collect();
    assert_eq!(drained, (0..20).collect::<Vec<_>>());
    assert_eq!(q.approx_len(), 0);
    introspect::check_invariants(&q).unwrap();
}
