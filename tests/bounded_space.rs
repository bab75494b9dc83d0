//! Space behaviour of the bounded queue (§6 / Theorem 31 / Lemma 29): live
//! blocks stay bounded under churn, trees keep logarithmic depth, and the
//! unbounded variant grows linearly on the same workload.

use wfqueue::bounded::introspect as bintro;
use wfqueue::bounded::Queue as BoundedQueue;
use wfqueue::unbounded::introspect as uintro;
use wfqueue::unbounded::Queue as UnboundedQueue;

#[test]
fn steady_state_blocks_bounded_under_long_churn() {
    let q: BoundedQueue<u64> = BoundedQueue::with_gc_period(2, 8);
    let mut h = q.register().unwrap();
    let mut peak = 0usize;
    let mut warmup = 0usize;
    for round in 0..10_000u64 {
        h.enqueue(round);
        assert_eq!(h.dequeue(), Some(round));
        if round == 500 {
            warmup = bintro::space_stats(&q).total_blocks;
        }
        if round > 500 {
            peak = peak.max(bintro::space_stats(&q).total_blocks);
        }
    }
    assert!(warmup > 0);
    assert!(
        peak <= warmup * 4 + 64,
        "live blocks kept growing: warmup={warmup}, peak={peak}"
    );
    bintro::check_invariants(&q).unwrap();
}

#[test]
fn space_scales_with_queue_size_not_history() {
    // Keep q ≈ 64 elements while performing 20k operations; space must
    // depend on q (plus p²log p slack), not on the 20k history.
    let q: BoundedQueue<u64> = BoundedQueue::with_gc_period(2, 8);
    let mut h = q.register().unwrap();
    for i in 0..64 {
        h.enqueue(i);
    }
    for i in 0..10_000u64 {
        h.enqueue(1_000 + i);
        assert!(h.dequeue().is_some());
    }
    let stats = bintro::space_stats(&q);
    // 7 nodes for p=2; each node needs ~q blocks in the worst case, plus GC
    // slack. A linear-in-history structure would hold ~10k blocks per node.
    assert!(
        stats.total_blocks < 2_000,
        "space grew with history: {stats:?}"
    );
    // Persistent trees stay shallow. The block store's worst case is
    // ⌈log₁₆ n⌉ + 1 levels (the `depth_is_worst_case_logarithmic` store
    // test), well inside this bound: the run measures depth 3 over at most
    // 133 blocks per node, against a bound of 24.
    let bound = 7 * stats.max_node_blocks.ilog2() as usize / 3 + 8;
    assert!(stats.max_tree_depth <= bound, "{stats:?}");
}

#[test]
fn unbounded_grows_linearly_with_history() {
    let q: UnboundedQueue<u64> = UnboundedQueue::new(1);
    let mut h = q.register().unwrap();
    for i in 0..2_000u64 {
        h.enqueue(i);
        let _ = h.dequeue();
    }
    let blocks = uintro::total_blocks(&q);
    // 4000 leaf ops propagate into ≥ 3 nodes (leaf, internal, root): ≥ 12k
    // blocks in total; growth is linear in operations by construction.
    assert!(blocks >= 8_000, "expected linear growth, got {blocks}");
}

#[test]
fn gc_respects_queue_contents_when_queue_is_long() {
    // Fill a long queue, churn the tail, then drain completely: every value
    // must still come out in order even though GC ran many times.
    let q: BoundedQueue<u64> = BoundedQueue::with_gc_period(2, 4);
    let mut h = q.register().unwrap();
    let depth = 500u64;
    for i in 0..depth {
        h.enqueue(i);
    }
    for i in 0..2_000u64 {
        h.enqueue(depth + i);
        assert_eq!(h.dequeue(), Some(i), "churn round {i}");
    }
    for i in 0..depth {
        assert_eq!(h.dequeue(), Some(2_000 + i), "drain {i}");
    }
    assert_eq!(h.dequeue(), None);
    bintro::check_invariants(&q).unwrap();
}

#[test]
fn concurrent_churn_keeps_space_bounded() {
    let threads = 4usize;
    let q: BoundedQueue<u64> = BoundedQueue::with_gc_period(threads, 8);
    let mut handles = q.handles();
    wfqueue_sync::thread::scope(|s| {
        for t in 0..threads as u64 {
            let mut h = handles.remove(0);
            s.spawn(move || {
                for i in 0..3_000u64 {
                    h.enqueue((t << 32) | i);
                    let _ = h.dequeue();
                }
            });
        }
    });
    let stats = bintro::space_stats(&q);
    // 12k ops/thread × 4 threads; a leak would show ~24k blocks.
    assert!(
        stats.total_blocks < 6_000,
        "space not reclaimed under concurrency: {stats:?}"
    );
    bintro::check_invariants(&q).unwrap();
}

#[test]
fn gc_period_follows_registered_handles() {
    // A 32-process budget of which two handles register: the period is
    // G(2) = 2²⌈log₂ 32⌉ = 20, not the paper's G(32) = 32²·5 = 5,120.
    const P: usize = 32;
    let full_period = P * P * 5;
    let q: BoundedQueue<u64> = BoundedQueue::new(P);
    let (mut producer, mut consumer) = (q.register().unwrap(), q.register().unwrap());
    let period = q.gc_period();
    assert_eq!(period, 2 * 2 * 5);
    let q_max = 1_025;
    for v in 0..1_024 {
        producer.enqueue(v);
    }
    let mut peak = 0;
    for v in 0..10_000u64 {
        producer.enqueue(v);
        assert!(consumer.dequeue().is_some());
        if v % 16 == 0 {
            peak = peak.max(bintro::space_stats(&q).max_node_blocks);
        }
    }
    // The two handles alternate, so each value in the queue spans an
    // enqueue block and a dequeue block at the root: the live span is
    // ~2·q_max blocks, plus the backlog of at most one period between
    // GC phases. With the full period the peak here is ~7,100.
    assert!(
        peak <= 2 * q_max + 4 * period,
        "peak {peak} blocks per node exceeds 2·q_max + 4·G(2) = {}",
        2 * q_max + 4 * period
    );
    assert!(peak < full_period, "peak {peak} is not below G(32)");
    bintro::check_invariants(&q).unwrap();

    let rest = q.handles();
    assert_eq!(rest.len(), P - 2);
    assert_eq!(q.gc_period(), full_period, "all registered: the paper's G");
}
