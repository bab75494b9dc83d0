//! Cross-variant sequential semantics: both wait-free queue variants, the
//! vector extension and every baseline must agree with the `VecDeque`
//! specification on arbitrary single-threaded scripts.

use std::collections::VecDeque;

use proptest::prelude::*;
use wfqueue::{bounded, unbounded};
use wfqueue_harness::queue_api::{CoarseMutex, ConcurrentQueue, Ms, QueueHandle, Seg, TwoLock};
use wfqueue_ring::Ring;

#[derive(Debug, Clone)]
enum ScriptOp {
    Enq(u64),
    Deq,
}

fn script() -> impl Strategy<Value = Vec<ScriptOp>> {
    proptest::collection::vec(
        prop_oneof![any::<u64>().prop_map(ScriptOp::Enq), Just(ScriptOp::Deq),],
        0..250,
    )
}

fn check_against_model<Q: ConcurrentQueue<u64>>(queue: &Q, ops: &[ScriptOp]) {
    let mut handle = queue.handle();
    let mut model: VecDeque<u64> = VecDeque::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            ScriptOp::Enq(v) => {
                handle.enqueue(*v);
                model.push_back(*v);
            }
            ScriptOp::Deq => {
                assert_eq!(
                    handle.dequeue(),
                    model.pop_front(),
                    "{} diverged at op {i}",
                    queue.name()
                );
            }
        }
    }
    // Drain fully and verify emptiness agrees.
    while let Some(expect) = model.pop_front() {
        assert_eq!(handle.dequeue(), Some(expect), "{} drain", queue.name());
    }
    assert_eq!(handle.dequeue(), None, "{} final empty", queue.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_queues_match_vecdeque(ops in script()) {
        check_against_model(&unbounded::Queue::new(1), &ops);
        check_against_model(&bounded::Queue::new(1), &ops);
        check_against_model(&bounded::Queue::with_gc_period(1, 3), &ops);
        // Capacity above the script length: a single-threaded enqueue on
        // a full ring would spin forever (nobody to dequeue).
        check_against_model(&Ring::new(256, 1), &ops);
        check_against_model(&Ms::new(), &ops);
        check_against_model(&TwoLock::new(), &ops);
        check_against_model(&CoarseMutex::new(), &ops);
        check_against_model(&Seg::new(), &ops);
    }

    #[test]
    fn wf_variants_agree_with_each_other_multi_handle(
        ops in proptest::collection::vec((0usize..4, prop_oneof![
            any::<u64>().prop_map(ScriptOp::Enq),
            Just(ScriptOp::Deq),
        ]), 0..200),
        gc in 1usize..12,
    ) {
        let unbounded = unbounded::Queue::new(4);
        let bounded = bounded::Queue::with_gc_period(4, gc);
        let mut hu: Vec<_> = (0..4).map(|_| unbounded.handle()).collect();
        let mut hb: Vec<_> = (0..4).map(|_| bounded.handle()).collect();
        for (who, op) in &ops {
            match op {
                ScriptOp::Enq(v) => {
                    hu[*who].enqueue(*v);
                    hb[*who].enqueue(*v);
                }
                ScriptOp::Deq => {
                    prop_assert_eq!(hu[*who].dequeue(), hb[*who].dequeue());
                }
            }
        }
    }
}

#[test]
fn vector_matches_vec_model() {
    let v: wfqueue::vector::WfVector<u64> = wfqueue::vector::WfVector::new(2);
    let mut handles = v.handles();
    let mut model: Vec<u64> = Vec::new();
    for i in 0..300u64 {
        let pos = handles[(i % 2) as usize].append(i * 3);
        assert_eq!(pos, model.len());
        model.push(i * 3);
    }
    for (i, expect) in model.iter().enumerate() {
        assert_eq!(v.get(i), Some(*expect));
    }
    assert_eq!(v.get(model.len()), None);
    assert_eq!(v.len(), model.len());
}
