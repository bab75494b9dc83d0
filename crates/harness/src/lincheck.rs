//! Small-scope linearizability checking for FIFO queues.
//!
//! Records complete concurrent histories with a global logical clock, then
//! searches for a linearization (a total order of operations, consistent
//! with real-time order, that the sequential queue specification accepts) —
//! the Wing–Gong/Herlihy–Wing approach with memoization. Exponential in the
//! worst case, so it is applied to small histories (≤ ~20 operations), many
//! times with different seeds; this is the standard "small scope" regime
//! where linearizability bugs in queues are overwhelmingly found.

use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::Barrier;
use wfqueue_sync::atomic::{AtomicU64, Ordering};

use crate::queue_api::{ConcurrentQueue, QueueHandle};
use crate::rng::SplitMix64;

/// An operation observed in a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `enqueue(value)` (values must be distinct across the history).
    Enqueue(u32),
    /// `dequeue() -> response`.
    Dequeue(Option<u32>),
}

/// One completed operation with invocation/response timestamps from a
/// global logical clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Logical time of the invocation.
    pub invoke: u64,
    /// Logical time of the response (always > `invoke`).
    pub ret: u64,
    /// The operation and its observed response.
    pub op: Op,
}

/// Records a complete concurrent history of `threads × ops_per_thread`
/// operations against `queue`.
///
/// Values are unique (`thread << 16 | seq`), which makes checking FIFO
/// linearizability tractable.
///
/// # Panics
///
/// Panics if the queue cannot hand out `threads` handles.
pub fn record_history<Q: ConcurrentQueue<u32>>(
    queue: &Q,
    threads: usize,
    ops_per_thread: usize,
    enqueue_permille: u32,
    seed: u64,
) -> Vec<Event> {
    let clock = AtomicU64::new(0);
    let barrier = Barrier::new(threads);
    let handles: Vec<Q::Handle<'_>> = (0..threads).map(|_| queue.handle()).collect();
    let per_thread: Vec<Vec<Event>> = wfqueue_sync::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(tid, mut handle)| {
                let clock = &clock;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(seed.wrapping_add(tid as u64 * 7919));
                    let mut events = Vec::with_capacity(ops_per_thread);
                    barrier.wait();
                    for seq in 0..ops_per_thread {
                        let is_enq = rng.chance_permille(enqueue_permille);
                        // ORDERING: the logical clock must totally order
                        // invoke/return stamps across threads — SC RMWs
                        // give exactly that; anything weaker would let
                        // the history builder derive a bogus partial
                        // order and report false linearizability verdicts.
                        let invoke = clock.fetch_add(1, Ordering::SeqCst);
                        let op = if is_enq {
                            let value = ((tid as u32) << 16) | seq as u32;
                            handle.enqueue(value);
                            Op::Enqueue(value)
                        } else {
                            Op::Dequeue(handle.dequeue())
                        };
                        // ORDERING: SC return stamp (see above).
                        let ret = clock.fetch_add(1, Ordering::SeqCst);
                        events.push(Event { invoke, ret, op });
                    }
                    events
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    per_thread.into_iter().flatten().collect()
}

/// Records a complete concurrent history of **batched** operations: each of
/// `threads × batches_per_thread` batches is an `enqueue_batch` or
/// `dequeue_batch` of `batch_size` operations, contributing `batch_size`
/// events that share the batch's invocation/response timestamps (the batch
/// appends one leaf block, so its operations all overlap the whole batch
/// interval; the checker is then free to order them, and a linearization
/// exists iff the batch's operations can be placed — in particular in their
/// batch order, which native batching guarantees).
///
/// # Panics
///
/// Panics if the queue cannot hand out `threads` handles.
pub fn record_batch_history<Q: ConcurrentQueue<u32>>(
    queue: &Q,
    threads: usize,
    batches_per_thread: usize,
    batch_size: usize,
    enqueue_permille: u32,
    seed: u64,
) -> Vec<Event> {
    let clock = AtomicU64::new(0);
    let barrier = Barrier::new(threads);
    let handles: Vec<Q::Handle<'_>> = (0..threads).map(|_| queue.handle()).collect();
    let per_thread: Vec<Vec<Event>> = wfqueue_sync::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(tid, mut handle)| {
                let clock = &clock;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(seed.wrapping_add(tid as u64 * 7919));
                    let mut events = Vec::with_capacity(batches_per_thread * batch_size);
                    barrier.wait();
                    for batch in 0..batches_per_thread {
                        let is_enq = rng.chance_permille(enqueue_permille);
                        // ORDERING: SC logical-clock stamp, as in
                        // `run_lincheck` above.
                        let invoke = clock.fetch_add(1, Ordering::SeqCst);
                        let ops: Vec<Op> = if is_enq {
                            let values: Vec<u32> = (0..batch_size)
                                .map(|j| ((tid as u32) << 16) | (batch * batch_size + j) as u32)
                                .collect();
                            handle.enqueue_batch(values.clone());
                            values.into_iter().map(Op::Enqueue).collect()
                        } else {
                            handle
                                .dequeue_batch(batch_size)
                                .into_iter()
                                .map(Op::Dequeue)
                                .collect()
                        };
                        // ORDERING: SC return stamp (see above).
                        let ret = clock.fetch_add(1, Ordering::SeqCst);
                        events.extend(ops.into_iter().map(|op| Event { invoke, ret, op }));
                    }
                    events
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    per_thread.into_iter().flatten().collect()
}

/// Searches for a valid linearization of `history` against the sequential
/// FIFO queue specification.
///
/// # Errors
///
/// Returns a human-readable explanation if no linearization exists.
///
/// # Panics
///
/// Panics if the history has more than 64 operations (use small scopes).
pub fn check_linearizable(history: &[Event]) -> Result<(), String> {
    assert!(history.len() <= 64, "small-scope checker: at most 64 ops");
    let n = history.len();
    if n == 0 {
        return Ok(());
    }
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };

    // DFS over (set of linearized ops, queue state).
    let mut visited: HashSet<(u64, Vec<u32>)> = HashSet::new();
    let mut stack: Vec<(u64, VecDeque<u32>)> = vec![(0, VecDeque::new())];

    while let Some((done, queue)) = stack.pop() {
        if done == full {
            return Ok(());
        }
        let key = (done, queue.iter().copied().collect::<Vec<_>>());
        if !visited.insert(key) {
            continue;
        }
        // An op may be linearized next iff no other pending op returned
        // before it was invoked.
        let min_ret = history
            .iter()
            .enumerate()
            .filter(|(i, _)| done & (1 << i) == 0)
            .map(|(_, e)| e.ret)
            .min()
            .expect("pending ops exist");
        for (i, e) in history.iter().enumerate() {
            if done & (1 << i) != 0 || e.invoke > min_ret {
                continue;
            }
            match e.op {
                Op::Enqueue(v) => {
                    let mut q2 = queue.clone();
                    q2.push_back(v);
                    stack.push((done | (1 << i), q2));
                }
                Op::Dequeue(resp) => {
                    let front = queue.front().copied();
                    if front == resp {
                        let mut q2 = queue.clone();
                        q2.pop_front();
                        stack.push((done | (1 << i), q2));
                    }
                    // Otherwise this op cannot be linearized here.
                }
            }
        }
    }
    Err(describe_failure(history))
}

fn describe_failure(history: &[Event]) -> String {
    let mut sorted: Vec<_> = history.to_vec();
    sorted.sort_by_key(|e| e.invoke);
    let ops: Vec<String> = sorted
        .iter()
        .map(|e| match e.op {
            Op::Enqueue(v) => format!("[{}-{}] Enq({v})", e.invoke, e.ret),
            Op::Dequeue(r) => format!("[{}-{}] Deq->{r:?}", e.invoke, e.ret),
        })
        .collect();
    format!("no linearization exists for history: {}", ops.join(", "))
}

/// Runs `rounds` small concurrent histories against freshly built queues
/// and checks each for linearizability.
///
/// # Errors
///
/// Returns the first failing round's description.
pub fn check_rounds<Q, F>(
    mut make_queue: F,
    threads: usize,
    ops_per_thread: usize,
    rounds: u64,
) -> Result<(), String>
where
    Q: ConcurrentQueue<u32>,
    F: FnMut() -> Q,
{
    for round in 0..rounds {
        // Mix ratios across rounds: enqueue-heavy, balanced, dequeue-heavy.
        let permille = match round % 3 {
            0 => 700,
            1 => 500,
            _ => 300,
        };
        let q = make_queue();
        let history = record_history(&q, threads, ops_per_thread, permille, round * 31 + 1);
        check_linearizable(&history).map_err(|e| format!("round {round}: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(invoke: u64, ret: u64, op: Op) -> Event {
        Event { invoke, ret, op }
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(check_linearizable(&[]).is_ok());
    }

    #[test]
    fn sequential_fifo_history_ok() {
        let h = vec![
            ev(0, 1, Op::Enqueue(1)),
            ev(2, 3, Op::Enqueue(2)),
            ev(4, 5, Op::Dequeue(Some(1))),
            ev(6, 7, Op::Dequeue(Some(2))),
            ev(8, 9, Op::Dequeue(None)),
        ];
        assert!(check_linearizable(&h).is_ok());
    }

    #[test]
    fn sequential_lifo_history_rejected() {
        // A stack-like response: second enqueue dequeued first while the
        // operations do not overlap — not linearizable for a queue.
        let h = vec![
            ev(0, 1, Op::Enqueue(1)),
            ev(2, 3, Op::Enqueue(2)),
            ev(4, 5, Op::Dequeue(Some(2))),
        ];
        assert!(check_linearizable(&h).is_err());
    }

    #[test]
    fn overlapping_enqueues_allow_either_order() {
        let h = vec![
            ev(0, 3, Op::Enqueue(1)), // overlaps with Enq(2)
            ev(1, 2, Op::Enqueue(2)),
            ev(4, 5, Op::Dequeue(Some(2))),
            ev(6, 7, Op::Dequeue(Some(1))),
        ];
        assert!(check_linearizable(&h).is_ok());
    }

    #[test]
    fn dequeue_of_unenqueued_value_rejected() {
        let h = vec![ev(0, 1, Op::Dequeue(Some(9)))];
        assert!(check_linearizable(&h).is_err());
    }

    #[test]
    fn null_dequeue_must_be_justifiable() {
        // Enq(1) returns before the dequeue starts, and nothing else
        // dequeues 1, so Deq->None is not linearizable.
        let h = vec![ev(0, 1, Op::Enqueue(1)), ev(2, 3, Op::Dequeue(None))];
        assert!(check_linearizable(&h).is_err());
        // But if they overlap, None is fine (dequeue first).
        let h = vec![ev(0, 3, Op::Enqueue(1)), ev(1, 2, Op::Dequeue(None))];
        assert!(check_linearizable(&h).is_ok());
    }

    #[test]
    fn duplicate_consumption_rejected() {
        let h = vec![
            ev(0, 1, Op::Enqueue(1)),
            ev(2, 5, Op::Dequeue(Some(1))),
            ev(3, 6, Op::Dequeue(Some(1))),
        ];
        assert!(check_linearizable(&h).is_err());
    }

    #[test]
    fn real_histories_from_reference_queue_pass() {
        use crate::queue_api::CoarseMutex;
        for seed in 0..10 {
            let q = CoarseMutex::new();
            let h = record_history(&q, 3, 4, 500, seed);
            assert_eq!(h.len(), 12);
            check_linearizable(&h).unwrap();
        }
    }

    #[test]
    fn check_rounds_smoke() {
        use crate::queue_api::CoarseMutex;
        check_rounds(CoarseMutex::new, 2, 3, 6).unwrap();
    }

    #[test]
    fn batch_histories_from_reference_queue_pass() {
        use crate::queue_api::CoarseMutex;
        for seed in 0..6 {
            let q = CoarseMutex::new();
            let h = record_batch_history(&q, 2, 3, 3, 500, seed);
            assert_eq!(h.len(), 18);
            check_linearizable(&h).unwrap();
        }
    }
}
