//! Michael & Scott's two-lock queue (the blocking algorithm from the same
//! 1996/1998 papers as [`crate::MsQueue`]).
//!
//! Enqueues and dequeues synchronise on separate locks over a linked list
//! with a sentinel, so producers and consumers do not contend with each
//! other. Blocking, so no wait-freedom — included as the "simple and fast
//! when uncontended" reference point.

use parking_lot::Mutex;
use wfqueue_metrics as metrics;

struct Node<T> {
    value: Option<T>,
    next: Option<Box<Node<T>>>,
}

struct Tail<T> {
    /// Pointer to the current tail node, always valid while `head` owns the
    /// chain. Never dangles: nodes are only freed by dequeues, which never
    /// free the node `tail` points at (the sentinel rule).
    tail: *mut Node<T>,
}

// SAFETY: the raw pointer is only dereferenced under the tail lock, and the
// pointee is kept alive by the head-owned chain (sentinel discipline).
unsafe impl<T: Send> Send for Tail<T> {}

/// The two-lock Michael–Scott queue.
///
/// # Examples
///
/// ```
/// let q = wfqueue_baselines::TwoLockQueue::new();
/// q.enqueue("x");
/// assert_eq!(q.dequeue(), Some("x"));
/// assert_eq!(q.dequeue(), None);
/// ```
pub struct TwoLockQueue<T> {
    head: Mutex<Box<Node<T>>>,
    tail: Mutex<Tail<T>>,
}

impl<T: Send> TwoLockQueue<T> {
    /// Creates an empty queue (one sentinel node).
    #[must_use]
    pub fn new() -> Self {
        let mut sentinel = Box::new(Node {
            value: None,
            next: None,
        });
        let tail_ptr: *mut Node<T> = &mut *sentinel;
        TwoLockQueue {
            head: Mutex::new(sentinel),
            tail: Mutex::new(Tail { tail: tail_ptr }),
        }
    }

    /// Appends `value` to the back of the queue.
    pub fn enqueue(&self, value: T) {
        let mut node = Box::new(Node {
            value: Some(value),
            next: None,
        });
        let new_tail: *mut Node<T> = &mut *node;
        metrics::record_shared_store(); // lock acquisition (shared access)
        let mut tail = self.tail.lock();
        // SAFETY: under the tail lock, `tail.tail` points to the live tail
        // node of the chain owned by `head` (sentinel discipline).
        unsafe {
            (*tail.tail).next = Some(node);
        }
        tail.tail = new_tail;
    }

    /// Removes and returns the front value, or `None` if the queue is empty.
    pub fn dequeue(&self) -> Option<T> {
        metrics::record_shared_store(); // lock acquisition (shared access)
        let mut head = self.head.lock();
        // Read before taking: on an empty queue the sentinel is also the
        // tail node, so an enqueuer holding only the tail lock may be
        // linking a node into its `next` right now. `take()` on a `None`
        // would still write `None` back and could erase that link, losing
        // the node and every node appended after it.
        head.next.as_ref()?;
        let next = head.next.take().expect("checked nonempty above");
        // The old sentinel is dropped; `next` becomes the new sentinel after
        // we take its value.
        *head = next;
        head.value.take()
    }

    /// Whether the queue appears empty at this instant.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head.lock().next.is_none()
    }
}

impl<T: Send> Default for TwoLockQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for TwoLockQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TwoLockQueue")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::Arc;

    #[test]
    fn fifo_semantics_sequential() {
        let q = TwoLockQueue::new();
        let mut model = VecDeque::new();
        for i in 0..300u32 {
            if i % 4 == 1 {
                assert_eq!(q.dequeue(), model.pop_front());
            } else {
                q.enqueue(i);
                model.push_back(i);
            }
        }
        while let Some(v) = model.pop_front() {
            assert_eq!(q.dequeue(), Some(v));
        }
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn drop_frees_pending_nodes() {
        let q = TwoLockQueue::new();
        for i in 0..100 {
            q.enqueue(format!("value-{i}"));
        }
        drop(q); // must not leak or double-free (checked under sanitizers)
    }

    #[test]
    fn concurrent_producers_consumers() {
        let q = Arc::new(TwoLockQueue::new());
        let total = 4 * 5_000u64;
        let consumed: Vec<u64> = wfqueue_sync::thread::scope(|s| {
            for t in 0..4u64 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..5_000 {
                        q.enqueue((t << 32) | i);
                    }
                });
            }
            let join = {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut misses = 0;
                    while (got.len() as u64) < total && misses < 50_000_000 {
                        match q.dequeue() {
                            Some(v) => {
                                got.push(v);
                                misses = 0;
                            }
                            None => {
                                // Let descheduled producers run on a
                                // loaded host instead of burning the budget.
                                misses += 1;
                                wfqueue_sync::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            };
            join.join().unwrap()
        });
        assert_eq!(consumed.len() as u64, total);
        let mut sorted = consumed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len() as u64, total);
        // Single consumer: per-producer order must be exact.
        let mut last = [None::<u64>; 4];
        for v in &consumed {
            let t = (v >> 32) as usize;
            let i = v & 0xffff_ffff;
            if let Some(prev) = last[t] {
                assert!(i > prev);
            }
            last[t] = Some(i);
        }
    }
}
