//! A coarse-grained `Mutex<VecDeque>` queue — the simplest correct
//! comparator, and the sequential specification used by the harness's
//! checkers.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use wfqueue_metrics as metrics;

/// A queue protected by a single mutex.
///
/// # Examples
///
/// ```
/// let q = wfqueue_baselines::MutexQueue::new();
/// q.enqueue(5);
/// assert_eq!(q.dequeue(), Some(5));
/// assert_eq!(q.dequeue(), None);
/// ```
#[derive(Debug, Default)]
pub struct MutexQueue<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> MutexQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        MutexQueue {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends `value` to the back of the queue.
    pub fn enqueue(&self, value: T) {
        metrics::record_shared_store(); // lock acquisition (shared access)
        self.lock().push_back(value);
    }

    /// Removes and returns the front value, or `None` if empty.
    pub fn dequeue(&self) -> Option<T> {
        metrics::record_shared_store(); // lock acquisition (shared access)
        self.lock().pop_front()
    }

    /// Number of queued values at this instant.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the queue is empty at this instant.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A panicked holder leaves the deque intact, so poisoning is ignored.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_len() {
        let q = MutexQueue::new();
        assert!(q.is_empty());
        q.enqueue(1);
        q.enqueue(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), Some(2));
        assert_eq!(q.dequeue(), None);
    }

    #[test]
    fn concurrent_smoke() {
        let q = std::sync::Arc::new(MutexQueue::new());
        wfqueue_sync::thread::scope(|s| {
            for t in 0..4u64 {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        q.enqueue(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(q.len(), 4000);
    }
}
