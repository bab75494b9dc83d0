//! A uniform queue interface over the wait-free queue variants, the
//! sharded frontend and all baselines, so workloads, checkers and
//! experiments are written once.
//!
//! The wait-free queues implement [`ConcurrentQueue`] directly, and every
//! `wfqueue_shard::ShardHandle` is a [`QueueHandle`], so callers pass the
//! queues themselves. Only the baselines, whose operations take `&self`,
//! need an adapter ([`RefHandle`]).

use wfqueue_baselines::{MsQueue, MutexQueue, TwoLockQueue};
use wfqueue_ring::Ring;
use wfqueue_shard::{ShardHandle, ShardedHandle, ShardedQueue};

pub use wfqueue_shard::{ReclaimPolicy, Routing};

/// A shared multi-producer multi-consumer FIFO queue under test.
///
/// Implementations hand out per-thread handles; the ordering-tree queues
/// have a bounded number of handles (`capacity`), the baselines do not.
pub trait ConcurrentQueue<T>: Sync {
    /// The per-thread handle type.
    type Handle<'a>: QueueHandle<T> + Send
    where
        Self: 'a,
        T: 'a;

    /// Short display name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Acquires a handle for one thread, or `None` if the queue's handle
    /// capacity is exhausted.
    fn try_handle(&self) -> Option<Self::Handle<'_>>;

    /// Acquires a handle for one thread.
    ///
    /// # Panics
    ///
    /// Panics if the queue's handle capacity is exhausted; use
    /// [`ConcurrentQueue::try_handle`] for a non-panicking variant.
    fn handle(&self) -> Self::Handle<'_> {
        self.try_handle()
            .expect("queue capacity exhausted: create it with more processes")
    }

    /// All remaining handles of a bounded-capacity queue (convenient with
    /// scoped threads). For queues without a handle bound
    /// ([`ConcurrentQueue::capacity`] is `None`) there is no "all", so this
    /// returns an empty vec — take handles per thread instead.
    fn handles(&self) -> Vec<Self::Handle<'_>> {
        match self.capacity() {
            Some(_) => std::iter::from_fn(|| self.try_handle()).collect(),
            None => Vec::new(),
        }
    }

    /// Maximum number of handles, if bounded.
    fn capacity(&self) -> Option<usize> {
        None
    }
}

/// A per-thread view of a [`ConcurrentQueue`].
pub trait QueueHandle<T> {
    /// Appends `value` to the back of the queue.
    fn enqueue(&mut self, value: T);
    /// Removes and returns the front value, or `None` if empty.
    fn dequeue(&mut self) -> Option<T>;

    /// Enqueues a whole batch. The default is a per-op fallback loop;
    /// queues with native batching (the wait-free ordering-tree queues)
    /// override it to append a single leaf block for the batch.
    fn enqueue_batch(&mut self, values: Vec<T>) {
        for v in values {
            self.enqueue(v);
        }
    }

    /// Performs `count` dequeues, returning the responses in order (`None`
    /// entries mean the queue was empty). The default is a per-op fallback
    /// loop; native implementations resolve the batch against one root
    /// block.
    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        (0..count).map(|_| self.dequeue()).collect()
    }
}

// ---------------------------------------------------------------------------
// The wait-free queues
// ---------------------------------------------------------------------------

/// Every shard handle — the §3 and §6 queues', the ring's and the sharded
/// composite's — is a queue handle with native batches.
///
/// The ring's `ShardHandle::enqueue` spins (helping stalled peers between
/// attempts) while the ring is full, so workloads must keep enqueues and
/// dequeues balanced within the ring's capacity, as they would for any
/// bounded queue.
impl<H: ShardHandle> QueueHandle<H::Item> for H {
    fn enqueue(&mut self, value: H::Item) {
        ShardHandle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<H::Item> {
        ShardHandle::dequeue(self)
    }

    fn enqueue_batch(&mut self, values: Vec<H::Item>) {
        ShardHandle::enqueue_batch(self, values);
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<H::Item>> {
        ShardHandle::dequeue_batch(self, count)
    }
}

impl<T: Clone + Send + Sync> ConcurrentQueue<T> for wfqueue::unbounded::Queue<T> {
    type Handle<'a>
        = wfqueue::unbounded::Handle<'a, T>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-unbounded"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        self.register()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.num_processes())
    }
}

impl<T: Clone + Send + Sync> ConcurrentQueue<T> for wfqueue::bounded::Queue<T> {
    type Handle<'a>
        = wfqueue::bounded::Handle<'a, T>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-bounded"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        self.register()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.num_processes())
    }
}

impl<T: Send> ConcurrentQueue<T> for Ring<T> {
    type Handle<'a>
        = wfqueue_ring::RingHandle<'a, T>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-ring"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        self.register()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.max_handles())
    }
}

/// For `S > 1` the composite is *not* one linearizable FIFO — it is FIFO
/// per producer under both routings (see the `wfqueue_shard` crate docs),
/// which is exactly what the workload runners' per-producer audits check;
/// run the Wing–Gong checker per shard.
impl<T: Clone + Send + Sync> ConcurrentQueue<T> for ShardedQueue<wfqueue::unbounded::Queue<T>> {
    type Handle<'a>
        = ShardedHandle<'a, wfqueue::unbounded::Queue<T>>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-sharded-unbounded"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        ShardedQueue::try_handle(self)
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.max_handles())
    }
}

impl<T: Clone + Send + Sync> ConcurrentQueue<T> for ShardedQueue<wfqueue::bounded::Queue<T>> {
    type Handle<'a>
        = ShardedHandle<'a, wfqueue::bounded::Queue<T>>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-sharded-bounded"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        ShardedQueue::try_handle(self)
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.max_handles())
    }
}

// ---------------------------------------------------------------------------
// Baseline adapters (handles are just shared references)
// ---------------------------------------------------------------------------

/// Handle type for baselines whose operations take `&self`.
#[derive(Debug)]
pub struct RefHandle<'a, Q>(&'a Q);

macro_rules! baseline_adapter {
    ($adapter:ident, $queue:ty, $name:literal, $bound:path) => {
        /// Adapter wrapping the corresponding baseline queue.
        #[derive(Debug, Default)]
        pub struct $adapter<T: $bound>(pub $queue);

        impl<T: $bound> $adapter<T> {
            /// Creates an empty queue adapter.
            #[must_use]
            pub fn new() -> Self {
                $adapter(<$queue>::new())
            }
        }

        impl<T: $bound> ConcurrentQueue<T> for $adapter<T>
        where
            $queue: Sync,
        {
            type Handle<'a>
                = RefHandle<'a, $queue>
            where
                T: 'a;

            fn name(&self) -> &'static str {
                $name
            }

            fn try_handle(&self) -> Option<Self::Handle<'_>> {
                Some(RefHandle(&self.0))
            }
        }

        impl<T: $bound> QueueHandle<T> for RefHandle<'_, $queue>
        where
            $queue: Sync,
        {
            fn enqueue(&mut self, value: T) {
                self.0.enqueue(value);
            }

            fn dequeue(&mut self) -> Option<T> {
                self.0.dequeue()
            }
        }
    };
}

baseline_adapter!(Ms, MsQueue<T>, "ms-queue", Send);
baseline_adapter!(TwoLock, TwoLockQueue<T>, "two-lock", Send);
baseline_adapter!(CoarseMutex, MutexQueue<T>, "mutex", Send);

#[cfg(test)]
mod tests {
    use super::*;
    use wfqueue::{bounded, unbounded};
    use wfqueue_shard::ShardedUnbounded;

    fn round_trip<Q: ConcurrentQueue<u64>>(q: &Q) {
        let mut h = q.handle();
        h.enqueue(1);
        h.enqueue(2);
        assert_eq!(h.dequeue(), Some(1));
        assert_eq!(h.dequeue(), Some(2));
        assert_eq!(h.dequeue(), None);
        assert!(!q.name().is_empty());
    }

    #[test]
    fn all_adapters_round_trip() {
        round_trip(&unbounded::Queue::new(2));
        round_trip(&bounded::Queue::new(2));
        round_trip(&bounded::Queue::with_gc_period(2, 1));
        round_trip(&unbounded::Queue::with_reclaim(
            2,
            ReclaimPolicy::EveryKRootBlocks(2),
        ));
        round_trip(&Ring::new(8, 2));
        // A ring no larger than the in-flight window still round-trips.
        round_trip(&Ring::new(2, 2));
        for routing in [Routing::PerProducer, Routing::Nearest] {
            round_trip(&ShardedUnbounded::<u64>::new(2, 2, routing));
            round_trip(&ShardedQueue::build(2, 2, routing, |cap| {
                unbounded::Queue::with_reclaim(cap, ReclaimPolicy::EveryKRootBlocks(4))
            }));
            round_trip(&ShardedQueue::build(2, 2, routing, |cap| {
                bounded::Queue::with_gc_period(cap, 4)
            }));
        }
        round_trip(&Ms::new());
        round_trip(&TwoLock::new());
        round_trip(&CoarseMutex::new());
    }

    #[test]
    fn capacities() {
        assert_eq!(
            ConcurrentQueue::<u64>::capacity(&unbounded::Queue::<u64>::new(3)),
            Some(3)
        );
        assert_eq!(
            ConcurrentQueue::<u64>::capacity(&bounded::Queue::<u64>::new(5)),
            Some(5)
        );
        assert_eq!(
            ConcurrentQueue::<u64>::capacity(&ShardedUnbounded::<u64>::new(
                4,
                6,
                Routing::PerProducer
            )),
            Some(6)
        );
        assert_eq!(
            ConcurrentQueue::<u64>::capacity(&Ring::<u64>::new(16, 7)),
            Some(7),
            "handle capacity, not element capacity"
        );
        assert_eq!(ConcurrentQueue::<u64>::capacity(&Ms::<u64>::new()), None);
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn exhausting_wf_capacity_panics() {
        let q = unbounded::Queue::<u64>::new(1);
        let _a = q.handle();
        let _b = q.handle();
    }

    #[test]
    fn try_handle_returns_none_when_exhausted() {
        let q = unbounded::Queue::<u64>::new(2);
        let handles = ConcurrentQueue::handles(&q);
        assert_eq!(handles.len(), 2);
        assert!(q.try_handle().is_none());
        // Baselines are never exhausted.
        let b = Ms::<u64>::new();
        assert!(b.try_handle().is_some());
        // ... which is why `handles()` must not loop on them: no capacity,
        // no "all remaining handles".
        assert!(b.handles().is_empty());
    }

    fn batch_round_trip<Q: ConcurrentQueue<u64>>(q: &Q) {
        let mut h = q.handle();
        h.enqueue_batch(vec![1, 2, 3]);
        assert_eq!(
            h.dequeue_batch(4),
            vec![Some(1), Some(2), Some(3), None],
            "{}",
            q.name()
        );
    }

    #[test]
    fn batch_methods_on_all_adapters() {
        // Native batch paths on the wf queues, fallback loops elsewhere —
        // identical observable behaviour.
        batch_round_trip(&unbounded::Queue::new(1));
        batch_round_trip(&bounded::Queue::with_gc_period(1, 2));
        batch_round_trip(&ShardedUnbounded::<u64>::new(2, 1, Routing::Nearest));
        batch_round_trip(&wfqueue_shard::ShardedBounded::new(
            2,
            1,
            Routing::PerProducer,
        ));
        batch_round_trip(&Ring::new(4, 1));
        batch_round_trip(&Ms::new());
        batch_round_trip(&TwoLock::new());
        batch_round_trip(&CoarseMutex::new());
    }
}
