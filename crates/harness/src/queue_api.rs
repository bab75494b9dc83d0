//! A uniform queue interface over the wait-free queue variants, the
//! sharded frontend and all baselines, so workloads, checkers and
//! experiments are written once.

use std::fmt;

use wfqueue_baselines::{MsQueue, MutexQueue, SegQueueAdapter, TwoLockQueue};
use wfqueue_shard::{Shard, ShardedBounded, ShardedHandle, ShardedUnbounded};

pub use wfqueue_shard::{PlacementConfig, ReclaimPolicy, Routing};

/// A queue could not supply the requested number of handles.
///
/// Returned by [`ConcurrentQueue::try_handles`] and the `try_` workload
/// runners ([`crate::workload::try_run_workload`] and friends) — the
/// panic-free counterpart of [`ConcurrentQueue::handle`]'s documented
/// panic when `p` exceeds the queue's handle capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// Handles that were requested.
    pub requested: usize,
    /// Handles the queue could actually supply.
    pub available: usize,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queue handle capacity exhausted: requested {} handles, only {} available \
             (create the queue with more processes)",
            self.requested, self.available
        )
    }
}

impl std::error::Error for CapacityError {}

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

    /// Acquires exactly `n` handles, or a [`CapacityError`] reporting how
    /// many were available — the panic-free bulk counterpart of calling
    /// [`ConcurrentQueue::handle`] `n` times.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if fewer than `n` handles could be
    /// acquired; handles already taken by this call are dropped (for the
    /// capped wait-free queues their pids stay consumed, as with any
    /// dropped handle).
    fn try_handles(&self, n: usize) -> Result<Vec<Self::Handle<'_>>, CapacityError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            match self.try_handle() {
                Some(h) => out.push(h),
                None => {
                    return Err(CapacityError {
                        requested: n,
                        available: out.len(),
                    })
                }
            }
        }
        Ok(out)
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
// Wait-free queue adapters
// ---------------------------------------------------------------------------

/// Adapter for the unbounded wait-free queue.
#[derive(Debug)]
pub struct WfUnbounded<T: Clone + Send + Sync>(pub wfqueue::unbounded::Queue<T>);

impl<T: Clone + Send + Sync> WfUnbounded<T> {
    /// Creates an adapter with capacity for `processes` handles.
    #[must_use]
    pub fn new(processes: usize) -> Self {
        WfUnbounded(wfqueue::unbounded::Queue::new(processes))
    }

    /// Creates an adapter whose queue truncates dead ordering-tree prefixes
    /// per `policy` (see `wfqueue::unbounded::reclaim`).
    #[must_use]
    pub fn with_reclaim(processes: usize, policy: ReclaimPolicy) -> Self
    where
        T: 'static,
    {
        WfUnbounded(wfqueue::unbounded::Queue::with_reclaim(processes, policy))
    }
}

impl<T: Clone + Send + Sync> ConcurrentQueue<T> for WfUnbounded<T> {
    type Handle<'a>
        = wfqueue::unbounded::Handle<'a, T>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-unbounded"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        self.0.register()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.0.num_processes())
    }
}

impl<T: Clone + Send + Sync> QueueHandle<T> for wfqueue::unbounded::Handle<'_, T> {
    fn enqueue(&mut self, value: T) {
        wfqueue::unbounded::Handle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        wfqueue::unbounded::Handle::dequeue(self)
    }

    fn enqueue_batch(&mut self, values: Vec<T>) {
        wfqueue::unbounded::Handle::enqueue_batch(self, values);
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        wfqueue::unbounded::Handle::dequeue_batch(self, count)
    }
}

/// Adapter for the bounded-space wait-free queue.
#[derive(Debug)]
pub struct WfBounded<T: Clone + Send + Sync>(pub wfqueue::bounded::Queue<T>);

impl<T: Clone + Send + Sync> WfBounded<T> {
    /// Creates an adapter whose GC period follows the registered handles,
    /// capped at the paper's `p²⌈log₂ p⌉` (see `bounded::Queue::new`).
    #[must_use]
    pub fn new(processes: usize) -> Self {
        WfBounded(wfqueue::bounded::Queue::new(processes))
    }

    /// Creates an adapter with an explicit GC period.
    #[must_use]
    pub fn with_gc_period(processes: usize, gc_period: usize) -> Self {
        WfBounded(wfqueue::bounded::Queue::with_gc_period(
            processes, gc_period,
        ))
    }
}

impl<T: Clone + Send + Sync> ConcurrentQueue<T> for WfBounded<T> {
    type Handle<'a>
        = wfqueue::bounded::Handle<'a, T>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-bounded"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        self.0.register()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.0.num_processes())
    }
}

impl<T: Clone + Send + Sync> QueueHandle<T> for wfqueue::bounded::Handle<'_, T> {
    fn enqueue(&mut self, value: T) {
        wfqueue::bounded::Handle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        wfqueue::bounded::Handle::dequeue(self)
    }

    fn enqueue_batch(&mut self, values: Vec<T>) {
        wfqueue::bounded::Handle::enqueue_batch(self, values);
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        wfqueue::bounded::Handle::dequeue_batch(self, count)
    }
}

/// Adapter for the wCQ-style bounded ring (`wfqueue_ring`).
///
/// [`QueueHandle::enqueue`] is infallible while the ring's capacity is a
/// hard bound, so on a full ring the adapter spins (helping stalled peers
/// between attempts) until a dequeue frees a slot — the semantics of
/// `wfqueue_shard::ShardHandle` that the ring already implements.
/// Workloads must keep enqueues and dequeues balanced within `capacity`,
/// as they would for any bounded queue.
#[derive(Debug)]
pub struct WfRing<T: Send>(pub wfqueue_ring::Ring<T>);

impl<T: Send> WfRing<T> {
    /// Creates an adapter over a ring of `capacity` values with capacity
    /// for `processes` handles.
    #[must_use]
    pub fn new(processes: usize, capacity: usize) -> Self {
        WfRing(wfqueue_ring::Ring::new(capacity, processes))
    }
}

impl<T: Send> ConcurrentQueue<T> for WfRing<T> {
    type Handle<'a>
        = wfqueue_ring::RingHandle<'a, T>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-ring"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        self.0.register()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.0.max_handles())
    }
}

impl<T: Send> QueueHandle<T> for wfqueue_ring::RingHandle<'_, T> {
    fn enqueue(&mut self, value: T) {
        // The spin-on-full ShardHandle enqueue, not the fallible inherent
        // `try_enqueue`.
        wfqueue_shard::ShardHandle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        wfqueue_ring::RingHandle::dequeue(self)
    }

    fn enqueue_batch(&mut self, values: Vec<T>) {
        wfqueue_shard::ShardHandle::enqueue_batch(self, values);
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        wfqueue_ring::RingHandle::dequeue_batch(self, count)
    }
}

// ---------------------------------------------------------------------------
// Sharded frontend adapters
// ---------------------------------------------------------------------------

/// Adapter for the sharded frontend over unbounded shards
/// (`wfqueue_shard::ShardedUnbounded`).
///
/// For `S > 1` the composite is *not* one linearizable FIFO — it is FIFO
/// per producer under both routings (`PerProducer`/`Nearest`; see the
/// `wfqueue_shard` crate docs), which is exactly what the workload
/// runners' per-producer audits check; run the Wing–Gong checker per shard.
#[derive(Debug)]
pub struct WfShardedUnbounded<T: Clone + Send + Sync>(pub ShardedUnbounded<T>);

impl<T: Clone + Send + Sync> WfShardedUnbounded<T> {
    /// Creates an adapter over `shards` unbounded shards with capacity for
    /// `processes` composite handles.
    #[must_use]
    pub fn new(shards: usize, processes: usize, routing: Routing) -> Self {
        WfShardedUnbounded(ShardedUnbounded::new(shards, processes, routing))
    }

    /// Like [`WfShardedUnbounded::new`] with an explicit
    /// [`PlacementConfig`], so suites exercising `Nearest`'s scan can pin
    /// a deterministic placement.
    #[must_use]
    pub fn new_placed(
        shards: usize,
        processes: usize,
        routing: Routing,
        placement: PlacementConfig,
    ) -> Self {
        WfShardedUnbounded(ShardedUnbounded::new_placed(
            shards, processes, routing, placement,
        ))
    }

    /// Like [`WfShardedUnbounded::new`] with an explicit per-shard
    /// [`ReclaimPolicy`] — each shard truncates its own tree independently.
    #[must_use]
    pub fn with_reclaim(
        shards: usize,
        processes: usize,
        routing: Routing,
        policy: ReclaimPolicy,
    ) -> Self
    where
        T: 'static,
    {
        WfShardedUnbounded(ShardedUnbounded::with_reclaim(
            shards, processes, routing, policy,
        ))
    }
}

impl<T: Clone + Send + Sync> ConcurrentQueue<T> for WfShardedUnbounded<T> {
    type Handle<'a>
        = ShardedHandle<'a, wfqueue::unbounded::Queue<T>>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-sharded-unbounded"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        self.0.try_handle()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.0.max_handles())
    }
}

/// Adapter for the sharded frontend over bounded-space shards
/// (`wfqueue_shard::ShardedBounded`, treap-backed). Same composite
/// semantics as [`WfShardedUnbounded`].
#[derive(Debug)]
pub struct WfShardedBounded<T: Clone + Send + Sync>(pub ShardedBounded<T>);

impl<T: Clone + Send + Sync> WfShardedBounded<T> {
    /// Creates an adapter over `shards` bounded shards (paper-default GC
    /// period) with capacity for `processes` composite handles.
    #[must_use]
    pub fn new(shards: usize, processes: usize, routing: Routing) -> Self {
        WfShardedBounded(ShardedBounded::new(shards, processes, routing))
    }

    /// Like [`WfShardedBounded::new`] with an explicit per-shard GC period.
    #[must_use]
    pub fn with_gc_period(
        shards: usize,
        processes: usize,
        gc_period: usize,
        routing: Routing,
    ) -> Self {
        WfShardedBounded(ShardedBounded::with_gc_period(
            shards, processes, gc_period, routing,
        ))
    }
}

impl<T: Clone + Send + Sync> ConcurrentQueue<T> for WfShardedBounded<T> {
    type Handle<'a>
        = ShardedHandle<'a, wfqueue::bounded::Queue<T>>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-sharded-bounded"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        self.0.try_handle()
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.0.max_handles())
    }
}

impl<T, Q: Shard<Item = T>> QueueHandle<T> for ShardedHandle<'_, Q> {
    fn enqueue(&mut self, value: T) {
        ShardedHandle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        ShardedHandle::dequeue(self)
    }

    fn enqueue_batch(&mut self, values: Vec<T>) {
        ShardedHandle::enqueue_batch(self, values);
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        ShardedHandle::dequeue_batch(self, count)
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
baseline_adapter!(Seg, SegQueueAdapter<T>, "crossbeam-seg", Send);

#[cfg(test)]
mod tests {
    use super::*;

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
        round_trip(&WfUnbounded::new(2));
        round_trip(&WfBounded::new(2));
        round_trip(&WfBounded::with_gc_period(2, 1));
        round_trip(&WfUnbounded::with_reclaim(
            2,
            ReclaimPolicy::EveryKRootBlocks(2),
        ));
        round_trip(&WfRing::new(2, 8));
        // A ring no larger than the in-flight window still round-trips.
        round_trip(&WfRing::new(2, 2));
        for routing in [Routing::PerProducer, Routing::Nearest] {
            round_trip(&WfShardedUnbounded::new_placed(
                2,
                2,
                routing,
                PlacementConfig::Flat,
            ));
            round_trip(&WfShardedUnbounded::with_reclaim(
                2,
                2,
                routing,
                ReclaimPolicy::EveryKRootBlocks(4),
            ));
            round_trip(&WfShardedBounded::with_gc_period(2, 2, 4, routing));
        }
        round_trip(&Ms::new());
        round_trip(&TwoLock::new());
        round_trip(&CoarseMutex::new());
        round_trip(&Seg::new());
    }

    #[test]
    fn capacities() {
        assert_eq!(
            ConcurrentQueue::<u64>::capacity(&WfUnbounded::<u64>::new(3)),
            Some(3)
        );
        assert_eq!(
            ConcurrentQueue::<u64>::capacity(&WfBounded::<u64>::new(5)),
            Some(5)
        );
        assert_eq!(
            ConcurrentQueue::<u64>::capacity(&WfShardedUnbounded::<u64>::new(
                4,
                6,
                Routing::PerProducer
            )),
            Some(6)
        );
        assert_eq!(
            ConcurrentQueue::<u64>::capacity(&WfRing::<u64>::new(7, 16)),
            Some(7),
            "handle capacity, not element capacity"
        );
        assert_eq!(ConcurrentQueue::<u64>::capacity(&Ms::<u64>::new()), None);
    }

    #[test]
    fn try_handles_reports_capacity_errors() {
        let q = WfUnbounded::<u64>::new(3);
        assert_eq!(q.try_handles(3).unwrap().len(), 3);
        // All three pids are consumed by the (dropped) handles above.
        assert_eq!(
            q.try_handles(1).map(|_| ()),
            Err(CapacityError {
                requested: 1,
                available: 0,
            })
        );

        let q = WfShardedBounded::<u64>::new(2, 2, Routing::Nearest);
        let err = q.try_handles(5).unwrap_err();
        assert_eq!(err.requested, 5);
        assert_eq!(err.available, 2);
        assert!(err.to_string().contains("capacity exhausted"), "{err}");
    }

    #[test]
    #[should_panic(expected = "capacity exhausted")]
    fn exhausting_wf_capacity_panics() {
        let q = WfUnbounded::<u64>::new(1);
        let _a = q.handle();
        let _b = q.handle();
    }

    #[test]
    fn try_handle_returns_none_when_exhausted() {
        let q = WfUnbounded::<u64>::new(2);
        let handles = q.handles();
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
        batch_round_trip(&WfUnbounded::new(1));
        batch_round_trip(&WfBounded::with_gc_period(1, 2));
        batch_round_trip(&WfShardedUnbounded::new_placed(
            2,
            1,
            Routing::Nearest,
            PlacementConfig::Flat,
        ));
        batch_round_trip(&WfShardedBounded::new(2, 1, Routing::PerProducer));
        batch_round_trip(&WfRing::new(1, 4));
        batch_round_trip(&Ms::new());
        batch_round_trip(&TwoLock::new());
        batch_round_trip(&CoarseMutex::new());
        batch_round_trip(&Seg::new());
    }
}
