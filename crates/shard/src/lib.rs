//! A sharded frontend over the wait-free ordering-tree queues.
//!
//! The Naderibeni–Ruppert queue has exactly one contention point: the root
//! of the ordering tree, where every operation's propagation terminates in
//! a CAS. [`ShardedQueue`] multiplies that root bandwidth by fanning
//! operations out over `S` independent shards (each a full wait-free
//! [`wfqueue::unbounded::Queue`] or [`wfqueue::bounded::Queue`]), while
//! every shard keeps the paper's polylogarithmic wait-free guarantees
//! intact.
//!
//! # Routing
//!
//! Routing is the plain [`Routing`] enum, matched inside [`ShardedHandle`]
//! (see `DESIGN.md` § "Routing"), with per-shard `Relaxed` emptiness hints
//! ([`ShardHints`]) ordering the `Nearest` scan.
//!
//! | variant | enqueue | dequeue scan | per-producer FIFO |
//! |---|---|---|---|
//! | [`Routing::PerProducer`] | home shard | home shard only | yes |
//! | [`Routing::Nearest`] | home shard | all, hinted-nonempty first, cyclic from home | yes |
//!
//! Handle `i`'s home shard is `i % S` under both variants, and every one
//! of its enqueues lands there. `PerProducer` sizes each shard's tree to
//! the handles pinned to it (`⌈p/S⌉` instead of `p`), so per-operation cost
//! drops from `O(log p)` to `O(log(p/S))` *and* root CASes spread over `S`
//! roots. `Nearest` lets every handle dequeue from every shard: its scan
//! starts at the handle's own home shard and probes hinted-nonempty shards
//! in cyclic order (`home, home+1, …, home−1 mod S`), falling back over the
//! rest in the same order so a `None` still witnesses a full sweep. The
//! scan takes no shared read-modify-write. No layer pins threads to CPUs,
//! so "nearest" means cyclic distance from the home shard, not cache
//! locality.
//!
//! What the composite is *not*: a single linearizable FIFO queue (for
//! `S > 1`). Each shard individually is linearizable, a producer's values
//! are consumed in order under both policies, and a `ShardedQueue`
//! with `S = 1` is observationally identical to its inner queue — but
//! values of different producers on different shards may be consumed in
//! either order, and a `None` response only witnesses that the swept
//! shards were individually empty at some point during the sweep, not
//! that the composite was ever globally empty. See `DESIGN.md` for the
//! full semantics discussion.
//!
//! Per-shard handles are acquired lazily through each shard's capped
//! `register()`, so a sharded handle consumes a pid only on the shards it
//! actually touches: an enqueue-only `PerProducer` producer occupies one
//! pid on one shard, a sweeping dequeuer occupies one pid per swept shard.
//! Shard capacities are verified up front ([`Routing::shard_capacity`]),
//! so lazy registration can never fail at operation time.
//!
//! Batches ([`ShardedHandle::enqueue_batch`] /
//! [`ShardedHandle::dequeue_batch`]) route whole batches to one shard, so
//! the one-leaf-block-per-batch amortization of the underlying queues
//! composes with sharding: a batch still costs one `try_install` + one
//! `Propagate` on its shard.

#![deny(missing_docs)]

mod policy;

use std::fmt;
use wfqueue_sync::atomic::{AtomicUsize, Ordering};

use wfqueue::bounded;
use wfqueue::unbounded;

use policy::RouterState;
pub use policy::ShardHints;
pub use wfqueue::unbounded::ReclaimPolicy;

// ---------------------------------------------------------------------------
// The shard abstraction
// ---------------------------------------------------------------------------

/// A queue that can serve as one shard of a [`ShardedQueue`]: it registers
/// a bounded number of per-process handles and exposes the queue
/// operations through them.
///
/// Implemented for both wait-free ordering-tree queues
/// ([`wfqueue::unbounded::Queue`] and [`wfqueue::bounded::Queue`]).
pub trait Shard: Sync {
    /// Element type stored by the shard.
    type Item;
    /// The shard's per-process handle type.
    type Handle<'a>: ShardHandle<Item = Self::Item> + Send
    where
        Self: 'a;

    /// Acquires a handle, or `None` if the shard's handle capacity is
    /// exhausted (mirrors the queues' capped `register()`).
    fn register(&self) -> Option<Self::Handle<'_>>;

    /// Maximum number of handles this shard can register.
    fn capacity(&self) -> usize;

    /// The shard's recent-past length snapshot (see
    /// [`wfqueue::unbounded::Queue::approx_len`]).
    fn approx_len(&self) -> usize;
}

/// A per-process handle to one [`Shard`].
pub trait ShardHandle {
    /// Element type stored by the shard.
    type Item;

    /// Appends `value` to the back of the shard.
    fn enqueue(&mut self, value: Self::Item);
    /// Removes and returns the shard's front value, or `None` if empty.
    fn dequeue(&mut self) -> Option<Self::Item>;
    /// Enqueues a whole batch as one leaf block.
    fn enqueue_batch(&mut self, values: Vec<Self::Item>);
    /// Performs `count` dequeues as one leaf block, returning the responses
    /// in order.
    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<Self::Item>>;
}

impl<T: Clone + Send + Sync> Shard for unbounded::Queue<T> {
    type Item = T;
    type Handle<'a>
        = unbounded::Handle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> Option<Self::Handle<'_>> {
        unbounded::Queue::register(self)
    }

    fn capacity(&self) -> usize {
        self.num_processes()
    }

    fn approx_len(&self) -> usize {
        unbounded::Queue::approx_len(self)
    }
}

impl<T: Clone + Send + Sync> ShardHandle for unbounded::Handle<'_, T> {
    type Item = T;

    fn enqueue(&mut self, value: T) {
        unbounded::Handle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        unbounded::Handle::dequeue(self)
    }

    fn enqueue_batch(&mut self, values: Vec<T>) {
        unbounded::Handle::enqueue_batch(self, values);
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        unbounded::Handle::dequeue_batch(self, count)
    }
}

impl<T: Clone + Send + Sync> Shard for bounded::Queue<T> {
    type Item = T;
    type Handle<'a>
        = bounded::Handle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> Option<Self::Handle<'_>> {
        bounded::Queue::register(self)
    }

    fn capacity(&self) -> usize {
        self.num_processes()
    }

    fn approx_len(&self) -> usize {
        bounded::Queue::approx_len(self)
    }
}

impl<T: Clone + Send + Sync> ShardHandle for bounded::Handle<'_, T> {
    type Item = T;

    fn enqueue(&mut self, value: T) {
        bounded::Handle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        bounded::Handle::dequeue(self)
    }

    fn enqueue_batch(&mut self, values: Vec<T>) {
        bounded::Handle::enqueue_batch(self, values);
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        bounded::Handle::dequeue_batch(self, count)
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// How a [`ShardedQueue`] routes operations to shards. Both variants pin
/// every enqueue of handle `i` to its home shard `i % S`, so per-producer
/// FIFO holds under either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Each handle pins to its home shard for **all** of its operations.
    ///
    /// Each shard's tree is sized to `⌈p/S⌉` handles instead of `p`, and a
    /// handle's `dequeue() == None` witnesses that *its* shard was empty.
    /// Values on other shards are not visible to this handle — the
    /// sharded-lanes model of SPSC fan-out designs.
    PerProducer,
    /// The contention-aware scan: dequeues probe hinted-nonempty shards
    /// nearest-first from the handle's home, then the rest in the same
    /// order — full coverage, and **no shared RMW per sweep**
    /// (handle-local state plus `Relaxed` advisory [`ShardHints`]).
    ///
    /// "Nearest" is cyclic distance from the home shard: the scan order is
    /// `home, home+1, …, home−1 (mod S)`. It is not a cache-locality
    /// claim — no layer pins threads to CPUs.
    Nearest,
}

impl Routing {
    /// The handle capacity shard `shard` must offer when a sharded queue
    /// with `num_shards` shards hands out at most `max_handles` composite
    /// handles under this routing policy.
    ///
    /// `PerProducer` pins handle `i` to shard `i % num_shards`, so a shard
    /// only ever registers the handles pinned to it; `Nearest` may register
    /// every handle on every shard. Always at least 1 (a queue cannot be
    /// built for zero processes).
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_shard::Routing;
    ///
    /// // 8 handles over 3 shards: pinned counts 3, 3, 2 ...
    /// assert_eq!(Routing::PerProducer.shard_capacity(8, 3, 0), 3);
    /// assert_eq!(Routing::PerProducer.shard_capacity(8, 3, 2), 2);
    /// // ... while the full scan may register every handle anywhere.
    /// assert_eq!(Routing::Nearest.shard_capacity(8, 3, 2), 8);
    /// ```
    #[must_use]
    pub fn shard_capacity(self, max_handles: usize, num_shards: usize, shard: usize) -> usize {
        let cap = match self {
            Routing::PerProducer => {
                max_handles / num_shards + usize::from(shard < max_handles % num_shards)
            }
            Routing::Nearest => max_handles,
        };
        cap.max(1)
    }
}

// ---------------------------------------------------------------------------
// The sharded queue
// ---------------------------------------------------------------------------

/// An order-preserving fan-out frontend over `S` independent wait-free
/// queue shards. See the [crate docs](crate) for semantics and
/// [`Routing`] for the two routing policies.
///
/// # Examples
///
/// ```
/// use wfqueue_shard::{Routing, ShardedUnbounded};
///
/// // 2 shards, at most 4 composite handles, per-producer pinning.
/// let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 4, Routing::PerProducer);
/// let mut h = q.try_handle().unwrap();
/// h.enqueue(7);
/// assert_eq!(h.dequeue(), Some(7));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct ShardedQueue<Q: Shard> {
    shards: Vec<Q>,
    routing: Routing,
    hints: ShardHints,
    max_handles: usize,
    next_handle: AtomicUsize,
}

/// A [`ShardedQueue`] over unbounded-space shards.
pub type ShardedUnbounded<T> = ShardedQueue<unbounded::Queue<T>>;

/// A [`ShardedQueue`] over bounded-space shards.
pub type ShardedBounded<T> = ShardedQueue<bounded::Queue<T>>;

impl<Q: Shard> ShardedQueue<Q> {
    /// Builds a sharded queue from `num_shards` shards produced by `make`,
    /// which receives each shard's required handle capacity
    /// ([`Routing::shard_capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` or `max_handles` is zero, or if a produced
    /// shard reports less capacity than required.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue::unbounded::{Queue, ReclaimPolicy};
    /// use wfqueue_shard::{Routing, ShardedQueue};
    ///
    /// // Each shard gets exactly the capacity routing demands, and is
    /// // built however the caller likes — here with a reclaim policy.
    /// let q = ShardedQueue::build(4, 4, Routing::Nearest, |cap| {
    ///     Queue::<u64>::with_reclaim(cap, ReclaimPolicy::EveryKRootBlocks(16))
    /// });
    /// assert_eq!(q.num_shards(), 4);
    /// assert_eq!(q.shards()[0].num_processes(), 4, "Nearest: every handle anywhere");
    /// ```
    pub fn build(
        num_shards: usize,
        max_handles: usize,
        routing: Routing,
        mut make: impl FnMut(usize) -> Q,
    ) -> Self {
        let shards = (0..num_shards)
            .map(|s| make(routing.shard_capacity(max_handles, num_shards, s)))
            .collect();
        Self::with_shards(shards, max_handles, routing)
    }

    /// Builds a sharded queue over caller-constructed shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, `max_handles` is zero, or any shard's
    /// [`Shard::capacity`] is below [`Routing::shard_capacity`] — the
    /// up-front check is what lets per-shard handles register lazily
    /// without a failure path at operation time.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue::unbounded::{Queue, ReclaimPolicy};
    /// use wfqueue_shard::{Routing, ShardedQueue};
    ///
    /// // Each shard truncates its own ordering tree under its own policy.
    /// let shards = (0..2)
    ///     .map(|_| Queue::<u64>::with_reclaim(1, ReclaimPolicy::EveryKRootBlocks(16)))
    ///     .collect();
    /// let q = ShardedQueue::with_shards(shards, 2, Routing::PerProducer);
    /// let mut h = q.try_handle().unwrap();
    /// for i in 0..100 {
    ///     h.enqueue(i);
    ///     assert_eq!(h.dequeue(), Some(i));
    /// }
    /// ```
    pub fn with_shards(shards: Vec<Q>, max_handles: usize, routing: Routing) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(max_handles > 0, "need at least one handle");
        for (s, shard) in shards.iter().enumerate() {
            let need = routing.shard_capacity(max_handles, shards.len(), s);
            assert!(
                shard.capacity() >= need,
                "shard {s} has capacity {} but {routing:?} routing with {max_handles} \
                 handles requires {need}",
                shard.capacity(),
            );
        }
        let num_shards = shards.len();
        ShardedQueue {
            shards,
            routing,
            hints: ShardHints::new(num_shards),
            max_handles,
            next_handle: AtomicUsize::new(0),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Maximum number of composite handles this queue hands out.
    #[must_use]
    pub fn max_handles(&self) -> usize {
        self.max_handles
    }

    /// The [`Routing`] variant this queue was configured with.
    #[must_use]
    pub fn routing(&self) -> Routing {
        self.routing
    }

    /// The queue's advisory per-shard emptiness hints (maintained under
    /// [`Routing::Nearest`]; exposed for introspection and tests).
    #[must_use]
    pub fn hints(&self) -> &ShardHints {
        &self.hints
    }

    /// The underlying shards (for introspection and per-shard invariant
    /// checks).
    #[must_use]
    pub fn shards(&self) -> &[Q] {
        &self.shards
    }

    /// Sum of the shards' recent-past length snapshots. Like the per-shard
    /// [`Shard::approx_len`] this is exact at quiescence; concurrently it
    /// combines per-shard snapshots taken at slightly different instants.
    #[must_use]
    pub fn approx_len(&self) -> usize {
        self.shards.iter().map(Shard::approx_len).sum()
    }

    /// Acquires the next composite handle, or `None` if all `max_handles`
    /// have been taken. Same capped CEX loop as the underlying queues'
    /// `register()`: exhaustion never over-advances the counter.
    pub fn try_handle(&self) -> Option<ShardedHandle<'_, Q>> {
        let mut index = self.next_handle.load(Ordering::Relaxed);
        loop {
            if index >= self.max_handles {
                return None;
            }
            match self.next_handle.compare_exchange_weak(
                index,
                index + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let num_shards = self.num_shards();
                    return Some(ShardedHandle {
                        queue: self,
                        inner: (0..num_shards).map(|_| None).collect(),
                        router: RouterState::new(index, num_shards),
                    });
                }
                Err(current) => index = current,
            }
        }
    }

    /// All remaining composite handles (convenient with scoped threads).
    pub fn handles(&self) -> Vec<ShardedHandle<'_, Q>> {
        std::iter::from_fn(|| self.try_handle()).collect()
    }
}

impl<T: Clone + Send + Sync> ShardedUnbounded<T> {
    /// Creates a sharded queue over `num_shards` unbounded shards, capped
    /// at `max_handles` composite handles.
    ///
    /// Each shard is sized to [`Routing::shard_capacity`]; under
    /// [`Routing::PerProducer`] that is `⌈max_handles/num_shards⌉`, so the
    /// per-shard trees are shallower than a single queue's. For a reclaim
    /// policy, use [`ShardedQueue::build`].
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` or `max_handles` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_shard::{Routing, ShardedUnbounded};
    ///
    /// let q: ShardedUnbounded<u64> = ShardedUnbounded::new(4, 8, Routing::Nearest);
    /// assert_eq!((q.num_shards(), q.max_handles()), (4, 8));
    /// ```
    #[must_use]
    pub fn new(num_shards: usize, max_handles: usize, routing: Routing) -> Self {
        Self::build(num_shards, max_handles, routing, unbounded::Queue::new)
    }
}

impl<T: Clone + Send + Sync> ShardedBounded<T> {
    /// Creates a sharded queue over `num_shards` bounded-space shards
    /// whose GC periods follow the handles each shard registers (see
    /// [`bounded::Queue::new`]), capped at `max_handles` composite handles.
    /// For an explicit GC period, use [`ShardedQueue::build`].
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` or `max_handles` is zero.
    #[must_use]
    pub fn new(num_shards: usize, max_handles: usize, routing: Routing) -> Self {
        Self::build(num_shards, max_handles, routing, bounded::Queue::new)
    }
}

impl<Q: Shard> fmt::Debug for ShardedQueue<Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedQueue")
            .field("num_shards", &self.num_shards())
            .field("routing", &self.routing)
            .field("max_handles", &self.max_handles)
            .field("handles_taken", &self.next_handle.load(Ordering::Relaxed))
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The composite handle
// ---------------------------------------------------------------------------

/// A per-process handle to a [`ShardedQueue`].
///
/// Per-shard handles are acquired lazily on first touch through each
/// shard's capped `register()` — an enqueue-only `PerProducer` handle
/// consumes exactly one pid on exactly one shard. Capacity was verified at
/// construction, so lazy registration cannot fail.
pub struct ShardedHandle<'q, Q: Shard> {
    queue: &'q ShardedQueue<Q>,
    /// Lazily-registered per-shard handles, indexed by shard.
    inner: Vec<Option<Q::Handle<'q>>>,
    /// Handle-local routing state (home shard, scan buffer).
    router: RouterState,
}

impl<'q, Q: Shard> ShardedHandle<'q, Q> {
    /// This handle's composite index (`0..max_handles`).
    #[must_use]
    pub fn handle_index(&self) -> usize {
        self.router.handle_index()
    }

    /// The sharded queue this handle belongs to.
    #[must_use]
    pub fn queue(&self) -> &'q ShardedQueue<Q> {
        self.queue
    }

    /// This handle's home shard, `handle_index % num_shards`: where its
    /// enqueues land and where its dequeue scans start.
    #[must_use]
    pub fn home_shard(&self) -> usize {
        self.router.home()
    }

    /// Lazily registers on shard `s` and returns its handle.
    fn shard(&mut self, s: usize) -> &mut Q::Handle<'q> {
        if self.inner[s].is_none() {
            let handle = self.queue.shards[s]
                .register()
                .expect("shard capacity was verified at construction");
            self.inner[s] = Some(handle);
        }
        self.inner[s].as_mut().expect("just registered")
    }

    /// Whether this handle's queue scans under [`Routing::Nearest`], the
    /// one policy that reads and maintains the [`ShardHints`].
    fn hinted(&self) -> bool {
        self.queue.routing == Routing::Nearest
    }

    /// Plans this handle's next dequeue scan: its home shard alone under
    /// `PerProducer`, the hinted nearest-first sweep under `Nearest`.
    fn plan_scan(&mut self) {
        let queue = self.queue;
        match queue.routing {
            Routing::PerProducer => self.router.plan_home_scan(),
            Routing::Nearest => self.router.plan_nearest_scan(&queue.hints),
        }
    }

    /// Appends `value` to this handle's home shard.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_shard::{Routing, ShardedUnbounded};
    ///
    /// let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 1, Routing::PerProducer);
    /// let mut h = q.try_handle().unwrap();
    /// h.enqueue(1); // lands on this handle's pinned shard
    /// assert_eq!(q.approx_len(), 1);
    /// ```
    pub fn enqueue(&mut self, value: Q::Item) {
        let home = self.router.home();
        self.shard(home).enqueue(value);
        if self.hinted() {
            self.queue.hints.mark_nonempty(home);
        }
    }

    /// Dequeues from the shards of this handle's planned scan, returning
    /// the first value found.
    ///
    /// `None` means every scanned shard was individually empty at its
    /// dequeue's linearization point — under [`Routing::PerProducer`] that
    /// is exactly "this handle's shard was empty"; under
    /// [`Routing::Nearest`] it is *not* a witness that the composite was
    /// ever globally empty (another shard may have held values while an
    /// earlier one was probed).
    #[must_use = "a dequeued value should be used (None means the swept shards were empty)"]
    pub fn dequeue(&mut self) -> Option<Q::Item> {
        self.plan_scan();
        let hinted = self.hinted();
        for k in 0..self.router.scan().len() {
            let s = self.router.scan()[k];
            let got = self.shard(s).dequeue();
            if got.is_some() {
                return got;
            }
            if hinted {
                self.queue.hints.mark_empty(s);
            }
        }
        None
    }

    /// Enqueues the whole batch on this handle's home shard, so the
    /// underlying one-leaf-block-per-batch amortization composes with
    /// sharding. An empty batch is a no-op.
    ///
    /// Because the batch lands on a single FIFO shard, its values stay
    /// contiguous *within that shard's* consumption order — the
    /// batch-atomicity contract of the inner queues, weakened only across
    /// shards (see the [crate docs](crate)).
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_shard::{Routing, ShardedUnbounded};
    ///
    /// let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 2, Routing::Nearest);
    /// let mut hs = q.handles();
    /// hs[0].enqueue_batch(vec![1, 2, 3]); // one leaf block on shard 0
    /// hs[1].enqueue_batch(vec![4, 5]); // one leaf block on shard 1
    /// assert_eq!(q.shards()[0].approx_len(), 3);
    /// assert_eq!(q.shards()[1].approx_len(), 2);
    /// ```
    pub fn enqueue_batch(&mut self, values: impl IntoIterator<Item = Q::Item>) {
        let values: Vec<Q::Item> = values.into_iter().collect();
        if values.is_empty() {
            return;
        }
        let home = self.router.home();
        self.shard(home).enqueue_batch(values);
        if self.hinted() {
            self.queue.hints.mark_nonempty(home);
        }
    }

    /// Performs `count` dequeues, following this handle's planned scan
    /// with **one native batch per scanned shard** (so each touched
    /// shard pays one leaf block + one propagation). Values are returned in
    /// consumption order; the vec is padded with `None` to length `count`
    /// once the scan is exhausted.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_shard::{Routing, ShardedUnbounded};
    ///
    /// let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 2, Routing::Nearest);
    /// let mut hs = q.handles();
    /// hs[0].enqueue_batch(vec![1, 2]); // shard 0
    /// hs[1].enqueue_batch(vec![3]); // shard 1
    /// // Handle 0's scan starts at its home and drains shard by shard, in
    /// // each shard's FIFO order, padding with None once every swept
    /// // shard is empty.
    /// assert_eq!(
    ///     hs[0].dequeue_batch(4),
    ///     vec![Some(1), Some(2), Some(3), None]
    /// );
    /// ```
    #[must_use = "dequeued values should be used (None entries mean the swept shards were empty)"]
    pub fn dequeue_batch(&mut self, count: usize) -> Vec<Option<Q::Item>> {
        if count == 0 {
            return Vec::new();
        }
        self.plan_scan();
        let hinted = self.hinted();
        let mut out: Vec<Option<Q::Item>> = Vec::with_capacity(count);
        for k in 0..self.router.scan().len() {
            if out.len() == count {
                break;
            }
            let s = self.router.scan()[k];
            let responses = self.shard(s).dequeue_batch(count - out.len());
            // A batch's dequeues are contiguous in its shard's
            // linearization, so responses are a Some-prefix followed by
            // Nones; keep only the values and let the next shard of the
            // scan serve the remainder.
            out.extend(responses.into_iter().flatten().map(Some));
            // The shard ran dry iff it could not fill the remainder.
            if hinted && out.len() < count {
                self.queue.hints.mark_empty(s);
            }
        }
        out.resize_with(count, || None);
        out
    }

    /// Dequeues (scanning per the routing policy) until a scan comes back
    /// empty, yielding each value. Lazy, like the underlying queues'
    /// `drain`.
    pub fn drain<'a>(&'a mut self) -> impl Iterator<Item = Q::Item> + use<'a, 'q, Q> {
        std::iter::from_fn(move || self.dequeue())
    }
}

/// The composite handle is itself a [`ShardHandle`], so code written
/// against one shard's handle also drives a whole [`ShardedQueue`].
impl<Q: Shard> ShardHandle for ShardedHandle<'_, Q> {
    type Item = Q::Item;

    fn enqueue(&mut self, value: Q::Item) {
        ShardedHandle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<Q::Item> {
        ShardedHandle::dequeue(self)
    }

    fn enqueue_batch(&mut self, values: Vec<Q::Item>) {
        ShardedHandle::enqueue_batch(self, values);
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<Q::Item>> {
        ShardedHandle::dequeue_batch(self, count)
    }
}

impl<Q: Shard> fmt::Debug for ShardedHandle<'_, Q> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let touched: Vec<usize> = self
            .inner
            .iter()
            .enumerate()
            .filter_map(|(s, h)| h.is_some().then_some(s))
            .collect();
        f.debug_struct("ShardedHandle")
            .field("index", &self.router.handle_index())
            .field("home", &self.router.home())
            .field("routing", &self.queue.routing)
            .field("touched_shards", &touched)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every Routing variant, for exhaustive little loops.
    const ALL: [Routing; 2] = [Routing::PerProducer, Routing::Nearest];

    #[test]
    fn shard_capacity_per_policy() {
        // 8 handles over 3 shards: pinned counts 3, 3, 2.
        assert_eq!(Routing::PerProducer.shard_capacity(8, 3, 0), 3);
        assert_eq!(Routing::PerProducer.shard_capacity(8, 3, 1), 3);
        assert_eq!(Routing::PerProducer.shard_capacity(8, 3, 2), 2);
        // The full scan may register every handle everywhere.
        assert_eq!(Routing::Nearest.shard_capacity(8, 3, 1), 8);
        // Never zero, even for shards no handle pins to.
        assert_eq!(Routing::PerProducer.shard_capacity(2, 4, 3), 1);
    }

    #[test]
    fn round_trip_all_policies_unbounded() {
        for routing in ALL {
            for shards in [1usize, 2, 3] {
                let q: ShardedUnbounded<u64> = ShardedUnbounded::new(shards, 2, routing);
                let mut h = q.try_handle().unwrap();
                for v in 0..10 {
                    h.enqueue(v);
                }
                // One producer's values all live on its home shard, so a
                // single handle sees them in FIFO order under both
                // policies.
                let got: Vec<u64> = h.drain().collect();
                assert_eq!(got, (0..10).collect::<Vec<_>>(), "{routing:?} S={shards}");
                assert_eq!(h.dequeue(), None);
            }
        }
    }

    #[test]
    fn round_trip_bounded_shards() {
        let q: ShardedBounded<u64> = ShardedQueue::build(2, 2, Routing::Nearest, |cap| {
            bounded::Queue::with_gc_period(cap, 4)
        });
        let mut h = q.try_handle().unwrap();
        h.enqueue_batch(vec![1, 2, 3]);
        let got: Vec<u64> = h.drain().collect();
        assert_eq!(got, vec![1, 2, 3], "one producer pinned to one shard");
        assert_eq!(q.approx_len(), 0);
    }

    #[test]
    fn per_producer_pins_and_registers_one_shard() {
        let q: ShardedUnbounded<u64> = ShardedUnbounded::new(4, 4, Routing::PerProducer);
        let mut handles = q.handles();
        assert_eq!(handles.len(), 4);
        for (i, h) in handles.iter_mut().enumerate() {
            h.enqueue(i as u64);
        }
        // Each shard got exactly one producer's value.
        for (s, shard) in q.shards().iter().enumerate() {
            assert_eq!(shard.approx_len(), 1, "shard {s}");
        }
        // Each handle dequeues its own shard only.
        for (i, h) in handles.iter_mut().enumerate() {
            assert_eq!(h.dequeue(), Some(i as u64));
            assert_eq!(h.dequeue(), None);
        }
    }

    #[test]
    fn nearest_scan_reaches_every_shard() {
        let q: ShardedUnbounded<u64> = ShardedUnbounded::new(3, 3, Routing::Nearest);
        let mut handles = q.handles();
        for (i, h) in handles.iter_mut().enumerate() {
            h.enqueue(i as u64);
        }
        // One consumer finds all three values despite two living on
        // non-home shards (the fallback pass covers hinted-empty shards
        // too, so nothing is ever stranded).
        let mut got: Vec<u64> = handles[0].drain().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        // All probes came back empty at the end, so every hint is lowered.
        for s in 0..3 {
            assert!(!q.hints().maybe_nonempty(s), "hint {s} still raised");
        }
        // A fresh enqueue re-raises its shard's hint.
        handles[1].enqueue(9);
        assert!(q.hints().maybe_nonempty(handles[1].home_shard()));
    }

    #[test]
    fn nearest_prefers_home_shard_first() {
        let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 2, Routing::Nearest);
        let mut handles = q.handles();
        let (a, b) = handles.split_at_mut(1);
        let (h0, h1) = (&mut a[0], &mut b[0]);
        h0.enqueue(10);
        h1.enqueue(11);
        // Each consumer's scan starts at its own home: it drains its own
        // value first even though both shards are hinted nonempty.
        assert_eq!(h0.dequeue(), Some(10));
        assert_eq!(h1.dequeue(), Some(11));
    }

    #[test]
    fn batches_route_whole_batches_to_one_shard() {
        let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 2, Routing::Nearest);
        let mut handles = q.handles();
        handles[0].enqueue_batch(vec![1, 2, 3]); // home shard 0
        handles[1].enqueue_batch(vec![4, 5]); // home shard 1
        assert_eq!(q.shards()[0].approx_len(), 3);
        assert_eq!(q.shards()[1].approx_len(), 2);
        // A scanning batch dequeue drains shard by shard, in shard FIFO
        // order, padding with None once everything is consumed.
        assert_eq!(
            handles[0].dequeue_batch(6),
            vec![Some(1), Some(2), Some(3), Some(4), Some(5), None]
        );
        handles[0].enqueue_batch(Vec::new()); // no-op
        assert_eq!(q.approx_len(), 0);
    }

    #[test]
    fn nearest_batches_round_trip() {
        let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 2, Routing::Nearest);
        let mut handles = q.handles();
        handles[0].enqueue_batch(vec![1, 2]); // home shard 0
        handles[1].enqueue_batch(vec![3, 4]); // home shard 1
                                              // Handle 0's scan starts at its home: its own batch drains first.
        assert_eq!(
            handles[0].dequeue_batch(5),
            vec![Some(1), Some(2), Some(3), Some(4), None]
        );
    }

    #[test]
    fn reclaiming_shards_truncate_independently() {
        let q: ShardedUnbounded<u64> = ShardedQueue::build(2, 2, Routing::PerProducer, |cap| {
            unbounded::Queue::with_reclaim(cap, ReclaimPolicy::EveryKRootBlocks(8))
        });
        let mut handles = q.handles();
        for round in 0..500u64 {
            for h in &mut handles {
                h.enqueue(round);
                assert_eq!(h.dequeue(), Some(round));
            }
        }
        for (s, shard) in q.shards().iter().enumerate() {
            let stats = shard.reclaim_stats();
            assert!(stats.truncations > 0, "shard {s} never truncated");
            assert!(
                wfqueue::unbounded::introspect::total_blocks(shard) < 200,
                "shard {s} retained its whole history"
            );
            wfqueue::unbounded::introspect::check_invariants(shard).unwrap();
        }
    }

    #[test]
    fn handle_capacity_is_capped() {
        let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 3, Routing::Nearest);
        let handles = q.handles();
        assert_eq!(handles.len(), 3);
        assert!(q.try_handle().is_none());
        assert!(q.try_handle().is_none(), "exhaustion is stable");
    }

    #[test]
    #[should_panic(expected = "requires")]
    fn under_capacity_shards_are_rejected_up_front() {
        // 2 handles scanning over shards of capacity 1: rejected at
        // construction, not at first lazy registration.
        let shards = vec![unbounded::Queue::<u64>::new(1), unbounded::Queue::new(1)];
        let _ = ShardedQueue::with_shards(shards, 2, Routing::Nearest);
    }

    #[test]
    fn with_shards_accepts_exactly_sized_pinned_shards() {
        let shards = vec![unbounded::Queue::<u64>::new(2), unbounded::Queue::new(1)];
        let q = ShardedQueue::with_shards(shards, 3, Routing::PerProducer);
        let mut handles = q.handles();
        assert_eq!(handles.len(), 3);
        for h in &mut handles {
            h.enqueue(h.handle_index() as u64);
        }
        assert_eq!(q.approx_len(), 3);
    }

    #[test]
    fn s1_behaves_like_inner_queue() {
        for routing in ALL {
            let q: ShardedUnbounded<u64> = ShardedUnbounded::new(1, 2, routing);
            let mut h = q.try_handle().unwrap();
            h.enqueue(1);
            h.enqueue_batch(vec![2, 3]);
            assert_eq!(h.dequeue(), Some(1));
            assert_eq!(h.dequeue_batch(3), vec![Some(2), Some(3), None]);
            assert_eq!(h.dequeue(), None);
        }
    }

    #[test]
    fn routing_accessor_reports_configuration() {
        for routing in ALL {
            let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 2, routing);
            assert_eq!(q.routing(), routing);
            assert!(format!("{q:?}").contains(&format!("{routing:?}")));
        }
    }

    #[test]
    fn legacy_policies_record_no_hint_steps() {
        // PerProducer never touches the hints: its step counts are
        // asserted against a frozen reference in tests/legacy_parity.rs;
        // here we pin the mechanism (no hint loads/stores outside
        // Nearest).
        let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 1, Routing::PerProducer);
        let mut h = q.try_handle().unwrap();
        h.enqueue(1);
        let hints_before = format!("{:?}", q.hints());
        let _ = h.dequeue();
        let _ = h.dequeue();
        assert_eq!(format!("{:?}", q.hints()), hints_before);
    }
}

/// End-to-end checks of placement as it stands without a hardware layer:
/// handle `i` is homed on shard `i % S`, and a `Nearest` handle drains the
/// shards in cyclic order from its home. `policy`'s scan test checks the
/// planner itself for every shard count and hint set; these drive the same
/// rules through the public constructors and handles.
#[cfg(test)]
mod placement {
    mod tests {
        use crate::{
            bounded, unbounded, Routing, Shard, ShardedBounded, ShardedQueue, ShardedUnbounded,
        };

        /// Has the first `S` handles each enqueue their own home shard's
        /// index, then drains everything through handle `consumer`.
        fn drain_order<Q: Shard<Item = u64>>(q: &ShardedQueue<Q>, consumer: usize) -> Vec<u64> {
            let mut handles = q.handles();
            for (i, h) in handles.iter_mut().take(q.num_shards()).enumerate() {
                assert_eq!(h.home_shard(), i);
                h.enqueue(i as u64);
            }
            handles[consumer].drain().collect()
        }

        #[test]
        fn flat_scan_order_is_cyclic() {
            // Handle `home + 4` shares shard `home` with handle `home`.
            for home in 0..4 {
                let q: ShardedUnbounded<u64> = ShardedUnbounded::new(4, 8, Routing::Nearest);
                let cyclic: Vec<u64> = (0..4).map(|k| (home + k) % 4).collect();
                assert_eq!(drain_order(&q, home as usize + 4), cyclic, "home={home}");
            }
        }

        #[test]
        fn config_resolution() {
            // With no placement to configure, every constructor gives the
            // same home-first cyclic scan: from home 1 over 3 shards,
            // shards 1, 2, 0.
            let expected = vec![1, 2, 0];
            let q: ShardedUnbounded<u64> = ShardedUnbounded::new(3, 3, Routing::Nearest);
            assert_eq!(drain_order(&q, 1), expected, "ShardedUnbounded::new");
            let q: ShardedBounded<u64> = ShardedBounded::new(3, 3, Routing::Nearest);
            assert_eq!(drain_order(&q, 1), expected, "ShardedBounded::new");
            let q = ShardedQueue::build(3, 3, Routing::Nearest, |cap| {
                bounded::Queue::<u64>::with_gc_period(cap, 4)
            });
            assert_eq!(drain_order(&q, 1), expected, "build");
            let shards = (0..3).map(|_| unbounded::Queue::<u64>::new(3)).collect();
            let q = ShardedQueue::with_shards(shards, 3, Routing::Nearest);
            assert_eq!(drain_order(&q, 1), expected, "with_shards");
        }

        #[test]
        fn home_for_matches_legacy_pin() {
            for routing in [Routing::PerProducer, Routing::Nearest] {
                let q: ShardedUnbounded<u64> = ShardedUnbounded::new(3, 9, routing);
                let mut handles = q.handles();
                for (i, h) in handles.iter_mut().enumerate() {
                    assert_eq!(h.home_shard(), i % 3, "{routing:?}");
                    let before = q.shards()[i % 3].approx_len();
                    h.enqueue(i as u64);
                    assert_eq!(
                        q.shards()[i % 3].approx_len(),
                        before + 1,
                        "{routing:?} i={i}"
                    );
                }
            }
        }
    }
}
