//! The unbounded-space wait-free queue (Figure 4 of the paper).

use std::fmt;
use wfqueue_sync::atomic::{AtomicUsize, Ordering};

use wfqueue_metrics as metrics;

use super::block::{InnerBlock, LeafBlock};
use super::node::{Node, NodeRef};
use super::reclaim::{ReclaimPolicy, ReclaimState, ReclaimStats};
use crate::topology::Topology;

/// The unbounded-space wait-free queue of Naderibeni & Ruppert (§3–§5).
///
/// Created with a fixed maximum number of processes `p`; each process
/// obtains a [`Handle`] bound to its own leaf of the ordering tree and
/// performs operations through it. Enqueues take `O(log p)` shared-memory
/// steps; dequeues take `O(log² p + log q)` steps; every operation performs
/// `O(log p)` CAS instructions (Proposition 19, Theorem 22). Batched
/// operations ([`Handle::enqueue_batch`], [`Handle::dequeue_batch`]) append
/// one leaf block per batch, amortizing the whole `O(log p)` propagation
/// (and its CAS budget) over the `k` operations of the batch.
///
/// By default this variant never reclaims blocks — memory grows with the
/// number of operations, exactly as in §3 of the paper (space bounding is
/// what [`crate::bounded::Queue`] adds), and all memory is released when the
/// queue is dropped. [`Queue::with_reclaim`] opts in to epoch-based tree
/// truncation (see [`crate::unbounded::reclaim`]), which keeps live memory
/// proportional to the queue's contents instead of its history while
/// leaving the `ReclaimPolicy::Off` operation path byte-for-byte identical
/// to the paper's.
///
/// # Examples
///
/// ```
/// let q: wfqueue::unbounded::Queue<&str> = wfqueue::unbounded::Queue::new(1);
/// let mut h = q.register().expect("one handle available");
/// h.enqueue("a");
/// h.enqueue("b");
/// assert_eq!(h.dequeue(), Some("a"));
/// assert_eq!(h.dequeue(), Some("b"));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct Queue<T> {
    topo: Topology,
    /// The root and the other internal nodes, at tree positions
    /// `1..leaf_slots`: position `v` is at index `v - 1`.
    inner: Vec<Node<InnerBlock>>,
    /// The leaves, at tree positions `leaf_slots..2·leaf_slots`: position
    /// `v` is at index `v - leaf_slots`.
    leaves: Vec<Node<LeafBlock<T>>>,
    next_pid: AtomicUsize,
    /// Reclamation policy + hazard state (quiescent when the policy is
    /// [`ReclaimPolicy::Off`]).
    reclaim: ReclaimState,
}

impl<T: Clone + Send + Sync> Queue<T> {
    /// Creates a queue for at most `num_processes` concurrent processes.
    ///
    /// The queue never reclaims ordering-tree blocks
    /// ([`ReclaimPolicy::Off`]), exactly as in §3 of the paper; see
    /// [`Queue::with_reclaim`] for the memory-stable variant.
    ///
    /// # Panics
    ///
    /// Panics if `num_processes` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue::unbounded::Queue;
    ///
    /// let q: Queue<u32> = Queue::new(4);
    /// assert_eq!(q.num_processes(), 4);
    /// assert_eq!(q.handles().len(), 4);
    /// ```
    #[must_use]
    pub fn new(num_processes: usize) -> Self {
        Self::build(num_processes, ReclaimPolicy::Off)
    }

    /// Creates a queue with an explicit [`ReclaimPolicy`].
    ///
    /// With [`ReclaimPolicy::EveryKRootBlocks`] the queue periodically
    /// truncates dead ordering-tree prefixes (see
    /// [`crate::unbounded::reclaim`]), so live memory tracks the queue's
    /// contents instead of its operation history. `T: 'static` is required
    /// because truncated blocks are destroyed *after* the truncating call
    /// returns, once all concurrent readers have unpinned.
    ///
    /// # Panics
    ///
    /// Panics if `num_processes` is zero, or if the policy's period is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue::unbounded::{Queue, ReclaimPolicy};
    ///
    /// let q: Queue<u64> = Queue::with_reclaim(2, ReclaimPolicy::EveryKRootBlocks(64));
    /// let mut h = q.register().unwrap();
    /// h.enqueue(1);
    /// assert_eq!(h.dequeue(), Some(1));
    /// ```
    #[must_use]
    pub fn with_reclaim(num_processes: usize, policy: ReclaimPolicy) -> Self
    where
        T: 'static,
    {
        Self::build(num_processes, policy)
    }

    fn build(num_processes: usize, policy: ReclaimPolicy) -> Self {
        let topo = Topology::new(num_processes);
        let slots = topo.leaf_slots();
        Queue {
            topo,
            inner: (1..slots).map(|_| Node::new()).collect(),
            leaves: (0..slots).map(|_| Node::new()).collect(),
            next_pid: AtomicUsize::new(0),
            reclaim: ReclaimState::new(policy, num_processes),
        }
    }

    /// The number of processes this queue was created for.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.topo.num_processes()
    }

    /// This queue's reclamation policy ([`ReclaimPolicy::Off`] unless built
    /// with [`Queue::with_reclaim`]).
    #[must_use]
    pub fn reclaim_policy(&self) -> ReclaimPolicy {
        self.reclaim.policy()
    }

    /// Cumulative reclamation counters (all zero under
    /// [`ReclaimPolicy::Off`]).
    #[must_use]
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.reclaim.stats()
    }

    pub(crate) fn reclaim(&self) -> &ReclaimState {
        &self.reclaim
    }

    /// An epoch pin for read-only scans (`approx_len`, introspection) on a
    /// reclamation-enabled queue; `None` — and free — when reclamation is
    /// off, since then no block is ever unlinked.
    pub(crate) fn read_guard(&self) -> Option<crossbeam_epoch::Guard> {
        self.reclaim.enabled().then(crossbeam_epoch::pin)
    }

    /// The queue's size after the last operation propagated to the root —
    /// the `size` field of the newest root block (Lemma 16).
    ///
    /// Precisely: the returned value is the `size` of a root block that was
    /// the *newest installed* root block at some instant during this call
    /// (the scan below starts from `head - 1` — clamped to the truncation
    /// boundary, and retried if the truncator unlinked the start slot
    /// between the reads — and walks forward past every block installed
    /// since `head` was read; root `size` survives truncation because
    /// summary sentinels preserve it). This is exact at quiescence and
    /// otherwise a recent-past snapshot (operations still propagating are
    /// not yet counted), which is the strongest "length" any linearizable
    /// queue can offer concurrently. The cost is three shared loads at
    /// quiescence plus one load per root block installed (or truncation
    /// racing the call) concurrently with the call — this is an
    /// introspection helper, not one of the wait-free queue operations, and
    /// its step count is bounded by other processes' progress during the
    /// call.
    ///
    /// # Examples
    ///
    /// ```
    /// let q = wfqueue::unbounded::Queue::new(1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue(1);
    /// h.enqueue(2);
    /// assert_eq!(q.approx_len(), 2);
    /// ```
    #[must_use]
    pub fn approx_len(&self) -> usize {
        // Pinned only on reclamation-enabled queues: references obtained
        // below stay valid even if the truncator unlinks their blocks while
        // we hold them (replaced/unlinked blocks are epoch-deferred, and
        // summary replacements are scalar-identical anyway).
        let _guard = self.read_guard();
        let node = self.root_node();
        loop {
            // `head` may lag arbitrarily many installs behind by the time
            // we probe (reading `head` and probing `blocks` are two
            // separate shared accesses), so scan forward to the newest
            // installed block instead of probing `blocks[head]` alone.
            // Truncation adds the opposite race: `approx_len` publishes no
            // hazard index, so by the time we probe, the truncator may have
            // *unlinked* the slot our stale `head` snapshot points at.
            // Clamp the start to the boundary and retry if the start slot
            // vanished between the reads (the boundary has then advanced,
            // so the retry makes progress); with reclamation off the clamp
            // is a no-op and the start slot is installed by Invariant 3.
            let start = (node.head() - 1).max(node.boundary());
            let Some(mut blk) = node.block(start) else {
                continue;
            };
            let mut i = start;
            while let Some(next) = node.block(i + 1) {
                blk = next;
                i += 1;
            }
            return blk.size();
        }
    }

    /// Registers the calling context as the next process, returning its
    /// handle, or `None` if all `num_processes` handles have been taken.
    ///
    /// Registration is capped: once all handles are taken, further calls
    /// return `None` without mutating the registration counter (a plain
    /// `fetch_add` would keep climbing, over-reporting `Debug`'s
    /// `registered` field and — theoretically, after a wrap — re-issuing
    /// pid 0).
    ///
    /// # Examples
    ///
    /// ```
    /// let q = wfqueue::unbounded::Queue::<u8>::new(1);
    /// let h = q.register().unwrap();
    /// assert_eq!(h.process_id(), 0);
    /// assert!(q.register().is_none(), "capacity is capped");
    /// ```
    pub fn register(&self) -> Option<Handle<'_, T>> {
        let cap = self.topo.num_processes();
        let mut pid = self.next_pid.load(Ordering::Relaxed);
        loop {
            if pid >= cap {
                return None;
            }
            match self.next_pid.compare_exchange_weak(
                pid,
                pid + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Handle { queue: self, pid }),
                Err(current) => pid = current,
            }
        }
    }

    /// Returns all remaining handles (convenient with scoped threads).
    ///
    /// # Examples
    ///
    /// ```
    /// let q = wfqueue::unbounded::Queue::<u8>::new(3);
    /// let _first = q.register().unwrap();
    /// assert_eq!(q.handles().len(), 2, "the two not yet registered");
    /// ```
    pub fn handles(&self) -> Vec<Handle<'_, T>> {
        std::iter::from_fn(|| self.register()).collect()
    }

    pub(crate) fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The node at tree position `v`, whichever its kind.
    pub(crate) fn node(&self, v: usize) -> NodeRef<'_, T> {
        if self.topo.is_leaf(v) {
            NodeRef::Leaf(self.leaf_node(v))
        } else {
            NodeRef::Inner(self.inner_node(v))
        }
    }

    /// The internal node at tree position `v`.
    pub(crate) fn inner_node(&self, v: usize) -> &Node<InnerBlock> {
        &self.inner[v - 1]
    }

    /// The leaf at tree position `v`.
    pub(crate) fn leaf_node(&self, v: usize) -> &Node<LeafBlock<T>> {
        &self.leaves[v - self.topo.leaf_slots()]
    }

    /// The root node.
    pub(crate) fn root_node(&self) -> &Node<InnerBlock> {
        self.inner_node(self.topo.root())
    }

    /// `Enqueue(e)` — Figure 4 lines 1–4.
    fn enqueue(&self, pid: usize, element: T) {
        let op = self.begin_op(pid);
        let leaf = self.topo.leaf_of(pid);
        let node = self.leaf_node(leaf);
        let h = node.head();
        let prev = node.block_installed(h - 1, "Invariant 3: blocks[head-1] is installed");
        let block = LeafBlock::enqueue(element, prev.sumenq, prev.sumdeq);
        self.append(leaf, h, block);
        self.end_op(pid, op);
    }

    /// `Dequeue()` — Figure 4 lines 5–10.
    fn dequeue(&self, pid: usize) -> Option<T> {
        let op = self.begin_op(pid);
        let floor = op.as_ref().map_or(0, super::reclaim::OpGuard::floor);
        let leaf = self.topo.leaf_of(pid);
        let node = self.leaf_node(leaf);
        let h = node.head();
        let prev = node.block_installed(h - 1, "Invariant 3: blocks[head-1] is installed");
        let block = LeafBlock::dequeue(prev.sumenq, prev.sumdeq);
        self.append(leaf, h, block);
        let (b, i) = self.index_dequeue(leaf, h, 1);
        let response = self.find_response(b, i, floor);
        self.end_op(pid, op);
        response
    }

    /// Batched enqueue: appends a *single* leaf block carrying all of
    /// `elements`, so one `try_install` and one `Propagate` cover the whole
    /// batch — `O(log p)` shared steps total, i.e. `O(log p / k)` amortized
    /// per enqueue for a batch of `k`. A no-op for an empty batch.
    fn enqueue_batch(&self, pid: usize, elements: Vec<T>) {
        if elements.is_empty() {
            return;
        }
        let op = self.begin_op(pid);
        let leaf = self.topo.leaf_of(pid);
        let node = self.leaf_node(leaf);
        let h = node.head();
        let prev = node.block_installed(h - 1, "Invariant 3: blocks[head-1] is installed");
        let block = LeafBlock::enqueue_batch(elements, prev.sumenq, prev.sumdeq);
        self.append(leaf, h, block);
        self.end_op(pid, op);
    }

    /// Batched dequeue: appends a single leaf block carrying `count`
    /// dequeues, propagates once, then computes all responses with one
    /// `IndexDequeue` followed by `count` successive `FindResponse` calls.
    ///
    /// The whole leaf block becomes a subblock of exactly one superblock per
    /// level (blocks are never split during propagation), so all `count`
    /// dequeues land in the same root block `b` with consecutive ranks
    /// `i, i+1, …` — the propagation and indexing cost `O(log p)` is paid
    /// once for the batch, and each response adds the `O(log q)` search of
    /// Lemma 20 (against the same root block). The responses are in batch
    /// order; `None` marks a dequeue that linearized on an empty queue.
    fn dequeue_batch(&self, pid: usize, count: usize) -> Vec<Option<T>> {
        if count == 0 {
            return Vec::new();
        }
        let op = self.begin_op(pid);
        let floor = op.as_ref().map_or(0, super::reclaim::OpGuard::floor);
        let leaf = self.topo.leaf_of(pid);
        let node = self.leaf_node(leaf);
        let h = node.head();
        let prev = node.block_installed(h - 1, "Invariant 3: blocks[head-1] is installed");
        let block = LeafBlock::dequeue_batch(count, prev.sumenq, prev.sumdeq);
        self.append(leaf, h, block);
        let (b, i) = self.index_dequeue(leaf, h, 1);
        let responses = (0..count)
            .map(|j| self.find_response(b, i + j, floor))
            .collect();
        self.end_op(pid, op);
        responses
    }

    /// `Append(B)` — Figure 4 lines 11–15.
    ///
    /// One deliberate elaboration of the pseudocode: the paper's line 13
    /// (`leaf.head := leaf.head + 1`) is performed here as a full
    /// `Advance(leaf, h)`, i.e. we also set the new block's `super` field
    /// before advancing `head`. This matches the proof obligations of
    /// Invariant 3 ("`head` can only be incremented by line 63 of `Advance`")
    /// and Lemma 12, which require every block below `head` to have its
    /// `super` set; a bare increment at the leaf would leave `super` unset
    /// whenever no concurrent `Refresh` happens to observe the block first,
    /// and `IndexDequeue` (line 72) reads `super` at the leaf level.
    fn append(&self, leaf: usize, h: usize, block: LeafBlock<T>) {
        metrics::record_block_alloc();
        self.leaf_node(leaf)
            .blocks
            .try_install(h, Box::new(block))
            .ok()
            .expect("leaf blocks have a single writer (the owning process)");
        self.advance(leaf, h);
        self.propagate(self.topo.parent(leaf));
    }

    /// `Propagate(v)` — Figure 4 lines 16–23 (iterative up the tree).
    fn propagate(&self, v: usize) {
        let mut v = v;
        loop {
            if !self.refresh(v) {
                // Double refresh: if the second also fails, some concurrent
                // Refresh already propagated everything we needed (Lemma 10).
                self.refresh(v);
            }
            if v == self.topo.root() {
                return;
            }
            v = self.topo.parent(v);
        }
    }

    /// `Refresh(v)` — Figure 4 lines 24–39. Returns whether the CAS
    /// installed our block (or there was nothing to propagate).
    fn refresh(&self, v: usize) -> bool {
        let node = self.inner_node(v);
        let h = node.head();
        // Help children catch up so CreateBlock sees their latest blocks
        // (lines 26–31).
        for child in [self.topo.left(v), self.topo.right(v)] {
            let child_head = self.node(child).head();
            if self.node(child).block(child_head).is_some() {
                self.advance(child, child_head);
            }
        }
        match self.create_block(v, h) {
            // Nothing to propagate (line 33).
            None => true,
            Some(block) => {
                metrics::record_block_alloc();
                // Same read-to-CAS window as every CAS loop; under the
                // adversarial scheduler this yield maximises lost CASes —
                // unlike a retry loop, a loss here never costs more than the
                // second Refresh (Lemma 10).
                metrics::adversary_yield();
                let installed = node.blocks.try_install(h, Box::new(block)).is_ok();
                self.advance(v, h);
                installed
            }
        }
    }

    /// `CreateBlock(v, i)` — Figure 4 lines 40–57. Returns `None` if the
    /// children contain no new operations.
    fn create_block(&self, v: usize, i: usize) -> Option<InnerBlock> {
        let left = self.node(self.topo.left(v));
        let right = self.node(self.topo.right(v));
        let endleft = left.head() - 1;
        let endright = right.head() - 1;
        let lsum = left.block_installed(endleft, "Invariant 3: blocks[head-1] is installed");
        let rsum = right.block_installed(endright, "Invariant 3: blocks[head-1] is installed");
        let sumenq = lsum.sumenq + rsum.sumenq;
        let sumdeq = lsum.sumdeq + rsum.sumdeq;
        let prev = self.inner_node(v).block_installed(
            i - 1,
            "Invariant 3: blocks[h-1] was installed when h was read",
        );
        // Counts of operations the new block would propagate (lines 47–48);
        // prefix sums are monotone (Lemma 4 + Invariant 7) so these cannot
        // underflow.
        let numenq = sumenq - prev.sumenq;
        let numdeq = sumdeq - prev.sumdeq;
        if numenq + numdeq == 0 {
            return None;
        }
        let size = if v == self.topo.root() {
            // size := max(0, prev.size + numenq − numdeq) (line 50).
            (prev.size() + numenq).saturating_sub(numdeq)
        } else {
            0
        };
        Some(InnerBlock::new(sumenq, sumdeq, endleft, endright, size))
    }

    /// `Advance(v, h)` — Figure 4 lines 58–64: set `blocks[h].super` from
    /// the parent's `head`, then advance `v.head` from `h` to `h + 1`.
    fn advance(&self, v: usize, h: usize) {
        if v != self.topo.root() {
            let parent_head = self.inner_node(self.topo.parent(v)).head();
            let block = self
                .node(v)
                .block_installed(h, "Advance is only called once blocks[h] is installed");
            block.try_set_sup(parent_head);
        }
        self.node(v).try_advance_head(h);
    }
}

impl<T: Clone + Send + Sync> fmt::Debug for Queue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("unbounded::Queue")
            .field("num_processes", &self.topo.num_processes())
            .field("registered", &self.next_pid.load(Ordering::Relaxed))
            .field("root_head", &self.root_node().head())
            .field("reclaim", &self.reclaim.policy())
            .finish()
    }
}

/// A per-process handle to an [`unbounded::Queue`](Queue).
///
/// Each handle owns one leaf of the ordering tree; operations take
/// `&mut self`, which enforces the paper's model of one pending operation
/// per process. Handles are `Send`, so they can be moved into threads.
///
/// # Examples
///
/// ```
/// let q = wfqueue::unbounded::Queue::new(2);
/// let mut h = q.register().unwrap();
/// h.enqueue(7u32);
/// assert_eq!(h.dequeue(), Some(7));
/// ```
pub struct Handle<'q, T> {
    queue: &'q Queue<T>,
    pid: usize,
}

impl<'q, T: Clone + Send + Sync> Handle<'q, T> {
    /// Appends `value` to the back of the queue (`O(log p)` steps).
    ///
    /// # Examples
    ///
    /// ```
    /// let q = wfqueue::unbounded::Queue::new(1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue("first");
    /// h.enqueue("second");
    /// assert_eq!(q.approx_len(), 2);
    /// ```
    pub fn enqueue(&mut self, value: T) {
        self.queue.enqueue(self.pid, value);
    }

    /// Removes and returns the front value, or `None` if the queue is empty
    /// at the dequeue's linearization point (`O(log² p + log q)` steps).
    ///
    /// # Examples
    ///
    /// ```
    /// let q = wfqueue::unbounded::Queue::new(1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue(1);
    /// assert_eq!(h.dequeue(), Some(1));
    /// assert_eq!(h.dequeue(), None, "empty at the linearization point");
    /// ```
    #[must_use = "a dequeued value should be used (None means the queue was empty)"]
    pub fn dequeue(&mut self) -> Option<T> {
        self.queue.dequeue(self.pid)
    }

    /// Enqueues every value of `values` as **one atomic batch**: a single
    /// leaf block carries the whole batch, so the values appear contiguously
    /// in the linearization (no other process's operation interleaves
    /// between them) and the `O(log p)` propagation cost is paid once —
    /// `O(log p / k)` amortized shared steps per enqueue for a batch of `k`.
    ///
    /// A batch of one is behaviourally identical to [`Handle::enqueue`]
    /// (same blocks, same CAS count); an empty batch is a no-op.
    ///
    /// # Examples
    ///
    /// ```
    /// let q = wfqueue::unbounded::Queue::new(1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue_batch([1, 2, 3]);
    /// assert_eq!(h.dequeue_batch(4), vec![Some(1), Some(2), Some(3), None]);
    /// ```
    pub fn enqueue_batch(&mut self, values: impl IntoIterator<Item = T>) {
        self.queue
            .enqueue_batch(self.pid, values.into_iter().collect());
    }

    /// Performs `count` dequeues as **one atomic batch** and returns their
    /// responses in order (`None` entries are dequeues that linearized on an
    /// empty queue).
    ///
    /// The batch appends a single leaf block and propagates once, then
    /// resolves every response against the same root block: the batch costs
    /// `O(log² p + k·log q)` shared steps instead of `k` times the full
    /// per-dequeue bound. A batch of one is behaviourally identical to
    /// [`Handle::dequeue`]; a batch of zero returns an empty vec.
    ///
    /// # Examples
    ///
    /// ```
    /// let q = wfqueue::unbounded::Queue::new(1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue(10);
    /// h.enqueue(20);
    /// // The batch's dequeues linearize contiguously; the trailing None
    /// // witnesses the queue was empty at the third dequeue.
    /// assert_eq!(h.dequeue_batch(3), vec![Some(10), Some(20), None]);
    /// assert_eq!(h.dequeue_batch(0), vec![]);
    /// ```
    #[must_use = "dequeued values should be used (None entries mean the queue was empty)"]
    pub fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        self.queue.dequeue_batch(self.pid, count)
    }

    /// Dequeues until the queue reports empty, yielding each value.
    ///
    /// The iterator is lazy: values are removed as it is advanced. Other
    /// processes may enqueue concurrently, so `drain` ending only means the
    /// queue *was* empty at that dequeue's linearization point.
    ///
    /// # Examples
    ///
    /// ```
    /// let q = wfqueue::unbounded::Queue::new(1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue(1);
    /// h.enqueue(2);
    /// assert_eq!(h.drain().collect::<Vec<_>>(), vec![1, 2]);
    /// ```
    pub fn drain<'a>(&'a mut self) -> impl Iterator<Item = T> + use<'a, 'q, T> {
        std::iter::from_fn(move || self.dequeue())
    }

    /// This handle's process id (`0..num_processes`).
    #[must_use]
    pub fn process_id(&self) -> usize {
        self.pid
    }

    /// The queue this handle belongs to.
    #[must_use]
    pub fn queue(&self) -> &'q Queue<T> {
        self.queue
    }
}

impl<T> fmt::Debug for Handle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("unbounded::Handle")
            .field("pid", &self.pid)
            .finish()
    }
}
