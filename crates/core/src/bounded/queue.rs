//! The bounded-space wait-free queue (Figures 5–6 of the paper).

use std::fmt;
use wfqueue_sync::atomic::{AtomicUsize, Ordering};

use crossbeam_epoch as epoch;
use crossbeam_utils::CachePadded;
use wfqueue_metrics as metrics;

use super::block::{Block, LeafOp};
use super::node::{BlockTree, Node};
use super::search::Discarded;
use crate::topology::Topology;

/// `⌈log₂ p⌉`, with a minimum of 1.
fn ceil_log2(p: usize) -> usize {
    (usize::BITS - (p.max(2) - 1).leading_zeros()) as usize
}

/// The bounded-space wait-free queue of §6 / Appendix B of the paper.
///
/// Functionally identical to [`crate::unbounded::Queue`], but obsolete
/// blocks are discarded by periodic garbage-collection phases so that the
/// structure holds `O(q_max + p² log p)` blocks per node (Lemma 29; Theorem
/// 31 overall) while operations keep an amortized
/// `O(log p · log(p + q_max))` step complexity (Theorem 32).
///
/// A GC phase runs every `G` block insertions at a node. The paper picks
/// `G = p²⌈log₂ p⌉` for the `p` processes that access the queue;
/// [`Queue::new`] sizes `p` by the handles registered so far, capped at the
/// paper's `G` once all of them are (see [`Queue::new`]). Tests can shrink
/// the period with [`Queue::with_gc_period`] to exercise the discard paths
/// constantly.
///
/// # Examples
///
/// ```
/// let q: wfqueue::bounded::Queue<u32> = wfqueue::bounded::Queue::new(2);
/// let mut h = q.register().unwrap();
/// h.enqueue(1);
/// assert_eq!(h.dequeue(), Some(1));
/// assert_eq!(h.dequeue(), None);
/// ```
pub struct Queue<T: Clone + Send + Sync> {
    topo: Topology,
    nodes: Vec<Node<T>>,
    /// `last[k]`: largest root-block index process `k` observed to contain a
    /// null dequeue or an enqueue whose element was dequeued (Appendix B).
    /// Written only by process `k`.
    last: Vec<CachePadded<AtomicUsize>>,
    /// The period set by [`Queue::with_gc_period`]; `None` for
    /// [`Queue::new`]'s period that follows the registered handles.
    fixed_gc_period: Option<usize>,
    next_pid: AtomicUsize,
}

impl<T: Clone + Send + Sync> Queue<T> {
    /// Creates a queue for at most `num_processes` processes whose GC
    /// period follows the handles registered so far.
    ///
    /// With `r` handles registered, a GC phase runs every
    /// `G(r) = min(max(r, 2), p)²⌈log₂ p⌉` block insertions at a node. Once
    /// all `p` handles are registered this is the paper's `G = p²⌈log₂ p⌉`;
    /// before that, the backlog a node keeps between phases is sized by
    /// the processes that can actually use the queue, not by its budget.
    /// The floor of two keeps a single-handle queue from collecting every
    /// `⌈log₂ p⌉` insertions. Any period keeps the queue correct, and
    /// `G(r) ≤ G(p)` keeps the Theorem 31 space bound (DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics if `num_processes` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue::bounded::Queue;
    ///
    /// let q: Queue<u32> = Queue::new(4);
    /// assert_eq!(q.num_processes(), 4);
    /// assert_eq!(q.gc_period(), 2 * 2 * 2, "no handle yet: G(2)");
    /// let handles = q.handles();
    /// assert_eq!(handles.len(), 4);
    /// assert_eq!(q.gc_period(), 4 * 4 * 2, "all registered: G = p²⌈log₂ p⌉");
    /// ```
    #[must_use]
    pub fn new(num_processes: usize) -> Self {
        Self::build(num_processes, None)
    }

    /// Creates a queue with an explicit GC period (must be ≥ 1). Smaller
    /// periods reclaim more eagerly at higher amortized cost; `1` runs a GC
    /// phase on every block insertion (useful in tests).
    ///
    /// # Panics
    ///
    /// Panics if `num_processes` or `gc_period` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue::bounded::Queue;
    ///
    /// // GC after every block insertion — maximal space pressure.
    /// let q: Queue<u32> = Queue::with_gc_period(2, 1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue(1);
    /// assert_eq!(h.dequeue(), Some(1));
    /// ```
    #[must_use]
    pub fn with_gc_period(num_processes: usize, gc_period: usize) -> Self {
        assert!(gc_period > 0, "gc_period must be at least 1");
        Self::build(num_processes, Some(gc_period))
    }

    fn build(num_processes: usize, fixed_gc_period: Option<usize>) -> Self {
        let topo = Topology::new(num_processes);
        let nodes = (0..topo.len()).map(|_| Node::new()).collect();
        let last = (0..num_processes)
            .map(|_| CachePadded::new(AtomicUsize::new(0)))
            .collect();
        Queue {
            topo,
            nodes,
            last,
            fixed_gc_period,
            next_pid: AtomicUsize::new(0),
        }
    }

    /// The number of processes this queue was created for.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.topo.num_processes()
    }

    /// The GC period `G` in force now: the fixed period of
    /// [`Queue::with_gc_period`], or `G(r)` for the `r` handles registered
    /// so far (see [`Queue::new`]).
    #[must_use]
    pub fn gc_period(&self) -> usize {
        self.fixed_gc_period
            .unwrap_or_else(|| self.registered_period(self.next_pid.load(Ordering::Relaxed)))
    }

    /// `G(r) = min(max(r, 2), p)²⌈log₂ p⌉` for `r` registered handles.
    fn registered_period(&self, r: usize) -> usize {
        let p = self.topo.num_processes();
        let r = r.max(2).min(p);
        r * r * ceil_log2(p)
    }

    /// Reads the number of handles registered so far (one shared step).
    /// The GC scans of `SplitBlock` and `Help` cover only these processes.
    pub(crate) fn registered(&self) -> usize {
        metrics::record_shared_load();
        // ORDERING: SC, paired with the SC registration CAS: a process
        // this read does not count registered after it in the SC order,
        // so its leaf was empty when the GC phase fixed its split point
        // (DESIGN.md, registered-only GC scans).
        self.next_pid.load(Ordering::SeqCst)
    }

    /// The queue's size after the last operation propagated to the root —
    /// the `size` field of the newest root block (Lemma 16). Exact at
    /// quiescence; see [`crate::unbounded::Queue::approx_len`].
    ///
    /// # Examples
    ///
    /// ```
    /// let q: wfqueue::bounded::Queue<u32> = wfqueue::bounded::Queue::new(1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue(7);
    /// assert_eq!(q.approx_len(), 1);
    /// ```
    #[must_use]
    pub fn approx_len(&self) -> usize {
        let guard = epoch::pin();
        let tref = self.node(self.topo.root()).load(&guard);
        tref.tree.max().expect("trees are never empty").1.size
    }

    /// Registers the calling context as the next process, or `None` if all
    /// handles are taken.
    ///
    /// Registration is capped (same fix as the unbounded twin): exhausted
    /// queues return `None` without mutating the counter, so `Debug`'s
    /// `registered` field never over-reports and the counter cannot wrap.
    ///
    /// # Examples
    ///
    /// ```
    /// let q = wfqueue::bounded::Queue::<u8>::new(1);
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
            // ORDERING: SC on success so the GC scans' `registered()`
            // read is ordered against it; a failed claim just retries.
            match self.next_pid.compare_exchange_weak(
                pid,
                pid + 1,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Handle { queue: self, pid }),
                Err(current) => pid = current,
            }
        }
    }

    /// Returns all remaining handles.
    pub fn handles(&self) -> Vec<Handle<'_, T>> {
        std::iter::from_fn(|| self.register()).collect()
    }

    pub(crate) fn topology(&self) -> &Topology {
        &self.topo
    }

    pub(crate) fn node(&self, v: usize) -> &Node<T> {
        &self.nodes[v]
    }

    /// Reads `last[k]` (one shared step).
    pub(crate) fn last_of(&self, k: usize) -> usize {
        metrics::record_shared_load();
        // ORDERING: SC per the paper's SC-memory assumption (the `last`
        // array is Figure 5 shared state).
        self.last[k].load(Ordering::SeqCst)
    }

    /// Raises `last[pid]` to `value` if larger (only process `pid` writes
    /// its own slot, Figure 5 lines 329/337).
    pub(crate) fn raise_last(&self, pid: usize, value: usize) {
        if value > self.last_of(pid) {
            metrics::record_shared_store();
            // ORDERING: SC per the paper's SC-memory assumption.
            self.last[pid].store(value, Ordering::SeqCst);
        }
    }

    /// Appends `make(prev)` as the next block of `pid`'s leaf, `prev`
    /// being the leaf's current last block, and propagates it to the root
    /// (Figure 5 lines 203–205 and 208–210). Returns the block's index.
    ///
    /// One guard covers the append and the whole propagation, so the
    /// superseded tree versions are retired in one batch per operation.
    fn append_leaf_block(&self, pid: usize, make: impl FnOnce(&Block<T>) -> Block<T>) -> usize {
        let leaf = self.topo.leaf_of(pid);
        let guard = epoch::pin();
        let tref = self.node(leaf).load(&guard);
        let (max_key, prev) = tref.tree.max().expect("trees are never empty");
        let h = max_key as usize + 1;
        let next = self.add_block(pid, leaf, tref.tree, h, make(prev), &guard);
        let published = self.node(leaf).try_publish(&tref, next, &guard);
        assert!(published, "leaf trees have a single writer (the owner)");
        self.propagate(pid, self.topo.parent(leaf), &guard);
        h
    }

    /// `Enqueue(e)` — Figure 5 lines 201–205.
    fn enqueue(&self, pid: usize, element: T) {
        self.append_leaf_block(pid, |prev| Block::leaf_enqueue(element, prev));
    }

    /// `Dequeue()` — Figure 5 lines 206–217.
    fn dequeue(&self, pid: usize) -> Option<T> {
        let mut responses = self.dequeue_batch(pid, 1);
        responses.pop().expect("a batch of one has one response")
    }

    /// Batched enqueue: one leaf block carries the whole batch, so one
    /// `AddBlock` + one `Propagate` (`O(log p · log(p + q))` amortized
    /// steps) cover all `k` enqueues. A no-op for an empty batch.
    fn enqueue_batch(&self, pid: usize, elements: Vec<T>) {
        if elements.is_empty() {
            return;
        }
        self.append_leaf_block(pid, |prev| Block::leaf_enqueue_batch(elements, prev));
    }

    /// Batched dequeue: appends one leaf block with `count` dequeues,
    /// propagates once, and computes all responses with one `IndexDequeue`
    /// followed by `count` successive `FindResponse` calls against the same
    /// root block (blocks are never split during propagation, so the
    /// batch's dequeues have consecutive ranks there).
    fn dequeue_batch(&self, pid: usize, count: usize) -> Vec<Option<T>> {
        if count == 0 {
            return Vec::new();
        }
        // Keep the payload: its responses cell outlives the block's stay
        // in the tree (the Discarded fallback below reads it).
        let mut op = None;
        let h = self.append_leaf_block(pid, |prev| {
            let block = Block::leaf_dequeue_batch(count, prev);
            op.clone_from(&block.op);
            block
        });
        match self.complete_deq(pid, self.topo.leaf_of(pid), h, count) {
            Ok(responses) => responses,
            Err(Discarded) => {
                // Lemma 28: a block needed to compute our responses was
                // discarded, which (Invariant 27) happens only after some
                // helper wrote the responses into our leaf block. The write
                // happens-before the tree version we observed the discard
                // in, so it is visible now; spin defensively regardless.
                let cell = op
                    .as_deref()
                    .and_then(LeafOp::responses)
                    .expect("the block we appended is a dequeue block");
                let mut spins = 0u64;
                loop {
                    if let Some(r) = cell.get() {
                        return r.clone();
                    }
                    spins += 1;
                    assert!(
                        spins < 100_000_000,
                        "discarded dequeue block without a helped response \
                         (Invariant 27 violated)"
                    );
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// `Propagate(v)` — Figure 5 lines 249–257 (iterative double refresh).
    pub(crate) fn propagate(&self, pid: usize, v: usize, guard: &epoch::Guard) {
        let mut v = v;
        loop {
            if !self.refresh(pid, v, guard) {
                self.refresh(pid, v, guard);
            }
            if v == self.topo.root() {
                return;
            }
            v = self.topo.parent(v);
        }
    }

    /// `Refresh(v)` — Figure 5 lines 258–267.
    fn refresh(&self, pid: usize, v: usize, guard: &epoch::Guard) -> bool {
        let tref = self.node(v).load(guard);
        let (max_key, prev) = tref.tree.max().expect("trees are never empty");
        let h = max_key as usize + 1;
        match self.create_block(v, prev, guard) {
            // Nothing to propagate (line 262).
            None => true,
            Some(block) => {
                let next = self.add_block(pid, v, tref.tree, h, block, guard);
                // Adversarial-scheduler race window; see the unbounded
                // variant's Refresh for why a lost CAS is cheap here.
                metrics::adversary_yield();
                self.node(v).try_publish(&tref, next, guard)
            }
        }
    }

    /// `CreateBlock(v, i)` — Figure 5 lines 307–324. The index `i` is not
    /// stored in the block: it is the key `Refresh` inserts the block at.
    ///
    /// Unlike the unbounded variant, all reads go through tree snapshots
    /// taken *now*: the children's `MaxBlock` yields both the interval ends
    /// and their prefix sums, so no index lookup (and hence no discarded
    /// block) can occur here.
    fn create_block(&self, v: usize, prev: &Block<T>, guard: &epoch::Guard) -> Option<Block<T>> {
        let ltree = self.node(self.topo.left(v)).load(guard);
        let rtree = self.node(self.topo.right(v)).load(guard);
        let (lkey, lmax) = ltree.tree.max().expect("trees are never empty");
        let (rkey, rmax) = rtree.tree.max().expect("trees are never empty");
        let endleft = lkey as usize;
        let endright = rkey as usize;
        let sumenq = lmax.sumenq + rmax.sumenq;
        let sumdeq = lmax.sumdeq + rmax.sumdeq;
        // Prefix sums are monotone, so no underflow (Lemma 4′/Invariant 7).
        let numenq = sumenq - prev.sumenq;
        let numdeq = sumdeq - prev.sumdeq;
        if numenq + numdeq == 0 {
            return None;
        }
        let size = if v == self.topo.root() {
            (prev.size + numenq).saturating_sub(numdeq)
        } else {
            0
        };
        metrics::record_block_alloc();
        Some(Block::internal(sumenq, sumdeq, endleft, endright, size))
    }

    /// `AddBlock(v, T, B)` — Figure 5 lines 222–233: append `block` at
    /// `index` to `tree`, running a GC phase first when the index hits
    /// the period. `index` is the tree's maximum plus one (Lemma 24).
    fn add_block(
        &self,
        pid: usize,
        v: usize,
        tree: &BlockTree<T>,
        index: usize,
        block: Block<T>,
        guard: &epoch::Guard,
    ) -> BlockTree<T> {
        let key = index as u64;
        let period = self
            .fixed_gc_period
            .unwrap_or_else(|| self.registered_period(self.registered()));
        if index.is_multiple_of(period) {
            metrics::record_gc_phase();
            // s := SplitBlock(v).index (line 226).
            let (s, _) = self.split_block(v, guard);
            // Help every pending, propagated dequeue so blocks before s are
            // finished (line 227).
            self.help(pid);
            // Split removes blocks with index < s (line 228), then append.
            tree.split_ge(s as u64).append(key, block)
        } else {
            tree.append(key, block)
        }
    }
}

impl<T: Clone + Send + Sync> fmt::Debug for Queue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let guard = epoch::pin();
        let root = self.node(self.topo.root()).load(&guard);
        f.debug_struct("bounded::Queue")
            .field("num_processes", &self.topo.num_processes())
            .field("gc_period", &self.gc_period())
            .field("registered", &self.next_pid.load(Ordering::Relaxed))
            .field("root_blocks", &root.tree.len())
            .finish()
    }
}

/// A per-process handle to a [`bounded::Queue`](Queue).
///
/// Same contract as [`crate::unbounded::Handle`]: one handle per process,
/// `&mut self` per operation, `Send` across threads.
pub struct Handle<'q, T: Clone + Send + Sync> {
    queue: &'q Queue<T>,
    pid: usize,
}

impl<'q, T: Clone + Send + Sync> Handle<'q, T> {
    /// Appends `value` to the back of the queue (`O(log p · log(p+q))`
    /// amortized steps, Theorem 32).
    ///
    /// # Examples
    ///
    /// ```
    /// let q: wfqueue::bounded::Queue<&str> = wfqueue::bounded::Queue::new(1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue("job");
    /// assert_eq!(q.approx_len(), 1);
    /// ```
    pub fn enqueue(&mut self, value: T) {
        self.queue.enqueue(self.pid, value);
    }

    /// Removes and returns the front value, or `None` if the queue is empty
    /// at the dequeue's linearization point.
    ///
    /// # Examples
    ///
    /// ```
    /// let q: wfqueue::bounded::Queue<u32> = wfqueue::bounded::Queue::new(1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue(9);
    /// assert_eq!(h.dequeue(), Some(9));
    /// assert_eq!(h.dequeue(), None);
    /// ```
    #[must_use = "a dequeued value should be used (None means the queue was empty)"]
    pub fn dequeue(&mut self) -> Option<T> {
        self.queue.dequeue(self.pid)
    }

    /// Enqueues every value of `values` as one atomic batch; see
    /// [`crate::unbounded::Handle::enqueue_batch`] — one leaf block, one
    /// propagation, values contiguous in the linearization.
    ///
    /// # Examples
    ///
    /// ```
    /// let q: wfqueue::bounded::Queue<u32> = wfqueue::bounded::Queue::new(1);
    /// let mut h = q.register().unwrap();
    /// h.enqueue_batch([1, 2]);
    /// assert_eq!(h.dequeue_batch(3), vec![Some(1), Some(2), None]);
    /// ```
    pub fn enqueue_batch(&mut self, values: impl IntoIterator<Item = T>) {
        self.queue
            .enqueue_batch(self.pid, values.into_iter().collect());
    }

    /// Performs `count` dequeues as one atomic batch, returning the
    /// responses in batch order; see
    /// [`crate::unbounded::Handle::dequeue_batch`].
    ///
    /// # Examples
    ///
    /// ```
    /// let q: wfqueue::bounded::Queue<u32> = wfqueue::bounded::Queue::with_gc_period(1, 2);
    /// let mut h = q.register().unwrap();
    /// h.enqueue(7);
    /// // Batch responses survive the GC phases the small period forces.
    /// assert_eq!(h.dequeue_batch(2), vec![Some(7), None]);
    /// ```
    #[must_use = "dequeued values should be used (None entries mean the queue was empty)"]
    pub fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        self.queue.dequeue_batch(self.pid, count)
    }

    /// Dequeues until the queue reports empty, yielding each value; see
    /// [`crate::unbounded::Handle::drain`].
    ///
    /// # Examples
    ///
    /// ```
    /// let q: wfqueue::bounded::Queue<u32> = wfqueue::bounded::Queue::new(1);
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

impl<T: Clone + Send + Sync> fmt::Debug for Handle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("bounded::Handle")
            .field("pid", &self.pid)
            .finish()
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 1);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn default_gc_period_follows_paper() {
        let q: Queue<u8> = Queue::new(4);
        let handles = q.handles();
        assert_eq!(handles.len(), 4);
        assert_eq!(q.gc_period(), 4 * 4 * 2);
    }

    #[test]
    fn default_gc_period_follows_registered_handles() {
        let q: Queue<u8> = Queue::new(8);
        assert_eq!(q.gc_period(), 2 * 2 * 3, "floor of two handles");
        let mut handles = vec![q.register().unwrap()];
        assert_eq!(q.gc_period(), 2 * 2 * 3);
        handles.extend(q.register());
        handles.extend(q.register());
        assert_eq!(q.gc_period(), 3 * 3 * 3);
        handles.extend(q.handles());
        assert_eq!(q.gc_period(), 8 * 8 * 3, "capped at the paper's G");

        let single: Queue<u8> = Queue::new(1);
        let _h = single.register().unwrap();
        assert_eq!(single.gc_period(), 1);
        let fixed: Queue<u8> = Queue::with_gc_period(8, 5);
        let _h = fixed.register().unwrap();
        assert_eq!(fixed.gc_period(), 5, "a fixed period ignores registration");
    }

    #[test]
    #[should_panic(expected = "gc_period")]
    fn zero_gc_period_panics() {
        let _: Queue<u8> = Queue::with_gc_period(2, 0);
    }
}
