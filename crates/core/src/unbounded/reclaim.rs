//! Epoch-based truncation of the unbounded queue's ordering tree.
//!
//! The paper's §3 queue appends one block per operation and never reclaims
//! any of them, so a long-running service leaks memory linearly in its
//! operation count even when the queue itself stays small. This module adds
//! *safe memory reclamation* for that variant without touching the paper's
//! per-operation logic: once a prefix of root blocks is provably dead, the
//! prefix — and the subtree blocks that fed it — is unlinked and handed to
//! the vendored `crossbeam-epoch` for deferred destruction, with a *summary
//! sentinel* (`Block::summary`: the replaced block's scalar fields,
//! payload dropped) left at each node's new boundary so every prefix-sum
//! and interval computation that touches the boundary still resolves
//! exactly. The slot-storage chunks lying wholly below each new boundary,
//! and the pages of 64 chunk pointers whose chunks all do
//! ([`SegVec::take_chunks_below`](wfqueue_segvec::SegVec::take_chunks_below)),
//! are deferred the same way, so the tree's memory follows what is live,
//! not its history. Only each node's page table still grows, by one 8-byte
//! pointer per 4096 slots. A pass defers everything it unlinked, across
//! all nodes, as one batch: one `defer_destroy` per pass, not one per
//! block, because each deferral takes the epoch shim's process-wide lock.
//!
//! # When is a root block dead?
//!
//! A root block `b` can still be needed by two classes of readers:
//!
//! 1. **Future dequeues.** `FindResponse` walks backwards from a dequeue's
//!    root block to the block holding its assigned enqueue, which is the
//!    oldest *live* (not yet dequeued) enqueue or younger. Root blocks
//!    strictly before the block holding the oldest live enqueue can never be
//!    reached this way again: by Lemma 16's size recurrence, every enqueue
//!    at or below them has already been consumed in the linearization.
//! 2. **In-flight operations.** An operation that linearized *before* some
//!    of those enqueues died may still be resolving its response against
//!    them (it is exactly the process that dequeues such an enqueue), and a
//!    stalled propagation may still reread blocks near the heads it observed
//!    at its start. Each handle therefore publishes a *hazard index*
//!    (`hindex`) when its operation begins: the reclamation frontier it
//!    observed. The truncator takes the minimum over all published hindices,
//!    so no prefix an active operation can still index into is ever freed.
//!
//! The truncation frontier `F` is the minimum of (1) the root index of the
//! block containing the oldest live enqueue (computed from the newest root
//! block's `size` field) and (2) every active handle's published hindex.
//! Root blocks `< F - 1` are unlinked, `F - 1` is replaced by a summary, and
//! the cut recurses into the children along the summary's
//! `endleft`/`endright` interval ends — precisely the subtree that fed the
//! truncated root prefix.
//!
//! # Why both hindices *and* epochs?
//!
//! The hindex protocol guarantees an operation never *indexes* a freed slot
//! (so `block_installed` never observes a hole). The epoch guard guarantees
//! the *memory* behind a reference a reader already holds stays alive until
//! that reader unpins — which also covers introspection (`dump`,
//! `check_invariants`, `approx_len`), whose scans are not bounded by the
//! hindex protocol. Unlinked blocks and released chunks and pages are
//! passed to [`crossbeam_epoch::Guard::defer_destroy`], in one batch per
//! pass that is deferred after the pass's last unlink, and freed once every
//! guard pinned before that deferral has dropped. A chunk is released only
//! when all its slots lie below the node's boundary and were already
//! unlinked, and a page only when all its chunks are; the chunk holding
//! the boundary summary stays, with its page, so an operation (which never
//! indexes below its `hindex - 1 >= boundary`) never meets released
//! storage, and an introspection scan that does sees an empty slot.
//!
//! # Cost model
//!
//! With [`ReclaimPolicy::Off`] (the default, and the only mode reachable
//! through [`Queue::new`](super::Queue::new)) none of this exists on the
//! operation path: no pin, no hazard store, no extra recorded step — the
//! per-operation shared-memory footprint is byte-for-byte the paper's, which
//! the CAS-parity tests assert. With reclamation on, each operation adds two
//! frontier loads + one hazard store on entry (counted as shared steps,
//! because they are), one hazard store on exit, and an epoch pin/unpin
//! (uncounted: the vendored shim's mutex is an artifact of the offline
//! build; real crossbeam pins with a handful of unshared atomics).
//!
//! The entry handshake is **lock-free, not wait-free**: the
//! publish-then-recheck loop in `Queue::begin_op` retries every time a
//! truncator advances the frontier between its load and its recheck, and
//! truncations keep coming for as long as other operations complete. A
//! frontier only advances past root blocks that other operations
//! installed, so each retry means the system progressed, but one operation
//! can retry without bound. The shim's pin also takes its
//! process-wide lock. So with reclamation on, an operation is wait-free
//! once it has entered, and its entry is not.
//!
//! Truncation itself is maintenance work serialized by a try-lock — it is
//! *not* wait-free, but operations never wait on it: a handle that loses the
//! try-lock simply skips the attempt — and it records **no** algorithm
//! steps: its probes and unlinks go through untracked accessors, so the
//! per-operation overhead above is the *whole* measured cost of reclamation
//! even for the unlucky operation that runs a truncation pass.

use wfqueue_sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crossbeam_epoch::{self as epoch, Guard, Pointer, Shared};
use crossbeam_utils::CachePadded;
use wfqueue_metrics as metrics;

use super::block::Block;
use super::node::{Node, NodeRef};
use super::queue::Queue;

/// Hazard value meaning "no operation in flight on this handle".
const IDLE: usize = usize::MAX;

/// When (and whether) the unbounded queue truncates dead ordering-tree
/// prefixes.
///
/// The policy is fixed at construction:
/// [`Queue::new`](super::Queue::new) always uses [`ReclaimPolicy::Off`];
/// [`Queue::with_reclaim`](super::Queue::with_reclaim) chooses.
///
/// # Examples
///
/// ```
/// use wfqueue::unbounded::{Queue, ReclaimPolicy};
///
/// let q: Queue<u64> = Queue::with_reclaim(1, ReclaimPolicy::EveryKRootBlocks(8));
/// let mut h = q.register().unwrap();
/// for i in 0..1_000u64 {
///     h.enqueue(i);
///     assert_eq!(h.dequeue(), Some(i));
/// }
/// // Dead prefixes were truncated along the way: far fewer than the
/// // ~2000 root blocks the paper's queue would retain.
/// assert!(q.reclaim_stats().reclaimed_blocks > 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimPolicy {
    /// Never reclaim: the paper's §3 queue, byte-for-byte. Blocks live until
    /// the queue is dropped.
    Off,
    /// After each operation whose handle observes that `k` or more new root
    /// blocks were installed since the last attempt, try to truncate (the
    /// attempt is skipped if another handle is already truncating). Smaller
    /// `k` bounds live memory tighter; larger `k` amortizes the maintenance
    /// scan over more operations.
    EveryKRootBlocks(usize),
}

impl ReclaimPolicy {
    /// Whether this policy ever reclaims.
    #[must_use]
    pub fn enabled(self) -> bool {
        !matches!(self, ReclaimPolicy::Off)
    }
}

/// Cumulative reclamation counters of one queue
/// ([`Queue::reclaim_stats`](super::Queue::reclaim_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Truncations that advanced at least one node boundary.
    pub truncations: usize,
    /// Blocks unlinked from the tree so far, across all nodes (each was
    /// handed to the epoch collector; summary sentinels that *replaced* a
    /// block are not counted — the slot stays occupied).
    pub reclaimed_blocks: usize,
    /// Current frontier: the first root-block index not yet proven dead.
    /// Root slots below `frontier - 1` have been unlinked; `frontier - 1`
    /// holds a summary sentinel (or the dummy, before any truncation).
    pub frontier: usize,
}

/// Per-queue reclamation state. All fields are quiescent when the policy is
/// [`ReclaimPolicy::Off`] — constructed empty and never touched by the
/// operation path.
pub(crate) struct ReclaimState {
    policy: ReclaimPolicy,
    /// Per-handle published hazard indices (`hindex`), indexed by pid.
    /// `IDLE` when the handle has no operation in flight. Empty when the
    /// policy is `Off`.
    hazards: Vec<CachePadded<AtomicUsize>>,
    /// First root-block index not yet proven dead (monotone, starts at 1:
    /// the dummy at 0 is never "live"). Published *before* hazards are
    /// scanned, so the publish-then-recheck in [`Queue::begin_op`] is sound.
    frontier: AtomicUsize,
    /// Serializes truncators; operations never block on it (try-lock).
    lock: AtomicBool,
    /// Root `head` at the last truncation attempt (the every-`k` trigger).
    last_attempt_head: AtomicUsize,
    truncations: AtomicUsize,
    reclaimed_blocks: AtomicUsize,
}

impl ReclaimState {
    pub fn new(policy: ReclaimPolicy, num_processes: usize) -> Self {
        if let ReclaimPolicy::EveryKRootBlocks(k) = policy {
            assert!(k >= 1, "reclamation period must be at least 1");
        }
        let hazards = if policy.enabled() {
            (0..num_processes)
                .map(|_| CachePadded::new(AtomicUsize::new(IDLE)))
                .collect()
        } else {
            Vec::new()
        };
        ReclaimState {
            policy,
            hazards,
            frontier: AtomicUsize::new(1),
            lock: AtomicBool::new(false),
            last_attempt_head: AtomicUsize::new(1),
            truncations: AtomicUsize::new(0),
            reclaimed_blocks: AtomicUsize::new(0),
        }
    }

    pub fn policy(&self) -> ReclaimPolicy {
        self.policy
    }

    pub fn enabled(&self) -> bool {
        self.policy.enabled()
    }

    pub fn stats(&self) -> ReclaimStats {
        ReclaimStats {
            truncations: self.truncations.load(Ordering::Relaxed),
            reclaimed_blocks: self.reclaimed_blocks.load(Ordering::Relaxed),
            frontier: self.frontier.load(Ordering::Relaxed),
        }
    }
}

/// RAII token for one operation on a reclamation-enabled queue: holds the
/// epoch pin and remembers the published hindex. `None` on the `Off` path.
pub(crate) struct OpGuard {
    guard: Guard,
    /// The frontier value this operation published as its hindex. Every
    /// root-block index the operation touches is `>= floor()`, and the
    /// truncator will not free any slot `>= floor()` while the hindex is
    /// published.
    hindex: usize,
}

impl OpGuard {
    /// The safe lower clamp for this operation's backwards root searches:
    /// the slot `hindex - 1` is guaranteed to stay installed (it is at worst
    /// replaced by a scalar-identical summary) for the operation's lifetime.
    pub fn floor(&self) -> usize {
        self.hindex - 1
    }
}

impl<T: Clone + Send + Sync> Queue<T> {
    /// Begins an operation for `pid`: pins the epoch and publishes the
    /// handle's hazard index using the standard publish-then-recheck loop.
    /// Returns `None` (touching nothing) when reclamation is off.
    ///
    /// The loop is lock-free, not wait-free: it retries whenever a
    /// truncator advances the frontier between the load and the recheck,
    /// which nothing bounds (see the module docs' cost model).
    pub(crate) fn begin_op(&self, pid: usize) -> Option<OpGuard> {
        let st = self.reclaim();
        if !st.enabled() {
            return None;
        }
        let guard = epoch::pin();
        let hazard = &st.hazards[pid];
        loop {
            metrics::record_shared_load();
            // ORDERING: the hazard handshake is a Dekker pattern — we
            // write `hazard` then re-read `frontier`; the truncator
            // writes `frontier` then reads `hazard`. SC on all four
            // accesses guarantees one side sees the other; relaxing the
            // hazard publication is a seeded mutation
            // `tests/checker_power.rs` proves the model checker detects.
            let f = st.frontier.load(Ordering::SeqCst);
            metrics::record_shared_store();
            // ORDERING: SC hazard publication (see above).
            hazard.store(f, Ordering::SeqCst);
            // Recheck: if the frontier moved between the read and the
            // publish, a concurrent truncator may have scanned hazards
            // before our store landed — republish against the new value.
            // (The truncator stores the frontier *before* scanning, so a
            // stable recheck proves the scan saw our hindex.)
            metrics::record_shared_load();
            // ORDERING: SC recheck — the read half of the handshake;
            // skipping it is the other seeded hazard mutation.
            if st.frontier.load(Ordering::SeqCst) == f {
                return Some(OpGuard { guard, hindex: f });
            }
        }
    }

    /// Ends an operation: clears the hazard, runs the reclamation trigger,
    /// and unpins.
    pub(crate) fn end_op(&self, pid: usize, op: Option<OpGuard>) {
        let Some(op) = op else { return };
        let st = self.reclaim();
        metrics::record_shared_store();
        // ORDERING: SC retirement of the hazard so a concurrent scan
        // either sees the held index or everything the op did before.
        st.hazards[pid].store(IDLE, Ordering::SeqCst);
        self.maybe_reclaim(&op.guard);
        // Dropping the guard unpins; deferred frees may run here.
        drop(op);
    }

    /// The every-`k`-root-blocks trigger: attempt a truncation if enough new
    /// root blocks appeared since the last attempt.
    fn maybe_reclaim(&self, guard: &Guard) {
        let ReclaimPolicy::EveryKRootBlocks(k) = self.reclaim().policy() else {
            return;
        };
        let head = self.root_node().head_untracked();
        let last = self.reclaim().last_attempt_head.load(Ordering::Relaxed);
        if head >= last.saturating_add(k) {
            self.reclaim_with(guard);
        }
    }

    /// Attempts a truncation right now, returning the number of blocks
    /// unlinked (0 if reclamation is off, another truncation is in
    /// progress, or nothing is dead yet).
    ///
    /// Operations never call this directly — the
    /// [`ReclaimPolicy::EveryKRootBlocks`] trigger does — but tests, benches
    /// and shutdown paths can force a pass.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue::unbounded::{introspect, Queue, ReclaimPolicy};
    ///
    /// let q: Queue<u64> = Queue::with_reclaim(1, ReclaimPolicy::EveryKRootBlocks(1_000_000));
    /// let mut h = q.register().unwrap();
    /// for i in 0..100 {
    ///     h.enqueue(i);
    /// }
    /// assert_eq!(h.drain().count(), 100);
    /// let before = introspect::total_blocks(&q);
    /// assert!(q.try_reclaim() > 0, "everything is dead, something must go");
    /// assert!(introspect::total_blocks(&q) < before);
    /// ```
    pub fn try_reclaim(&self) -> usize {
        if !self.reclaim().enabled() {
            return 0;
        }
        let guard = epoch::pin();
        self.reclaim_with(&guard)
    }

    /// Serialized truncation entry point: takes the try-lock, truncates,
    /// releases.
    fn reclaim_with(&self, guard: &Guard) -> usize {
        let st = self.reclaim();
        if st
            .lock
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return 0;
        }
        let freed = self.truncate_locked(guard);
        st.lock.store(false, Ordering::Release);
        freed
    }

    /// The truncation pass. Caller holds the reclamation lock and an epoch
    /// guard.
    ///
    /// Everything here reads through the *untracked* accessors
    /// (`head_untracked`, `block_untracked`, and the step-free
    /// `take_raw`/`replace_raw`): truncation is maintenance outside the
    /// paper's cost model, and recording its probes would charge an
    /// unbounded burst of shared steps to whichever operation happens to
    /// win the try-lock, breaking the fixed per-operation overhead
    /// documented in the module docs.
    fn truncate_locked(&self, guard: &Guard) -> usize {
        let st = self.reclaim();
        let node = self.root_node();
        let head = node.head_untracked();
        st.last_attempt_head.store(head, Ordering::Relaxed);
        // The newest root block guaranteed installed (Invariant 3).
        let newest_idx = head - 1;
        let newest = node
            .block_untracked(newest_idx)
            .expect("Invariant 3: root prefix is installed");
        // Liveness frontier: the first root block that may still be needed
        // by *future* dequeues — the one holding the oldest live enqueue
        // (enqueue rank sumenq - size + 1), or past the newest block when
        // the queue is empty (size == 0: every enqueue so far is dead).
        let f_live = if newest.size() == 0 {
            newest_idx + 1
        } else {
            let first_live = newest.sumenq - newest.size() + 1;
            // Plain lower-bound binary search over the retained root
            // suffix (the hot path's doubling search exists for the
            // O(log q) bound and records steps; maintenance needs
            // neither). The result is in (boundary, newest_idx]:
            // the boundary block summarises only dead enqueues
            // (sumenq < first_live) and the newest block holds
            // sumenq >= first_live since size >= 1.
            let (mut lo, mut hi) = (node.boundary() + 1, newest_idx);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let mid_sumenq = node
                    .block_untracked(mid)
                    .expect("Invariant 3: retained root prefix is installed")
                    .sumenq;
                if mid_sumenq >= first_live {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        };
        // Publish intent (monotone) BEFORE scanning hazards, so the
        // publish-then-recheck in `begin_op` serializes against this scan.
        // ORDERING: SC read/store — the truncator's write half of the
        // Dekker handshake described in `begin_op`; `tests/model.rs`
        // (hazard scenario) checks every interleaving of the two.
        let cur = st.frontier.load(Ordering::SeqCst);
        let f_intent = f_live.max(cur);
        if f_intent > cur {
            st.frontier.store(f_intent, Ordering::SeqCst);
        }
        // In-flight frontier: no slot at or above any published hindex - 1
        // may be freed (active operations resolve responses down to their
        // hindex's boundary summary).
        let mut f_final = f_intent;
        for hazard in &st.hazards {
            // ORDERING: SC hazard scan — the read half; must not be
            // reordered before the frontier publication above.
            let h = hazard.load(Ordering::SeqCst);
            if h != IDLE {
                f_final = f_final.min(h);
            }
        }
        let cut = f_final - 1; // frontier is always >= 1
        if cut <= node.boundary() {
            return 0;
        }
        // Each root block cut fed at least one block on every level below
        // it, so the batch is sized for that up front: a buffer regrown
        // entry by entry passes through every small size class, and glibc
        // keeps freed small buffers in per-thread caches that count as
        // heap in use.
        let levels = self.topology().height() + 1;
        let mut retired = Retired::with_capacity((cut - node.boundary()) * levels);
        self.truncate_node(self.topology().root(), cut, &mut retired);
        let freed = retired.freed;
        // The one deferral of the pass, after its last unlink.
        // SAFETY: every pointer in the batch was unlinked above from the
        // only shared path to it and is owned by the batch alone; readers
        // that looked one up before its unlink are pinned, and no operation
        // indexes below its hindex - 1 >= the cut. `Shared::from_ptr` is
        // fed a pointer that came from `Box::into_raw`.
        unsafe { guard.defer_destroy(Shared::from_ptr(Box::into_raw(Box::new(retired)))) };
        st.truncations.fetch_add(1, Ordering::Relaxed);
        st.reclaimed_blocks.fetch_add(freed, Ordering::Relaxed);
        freed
    }

    /// Truncates node `v` up to (and including, as a summary) index `cut`,
    /// then recurses into the subtree along the summary's interval ends.
    /// What it unlinks goes into `retired`.
    fn truncate_node(&self, v: usize, cut: usize, retired: &mut Retired) {
        match self.node(v) {
            NodeRef::Leaf(node) => {
                truncate_blocks(node, cut, retired);
            }
            NodeRef::Inner(node) => {
                if let Some(blk) = truncate_blocks(node, cut, retired) {
                    // `blk` stays valid: it sits in the unfreed batch. Its
                    // interval ends delimit exactly the child blocks that
                    // fed the truncated root prefix.
                    let topo = self.topology();
                    self.truncate_node(topo.left(v), blk.endleft, retired);
                    self.truncate_node(topo.right(v), blk.endright, retired);
                }
            }
        }
    }
}

/// Cuts one node's prefix at `cut`: replaces `blocks[cut]` with its
/// summary, unlinks the dead prefix `[boundary, cut)` and the slot storage
/// wholly below `cut`, and moves all of it into `retired`. Returns the
/// block that the summary replaced, or `None` if the node was already cut
/// at or above `cut`.
fn truncate_blocks<'a, B: Block>(
    node: &'a Node<B>,
    cut: usize,
    retired: &mut Retired,
) -> Option<&'a B> {
    let old = node.boundary();
    if cut <= old {
        // Nothing new at this node, hence nothing new below it either:
        // interval ends are monotone (Lemma 4), so an unchanged cut here
        // reproduces the childrens' existing cuts.
        return None;
    }
    let blk = node
        .block_untracked(cut)
        .expect("truncation cuts inside the subblock closure of installed root blocks");
    // Replace blocks[cut] with its summary, then unlink the dead prefix
    // [old, cut). Readers that already hold the old references are
    // protected by their epoch pins; readers arriving later see the
    // scalar-identical summary and never index below their hindex - 1
    // >= cut (for operations) or below `boundary` (for introspection).
    if let Some(replaced) = node.blocks.replace_raw(cut, Box::new(blk.summary())) {
        // SAFETY: `replace_raw` just unlinked it from its only slot.
        unsafe { retired.push(replaced) };
    }
    for i in old..cut {
        if let Some(block) = node.blocks.take_raw(i) {
            retired.freed += 1;
            // SAFETY: `take_raw` just unlinked it from its only slot.
            unsafe { retired.push(block) };
        }
    }
    node.set_boundary(cut);
    // Every slot of a chunk wholly below `cut` was taken above or by an
    // earlier pass, so the chunks — and the pages whose chunks all lie
    // below `cut` — now hold nothing but dead storage. The chunk holding
    // the summary at `cut` stays, and so does its page.
    let released = node.blocks.take_chunks_below(cut);
    for chunk in released.chunks {
        // SAFETY: `take_chunks_below` just unlinked it.
        unsafe { retired.push(chunk) };
    }
    for page in released.pages {
        // SAFETY: `take_chunks_below` just unlinked it; dropping a page
        // drops the chunks still linked in it, which nobody else holds.
        unsafe { retired.push(page) };
    }
    Some(blk)
}

/// What one truncation pass unlinked, from every node: blocks of both
/// kinds, slot chunks and pages. It is deferred as one batch, and
/// dropping it frees them.
struct Retired {
    unlinked: Vec<Unlinked>,
    /// Blocks unlinked (summaries that replaced a block are not counted).
    freed: usize,
}

/// One unlinked allocation and the function that frees it.
struct Unlinked {
    ptr: *mut (),
    // SAFETY: called once, on `ptr`, by `Retired`'s `Drop` (see `push`).
    free: unsafe fn(*mut ()),
}

impl Retired {
    fn with_capacity(capacity: usize) -> Self {
        Retired {
            unlinked: Vec::with_capacity(capacity),
            freed: 0,
        }
    }

    /// Adds `ptr` to the batch, which frees it when dropped.
    ///
    /// # Safety
    ///
    /// `ptr` came from `Box::into_raw`, is unlinked from every shared path,
    /// and is owned by this batch alone from now on.
    unsafe fn push<X>(&mut self, ptr: *mut X) {
        self.unlinked.push(Unlinked {
            ptr: ptr.cast(),
            free: free_box::<X>,
        });
    }
}

/// Frees a box that was erased to `*mut ()`.
///
/// # Safety
///
/// `ptr` came from `Box::into_raw` of an `X` and is freed only here, once.
unsafe fn free_box<X>(ptr: *mut ()) {
    // SAFETY: the caller's contract.
    drop(unsafe { Box::from_raw(ptr.cast::<X>()) });
}

impl Drop for Retired {
    fn drop(&mut self) {
        for u in &self.unlinked {
            // SAFETY: `push`'s contract makes the batch the sole owner of
            // each box; the batch is dropped only by the epoch shim, after
            // every reader pinned before its deferral has unpinned.
            unsafe { (u.free)(u.ptr) };
        }
    }
}
