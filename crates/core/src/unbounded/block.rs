//! Blocks of the unbounded queue (Figure 3 of the paper, extended with
//! batched leaf blocks).

use wfqueue_sync::atomic::{AtomicUsize, Ordering};

use wfqueue_metrics as metrics;

/// The `super` word's value while `super` is unset. A real `super` is an
/// index at or below the parent's `head`, and heads start at 1.
const UNSET: usize = 0;

/// One block in a node's `blocks` array.
///
/// Leaf blocks represent a *batch* of operations by one process: either
/// `numenq ≥ 1` enqueues (whose values are stored in the payload, in order)
/// or `numdeq ≥ 1` dequeues (no payload). The paper's one-operation
/// leaf blocks are the `numenq + numdeq = 1` special case; batching changes
/// nothing structurally because internal blocks already aggregate arbitrary
/// operation counts through the O(1)-mergeable prefix sums. Internal blocks
/// implicitly represent the operations of their direct subblocks through the
/// `endleft`/`endright` interval ends; `sumenq`/`sumdeq` are prefix sums
/// over the whole `blocks` array (Invariant 7), and root blocks additionally
/// carry the queue `size` after the block's operations.
///
/// The layout is 56 bytes for a word-sized `T` (a 64-byte heap chunk per
/// block), because Figure 3's fields split by node kind:
///
/// * `size` is only meaningful at the root and `super` only below it, so
///   they share one word. `Advance` never writes `super` on a root block,
///   and every non-root block is built with `size = 0`, which doubles as
///   "`super` unset".
/// * The payload is `None` for dequeue batches, internal blocks and the
///   dummy, a non-empty slice for an enqueue batch, and an empty slice
///   (which allocates nothing) for a truncation summary sentinel.
///
/// All fields are immutable after construction except `super`, which is
/// written at most once by a CAS in `Advance`.
#[derive(Debug)]
pub(crate) struct Block<T> {
    /// `|E(blocks[0]) · … · E(blocks[i])|` for a block at index `i`.
    pub sumenq: usize,
    /// `|D(blocks[0]) · … · D(blocks[i])|` for a block at index `i`.
    pub sumdeq: usize,
    /// Index of the last direct subblock in the left child (internal nodes).
    pub endleft: usize,
    /// Index of the last direct subblock in the right child (internal nodes).
    pub endright: usize,
    /// At the root: the queue size after this block's operations
    /// ([`Block::size`]). Below it: the paper's `super`, the approximate
    /// index of this block's superblock in the parent's `blocks` array, off
    /// by at most one (Lemma 12); [`UNSET`] until set ([`Block::sup`]).
    size_or_sup: AtomicUsize,
    /// Enqueued values for a leaf enqueue batch, in enqueue order; an empty
    /// slice for a *summary sentinel* installed by epoch-based tree
    /// truncation ([`crate::unbounded::ReclaimPolicy`]), which carries the
    /// scalar fields of the block it replaced (so prefix-sum and interval
    /// arithmetic against it is unchanged) but no elements, as everything it
    /// summarises is dead; `None` for every other block. The dummy at index
    /// 0 is morally the initial summary of the empty prefix, but keeps
    /// `None` so truncation-free queues are bit-identical to the paper's.
    payload: Option<Box<[T]>>,
}

impl<T> Block<T> {
    /// The empty block installed at index 0 of every node ("blocks\[0\] is
    /// an empty block whose integer fields are 0", Figure 3).
    pub fn dummy() -> Self {
        Self::internal(0, 0, 0, 0, 0)
    }

    /// A fresh leaf block for `Enqueue(element)` (Figure 4 line 2).
    pub fn leaf_enqueue(element: T, prev_sumenq: usize, prev_sumdeq: usize) -> Self {
        Self::leaf_enqueue_batch(vec![element], prev_sumenq, prev_sumdeq)
    }

    /// A fresh leaf block carrying a whole batch of enqueues: one
    /// `try_install` + one `Propagate` will cover all of them.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty (blocks are non-empty, Corollary 8).
    pub fn leaf_enqueue_batch(elements: Vec<T>, prev_sumenq: usize, prev_sumdeq: usize) -> Self {
        assert!(!elements.is_empty(), "leaf blocks are non-empty");
        Block {
            sumenq: prev_sumenq + elements.len(),
            sumdeq: prev_sumdeq,
            endleft: 0,
            endright: 0,
            size_or_sup: AtomicUsize::new(UNSET),
            payload: Some(elements.into_boxed_slice()),
        }
    }

    /// A fresh leaf block for a `Dequeue` (Figure 4 line 6).
    pub fn leaf_dequeue(prev_sumenq: usize, prev_sumdeq: usize) -> Self {
        Self::leaf_dequeue_batch(1, prev_sumenq, prev_sumdeq)
    }

    /// A fresh leaf block carrying a batch of `count` dequeues.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero (blocks are non-empty, Corollary 8).
    pub fn leaf_dequeue_batch(count: usize, prev_sumenq: usize, prev_sumdeq: usize) -> Self {
        assert!(count > 0, "leaf blocks are non-empty");
        Self::internal(prev_sumenq, prev_sumdeq + count, 0, 0, 0)
    }

    /// A fresh internal block created by `CreateBlock` (Figure 4 lines
    /// 40–57). `size` must be 0 unless the block is for the root: below
    /// the root the same word holds `super`, and 0 means unset.
    pub fn internal(
        sumenq: usize,
        sumdeq: usize,
        endleft: usize,
        endright: usize,
        size: usize,
    ) -> Self {
        Block {
            sumenq,
            sumdeq,
            endleft,
            endright,
            size_or_sup: AtomicUsize::new(size),
            payload: None,
        }
    }

    /// A summary sentinel standing in for `original` after tree truncation:
    /// identical scalar fields (prefix sums, interval ends, and the root
    /// `size` or the already-written `super` hint) with the payload dropped.
    ///
    /// Installed only by the single truncator thread, in place of a block
    /// whose operations are all dead (already dequeued and no in-flight
    /// operation indexed at or below it), so the elements can never be asked
    /// for again; the scalars keep every prefix-sum and interval computation
    /// against the truncation boundary exact.
    pub fn summary_of(original: &Block<T>) -> Self {
        Block {
            sumenq: original.sumenq,
            sumdeq: original.sumdeq,
            endleft: original.endleft,
            endright: original.endright,
            // Copy the raw word rather than going through `sup()`: this is
            // maintenance bookkeeping, not an algorithm step.
            // ORDERING: SC per the paper's SC-memory assumption.
            size_or_sup: AtomicUsize::new(original.size_or_sup.load(Ordering::SeqCst)),
            payload: Some(Box::default()),
        }
    }

    /// The queue size after this block's operations. Meaningful for root
    /// blocks only (the word holds `super` elsewhere). Not counted as a
    /// step: a root block's word is never written after construction, so
    /// this costs what reading a plain field does.
    pub fn size(&self) -> usize {
        // ORDERING: Relaxed. On a root block the word is written once, at
        // construction, before the block is published; the slot's SeqCst
        // install CAS and the reader's Acquire slot load (`SegVec::get`)
        // order that write before this load.
        self.size_or_sup.load(Ordering::Relaxed)
    }

    /// Reads the `super` field (one shared load). Returns `None` if unset.
    /// Meaningful for non-root blocks only.
    pub fn sup(&self) -> Option<usize> {
        metrics::record_shared_load();
        // ORDERING: SC per the paper's SC-memory assumption (`super`
        // field of Figure 4's block records).
        match self.size_or_sup.load(Ordering::SeqCst) {
            UNSET => None,
            s => Some(s),
        }
    }

    /// CAS `super` from unset to `value` (Figure 4 line 61); counted as one
    /// CAS step. Loses silently if already set, as in the paper. Never
    /// called on a root block, whose word holds `size`.
    pub fn try_set_sup(&self, value: usize) {
        debug_assert_ne!(value, UNSET, "a parent head is at least 1");
        // ORDERING: SC per the paper's SC-memory assumption.
        let r = self
            .size_or_sup
            .compare_exchange(UNSET, value, Ordering::SeqCst, Ordering::SeqCst);
        metrics::record_cas(r.is_ok());
    }

    /// The enqueued values of a leaf enqueue batch, in order; empty for
    /// every other block.
    pub fn elements(&self) -> &[T] {
        self.payload.as_deref().unwrap_or_default()
    }

    /// Whether this block is a truncation summary sentinel
    /// ([`Block::summary_of`]).
    pub fn is_summary(&self) -> bool {
        self.payload.as_ref().is_some_and(|p| p.is_empty())
    }

    /// The interval end for the given direction.
    pub fn end(&self, left: bool) -> usize {
        if left {
            self.endleft
        } else {
            self.endright
        }
    }

    /// Whether this leaf block represents a dequeue batch (non-dummy, no
    /// elements, not a truncation summary).
    pub fn is_leaf_dequeue(&self) -> bool {
        self.payload.is_none() && self.sumdeq > 0
    }
}

#[cfg(test)]
mod tests {
    use std::mem::size_of;
    use std::sync::Arc;

    use super::*;

    #[test]
    fn block_stays_within_its_size_budget() {
        // Every operation leaves one boxed block per tree level, and 56
        // bytes is the largest request a 64-byte heap chunk serves.
        assert!(size_of::<Block<u64>>() <= 56);
    }

    #[test]
    fn dummy_is_all_zero() {
        let b: Block<u32> = Block::dummy();
        assert_eq!(
            (b.sumenq, b.sumdeq, b.endleft, b.endright, b.size()),
            (0, 0, 0, 0, 0)
        );
        assert!(b.elements().is_empty());
        assert!(b.sup().is_none());
        assert!(!b.is_summary());
    }

    #[test]
    fn leaf_blocks_extend_prefix_sums() {
        let e = Block::leaf_enqueue("x", 4, 7);
        assert_eq!((e.sumenq, e.sumdeq), (5, 7));
        assert_eq!(e.elements(), ["x"]);
        assert!(!e.is_leaf_dequeue());
        assert!(!e.is_summary());

        let d: Block<&str> = Block::leaf_dequeue(4, 7);
        assert_eq!((d.sumenq, d.sumdeq), (4, 8));
        assert!(d.elements().is_empty());
        assert!(d.is_leaf_dequeue());
        assert!(!d.is_summary());
    }

    #[test]
    fn batched_leaf_blocks_extend_sums_by_batch_size() {
        let e = Block::leaf_enqueue_batch(vec!["a", "b", "c"], 4, 7);
        assert_eq!((e.sumenq, e.sumdeq), (7, 7));
        assert_eq!(e.elements(), ["a", "b", "c"]);
        assert!(!e.is_leaf_dequeue());

        let d: Block<&str> = Block::leaf_dequeue_batch(5, 4, 7);
        assert_eq!((d.sumenq, d.sumdeq), (4, 12));
        assert!(d.is_leaf_dequeue());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_enqueue_batch_panics() {
        let _ = Block::<u8>::leaf_enqueue_batch(vec![], 0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dequeue_batch_panics() {
        let _ = Block::<u8>::leaf_dequeue_batch(0, 0, 0);
    }

    #[test]
    fn summary_of_a_root_block_keeps_its_size() {
        let root: Block<&str> = Block::internal(9, 4, 3, 6, 5);
        let s = Block::summary_of(&root);
        assert_eq!(
            (s.sumenq, s.sumdeq, s.endleft, s.endright, s.size()),
            (9, 4, 3, 6, 5)
        );
        assert!(s.elements().is_empty());
        assert!(s.is_summary());
        assert!(!s.is_leaf_dequeue());
    }

    #[test]
    fn summary_copies_scalars_and_drops_elements() {
        let original = Block::leaf_enqueue_batch(vec!["a", "b"], 4, 7);
        original.try_set_sup(9);
        let s = Block::summary_of(&original);
        assert_eq!((s.sumenq, s.sumdeq, s.endleft, s.endright), (6, 7, 0, 0));
        assert_eq!(s.sup(), Some(9), "already-written super hint survives");
        assert!(s.elements().is_empty());
        assert!(s.is_summary());
        assert!(
            !s.is_leaf_dequeue(),
            "a summary of an enqueue leaf must not read as a dequeue batch"
        );

        let unset: Block<&str> = Block::internal(1, 2, 3, 4, 0);
        let s2 = Block::summary_of(&unset);
        assert_eq!(s2.sup(), None, "unset super stays unset");
        assert_eq!((s2.endleft, s2.endright), (3, 4));
        assert!(s2.is_summary());
    }

    #[test]
    fn summary_and_enqueue_batch_drop_their_payload_once() {
        let value = Arc::new(7_u32);
        let e = Block::leaf_enqueue_batch(vec![Arc::clone(&value), Arc::clone(&value)], 0, 0);
        assert_eq!(Arc::strong_count(&value), 3);
        let s = Block::summary_of(&e);
        assert_eq!(Arc::strong_count(&value), 3, "a summary holds no values");
        drop(s);
        assert_eq!(Arc::strong_count(&value), 3);
        drop(e);
        assert_eq!(
            Arc::strong_count(&value),
            1,
            "the batch drops each value once"
        );
    }

    #[test]
    fn sup_is_write_once() {
        let b: Block<u8> = Block::dummy();
        b.try_set_sup(3);
        b.try_set_sup(9);
        assert_eq!(b.sup(), Some(3));
    }

    #[test]
    fn end_selects_direction() {
        let b: Block<u8> = Block::internal(1, 2, 10, 20, 0);
        assert_eq!(b.end(true), 10);
        assert_eq!(b.end(false), 20);
    }
}
