//! Blocks of the unbounded queue (Figure 3 of the paper, extended with
//! batched leaf blocks), one type per node kind.
//!
//! Figure 3's fields split by node kind: an internal block never carries
//! a payload, and a leaf block never uses `endleft`/`endright`. So an
//! internal node stores [`InnerBlock`]s and a leaf stores [`LeafBlock`]s,
//! each 40 bytes (a 48-byte heap chunk) for any `T`. The fields both kinds
//! have — the prefix sums and the `super` hint — form a [`Common`] prefix
//! that both dereference to, which is all that code walking the tree
//! without knowing a node's kind reads.

use std::ops::Deref;

use wfqueue_sync::atomic::{AtomicUsize, Ordering};

use wfqueue_metrics as metrics;

/// The `super` word's value while `super` is unset. A real `super` is an
/// index at or below the parent's `head`, and heads start at 1.
const UNSET: usize = 0;

/// Bit 63 of an inner block's word marks a truncation summary sentinel.
/// Sizes and `super` indices stay far below it, and [`InnerBlock::size`]
/// and [`Common::sup`] mask it off.
const SUMMARY: usize = 1 << (usize::BITS - 1);

/// What every block has, whatever its node's kind: the prefix sums and the
/// word that holds `super`.
///
/// All fields are immutable after construction except `super`, which is
/// written at most once by a CAS in `Advance`.
#[derive(Debug)]
pub(crate) struct Common {
    /// `|E(blocks[0]) · … · E(blocks[i])|` for a block at index `i`.
    pub sumenq: usize,
    /// `|D(blocks[0]) · … · D(blocks[i])|` for a block at index `i`.
    pub sumdeq: usize,
    /// The paper's `super`: the approximate index of this block's
    /// superblock in the parent's `blocks` array, off by at most one
    /// (Lemma 12); [`UNSET`] until set ([`Common::sup`]). On a root block,
    /// which has no superblock, the word holds the queue size instead
    /// ([`InnerBlock::size`]). On an inner block, bit 63 is the summary
    /// mark ([`SUMMARY`]).
    word: AtomicUsize,
}

impl Common {
    fn new(sumenq: usize, sumdeq: usize, word: usize) -> Self {
        Common {
            sumenq,
            sumdeq,
            word: AtomicUsize::new(word),
        }
    }

    /// Reads the `super` field (one shared load). Returns `None` if unset.
    /// Meaningful for non-root blocks only.
    pub fn sup(&self) -> Option<usize> {
        metrics::record_shared_load();
        // ORDERING: SC per the paper's SC-memory assumption (`super`
        // field of Figure 4's block records).
        match self.word.load(Ordering::SeqCst) & !SUMMARY {
            UNSET => None,
            s => Some(s),
        }
    }

    /// CAS `super` from unset to `value` (Figure 4 line 61); counted as one
    /// CAS step. Loses silently if already set, as in the paper. Never
    /// called on a root block, whose word holds `size`. A summary's word
    /// is never unset, so the CAS loses there too, which is what it would
    /// do anyway: truncation only cuts below `head`, where `super` is set
    /// (Invariant 3).
    pub fn try_set_sup(&self, value: usize) {
        debug_assert_ne!(value, UNSET, "a parent head is at least 1");
        // ORDERING: SC per the paper's SC-memory assumption.
        let r = self
            .word
            .compare_exchange(UNSET, value, Ordering::SeqCst, Ordering::SeqCst);
        metrics::record_cas(r.is_ok());
    }

    /// The raw word, for copying into a summary: maintenance bookkeeping,
    /// not an algorithm step.
    fn raw_word(&self) -> usize {
        // ORDERING: SC per the paper's SC-memory assumption.
        self.word.load(Ordering::SeqCst)
    }
}

/// A block of either kind, as the node that stores it sees it.
pub(crate) trait Block: Deref<Target = Common> + Sized {
    /// The empty block installed at index 0 of every node ("blocks\[0\] is
    /// an empty block whose integer fields are 0", Figure 3).
    fn dummy() -> Self;

    /// A summary sentinel standing in for `self` after tree truncation:
    /// identical scalar fields (prefix sums, interval ends, and the root
    /// `size` or the already-written `super` hint), no payload, and a mark
    /// that [`Block::is_summary`] reads.
    ///
    /// Installed only by the single truncator thread, in place of a block
    /// whose operations are all dead (already dequeued and no in-flight
    /// operation indexed at or below it), so the elements can never be
    /// asked for again; the scalars keep every prefix-sum and interval
    /// computation against the truncation boundary exact.
    fn summary(&self) -> Self;

    /// Whether this block is a truncation summary sentinel.
    fn is_summary(&self) -> bool;
}

/// A block of an internal node, root included, built by `CreateBlock`.
///
/// It implicitly represents the operations of its direct subblocks
/// through the `endleft`/`endright` interval ends. At the root the word
/// holds the queue `size` after the block's operations; below the root it
/// holds `super`. `Advance` never writes `super` on a root block, and every
/// non-root block is built with `size = 0`, which doubles as "`super`
/// unset". A summary sets bit 63 of the word.
#[derive(Debug)]
pub(crate) struct InnerBlock {
    common: Common,
    /// Index of the last direct subblock in the left child.
    pub endleft: usize,
    /// Index of the last direct subblock in the right child.
    pub endright: usize,
}

impl InnerBlock {
    /// A fresh internal block created by `CreateBlock` (Figure 4 lines
    /// 40–57). `size` must be 0 unless the block is for the root: below
    /// the root the same word holds `super`, and 0 means unset.
    pub fn new(sumenq: usize, sumdeq: usize, endleft: usize, endright: usize, size: usize) -> Self {
        debug_assert_eq!(size & SUMMARY, 0, "sizes stay below the summary bit");
        InnerBlock {
            common: Common::new(sumenq, sumdeq, size),
            endleft,
            endright,
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
        self.common.word.load(Ordering::Relaxed) & !SUMMARY
    }

    /// The interval end for the given direction.
    pub fn end(&self, left: bool) -> usize {
        if left {
            self.endleft
        } else {
            self.endright
        }
    }
}

impl Deref for InnerBlock {
    type Target = Common;

    fn deref(&self) -> &Common {
        &self.common
    }
}

impl Block for InnerBlock {
    fn dummy() -> Self {
        InnerBlock::new(0, 0, 0, 0, 0)
    }

    fn summary(&self) -> Self {
        InnerBlock {
            common: Common::new(self.sumenq, self.sumdeq, self.raw_word() | SUMMARY),
            endleft: self.endleft,
            endright: self.endright,
        }
    }

    fn is_summary(&self) -> bool {
        // ORDERING: Relaxed. The mark is written at construction, before
        // the block is published (see `size`); a concurrent `super` CAS
        // never touches it.
        self.common.word.load(Ordering::Relaxed) & SUMMARY != 0
    }
}

/// A block of a leaf: a *batch* of operations by one process, either
/// `numenq ≥ 1` enqueues (whose values are stored in the payload, in
/// order) or `numdeq ≥ 1` dequeues (no payload).
///
/// The paper's one-operation leaf blocks are the `numenq + numdeq = 1`
/// special case; batching changes nothing structurally because internal
/// blocks already aggregate arbitrary operation counts through the
/// O(1)-mergeable prefix sums.
#[derive(Debug)]
pub(crate) struct LeafBlock<T> {
    common: Common,
    /// Enqueued values for an enqueue batch, in enqueue order; an empty
    /// slice (which allocates nothing) for a summary sentinel, which
    /// carries the scalar fields of the block it replaced but no elements,
    /// as everything it summarises is dead; `None` for dequeue batches and
    /// the dummy. The dummy at index 0 is morally the initial summary of
    /// the empty prefix, but keeps `None` so truncation-free queues are
    /// bit-identical to the paper's.
    payload: Option<Box<[T]>>,
}

impl<T> LeafBlock<T> {
    /// A fresh leaf block for `Enqueue(element)` (Figure 4 line 2).
    pub fn enqueue(element: T, prev_sumenq: usize, prev_sumdeq: usize) -> Self {
        Self::enqueue_batch(vec![element], prev_sumenq, prev_sumdeq)
    }

    /// A fresh leaf block carrying a whole batch of enqueues: one
    /// `try_install` + one `Propagate` will cover all of them.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty (blocks are non-empty, Corollary 8).
    pub fn enqueue_batch(elements: Vec<T>, prev_sumenq: usize, prev_sumdeq: usize) -> Self {
        assert!(!elements.is_empty(), "leaf blocks are non-empty");
        LeafBlock {
            common: Common::new(prev_sumenq + elements.len(), prev_sumdeq, UNSET),
            payload: Some(elements.into_boxed_slice()),
        }
    }

    /// A fresh leaf block for a `Dequeue` (Figure 4 line 6).
    pub fn dequeue(prev_sumenq: usize, prev_sumdeq: usize) -> Self {
        Self::dequeue_batch(1, prev_sumenq, prev_sumdeq)
    }

    /// A fresh leaf block carrying a batch of `count` dequeues.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero (blocks are non-empty, Corollary 8).
    pub fn dequeue_batch(count: usize, prev_sumenq: usize, prev_sumdeq: usize) -> Self {
        assert!(count > 0, "leaf blocks are non-empty");
        LeafBlock {
            common: Common::new(prev_sumenq, prev_sumdeq + count, UNSET),
            payload: None,
        }
    }

    /// The enqueued values of an enqueue batch, in order; empty for every
    /// other block.
    pub fn elements(&self) -> &[T] {
        self.payload.as_deref().unwrap_or_default()
    }

    /// Whether this block represents a dequeue batch (non-dummy, no
    /// elements, not a truncation summary).
    pub fn is_dequeue(&self) -> bool {
        self.payload.is_none() && self.sumdeq > 0
    }
}

impl<T> Deref for LeafBlock<T> {
    type Target = Common;

    fn deref(&self) -> &Common {
        &self.common
    }
}

impl<T> Block for LeafBlock<T> {
    fn dummy() -> Self {
        LeafBlock {
            common: Common::new(0, 0, UNSET),
            payload: None,
        }
    }

    fn summary(&self) -> Self {
        LeafBlock {
            common: Common::new(self.sumenq, self.sumdeq, self.raw_word()),
            payload: Some(Box::default()),
        }
    }

    fn is_summary(&self) -> bool {
        self.payload.as_ref().is_some_and(|p| p.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use std::mem::size_of;
    use std::sync::Arc;

    use super::*;

    #[test]
    fn block_stays_within_its_size_budget() {
        // Every operation leaves one boxed block per tree level, and 40
        // bytes is the largest request a 48-byte heap chunk serves. Under
        // the model checker each facade atomic carries an identity word
        // as well, which the budget allows for.
        let budget = 40 + size_of::<AtomicUsize>() - size_of::<usize>();
        assert!(size_of::<InnerBlock>() <= budget);
        assert!(size_of::<LeafBlock<u64>>() <= budget);
        assert!(size_of::<LeafBlock<[u64; 8]>>() <= budget);
    }

    #[test]
    fn dummy_is_all_zero() {
        let b = InnerBlock::dummy();
        assert_eq!(
            (b.sumenq, b.sumdeq, b.endleft, b.endright, b.size()),
            (0, 0, 0, 0, 0)
        );
        assert!(b.sup().is_none());
        assert!(!b.is_summary());

        let l: LeafBlock<u32> = LeafBlock::dummy();
        assert_eq!((l.sumenq, l.sumdeq), (0, 0));
        assert!(l.elements().is_empty());
        assert!(l.sup().is_none());
        assert!(!l.is_summary());
        assert!(!l.is_dequeue());
    }

    #[test]
    fn leaf_blocks_extend_prefix_sums() {
        let e = LeafBlock::enqueue("x", 4, 7);
        assert_eq!((e.sumenq, e.sumdeq), (5, 7));
        assert_eq!(e.elements(), ["x"]);
        assert!(!e.is_dequeue());
        assert!(!e.is_summary());

        let d: LeafBlock<&str> = LeafBlock::dequeue(4, 7);
        assert_eq!((d.sumenq, d.sumdeq), (4, 8));
        assert!(d.elements().is_empty());
        assert!(d.is_dequeue());
        assert!(!d.is_summary());
    }

    #[test]
    fn batched_leaf_blocks_extend_sums_by_batch_size() {
        let e = LeafBlock::enqueue_batch(vec!["a", "b", "c"], 4, 7);
        assert_eq!((e.sumenq, e.sumdeq), (7, 7));
        assert_eq!(e.elements(), ["a", "b", "c"]);
        assert!(!e.is_dequeue());

        let d: LeafBlock<&str> = LeafBlock::dequeue_batch(5, 4, 7);
        assert_eq!((d.sumenq, d.sumdeq), (4, 12));
        assert!(d.is_dequeue());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_enqueue_batch_panics() {
        let _ = LeafBlock::<u8>::enqueue_batch(vec![], 0, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dequeue_batch_panics() {
        let _ = LeafBlock::<u8>::dequeue_batch(0, 0, 0);
    }

    #[test]
    fn summary_of_a_root_block_keeps_its_size() {
        let root = InnerBlock::new(9, 4, 3, 6, 5);
        let s = root.summary();
        assert_eq!(
            (s.sumenq, s.sumdeq, s.endleft, s.endright, s.size()),
            (9, 4, 3, 6, 5)
        );
        assert!(s.is_summary());
        assert!(!root.is_summary());
    }

    #[test]
    fn inner_summary_copies_scalars_and_keeps_super() {
        let original = InnerBlock::new(1, 2, 3, 4, 0);
        original.try_set_sup(9);
        let s = original.summary();
        assert_eq!((s.sumenq, s.sumdeq, s.endleft, s.endright), (1, 2, 3, 4));
        assert_eq!(s.sup(), Some(9), "already-written super hint survives");
        assert!(s.is_summary());

        let unset = InnerBlock::new(1, 2, 3, 4, 0);
        let s2 = unset.summary();
        assert_eq!(s2.sup(), None, "unset super stays unset");
        assert_eq!((s2.endleft, s2.endright), (3, 4));
        assert!(s2.is_summary());
    }

    #[test]
    fn summary_copies_scalars_and_drops_elements() {
        let original = LeafBlock::enqueue_batch(vec!["a", "b"], 4, 7);
        original.try_set_sup(9);
        let s = original.summary();
        assert_eq!((s.sumenq, s.sumdeq), (6, 7));
        assert_eq!(s.sup(), Some(9), "already-written super hint survives");
        assert!(s.elements().is_empty());
        assert!(s.is_summary());
        assert!(
            !s.is_dequeue(),
            "a summary of an enqueue leaf must not read as a dequeue batch"
        );

        let unset: LeafBlock<&str> = LeafBlock::dequeue(1, 2);
        let s2 = unset.summary();
        assert_eq!(s2.sup(), None, "unset super stays unset");
        assert!(s2.is_summary());
    }

    #[test]
    fn summary_and_enqueue_batch_drop_their_payload_once() {
        let value = Arc::new(7_u32);
        let e = LeafBlock::enqueue_batch(vec![Arc::clone(&value), Arc::clone(&value)], 0, 0);
        assert_eq!(Arc::strong_count(&value), 3);
        let s = e.summary();
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
        let b = InnerBlock::dummy();
        b.try_set_sup(3);
        b.try_set_sup(9);
        assert_eq!(b.sup(), Some(3));

        let l: LeafBlock<u8> = LeafBlock::dequeue(0, 0);
        l.try_set_sup(4);
        l.try_set_sup(8);
        assert_eq!(l.sup(), Some(4));
    }

    #[test]
    fn end_selects_direction() {
        let b = InnerBlock::new(1, 2, 10, 20, 0);
        assert_eq!(b.end(true), 10);
        assert_eq!(b.end(false), 20);
    }
}
