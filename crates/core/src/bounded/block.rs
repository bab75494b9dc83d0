//! Blocks of the bounded-space queue (Figure 5 of the paper, extended with
//! batched leaf blocks).

use std::sync::Arc;

use wfqueue_segvec::AtomicOnceCell;

/// The operation batch recorded by a leaf block.
#[derive(Debug)]
pub(crate) enum LeafOp<T> {
    /// A batch of `Enqueue`s (the paper's single enqueue is a batch of one).
    Enqueue(Vec<T>),
    /// A batch of `Dequeue`s; the `responses` (one per dequeue, in batch
    /// order) are filled in by a helper (or by the owner implicitly
    /// returning them) — Figure 5 line 303 generalized to a batch.
    Dequeue {
        /// Write-once response slot: one `Option<T>` per dequeue of the
        /// batch; `None` entries are null dequeues.
        responses: AtomicOnceCell<Vec<Option<T>>>,
    },
}

impl<T> LeafOp<T> {
    /// The responses cell if this records a dequeue batch.
    pub fn responses(&self) -> Option<&AtomicOnceCell<Vec<Option<T>>>> {
        match self {
            LeafOp::Dequeue { responses } => Some(responses),
            LeafOp::Enqueue(_) => None,
        }
    }
}

/// One block stored in a node's persistent block tree.
///
/// Compared to the unbounded variant (Figure 3), bounded blocks are keyed
/// by their position in the conceptual `blocks` array (the tree key, so the
/// block itself does not repeat it), lose the `super` hint (superblocks are
/// found by searching the parent's tree on `endleft`/`endright`), and leaf
/// dequeue blocks gain a `responses` cell so other processes can help
/// complete them. Leaf blocks carry a whole batch of same-kind operations;
/// the block store is unaffected because keys stay per-block.
///
/// Blocks live inline in the block store, so copying a version's tail or
/// a trie leaf copies them: six words, five counters and one pointer to
/// the leaf payload (null for internal blocks). The [`LeafOp`] sits behind
/// an [`Arc`] so that every store version shares the one write-once
/// `responses` cell.
#[derive(Debug)]
pub(crate) struct Block<T> {
    /// Prefix count of enqueues up to and including this block (Invariant 7).
    pub sumenq: usize,
    /// Prefix count of dequeues up to and including this block (Invariant 7).
    pub sumdeq: usize,
    /// Index of the last direct subblock in the left child (internal).
    pub endleft: usize,
    /// Index of the last direct subblock in the right child (internal).
    pub endright: usize,
    /// Queue size after this block's operations (root only).
    pub size: usize,
    /// Leaf payload; `None` for internal and dummy blocks.
    pub op: Option<Arc<LeafOp<T>>>,
}

/// The fields of a block that the queue's searches test: `sumenq`,
/// `endleft` and `endright`, each non-decreasing in the block index
/// (Lemma 4′, Invariant 7). The block store's inner nodes keep one per
/// child, taken from the child's last block, so a search can choose a
/// child without entering it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Summary {
    /// The block's `sumenq`.
    pub sumenq: usize,
    /// The block's `endleft`.
    pub endleft: usize,
    /// The block's `endright`.
    pub endright: usize,
}

impl Summary {
    /// Interval end towards the given direction.
    pub fn end(&self, left: bool) -> usize {
        if left {
            self.endleft
        } else {
            self.endright
        }
    }
}

/// A plain copy for internal blocks; a leaf block's copy shares its
/// payload. Written by hand so that `T` need not be `Clone`.
impl<T> Clone for Block<T> {
    fn clone(&self) -> Self {
        Block {
            op: self.op.clone(),
            ..*self
        }
    }
}

impl<T> Block<T> {
    /// The empty block that seeds every node's tree at index 0.
    pub fn dummy() -> Self {
        Block::internal(0, 0, 0, 0, 0)
    }

    /// Leaf block for `Enqueue(element)` (Figure 5 line 203).
    pub fn leaf_enqueue(element: T, prev: &Block<T>) -> Self {
        Self::leaf_enqueue_batch(vec![element], prev)
    }

    /// Leaf block carrying a whole batch of enqueues (one `AddBlock` + one
    /// `Propagate` covers all of them).
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty (blocks are non-empty, Corollary 8).
    pub fn leaf_enqueue_batch(elements: Vec<T>, prev: &Block<T>) -> Self {
        assert!(!elements.is_empty(), "leaf blocks are non-empty");
        Block {
            sumenq: prev.sumenq + elements.len(),
            sumdeq: prev.sumdeq,
            endleft: 0,
            endright: 0,
            size: 0,
            op: Some(Arc::new(LeafOp::Enqueue(elements))),
        }
    }

    /// Leaf block carrying a batch of `count` dequeues (Figure 5 line 208
    /// is the `count = 1` case).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero (blocks are non-empty, Corollary 8).
    pub fn leaf_dequeue_batch(count: usize, prev: &Block<T>) -> Self {
        assert!(count > 0, "leaf blocks are non-empty");
        Block {
            sumenq: prev.sumenq,
            sumdeq: prev.sumdeq + count,
            endleft: 0,
            endright: 0,
            size: 0,
            op: Some(Arc::new(LeafOp::Dequeue {
                responses: AtomicOnceCell::new(),
            })),
        }
    }

    /// Internal (or root) block built by `CreateBlock` (Figure 5 lines
    /// 307–324).
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
            size,
            op: None,
        }
    }

    /// Interval end towards the given direction.
    pub fn end(&self, left: bool) -> usize {
        self.summary().end(left)
    }

    /// The fields the block store's searches read.
    pub fn summary(&self) -> Summary {
        Summary {
            sumenq: self.sumenq,
            endleft: self.endleft,
            endright: self.endright,
        }
    }

    /// The responses cell if this is a leaf dequeue block.
    pub fn responses(&self) -> Option<&AtomicOnceCell<Vec<Option<T>>>> {
        self.op.as_deref().and_then(LeafOp::responses)
    }

    /// Whether this leaf block records a dequeue batch.
    pub fn is_dequeue(&self) -> bool {
        self.responses().is_some()
    }

    /// The enqueued elements (batch order), for leaf enqueue blocks; empty
    /// for every other block kind.
    pub fn elements(&self) -> &[T] {
        match self.op.as_deref() {
            Some(LeafOp::Enqueue(e)) => e,
            _ => &[],
        }
    }

    /// Heap bytes of the leaf payload: the shared [`LeafOp`] allocation,
    /// its element buffer, and the responses once written. `0` for
    /// internal blocks, whose bytes are all inline.
    pub fn payload_bytes(&self) -> usize {
        let Some(op) = self.op.as_deref() else {
            return 0;
        };
        let shared = 2 * size_of::<usize>() + size_of::<LeafOp<T>>();
        shared
            + match op {
                LeafOp::Enqueue(e) => e.capacity() * size_of::<T>(),
                LeafOp::Dequeue { responses } => responses.get().map_or(0, |r| {
                    size_of::<Vec<Option<T>>>() + r.capacity() * size_of::<Option<T>>()
                }),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_block_is_zeroed() {
        let d: Block<u8> = Block::dummy();
        assert_eq!(
            (d.sumenq, d.sumdeq, d.endleft, d.endright, d.size),
            (0, 0, 0, 0, 0)
        );
        assert!(d.op.is_none());
        assert!(!d.is_dequeue());
        assert!(d.elements().is_empty());
        assert!(d.responses().is_none());
    }

    #[test]
    fn leaf_blocks_update_sums_and_payload() {
        let d: Block<&str> = Block::dummy();
        let e = Block::leaf_enqueue("x", &d);
        assert_eq!((e.sumenq, e.sumdeq), (1, 0));
        assert_eq!(e.elements(), ["x"]);
        let q = Block::leaf_dequeue_batch(1, &e);
        assert_eq!((q.sumenq, q.sumdeq), (1, 1));
        assert!(q.is_dequeue());
        assert!(q.responses().unwrap().get().is_none());
        // A copy shares the write-once cell with the original.
        let copy = q.clone();
        q.responses().unwrap().set(vec![Some("x")]).unwrap();
        assert_eq!(copy.responses().unwrap().get(), Some(&vec![Some("x")]));
    }

    #[test]
    fn batched_leaf_blocks_update_sums_by_batch_size() {
        let d: Block<u8> = Block::dummy();
        let e = Block::leaf_enqueue_batch(vec![10, 11, 12], &d);
        assert_eq!((e.sumenq, e.sumdeq), (3, 0));
        assert_eq!(e.elements(), [10, 11, 12]);
        let q = Block::leaf_dequeue_batch(4, &e);
        assert_eq!((q.sumenq, q.sumdeq), (3, 4));
        assert!(q.is_dequeue());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_batches_panic() {
        let d: Block<u8> = Block::dummy();
        let _ = Block::leaf_enqueue_batch(vec![], &d);
    }

    #[test]
    fn end_selects_direction() {
        let b: Block<u8> = Block::internal(4, 5, 6, 7, 0);
        assert_eq!(b.end(true), 6);
        assert_eq!(b.end(false), 7);
    }
}
