//! Ordering-tree nodes of the unbounded queue (Figure 3 of the paper).

use wfqueue_sync::atomic::{AtomicUsize, Ordering};

use crossbeam_utils::CachePadded;
use wfqueue_metrics as metrics;
use wfqueue_segvec::SegVec;

use super::block::{Block, Common, InnerBlock, LeafBlock};

/// One node of the ordering tree: an infinite write-once `blocks` array and
/// the `head` index of the next free slot.
///
/// `blocks[0]` holds the dummy block and `head` starts at 1, exactly as in
/// Figure 3. Blocks are only ever installed at `head` by a CAS and `head`
/// only ever advances by one past a non-null block, which maintains
/// Invariant 3: `blocks[0..head)` are installed, everything from `head + 1`
/// on is empty.
///
/// With epoch-based reclamation enabled
/// ([`crate::unbounded::ReclaimPolicy`]), the installed prefix starts at
/// `boundary` instead of 0: slots below `boundary` have been unlinked and
/// freed (with the `SegVec` chunks lying wholly below it), and the block
/// at `boundary` is a summary sentinel carrying the
/// replaced block's scalar fields ([`Block::summary`]). `boundary` is 0
/// (the dummy) for the paper's never-reclaiming queue and only ever
/// advances, written exclusively by the single truncator thread that holds
/// the reclamation lock.
///
/// A node stores one kind of block: [`InnerBlock`]s at the root and the
/// other internal nodes, [`LeafBlock`]s at the leaves. [`NodeRef`] reads a
/// node of either kind.
pub(crate) struct Node<B> {
    head: CachePadded<AtomicUsize>,
    /// Oldest live index of `blocks` (see the struct docs). Read with a
    /// plain atomic load that is *not* counted as an algorithm step: it is
    /// reclamation metadata, constant 0 whenever reclamation is off.
    boundary: CachePadded<AtomicUsize>,
    pub blocks: SegVec<B>,
}

impl<B: Block> Node<B> {
    pub fn new() -> Self {
        let blocks = SegVec::new();
        blocks
            .try_install(0, Box::new(B::dummy()))
            .ok()
            .expect("installing the dummy block in a fresh node cannot fail");
        Node {
            head: CachePadded::new(AtomicUsize::new(1)),
            boundary: CachePadded::new(AtomicUsize::new(0)),
            blocks,
        }
    }

    /// Reads `head` (one shared step).
    pub fn head(&self) -> usize {
        metrics::record_shared_load();
        // ORDERING: SC per the paper's SC-memory assumption (`head` is
        // Figure 4 shared state; relaxation is gated on the model
        // checker per the ROADMAP).
        self.head.load(Ordering::SeqCst)
    }

    /// Reads `head` without recording an algorithm step — used only by the
    /// reclamation trigger, which is maintenance work outside the paper's
    /// step-count model.
    pub fn head_untracked(&self) -> usize {
        // ORDERING: SC, as in `head` (same shared field).
        self.head.load(Ordering::SeqCst)
    }

    /// The truncation boundary: the oldest index of `blocks` that is still
    /// installed (0 until the first truncation). Untracked load — see the
    /// struct docs.
    pub fn boundary(&self) -> usize {
        self.boundary.load(Ordering::Acquire)
    }

    /// Advances the truncation boundary. Called only by the truncator that
    /// holds the reclamation lock, after the prefix below `b` has been
    /// unlinked and `blocks[b]` replaced by a summary sentinel.
    pub fn set_boundary(&self, b: usize) {
        debug_assert!(b >= self.boundary());
        self.boundary.store(b, Ordering::Release);
    }

    /// CAS `head` from `h` to `h + 1` (Figure 4 line 63); one CAS step.
    pub fn try_advance_head(&self, h: usize) {
        // ORDERING: SC per the paper's SC-memory assumption.
        let r = self
            .head
            .compare_exchange(h, h + 1, Ordering::SeqCst, Ordering::SeqCst);
        metrics::record_cas(r.is_ok());
    }

    /// The block at `index`, if installed.
    pub fn block(&self, index: usize) -> Option<&B> {
        self.blocks.get(index)
    }

    /// The block at `index` read without recording an algorithm step — the
    /// truncator's accessor: its probes are maintenance work outside the
    /// paper's cost model, and recording them would charge an unbounded
    /// burst of steps to whichever operation happens to win the
    /// reclamation try-lock.
    pub fn block_untracked(&self, index: usize) -> Option<&B> {
        self.blocks.get_untracked(index)
    }

    /// The block at `index`, which the caller knows is installed.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty, i.e. if the stated invariant is violated.
    pub fn block_installed(&self, index: usize, why: &'static str) -> &B {
        match self.blocks.get(index) {
            Some(b) => b,
            None => panic!("block {index} must be installed: {why}"),
        }
    }
}

/// A node of either kind, for code that reads only what both kinds of
/// block have ([`Common`]): the prefix sums and `super`, plus the node's
/// `head`.
pub(crate) enum NodeRef<'a, T> {
    /// The root or another internal node.
    Inner(&'a Node<InnerBlock>),
    /// A leaf.
    Leaf(&'a Node<LeafBlock<T>>),
}

impl<T> Clone for NodeRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for NodeRef<'_, T> {}

impl<'a, T> NodeRef<'a, T> {
    /// Reads `head` (one shared step); see [`Node::head`].
    pub fn head(self) -> usize {
        match self {
            NodeRef::Inner(n) => n.head(),
            NodeRef::Leaf(n) => n.head(),
        }
    }

    /// The truncation boundary; see [`Node::boundary`].
    pub fn boundary(self) -> usize {
        match self {
            NodeRef::Inner(n) => n.boundary(),
            NodeRef::Leaf(n) => n.boundary(),
        }
    }

    /// CAS `head` from `h` to `h + 1`; see [`Node::try_advance_head`].
    pub fn try_advance_head(self, h: usize) {
        match self {
            NodeRef::Inner(n) => n.try_advance_head(h),
            NodeRef::Leaf(n) => n.try_advance_head(h),
        }
    }

    /// The block at `index`, if installed; see [`Node::block`].
    pub fn block(self, index: usize) -> Option<&'a Common> {
        match self {
            NodeRef::Inner(n) => n.block(index).map(|b| &**b),
            NodeRef::Leaf(n) => n.block(index).map(|b| &**b),
        }
    }

    /// The block at `index`, which the caller knows is installed; see
    /// [`Node::block_installed`].
    pub fn block_installed(self, index: usize, why: &'static str) -> &'a Common {
        match self {
            NodeRef::Inner(n) => n.block_installed(index, why),
            NodeRef::Leaf(n) => n.block_installed(index, why),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_has_dummy_and_head_one() {
        let n: Node<LeafBlock<u32>> = Node::new();
        assert_eq!(n.head(), 1);
        assert!(n.block(0).is_some());
        assert!(n.block(1).is_none());
        assert_eq!(n.block(0).unwrap().sumenq, 0);
    }

    #[test]
    fn advance_head_is_cas_like() {
        let n: Node<InnerBlock> = Node::new();
        n.try_advance_head(5); // wrong expected value: no-op
        assert_eq!(n.head(), 1);
        n.try_advance_head(1);
        assert_eq!(n.head(), 2);
        n.try_advance_head(1); // stale: no-op
        assert_eq!(n.head(), 2);
    }

    #[test]
    fn boundary_starts_at_dummy_and_advances() {
        let n: Node<InnerBlock> = Node::new();
        assert_eq!(n.boundary(), 0);
        n.set_boundary(0); // idempotent no-op
        assert_eq!(n.boundary(), 0);
        n.blocks.try_install(1, Box::new(InnerBlock::dummy())).ok();
        n.set_boundary(1);
        assert_eq!(n.boundary(), 1);
        assert_eq!(n.head_untracked(), 1);
    }

    #[test]
    #[should_panic(expected = "must be installed")]
    fn block_installed_panics_on_hole() {
        let n: Node<LeafBlock<u32>> = Node::new();
        let _ = n.block_installed(3, "test expects a hole");
    }
}
