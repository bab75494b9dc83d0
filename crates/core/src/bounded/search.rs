//! Response computation for the bounded queue: `CompleteDeq`,
//! `IndexDequeue`, `FindResponse` and `GetEnqueue` (Figure 5 lines 212–217,
//! 281–297, 325–341 and Figure 6 of the paper).
//!
//! Every lookup of a specific block index can fail if a concurrent GC phase
//! discarded the block. By Invariant 27 a discarded block is *finished*, and
//! (Lemma 28) the dequeue whose completion needed that block already has its
//! response written into its leaf block, so callers translate
//! [`Discarded`] into "read the response cell instead" (owners) or "skip
//! the help" (helpers).

use crossbeam_epoch as epoch;

use super::block::Block;
use super::node::BlockTree;
use super::queue::Queue;

/// A block needed by a search was discarded by a GC phase (Lemma 28).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Discarded;

/// Looks up block `index` in a tree version, failing with [`Discarded`] if
/// a GC phase already removed it.
fn lookup<T: Clone + Send + Sync>(
    tree: &BlockTree<T>,
    index: usize,
) -> Result<&Block<T>, Discarded> {
    tree.get(index as u64).ok_or(Discarded)
}

impl<T: Clone + Send + Sync> Queue<T> {
    /// `CompleteDeq(leaf, h)` — Figure 5 lines 212–217, generalized to a
    /// batch: compute the responses of the `numdeq` propagated dequeues
    /// stored in `leaf`'s block `h`, in batch order.
    ///
    /// Blocks are propagated wholesale (never split), so all `numdeq`
    /// dequeues of the leaf block map into the *same* root block with
    /// consecutive ranks: one `IndexDequeue` walk locates the first, and
    /// each successive response is one more `FindResponse` against that
    /// root block. For `numdeq = 1` this is exactly the paper's routine.
    pub(crate) fn complete_deq(
        &self,
        pid: usize,
        leaf: usize,
        h: usize,
        numdeq: usize,
    ) -> Result<Vec<Option<T>>, Discarded> {
        let (b, i) = self.index_dequeue(leaf, h, 1)?;
        (0..numdeq)
            .map(|j| self.find_response(pid, b, i + j))
            .collect()
    }

    /// `IndexDequeue(v, b, i)` — Figure 5 lines 281–297. Instead of the
    /// unbounded variant's `super` hints, the superblock is found by
    /// searching the parent's tree for the minimum block whose interval end
    /// covers `b`.
    pub(crate) fn index_dequeue(
        &self,
        v: usize,
        b: usize,
        i: usize,
    ) -> Result<(usize, usize), Discarded> {
        let topo = *self.topology();
        let (mut v, mut b, mut i) = (v, b, i);
        while v != topo.root() {
            let parent = topo.parent(v);
            let is_left = topo.is_left_child(v);
            let guard = epoch::pin();
            let ptree = self.node(parent).load(&guard);
            // B_p: the superblock (min block with end_dir ≥ b, line 288).
            let (sup_index, sup) = match ptree.tree.first_where(|blk| blk.end(is_left) >= b) {
                Some((k, blk)) => (k as usize, blk),
                // The block was propagated, so only a discard can hide it.
                None => return Err(Discarded),
            };
            // B′_p: the superblock's predecessor (line 289; consecutive
            // indices make it `sup_index − 1`).
            let sup_prev = lookup(ptree.tree, sup_index - 1)?;
            // Lines 290–294: position of the dequeue within D(B_p).
            let vtree = self.node(v).load(&guard);
            let before_mine = lookup(vtree.tree, b - 1)?;
            let at_start = lookup(vtree.tree, sup_prev.end(is_left))?;
            i += before_mine.sumdeq - at_start.sumdeq;
            if !is_left {
                // Paper erratum as in the unbounded variant: `endleft`
                // indexes the parent's *left* child (v's sibling).
                let stree = self.node(topo.sibling(v)).load(&guard);
                let sib_end = lookup(stree.tree, sup.endleft)?;
                let sib_start = lookup(stree.tree, sup_prev.endleft)?;
                i += sib_end.sumdeq - sib_start.sumdeq;
            }
            v = parent;
            b = sup_index;
        }
        Ok((b, i))
    }

    /// `FindResponse(b, i)` — Figure 5 lines 325–341: the response of the
    /// `i`-th dequeue in `D(root.blocks[b])`, updating `last[pid]`.
    pub(crate) fn find_response(
        &self,
        pid: usize,
        b: usize,
        i: usize,
    ) -> Result<Option<T>, Discarded> {
        let topo = *self.topology();
        let guard = epoch::pin();
        let rtree = self.node(topo.root()).load(&guard);
        let blk = lookup(rtree.tree, b)?;
        let prev = lookup(rtree.tree, b - 1)?;
        let numenq = blk.sumenq - prev.sumenq;
        if prev.size + numenq < i {
            // Null dequeue (lines 328–331).
            self.raise_last(pid, b);
            return Ok(None);
        }
        // Rank of the enqueue whose value we return (line 333).
        let e = i + prev.sumenq - prev.size;
        // Minimum b_e with sumenq ≥ e (line 334); sumenq is monotone in the
        // index so this is a tree search.
        let (be_key, _) = rtree
            .tree
            .first_where(|candidate| candidate.sumenq >= e)
            .ok_or(Discarded)?;
        let be = be_key as usize;
        // If the true b_e was discarded, the found block is the tree's
        // minimum and its predecessor is gone — detected right here.
        let be_prev = lookup(rtree.tree, be - 1)?;
        debug_assert!(
            be_prev.sumenq < e,
            "first_where returned a non-minimal block"
        );
        let ie = e - be_prev.sumenq;
        drop(guard);
        let response = self.get_enqueue(topo.root(), be, ie)?;
        self.raise_last(pid, be);
        Ok(Some(response))
    }

    /// `GetEnqueue(v, b, i)` — Figure 6: the argument of the `i`-th enqueue
    /// in `E(v.blocks[b])`, descending the ordering tree.
    pub(crate) fn get_enqueue(&self, v: usize, b: usize, i: usize) -> Result<T, Discarded> {
        let topo = *self.topology();
        let (mut v, mut b, mut i) = (v, b, i);
        loop {
            let guard = epoch::pin();
            if topo.is_leaf(v) {
                let tref = self.node(v).load(&guard);
                let blk = lookup(tref.tree, b)?;
                // Rank within the leaf block: batched enqueue blocks store
                // their elements in batch order (i = 1 for single-op blocks).
                return Ok(blk
                    .elements()
                    .get(i - 1)
                    .expect("GetEnqueue lands on an enqueue block holding rank i")
                    .clone());
            }
            let tref = self.node(v).load(&guard);
            let blk = lookup(tref.tree, b)?;
            let prev = lookup(tref.tree, b - 1)?;
            let (lc, rc) = (topo.left(v), topo.right(v));
            let ltree = self.node(lc).load(&guard);
            let rtree = self.node(rc).load(&guard);
            // Lines 346–348: split E(blk) into left/right contributions.
            let sumleft = lookup(ltree.tree, blk.endleft)?.sumenq;
            let prevleft = lookup(ltree.tree, prev.endleft)?.sumenq;
            let prevright = lookup(rtree.tree, prev.endright)?.sumenq;
            let (child, ctree, prevdir) = if i <= sumleft - prevleft {
                (lc, ltree, prevleft)
            } else {
                i -= sumleft - prevleft;
                (rc, rtree, prevright)
            };
            // Line 356: minimum b′ with sumenq ≥ i + prevdir. The subblock
            // interval's lower bound is implied: the block before the
            // interval has sumenq = prevdir < target.
            let target = i + prevdir;
            let (bp_key, _) = ctree
                .tree
                .first_where(|candidate| candidate.sumenq >= target)
                .ok_or(Discarded)?;
            let bp = bp_key as usize;
            // Predecessor lookup doubles as the discard check (if the true
            // b′ was discarded, bp is the tree minimum and this fails).
            let before = lookup(ctree.tree, bp - 1)?;
            debug_assert!(before.sumenq < target);
            // Line 357: rank within the subblock.
            i -= before.sumenq - prevdir;
            v = child;
            b = bp;
        }
    }
}
