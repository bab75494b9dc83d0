//! Navigation through the ordering tree: `IndexDequeue`, `FindResponse`
//! and `GetEnqueue` (Figure 4 lines 65–118 of the paper).

use super::block::Block;
use super::queue::Queue;

impl<T: Clone + Send + Sync> Queue<T> {
    /// `IndexDequeue(v, b, i)` — Figure 4 lines 65–82.
    ///
    /// Returns `(b', i')` such that the `i`-th dequeue of
    /// `D(v.blocks[b])` is the `i'`-th dequeue of `D(root.blocks[b'])`.
    ///
    /// Precondition (paper lines 67–68): `v.blocks[b]` is installed, has
    /// been propagated to the root, and contains at least `i` dequeues.
    pub(crate) fn index_dequeue(&self, v: usize, b: usize, i: usize) -> (usize, usize) {
        self.index_walk(v, b, i, |blk| blk.sumdeq)
    }

    /// Mirror of [`Queue::index_dequeue`] for enqueues, used by the
    /// wait-free vector extension (§7 of the paper): returns `(b', i')` such
    /// that the `i`-th enqueue of `E(v.blocks[b])` is the `i'`-th enqueue of
    /// `E(root.blocks[b'])`.
    pub(crate) fn index_enqueue(&self, v: usize, b: usize, i: usize) -> (usize, usize) {
        self.index_walk(v, b, i, |blk| blk.sumenq)
    }

    /// The walk behind both of the above, up from `v` to the root. `sum`
    /// picks the prefix sum that counts the operation kind being traced
    /// (`sumdeq` for `IndexDequeue`, `sumenq` for its enqueue mirror).
    fn index_walk(
        &self,
        v: usize,
        b: usize,
        i: usize,
        sum: impl Fn(&Block<T>) -> usize,
    ) -> (usize, usize) {
        let topo = self.topology();
        let (mut v, mut b, mut i) = (v, b, i);
        while v != topo.root() {
            let parent = topo.parent(v);
            let is_left = topo.is_left_child(v);
            let blk = self
                .node(v)
                .block_installed(b, "index walk precondition: blocks[b] is installed");
            // super is set before head passes b (Invariant 3), and b < head
            // because the block was propagated.
            let mut sup = blk
                .sup()
                .expect("Invariant 3: super is set for every block below head");
            // super may lag the true superblock index by one (Lemma 12);
            // line 73 corrects it.
            let at_sup = self
                .node(parent)
                .block_installed(sup, "Lemma 12: super or super+1 is the superblock index");
            if b > at_sup.end(is_left) {
                sup += 1;
            }
            // Lines 76–79: position of the operation inside the superblock's
            // sequence D(B_sup) = D(left subblocks) · D(right subblocks)
            // (E for enqueues), where our node's contribution starts right
            // after the previous superblock's end in our direction.
            let sup_prev = self
                .node(parent)
                .block_installed(sup - 1, "Invariant 3: predecessor of the superblock");
            let my_start = sup_prev.end(is_left);
            let before_mine = sum(self
                .node(v)
                .block_installed(b - 1, "Invariant 3: prefix below b is installed"));
            let at_start = sum(self
                .node(v)
                .block_installed(my_start, "subblock interval ends are installed"));
            i += before_mine - at_start;
            if !is_left {
                // Line 78. NOTE (paper erratum): the pseudocode indexes
                // `v.blocks` here, but `endleft` indexes blocks of the
                // parent's *left* child — v's sibling — which is what the
                // proof of Lemma 13 describes ("all of the subblocks of B'
                // from v's left sibling also precede the required dequeue").
                let sibling = topo.sibling(v);
                let sup_cur = self
                    .node(parent)
                    .block_installed(sup, "superblock is installed");
                let sib_end = sum(self
                    .node(sibling)
                    .block_installed(sup_cur.endleft, "subblock interval ends are installed"));
                let sib_start = sum(self
                    .node(sibling)
                    .block_installed(sup_prev.endleft, "subblock interval ends are installed"));
                i += sib_end - sib_start;
            }
            v = parent;
            b = sup;
        }
        (b, i)
    }

    /// `FindResponse(b, i)` — Figure 4 lines 83–96: the response of the
    /// `i`-th dequeue in `D(root.blocks[b])`.
    ///
    /// `floor` is the caller's reclamation clamp (its published hindex − 1;
    /// 0 when reclamation is off): root slots below it may be concurrently
    /// truncated, but the hindex protocol guarantees the response's enqueue
    /// lives in a block *above* the floor, so clamping the backwards search
    /// there loses nothing (see `unbounded::reclaim`).
    pub(crate) fn find_response(&self, b: usize, i: usize, floor: usize) -> Option<T> {
        let root = self.topology().root();
        let node = self.node(root);
        let blk = node.block_installed(b, "FindResponse precondition: root block installed");
        let prev = node.block_installed(b - 1, "Invariant 3: root prefix installed");
        let numenq = blk.sumenq - prev.sumenq;
        if prev.size() + numenq < i {
            // Queue is empty when the dequeue is linearized (line 87).
            return None;
        }
        // Rank (among all enqueues in L) of the enqueue whose value we
        // return (line 89): non-null dequeues before block b number
        // prev.sumenq − prev.size.
        let e = i + prev.sumenq - prev.size();
        let be = self.search_root_enqueue_block(b, e, floor);
        let ie = e - node
            .block_installed(be - 1, "Invariant 3: root prefix installed")
            .sumenq;
        Some(self.get_enqueue(root, be, ie))
    }

    /// The doubling + binary search of line 91: the minimum `be ≤ b` with
    /// `root.blocks[be].sumenq ≥ e`.
    ///
    /// The doubling phase examines indices `b−1, b−2, b−4, …` so the search
    /// costs `O(log(b − be))`, which Lemma 20 bounds by the queue sizes at
    /// the two blocks (`O(log q)` overall).
    ///
    /// The probes are clamped at `floor` (the caller's reclamation clamp —
    /// 0 when reclamation is off, in which case the clamp is a no-op and the
    /// probe sequence is exactly the paper's): slots below the floor may be
    /// concurrently unlinked, while the floor slot itself is at worst
    /// replaced by a scalar-identical summary whose `sumenq` is still below
    /// any enqueue rank this search can be asked for.
    pub(crate) fn search_root_enqueue_block(&self, b: usize, e: usize, floor: usize) -> usize {
        let node = self.node(self.topology().root());
        debug_assert!(e >= 1);
        // Find a lower fence `lo` with blocks[lo].sumenq < e (blocks[floor]
        // summarises only dead enqueues, so its sumenq < e and the loop
        // terminates; for floor == 0 that is the dummy's sumenq = 0).
        let mut width = 1usize;
        let mut lo;
        loop {
            let idx = b.saturating_sub(width).max(floor);
            let below = node
                .block_installed(
                    idx,
                    "Invariant 3: root prefix above the boundary is installed",
                )
                .sumenq
                < e;
            if idx == floor || below {
                lo = idx;
                if !below {
                    // The floor block's prefix counts only dead enqueues,
                    // all of rank < e (for floor == 0: the dummy sums 0).
                    unreachable!("floor block's sumenq is below any live enqueue rank");
                }
                break;
            }
            width *= 2;
        }
        // Binary search the first index in (lo, b] with sumenq >= e; it
        // exists because blocks[b].sumenq >= e (the enqueue precedes the
        // dequeue in L).
        let mut hi = b;
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if node
                .block_installed(mid, "Invariant 3: root prefix installed")
                .sumenq
                >= e
            {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// `GetEnqueue(v, b, i)` — Figure 4 lines 97–118: the argument of the
    /// `i`-th enqueue in `E(v.blocks[b])` (iterative down the tree).
    pub(crate) fn get_enqueue(&self, v: usize, b: usize, i: usize) -> T {
        let topo = self.topology();
        let (mut v, mut b, mut i) = (v, b, i);
        loop {
            if topo.is_leaf(v) {
                // Rank *within* the leaf block: a batched leaf block stores
                // its whole enqueue batch in order, so the i-th enqueue of
                // E(blocks[b]) is simply elements[i - 1] (i = 1 for the
                // paper's single-operation blocks).
                let blk = self
                    .node(v)
                    .block_installed(b, "GetEnqueue precondition: leaf block installed");
                return blk
                    .elements()
                    .get(i - 1)
                    .cloned()
                    .expect("GetEnqueue lands on an enqueue block holding rank i");
            }
            let blk = self
                .node(v)
                .block_installed(b, "GetEnqueue precondition: blocks[b] installed");
            let prev = self
                .node(v)
                .block_installed(b - 1, "Invariant 3: prefix installed");
            let (lc, rc) = (topo.left(v), topo.right(v));
            // Lines 101–106: how many of E(blocks[b])'s enqueues come from
            // the left child.
            let sumleft = self
                .node(lc)
                .block_installed(blk.endleft, "subblock interval ends are installed")
                .sumenq;
            let prevleft = self
                .node(lc)
                .block_installed(prev.endleft, "subblock interval ends are installed")
                .sumenq;
            let prevright = self
                .node(rc)
                .block_installed(prev.endright, "subblock interval ends are installed")
                .sumenq;
            let (child, range_lo, range_hi, prevdir) = if i <= sumleft - prevleft {
                (lc, prev.endleft + 1, blk.endleft, prevleft)
            } else {
                i -= sumleft - prevleft;
                (rc, prev.endright + 1, blk.endright, prevright)
            };
            // Line 114: binary search the subblock interval for the first
            // block with sumenq >= i + prevdir. The interval has at most c
            // (≤ p) blocks (Lemma 21), so this costs O(log c).
            let target = i + prevdir;
            let (mut lo, mut hi) = (range_lo, range_hi);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self
                    .node(child)
                    .block_installed(mid, "subblocks of an installed block are installed")
                    .sumenq
                    >= target
                {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            let bp = lo;
            // Line 115: rank within the found subblock.
            let before = self
                .node(child)
                .block_installed(bp - 1, "Invariant 3: prefix installed")
                .sumenq;
            i -= before - prevdir;
            v = child;
            b = bp;
        }
    }
}
