//! Garbage collection of obsolete blocks: `SplitBlock`, `Help` and
//! `Propagated` (Figure 5 lines 234–248, 268–280, 298–306 of the paper).

use crossbeam_epoch as epoch;
use wfqueue_metrics as metrics;

use super::block::Block;
use super::queue::Queue;

impl<T: Clone + Send + Sync> Queue<T> {
    /// `SplitBlock(v)` — Figure 5 lines 234–248: the oldest block of `v`
    /// that a GC phase must keep.
    ///
    /// At the root this is the block preceding `m = max(last[1..r])` over
    /// the `r` registered processes (every enqueue in root blocks
    /// `1..m−1` is dequeued by an operation that `Help` completes, so they
    /// are finished; block `m−1` itself is kept so that later searches can
    /// still read the predecessor of the first unfinished block). Below the
    /// root the split point is mapped down through the `endleft`/`endright`
    /// interval ends. If a block needed for the mapping was already
    /// discarded by another GC phase, the node's minimum block is used
    /// instead (line 247). Returns the block with its index.
    pub(crate) fn split_block<'g>(
        &self,
        v: usize,
        guard: &'g epoch::Guard,
    ) -> (usize, &'g Block<T>) {
        let topo = *self.topology();
        let tree = self.node(v).load(guard);
        let candidate = if v == topo.root() {
            // Only registered processes can have raised `last`; missing
            // one that registers during the scan can only make `m`
            // smaller, which keeps more blocks.
            let m = (0..self.registered())
                .map(|k| self.last_of(k))
                .max()
                .unwrap_or(0);
            m.checked_sub(1)
        } else {
            let (_, parent_split) = self.split_block(topo.parent(v), guard);
            Some(parent_split.end(topo.is_left_child(v)))
        };
        let found = candidate.and_then(|idx| Some((idx, tree.tree.get(idx as u64)?)));
        // Line 247: if the block was discarded, use the leftmost block.
        found.unwrap_or_else(|| {
            let (k, block) = tree.tree.min().expect("trees are never empty");
            (k as usize, block)
        })
    }

    /// `Help` — Figure 5 lines 298–306: complete every pending dequeue that
    /// has already been propagated to the root, writing its response into
    /// its leaf block.
    ///
    /// Only the processes registered when `Help` starts are scanned. The
    /// count is read after `SplitBlock` fixed the split point, so a process
    /// registering later had an empty leaf then: like a registered process
    /// whose dequeue starts after `Help` checked its leaf, its dequeue
    /// reaches the root after the split point and loses no block it needs.
    pub(crate) fn help(&self, pid: usize) {
        let topo = *self.topology();
        for k in 0..self.registered() {
            let leaf = topo.leaf_of(k);
            let (index, max_block, numdeq) = {
                let guard = epoch::pin();
                let tref = self.node(leaf).load(&guard);
                let (key, max) = tref.tree.max().expect("trees are never empty");
                let index = key as usize;
                // Batch size of the pending dequeue block. If the
                // predecessor was already discarded, the block is finished
                // (Invariant 27) and needs no help.
                let numdeq = if index > 0 {
                    tref.tree.get(key - 1).map(|prev| max.sumdeq - prev.sumdeq)
                } else {
                    None
                };
                (index, max.clone(), numdeq)
            };
            let Some(numdeq) = numdeq else { continue };
            if max_block.is_dequeue() && index > 0 && self.propagated(leaf, index) {
                metrics::record_help();
                if let Ok(responses) = self.complete_deq(pid, leaf, index, numdeq) {
                    // First writer wins; the owner (or another helper) may
                    // have written them already.
                    let _ = max_block
                        .responses()
                        .expect("is_dequeue implies a responses cell")
                        .set(responses);
                }
                // On Err(Discarded) the operation was already finished by
                // someone else (Invariant 27), so there is nothing to do.
            }
        }
    }

    /// `Propagated(v, b)` — Figure 5 lines 268–280: whether the block with
    /// index `b` of node `v` has been propagated into the root.
    pub(crate) fn propagated(&self, v: usize, b: usize) -> bool {
        let topo = *self.topology();
        let (mut v, mut b) = (v, b);
        loop {
            if v == topo.root() {
                return true;
            }
            let parent = topo.parent(v);
            let is_left = topo.is_left_child(v);
            let guard = epoch::pin();
            let tref = self.node(parent).load(&guard);
            let max = tref.tree.max().expect("trees are never empty").1;
            if max.end(is_left) < b {
                return false;
            }
            // Minimum block with end_dir ≥ b: the superblock (or a later
            // block, if the superblock was discarded — which can only make
            // the "propagated" answer stay true).
            let (sup, _) = tref
                .tree
                .first_where(|blk| blk.end(is_left) >= b)
                .expect("max satisfies the predicate");
            b = sup as usize;
            v = parent;
        }
    }
}
