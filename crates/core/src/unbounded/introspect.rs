//! Read-only introspection of the ordering tree: dumps in the style of
//! Figure 2 of the paper, machine-checkable invariants, and reconstruction
//! of the linearization order `L` (equation 3.2).
//!
//! These helpers are meant for tests, examples and experiment harnesses.
//! They read the shared structure with the same atomic loads as the
//! algorithm, so they are safe to call at any time, but the results are
//! only meaningful when the queue is quiescent (no operations in flight).

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;

use super::block::{Block, InnerBlock};
use super::node::{Node, NodeRef};
use super::queue::Queue;

/// A snapshot of one block (Figure 2/3 fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Position in the node's `blocks` array.
    pub index: usize,
    /// Whether this is a truncation summary sentinel (scalar fields of the
    /// block it replaced, payload dropped). Always `false` on queues that
    /// never reclaim.
    pub summary: bool,
    /// Prefix count of enqueues (Invariant 7).
    pub sumenq: usize,
    /// Prefix count of dequeues (Invariant 7).
    pub sumdeq: usize,
    /// Last direct subblock in the left child (internal blocks).
    pub endleft: usize,
    /// Last direct subblock in the right child (internal blocks).
    pub endright: usize,
    /// Queue size after this block (root blocks; 0 elsewhere).
    pub size: usize,
    /// The `super` hint, if already set (non-root blocks; `None` at the
    /// root).
    pub sup: Option<usize>,
    /// Rendered elements for leaf enqueue blocks (one per enqueue of the
    /// batch, in order); empty otherwise.
    pub elements: Vec<String>,
    /// Number of dequeues in a leaf dequeue block (0 for other blocks).
    pub num_dequeues: usize,
}

/// A snapshot of one ordering-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Tree position (1 = root; heap order).
    pub position: usize,
    /// Whether the node is a leaf.
    pub is_leaf: bool,
    /// Whether the node is the root.
    pub is_root: bool,
    /// Current `head` value.
    pub head: usize,
    /// Truncation boundary: index of the first retained block (0, the
    /// dummy, unless epoch-based reclamation has truncated a prefix).
    pub boundary: usize,
    /// Installed blocks `boundary..` (dense prefix; may include
    /// `blocks[head]`).
    pub blocks: Vec<BlockInfo>,
}

/// One operation of the linearization order `L`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinOp<T> {
    /// An enqueue of the given value.
    Enqueue(T),
    /// A dequeue (its response is derived by replaying `L`; see [`replay`]).
    Dequeue,
}

/// Takes a snapshot of every node of the queue's ordering tree.
pub fn dump<T>(queue: &Queue<T>) -> Vec<NodeInfo>
where
    T: Clone + Send + Sync + fmt::Debug,
{
    let _guard = queue.read_guard();
    let topo = *queue.topology();
    (1..topo.len())
        .map(|v| {
            let is_root = v == topo.root();
            let node = queue.node(v);
            let head = node.head();
            let boundary = node.boundary();
            let blocks = match node {
                NodeRef::Inner(node) => installed(node)
                    .map(|(i, b)| BlockInfo {
                        index: i,
                        summary: b.is_summary(),
                        sumenq: b.sumenq,
                        sumdeq: b.sumdeq,
                        endleft: b.endleft,
                        endright: b.endright,
                        // One word holds `size` at the root and `super`
                        // below it.
                        size: if is_root { b.size() } else { 0 },
                        sup: if is_root { None } else { b.sup() },
                        elements: Vec::new(),
                        num_dequeues: 0,
                    })
                    .collect(),
                NodeRef::Leaf(node) => {
                    let mut prev_sumdeq = 0;
                    installed(node)
                        .map(|(i, b)| {
                            let is_deq = i > boundary && b.is_dequeue();
                            let info = BlockInfo {
                                index: i,
                                summary: b.is_summary(),
                                sumenq: b.sumenq,
                                sumdeq: b.sumdeq,
                                endleft: 0,
                                endright: 0,
                                size: 0,
                                sup: b.sup(),
                                elements: b.elements().iter().map(|e| format!("{e:?}")).collect(),
                                num_dequeues: if is_deq { b.sumdeq - prev_sumdeq } else { 0 },
                            };
                            prev_sumdeq = b.sumdeq;
                            info
                        })
                        .collect()
                }
            };
            NodeInfo {
                position: v,
                is_leaf: topo.is_leaf(v),
                is_root,
                head,
                boundary,
                blocks,
            }
        })
        .collect()
}

/// The installed blocks of `node` from its truncation boundary on, with
/// their indices.
fn installed<B: Block>(node: &Node<B>) -> impl Iterator<Item = (usize, &B)> {
    (node.boundary()..).map_while(move |i| node.block(i).map(|b| (i, b)))
}

/// Renders a dump as indented text in the spirit of Figure 2 of the paper.
#[must_use]
pub fn render(nodes: &[NodeInfo]) -> String {
    let mut out = String::new();
    for n in nodes {
        let kind = if n.is_root {
            "root"
        } else if n.is_leaf {
            "leaf"
        } else {
            "internal"
        };
        let depth = usize::BITS as usize - 1 - n.position.leading_zeros() as usize;
        let indent = "  ".repeat(depth);
        let _ = write!(out, "{indent}node {} ({kind}), head={}", n.position, n.head);
        if n.boundary > 0 {
            let _ = write!(out, ", truncated below {}", n.boundary);
        }
        let _ = writeln!(out);
        for b in &n.blocks {
            let _ = write!(
                out,
                "{indent}  [{}]{} sumenq={} sumdeq={}",
                b.index,
                if b.summary { " (summary)" } else { "" },
                b.sumenq,
                b.sumdeq
            );
            if !n.is_leaf {
                let _ = write!(out, " endleft={} endright={}", b.endleft, b.endright);
            }
            if n.is_root {
                let _ = write!(out, " size={}", b.size);
            }
            if let Some(s) = b.sup {
                let _ = write!(out, " super={s}");
            }
            if !b.elements.is_empty() {
                let _ = write!(out, " Enq({})", b.elements.join(","));
            } else if b.num_dequeues == 1 {
                let _ = write!(out, " Deq");
            } else if b.num_dequeues > 1 {
                let _ = write!(out, " Deq×{}", b.num_dequeues);
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Reconstructs the linearization `L` (equation 3.2): for each root block,
/// its enqueue sequence `E(B)` followed by its dequeues `D(B)`.
///
/// On a reclamation-enabled queue this is the linearization's *retained
/// suffix*: root blocks at or below the truncation boundary are gone, so
/// `L` starts right after the boundary summary. Note that [`replay`]ing a
/// truncated suffix from the empty state is only exact if the truncation
/// cut at a point where the queue was empty (retained dequeues may have
/// consumed truncated enqueues); the suffix is always valid for *structural*
/// inspection, and the root blocks' `size` fields (which survive truncation
/// via the summary) remain the authoritative length accounting.
pub fn linearization<T>(queue: &Queue<T>) -> Vec<LinOp<T>>
where
    T: Clone + Send + Sync,
{
    let _guard = queue.read_guard();
    let root = queue.root_node();
    let mut out = Vec::new();
    let mut b = root.boundary() + 1;
    while root.block(b).is_some() {
        let (enqs, deqs) = block_ops(queue, queue.topology().root(), b);
        out.extend(enqs.into_iter().map(LinOp::Enqueue));
        out.extend(std::iter::repeat_with(|| LinOp::Dequeue).take(deqs));
        b += 1;
    }
    out
}

/// Recursively expands `E(v.blocks[b])` and `|D(v.blocks[b])|` from the
/// definition of subblocks (equations 3.1 and 3.3).
fn block_ops<T>(queue: &Queue<T>, v: usize, b: usize) -> (Vec<T>, usize)
where
    T: Clone + Send + Sync,
{
    let topo = *queue.topology();
    let node = match queue.node(v) {
        NodeRef::Inner(node) => node,
        NodeRef::Leaf(node) => {
            // A leaf block is a whole batch: its enqueues in order, or
            // `sumdeq - prev.sumdeq` dequeues.
            let blk = node.block(b).expect("block_ops called on installed block");
            let prev = node.block(b - 1).expect("dense prefix");
            return (blk.elements().to_vec(), blk.sumdeq - prev.sumdeq);
        }
    };
    let blk = node.block(b).expect("block_ops called on installed block");
    let prev = node.block(b - 1).expect("dense prefix");
    let mut enqs = Vec::new();
    let mut deqs = 0;
    for (child, lo, hi) in [
        (topo.left(v), prev.endleft + 1, blk.endleft),
        (topo.right(v), prev.endright + 1, blk.endright),
    ] {
        for sub in lo..=hi {
            let (e, d) = block_ops(queue, child, sub);
            enqs.extend(e);
            deqs += d;
        }
    }
    (enqs, deqs)
}

/// Replays a linearization against the sequential queue specification,
/// returning each dequeue's response (in `L` order) and the final contents.
#[must_use]
pub fn replay<T: Clone>(lin: &[LinOp<T>]) -> (Vec<Option<T>>, Vec<T>) {
    let mut state: VecDeque<T> = VecDeque::new();
    let mut responses = Vec::new();
    for op in lin {
        match op {
            LinOp::Enqueue(v) => state.push_back(v.clone()),
            LinOp::Dequeue => responses.push(state.pop_front()),
        }
    }
    (responses, state.into_iter().collect())
}

/// Machine-checks the structural invariants of the ordering tree:
/// Invariant 3 (dense prefix, `super` set below `head`), Lemma 4
/// (monotone interval ends), Invariant 7 (prefix sums agree with
/// children), Corollary 8 (no empty blocks), Lemma 12 (`super` off by at
/// most one), and Lemma 16 (root `size` recurrence).
///
/// # Errors
///
/// Returns a description of the first violated invariant. Call only while
/// the queue is quiescent; in-flight operations can make the snapshot
/// internally inconsistent.
pub fn check_invariants<T>(queue: &Queue<T>) -> Result<(), String>
where
    T: Clone + Send + Sync,
{
    let _epoch_guard = queue.read_guard();
    let topo = *queue.topology();
    for v in 1..topo.len() {
        let node = queue.node(v);
        let head = node.head();
        let boundary = node.boundary();
        if boundary >= head {
            return Err(format!(
                "node {v}: truncation boundary {boundary} at or above head {head}"
            ));
        }
        // Invariant 3, truncation-adjusted: blocks[boundary..head) installed
        // (the prefix below the boundary has been reclaimed); nothing beyond
        // head.
        for i in boundary..head {
            if node.block(i).is_none() {
                return Err(format!(
                    "node {v}: hole at {i} between boundary {boundary} and head {head}"
                ));
            }
        }
        if boundary > 0 && !is_summary_at(node, boundary) {
            return Err(format!(
                "node {v}: boundary block {boundary} is not a summary sentinel"
            ));
        }
        for i in head + 1..head + 4 {
            if node.block(i).is_some() {
                return Err(format!("node {v}: block {i} installed beyond head {head}"));
            }
        }
        let installed = if node.block(head).is_some() {
            head + 1
        } else {
            head
        };
        for i in boundary + 1..installed {
            let blk = node.block(i).expect("checked installed");
            let prev = node.block(i - 1).expect("checked installed");
            if is_summary_at(node, i) {
                return Err(format!(
                    "node {v}: summary sentinel at {i} above the boundary {boundary}"
                ));
            }
            // Invariant 3 (third claim): super set below head (non-root).
            if v != topo.root() && i < head && blk.sup().is_none() {
                return Err(format!(
                    "node {v}: block {i} below head {head} has unset super"
                ));
            }
            if blk.sumenq < prev.sumenq || blk.sumdeq < prev.sumdeq {
                return Err(format!("node {v}: prefix sums decrease at block {i}"));
            }
            let numenq = blk.sumenq - prev.sumenq;
            let numdeq = blk.sumdeq - prev.sumdeq;
            // Corollary 8: installed blocks are non-empty.
            if i > 0 && numenq + numdeq == 0 {
                return Err(format!("node {v}: block {i} is empty (Corollary 8)"));
            }
            match node {
                NodeRef::Leaf(leaf) => {
                    // Leaf blocks are single-kind batches: `numenq ≥ 1`
                    // enqueues (with exactly one stored element each) or
                    // `numdeq ≥ 1` dequeues — never a mix.
                    if numenq > 0 && numdeq > 0 {
                        return Err(format!(
                            "node {v}: leaf block {i} mixes {numenq} enqueues and {numdeq} dequeues"
                        ));
                    }
                    let stored = leaf.block(i).expect("checked installed").elements().len();
                    if numenq != stored {
                        return Err(format!(
                            "node {v}: leaf block {i} stores {stored} elements for {numenq} enqueues"
                        ));
                    }
                }
                NodeRef::Inner(inner) => {
                    let blk = inner.block(i).expect("checked installed");
                    let prev = inner.block(i - 1).expect("checked installed");
                    check_inner_block(queue, v, i, blk, prev)?;
                }
            }
        }
        // Lemma 12: super off by at most one from the true superblock index.
        // Start right above the parent's truncation boundary: the boundary
        // summary's interval ends delimit the (reclaimed) prefix, and every
        // parent block above it covers only child blocks above this node's
        // own boundary.
        if v != topo.root() {
            let parent = queue.inner_node(topo.parent(v));
            let is_left = topo.is_left_child(v);
            let mut pi = parent.boundary() + 1;
            while let (Some(pb), Some(pprev)) = (parent.block(pi), parent.block(pi - 1)) {
                let (lo, hi) = if is_left {
                    (pprev.endleft + 1, pb.endleft)
                } else {
                    (pprev.endright + 1, pb.endright)
                };
                for child_idx in lo..=hi {
                    let cb = match node.block(child_idx) {
                        Some(cb) => cb,
                        None => {
                            return Err(format!(
                                "node {v}: parent block {pi} covers missing block {child_idx}"
                            ))
                        }
                    };
                    if let Some(sup) = cb.sup() {
                        if sup != pi && sup + 1 != pi {
                            return Err(format!(
                                "node {v}: block {child_idx} super {sup} but true index {pi}"
                            ));
                        }
                    }
                }
                pi += 1;
            }
        }
    }
    Ok(())
}

/// Whether `blocks[i]` of `node` is installed and a summary sentinel.
fn is_summary_at<T>(node: NodeRef<'_, T>, i: usize) -> bool {
    match node {
        NodeRef::Inner(n) => n.block(i).is_some_and(Block::is_summary),
        NodeRef::Leaf(n) => n.block(i).is_some_and(Block::is_summary),
    }
}

/// The internal-node half of [`check_invariants`] for block `i` of node
/// `v`: Lemma 4, Invariant 7 and, at the root, Lemma 16.
fn check_inner_block<T>(
    queue: &Queue<T>,
    v: usize,
    i: usize,
    blk: &InnerBlock,
    prev: &InnerBlock,
) -> Result<(), String>
where
    T: Clone + Send + Sync,
{
    let topo = queue.topology();
    // Lemma 4: interval ends are monotone.
    if blk.endleft < prev.endleft || blk.endright < prev.endright {
        return Err(format!("node {v}: interval ends decrease at block {i}"));
    }
    // Invariant 7: sums match the children's prefix sums at the interval
    // ends.
    let left = queue.node(topo.left(v));
    let right = queue.node(topo.right(v));
    let (le, re) = (blk.endleft, blk.endright);
    let (Some(lb), Some(rb)) = (left.block(le), right.block(re)) else {
        return Err(format!(
            "node {v}: block {i} references missing subblocks ({le},{re})"
        ));
    };
    if blk.sumenq != lb.sumenq + rb.sumenq || blk.sumdeq != lb.sumdeq + rb.sumdeq {
        return Err(format!("node {v}: Invariant 7 violated at block {i}"));
    }
    if v == topo.root() {
        // Lemma 16: size recurrence.
        let numenq = blk.sumenq - prev.sumenq;
        let numdeq = blk.sumdeq - prev.sumdeq;
        let expect = (prev.size() + numenq).saturating_sub(numdeq);
        if blk.size() != expect {
            return Err(format!(
                "root: size {} != max(0,{}+{}-{}) at block {i}",
                blk.size(),
                prev.size(),
                numenq,
                numdeq
            ));
        }
    }
    Ok(())
}

/// Total blocks currently installed (*live*) across all nodes — space
/// accounting for experiments E7 and E12.
///
/// On a reclamation-enabled queue each node's scan starts at its truncation
/// boundary (slots below it have been unlinked and freed); see
/// [`block_counts`] for live and logical totals side by side.
pub fn total_blocks<T>(queue: &Queue<T>) -> usize
where
    T: Clone + Send + Sync,
{
    let _guard = queue.read_guard();
    let topo = *queue.topology();
    (1..topo.len())
        .map(|v| {
            let node = queue.node(v);
            let start = node.boundary();
            let mut i = start;
            while node.block(i).is_some() {
                i += 1;
            }
            i - start
        })
        .sum()
}

/// Live vs. logical block accounting ([`block_counts`]).
///
/// `logical` is what [`total_blocks`] would report had no truncation ever
/// run: the queue's whole block history. The difference between logical
/// growth (one block per operation per tree level, forever) and a
/// plateauing `live` count is exactly what epoch-based reclamation buys —
/// experiment E12 plots both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCounts {
    /// Blocks currently installed in the tree (see [`total_blocks`]).
    pub live: usize,
    /// Blocks unlinked by truncation over the queue's lifetime.
    pub reclaimed: usize,
    /// `live + reclaimed`: every block ever retained by the tree. (Blocks
    /// that lost an install race were never part of the tree and are not
    /// counted, matching what [`total_blocks`] has always measured.)
    pub logical: usize,
}

/// Reports the queue's live block count alongside the logical total that
/// the paper's never-reclaiming construction would retain.
///
/// # Examples
///
/// ```
/// use wfqueue::unbounded::{introspect, Queue, ReclaimPolicy};
///
/// let q: Queue<u64> = Queue::with_reclaim(1, ReclaimPolicy::EveryKRootBlocks(4));
/// let mut h = q.register().unwrap();
/// for i in 0..200 {
///     h.enqueue(i);
///     let _ = h.dequeue();
/// }
/// let counts = introspect::block_counts(&q);
/// assert_eq!(counts.logical, counts.live + counts.reclaimed);
/// assert!(counts.reclaimed > 0, "churn left dead prefixes to truncate");
/// ```
pub fn block_counts<T>(queue: &Queue<T>) -> BlockCounts
where
    T: Clone + Send + Sync,
{
    let live = total_blocks(queue);
    let reclaimed = queue.reclaim_stats().reclaimed_blocks;
    BlockCounts {
        live,
        reclaimed,
        logical: live + reclaimed,
    }
}

/// An RSS proxy: bytes retained by the tree's storage — live blocks (block
/// headers plus their element payloads) and each node's slot storage (the
/// `SegVec` chunks and pages still linked plus its page table).
/// Used by experiments E12 and E15; like every introspection helper it is
/// exact at quiescence.
pub fn live_block_bytes<T>(queue: &Queue<T>) -> usize
where
    T: Clone + Send + Sync,
{
    let _guard = queue.read_guard();
    let topo = *queue.topology();
    (1..topo.len())
        .map(|v| match queue.node(v) {
            NodeRef::Inner(node) => {
                node.blocks.heap_bytes()
                    + installed(node)
                        .map(|(_, b)| std::mem::size_of_val(b))
                        .sum::<usize>()
            }
            NodeRef::Leaf(node) => {
                node.blocks.heap_bytes()
                    + installed(node)
                        .map(|(_, b)| {
                            std::mem::size_of_val(b) + std::mem::size_of_val(b.elements())
                        })
                        .sum::<usize>()
            }
        })
        .sum()
}
