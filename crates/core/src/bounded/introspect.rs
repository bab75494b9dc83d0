//! Read-only introspection for the bounded queue: block-tree dumps, space
//! accounting in blocks and bytes (experiment E7 / Theorem 31) and
//! structural invariants.
//!
//! As with [`crate::unbounded::introspect`], results are only meaningful
//! while the queue is quiescent.

use crossbeam_epoch as epoch;

use super::queue::Queue;

/// Snapshot of one block (bounded variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// Block index (tree key).
    pub index: usize,
    /// Prefix count of enqueues.
    pub sumenq: usize,
    /// Prefix count of dequeues.
    pub sumdeq: usize,
    /// Last direct subblock in the left child.
    pub endleft: usize,
    /// Last direct subblock in the right child.
    pub endright: usize,
    /// Queue size after this block (root only).
    pub size: usize,
    /// Rendered elements for leaf enqueue blocks (batch order); empty
    /// otherwise.
    pub elements: Vec<String>,
    /// Whether this is a leaf dequeue block, and whether its responses are
    /// set.
    pub dequeue_with_response: Option<bool>,
}

/// Snapshot of one node's block tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Tree position (1 = root).
    pub position: usize,
    /// Whether this node is a leaf.
    pub is_leaf: bool,
    /// Whether this node is the root.
    pub is_root: bool,
    /// Number of live blocks in the tree.
    pub len: usize,
    /// Depth of the persistent tree.
    pub depth: usize,
    /// The live blocks in index order.
    pub blocks: Vec<BlockInfo>,
}

/// Space-accounting summary (Theorem 31 / Lemma 29).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceStats {
    /// Total live blocks over all nodes.
    pub total_blocks: usize,
    /// Largest per-node block count.
    pub max_node_blocks: usize,
    /// Largest per-node persistent-tree depth.
    pub max_tree_depth: usize,
}

/// Takes a snapshot of every node's block tree.
pub fn dump<T>(queue: &Queue<T>) -> Vec<NodeInfo>
where
    T: Clone + Send + Sync + std::fmt::Debug,
{
    let topo = *queue.topology();
    let guard = epoch::pin();
    (1..topo.len())
        .map(|v| {
            let tref = queue.node(v).load(&guard);
            let blocks = tref
                .tree
                .iter()
                .map(|(k, b)| BlockInfo {
                    index: k as usize,
                    sumenq: b.sumenq,
                    sumdeq: b.sumdeq,
                    endleft: b.endleft,
                    endright: b.endright,
                    size: b.size,
                    elements: b.elements().iter().map(|e| format!("{e:?}")).collect(),
                    dequeue_with_response: b.responses().map(|c| c.is_set()),
                })
                .collect();
            NodeInfo {
                position: v,
                is_leaf: topo.is_leaf(v),
                is_root: v == topo.root(),
                len: tref.tree.len(),
                depth: tref.tree.depth(),
                blocks,
            }
        })
        .collect()
}

/// Current space usage of the queue (used by experiment E7).
pub fn space_stats<T>(queue: &Queue<T>) -> SpaceStats
where
    T: Clone + Send + Sync,
{
    let topo = *queue.topology();
    let guard = epoch::pin();
    let mut total = 0;
    let mut max_blocks = 0;
    let mut max_depth = 0;
    for v in 1..topo.len() {
        let tref = queue.node(v).load(&guard);
        total += tref.tree.len();
        max_blocks = max_blocks.max(tref.tree.len());
        max_depth = max_depth.max(tref.tree.depth());
    }
    SpaceStats {
        total_blocks: total,
        max_node_blocks: max_blocks,
        max_tree_depth: max_depth,
    }
}

/// Heap bytes held by the queue's block stores (the byte side of Theorem
/// 31): for every node, its published version header with its inline
/// tail, the trie nodes that version reaches, and the live leaf payloads
/// with their elements and written responses. Superseded versions still
/// waiting for epoch reclamation, and trie nodes only they reach, are not
/// counted.
pub fn live_block_bytes<T>(queue: &Queue<T>) -> usize
where
    T: Clone + Send + Sync,
{
    let topo = *queue.topology();
    let guard = epoch::pin();
    let mut bytes = 0;
    for v in 1..topo.len() {
        let tref = queue.node(v).load(&guard);
        bytes += tref.tree.heap_bytes();
        bytes += tref
            .tree
            .iter()
            .map(|(_, b)| b.payload_bytes())
            .sum::<usize>();
    }
    bytes
}

/// Machine-checks the structural invariants that survive garbage
/// collection: consecutive block indices per node (Corollary 25), monotone
/// prefix sums and interval ends (Lemma 4′/Invariant 7), non-empty blocks
/// (Corollary 8), the root `size` recurrence (Lemma 16), and single-kind
/// leaf batches (enqueues xor dequeues, one stored element per enqueue).
///
/// Cross-node sum checks are skipped when the referenced child block has
/// been discarded (the information is then no longer reachable, by design).
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_invariants<T>(queue: &Queue<T>) -> Result<(), String>
where
    T: Clone + Send + Sync,
{
    let topo = *queue.topology();
    let guard = epoch::pin();
    for v in 1..topo.len() {
        let tref = queue.node(v).load(&guard);
        let blocks: Vec<_> = tref.tree.iter().collect();
        if blocks.is_empty() {
            return Err(format!("node {v}: empty block tree"));
        }
        for pair in blocks.windows(2) {
            let (ka, a) = &pair[0];
            let (kb, b) = &pair[1];
            if *kb != ka + 1 {
                return Err(format!("node {v}: non-consecutive indices {ka},{kb}"));
            }
            if b.sumenq < a.sumenq || b.sumdeq < a.sumdeq {
                return Err(format!("node {v}: prefix sums decrease at {kb}"));
            }
            let numenq = b.sumenq - a.sumenq;
            let numdeq = b.sumdeq - a.sumdeq;
            if numenq + numdeq == 0 {
                return Err(format!("node {v}: empty block {kb} (Corollary 8)"));
            }
            if topo.is_leaf(v) {
                // Leaf blocks are single-kind batches (enqueues xor
                // dequeues) with one stored element per enqueue.
                if numenq > 0 && numdeq > 0 {
                    return Err(format!(
                        "node {v}: leaf block {kb} mixes {numenq} enqueues and {numdeq} dequeues"
                    ));
                }
                if numenq != b.elements().len() {
                    return Err(format!(
                        "node {v}: leaf block {kb} stores {} elements for {numenq} enqueues",
                        b.elements().len()
                    ));
                }
            } else {
                if b.endleft < a.endleft || b.endright < a.endright {
                    return Err(format!("node {v}: interval ends decrease at {kb}"));
                }
                // Invariant 7, when the referenced child blocks survive.
                let ltree = queue.node(topo.left(v)).load(&guard);
                let rtree = queue.node(topo.right(v)).load(&guard);
                if let (Some(lb), Some(rb)) = (
                    ltree.tree.get(b.endleft as u64),
                    rtree.tree.get(b.endright as u64),
                ) {
                    if b.sumenq != lb.sumenq + rb.sumenq || b.sumdeq != lb.sumdeq + rb.sumdeq {
                        return Err(format!("node {v}: Invariant 7 violated at {kb}"));
                    }
                }
                if v == topo.root() {
                    let expect = (a.size + numenq).saturating_sub(numdeq);
                    if b.size != expect {
                        return Err(format!(
                            "root: size {} != max(0,{}+{numenq}-{numdeq}) at {kb}",
                            b.size, a.size
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}
