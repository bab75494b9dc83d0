//! The block store of one ordering-tree node: a persistent vector of
//! blocks with implicit keys, shaped to how the §6 queue uses it.
//!
//! The paper (§6, Appendix B) keeps each node's blocks in a persistent
//! balanced search tree, so that a new version can be published with one
//! CAS while readers keep traversing their own. The queue only ever
//! appends key `max + 1` (Lemma 24) and drops a prefix (`Split(T, s)`),
//! so keys are consecutive and need not be stored: block `k` sits at
//! position `k − base`. A version is
//!
//! * a **header** (the [`BlockStore`] itself, one allocation per version)
//!   holding the key range and an inline **tail** of up to 16 blocks;
//! * a **trie** of fanout 16 behind one [`Arc`], whose leaves hold 16
//!   blocks inline and whose inner nodes hold their children plus a
//!   [`Summary`] of each child's last block.
//!
//! An append copies the header with its tail, and nothing else, except
//! every 16th, which moves the full tail into the trie as one leaf: a path
//! copy along the right spine. [`BlockStore::split_ge`] path-copies the
//! left boundary, dropping the subtrees wholly below the split key, and
//! keeps no count of what it drops since `len = max − min + 1`.
//!
//! Searches record one `tree_node_visit` per trie node entered and one per
//! block or summary they probe. [`BlockStore::get`] indexes by radix;
//! [`BlockStore::first_where`] binary-searches the summaries at each
//! level, so both cost O(depth), and the trie's depth (its levels, leaves
//! included) is at most `⌈log₁₆ n⌉ + 1` for `n` live blocks: a split that
//! leaves fewer blocks than the depth allows drops the root levels that
//! hold one live child, and rebuilds the trie if that is not enough (see
//! [`BlockStore::split_ge`]).

use std::fmt;
use std::sync::Arc;

use wfqueue_metrics as metrics;

use super::block::{Block, Summary};

/// log₂ of the fanout.
const BITS: u32 = 4;
/// Blocks per leaf, children per inner node, and the tail's capacity.
const WIDTH: usize = 1 << BITS;

/// `16^levels`: the positions a subtree of `levels` levels (leaves
/// included) covers, or `None` past the `u64` key space.
fn positions(levels: u32) -> Option<u64> {
    1u64.checked_shl(BITS * levels)
}

/// The child index of position `pos` at a node `level` levels above the
/// leaves (0: the offset within a leaf).
fn digit(pos: u64, level: u32) -> usize {
    (pos >> (BITS * level)) as usize & (WIDTH - 1)
}

/// The first index in `0..len` where `is_true` holds, or `len`; `is_true`
/// must be monotone (false, then true).
fn lower_bound(len: usize, mut is_true: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if is_true(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

fn dummies<T>() -> [Block<T>; WIDTH] {
    std::array::from_fn(|_| Block::dummy())
}

#[derive(Clone)]
#[allow(
    clippy::large_enum_variant,
    reason = "inner nodes are about one trie node in seventeen; boxing the leaf's blocks would add an allocation per leaf"
)]
enum Trie<T> {
    /// Sixteen consecutive blocks. Those below the store's minimum are
    /// dummies, so a leaf keeps no discarded block's payload alive.
    Leaf([Block<T>; WIDTH]),
    Inner(Inner<T>),
}

#[derive(Clone)]
struct Inner<T> {
    /// Filled left to right by appends; those wholly below the store's
    /// minimum are `None`.
    children: [Option<Arc<Trie<T>>>; WIDTH],
    /// `lasts[i]`: the summary of child `i`'s last block.
    lasts: [Summary; WIDTH],
}

impl<T> Trie<T> {
    fn inner(&self) -> &Inner<T> {
        match self {
            Trie::Inner(inner) => inner,
            Trie::Leaf(_) => unreachable!("nodes above the leaf level are inner"),
        }
    }

    fn leaf(&self) -> &[Block<T>; WIDTH] {
        match self {
            Trie::Leaf(blocks) => blocks,
            Trie::Inner(_) => unreachable!("nodes at the leaf level are leaves"),
        }
    }

    fn count_nodes(&self) -> usize {
        match self {
            Trie::Leaf(_) => 1,
            Trie::Inner(inner) => {
                1 + inner
                    .children
                    .iter()
                    .flatten()
                    .map(|c| c.count_nodes())
                    .sum::<usize>()
            }
        }
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a [Block<T>; WIDTH]>) {
        match self {
            Trie::Leaf(blocks) => out.push(blocks),
            Trie::Inner(inner) => {
                for child in inner.children.iter().flatten() {
                    child.collect_leaves(out);
                }
            }
        }
    }
}

/// Wraps `node` in `levels` inner nodes that each hold it as their only
/// child: a fresh right spine.
fn spine<T>(mut node: Arc<Trie<T>>, levels: u32, last: Summary) -> Arc<Trie<T>> {
    for _ in 0..levels {
        let mut inner = Inner {
            children: [const { None }; WIDTH],
            lasts: [Summary::default(); WIDTH],
        };
        inner.children[0] = Some(node);
        inner.lasts[0] = last;
        node = Arc::new(Trie::Inner(inner));
    }
    node
}

/// Puts `leaf` at position `pos` under `node` (`level` levels above the
/// leaves), copying the nodes on the way that another version shares.
fn push_into<T: Clone>(
    node: &mut Arc<Trie<T>>,
    level: u32,
    pos: u64,
    leaf: Arc<Trie<T>>,
    last: Summary,
) {
    let Trie::Inner(inner) = Arc::make_mut(node) else {
        unreachable!("a leaf is pushed below the leaf level")
    };
    let i = digit(pos, level);
    inner.lasts[i] = last;
    match &mut inner.children[i] {
        Some(child) => push_into(child, level - 1, pos, leaf, last),
        slot @ None => *slot = Some(spine(leaf, level - 1, last)),
    }
}

/// Drops everything under `node` below position `pos`: children wholly
/// below it are unlinked and the blocks before it in its leaf become
/// dummies. Copies the nodes on the way that another version shares.
fn trim<T: Clone>(node: &mut Arc<Trie<T>>, level: u32, pos: u64) {
    let i = digit(pos, level);
    match Arc::make_mut(node) {
        Trie::Leaf(blocks) => blocks[..i].fill_with(Block::dummy),
        Trie::Inner(inner) => {
            inner.children[..i].fill(None);
            let child = inner.children[i]
                .as_mut()
                .expect("the child holding a live position is linked");
            trim(child, level - 1, pos);
        }
    }
}

/// Records one step and tests `pred` on `summary`.
fn probe(pred: &mut impl FnMut(&Summary) -> bool, summary: &Summary) -> bool {
    metrics::record_tree_node_visit();
    pred(summary)
}

/// A persistent store of blocks under consecutive `u64` keys.
///
/// Every operation takes `&self` and returns a new version; a version is
/// never changed once built, so it can be published with a single CAS.
/// Keys `min..=max` are live: [`BlockStore::append`] adds `max + 1` and
/// [`BlockStore::split_ge`] raises `min`. Values are the queue's blocks,
/// stored inline in the trie's leaves and the header's tail.
#[derive(Clone)]
pub(crate) struct BlockStore<T> {
    /// Key of trie position 0.
    base: u64,
    /// Smallest live key.
    min: u64,
    /// Positions held by the trie, a multiple of 16: keys `base..base +
    /// trie_len`, of which those below `min` are dropped.
    trie_len: u64,
    /// Levels above the leaves (0: the root is a leaf). Set while `root`
    /// is `Some`.
    height: u32,
    root: Option<Arc<Trie<T>>>,
    /// Keys `base + trie_len ..` in order; slots from `tail_len` on, and
    /// any below `min`, are dummies.
    tail: [Block<T>; WIDTH],
    /// Blocks in the tail. At least 1 unless the store is empty: a full
    /// tail moves into the trie on the next append, not before, so the
    /// maximum is always in the tail.
    tail_len: usize,
}

impl<T: Clone> BlockStore<T> {
    /// An empty store.
    pub fn new() -> Self {
        BlockStore {
            base: 0,
            min: 0,
            trie_len: 0,
            height: 0,
            root: None,
            tail: dummies(),
            tail_len: 0,
        }
    }

    /// Number of live blocks.
    pub fn len(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        (self.max_key() + 1 - self.min) as usize
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.tail_len == 0
    }

    fn max_key(&self) -> u64 {
        self.base + self.trie_len + self.tail_len as u64 - 1
    }

    /// The block with the largest key, in O(1): the paper's `MaxBlock`.
    /// It is always the tail's last block.
    pub fn max(&self) -> Option<(u64, &Block<T>)> {
        let last = self.tail_len.checked_sub(1)?;
        Some((self.max_key(), &self.tail[last]))
    }

    /// The block with the smallest key (the paper's `MinBlock`): a
    /// [`BlockStore::get`] of the minimum key, O(depth) steps.
    pub fn min(&self) -> Option<(u64, &Block<T>)> {
        Some((self.min, self.get(self.min)?))
    }

    /// The block under `key`, or `None` below the minimum or above the
    /// maximum. Counts the trie nodes entered plus the block read.
    pub fn get(&self, key: u64) -> Option<&Block<T>> {
        if self.is_empty() || key < self.min || key > self.max_key() {
            return None;
        }
        let pos = key - self.base;
        let block = match pos.checked_sub(self.trie_len) {
            Some(i) => &self.tail[i as usize],
            None => {
                let mut node = self.root.as_deref().expect("trie positions have a root");
                for level in (1..=self.height).rev() {
                    metrics::record_tree_node_visit();
                    node = node.inner().children[digit(pos, level)]
                        .as_deref()
                        .expect("live positions are linked");
                }
                metrics::record_tree_node_visit();
                &node.leaf()[digit(pos, 0)]
            }
        };
        metrics::record_tree_node_visit();
        Some(block)
    }

    /// Returns a new version with `block` appended under `key`.
    ///
    /// # Panics
    ///
    /// Panics unless `key` is the maximum key plus one; an empty store
    /// takes any key and re-bases there.
    pub fn append(&self, key: u64, block: Block<T>) -> Self {
        if self.is_empty() {
            let mut tail = dummies();
            tail[0] = block;
            return BlockStore {
                base: key,
                min: key,
                trie_len: 0,
                height: 0,
                root: None,
                tail,
                tail_len: 1,
            };
        }
        assert_eq!(key, self.max_key() + 1, "keys are appended in order");
        let mut next = self.clone();
        if next.tail_len == WIDTH {
            let leaf = std::mem::replace(&mut next.tail, dummies());
            next.push_leaf(leaf);
            next.tail_len = 0;
        }
        next.tail[next.tail_len] = block;
        next.tail_len += 1;
        next
    }

    /// Moves a full leaf to the end of the trie, adding a root level when
    /// the trie is full.
    fn push_leaf(&mut self, leaf: [Block<T>; WIDTH]) {
        let last = leaf[WIDTH - 1].summary();
        let leaf = Arc::new(Trie::Leaf(leaf));
        let pos = self.trie_len;
        let root_last = self.trie_last();
        match self.root.take() {
            None => {
                self.root = Some(leaf);
                self.height = 0;
            }
            Some(root) if positions(self.height + 1) == Some(pos) => {
                let mut top = Inner {
                    children: [const { None }; WIDTH],
                    lasts: [Summary::default(); WIDTH],
                };
                top.children[0] = Some(root);
                top.lasts[0] = root_last.expect("a full trie has a last block");
                top.children[1] = Some(spine(leaf, self.height, last));
                top.lasts[1] = last;
                self.root = Some(Arc::new(Trie::Inner(top)));
                self.height += 1;
            }
            Some(mut root) => {
                push_into(&mut root, self.height, pos, leaf, last);
                self.root = Some(root);
            }
        }
        self.trie_len += WIDTH as u64;
    }

    /// The summary of the trie's last block, if the trie holds any.
    fn trie_last(&self) -> Option<Summary> {
        Some(match self.root.as_deref()? {
            Trie::Leaf(blocks) => blocks[WIDTH - 1].summary(),
            Trie::Inner(inner) => inner.lasts[digit(self.trie_len - 1, self.height)],
        })
    }

    /// Returns a new version holding only the keys ≥ `threshold` (the
    /// paper's `Split(T, s)`). Splitting past the maximum empties the
    /// store, and the next append re-bases it.
    ///
    /// Path-copies the left boundary, O(depth) nodes, then drops root
    /// levels with a single live child. If the trie is still deeper than
    /// `⌈log₁₆ n⌉ + 1` for the `n` blocks left, which takes a live range
    /// straddling a high-order boundary, it is rebuilt from its live
    /// blocks, at most `16^(depth − 2)` of them. Growing back to that
    /// depth takes about `16^(depth − 1)` appends, so rebuilds cost under
    /// 1/16 of a block copy per append, amortized.
    pub fn split_ge(&self, threshold: u64) -> Self {
        if self.is_empty() || threshold <= self.min {
            return self.clone();
        }
        if threshold > self.max_key() {
            return Self::new();
        }
        let mut next = self.clone();
        next.min = threshold;
        let pos = threshold - next.base;
        match pos.checked_sub(next.trie_len) {
            Some(i) => {
                next.base += next.trie_len;
                next.trie_len = 0;
                next.root = None;
                next.tail[..i as usize].fill_with(Block::dummy);
            }
            None => {
                let root = next.root.as_mut().expect("trie positions have a root");
                trim(root, next.height, pos);
                next.drop_single_child_roots();
                let too_deep = next.height > 0
                    && positions(next.height - 1).is_some_and(|most| next.len() as u64 <= most);
                if too_deep {
                    next.rebuild();
                }
            }
        }
        next
    }

    /// Replaces the root by its only live child while it has one,
    /// re-basing the positions to that child's.
    fn drop_single_child_roots(&mut self) {
        while self.height > 0 {
            let root = self.root.as_deref().expect("height > 0 has a root");
            let first = digit(self.min - self.base, self.height);
            if first != digit(self.trie_len - 1, self.height) {
                return;
            }
            let child = root.inner().children[first]
                .clone()
                .expect("the live child is linked");
            let skipped = (first as u64) << (BITS * self.height);
            self.base += skipped;
            self.trie_len -= skipped;
            self.height -= 1;
            self.root = Some(child);
        }
    }

    /// Builds a fresh trie of the live trie blocks, padded at the front
    /// with dummies to whole leaves.
    fn rebuild(&mut self) {
        let end = self.base + self.trie_len;
        let leaves = (end - self.min).div_ceil(WIDTH as u64);
        let base = end - leaves * WIDTH as u64;
        let live = self
            .iter()
            .map(|(_, b)| b.clone())
            .take((end - self.min) as usize);
        let mut blocks = std::iter::repeat_with(Block::dummy)
            .take((self.min - base) as usize)
            .chain(live)
            .collect::<Vec<_>>()
            .into_iter();
        let mut fresh = BlockStore {
            base,
            min: self.min,
            trie_len: 0,
            height: 0,
            root: None,
            tail: self.tail.clone(),
            tail_len: self.tail_len,
        };
        for _ in 0..leaves {
            fresh.push_leaf(std::array::from_fn(|_| {
                blocks.next().expect("the blocks fill whole leaves")
            }));
        }
        *self = fresh;
    }

    /// Finds the block with the **smallest key** whose summary satisfies
    /// `pred`.
    ///
    /// `pred` must be monotone in key order: once true it stays true for
    /// all larger keys (e.g. "`sumenq ≥ e`" or "`endleft ≥ b`", which do
    /// not decrease with the block index by Lemma 4′ / Invariant 7). One
    /// probe of the trie's last summary picks the trie or the tail; each
    /// trie level then binary-searches the summaries of its live children
    /// but the last, which is known to satisfy `pred`.
    pub fn first_where(&self, mut pred: impl FnMut(&Summary) -> bool) -> Option<(u64, &Block<T>)> {
        if let Some(last) = self.trie_last() {
            if probe(&mut pred, &last) {
                return Some(self.search_trie(pred));
            }
        }
        let start = self.base + self.trie_len;
        let lo = self.min.saturating_sub(start) as usize;
        let live = &self.tail[lo..self.tail_len];
        let i = lower_bound(live.len(), |i| probe(&mut pred, &live[i].summary()));
        live.get(i).map(|b| (start + (lo + i) as u64, b))
    }

    /// The first live trie block satisfying `pred`, given that the trie's
    /// last block does.
    fn search_trie(&self, mut pred: impl FnMut(&Summary) -> bool) -> (u64, &Block<T>) {
        let first = self.min - self.base;
        let last = self.trie_len - 1;
        let mut node = self.root.as_deref().expect("the trie has a last block");
        // Position of `node`'s first slot.
        let mut start = 0;
        for level in (1..=self.height).rev() {
            metrics::record_tree_node_visit();
            let inner = node.inner();
            let lo = (first.saturating_sub(start) >> (BITS * level)) as usize;
            let hi = ((last - start) >> (BITS * level)).min(WIDTH as u64 - 1) as usize;
            let i = lo + lower_bound(hi - lo, |j| probe(&mut pred, &inner.lasts[lo + j]));
            start += (i as u64) << (BITS * level);
            node = inner.children[i]
                .as_deref()
                .expect("live children are linked");
        }
        metrics::record_tree_node_visit();
        let blocks = node.leaf();
        let lo = first.saturating_sub(start) as usize;
        let i = lo
            + lower_bound(WIDTH - 1 - lo, |j| {
                probe(&mut pred, &blocks[lo + j].summary())
            });
        (self.base + start + i as u64, &blocks[i])
    }

    /// The live blocks in key order, without counting steps
    /// (introspection and tests).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Block<T>)> {
        let mut leaves = Vec::new();
        if let Some(root) = &self.root {
            root.collect_leaves(&mut leaves);
        }
        let first = self.base + self.trie_len - (leaves.len() * WIDTH) as u64;
        leaves
            .into_iter()
            .flatten()
            .chain(&self.tail[..self.tail_len])
            .zip(first..)
            .skip((self.min - first) as usize)
            .map(|(block, key)| (key, block))
    }

    /// Levels of the trie, leaves included; 0 while every block is in the
    /// tail (introspection).
    pub fn depth(&self) -> usize {
        self.root.as_ref().map_or(0, |_| self.height as usize + 1)
    }

    /// Heap bytes of this version's own allocations: the header with its
    /// tail, plus every trie node it reaches (an `Arc` allocation each:
    /// strong and weak counts, then the node). Payloads that blocks point
    /// to are not included (introspection).
    pub fn heap_bytes(&self) -> usize {
        let node = 2 * size_of::<usize>() + size_of::<Trie<T>>();
        let nodes = self.root.as_deref().map_or(0, Trie::count_nodes);
        size_of::<Self>() + nodes * node
    }
}

/// Prints the live blocks as a map from key to block.
impl<T: Clone + fmt::Debug> fmt::Debug for BlockStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}
