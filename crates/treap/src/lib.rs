//! A persistent (immutable, structurally shared) treap keyed by `u64`: the
//! block store of the bounded-space queue.
//!
//! The bounded-space variant of the Naderibeni–Ruppert queue (§6 and
//! Appendix B of the PODC 2023 paper) replaces each tree node's infinite
//! `blocks` array with a *persistent* balanced search tree of blocks, so
//! that an updated tree version can be published with a single CAS on the
//! root pointer while readers keep traversing their own immutable version
//! (the Driscoll et al. node-copying technique; the paper uses a red–black
//! tree). This crate provides that substrate as a persistent **treap**,
//! sharing structure via [`Arc`] (updates copy only the search path) and
//! drawing priorities from a fixed hash of the key (SplitMix64), so runs
//! reproduce.
//!
//! The queue needs only a narrow operation set from the tree:
//!
//! * [`PTreap::insert`] of a new maximum key: block indices only grow
//!   (Lemma 24), so every insert the queue makes is an append;
//! * [`PTreap::split_ge`], the paper's `Split(T, s)`, discarding every key
//!   below `s`;
//! * exact-key [`PTreap::get`]: indices are consecutive, so the
//!   predecessor of block `k` is block `k − 1`;
//! * O(1) [`PTreap::min`]/[`PTreap::max`], the paper's
//!   `MinBlock`/`MaxBlock`;
//! * [`PTreap::first_where`]/[`PTreap::last_where`] under key-monotone
//!   predicates: the searches on `endleft`/`endright`/`sumenq` used by
//!   `Propagated`, `IndexDequeue` and `FindResponse`, sound because those
//!   fields never decrease with the block index (Lemma 4′, Invariant 7).
//!
//! Each of these walks one root-to-leaf path, so it costs the treap's
//! depth: O(log n) in expectation over the key hash, not in the worst case
//! as for the paper's red–black tree. `split_ge` also counts the subtree it
//! discards to keep `len` exact, so it costs O(log n + removed); each key is
//! removed at most once, which is amortized O(1) per insert.
//!
//! Every node visit during a search is recorded as a shared-memory step via
//! [`wfqueue_metrics`], matching the paper's cost model.
//!
//! # Examples
//!
//! ```
//! use wfqueue_treap::PTreap;
//!
//! let t = PTreap::new().insert(1, "a").insert(2, "b").insert(3, "c");
//! let newer = t.split_ge(3); // discard keys < 3
//! assert_eq!(newer.get(3), Some(&"c"));
//! assert!(newer.get(2).is_none());
//! assert_eq!(t.len(), 3); // the old version is untouched
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use wfqueue_metrics as metrics;

/// Deterministic priority for a key (SplitMix64 finaliser). Using a fixed
/// hash keeps every run of the queue reproducible while giving the treap its
/// expected O(log n) depth.
#[inline]
#[must_use]
pub fn priority_of(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

type Link<V> = Option<Arc<Node<V>>>;

/// A treap node. Its priority is [`priority_of`]`(key)`, recomputed where
/// `merge` needs it rather than stored, so a node is its key, its value and
/// two links.
#[derive(Debug, Clone)]
struct Node<V> {
    key: u64,
    value: V,
    left: Link<V>,
    right: Link<V>,
}

/// A persistent treap from `u64` keys to values.
///
/// All operations take `&self` and return new versions; existing versions
/// are never mutated, so a version can be published to other threads with a
/// single atomic pointer swap. Values must be [`Clone`] because path copying
/// duplicates the nodes on the search path (the queue stores its blocks
/// inline, and a block clone is a plain copy plus at most one `Arc` bump).
///
/// The minimum and maximum entries are cached in the handle so that the
/// paper's `MinBlock`/`MaxBlock` queries are O(1) reads, as §B requires.
#[derive(Clone)]
pub struct PTreap<V> {
    root: Link<V>,
    len: usize,
    min: Option<(u64, V)>,
    max: Option<(u64, V)>,
}

impl<V: Clone> PTreap<V> {
    /// Creates an empty treap.
    ///
    /// # Examples
    ///
    /// ```
    /// let t: wfqueue_treap::PTreap<u8> = wfqueue_treap::PTreap::new();
    /// assert!(t.is_empty());
    /// ```
    #[must_use]
    pub fn new() -> Self {
        PTreap {
            root: None,
            len: 0,
            min: None,
            max: None,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the treap is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry with the smallest key, in O(1) (paper's `MinBlock`).
    #[must_use]
    pub fn min(&self) -> Option<(u64, &V)> {
        self.min.as_ref().map(|(k, v)| (*k, v))
    }

    /// The entry with the largest key, in O(1) (paper's `MaxBlock`).
    #[must_use]
    pub fn max(&self) -> Option<(u64, &V)> {
        self.max.as_ref().map(|(k, v)| (*k, v))
    }

    /// Looks up `key`, counting one step per node visited.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&V> {
        let mut cur = &self.root;
        while let Some(node) = cur {
            metrics::record_tree_node_visit();
            if key == node.key {
                return Some(&node.value);
            }
            cur = if key < node.key {
                &node.left
            } else {
                &node.right
            };
        }
        None
    }

    /// Returns a new version with `key → value` inserted. If `key` is
    /// already present its value is replaced.
    ///
    /// The queue only ever inserts `max_key + 1` (Lemma 24 of the paper).
    /// A key above the cached maximum is an append: one `merge` of the root
    /// with the new node, which walks down the right spine once and copies
    /// only the nodes whose priority beats the new key's. Any other key
    /// takes the general split–merge path, which is property-tested
    /// against a model.
    #[must_use]
    pub fn insert(&self, key: u64, value: V) -> Self {
        let single = Some(Arc::new(Node {
            key,
            value: value.clone(),
            left: None,
            right: None,
        }));
        if self.max.as_ref().is_none_or(|(mk, _)| *mk < key) {
            return PTreap {
                root: merge(self.root.clone(), single),
                len: self.len + 1,
                min: self.min.clone().or_else(|| Some((key, value.clone()))),
                max: Some((key, value)),
            };
        }
        let (below, at_or_above) = split(&self.root, key);
        // Drop an existing binding for `key`, if any.
        let (_, above) = split(&at_or_above, key + 1);
        let had_key = self.get(key).is_some();
        let root = merge(merge(below, single), above);
        let len = if had_key { self.len } else { self.len + 1 };
        let min = match &self.min {
            Some((mk, _)) if *mk < key => self.min.clone(),
            _ => Some((key, value.clone())),
        };
        let max = match &self.max {
            Some((mk, _)) if *mk > key => self.max.clone(),
            _ => Some((key, value)),
        };
        PTreap {
            root,
            len,
            min,
            max,
        }
    }

    /// Returns a new version containing only the entries with key ≥
    /// `threshold` (the paper's `Split(T, s)`, which discards all blocks
    /// with index < `s`).
    ///
    /// Copies O(depth) nodes, but keeping `len` exact walks the discarded
    /// subtree once: the cost is O(log n + removed). Each key is removed
    /// at most once, so that walk is amortized O(1) per insert.
    #[must_use]
    pub fn split_ge(&self, threshold: u64) -> Self {
        let (below, kept) = split(&self.root, threshold);
        let removed = count(&below);
        drop(below);
        let len = self.len - removed;
        let min = min_entry(&kept).map(|(k, v)| (k, v.clone()));
        let max = if len == 0 { None } else { self.max.clone() };
        PTreap {
            root: kept,
            len,
            min,
            max,
        }
    }

    /// Finds the entry with the **smallest key** satisfying `pred`.
    ///
    /// `pred` must be *monotone in key order*: once true it stays true for
    /// all larger keys (e.g. "`block.endleft ≥ b`" or "`block.sumenq ≥ e`",
    /// which are non-decreasing in the block index by Lemma 4 / Invariant 7
    /// of the paper). Each node visit counts as one step, so the search is
    /// O(depth).
    #[must_use]
    pub fn first_where(&self, mut pred: impl FnMut(&V) -> bool) -> Option<(u64, &V)> {
        let mut cur = &self.root;
        let mut candidate = None;
        while let Some(node) = cur {
            metrics::record_tree_node_visit();
            if pred(&node.value) {
                candidate = Some((node.key, &node.value));
                cur = &node.left;
            } else {
                cur = &node.right;
            }
        }
        candidate
    }

    /// Finds the entry with the **largest key** satisfying `pred`.
    ///
    /// `pred` must be monotone the other way: once false it stays false for
    /// all larger keys (a true-prefix predicate such as "`endleft < b`").
    #[must_use]
    pub fn last_where(&self, mut pred: impl FnMut(&V) -> bool) -> Option<(u64, &V)> {
        let mut cur = &self.root;
        let mut candidate = None;
        while let Some(node) = cur {
            metrics::record_tree_node_visit();
            if pred(&node.value) {
                candidate = Some((node.key, &node.value));
                cur = &node.right;
            } else {
                cur = &node.left;
            }
        }
        candidate
    }

    /// In-order iterator over `(key, &value)` pairs (tests/introspection).
    pub fn iter(&self) -> Iter<'_, V> {
        let mut stack = Vec::new();
        push_left_spine(&self.root, &mut stack);
        Iter { stack }
    }

    /// Largest tree depth (introspection; expected O(log n)).
    #[must_use]
    pub fn depth(&self) -> usize {
        fn go<V>(link: &Link<V>) -> usize {
            match link {
                None => 0,
                Some(n) => 1 + go(&n.left).max(go(&n.right)),
            }
        }
        go(&self.root)
    }

    /// Heap bytes of the tree nodes this version reaches: one `Arc`
    /// allocation per entry (strong and weak counts, then the node with its
    /// value inline). Heap owned by the values themselves is not included
    /// (introspection).
    #[must_use]
    pub fn node_bytes(&self) -> usize {
        self.len * (2 * std::mem::size_of::<usize>() + std::mem::size_of::<Node<V>>())
    }
}

impl<V: Clone> Default for PTreap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + fmt::Debug> fmt::Debug for PTreap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V: Clone> FromIterator<(u64, V)> for PTreap<V> {
    fn from_iter<I: IntoIterator<Item = (u64, V)>>(iter: I) -> Self {
        iter.into_iter()
            .fold(PTreap::new(), |t, (k, v)| t.insert(k, v))
    }
}

/// In-order iterator over a [`PTreap`]. Created by [`PTreap::iter`].
pub struct Iter<'a, V> {
    stack: Vec<&'a Node<V>>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (u64, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.stack.pop()?;
        push_left_spine(&node.right, &mut self.stack);
        Some((node.key, &node.value))
    }
}

fn push_left_spine<'a, V>(mut link: &'a Link<V>, stack: &mut Vec<&'a Node<V>>) {
    while let Some(node) = link {
        stack.push(node);
        link = &node.left;
    }
}

/// Splits `link` into `(keys < key, keys >= key)`, copying only the search
/// path (O(depth) new nodes).
fn split<V: Clone>(link: &Link<V>, key: u64) -> (Link<V>, Link<V>) {
    match link {
        None => (None, None),
        Some(node) => {
            if node.key < key {
                let (lo, hi) = split(&node.right, key);
                let new = Arc::new(Node {
                    key: node.key,
                    value: node.value.clone(),
                    left: node.left.clone(),
                    right: lo,
                });
                (Some(new), hi)
            } else {
                let (lo, hi) = split(&node.left, key);
                let new = Arc::new(Node {
                    key: node.key,
                    value: node.value.clone(),
                    left: hi,
                    right: node.right.clone(),
                });
                (lo, Some(new))
            }
        }
    }
}

/// Merges two treaps where every key in `left` is smaller than every key in
/// `right`. Nodes on the merge path are copied only if another version
/// shares them (`Arc::make_mut`); a node the caller owns outright, such as
/// a fresh single node or a spine just copied by `split`, is relinked in
/// place.
fn merge<V: Clone>(left: Link<V>, right: Link<V>) -> Link<V> {
    match (left, right) {
        (None, r) => r,
        (l, None) => l,
        (Some(mut l), Some(mut r)) => {
            if priority_of(l.key) >= priority_of(r.key) {
                let node = Arc::make_mut(&mut l);
                node.right = merge(node.right.take(), Some(r));
                Some(l)
            } else {
                let node = Arc::make_mut(&mut r);
                node.left = merge(Some(l), node.left.take());
                Some(r)
            }
        }
    }
}

fn count<V>(link: &Link<V>) -> usize {
    match link {
        None => 0,
        Some(n) => 1 + count(&n.left) + count(&n.right),
    }
}

fn min_entry<V>(link: &Link<V>) -> Option<(u64, &V)> {
    let mut cur = link.as_ref()?;
    while let Some(left) = cur.left.as_ref() {
        cur = left;
    }
    Some((cur.key, &cur.value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn keys<V: Clone>(t: &PTreap<V>) -> Vec<u64> {
        t.iter().map(|(k, _)| k).collect()
    }

    #[derive(Debug, Clone)]
    pub(super) enum Op {
        Insert(u64, u64),
        SplitGe(u64),
        Get(u64),
    }

    /// Drives a treap and a `BTreeMap` through `ops`, asserting full
    /// agreement (entries, `len`, `min`, `max`, and `get` where asked) and
    /// the treap's heap order after every step.
    pub(super) fn check_against_model(ops: &[Op]) {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut treap: PTreap<u64> = PTreap::new();
        for op in ops {
            match *op {
                Op::Insert(k, v) => {
                    model.insert(k, v);
                    treap = treap.insert(k, v);
                }
                Op::SplitGe(s) => {
                    model = model.split_off(&s);
                    treap = treap.split_ge(s);
                }
                Op::Get(k) => assert_eq!(treap.get(k), model.get(&k), "get({k})"),
            }
            assert_eq!(treap.len(), model.len(), "len after {op:?}");
            let tpairs: Vec<(u64, u64)> = treap.iter().map(|(k, v)| (k, *v)).collect();
            let mpairs: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(tpairs, mpairs, "entries after {op:?}");
            assert_eq!(
                treap.min().map(|(k, v)| (k, *v)),
                model.iter().next().map(|(k, v)| (*k, *v))
            );
            assert_eq!(
                treap.max().map(|(k, v)| (k, *v)),
                model.iter().next_back().map(|(k, v)| (*k, *v))
            );
            check_heap_order(&treap.root, None, None);
        }
    }

    /// Checks the treap invariants: keys in search-tree order, and every
    /// node's priority at least its children's (heap order, which is what
    /// keeps the expected depth logarithmic).
    fn check_heap_order<V>(link: &Link<V>, lo: Option<u64>, hi: Option<u64>) {
        if let Some(n) = link {
            assert!(lo.is_none_or(|lo| lo < n.key) && hi.is_none_or(|hi| n.key < hi));
            for child in [&n.left, &n.right].into_iter().flatten() {
                assert!(priority_of(n.key) >= priority_of(child.key), "heap order");
            }
            check_heap_order(&n.left, lo, Some(n.key));
            check_heap_order(&n.right, Some(n.key), hi);
        }
    }

    #[test]
    fn empty_treap() {
        let t: PTreap<u32> = PTreap::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.min().is_none());
        assert!(t.max().is_none());
        assert!(t.get(0).is_none());
        assert!(t.first_where(|_| true).is_none());
        assert!(t.last_where(|_| true).is_none());
    }

    #[test]
    fn insert_and_get() {
        let t = PTreap::new()
            .insert(5, "five")
            .insert(1, "one")
            .insert(9, "nine");
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(5), Some(&"five"));
        assert_eq!(t.get(1), Some(&"one"));
        assert_eq!(t.get(9), Some(&"nine"));
        assert!(t.get(2).is_none());
        assert_eq!(t.min(), Some((1, &"one")));
        assert_eq!(t.max(), Some((9, &"nine")));
        assert_eq!(keys(&t), vec![1, 5, 9]);
    }

    #[test]
    fn insert_replaces_existing_key() {
        let t = PTreap::new().insert(3, 'a').insert(3, 'b');
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(3), Some(&'b'));
    }

    #[test]
    fn model_conformance_fixed_scripts() {
        use Op::{Get, Insert, SplitGe};
        // Splits of the empty treap, at 0 (keeps all) and past the maximum
        // (drops all), then descending inserts and overwrites after a split.
        check_against_model(&[SplitGe(0), SplitGe(7), Get(0), Insert(0, 1), SplitGe(0), Get(0)]);
        check_against_model(&[
            Insert(3, 30),
            Insert(2, 20),
            Insert(1, 10),
            SplitGe(u64::MAX),
            Insert(9, 90),
            Insert(8, 80),
            SplitGe(9),
            Insert(9, 99),
            Get(9),
            Get(8),
        ]);
    }

    #[test]
    fn persistence_old_versions_unchanged() {
        let t0: PTreap<u64> = PTreap::new();
        let t1 = t0.insert(1, 10);
        let t2 = t1.insert(2, 20);
        let t3 = t2.split_ge(2);
        assert_eq!(keys(&t0), Vec::<u64>::new());
        assert_eq!(keys(&t1), vec![1]);
        assert_eq!(keys(&t2), vec![1, 2]);
        assert_eq!(keys(&t3), vec![2]);
        assert_eq!(t1.get(1), Some(&10));
    }

    #[test]
    fn split_ge_discards_prefix_and_updates_min() {
        let t: PTreap<u64> = (0..100).map(|k| (k, k * 2)).collect();
        let s = t.split_ge(40);
        assert_eq!(s.len(), 60);
        assert_eq!(s.min(), Some((40, &80)));
        assert_eq!(s.max(), Some((99, &198)));
        assert!(s.get(39).is_none());
        assert_eq!(s.get(40), Some(&80));
        // Splitting below the minimum is a no-op.
        let same = s.split_ge(0);
        assert_eq!(keys(&same), keys(&s));
        // Splitting above the maximum empties the treap.
        let empty = s.split_ge(1000);
        assert!(empty.is_empty());
        assert!(empty.min().is_none());
        assert!(empty.max().is_none());
    }

    #[test]
    fn first_where_monotone_predicate() {
        // Values are non-decreasing in key, mirroring sumenq/endleft fields.
        let t: PTreap<u64> = (1..=50).map(|k| (k, k * 3)).collect();
        for target in [1, 2, 3, 75, 149, 150] {
            let expect = (1..=50).find(|k| k * 3 >= target);
            let got = t.first_where(|v| *v >= target).map(|(k, _)| k);
            assert_eq!(got, expect, "target {target}");
        }
        assert!(t.first_where(|v| *v >= 151).is_none());
    }

    #[test]
    fn last_where_true_prefix_predicate() {
        let t: PTreap<u64> = (1..=50).map(|k| (k, k * 3)).collect();
        for target in [1, 4, 75, 150, 151] {
            let expect = (1..=50).rev().find(|k| k * 3 < target);
            let got = t.last_where(|v| *v < target).map(|(k, _)| k);
            assert_eq!(got, expect, "target {target}");
        }
    }

    #[test]
    fn consecutive_indices_usage_pattern() {
        // The queue's usage: always insert max+1, periodically split.
        let mut t: PTreap<u64> = PTreap::new().insert(0, 0);
        for i in 1..=500u64 {
            let next = t.max().unwrap().0 + 1;
            assert_eq!(next, i);
            t = t.insert(next, i * 7);
            if i % 64 == 0 {
                t = t.split_ge(i - 10);
            }
        }
        // Keys are consecutive min..=max.
        let ks = keys(&t);
        for w in ks.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
        assert_eq!(*ks.last().unwrap(), 500);
    }

    #[test]
    fn depth_is_logarithmic_in_practice() {
        // The queue's access pattern: append `max + 1`, then split so that
        // a window of `n` keys stays live, over 2^16 appends. Priorities
        // are a fixed hash of the key, so the depths are deterministic.
        // The maxima measured after every append, 19, 26 and 33 for
        // n = 64, 512 and 4096, fit 7/3·log2(n) + 5 exactly; the bound
        // adds 3 levels of slack. Sampling every (n/64)-th window sees
        // the same maxima at a fraction of the cost.
        const SLACK: u32 = 3;
        for n in [64u64, 512, 4096] {
            // The first window is `n` ascending inserts.
            let mut t: PTreap<u64> = (0..n).map(|k| (k, k)).collect();
            let mut deepest = t.depth();
            for key in n..1 << 16 {
                t = t.insert(key, key).split_ge(key + 1 - n);
                if key % (n / 64) == 0 {
                    deepest = deepest.max(t.depth());
                }
            }
            assert_eq!(t.len() as u64, n);
            let bound = (7 * n.ilog2() / 3 + 5 + SLACK) as usize;
            assert!(deepest <= bound, "n = {n}: depth {deepest} > {bound}");
        }
    }

    #[test]
    fn searches_count_steps() {
        let t: PTreap<u64> = (0..1024).map(|k| (k, k)).collect();
        let (_, steps) = wfqueue_metrics::measure(|| {
            let _ = t.get(513);
        });
        assert!(steps.tree_node_visits > 0);
        assert!(steps.tree_node_visits <= 60);
    }

    #[test]
    fn debug_shows_entries() {
        let t = PTreap::new().insert(1, 'x');
        assert_eq!(format!("{t:?}"), "{1: 'x'}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..256, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
                (0u64..300).prop_map(Op::SplitGe),
                (0u64..300).prop_map(Op::Get),
            ]
        }

        proptest! {
            #[test]
            fn matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 0..150)) {
                check_against_model(&ops);
            }

            #[test]
            fn append_path_builds_the_split_merge_shape(
                kvs in proptest::collection::btree_map(0u64..512, any::<u64>(), 0..120),
                shuffle_seed in any::<u64>(),
            ) {
                // Ascending inserts all take the append path (key above the
                // cached max); a shuffled order mostly takes split–merge.
                let ascending: PTreap<u64> = kvs.iter().map(|(k, v)| (*k, *v)).collect();
                let mut shuffled: Vec<(u64, u64)> = kvs.iter().map(|(k, v)| (*k, *v)).collect();
                let mut x = shuffle_seed;
                for i in (1..shuffled.len()).rev() {
                    x = priority_of(x);
                    shuffled.swap(i, (x % (i as u64 + 1)) as usize);
                }
                let mixed: PTreap<u64> = shuffled.into_iter().collect();
                let entries = |t: &PTreap<u64>| t.iter().map(|(k, v)| (k, *v)).collect::<Vec<_>>();
                prop_assert_eq!(entries(&ascending), entries(&mixed));
                prop_assert_eq!(ascending.len(), mixed.len());
                prop_assert_eq!(ascending.min(), mixed.min());
                prop_assert_eq!(ascending.max(), mixed.max());
                prop_assert_eq!(ascending.depth(), mixed.depth());
                // Treaps are canonical in (key, priority_of(key)): the two
                // trees have the same shape, not just the same depth.
                fn preorder(link: &Link<u64>, out: &mut Vec<u64>) {
                    if let Some(n) = link {
                        out.push(n.key);
                        preorder(&n.left, out);
                        preorder(&n.right, out);
                    }
                }
                let (mut a, mut m) = (Vec::new(), Vec::new());
                preorder(&ascending.root, &mut a);
                preorder(&mixed.root, &mut m);
                prop_assert_eq!(a, m);
            }

            #[test]
            fn get_matches_model(kvs in proptest::collection::btree_map(0u64..512, any::<u64>(), 0..100), probes in proptest::collection::vec(0u64..512, 1..50)) {
                let treap: PTreap<u64> = kvs.iter().map(|(k, v)| (*k, *v)).collect();
                for p in probes {
                    prop_assert_eq!(treap.get(p), kvs.get(&p));
                }
            }

            #[test]
            fn first_last_where_match_linear_scan(
                n in 1u64..200,
                threshold in 0u64..700,
            ) {
                // value = 3k is monotone in k.
                let treap: PTreap<u64> = (0..n).map(|k| (k, 3 * k)).collect();
                let first = (0..n).find(|k| 3 * k >= threshold);
                let last = (0..n).rev().find(|k| 3 * k < threshold);
                prop_assert_eq!(treap.first_where(|v| *v >= threshold).map(|(k, _)| k), first);
                prop_assert_eq!(treap.last_where(|v| *v < threshold).map(|(k, _)| k), last);
            }
        }
    }
}

/// Conformance to the ordered-map contract the §6 queue relies on
/// (`insert`, `split_ge`, `get`, `min`, `max`), driven by compact
/// `(kind, key, value)` scripts: `kind % 3` picks insert, split or get.
#[cfg(test)]
mod trait_conformance {
    use super::tests::{check_against_model, Op};
    use proptest::prelude::*;

    fn check_script(script: &[(u8, u64, u64)]) {
        let ops: Vec<Op> = script
            .iter()
            .map(|&(kind, key, value)| match kind % 3 {
                0 => Op::Insert(key, value),
                1 => Op::SplitGe(key),
                _ => Op::Get(key),
            })
            .collect();
        check_against_model(&ops);
    }

    proptest! {
        #[test]
        fn model_conformance(ops in proptest::collection::vec(
            (0u8..3, 0u64..128, any::<u64>()), 0..150)) {
            check_script(&ops);
        }
    }

    #[test]
    fn model_conformance_fixed_scripts() {
        check_script(&[
            (0, 5, 50),
            (0, 1, 10),
            (0, 9, 90),
            (2, 5, 0),
            (1, 4, 0),
            (2, 1, 0),
            (0, 4, 44),
            (1, 100, 0),
            (0, 3, 33),
        ]);
    }
}
