//! A persistent height-balanced (AVL) map keyed by `u64`.
//!
//! This is the *worst-case* balanced block store for the bounded-space
//! queue of the PODC 2023 paper. The paper uses a persistent red–black tree
//! (Driscoll et al. node copying); any persistent balanced BST with
//! worst-case `O(log n)` `insert`/`split`/search and O(1) `min`/`max` is
//! interchangeable, and a join-based AVL tree is the simplest such structure
//! to implement and verify. It implements the same
//! [`PersistentOrderedMap`] interface as the expected-case
//! `wfqueue_treap::PTreap`, so the queue can be instantiated with either
//! (see the `a3_block_store` ablation).
//!
//! Structure sharing is via [`Arc`]: `insert` and `split_ge` copy only
//! `O(log n)` nodes (the search path plus rebalancing spines), never the
//! whole tree, so a new version can be published to concurrent readers with
//! a single CAS. Inserting above the maximum, the queue's only insert, is
//! one `join` down the right spine. `split_ge` also counts the subtree it
//! discards to keep `len` exact, so it costs O(log n + removed).
//!
//! # Examples
//!
//! ```
//! use wfqueue_avl::PAvl;
//! use wfqueue_pstore::PersistentOrderedMap;
//!
//! let t = PAvl::empty().insert(1, "a").insert(2, "b").insert(3, "c");
//! let newer = t.split_ge(3);
//! assert_eq!(newer.get(3), Some(&"c"));
//! assert!(newer.get(2).is_none());
//! assert_eq!(t.len(), 3); // old version untouched
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use wfqueue_metrics as metrics;
use wfqueue_pstore::PersistentOrderedMap;

type Link<V> = Option<Arc<Node<V>>>;

#[derive(Debug)]
struct Node<V> {
    key: u64,
    value: V,
    height: u32,
    left: Link<V>,
    right: Link<V>,
}

fn height<V>(link: &Link<V>) -> u32 {
    link.as_ref().map_or(0, |n| n.height)
}

/// Builds a node; requires |h(left) − h(right)| ≤ 1.
fn mk<V: Clone>(key: u64, value: V, left: Link<V>, right: Link<V>) -> Link<V> {
    debug_assert!(height(&left).abs_diff(height(&right)) <= 1);
    Some(Arc::new(Node {
        key,
        value,
        height: 1 + height(&left).max(height(&right)),
        left,
        right,
    }))
}

/// Builds a node, restoring the AVL invariant when the children's heights
/// differ by at most 2 (the classic single/double rotations). This is the
/// only rebalancing primitive `join`/`split` need: unwinding a join spine
/// raises a subtree's height by at most one per level.
fn balance<V: Clone>(key: u64, value: V, left: Link<V>, right: Link<V>) -> Link<V> {
    let (hl, hr) = (height(&left), height(&right));
    if hl <= hr + 1 && hr <= hl + 1 {
        return mk(key, value, left, right);
    }
    if hl == hr + 2 {
        // Left-heavy. `l` exists because hl ≥ 2.
        let l = left.expect("left-heavy node has a left child");
        if height(&l.left) >= height(&l.right) {
            // Single right rotation.
            let new_right = mk(key, value, l.right.clone(), right);
            mk(l.key, l.value.clone(), l.left.clone(), new_right)
        } else {
            // Double rotation (left-right). `lr` exists since h(l.right) > h(l.left) ≥ 0.
            let lr = l.right.clone().expect("double rotation pivot exists");
            let new_left = mk(l.key, l.value.clone(), l.left.clone(), lr.left.clone());
            let new_right = mk(key, value, lr.right.clone(), right);
            mk(lr.key, lr.value.clone(), new_left, new_right)
        }
    } else {
        debug_assert_eq!(hr, hl + 2);
        let r = right.expect("right-heavy node has a right child");
        if height(&r.right) >= height(&r.left) {
            // Single left rotation.
            let new_left = mk(key, value, left, r.left.clone());
            mk(r.key, r.value.clone(), new_left, r.right.clone())
        } else {
            // Double rotation (right-left).
            let rl = r.left.clone().expect("double rotation pivot exists");
            let new_left = mk(key, value, left, rl.left.clone());
            let new_right = mk(r.key, r.value.clone(), rl.right.clone(), r.right.clone());
            mk(rl.key, rl.value.clone(), new_left, new_right)
        }
    }
}

/// Joins `left < key < right` into one balanced tree in
/// O(|h(left) − h(right)|): descend the taller tree's spine to a subtree of
/// compatible height, attach, and rebalance on the way back up.
fn join<V: Clone>(left: Link<V>, key: u64, value: V, right: Link<V>) -> Link<V> {
    let (hl, hr) = (height(&left), height(&right));
    if hl > hr + 1 {
        let l = left.expect("taller tree is non-empty");
        let joined = join(l.right.clone(), key, value, right);
        balance(l.key, l.value.clone(), l.left.clone(), joined)
    } else if hr > hl + 1 {
        let r = right.expect("taller tree is non-empty");
        let joined = join(left, key, value, r.left.clone());
        balance(r.key, r.value.clone(), joined, r.right.clone())
    } else {
        mk(key, value, left, right)
    }
}

/// Splits into `(keys < at, keys >= at)`, copying O(log n) nodes.
fn split<V: Clone>(link: &Link<V>, at: u64) -> (Link<V>, Link<V>) {
    match link {
        None => (None, None),
        Some(node) => {
            if node.key < at {
                let (lo, hi) = split(&node.right, at);
                (
                    join(node.left.clone(), node.key, node.value.clone(), lo),
                    hi,
                )
            } else {
                let (lo, hi) = split(&node.left, at);
                (
                    lo,
                    join(hi, node.key, node.value.clone(), node.right.clone()),
                )
            }
        }
    }
}

fn count<V>(link: &Link<V>) -> usize {
    link.as_ref()
        .map_or(0, |n| 1 + count(&n.left) + count(&n.right))
}

fn min_entry<V>(link: &Link<V>) -> Option<(u64, &V)> {
    let mut cur = link.as_ref()?;
    while let Some(left) = cur.left.as_ref() {
        cur = left;
    }
    Some((cur.key, &cur.value))
}

/// A persistent AVL map with cached O(1) `min`/`max`/`len`.
///
/// See the crate docs; the API is the [`PersistentOrderedMap`] trait.
#[derive(Clone)]
pub struct PAvl<V> {
    root: Link<V>,
    len: usize,
    min: Option<(u64, V)>,
    max: Option<(u64, V)>,
}

impl<V: Clone + Send + Sync> PersistentOrderedMap<V> for PAvl<V> {
    const NAME: &'static str = "avl";

    fn empty() -> Self {
        PAvl {
            root: None,
            len: 0,
            min: None,
            max: None,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, key: u64) -> Option<&V> {
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

    /// A key above the cached maximum is an append: one `join` of the root
    /// with the new binding, which walks down the right spine once. Any
    /// other key takes the general split–join path.
    fn insert(&self, key: u64, value: V) -> Self {
        if self.max.as_ref().is_none_or(|(mk, _)| *mk < key) {
            return PAvl {
                root: join(self.root.clone(), key, value.clone(), None),
                len: self.len + 1,
                min: self.min.clone().or_else(|| Some((key, value.clone()))),
                max: Some((key, value)),
            };
        }
        let (below, at_or_above) = split(&self.root, key);
        let had_key = self.get(key).is_some();
        let (_, above) = split(&at_or_above, key + 1);
        let root = join(
            below,
            key,
            value.clone(),
            // Re-join `above` with the new binding in the middle.
            above,
        );
        let len = if had_key { self.len } else { self.len + 1 };
        let min = match &self.min {
            Some((mk, _)) if *mk < key => self.min.clone(),
            _ => Some((key, value.clone())),
        };
        let max = match &self.max {
            Some((mk, _)) if *mk > key => self.max.clone(),
            _ => Some((key, value)),
        };
        PAvl {
            root,
            len,
            min,
            max,
        }
    }

    /// Copies O(log n) nodes, but keeping `len` exact walks the discarded
    /// subtree once: the cost is O(log n + removed), amortized O(1) per
    /// insert since each key is removed at most once.
    fn split_ge(&self, threshold: u64) -> Self {
        let (below, kept) = split(&self.root, threshold);
        let removed = count(&below);
        drop(below);
        let len = self.len - removed;
        let min = min_entry(&kept).map(|(k, v)| (k, v.clone()));
        let max = if len == 0 { None } else { self.max.clone() };
        PAvl {
            root: kept,
            len,
            min,
            max,
        }
    }

    fn min(&self) -> Option<(u64, &V)> {
        self.min.as_ref().map(|(k, v)| (*k, v))
    }

    fn max(&self) -> Option<(u64, &V)> {
        self.max.as_ref().map(|(k, v)| (*k, v))
    }

    fn first_where(&self, mut pred: impl FnMut(&V) -> bool) -> Option<(u64, &V)> {
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

    fn last_where(&self, mut pred: impl FnMut(&V) -> bool) -> Option<(u64, &V)> {
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

    fn entries(&self) -> Vec<(u64, V)> {
        fn walk<V: Clone>(link: &Link<V>, out: &mut Vec<(u64, V)>) {
            if let Some(n) = link {
                walk(&n.left, out);
                out.push((n.key, n.value.clone()));
                walk(&n.right, out);
            }
        }
        let mut out = Vec::with_capacity(self.len);
        walk(&self.root, &mut out);
        out
    }

    fn depth(&self) -> usize {
        height(&self.root) as usize
    }

    fn node_bytes(&self) -> usize {
        // Each node is one `Arc` allocation: strong and weak counts, then
        // the node.
        self.len * (2 * std::mem::size_of::<usize>() + std::mem::size_of::<Node<V>>())
    }
}

impl<V: Clone + Send + Sync> Default for PAvl<V> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<V: Clone + Send + Sync + fmt::Debug> fmt::Debug for PAvl<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries().iter().map(|(k, v)| (*k, v.clone())))
            .finish()
    }
}

impl<V: Clone + Send + Sync> PAvl<V> {
    /// Checks the AVL invariants (BST order, height bookkeeping, balance
    /// factor ≤ 1 everywhere). For tests.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        fn go<V>(link: &Link<V>, lo: Option<u64>, hi: Option<u64>) -> Result<u32, String> {
            let Some(n) = link else { return Ok(0) };
            if let Some(lo) = lo {
                if n.key <= lo {
                    return Err(format!("key {} violates lower bound {lo}", n.key));
                }
            }
            if let Some(hi) = hi {
                if n.key >= hi {
                    return Err(format!("key {} violates upper bound {hi}", n.key));
                }
            }
            let hl = go(&n.left, lo, Some(n.key))?;
            let hr = go(&n.right, Some(n.key), hi)?;
            if hl.abs_diff(hr) > 1 {
                return Err(format!("imbalance at key {}: {hl} vs {hr}", n.key));
            }
            let h = 1 + hl.max(hr);
            if h != n.height {
                return Err(format!("bad height at key {}: {} != {h}", n.key, n.height));
            }
            Ok(h)
        }
        go(&self.root, None, None).map(|_| ())?;
        if count(&self.root) != self.len {
            return Err("len out of sync".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(t: &PAvl<u64>) -> Vec<u64> {
        t.entries().into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn empty_map() {
        let t: PAvl<u64> = PAvl::empty();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.min().is_none());
        assert!(t.max().is_none());
        assert!(t.get(0).is_none());
        assert_eq!(t.depth(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_ascending_stays_balanced() {
        let mut t: PAvl<u64> = PAvl::empty();
        for k in 0..1024 {
            t = t.insert(k, k * 2);
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 1024);
        // Worst-case AVL height bound: 1.44 log2(n+2) ≈ 14.5 for n=1024.
        assert!(t.depth() <= 15, "depth {}", t.depth());
        assert_eq!(t.min().unwrap().0, 0);
        assert_eq!(t.max().unwrap().0, 1023);
        for k in (0..1024).step_by(37) {
            assert_eq!(t.get(k), Some(&(k * 2)));
        }
    }

    #[test]
    fn insert_descending_and_random_patterns() {
        let mut t: PAvl<u64> = PAvl::empty();
        for k in (0..512).rev() {
            t = t.insert(k, k);
        }
        t.check_invariants().unwrap();
        assert!(t.depth() <= 14);
        // Pseudo-random insertion order.
        let mut t2: PAvl<u64> = PAvl::empty();
        let mut x = 1u64;
        for _ in 0..512 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            t2 = t2.insert(x >> 52, x);
        }
        t2.check_invariants().unwrap();
    }

    #[test]
    fn insert_replaces() {
        let t = PAvl::empty().insert(5, 'a').insert(5, 'b');
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(5), Some(&'b'));
    }

    #[test]
    fn split_ge_behaviour_and_persistence() {
        let mut t: PAvl<u64> = PAvl::empty();
        for k in 0..200 {
            t = t.insert(k, k);
        }
        let s = t.split_ge(60);
        s.check_invariants().unwrap();
        assert_eq!(s.len(), 140);
        assert_eq!(s.min().unwrap().0, 60);
        assert_eq!(s.max().unwrap().0, 199);
        assert!(s.get(59).is_none());
        assert_eq!(t.len(), 200, "old version untouched");
        assert_eq!(keys(&t).len(), 200);
        let empty = s.split_ge(10_000);
        assert!(empty.is_empty());
        assert!(empty.min().is_none() && empty.max().is_none());
    }

    #[test]
    fn first_and_last_where() {
        let mut t: PAvl<u64> = PAvl::empty();
        for k in 1..=100 {
            t = t.insert(k, 5 * k);
        }
        for target in [1, 5, 250, 500, 501] {
            let first = (1..=100).find(|k| 5 * k >= target);
            let last = (1..=100).rev().find(|k| 5 * k < target);
            assert_eq!(t.first_where(|v| *v >= target).map(|(k, _)| k), first);
            assert_eq!(t.last_where(|v| *v < target).map(|(k, _)| k), last);
        }
    }

    #[test]
    fn queue_usage_pattern_insert_max_split_prefix() {
        let mut t: PAvl<u64> = PAvl::empty().insert(0, 0);
        for i in 1..=2_000u64 {
            let next = t.max().unwrap().0 + 1;
            t = t.insert(next, i);
            if i % 128 == 0 {
                t = t.split_ge(i - 20);
                t.check_invariants().unwrap();
            }
        }
        let ks = keys(&t);
        for w in ks.windows(2) {
            assert_eq!(w[1], w[0] + 1, "consecutive indices");
        }
        assert!(t.depth() <= 10, "depth {} for ~150 keys", t.depth());
    }

    #[test]
    fn searches_record_steps() {
        let mut t: PAvl<u64> = PAvl::empty();
        for k in 0..256 {
            t = t.insert(k, k);
        }
        let (_, steps) = metrics::measure(|| {
            let _ = t.get(200);
            let _ = t.first_where(|v| *v >= 100);
        });
        assert!(steps.tree_node_visits >= 2);
        assert!(steps.tree_node_visits <= 2 * t.depth() as u64 + 2);
    }

    #[test]
    fn model_conformance_fixed_scripts() {
        wfqueue_pstore::check_against_model::<PAvl<u64>>(&[
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

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn model_conformance(ops in proptest::collection::vec(
                (0u8..3, 0u64..128, any::<u64>()), 0..150)) {
                wfqueue_pstore::check_against_model::<PAvl<u64>>(&ops);
            }

            #[test]
            fn always_balanced(ops in proptest::collection::vec(
                (0u8..2, 0u64..256, any::<u64>()), 0..200)) {
                let mut t: PAvl<u64> = PAvl::empty();
                for (kind, key, value) in ops {
                    t = if kind == 0 { t.insert(key, value) } else { t.split_ge(key) };
                    prop_assert!(t.check_invariants().is_ok());
                }
            }
        }
    }
}
