//! The persistent-ordered-map interface of the bounded-space queue.
//!
//! §6 of the PODC 2023 paper replaces each ordering-tree node's infinite
//! `blocks` array with a *persistent* balanced search tree published by CAS
//! (a red–black tree made persistent with Driscoll et al. node copying).
//! The queue only needs a narrow operation set from that tree, captured here
//! as [`PersistentOrderedMap`]:
//!
//! * `insert` of a new maximum key (Lemma 24: indices only grow);
//! * `split_ge` — the paper's `Split(T, s)`, discarding every key below `s`;
//! * exact-key `get` (consecutive indices ⇒ the predecessor of key `k` is
//!   `k − 1`);
//! * O(1) `min`/`max` (the paper's `MinBlock`/`MaxBlock`);
//! * `first_where`/`last_where` under key-monotone predicates (the searches
//!   on `endleft`/`endright`/`sumenq` used by `Propagated`, `IndexDequeue`
//!   and `FindResponse`, justified by Lemma 4′ and Invariant 7).
//!
//! Two implementations are provided in this workspace: `wfqueue-treap`
//! (randomized, expected O(log n) path length) and `wfqueue-avl`
//! (height-balanced, worst-case O(log n) — matching the paper's worst-case
//! amortized analysis). The bounded queue is generic over this trait, and
//! the ablation bench `a3_block_store` compares the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A persistent (immutable, structurally shared) ordered map from `u64`
/// keys to values.
///
/// All "mutating" operations take `&self` and return a new version; old
/// versions remain valid, so a version can be published to concurrent
/// readers with one atomic pointer swap. Implementations must provide
/// O(log n) `get`/`insert`/`first_where`/`last_where` (worst or expected
/// case — see the implementing crate) and O(1) `min`/`max`/`len`.
/// `split_ge` costs O(log n + removed): both stores count the discarded
/// subtree to keep `len` exact instead of storing a size in every node.
/// Each key is removed at most once, so that is amortized O(1) per insert.
pub trait PersistentOrderedMap<V: Clone>: Clone + Send + Sync {
    /// Short name used in experiment tables (e.g. `"treap"`, `"avl"`).
    const NAME: &'static str;

    /// The empty map.
    fn empty() -> Self;

    /// Number of entries.
    fn len(&self) -> usize;

    /// Whether the map is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value bound to `key`, if present.
    fn get(&self, key: u64) -> Option<&V>;

    /// A new version with `key → value` inserted (replacing any existing
    /// binding).
    #[must_use]
    fn insert(&self, key: u64, value: V) -> Self;

    /// A new version containing only entries with key ≥ `threshold` (the
    /// paper's `Split`), in O(log n + removed) steps.
    #[must_use]
    fn split_ge(&self, threshold: u64) -> Self;

    /// The entry with the smallest key, in O(1).
    fn min(&self) -> Option<(u64, &V)>;

    /// The entry with the largest key, in O(1).
    fn max(&self) -> Option<(u64, &V)>;

    /// The entry with the **smallest** key satisfying `pred`, which must be
    /// monotone in key order (false…false then true…true).
    fn first_where(&self, pred: impl FnMut(&V) -> bool) -> Option<(u64, &V)>;

    /// The entry with the **largest** key satisfying `pred`, which must be
    /// a true-prefix predicate in key order (true…true then false…false).
    fn last_where(&self, pred: impl FnMut(&V) -> bool) -> Option<(u64, &V)>;

    /// All entries in ascending key order (introspection/tests).
    fn entries(&self) -> Vec<(u64, V)>;

    /// Height of the underlying tree (introspection; should be O(log n)).
    fn depth(&self) -> usize;

    /// Heap bytes of the tree nodes this version reaches: one node per
    /// entry, with its reference counts and its value inline. Heap owned by
    /// the values themselves is not included (introspection).
    fn node_bytes(&self) -> usize;
}

/// Model-based conformance checks shared by every implementation's test
/// suite: drives an implementation and a [`std::collections::BTreeMap`]
/// through the same operations and asserts full agreement.
///
/// # Panics
///
/// Panics on the first divergence (this is a test helper).
pub fn check_against_model<M: PersistentOrderedMap<u64>>(ops: &[(u8, u64, u64)]) {
    use std::collections::BTreeMap;
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut map = M::empty();
    assert!(map.is_empty());
    for &(kind, key, value) in ops {
        match kind % 3 {
            0 => {
                model.insert(key, value);
                map = map.insert(key, value);
            }
            1 => {
                model = model.split_off(&key);
                map = map.split_ge(key);
            }
            _ => {
                assert_eq!(map.get(key), model.get(&key), "get({key})");
            }
        }
        assert_eq!(map.len(), model.len(), "len after {kind}/{key}");
        let got = map.entries();
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "entries after {kind}/{key}");
        assert_eq!(
            map.min().map(|(k, v)| (k, *v)),
            model.iter().next().map(|(k, v)| (*k, *v))
        );
        assert_eq!(
            map.max().map(|(k, v)| (k, *v)),
            model.iter().next_back().map(|(k, v)| (*k, *v))
        );
    }
}
