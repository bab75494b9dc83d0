//! Model tests of the §6 block store (`bounded::store`): a `BTreeMap`
//! driven through the queue's access pattern (consecutive appends, prefix
//! splits, lookups and monotone searches) must agree with the store after
//! every step, and the store's depth must stay within its worst-case
//! bound.

use std::collections::BTreeMap;

use crate::bounded::block::Block;
use crate::bounded::store::BlockStore;

/// The test block for `key`: `sumenq = 3·key` is monotone in the key, as in
/// the queue, and `sumdeq` carries a free `tag` to tell versions apart.
fn blk(key: u64, tag: u64) -> Block<u64> {
    Block::internal(
        3 * key as usize,
        tag as usize,
        key as usize,
        2 * key as usize,
        0,
    )
}

fn tag(block: &Block<u64>) -> u64 {
    block.sumdeq as u64
}

fn keys(store: &BlockStore<u64>) -> Vec<u64> {
    store.iter().map(|(k, _)| k).collect()
}

/// The entries of a version, folded into one number.
fn fingerprint(store: &BlockStore<u64>) -> u64 {
    store.iter().fold(store.len() as u64, |h, (k, b)| {
        h.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k << 32 ^ tag(b))
    })
}

/// A store holding keys `0..n`, tagged with their keys.
fn filled(n: u64) -> BlockStore<u64> {
    (0..n).fold(BlockStore::new(), |s, k| s.append(k, blk(k, k)))
}

/// `⌈log₁₆ n⌉ + 1`, the store's worst-case depth for `n` blocks.
fn depth_bound(n: usize) -> usize {
    let mut levels = 0;
    while 16usize.pow(levels) < n {
        levels += 1;
    }
    levels as usize + 1
}

/// Where a split lands relative to the live range.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cut {
    /// At or below the minimum: a no-op.
    BelowMin,
    /// Strictly inside the range, `d` keys past the minimum (mod `len`).
    Inside,
    /// At the maximum: one block stays.
    AtMax,
    /// Past the maximum: the store empties.
    PastMax,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Appends the next key with a tag. An empty store re-bases at a key
    /// `tag % 3` past the last one it held.
    Append(u64),
    /// Splits at a key chosen by the cut and a distance.
    SplitGe(Cut, u64),
    /// Looks up a key from two below the minimum to two above the maximum.
    Get(u64),
    /// Searches for the first `sumenq ≥ t`, with `t` from below the first
    /// block's (all true) to above the last block's (all false).
    FirstWhere(u64),
}

/// Drives a store and a `BTreeMap` through `ops`, asserting agreement on
/// the entries, `len`, `min`, `max`, and `get` and `first_where` where
/// asked, plus the depth bound, after every step. Old versions must stay
/// as they were.
pub(crate) fn check_against_model(ops: &[Op]) {
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut store: BlockStore<u64> = BlockStore::new();
    let mut versions = Vec::new();
    let mut next_key = 0;
    for &op in ops {
        let (min, max) = match (model.keys().next(), model.keys().next_back()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (next_key, next_key),
        };
        let len = model.len() as u64;
        match op {
            Op::Append(t) => {
                let key = if model.is_empty() {
                    next_key + t % 3
                } else {
                    max + 1
                };
                model.insert(key, t);
                store = store.append(key, blk(key, t));
                next_key = key + 1;
            }
            Op::SplitGe(cut, d) => {
                let s = match cut {
                    _ if model.is_empty() => d,
                    Cut::BelowMin => min.saturating_sub(d % 3),
                    Cut::Inside => min + d % len,
                    Cut::AtMax => max,
                    Cut::PastMax => max + 1 + d % 3,
                };
                model = model.split_off(&s);
                store = store.split_ge(s);
            }
            Op::Get(d) => {
                let key = min.saturating_sub(2) + d % (len + 5);
                assert_eq!(
                    store.get(key).map(tag),
                    model.get(&key).copied(),
                    "get({key})"
                );
            }
            Op::FirstWhere(d) => {
                let t = (3 * min).saturating_sub(3) + d % (3 * len + 7);
                let want = model.keys().copied().find(|k| 3 * k >= t);
                let got = store.first_where(|s| s.sumenq as u64 >= t).map(|(k, b)| {
                    assert_eq!(
                        b.sumenq as u64,
                        3 * k,
                        "first_where returns its key's block"
                    );
                    k
                });
                assert_eq!(got, want, "first_where(sumenq >= {t})");
            }
        }
        assert_eq!(store.len(), model.len(), "len after {op:?}");
        assert_eq!(store.is_empty(), model.is_empty());
        let entries: Vec<(u64, u64)> = store.iter().map(|(k, b)| (k, tag(b))).collect();
        let expect: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(entries, expect, "entries after {op:?}");
        assert_eq!(
            store.min().map(|(k, b)| (k, tag(b))),
            expect.first().copied()
        );
        assert_eq!(
            store.max().map(|(k, b)| (k, tag(b))),
            expect.last().copied()
        );
        assert!(
            store.depth() <= depth_bound(store.len()),
            "depth {} over {} blocks after {op:?}",
            store.depth(),
            store.len()
        );
        versions.push((store.clone(), fingerprint(&store)));
    }
    for (version, print) in &versions {
        assert_eq!(fingerprint(version), *print, "an old version changed");
    }
}

#[test]
fn empty_store() {
    let s: BlockStore<u64> = BlockStore::new();
    assert!(s.is_empty());
    assert_eq!(s.len(), 0);
    assert_eq!(s.depth(), 0);
    assert!(s.min().is_none());
    assert!(s.max().is_none());
    assert!(s.get(0).is_none());
    assert!(s.first_where(|_| true).is_none());
    assert!(s.split_ge(5).is_empty());
}

#[test]
fn append_and_get() {
    let s = BlockStore::new()
        .append(5, blk(5, 50))
        .append(6, blk(6, 60))
        .append(7, blk(7, 70));
    assert_eq!(s.len(), 3);
    assert_eq!(s.get(6).map(tag), Some(60));
    assert!(s.get(4).is_none() && s.get(8).is_none());
    assert_eq!(s.min().map(|(k, b)| (k, tag(b))), Some((5, 50)));
    assert_eq!(s.max().map(|(k, b)| (k, tag(b))), Some((7, 70)));
    assert_eq!(keys(&s), vec![5, 6, 7]);
    // Past the tail, blocks live in the trie's leaves.
    let big = filled(5000);
    for k in [0, 15, 16, 255, 256, 4095, 4096, 4999] {
        assert_eq!(big.get(k).map(tag), Some(k), "get({k})");
    }
}

#[test]
#[should_panic(expected = "appended in order")]
fn append_rejects_a_gap() {
    let _ = filled(3).append(4, blk(4, 4));
}

#[test]
fn model_conformance_fixed_scripts() {
    use Cut::{AtMax, BelowMin, Inside, PastMax};
    use Op::{Append, FirstWhere, Get, SplitGe};
    // Splits and searches of the empty store, an emptying split and the
    // re-based appends after it.
    check_against_model(&[
        SplitGe(Inside, 0),
        FirstWhere(0),
        Get(0),
        Append(1),
        SplitGe(BelowMin, 0),
        SplitGe(PastMax, 0),
        Append(2),
        Append(5),
        SplitGe(AtMax, 0),
        Get(2),
        FirstWhere(3),
    ]);
    // Every cut and search kind against a trie of several levels.
    let mut ops = vec![Append(7); 700];
    for d in [0, 1, 17, 200, 690] {
        ops.extend([FirstWhere(d), FirstWhere(3 * d + 1), Get(d + 2)]);
    }
    ops.extend([SplitGe(Inside, 300), FirstWhere(0), FirstWhere(500)]);
    ops.extend([SplitGe(Inside, 390), Get(0), Get(3), FirstWhere(10_000)]);
    ops.extend(vec![Append(9); 40]);
    ops.extend([SplitGe(AtMax, 0), SplitGe(PastMax, 1), Append(4)]);
    check_against_model(&ops);
}

#[test]
fn persistence_old_versions_unchanged() {
    let s0 = filled(40);
    let s1 = s0.append(40, blk(40, 400));
    let s2 = s1.split_ge(20);
    let s3 = s2.split_ge(41);
    assert_eq!(keys(&s0), (0..40).collect::<Vec<_>>());
    assert_eq!(keys(&s1), (0..41).collect::<Vec<_>>());
    assert_eq!(keys(&s2), (20..41).collect::<Vec<_>>());
    assert!(s3.is_empty());
    assert_eq!(s0.get(5).map(tag), Some(5));
    assert_eq!(s1.get(40).map(tag), Some(400));
}

#[test]
fn split_ge_discards_prefix_and_updates_min() {
    let s = filled(100);
    let t = s.split_ge(40);
    assert_eq!(t.len(), 60);
    assert_eq!(t.min().map(|(k, b)| (k, tag(b))), Some((40, 40)));
    assert_eq!(t.max().map(|(k, _)| k), Some(99));
    assert!(t.get(39).is_none());
    assert_eq!(t.get(40).map(tag), Some(40));
    // Splitting at or below the minimum is a no-op.
    assert_eq!(keys(&t.split_ge(0)), keys(&t));
    // Splitting past the maximum empties the store, which then re-bases.
    let empty = t.split_ge(1000);
    assert!(empty.is_empty() && empty.min().is_none() && empty.max().is_none());
    let rebased = empty.append(2000, blk(2000, 1));
    assert_eq!(keys(&rebased), vec![2000]);
}

#[test]
fn first_where_monotone_predicate() {
    // sumenq = 3·key, monotone in the key, as the queue's fields are.
    let s = filled(600).split_ge(37);
    for target in [0, 1, 111, 112, 300, 1000, 1797, 1798] {
        let expect = (37..600).find(|k| 3 * k >= target);
        let got = s.first_where(|b| b.sumenq as u64 >= target).map(|(k, _)| k);
        assert_eq!(got, expect, "target {target}");
    }
    assert!(s.first_where(|b| b.sumenq >= 1799).is_none());
    assert_eq!(
        s.first_where(|b| b.end(true) >= 100).map(|(k, _)| k),
        Some(100)
    );
    assert_eq!(
        s.first_where(|b| b.end(false) >= 101).map(|(k, _)| k),
        Some(51)
    );
}

#[test]
fn consecutive_indices_usage_pattern() {
    // The queue's usage: always append max + 1, periodically split.
    let mut s = filled(1);
    for i in 1..=5000u64 {
        let next = s.max().unwrap().0 + 1;
        assert_eq!(next, i);
        s = s.append(next, blk(next, i * 7));
        if i % 64 == 0 {
            s = s.split_ge(i - 10);
        }
    }
    let ks = keys(&s);
    assert!(ks.windows(2).all(|w| w[1] == w[0] + 1));
    assert_eq!(ks, (4982..=5000).collect::<Vec<_>>());
    assert_eq!(s.get(4990).map(tag), Some(4990 * 7));
}

#[test]
fn depth_is_worst_case_logarithmic() {
    // Appends alone build the shallowest trie: the tail holds the last 1
    // to 16 blocks, and the rest fill whole leaves.
    for n in [1u64, 16, 17, 32, 33, 272, 273, 4112, 4113, 70_000] {
        let trie_blocks = (n - 1) / 16 * 16;
        let mut levels = 0;
        while trie_blocks > 0 && 16u64.pow(levels) < trie_blocks {
            levels += 1;
        }
        assert_eq!(filled(n).depth(), levels as usize, "{n} appends");
    }
    // A sliding window of `n` keys (append, then split) over 2^16 keys
    // crosses every 16^k boundary below it, with the live range straddling
    // each. After every step the depth is within ⌈log₁₆ n⌉ + 1, and the
    // deepest trie each window meets is pinned exactly: the bound itself
    // from n = 64 on; for n = 16 the trie's live blocks fit one leaf.
    for (n, deepest_expected) in [(16u64, 1), (64, 3), (512, 4), (4096, 4)] {
        let mut s = filled(n);
        let mut deepest = 0;
        for key in n..1 << 16 {
            s = s.append(key, blk(key, key)).split_ge(key + 1 - n);
            assert_eq!(s.len() as u64, n);
            assert!(s.depth() <= depth_bound(s.len()), "n = {n}, key {key}");
            deepest = deepest.max(s.depth());
        }
        assert_eq!(deepest, deepest_expected, "n = {n}");
        assert_eq!(keys(&s), (65_536 - n..65_536).collect::<Vec<_>>());
    }
}

#[test]
fn split_to_a_few_blocks_across_a_boundary_rebuilds_shallow() {
    // 4,200 appends build four levels. A split that leaves 110 blocks on
    // both sides of position 4,096 keeps two live children at the root,
    // so only a rebuild brings the depth within ⌈log₁₆ 110⌉ + 1 = 3.
    let s = filled(4200);
    assert_eq!(s.depth(), 4);
    let t = s.split_ge(4090);
    assert_eq!(t.len(), 110);
    assert_eq!(t.depth(), 2);
    assert_eq!(keys(&t), (4090..4200).collect::<Vec<_>>());
    assert_eq!(t.get(4100).map(tag), Some(4100));
    assert!(t.get(4089).is_none());
    let first = |s: &BlockStore<u64>, e| s.first_where(|b| b.sumenq >= e).map(|(k, _)| k);
    assert_eq!(first(&t, 0), Some(4090));
    assert_eq!(first(&t, 3 * 4150), Some(4150));
    // The rebuilt trie keeps taking appends, and the old version is intact.
    let u = (4200..4300).fold(t, |u, k| u.append(k, blk(k, k)));
    assert_eq!(keys(&u), (4090..4300).collect::<Vec<_>>());
    assert_eq!(keys(&s), (0..4200).collect::<Vec<_>>());
}

#[test]
fn split_drops_root_levels_with_one_live_child() {
    // 300 appends put 288 blocks in a trie of three levels. A split at 260
    // leaves the trie's live blocks under the root's second child, which
    // becomes the root: one level fewer, with positions re-based.
    let s = filled(300);
    assert_eq!(s.depth(), 3);
    let t = s.split_ge(260);
    assert_eq!(t.depth(), 2);
    let u = (300..400).fold(t, |u, k| u.append(k, blk(k, k)));
    assert_eq!(keys(&u), (260..400).collect::<Vec<_>>());
    for k in [260, 271, 272, 287, 288, 399] {
        assert_eq!(u.get(k).map(tag), Some(k), "get({k})");
    }
    assert_eq!(
        u.first_where(|b| b.sumenq >= 3 * 290).map(|(k, _)| k),
        Some(290)
    );
}

#[test]
fn split_releases_the_payloads_it_discards() {
    // Leaf blocks share their payload through an `Arc`; once the old
    // version is gone, only the blocks a split keeps may still hold it,
    // including those sharing a trie leaf with the split key.
    let mut prev = Block::dummy();
    let mut s = BlockStore::new();
    let mut payloads = Vec::new();
    for k in 0..100u64 {
        let block = Block::leaf_enqueue(k, &prev);
        payloads.push(block.op.clone().expect("a leaf block has a payload"));
        s = s.append(k, block.clone());
        prev = block;
    }
    drop(prev);
    let t = s.split_ge(40);
    drop(s);
    for (k, payload) in payloads.iter().enumerate() {
        let held = if k < 40 { 1 } else { 2 };
        assert_eq!(std::sync::Arc::strong_count(payload), held, "block {k}");
    }
    drop(t);
    assert!(payloads
        .iter()
        .all(|p| std::sync::Arc::strong_count(p) == 1));
}

#[test]
fn heap_bytes_counts_the_header_and_each_trie_node() {
    let header = size_of::<BlockStore<u64>>();
    assert_eq!(filled(16).heap_bytes(), header, "all in the tail");
    // 273 appends: 272 blocks in 17 leaves under two inner levels (a root
    // and the spine to the 17th leaf), the last block in the tail.
    let s = filled(273);
    let node = (filled(33).heap_bytes() - header) / 3;
    assert_eq!(s.heap_bytes(), header + (17 + 2 + 1) * node);
    // A split inside the 17th leaf unlinks the first 16, and the levels
    // above the 17th, each left with one live child, go: the leaf is the
    // root.
    assert_eq!(s.split_ge(260).heap_bytes(), header + node);
}

#[test]
fn searches_count_steps() {
    let s = filled(1024);
    assert_eq!(s.depth(), 3);
    // A trie lookup enters one node per level and reads one block; a tail
    // lookup reads one block.
    let (_, trie) = wfqueue_metrics::measure(|| s.get(513));
    assert_eq!(trie.tree_node_visits, 3 + 1);
    let (_, tail) = wfqueue_metrics::measure(|| s.get(1023));
    assert_eq!(tail.tree_node_visits, 1);
    // A trie search probes the trie's last summary, then enters one node
    // per level and probes at most log₂ 16 = 4 summaries or blocks there.
    let (found, steps) = wfqueue_metrics::measure(|| s.first_where(|b| b.sumenq >= 3 * 513));
    assert_eq!(found.map(|(k, _)| k), Some(513));
    assert!(steps.tree_node_visits <= 1 + 3 * (1 + 4), "{steps:?}");
    // At least the probe of the last summary and one node per level.
    assert!(steps.tree_node_visits > 3);
}

#[test]
fn debug_shows_entries() {
    let s = BlockStore::new().append(1, Block::<u64>::internal(3, 0, 1, 2, 0));
    assert_eq!(
        format!("{s:?}"),
        "{1: Block { sumenq: 3, sumdeq: 0, endleft: 1, endright: 2, size: 0, op: None }}"
    );
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn cut() -> impl Strategy<Value = Cut> {
        prop_oneof![
            Just(Cut::BelowMin),
            Just(Cut::Inside),
            Just(Cut::AtMax),
            Just(Cut::PastMax),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        // Appends outnumber the other kinds so that scripts build tries
        // of several levels.
        prop_oneof![
            any::<u64>().prop_map(Op::Append),
            any::<u64>().prop_map(Op::Append),
            any::<u64>().prop_map(Op::Append),
            any::<u64>().prop_map(Op::Append),
            any::<u64>().prop_map(Op::Append),
            any::<u64>().prop_map(Op::Append),
            (cut(), any::<u64>()).prop_map(|(c, d)| Op::SplitGe(c, d)),
            any::<u64>().prop_map(Op::Get),
            any::<u64>().prop_map(Op::FirstWhere),
        ]
    }

    proptest! {
        #[test]
        fn matches_btreemap_model(ops in proptest::collection::vec(op(), 0..800)) {
            check_against_model(&ops);
        }

        #[test]
        fn get_matches_model(n in 1u64..700, split in 0u64..700, probes in proptest::collection::vec(0u64..800, 1..50)) {
            let s = filled(n).split_ge(split);
            for p in probes {
                let want = (split..n).contains(&p).then_some(p);
                prop_assert_eq!(s.get(p).map(tag), want);
            }
        }

        #[test]
        fn first_where_matches_linear_scan(n in 1u64..700, split in 0u64..700, threshold in 0u64..2200) {
            let s = filled(n).split_ge(split);
            let want = (split..n).find(|k| 3 * k >= threshold);
            prop_assert_eq!(s.first_where(|b| b.sumenq as u64 >= threshold).map(|(k, _)| k), want);
        }
    }
}
