//! Routing state shared by the two policies: per-shard emptiness hints
//! and the handle-local state a composite handle plans its dequeue scans
//! in.
//!
//! Under [`Routing::Nearest`](crate::Routing::Nearest) a dequeue probes
//! *hinted-nonempty shards* in cyclic order from the handle's home shard
//! (`home, home+1, …, home−1 mod S`), guided by per-shard emptiness hints
//! ([`ShardHints`]), with an unconditional second pass over the un-hinted
//! shards in the same order so a `None` still witnesses a full sweep.
//! There is no shared read-modify-write anywhere in the scan: the only
//! shared traffic it adds is `Relaxed` loads of advisory hint flags.

use std::fmt;

use crossbeam_utils::CachePadded;
use wfqueue_sync::atomic::{AtomicBool, Ordering};

// ---------------------------------------------------------------------------
// Shared advisory state
// ---------------------------------------------------------------------------

/// Per-shard "maybe nonempty" hints — one cache-padded flag per shard,
/// maintained under [`Routing::Nearest`](crate::Routing::Nearest) and
/// untouched under `PerProducer`.
///
/// A flag is raised after an enqueue lands on the shard and lowered when a
/// probe finds the shard empty. Flags start raised ("unknown" is treated
/// as "maybe nonempty"), so caller-prefilled shards are probed on the
/// first sweep.
///
/// # Memory ordering
///
/// All accesses are `Relaxed`, deliberately: the hints are advisory probe
/// *order*, never probe *coverage*. A stale `true` costs one wasted probe;
/// a stale `false` only demotes a shard to the scan's second pass — every
/// planned scan still covers all shards, so no value is ever missed and no
/// ordering edge is ever carried through a hint. The model replica
/// (`wfqueue_sync::model::protocols::scan_scenario`) checks the claim
/// exhaustively: with the fallback pass seeded out, the checker finds the
/// lost-value schedule; with it intact, every interleaving drains.
pub struct ShardHints {
    flags: Box<[CachePadded<AtomicBool>]>,
}

impl ShardHints {
    /// One raised flag per shard.
    #[must_use]
    pub(crate) fn new(num_shards: usize) -> Self {
        ShardHints {
            flags: (0..num_shards)
                .map(|_| CachePadded::new(AtomicBool::new(true)))
                .collect(),
        }
    }

    /// Reads shard `s`'s hint: `false` means a probe recently found it
    /// empty and nothing has been enqueued through a `Nearest` handle
    /// since. Counted as one shared load in the step model.
    #[must_use]
    pub fn maybe_nonempty(&self, s: usize) -> bool {
        wfqueue_metrics::record_shared_load();
        // ORDERING: Relaxed — advisory; a stale read only reorders probes
        // within a scan that covers every shard regardless.
        self.flags[s].load(Ordering::Relaxed)
    }

    /// Raises shard `s`'s hint after an enqueue landed there. Loads before
    /// storing so the steady state (flag already raised) writes nothing —
    /// the common case stays read-only on the hint line.
    pub fn mark_nonempty(&self, s: usize) {
        wfqueue_metrics::record_shared_load();
        // ORDERING: Relaxed — the enqueue itself publishes the value with
        // the queue's own (stronger) protocol; the hint carries no data.
        if !self.flags[s].load(Ordering::Relaxed) {
            wfqueue_metrics::record_shared_store();
            self.flags[s].store(true, Ordering::Relaxed);
        }
    }

    /// Lowers shard `s`'s hint after a probe found it empty.
    pub fn mark_empty(&self, s: usize) {
        wfqueue_metrics::record_shared_store();
        // ORDERING: Relaxed — a racing enqueuer re-raises the flag; the
        // worst interleaving leaves a stale value that only affects probe
        // order, never coverage.
        self.flags[s].store(false, Ordering::Relaxed);
    }

    /// Number of shards covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the hint set is empty (zero shards — never true for a
    /// constructed queue).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

impl fmt::Debug for ShardHints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let raised: Vec<usize> = (0..self.flags.len())
            // ORDERING: Relaxed — Debug introspection.
            .filter(|&s| self.flags[s].load(Ordering::Relaxed))
            .collect();
        f.debug_struct("ShardHints")
            .field("raised", &raised)
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Per-handle routing state
// ---------------------------------------------------------------------------

/// Handle-local routing state: the handle's identity, its home shard, the
/// reusable scan buffer and the scratch list the `Nearest` scan demotes
/// hinted-empty shards into.
///
/// All of it is thread-local to the owning handle — nothing in here is
/// shared memory, so routing bookkeeping adds zero steps to the paper's
/// cost model.
#[derive(Debug)]
pub(crate) struct RouterState {
    handle_index: usize,
    home: usize,
    scan: Vec<usize>,
    demoted: Vec<usize>,
}

impl RouterState {
    pub(crate) fn new(handle_index: usize, num_shards: usize) -> Self {
        RouterState {
            handle_index,
            home: handle_index % num_shards,
            scan: Vec::with_capacity(num_shards),
            demoted: Vec::with_capacity(num_shards),
        }
    }

    /// The owning composite handle's index (`0..max_handles`).
    pub(crate) fn handle_index(&self) -> usize {
        self.handle_index
    }

    /// The handle's home shard, `handle_index % num_shards`: where its
    /// enqueues land and where its scans start.
    pub(crate) fn home(&self) -> usize {
        self.home
    }

    /// The planned scan, in probe order.
    pub(crate) fn scan(&self) -> &[usize] {
        &self.scan
    }

    /// Plans a scan of the home shard alone (`PerProducer`).
    pub(crate) fn plan_home_scan(&mut self) {
        self.scan.clear();
        self.scan.push(self.home);
    }

    /// Plans the `Nearest` scan: hinted-nonempty shards in cyclic order
    /// from home (`home, home+1, …, home−1 mod S`), then the remaining
    /// (hinted-empty) shards in the same cyclic order as a coverage
    /// fallback — hints are advisory, coverage is not. Reads each hint
    /// exactly once per scan.
    pub(crate) fn plan_nearest_scan(&mut self, hints: &ShardHints) {
        self.scan.clear();
        self.demoted.clear();
        for s in (self.home..hints.len()).chain(0..self.home) {
            if hints.maybe_nonempty(s) {
                self.scan.push(s);
            } else {
                self.demoted.push(s);
            }
        }
        self.scan.extend_from_slice(&self.demoted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hints_start_raised_and_toggle() {
        let h = ShardHints::new(3);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
        assert!(h.maybe_nonempty(1));
        h.mark_empty(1);
        assert!(!h.maybe_nonempty(1));
        h.mark_nonempty(1);
        assert!(h.maybe_nonempty(1));
        assert!(format!("{h:?}").contains("raised"));
    }

    #[test]
    fn hint_steps_are_counted() {
        let h = ShardHints::new(1);
        let (_, d) = wfqueue_metrics::measure(|| {
            assert!(h.maybe_nonempty(0)); // 1 load
            h.mark_nonempty(0); // raised already: 1 load, no store
            h.mark_empty(0); // 1 store
            h.mark_nonempty(0); // lowered: 1 load + 1 store
        });
        assert_eq!(d.shared_loads, 3);
        assert_eq!(d.shared_stores, 2);
    }

    #[test]
    fn nearest_scan_puts_hinted_empty_shards_last() {
        let hints = ShardHints::new(4);
        let mut state = RouterState::new(0, 4);
        hints.mark_empty(1);
        hints.mark_empty(2);
        state.plan_nearest_scan(&hints);
        assert_eq!(
            state.scan(),
            &[0, 3, 1, 2],
            "hinted-empty demoted, all covered"
        );

        // Every shard count and home: with every hint raised the scan is
        // the cyclic order from home; lowering a hint set moves those
        // shards to the tail, still in cyclic order, and the scan stays a
        // permutation. Handle `i` is homed on `i mod S`, so the handle
        // indices `home + k·S` all plan the same scan.
        for num_shards in 1..=8usize {
            let hints = ShardHints::new(num_shards);
            for home in 0..num_shards {
                let cyclic: Vec<usize> = (0..num_shards).map(|k| (home + k) % num_shards).collect();
                for index in [home, home + num_shards, home + 2 * num_shards] {
                    let mut state = RouterState::new(index, num_shards);
                    assert_eq!(state.home(), home);
                    state.plan_nearest_scan(&hints);
                    assert_eq!(state.scan(), cyclic, "S={num_shards} home={home}");
                }
                // Lower every hint in each bitmask of the shard set.
                for mask in 0u32..(1 << num_shards) {
                    let lowered = |s: usize| mask & (1 << s) != 0;
                    for s in 0..num_shards {
                        if lowered(s) {
                            hints.mark_empty(s);
                        }
                    }
                    let mut state = RouterState::new(home, num_shards);
                    state.plan_nearest_scan(&hints);
                    let expected: Vec<usize> = cyclic
                        .iter()
                        .copied()
                        .filter(|&s| !lowered(s))
                        .chain(cyclic.iter().copied().filter(|&s| lowered(s)))
                        .collect();
                    assert_eq!(
                        state.scan(),
                        expected,
                        "S={num_shards} home={home} mask={mask:b}"
                    );
                    let mut all = state.scan().to_vec();
                    all.sort_unstable();
                    assert_eq!(all, (0..num_shards).collect::<Vec<_>>(), "a permutation");
                    for s in 0..num_shards {
                        hints.mark_nonempty(s);
                    }
                }
            }
        }
    }

    #[test]
    fn router_state_homes_and_plans() {
        let mut state = RouterState::new(6, 4);
        assert_eq!(state.handle_index(), 6);
        assert_eq!(state.home(), 2);
        state.plan_home_scan();
        assert_eq!(state.scan(), &[2]);
    }
}
