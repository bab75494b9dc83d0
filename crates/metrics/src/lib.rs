//! Thread-local step counters for measuring shared-memory step complexity.
//!
//! The queue of Naderibeni & Ruppert (PODC 2023) is analysed in the standard
//! asynchronous shared-memory model, where the cost of an operation is the
//! number of *shared-memory steps* (reads, writes and CAS instructions on
//! shared locations) it performs. This crate provides the instrumentation
//! used by every queue implementation in this workspace to count those steps
//! exactly, so that the paper's complexity theorems (Proposition 19,
//! Theorems 22 and 32) can be checked empirically.
//!
//! All counters are thread-local [`Cell`]s: recording a step is a couple of
//! arithmetic instructions and never causes cross-thread cache traffic, so
//! the instrumentation does not perturb the contention behaviour it is
//! trying to measure.
//!
//! # Examples
//!
//! ```
//! use wfqueue_metrics as metrics;
//!
//! let (sum, steps) = metrics::measure(|| {
//!     metrics::record_shared_load();
//!     metrics::record_cas(true);
//!     40 + 2
//! });
//! assert_eq!(sum, 42);
//! assert_eq!(steps.shared_loads, 1);
//! assert_eq!(steps.cas_success, 1);
//! assert_eq!(steps.memory_steps(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use wfqueue_sync::atomic::{AtomicBool, Ordering};

/// Global switch for the adversarial scheduler (see [`adversary_yield`]).
static ADVERSARY: AtomicBool = AtomicBool::new(false);

/// Enables or disables the adversarial scheduler.
///
/// The paper's complexity bounds are *worst-case over schedules*: the
/// `Ω(p)` cost of CAS-retry queues appears when the scheduler preempts
/// every process between its read of the hot pointer and its CAS. A real
/// OS rarely produces that schedule (especially on few cores), so the
/// contended experiments opt in to it explicitly: every queue
/// implementation in this workspace calls [`adversary_yield`] inside its
/// read-to-CAS windows, and with the adversary enabled those calls yield
/// the CPU, driving the system into the round-robin worst case. Wait-free
/// code is immune by construction — a lost CAS never causes a retry — which
/// is exactly the separation being measured.
pub fn set_adversary(enabled: bool) {
    // ORDERING: SC so a toggle is immediately visible to every worker a
    // test is about to spawn; this is a test-harness knob, not a hot path.
    ADVERSARY.store(enabled, Ordering::SeqCst);
}

/// Whether the adversarial scheduler is enabled.
#[must_use]
pub fn adversary_enabled() -> bool {
    ADVERSARY.load(Ordering::Relaxed)
}

/// Marks a read-to-CAS race window; yields the CPU when the adversarial
/// scheduler is enabled (no-op otherwise beyond one relaxed load).
#[inline]
pub fn adversary_yield() {
    if ADVERSARY.load(Ordering::Relaxed) {
        wfqueue_sync::thread::yield_now();
    }
}

/// A snapshot of this thread's step counters.
///
/// Snapshots form a monoid under [`Add`]; the difference of two snapshots
/// ([`Sub`], later minus earlier) gives the steps taken in between. See
/// [`measure`] for the common usage pattern.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StepSnapshot {
    /// Loads of shared atomic locations (node `head` fields, `blocks` array
    /// slots, tree-version pointers, MS-queue node pointers, ...).
    pub shared_loads: u64,
    /// Plain stores to shared atomic locations.
    pub shared_stores: u64,
    /// CAS instructions that succeeded.
    pub cas_success: u64,
    /// CAS instructions that failed.
    pub cas_failure: u64,
    /// Nodes visited during searches of a persistent block tree (each visit
    /// is a shared read of an immutable tree node).
    pub tree_node_visits: u64,
    /// Blocks allocated (queue-internal objects, not user values).
    pub block_allocs: u64,
    /// Garbage-collection phases executed (bounded queue only).
    pub gc_phases: u64,
    /// Pending operations helped to completion (bounded queue only).
    pub help_calls: u64,
}

impl StepSnapshot {
    /// Total shared-memory steps in the paper's cost model: every load,
    /// store, CAS (successful or not) and tree-node visit counts as one step.
    ///
    /// # Examples
    ///
    /// ```
    /// let s = wfqueue_metrics::StepSnapshot::default();
    /// assert_eq!(s.memory_steps(), 0);
    /// ```
    #[must_use]
    pub fn memory_steps(&self) -> u64 {
        self.shared_loads
            + self.shared_stores
            + self.cas_success
            + self.cas_failure
            + self.tree_node_visits
    }

    /// Total CAS instructions, successful or not (the quantity bounded by
    /// Proposition 19 of the paper).
    ///
    /// # Examples
    ///
    /// ```
    /// let s = wfqueue_metrics::StepSnapshot::default();
    /// assert_eq!(s.cas_total(), 0);
    /// ```
    #[must_use]
    pub fn cas_total(&self) -> u64 {
        self.cas_success + self.cas_failure
    }
}

impl Add for StepSnapshot {
    type Output = StepSnapshot;

    fn add(self, rhs: StepSnapshot) -> StepSnapshot {
        StepSnapshot {
            shared_loads: self.shared_loads + rhs.shared_loads,
            shared_stores: self.shared_stores + rhs.shared_stores,
            cas_success: self.cas_success + rhs.cas_success,
            cas_failure: self.cas_failure + rhs.cas_failure,
            tree_node_visits: self.tree_node_visits + rhs.tree_node_visits,
            block_allocs: self.block_allocs + rhs.block_allocs,
            gc_phases: self.gc_phases + rhs.gc_phases,
            help_calls: self.help_calls + rhs.help_calls,
        }
    }
}

impl AddAssign for StepSnapshot {
    fn add_assign(&mut self, rhs: StepSnapshot) {
        *self = *self + rhs;
    }
}

impl Sub for StepSnapshot {
    type Output = StepSnapshot;

    /// Component-wise saturating difference; `later - earlier` yields the
    /// steps taken between the two snapshots.
    fn sub(self, rhs: StepSnapshot) -> StepSnapshot {
        StepSnapshot {
            shared_loads: self.shared_loads.saturating_sub(rhs.shared_loads),
            shared_stores: self.shared_stores.saturating_sub(rhs.shared_stores),
            cas_success: self.cas_success.saturating_sub(rhs.cas_success),
            cas_failure: self.cas_failure.saturating_sub(rhs.cas_failure),
            tree_node_visits: self.tree_node_visits.saturating_sub(rhs.tree_node_visits),
            block_allocs: self.block_allocs.saturating_sub(rhs.block_allocs),
            gc_phases: self.gc_phases.saturating_sub(rhs.gc_phases),
            help_calls: self.help_calls.saturating_sub(rhs.help_calls),
        }
    }
}

impl fmt::Display for StepSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps={} (loads={}, stores={}, cas+={}, cas-={}, tree={}, allocs={}, gc={}, helps={})",
            self.memory_steps(),
            self.shared_loads,
            self.shared_stores,
            self.cas_success,
            self.cas_failure,
            self.tree_node_visits,
            self.block_allocs,
            self.gc_phases,
            self.help_calls,
        )
    }
}

/// A snapshot of this thread's *routing* diagnostics — events of the
/// sharded frontend's `Nearest` scan, kept separate from [`StepSnapshot`]
/// because they are route-quality signals, not shared-memory steps of the
/// paper's cost model (probing an empty shard performs its shared steps
/// through the ordinary recorders; these counters only classify *why*).
///
/// Differences of two snapshots ([`Sub`], later minus earlier) give the
/// events in between, mirroring [`StepSnapshot`].
///
/// # Examples
///
/// ```
/// let before = wfqueue_metrics::route_snapshot();
/// wfqueue_metrics::record_empty_probe();
/// let d = wfqueue_metrics::route_snapshot() - before;
/// assert_eq!(d.empty_probes, 1);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteSnapshot {
    /// Dequeue probes that found their shard empty during a sweep.
    pub empty_probes: u64,
}

impl Sub for RouteSnapshot {
    type Output = RouteSnapshot;

    /// Component-wise saturating difference, as for [`StepSnapshot`].
    fn sub(self, rhs: RouteSnapshot) -> RouteSnapshot {
        RouteSnapshot {
            empty_probes: self.empty_probes.saturating_sub(rhs.empty_probes),
        }
    }
}

impl fmt::Display for RouteSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "empty_probes={}", self.empty_probes)
    }
}

#[derive(Default)]
struct ThreadCounters {
    shared_loads: Cell<u64>,
    shared_stores: Cell<u64>,
    cas_success: Cell<u64>,
    cas_failure: Cell<u64>,
    tree_node_visits: Cell<u64>,
    block_allocs: Cell<u64>,
    gc_phases: Cell<u64>,
    help_calls: Cell<u64>,
    empty_probes: Cell<u64>,
}

thread_local! {
    static COUNTERS: ThreadCounters = ThreadCounters::default();
}

macro_rules! bump {
    ($field:ident) => {
        COUNTERS.with(|c| c.$field.set(c.$field.get() + 1))
    };
}

/// Records one load of a shared location.
#[inline]
pub fn record_shared_load() {
    bump!(shared_loads);
}

/// Records one store to a shared location.
#[inline]
pub fn record_shared_store() {
    bump!(shared_stores);
}

/// Records one CAS instruction; `success` is whether it succeeded.
#[inline]
pub fn record_cas(success: bool) {
    if success {
        bump!(cas_success);
    } else {
        bump!(cas_failure);
    }
}

/// Records one visit of a persistent-tree node during a search.
#[inline]
pub fn record_tree_node_visit() {
    bump!(tree_node_visits);
}

/// Records one queue-internal block allocation.
#[inline]
pub fn record_block_alloc() {
    bump!(block_allocs);
}

/// Records one garbage-collection phase (bounded queue).
#[inline]
pub fn record_gc_phase() {
    bump!(gc_phases);
}

/// Records one helped operation (bounded queue `Help` routine).
#[inline]
pub fn record_help() {
    bump!(help_calls);
}

/// Records one dequeue probe that found its shard empty during a sweep.
#[inline]
pub fn record_empty_probe() {
    bump!(empty_probes);
}

/// Returns the current thread's cumulative routing diagnostics (see
/// [`RouteSnapshot`]).
#[must_use]
pub fn route_snapshot() -> RouteSnapshot {
    COUNTERS.with(|c| RouteSnapshot {
        empty_probes: c.empty_probes.get(),
    })
}

/// Returns the current thread's cumulative counters.
///
/// # Examples
///
/// ```
/// let before = wfqueue_metrics::snapshot();
/// wfqueue_metrics::record_shared_store();
/// let after = wfqueue_metrics::snapshot();
/// assert_eq!((after - before).shared_stores, 1);
/// ```
#[must_use]
pub fn snapshot() -> StepSnapshot {
    COUNTERS.with(|c| StepSnapshot {
        shared_loads: c.shared_loads.get(),
        shared_stores: c.shared_stores.get(),
        cas_success: c.cas_success.get(),
        cas_failure: c.cas_failure.get(),
        tree_node_visits: c.tree_node_visits.get(),
        block_allocs: c.block_allocs.get(),
        gc_phases: c.gc_phases.get(),
        help_calls: c.help_calls.get(),
    })
}

/// Runs `f` and returns its result together with the steps it recorded on
/// this thread.
///
/// # Examples
///
/// ```
/// let ((), steps) = wfqueue_metrics::measure(|| wfqueue_metrics::record_cas(false));
/// assert_eq!(steps.cas_failure, 1);
/// ```
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, StepSnapshot) {
    let before = snapshot();
    let result = f();
    let after = snapshot();
    (result, after - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_delta() {
        let (_, delta) = measure(|| ());
        assert_eq!(delta, StepSnapshot::default());
        assert_eq!(delta.memory_steps(), 0);
    }

    #[test]
    fn each_recorder_bumps_its_counter() {
        let (_, d) = measure(|| {
            record_shared_load();
            record_shared_load();
            record_shared_store();
            record_cas(true);
            record_cas(false);
            record_cas(false);
            record_tree_node_visit();
            record_block_alloc();
            record_gc_phase();
            record_help();
        });
        assert_eq!(d.shared_loads, 2);
        assert_eq!(d.shared_stores, 1);
        assert_eq!(d.cas_success, 1);
        assert_eq!(d.cas_failure, 2);
        assert_eq!(d.tree_node_visits, 1);
        assert_eq!(d.block_allocs, 1);
        assert_eq!(d.gc_phases, 1);
        assert_eq!(d.help_calls, 1);
        assert_eq!(d.memory_steps(), 2 + 1 + 1 + 2 + 1);
        assert_eq!(d.cas_total(), 3);
    }

    #[test]
    fn snapshots_are_monotone_per_thread() {
        let a = snapshot();
        record_shared_load();
        let b = snapshot();
        assert!(b.shared_loads > a.shared_loads);
    }

    #[test]
    fn add_and_sub_are_inverse_on_components() {
        let x = StepSnapshot {
            shared_loads: 5,
            cas_failure: 3,
            ..Default::default()
        };
        let y = StepSnapshot {
            shared_loads: 2,
            cas_failure: 1,
            ..Default::default()
        };
        assert_eq!((x + y) - y, x);
    }

    #[test]
    fn counters_are_thread_local() {
        let (_, d) = measure(|| {
            wfqueue_sync::thread::spawn(|| {
                record_shared_load();
                record_shared_load();
            })
            .join()
            .unwrap();
        });
        // The spawned thread's steps must not leak into this thread's count.
        assert_eq!(d.shared_loads, 0);
    }

    #[test]
    fn display_is_nonempty() {
        let s = StepSnapshot::default();
        assert!(!format!("{s}").is_empty());
        assert!(!format!("{s:?}").is_empty());
    }

    #[test]
    fn route_counters_are_separate_from_steps() {
        let steps_before = snapshot();
        let route_before = route_snapshot();
        record_empty_probe();
        record_empty_probe();
        let d = route_snapshot() - route_before;
        assert_eq!(d.empty_probes, 2);
        // Route diagnostics are not shared-memory steps.
        assert_eq!(snapshot() - steps_before, StepSnapshot::default());
        assert!(!format!("{d}").is_empty());
    }

    #[test]
    fn adversary_toggle() {
        assert!(!adversary_enabled(), "off by default");
        adversary_yield(); // no-op when disabled
        set_adversary(true);
        assert!(adversary_enabled());
        adversary_yield(); // yields, but must return
        set_adversary(false);
        assert!(!adversary_enabled());
    }
}
