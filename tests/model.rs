//! Exhaustive model-checking of the workspace's trickiest concurrency
//! protocols (`cargo test --features model`).
//!
//! Each test hands a protocol replica from
//! [`wfqueue_sync::model::protocols`] to the interleaving explorer and
//! requires the run to be *complete*: every schedule within the
//! preemption bound (plus a seeded random tail beyond it) was executed
//! and none failed. The replicas mirror `Signal`
//! (`crates/channel/src/wait.rs`), the capacity gate
//! (`crates/channel/src/endpoint.rs`), the reclamation hazard protocol
//! (`crates/core/src/unbounded/reclaim.rs`), the contention-aware
//! nearest scan (`crates/shard/src/policy.rs`), the ring backend's
//! phase-tagged slot/record handshake (`crates/ring/src/lib.rs`), the
//! executor's park/steal drain, the drain-then-close `Seal`
//! (`crates/channel/src/wait.rs`), and the §6 queue's registered-only
//! GC scan (`crates/core/src/bounded/gc.rs`); see
//! the module docs of
//! `protocols` for the exact correspondence, and
//! `tests/checker_power.rs` for the proof that these checks have teeth
//! (every seeded mutation of the protocols is detected).
//!
//! Set `MODEL_PREEMPTION_BOUND` to raise the bound (the weekly stress
//! workflow runs with a larger one); run with `--nocapture` to see the
//! schedule counts.

#![cfg(feature = "model")]

use wfqueue_sync::model::{explore, protocols, Options, Report};

fn opts() -> Options {
    Options::from_env()
}

fn report(name: &str, r: Report) {
    assert!(
        r.complete,
        "{name}: exhaustive phase was cut short at {} schedules",
        r.exhaustive_schedules
    );
    assert!(
        r.exhaustive_schedules > 1,
        "{name}: the scenario never branched — replica not actually concurrent?"
    );
    println!(
        "{name}: exhaustive {} schedules (complete) + {} random",
        r.exhaustive_schedules, r.random_schedules
    );
}

/// No lost wakeup in the `Signal` handshake, waiter vs notifier
/// (2 threads): every schedule either wakes the waiter or never parks it.
#[test]
fn signal_no_lost_wakeup_two_threads() {
    let r = explore(
        opts(),
        protocols::signal_scenario(protocols::SignalBugs::default(), false),
    );
    report("signal/2", r);
}

/// The same handshake with a second waiter (3 threads): one notify must
/// release both.
#[test]
fn signal_no_lost_wakeup_three_threads() {
    let r = explore(
        opts(),
        protocols::signal_scenario(protocols::SignalBugs::default(), true),
    );
    report("signal/3", r);
}

/// The capacity-1 gate never admits past its bound, never deadlocks, and
/// the slot handoff (release → successful reserve CAS) carries the
/// previous occupant's cleanup.
#[test]
fn gate_capacity_never_exceeded_and_handoff_synchronizes() {
    let r = explore(
        opts(),
        protocols::gate_scenario(protocols::GateBugs::default()),
    );
    report("gate", r);
}

/// The truncator never frees the slot a published hazard index clamps
/// to, nor releases the slot chunk or page holding it: `begin_op`'s
/// publish-then-recheck vs `truncate_locked`'s publish-then-scan, in every
/// interleaving.
#[test]
fn hazard_truncator_never_frees_held_slot() {
    let r = explore(
        opts(),
        protocols::hazard_scenario(protocols::HazardBugs::default()),
    );
    report("hazard", r);
}

/// The hint-guided nearest scan finds a value deposited behind a stale
/// `Relaxed` emptiness hint in every schedule: the unconditional
/// fallback pass makes coverage independent of hint freshness.
#[test]
fn scan_finds_stranded_value_in_every_schedule() {
    let r = explore(
        opts(),
        protocols::scan_scenario(protocols::ScanBugs::default()),
    );
    report("scan", r);
}

/// The ring's phase tags confine every helper to its announced ticket in
/// every schedule: across two full slot-recycle laps, a helper parked
/// between its announcement validation and its CAS can neither re-fill
/// the recycled slot nor deliver into the successor's result.
#[test]
fn ring_stale_helpers_never_cross_generations() {
    let r = explore(
        opts(),
        protocols::ring_scenario(protocols::RingBugs::default()),
    );
    report("ring", r);
}

/// The executor's park/steal drain handshake
/// (`crates/executor/src/lib.rs`): in every schedule of worker vs
/// stealer vs spawner, the one admitted task runs exactly once with its
/// payload visible, and a steal completing the drain while the worker
/// parks never loses the wakeup the worker's exit depends on.
#[test]
fn steal_park_drain_never_loses_a_wakeup() {
    let r = explore(
        opts(),
        protocols::steal_park_scenario(protocols::StealParkBugs::default()),
    );
    report("steal_park", r);
}

/// The drain-then-close `Seal` (`crates/channel/src/wait.rs`) as a broker
/// topic applies it: in every schedule of publisher vs closer vs parked
/// consumer, a consumer that reports `Closed` has received every value
/// counted as published, and nobody sleeps through the last wakeup.
#[test]
fn seal_close_never_loses_a_published_value() {
    let r = explore(
        opts(),
        protocols::seal_scenario(protocols::SealBugs::default()),
    );
    report("seal", r);
}

/// A §6 GC phase that scans only the registered processes
/// (`crates/core/src/bounded/gc.rs`) never discards the root block of a
/// dequeue it did not help: in every schedule of the GC phase vs a
/// process that registers, dequeues and propagates, a discarded block's
/// response is already written.
#[test]
fn gc_scan_never_discards_an_unhelped_dequeue() {
    let r = explore(
        opts(),
        protocols::gc_scan_scenario(protocols::GcScanBugs::default()),
    );
    report("gc_scan", r);
}
