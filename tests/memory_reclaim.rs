//! Memory-stability regression tests (experiment E12's asserted core).
//!
//! `examples/space_bounded_gc.rs` demonstrates the observation; this file
//! pins it as regressions:
//!
//! * the **bounded** variant (§6 of the paper) keeps live blocks flat under
//!   churn (Theorem 31),
//! * the **unbounded** variant without reclamation grows linearly forever —
//!   the paper's stated cost of the §3 construction,
//! * the **unbounded** variant *with* epoch-based tree truncation
//!   ([`wfqueue::unbounded::ReclaimPolicy`]) plateaus — the tentpole
//!   property: if truncation silently regresses, these tests fail.
//!
//! Alongside the space shape, the correctness side: reclamation must not
//! perturb linearizability (Wing–Gong small-scope rounds), survive the
//! adversarial scheduler, and — with `ReclaimPolicy::Off` — leave the hot
//! path byte-for-byte identical to the default queue.

use std::collections::VecDeque;

use wfqueue::bounded::introspect as bintro;
use wfqueue::unbounded;
use wfqueue::unbounded::introspect as uintro;
use wfqueue::unbounded::ReclaimPolicy;
use wfqueue_harness::lincheck::check_rounds;
use wfqueue_harness::queue_api::Routing;
use wfqueue_harness::workload::{run_workload, WorkloadSpec};
use wfqueue_shard::{ShardedQueue, ShardedUnbounded};

/// Churn rounds per checkpoint; 8 checkpoints ≈ 13k ops per scenario —
/// enough for linear growth and a plateau to be unmistakably different.
const ROUNDS_PER_CHECKPOINT: u64 = 800;
const CHECKPOINTS: usize = 8;
/// Values held in the queue during the churn (the live "working set").
const RESIDENT: u64 = 16;

/// Runs the shared churn profile — `RESIDENT` values enqueued up front,
/// then enqueue+dequeue pairs — sampling a space metric at each quiescent
/// checkpoint.
fn churn_checkpoints<H, S>(
    mut step: impl FnMut(&mut H, u64),
    h: &mut H,
    mut sample: impl FnMut() -> S,
) -> Vec<S> {
    let mut samples = Vec::new();
    for c in 0..CHECKPOINTS as u64 {
        for i in 0..ROUNDS_PER_CHECKPOINT {
            step(h, c * ROUNDS_PER_CHECKPOINT + i);
        }
        samples.push(sample());
    }
    samples
}

#[test]
fn unbounded_without_reclamation_grows_linearly() {
    let q: wfqueue::unbounded::Queue<u64> = wfqueue::unbounded::Queue::new(2);
    let mut h = q.register().unwrap();
    for i in 0..RESIDENT {
        h.enqueue(i);
    }
    let samples = churn_checkpoints(
        |h, i| {
            h.enqueue(i);
            let _ = h.dequeue();
        },
        &mut h,
        || uintro::total_blocks(&q),
    );
    // Every checkpoint adds ~2 blocks per round per tree level; at minimum
    // the root alone retains one block per operation.
    for w in samples.windows(2) {
        assert!(
            w[1] >= w[0] + ROUNDS_PER_CHECKPOINT as usize,
            "paper queue must keep growing: {samples:?}"
        );
    }
}

#[test]
fn unbounded_with_reclamation_plateaus() {
    let q: wfqueue::unbounded::Queue<u64> =
        wfqueue::unbounded::Queue::with_reclaim(2, ReclaimPolicy::EveryKRootBlocks(32));
    let mut h = q.register().unwrap();
    for i in 0..RESIDENT {
        h.enqueue(i);
    }
    let samples = churn_checkpoints(
        |h, i| {
            h.enqueue(i);
            let _ = h.dequeue();
        },
        &mut h,
        || uintro::total_blocks(&q),
    );
    // Plateau criterion: after the first checkpoint, live blocks never
    // exceed a constant bound that is far below the linear trajectory
    // (ROUNDS_PER_CHECKPOINT blocks per checkpoint at the root alone).
    let ceiling = samples[0].max(256);
    for (c, &s) in samples.iter().enumerate().skip(1) {
        assert!(
            s <= ceiling,
            "live blocks must plateau, checkpoint {c} holds {s} > {ceiling}: {samples:?}"
        );
    }
    let stats = q.reclaim_stats();
    assert!(
        stats.truncations >= CHECKPOINTS,
        "trigger barely fired: {stats:?}"
    );
    // Logical accounting still sees the whole history.
    let counts = uintro::block_counts(&q);
    assert!(counts.logical >= (CHECKPOINTS as u64 * ROUNDS_PER_CHECKPOINT) as usize);
    assert_eq!(counts.logical, counts.live + counts.reclaimed);
    uintro::check_invariants(&q).unwrap();
    // And the resident working set is intact, in order.
    let drained: Vec<u64> = h.drain().collect();
    assert_eq!(drained.len(), RESIDENT as usize);
    assert!(drained.windows(2).all(|w| w[0] < w[1]), "FIFO preserved");
}

/// The byte-plateau criterion: at every checkpoint `(live_bytes,
/// logical_blocks)`, the bytes the tree holds (blocks *and* slot storage,
/// page table included) stay within 1.25× the first checkpoint, with no
/// allowance per logical block. Slot storage that is never released costs
/// at least 8 B per logical block, and a chunk directory that keeps one
/// pointer per 64 slots costs 1/8 B; only the page table's 8 B per 4096
/// slots still grows with history.
fn assert_byte_plateau(what: &str, samples: &[(usize, usize)]) {
    println!("{what}: (live bytes, logical blocks) per checkpoint: {samples:?}");
    let first = samples[0].0;
    for (c, &(bytes, logical)) in samples.iter().enumerate() {
        let ceiling = first + first / 4;
        assert!(
            bytes <= ceiling,
            "{what}: live bytes must plateau, checkpoint {c} holds {bytes} B > {ceiling} B \
             (logical blocks {logical}): {samples:?}"
        );
    }
}

#[test]
fn unbounded_with_reclamation_bytes_plateau() {
    let q: wfqueue::unbounded::Queue<u64> =
        wfqueue::unbounded::Queue::with_reclaim(2, ReclaimPolicy::EveryKRootBlocks(32));
    let mut h = q.register().unwrap();
    for i in 0..RESIDENT {
        h.enqueue(i);
    }
    let samples = churn_checkpoints(
        |h, i| {
            h.enqueue(i);
            let _ = h.dequeue();
        },
        &mut h,
        || {
            let bytes = uintro::live_block_bytes(&q);
            (bytes, uintro::block_counts(&q).logical)
        },
    );
    assert_byte_plateau("unbounded", &samples);
}

/// Two per-producer shards, each truncating every 16 root blocks.
fn reclaiming_shards() -> ShardedUnbounded<u64> {
    ShardedQueue::build(2, 2, Routing::PerProducer, |cap| {
        unbounded::Queue::with_reclaim(cap, ReclaimPolicy::EveryKRootBlocks(16))
    })
}

#[test]
fn sharded_reclaiming_bytes_plateau() {
    let q = reclaiming_shards();
    let mut handles = q.handles();
    let samples = churn_checkpoints(
        |handles: &mut Vec<_>, round| {
            for h in handles.iter_mut() {
                h.enqueue(round);
                assert_eq!(h.dequeue(), Some(round));
            }
        },
        &mut handles,
        || {
            let shards = q.shards();
            let bytes = shards.iter().map(uintro::live_block_bytes).sum();
            let logical = shards.iter().map(|s| uintro::block_counts(s).logical);
            (bytes, logical.sum())
        },
    );
    assert_byte_plateau("sharded", &samples);
}

#[test]
fn bounded_variant_stays_flat() {
    // The §6 construction's own space bound, asserted (previously only
    // printed by examples/space_bounded_gc.rs).
    let q: wfqueue::bounded::Queue<u64> = wfqueue::bounded::Queue::with_gc_period(2, 8);
    let mut h = q.register().unwrap();
    for i in 0..RESIDENT {
        h.enqueue(i);
    }
    let samples = churn_checkpoints(
        |h, i| {
            h.enqueue(i);
            let _ = h.dequeue();
        },
        &mut h,
        || bintro::space_stats(&q).total_blocks,
    );
    let ceiling = samples[0].max(256);
    for (c, &s) in samples.iter().enumerate() {
        assert!(
            s <= ceiling,
            "bounded queue space regressed at checkpoint {c}: {samples:?}"
        );
    }
    bintro::check_invariants(&q).unwrap();
}

#[test]
fn batched_churn_plateaus_too() {
    // Reclamation composes with PR 2's batched leaf blocks: one leaf block
    // per batch, still truncated once dead.
    let q: wfqueue::unbounded::Queue<u64> =
        wfqueue::unbounded::Queue::with_reclaim(1, ReclaimPolicy::EveryKRootBlocks(16));
    let mut h = q.register().unwrap();
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut peak_after_warmup = 0;
    for round in 0..1_500u64 {
        let batch: Vec<u64> = (round * 4..round * 4 + 4).collect();
        model.extend(batch.iter().copied());
        h.enqueue_batch(batch);
        for r in h.dequeue_batch(4) {
            assert_eq!(r, model.pop_front());
        }
        if round == 100 {
            peak_after_warmup = uintro::total_blocks(&q);
        }
    }
    let end = uintro::total_blocks(&q);
    assert!(
        end <= peak_after_warmup.max(128),
        "batched churn must plateau: warmup={peak_after_warmup}, end={end}"
    );
    uintro::check_invariants(&q).unwrap();
}

#[test]
fn sharded_reclaiming_composite_plateaus() {
    let q = reclaiming_shards();
    let mut handles = q.handles();
    let mut peak_after_warmup = 0;
    for round in 0..2_000u64 {
        for h in &mut handles {
            h.enqueue(round);
            assert_eq!(h.dequeue(), Some(round));
        }
        if round == 100 {
            peak_after_warmup = q.shards().iter().map(uintro::total_blocks).sum();
        }
    }
    let end: usize = q.shards().iter().map(uintro::total_blocks).sum();
    assert!(
        end <= peak_after_warmup.max(256),
        "sharded live blocks must plateau: warmup={peak_after_warmup}, end={end}"
    );
    for shard in q.shards() {
        uintro::check_invariants(shard).unwrap();
    }
}

#[test]
fn wing_gong_linearizable_under_aggressive_reclamation() {
    // Small-scope exhaustive checking with a truncation attempt after every
    // root block: the reclamation machinery is live in nearly every
    // operation while the checker watches.
    check_rounds(
        || unbounded::Queue::with_reclaim(2, ReclaimPolicy::EveryKRootBlocks(1)),
        2,
        5,
        60,
    )
    .unwrap();
    check_rounds(
        || unbounded::Queue::with_reclaim(3, ReclaimPolicy::EveryKRootBlocks(1)),
        3,
        4,
        40,
    )
    .unwrap();
    check_rounds(
        || unbounded::Queue::with_reclaim(4, ReclaimPolicy::EveryKRootBlocks(2)),
        4,
        3,
        30,
    )
    .unwrap();
}

#[test]
fn adversarial_schedule_with_reclamation_keeps_audits_green() {
    // The adversarial scheduler yields inside every read-to-CAS window,
    // maximizing interleavings between operations, hazard publication and
    // the truncator. The workload runner audits per-producer FIFO and
    // value conservation.
    wfqueue_metrics::set_adversary(true);
    let result = std::panic::catch_unwind(|| {
        for seed in 0..4u64 {
            let q = unbounded::Queue::<u64>::with_reclaim(4, ReclaimPolicy::EveryKRootBlocks(2));
            let report = run_workload(
                &q,
                &WorkloadSpec {
                    threads: 4,
                    ops_per_thread: 2_000,
                    enqueue_permille: 550,
                    prefill: 8,
                    seed: 0xE120 + seed,
                },
            );
            assert!(report.audits_ok(), "audits failed under adversary");
            uintro::check_invariants(&q).unwrap();
            assert!(
                uintro::total_blocks(&q) < 8_000 + 8 * 4,
                "16k mixed ops must not retain their whole history"
            );
        }
    });
    wfqueue_metrics::set_adversary(false);
    result.unwrap();
}

#[test]
fn reclamation_off_adapter_matches_default_step_for_step() {
    // Integration-level CAS parity: the full workload runner drives the
    // adapters identically, so the recorded step totals must be equal.
    let spec = WorkloadSpec {
        threads: 1,
        ops_per_thread: 4_000,
        enqueue_permille: 500,
        prefill: 4,
        seed: 0xE12,
    };
    let default_report = run_workload(&unbounded::Queue::<u64>::new(1), &spec);
    let off_report = run_workload(
        &unbounded::Queue::<u64>::with_reclaim(1, ReclaimPolicy::Off),
        &spec,
    );
    assert!(default_report.audits_ok() && off_report.audits_ok());
    let totals = |r: &wfqueue_harness::workload::RunReport| {
        (
            r.enqueue.cas_total + r.dequeue_hit.cas_total + r.dequeue_null.cas_total,
            r.enqueue.steps_total + r.dequeue_hit.steps_total + r.dequeue_null.steps_total,
        )
    };
    assert_eq!(
        totals(&default_report),
        totals(&off_report),
        "ReclaimPolicy::Off must not add or lose a single CAS or shared step"
    );
}

#[test]
fn approx_len_survives_concurrent_truncation() {
    // Regression (caught in review): `approx_len` publishes no hazard
    // index, so a concurrent truncation could unlink the slot its stale
    // `head` snapshot pointed at, and the scan then panicked on the hole.
    // The fix clamps the scan start to the boundary and retries when the
    // start slot vanishes between the reads.
    use wfqueue_sync::atomic::{AtomicBool, Ordering};
    let q: wfqueue::unbounded::Queue<u64> =
        wfqueue::unbounded::Queue::with_reclaim(2, ReclaimPolicy::EveryKRootBlocks(1));
    let done = AtomicBool::new(false);
    wfqueue_sync::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut reads = 0u64;
            while !done.load(Ordering::Relaxed) {
                // Size stays within the resident range (0..=1) plus
                // in-flight slack; the point is that this never panics.
                assert!(q.approx_len() <= 2, "size snapshot out of range");
                reads += 1;
            }
            reads
        });
        let mut h = q.register().unwrap();
        for i in 0..40_000u64 {
            h.enqueue(i);
            assert_eq!(h.dequeue(), Some(i));
        }
        done.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("approx_len reader panicked");
        assert!(reads > 0);
    });
    assert!(
        q.reclaim_stats().truncations > 1_000,
        "the race window must actually have been exercised: {:?}",
        q.reclaim_stats()
    );
    uintro::check_invariants(&q).unwrap();
}

#[test]
fn truncation_records_no_steps_against_the_triggering_operation() {
    // Regression (caught in review): the truncation pass used the tracked
    // accessors, so the one operation that won the try-lock absorbed an
    // O(freed blocks) burst of recorded shared steps. With a period of 512
    // the first truncation frees >1500 blocks; maintenance must not charge
    // them to that operation's step count.
    let q: wfqueue::unbounded::Queue<u64> =
        wfqueue::unbounded::Queue::with_reclaim(1, ReclaimPolicy::EveryKRootBlocks(512));
    let mut h = q.register().unwrap();
    let mut worst = 0u64;
    for i in 0..2_000u64 {
        let (_, steps) = wfqueue_metrics::measure(|| {
            h.enqueue(i);
            let _ = h.dequeue();
        });
        worst = worst.max(steps.memory_steps());
    }
    assert!(
        q.reclaim_stats().truncations >= 3,
        "the period-512 trigger must have fired: {:?}",
        q.reclaim_stats()
    );
    assert!(
        worst < 300,
        "an enqueue+dequeue pair recorded {worst} steps — truncation is \
         leaking maintenance work into the triggering operation's count"
    );
}
