//! Deterministic closed-loop workloads with per-operation step accounting.
//!
//! Each thread runs a seeded mix of enqueues and dequeues in a closed loop
//! (the standard way to surface the CAS retry problem: all `p` threads are
//! always inside an operation). Every operation's shared-memory steps are
//! measured individually via [`wfqueue_metrics::measure`] and aggregated
//! into [`OpClassStats`] per class (enqueue / non-null dequeue / null
//! dequeue), which is exactly the quantity the paper's theorems bound.
//!
//! The runner also audits safety on the fly: values carry
//! `(producer, sequence)` tags, so each thread checks per-producer FIFO
//! order, and the runner checks no value is lost or duplicated.

use std::sync::Barrier;
use std::time::{Duration, Instant};
use wfqueue_sync::atomic::{AtomicU64, Ordering};

use crate::queue_api::{ConcurrentQueue, QueueHandle};
use crate::rng::SplitMix64;
use crate::stats::OpClassStats;

/// Parameters of one workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Number of worker threads (each gets one queue handle).
    pub threads: usize,
    /// Operations performed by each thread.
    pub ops_per_thread: usize,
    /// Probability (per mille) that an operation is an enqueue.
    pub enqueue_permille: u32,
    /// Values enqueued before the measured phase starts.
    pub prefill: usize,
    /// Seed for the deterministic operation mix.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            threads: 2,
            ops_per_thread: 10_000,
            enqueue_permille: 500,
            prefill: 0,
            seed: 0xC0FF_EE00,
        }
    }
}

/// Outcome of one workload run.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunReport {
    /// Aggregated enqueue statistics.
    pub enqueue: OpClassStats,
    /// Aggregated statistics for dequeues that returned a value.
    pub dequeue_hit: OpClassStats,
    /// Aggregated statistics for dequeues that returned `None`.
    pub dequeue_null: OpClassStats,
    /// Wall-clock time of the measured phase.
    pub elapsed: Duration,
    /// Whether every consumed value respected per-producer FIFO order.
    pub fifo_ok: bool,
    /// Whether no value was consumed twice (checked via sequence tags).
    pub no_duplicates: bool,
    /// Values enqueued during the measured phase (excludes prefill).
    pub enqueued: u64,
    /// Values dequeued during the measured phase (includes prefill values).
    pub dequeued: u64,
}

impl RunReport {
    /// Total operations across all classes.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.enqueue.count + self.dequeue_hit.count + self.dequeue_null.count
    }

    /// Mean steps per operation over all classes.
    #[must_use]
    pub fn steps_avg(&self) -> f64 {
        let total =
            self.enqueue.steps_total + self.dequeue_hit.steps_total + self.dequeue_null.steps_total;
        if self.total_ops() == 0 {
            0.0
        } else {
            total as f64 / self.total_ops() as f64
        }
    }

    /// Mean CAS instructions per operation over all classes.
    #[must_use]
    pub fn cas_avg(&self) -> f64 {
        let total =
            self.enqueue.cas_total + self.dequeue_hit.cas_total + self.dequeue_null.cas_total;
        if self.total_ops() == 0 {
            0.0
        } else {
            total as f64 / self.total_ops() as f64
        }
    }

    /// Throughput in operations per second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_ops() as f64 / secs
        }
    }

    /// All safety audits passed.
    #[must_use]
    pub fn audits_ok(&self) -> bool {
        self.fifo_ok && self.no_duplicates
    }
}

/// Encodes `(producer, sequence)` into a queue value.
fn tag(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << 40) | seq
}

fn untag(value: u64) -> (usize, u64) {
    ((value >> 40) as usize, value & 0xFF_FFFF_FFFF)
}

/// Runs `spec` against `queue`, returning aggregated statistics and audit
/// results.
///
/// # Panics
///
/// Panics if `spec.threads` is zero, or if the queue cannot hand out
/// `spec.threads` handles (the prefill reuses thread 0's handle, so that
/// is all it takes).
pub fn run_workload<Q: ConcurrentQueue<u64>>(queue: &Q, spec: &WorkloadSpec) -> RunReport {
    assert!(spec.threads > 0, "need at least one thread");
    let barrier = Barrier::new(spec.threads);
    let consumed_counter = AtomicU64::new(0);
    let enqueued_counter = AtomicU64::new(0);

    struct ThreadOutcome {
        enqueue: OpClassStats,
        dequeue_hit: OpClassStats,
        dequeue_null: OpClassStats,
        fifo_ok: bool,
        consumed: Vec<u64>,
    }

    let mut handles: Vec<Q::Handle<'_>> = (0..spec.threads).map(|_| queue.handle()).collect();

    // Prefill through thread 0's handle with producer tag = threads (a
    // pseudo-producer that never produces again, so FIFO audits stay valid).
    {
        let h = &mut handles[0];
        for i in 0..spec.prefill {
            h.enqueue(tag(spec.threads, i as u64));
        }
    }

    let start = Instant::now();
    let outcomes: Vec<ThreadOutcome> = wfqueue_sync::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(tid, mut handle)| {
                let barrier = &barrier;
                let consumed_counter = &consumed_counter;
                let enqueued_counter = &enqueued_counter;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(spec.seed ^ (tid as u64).wrapping_mul(0x9E37));
                    let mut enqueue = OpClassStats::default();
                    let mut dequeue_hit = OpClassStats::default();
                    let mut dequeue_null = OpClassStats::default();
                    let mut last_seen: Vec<Option<u64>> = vec![None; spec.threads + 1];
                    let mut fifo_ok = true;
                    let mut consumed = Vec::new();
                    let mut seq = 0u64;
                    barrier.wait();
                    for _ in 0..spec.ops_per_thread {
                        if rng.chance_permille(spec.enqueue_permille) {
                            let value = tag(tid, seq);
                            seq += 1;
                            let ((), steps) = wfqueue_metrics::measure(|| handle.enqueue(value));
                            enqueue.record(&steps);
                        } else {
                            let (result, steps) = wfqueue_metrics::measure(|| handle.dequeue());
                            match result {
                                Some(value) => {
                                    dequeue_hit.record(&steps);
                                    let (producer, s) = untag(value);
                                    if let Some(prev) = last_seen.get(producer).copied().flatten() {
                                        if s <= prev {
                                            fifo_ok = false;
                                        }
                                    }
                                    if let Some(slot) = last_seen.get_mut(producer) {
                                        *slot = Some(s);
                                    } else {
                                        fifo_ok = false;
                                    }
                                    consumed.push(value);
                                }
                                None => dequeue_null.record(&steps),
                            }
                        }
                    }
                    enqueued_counter.fetch_add(seq, Ordering::Relaxed);
                    consumed_counter.fetch_add(consumed.len() as u64, Ordering::Relaxed);
                    ThreadOutcome {
                        enqueue,
                        dequeue_hit,
                        dequeue_null,
                        fifo_ok,
                        consumed,
                    }
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();

    let mut report = RunReport {
        elapsed,
        fifo_ok: true,
        no_duplicates: true,
        enqueued: enqueued_counter.load(Ordering::Relaxed),
        dequeued: consumed_counter.load(Ordering::Relaxed),
        ..Default::default()
    };
    let mut all_consumed: Vec<u64> = Vec::new();
    for o in outcomes {
        report.enqueue += o.enqueue;
        report.dequeue_hit += o.dequeue_hit;
        report.dequeue_null += o.dequeue_null;
        report.fifo_ok &= o.fifo_ok;
        all_consumed.extend(o.consumed);
    }
    let before = all_consumed.len();
    all_consumed.sort_unstable();
    all_consumed.dedup();
    report.no_duplicates = all_consumed.len() == before;
    report
}

// ---------------------------------------------------------------------------
// Batched closed-loop workload
// ---------------------------------------------------------------------------

/// Parameters of one batched workload run: every operation is an
/// `enqueue_batch` / `dequeue_batch` of `batch_size` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchWorkloadSpec {
    /// Number of worker threads (each gets one queue handle).
    pub threads: usize,
    /// Batches performed by each thread.
    pub batches_per_thread: usize,
    /// Operations per batch (1 = the plain per-op workload shape).
    pub batch_size: usize,
    /// Probability (per mille) that a batch is an enqueue batch.
    pub enqueue_permille: u32,
    /// Values enqueued before the measured phase starts.
    pub prefill: usize,
    /// Seed for the deterministic batch mix.
    pub seed: u64,
}

impl Default for BatchWorkloadSpec {
    fn default() -> Self {
        BatchWorkloadSpec {
            threads: 2,
            batches_per_thread: 1_000,
            batch_size: 8,
            enqueue_permille: 500,
            prefill: 0,
            seed: 0xBA7C_4ED0,
        }
    }
}

/// Outcome of one batched workload run. Step statistics are recorded **per
/// batch** (one `measure` spans the whole batch); value counts are per
/// individual operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchRunReport {
    /// Aggregated per-batch statistics for enqueue batches.
    pub enqueue_batches: OpClassStats,
    /// Aggregated per-batch statistics for dequeue batches.
    pub dequeue_batches: OpClassStats,
    /// Operations per batch this run used.
    pub batch_size: usize,
    /// Wall-clock time of the measured phase.
    pub elapsed: Duration,
    /// Whether every consumed value respected per-producer FIFO order (both
    /// across batches and within each dequeued batch).
    pub fifo_ok: bool,
    /// Whether no value was consumed twice.
    pub no_duplicates: bool,
    /// Values enqueued during the measured phase (excludes prefill).
    pub enqueued: u64,
    /// Values dequeued during the measured phase (includes prefill values).
    pub dequeued: u64,
    /// Dequeue responses that were `None` (queue empty).
    pub null_responses: u64,
}

impl BatchRunReport {
    /// Total individual operations (batches × batch size).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        (self.enqueue_batches.count + self.dequeue_batches.count) * self.batch_size as u64
    }

    /// Mean shared-memory steps per *individual operation* — the amortized
    /// quantity batching improves.
    #[must_use]
    pub fn steps_per_op(&self) -> f64 {
        let total = self.enqueue_batches.steps_total + self.dequeue_batches.steps_total;
        if self.total_ops() == 0 {
            0.0
        } else {
            total as f64 / self.total_ops() as f64
        }
    }

    /// Mean CAS instructions per individual operation.
    #[must_use]
    pub fn cas_per_op(&self) -> f64 {
        let total = self.enqueue_batches.cas_total + self.dequeue_batches.cas_total;
        if self.total_ops() == 0 {
            0.0
        } else {
            total as f64 / self.total_ops() as f64
        }
    }

    /// Throughput in individual operations per second.
    #[must_use]
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_ops() as f64 / secs
        }
    }

    /// All safety audits passed.
    #[must_use]
    pub fn audits_ok(&self) -> bool {
        self.fifo_ok && self.no_duplicates
    }
}

/// Runs a batched closed loop against `queue`: each thread performs
/// `batches_per_thread` batches of `batch_size` operations, auditing
/// per-producer FIFO order (across *and within* batches) and global
/// no-loss/no-duplication exactly like [`run_workload`].
///
/// # Panics
///
/// Panics if `spec.threads` or `spec.batch_size` is zero, or if the queue
/// cannot hand out `spec.threads` handles.
pub fn run_batch_workload<Q: ConcurrentQueue<u64>>(
    queue: &Q,
    spec: &BatchWorkloadSpec,
) -> BatchRunReport {
    assert!(spec.threads > 0, "need at least one thread");
    assert!(spec.batch_size > 0, "batch_size must be at least 1");
    let barrier = Barrier::new(spec.threads);
    let consumed_counter = AtomicU64::new(0);
    let enqueued_counter = AtomicU64::new(0);

    struct ThreadOutcome {
        enqueue_batches: OpClassStats,
        dequeue_batches: OpClassStats,
        fifo_ok: bool,
        nulls: u64,
        consumed: Vec<u64>,
    }

    let mut handles: Vec<Q::Handle<'_>> = (0..spec.threads).map(|_| queue.handle()).collect();

    // Prefill through thread 0's handle with producer tag = threads (a
    // pseudo-producer that never produces again).
    {
        let h = &mut handles[0];
        for i in 0..spec.prefill {
            h.enqueue(tag(spec.threads, i as u64));
        }
    }

    let start = Instant::now();
    let outcomes: Vec<ThreadOutcome> = wfqueue_sync::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(tid, mut handle)| {
                let barrier = &barrier;
                let consumed_counter = &consumed_counter;
                let enqueued_counter = &enqueued_counter;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(spec.seed ^ (tid as u64).wrapping_mul(0x9E37));
                    let mut enqueue_batches = OpClassStats::default();
                    let mut dequeue_batches = OpClassStats::default();
                    let mut last_seen: Vec<Option<u64>> = vec![None; spec.threads + 1];
                    let mut fifo_ok = true;
                    let mut nulls = 0u64;
                    let mut consumed = Vec::new();
                    let mut seq = 0u64;
                    barrier.wait();
                    for _ in 0..spec.batches_per_thread {
                        if rng.chance_permille(spec.enqueue_permille) {
                            let batch: Vec<u64> = (0..spec.batch_size)
                                .map(|_| {
                                    let v = tag(tid, seq);
                                    seq += 1;
                                    v
                                })
                                .collect();
                            let ((), steps) =
                                wfqueue_metrics::measure(|| handle.enqueue_batch(batch));
                            enqueue_batches.record(&steps);
                        } else {
                            let (responses, steps) =
                                wfqueue_metrics::measure(|| handle.dequeue_batch(spec.batch_size));
                            dequeue_batches.record(&steps);
                            for result in responses {
                                match result {
                                    Some(value) => {
                                        let (producer, s) = untag(value);
                                        if let Some(prev) =
                                            last_seen.get(producer).copied().flatten()
                                        {
                                            if s <= prev {
                                                fifo_ok = false;
                                            }
                                        }
                                        if let Some(slot) = last_seen.get_mut(producer) {
                                            *slot = Some(s);
                                        } else {
                                            fifo_ok = false;
                                        }
                                        consumed.push(value);
                                    }
                                    None => nulls += 1,
                                }
                            }
                        }
                    }
                    enqueued_counter.fetch_add(seq, Ordering::Relaxed);
                    consumed_counter.fetch_add(consumed.len() as u64, Ordering::Relaxed);
                    ThreadOutcome {
                        enqueue_batches,
                        dequeue_batches,
                        fifo_ok,
                        nulls,
                        consumed,
                    }
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();

    let mut report = BatchRunReport {
        batch_size: spec.batch_size,
        elapsed,
        fifo_ok: true,
        no_duplicates: true,
        enqueued: enqueued_counter.load(Ordering::Relaxed),
        dequeued: consumed_counter.load(Ordering::Relaxed),
        ..Default::default()
    };
    let mut all_consumed: Vec<u64> = Vec::new();
    for o in outcomes {
        report.enqueue_batches += o.enqueue_batches;
        report.dequeue_batches += o.dequeue_batches;
        report.fifo_ok &= o.fifo_ok;
        report.null_responses += o.nulls;
        all_consumed.extend(o.consumed);
    }
    let before = all_consumed.len();
    all_consumed.sort_unstable();
    all_consumed.dedup();
    report.no_duplicates = all_consumed.len() == before;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue_api::{CoarseMutex, Ms, Routing};
    use wfqueue::{bounded, unbounded};
    use wfqueue_shard::ShardedUnbounded;

    #[test]
    fn tags_round_trip() {
        for (p, s) in [(0usize, 0u64), (5, 123), (63, (1 << 40) - 1)] {
            assert_eq!(untag(tag(p, s)), (p, s));
        }
    }

    #[test]
    fn mixed_run_audits_pass_on_wf_unbounded() {
        let q = unbounded::Queue::new(4);
        let spec = WorkloadSpec {
            threads: 4,
            ops_per_thread: 2_000,
            enqueue_permille: 500,
            prefill: 64,
            seed: 42,
        };
        let r = run_workload(&q, &spec);
        assert!(r.audits_ok(), "{r:?}");
        assert_eq!(r.total_ops(), 8_000);
        assert!(r.steps_avg() > 0.0);
        assert!(r.enqueue.count > 0 && r.dequeue_hit.count > 0);
        assert!(r.ops_per_sec() > 0.0);
    }

    #[test]
    fn mixed_run_audits_pass_on_wf_bounded() {
        let q = bounded::Queue::with_gc_period(3, 8);
        let spec = WorkloadSpec {
            threads: 3,
            ops_per_thread: 1_500,
            enqueue_permille: 600,
            prefill: 16,
            seed: 7,
        };
        let r = run_workload(&q, &spec);
        assert!(r.audits_ok(), "{r:?}");
        assert_eq!(r.total_ops(), 4_500);
    }

    #[test]
    fn mixed_run_audits_pass_on_baselines() {
        let spec = WorkloadSpec {
            threads: 4,
            ops_per_thread: 1_000,
            enqueue_permille: 500,
            prefill: 32,
            seed: 3,
        };
        let r = run_workload(&Ms::new(), &spec);
        assert!(r.audits_ok());
        let r = run_workload(&CoarseMutex::new(), &spec);
        assert!(r.audits_ok());
    }

    #[test]
    fn enqueue_only_and_dequeue_only_mixes() {
        let q = unbounded::Queue::new(2);
        let spec = WorkloadSpec {
            threads: 2,
            ops_per_thread: 500,
            enqueue_permille: 1000,
            prefill: 0,
            seed: 1,
        };
        let r = run_workload(&q, &spec);
        assert_eq!(r.enqueue.count, 1_000);
        assert_eq!(r.dequeue_hit.count + r.dequeue_null.count, 0);

        // Handles are consumed per run: use a fresh queue for the next mix.
        let q = unbounded::Queue::new(2);
        let spec = WorkloadSpec {
            threads: 2,
            ops_per_thread: 400,
            enqueue_permille: 0,
            prefill: 1_000,
            seed: 1,
        };
        let r = run_workload(&q, &spec);
        assert_eq!(r.enqueue.count, 0);
        assert_eq!(r.dequeue_hit.count, 800, "prefill large enough: all hits");
    }

    #[test]
    fn batch_workload_audits_pass_on_wf_variants() {
        for batch_size in [1usize, 3, 16] {
            let spec = BatchWorkloadSpec {
                threads: 4,
                batches_per_thread: 300,
                batch_size,
                enqueue_permille: 500,
                prefill: 32,
                seed: 0xBA7C,
            };
            let q = unbounded::Queue::new(4);
            let r = run_batch_workload(&q, &spec);
            assert!(r.audits_ok(), "unbounded k={batch_size}: {r:?}");
            assert_eq!(r.total_ops(), 4 * 300 * batch_size as u64);
            wfqueue::unbounded::introspect::check_invariants(&q).unwrap();

            let q = bounded::Queue::with_gc_period(4, 8);
            let r = run_batch_workload(&q, &spec);
            assert!(r.audits_ok(), "bounded k={batch_size}: {r:?}");
            wfqueue::bounded::introspect::check_invariants(&q).unwrap();
        }
    }

    #[test]
    fn batch_workload_fallback_on_baselines() {
        let spec = BatchWorkloadSpec {
            threads: 3,
            batches_per_thread: 200,
            batch_size: 5,
            enqueue_permille: 500,
            prefill: 16,
            seed: 9,
        };
        let r = run_batch_workload(&Ms::new(), &spec);
        assert!(r.audits_ok());
        let r = run_batch_workload(&CoarseMutex::new(), &spec);
        assert!(r.audits_ok());
    }

    #[test]
    fn batching_reduces_steps_per_enqueue() {
        // Enqueue-only single thread: per-op steps must drop sharply with
        // the batch size (one propagation per batch).
        let steps_at = |k: usize| {
            let q = unbounded::Queue::new(1);
            let spec = BatchWorkloadSpec {
                threads: 1,
                batches_per_thread: 2048 / k,
                batch_size: k,
                enqueue_permille: 1000,
                prefill: 0,
                seed: 5,
            };
            run_batch_workload(&q, &spec).steps_per_op()
        };
        let k1 = steps_at(1);
        let k32 = steps_at(32);
        assert!(
            k32 * 4.0 < k1,
            "expected ≫4× fewer steps/op at k=32: k1={k1:.1}, k32={k32:.1}"
        );
    }

    #[test]
    fn mixed_run_audits_pass_on_sharded_composites() {
        // Per-producer FIFO and no-duplication must hold on the composite
        // for both routing policies and every shard count.
        for routing in [Routing::PerProducer, Routing::Nearest] {
            for shards in [1usize, 2, 4] {
                let q: ShardedUnbounded<u64> = ShardedUnbounded::new(shards, 4, routing);
                let spec = WorkloadSpec {
                    threads: 4,
                    ops_per_thread: 1_500,
                    enqueue_permille: 550,
                    prefill: 0,
                    seed: 0x5AAD + shards as u64,
                };
                let r = run_workload(&q, &spec);
                assert!(r.audits_ok(), "{routing:?} S={shards}: {r:?}");
            }
        }
    }

    #[test]
    fn batch_workload_audits_pass_on_sharded_composites() {
        for routing in [Routing::PerProducer, Routing::Nearest] {
            let q: ShardedUnbounded<u64> = ShardedUnbounded::new(2, 4, routing);
            let spec = BatchWorkloadSpec {
                threads: 4,
                batches_per_thread: 200,
                batch_size: 8,
                enqueue_permille: 500,
                prefill: 0,
                seed: 0x5BB,
            };
            let r = run_batch_workload(&q, &spec);
            assert!(r.audits_ok(), "{routing:?}: {r:?}");
        }
    }

    #[test]
    fn deterministic_op_mix_given_seed() {
        // The operation mix (not the interleaving) is a pure function of the
        // seed: same seed => same per-class counts on a single thread.
        let spec = WorkloadSpec {
            threads: 1,
            ops_per_thread: 1_000,
            enqueue_permille: 300,
            prefill: 10,
            seed: 99,
        };
        let a = run_workload(&unbounded::Queue::new(1), &spec);
        let b = run_workload(&unbounded::Queue::new(1), &spec);
        assert_eq!(a.enqueue.count, b.enqueue.count);
        assert_eq!(a.dequeue_hit.count, b.dequeue_hit.count);
        assert_eq!(a.dequeue_null.count, b.dequeue_null.count);
    }
}
