//! Experiment E16-executor — the work-stealing pool under a 200k-task
//! load, with per-task scheduling latency tails and a steal audit.
//!
//! Three phases over one pool (2 workers — the container is single-core,
//! so more OS threads than that would measure the kernel scheduler, not
//! the executor):
//!
//! * **external** — two producer threads push 184k tasks through their
//!   per-producer [`Spawner`]s (the injection-queue path); each task
//!   records its spawn-to-run latency into a preallocated `AtomicU64`
//!   slot.
//! * **fan-out** — 8 sequential rounds; each round a worker-resident
//!   task spawns 2,000 sub-tasks into its *own local ring* and then
//!   occupies its worker until all of them completed, so the only way a
//!   round finishes is for the other worker to steal (half-batches via
//!   the ring's multi-ticket dequeue) and drain the overflow. This is
//!   the phase behind the `steal_batches ≥ 1` acceptance assert.
//! * **timer** — 2,000 `spawn_after` entries with hashed 1–16 ms
//!   delays; each records its *fire lag* (observed minus requested
//!   delay), the hashed wheel's scheduling error.
//!
//! The binary **asserts** the acceptance criteria in-process: the
//! drain certificate `spawned == completed` over the ≥ 200k tasks, the
//! `from_local + from_injection + from_steal` partition, well-formed
//! latency percentiles (`0 < p50 ≤ p99 ≤ p999`), and at least one steal
//! batch at 2 workers.
//!
//! `--json` prints a machine-readable summary (used by
//! `scripts/bench.sh e16_executor` to record `BENCH_e16.json`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use wfqueue_bench::exp::percentile;
use wfqueue_executor::{Executor, ExecutorConfig, ExecutorStats};
use wfqueue_harness::table::Table;
use wfqueue_sync::atomic::{AtomicU64, Ordering};

/// Worker threads in the pool under test.
const WORKERS: usize = 2;
/// Producer threads for the external phase.
const PRODUCERS: u64 = 2;
/// Tasks spawned through the external (injection-queue) path.
const EXTERNAL: u64 = 184_000;
/// Sequential fan-out rounds.
const FAN_ROUNDS: u64 = 8;
/// Sub-tasks per fan-out round (more than the local ring holds, so the
/// round also exercises the overflow-to-injection path).
const FAN: u64 = 2_000;
/// Timer-wheel entries in the timer phase.
const TIMERS: u64 = 2_000;
/// Total pool tasks outside the timer phase (the ≥ 200k floor).
const TASKS: u64 = EXTERNAL + FAN_ROUNDS * (FAN + 1);

/// SplitMix64 finalizer — deterministic per-timer delay hashing.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn check_tail(label: &str, sorted_ns: &[u64]) -> (u64, u64, u64) {
    let (p50, p99, p999) = (
        percentile(sorted_ns, 500),
        percentile(sorted_ns, 990),
        percentile(sorted_ns, 999),
    );
    assert!(
        0 < p50 && p50 <= p99 && p99 <= p999,
        "{label}: malformed latency percentiles: {p50} / {p99} / {p999}"
    );
    (p50, p99, p999)
}

/// The external + fan-out + timer load over one pool. Returns the
/// spawn-to-run latencies (one per non-timer task), the timer fire lags,
/// the final counters and the wall-clock seconds.
fn run_load() -> (Vec<u64>, Vec<u64>, ExecutorStats, f64) {
    let pool = Arc::new(Executor::new(ExecutorConfig {
        workers: WORKERS,
        max_spawners: PRODUCERS as usize + 2,
        ..ExecutorConfig::default()
    }));
    let epoch = Instant::now();
    let lat: Arc<Vec<AtomicU64>> = Arc::new((0..TASKS).map(|_| AtomicU64::new(0)).collect());
    let start = Instant::now();

    // Phase 1: external producers over the injection queue.
    wfqueue_sync::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let mut spawner = pool.try_spawner().expect("pool sized for the producers");
            let (lat, epoch) = (Arc::clone(&lat), epoch);
            s.spawn(move || {
                for i in (p..EXTERNAL).step_by(PRODUCERS as usize) {
                    let lat = Arc::clone(&lat);
                    let sent = epoch.elapsed().as_nanos() as u64;
                    spawner
                        .spawn(move || {
                            let now = epoch.elapsed().as_nanos() as u64;
                            lat[i as usize]
                                .store(now.saturating_sub(sent).max(1), Ordering::Relaxed);
                        })
                        .expect("pool is open");
                }
            });
        }
    });

    // Phase 2: fan-out rounds forcing steals. Rounds are sequential —
    // two simultaneously-spinning outer tasks would occupy both workers
    // with their sub-tasks stuck beneath them.
    for round in 0..FAN_ROUNDS {
        let outer_idx = (EXTERNAL + FAN_ROUNDS * FAN + round) as usize;
        let (p2, lat2, done) = (
            Arc::clone(&pool),
            Arc::clone(&lat),
            Arc::new(AtomicU64::new(0)),
        );
        let sent = epoch.elapsed().as_nanos() as u64;
        pool.spawn(move || {
            let now = epoch.elapsed().as_nanos() as u64;
            lat2[outer_idx].store(now.saturating_sub(sent).max(1), Ordering::Relaxed);
            for j in 0..FAN {
                let idx = (EXTERNAL + round * FAN + j) as usize;
                let (lat3, done) = (Arc::clone(&lat2), Arc::clone(&done));
                let sent = epoch.elapsed().as_nanos() as u64;
                p2.spawn(move || {
                    let now = epoch.elapsed().as_nanos() as u64;
                    lat3[idx].store(now.saturating_sub(sent).max(1), Ordering::Relaxed);
                    done.fetch_add(1, Ordering::Release);
                })
                .expect("pool is open");
            }
            // Occupy this worker until the other one stole and ran the
            // whole fan (yielding: single-core container).
            while done.load(Ordering::Acquire) < FAN {
                wfqueue_sync::thread::yield_now();
            }
        })
        .expect("pool is open")
        .join()
        .expect("fan-out round");
    }

    // Phase 3: hashed timer delays; lag = observed − requested delay.
    let timer_handles: Vec<_> = (0..TIMERS)
        .map(|t| {
            let delay = Duration::from_millis(1 + mix(t) % 16);
            let sent = epoch.elapsed().as_nanos() as u64;
            let due = sent + delay.as_nanos() as u64;
            pool.spawn_after(delay, move || {
                let now = epoch.elapsed().as_nanos() as u64;
                now.saturating_sub(due).max(1)
            })
            .map(|(h, _key)| h)
            .expect("pool is open")
        })
        .collect();
    let mut timer_lags: Vec<u64> = timer_handles
        .into_iter()
        .map(|h| h.join().expect("timer task fired"))
        .collect();

    let stats = pool.shutdown();
    let elapsed_secs = start.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = lat.iter().map(|a| a.load(Ordering::Relaxed)).collect();
    assert!(
        latencies.iter().all(|&ns| ns > 0),
        "a task never recorded its latency — lost despite the drain certificate"
    );
    latencies.sort_unstable();
    timer_lags.sort_unstable();
    (latencies, timer_lags, stats, elapsed_secs)
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    let (latencies, timer_lags, stats, elapsed_secs) = run_load();

    // Acceptance: the drain certificate over the whole load, the source
    // partition, and a real steal at ≥ 2 workers.
    const { assert!(TASKS >= 200_000, "load sized below the 200k floor") };
    assert_eq!(latencies.len() as u64, TASKS, "one latency per task");
    assert_eq!(
        stats.spawned, stats.completed,
        "drain certificate: {stats:?}"
    );
    assert_eq!(
        stats.spawned,
        TASKS + TIMERS,
        "every spawn accounted: {stats:?}"
    );
    assert_eq!(stats.timer_fired, TIMERS, "{stats:?}");
    assert_eq!(stats.rejected, 0, "{stats:?}");
    assert_eq!(
        stats.from_local + stats.from_injection + stats.from_steal,
        stats.completed,
        "source partition: {stats:?}"
    );
    assert!(
        stats.steal_batches >= 1,
        "{WORKERS} workers never stole across the fan-out phase: {stats:?}"
    );
    let (p50, p99, p999) = check_tail("task", &latencies);
    let (lag50, lag99, lag999) = check_tail("timer", &timer_lags);
    let throughput = stats.completed as f64 / elapsed_secs;

    if json {
        // Hand-rolled JSON (no serde in the offline workspace).
        println!(
            "{{\n  \"experiment\": \"e16_executor\",\n  \"workers\": {WORKERS},\n  \
             \"tasks\": {TASKS},\n  \"timers\": {TIMERS},\n  \
             \"throughput_tasks_per_s\": {throughput:.1},\n  \
             \"latency_ns\": {{\"p50\": {p50}, \"p99\": {p99}, \"p999\": {p999}}},\n  \
             \"timer_lag_ns\": {{\"p50\": {lag50}, \"p99\": {lag99}, \"p999\": {lag999}}},\n  \
             \"stats\": {{\"spawned\": {}, \"completed\": {}, \"from_local\": {}, \
             \"from_injection\": {}, \"from_steal\": {}, \"steal_batches\": {}, \
             \"stolen_tasks\": {}, \"parks\": {}}}\n}}",
            stats.spawned,
            stats.completed,
            stats.from_local,
            stats.from_injection,
            stats.from_steal,
            stats.steal_batches,
            stats.stolen_tasks,
            stats.parks
        );
        return;
    }

    let mut table = Table::new(
        &format!(
            "E16-executor: {TASKS} tasks + {TIMERS} timers on {WORKERS} workers \
             ({throughput:.0} tasks/s)"
        ),
        &["series", "n", "p50 µs", "p99 µs", "p999 µs"],
    );
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1_000.0);
    table.row_owned(vec![
        "spawn→run".to_string(),
        latencies.len().to_string(),
        us(p50),
        us(p99),
        us(p999),
    ]);
    table.row_owned(vec![
        "timer lag".to_string(),
        timer_lags.len().to_string(),
        us(lag50),
        us(lag99),
        us(lag999),
    ]);
    println!("{table}");

    let mut sources = Table::new(
        "E16-executor: completions by source (the partition audit)",
        &[
            "local ring",
            "injection",
            "steals",
            "steal batches",
            "parks",
        ],
    );
    sources.row_owned(vec![
        stats.from_local.to_string(),
        stats.from_injection.to_string(),
        stats.from_steal.to_string(),
        stats.steal_batches.to_string(),
        stats.parks.to_string(),
    ]);
    println!("{sources}");
    println!(
        "expected shape: the local ring dominates — injection dequeues come in\n\
         run-first/push-rest batches, so most injected tasks are re-popped from\n\
         the ring — while the fan-out rounds put their sub-tasks on the steal\n\
         or overflow path; the spawn→run p999 tracks the worst-case backlog\n\
         behind the two workers, and timer lag sits at the wheel's 1 ms tick\n\
         plus scheduling noise.\n"
    );
}
