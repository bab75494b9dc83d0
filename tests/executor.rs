//! Executor-grade test battery for `wfqueue_executor` (ISSUE 10):
//! spawn/join round trips across worker counts, the steal-half partition
//! audit, adversarial park/unpark ping-pong hunting lost wakeups,
//! timer-wheel ordering and cancellation, a drop-interleaving proptest
//! (spawns racing shutdown are either run or reported rejected — never
//! lost), shutdown-drains-then-closes on every spawn path, and a
//! `SOAK_SECS`-gated churn soak for the weekly stress job.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wfqueue_sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use wfqueue_executor::{Executor, ExecutorConfig, JoinError, Rejected};
use wfqueue_harness::executor_api::WfExecutor;
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

/// Spawn/join round trips at every worker count the battery cares about,
/// with the drain certificate and the source partition checked at each.
#[test]
fn spawn_join_round_trips_on_every_worker_count() {
    for workers in [1, 2, 3, 4, 8] {
        let pool = Executor::with_workers(workers);
        let handles: Vec<_> = (0..200u64)
            .map(|i| pool.spawn(move || i * 3).expect("pool is open"))
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(
                h.join().expect("task ran"),
                i as u64 * 3,
                "workers={workers}"
            );
        }
        let stats = pool.shutdown();
        assert_eq!(stats.spawned, 200, "workers={workers}");
        assert!(stats.quiescent(), "workers={workers}: {stats:?}");
        assert!(
            stats.sources_partition_completed(),
            "workers={workers}: {stats:?}"
        );
    }
}

/// The steal-half partition audit: a worker-resident task fans 256
/// sub-tasks into its *own local ring* and then occupies its worker until
/// all of them completed — the only way they can complete is for the
/// other workers to steal them. Afterwards the counters must show real
/// steals and still partition `completed` exactly.
#[test]
fn steal_half_moves_tasks_and_partitions_completed() {
    const FAN: u64 = 256;
    let pool = Arc::new(Executor::with_workers(4));
    let p2 = Arc::clone(&pool);
    let done = Arc::new(AtomicU64::new(0));
    let d2 = Arc::clone(&done);
    let outer = pool
        .spawn(move || {
            // Runs on a worker, so these spawns take the local-ring path.
            for _ in 0..FAN {
                let d = Arc::clone(&d2);
                p2.spawn(move || {
                    d.fetch_add(1, Ordering::Release);
                })
                .expect("pool is open");
            }
            // Occupy this worker until every sub-task ran elsewhere.
            while d2.load(Ordering::Acquire) < FAN {
                std::hint::spin_loop();
            }
        })
        .expect("pool is open");
    outer.join().expect("outer task ran");
    let stats = pool.shutdown();
    assert_eq!(done.load(Ordering::Relaxed), FAN);
    assert!(
        stats.steal_batches >= 1,
        "4 workers never stole from the fan-out ring: {stats:?}"
    );
    assert!(stats.stolen_tasks >= stats.steal_batches, "{stats:?}");
    assert!(
        stats.from_steal >= 1 && stats.from_steal <= stats.stolen_tasks,
        "{stats:?}"
    );
    assert!(stats.quiescent(), "{stats:?}");
    assert!(stats.sources_partition_completed(), "{stats:?}");
}

/// Park/unpark ping-pong under the adversarial scheduler: a single
/// worker (so it parks between every round) plus, in a second pool, a
/// worker pair where the idle one keeps hunting steals. Every join uses
/// a deadline so a lost wakeup fails loudly instead of hanging the
/// suite.
#[test]
fn park_unpark_ping_pong_under_adversary_loses_no_wakeup() {
    wfqueue_metrics::set_adversary(true);
    for workers in [1, 2] {
        let pool = Executor::with_workers(workers);
        let mut spawner = pool.try_spawner().expect("spawner budget");
        for round in 0..1_500u64 {
            // Periodic producer naps guarantee the pool actually drains
            // and parks between bursts — otherwise a fast producer can
            // keep re-arming the worker's empty probe forever and the
            // park path would go unexercised.
            if round % 250 == 0 {
                wfqueue_sync::thread::sleep(Duration::from_millis(10));
            }
            // Alternate the two external spawn paths so both the shared
            // fallback handle and the per-producer spawner handle drive
            // the park/notify handshake.
            let h = if round % 2 == 0 {
                pool.spawn(move || round).expect("pool is open")
            } else {
                spawner.spawn(move || round).expect("pool is open")
            };
            let joined = h
                .join_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("round {round}, workers {workers}: lost wakeup"));
            assert_eq!(joined.expect("task ran"), round);
        }
        let stats = pool.shutdown();
        assert!(stats.quiescent(), "workers={workers}: {stats:?}");
        assert!(
            stats.parks > 0,
            "ping-pong at {workers} workers never parked — the test exercised nothing: {stats:?}"
        );
    }
    wfqueue_metrics::set_adversary(false);
}

/// The workload runner's FIFO + no-duplicate audits over the harness
/// adapter, under the adversary: every harness enqueue is a real spawn,
/// every dequeue a real join, so a duplicated or lost task delivery
/// fails the same audits a broken queue would.
#[test]
fn adversarial_workload_audits_pass_on_executor() {
    wfqueue_metrics::set_adversary(true);
    for threads in [2, 4] {
        let q: WfExecutor<u64> = WfExecutor::new(threads, 2);
        let r = run_workload(
            &q,
            &WorkloadSpec {
                threads,
                ops_per_thread: 600,
                enqueue_permille: 550,
                prefill: 0,
                seed: 0xE16 + threads as u64,
            },
        );
        assert!(r.audits_ok(), "wf-executor p={threads}: {r:?}");
        // The workload leaves some spawns unjoined, and a running task is
        // already counted by source but not yet as completed: the
        // partition is a certificate of the quiescent pool.
        let stats = loop {
            let stats = q.stats();
            if stats.quiescent() {
                break stats;
            }
            wfqueue_sync::thread::yield_now();
        };
        assert!(stats.sources_partition_completed(), "{stats:?}");
    }
    wfqueue_metrics::set_adversary(false);
}

/// Timer-wheel ordering: staggered deadlines fire in deadline order, and
/// a same-delay batch fires in registration order (equal nominal delays
/// resolve to monotonically increasing deadlines; exact-tie insertion-id
/// ordering is unit-tested against the wheel itself in
/// `crates/executor/src/timer.rs`).
#[test]
fn timer_wheel_fires_in_deadline_then_registration_order() {
    let pool = Executor::with_workers(1);
    let order = Arc::new(Mutex::new(Vec::new()));
    // Registration order deliberately scrambled relative to deadlines.
    let delays_ms = [200u64, 40, 160, 80, 120];
    let mut handles = Vec::new();
    for &ms in &delays_ms {
        let order = Arc::clone(&order);
        let (h, _key) = pool
            .spawn_after(Duration::from_millis(ms), move || {
                order.lock().unwrap().push(ms);
            })
            .expect("pool is open");
        handles.push(h);
    }
    // Same-delay batch, registered back to back behind everything above:
    // must fire after the staggered group and in registration order.
    for tag in [1_000u64, 1_001, 1_002] {
        let order = Arc::clone(&order);
        let (h, _key) = pool
            .spawn_after(Duration::from_millis(300), move || {
                order.lock().unwrap().push(tag);
            })
            .expect("pool is open");
        handles.push(h);
    }
    for h in handles {
        h.join().expect("timer task fired");
    }
    let seen = order.lock().unwrap().clone();
    assert_eq!(
        seen,
        vec![40, 80, 120, 160, 200, 1_000, 1_001, 1_002],
        "timer firing order"
    );
    let stats = pool.shutdown();
    assert_eq!(stats.timer_fired, 8);
    assert!(stats.quiescent(), "{stats:?}");
}

/// Timer cancellation: a cancelled entry resolves its join handle to
/// `Cancelled` (not lost), cancelling a fired timer reports `false`, and
/// shutdown cancels everything still pending.
#[test]
fn timer_cancellation_reports_and_never_loses_tasks() {
    let pool = Executor::with_workers(2);
    // Cancel before fire.
    let (pending, key) = pool
        .spawn_after(Duration::from_secs(3600), || 1u64)
        .expect("pool is open");
    assert!(key.cancel(), "unfired timer must be cancellable");
    assert!(pending.join().expect_err("cancelled").is_cancelled());
    // Cancel after fire.
    let (fired, key) = pool
        .spawn_after(Duration::from_millis(1), || 2u64)
        .expect("pool is open");
    assert_eq!(fired.join().expect("fired"), 2);
    assert!(!key.cancel(), "fired timer must not be cancellable");
    // Shutdown cancels the still-pending rest; their handles resolve.
    let (stranded, _key) = pool
        .spawn_after(Duration::from_secs(3600), || 3u64)
        .expect("pool is open");
    let stats = pool.shutdown();
    assert!(stranded
        .join()
        .expect_err("shutdown cancels")
        .is_cancelled());
    assert_eq!(stats.timer_fired, 1);
    assert_eq!(stats.timer_cancelled, 2);
    assert!(stats.quiescent(), "{stats:?}");
}

/// `sleep` blocks for at least the requested duration and reports
/// `Cancelled` (rather than hanging or lying) on a shut-down pool.
#[test]
fn sleep_blocks_and_reports_shutdown() {
    let pool = Executor::with_workers(1);
    let t0 = Instant::now();
    pool.sleep(Duration::from_millis(30)).expect("timer fired");
    assert!(t0.elapsed() >= Duration::from_millis(30));
    pool.shutdown();
    assert!(pool
        .sleep(Duration::from_millis(1))
        .expect_err("sealed pool cannot sleep")
        .is_cancelled());
}

/// Shutdown drains-then-closes on *every* spawn path: external spawn,
/// per-producer spawner, worker-internal respawn and timer fire all
/// racing the seal. Every accepted task must run, every refusal must be
/// explicit, and the counters must certify the drain.
#[test]
fn shutdown_drains_then_closes_every_spawn_path() {
    let pool = Arc::new(Executor::with_workers(3));
    let ran = Arc::new(AtomicU64::new(0));
    let accepted = Arc::new(AtomicU64::new(0));
    let refused = Arc::new(AtomicU64::new(0));
    let mut producers = Vec::new();
    for path in 0..3u64 {
        let pool = Arc::clone(&pool);
        let (ran, accepted, refused) = (
            Arc::clone(&ran),
            Arc::clone(&accepted),
            Arc::clone(&refused),
        );
        producers.push(wfqueue_sync::thread::spawn(move || {
            let mut spawner = (path == 1).then(|| pool.try_spawner().expect("budget"));
            for _ in 0..2_000u64 {
                let ran2 = Arc::clone(&ran);
                let task = move || {
                    ran2.fetch_add(1, Ordering::Relaxed);
                };
                let outcome = match &mut spawner {
                    Some(s) => s.spawn(task).map(drop).map_err(|_| ()),
                    None if path == 0 => pool.spawn(task).map(drop).map_err(|_| ()),
                    None => pool
                        .spawn_after(Duration::from_micros(50), task)
                        .map(|(h, _k)| drop(h))
                        .map_err(|_| ()),
                };
                match outcome {
                    Ok(()) => {
                        accepted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(()) => {
                        refused.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
        }));
    }
    // Let the producers get going, then seal mid-flight.
    wfqueue_sync::thread::sleep(Duration::from_millis(20));
    let stats = pool.shutdown();
    for p in producers {
        p.join().expect("producer thread");
    }
    assert!(stats.quiescent(), "{stats:?}");
    // Every *scheduled* task ran; timer-path tasks accepted before the
    // seal but not yet fired were cancelled (reported, not lost).
    assert_eq!(stats.spawned, stats.completed);
    assert_eq!(
        ran.load(Ordering::Relaxed),
        stats.completed,
        "a task ran outside the counters: {stats:?}"
    );
    assert_eq!(
        accepted.load(Ordering::Relaxed),
        stats.completed + stats.timer_cancelled,
        "accepted = ran + cancelled-timers must hold: {stats:?}"
    );
    assert!(stats.sources_partition_completed(), "{stats:?}");
    // Every refusal, on every spawn path, is counted. Producers may be
    // refused after `shutdown` took its snapshot, so re-read the stats
    // once they have all stopped.
    assert_eq!(
        refused.load(Ordering::Relaxed),
        pool.stats().rejected,
        "a refused spawn went uncounted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Drop-interleaving proptest: tasks spawned toward a pool whose
    /// shutdown races the spawn loop (and whose join handles are
    /// immediately dropped — "dying handles") are either run or reported
    /// rejected, never lost. The task-side counter must agree exactly
    /// with the accepted-spawn count and the pool's own counters.
    #[test]
    fn spawns_racing_shutdown_run_or_reject_never_lost(
        workers in 1usize..4,
        spawns in 1u64..400,
        seal_after in 0u64..400,
    ) {
        let pool = Arc::new(Executor::with_workers(workers));
        let ran = Arc::new(AtomicU64::new(0));
        let p2 = Arc::clone(&pool);
        let closer = wfqueue_sync::thread::spawn(move || {
            // A crude delay knob: busy-yield proportional to seal_after
            // so the seal lands at a schedule-dependent point inside the
            // spawn loop.
            for _ in 0..seal_after {
                wfqueue_sync::thread::yield_now();
            }
            p2.shutdown()
        });
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for _ in 0..spawns {
            let ran2 = Arc::clone(&ran);
            match pool.spawn(move || { ran2.fetch_add(1, Ordering::Relaxed); }) {
                Ok(handle) => { accepted += 1; drop(handle); }
                Err(Rejected(_)) => rejected += 1,
            }
        }
        let stats = closer.join().expect("closer thread");
        prop_assert!(stats.quiescent(), "{stats:?}");
        prop_assert_eq!(accepted + rejected, spawns);
        // Every accepted spawn ran despite its handle dying immediately;
        // the pool agrees. (Counters are totals for this pool, and this
        // test is its only client.)
        prop_assert_eq!(ran.load(Ordering::Relaxed), accepted);
        prop_assert_eq!(stats.spawned, accepted);
        // `stats` is shutdown's snapshot, and this loop can keep being
        // refused after it was taken: read `rejected` now that it ended.
        prop_assert_eq!(pool.stats().rejected, rejected);
    }
}

/// Churn soak: sustained mixed spawn/timer/cancel load with handle
/// churn. Runs a few quick rounds by default; `SOAK_SECS` (weekly
/// stress CI) extends it to a wall-clock deadline, re-asserting the
/// partition and drain invariants the whole way.
#[test]
fn executor_churn_soak() {
    // One spawner for the whole soak: the `max_spawners` budget is a
    // lifetime cap on minted injection handles, not a count of live ones.
    fn churn_round(pool: &Arc<Executor>, spawner: &mut wfqueue_executor::Spawner, round: u64) {
        let mut handles = Vec::new();
        for i in 0..300u64 {
            let h = match i % 3 {
                0 => pool.spawn(move || i).expect("open"),
                1 => spawner.spawn(move || i).expect("open"),
                _ => {
                    // Worker-internal respawn path. The inner handle is
                    // *detached*, not joined: a worker task blocking on a
                    // join of a task stuck in blocked workers' rings can
                    // wedge the whole pool (classic blocking-join-on-pool
                    // hazard), which is exactly what this battery must not
                    // do to itself.
                    let p = Arc::clone(pool);
                    pool.spawn(move || {
                        drop(p.spawn(move || ()).expect("open"));
                        i
                    })
                    .expect("open")
                }
            };
            // Handle churn: join a third, drop (detach) the rest.
            if i % 3 == 0 {
                handles.push((i, h));
            }
        }
        let (fire, key) = pool
            .spawn_after(Duration::from_millis(1), move || round)
            .expect("open");
        let (never, key2) = pool
            .spawn_after(Duration::from_secs(3600), move || round)
            .expect("open");
        drop(key);
        assert_eq!(fire.join().expect("timer fired"), round);
        assert!(key2.cancel());
        assert!(never.join().expect_err("cancelled").is_cancelled());
        for (i, h) in handles {
            assert_eq!(h.join().expect("ran"), i);
        }
    }

    let pool = Arc::new(Executor::new(ExecutorConfig {
        workers: 4,
        local_queue_capacity: 64, // small rings: force overflow + steals
        max_spawners: 16,
    }));
    let mut spawner = pool.try_spawner().expect("spawner budget");
    for round in 0..5 {
        churn_round(&pool, &mut spawner, round);
    }
    if let Ok(secs) = std::env::var("SOAK_SECS") {
        let secs: u64 = secs.parse().expect("SOAK_SECS must be an integer");
        let deadline = Instant::now() + Duration::from_secs(secs);
        let mut rounds = 5u64;
        while Instant::now() < deadline {
            churn_round(&pool, &mut spawner, rounds);
            rounds += 1;
            let s = pool.stats();
            assert!(s.sources_partition_completed(), "round {rounds}: {s:?}");
        }
        eprintln!("soak: {rounds} churn rounds");
    }
    let stats = pool.shutdown();
    assert!(stats.quiescent(), "{stats:?}");
    assert!(stats.sources_partition_completed(), "{stats:?}");
}

/// A `JoinError::Cancelled` vs value outcome is the whole reporting
/// surface; make sure the error type's helpers behave.
#[test]
fn join_error_helpers() {
    assert!(JoinError::Cancelled.is_cancelled());
    assert_eq!(
        JoinError::Cancelled.to_string(),
        "task cancelled before it ran"
    );
}
