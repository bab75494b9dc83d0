//! Task scheduler: the workload the paper's introduction motivates
//! ("sharing resources or tasks") — fork-join tile rendering on the
//! **work-stealing executor** (`wfqueue_executor`), the pool built out
//! of this repo's queues.
//!
//! Producers submit jobs through per-producer [`Spawner`]s (each pinned
//! to its own shard of the §3 unbounded injection queue — the spawn
//! itself is wait-free). Each job task *forks* its tiles from inside the
//! pool: worker-internal spawns land in that worker's bounded local
//! ring, so an imbalanced fork is rebalanced by the other workers
//! stealing half-batches via the ring's all-or-nothing multi-ticket
//! dequeues. A hashed-wheel timer ([`Executor::spawn_after`]) snapshots
//! the counters mid-flight, and `shutdown()` certifies the drain — every
//! forked tile ran (`spawned == completed`) before the pool joined its
//! workers.
//!
//! Run with: `cargo run --release --example task_scheduler`

use std::sync::Arc;
use std::time::Duration;

use wfqueue_executor::{Executor, ExecutorConfig};
use wfqueue_sync::atomic::{AtomicU64, Ordering};

/// A unit of work: pretend to render a tile by hashing its coordinates.
#[derive(Debug, Clone, Copy)]
struct Tile {
    job: u32,
    index: u32,
}

fn render(tile: Tile) -> u64 {
    // A few rounds of integer mixing to simulate real work.
    let mut x = (u64::from(tile.job) << 32) | u64::from(tile.index);
    for _ in 0..32 {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0xDEAD_BEEF;
    }
    x
}

fn main() {
    let producers = 2usize;
    let workers = 4usize;
    let jobs_per_producer = 40u32;
    let tiles_per_job = 256u32;

    let pool = Arc::new(Executor::new(ExecutorConfig {
        workers,
        // Small rings keep the fork bursts spilling onto the steal and
        // overflow paths — the interesting part of the schedule.
        local_queue_capacity: 128,
        max_spawners: producers,
    }));

    // XOR-folded checksum: order-independent, so any interleaving of the
    // stolen tiles must reproduce the same value.
    let rendered = Arc::new(AtomicU64::new(0));
    let checksum = Arc::new(AtomicU64::new(0));

    // Producers: one per-producer spawner each, submitting job tasks.
    // Each job task forks its tiles from *inside* the pool (local ring →
    // steal path) and returns without blocking — a worker must never
    // wait on work that only other workers can run.
    let job_handles: Vec<_> = wfqueue_sync::thread::scope(|s| {
        let joins: Vec<_> = (0..producers)
            .map(|p| {
                let mut spawner = pool.try_spawner().expect("sized for the producers");
                let (pool, rendered, checksum) = (
                    Arc::clone(&pool),
                    Arc::clone(&rendered),
                    Arc::clone(&checksum),
                );
                s.spawn(move || {
                    (0..jobs_per_producer)
                        .map(|job| {
                            let job = (p as u32) * jobs_per_producer + job;
                            let pool = Arc::clone(&pool);
                            let (rendered, checksum) =
                                (Arc::clone(&rendered), Arc::clone(&checksum));
                            spawner
                                .spawn(move || {
                                    for index in 0..tiles_per_job {
                                        let (rendered, checksum) =
                                            (Arc::clone(&rendered), Arc::clone(&checksum));
                                        // Detached: the shutdown drain, not a
                                        // blocking join, certifies completion.
                                        drop(
                                            pool.spawn(move || {
                                                let h = render(Tile { job, index });
                                                checksum.fetch_xor(h, Ordering::Relaxed);
                                                rendered.fetch_add(1, Ordering::Relaxed);
                                            })
                                            .expect("pool is open while jobs fork"),
                                        );
                                    }
                                })
                                .expect("pool is open while producers run")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        joins
            .into_iter()
            .flat_map(|j| j.join().expect("producer thread"))
            .collect()
    });

    // A deadline task on the hashed timer wheel: snapshot the counters
    // mid-flight (while tiles are still being stolen and drained).
    let (snapshot, _key) = pool
        .spawn_after(Duration::from_millis(2), {
            let pool = Arc::clone(&pool);
            move || pool.stats()
        })
        .expect("pool is open");

    // Join the fork roots, then let shutdown drain the forked tiles.
    for h in job_handles {
        h.join().expect("job task ran");
    }
    let mid = snapshot.join().expect("timer fired");
    let stats = pool.shutdown();

    let total = u64::from(jobs_per_producer) * u64::from(tiles_per_job) * producers as u64;
    assert_eq!(rendered.load(Ordering::Relaxed), total, "every tile ran");
    assert_eq!(stats.spawned, stats.completed, "drain certificate");
    assert_eq!(
        stats.from_local + stats.from_injection + stats.from_steal,
        stats.completed,
        "completions partition by source"
    );

    println!(
        "rendered {total} tiles across {workers} workers (checksum {:#018x})",
        checksum.load(Ordering::Relaxed)
    );
    println!(
        "mid-flight (t = 2 ms): {} of {} tasks completed",
        mid.completed, stats.completed
    );
    println!(
        "schedule: {} from local rings, {} from the injection queue, {} stolen \
         ({} half-batches), {} parks",
        stats.from_local, stats.from_injection, stats.from_steal, stats.steal_batches, stats.parks
    );
    println!(
        "shutdown certified the drain: spawned == completed == {} — no tile \
         was lost to the seal",
        stats.completed
    );
}
