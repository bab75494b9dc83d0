//! Experiment E12-memory — epoch-based tree truncation makes the unbounded
//! queue memory-stable.
//!
//! The paper's §3 queue retains one block per operation per tree level
//! forever; §6 bounds space with a stop-the-world-free GC built on
//! persistent block stores. This experiment measures the third point in
//! that design space: the unbounded queue with
//! `ReclaimPolicy::EveryKRootBlocks` (PR 4), which truncates dead
//! root-prefixes (and the subtrees that fed them) under a sustained
//! enqueue+dequeue churn with the queue's contents held at a small resident
//! set.
//!
//! Four series run the identical churn (4 threads × 2 ops per round,
//! ≥ 100k ops total, quiescent checkpoints every ~12.8k ops):
//!
//! * `wf-unbounded / off` — the paper's queue: live blocks grow linearly;
//! * `wf-unbounded / every-64` — truncating: live blocks plateau;
//! * `wf-sharded-unbounded S=2 / every-64` — reclamation composes with the
//!   PR 3 sharded frontend (each shard truncates independently);
//! * `wf-bounded` — the paper's §6 construction as the flat reference.
//!
//! The binary **asserts** the acceptance criteria: the `off` series keeps
//! growing checkpoint over checkpoint, the reclaiming series' live-block
//! count plateaus (bounded by a constant ceiling after warmup) and ends an
//! order of magnitude below `off`, and their live bytes plateau too. Live
//! bytes (block headers, element payloads, and the `SegVec` slot
//! storage — chunks and pages still linked plus the page table) are the
//! RSS proxy. The byte ceiling at each checkpoint is 1.25× the first
//! checkpoint, with no allowance per logical block: only the page table
//! grows with history, by 8 B per 4096 slots, while slot storage that
//! truncation never gave back would cost at least 8 B per logical block.
//! Each truncating sample first forces one truncation pass
//! (`try_reclaim`, per shard for the sharded series) at the quiescent
//! barrier, so a checkpoint measures what is live rather than how many
//! root blocks have piled up since the every-64 trigger last fired.
//!
//! `--json` prints a machine-readable summary (used by
//! `scripts/bench_e12.sh` to record `BENCH_e12.json`).

use std::sync::Barrier;

use wfqueue::bounded;
use wfqueue::bounded::introspect as bintro;
use wfqueue::unbounded;
use wfqueue::unbounded::introspect as uintro;
use wfqueue::unbounded::ReclaimPolicy;
use wfqueue_harness::table::Table;
use wfqueue_shard::{Routing, ShardedQueue, ShardedUnbounded};

const THREADS: usize = 4;
const CHECKPOINTS: usize = 8;
const ROUNDS_PER_CHECKPOINT: u64 = 1_600;
/// Values resident in the queue while churning (enqueued up front by
/// thread 0, outside the measured churn).
const RESIDENT: u64 = 32;
/// Reclamation period for the truncating series.
const PERIOD: usize = 64;

/// Total operations each series performs (the ISSUE's ≥100k-op churn).
const TOTAL_OPS: u64 = CHECKPOINTS as u64 * ROUNDS_PER_CHECKPOINT * THREADS as u64 * 2;

#[derive(Clone, Copy)]
struct Checkpoint {
    ops: u64,
    live_blocks: usize,
    live_bytes: usize,
    /// Blocks ever retained ([`uintro::BlockCounts::logical`]); 0 for the
    /// bounded series, which has no such counter.
    logical_blocks: usize,
}

struct Series {
    queue: &'static str,
    policy: &'static str,
    checkpoints: Vec<Checkpoint>,
}

/// Runs the shared churn profile over generic per-thread handles, sampling
/// at quiescent barriers. `sample` runs on thread 0 while every worker
/// waits, so each checkpoint sees a quiescent structure.
fn churn<H: Send>(
    handles: Vec<H>,
    mut step: impl FnMut(&mut H, u64) + Send + Copy,
    sample: impl Fn() -> (usize, usize, usize) + Sync,
) -> Vec<Checkpoint> {
    assert_eq!(handles.len(), THREADS);
    let barrier = Barrier::new(THREADS);
    let mut checkpoints = Vec::with_capacity(CHECKPOINTS);
    wfqueue_sync::thread::scope(|s| {
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(t, mut h)| {
                let barrier = &barrier;
                let sample = &sample;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    for c in 0..CHECKPOINTS as u64 {
                        for i in 0..ROUNDS_PER_CHECKPOINT {
                            step(
                                &mut h,
                                (c * ROUNDS_PER_CHECKPOINT + i) * THREADS as u64 + t as u64,
                            );
                        }
                        barrier.wait();
                        if t == 0 {
                            let (live_blocks, live_bytes, logical_blocks) = sample();
                            samples.push(Checkpoint {
                                ops: (c + 1) * ROUNDS_PER_CHECKPOINT * THREADS as u64 * 2,
                                live_blocks,
                                live_bytes,
                                logical_blocks,
                            });
                        }
                        barrier.wait();
                    }
                    samples
                })
            })
            .collect();
        for j in joins {
            let samples = j.join().expect("churn thread panicked");
            if !samples.is_empty() {
                checkpoints = samples;
            }
        }
    });
    checkpoints
}

fn unbounded_series(policy: ReclaimPolicy, label: &'static str) -> Series {
    let q: unbounded::Queue<u64> = match policy {
        ReclaimPolicy::Off => unbounded::Queue::new(THREADS),
        p => unbounded::Queue::with_reclaim(THREADS, p),
    };
    let mut handles = q.handles();
    for i in 0..RESIDENT {
        handles[0].enqueue(i);
    }
    let checkpoints = churn(
        handles,
        |h, i| {
            h.enqueue(i);
            let _ = h.dequeue();
        },
        || {
            q.try_reclaim();
            let counts = uintro::block_counts(&q);
            (counts.live, uintro::live_block_bytes(&q), counts.logical)
        },
    );
    uintro::check_invariants(&q).expect("quiescent invariants");
    Series {
        queue: "wf-unbounded",
        policy: label,
        checkpoints,
    }
}

fn sharded_series() -> Series {
    let q: ShardedUnbounded<u64> = ShardedQueue::build(2, THREADS, Routing::PerProducer, |cap| {
        unbounded::Queue::with_reclaim(cap, ReclaimPolicy::EveryKRootBlocks(PERIOD))
    });
    let mut handles = q.handles();
    for i in 0..RESIDENT {
        handles[0].enqueue(i);
    }
    let checkpoints = churn(
        handles,
        |h, i| {
            h.enqueue(i);
            let _ = h.dequeue();
        },
        || {
            for shard in q.shards() {
                shard.try_reclaim();
            }
            let counts = q.shards().iter().map(uintro::block_counts);
            (
                counts.clone().map(|c| c.live).sum(),
                q.shards().iter().map(uintro::live_block_bytes).sum(),
                counts.map(|c| c.logical).sum(),
            )
        },
    );
    for shard in q.shards() {
        uintro::check_invariants(shard).expect("quiescent shard invariants");
    }
    Series {
        queue: "wf-sharded-unbounded-s2",
        policy: "every-64",
        checkpoints,
    }
}

fn bounded_series() -> Series {
    let q: bounded::Queue<u64> = bounded::Queue::new(THREADS);
    let mut handles = q.handles();
    for i in 0..RESIDENT {
        handles[0].enqueue(i);
    }
    let checkpoints = churn(
        handles,
        |h, i| {
            h.enqueue(i);
            let _ = h.dequeue();
        },
        || (bintro::space_stats(&q).total_blocks, 0, 0),
    );
    bintro::check_invariants(&q).expect("quiescent invariants");
    Series {
        queue: "wf-bounded",
        policy: "paper-gc",
        checkpoints,
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    let off = unbounded_series(ReclaimPolicy::Off, "off");
    let reclaiming = unbounded_series(ReclaimPolicy::EveryKRootBlocks(PERIOD), "every-64");
    let sharded = sharded_series();
    let bounded = bounded_series();

    // Acceptance: the paper's queue grows at every checkpoint...
    for w in off.checkpoints.windows(2) {
        assert!(
            w[1].live_blocks > w[0].live_blocks + ROUNDS_PER_CHECKPOINT as usize,
            "off series stopped growing — measurement is broken"
        );
    }
    // ...while the truncating series plateau: after the first checkpoint the
    // live-block count stays under a constant ceiling, nowhere near the
    // linear trajectory.
    // The bytes they hold plateau as well: truncation gives back the slot
    // storage below each boundary, not only the blocks.
    for series in [&reclaiming, &sharded] {
        let ceiling = series.checkpoints[0].live_blocks.max(4_096);
        let first_bytes = series.checkpoints[0].live_bytes;
        for c in &series.checkpoints[1..] {
            assert!(
                c.live_blocks <= ceiling,
                "{}/{} must plateau: {} > {ceiling} at {} ops",
                series.queue,
                series.policy,
                c.live_blocks,
                c.ops
            );
            let byte_ceiling = first_bytes + first_bytes / 4;
            assert!(
                c.live_bytes <= byte_ceiling,
                "{}/{} bytes must plateau: {} B > {byte_ceiling} B at {} ops",
                series.queue,
                series.policy,
                c.live_bytes,
                c.ops
            );
        }
    }
    let off_end = off.checkpoints.last().unwrap().live_blocks;
    let reclaim_end = reclaiming.checkpoints.last().unwrap().live_blocks;
    assert!(
        off_end >= 10 * reclaim_end.max(1),
        "truncation must beat the paper queue by ≥10x after {TOTAL_OPS} ops: \
         off={off_end}, reclaiming={reclaim_end}"
    );

    let all = [&off, &reclaiming, &sharded, &bounded];
    if json {
        // Hand-rolled JSON (no serde in the offline workspace).
        let mut series_rows = String::new();
        for (i, s) in all.iter().enumerate() {
            if i > 0 {
                series_rows.push_str(",\n");
            }
            let mut points = String::new();
            for (j, c) in s.checkpoints.iter().enumerate() {
                if j > 0 {
                    points.push_str(", ");
                }
                points.push_str(&format!(
                    "{{\"ops\": {}, \"live_blocks\": {}, \"live_bytes\": {}, \"logical_blocks\": {}}}",
                    c.ops, c.live_blocks, c.live_bytes, c.logical_blocks
                ));
            }
            series_rows.push_str(&format!(
                "    {{\"queue\": \"{}\", \"policy\": \"{}\", \"checkpoints\": [{points}]}}",
                s.queue, s.policy
            ));
        }
        println!(
            "{{\n  \"experiment\": \"e12_memory\",\n  \"threads\": {THREADS},\n  \
             \"resident\": {RESIDENT},\n  \"total_ops\": {TOTAL_OPS},\n  \
             \"reclaim_period\": {PERIOD},\n  \"series\": [\n{series_rows}\n  ]\n}}"
        );
        return;
    }

    for s in all {
        let mut table = Table::new(
            &format!(
                "E12-memory: {} / {} (p = {THREADS}, resident ≈ {RESIDENT})",
                s.queue, s.policy
            ),
            &["ops", "live blocks", "live KiB"],
        );
        for c in &s.checkpoints {
            table.row_owned(vec![
                c.ops.to_string(),
                c.live_blocks.to_string(),
                (c.live_bytes / 1024).to_string(),
            ]);
        }
        println!("{table}");
    }
    println!(
        "expected shape: 'off' grows linearly with history (the paper's §3 cost);\n\
         the every-{PERIOD} series plateau at a level set by the resident set and\n\
         the reclamation period, composing with sharding; wf-bounded is the §6\n\
         reference. live KiB counts block headers + element payloads\n\
         + slot storage (RSS proxy; 0 where not measured).\n"
    );
}
