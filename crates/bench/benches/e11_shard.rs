//! Experiment E11-shard — the sharded frontend multiplies root bandwidth.
//!
//! The ordering tree's single contention point is the root CAS; the
//! `wfqueue_shard` frontend fans operations out over `S` independent
//! shards. Under `PerProducer` routing each shard's tree is additionally
//! sized to the handles pinned to it (`⌈p/S⌉` instead of `p`), so the
//! per-operation propagation shrinks from `O(log p)` to `O(log(p/S))`
//! levels — a step-count win that shows up even on a single core, on top
//! of the root-CAS spreading that shows up under real parallelism.
//!
//! The experiment sweeps `S ∈ {1, 2, 4, 8}` at `p = 8` threads in a mixed
//! enqueue+dequeue closed loop (`run_workload`, which also audits
//! per-producer FIFO and no-duplication on the composite) and reports
//! wall-clock throughput plus exact steps/CAS per operation:
//!
//! * `PerProducer` routing on both wait-free variants — the headline
//!   series; the binary **asserts** throughput strictly increases from
//!   `S = 1` through `S = 4` on both (the acceptance criterion);
//! * `Nearest` routing on the unbounded variant: full-coverage dequeues
//!   through a hint-guided nearest-first scan with no shared RMW per
//!   sweep; shards stay `p`-capacity, so the win is contention spreading
//!   only. The binary **asserts** its `S = 8` point holds at least 95% of
//!   its `S = 4` throughput (E11b).
//!
//! `--json` prints a machine-readable summary (used by
//! `scripts/bench.sh e11_shard` to record `BENCH_e11.json`).

use wfqueue_harness::queue_api::{ConcurrentQueue, Routing};
use wfqueue_harness::table::{f1, f2, Table};
use wfqueue_harness::workload::{run_workload, RunReport, WorkloadSpec};
use wfqueue_shard::{ShardedQueue, ShardedUnbounded};

const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];
const THREADS: usize = 8;
/// Fixed per-shard GC period for the bounded series, so the sweep varies
/// only the shard count (the paper-default period depends on the shard's
/// capacity, which the sweep changes).
const BOUNDED_GC_PERIOD: usize = 64;
/// Best-of-N wall-clock runs per point (step counts are deterministic
/// given the schedule; wall clock is not).
const REPS: usize = 3;

fn spec(ops_per_thread: usize) -> WorkloadSpec {
    WorkloadSpec {
        threads: THREADS,
        ops_per_thread,
        // Enqueue-biased 60/40 mix: the queue grows, so dequeues mostly
        // return values and the run exercises both op classes throughout.
        enqueue_permille: 600,
        prefill: 0,
        // One fixed seed for every point of the sweep: all shard counts
        // run the identical op mix, so the strict-increase assertion below
        // compares sharding alone, not mix variation.
        seed: 0xE11,
    }
}

struct SeriesPoint {
    queue: &'static str,
    routing: &'static str,
    shards: usize,
    report: RunReport,
}

fn sweep<Q: ConcurrentQueue<u64>, F: Fn(usize) -> Q>(
    make: F,
    queue: &'static str,
    routing: &'static str,
    ops_per_thread: usize,
    out: &mut Vec<SeriesPoint>,
) {
    for &shards in SHARD_COUNTS {
        let mut best: Option<RunReport> = None;
        for _ in 0..REPS {
            let q = make(shards);
            let report = run_workload(&q, &spec(ops_per_thread));
            assert!(
                report.audits_ok(),
                "{queue}/{routing} S={shards}: audits failed"
            );
            if best.is_none_or(|b| report.ops_per_sec() > b.ops_per_sec()) {
                best = Some(report);
            }
        }
        out.push(SeriesPoint {
            queue,
            routing,
            shards,
            report: best.expect("REPS >= 1"),
        });
    }
}

fn ops_per_sec_at(series: &[SeriesPoint], queue: &str, routing: &str, shards: usize) -> f64 {
    series
        .iter()
        .find(|p| p.queue == queue && p.routing == routing && p.shards == shards)
        .expect("swept point present")
        .report
        .ops_per_sec()
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    let mut series: Vec<SeriesPoint> = Vec::new();
    sweep(
        |s| ShardedUnbounded::new(s, THREADS, Routing::PerProducer),
        "wf-sharded-unbounded",
        "per-producer",
        8_192,
        &mut series,
    );
    sweep(
        |s| {
            ShardedQueue::build(s, THREADS, Routing::PerProducer, |cap| {
                wfqueue::bounded::Queue::<u64>::with_gc_period(cap, BOUNDED_GC_PERIOD)
            })
        },
        "wf-sharded-bounded",
        "per-producer",
        1_536,
        &mut series,
    );
    sweep(
        |s| ShardedUnbounded::new(s, THREADS, Routing::Nearest),
        "wf-sharded-unbounded",
        "nearest",
        8_192,
        &mut series,
    );

    // Acceptance: enqueue+dequeue throughput strictly increasing from
    // S = 1 to S = 4 on both variants under per-producer routing.
    for queue in ["wf-sharded-unbounded", "wf-sharded-bounded"] {
        let t1 = ops_per_sec_at(&series, queue, "per-producer", 1);
        let t2 = ops_per_sec_at(&series, queue, "per-producer", 2);
        let t4 = ops_per_sec_at(&series, queue, "per-producer", 4);
        assert!(
            t1 < t2 && t2 < t4,
            "{queue}: throughput not strictly increasing S=1..4: {t1:.0} / {t2:.0} / {t4:.0}"
        );
    }

    // Acceptance (E11b): the nearest scan must not degrade from S = 4 to
    // S = 8 — S = 8 holds ≥ 95% of S = 4 throughput (the slack absorbs
    // wall-clock noise).
    {
        let t4 = ops_per_sec_at(&series, "wf-sharded-unbounded", "nearest", 4);
        let t8 = ops_per_sec_at(&series, "wf-sharded-unbounded", "nearest", 8);
        assert!(
            t8 >= 0.95 * t4,
            "nearest scan degraded S=4 -> S=8: {t4:.0} -> {t8:.0} ops/s"
        );
    }

    if json {
        // Hand-rolled JSON (no serde in the offline workspace).
        let mut rows = String::new();
        for (i, p) in series.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"queue\": \"{}\", \"routing\": \"{}\", \"shards\": {}, \
                 \"ops_per_sec\": {:.0}, \"steps_per_op\": {:.2}, \"cas_per_op\": {:.3}}}",
                p.queue,
                p.routing,
                p.shards,
                p.report.ops_per_sec(),
                p.report.steps_avg(),
                p.report.cas_avg(),
            ));
        }
        let cores = wfqueue_sync::thread::available_parallelism().map_or(1, usize::from);
        println!(
            "{{\n  \"experiment\": \"e11_shard\",\n  \"threads\": {THREADS},\n  \
             \"cores\": {cores},\n  \"bounded_gc_period\": {BOUNDED_GC_PERIOD},\n  \
             \"series\": [\n{rows}\n  ]\n}}"
        );
        return;
    }

    for (queue, routing) in [
        ("wf-sharded-unbounded", "per-producer"),
        ("wf-sharded-bounded", "per-producer"),
        ("wf-sharded-unbounded", "nearest"),
    ] {
        let mut table = Table::new(
            &format!("E11-shard: {queue} / {routing} vs shard count (p = {THREADS})"),
            &["S", "ops/s", "steps/op", "cas/op", "speedup vs S=1"],
        );
        let base = ops_per_sec_at(&series, queue, routing, 1);
        for p in series
            .iter()
            .filter(|p| p.queue == queue && p.routing == routing)
        {
            table.row_owned(vec![
                p.shards.to_string(),
                format!("{:.0}", p.report.ops_per_sec()),
                f1(p.report.steps_avg()),
                f2(p.report.cas_avg()),
                format!("{:.2}x", p.report.ops_per_sec() / base),
            ]);
        }
        println!("{table}");
    }
    println!(
        "expected shape: under per-producer routing each shard's tree serves p/S\n\
         pinned handles, so steps/op and cas/op fall with S (shallower propagation)\n\
         and throughput rises; nearest keeps p-capacity shards (scanning\n\
         dequeuers), so its win is root-CAS spreading under real parallelism.\n\
         Its hint-guided nearest-first scan takes no global RMW per sweep and\n\
         skips empty shards while hints are warm, so S=8 must hold >= 95% of\n\
         S=4 (asserted).\n"
    );
}
