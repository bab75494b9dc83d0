//! Experiment E13-channel — what the channel facade costs over the raw
//! handles.
//!
//! Two questions, two series:
//!
//! 1. **Try-path overhead** (p = 4 harness threads, mixed 60/40 closed
//!    loop): the channel's `try_send`/`try_recv` add a documented constant
//!    of shared loads per operation and **zero CAS** — so throughput,
//!    steps/op and CAS/op must sit within noise of the raw handles. The
//!    raw baseline queue is built with the same number of process ids as
//!    the channel's backend (2 per harness thread: one sender + one
//!    receiver endpoint), so both sides run an identical tree height and
//!    the comparison isolates the facade itself. The blocking mode runs
//!    the same workload for context (its dequeues park up to 500 µs on
//!    empty instead of returning).
//!
//!    The binary **asserts** the acceptance criterion: try-mode steps/op
//!    within +4.0 and CAS/op within ±1.0 of raw (the exact per-op
//!    constants are pinned by `tests/channel.rs`; this run re-checks them
//!    under real contention where schedules differ).
//!
//! 2. **Blocking wakeup latency** (1 sender, 1 parked receiver): the time
//!    from `send` entry to the parked `recv` returning the value, sampled
//!    with a paced producer so the receiver actually parks between
//!    values; reported as percentiles. This is the cost of *waiting for
//!    data* — deliberately outside the wait-free guarantee (see
//!    `DESIGN.md`, "Channel facade") — and the number a latency budget
//!    needs.
//!
//! `--json` prints a machine-readable summary (used by
//! `scripts/bench.sh e13_channel` to record `BENCH_e13.json`).

use std::time::{Duration, Instant};

use wfqueue::unbounded;
use wfqueue_bench::exp::percentile;
use wfqueue_channel::{Channel, Endpoints, ReclaimPolicy};
use wfqueue_harness::channel_api::{ChannelMode, WfChannel};
use wfqueue_harness::table::{f1, f2, Table};
use wfqueue_harness::workload::{run_workload, RunReport, WorkloadSpec};

const THREADS: usize = 4;
const OPS_PER_THREAD: usize = 8_192;
/// Best-of-N wall-clock runs per point (step counts are near-deterministic
/// given the mix; wall clock is not).
const REPS: usize = 3;
const LATENCY_SAMPLES: usize = 2_000;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        threads: THREADS,
        ops_per_thread: OPS_PER_THREAD,
        // Enqueue-biased so dequeues mostly hit; one fixed seed for every
        // series so the op mixes are identical.
        enqueue_permille: 600,
        prefill: 0,
        seed: 0xE13,
    }
}

struct SeriesPoint {
    series: &'static str,
    report: RunReport,
}

fn best_of<Q: wfqueue_harness::ConcurrentQueue<u64>>(make: impl Fn() -> Q) -> RunReport {
    let mut best: Option<RunReport> = None;
    for _ in 0..REPS {
        let q = make();
        let report = run_workload(&q, &spec());
        assert!(report.audits_ok(), "audits failed");
        if best.is_none_or(|b| report.ops_per_sec() > b.ops_per_sec()) {
            best = Some(report);
        }
    }
    best.expect("REPS >= 1")
}

/// Wakeup-latency percentile summary, in microseconds.
struct Latency {
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
}

/// One paced sender, one parked receiver: each sample is the wall time
/// from just before `send` to the parked `recv` returning the value.
fn measure_wakeup_latency() -> Latency {
    let (mut tx, mut rx) = Channel::builder::<Instant>()
        .endpoints(Endpoints {
            senders: 1,
            receivers: 1,
        })
        .reclaim(ReclaimPolicy::EveryKRootBlocks(64))
        .build()
        .expect("valid channel configuration");
    let consumer = wfqueue_sync::thread::spawn(move || {
        let mut samples = Vec::with_capacity(LATENCY_SAMPLES);
        while samples.len() < LATENCY_SAMPLES {
            match rx.recv() {
                Ok(sent_at) => samples.push(sent_at.elapsed().as_nanos() as u64),
                Err(_) => break,
            }
        }
        samples
    });
    for _ in 0..LATENCY_SAMPLES {
        tx.send(Instant::now()).expect("consumer is alive");
        // Pace the producer so the consumer drains and parks again
        // between samples — each send then exercises a real wakeup.
        wfqueue_sync::thread::sleep(Duration::from_micros(200));
    }
    drop(tx);
    let mut samples = consumer.join().expect("consumer thread");
    assert_eq!(samples.len(), LATENCY_SAMPLES);
    samples.sort_unstable();
    let us = |permille| percentile(&samples, permille) as f64 / 1e3;
    Latency {
        p50: us(500),
        p90: us(900),
        p99: us(990),
        max: us(1_000),
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    // Raw baseline with 2 pids per thread, so the ordering tree has the
    // same height as the channel backend's (one sender + one receiver
    // endpoint per harness handle).
    let mut series = vec![
        SeriesPoint {
            series: "raw-handles",
            report: best_of(|| unbounded::Queue::new(2 * THREADS)),
        },
        SeriesPoint {
            series: "channel-try",
            report: best_of(|| WfChannel::unbounded(THREADS, ChannelMode::Try)),
        },
        SeriesPoint {
            series: "channel-blocking",
            report: best_of(|| WfChannel::unbounded(THREADS, ChannelMode::Blocking)),
        },
    ];

    // Acceptance: the try path within noise of raw. Step/CAS counts are
    // schedule-dependent only through helping/propagation variance, so
    // the tolerances are tight.
    let raw = series[0].report;
    let tryp = series[1].report;
    assert!(
        tryp.steps_avg() <= raw.steps_avg() + 4.0,
        "channel try path added more than its documented constant: raw {:.2} steps/op, \
         channel {:.2}",
        raw.steps_avg(),
        tryp.steps_avg()
    );
    assert!(
        (tryp.cas_avg() - raw.cas_avg()).abs() <= 1.0,
        "channel try path CAS/op drifted: raw {:.3}, channel {:.3}",
        raw.cas_avg(),
        tryp.cas_avg()
    );

    let latency = measure_wakeup_latency();

    if json {
        // Hand-rolled JSON (no serde in the offline workspace).
        let mut rows = String::new();
        for (i, p) in series.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            rows.push_str(&format!(
                "    {{\"series\": \"{}\", \"ops_per_sec\": {:.0}, \"steps_per_op\": {:.2}, \
                 \"cas_per_op\": {:.3}}}",
                p.series,
                p.report.ops_per_sec(),
                p.report.steps_avg(),
                p.report.cas_avg(),
            ));
        }
        println!(
            "{{\n  \"experiment\": \"e13_channel\",\n  \"threads\": {THREADS},\n  \
             \"series\": [\n{rows}\n  ],\n  \"wakeup_latency_us\": {{\"p50\": {:.1}, \
             \"p90\": {:.1}, \"p99\": {:.1}, \"max\": {:.1}}}\n}}",
            latency.p50, latency.p90, latency.p99, latency.max
        );
        return;
    }

    let mut table = Table::new(
        &format!("E13-channel: facade overhead vs raw handles (p = {THREADS}, 60/40 mix)"),
        &["series", "ops/s", "steps/op", "cas/op", "vs raw"],
    );
    let base = raw.ops_per_sec();
    for p in &mut series {
        table.row_owned(vec![
            p.series.to_string(),
            format!("{:.0}", p.report.ops_per_sec()),
            f1(p.report.steps_avg()),
            f2(p.report.cas_avg()),
            format!("{:.2}x", p.report.ops_per_sec() / base),
        ]);
    }
    println!("{table}");

    let mut lat = Table::new(
        "E13-channel: blocking wakeup latency (1 sender -> 1 parked receiver)",
        &["p50 us", "p90 us", "p99 us", "max us"],
    );
    lat.row_owned(vec![
        f1(latency.p50),
        f1(latency.p90),
        f1(latency.p99),
        f1(latency.max),
    ]);
    println!("{lat}");
    println!(
        "expected shape: the try series sits within noise of raw (its per-op overhead\n\
         is two shared loads, zero CAS — exact constants pinned by tests/channel.rs);\n\
         the blocking series pays park/unpark only when it runs dry; wakeup latency\n\
         is scheduler-bound (condvar), not queue-bound.\n"
    );
}
