//! `wfbench`: one seeded benchmark over the wait-free queue stack, from
//! the paper's §3 and §6 queues up to a publish → execute request.
//!
//! Four workloads ([`Workload`]) drive the layers only through their
//! public APIs (`wfqueue_channel`, `wfqueue_broker`, `wfqueue_executor`)
//! and public counters (`wfqueue_metrics::snapshot`, `memory_stats`,
//! `Broker::stats`, `Executor::stats`). [`run`] measures one workload and
//! checks its outputs; see `BENCHMARK.md` for the workloads, the metrics
//! and how to read a trace.

mod forkjoin;
mod gen;
mod mix;
mod service;
mod stats;
mod trace;

use std::time::Duration;

use wfqueue_channel::Backend;

use crate::stats::{median, Summary, Windowed};
use crate::trace::{Clock, Layer};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Length of the binary's measured window, in seconds: the `run_seconds`
/// of `BENCHMARK.json`. Four workloads of one warm-up second and this
/// window each make a pass of about 70 s.
pub const RUN_SECONDS: u64 = 15;
/// How long after the window an open-loop generator may go on issuing
/// its backlog. Operations still unissued then are never issued: they are
/// neither attempted nor failed, and the report says how many there were.
/// Lateness is latency, not failure: how far a generator falls behind
/// depends on the host as much as on the system under test.
pub(crate) const GRACE_NS: u64 = 2_000_000_000;
/// An open-loop operation issued more than this after it was due counts
/// as late (`gen.late_ratio`).
pub(crate) const LATE_NS: u64 = 10_000;
/// The measured window is cut into windows this long; the end-to-end
/// metrics are medians over them, which keeps a few seconds of
/// interference from other tenants of the machine out of the result.
pub(crate) const WINDOW_NS: u64 = 1_000_000_000;
/// A generator behind its schedule catches up at this many times its mean
/// rate.
const CATCH_UP: f64 = 1.25;
/// How far ahead of its catch-up pace a generator may issue. The bursts
/// of both open-loop schedules pass unchanged (checked over 300 seeds of
/// 2M arrivals each); only a backlog is paced.
const CATCH_UP_SLACK_NS: u64 = 20_000_000;

/// Paces an open-loop generator that has fallen behind its schedule.
///
/// Issuing a backlog back to back would turn the open loop into a closed
/// one, and the default channel's closed loop can collapse to a few
/// thousand operations per second for seconds (see BENCHMARK.md). So past
/// [`CATCH_UP_SLACK_NS`] of backlog a generator issues at [`CATCH_UP`]
/// times its mean rate. Operations stay timed from when they were due.
/// This is a token bucket in its virtual-time form.
#[derive(Debug, Clone)]
pub(crate) struct CatchUp {
    gap_ns: u64,
    /// Issue time at the catch-up pace of the next operation.
    next_ns: u64,
}

impl CatchUp {
    /// The pace for a generator of `rate` operations per second.
    pub(crate) fn new(rate: f64) -> CatchUp {
        CatchUp {
            gap_ns: (1e9 / (CATCH_UP * rate)) as u64,
            next_ns: 0,
        }
    }

    /// The earliest time the operation due at `due` may be issued.
    pub(crate) fn earliest(&self, due: u64) -> u64 {
        due.max(self.next_ns.saturating_sub(CATCH_UP_SLACK_NS))
    }

    /// Records that an operation was issued at `now`.
    pub(crate) fn issued(&mut self, now: u64) {
        self.next_ns = self.next_ns.max(now) + self.gap_ns;
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The §3 queue (default channel, epoch truncation on), two clients,
    /// open loop at 50k ops/s each.
    UnboundedOpen,
    /// The §6 bounded-space queue at capacity 4096, two clients, closed
    /// loop.
    BoundedClosed,
    /// Fork-join trees on a 2-worker executor, closed loop.
    ForkjoinClosed,
    /// Publish → broker → executor → completion, open loop at 30k msg/s.
    ServiceOpen,
}

impl Workload {
    /// Every workload, in the benchmark's order.
    pub const ALL: [Workload; 4] = [
        Workload::UnboundedOpen,
        Workload::BoundedClosed,
        Workload::ForkjoinClosed,
        Workload::ServiceOpen,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::UnboundedOpen => "unbounded-open",
            Workload::BoundedClosed => "bounded-closed",
            Workload::ForkjoinClosed => "forkjoin-closed",
            Workload::ServiceOpen => "service-open",
        }
    }

    /// The workload named `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn open_loop(self) -> bool {
        matches!(self, Workload::UnboundedOpen | Workload::ServiceOpen)
    }

    /// What one unit of work is, for `ops_per_s`.
    fn unit(self) -> &'static str {
        match self {
            Workload::UnboundedOpen | Workload::BoundedClosed => "queue ops",
            Workload::ForkjoinClosed => "tasks",
            Workload::ServiceOpen => "requests",
        }
    }

    /// What `p50_us` and `p99_us` time.
    fn latency(self) -> &'static str {
        match self {
            Workload::UnboundedOpen => "queue op from when it was due",
            Workload::BoundedClosed => "queue op from its call",
            Workload::ForkjoinClosed => "tree from its root's spawn to its last task",
            Workload::ServiceOpen => "request from when it was due to its task's end",
        }
    }
}

/// How to run a workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window (split between the untraced and the
    /// traced pass when `trace` is set).
    pub window: Duration,
    /// Untimed warm-up before the window.
    pub warmup: Duration,
    /// Set-ups timed for `setup_s`; the run uses the last one.
    pub setups: usize,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Tasks per fork-join tree.
    pub tree_tasks: u64,
}

impl Options {
    /// The benchmark's settings for `seed` and a `window`.
    #[must_use]
    pub fn new(seed: u64, window: Duration) -> Options {
        Options {
            seed,
            window,
            warmup: Duration::from_secs(1),
            // The first few set-ups of a process run cold, several times
            // slower than the rest; with 101 their share cannot move the
            // median.
            setups: 101,
            trace: false,
            tree_tasks: 2_000_000,
        }
    }
}

/// Lengths of one pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseLen {
    pub warmup_ns: u64,
    pub window_ns: u64,
    pub setups: usize,
}

impl PhaseLen {
    /// The phase of a pass whose clock reads `now`.
    fn starting(&self, now: u64) -> Phase {
        // A little slack so every load thread is up before the start.
        let start = now + 2_000_000;
        Phase {
            start,
            warm_end: start + self.warmup_ns,
            end: start + self.warmup_ns + self.window_ns,
        }
    }
}

/// A pass's schedule on its clock: warm-up from `start` to `warm_end`,
/// then the measured window until `end`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Phase {
    pub start: u64,
    pub warm_end: u64,
    pub end: u64,
}

impl Phase {
    fn in_window(&self, t: u64) -> bool {
        (self.warm_end..self.end).contains(&t)
    }

    /// The window of the measured window that `t` falls in.
    fn window_of(&self, t: u64) -> usize {
        (t.saturating_sub(self.warm_end) / WINDOW_NS) as usize
    }

    /// Windows in the measured window.
    fn windows(&self) -> usize {
        (self.end - self.warm_end).div_ceil(WINDOW_NS) as usize
    }

    /// Per-second rates from per-window counts (the last window may be
    /// short).
    fn rates(&self, counts: &[u64]) -> Vec<f64> {
        (0u64..)
            .zip(counts)
            .map(|(i, &c)| {
                let start = self.warm_end + i * WINDOW_NS;
                let len = (start + WINDOW_NS).min(self.end).saturating_sub(start);
                ratio(c as f64 * 1e9, len as f64)
            })
            .collect()
    }
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    /// Each set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// Units of work completed in the window.
    pub units: u64,
    /// Units completed per second in each window.
    pub rates: Vec<f64>,
    /// Per-unit latency in the window, ns.
    pub latency: Windowed,
    /// Heap the system under test held over the window, MB (mean of the
    /// readings of [`sample_heap`]).
    pub heap_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed audits; empty when the outputs are correct.
    pub audit: Vec<String>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
    /// Traced passes only.
    pub layer: Option<Layer>,
}

fn pass(workload: Workload, opts: &Options, len: PhaseLen, traced: bool) -> Pass {
    let seed = opts.seed;
    match workload {
        Workload::UnboundedOpen => mix::run(
            Backend::Unbounded,
            mix::Pacing::Open { rate: 50_000.0 },
            seed,
            &len,
            traced,
        ),
        Workload::BoundedClosed => mix::run(
            Backend::BoundedTree { capacity: 4096 },
            mix::Pacing::Closed,
            seed,
            &len,
            traced,
        ),
        Workload::ForkjoinClosed => forkjoin::run(seed, opts.tree_tasks, &len, traced),
        Workload::ServiceOpen => service::run(seed, &len, traced),
    }
}

/// One metric of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of [`run`].
#[derive(Debug)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations the system under test rejected or never ran.
    pub failed: u64,
    /// Failed correctness audits; empty when the outputs are correct.
    pub audit_failures: Vec<String>,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Traced runs: the trace file's contents (JSON lines).
    pub trace: Option<String>,
}

impl Report {
    /// Whether every audit passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.audit_failures.is_empty()
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn absorb(&mut self, label: &str, p: &mut Pass) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        let prefix = if label.is_empty() {
            String::new()
        } else {
            format!("{label}: ")
        };
        self.audit_failures
            .extend(p.audit.drain(..).map(|a| format!("{prefix}{a}")));
        self.lines
            .extend(p.notes.drain(..).map(|n| format!("{prefix}{n}")));
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.show(name, value, unit, &note);
        self.metrics.push(Metric { name, value, unit });
    }

    /// A report line for a figure that is not one of the run's metrics.
    fn show(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        let shown = if note.is_empty() {
            String::new()
        } else {
            format!("  ({note})")
        };
        self.lines
            .push(format!("{name:<34} {value:>14.4} {unit}{shown}"));
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    _arena: usize,
    _ordblks: usize,
    _smblks: usize,
    _hblks: usize,
    hblkhd: usize,
    _usmblks: usize,
    _fsmblks: usize,
    uordblks: usize,
    _fordblks: usize,
    _keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Heap in use, in MB: what the allocator has handed out and not yet had
/// back (`uordblks + hblkhd`). Unlike the resident set, this leaves out
/// freed memory that the allocator keeps in its per-thread arenas. That
/// amount depends on which thread frees what, and so varies from run to
/// run.
pub(crate) fn heap_in_use_mb() -> f64 {
    // SAFETY: `mallinfo2` (glibc 2.33 and later) takes no arguments and
    // returns the struct declared above by value; it only reads the
    // allocator's bookkeeping.
    let m = unsafe { mallinfo2() };
    (m.uordblks + m.hblkhd) as f64 / f64::from(1 << 20)
}

/// Interval between the heap readings behind `heap_mb`.
const HEAP_SAMPLE_NS: u64 = 100_000_000;

/// Starts a thread that reads the heap in use every [`HEAP_SAMPLE_NS`]
/// over `phase`'s measured window; joining it gives the mean reading, in
/// MB. A mean over the window, not one reading at its end, because the
/// §6 queue's heap swings by megabytes between its GC phases.
///
/// A workload subtracts the heap in use once it has dropped the system
/// under test. Its own records must be allocated before the window
/// starts, so that only the system under test accounts for the
/// difference.
pub(crate) fn sample_heap(clock: Clock, phase: Phase) -> std::thread::JoinHandle<f64> {
    std::thread::spawn(move || {
        let (mut sum, mut n) = (0.0, 0u32);
        let mut t = phase.warm_end;
        while t < phase.end {
            clock.sleep_until(t);
            sum += heap_in_use_mb();
            n += 1;
            t += HEAP_SAMPLE_NS;
        }
        sum / f64::from(n.max(1))
    })
}

/// The peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The cost of one unit on the workload's headline measure: p50 latency
/// for an open loop, time per unit for a closed one.
fn unit_cost(workload: Workload, p: &mut Pass) -> f64 {
    if workload.open_loop() {
        p.latency.summary().p50
    } else {
        ratio(1.0, median(&mut p.rates))
    }
}

/// Runs `workload` and checks its outputs.
#[must_use]
pub fn run(workload: Workload, opts: &Options) -> Report {
    let mut report = Report {
        workload,
        attempted: 0,
        failed: 0,
        audit_failures: Vec::new(),
        metrics: Vec::new(),
        lines: vec![format!(
            "wfbench {} seed={} window={:?} trace={} nproc={}",
            workload.name(),
            opts.seed,
            opts.window,
            u8::from(opts.trace),
            std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
        )],
        trace: None,
    };
    let warmup_ns = opts.warmup.as_nanos() as u64;
    if opts.trace {
        let len = PhaseLen {
            warmup_ns,
            window_ns: opts.window.as_nanos() as u64 / 2,
            setups: 1,
        };
        let mut base = pass(workload, opts, len, false);
        let rss_mb = peak_rss_mb();
        let mut traced = pass(workload, opts, len, true);
        let lat = base.latency.summary();
        let figures = untraced_figures(workload, &mut base, &lat, rss_mb);
        let overhead = ratio(
            unit_cost(workload, &mut traced),
            unit_cost(workload, &mut base),
        ) - 1.0;
        report.absorb("untraced pass", &mut base);
        report.absorb("traced pass", &mut traced);
        for (name, value, unit, note) in figures {
            report.metric(name, value, unit, format!("untraced pass: {note}"));
        }
        let layer = traced.layer.take().expect("a traced pass fills its layer");
        per_layer(&mut report, &layer, overhead);
        let values: Vec<(&str, f64)> = report.metrics.iter().map(|m| (m.name, m.value)).collect();
        report.trace = Some(layer.trace_file(&values));
    } else {
        let len = PhaseLen {
            warmup_ns,
            window_ns: opts.window.as_nanos() as u64,
            setups: opts.setups.max(1),
        };
        let mut p = pass(workload, opts, len, false);
        report.absorb("", &mut p);
        end_to_end(&mut report, &mut p);
    }
    report
}

/// The untraced figures that are per-layer metrics rather than end-to-end
/// ones: on a host shared with other tenants they spread between runs by
/// more than a 10% bound allows (see BENCHMARK.md).
fn untraced_figures(
    w: Workload,
    p: &mut Pass,
    lat: &Summary,
    rss_mb: f64,
) -> [(&'static str, f64, &'static str, String); 4] {
    [
        (
            "ops_per_s",
            median(&mut p.rates),
            "1/s",
            format!(
                "{} per second, median of {} windows; {} in all",
                w.unit(),
                p.rates.len(),
                p.units
            ),
        ),
        (
            "p50_us",
            lat.p50 / 1e3,
            "us",
            format!(
                "{}, median of {} window medians; {} samples",
                w.latency(),
                lat.windows,
                lat.count
            ),
        ),
        (
            "p99_us",
            lat.p99 / 1e3,
            "us",
            format!("median of {} window p99s", lat.windows),
        ),
        ("rss_mb", rss_mb, "MB", "VmHWM".into()),
    ]
}

fn end_to_end(report: &mut Report, p: &mut Pass) {
    // Read before the summary below allocates its sorted copies.
    let rss = peak_rss_mb();
    let n_setups = p.setup_s.len();
    report.metric(
        "setup_s",
        median(&mut p.setup_s),
        "s",
        format!("median of {n_setups} set-ups"),
    );
    report.metric(
        "heap_mb",
        p.heap_mb,
        "MB",
        "heap the system under test held, mean over the window".into(),
    );
    report
        .lines
        .push("not gated (per-layer metrics, see BENCHMARK.md):".into());
    let lat = p.latency.summary();
    for (name, value, unit, note) in untraced_figures(report.workload, p, &lat, rss) {
        report.show(name, value, unit, &note);
    }
    if let Some((q, v)) = lat.tail {
        report.lines.push(format!(
            "tail: p{:.4} over all {} samples = {:.1} us (the highest percentile with 10 samples beyond it; not gated)",
            q * 100.0,
            lat.count,
            v / 1e3
        ));
    }
}

/// The traced pass's metrics.
fn per_layer(report: &mut Report, l: &Layer, overhead: f64) {
    let q = |name: &str, q: f64| l.series.get(name).map_or(0.0, |r| r.quantile(q));
    let c = |name: &str| l.get(name) as f64;
    let (mut all, mut calls) = (wfqueue_metrics::StepSnapshot::default(), 0u64);
    for (s, n) in l.steps.values() {
        all += *s;
        calls += n;
    }
    let calls = calls as f64;
    let per_call = |name: &str| {
        l.steps
            .get(name)
            .map_or(0.0, |(s, n)| ratio(s.memory_steps() as f64, *n as f64))
    };
    let done = c("executor.completed");
    let r = l.roles;
    let metrics: [(&'static str, f64, &'static str); 29] = [
        ("send.ns_p50", q(r.send, 0.5), "ns"),
        ("send.ns_p99", q(r.send, 0.99), "ns"),
        ("recv.ns_p50", q(r.recv, 0.5), "ns"),
        ("recv.ns_p99", q(r.recv, 0.99), "ns"),
        ("handoff.us_p50", q(r.handoff, 0.5) / 1e3, "us"),
        ("handoff.us_p99", q(r.handoff, 0.99) / 1e3, "us"),
        (
            "core.steps_per_op",
            ratio(all.memory_steps() as f64, calls),
            "steps/op",
        ),
        (
            "core.cas_per_op",
            ratio(all.cas_total() as f64, calls),
            "cas/op",
        ),
        (
            "core.cas_fail_ratio",
            ratio(all.cas_failure as f64, all.cas_total() as f64),
            "ratio",
        ),
        (
            "core.block_allocs_per_op",
            ratio(all.block_allocs as f64, calls),
            "blocks/op",
        ),
        (
            "core.tree_visits_per_op",
            ratio(all.tree_node_visits as f64, calls),
            "visits/op",
        ),
        (
            "core.gc_phases_per_kop",
            1e3 * ratio(all.gc_phases as f64, calls),
            "1/kop",
        ),
        (
            "core.helps_per_kop",
            1e3 * ratio(all.help_calls as f64, calls),
            "1/kop",
        ),
        ("core.live_blocks_end", c("core.live_blocks_end"), "blocks"),
        (
            "core.reclaimed_blocks",
            c("core.reclaimed_blocks"),
            "blocks",
        ),
        (
            "channel.try_recv.empty_ratio",
            ratio(c("channel.try_recv.empty"), c("channel.try_recv")),
            "ratio",
        ),
        (
            "channel.try_send.full_ratio",
            ratio(c("channel.try_send.full"), c("channel.try_send")),
            "ratio",
        ),
        (
            "executor.spawn.steps_per_call",
            per_call("executor.spawn"),
            "steps/call",
        ),
        (
            "executor.dispatch.steps_per_task",
            per_call("executor.dispatch"),
            "steps/task",
        ),
        (
            "executor.local_ratio",
            ratio(c("executor.from_local"), done),
            "ratio",
        ),
        (
            "executor.injection_ratio",
            ratio(c("executor.from_injection"), done),
            "ratio",
        ),
        (
            "executor.steal_ratio",
            ratio(c("executor.from_steal"), done),
            "ratio",
        ),
        (
            "executor.steal_batches_per_mtask",
            1e6 * ratio(c("executor.steal_batches"), done),
            "1/Mtask",
        ),
        (
            "executor.stolen_per_batch",
            ratio(c("executor.stolen_tasks"), c("executor.steal_batches")),
            "tasks/batch",
        ),
        (
            "executor.parks_per_ktask",
            1e3 * ratio(c("executor.parks"), done),
            "1/ktask",
        ),
        (
            "broker.publish.steps_per_call",
            per_call("broker.publish"),
            "steps/call",
        ),
        (
            "alloc.per_unit",
            ratio(l.allocs as f64, l.units as f64),
            "allocs/unit",
        ),
        (
            "gen.late_ratio",
            ratio(c("gen.late"), c("gen.issued")),
            "ratio",
        ),
        ("trace.overhead", overhead, "ratio"),
    ];
    let roles = [("send", r.send), ("recv", r.recv), ("handoff", r.handoff)];
    for (name, value, unit) in metrics {
        let role = roles
            .iter()
            .find(|(role, _)| name.starts_with(role) && name.as_bytes()[role.len()] == b'.')
            .map_or(String::new(), |(_, series)| format!("= {series}"));
        report.metric(name, value, unit, role);
    }
    report
        .lines
        .push("spans, over every unit in the traced window:".into());
    for (name, r) in &l.series {
        report.lines.push(format!(
            "  {name:<22} n={:<9} p50 {:>10.3} us  p99 {:>10.3} us",
            r.seen(),
            r.quantile(0.5) / 1e3,
            r.quantile(0.99) / 1e3
        ));
    }
    report.lines.push(format!(
        "alloc: {} allocations over {} units",
        l.allocs, l.units
    ));
}

/// A digest of the first inputs `workload` generates from `seed`, so that
/// tests can check the generators are deterministic and seed-driven.
#[must_use]
pub fn input_digest(workload: Workload, seed: u64) -> u64 {
    const N: usize = 10_000;
    let fold = |h: u64, x: u64| gen::mix(h ^ x);
    match workload {
        Workload::UnboundedOpen => {
            mix::input_digest(seed, mix::Pacing::Open { rate: 50_000.0 }, N as u64)
        }
        Workload::BoundedClosed => mix::input_digest(seed, mix::Pacing::Closed, N as u64),
        Workload::ForkjoinClosed => {
            let tree = Options::new(seed, Duration::ZERO).tree_tasks;
            let mut frontier = std::collections::VecDeque::from([gen::tree_root(seed, 0, tree)]);
            let mut h = 0;
            for _ in 0..N {
                let Some(t) = frontier.pop_front() else { break };
                let p = gen::plan(seed, tree, t);
                h = fold(fold(fold(h, t.id), t.budget), u64::from(p.rounds));
                frontier.extend(p.children());
            }
            h
        }
        Workload::ServiceOpen => gen::Arrivals::bursty(seed, service::RATE)
            .take(N)
            .fold(0, fold),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Issue times of `dues` under [`CatchUp`] when every operation takes
    /// no time and the generator resumes at `start`.
    fn issue_times(rate: f64, start: u64, dues: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut pace = CatchUp::new(rate);
        let mut now = start;
        dues.map(|due| {
            now = now.max(pace.earliest(due));
            pace.issued(now);
            now
        })
        .collect()
    }

    #[test]
    fn catch_up_leaves_a_schedule_kept_to_alone() {
        for seed in 0..4 {
            for (rate, arrivals) in [
                (50_000.0, gen::Arrivals::poisson(seed, 0, 50_000.0)),
                (service::RATE, gen::Arrivals::bursty(seed, service::RATE)),
            ] {
                let dues: Vec<u64> = arrivals.take(500_000).collect();
                let issued = issue_times(rate, 0, dues.iter().copied());
                assert!(
                    issued == dues,
                    "seed {seed}, rate {rate}: an op was held back"
                );
            }
        }
    }

    #[test]
    fn catch_up_paces_a_backlog() {
        // 10,000 operations at 50k/s fell due in the 200 ms the generator
        // was stalled.
        let rate = 50_000.0;
        let stall = 200_000_000;
        let dues = (0..10_000u64).map(|i| i * 20_000);
        let issued = issue_times(rate, stall, dues);
        let gap = (1e9 / (CATCH_UP * rate)) as u64;
        let burst = (CATCH_UP_SLACK_NS / gap) as usize;
        assert!(issued[..burst].iter().all(|&t| t == stall));
        for pair in issued[burst + 1..].windows(2) {
            assert_eq!(pair[1] - pair[0], gap);
        }
    }
}
