//! `service-open`: one request from publish through broker and executor
//! to completion. A generator publishes seeded bursty arrivals on a
//! default topic; a subscriber thread receives each one (parking while
//! the topic is empty) and spawns it onto a 1-worker pool through its own
//! `Spawner`; the task records the completion.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use wfqueue_broker::{Broker, Publisher, Subscriber, Topic};
use wfqueue_executor::{Executor, ExecutorConfig, Spawner};

use crate::gen::Arrivals;
use crate::stats::percentile;
use crate::trace::{self, Clock, Dispatch, Layer, Roles, Slots, Span, SPAN_SAMPLE};
use crate::{CatchUp, Pass, Phase, PhaseLen, GRACE_NS, LATE_NS};

/// Offered load, messages per second (about 40% of the knee on 2 cores).
pub(crate) const RATE: f64 = 30_000.0;
const TOPIC: &str = "requests";

/// Per-request timestamps of a traced pass, ns on the run clock: publish
/// start and end, receive return, spawn return, task start.
const PUB0: usize = 0;
const PUB1: usize = 1;
const RECV: usize = 2;
const SPAWNED: usize = 3;
const RUN0: usize = 4;

/// State shared by the generator, the subscriber and the tasks.
struct Shared {
    clock: Clock,
    traced: bool,
    phase: OnceLock<Phase>,
    /// Completion time of each request; 0 until it completes.
    done_at: Vec<AtomicU64>,
    duplicates: AtomicU64,
    completed: AtomicU64,
    /// Traced passes only: the stamps above, per request.
    stamps: Vec<[AtomicU64; 5]>,
    worker: Slots<WorkerOut>,
}

impl Shared {
    fn stamp(&self, id: usize, which: usize, t: u64) {
        // ORDERING: read only after every thread has been joined.
        self.stamps[id][which].store(t, Ordering::Relaxed);
    }

    fn tracing_now(&self, t: u64) -> bool {
        self.traced && self.phase.get().is_some_and(|p| p.in_window(t))
    }
}

#[derive(Default)]
struct WorkerOut {
    layer: Layer,
    dispatch: Dispatch,
}

/// The task body: record that request `id` completed.
fn complete(sh: &Shared, id: usize) {
    let start = sh.clock.now();
    let traced = sh.tracing_now(start);
    if traced {
        sh.stamp(id, RUN0, start);
        let mut w = sh.worker.mine();
        if let Some((gap, steps)) = w.dispatch.begin(start) {
            w.layer.time("executor.dispatch", gap);
            w.layer.steps("executor.dispatch", steps);
        }
    }
    let end = sh.clock.now();
    // ORDERING: statistics; the audit reads them after the joins.
    if sh.done_at[id].swap(end, Ordering::Relaxed) != 0 {
        sh.duplicates.fetch_add(1, Ordering::Relaxed);
    }
    sh.completed.fetch_add(1, Ordering::Relaxed);
    if traced {
        sh.worker.mine().dispatch.end(sh.clock.now());
    }
}

/// The subscriber loop: receive, spawn, until the topic is closed and
/// drained.
fn subscribe(mut sub: Subscriber<u64>, mut spawner: Spawner, sh: Arc<Shared>) -> (Layer, u64) {
    let mut layer = Layer::default();
    let mut rejected = 0;
    loop {
        let t0 = sh.clock.now();
        let traced = sh.tracing_now(t0);
        let steps0 = traced.then(wfqueue_metrics::snapshot);
        let Ok(id) = sub.recv() else { break };
        let id = id as usize;
        let t1 = sh.clock.now();
        let steps1 = traced.then(wfqueue_metrics::snapshot);
        let task_sh = Arc::clone(&sh);
        if spawner.spawn(move || complete(&task_sh, id)).is_err() {
            rejected += 1;
        }
        if let (Some(s0), Some(s1)) = (steps0, steps1) {
            let t2 = sh.clock.now();
            layer.time("broker.recv", t1 - t0);
            layer.steps("broker.recv", s1 - s0);
            layer.steps("executor.spawn", wfqueue_metrics::snapshot() - s1);
            sh.stamp(id, RECV, t1);
            sh.stamp(id, SPAWNED, t2);
        }
    }
    (layer, rejected)
}

/// A running service: broker, pool, and the subscriber thread.
struct Service {
    broker: Broker,
    topic: Topic<u64>,
    publisher: Publisher<u64>,
    exec: Executor,
    subscriber: JoinHandle<(Layer, u64)>,
}

fn set_up(sh: &Arc<Shared>) -> Service {
    let broker = Broker::new();
    let topic = broker
        .topic::<u64>(TOPIC)
        .expect("a fresh broker has no conflicting topic");
    let publisher = topic.publisher().expect("topic has publisher budget");
    let sub = topic.subscriber().expect("topic has subscriber budget");
    let exec = Executor::new(ExecutorConfig {
        workers: 1,
        ..ExecutorConfig::default()
    });
    let spawner = exec.try_spawner().expect("pool has spawner budget");
    let sh = Arc::clone(sh);
    let subscriber = thread::Builder::new()
        .name("wfbench-subscriber".into())
        .spawn(move || subscribe(sub, spawner, sh))
        .expect("spawn the subscriber thread");
    Service {
        broker,
        topic,
        publisher,
        exec,
        subscriber,
    }
}

impl Service {
    /// Closes the topic, lets the subscriber drain it, and drains the
    /// pool.
    fn stop(self) -> (Broker, wfqueue_executor::ExecutorStats, (Layer, u64)) {
        self.topic.close();
        let sub = self.subscriber.join().expect("subscriber thread panicked");
        drop(self.publisher);
        (self.broker, self.exec.shutdown(), sub)
    }
}

/// Runs one pass.
pub(crate) fn run(seed: u64, len: &PhaseLen, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let total = len.warmup_ns + len.window_ns;
    let schedule: Vec<u64> = Arrivals::bursty(seed, RATE)
        .take_while(|&due| due < total)
        .collect();
    let n = schedule.len();
    let sh = Arc::new(Shared {
        clock: Clock::start(),
        traced,
        phase: OnceLock::new(),
        done_at: (0..n).map(|_| AtomicU64::new(0)).collect(),
        duplicates: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        stamps: if traced {
            (0..n).map(|_| Default::default()).collect()
        } else {
            Vec::new()
        },
        worker: Slots::new(1),
    });
    let mut service = None;
    for _ in 0..len.setups {
        let t = Instant::now();
        let s = set_up(&sh);
        pass.setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = service.replace(s) {
            old.stop();
        }
    }
    let mut svc = service.expect("at least one set-up");
    let clock = sh.clock;
    let phase = len.starting(clock.now());
    sh.phase.set(phase).expect("the phase is set once");
    let heap = crate::sample_heap(clock, phase);
    let mut layer = Layer::default();
    let mut open = None;
    let mut issued = 0u64;
    let mut pace = CatchUp::new(RATE);
    clock.sleep_until(phase.start);
    for (id, &rel) in schedule.iter().enumerate() {
        let due = phase.start + rel;
        let mut now = clock.now();
        if now > phase.end + GRACE_NS {
            // Due but never issued: neither attempted nor failed.
            pass.notes.push(format!(
                "unissued: {} requests fell due but were never issued, as the generator was \
                 still {} s behind after the window",
                n - id,
                GRACE_NS as f64 / 1e9
            ));
            break;
        }
        // Yield while waiting: the subscriber, the worker and the pool's
        // timer thread share the two CPUs with this loop.
        let at = pace.earliest(due);
        while now < at {
            thread::yield_now();
            now = clock.now();
        }
        pace.issued(now);
        let traced_req = traced && due >= phase.warm_end;
        if due >= phase.warm_end && open.is_none() {
            open = Some((svc.exec.stats(), trace::count_allocs(traced)));
        }
        let steps0 = traced_req.then(wfqueue_metrics::snapshot);
        let t0 = clock.now();
        let ok = svc.publisher.publish(id as u64).is_ok();
        let t1 = clock.now();
        pass.attempted += 1;
        if ok {
            issued += 1;
        } else {
            pass.failed += 1;
        }
        if let Some(s0) = steps0 {
            layer.steps("broker.publish", wfqueue_metrics::snapshot() - s0);
            layer.count("gen.issued", 1);
            layer.count("gen.late", u64::from(t0 - due > LATE_NS));
            sh.stamp(id, PUB0, t0);
            sh.stamp(id, PUB1, t1);
        }
    }
    let allocs = trace::count_allocs(false);
    let close = svc.exec.stats();
    let memory = svc.broker.memory_stats();

    // Wait for the backlog. What is still pending then completes while the
    // service stops, and is timed like every other request.
    let deadline = phase.end + GRACE_NS;
    // ORDERING: a progress count; see `complete`.
    while sh.completed.load(Ordering::Relaxed) < issued && clock.now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    let held = heap.join().expect("the heap sampler panicked");
    let late = issued.saturating_sub(sh.completed.load(Ordering::Relaxed));
    if late > 0 {
        pass.notes.push(format!(
            "late: {late} requests were still pending {} s after the window",
            GRACE_NS as f64 / 1e9
        ));
    }
    let (broker, stats, (sub_layer, rejected)) = svc.stop();
    pass.failed += rejected;
    let topic = broker
        .stats()
        .into_iter()
        .find(|t| t.name == TOPIC)
        .expect("the topic is registered");
    // What stopping the service gives back is what it held; the
    // schedule and the completion records were allocated before the
    // window and are still alive.
    drop(broker);
    pass.heap_mb = held - crate::heap_in_use_mb();
    let missing = (0..issued as usize)
        .filter(|&id| sh.done_at[id].load(Ordering::Relaxed) == 0)
        .count();
    let duplicates = sh.duplicates.load(Ordering::Relaxed);
    if missing > 0 || duplicates > 0 {
        pass.audit.push(format!(
            "exactly once: {missing} requests never completed, {duplicates} completed twice"
        ));
    }
    if topic.published != topic.delivered || topic.published != issued {
        pass.audit.push(format!(
            "broker: issued {issued}, published {}, delivered {}",
            topic.published, topic.delivered
        ));
    }
    if !stats.quiescent() || stats.spawned != issued {
        pass.audit.push(format!(
            "executor: issued {issued}, spawned {}, completed {}",
            stats.spawned, stats.completed
        ));
    }
    pass.notes.push(format!(
        "audit: {issued} requests completed exactly once; published {} = delivered {}; spawned {} = completed {}",
        topic.published, topic.delivered, stats.spawned, stats.completed
    ));

    for (id, &rel) in schedule.iter().enumerate().take(issued as usize) {
        let due = phase.start + rel;
        let done = sh.done_at[id].load(Ordering::Relaxed);
        if due < phase.warm_end || done == 0 {
            continue;
        }
        pass.latency.push(phase.window_of(due), done - due);
        pass.units += 1;
    }
    pass.rates = phase.rates(&pass.latency.counts());

    if traced {
        layer.roles = Roles {
            send: "broker.publish",
            recv: "broker.recv",
            handoff: "handoff",
        };
        layer.merge(sub_layer);
        for w in sh.worker.take_all() {
            layer.merge(w.layer);
        }
        layer.count_executor(open.as_ref().map_or(&close, |(s, _)| s), &close);
        layer.count("core.live_blocks_end", memory.live_blocks as u64);
        layer.count("core.reclaimed_blocks", memory.reclaimed_blocks as u64);
        layer.units = pass.units;
        layer.allocs = allocs - open.map_or(allocs, |(_, a)| a);
        request_spans(&sh, &schedule, phase, &mut layer, &mut pass);
        pass.layer = Some(layer);
    }
    pass
}

/// Names of a request's child spans, in order; they tile the request.
const CHILDREN: [&str; 6] = [
    "gen_lag",
    "broker.publish",
    "broker.deliver",
    "executor.spawn",
    "executor.queue_wait",
    "executor.run",
];

/// Turns the traced stamps into per-layer series, sampled spans, and a
/// check that the child spans tile their request at p50 and p99.
fn request_spans(sh: &Shared, schedule: &[u64], phase: Phase, layer: &mut Layer, pass: &mut Pass) {
    let mut requests: Vec<(u64, [u64; 7])> = Vec::new();
    for (id, &rel) in schedule.iter().enumerate() {
        let due = phase.start + rel;
        let done = sh.done_at[id].load(Ordering::Relaxed);
        let s: Vec<u64> = sh.stamps[id]
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        if due < phase.warm_end || done == 0 || s.contains(&0) {
            continue;
        }
        // Boundaries of the tiling: due, publish start, publish end,
        // receive return, spawn return, task start, completion. A
        // consumer can act before its producer's call returns, so each
        // boundary is clamped to the one before it.
        let mut b = [due, s[PUB0], s[PUB1], s[RECV], s[SPAWNED], s[RUN0], done];
        for i in 1..b.len() {
            b[i] = b[i].max(b[i - 1]);
        }
        for (i, name) in CHILDREN.iter().enumerate() {
            layer.time(name, b[i + 1] - b[i]);
        }
        layer.time("request", done - due);
        layer.time("handoff", b[5] - b[1]);
        if (id as u64).is_multiple_of(SPAN_SAMPLE) {
            let request = id as u64;
            layer.spans.push(Span {
                name: "request",
                request,
                parent: None,
                thread: 0,
                start_ns: due,
                end_ns: done,
            });
            for (i, name) in CHILDREN.iter().enumerate() {
                layer.spans.push(Span {
                    name,
                    request,
                    parent: Some("request"),
                    thread: [0, 0, 1, 1, 2, 2][i],
                    start_ns: b[i],
                    end_ns: b[i + 1],
                });
            }
        }
        requests.push((done - due, b));
    }
    requests.sort_unstable_by_key(|r| r.0);
    let durations: Vec<u64> = requests.iter().map(|r| r.0).collect();
    for q in [0.5, 0.99] {
        let target = percentile(&durations, q);
        let Some((total, b)) = requests.iter().find(|r| r.0 as f64 >= target) else {
            continue;
        };
        let parts: Vec<String> = CHILDREN
            .iter()
            .enumerate()
            .map(|(i, name)| format!("{name} {:.1}", (b[i + 1] - b[i]) as f64 / 1e3))
            .collect();
        let sum = b[6] - b[0];
        pass.notes.push(format!(
            "p{} request: {:.1} us = children {:.1} us ({})",
            q * 100.0,
            *total as f64 / 1e3,
            sum as f64 / 1e3,
            parts.join(", ")
        ));
    }
}
