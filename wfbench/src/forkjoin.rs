//! `forkjoin-closed`: seeded fork-join trees run one after another on a
//! 2-worker `Executor`. Every task hashes, then spawns its children from
//! inside the pool, so spawns take the worker-local ring path. A tree is
//! one job: its latency is its makespan, from its root's spawn to the
//! end of its last task.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use wfqueue_executor::{Executor, ExecutorConfig, ExecutorStats};

use crate::gen::{self, TaskSpec};
use crate::stats::Windowed;
use crate::trace::{self, Clock, Dispatch, Layer, Roles, Slots, Span, SPAN_SAMPLE};
use crate::{Pass, Phase, PhaseLen, WINDOW_NS};

const WORKERS: usize = 2;
/// A tree still running this long after the window is stuck.
const STUCK_NS: u64 = 30_000_000_000;
/// How often the driving thread looks for the end of a tree: a small
/// share of a tree's ~1 s, so the pool seldom idles between trees.
const POLL: Duration = Duration::from_micros(200);

/// A counter on its own cache line, so the workers' counters do not share
/// one.
#[derive(Default)]
#[repr(align(128))]
struct Padded(AtomicU64);

#[derive(Default)]
struct WorkerOut {
    layer: Layer,
    dispatch: Dispatch,
}

/// Everything a task needs. It lives for the rest of the process (see
/// [`run`]), so tasks hold a plain `&'static` reference to it.
struct Ctx {
    exec: Executor,
    seed: u64,
    tree: u64,
    clock: Clock,
    phase: Phase,
    traced: bool,
    workers: Slots<WorkerOut>,
    executed: [Padded; WORKERS],
}

impl Ctx {
    fn executed(&self) -> u64 {
        // ORDERING: progress counts; the final audit reads them after the
        // pool has been joined.
        self.executed
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// One task: hash, then spawn its children.
///
/// In a traced pass, `spawned_at` is when its parent's `spawn` call
/// started (0 for a root).
fn task(ctx: &'static Ctx, spec: TaskSpec, spawned_at: u64) {
    let start = if ctx.traced { ctx.clock.now() } else { 0 };
    let traced = ctx.traced && ctx.phase.in_window(start);
    if traced {
        let mut w = ctx.workers.mine();
        if let Some((gap, steps)) = w.dispatch.begin(start) {
            w.layer.time("executor.dispatch", gap);
            w.layer.steps("executor.dispatch", steps);
        }
        if spawned_at != 0 {
            w.layer.time("executor.queue_wait", start - spawned_at);
            if spec.id.is_multiple_of(SPAN_SAMPLE) {
                let thread = ctx.workers.index() as u32;
                w.layer.spans.push(Span {
                    name: "executor.queue_wait",
                    request: spec.id,
                    parent: None,
                    thread,
                    start_ns: spawned_at,
                    end_ns: start,
                });
            }
        }
    }

    let plan = gen::plan(ctx.seed, ctx.tree, spec);
    black_box(gen::task_body(spec.id, plan.rounds));
    for &child in plan.children() {
        let steps0 = traced.then(wfqueue_metrics::snapshot);
        let t0 = if ctx.traced { ctx.clock.now() } else { 0 };
        // A rejected spawn leaves its subtree unrun, which `run` counts
        // as failed and the task-count audit reports.
        drop(ctx.exec.spawn(move || task(ctx, child, t0)));
        if let Some(steps0) = steps0 {
            let t1 = ctx.clock.now();
            let steps = wfqueue_metrics::snapshot() - steps0;
            let mut w = ctx.workers.mine();
            w.layer.time("executor.spawn", t1 - t0);
            w.layer.steps("executor.spawn", steps);
        }
    }
    // ORDERING: a progress count; see `Ctx::executed`.
    ctx.executed[ctx.workers.index()]
        .0
        .fetch_add(1, Ordering::Relaxed);
    if traced {
        let end = ctx.clock.now();
        let mut w = ctx.workers.mine();
        w.dispatch.end(end);
        if spec.id.is_multiple_of(SPAN_SAMPLE) {
            let thread = ctx.workers.index() as u32;
            w.layer.spans.push(Span {
                name: "executor.run",
                request: spec.id,
                parent: None,
                thread,
                start_ns: start,
                end_ns: end,
            });
        }
    }
}

fn set_up() -> Executor {
    Executor::new(ExecutorConfig {
        workers: WORKERS,
        ..ExecutorConfig::default()
    })
}

/// The counters at one window boundary.
struct Mark {
    at: u64,
    executed: u64,
    stats: ExecutorStats,
}

/// Runs one pass: trees of `tree` tasks, one after another, until the
/// window ends; the tree running then is finished but not timed.
pub(crate) fn run(seed: u64, tree: u64, len: &PhaseLen, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let mut exec = None;
    for _ in 0..len.setups {
        let t = Instant::now();
        let e = set_up();
        pass.setup_s.push(t.elapsed().as_secs_f64());
        exec = Some(e);
    }
    let clock = Clock::start();
    // Tasks reference the context as `&'static`, which keeps
    // reference-count traffic on a shared `Arc` out of every measured
    // spawn. It is freed at the end, once the pool has shut down.
    let raw = Box::into_raw(Box::new(Ctx {
        exec: exec.expect("at least one set-up"),
        seed,
        tree,
        clock,
        phase: len.starting(clock.now()),
        traced,
        workers: Slots::new(WORKERS),
        executed: Default::default(),
    }));
    // SAFETY: `raw` comes from `Box::into_raw` and is freed only at the
    // end of this function, after the last use of `ctx`.
    let ctx: &'static Ctx = unsafe { &*raw };
    let phase = ctx.phase;
    // Records allocated before the window (see `sample_heap`): a tree
    // takes about a second, so a window sees one or two.
    pass.latency = Windowed::preallocated(phase.windows(), 16);
    // Counters at each window boundary, the first and last included.
    let mut marks: Vec<Mark> = Vec::with_capacity(phase.windows() + 1);
    let heap = crate::sample_heap(clock, phase);
    clock.sleep_until(phase.start);
    let mut trees = 0u64;
    // The running tree's root spawn time.
    let mut root_at = 0;
    let mut marked_end = false;
    let mut allocs = 0;
    loop {
        let now = clock.now();
        let boundary = (phase.warm_end + marks.len() as u64 * WINDOW_NS).min(phase.end);
        if !marked_end && now >= boundary {
            marked_end = boundary == phase.end;
            if traced && (marks.is_empty() || marked_end) {
                allocs = trace::count_allocs(marks.is_empty()) - allocs;
            }
            marks.push(Mark {
                at: now,
                executed: ctx.executed(),
                stats: ctx.exec.stats(),
            });
        }
        if ctx.executed() >= trees * tree {
            if trees > 0 && phase.in_window(root_at) {
                pass.latency.push(phase.window_of(root_at), now - root_at);
            }
            if now >= phase.end {
                break;
            }
            let root = gen::tree_root(seed, trees, tree);
            trees += 1;
            root_at = clock.now();
            if ctx.exec.spawn(move || task(ctx, root, 0)).is_err() {
                pass.audit.push("the pool rejected a tree's root".into());
                break;
            }
            continue;
        }
        if now > phase.end + STUCK_NS {
            pass.audit
                .push(format!("tree {} did not finish", trees - 1));
            break;
        }
        thread::sleep(POLL);
    }
    // The pool counts a task complete just after its body returns.
    let settle_by = clock.now() + STUCK_NS;
    let stats = loop {
        let s = ctx.exec.stats();
        if s.quiescent() || clock.now() > settle_by {
            break s;
        }
        thread::sleep(POLL);
    };
    let executed = ctx.executed();
    let held = heap.join().expect("the heap sampler panicked");
    if stats.quiescent() {
        ctx.exec.shutdown();
    } else {
        pass.audit.push(format!(
            "spawned {} != completed {}",
            stats.spawned, stats.completed
        ));
    }
    if executed != trees * tree || stats.completed != executed {
        pass.audit.push(format!(
            "task count: {trees} trees of {tree} should run {} tasks; ran {executed}, pool completed {}",
            trees * tree,
            stats.completed
        ));
    }
    pass.notes.push(format!(
        "audit: {trees} trees x {tree} tasks = {executed} run; spawned {} = completed {}",
        stats.spawned, stats.completed
    ));
    pass.attempted = trees * tree;
    pass.failed = pass.attempted.saturating_sub(executed);
    pass.rates = marks
        .windows(2)
        .map(|m| (m[1].executed - m[0].executed) as f64 * 1e9 / (m[1].at - m[0].at) as f64)
        .collect();
    let (first, last) = (&marks[0], &marks[marks.len() - 1]);
    pass.units = last.executed - first.executed;

    if traced {
        let mut layer = Layer {
            roles: Roles {
                send: "executor.spawn",
                recv: "executor.dispatch",
                handoff: "executor.queue_wait",
            },
            units: pass.units,
            allocs,
            ..Layer::default()
        };
        for w in ctx.workers.take_all() {
            layer.merge(w.layer);
        }
        layer.count_executor(&first.stats, &last.stats);
        pass.layer = Some(layer);
    }
    if stats.quiescent() {
        // SAFETY: the pool has drained and shut down: every task ran and
        // dropped its closure, the only other holder of `ctx`, and every
        // pool thread was joined. `ctx` is not used after this. (A pool
        // that did not drain fails the run, and its context leaks.)
        drop(unsafe { Box::from_raw(raw) });
        // What freeing the pool gives back is what it held; the records
        // were allocated before the window and are still alive.
        pass.heap_mb = held - crate::heap_in_use_mb();
    }
    pass
}
