//! The execution engine behind [`super::explore`]: virtual threads, the
//! choice tape, the DFS over schedules, and the modeled memory system.
//!
//! # How a schedule runs
//!
//! Each schedule spawns one OS thread per virtual thread, but a shared
//! `turn` token (guarded by one mutex/condvar pair) lets exactly one of
//! them execute at a time. Every facade operation is a *scheduling
//! point*: the running thread consults the choice tape to decide who runs
//! next, performs its operation against the modeled memory under the
//! state lock, and either continues or parks itself and wakes the chosen
//! successor. An execution is therefore a deterministic function of its
//! tape, which is what makes exhaustive enumeration and failure replay
//! possible.
//!
//! # How schedules are enumerated
//!
//! The tape records every point where more than one continuation existed
//! (which thread to run, which store a weakly-ordered load observes) as
//! `(options, picked)`. After a schedule completes, the controller bumps
//! the deepest `picked` that still has unexplored options and truncates
//! the rest — a depth-first walk of the schedule tree. Scheduling choices
//! list "continue the current thread" first, so the DFS visits
//! few-preemption schedules before exotic ones, and a preemption *bound*
//! prunes involuntary switches beyond `Options::preemption_bound`
//! (voluntary ones — blocking, finishing — are always free). A seeded
//! random phase then samples schedules outside the bounded space.
//!
//! # The memory model
//!
//! See the [`super`] module docs for the semantics; the representation
//! here is: per location a vector of store messages (value, optional
//! release clock, writer event), per thread a vector clock, a
//! pending-acquire clock (for acquire fences), an optional release-fence
//! clock, and per-location coherence floors; plus one global SC clock.

use std::collections::HashMap;
use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::atomic::Ordering;

use super::{Handle, CURRENT};

/// Sentinel panic payload used to unwind virtual threads when a schedule
/// aborts (failure found elsewhere); never escapes the model.
struct Abort;

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A vector clock over virtual-thread ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct VClock(Vec<u32>);

impl VClock {
    fn get(&self, tid: usize) -> u32 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    fn set(&mut self, tid: usize, v: u32) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] = v;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (s, o) in self.0.iter_mut().zip(other.0.iter()) {
            *s = (*s).max(*o);
        }
    }

    /// Does this clock know about event `seq` of thread `tid`?
    fn contains(&self, tid: usize, seq: u32) -> bool {
        self.get(tid) >= seq
    }
}

fn join_opt(a: Option<&VClock>, b: Option<&VClock>) -> Option<VClock> {
    match (a, b) {
        (None, None) => None,
        (Some(x), None) => Some(x.clone()),
        (None, Some(y)) => Some(y.clone()),
        (Some(x), Some(y)) => {
            let mut c = x.clone();
            c.join(y);
            Some(c)
        }
    }
}

// ---------------------------------------------------------------------------
// Modeled memory
// ---------------------------------------------------------------------------

/// One store in a location's modification order.
#[derive(Clone, Debug)]
struct StoreMsg {
    val: u64,
    /// The release clock carried by this store (`None` for a relaxed store
    /// with no preceding release fence): what an acquire load of this
    /// message learns.
    rel: Option<VClock>,
    /// The writer's `(tid, seq)` event id; `None` for the initial value,
    /// which everybody knows.
    event: Option<(usize, u32)>,
}

/// One atomic location's modeled history.
struct Location {
    /// Small dense id used in traces (`L0`, `L1`, …), assigned in first-
    /// touch order, which is deterministic per schedule.
    lid: usize,
    stores: Vec<StoreMsg>,
}

// ---------------------------------------------------------------------------
// Threads and scheduling state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockKind {
    /// Waiting to acquire the modeled mutex registered at this address.
    Mutex(usize),
    /// Waiting on the modeled condvar registered at this address.
    Condvar(usize),
    /// Waiting for the virtual thread with this id to finish.
    Join(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Runnable (or currently running — the `turn` token distinguishes).
    Ready,
    Blocked(BlockKind),
    Finished,
}

struct VThread {
    status: Status,
    clock: VClock,
    /// Clocks of every message read so far by *any* load (for acquire
    /// fences, which upgrade past relaxed loads).
    pending_acquire: VClock,
    /// Clock at the last release fence, carried by subsequent relaxed
    /// stores.
    release_fence: Option<VClock>,
    /// Per-location coherence floor: the smallest modification-order index
    /// this thread may still legally read.
    floors: HashMap<usize, usize>,
}

impl VThread {
    fn new(clock: VClock) -> Self {
        VThread {
            status: Status::Ready,
            clock,
            pending_acquire: VClock::default(),
            release_fence: None,
            floors: HashMap::new(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Turn {
    Controller,
    Thread(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    /// Replay the tape, extending it with first choices; used by the
    /// exhaustive DFS.
    Dfs,
    /// Ignore the tape and pick uniformly with the seeded generator.
    Random,
}

/// One recorded decision: `options` continuations existed, `picked` was
/// taken.
#[derive(Clone, Copy, Debug)]
struct Choice {
    options: usize,
    picked: usize,
}

/// A modeled mutex's bookkeeping (see [`super::Mutex`]).
#[derive(Default)]
struct MutexState {
    held_by: Option<usize>,
    /// Clock of the last unlock: what the next lock acquires.
    rel_clock: VClock,
}

/// A modeled condvar's bookkeeping (see [`super::Condvar`]).
#[derive(Default)]
struct CvState {
    waiters: Vec<usize>,
}

struct ExecState {
    mode: Mode,
    turn: Turn,
    threads: Vec<VThread>,
    mem: HashMap<usize, Location>,
    next_lid: usize,
    sc_clock: VClock,
    mutexes: HashMap<usize, MutexState>,
    cvs: HashMap<usize, CvState>,
    tape: Vec<Choice>,
    pos: usize,
    preemptions: usize,
    bound: usize,
    steps: usize,
    max_steps: usize,
    max_threads: usize,
    rng: u64,
    oplog: Vec<String>,
    failure: Option<String>,
    abort: bool,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// The state shared between the controller and every virtual thread of
/// one [`super::explore`] call.
pub(crate) struct ExecShared {
    state: Mutex<ExecState>,
    cv: Condvar,
}

fn lock(shared: &ExecShared) -> MutexGuard<'_, ExecState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Public configuration and results
// ---------------------------------------------------------------------------

/// Tuning knobs for [`super::explore`].
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Maximum involuntary context switches per schedule during the
    /// exhaustive phase. Blocking and finishing are always free; the DFS
    /// covers *every* schedule within this budget.
    pub preemption_bound: usize,
    /// Abort the exhaustive phase (reporting `complete: false`) after
    /// this many schedules.
    pub max_schedules: usize,
    /// Seeded random schedules explored after the exhaustive phase,
    /// unconstrained by the preemption bound.
    pub random_schedules: usize,
    /// Seed for the random phase.
    pub seed: u64,
    /// Per-schedule budget of facade operations; exceeding it is reported
    /// as a livelock.
    pub max_steps: usize,
    /// Maximum live virtual threads per schedule.
    pub max_threads: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            preemption_bound: 2,
            max_schedules: 2_000_000,
            random_schedules: 128,
            seed: 0x5eed_c0ffee,
            max_steps: 50_000,
            max_threads: 8,
        }
    }
}

impl Options {
    /// Reads `MODEL_PREEMPTION_BOUND` from the environment (the weekly
    /// stress job raises it) on top of the defaults.
    #[must_use]
    pub fn from_env() -> Self {
        let mut o = Options::default();
        if let Some(b) = std::env::var("MODEL_PREEMPTION_BOUND")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            o.preemption_bound = b;
        }
        o
    }
}

/// What [`super::explore`] explored.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Schedules visited by the exhaustive (preemption-bounded) phase.
    pub exhaustive_schedules: usize,
    /// Schedules visited by the seeded random phase.
    pub random_schedules: usize,
    /// Whether the exhaustive phase enumerated its whole space (`false`
    /// means `max_schedules` cut it short).
    pub complete: bool,
}

/// A bug found by the model: the failure message plus the trace of the
/// offending schedule.
#[derive(Debug)]
pub struct Failure {
    /// Human-readable failure: what went wrong, the per-operation trace
    /// of the failing schedule, and the choice tape that replays it.
    pub message: String,
    /// Schedules explored before the failure surfaced.
    pub schedules_explored: usize,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model checker found a bug after {} schedule(s):\n{}",
            self.schedules_explored, self.message
        )
    }
}

impl std::error::Error for Failure {}

// ---------------------------------------------------------------------------
// Failure plumbing
// ---------------------------------------------------------------------------

fn render_failure(g: &ExecState, msg: &str) -> String {
    let tape: Vec<String> = g
        .tape
        .iter()
        .map(|c| format!("{}/{}", c.picked, c.options))
        .collect();
    format!(
        "{msg}\n--- schedule trace ({} ops) ---\n{}\n--- choice tape (picked/options) ---\n[{}]",
        g.oplog.len(),
        g.oplog.join("\n"),
        tape.join(", ")
    )
}

/// Records a failure (first one wins), aborts the schedule, and hands the
/// turn back to the controller.
fn record_failure(shared: &ExecShared, g: &mut ExecState, msg: &str) {
    if g.failure.is_none() {
        g.failure = Some(render_failure(g, msg));
    }
    g.abort = true;
    g.turn = Turn::Controller;
    shared.cv.notify_all();
}

/// Records a failure and unwinds the calling virtual thread.
fn fail(shared: &ExecShared, g: &mut ExecState, msg: &str) -> ! {
    record_failure(shared, g, msg);
    panic_any(Abort);
}

// ---------------------------------------------------------------------------
// Choice + scheduling primitives (called with the state lock held)
// ---------------------------------------------------------------------------

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Resolves an `options`-way nondeterministic choice against the tape
/// (DFS mode) or the seeded generator (random mode).
fn choose(shared: &ExecShared, g: &mut ExecState, options: usize) -> usize {
    debug_assert!(options >= 2);
    match g.mode {
        Mode::Dfs => {
            if g.pos < g.tape.len() {
                let c = g.tape[g.pos];
                if c.options != options {
                    fail(
                        shared,
                        g,
                        &format!(
                            "nondeterministic model program: replay diverged at choice {} \
                             ({} options recorded, {} now) — model code must not depend on \
                             real time, addresses, or OS randomness",
                            g.pos, c.options, options
                        ),
                    );
                }
                g.pos += 1;
                c.picked
            } else {
                g.tape.push(Choice { options, picked: 0 });
                g.pos += 1;
                0
            }
        }
        Mode::Random => {
            let r = splitmix64(&mut g.rng);
            (r >> 33) as usize % options
        }
    }
}

fn enabled_others(g: &ExecState, me: usize) -> Vec<usize> {
    (0..g.threads.len())
        .filter(|&t| t != me && g.threads[t].status == Status::Ready)
        .collect()
}

/// Parks the calling thread until the turn token names it again. Returns
/// `None` if the schedule aborted while parked (the caller unwinds or,
/// if already unwinding, bails quietly).
fn wait_for_turn<'a>(
    shared: &'a ExecShared,
    mut g: MutexGuard<'a, ExecState>,
    tid: usize,
) -> Option<MutexGuard<'a, ExecState>> {
    loop {
        if g.abort {
            if std::thread::panicking() {
                return None;
            }
            drop(g);
            panic_any(Abort);
        }
        if g.turn == Turn::Thread(tid) {
            return Some(g);
        }
        g = shared.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
    }
}

/// The scheduling point executed at every facade operation: consumes one
/// step of budget, consults the tape about who runs next, and — if the
/// answer is somebody else — counts the preemption, wakes them, and parks
/// until the turn comes back. Returns `None` only when the schedule is
/// aborting and the caller is already unwinding.
fn schedule_point<'a>(shared: &'a ExecShared, tid: usize) -> Option<MutexGuard<'a, ExecState>> {
    let mut g = lock(shared);
    if g.abort {
        if std::thread::panicking() {
            return None;
        }
        drop(g);
        panic_any(Abort);
    }
    g.steps += 1;
    if g.steps > g.max_steps {
        let max = g.max_steps;
        fail(
            shared,
            &mut g,
            &format!(
                "step budget exhausted ({max} facade operations in one schedule): \
                 livelock, or raise Options::max_steps"
            ),
        );
    }
    let mut cands = vec![tid];
    cands.extend(enabled_others(&g, tid));
    if g.preemptions >= g.bound && g.mode == Mode::Dfs {
        cands.truncate(1);
    }
    let picked = if cands.len() > 1 {
        choose(shared, &mut g, cands.len())
    } else {
        0
    };
    let next = cands[picked];
    if next != tid {
        g.preemptions += 1;
        g.turn = Turn::Thread(next);
        shared.cv.notify_all();
        g = wait_for_turn(shared, g, tid)?;
    }
    Some(g)
}

/// Blocks the calling thread (mutex contention / condvar wait / join):
/// marks it non-runnable, picks a successor, and parks until some waker
/// marks it `Ready` *and* the schedule hands it the turn. A block with no
/// runnable successor is the model's deadlock — for the protocols under
/// test, a lost wakeup.
fn block_until_runnable<'a>(
    shared: &'a ExecShared,
    mut g: MutexGuard<'a, ExecState>,
    tid: usize,
    kind: BlockKind,
) -> Option<MutexGuard<'a, ExecState>> {
    g.threads[tid].status = Status::Blocked(kind);
    g.oplog.push(format!("T{tid} blocks on {kind:?}"));
    let cands = enabled_others(&g, tid);
    if cands.is_empty() {
        let states: Vec<String> = g
            .threads
            .iter()
            .enumerate()
            .map(|(t, th)| format!("T{t}:{:?}", th.status))
            .collect();
        fail(
            shared,
            &mut g,
            &format!(
                "deadlock: every live thread is blocked (lost wakeup?) — [{}]",
                states.join(", ")
            ),
        );
    }
    let picked = if cands.len() > 1 {
        choose(shared, &mut g, cands.len())
    } else {
        0
    };
    g.turn = Turn::Thread(cands[picked]);
    shared.cv.notify_all();
    wait_for_turn(shared, g, tid)
}

/// Marks the calling thread finished, wakes its joiners, and passes the
/// turn on (to a chosen runnable thread, or back to the controller when
/// everyone is done).
fn finish_thread(shared: &ExecShared, g: &mut ExecState, tid: usize) {
    g.threads[tid].status = Status::Finished;
    g.oplog.push(format!("T{tid} finishes"));
    for t in 0..g.threads.len() {
        if g.threads[t].status == Status::Blocked(BlockKind::Join(tid)) {
            g.threads[t].status = Status::Ready;
        }
    }
    let cands = enabled_others(g, tid);
    if cands.is_empty() {
        if g.threads.iter().all(|t| t.status == Status::Finished) {
            g.turn = Turn::Controller;
        } else {
            record_failure(
                shared,
                g,
                "deadlock: a thread finished while every remaining thread is blocked \
                 (lost wakeup?)",
            );
        }
    } else {
        let picked = if cands.len() > 1 {
            choose(shared, g, cands.len())
        } else {
            0
        };
        g.turn = Turn::Thread(cands[picked]);
    }
    shared.cv.notify_all();
}

// ---------------------------------------------------------------------------
// Memory operations
// ---------------------------------------------------------------------------

fn ensure_location(g: &mut ExecState, id: usize, init: u64) -> usize {
    if let Some(loc) = g.mem.get(&id) {
        return loc.lid;
    }
    let lid = g.next_lid;
    g.next_lid += 1;
    g.mem.insert(
        id,
        Location {
            lid,
            stores: vec![StoreMsg {
                val: init,
                // The initial value is known to (and synchronized with)
                // everybody: it existed before the threads did.
                rel: Some(VClock::default()),
                event: None,
            }],
        },
    );
    lid
}

fn is_acquire(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn is_release(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

/// The smallest modification-order index `tid` may read at `id`:
/// its coherence floor, raised by every store it (transitively) knows
/// happened.
fn read_floor(g: &ExecState, tid: usize, id: usize) -> usize {
    let th = &g.threads[tid];
    let mut floor = th.floors.get(&id).copied().unwrap_or(0);
    let stores = &g.mem[&id].stores;
    for (j, s) in stores.iter().enumerate().skip(floor + 1) {
        if let Some((wtid, seq)) = s.event {
            if th.clock.contains(wtid, seq) {
                floor = j;
            }
        }
    }
    floor
}

/// Applies the read side of `order` for message `idx` at `id`.
fn apply_read_effects(g: &mut ExecState, tid: usize, id: usize, idx: usize, order: Ordering) {
    let rel = g.mem[&id].stores[idx].rel.clone();
    let th = &mut g.threads[tid];
    if let Some(rel) = rel {
        th.pending_acquire.join(&rel);
        if is_acquire(order) {
            th.clock.join(&rel);
        }
    }
    th.floors.insert(id, idx);
}

/// Appends a store message for `tid` at `id` and returns its index.
fn apply_write(
    g: &mut ExecState,
    tid: usize,
    id: usize,
    val: u64,
    order: Ordering,
    continue_rel: Option<VClock>,
) -> usize {
    let seq = g.threads[tid].clock.get(tid) + 1;
    g.threads[tid].clock.set(tid, seq);
    let own_rel = if is_release(order) {
        Some(g.threads[tid].clock.clone())
    } else {
        g.threads[tid].release_fence.clone()
    };
    let rel = join_opt(continue_rel.as_ref(), own_rel.as_ref());
    let msg = StoreMsg {
        val,
        rel,
        event: Some((tid, seq)),
    };
    let stores = &mut g.mem.get_mut(&id).expect("location registered").stores;
    stores.push(msg);
    let idx = stores.len() - 1;
    g.threads[tid].floors.insert(id, idx);
    idx
}

fn sc_pre(g: &mut ExecState, tid: usize, order: Ordering) {
    if order == Ordering::SeqCst {
        let sc = g.sc_clock.clone();
        g.threads[tid].clock.join(&sc);
    }
}

/// SC *writes* (stores, RMWs, fences) publish into the global SC clock;
/// SC loads only acquire from it (publishing on loads would be strictly
/// stronger than C11 and would hide real bugs like a dropped SC fence).
fn sc_post_write(g: &mut ExecState, tid: usize, order: Ordering) {
    if order == Ordering::SeqCst {
        let clock = g.threads[tid].clock.clone();
        g.sc_clock.join(&clock);
    }
}

pub(super) fn op_load(h: &Handle, id: usize, init: u64, order: Ordering) -> u64 {
    let Some(mut g) = schedule_point(&h.shared, h.tid) else {
        return init;
    };
    let g = &mut *g;
    let lid = ensure_location(g, id, init);
    sc_pre(g, h.tid, order);
    let floor = read_floor(g, h.tid, id);
    let n = g.mem[&id].stores.len();
    let span = n - floor;
    let idx = if span > 1 {
        floor + choose(&h.shared, g, span)
    } else {
        floor
    };
    let val = g.mem[&id].stores[idx].val;
    apply_read_effects(g, h.tid, id, idx, order);
    let stale = if idx + 1 < n { " (stale)" } else { "" };
    g.oplog.push(format!(
        "T{} load L{lid} -> {val} ({order:?}){stale}",
        h.tid
    ));
    val
}

pub(super) fn op_store(h: &Handle, id: usize, init: u64, val: u64, order: Ordering) {
    let Some(mut g) = schedule_point(&h.shared, h.tid) else {
        return;
    };
    let g = &mut *g;
    let lid = ensure_location(g, id, init);
    sc_pre(g, h.tid, order);
    apply_write(g, h.tid, id, val, order, None);
    sc_post_write(g, h.tid, order);
    g.oplog
        .push(format!("T{} store L{lid} = {val} ({order:?})", h.tid));
}

pub(super) fn op_rmw(
    h: &Handle,
    id: usize,
    init: u64,
    f: &mut dyn FnMut(u64) -> u64,
    order: Ordering,
) -> u64 {
    let Some(mut g) = schedule_point(&h.shared, h.tid) else {
        return init;
    };
    let g = &mut *g;
    let lid = ensure_location(g, id, init);
    sc_pre(g, h.tid, order);
    // An RMW is atomic: it always reads the newest store.
    let last = g.mem[&id].stores.len() - 1;
    let old = g.mem[&id].stores[last].val;
    let continue_rel = g.mem[&id].stores[last].rel.clone();
    apply_read_effects(g, h.tid, id, last, order);
    let new = f(old);
    // The RMW continues the release sequence of the store it read.
    apply_write(g, h.tid, id, new, order, continue_rel);
    sc_post_write(g, h.tid, order);
    g.oplog
        .push(format!("T{} rmw L{lid} {old} -> {new} ({order:?})", h.tid));
    old
}

#[allow(
    clippy::too_many_arguments,
    reason = "mirrors compare_exchange's own six-place signature"
)]
pub(super) fn op_cas(
    h: &Handle,
    id: usize,
    init: u64,
    expected: u64,
    new: u64,
    success: Ordering,
    failure: Ordering,
) -> Result<u64, u64> {
    let Some(mut g) = schedule_point(&h.shared, h.tid) else {
        return Err(init);
    };
    let g = &mut *g;
    let lid = ensure_location(g, id, init);
    let last = g.mem[&id].stores.len() - 1;
    let old = g.mem[&id].stores[last].val;
    if old == expected {
        sc_pre(g, h.tid, success);
        let continue_rel = g.mem[&id].stores[last].rel.clone();
        apply_read_effects(g, h.tid, id, last, success);
        apply_write(g, h.tid, id, new, success, continue_rel);
        sc_post_write(g, h.tid, success);
        g.oplog.push(format!(
            "T{} cas L{lid} {expected} -> {new} ok ({success:?})",
            h.tid
        ));
        Ok(old)
    } else {
        sc_pre(g, h.tid, failure);
        apply_read_effects(g, h.tid, id, last, failure);
        g.oplog.push(format!(
            "T{} cas L{lid} expected {expected}, found {old} ({failure:?})",
            h.tid
        ));
        Err(old)
    }
}

pub(super) fn op_fence(h: &Handle, order: Ordering) {
    let Some(mut g) = schedule_point(&h.shared, h.tid) else {
        return;
    };
    let g = &mut *g;
    if is_acquire(order) {
        let pending = g.threads[h.tid].pending_acquire.clone();
        g.threads[h.tid].clock.join(&pending);
    }
    sc_pre(g, h.tid, order);
    if is_release(order) {
        let clock = g.threads[h.tid].clock.clone();
        g.threads[h.tid].release_fence = Some(clock);
    }
    sc_post_write(g, h.tid, order);
    g.oplog.push(format!("T{} fence({order:?})", h.tid));
}

/// A *directed* scheduling point: hand the turn to some other enabled
/// thread if one exists (a voluntary switch — it never consumes
/// preemption budget). This is what keeps spin-with-`yield_now` retry
/// loops explorable: without the forced handoff, the DFS's
/// "continue the current thread" default would spin such a loop into the
/// step budget on every schedule.
pub(super) fn op_yield(h: &Handle) {
    let mut g = lock(&h.shared);
    if g.abort {
        if std::thread::panicking() {
            return;
        }
        drop(g);
        panic_any(Abort);
    }
    g.steps += 1;
    if g.steps > g.max_steps {
        let max = g.max_steps;
        fail(
            &h.shared,
            &mut g,
            &format!(
                "step budget exhausted ({max} facade operations in one schedule): \
                 livelock, or raise Options::max_steps"
            ),
        );
    }
    g.oplog.push(format!("T{} yield", h.tid));
    let cands = enabled_others(&g, h.tid);
    if cands.is_empty() {
        return;
    }
    let picked = if cands.len() > 1 {
        choose(&h.shared, &mut g, cands.len())
    } else {
        0
    };
    g.turn = Turn::Thread(cands[picked]);
    h.shared.cv.notify_all();
    let _ = wait_for_turn(&h.shared, g, h.tid);
}

/// Drop hook: forget a dropped atomic's location, keyed by its id. Not a
/// scheduling point (drops must stay branch-free, and may run while the
/// schedule is aborting).
pub(super) fn op_forget(h: &Handle, id: usize) {
    let mut g = lock(&h.shared);
    g.mem.remove(&id);
    for t in &mut g.threads {
        t.floors.remove(&id);
    }
}

// ---------------------------------------------------------------------------
// Modeled mutex / condvar operations (used by super::sync)
// ---------------------------------------------------------------------------

pub(super) fn op_mutex_lock(h: &Handle, addr: usize) {
    let Some(mut g) = schedule_point(&h.shared, h.tid) else {
        return;
    };
    loop {
        let st = g.mutexes.entry(addr).or_default();
        if st.held_by.is_none() {
            st.held_by = Some(h.tid);
            let rel = st.rel_clock.clone();
            g.threads[h.tid].clock.join(&rel);
            g.oplog.push(format!("T{} locks M{addr:#x}", h.tid));
            return;
        }
        let Some(next) = block_until_runnable(&h.shared, g, h.tid, BlockKind::Mutex(addr)) else {
            return;
        };
        g = next;
    }
}

pub(super) fn op_mutex_unlock(h: &Handle, addr: usize) {
    // Guard drops run during unwinding too: never panic here, just keep
    // the bookkeeping consistent. A guard whose lock was skipped because
    // the schedule aborted mid-acquire unlocks a mutex it never owned —
    // tolerate that quietly (the schedule's result is already decided).
    let mut g = lock(&h.shared);
    let clock = g.threads[h.tid].clock.clone();
    let st = g.mutexes.entry(addr).or_default();
    if st.held_by != Some(h.tid) {
        return;
    }
    st.held_by = None;
    st.rel_clock = clock;
    for t in 0..g.threads.len() {
        if g.threads[t].status == Status::Blocked(BlockKind::Mutex(addr)) {
            g.threads[t].status = Status::Ready;
        }
    }
    g.oplog.push(format!("T{} unlocks M{addr:#x}", h.tid));
}

pub(super) fn op_cv_wait(h: &Handle, cv_addr: usize, mutex_addr: usize) {
    let Some(mut g) = schedule_point(&h.shared, h.tid) else {
        return;
    };
    g.cvs.entry(cv_addr).or_default().waiters.push(h.tid);
    // Atomically release the mutex and start waiting (no scheduling point
    // in between — exactly the condvar guarantee).
    let clock = g.threads[h.tid].clock.clone();
    let st = g.mutexes.entry(mutex_addr).or_default();
    debug_assert_eq!(st.held_by, Some(h.tid), "cv wait without the lock");
    st.held_by = None;
    st.rel_clock = clock;
    for t in 0..g.threads.len() {
        if g.threads[t].status == Status::Blocked(BlockKind::Mutex(mutex_addr)) {
            g.threads[t].status = Status::Ready;
        }
    }
    g.oplog.push(format!("T{} waits on C{cv_addr:#x}", h.tid));
    let Some(mut g) = block_until_runnable(&h.shared, g, h.tid, BlockKind::Condvar(cv_addr)) else {
        return;
    };
    // Woken: reacquire the mutex before returning to the caller.
    loop {
        let st = g.mutexes.entry(mutex_addr).or_default();
        if st.held_by.is_none() {
            st.held_by = Some(h.tid);
            let rel = st.rel_clock.clone();
            g.threads[h.tid].clock.join(&rel);
            g.oplog.push(format!("T{} relocks M{mutex_addr:#x}", h.tid));
            return;
        }
        let Some(next) = block_until_runnable(&h.shared, g, h.tid, BlockKind::Mutex(mutex_addr))
        else {
            return;
        };
        g = next;
    }
}

pub(super) fn op_cv_notify_all(h: &Handle, cv_addr: usize) {
    let Some(mut g) = schedule_point(&h.shared, h.tid) else {
        return;
    };
    let waiters = std::mem::take(&mut g.cvs.entry(cv_addr).or_default().waiters);
    for w in &waiters {
        g.threads[*w].status = Status::Ready;
    }
    g.oplog.push(format!(
        "T{} notifies C{cv_addr:#x} ({} waiter(s))",
        h.tid,
        waiters.len()
    ));
}

/// Drop hook for modeled mutexes/condvars.
pub(super) fn op_forget_sync(h: &Handle, addr: usize) {
    let mut g = lock(&h.shared);
    g.mutexes.remove(&addr);
    g.cvs.remove(&addr);
}

// ---------------------------------------------------------------------------
// Virtual threads
// ---------------------------------------------------------------------------

/// Restores the thread-local [`CURRENT`] handle on scope exit (including
/// unwinds).
struct CurrentGuard;

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn vthread_main(shared: &Arc<ExecShared>, tid: usize, body: impl FnOnce()) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(Handle {
            shared: Arc::clone(shared),
            tid,
        });
    });
    let _reset = CurrentGuard;
    // Wait to be scheduled for the first time.
    {
        let g = lock(shared);
        let Some(g) = wait_for_turn_quiet(shared, g, tid) else {
            return;
        };
        drop(g);
    }
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(()) => {
            let mut g = lock(shared);
            finish_thread(shared, &mut g, tid);
        }
        Err(p) => {
            let mut g = lock(shared);
            if p.downcast_ref::<Abort>().is_some() {
                // Schedule aborted elsewhere; exit quietly.
                g.threads[tid].status = Status::Finished;
            } else {
                let msg = format!("virtual thread T{tid} panicked: {}", payload_str(&*p));
                record_failure(shared, &mut g, &msg);
            }
        }
    }
}

/// Like [`wait_for_turn`] but never unwinds: used at thread startup,
/// where an abort simply means "exit before running the body".
fn wait_for_turn_quiet<'a>(
    shared: &'a ExecShared,
    mut g: MutexGuard<'a, ExecState>,
    tid: usize,
) -> Option<MutexGuard<'a, ExecState>> {
    loop {
        if g.abort {
            g.threads[tid].status = Status::Finished;
            return None;
        }
        if g.turn == Turn::Thread(tid) {
            return Some(g);
        }
        g = shared.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
    }
}

/// A handle to a virtual thread created by [`super::spawn`]; joining
/// establishes the usual happens-before edge and returns the closure's
/// value.
pub struct JoinHandle<T> {
    handle: Option<Handle>,
    tid: usize,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Blocks the calling virtual thread until the target finishes, then
    /// returns its result.
    ///
    /// # Panics
    ///
    /// Panics if called outside the model run that created the handle.
    pub fn join(self) -> T {
        let me = super::current().expect("JoinHandle::join outside a model run");
        let Some(target) = &self.handle else {
            // Handle minted while the schedule was already aborting: the
            // caller is unwinding, finish the join as quietly as possible.
            return Self::dead_join(&self.result);
        };
        assert!(
            Arc::ptr_eq(&me.shared, &target.shared),
            "JoinHandle::join from a different model run"
        );
        let Some(mut g) = schedule_point(&me.shared, me.tid) else {
            return Self::dead_join(&self.result);
        };
        if g.threads[self.tid].status != Status::Finished {
            let Some(next) = block_until_runnable(&me.shared, g, me.tid, BlockKind::Join(self.tid))
            else {
                return Self::dead_join(&self.result);
            };
            g = next;
        }
        // The join edge: everything the child did happens-before us now.
        let child_clock = g.threads[self.tid].clock.clone();
        g.threads[me.tid].clock.join(&child_clock);
        g.oplog.push(format!("T{} joins T{}", me.tid, self.tid));
        drop(g);
        self.result
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("joined thread produced no result")
    }

    /// Join fallback for a thread that is already unwinding out of an
    /// aborted schedule: it must not panic again (that would abort the
    /// process), so it takes whatever result exists and otherwise parks —
    /// in practice unreachable, since `join` from a `Drop` during an
    /// abort is the only route here.
    fn dead_join(result: &Arc<Mutex<Option<T>>>) -> T {
        if let Some(v) = result.lock().unwrap_or_else(PoisonError::into_inner).take() {
            return v;
        }
        loop {
            std::thread::park();
        }
    }
}

/// Implementation of [`super::spawn`].
pub(super) fn spawn_virtual<T, F>(h: &Handle, f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let Some(mut g) = schedule_point(&h.shared, h.tid) else {
        // Aborting mid-unwind: hand back an inert handle.
        return JoinHandle {
            handle: None,
            tid: usize::MAX,
            result: Arc::new(Mutex::new(None)),
        };
    };
    if g.threads.len() >= g.max_threads {
        let max = g.max_threads;
        fail(
            &h.shared,
            &mut g,
            &format!("too many virtual threads (max_threads = {max})"),
        );
    }
    let tid = g.threads.len();
    // The spawn edge: the child starts knowing everything its parent knew.
    let clock = g.threads[h.tid].clock.clone();
    g.threads.push(VThread::new(clock));
    let result = Arc::new(Mutex::new(None));
    let result2 = Arc::clone(&result);
    let shared2 = Arc::clone(&h.shared);
    let os = std::thread::Builder::new()
        .name(format!("model-t{tid}"))
        .spawn(move || {
            vthread_main(&shared2, tid, move || {
                let v = f();
                *result2.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
            });
        })
        .expect("failed to spawn model OS thread");
    g.os_handles.push(os);
    g.oplog.push(format!("T{} spawns T{tid}", h.tid));
    JoinHandle {
        handle: Some(Handle {
            shared: Arc::clone(&h.shared),
            tid,
        }),
        tid,
        result,
    }
}

// ---------------------------------------------------------------------------
// The controller: schedule loop, DFS advance, public entry points
// ---------------------------------------------------------------------------

impl ExecState {
    fn new(opts: &Options) -> Self {
        ExecState {
            mode: Mode::Dfs,
            turn: Turn::Controller,
            threads: Vec::new(),
            mem: HashMap::new(),
            next_lid: 0,
            sc_clock: VClock::default(),
            mutexes: HashMap::new(),
            cvs: HashMap::new(),
            tape: Vec::new(),
            pos: 0,
            preemptions: 0,
            bound: opts.preemption_bound,
            steps: 0,
            max_steps: opts.max_steps,
            max_threads: opts.max_threads,
            rng: 0,
            oplog: Vec::new(),
            failure: None,
            abort: false,
            os_handles: Vec::new(),
        }
    }

    /// Resets per-schedule state; the tape survives (it *is* the DFS
    /// cursor).
    fn reset_for_schedule(&mut self, mode: Mode, rng_seed: u64) {
        self.mode = mode;
        self.turn = Turn::Thread(0);
        self.threads = vec![VThread::new(VClock::default())];
        self.mem.clear();
        self.next_lid = 0;
        self.sc_clock = VClock::default();
        self.mutexes.clear();
        self.cvs.clear();
        if mode == Mode::Random {
            self.tape.clear();
        }
        self.pos = 0;
        self.preemptions = 0;
        self.steps = 0;
        self.rng = rng_seed;
        self.oplog.clear();
        self.failure = None;
        self.abort = false;
    }

    /// Bumps the deepest choice that still has unexplored options;
    /// `false` when the whole bounded space has been enumerated.
    fn advance_tape(&mut self) -> bool {
        while let Some(last) = self.tape.last_mut() {
            if last.picked + 1 < last.options {
                last.picked += 1;
                return true;
            }
            self.tape.pop();
        }
        false
    }
}

fn run_one_schedule(
    shared: &Arc<ExecShared>,
    f: &Arc<dyn Fn() + Send + Sync>,
    mode: Mode,
    rng_seed: u64,
) -> Result<(), String> {
    {
        let mut g = lock(shared);
        g.reset_for_schedule(mode, rng_seed);
    }
    let shared0 = Arc::clone(shared);
    let f0 = Arc::clone(f);
    let h0 = std::thread::Builder::new()
        .name("model-t0".into())
        .spawn(move || vthread_main(&shared0, 0, move || f0()))
        .expect("failed to spawn model OS thread");
    {
        let mut g = lock(shared);
        g.os_handles.push(h0);
    }
    let handles = {
        let mut g = lock(shared);
        while g.turn != Turn::Controller {
            g = shared.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut g.os_handles)
    };
    for h in handles {
        // A virtual thread never propagates a panic out of vthread_main;
        // join errors would mean a bug in the engine itself.
        let _ = h.join();
    }
    let mut g = lock(shared);
    match g.failure.take() {
        Some(msg) => Err(msg),
        None => Ok(()),
    }
}

/// Runs `f` under the model checker, returning the exploration [`Report`]
/// or the first [`Failure`] found. See the [`super`] module docs.
///
/// # Errors
///
/// Returns [`Failure`] — message, per-operation trace, and replaying
/// choice tape — for the first schedule that panics, asserts, deadlocks,
/// diverges, or exhausts its step budget.
pub fn try_explore<F>(opts: Options, f: F) -> Result<Report, Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let shared = Arc::new(ExecShared {
        state: Mutex::new(ExecState::new(&opts)),
        cv: Condvar::new(),
    });
    let mut exhaustive = 0usize;
    let mut complete = true;
    loop {
        run_one_schedule(&shared, &f, Mode::Dfs, 0).map_err(|message| Failure {
            message,
            schedules_explored: exhaustive,
        })?;
        exhaustive += 1;
        if exhaustive >= opts.max_schedules {
            complete = false;
            break;
        }
        let advanced = {
            let mut g = lock(&shared);
            g.advance_tape()
        };
        if !advanced {
            break;
        }
    }
    let mut seed = opts.seed;
    for i in 0..opts.random_schedules {
        let s = splitmix64(&mut seed);
        run_one_schedule(&shared, &f, Mode::Random, s).map_err(|message| Failure {
            message,
            schedules_explored: exhaustive + i,
        })?;
    }
    Ok(Report {
        exhaustive_schedules: exhaustive,
        random_schedules: opts.random_schedules,
        complete,
    })
}

/// Like [`try_explore`] but panics (with the full trace) on a failure —
/// the convenient form for tests.
pub fn explore<F>(opts: Options, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    match try_explore(opts, f) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}
