//! `wfqueue_executor` — a work-stealing thread-pool runtime built
//! entirely on the repo's queue stack (ROADMAP item 1, experiment E16).
//!
//! # Architecture
//!
//! Three queue tiers move `TaskRef`s (reference-counted packaged tasks):
//!
//! - **Per-worker local run queues** — one bounded [`wfqueue_ring::Ring`]
//!   per worker (wCQ-style, capacity ≤ 2¹⁵), plain FIFO with no LIFO
//!   slot: a worker pops its own ring in submission order, so the local
//!   queue inherits the ring's per-producer FIFO and starvation story
//!   instead of inventing a deque. Each worker owns its ring handle, its
//!   steal handles and an injection handle in a thread-local, as each
//!   process of the paper owns its handle: no lock guards them.
//! - **Global injection queue** — a [`wfqueue_shard::ShardedUnbounded`]
//!   (§3 wait-free queue per shard, reclamation on) with
//!   [`wfqueue_shard::Routing::Nearest`]: every spawner handle enqueues
//!   on its home shard (preserving per-spawner FIFO) while worker
//!   dequeues sweep all shards, hinted-nonempty first in cyclic order
//!   from the worker's home, so no spawner's shard can strand.
//! - **Steal-half batches** — an idle worker claims up to half of a
//!   victim ring with `dequeue_batch`, runs the first stolen task, and
//!   re-queues the rest into its own ring with the ring's all-or-nothing
//!   `try_enqueue_batch`.
//!
//! Timers live in a hashed timer wheel serviced by a dedicated timeout
//! worker that injects due tasks into the global queue; idle workers, the
//! timeout worker and [`JoinHandle::join`] all park through the channel
//! crate's lost-wakeup-free [`Signal::wait_until`] (publish → re-check →
//! sleep, model-checked as `steal_park_scenario` in
//! `wfqueue_sync::model::protocols`).
//!
//! # What is and is not wait-free
//!
//! Not every queue hop is wait-free today. Three hops block or only make
//! lock-free progress:
//!
//! - an [`Executor::spawn`] from a thread outside the pool takes the
//!   `fallback` `Mutex` around a shared injection handle; a [`Spawner`]
//!   avoids it (ROADMAP item 6);
//! - ring ticket claims (local push/pop and steal) are lock-free, not
//!   wait-free — see the `wfqueue_ring` crate docs;
//! - the reclaiming injection queue pins the vendored epoch shim, which
//!   does every pin under one process-wide lock (ROADMAP item 1).
//!
//! *Parking* is blocking by design — the point of the Dekker handshake is
//! that blocking never loses a wakeup, not that it never blocks. See
//! DESIGN.md §executor.
//!
//! # Shutdown certification
//!
//! Every spawn path — [`Executor::spawn`], [`Spawner::spawn`],
//! [`Executor::spawn_after`] and the timeout worker's firing — runs
//! inside an entry of the pool's [`Seal`], the same drain-then-close type
//! broker topics use (its proof lives with the type). A spawn enters,
//! enqueues, counts itself in `spawned` and drops the entry;
//! [`Executor::shutdown`] seals. Workers only exit once the seal is
//! drained and `spawned == completed`, and `shutdown()` asserts that
//! final equality — the "no task stranded" certificate.
//!
//! # Quickstart
//!
//! ```
//! use wfqueue_executor::Executor;
//!
//! let pool = Executor::with_workers(2);
//! let handle = pool.spawn(|| 6 * 7).expect("pool is open");
//! assert_eq!(handle.join().expect("task ran"), 42);
//!
//! let stats = pool.shutdown();
//! assert_eq!(stats.spawned, stats.completed);
//! ```
#![deny(missing_docs)]

mod task;
mod timer;

pub use task::{JoinError, JoinHandle};

use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use wfqueue::unbounded;
use wfqueue_channel::{Entry, Seal, Signal};
use wfqueue_ring::{Ring, RingHandle};
use wfqueue_shard::{ReclaimPolicy, Routing, ShardedHandle, ShardedQueue, ShardedUnbounded};
use wfqueue_sync::atomic::{AtomicU64, Ordering};
use wfqueue_sync::thread;

use task::{Task, TaskRef};
use timer::TimerWheel;

/// How many tasks one injection-queue sweep pulls into a worker.
const INJECTION_BATCH: usize = 32;

/// Root blocks between truncation passes on each injection shard — the
/// channel's default period.
const INJECTION_RECLAIM_PERIOD: usize = 64;

/// Cap on tasks claimed by one steal (before the half-of-victim rule).
const STEAL_MAX: usize = 16;

/// Process-wide pool id mint, so thread names and `Debug` output tell
/// pools apart.
static POOL_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The current thread's handles when it is a pool worker. Borrowed
    /// only across operations on those handles, never while a task runs
    /// or a `TaskRef` drops, so user code never meets the borrow.
    static WORKER: RefCell<Option<Worker>> = const { RefCell::new(None) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration for [`Executor::new`].
///
/// ```
/// use wfqueue_executor::{Executor, ExecutorConfig};
///
/// let pool = Executor::new(ExecutorConfig {
///     workers: 3,
///     local_queue_capacity: 256,
///     ..ExecutorConfig::default()
/// });
/// let h = pool.spawn(|| "hi").expect("open");
/// assert_eq!(h.join().expect("ran"), "hi");
/// pool.shutdown();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Worker thread count (≥ 1). The timeout worker is extra.
    pub workers: usize,
    /// Capacity of each worker's bounded local run queue; clamped to
    /// `[2, wfqueue_ring::MAX_CAPACITY]` (the ring's 2¹⁵ ceiling).
    pub local_queue_capacity: usize,
    /// How many detached [`Spawner`] handles [`Executor::try_spawner`]
    /// may mint (each owns a routed injection-queue handle).
    pub max_spawners: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            local_queue_capacity: 1024,
            max_spawners: 16,
        }
    }
}

/// A spawn was refused because the pool is sealed (shutdown started).
/// The closure is handed back so the caller can run or reroute it —
/// "either run or reported rejected, never lost".
pub struct Rejected<F>(pub F);

impl<F> std::fmt::Debug for Rejected<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Rejected(..)")
    }
}

impl<F> std::fmt::Display for Rejected<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("spawn rejected: executor is shut down")
    }
}

/// Monotonic counters describing one pool's lifetime, snapshot by
/// [`Executor::stats`] and returned by [`Executor::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ExecutorStats {
    /// Worker thread count.
    pub workers: usize,
    /// Tasks admitted into a run queue (timer tasks count at fire time).
    pub spawned: u64,
    /// Tasks executed to completion (including panicked ones).
    pub completed: u64,
    /// Spawns refused because the pool was sealed.
    pub rejected: u64,
    /// Steals that claimed at least one task.
    pub steal_batches: u64,
    /// Total tasks moved by steals.
    pub stolen_tasks: u64,
    /// Times a worker parked on the idle signal.
    pub parks: u64,
    /// Completed tasks that came off the worker's own local ring.
    pub from_local: u64,
    /// Completed tasks that came off the global injection queue.
    pub from_injection: u64,
    /// Completed tasks first run straight off a steal batch.
    pub from_steal: u64,
    /// Timer entries that fired into the pool.
    pub timer_fired: u64,
    /// Timer entries cancelled (explicitly or by shutdown).
    pub timer_cancelled: u64,
}

impl ExecutorStats {
    /// The drain certificate: every admitted task ran.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.spawned == self.completed
    }

    /// Whether the per-source attribution partitions `completed`
    /// (`from_local + from_injection + from_steal == completed`).
    #[must_use]
    pub fn sources_partition_completed(&self) -> bool {
        self.from_local + self.from_injection + self.from_steal == self.completed
    }
}

#[derive(Default)]
struct Counters {
    spawned: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    steal_batches: AtomicU64,
    stolen_tasks: AtomicU64,
    parks: AtomicU64,
    from_local: AtomicU64,
    from_injection: AtomicU64,
    from_steal: AtomicU64,
    timer_fired: AtomicU64,
    timer_cancelled: AtomicU64,
}

/// Where a dequeued task came from, for the source counters.
#[derive(Clone, Copy)]
enum Source {
    Local,
    Injection,
    Steal,
}

/// Pool state shared between the [`Executor`], its [`Spawner`]s and the
/// worker threads.
///
/// It holds no handles. Every `'static`-extended handle into `injection`
/// or `rings` sits in a struct (`Spawner`, `Worker`) whose last field
/// holds the `Arc<Inner>` that owns them, so the handle drops first.
struct Inner {
    injection: ShardedUnbounded<TaskRef>,
    rings: Vec<Ring<TaskRef>>,
    wheel: TimerWheel,
    /// Idle-worker parking lot (the lost-wakeup-free event count).
    signal: Signal,
    /// Every spawn runs inside an entry; shutdown seals it. Its wake
    /// signal is `signal`: workers park there while entries drain.
    seal: Seal,
    counters: Counters,
    pool_id: u64,
    workers: usize,
}

impl Inner {
    /// Ends a spawn's seal entry once its task is enqueued: counts the
    /// task in `spawned` first, so a worker that sees the seal drained
    /// sees every admitted task in `spawned`.
    fn spawned(&self, entry: Entry<'_>) {
        // ORDERING: SeqCst spawned increment *before* the entry drops;
        // pairs with the workers' `exit_ready` read.
        self.counters.spawned.fetch_add(1, Ordering::SeqCst);
        drop(entry);
    }

    /// Counts a spawn the seal refused and hands its closure back.
    fn reject<F>(&self, f: F) -> Rejected<F> {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        Rejected(f)
    }

    /// Safe for a worker to exit: the seal is drained (no spawn in
    /// flight, none to come) and every admitted task has run.
    fn exit_ready(&self) -> bool {
        // ORDERING: SeqCst counter pair, read after the seal — a racing
        // spawn is either refused or visible in `spawned`.
        self.seal.is_drained()
            && self.counters.spawned.load(Ordering::SeqCst)
                == self.counters.completed.load(Ordering::SeqCst)
    }

    /// Runs a dequeued task and publishes its completion.
    fn run_task(&self, t: &TaskRef, source: Source) {
        let counter = match source {
            Source::Local => &self.counters.from_local,
            Source::Injection => &self.counters.from_injection,
            Source::Steal => &self.counters.from_steal,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let ran = t.run();
        debug_assert!(ran, "a queued task was already consumed elsewhere");
        // ORDERING: SeqCst completion increment — the last task's
        // completion must be visible to peers evaluating `exit_ready`.
        self.counters.completed.fetch_add(1, Ordering::SeqCst);
        // Only sealed pools have peers parked waiting for quiescence
        // rather than for work.
        if self.seal.is_sealed() {
            self.signal.notify();
        }
    }

    fn stats(&self) -> ExecutorStats {
        ExecutorStats {
            workers: self.workers,
            // ORDERING: SeqCst mirrors the spawn-side writes — these
            // three counters form the drain certificate (`exit_ready`
            // compares them after the seal), so reads must join that
            // single total order.
            spawned: self.counters.spawned.load(Ordering::SeqCst),
            completed: self.counters.completed.load(Ordering::SeqCst),
            rejected: self.counters.rejected.load(Ordering::SeqCst),
            steal_batches: self.counters.steal_batches.load(Ordering::Relaxed),
            stolen_tasks: self.counters.stolen_tasks.load(Ordering::Relaxed),
            parks: self.counters.parks.load(Ordering::Relaxed),
            from_local: self.counters.from_local.load(Ordering::Relaxed),
            from_injection: self.counters.from_injection.load(Ordering::Relaxed),
            from_steal: self.counters.from_steal.load(Ordering::Relaxed),
            timer_fired: self.counters.timer_fired.load(Ordering::Relaxed),
            timer_cancelled: self.counters.timer_cancelled.load(Ordering::Relaxed),
        }
    }
}

/// Cancellation handle for a [`Executor::spawn_after`] timer entry.
///
/// Dropping the key detaches the timer (it still fires); `cancel`
/// removes it, resolving its [`JoinHandle`] to [`JoinError::Cancelled`].
pub struct TimerKey {
    inner: Arc<Inner>,
    slot: usize,
    id: u64,
}

impl std::fmt::Debug for TimerKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerKey").field("id", &self.id).finish()
    }
}

impl TimerKey {
    /// Cancels the timer if it has not fired yet. Returns whether this
    /// call won the race (fire and cancel are mutually exclusive under
    /// the wheel's bucket lock, so exactly one side claims the entry).
    pub fn cancel(self) -> bool {
        match self.inner.wheel.remove(self.slot, self.id) {
            Some(entry) => {
                (entry.cancel)();
                self.inner
                    .counters
                    .timer_cancelled
                    .fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }
}

/// A detached, `Send` spawn handle with its own per-producer-routed
/// injection-queue handle — the contention-free spawn path for threads
/// outside the pool (see [`Executor::try_spawner`]).
pub struct Spawner {
    // Field order: the `'static`-extended handle drops before the Arc
    // that owns the queue it borrows (same idiom as `Inner`).
    handle: ShardedHandle<'static, unbounded::Queue<TaskRef>>,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Spawner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spawner")
            .field("pool_id", &self.inner.pool_id)
            .finish()
    }
}

impl Spawner {
    /// Mints a spawner on the pool's injection queue, or `None` once its
    /// handle budget is spent.
    fn new(inner: &Arc<Inner>) -> Option<Spawner> {
        // SAFETY: the handle borrows the queue owned by the `Arc` cloned
        // into the same `Spawner`; the handle field is declared first, so
        // it drops before the Arc (struct-docs idiom).
        let inj: &'static ShardedUnbounded<TaskRef> =
            unsafe { &*std::ptr::from_ref(&inner.injection) };
        Some(Spawner {
            handle: inj.try_handle()?,
            inner: Arc::clone(inner),
        })
    }

    /// Spawns `f` through this handle's home injection shard.
    ///
    /// # Errors
    ///
    /// [`Rejected`] (returning `f`) if the pool is sealed.
    pub fn spawn<T, F>(&mut self, f: F) -> Result<JoinHandle<T>, Rejected<F>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let Some(entry) = self.inner.seal.enter(&self.inner.signal) else {
            return Err(self.inner.reject(f));
        };
        let (task, handle, _cancel) = Task::package(f);
        self.handle.enqueue(task);
        self.inner.spawned(entry);
        Ok(handle)
    }
}

/// The work-stealing thread pool. See the crate docs for the design.
pub struct Executor {
    inner: Arc<Inner>,
    /// Injection handle for spawns from threads that are not workers of
    /// this pool (shared, hence the mutex).
    fallback: Mutex<Spawner>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("pool_id", &self.inner.pool_id)
            .field("workers", &self.inner.workers)
            .finish()
    }
}

impl Executor {
    /// Builds and starts a pool with `config.workers` workers plus one
    /// timeout worker.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero or a worker thread cannot be
    /// spawned.
    #[must_use]
    pub fn new(config: ExecutorConfig) -> Self {
        assert!(config.workers > 0, "executor needs at least one worker");
        let workers = config.workers;
        let capacity = config
            .local_queue_capacity
            .clamp(2, wfqueue_ring::MAX_CAPACITY);
        let injection = ShardedQueue::build(
            workers,
            workers + config.max_spawners + 2,
            Routing::Nearest,
            |cap| {
                unbounded::Queue::with_reclaim(
                    cap,
                    ReclaimPolicy::EveryKRootBlocks(INJECTION_RECLAIM_PERIOD),
                )
            },
        );
        let inner = Arc::new(Inner {
            injection,
            rings: (0..workers).map(|_| Ring::new(capacity, workers)).collect(),
            wheel: TimerWheel::new(),
            signal: Signal::default(),
            seal: Seal::default(),
            counters: Counters::default(),
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            workers,
        });
        let fallback = Spawner::new(&inner).expect("injection sized for the pool");
        let mut threads = Vec::with_capacity(workers + 1);
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name(format!("wfq-exec-{}-w{w}", inner.pool_id))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn worker thread"),
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                thread::Builder::new()
                    .name(format!("wfq-exec-{}-timer", inner.pool_id))
                    .spawn(move || timer_loop(&inner))
                    .expect("spawn timeout worker"),
            );
        }
        Executor {
            inner,
            fallback: Mutex::new(fallback),
            threads: Mutex::new(threads),
        }
    }

    /// [`Executor::new`] with `workers` workers and default settings.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        Executor::new(ExecutorConfig {
            workers,
            ..ExecutorConfig::default()
        })
    }

    /// Spawns `f` onto the pool and returns its [`JoinHandle`].
    ///
    /// Called from a pool worker, the task goes straight into the
    /// worker's local ring (its own injection handle when full); any
    /// other thread takes the shared `fallback` handle. An `Ok` return
    /// means the task *will* run, even if shutdown starts immediately
    /// afterwards.
    ///
    /// # Errors
    ///
    /// [`Rejected`] (returning `f`) if the pool is sealed.
    pub fn spawn<T, F>(&self, f: F) -> Result<JoinHandle<T>, Rejected<F>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let Some(entry) = self.inner.seal.enter(&self.inner.signal) else {
            return Err(self.inner.reject(f));
        };
        let (task, handle, _cancel) = Task::package(f);
        let foreign = WORKER.with_borrow_mut(|worker| match worker {
            Some(worker) if worker.serves(&self.inner) => {
                worker.push(task);
                None
            }
            _ => Some(task),
        });
        if let Some(task) = foreign {
            lock(&self.fallback).handle.enqueue(task);
        }
        self.inner.spawned(entry);
        Ok(handle)
    }

    /// Mints a detached [`Spawner`] with its own home injection shard, or
    /// `None` once `max_spawners` are outstanding.
    #[must_use]
    pub fn try_spawner(&self) -> Option<Spawner> {
        Spawner::new(&self.inner)
    }

    /// Schedules `f` to be spawned after `delay`. The [`TimerKey`] can
    /// cancel it before it fires; shutdown cancels all pending timers
    /// (their handles resolve to [`JoinError::Cancelled`] — never lost).
    ///
    /// # Errors
    ///
    /// [`Rejected`] (returning `f`) if the pool is sealed. The
    /// registration runs inside a seal entry, so a seal that lands after
    /// this call was let in cannot refuse it: the timer is registered,
    /// and shutdown cancels it (its handle resolves to
    /// [`JoinError::Cancelled`], counted in
    /// [`ExecutorStats::timer_cancelled`]).
    pub fn spawn_after<T, F>(
        &self,
        delay: Duration,
        f: F,
    ) -> Result<(JoinHandle<T>, TimerKey), Rejected<F>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        // The entry wakes `signal`, not the wheel's: workers park on it
        // while entries drain. The timeout worker waits for the seal to
        // drain before its final sweep, so this registration is in it.
        let Some(entry) = self.inner.seal.enter(&self.inner.signal) else {
            return Err(self.inner.reject(f));
        };
        let (task, handle, cancel) = Task::package(f);
        let (slot, id) = self
            .inner
            .wheel
            .insert(Instant::now() + delay, task, cancel);
        self.inner.wheel.signal.notify();
        drop(entry);
        Ok((
            handle,
            TimerKey {
                inner: Arc::clone(&self.inner),
                slot,
                id,
            },
        ))
    }

    /// Blocks the calling thread for `duration` using the timer wheel
    /// (a `spawn_after(duration, || ())` joined in place).
    ///
    /// # Errors
    ///
    /// [`JoinError::Cancelled`] if the pool shuts down before the timer
    /// fires.
    pub fn sleep(&self, duration: Duration) -> Result<(), JoinError> {
        match self.spawn_after(duration, || ()) {
            Ok((handle, _key)) => handle.join(),
            Err(Rejected(_)) => Err(JoinError::Cancelled),
        }
    }

    /// Snapshot of the pool's counters.
    #[must_use]
    pub fn stats(&self) -> ExecutorStats {
        self.inner.stats()
    }

    /// Seals the pool, drains every admitted task, cancels pending
    /// timers, joins all threads, and returns the final counters.
    ///
    /// Idempotent and safe to race: every caller blocks until the drain
    /// finishes (joins happen under the thread-list lock).
    ///
    /// # Panics
    ///
    /// Panics if called from inside one of this pool's own tasks (the
    /// worker would join itself), or if the drain certificate
    /// `spawned == completed` fails — that is a scheduler bug.
    pub fn shutdown(&self) -> ExecutorStats {
        assert!(
            !self.on_own_worker(),
            "shutdown() called from inside one of the pool's own tasks"
        );
        self.inner.seal.seal();
        self.inner.signal.notify();
        self.inner.wheel.signal.notify();
        let mut guard = lock(&self.threads);
        for t in guard.drain(..) {
            t.join().expect("pool thread panicked");
        }
        drop(guard);
        let stats = self.inner.stats();
        assert_eq!(
            stats.spawned, stats.completed,
            "shutdown drain certificate violated: {} spawned vs {} completed",
            stats.spawned, stats.completed
        );
        stats
    }

    /// Whether the calling thread is one of this pool's workers.
    fn on_own_worker(&self) -> bool {
        WORKER.with_borrow(|w| w.as_ref().is_some_and(|w| w.serves(&self.inner)))
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if self.on_own_worker() {
            // Dropped inside one of our own tasks: joining would
            // deadlock. Seal and detach; workers drain and exit on their
            // own.
            self.inner.seal.seal();
            self.inner.signal.notify();
            self.inner.wheel.signal.notify();
            lock(&self.threads).clear();
            return;
        }
        if !lock(&self.threads).is_empty() {
            self.shutdown();
        }
    }
}

/// One worker's queue handles, owned by its thread (see `WORKER`).
///
/// Field order is load-bearing: the `'static`-extended ring handles come
/// first and `spawner`, whose `Arc<Inner>` owns the rings, comes last, so
/// the handles drop before the storage they borrow (the `Spawner` idiom).
struct Worker {
    /// This worker's own ring: its pops and its same-worker spawns.
    local: RingHandle<'static, TaskRef>,
    /// Steal handles into every other worker's ring, by victim index.
    steals: Vec<(usize, RingHandle<'static, TaskRef>)>,
    /// Where the next steal sweep starts.
    rotation: usize,
    /// This worker's injection handle: batch refills and ring overflow.
    spawner: Spawner,
}

impl Worker {
    fn new(inner: &Arc<Inner>, w: usize) -> Worker {
        // SAFETY: the handles borrow rings owned by `inner`; the worker
        // keeps a clone of that Arc in its last field, so they drop first
        // (struct-docs drop-order idiom).
        let rings: &'static [Ring<TaskRef>] = unsafe { &*std::ptr::from_ref(&inner.rings[..]) };
        // Rings are sized for owner + `workers - 1` stealers.
        let steals = rings
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != w)
            .map(|(v, ring)| (v, ring.register().expect("ring sized for stealers")))
            .collect();
        Worker {
            local: rings[w].register().expect("ring sized for its owner"),
            steals,
            rotation: w, // start victims offset per worker
            spawner: Spawner::new(inner).expect("injection sized for the pool"),
        }
    }

    /// Whether this worker belongs to the pool `inner`.
    fn serves(&self, inner: &Arc<Inner>) -> bool {
        Arc::ptr_eq(&self.spawner.inner, inner)
    }

    /// Pushes a task onto the local ring, overflowing into this worker's
    /// own injection handle.
    fn push(&mut self, task: TaskRef) {
        if let Err(task) = self.local.try_enqueue(task) {
            self.spawner.handle.enqueue(task);
        }
    }

    /// One dequeue attempt across the three tiers, in cheapness order.
    fn find_task(&mut self) -> Option<(TaskRef, Source)> {
        wfqueue_metrics::adversary_yield();
        // Tier 1: own local ring.
        if let Some(task) = self.local.dequeue() {
            return Some((task, Source::Local));
        }
        // Tier 2: sweep the injection queue; run the first task now and
        // move the rest of the batch into our local ring.
        let batch = self.spawner.handle.dequeue_batch(INJECTION_BATCH);
        let mut tasks = batch.into_iter().flatten();
        if let Some(first) = tasks.next() {
            self.push_local(tasks.collect());
            return Some((first, Source::Injection));
        }
        // Tier 3: steal half a victim's ring, rotating the starting victim.
        let n = self.steals.len();
        for i in 0..n {
            let (victim, handle) = &mut self.steals[(self.rotation + i) % n];
            let avail = self.spawner.inner.rings[*victim].approx_len();
            if avail == 0 {
                continue;
            }
            let want = avail.div_ceil(2).min(STEAL_MAX);
            let stolen: Vec<TaskRef> = handle.dequeue_batch(want).into_iter().flatten().collect();
            if stolen.is_empty() {
                continue;
            }
            self.rotation = (self.rotation + i + 1) % n;
            let counters = &self.spawner.inner.counters;
            counters.steal_batches.fetch_add(1, Ordering::Relaxed);
            counters
                .stolen_tasks
                .fetch_add(stolen.len() as u64, Ordering::Relaxed);
            let mut stolen = stolen.into_iter();
            let first = stolen.next().expect("non-empty batch");
            self.push_local(stolen.collect());
            return Some((first, Source::Steal));
        }
        None
    }

    /// Moves a claimed batch remainder into the local ring — the ring's
    /// all-or-nothing batch first, then singles with injection overflow
    /// (counters unchanged: these tasks are already `spawned`).
    fn push_local(&mut self, rest: Vec<TaskRef>) {
        if rest.is_empty() {
            return;
        }
        if let Err(rest) = self.local.try_enqueue_batch(rest) {
            for task in rest {
                self.push(task);
            }
        }
        // The batch may exceed what this worker drains promptly; let a
        // peer know there is work to steal.
        self.spawner.inner.signal.notify();
    }
}

/// One worker thread: drain local → injection → steal, then park.
fn worker_loop(inner: &Arc<Inner>, w: usize) {
    WORKER.set(Some(Worker::new(inner, w)));
    // The borrow ends inside each attempt: the task runs without it.
    let find = || WORKER.with_borrow_mut(|me| me.as_mut().expect("worker context").find_task());
    // `Some(None)` is the exit: the post-listen re-check must cover it
    // too, or the last completion's notify could be slept through.
    let attempt = || match find() {
        Some(found) => Some(Some(found)),
        None => inner.exit_ready().then_some(None),
    };
    loop {
        let next = match attempt() {
            Some(next) => next,
            None => {
                let mut calls = 0;
                let next = inner.signal.wait_until(None, || {
                    calls += 1;
                    attempt()
                });
                // Calls and sleeps alternate (see `Signal::wait_until`).
                inner.counters.parks.fetch_add(calls / 2, Ordering::Relaxed);
                next.expect("wait_until returns Some without a deadline")
            }
        };
        let Some((task, source)) = next else { break };
        inner.run_task(&task, source);
    }
    // Cascade the exit wakeup so sibling workers parked before the final
    // notify also re-evaluate `exit_ready`.
    inner.signal.notify();
    drop(WORKER.take());
}

/// The timeout worker: fires due timer entries into the injection queue
/// in deadline order; on seal, waits for the seal to drain (so every
/// registration that was let in is in the wheel) and cancels every
/// remaining entry.
fn timer_loop(inner: &Arc<Inner>) {
    let mut inj = inner
        .injection
        .try_handle()
        .expect("injection sized for the timeout worker");
    loop {
        if inner.seal.is_sealed() {
            break;
        }
        let now = Instant::now();
        let due = inner.wheel.take_due(now);
        if !due.is_empty() {
            for entry in due {
                if let Some(seal_entry) = inner.seal.enter(&inner.signal) {
                    inj.enqueue(entry.task);
                    inner.counters.timer_fired.fetch_add(1, Ordering::Relaxed);
                    inner.spawned(seal_entry);
                } else {
                    (entry.cancel)();
                    inner
                        .counters
                        .timer_cancelled
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            continue;
        }
        // Sleep until the next deadline; the seal, or an insert that moves
        // the deadline, wakes the sleep early.
        let parked_on = inner.wheel.next_deadline();
        inner.wheel.signal.wait_until(parked_on, || {
            (inner.seal.is_sealed() || inner.wheel.next_deadline() != parked_on).then_some(())
        });
    }
    // A seal entry lasts a handful of instructions: the wait is short.
    while !inner.seal.is_drained() {
        thread::yield_now();
    }
    for entry in inner.wheel.drain_all() {
        (entry.cancel)();
        inner
            .counters
            .timer_cancelled
            .fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_join_round_trip() {
        let pool = Executor::with_workers(2);
        let h = pool.spawn(|| 1 + 1).expect("open");
        assert_eq!(h.join().expect("ran"), 2);
        let stats = pool.shutdown();
        assert!(stats.quiescent());
        assert!(stats.sources_partition_completed());
    }

    #[test]
    fn injection_queue_reclaims_under_foreign_churn() {
        // Spawns from a non-worker thread all pass through the injection
        // queue. On a 2-core host its shards gain ~1,900 blocks per round
        // when they never truncate, and hold 700–2,200 when they do.
        const PER_ROUND: u64 = 256;
        const BOUND: usize = 6_000;
        let pool = Executor::with_workers(2);
        let live_blocks = || -> usize {
            pool.inner
                .injection
                .shards()
                .iter()
                .map(unbounded::introspect::total_blocks)
                .sum()
        };
        let round = || {
            let handles: Vec<_> = (0..PER_ROUND)
                .map(|i| pool.spawn(move || i).expect("open"))
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(h.join().expect("ran"), i as u64);
            }
        };
        round();
        for r in 0..12 {
            round();
            let blocks = live_blocks();
            assert!(blocks < BOUND, "round {r}: {blocks} blocks retained");
        }
        let stats = pool.shutdown();
        assert!(stats.quiescent());
    }

    #[test]
    fn spawn_after_fires_and_cancels() {
        let pool = Executor::with_workers(1);
        let (fast, _k) = pool
            .spawn_after(Duration::from_millis(5), || 7)
            .expect("open");
        let (never, key) = pool
            .spawn_after(Duration::from_secs(3600), || 8)
            .expect("open");
        assert_eq!(fast.join().expect("fired"), 7);
        assert!(key.cancel());
        assert!(never.join().expect_err("cancelled").is_cancelled());
        let stats = pool.shutdown();
        assert_eq!(stats.timer_fired, 1);
        assert_eq!(stats.timer_cancelled, 1);
    }

    #[test]
    fn rejected_after_shutdown_returns_closure() {
        let pool = Executor::with_workers(1);
        pool.shutdown();
        let Err(Rejected(f)) = pool.spawn(|| 41 + 1) else {
            panic!("sealed pool accepted a spawn");
        };
        assert_eq!(f(), 42);
        assert_eq!(pool.stats().rejected, 1);
    }

    #[test]
    fn worker_spawned_tasks_run() {
        let pool = Arc::new(Executor::with_workers(2));
        let p2 = Arc::clone(&pool);
        let outer = pool
            .spawn(move || {
                let h = p2.spawn(|| 10u64).expect("open");
                h.join().expect("inner ran") + 1
            })
            .expect("open");
        assert_eq!(outer.join().expect("outer ran"), 11);
    }

    #[test]
    fn panicking_task_reports_and_pool_survives() {
        let pool = Executor::with_workers(1);
        let h = pool.spawn(|| panic!("boom")).expect("open");
        let err = h.join().expect_err("panicked");
        assert!(matches!(err, JoinError::Panicked(_)));
        let ok = pool.spawn(|| 5).expect("pool survived the panic");
        assert_eq!(ok.join().expect("ran"), 5);
        let stats = pool.shutdown();
        assert!(stats.quiescent());
    }
}
