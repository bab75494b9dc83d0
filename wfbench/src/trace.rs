//! The traced run's instruments: spans, per-layer series and counts, the
//! counting allocator, and per-worker-thread slots for code that runs on
//! executor threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use wfqueue_executor::ExecutorStats;
use wfqueue_metrics::StepSnapshot;

use crate::stats::Reservoir;

/// The global allocator: the system allocator, plus a count of
/// allocations while [`count_allocs`] is on.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: forwarded with the caller's guarantees for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note_alloc() {
    // ORDERING: statistics only; nothing is published through them.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turns allocation counting on or off; returns the count so far.
pub fn count_allocs(on: bool) -> u64 {
    // ORDERING: statistics only.
    COUNTING.store(on, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

/// Nanoseconds since a run's base instant.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock starting now.
    #[must_use]
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started (at least 1, so 0 can mean
    /// "not stamped").
    #[must_use]
    pub fn now(&self) -> u64 {
        (self.0.elapsed().as_nanos() as u64).max(1)
    }

    /// Sleeps until the clock reads `t`.
    pub fn sleep_until(&self, t: u64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// One span: an interval some unit of work spent in one layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call or phase, e.g. `broker.publish`.
    pub name: &'static str,
    /// The unit of work (op, task or request) the span belongs to; spans
    /// of one unit share it.
    pub request: u64,
    /// The enclosing span's name, if any.
    pub parent: Option<&'static str>,
    /// The thread that recorded it (workload-local numbering).
    pub thread: u32,
    /// Start, ns on the run's clock.
    pub start_ns: u64,
    /// End, ns on the run's clock.
    pub end_ns: u64,
}

impl Span {
    /// The span as one JSON line.
    #[must_use]
    pub fn json(&self) -> String {
        let parent = self
            .parent
            .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
        format!(
            "{{\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            self.name, self.request, self.thread, self.start_ns, self.end_ns
        )
    }
}

/// Which series play the three roles every workload has: the call that
/// hands a unit of work to the stack, the call that takes one out, and
/// the hand-off between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Roles {
    /// Series of the producing call.
    pub send: &'static str,
    /// Series of the consuming call.
    pub recv: &'static str,
    /// Series of producing-call start → consumer holds the unit.
    pub handoff: &'static str,
}

/// Per-layer measurements of one traced window.
#[derive(Debug, Default)]
pub struct Layer {
    /// Durations (ns) by span name, over every unit in the window.
    pub series: BTreeMap<&'static str, Reservoir>,
    /// Step counters around each public call, with the call count.
    pub steps: BTreeMap<&'static str, (StepSnapshot, u64)>,
    /// Event counts by name.
    pub counts: BTreeMap<&'static str, u64>,
    /// A deterministic sample of spans, for the trace file.
    pub spans: Vec<Span>,
    /// Units of work completed in the window.
    pub units: u64,
    /// Allocations made in the window, all threads.
    pub allocs: u64,
    /// The role series.
    pub roles: Roles,
}

/// One in this many units has its spans written to the trace file.
pub const SPAN_SAMPLE: u64 = 64;

impl Layer {
    /// Records one duration of `name`.
    pub fn time(&mut self, name: &'static str, ns: u64) {
        self.series.entry(name).or_default().push(ns);
    }

    /// Records the steps of one `name` call.
    pub fn steps(&mut self, name: &'static str, delta: StepSnapshot) {
        let e = self.steps.entry(name).or_default();
        e.0 += delta;
        e.1 += 1;
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The count `name` (0 if never counted).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Counts what a pool did between two snapshots of its counters.
    pub fn count_executor(&mut self, a: &ExecutorStats, b: &ExecutorStats) {
        for (name, v) in [
            ("executor.completed", b.completed - a.completed),
            ("executor.from_local", b.from_local - a.from_local),
            (
                "executor.from_injection",
                b.from_injection - a.from_injection,
            ),
            ("executor.from_steal", b.from_steal - a.from_steal),
            ("executor.steal_batches", b.steal_batches - a.steal_batches),
            ("executor.stolen_tasks", b.stolen_tasks - a.stolen_tasks),
            ("executor.parks", b.parks - a.parks),
        ] {
            self.count(name, v);
        }
    }

    /// Moves `other`'s measurements into `self`.
    pub fn merge(&mut self, other: Layer) {
        for (k, v) in other.series {
            self.series.entry(k).or_default().merge(v);
        }
        for (k, (s, n)) in other.steps {
            let e = self.steps.entry(k).or_default();
            e.0 += s;
            e.1 += n;
        }
        for (k, v) in other.counts {
            self.count(k, v);
        }
        self.spans.extend(other.spans);
        self.units += other.units;
        self.allocs += other.allocs;
    }

    /// The trace file: one JSON line per sampled span, then one line of
    /// per-layer counts.
    #[must_use]
    pub fn trace_file(&self, metrics: &[(&str, f64)]) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&s.json());
            out.push('\n');
        }
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .chain(metrics.iter().map(|(k, v)| format!("\"{k}\":{v}")))
            .collect();
        let _ = writeln!(out, "{{\"per_layer\":{{{}}}}}", counts.join(","));
        out
    }
}

/// Per-thread state for code that runs on threads the benchmark does not
/// spawn itself (executor workers): each such thread gets its own slot.
#[derive(Debug)]
pub struct Slots<T> {
    id: u64,
    next: AtomicUsize,
    slots: Vec<Mutex<T>>,
}

static SLOTS_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(Slots id, slot index)` of the current thread.
    static MY_SLOT: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

impl<T: Default> Slots<T> {
    /// `n` empty slots.
    #[must_use]
    pub fn new(n: usize) -> Slots<T> {
        Slots {
            // ORDERING: a unique id; nothing is published through it.
            id: SLOTS_IDS.fetch_add(1, Ordering::Relaxed),
            next: AtomicUsize::new(0),
            slots: (0..n.max(1)).map(|_| Mutex::default()).collect(),
        }
    }

    /// The calling thread's slot index, assigning one on first use.
    #[must_use]
    pub fn index(&self) -> usize {
        MY_SLOT.with(|c| {
            let (id, i) = c.get();
            if id == self.id {
                return i;
            }
            // ORDERING: a ticket; the slot itself is behind its mutex.
            let i = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
            c.set((self.id, i));
            i
        })
    }

    /// Locks the calling thread's slot.
    pub fn mine(&self) -> MutexGuard<'_, T> {
        self.slots[self.index()]
            .lock()
            .expect("a task panicked while holding its slot")
    }

    /// Takes every slot's contents.
    pub fn take_all(&self) -> Vec<T> {
        self.slots
            .iter()
            .map(|m| {
                std::mem::take(&mut *m.lock().expect("a task panicked while holding its slot"))
            })
            .collect()
    }
}

/// Tracks the gap between consecutive task bodies on one worker thread:
/// the executor's own dispatch path (pop, steal, injection, park).
#[derive(Debug, Default)]
pub struct Dispatch {
    last_end: Option<(u64, StepSnapshot)>,
}

impl Dispatch {
    /// At a body's start: the gap since the previous body ended, in ns
    /// and steps.
    pub fn begin(&mut self, now: u64) -> Option<(u64, StepSnapshot)> {
        self.last_end
            .take()
            .map(|(t, s)| (now.saturating_sub(t), wfqueue_metrics::snapshot() - s))
    }

    /// At a body's end.
    pub fn end(&mut self, now: u64) {
        self.last_end = Some((now, wfqueue_metrics::snapshot()));
    }
}
