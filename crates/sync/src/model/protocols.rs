//! Executable replicas of the three trickiest lock-free protocols in this
//! workspace, with *seeded-bug* switches, for exhaustive checking under
//! [`super::explore`].
//!
//! Each scenario is a faithful, minimal port of a real protocol —
//! same atomics, same orderings, same control flow — shrunk to the
//! smallest shape that still contains the race the real code must win:
//!
//! | replica | real code | property checked |
//! |---|---|---|
//! | [`signal_scenario`] | `Signal` in `crates/channel/src/wait.rs` | no lost wakeup (a parked waiter is always woken) |
//! | [`gate_scenario`] | `try_reserve`/`release` in `crates/channel/src/endpoint.rs` | capacity never exceeded; a reserved slot's previous cleanup is visible |
//! | [`hazard_scenario`] | `begin_op`/`truncate_locked` in `crates/core/src/unbounded/reclaim.rs` | the truncator never frees a slot a published hazard still clamps to, nor releases the slot chunk that holds it |
//! | [`scan_scenario`] | `plan_nearest_scan`/`ShardHints` in `crates/shard/src/policy.rs` | an enqueued value is never stranded by a stale `Relaxed` emptiness hint (the fallback pass makes correctness hint-independent) |
//! | [`ring_scenario`] | slot/record handshake of `crates/ring/src/lib.rs` | a stalled helper from an earlier ticket can never fill a recycled slot or deliver into a later operation's result (the phase tags) |
//! | [`steal_park_scenario`] | worker park/steal drain in `crates/executor/src/lib.rs` | a steal racing a park never loses a wakeup, and a successful steal CAS acquires the stolen task's payload |
//!
//! The bug structs ([`SignalBugs`], [`GateBugs`], [`HazardBugs`],
//! [`ScanBugs`], [`RingBugs`], [`StealParkBugs`]) switch individual lines
//! of the protocols off or weaken their orderings. With all flags `false` the
//! scenarios must survive *every* schedule (`tests/model.rs` asserts
//! exhaustive passes); with any flag `true` the explorer must find a
//! failing schedule (`tests/checker_power.rs` asserts detection — that is
//! the evidence the checker has teeth, not just that the protocols are
//! green).
//!
//! Replicas, not the real types, are what get checked because the real
//! hot paths intermix metrics recording and epoch pins that are sound by
//! construction but would multiply the schedule space; the replicas
//! preserve exactly the shared-memory dance the correctness arguments in
//! the real modules' docs are about. `tests/checker_power.rs` is the
//! fidelity guard: if a replica drifted into something trivially correct,
//! its seeded mutations would stop being detected and the suite would
//! fail.

use std::sync::Arc;

use crate::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

use super::{spawn, Condvar, Mutex};

/// Hazard value meaning "no operation in flight" (mirrors
/// `reclaim::IDLE`).
const IDLE: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// Signal: the event-count / Dekker wakeup handshake
// ---------------------------------------------------------------------------

/// Seeded bugs for [`signal_scenario`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SignalBugs {
    /// Drop the `SeqCst` fence at the top of `notify` — the fence that
    /// orders the notifier's (release-only) data publication before its
    /// read of `waiters` in the SC total order. Without it the notifier
    /// can take the "nobody is listening" fast path while a waiter,
    /// still able to read the stale data value, goes to sleep: a lost
    /// wakeup, detected as a deadlock.
    pub skip_notify_fence: bool,
    /// Skip the waiter's re-check of its condition between `listen` and
    /// `wait` — the other half of the handshake. A notifier that ran
    /// entirely before the publication then never advances the epoch,
    /// and the waiter sleeps forever.
    pub skip_listen_recheck: bool,
}

/// Replica of `Signal` (`crates/channel/src/wait.rs`): event count +
/// waiter count, with the blocking half on modeled mutex/condvar.
struct SignalProto {
    waiters: AtomicUsize,
    epoch: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SignalProto {
    fn new() -> Self {
        SignalProto {
            waiters: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// `Signal::listen`: publish, then snapshot the epoch.
    fn listen(&self) -> u64 {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        self.epoch.load(Ordering::SeqCst)
    }

    /// `Signal::cancel`: withdraw a publication without sleeping.
    fn cancel(&self) {
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// `Signal::wait`: park until the epoch leaves the snapshot.
    fn wait(&self, key: u64) {
        let mut guard = self.lock.lock();
        while self.epoch.load(Ordering::SeqCst) == key {
            guard = self.cv.wait(guard);
        }
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// `Signal::notify`: fence, fast-path check, then epoch bump +
    /// broadcast under the lock.
    fn notify(&self, bugs: SignalBugs) {
        if !bugs.skip_notify_fence {
            // The replica of wait.rs's load-bearing fence: orders the
            // caller's data store before the `waiters` read below.
            fence(Ordering::SeqCst);
        }
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        {
            let _guard = self.lock.lock();
            self.epoch.fetch_add(1, Ordering::SeqCst);
            self.cv.notify_all();
        }
    }
}

/// The no-lost-wakeup scenario: `1 + usize::from(extra_waiter)` waiters
/// block on a `SignalProto` for a data flag the main thread publishes
/// with `Release` (deliberately *not* `SeqCst`: the real notifier's state
/// update — an enqueue — is not SC either, which is exactly why `notify`
/// needs its fence) followed by `notify`. Every waiter must terminate;
/// a lost wakeup parks a waiter forever and surfaces as a modeled
/// deadlock.
pub fn signal_scenario(bugs: SignalBugs, extra_waiter: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let sig = Arc::new(SignalProto::new());
        let data = Arc::new(AtomicU64::new(0));
        let waiters = 1 + usize::from(extra_waiter);
        let mut handles = Vec::new();
        for _ in 0..waiters {
            let sig = Arc::clone(&sig);
            let data = Arc::clone(&data);
            handles.push(spawn(move || {
                loop {
                    if data.load(Ordering::Acquire) == 1 {
                        break;
                    }
                    let key = sig.listen();
                    // The re-check that closes the race against a notify
                    // that ran before the publication above.
                    if !bugs.skip_listen_recheck && data.load(Ordering::Acquire) == 1 {
                        sig.cancel();
                        break;
                    }
                    sig.wait(key);
                }
                assert_eq!(
                    data.load(Ordering::Acquire),
                    1,
                    "waiter woke before the notifier's data store was visible"
                );
            }));
        }
        // The notifier (main virtual thread): publish data, then notify —
        // the exact shape of a channel send.
        data.store(1, Ordering::Release);
        sig.notify(bugs);
        for h in handles {
            h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Capacity gate: bounded-channel slot reservation
// ---------------------------------------------------------------------------

/// Seeded bugs for [`gate_scenario`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GateBugs {
    /// Weaken the reservation CAS's orderings from `SeqCst` to
    /// `Relaxed`. The CAS still wins slots atomically (capacity is never
    /// exceeded — atomicity is not ordering), but a successful CAS that
    /// is the *first* operation to read a receiver's `fetch_sub` release
    /// no longer acquires that receiver's slot cleanup: the new holder
    /// can observe the previous occupant's stale payload. The window
    /// needs a second producer — for the producer whose fresh
    /// `len.load(SeqCst)` read the release, that load already carried
    /// the edge; the victim is the racer whose load predates the
    /// release and whose CAS lands on it directly.
    pub weak_cas: bool,
}

/// Replica of the bounded channel's in-flight gate
/// (`crates/channel/src/endpoint.rs`): `len` is the reservation counter,
/// `cell` stands for the single payload slot a capacity-1 channel
/// protects (`0` = empty; the fill is one `SeqCst` store, standing in
/// for the real queue enqueue whose own protocol is `SeqCst`-heavy).
struct Gate {
    len: AtomicUsize,
    cell: AtomicU64,
}

impl Gate {
    /// One pass of `try_reserve(1)` against capacity `cap`: the real CAS
    /// loop minus the metrics hooks. Returns `false` when the gate is
    /// full right now (the caller yields and retries, as the blocking
    /// send path does via its `Signal`).
    fn try_reserve_once(&self, cap: usize, bugs: GateBugs) -> bool {
        let order = if bugs.weak_cas {
            Ordering::Relaxed
        } else {
            Ordering::SeqCst
        };
        let mut len = self.len.load(Ordering::SeqCst);
        loop {
            if len + 1 > cap {
                return false;
            }
            match self.len.compare_exchange_weak(len, len + 1, order, order) {
                Ok(prev) => {
                    assert!(prev < cap, "capacity gate exceeded its bound");
                    return true;
                }
                Err(current) => len = current,
            }
        }
    }

    /// A producer round: spin-reserve a slot, assert it arrives clean
    /// (the previous occupant's cleanup must be visible to the new
    /// holder — the happens-before edge the gate's orderings carry),
    /// then fill it with `mark`.
    fn produce(&self, mark: u64, bugs: GateBugs) {
        while !self.try_reserve_once(1, bugs) {
            crate::thread::yield_now();
        }
        assert_eq!(
            self.cell.load(Ordering::Relaxed),
            0,
            "reserved a slot whose previous occupant's cleanup is not visible"
        );
        self.cell.store(mark, Ordering::SeqCst);
    }

    /// A consumer round, non-blocking: if a payload is present, empty the
    /// slot and `release(1)` it back — the real code's
    /// `fetch_sub(SeqCst)`.
    fn try_consume(&self) -> Option<u64> {
        let v = self.cell.load(Ordering::SeqCst);
        if v == 0 {
            return None;
        }
        self.cell.store(0, Ordering::Relaxed);
        self.len.fetch_sub(1, Ordering::SeqCst);
        Some(v)
    }
}

/// The slot-handoff scenario on a capacity-1 gate: a rival producer
/// races one round (mark 11) against the main thread, which produces
/// mark 9 and consumes both payloads in whatever order the gate admits
/// them. Checked in every schedule: the gate never admits past capacity,
/// nobody deadlocks, every reserved slot arrives *clean* (the releasing
/// consumer's cleanup is visible to the winning producer), and exactly
/// `{9, 11}` drain, once each.
///
/// The clean-slot assert is what the reservation CAS's `SeqCst` buys,
/// and the rival is the victim: in the schedule where the rival loads
/// `len == 0`, then the main thread reserves, fills 9, and consumes it
/// (cleanup + release) before the rival's CAS lands, that CAS succeeds
/// against a release it never loaded — only its ordering can carry the
/// cleanup edge. See [`GateBugs::weak_cas`].
pub fn gate_scenario(bugs: GateBugs) -> impl Fn() + Send + Sync + 'static {
    move || {
        let gate = Arc::new(Gate {
            len: AtomicUsize::new(0),
            cell: AtomicU64::new(0),
        });
        let gate_p = Arc::clone(&gate);
        let rival = spawn(move || gate_p.produce(11, bugs));
        let mut produced = false;
        let mut seen = [false; 2];
        let mut consumed = 0;
        while !produced || consumed < 2 {
            if !produced && gate.try_reserve_once(1, bugs) {
                assert_eq!(
                    gate.cell.load(Ordering::Relaxed),
                    0,
                    "reserved a slot whose previous occupant's cleanup is not visible"
                );
                gate.cell.store(9, Ordering::SeqCst);
                produced = true;
                continue;
            }
            if consumed < 2 {
                if let Some(v) = gate.try_consume() {
                    assert!(v == 9 || v == 11, "consumed a torn payload");
                    let idx = usize::from(v == 11);
                    assert!(!seen[idx], "payload {v} consumed twice");
                    seen[idx] = true;
                    consumed += 1;
                    continue;
                }
            }
            crate::thread::yield_now();
        }
        rival.join();
        assert!(seen[0] && seen[1], "both payloads must drain");
    }
}

// ---------------------------------------------------------------------------
// Reclamation hazard: publish-then-recheck vs publish-then-scan
// ---------------------------------------------------------------------------

/// Seeded bugs for [`hazard_scenario`].
#[derive(Clone, Copy, Debug, Default)]
pub struct HazardBugs {
    /// Skip the reader's re-check of the frontier after publishing its
    /// hazard. A truncator that advanced the frontier and scanned hazards
    /// *between the reader's frontier load and its publication* never saw
    /// the hazard — and frees the very slot the reader clamps to.
    pub skip_publish_recheck: bool,
    /// Publish the hazard with `Relaxed` instead of `SeqCst`. The
    /// publication then never enters the SC order the truncator's scan
    /// relies on: the scan can miss a hazard that was (program-order)
    /// published before it.
    pub relaxed_hazard_store: bool,
    /// Round the chunk release *up* to the next chunk boundary instead of
    /// down: the truncator then also releases the chunk that holds the
    /// boundary slot `f_final - 1`, which is exactly the slot a held
    /// hazard clamps to.
    pub round_chunk_release_up: bool,
}

/// Slots per chunk in the hazard replica (the real `SegVec` uses 64; two
/// keep the boundary chunk and the released prefix both in reach of a
/// three-slot frontier).
const REPLICA_CHUNK: u64 = 2;

/// The reclamation-frontier scenario, replica of
/// `crates/core/src/unbounded/reclaim.rs`: a reader runs `begin_op`'s
/// publish-then-recheck loop and then touches the slot `frontier - 1` it
/// clamped to, while a truncator advances the frontier to 3 using the
/// real pass's order — *publish the new frontier, then scan hazards,
/// then free below `min(frontier, hazards) - 1`, then release the slot
/// chunks lying wholly below that boundary*. The reader asserts its clamp
/// slot was never freed and that the chunk holding it was never released;
/// `freed_below` stands for the unlinked prefix, `released_below` for the
/// first slot of the oldest chunk still linked.
pub fn hazard_scenario(bugs: HazardBugs) -> impl Fn() + Send + Sync + 'static {
    move || {
        let frontier = Arc::new(AtomicU64::new(1));
        let hazard = Arc::new(AtomicU64::new(IDLE));
        let freed_below = Arc::new(AtomicU64::new(0));
        let released_below = Arc::new(AtomicU64::new(0));
        let (frontier2, hazard2, freed2, released2) = (
            Arc::clone(&frontier),
            Arc::clone(&hazard),
            Arc::clone(&freed_below),
            Arc::clone(&released_below),
        );
        let truncator = spawn(move || {
            // `truncate_locked`: two more root blocks proven dead.
            let cur = frontier2.load(Ordering::SeqCst);
            let intent = cur.max(3);
            // Publish intent BEFORE scanning hazards — the line the
            // begin_op recheck argument leans on.
            frontier2.store(intent, Ordering::SeqCst);
            let h = hazard2.load(Ordering::SeqCst);
            let f_final = if h == IDLE { intent } else { intent.min(h) };
            // Free the dead prefix: slots < f_final - 1 (slot f_final - 1
            // itself survives as the boundary summary).
            let cut = f_final - 1;
            freed2.store(cut, Ordering::SeqCst);
            // `take_chunks_below(cut)`: release only the chunks lying
            // wholly below the boundary; the boundary's own chunk stays.
            let chunks = if bugs.round_chunk_release_up {
                cut / REPLICA_CHUNK + 1
            } else {
                cut / REPLICA_CHUNK
            };
            // ORDERING: SC like the free above, so the reader's SC check
            // sees the release in the same total order as the hazard scan.
            released2.store(chunks * REPLICA_CHUNK, Ordering::SeqCst);
        });
        // The reader: `begin_op`'s publish-then-recheck.
        let store_order = if bugs.relaxed_hazard_store {
            Ordering::Relaxed
        } else {
            Ordering::SeqCst
        };
        let published = loop {
            let f = frontier.load(Ordering::SeqCst);
            hazard.store(f, store_order);
            // Recheck: a stable frontier proves any concurrent scan saw
            // our publication.
            if bugs.skip_publish_recheck || frontier.load(Ordering::SeqCst) == f {
                break f;
            }
        };
        // The operation's backwards searches clamp to slot
        // `published - 1` (OpGuard::floor); it must stay allocated while
        // the hazard is up.
        let slot = published - 1;
        // The chunk holding that slot must stay linked as well. Read the
        // release before the free: the truncator stores them in the other
        // order, so a release this read sees implies a free the next read
        // sees, and a freed clamp slot is always reported as such.
        // ORDERING: SC read of the release, mirroring the free's check.
        let released = released_below.load(Ordering::SeqCst);
        assert!(
            slot >= freed_below.load(Ordering::SeqCst),
            "truncator freed the slot a published hazard clamps to"
        );
        assert!(
            slot >= released,
            "truncator released the chunk holding a published hazard's clamp slot"
        );
        // `end_op`: clear the hazard.
        hazard.store(IDLE, Ordering::SeqCst);
        truncator.join();
    }
}

// ---------------------------------------------------------------------------
// Nearest scan: hint-guided probing with an unconditional fallback pass
// ---------------------------------------------------------------------------

/// Seeded bugs for [`scan_scenario`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanBugs {
    /// Skip the scan's second, hint-ignoring pass over all shards. The
    /// hints are `Relaxed` and advisory; a consumer that trusts them
    /// exclusively can read a stale `false` for a shard that holds a
    /// value *forever* (coherence permits it — nothing ever synchronises
    /// the hint store to this reader), and spin without ever probing the
    /// shard: a stranded value, detected as a livelock.
    pub skip_fallback: bool,
}

/// Replica of the contention-aware dequeue scan
/// (`plan_nearest_scan` + `ShardHints` in `crates/shard/src/policy.rs`):
/// two shards, modeled as one-value cells (`0` = empty, probe =
/// `swap(0, SeqCst)`, standing in for the shard dequeue whose own
/// protocol is `SeqCst`-heavy), and two `Relaxed` advisory emptiness
/// hints. A producer deposits 7 in the *far* shard and only then raises
/// its hint — exactly `mark_nonempty`'s ordering — while the hint starts
/// lowered, as it is after a previous empty scan. The consumer runs the
/// real scan shape: pass 1 probes shards whose hint reads raised, pass 2
/// probes every shard regardless. In every schedule the consumer must
/// find the value: pass 2's `SeqCst` probe reads the newest cell state
/// no matter how stale the hint it saw was, which is the whole argument
/// for why the hints can stay `Relaxed`.
pub fn scan_scenario(bugs: ScanBugs) -> impl Fn() + Send + Sync + 'static {
    move || {
        const SHARDS: usize = 2;
        let cells: Arc<Vec<AtomicU64>> = Arc::new((0..SHARDS).map(|_| AtomicU64::new(0)).collect());
        let hints: Arc<Vec<AtomicUsize>> =
            Arc::new((0..SHARDS).map(|_| AtomicUsize::new(0)).collect());
        let (cells_p, hints_p) = (Arc::clone(&cells), Arc::clone(&hints));
        let producer = spawn(move || {
            // Enqueue to the far shard, then mark_nonempty: the hint is
            // raised *after* the value is visible, so a raised hint is
            // never a false promise — but a lowered one can be stale.
            cells_p[1].store(7, Ordering::SeqCst);
            hints_p[1].store(1, Ordering::Relaxed);
        });
        // The consumer: plan_nearest_scan's two passes, repeated until
        // the value surfaces (the real caller retries via its waiter).
        let found = loop {
            let mut got = None;
            // Pass 1: nearest-first over shards whose hint is raised.
            for s in 0..SHARDS {
                if hints[s].load(Ordering::Relaxed) != 0 {
                    let v = cells[s].swap(0, Ordering::SeqCst);
                    if v != 0 {
                        got = Some(v);
                        break;
                    }
                }
            }
            // Pass 2: every shard, hints be damned — the coverage
            // guarantee that makes the hints advisory-only.
            if got.is_none() && !bugs.skip_fallback {
                for s in 0..SHARDS {
                    let v = cells[s].swap(0, Ordering::SeqCst);
                    if v != 0 {
                        got = Some(v);
                        break;
                    }
                }
            }
            if let Some(v) = got {
                break v;
            }
            crate::thread::yield_now();
        };
        assert_eq!(found, 7, "scan surfaced a value nobody enqueued");
        producer.join();
    }
}

// ---------------------------------------------------------------------------
// Ring: the phase-tagged slot/record helping handshake
// ---------------------------------------------------------------------------

/// Seeded bugs for [`ring_scenario`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RingBugs {
    /// Drop the phase tag from the enqueue helper's fill CAS: match "any
    /// empty slot" (`value == 0`) instead of the announced ticket's exact
    /// phase-tagged empty word. A helper that read an announcement, was
    /// validated, and then stalled across a whole slot recycle (fill →
    /// dequeue → free) re-fills the *next* ticket's slot with its stale
    /// value — the next enqueuer sees its slot full, assumes its own fill
    /// landed, and the stale value is delivered in place of the real one.
    pub untagged_slot_cas: bool,
    /// Drop the phase tag from the dequeue result word: initialise the
    /// owner's `result` to a bare `0` and deliver with a bare value
    /// instead of `(phase << …) | value`. A dequeue helper that read the
    /// slot and then stalled past the operation's completion can now CAS
    /// its stale value into the *successor* operation's freshly-reset
    /// result — the successor returns a value from the wrong ticket.
    pub untagged_result: bool,
}

/// Word-level constants of the mini ring (8-bit value, phase above).
const RING_IDLE: u64 = 0;
const RING_ENQ: u64 = 1;
const RING_DEQ: u64 = 2;

/// Packs a slot/result word: `phase << 8 | value`.
fn ring_pack(phase: u64, value: u64) -> u64 {
    (phase << 8) | value
}

/// Replica of the `wfqueue_ring` slot handshake, shrunk to capacity 1 and
/// one announcement record: `slot` cycles `empty(t) = t<<8` →
/// `full(t) = (t+1)<<8 | v` → `empty(t+1) = (t+1)<<8` (capacity 1 makes
/// phase = ticket), `word`/`aux` are the owner's published announcement,
/// and `result` is the phase-guarded completion word dequeue helpers
/// deliver into.
struct MiniRing {
    slot: AtomicU64,
    word: AtomicU64,
    aux: AtomicU64,
    result: AtomicU64,
}

impl MiniRing {
    fn new() -> Self {
        MiniRing {
            slot: AtomicU64::new(ring_pack(0, 0)),
            word: AtomicU64::new(RING_IDLE),
            aux: AtomicU64::new(0),
            result: AtomicU64::new(0),
        }
    }

    /// The owner's enqueue: publish the announcement, then race the
    /// helpers to fill the ticket's slot (`announce_and_fill`).
    fn enqueue(&self, ticket: u64, value: u64) {
        self.aux.store(value, Ordering::SeqCst);
        self.word
            .store((RING_ENQ << 8) | (ticket + 1), Ordering::SeqCst);
        loop {
            let cur = self.slot.load(Ordering::SeqCst);
            if cur >> 8 == ticket + 1 {
                // Filled — by this owner's CAS below or by a helper.
                break;
            }
            if cur == ring_pack(ticket, 0) {
                let _ = self.slot.compare_exchange(
                    cur,
                    ring_pack(ticket + 1, value),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                continue;
            }
            crate::thread::yield_now();
        }
        self.word.store(RING_IDLE, Ordering::SeqCst);
    }

    /// The initial (undelivered) result word for `ticket` — phase-tagged,
    /// unless [`RingBugs::untagged_result`] strips the tag.
    fn result_init(ticket: u64, bugs: RingBugs) -> u64 {
        if bugs.untagged_result {
            0
        } else {
            ring_pack(ticket, 0)
        }
    }

    /// The owner's dequeue: reset the result, publish the announcement,
    /// then race the helpers to deliver the ticket's value and free the
    /// slot for the next lap.
    fn dequeue(&self, ticket: u64, bugs: RingBugs) -> u64 {
        let init = Self::result_init(ticket, bugs);
        self.result.store(init, Ordering::SeqCst);
        self.word
            .store((RING_DEQ << 8) | (ticket + 1), Ordering::SeqCst);
        let value = loop {
            let res = self.result.load(Ordering::SeqCst);
            if res & 0xFF != 0 {
                break res & 0xFF;
            }
            let cur = self.slot.load(Ordering::SeqCst);
            if cur >> 8 == ticket + 1 && cur & 0xFF != 0 {
                let delivered = if bugs.untagged_result {
                    cur & 0xFF
                } else {
                    ring_pack(ticket, cur & 0xFF)
                };
                let _ = self.result.compare_exchange(
                    init,
                    delivered,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                let _ = self.slot.compare_exchange(
                    cur,
                    ring_pack(ticket + 1, 0),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                continue;
            }
            crate::thread::yield_now();
        };
        // The real owner's post-delivery re-check: if the delivering
        // helper stalled before freeing the slot, free it here so the
        // next lap cannot wedge.
        let cur = self.slot.load(Ordering::SeqCst);
        if cur >> 8 == ticket + 1 && cur & 0xFF != 0 {
            let _ = self.slot.compare_exchange(
                cur,
                ring_pack(ticket + 1, 0),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        self.word.store(RING_IDLE, Ordering::SeqCst);
        value
    }

    /// A helper's fill attempt for an announced enqueue. Correct form:
    /// one CAS whose *expected* word is the ticket's exact phase-tagged
    /// empty state, so a stale helper simply fails. Buggy form: match any
    /// empty slot and trust its current phase.
    fn help_fill(&self, ticket: u64, value: u64, bugs: RingBugs) {
        if bugs.untagged_slot_cas {
            let cur = self.slot.load(Ordering::SeqCst);
            if cur & 0xFF == 0 {
                let _ = self.slot.compare_exchange(
                    cur,
                    ring_pack((cur >> 8) + 1, value),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
            }
        } else {
            let _ = self.slot.compare_exchange(
                ring_pack(ticket, 0),
                ring_pack(ticket + 1, value),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }

    /// A helper's delivery attempt for an announced dequeue: read the
    /// slot, deliver into the result (phase-guarded CAS), then free the
    /// slot with an exact-word CAS.
    fn help_deliver(&self, ticket: u64, bugs: RingBugs) {
        let cur = self.slot.load(Ordering::SeqCst);
        if cur >> 8 == ticket + 1 && cur & 0xFF != 0 {
            let value = cur & 0xFF;
            let (expected, delivered) = if bugs.untagged_result {
                (0, value)
            } else {
                (ring_pack(ticket, 0), ring_pack(ticket, value))
            };
            let _ = self.result.compare_exchange(
                expected,
                delivered,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            let _ = self.slot.compare_exchange(
                cur,
                ring_pack(ticket + 1, 0),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }
}

/// The slot-recycle scenario on a capacity-1 mini ring: the main thread
/// runs two full enqueue→dequeue laps (values 7 then 9) through the
/// announcement record, while a helper thread helps whatever
/// announcement it observes — reading `word`, then `aux`, then
/// revalidating `word` (the real helpers' handshake) before its CAS. The
/// explorer can park the helper between that revalidation and its CAS
/// for arbitrarily long, which is exactly the stale-helper window the
/// ring's phase tags exist for. In every schedule both laps must return
/// their own value: with [`RingBugs::untagged_slot_cas`] a lapped
/// enqueue helper re-fills the recycled slot with value 7 during lap 2,
/// The slot-recycle scenario on a capacity-1 mini ring: the main thread
/// runs two full enqueue→dequeue laps (values 7 then 9) through the
/// announcement record, while a helper thread helps whatever
/// announcement it observes — reading `word`, then `aux`, then
/// revalidating `word` (the real helpers' handshake) before its CAS. The
/// explorer can park the helper between that revalidation and its CAS
/// for arbitrarily long, which is exactly the stale-helper window the
/// ring's phase tags exist for. In every schedule both laps must return
/// their own value: with [`RingBugs::untagged_slot_cas`] a lapped
/// enqueue helper re-fills the recycled slot with value 7 during lap 2,
// ---------------------------------------------------------------------------
// Executor steal/park: the drain handshake between stealing and parking
// ---------------------------------------------------------------------------

/// Seeded bugs for [`steal_park_scenario`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StealParkBugs {
    /// Skip the worker's post-`listen` re-check of the run queue and the
    /// drain condition. A stealer that drains the last task and notifies
    /// *between* the worker's empty probe and its `listen` hits the
    /// notify fast path (no waiters yet); the worker then parks with
    /// nothing left to wake it — a lost wakeup, detected as a deadlock.
    pub skip_park_recheck: bool,
    /// Weaken the steal's claim CAS from `SeqCst` to `Relaxed`. The CAS
    /// still claims the task atomically, but a success that reads the
    /// producer's slot publication no longer *acquires* it: the stealer
    /// can observe the slot as claimed while the task's payload store —
    /// program-ordered before the publication on the producer side — is
    /// not yet visible, and runs a stale task.
    pub relaxed_steal_cas: bool,
}

/// Replica of the executor's park/steal drain
/// (`worker_loop`/`find_task`/`run_task` in `crates/executor/src/lib.rs`),
/// shrunk to a one-slot victim ring in its shutdown-drain phase
/// (`sealed` throughout, one admitted task, exit when
/// `completed == spawned == 1`):
///
/// - the **producer** (main virtual thread) publishes the task — payload
///   store (deliberately `Relaxed`: the slot publication is what carries
///   the edge, exactly as the ring hands a `TaskRef` across), then the
///   `SeqCst` slot store, then `notify` (the spawn `commit`);
/// - the **worker** runs the real loop: exit check, pop attempt
///   (`SeqCst` CAS — the ring's own protocol is `SeqCst`-heavy), then
///   `listen` → re-check (queue probe + exit condition; the seeded skip)
///   → `wait`;
/// - the **stealer** makes one claim attempt with the steal CAS (the
///   seeded weakening) and, on success, runs the task and publishes its
///   completion with `notify` — `run_task`'s sealed-drain completion
///   notify, the wakeup the parked worker's exit depends on.
///
/// In every schedule the task must run exactly once with its payload
/// visible, and both threads must terminate.
pub fn steal_park_scenario(bugs: StealParkBugs) -> impl Fn() + Send + Sync + 'static {
    move || {
        let sig = Arc::new(SignalProto::new());
        // The one-slot victim ring: 0 = empty, 1 = task present.
        let slot = Arc::new(AtomicU64::new(0));
        // The task's payload, published before the slot store.
        let payload = Arc::new(AtomicU64::new(0));
        // `completed` counter; the drain condition is `== 1`.
        let completed = Arc::new(AtomicUsize::new(0));

        let (sig_w, slot_w, payload_w, completed_w) = (
            Arc::clone(&sig),
            Arc::clone(&slot),
            Arc::clone(&payload),
            Arc::clone(&completed),
        );
        let worker = spawn(move || loop {
            // `exit_ready`: sealed (always, here) and every admitted task
            // completed.
            if completed_w.load(Ordering::SeqCst) == 1 {
                break;
            }
            // `find_task`: pop the local ring (the worker's own pop keeps
            // the ring's full orderings regardless of the steal seeding).
            if slot_w
                .compare_exchange(1, 0, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                assert_eq!(
                    payload_w.load(Ordering::Relaxed),
                    7,
                    "worker popped a task whose payload publication is not visible"
                );
                completed_w.fetch_add(1, Ordering::SeqCst);
                // `run_task`'s sealed-drain completion notify.
                sig_w.notify(SignalBugs::default());
                continue;
            }
            let key = sig_w.listen();
            // The post-listen re-check: probe the queue again and
            // re-evaluate the exit condition — the two facts a notify
            // published before our `listen` could be about.
            if !bugs.skip_park_recheck
                && (slot_w.load(Ordering::SeqCst) == 1 || completed_w.load(Ordering::SeqCst) == 1)
            {
                sig_w.cancel();
                continue;
            }
            sig_w.wait(key);
        });

        let (sig_s, slot_s, payload_s, completed_s) = (
            Arc::clone(&sig),
            Arc::clone(&slot),
            Arc::clone(&payload),
            Arc::clone(&completed),
        );
        let stealer = spawn(move || {
            // One steal attempt: claim the victim's slot with the steal
            // CAS. Losing the race (empty slot or the worker's pop) is
            // fine — steals are opportunistic.
            let order = if bugs.relaxed_steal_cas {
                Ordering::Relaxed
            } else {
                Ordering::SeqCst
            };
            if slot_s.compare_exchange(1, 0, order, order).is_ok() {
                assert_eq!(
                    payload_s.load(Ordering::Relaxed),
                    7,
                    "steal CAS did not acquire the stolen task's payload publication"
                );
                completed_s.fetch_add(1, Ordering::SeqCst);
                sig_s.notify(SignalBugs::default());
            }
        });

        // The producer (spawn path): payload, then the slot publication,
        // then `commit`'s notify.
        payload.store(7, Ordering::Relaxed);
        slot.store(1, Ordering::SeqCst);
        sig.notify(SignalBugs::default());

        worker.join();
        stealer.join();
        assert_eq!(
            completed.load(Ordering::SeqCst),
            1,
            "the admitted task must run exactly once"
        );
        assert_eq!(
            slot.load(Ordering::SeqCst),
            0,
            "the drained ring must end empty"
        );
    }
}

/// The slot-recycle scenario on a capacity-1 mini ring: the main thread
/// runs two full enqueue→dequeue laps (values 7 then 9) through the
/// announcement record, while a helper thread helps whatever
/// announcement it observes — reading `word`, then `aux`, then
/// revalidating `word` (the real helpers' handshake) before its CAS. The
/// explorer can park the helper between that revalidation and its CAS
/// for arbitrarily long, which is exactly the stale-helper window the
/// ring's phase tags exist for. In every schedule both laps must return
/// their own value: with [`RingBugs::untagged_slot_cas`] a lapped
/// enqueue helper re-fills the recycled slot with value 7 during lap 2,
/// and with [`RingBugs::untagged_result`] a stalled dequeue helper
/// delivers 7 into lap 2's reset result — both surface as lap 2
/// returning 7 instead of 9.
pub fn ring_scenario(bugs: RingBugs) -> impl Fn() + Send + Sync + 'static {
    move || {
        let ring = Arc::new(MiniRing::new());
        let done = Arc::new(AtomicUsize::new(0));
        let (ring_h, done_h) = (Arc::clone(&ring), Arc::clone(&done));
        let helper = spawn(move || {
            while done_h.load(Ordering::SeqCst) == 0 {
                let w = ring_h.word.load(Ordering::SeqCst);
                if w != RING_IDLE {
                    let v = ring_h.aux.load(Ordering::SeqCst);
                    // Revalidate word → aux → word, as the real helpers
                    // do; the stale window is between this check and the
                    // CAS inside the help call.
                    if ring_h.word.load(Ordering::SeqCst) == w {
                        let ticket = (w & 0xFF) - 1;
                        if w >> 8 == RING_ENQ {
                            ring_h.help_fill(ticket, v, bugs);
                        } else {
                            ring_h.help_deliver(ticket, bugs);
                        }
                    }
                }
                crate::thread::yield_now();
            }
        });
        ring.enqueue(0, 7);
        assert_eq!(
            ring.dequeue(0, bugs),
            7,
            "ring dequeue returned a value from the wrong ticket"
        );
        ring.enqueue(1, 9);
        assert_eq!(
            ring.dequeue(1, bugs),
            9,
            "a stale ring helper crossed into a later operation's generation"
        );
        done.store(1, Ordering::SeqCst);
        helper.join();
    }
}
