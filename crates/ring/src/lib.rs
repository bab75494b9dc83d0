//! A bounded MPMC circular queue on single-word CAS, in the mould of wCQ
//! (Nikolaev & Ravindran, arXiv:2201.02179): lock-free ticket claims,
//! wait-free completion (see "Helping" below for the two lock-free
//! windows).
//!
//! This crate is the workspace's *third* queue core, next to the paper's
//! §3 unbounded and §6 bounded-space ordering-tree queues
//! (`wfqueue::unbounded` / `wfqueue::bounded`). It is **not** part of
//! the paper mapping (see MAP.md): the PODC 2023 queue derives FIFO
//! order from an ordering tree of batched blocks, while this ring
//! derives it from cycle-tagged tickets over a power-of-two slot array —
//! the design lineage is SCQ/wCQ, with the cache-conscious slot layout
//! informed by Torquati's TR-10-20 SPSC rings (one cache line per slot,
//! split head/tail counters on their own lines). Its job in this
//! repository is to make the *capacity-bounded* path fast: the §6 tree
//! pays ~25–70× the unbounded queue's cost for bounded space, whereas
//! the ring's fast path is a handful of shared-memory steps.
//!
//! # Protocol
//!
//! The ring has `n = capacity.next_power_of_two()` slots. Each slot is a
//! single `AtomicU64` packing a 16-bit **lap** tag (cycle tag) with a
//! 48-bit pointer to the boxed value: `(lap << 48) | ptr`. Two global
//! ticket counters, `head` and `tail`, are claimed by CAS. The slot for
//! ticket `t` is `t & (n - 1)`, and its life cycle is
//!
//! ```text
//! (lap(t)   | 0)    EMPTY  — awaiting enqueue ticket t
//! (lap(t)   | ptr)  FULL   — awaiting dequeue ticket t
//! (lap(t+n) | 0)    EMPTY  — freed, awaiting enqueue ticket t+n
//! ```
//!
//! where `lap(t) = ⌊t / n⌋ mod 2¹⁶` counts the passes through the slot.
//! Every transition is a single-word CAS whose *expected* value is the
//! exact packed word, so stale competitors fail harmlessly (ABA is
//! bounded by the 16-bit lap; see *Phase width* below).
//!
//! **Enqueue** claims ticket `t` by `CAS(tail, t, t+1)` after checking
//! `tail - head < capacity` (reading `tail` before `head`, so a `Full`
//! answer is truthful: at the instant `head` was read the occupancy was
//! at least `capacity`). It then publishes an announcement record and
//! fills the slot `EMPTY → FULL`. **Dequeue** claims ticket `h` by
//! `CAS(head, h, h+1)` after checking `head < tail` (reading `head`
//! before `tail`, so an `Empty` answer is truthful at the instant `tail`
//! was read), publishes a record, waits for the slot to become FULL,
//! delivers the pointer into its record's `result` word, and frees the
//! slot for the next lap.
//!
//! # Helping (wait-freedom of the slot handshake)
//!
//! After claiming a ticket, an operation publishes a per-process
//! **record** — `(tag | ticket)` plus the value pointer — before touching
//! its slot. Any thread that finds itself waiting on a slot runs
//! `help_all` (private): it scans every record and finishes the announced
//! obligation itself — filling the slot for a stalled enqueuer, or
//! delivering the value and freeing the slot for a stalled dequeuer. All
//! helper steps are CAS with exact expected words, so help is
//! *idempotent*: helpers install the **same** pointer at the **same**
//! ticket, the slot CAS has exactly one winner, and a dequeue's delivery
//! CAS (`result: (phase|0) → (phase|ptr)`) is phase-guarded so a helper
//! stalled across the record's reuse cannot corrupt a later operation.
//! Hence a claimed operation is finished by *peers* even if its owner
//! never runs again — the wCQ ingredient that makes the handshake
//! wait-free rather than merely lock-free.
//!
//! Two windows fall short of that guarantee, both deliberate
//! simplifications over full wCQ and documented in DESIGN.md:
//!
//! 1. **Claim → publish gap.** The record is published *after* the
//!    ticket CAS (publishing before it would let helpers commit an
//!    operation whose claim then fails). A thread preempted inside this
//!    constant-instruction window leaves its ticket temporarily
//!    unhelpable; waiters spin-yield through it.
//! 2. **Ticket claiming.** Tickets are claimed by a CAS retry loop
//!    (lock-free, system-wide progress) rather than wCQ's FAA-plus-
//!    threshold machinery — under claim contention an individual thread
//!    can retry, though never unboundedly often in practice because each
//!    failure means another operation claimed a ticket.
//!
//! # Phase width
//!
//! Slot tags count laps of their own slot, so a slot's packed words
//! repeat only after `2¹⁶` passes through that slot (`2¹⁶ · n` global
//! tickets). A helper stalled that long while holding a decoded word
//! could mistake a lapped state for its own — the classic bounded-tag
//! compromise every finite-cycle ring makes (wCQ's cycles are wider but
//! equally finite). A tag of `t mod 2¹⁶` would repeat after only
//! `2¹⁶ / n` laps — two at `n = 2¹⁵` — and a stalled enqueue helper
//! could then refill a recycled slot with a value already dequeued and
//! freed. Record `result` words are tagged with `t mod 2¹⁶` instead:
//! they must tell one operation of their owner from the next, which may
//! share a lap. `debug_assert!`s verify the 48-bit pointer packing.
//!
//! # Examples
//!
//! ```
//! let ring: wfqueue_ring::Ring<u32> = wfqueue_ring::Ring::new(4, 2);
//! let mut h = ring.register().unwrap();
//! assert!(h.try_enqueue(7).is_ok());
//! assert!(h.try_enqueue(8).is_ok());
//! assert_eq!(h.dequeue(), Some(7));
//! assert_eq!(h.dequeue(), Some(8));
//! assert_eq!(h.dequeue(), None);
//! ```

#![deny(missing_docs)]

use std::marker::PhantomData;

use crossbeam_utils::CachePadded;
use wfqueue_metrics as metrics;
use wfqueue_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

// ---------------------------------------------------------------------------
// Word packing
// ---------------------------------------------------------------------------

/// Bits of a slot/result word holding the value pointer (low bits).
const PTR_BITS: u32 = 48;
/// Mask for the pointer field of a packed word.
const PTR_MASK: u64 = (1 << PTR_BITS) - 1;
/// Mask for a 16-bit tag (a slot's lap, or a record result's phase).
const PHASE_MASK: u64 = 0xFFFF;
/// Largest logical capacity: `2¹⁵` slots of one cache line each, so one
/// ring's slot array stays within 2 MiB.
pub const MAX_CAPACITY: usize = 1 << 15;

/// Record tag: no operation announced.
const TAG_IDLE: u64 = 0;
/// Record tag: an enqueue for the record's ticket is in flight.
const TAG_ENQ: u64 = 1;
/// Record tag: a dequeue for the record's ticket is in flight.
const TAG_DEQ: u64 = 2;
/// Shift of the 2-bit tag inside a record word (ticket in the low 62).
const TAG_SHIFT: u32 = 62;

/// The 16-bit tag of a record `result` word for `ticket`.
fn phase(ticket: u64) -> u64 {
    ticket & PHASE_MASK
}

/// Packs a 16-bit tag and a 48-bit pointer into one slot/result word.
fn pack(tag: u64, ptr: u64) -> u64 {
    debug_assert!(ptr <= PTR_MASK, "value pointer exceeds 48 bits");
    (tag << PTR_BITS) | ptr
}

/// Splits a slot/result word into `(tag, ptr)`.
fn unpack(word: u64) -> (u64, u64) {
    (word >> PTR_BITS, word & PTR_MASK)
}

/// Packs a record word from a tag and a ticket.
fn rec_word(tag: u64, ticket: u64) -> u64 {
    debug_assert!(ticket < (1 << TAG_SHIFT), "ticket exceeds 62 bits");
    (tag << TAG_SHIFT) | ticket
}

/// Splits a record word into `(tag, ticket)`.
fn rec_unpack(word: u64) -> (u64, u64) {
    (word >> TAG_SHIFT, word & ((1 << TAG_SHIFT) - 1))
}

// ---------------------------------------------------------------------------
// SeqCst + metrics wrappers
// ---------------------------------------------------------------------------
//
// Every shared-memory step of the ring protocol goes through these three
// helpers, which centralize the memory ordering and the step accounting.

/// One shared load.
// ORDERING: the whole ring protocol runs under SeqCst — its correctness
// argument (module docs) is stated in the sequentially-consistent
// interleaving model that the `wfqueue_sync` checker explores, and the
// Full/Empty linearization points lean on a total order of the
// tail-read/head-read pairs. Every slot, counter and record access is
// funneled through `sc_load`/`sc_store`/`sc_cas`.
fn sc_load(a: &AtomicU64) -> u64 {
    metrics::record_shared_load();
    // ORDERING: see above — the ring protocol is uniformly SeqCst.
    a.load(Ordering::SeqCst)
}

/// One shared store.
// ORDERING: see `sc_load` — the ring protocol is uniformly SeqCst.
fn sc_store(a: &AtomicU64, v: u64) {
    metrics::record_shared_store();
    a.store(v, Ordering::SeqCst);
}

/// One shared CAS; returns `Ok(previous)` on success.
// ORDERING: see `sc_load` — the ring protocol is uniformly SeqCst.
fn sc_cas(a: &AtomicU64, current: u64, new: u64) -> Result<u64, u64> {
    let r = a.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst);
    metrics::record_cas(r.is_ok());
    r
}

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

/// One process's announcement record: the helping interface.
///
/// `word` packs `(tag | ticket)`; it is written only by the record's
/// owner (published after a successful ticket claim, cleared to
/// [`TAG_IDLE`] when the operation completes). `aux` carries the
/// enqueue's value pointer. `result` is the operation's completion
/// channel: initialized by the owner to `(phase(ticket) | 0)` before the
/// record is published, and CASed to `(phase(ticket) | ptr)` by whoever
/// finishes the slot handshake — the phase tag makes a stale helper's
/// delivery CAS fail against any later operation's `result`.
struct Record {
    word: AtomicU64,
    aux: AtomicU64,
    result: AtomicU64,
}

impl Record {
    fn new() -> Self {
        Record {
            word: AtomicU64::new(rec_word(TAG_IDLE, 0)),
            aux: AtomicU64::new(0),
            result: AtomicU64::new(0),
        }
    }
}

/// A bounded MPMC circular queue (wCQ-style): lock-free ticket claims,
/// wait-free completion.
///
/// Values are heap-boxed and owned by the ring while enqueued; each slot
/// is one cache-padded `AtomicU64` packing a 16-bit lap tag with the
/// 48-bit box pointer. See the [module docs](self) for the protocol and
/// its progress guarantees.
///
/// Handles are registered up to a fixed budget (like the tree queues'
/// capped `register()`); each handle owns one announcement record used
/// by the helping mechanism.
///
/// # Examples
///
/// ```
/// use wfqueue_ring::Ring;
///
/// let ring: Ring<String> = Ring::new(2, 1);
/// let mut h = ring.register().unwrap();
/// assert!(h.try_enqueue("a".into()).is_ok());
/// assert!(h.try_enqueue("b".into()).is_ok());
/// // Logical capacity is exact, not rounded to the slot count:
/// assert_eq!(h.try_enqueue("c".into()), Err("c".to_string()));
/// assert_eq!(h.dequeue().as_deref(), Some("a"));
/// ```
pub struct Ring<T> {
    /// `n` cycle-tagged slots, one cache line each (TR-10-20 layout).
    slots: Box<[CachePadded<AtomicU64>]>,
    /// `n - 1`, for ticket → slot indexing (`n` is a power of two).
    mask: u64,
    /// `log₂ n`, for ticket → lap.
    lap_shift: u32,
    /// Logical capacity (exact; `<= n`).
    capacity: usize,
    /// Next enqueue ticket, claimed by CAS.
    tail: CachePadded<AtomicU64>,
    /// Next dequeue ticket, claimed by CAS.
    head: CachePadded<AtomicU64>,
    /// One announcement record per registered handle.
    records: Box<[CachePadded<Record>]>,
    /// Number of handles registered so far (capped at `records.len()`).
    registered: AtomicUsize,
    /// The ring owns the boxed `T`s reachable from its slots.
    _owns: PhantomData<Box<T>>,
}

// SAFETY: the ring transfers `T` values between threads through its
// slots (a dequeuer may unbox a value enqueued by another thread), which
// is exactly the `T: Send` contract; all shared state is atomics.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: as above — concurrent handles only exchange `T: Send` values
// via atomic words; no `&T` is ever shared across threads.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// Creates a ring with exact logical `capacity`, registering at most
    /// `max_handles` handles.
    ///
    /// The slot array is `capacity.next_power_of_two()` long, but the
    /// counter-based full check enforces `capacity` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds [`MAX_CAPACITY`], or if
    /// `max_handles` is zero.
    #[must_use]
    pub fn new(capacity: usize, max_handles: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        assert!(
            capacity <= MAX_CAPACITY,
            "ring capacity {capacity} exceeds MAX_CAPACITY ({MAX_CAPACITY})"
        );
        assert!(max_handles > 0, "need at least one handle");
        let n = capacity.next_power_of_two();
        let slots = (0..n)
            // Slot i starts EMPTY awaiting enqueue ticket i, on lap 0.
            .map(|_| CachePadded::new(AtomicU64::new(pack(0, 0))))
            .collect();
        let records = (0..max_handles)
            .map(|_| CachePadded::new(Record::new()))
            .collect();
        Ring {
            slots,
            mask: n as u64 - 1,
            lap_shift: n.trailing_zeros(),
            capacity,
            tail: CachePadded::new(AtomicU64::new(0)),
            head: CachePadded::new(AtomicU64::new(0)),
            records,
            registered: AtomicUsize::new(0),
            _owns: PhantomData,
        }
    }

    /// The exact logical capacity (maximum in-flight values).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The 16-bit lap tag of `ticket`'s slot: `⌊t / n⌋ mod 2¹⁶`.
    fn lap(&self, ticket: u64) -> u64 {
        (ticket >> self.lap_shift) & PHASE_MASK
    }

    /// Maximum number of handles [`Ring::register`] can hand out.
    #[must_use]
    pub fn max_handles(&self) -> usize {
        self.records.len()
    }

    /// A recent-past length snapshot (`tail - head`): claimed tickets,
    /// counting in-flight operations.
    #[must_use]
    pub fn approx_len(&self) -> usize {
        let t = sc_load(&self.tail);
        let h = sc_load(&self.head);
        t.saturating_sub(h) as usize
    }

    /// Acquires a handle, or `None` when the handle budget is exhausted.
    #[must_use]
    pub fn register(&self) -> Option<RingHandle<'_, T>> {
        // ORDERING: the registration counter is a capped claim like the
        // tree queues' `register()`; SeqCst keeps it in the protocol's
        // single SC order (it is off the hot path entirely).
        let mut cur = self.registered.load(Ordering::SeqCst);
        loop {
            if cur >= self.records.len() {
                return None;
            }
            // ORDERING: see above — capped registration claim.
            match self
                .registered
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    return Some(RingHandle {
                        ring: self,
                        pid: cur,
                    })
                }
                Err(now) => cur = now,
            }
        }
    }

    /// Runs one helping pass over every record except `skip` (the
    /// caller's own): finishes any announced obligation whose slot
    /// transition is currently possible. Called by operations that find
    /// themselves waiting on a slot, so a stalled peer's claimed ticket
    /// is finished by whoever needs it done.
    fn help_all(&self, skip: usize) {
        for (pid, rec) in self.records.iter().enumerate() {
            if pid != skip {
                self.try_help(rec);
            }
        }
    }

    /// Attempts to finish the operation announced in `rec`.
    ///
    /// Reads `(tag, ticket)`, then `aux`, then re-reads the word: since
    /// record words carry full 62-bit tickets (never reused), an
    /// unchanged word proves `(ticket, aux)` belong to the same
    /// announcement. Every subsequent step is a CAS with an exact
    /// expected word, so a helper that loses any race — including to the
    /// record's own owner — fails harmlessly.
    fn try_help(&self, rec: &Record) {
        let w = sc_load(&rec.word);
        let (tag, ticket) = rec_unpack(w);
        if tag == TAG_IDLE {
            return;
        }
        let aux = sc_load(&rec.aux);
        if sc_load(&rec.word) != w {
            return; // the record moved on; (ticket, aux) may be torn
        }
        metrics::adversary_yield();
        self.help_announced(rec, tag, ticket, aux);
    }

    /// The CAS steps of [`Ring::try_help`] for a validated announcement
    /// `(tag, ticket, aux)` of `rec`, however long ago it was validated.
    fn help_announced(&self, rec: &Record, tag: u64, ticket: u64, aux: u64) {
        let slot = &self.slots[(ticket & self.mask) as usize];
        let n = self.mask + 1;
        match tag {
            TAG_ENQ => {
                // Fill the stalled enqueue's slot with *its* pointer at
                // *its* ticket; one winner ever, so help is idempotent.
                let empty = pack(self.lap(ticket), 0);
                let full = pack(self.lap(ticket), aux);
                if sc_cas(slot, empty, full).is_ok() {
                    // Mark the record complete so the owner can return
                    // even if the value is consumed before it looks at
                    // the slot again. Phase-guarded against record reuse.
                    let _ = sc_cas(
                        &rec.result,
                        pack(phase(ticket), 0),
                        pack(phase(ticket), aux),
                    );
                    metrics::record_help();
                }
            }
            TAG_DEQ => {
                let s = sc_load(slot);
                let (p, v) = unpack(s);
                if p == self.lap(ticket) && v != 0 {
                    // The slot holds the dequeue's value: deliver it into
                    // the record (phase-guarded) and free the slot for
                    // the next lap (exact-word CAS, one winner).
                    if sc_cas(&rec.result, pack(phase(ticket), 0), pack(phase(ticket), v)).is_ok() {
                        metrics::record_help();
                    }
                    let _ = sc_cas(slot, s, pack(self.lap(ticket.wrapping_add(n)), 0));
                }
            }
            _ => {}
        }
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let (_, ptr) = unpack(*slot.get_mut());
            if ptr != 0 {
                // SAFETY: a non-null slot pointer is a `Box<T>` leaked by
                // an enqueue and never delivered to a dequeuer (delivery
                // clears the slot); `&mut self` proves no handle is still
                // operating, so this drop is the unique owner.
                drop(unsafe { Box::from_raw(ptr as *mut T) });
            }
        }
    }
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity)
            .field("slots", &self.slots.len())
            .field("max_handles", &self.records.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A registered per-process handle to a [`Ring`].
///
/// Operations take `&mut self`: one handle serves one thread at a time
/// (its announcement record admits a single in-flight operation).
#[derive(Debug)]
pub struct RingHandle<'a, T> {
    ring: &'a Ring<T>,
    pid: usize,
}

impl<T> RingHandle<'_, T> {
    /// This handle's process id (its record index).
    #[must_use]
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// The ring's exact logical capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.capacity
    }

    /// Appends `value` to the back of the ring, or returns it when the
    /// ring is full.
    ///
    /// The `Full` answer is linearizable: it is returned only when, at
    /// one instant inside the call, `capacity` values (counting claimed
    /// in-flight enqueues) were present.
    pub fn try_enqueue(&mut self, value: T) -> Result<(), T> {
        let cap = self.ring.capacity as u64;
        // Claim a ticket, or report Full.
        let ticket = loop {
            let t = sc_load(&self.ring.tail);
            let h = sc_load(&self.ring.head);
            // `head` is read after `tail` and only grows, so
            // `t - h >= cap` means occupancy was >= cap at the `head`
            // read. A stale `h > t` (tail moved on) saturates to 0 and
            // the claim CAS below fails instead.
            if t.saturating_sub(h) >= cap {
                return Err(value);
            }
            metrics::adversary_yield();
            if sc_cas(&self.ring.tail, t, t + 1).is_ok() {
                break t;
            }
        };
        let ptr = Box::into_raw(Box::new(value)) as u64;
        self.announce_and_fill(ticket, ptr);
        Ok(())
    }

    /// Appends a whole batch, all-or-nothing: either every value is
    /// enqueued (claiming `values.len()` consecutive tickets with one
    /// CAS, so the batch is contiguous in FIFO order), or the ring had
    /// insufficient free space at one instant and the batch is returned
    /// untouched.
    pub fn try_enqueue_batch(&mut self, values: Vec<T>) -> Result<(), Vec<T>> {
        let k = values.len() as u64;
        if k == 0 {
            return Ok(());
        }
        let cap = self.ring.capacity as u64;
        if k > cap {
            return Err(values);
        }
        let base = loop {
            let t = sc_load(&self.ring.tail);
            let h = sc_load(&self.ring.head);
            if t.saturating_sub(h) + k > cap {
                return Err(values);
            }
            metrics::adversary_yield();
            if sc_cas(&self.ring.tail, t, t + k).is_ok() {
                break t;
            }
        };
        // Fill ticket by ticket, republishing the record for each: the
        // currently-announced (lowest unfilled) ticket is helpable;
        // later tickets of a stalled batch wait for their owner — see
        // DESIGN.md on the batch window.
        for (i, value) in values.into_iter().enumerate() {
            let ptr = Box::into_raw(Box::new(value)) as u64;
            self.announce_and_fill(base + i as u64, ptr);
        }
        Ok(())
    }

    /// Publishes this handle's record for enqueue ticket `ticket` with
    /// value pointer `ptr`, completes the slot fill (with helping), and
    /// retires the record.
    fn announce_and_fill(&mut self, ticket: u64, ptr: u64) {
        let rec = &self.ring.records[self.pid];
        // Owner-only initialization while the record is IDLE, published
        // by the `word` store: helpers read `word` first.
        sc_store(&rec.result, pack(phase(ticket), 0));
        sc_store(&rec.aux, ptr);
        sc_store(&rec.word, rec_word(TAG_ENQ, ticket));
        let slot = &self.ring.slots[(ticket & self.ring.mask) as usize];
        let empty = pack(self.ring.lap(ticket), 0);
        let full = pack(self.ring.lap(ticket), ptr);
        loop {
            let s = sc_load(slot);
            if s == empty {
                metrics::adversary_yield();
                if sc_cas(slot, empty, full).is_ok() {
                    break;
                }
                continue;
            }
            if s == full {
                break; // a helper filled it for us
            }
            // A helper may have filled the slot *and* a dequeuer consumed
            // it already — the helper marks our record's `result` when
            // its fill CAS wins, so that is our completion signal.
            let (_, delivered) = unpack(sc_load(&rec.result));
            if delivered != 0 {
                break;
            }
            // The slot is still occupied by an earlier ticket (a stalled
            // predecessor dequeue, or an enqueue further behind): help
            // whoever is announced, then retry.
            self.ring.help_all(self.pid);
            metrics::adversary_yield();
            wfqueue_sync::thread::yield_now();
        }
        sc_store(&rec.word, rec_word(TAG_IDLE, 0));
    }

    /// Removes and returns the front value, or `None` if the ring is
    /// empty (linearized at the `tail` read that observed `head == tail`).
    pub fn dequeue(&mut self) -> Option<T> {
        // Claim a ticket, or report Empty.
        let ticket = loop {
            let h = sc_load(&self.ring.head);
            let t = sc_load(&self.ring.tail);
            // `tail` is read after `head` and `head <= tail` always, so
            // `t == h` pins an instant where the ring was empty.
            if t <= h {
                return None;
            }
            metrics::adversary_yield();
            if sc_cas(&self.ring.head, h, h + 1).is_ok() {
                break h;
            }
        };
        let rec = &self.ring.records[self.pid];
        let n = self.ring.mask + 1;
        // Owner-only init + publication, as in `announce_and_fill`.
        sc_store(&rec.result, pack(phase(ticket), 0));
        sc_store(&rec.word, rec_word(TAG_DEQ, ticket));
        let slot = &self.ring.slots[(ticket & self.ring.mask) as usize];
        loop {
            let s = sc_load(slot);
            let (p, v) = unpack(s);
            if p == self.ring.lap(ticket) && v != 0 {
                // Our FULL word: deliver (phase-guarded, idempotent with
                // any helper — same unique `v`) and free the slot.
                let _ = sc_cas(&rec.result, pack(phase(ticket), 0), pack(phase(ticket), v));
                metrics::adversary_yield();
                let _ = sc_cas(slot, s, pack(self.ring.lap(ticket.wrapping_add(n)), 0));
                break;
            }
            let (_, delivered) = unpack(sc_load(&rec.result));
            if delivered != 0 {
                // A helper delivered for us. The slot stays FULL until
                // someone frees it, so re-read once: if the helper has
                // not freed it yet, do it ourselves — the next lap must
                // never depend on a stalled helper resuming.
                let s2 = sc_load(slot);
                let (p2, v2) = unpack(s2);
                if p2 == self.ring.lap(ticket) && v2 != 0 {
                    let _ = sc_cas(slot, s2, pack(self.ring.lap(ticket.wrapping_add(n)), 0));
                }
                break;
            }
            // The enqueue for our ticket (or a predecessor's handshake on
            // this slot) is in flight: help, then retry.
            self.ring.help_all(self.pid);
            metrics::adversary_yield();
            wfqueue_sync::thread::yield_now();
        }
        let (_, ptr) = unpack(sc_load(&rec.result));
        debug_assert!(ptr != 0, "dequeue completed without a delivered value");
        sc_store(&rec.word, rec_word(TAG_IDLE, 0));
        // SAFETY: `ptr` came out of `Box::into_raw` in an enqueue; the
        // delivery CAS publishes each pointer to exactly one record
        // result (the slot's FULL word has one fill winner and one free
        // winner), and only the record's owner — us — unboxes it.
        Some(*unsafe { Box::from_raw(ptr as *mut T) })
    }

    /// Performs up to `count` dequeues, stopping at the first `Empty`
    /// response; the returned vector has length `count` with the
    /// responses in order (a `Some`-prefix, then `None`s).
    pub fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            match self.dequeue() {
                Some(v) => out.push(Some(v)),
                None => break,
            }
        }
        out.resize_with(count, || None);
        out
    }
}

// ---------------------------------------------------------------------------
// Sharding integration
// ---------------------------------------------------------------------------

/// A sharded composite of rings: `wfqueue_shard::ShardedQueue` fanning
/// out over [`Ring`] shards (per-producer FIFO, like the tree-backed
/// composites).
///
/// # Examples
///
/// ```
/// use wfqueue_ring::{Ring, ShardedRing};
/// use wfqueue_shard::{Routing, ShardHandle};
///
/// let shards = (0..2).map(|_| Ring::new(8, 4)).collect();
/// let q: ShardedRing<u32> = ShardedRing::with_shards(shards, 4, Routing::Nearest);
/// let mut h = q.try_handle().unwrap();
/// h.enqueue(5);
/// assert_eq!(h.dequeue(), Some(5));
/// ```
pub type ShardedRing<T> = wfqueue_shard::ShardedQueue<Ring<T>>;

impl<T: Send> wfqueue_shard::Shard for Ring<T> {
    type Item = T;
    type Handle<'a>
        = RingHandle<'a, T>
    where
        Self: 'a;

    fn register(&self) -> Option<Self::Handle<'_>> {
        Ring::register(self)
    }

    fn capacity(&self) -> usize {
        self.max_handles()
    }

    fn approx_len(&self) -> usize {
        Ring::approx_len(self)
    }
}

impl<T: Send> wfqueue_shard::ShardHandle for RingHandle<'_, T> {
    type Item = T;

    /// Appends `value`, spinning (with yields and helping) while the
    /// ring is full: the uniform `ShardHandle` interface has no failure
    /// path. Use [`RingHandle::try_enqueue`] directly for backpressure.
    fn enqueue(&mut self, mut value: T) {
        loop {
            match self.try_enqueue(value) {
                Ok(()) => return,
                Err(back) => {
                    value = back;
                    self.ring.help_all(self.pid);
                    wfqueue_sync::thread::yield_now();
                }
            }
        }
    }

    fn dequeue(&mut self) -> Option<T> {
        RingHandle::dequeue(self)
    }

    /// Enqueues the whole batch, spinning while the ring lacks space for
    /// *all* of it (the claim is all-or-nothing, keeping the batch
    /// contiguous).
    ///
    /// # Panics
    ///
    /// Panics if the batch alone exceeds the ring's capacity — it could
    /// never fit, so spinning would hang.
    fn enqueue_batch(&mut self, mut values: Vec<Self::Item>) {
        assert!(
            values.len() <= self.ring.capacity,
            "batch of {} exceeds ring capacity {}",
            values.len(),
            self.ring.capacity
        );
        loop {
            match self.try_enqueue_batch(values) {
                Ok(()) => return,
                Err(back) => {
                    values = back;
                    self.ring.help_all(self.pid);
                    wfqueue_sync::thread::yield_now();
                }
            }
        }
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<Self::Item>> {
        RingHandle::dequeue_batch(self, count)
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wfqueue_sync::thread;

    /// An enqueue helper that validated ticket 0's announcement and then
    /// stalled for two laps of a `MAX_CAPACITY` ring (`2¹⁶` tickets) must
    /// not refill slot 0 with the long-dequeued pointer. With slot tags
    /// of `t mod 2¹⁶`, slot 0 awaiting ticket `2n` held the very word
    /// the helper expected, and the refill caused a double free.
    #[test]
    fn stalled_enqueue_helper_cannot_refill_a_slot_two_laps_later() {
        let ring: Ring<u64> = Ring::new(MAX_CAPACITY, 1);
        let mut h = ring.register().unwrap();
        let laps = 2 * MAX_CAPACITY as u64;
        for v in 0..laps {
            assert!(h.try_enqueue(v).is_ok());
            assert_eq!(h.dequeue(), Some(v));
        }
        // Slot 0 now awaits ticket 2n. The stale helper's pointer is a
        // box of its own, so a wrongly installed one is freed only once.
        let stale = Box::into_raw(Box::new(u64::MAX)) as u64;
        let announced = Record::new();
        ring.help_announced(&announced, TAG_ENQ, 0, stale);
        let slot0 = ring.slots[0].load(Ordering::Relaxed);
        assert_eq!(
            slot0,
            pack(ring.lap(laps), 0),
            "stale helper refilled slot 0"
        );
        assert_eq!(h.dequeue(), None);
        assert!(h.try_enqueue(7).is_ok());
        assert_eq!(h.dequeue(), Some(7));
        // SAFETY: the CAS above failed (asserted), so the ring never took
        // ownership of the box; this is its only owner.
        drop(unsafe { Box::from_raw(stale as *mut u64) });
    }

    #[test]
    fn fifo_single_thread() {
        let ring: Ring<u32> = Ring::new(8, 1);
        let mut h = ring.register().unwrap();
        for i in 0..8 {
            assert!(h.try_enqueue(i).is_ok());
        }
        for i in 0..8 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn capacity_is_exact_not_rounded() {
        // 3 rounds to 4 slots, but the logical capacity stays 3.
        let ring: Ring<u32> = Ring::new(3, 1);
        let mut h = ring.register().unwrap();
        for i in 0..3 {
            assert!(h.try_enqueue(i).is_ok());
        }
        assert_eq!(h.try_enqueue(99), Err(99));
        assert_eq!(h.dequeue(), Some(0));
        assert!(h.try_enqueue(3).is_ok());
        assert_eq!(h.try_enqueue(100), Err(100));
    }

    #[test]
    fn wraps_many_laps() {
        let ring: Ring<u64> = Ring::new(2, 1);
        let mut h = ring.register().unwrap();
        for i in 0..10_000u64 {
            assert!(h.try_enqueue(i).is_ok());
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn batch_is_all_or_nothing() {
        let ring: Ring<u32> = Ring::new(4, 1);
        let mut h = ring.register().unwrap();
        assert!(h.try_enqueue(0).is_ok());
        // 4 don't fit next to the 1 in flight.
        let back = h.try_enqueue_batch(vec![1, 2, 3, 4]).unwrap_err();
        assert_eq!(back, vec![1, 2, 3, 4]);
        // 3 do, contiguously.
        assert!(h.try_enqueue_batch(vec![1, 2, 3]).is_ok());
        assert_eq!(
            h.dequeue_batch(5),
            vec![Some(0), Some(1), Some(2), Some(3), None]
        );
    }

    #[test]
    fn oversized_batch_rejected_without_claiming() {
        let ring: Ring<u32> = Ring::new(2, 1);
        let mut h = ring.register().unwrap();
        assert!(h.try_enqueue_batch(vec![1, 2, 3]).is_err());
        assert_eq!(ring.approx_len(), 0);
        assert!(h.try_enqueue_batch(Vec::new()).is_ok());
    }

    #[test]
    fn register_budget_is_capped() {
        let ring: Ring<u8> = Ring::new(1, 2);
        let a = ring.register();
        let b = ring.register();
        assert!(a.is_some() && b.is_some());
        assert!(ring.register().is_none());
        assert_eq!(ring.max_handles(), 2);
        assert_eq!(ring.capacity(), 1);
    }

    #[test]
    fn drop_frees_in_flight_values() {
        let ring: Ring<Arc<u8>> = Ring::new(4, 1);
        let value = Arc::new(7u8);
        {
            let mut h = ring.register().unwrap();
            h.try_enqueue(Arc::clone(&value)).unwrap();
            h.try_enqueue(Arc::clone(&value)).unwrap();
        }
        assert_eq!(Arc::strong_count(&value), 3);
        drop(ring);
        assert_eq!(Arc::strong_count(&value), 1);
    }

    #[test]
    fn mpmc_no_loss_no_duplication() {
        const PRODUCERS: usize = 3;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: u64 = 2_000;
        let ring: Ring<u64> = Ring::new(8, PRODUCERS + CONSUMERS);
        thread::scope(|s| {
            for p in 0..PRODUCERS {
                let mut h = ring.register().unwrap();
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let v = (p as u64) << 32 | i;
                        let mut v = v;
                        while let Err(back) = h.try_enqueue(v) {
                            v = back;
                            thread::yield_now();
                        }
                    }
                });
            }
            let mut collectors = Vec::new();
            for _ in 0..CONSUMERS {
                let mut h = ring.register().unwrap();
                collectors.push(s.spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 10_000 {
                        match h.dequeue() {
                            Some(v) => {
                                got.push(v);
                                dry = 0;
                            }
                            None => {
                                dry += 1;
                                thread::yield_now();
                            }
                        }
                    }
                    got
                }));
            }
            let mut all: Vec<u64> = collectors
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            // Per-producer FIFO: each producer's values must come out in
            // order when filtered from any single consumer's stream is
            // too weak across consumers, so check global set + per-
            // producer order within the merged, stably-tagged stream is
            // not derivable — assert the multiset instead, plus counts.
            all.sort_unstable();
            let mut expect: Vec<u64> = (0..PRODUCERS as u64)
                .flat_map(|p| (0..PER_PRODUCER).map(move |i| p << 32 | i))
                .collect();
            expect.sort_unstable();
            assert_eq!(all, expect, "values lost or duplicated");
        });
    }

    #[test]
    fn per_consumer_sees_per_producer_fifo() {
        // One producer, one consumer, tiny ring: the consumer must see
        // strictly increasing values.
        let ring: Ring<u64> = Ring::new(1, 2);
        thread::scope(|s| {
            let mut tx = ring.register().unwrap();
            s.spawn(move || {
                for i in 0..5_000u64 {
                    let mut v = i;
                    while let Err(back) = tx.try_enqueue(v) {
                        v = back;
                        thread::yield_now();
                    }
                }
            });
            let mut rx = ring.register().unwrap();
            let mut last = None;
            let mut seen = 0u64;
            while seen < 5_000 {
                if let Some(v) = rx.dequeue() {
                    assert!(
                        last.is_none_or(|l| v > l),
                        "FIFO violated: {v} after {last:?}"
                    );
                    last = Some(v);
                    seen += 1;
                } else {
                    thread::yield_now();
                }
            }
        });
    }

    #[test]
    fn sharded_ring_round_trips() {
        use wfqueue_shard::Routing;
        let shards = (0..2).map(|_| Ring::new(16, 4)).collect();
        let q: ShardedRing<u64> = ShardedRing::with_shards(shards, 4, Routing::Nearest);
        let mut h = q.try_handle().unwrap();
        h.enqueue_batch(vec![1, 2, 3]);
        let mut got: Vec<u64> = (0..3).map(|_| h.dequeue().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(h.dequeue(), None);
    }
}
