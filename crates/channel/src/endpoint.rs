//! The channel state and its two endpoint types.
//!
//! A channel is one [`Shared`] allocation — the backend queue, the
//! disconnect counters, the optional capacity gate and the two wakeup
//! [`Signal`]s — plus any number of [`Sender`]/[`Receiver`] endpoints,
//! each owning one per-process handle of the backend (one leaf of the
//! ordering tree) alongside an `Arc` of the state.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wfqueue_sync::atomic::{AtomicUsize, Ordering};

use crate::backend::{Backend, MemoryStats, RawHandle};
use crate::error::{
    CloneError, RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError,
};
use crate::wait::Signal;

/// Reserves one slot of a monotone, capped counter — the same capped CEX
/// loop as the queues' `register`, so exhaustion never over-advances.
fn reserve_slot(counter: &AtomicUsize, limit: usize) -> Result<(), CloneError> {
    let mut taken = counter.load(Ordering::Relaxed);
    loop {
        if taken >= limit {
            return Err(CloneError { limit });
        }
        match counter.compare_exchange_weak(taken, taken + 1, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return Ok(()),
            Err(current) => taken = current,
        }
    }
}

/// The state shared by every endpoint of one channel.
pub(crate) struct Shared<T: Clone + Send + Sync + 'static> {
    /// The queue holding the values. Never moved out of this struct — the
    /// owning-handle safety argument (see `backend.rs`) depends on it.
    pub(crate) backend: Backend<T>,
    /// `Some(cap)` for capacity-bounded channels; `None` leaves the send
    /// path completely free of channel-layer shared accesses.
    capacity: Option<usize>,
    /// In-flight values, maintained only when `capacity` is `Some`.
    len: AtomicUsize,
    /// Live (not yet dropped) sender endpoints.
    senders: AtomicUsize,
    /// Live (not yet dropped) receiver endpoints.
    receivers: AtomicUsize,
    /// Sender endpoints ever created (caps at `max_senders`).
    sender_slots: AtomicUsize,
    /// Receiver endpoints ever created (caps at `max_receivers`).
    receiver_slots: AtomicUsize,
    max_senders: usize,
    max_receivers: usize,
    /// Receivers park here; senders notify after every enqueue.
    pub(crate) not_empty: Signal,
    /// Capacity-blocked senders park here; receivers notify after every
    /// slot release (capacity-bounded channels only).
    pub(crate) not_full: Signal,
}

impl<T: Clone + Send + Sync + 'static> Shared<T> {
    /// Builds the channel state and its first endpoint pair.
    ///
    /// The first sender registers the backend's process id 0 and the first
    /// receiver id 1; later [`try_clone`](Sender::try_clone)s take ids in
    /// call order. (Step-count parity tests rely on this determinism.)
    pub(crate) fn channel(
        backend: Backend<T>,
        capacity: Option<usize>,
        max_senders: usize,
        max_receivers: usize,
    ) -> (Sender<T>, Receiver<T>) {
        assert!(max_senders > 0, "need at least one sender endpoint");
        assert!(max_receivers > 0, "need at least one receiver endpoint");
        assert!(
            backend.capacity() >= max_senders + max_receivers,
            "backend must register one handle per endpoint"
        );
        if let Some(cap) = capacity {
            assert!(cap > 0, "a capacity-bounded channel needs capacity >= 1");
        }
        let shared = Arc::new(Shared {
            backend,
            capacity,
            len: AtomicUsize::new(0),
            senders: AtomicUsize::new(0),
            receivers: AtomicUsize::new(0),
            sender_slots: AtomicUsize::new(0),
            receiver_slots: AtomicUsize::new(0),
            max_senders,
            max_receivers,
            not_empty: Signal::default(),
            not_full: Signal::default(),
        });
        let tx = Shared::new_sender(&shared).expect("first sender slot is free");
        let rx = Shared::new_receiver(&shared).expect("first receiver slot is free");
        (tx, rx)
    }

    fn new_sender(self_arc: &Arc<Self>) -> Result<Sender<T>, CloneError> {
        reserve_slot(&self_arc.sender_slots, self_arc.max_senders)?;
        // SAFETY: the handle is stored in the endpoint next to a clone of
        // `self_arc` (declared first, so dropped first), and the backend
        // never moves out of `Shared` — the owning-handle contract of
        // `Backend::register`.
        let raw = unsafe { Backend::register(self_arc) }
            .expect("backend sized to the endpoint budget at construction");
        // ORDERING: endpoint counters participate in the disconnect
        // Dekker handshake with `Signal` (count write vs. count read on
        // the other side); SC keeps the handshake total-ordered.
        self_arc.senders.fetch_add(1, Ordering::SeqCst);
        Ok(Sender {
            raw,
            shared: Arc::clone(self_arc),
        })
    }

    fn new_receiver(self_arc: &Arc<Self>) -> Result<Receiver<T>, CloneError> {
        reserve_slot(&self_arc.receiver_slots, self_arc.max_receivers)?;
        // SAFETY: as in `new_sender`.
        let raw = unsafe { Backend::register(self_arc) }
            .expect("backend sized to the endpoint budget at construction");
        // ORDERING: as in `new_sender`.
        self_arc.receivers.fetch_add(1, Ordering::SeqCst);
        Ok(Receiver {
            raw,
            shared: Arc::clone(self_arc),
        })
    }

    /// Reserves `n` in-flight slots of a capacity-bounded channel (no-op
    /// `true` on unbounded channels). Lock-free, not wait-free — see the
    /// crate docs ("Where wait-freedom ends").
    fn try_reserve(&self, n: usize) -> bool {
        let Some(cap) = self.capacity else {
            return true;
        };
        wfqueue_metrics::record_shared_load();
        // ORDERING: SC read starts the reservation; together with the SC
        // CAS below it keeps the gate in one total order with release's
        // SC decrement, so a successful reservation acquires the previous
        // occupant's cleanup. `tests/model.rs` (gate scenario) checks the
        // bound and the handoff exhaustively.
        let mut len = self.len.load(Ordering::SeqCst);
        loop {
            if len + n > cap {
                return false;
            }
            wfqueue_metrics::adversary_yield();
            // ORDERING: SC success so a CAS landing directly on release's
            // decrement still acquires it — weakening this is the seeded
            // gate mutation `tests/checker_power.rs` detects.
            match self
                .len
                .compare_exchange_weak(len, len + n, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    wfqueue_metrics::record_cas(true);
                    return true;
                }
                Err(current) => {
                    wfqueue_metrics::record_cas(false);
                    len = current;
                }
            }
        }
    }

    /// Releases `n` in-flight slots after a successful receive and wakes
    /// capacity-blocked senders (no-op on unbounded channels).
    fn release(&self, n: usize) {
        if self.capacity.is_some() {
            // One RMW, approximated as load + store in the step model.
            wfqueue_metrics::record_shared_load();
            wfqueue_metrics::record_shared_store();
            // ORDERING: SC release of the slot; pairs with try_reserve.
            self.len.fetch_sub(n, Ordering::SeqCst);
            self.not_full.notify();
        } else if matches!(self.backend, Backend::Ring(_)) {
            // The ring tracks occupancy natively (no gate to decrement),
            // but capacity-blocked senders still park on `not_full`: a
            // dequeue is what frees ring space, so it must notify.
            self.not_full.notify();
        }
    }

    /// The channel's capacity bound: the gate's, or the ring backend's
    /// native one; `None` for unbounded channels.
    fn capacity_limit(&self) -> Option<usize> {
        self.capacity.or(self.backend.native_capacity())
    }
}

impl<T: Clone + Send + Sync + 'static> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("capacity", &self.capacity)
            .field("senders", &self.senders.load(Ordering::Relaxed))
            .field("receivers", &self.receivers.load(Ordering::Relaxed))
            .field("approx_len", &self.backend.approx_len())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

/// The sending half of a channel.
///
/// Operations take `&mut self` (one pending operation per endpoint — the
/// paper's process model); the endpoint itself is `Send`, so it moves
/// freely into a thread. Additional senders come from
/// [`Sender::try_clone`] within the channel's [`Endpoints`](crate::Endpoints)
/// budget.
///
/// Dropping the last `Sender` disconnects the channel for receivers:
/// [`Receiver::recv`] drains every value already sent, then reports
/// [`RecvError`].
pub struct Sender<T: Clone + Send + Sync + 'static> {
    // Field order matters: `raw` borrows the queue inside `shared` (with a
    // fabricated 'static lifetime) and must be dropped first.
    raw: RawHandle<T>,
    shared: Arc<Shared<T>>,
}

impl<T: Clone + Send + Sync + 'static> Sender<T> {
    /// Attempts to send without blocking.
    ///
    /// On an unbounded channel this is the raw wait-free enqueue plus two
    /// channel-layer shared loads (the disconnect check and the
    /// wake-anyone-parked check) and **zero extra CAS** — the parity
    /// asserted by `tests/channel.rs`. On a capacity-bounded channel it
    /// also pays the slot-reservation CAS.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] if the channel is capacity-bounded and full;
    /// [`TrySendError::Disconnected`] if every receiver has been dropped.
    /// Both hand the value back.
    ///
    /// # Examples
    ///
    /// ```
    /// let (mut tx, mut rx) = wfqueue_channel::unbounded();
    /// tx.try_send(7).unwrap();
    /// assert_eq!(rx.try_recv(), Ok(7));
    /// ```
    pub fn try_send(&mut self, value: T) -> Result<(), TrySendError<T>> {
        wfqueue_metrics::record_shared_load();
        // ORDERING: SC disconnect check — ordered against the receiver
        // drop's SC decrement so a send after the last receiver's drop
        // reliably errors rather than stranding a value.
        if self.shared.receivers.load(Ordering::SeqCst) == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if !self.shared.try_reserve(1) {
            return Err(TrySendError::Full(value));
        }
        wfqueue_metrics::adversary_yield();
        // Full on a gated channel is decided by the reservation above;
        // the ring backend instead reports it natively here.
        if let Err(value) = self.raw.try_enqueue(value) {
            return Err(TrySendError::Full(value));
        }
        self.shared.not_empty.notify();
        Ok(())
    }

    /// Sends, blocking while a capacity-bounded channel is full. On an
    /// unbounded channel this never blocks.
    ///
    /// # Errors
    ///
    /// [`SendError`] (returning the value) if every receiver has been
    /// dropped.
    ///
    /// # Examples
    ///
    /// ```
    /// let (mut tx, rx) = wfqueue_channel::unbounded();
    /// tx.send("job").unwrap();
    /// drop(rx);
    /// assert_eq!(tx.send("lost"), Err(wfqueue_channel::SendError("lost")));
    /// ```
    pub fn send(&mut self, value: T) -> Result<(), SendError<T>> {
        let mut value = value;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => value = v,
            }
            let key = self.shared.not_full.listen();
            wfqueue_metrics::adversary_yield();
            match self.try_send(value) {
                Ok(()) => {
                    self.shared.not_full.cancel(key);
                    return Ok(());
                }
                Err(TrySendError::Disconnected(v)) => {
                    self.shared.not_full.cancel(key);
                    return Err(SendError(v));
                }
                Err(TrySendError::Full(v)) => {
                    value = v;
                    self.shared.not_full.wait(key);
                }
            }
        }
    }

    /// Sends a whole batch, delegating to the backend's native
    /// `enqueue_batch`: one leaf block, one propagation, and the batch's
    /// values contiguous in the linearization (per shard, for sharded
    /// channels).
    ///
    /// On a capacity-bounded channel the batch is split into chunks of at
    /// most `capacity` values; each chunk is reserved in full (blocking
    /// while the channel is too full) and appended atomically.
    ///
    /// # Errors
    ///
    /// [`SendError`] with the values **not yet sent** if every receiver is
    /// dropped mid-way; chunks already appended stay in the channel.
    ///
    /// # Examples
    ///
    /// ```
    /// let (mut tx, mut rx) = wfqueue_channel::unbounded();
    /// tx.send_all(0..5).unwrap();
    /// assert_eq!(rx.recv_up_to(10), vec![0, 1, 2, 3, 4]);
    /// ```
    pub fn send_all(
        &mut self,
        values: impl IntoIterator<Item = T>,
    ) -> Result<(), SendError<Vec<T>>> {
        let mut rest: Vec<T> = values.into_iter().collect();
        while !rest.is_empty() {
            wfqueue_metrics::record_shared_load();
            // ORDERING: SC disconnect check, as in `try_send`.
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(rest));
            }
            let take = match self.shared.capacity_limit() {
                None => rest.len(),
                Some(cap) => cap.min(rest.len()),
            };
            // Blocking whole-chunk reservation (no-op on unbounded and on
            // the ring, which admits the chunk natively below).
            while !self.shared.try_reserve(take) {
                let key = self.shared.not_full.listen();
                if self.shared.try_reserve(take) {
                    self.shared.not_full.cancel(key);
                    break;
                }
                wfqueue_metrics::record_shared_load();
                // ORDERING: the post-listen re-check of the Signal
                // protocol; SC so the parked sender cannot miss the last
                // receiver's departure (no lost disconnect wakeup).
                if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                    self.shared.not_full.cancel(key);
                    return Err(SendError(rest));
                }
                self.shared.not_full.wait(key);
            }
            let chunk: Vec<T> = rest.drain(..take).collect();
            // Gated/unbounded backends accept on the first try (their
            // space was reserved above); the ring may be full right now,
            // in which case park until dequeues notify `not_full`.
            let mut chunk = match self.raw.try_enqueue_batch(chunk) {
                Ok(()) => Vec::new(),
                Err(back) => back,
            };
            while !chunk.is_empty() {
                let key = self.shared.not_full.listen();
                match self.raw.try_enqueue_batch(chunk) {
                    Ok(()) => {
                        self.shared.not_full.cancel(key);
                        chunk = Vec::new();
                        continue;
                    }
                    Err(back) => chunk = back,
                }
                wfqueue_metrics::record_shared_load();
                // ORDERING: post-listen disconnect re-check, as above.
                if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                    self.shared.not_full.cancel(key);
                    chunk.extend(rest);
                    return Err(SendError(chunk));
                }
                self.shared.not_full.wait(key);
            }
            self.shared.not_empty.notify();
        }
        Ok(())
    }

    /// Non-blocking [`Sender::send_all`]: appends the whole batch as one
    /// atomic leaf block if it fits, or hands every value back without
    /// sending anything.
    ///
    /// Unlike `send_all` the batch is all-or-nothing: on a
    /// capacity-bounded channel the entire batch's slots are reserved up
    /// front, so a batch larger than the free capacity (in particular,
    /// larger than `capacity` itself) returns [`TrySendError::Full`]
    /// instead of chunking or parking.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Full`] if a capacity-bounded channel cannot admit
    /// the whole batch right now; [`TrySendError::Disconnected`] if every
    /// receiver has been dropped. Both hand the values back.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_channel::TrySendError;
    ///
    /// let (mut tx, mut rx) = wfqueue_channel::bounded::<u32>(2);
    /// tx.try_send_all([1, 2]).unwrap();
    /// assert_eq!(
    ///     tx.try_send_all([3, 4]),
    ///     Err(TrySendError::Full(vec![3, 4])),
    ///     "all-or-nothing: nothing was sent"
    /// );
    /// assert_eq!(rx.recv_up_to(4), vec![1, 2]);
    /// ```
    pub fn try_send_all(
        &mut self,
        values: impl IntoIterator<Item = T>,
    ) -> Result<(), TrySendError<Vec<T>>> {
        let values: Vec<T> = values.into_iter().collect();
        if values.is_empty() {
            return Ok(());
        }
        wfqueue_metrics::record_shared_load();
        // ORDERING: SC disconnect check, as in `try_send`.
        if self.shared.receivers.load(Ordering::SeqCst) == 0 {
            return Err(TrySendError::Disconnected(values));
        }
        if !self.shared.try_reserve(values.len()) {
            return Err(TrySendError::Full(values));
        }
        wfqueue_metrics::adversary_yield();
        // All-or-nothing on the ring too: its multi-ticket claim either
        // admits the whole batch contiguously or returns it untouched.
        if let Err(values) = self.raw.try_enqueue_batch(values) {
            return Err(TrySendError::Full(values));
        }
        self.shared.not_empty.notify();
        Ok(())
    }

    /// Creates another sender for the same channel, consuming one of the
    /// channel's sender endpoint slots (a fresh process id of the backing
    /// ordering tree).
    ///
    /// # Errors
    ///
    /// [`CloneError`] once the [`Endpoints`](crate::Endpoints) sender
    /// budget is exhausted — dropped senders do not return their slot.
    ///
    /// # Examples
    ///
    /// ```
    /// let (tx, mut rx) = wfqueue_channel::unbounded();
    /// let mut tx2 = tx.try_clone().unwrap();
    /// tx2.send(9).unwrap();
    /// assert_eq!(rx.recv(), Ok(9));
    /// ```
    pub fn try_clone(&self) -> Result<Sender<T>, CloneError> {
        Shared::new_sender(&self.shared)
    }

    /// `Some(cap)` for capacity-bounded channels (whether bounded by the
    /// channel-layer gate or natively by a ring backend), `None` otherwise.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.shared.capacity_limit()
    }

    /// A recent-past snapshot of the number of values in the channel
    /// (exact at quiescence; see the backend queues' `approx_len`).
    #[must_use]
    pub fn approx_len(&self) -> usize {
        self.shared.backend.approx_len()
    }

    /// Whether every receiver has been dropped (sends would fail).
    #[must_use]
    pub fn is_disconnected(&self) -> bool {
        // ORDERING: SC so the answer is consistent with the send paths'
        // disconnect checks (one total order over the counter).
        self.shared.receivers.load(Ordering::SeqCst) == 0
    }

    /// A snapshot of the backend queue's memory footprint (the E12
    /// introspection counters). Exact at quiescence; a recent-past
    /// approximation under concurrency. See [`MemoryStats`] for what each
    /// backend reports.
    ///
    /// # Examples
    ///
    /// ```
    /// let (mut tx, _rx) = wfqueue_channel::unbounded();
    /// tx.send_all(0..100u32).unwrap();
    /// assert!(tx.memory_stats().live_blocks > 0);
    /// ```
    #[must_use]
    pub fn memory_stats(&self) -> MemoryStats {
        self.shared.backend.memory_stats()
    }

    /// Sends asynchronously: the returned future resolves once the value
    /// is in the channel, suspending (instead of parking a thread) while a
    /// capacity-bounded channel is full. Executor-agnostic; see
    /// [`crate::exec::block_on`] for the minimal test executor.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_channel::exec::block_on;
    ///
    /// let (mut tx, mut rx) = wfqueue_channel::unbounded::<u32>();
    /// block_on(tx.send_async(7)).unwrap();
    /// assert_eq!(rx.try_recv(), Ok(7));
    /// ```
    #[cfg(feature = "async")]
    pub fn send_async(&mut self, value: T) -> crate::future::SendFuture<'_, T> {
        crate::future::SendFuture::new(self, value)
    }

    /// The channel state, for the futures' waker registration.
    #[cfg(feature = "async")]
    pub(crate) fn shared(&self) -> &Shared<T> {
        &self.shared
    }
}

/// `clone` is [`Sender::try_clone`] with the error turned into a panic.
///
/// # Panics
///
/// Panics when the channel's sender endpoint budget is exhausted; use
/// [`Sender::try_clone`] where that is a reachable state.
impl<T: Clone + Send + Sync + 'static> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.try_clone().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for Sender<T> {
    fn drop(&mut self) {
        // ORDERING: SC decrement is the "state write" half of the
        // disconnect handshake: it must be ordered before notify's fence
        // + `waiters` read so a parked receiver is woken to observe it.
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake every parked/async receiver so it can
            // observe the disconnect (after draining what was sent).
            self.shared.not_empty.notify();
        }
    }
}

impl<T: Clone + Send + Sync + 'static> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender")
            .field("shared", &self.shared)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

/// The receiving half of a channel.
///
/// Operations take `&mut self`; the endpoint is `Send`. Additional
/// receivers come from [`Receiver::try_clone`] — the channel is MPMC, and
/// concurrent receivers partition the values between them (each value is
/// delivered exactly once).
///
/// Dropping the last `Receiver` disconnects the channel for senders:
/// every subsequent send fails, handing the value back.
pub struct Receiver<T: Clone + Send + Sync + 'static> {
    // Field order matters — see `Sender`.
    raw: RawHandle<T>,
    shared: Arc<Shared<T>>,
}

impl<T: Clone + Send + Sync + 'static> Receiver<T> {
    /// Attempts to receive without blocking.
    ///
    /// On a hit this is **exactly** the raw wait-free dequeue (plus the
    /// capacity bookkeeping on bounded channels) — zero channel-layer
    /// shared steps on the unbounded backends, the parity asserted by
    /// `tests/channel.rs`.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] if the channel was empty at the dequeue's
    /// linearization point but senders remain;
    /// [`TryRecvError::Disconnected`] if it is empty and every sender has
    /// been dropped (reported only after a final drain attempt, so no
    /// value sent before the disconnect is ever lost).
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_channel::TryRecvError;
    ///
    /// let (mut tx, mut rx) = wfqueue_channel::unbounded::<u32>();
    /// assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    /// tx.send(1).unwrap();
    /// drop(tx);
    /// assert_eq!(rx.try_recv(), Ok(1)); // drained even after disconnect
    /// assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    /// ```
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        if let Some(value) = self.raw.dequeue() {
            self.shared.release(1);
            return Ok(value);
        }
        wfqueue_metrics::record_shared_load();
        // ORDERING: SC disconnect check against the sender drop's SC
        // decrement: Empty-vs-Disconnected must be decided *after* the
        // queue poll that missed, or a racing drop strands a value.
        if self.shared.senders.load(Ordering::SeqCst) > 0 {
            return Err(TryRecvError::Empty);
        }
        // All senders are gone, and every enqueue of a sender happens
        // before its drop: one more dequeue either drains a remaining
        // value or proves the channel empty-forever.
        wfqueue_metrics::adversary_yield();
        match self.raw.dequeue() {
            Some(value) => {
                self.shared.release(1);
                Ok(value)
            }
            None => Err(TryRecvError::Disconnected),
        }
    }

    /// Receives, parking the thread while the channel is empty (no
    /// spinning — see the crate docs on the wait-freedom boundary).
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the channel is empty and every sender has been
    /// dropped; every value sent before the disconnect is delivered first.
    ///
    /// # Examples
    ///
    /// ```
    /// let (mut tx, mut rx) = wfqueue_channel::unbounded();
    /// wfqueue_sync::thread::spawn(move || tx.send(42).unwrap());
    /// assert_eq!(rx.recv(), Ok(42)); // parks until the value arrives
    /// ```
    pub fn recv(&mut self) -> Result<T, RecvError> {
        loop {
            match self.try_recv() {
                Ok(value) => return Ok(value),
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => {}
            }
            let key = self.shared.not_empty.listen();
            wfqueue_metrics::adversary_yield();
            match self.try_recv() {
                Ok(value) => {
                    self.shared.not_empty.cancel(key);
                    return Ok(value);
                }
                Err(TryRecvError::Disconnected) => {
                    self.shared.not_empty.cancel(key);
                    return Err(RecvError);
                }
                Err(TryRecvError::Empty) => self.shared.not_empty.wait(key),
            }
        }
    }

    /// Receives with a deadline of `timeout` from now.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if no value arrived in time;
    /// [`RecvTimeoutError::Disconnected`] as in [`Receiver::recv`].
    ///
    /// # Examples
    ///
    /// ```
    /// use std::time::Duration;
    /// use wfqueue_channel::RecvTimeoutError;
    ///
    /// let (_tx, mut rx) = wfqueue_channel::unbounded::<u32>();
    /// assert_eq!(
    ///     rx.recv_timeout(Duration::from_millis(5)),
    ///     Err(RecvTimeoutError::Timeout)
    /// );
    /// ```
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.try_recv() {
                Ok(value) => return Ok(value),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            let key = self.shared.not_empty.listen();
            wfqueue_metrics::adversary_yield();
            match self.try_recv() {
                Ok(value) => {
                    self.shared.not_empty.cancel(key);
                    return Ok(value);
                }
                Err(TryRecvError::Disconnected) => {
                    self.shared.not_empty.cancel(key);
                    return Err(RecvTimeoutError::Disconnected);
                }
                Err(TryRecvError::Empty) => {
                    if !self.shared.not_empty.wait_deadline(key, deadline)
                        && Instant::now() >= deadline
                    {
                        return Err(RecvTimeoutError::Timeout);
                    }
                }
            }
        }
    }

    /// Receives up to `max` values without blocking, delegating to the
    /// backend's native `dequeue_batch`: one leaf block resolves the whole
    /// batch, so `k` values cost one propagation instead of `k`.
    ///
    /// Returns fewer than `max` (possibly zero) values if the channel ran
    /// empty; it never waits.
    ///
    /// # Examples
    ///
    /// ```
    /// let (mut tx, mut rx) = wfqueue_channel::unbounded();
    /// tx.send_all([1, 2, 3]).unwrap();
    /// assert_eq!(rx.recv_up_to(2), vec![1, 2]);
    /// assert_eq!(rx.recv_up_to(2), vec![3]);
    /// assert_eq!(rx.recv_up_to(2), vec![]);
    /// ```
    #[must_use = "the received values should be used"]
    pub fn recv_up_to(&mut self, max: usize) -> Vec<T> {
        if max == 0 {
            return Vec::new();
        }
        // A batch's dequeues are contiguous in the linearization, so the
        // `None` responses form a suffix: flattening keeps exactly the
        // received prefix.
        let values: Vec<T> = self.raw.dequeue_batch(max).into_iter().flatten().collect();
        if !values.is_empty() {
            self.shared.release(values.len());
        }
        values
    }

    /// A non-blocking iterator draining the values currently in the
    /// channel; it ends (permanently for this call) at the first moment
    /// the channel reports empty.
    ///
    /// # Examples
    ///
    /// ```
    /// let (mut tx, mut rx) = wfqueue_channel::unbounded();
    /// tx.send_all([1, 2]).unwrap();
    /// assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![1, 2]);
    /// ```
    pub fn try_iter(&mut self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }

    /// Creates another receiver for the same channel, consuming one of the
    /// channel's receiver endpoint slots.
    ///
    /// # Errors
    ///
    /// [`CloneError`] once the [`Endpoints`](crate::Endpoints) receiver
    /// budget is exhausted.
    pub fn try_clone(&self) -> Result<Receiver<T>, CloneError> {
        Shared::new_receiver(&self.shared)
    }

    /// `Some(cap)` for capacity-bounded channels (whether bounded by the
    /// channel-layer gate or natively by a ring backend), `None` otherwise.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.shared.capacity_limit()
    }

    /// A recent-past snapshot of the number of values in the channel
    /// (exact at quiescence).
    #[must_use]
    pub fn approx_len(&self) -> usize {
        self.shared.backend.approx_len()
    }

    /// Whether every sender has been dropped. The channel may still hold
    /// values to drain.
    #[must_use]
    pub fn is_disconnected(&self) -> bool {
        // ORDERING: SC, consistent with `try_recv`'s disconnect check.
        self.shared.senders.load(Ordering::SeqCst) == 0
    }

    /// A snapshot of the backend queue's memory footprint (the E12
    /// introspection counters) — the receiver-side twin of
    /// [`Sender::memory_stats`].
    #[must_use]
    pub fn memory_stats(&self) -> MemoryStats {
        self.shared.backend.memory_stats()
    }

    /// Receives asynchronously: the returned future resolves to the next
    /// value, suspending (instead of parking a thread) while the channel
    /// is empty. Executor-agnostic; see [`crate::exec::block_on`] for the
    /// minimal test executor.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_channel::exec::block_on;
    ///
    /// let (mut tx, mut rx) = wfqueue_channel::unbounded::<u32>();
    /// tx.send(3).unwrap();
    /// assert_eq!(block_on(rx.recv_async()), Ok(3));
    /// ```
    #[cfg(feature = "async")]
    pub fn recv_async(&mut self) -> crate::future::RecvFuture<'_, T> {
        crate::future::RecvFuture::new(self)
    }

    /// The channel state, for the futures' waker registration.
    #[cfg(feature = "async")]
    pub(crate) fn shared(&self) -> &Shared<T> {
        &self.shared
    }
}

/// `clone` is [`Receiver::try_clone`] with the error turned into a panic.
///
/// # Panics
///
/// Panics when the channel's receiver endpoint budget is exhausted; use
/// [`Receiver::try_clone`] where that is a reachable state.
impl<T: Clone + Send + Sync + 'static> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.try_clone().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for Receiver<T> {
    fn drop(&mut self) {
        // ORDERING: as in Sender's drop — the disconnect state write.
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last receiver gone: wake capacity-blocked/async senders so
            // they can observe the disconnect.
            self.shared.not_full.notify();
        }
    }
}

impl<T: Clone + Send + Sync + 'static> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver")
            .field("shared", &self.shared)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Iterators
// ---------------------------------------------------------------------------

/// Non-blocking draining iterator, see [`Receiver::try_iter`].
#[derive(Debug)]
pub struct TryIter<'r, T: Clone + Send + Sync + 'static> {
    receiver: &'r mut Receiver<T>,
}

impl<T: Clone + Send + Sync + 'static> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

/// Blocking consuming iterator, see [`Receiver::into_iter`].
#[derive(Debug)]
pub struct IntoIter<T: Clone + Send + Sync + 'static> {
    receiver: Receiver<T>,
}

impl<T: Clone + Send + Sync + 'static> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

/// Consumes the receiver into a blocking iterator: each `next` parks until
/// a value arrives and returns `None` once the channel is empty with every
/// sender dropped — the natural shape of a worker loop.
///
/// # Examples
///
/// ```
/// let (mut tx, rx) = wfqueue_channel::unbounded();
/// wfqueue_sync::thread::spawn(move || {
///     for job in 0..3 {
///         tx.send(job).unwrap();
///     }
///     // tx drops here: the worker's loop below ends.
/// });
/// let processed: Vec<u32> = rx.into_iter().collect();
/// assert_eq!(processed, vec![0, 1, 2]);
/// ```
impl<T: Clone + Send + Sync + 'static> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter { receiver: self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bounded, unbounded, Backend, Channel, Endpoints};

    #[test]
    fn round_trip_all_backends() {
        let (mut tx, mut rx) = unbounded();
        tx.send(1u64).unwrap();
        assert_eq!(rx.recv(), Ok(1));

        let (mut tx, mut rx) = bounded(4);
        tx.send(2u64).unwrap();
        assert_eq!(rx.recv(), Ok(2));

        let (mut tx, mut rx) = Channel::builder()
            .backend(Backend::Sharded { shards: 4 })
            .build()
            .unwrap();
        tx.send(3u64).unwrap();
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn bounded_tree_reports_live_bytes_that_grow_with_blocks() {
        let (mut tx, rx) = bounded::<u64>(4096);
        let empty = tx.memory_stats();
        assert!(empty.live_bytes > 0, "version headers and dummy blocks");
        for v in 0..256 {
            tx.send(v).unwrap();
        }
        let full = rx.memory_stats();
        assert!(full.live_blocks > empty.live_blocks);
        // Every appended block costs at least its inline tree node.
        let per_block =
            (full.live_bytes - empty.live_bytes) / (full.live_blocks - empty.live_blocks);
        assert!(
            per_block >= 5 * std::mem::size_of::<usize>(),
            "{per_block} B/block"
        );
    }

    #[test]
    fn try_send_all_is_all_or_nothing() {
        let (mut tx, mut rx) = bounded::<u32>(3);
        tx.try_send_all([1, 2]).unwrap();
        // Two free slots are not enough for a batch of three...
        assert_eq!(
            tx.try_send_all([3, 4, 5]),
            Err(TrySendError::Full(vec![3, 4, 5]))
        );
        // ...and nothing of the failed batch was sent.
        assert_eq!(rx.recv_up_to(5), vec![1, 2]);
        tx.try_send_all([3, 4, 5]).unwrap();
        assert_eq!(rx.recv_up_to(5), vec![3, 4, 5]);
        // Empty batches are a no-op even when disconnected checks would fail.
        tx.try_send_all([]).unwrap();
        drop(rx);
        assert_eq!(
            tx.try_send_all([9]),
            Err(TrySendError::Disconnected(vec![9]))
        );
    }

    #[test]
    fn bounded_capacity_is_enforced() {
        let (mut tx, mut rx) = bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let err = tx.try_send(3).unwrap_err();
        assert!(err.is_full());
        assert_eq!(err.into_inner(), 3);
        // Releasing one slot admits exactly one more value.
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert!(tx.try_send(4).unwrap_err().is_full());
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn blocking_send_unblocks_on_recv() {
        let (mut tx, mut rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = wfqueue_sync::thread::spawn(move || {
            tx.send(2).unwrap(); // parks until rx frees the slot
            tx
        });
        wfqueue_sync::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        let _tx = t.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn drop_of_all_senders_drains_then_disconnects() {
        let (tx, mut rx) = unbounded::<u32>();
        let mut tx2 = tx.try_clone().unwrap();
        let mut tx = tx;
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        drop(tx2);
        assert!(rx.is_disconnected());
        // Both values drain before the disconnect is reported, through
        // both the try and the blocking paths.
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn drop_of_all_receivers_fails_sends_with_value_back() {
        let (mut tx, rx) = unbounded::<String>();
        drop(rx);
        assert!(tx.is_disconnected());
        let err = tx.try_send("v".to_string()).unwrap_err();
        assert!(err.is_disconnected());
        assert_eq!(err.into_inner(), "v");
        assert_eq!(tx.send("w".to_string()), Err(SendError("w".to_string())));
        assert_eq!(
            tx.send_all(["x".to_string(), "y".to_string()]),
            Err(SendError(vec!["x".to_string(), "y".to_string()]))
        );
    }

    #[test]
    fn blocked_receiver_wakes_on_disconnect() {
        let (tx, mut rx) = unbounded::<u32>();
        let t = wfqueue_sync::thread::spawn(move || rx.recv());
        wfqueue_sync::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(t.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn blocked_sender_wakes_on_disconnect() {
        let (mut tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = wfqueue_sync::thread::spawn(move || tx.send(2));
        wfqueue_sync::thread::sleep(Duration::from_millis(20));
        drop(rx); // the queued value 1 is dropped with the channel
        assert_eq!(t.join().unwrap(), Err(SendError(2)));
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (mut tx, mut rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(1));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn batches_and_capacity_chunking() {
        let (mut tx, mut rx) = bounded::<u32>(3);
        let t = wfqueue_sync::thread::spawn(move || {
            // 8 values through a capacity-3 channel: chunks of <= 3,
            // blocking between chunks until the receiver frees slots.
            tx.send_all(0..8).unwrap();
        });
        let mut got = Vec::new();
        while got.len() < 8 {
            let batch = rx.recv_up_to(4);
            if batch.is_empty() {
                wfqueue_sync::thread::yield_now();
            }
            got.extend(batch);
        }
        t.join().unwrap();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn endpoint_budget_is_capped() {
        let (tx, rx) = Channel::builder::<u32>()
            .endpoints(Endpoints {
                senders: 2,
                receivers: 1,
            })
            .build()
            .unwrap();
        let tx2 = tx.try_clone().unwrap();
        // Budget of 2 senders: the original + one clone; a third fails,
        // and dropped endpoints do not return their slot.
        assert_eq!(tx.try_clone().unwrap_err(), CloneError { limit: 2 });
        drop(tx2);
        assert_eq!(tx.try_clone().unwrap_err(), CloneError { limit: 2 });
        assert_eq!(rx.try_clone().unwrap_err(), CloneError { limit: 1 });
    }

    #[test]
    fn mpmc_partitions_values() {
        let (tx, rx) = unbounded::<u64>();
        let tx2 = tx.try_clone().unwrap();
        let rx2 = rx.try_clone().unwrap();
        let total = 2_000u64;
        let consumed: Vec<Vec<u64>> = wfqueue_sync::thread::scope(|s| {
            for (mut t, base) in [(tx, 0u64), (tx2, total)] {
                s.spawn(move || {
                    for i in 0..total {
                        t.send(base + i).unwrap();
                    }
                });
            }
            let joins: Vec<_> = [rx, rx2]
                .into_iter()
                .map(|rx| s.spawn(move || rx.into_iter().collect::<Vec<u64>>()))
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = consumed.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..2 * total).collect::<Vec<_>>());
    }
}
