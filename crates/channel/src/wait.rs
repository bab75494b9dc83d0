//! The channel's wakeup primitive — an event count with an optional async
//! waker registry behind it — and the drain-then-close [`Seal`] built on
//! it.
//!
//! [`Signal`] solves the one problem the wait-free queue does not:
//! *waiting for data without spinning*. The protocol is the classic
//! event-count / sequence-lock handshake:
//!
//! * A waiter publishes itself (registering in `waiters` and snapshotting
//!   `epoch`), **re-checks the condition it is waiting for**, and only
//!   then parks — and the park refuses to sleep if the epoch already
//!   advanced.
//! * A notifier makes its update visible, then calls [`Signal::notify`],
//!   which advances the epoch and wakes sleepers — but only after an
//!   uncontended fast path (one `SeqCst` fence + one load of `waiters`)
//!   says somebody might be parked.
//!
//! The no-lost-wakeup argument is the store-buffer (Dekker) pattern: the
//! waiter *writes* `waiters` then *reads* the channel state; the notifier
//! *writes* the channel state then *reads* `waiters`; both sides order the
//! pair with `SeqCst`, so at least one of the two reads sees the other
//! side's write. Either the waiter's re-check finds the data (it never
//! sleeps), or the notifier sees `waiters > 0` (it wakes the sleeper).
//! `tests/channel.rs` hunts this handshake under the adversarial
//! scheduler, which yields inside every window of the protocol.
//!
//! The waiter's half is written once: [`Signal::wait_until`] for threads
//! and `Signal::poll_until` for futures (`feature = "async"`) run
//! *publish → re-check →
//! withdraw or sleep* around a caller-supplied attempt, so no caller can
//! forget the re-check or leave a publication behind. Every blocking
//! path in the workspace — channel, broker, executor workers, timer and
//! joins — parks through them; `cargo lint` (rule `park`) keeps any other
//! `Condvar` out of first-party code.
//!
//! Blocking through a [`Signal`] is, of course, **not wait-free** — see
//! the crate docs for where the wait-freedom boundary lies.
//!
//! The primitive is deliberately channel-agnostic (it never touches the
//! queue), so higher layers that need the same lost-wakeup-free handshake
//! over *their own* state reuse it instead of re-deriving the Dekker
//! argument. That is why [`Signal`] is public.
//!
//! [`Seal`] builds the layers' drain-then-close promise on the same
//! handshake; its docs carry that argument.

use std::sync::{Condvar, Mutex};
use std::time::Instant;
use wfqueue_sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Proof that a waiter published itself: the epoch it observed.
///
/// Consumed by exactly one of [`Signal::sleep`] or [`Signal::cancel`]
/// (not `Copy`; both take it by value).
#[derive(Debug)]
struct ListenKey(u64);

/// An event count: the blocking half of the channel.
#[derive(Debug, Default)]
pub struct Signal {
    /// Parked (or about-to-park) threads plus registered async wakers.
    waiters: AtomicUsize,
    /// Notification epoch; advancing it releases every current listener.
    epoch: AtomicU64,
    /// Guards the condvar sleep/notify pair (holds no data).
    lock: Mutex<()>,
    cv: Condvar,
    /// Registered async wakers as `(id, waker)`; ids are handed out by
    /// `next_waker_id` so a future can re-register (replacing its stale
    /// waker) and deregister precisely.
    #[cfg(feature = "async")]
    wakers: Mutex<Vec<(u64, std::task::Waker)>>,
    #[cfg(feature = "async")]
    next_waker_id: AtomicU64,
}

impl Signal {
    /// Blocks the thread until `attempt` returns `Some`, or until
    /// `deadline` passes (then `None`; with no deadline the result is
    /// always `Some`).
    ///
    /// Call it after a first attempt of your own failed: each round
    /// publishes the caller, calls `attempt` (on success it withdraws and
    /// returns), sleeps until a [`Signal::notify`] or the deadline, then
    /// calls `attempt` once more before publishing again. That post-publish
    /// re-check is what makes the handshake lost-wakeup-free, so `attempt`
    /// must observe every condition the notifiers of this signal announce.
    /// Calls and sleeps alternate, so a `wait_until` that returns `Some`
    /// from its `n`-th call slept `n / 2` times.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use wfqueue_channel::Signal;
    /// use wfqueue_sync::atomic::{AtomicBool, Ordering};
    ///
    /// let (signal, ready) = (Arc::new(Signal::default()), Arc::new(AtomicBool::new(false)));
    /// let (s, r) = (Arc::clone(&signal), Arc::clone(&ready));
    /// let waiter = wfqueue_sync::thread::spawn(move || {
    ///     s.wait_until(None, || r.load(Ordering::SeqCst).then_some("ready"))
    /// });
    /// ready.store(true, Ordering::SeqCst);
    /// signal.notify();
    /// assert_eq!(waiter.join().unwrap(), Some("ready"));
    /// ```
    pub fn wait_until<R>(
        &self,
        deadline: Option<Instant>,
        mut attempt: impl FnMut() -> Option<R>,
    ) -> Option<R> {
        loop {
            let key = self.listen();
            wfqueue_metrics::adversary_yield();
            if let Some(done) = attempt() {
                self.cancel(key);
                return Some(done);
            }
            if !self.sleep(key, deadline) {
                return None;
            }
            if let Some(done) = attempt() {
                return Some(done);
            }
        }
    }

    /// The async [`Signal::wait_until`]: calls `attempt`, and if it fails
    /// registers `cx`'s waker, calls it again, and returns `Pending` only
    /// if that fails too. `slot` is the future's registration id, kept
    /// across polls so a re-poll replaces its stale waker; a `Ready` poll
    /// withdraws it, and the future's `Drop` must call
    /// [`Signal::poll_cancel`] for a `Pending` one.
    #[cfg(feature = "async")]
    pub fn poll_until<R>(
        &self,
        slot: &mut Option<u64>,
        cx: &mut std::task::Context<'_>,
        mut attempt: impl FnMut() -> Option<R>,
    ) -> std::task::Poll<R> {
        if let Some(done) = attempt() {
            self.poll_cancel(slot);
            return std::task::Poll::Ready(done);
        }
        self.register_waker(slot, cx.waker());
        wfqueue_metrics::adversary_yield();
        match attempt() {
            Some(done) => {
                self.poll_cancel(slot);
                std::task::Poll::Ready(done)
            }
            None => std::task::Poll::Pending,
        }
    }

    /// Withdraws the registration a `Pending` [`Signal::poll_until`] left
    /// in `slot`, if a notify has not already consumed it. Called from
    /// the future's `Drop`.
    #[cfg(feature = "async")]
    pub fn poll_cancel(&self, slot: &mut Option<u64>) {
        if let Some(id) = slot.take() {
            let mut wakers = self
                .wakers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(pos) = wakers.iter().position(|(i, _)| *i == id) {
                wakers.remove(pos);
                // ORDERING: SeqCst withdrawal, mirroring cancel.
                self.waiters.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Publishes the caller as a waiter and snapshots the current epoch.
    /// The caller must re-check its condition before [`Signal::sleep`].
    fn listen(&self) -> ListenKey {
        // ORDERING: SeqCst RMW — the waiter's half of the Dekker
        // handshake. The publication must be globally ordered before the
        // caller's re-check of the channel state; see the module docs and
        // the exhaustive check in `tests/model.rs` (signal scenarios).
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // ORDERING: SeqCst snapshot so an epoch advanced by a concurrent
        // notify is never observed out of order with the publication.
        ListenKey(self.epoch.load(Ordering::SeqCst))
    }

    /// Withdraws a publication without sleeping (the re-check succeeded).
    fn cancel(&self, key: ListenKey) {
        let _ = key;
        // ORDERING: SeqCst to stay in the same total order as listen's
        // publication; a notifier either sees this withdrawal or wakes us.
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Parks until the epoch advances past the listened snapshot (then
    /// `true`; at once if it already has) or `deadline` passes (`false`),
    /// and withdraws the publication.
    fn sleep(&self, key: ListenKey, deadline: Option<Instant>) -> bool {
        let mut guard = self
            .lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let notified = loop {
            // ORDERING: SeqCst epoch read under the lock pairs with
            // notify's locked epoch increment: no sleep once the epoch
            // moved on.
            if self.epoch.load(Ordering::SeqCst) != key.0 {
                break true;
            }
            guard = match deadline {
                None => self
                    .cv
                    .wait(guard)
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
                Some(deadline) => {
                    let Some(remaining) = deadline
                        .checked_duration_since(Instant::now())
                        .filter(|d| !d.is_zero())
                    else {
                        break false;
                    };
                    self.cv
                        .wait_timeout(guard, remaining)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
            };
        };
        drop(guard);
        // ORDERING: SeqCst withdrawal, mirroring cancel.
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        notified
    }

    /// Wakes every current listener (parked threads and registered async
    /// wakers). The uncontended fast path is one fence plus one shared
    /// load, recorded in the step counters; with nobody listening nothing
    /// else happens.
    pub fn notify(&self) {
        // Dropping this fence is the seeded mutation that
        // `tests/checker_power.rs` proves the model checker catches (a
        // lost wakeup becomes a detected deadlock).
        // ORDERING: the notifier's state update (enqueue / slot release /
        // counter drop) happened before this call; the SeqCst fence orders
        // it before the `waiters` read for the Dekker argument above.
        fence(Ordering::SeqCst);
        wfqueue_metrics::record_shared_load();
        // ORDERING: SeqCst read — the second half of the fence pairing.
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        {
            let _guard = self
                .lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // ORDERING: SeqCst epoch advance under the lock; pairs with
            // the locked read in `sleep`.
            self.epoch.fetch_add(1, Ordering::SeqCst);
            self.cv.notify_all();
        }
        #[cfg(feature = "async")]
        self.wake_all();
    }

    /// Registers (or refreshes) an async waker under `slot`'s id.
    #[cfg(feature = "async")]
    fn register_waker(&self, slot: &mut Option<u64>, waker: &std::task::Waker) {
        let mut wakers = self
            .wakers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(id) = *slot {
            if let Some(entry) = wakers.iter_mut().find(|(i, _)| *i == id) {
                entry.1.clone_from(waker);
                return;
            }
            // A notify drained the old entry (and decremented `waiters`);
            // fall through and register afresh under a new id.
        }
        let id = self.next_waker_id.fetch_add(1, Ordering::Relaxed);
        *slot = Some(id);
        wakers.push((id, waker.clone()));
        // ORDERING: SeqCst publication, same Dekker role as listen's.
        self.waiters.fetch_add(1, Ordering::SeqCst);
    }

    /// Drains and fires every registered waker.
    #[cfg(feature = "async")]
    fn wake_all(&self) {
        let drained: Vec<(u64, std::task::Waker)> = {
            let mut wakers = self
                .wakers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *wakers)
        };
        if !drained.is_empty() {
            // ORDERING: SeqCst bulk withdrawal of the drained wakers.
            self.waiters.fetch_sub(drained.len(), Ordering::SeqCst);
            for (_, waker) in drained {
                waker.wake();
            }
        }
    }
}

/// A drain-then-close seal. The layers above the channel — broker topics,
/// the executor's pool and its timer wheel — promise that closing never
/// loses an accepted value: an operation that reported success is
/// delivered (or run), one that was refused hands its value back. A
/// `Seal` keeps that promise with a `sealed` flag and an `in_flight`
/// count:
///
/// * an operation calls [`Seal::enter`], which raises `in_flight` and
///   *then* reads `sealed`; on a sealed `Seal` it lowers the count again
///   and is refused, otherwise it does its work (an enqueue, a counter
///   bump) and drops the returned [`Entry`], which lowers the count;
/// * closing is [`Seal::seal`]: one store, it never waits;
/// * a drainer asks [`Seal::is_drained`], which reads `sealed` *then*
///   `in_flight`, and only then trusts one last look at the queue.
///
/// The no-lost-value argument is the same store-buffer (Dekker) shape as
/// [`Signal`]'s, with `SeqCst` on both sides: the entrant writes
/// `in_flight` then reads `sealed`; the drainer's close wrote `sealed`
/// and it then reads `in_flight`. If the drainer saw `sealed` and
/// `in_flight == 0`, every entrant that read `sealed == false` raised the
/// count before the seal store, so it had already lowered it again — and
/// it lowers it only after its work, so the drainer's last look sees that
/// work. An entrant whose raise came later reads `sealed == true` and is
/// refused. Every decrement (a finished entry *and* a refusal) is
/// followed by a `notify` on the caller's wake [`Signal`], because a
/// drainer may be parked waiting for the count to reach zero, not for
/// data. The type makes both rules structural: `enter` is the only way
/// to raise the count and it raises before it reads, and the count only
/// goes down through `enter`'s refusal or `Entry`'s `Drop`, both of which
/// notify. `seal_scenario` in `wfqueue_sync::model::protocols` checks the
/// handshake exhaustively, with a seeded bug for each rule and one for an
/// entry dropped before its work.
///
/// ```
/// use wfqueue_channel::{Seal, Signal};
///
/// let (seal, wake) = (Seal::default(), Signal::default());
/// let entry = seal.enter(&wake).expect("open");
/// seal.seal();
/// assert!(seal.enter(&wake).is_none(), "sealed: refused");
/// assert!(!seal.is_drained(), "one entry still in flight");
/// drop(entry);
/// assert!(seal.is_drained());
/// ```
#[derive(Debug, Default)]
pub struct Seal {
    /// Set once by [`Seal::seal`]; read by every [`Seal::enter`].
    sealed: AtomicBool,
    /// Entries between their `enter` and their drop.
    in_flight: AtomicUsize,
}

/// An operation admitted by [`Seal::enter`]. Dropping it lowers the
/// seal's in-flight count and notifies the wake [`Signal`]; drop it only
/// after the operation's effects (the enqueue, the counter bump) are
/// done.
#[must_use = "dropping the entry ends the admitted operation"]
#[derive(Debug)]
pub struct Entry<'a> {
    seal: &'a Seal,
    wake: &'a Signal,
}

impl Seal {
    /// Admits one operation: raises the in-flight count, then reads the
    /// seal. Returns `None` on a sealed `Seal`, after lowering the count
    /// again and notifying `wake` — a drainer parked on `wake` may be
    /// waiting for exactly that decrement.
    pub fn enter<'a>(&'a self, wake: &'a Signal) -> Option<Entry<'a>> {
        // ORDERING: SeqCst raise *before* the seal read — the entrant's
        // half of the Dekker handshake (type docs): a drainer that later
        // reads `in_flight == 0` knows this entrant's seal read resolved.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        wfqueue_metrics::adversary_yield();
        let entry = Entry { seal: self, wake };
        // ORDERING: SeqCst seal read, globally ordered after the raise.
        if self.sealed.load(Ordering::SeqCst) {
            return None; // `entry` drops here: lower, then notify.
        }
        Some(entry)
    }

    /// Seals: every later [`Seal::enter`] is refused. Never waits;
    /// idempotent. Callers notify their own signals afterwards.
    pub fn seal(&self) {
        // ORDERING: SeqCst seal store — the closer's half of the Dekker
        // handshake, in the same total order as `enter`'s read.
        self.sealed.store(true, Ordering::SeqCst);
    }

    /// Whether [`Seal::seal`] has run. Entries may still be in flight.
    #[must_use]
    pub fn is_sealed(&self) -> bool {
        // ORDERING: SeqCst, consistent with `seal` and `enter`.
        self.sealed.load(Ordering::SeqCst)
    }

    /// Whether the seal is set *and* no entry is in flight: from here on
    /// every admitted operation's effects are visible, and none can
    /// follow.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        // ORDERING: SeqCst seal read first, then the count — the reverse
        // of `enter`'s raise-then-read, which is what closes the race.
        if !self.sealed.load(Ordering::SeqCst) {
            return false;
        }
        wfqueue_metrics::adversary_yield();
        // ORDERING: SeqCst count read, ordered after the seal read.
        self.in_flight.load(Ordering::SeqCst) == 0
    }
}

impl Drop for Entry<'_> {
    fn drop(&mut self) {
        // ORDERING: SeqCst decrement after the entry's work and before
        // the notify's fence, so a drainer woken here re-reads a count
        // that covers the work.
        self.seal.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.wake.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn cancel_keeps_waiters_balanced() {
        let s = Signal::default();
        let key = s.listen();
        s.cancel(key);
        // ORDERING: test-only assertions; SC keeps them trivially sound.
        assert_eq!(s.waiters.load(Ordering::SeqCst), 0);
        // With no waiters, notify takes the fast path and changes nothing.
        s.notify();
        // ORDERING: test-only assertion.
        assert_eq!(s.epoch.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_returns_immediately_if_epoch_advanced() {
        let s = Signal::default();
        let key = s.listen();
        // A notifier that runs between listen and wait advances the epoch
        // (waiters is 1, so the slow path is taken).
        s.notify();
        assert!(s.sleep(key, None), "must not block");
        // ORDERING: test-only assertion.
        assert_eq!(s.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_deadline_times_out() {
        let s = Signal::default();
        let key = s.listen();
        let woken = s.sleep(key, Some(Instant::now() + Duration::from_millis(10)));
        assert!(!woken);
        // ORDERING: test-only assertion.
        assert_eq!(s.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn refused_enter_releases_a_pending_listen() {
        let (seal, wake) = (Seal::default(), Signal::default());
        // A drainer parked for the count to fall, not for data.
        let key = wake.listen();
        seal.seal();
        assert!(seal.enter(&wake).is_none());
        // The refusal's notify advanced the epoch, so the wait returns at
        // once instead of timing out.
        assert!(wake.sleep(key, Some(Instant::now() + Duration::from_secs(60))));
        assert!(seal.is_drained());
    }

    #[test]
    fn is_drained_waits_for_the_last_entry() {
        let (seal, wake) = (Seal::default(), Signal::default());
        let first = seal.enter(&wake).expect("open");
        let second = seal.enter(&wake).expect("open");
        assert!(!seal.is_drained(), "not sealed yet");
        seal.seal();
        assert!(!seal.is_drained(), "two entries in flight");
        drop(first);
        assert!(!seal.is_drained(), "one entry in flight");
        drop(second);
        assert!(seal.is_drained());
    }

    #[test]
    fn seal_is_idempotent() {
        let (seal, wake) = (Seal::default(), Signal::default());
        assert!(!seal.is_sealed());
        seal.seal();
        seal.seal();
        assert!(seal.is_sealed() && seal.is_drained());
        assert!(seal.enter(&wake).is_none());
        // ORDERING: test-only assertion.
        assert_eq!(seal.in_flight.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_until_deadline_expires_with_waiters_balanced() {
        let s = Signal::default();
        let mut calls = 0;
        let deadline = Instant::now() + Duration::from_millis(10);
        let got = s.wait_until(Some(deadline), || -> Option<()> {
            calls += 1;
            None
        });
        assert_eq!(got, None);
        assert!(Instant::now() >= deadline);
        assert_eq!(
            calls, 1,
            "the timed-out sleep is not followed by an attempt"
        );
        // ORDERING: test-only assertion.
        assert_eq!(s.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_until_withdraws_after_a_post_listen_success() {
        let s = Signal::default();
        let got = s.wait_until(None, || {
            // The attempt runs with the caller published.
            // ORDERING: test-only read.
            assert_eq!(s.waiters.load(Ordering::SeqCst), 1);
            Some(7)
        });
        assert_eq!(got, Some(7));
        // ORDERING: test-only assertions.
        assert_eq!(s.waiters.load(Ordering::SeqCst), 0);
        // Nothing is left to wake: notify keeps to its fast path.
        s.notify();
        // ORDERING: test-only assertion.
        assert_eq!(s.epoch.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn cross_thread_wakeup() {
        let s = Arc::new(Signal::default());
        let flag = Arc::new(AtomicBool::new(false));
        let (s2, flag2) = (Arc::clone(&s), Arc::clone(&flag));
        let waiter = wfqueue_sync::thread::spawn(move || {
            // ORDERING: the flag is the "channel state" of the Dekker
            // handshake; SC on both sides closes the sleep/notify race.
            s2.wait_until(None, || flag2.load(Ordering::SeqCst).then_some(()))
        });
        wfqueue_sync::thread::sleep(Duration::from_millis(20));
        // ORDERING: the notifier's state update; notify's fence orders it
        // before the `waiters` read.
        flag.store(true, Ordering::SeqCst);
        s.notify();
        assert_eq!(waiter.join().unwrap(), Some(()));
        // ORDERING: test-only assertion.
        assert_eq!(s.waiters.load(Ordering::SeqCst), 0);
    }

    #[cfg(feature = "async")]
    #[test]
    fn pending_poll_then_cancel_leaves_no_waker() {
        use std::task::{Context, Poll, Waker};
        let s = Signal::default();
        let mut cx = Context::from_waker(Waker::noop());
        let mut slot = None;
        let mut calls = 0;
        let polled = s.poll_until(&mut slot, &mut cx, || -> Option<()> {
            calls += 1;
            None
        });
        assert_eq!(polled, Poll::Pending);
        assert_eq!(calls, 2, "one attempt before and one after registering");
        // ORDERING: test-only assertion.
        assert_eq!(s.waiters.load(Ordering::SeqCst), 1);
        // What a dropped future's `Drop` runs.
        s.poll_cancel(&mut slot);
        assert_eq!(slot, None);
        // ORDERING: test-only assertion.
        assert_eq!(s.waiters.load(Ordering::SeqCst), 0);
        assert!(s.wakers.lock().unwrap().is_empty());
    }
}
