//! Executor-agnostic `Future`s for the channel (behind `feature = "async"`).
//!
//! The futures only use `core::task` — no runtime, reactor or timer is
//! pulled in — so they run under any executor, including the minimal
//! [`block_on`](crate::exec::block_on) test executor shipped in
//! [`crate::exec`]. Wakeups flow through the same event-count `Signal`s
//! as the blocking paths: each signal keeps a registry of `(id, Waker)`
//! pairs next to its parked threads, and every notify drains both.
//!
//! Each `poll` is one [`Signal::poll_until`](crate::Signal::poll_until)
//! round — *try the operation → register the waker → try again* — the
//! async mirror of the blocking paths' `wait_until`. The second attempt
//! closes the race against a notifier that ran between the first attempt
//! and the registration, so a wakeup can never be lost; each future's
//! `Drop` withdraws a registration a `Pending` poll left behind.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::error::{RecvError, SendError, TryRecvError, TrySendError};
use crate::{Receiver, Sender};

/// Future returned by [`Sender::send_async`]. Resolves once the value is
/// in the channel (immediately on unbounded channels; after a slot frees
/// up on full capacity-bounded ones).
///
/// The future is cancel-safe: dropping it before completion deregisters
/// its waker and hands the value back out of scope (the value is simply
/// dropped with the future, never half-sent).
#[derive(Debug)]
#[must_use = "futures do nothing unless polled"]
pub struct SendFuture<'s, T: Clone + Send + Sync + 'static> {
    sender: &'s mut Sender<T>,
    value: Option<T>,
    waker_slot: Option<u64>,
}

impl<'s, T: Clone + Send + Sync + 'static> SendFuture<'s, T> {
    pub(crate) fn new(sender: &'s mut Sender<T>, value: T) -> Self {
        SendFuture {
            sender,
            value: Some(value),
            waker_slot: None,
        }
    }
}

// The future holds no self-references (just an exclusive borrow and an
// owned value), so moving it between polls is fine.
impl<T: Clone + Send + Sync + 'static> Unpin for SendFuture<'_, T> {}

impl<T: Clone + Send + Sync + 'static> Future for SendFuture<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = Arc::clone(this.sender.shared());
        shared.not_full.poll_until(&mut this.waker_slot, cx, || {
            let value = this.value.take().expect("polled after completion");
            match this.sender.try_send(value) {
                Ok(()) => Some(Ok(())),
                Err(TrySendError::Disconnected(v)) => Some(Err(SendError(v))),
                Err(TrySendError::Full(v)) => {
                    this.value = Some(v);
                    None
                }
            }
        })
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for SendFuture<'_, T> {
    fn drop(&mut self) {
        self.sender
            .shared()
            .not_full
            .poll_cancel(&mut self.waker_slot);
    }
}

/// Future returned by [`Receiver::recv_async`]. Resolves to the received
/// value, or to [`RecvError`] once the channel is drained and every
/// sender dropped.
///
/// Cancel-safe: dropping it before completion deregisters its waker; it
/// never consumes a value it does not return.
#[derive(Debug)]
#[must_use = "futures do nothing unless polled"]
pub struct RecvFuture<'r, T: Clone + Send + Sync + 'static> {
    receiver: &'r mut Receiver<T>,
    waker_slot: Option<u64>,
}

impl<'r, T: Clone + Send + Sync + 'static> RecvFuture<'r, T> {
    pub(crate) fn new(receiver: &'r mut Receiver<T>) -> Self {
        RecvFuture {
            receiver,
            waker_slot: None,
        }
    }
}

// No self-references — see `SendFuture`.
impl<T: Clone + Send + Sync + 'static> Unpin for RecvFuture<'_, T> {}

impl<T: Clone + Send + Sync + 'static> Future for RecvFuture<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let shared = Arc::clone(this.receiver.shared());
        shared.not_empty.poll_until(&mut this.waker_slot, cx, || {
            match this.receiver.try_recv() {
                Ok(value) => Some(Ok(value)),
                Err(TryRecvError::Disconnected) => Some(Err(RecvError)),
                Err(TryRecvError::Empty) => None,
            }
        })
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for RecvFuture<'_, T> {
    fn drop(&mut self) {
        self.receiver
            .shared()
            .not_empty
            .poll_cancel(&mut self.waker_slot);
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::{block_on, block_on_timeout};
    use crate::{bounded, unbounded, RecvError, SendError};
    use std::time::Duration;

    #[test]
    fn async_round_trip() {
        let (mut tx, mut rx) = unbounded::<u32>();
        block_on(tx.send_async(5)).unwrap();
        assert_eq!(block_on(rx.recv_async()), Ok(5));
    }

    #[test]
    fn async_recv_wakes_on_cross_thread_send() {
        let (mut tx, mut rx) = unbounded::<u32>();
        let t = wfqueue_sync::thread::spawn(move || block_on(rx.recv_async()));
        wfqueue_sync::thread::sleep(Duration::from_millis(20));
        tx.send(9).unwrap();
        assert_eq!(t.join().unwrap(), Ok(9));
    }

    #[test]
    fn async_send_wakes_on_slot_release() {
        let (mut tx, mut rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let t = wfqueue_sync::thread::spawn(move || {
            block_on(tx.send_async(2)).unwrap();
            tx
        });
        wfqueue_sync::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        let _tx = t.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn async_disconnects() {
        let (tx, mut rx) = unbounded::<u32>();
        drop(tx);
        assert_eq!(block_on(rx.recv_async()), Err(RecvError));

        let (mut tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(block_on(tx.send_async(1)), Err(SendError(1)));
    }

    #[test]
    fn async_recv_wakes_on_disconnect() {
        let (tx, mut rx) = unbounded::<u32>();
        let t = wfqueue_sync::thread::spawn(move || block_on(rx.recv_async()));
        wfqueue_sync::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(t.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn block_on_timeout_expires_and_cancels_cleanly() {
        let (mut tx, mut rx) = unbounded::<u32>();
        // The future times out (no value), its waker deregisters on drop...
        assert_eq!(
            block_on_timeout(rx.recv_async(), Duration::from_millis(10)),
            None
        );
        // ...and the channel remains fully usable afterwards.
        tx.send(3).unwrap();
        assert_eq!(
            block_on_timeout(rx.recv_async(), Duration::from_millis(100)),
            Some(Ok(3))
        );
    }
}
