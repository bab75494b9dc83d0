//! Executor-agnostic `Future`s for the broker (behind `feature = "async"`).
//!
//! Structurally the async mirror of the channel crate's futures: each
//! `poll` is one [`Signal::poll_until`](wfqueue_channel::Signal::poll_until)
//! round — *try the operation → register the waker → try again* — on the
//! **topic-level** `Signal`s the blocking paths park on, so the second
//! attempt closes the race against a publish, consume or close that ran
//! between the first attempt and the registration. No runtime, reactor or
//! timer is pulled in; the futures run under any executor, including the
//! channel facade's minimal
//! [`block_on`](wfqueue_channel::exec::block_on) test executor.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::error::{ConsumeError, PublishError, TryConsumeError, TryPublishError};
use crate::{Publisher, Subscriber};

/// Future returned by [`Publisher::publish_async`]. Resolves once the
/// value is in the topic (immediately on unbounded topics; after capacity
/// frees up on full bounded ones), or to [`PublishError`] on a closed
/// topic.
///
/// Cancel-safe: dropping it before completion deregisters its waker; the
/// value is dropped with the future, never half-published.
#[derive(Debug)]
#[must_use = "futures do nothing unless polled"]
pub struct PublishFuture<'p, T: Clone + Send + Sync + 'static> {
    publisher: &'p mut Publisher<T>,
    value: Option<T>,
    waker_slot: Option<u64>,
}

impl<'p, T: Clone + Send + Sync + 'static> PublishFuture<'p, T> {
    pub(crate) fn new(publisher: &'p mut Publisher<T>, value: T) -> Self {
        PublishFuture {
            publisher,
            value: Some(value),
            waker_slot: None,
        }
    }
}

// No self-references (an exclusive borrow plus an owned value), so the
// future moves freely between polls.
impl<T: Clone + Send + Sync + 'static> Unpin for PublishFuture<'_, T> {}

impl<T: Clone + Send + Sync + 'static> Future for PublishFuture<'_, T> {
    type Output = Result<(), PublishError<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let core = Arc::clone(this.publisher.core());
        core.not_full_signal()
            .poll_until(&mut this.waker_slot, cx, || {
                let value = this.value.take().expect("polled after completion");
                match this.publisher.try_publish(value) {
                    Ok(()) => Some(Ok(())),
                    Err(TryPublishError::Closed(v)) => Some(Err(PublishError(v))),
                    Err(TryPublishError::Full(v)) => {
                        this.value = Some(v);
                        None
                    }
                }
            })
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for PublishFuture<'_, T> {
    fn drop(&mut self) {
        let signal = self.publisher.core().not_full_signal();
        signal.poll_cancel(&mut self.waker_slot);
    }
}

/// Future returned by [`Subscriber::recv_async`]. Resolves to the next
/// value, or to [`ConsumeError`] once the topic is closed and drained.
///
/// Cancel-safe: dropping it before completion deregisters its waker; it
/// never consumes a value it does not return.
#[derive(Debug)]
#[must_use = "futures do nothing unless polled"]
pub struct ConsumeFuture<'s, T: Clone + Send + Sync + 'static> {
    subscriber: &'s mut Subscriber<T>,
    waker_slot: Option<u64>,
}

impl<'s, T: Clone + Send + Sync + 'static> ConsumeFuture<'s, T> {
    pub(crate) fn new(subscriber: &'s mut Subscriber<T>) -> Self {
        ConsumeFuture {
            subscriber,
            waker_slot: None,
        }
    }
}

// No self-references — see `PublishFuture`.
impl<T: Clone + Send + Sync + 'static> Unpin for ConsumeFuture<'_, T> {}

impl<T: Clone + Send + Sync + 'static> Future for ConsumeFuture<'_, T> {
    type Output = Result<T, ConsumeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let core = Arc::clone(this.subscriber.core());
        core.not_empty_signal()
            .poll_until(&mut this.waker_slot, cx, || {
                match this.subscriber.try_recv() {
                    Ok(value) => Some(Ok(value)),
                    Err(TryConsumeError::Closed) => Some(Err(ConsumeError)),
                    Err(TryConsumeError::Empty) => None,
                }
            })
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for ConsumeFuture<'_, T> {
    fn drop(&mut self) {
        let signal = self.subscriber.core().not_empty_signal();
        signal.poll_cancel(&mut self.waker_slot);
    }
}

#[cfg(test)]
mod tests {
    use crate::{Broker, ConsumeError, PublishError, TopicConfig};
    use std::time::Duration;
    use wfqueue_channel::exec::{block_on, block_on_timeout};

    #[test]
    fn async_round_trip() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("t").unwrap();
        let mut publisher = topic.publisher().unwrap();
        let mut subscriber = topic.subscriber().unwrap();
        block_on(publisher.publish_async(5)).unwrap();
        assert_eq!(block_on(subscriber.recv_async()), Ok(5));
    }

    #[test]
    fn async_recv_wakes_on_cross_thread_publish() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("t").unwrap();
        let mut publisher = topic.publisher().unwrap();
        let mut subscriber = topic.subscriber().unwrap();
        let t = wfqueue_sync::thread::spawn(move || block_on(subscriber.recv_async()));
        wfqueue_sync::thread::sleep(Duration::from_millis(20));
        publisher.publish(9).unwrap();
        assert_eq!(t.join().unwrap(), Ok(9));
    }

    #[test]
    fn async_publish_wakes_on_capacity_release() {
        let broker = Broker::new();
        let topic = broker
            .create_topic::<u32>("t", TopicConfig::bounded(1))
            .unwrap();
        let mut publisher = topic.publisher().unwrap();
        let mut subscriber = topic.subscriber().unwrap();
        publisher.publish(1).unwrap();
        let t = wfqueue_sync::thread::spawn(move || {
            block_on(publisher.publish_async(2)).unwrap();
        });
        wfqueue_sync::thread::sleep(Duration::from_millis(20));
        assert_eq!(subscriber.recv(), Ok(1));
        t.join().unwrap();
        assert_eq!(subscriber.recv(), Ok(2));
    }

    #[test]
    fn async_close_semantics() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("t").unwrap();
        let mut publisher = topic.publisher().unwrap();
        let mut subscriber = topic.subscriber().unwrap();
        block_on(publisher.publish_async(1)).unwrap();
        topic.close();
        assert_eq!(block_on(publisher.publish_async(2)), Err(PublishError(2)));
        // Drain-then-close through the async path too.
        assert_eq!(block_on(subscriber.recv_async()), Ok(1));
        assert_eq!(block_on(subscriber.recv_async()), Err(ConsumeError));
    }

    #[test]
    fn async_recv_wakes_on_close() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("t").unwrap();
        let mut subscriber = topic.subscriber().unwrap();
        let t = wfqueue_sync::thread::spawn(move || block_on(subscriber.recv_async()));
        wfqueue_sync::thread::sleep(Duration::from_millis(20));
        topic.close();
        assert_eq!(t.join().unwrap(), Err(ConsumeError));
    }

    #[test]
    fn block_on_timeout_expires_and_cancels_cleanly() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("t").unwrap();
        let mut publisher = topic.publisher().unwrap();
        let mut subscriber = topic.subscriber().unwrap();
        assert_eq!(
            block_on_timeout(subscriber.recv_async(), Duration::from_millis(10)),
            None
        );
        publisher.publish(3).unwrap();
        assert_eq!(
            block_on_timeout(subscriber.recv_async(), Duration::from_millis(100)),
            Some(Ok(3))
        );
    }
}
