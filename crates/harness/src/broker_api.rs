//! [`ConcurrentQueue`] adapters for the broker layer, so the Wing–Gong
//! linearizability rounds, adversarial-scheduler audits and proptest
//! workloads run unchanged against a `wfqueue_broker` **topic** — the full
//! stack of registry, drain-then-close seal, publisher/subscriber
//! handle accounting and topic-level wakeup signals, not just the raw
//! channel underneath.
//!
//! A harness "handle" is a full `(Publisher, Subscriber)` pair minted from
//! one topic, because the uniform [`QueueHandle`] interface issues both
//! enqueues and dequeues from one thread. [`ChannelMode`] (shared with the
//! channel adapters) selects which consumption mode the suite exercises:
//! `try_publish`/`try_recv`, blocking `publish`/`recv_timeout`, or the
//! `feature = "async"` futures driven by the facade's block-on executor.
//!
//! Like [`WfChannel`](crate::channel_api::WfChannel), the adapters build
//! unbounded/sharded topics with [`ReclaimPolicy::Off`] so that step
//! counts compare apples-to-apples against the raw queues.

use std::sync::Mutex;
use std::time::Duration;

use wfqueue_broker::{Broker, Publisher, ReclaimPolicy, Subscriber, Topic, TopicConfig};

use crate::channel_api::ChannelMode;
use crate::queue_api::{ConcurrentQueue, QueueHandle};

/// How long the blocking/async dequeue modes wait before reporting the
/// topic empty. Mirrors the channel adapter's patience: short enough that
/// dequeue-heavy histories stay fast, long enough that a concurrent
/// publish's wakeup (microseconds) is routinely exercised.
const RECV_PATIENCE: Duration = Duration::from_micros(500);

/// A broker topic under test: a registry with one topic plus a pool of
/// pre-minted `(Publisher, Subscriber)` pairs handed out as harness
/// handles.
///
/// The broker registry pins the topic's root endpoints, so the topic stays
/// open for the whole workload no matter in which order handles are taken
/// and dropped — harness publishes cannot fail with `Closed`.
///
/// # Examples
///
/// ```
/// use wfqueue_harness::broker_api::WfBrokerTopic;
/// use wfqueue_harness::channel_api::ChannelMode;
/// use wfqueue_harness::queue_api::{ConcurrentQueue, QueueHandle};
///
/// let q: WfBrokerTopic<u64> = WfBrokerTopic::unbounded(2, ChannelMode::Try);
/// let mut h = q.handle();
/// h.enqueue(9);
/// assert_eq!(h.dequeue(), Some(9));
/// ```
pub struct WfBrokerTopic<T: Clone + Send + Sync + 'static> {
    // Held so the registry (and with it the topic's root endpoints)
    // outlives every handle in the pool.
    _broker: Broker,
    topic: Topic<T>,
    pool: Mutex<Vec<(Publisher<T>, Subscriber<T>)>>,
    mode: ChannelMode,
    handles: usize,
    name: &'static str,
}

impl<T: Clone + Send + Sync + 'static> WfBrokerTopic<T> {
    /// A topic over the §3 unbounded tree, sized for `p` harness handles.
    #[must_use]
    pub fn unbounded(p: usize, mode: ChannelMode) -> Self {
        Self::from_config(
            TopicConfig::default().with_reclaim(ReclaimPolicy::Off),
            p,
            mode,
            "wf-broker-unbounded",
        )
    }

    /// A capacity-bounded topic (§6 bounded-tree backend) sized for `p`
    /// harness handles.
    ///
    /// Size `capacity` at least as large as the workload's maximum
    /// in-flight value count when using [`ChannelMode::Try`]: the uniform
    /// [`QueueHandle::enqueue`]/[`QueueHandle::enqueue_batch`] have no
    /// failure path, so a `Full` response panics the adapter.
    #[must_use]
    pub fn bounded(p: usize, capacity: usize, mode: ChannelMode) -> Self {
        Self::from_config(TopicConfig::bounded(capacity), p, mode, "wf-broker-bounded")
    }

    /// A topic over the wCQ-style bounded ring backend, sized for `p`
    /// harness handles. Same capacity caveat as [`WfBrokerTopic::bounded`].
    #[must_use]
    pub fn ring(p: usize, capacity: usize, mode: ChannelMode) -> Self {
        Self::from_config(TopicConfig::ring(capacity), p, mode, "wf-broker-ring")
    }

    /// A sharded topic (`shards` wait-free shards) sized for `p` harness
    /// handles.
    ///
    /// As with the raw sharded adapters, `shards > 1` is per-*publisher*
    /// FIFO rather than one linearizable queue — run the Wing–Gong checker
    /// against `shards = 1` only.
    #[must_use]
    pub fn sharded(shards: usize, p: usize, mode: ChannelMode) -> Self {
        Self::from_config(
            TopicConfig::sharded(shards).with_reclaim(ReclaimPolicy::Off),
            p,
            mode,
            "wf-broker-sharded",
        )
    }

    fn from_config(config: TopicConfig, p: usize, mode: ChannelMode, name: &'static str) -> Self {
        assert!(p > 0, "need at least one handle");
        let config = config.with_publishers(p).with_subscribers(p);
        let broker = Broker::new();
        let topic = broker
            .create_topic::<T>("harness", config)
            .expect("valid harness topic config");
        // Handles are minted in order, so (as in the channel adapters) the
        // backing tree's process-id layout is deterministic run to run.
        let pool = (0..p)
            .map(|_| {
                (
                    topic.publisher().expect("publisher budget sized to p"),
                    topic.subscriber().expect("subscriber budget sized to p"),
                )
            })
            .collect();
        WfBrokerTopic {
            _broker: broker,
            topic,
            pool: Mutex::new(pool),
            mode,
            handles: p,
            name,
        }
    }

    /// The underlying topic, for tests that assert on [`Topic::stats`] or
    /// memory counters mid-workload.
    #[must_use]
    pub fn topic(&self) -> &Topic<T> {
        &self.topic
    }
}

impl<T: Clone + Send + Sync + 'static> std::fmt::Debug for WfBrokerTopic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WfBrokerTopic")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("handles", &self.handles)
            .finish()
    }
}

impl<T: Clone + Send + Sync + 'static> ConcurrentQueue<T> for WfBrokerTopic<T> {
    type Handle<'a>
        = WfBrokerHandle<T>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        self.name
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        let mut pool = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if pool.is_empty() {
            None
        } else {
            let (publisher, subscriber) = pool.remove(0);
            Some(WfBrokerHandle {
                publisher,
                subscriber,
                mode: self.mode,
            })
        }
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.handles)
    }
}

/// One harness handle: a `Publisher` + `Subscriber` pair consumed in the
/// selected [`ChannelMode`].
#[derive(Debug)]
pub struct WfBrokerHandle<T: Clone + Send + Sync + 'static> {
    /// The publishing side (exposed for tests that need handle-level
    /// access, e.g. to drop one side mid-history).
    pub publisher: Publisher<T>,
    /// The subscribing side.
    pub subscriber: Subscriber<T>,
    mode: ChannelMode,
}

impl<T: Clone + Send + Sync + 'static> QueueHandle<T> for WfBrokerHandle<T> {
    fn enqueue(&mut self, value: T) {
        match self.mode {
            ChannelMode::Try => self
                .publisher
                .try_publish(value)
                .unwrap_or_else(|e| panic!("harness topic try_publish failed: {e}")),
            ChannelMode::Blocking => self
                .publisher
                .publish(value)
                .unwrap_or_else(|e| panic!("harness topic publish failed: {e}")),
            #[cfg(feature = "async")]
            ChannelMode::Async => {
                wfqueue_channel::exec::block_on(self.publisher.publish_async(value))
                    .unwrap_or_else(|e| panic!("harness topic publish_async failed: {e}"))
            }
        }
    }

    fn dequeue(&mut self) -> Option<T> {
        match self.mode {
            // Empty and Closed both witness "empty at the linearization
            // point" — a valid `None`.
            ChannelMode::Try => self.subscriber.try_recv().ok(),
            ChannelMode::Blocking => self.subscriber.recv_timeout(RECV_PATIENCE).ok(),
            #[cfg(feature = "async")]
            ChannelMode::Async => {
                wfqueue_channel::exec::block_on_timeout(self.subscriber.recv_async(), RECV_PATIENCE)
                    .and_then(Result::ok)
            }
        }
    }

    fn enqueue_batch(&mut self, values: Vec<T>) {
        match self.mode {
            // Non-blocking all-or-nothing batch; as with `enqueue`, a
            // `Full` response on an undersized bounded topic panics (the
            // uniform interface has no failure path).
            ChannelMode::Try => self
                .publisher
                .try_publish_all(values)
                .unwrap_or_else(|e| panic!("harness topic try_publish_all failed: {e}")),
            // The broker has no async batch API: batches ride the blocking
            // `publish_all` in both remaining modes.
            #[cfg(feature = "async")]
            ChannelMode::Async => self
                .publisher
                .publish_all(values)
                .unwrap_or_else(|e| panic!("harness topic publish_all failed: {e}")),
            ChannelMode::Blocking => self
                .publisher
                .publish_all(values)
                .unwrap_or_else(|e| panic!("harness topic publish_all failed: {e}")),
        }
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        let mut out: Vec<Option<T>> = self
            .subscriber
            .recv_up_to(count)
            .into_iter()
            .map(Some)
            .collect();
        out.resize_with(count, || None);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modes() -> Vec<ChannelMode> {
        vec![
            ChannelMode::Try,
            ChannelMode::Blocking,
            #[cfg(feature = "async")]
            ChannelMode::Async,
        ]
    }

    #[test]
    fn round_trip_all_backends_and_modes() {
        for mode in modes() {
            for q in [
                WfBrokerTopic::<u64>::unbounded(2, mode),
                WfBrokerTopic::<u64>::bounded(2, 64, mode),
                WfBrokerTopic::<u64>::ring(2, 64, mode),
                WfBrokerTopic::<u64>::sharded(2, 2, mode),
            ] {
                let mut h = q.handle();
                h.enqueue(1);
                h.enqueue(2);
                assert_eq!(h.dequeue(), Some(1), "{} {mode:?}", q.name());
                assert_eq!(h.dequeue(), Some(2), "{} {mode:?}", q.name());
                assert_eq!(h.dequeue(), None, "{} {mode:?}", q.name());
            }
        }
    }

    #[test]
    fn batch_round_trip() {
        for mode in modes() {
            let q = WfBrokerTopic::<u64>::unbounded(1, mode);
            let mut h = q.handle();
            h.enqueue_batch(vec![1, 2, 3]);
            assert_eq!(
                h.dequeue_batch(4),
                vec![Some(1), Some(2), Some(3), None],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn pool_is_capped_and_topic_counts_match() {
        let q = WfBrokerTopic::<u64>::unbounded(2, ChannelMode::Try);
        assert_eq!(ConcurrentQueue::<u64>::capacity(&q), Some(2));
        let handles = q.handles();
        assert_eq!(handles.len(), 2);
        assert!(q.try_handle().is_none());
        let stats = q.topic().stats();
        assert_eq!(stats.publishers, 2);
        assert_eq!(stats.subscribers, 2);
    }

    #[test]
    fn workload_audits_pass_through_the_broker() {
        use crate::workload::{run_workload, WorkloadSpec};
        for mode in modes() {
            let q = WfBrokerTopic::<u64>::unbounded(2, mode);
            let spec = WorkloadSpec {
                threads: 2,
                ops_per_thread: 400,
                enqueue_permille: 600,
                prefill: 8,
                seed: 0xB40C,
            };
            let r = run_workload(&q, &spec);
            assert!(r.audits_ok(), "{mode:?}: {r:?}");
        }
    }
}
