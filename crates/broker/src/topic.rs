//! Topics and their publisher/subscriber handles.
//!
//! # Drain-then-close
//!
//! The broker's headline guarantee — *a publish that returned `Ok` is
//! never lost, even across an arbitrary interleaving of closes and handle
//! drops* — cannot be delegated to the channel's drop-disconnect protocol:
//! the topic registry keeps a root endpoint pair alive for minting, so the
//! channel never observes "all senders dropped". Instead each topic holds
//! a [`Seal`] above the channel: every publish runs inside a
//! [`Seal::enter`] entry (enqueue, count it as published, drop the entry),
//! [`Topic::close`] seals it, and a consumer that finds the channel empty
//! reports [`TryConsumeError::Closed`] only once [`Seal::is_drained`]
//! holds *and* one more dequeue came back empty. The proof is on
//! [`Seal`]; `tests/broker.rs` hunts the protocol under the adversarial
//! scheduler and drop-interleaving proptests.

use std::any::Any;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wfqueue_channel::{
    Backend, Channel, Endpoints, MemoryStats, Receiver, ReclaimPolicy, Seal, Sender, Signal,
    TryRecvError, TrySendError,
};
use wfqueue_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::error::{
    BrokerError, ConsumeError, ConsumeTimeoutError, PublishError, TryConsumeError, TryPublishError,
};

/// Configuration of one topic: which channel backend stores its values,
/// and the handle budgets.
///
/// The defaults — unbounded backend, 16 publishers + 16 subscribers — suit
/// a long-running service topic; the [`TopicConfig::bounded`] and
/// [`TopicConfig::ring`] shorthands configure backpressured topics.
/// `reclaim`, which only applies to some backends, is validated by the
/// channel builder this config delegates to: an inapplicable combination
/// is a [`BrokerError::Config`], not a silent ignore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopicConfig {
    /// The channel backend storing the topic's values (see
    /// [`Backend`] for the memory/capacity trade-offs).
    pub backend: Backend,
    /// Maximum publisher handles ever minted for the topic (≥ 1). Each
    /// owns one leaf of the backing ordering tree; dropped handles do not
    /// return their leaf.
    pub publishers: usize,
    /// Maximum subscriber handles ever minted for the topic (≥ 1).
    pub subscribers: usize,
    /// Tree-truncation policy (unbounded/sharded backends only).
    pub reclaim: Option<ReclaimPolicy>,
}

impl Default for TopicConfig {
    /// Unbounded backend, 16 publisher + 16 subscriber handles.
    fn default() -> Self {
        TopicConfig {
            backend: Backend::Unbounded,
            publishers: 16,
            subscribers: 16,
            reclaim: None,
        }
    }
}

impl TopicConfig {
    /// Defaults over a capacity-bounded tree backend: at most `capacity`
    /// values in flight, publishers block (backpressure) at the limit.
    #[must_use]
    pub fn bounded(capacity: usize) -> Self {
        TopicConfig {
            backend: Backend::BoundedTree { capacity },
            ..TopicConfig::default()
        }
    }

    /// Defaults over the wCQ-style ring backend: fixed `capacity`-slot
    /// storage, natively bounded.
    #[must_use]
    pub fn ring(capacity: usize) -> Self {
        TopicConfig {
            backend: Backend::Ring { capacity },
            ..TopicConfig::default()
        }
    }

    /// Defaults over `shards` independent wait-free shards (per-publisher
    /// FIFO only — see the crate docs on ordering).
    #[must_use]
    pub fn sharded(shards: usize) -> Self {
        TopicConfig {
            backend: Backend::Sharded { shards },
            ..TopicConfig::default()
        }
    }

    /// Returns the config with the publisher-handle budget replaced.
    #[must_use]
    pub fn with_publishers(mut self, publishers: usize) -> Self {
        self.publishers = publishers;
        self
    }

    /// Returns the config with the subscriber-handle budget replaced.
    #[must_use]
    pub fn with_subscribers(mut self, subscribers: usize) -> Self {
        self.subscribers = subscribers;
        self
    }

    /// Returns the config with the reclaim policy replaced.
    #[must_use]
    pub fn with_reclaim(mut self, reclaim: ReclaimPolicy) -> Self {
        self.reclaim = Some(reclaim);
        self
    }
}

/// A point-in-time summary of one topic's counters.
///
/// `published` and `delivered` are `SeqCst` counters bumped by the
/// publish/consume fast paths; at quiescence (no in-flight operations)
/// `published - delivered` equals the backlog exactly, and a closed topic
/// is fully drained precisely when they are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicStats {
    /// The topic's name.
    pub name: String,
    /// Values accepted by a publish operation (the `Ok` returns).
    pub published: u64,
    /// Values handed to a subscriber.
    pub delivered: u64,
    /// Recent-past backlog snapshot (exact at quiescence).
    pub backlog: usize,
    /// Live (not yet dropped) publisher handles.
    pub publishers: usize,
    /// Live (not yet dropped) subscriber handles.
    pub subscribers: usize,
    /// Whether the topic has been sealed by [`Topic::close`].
    pub closed: bool,
    /// The topic's capacity bound, if any.
    pub capacity: Option<usize>,
}

/// The type-erased face a topic shows the broker registry.
pub(crate) trait AnyTopic: Send + Sync {
    fn close(&self);
    fn stats(&self) -> TopicStats;
    fn memory_stats(&self) -> MemoryStats;
    fn value_type(&self) -> &'static str;
    fn as_any(self: Arc<Self>) -> Arc<dyn Any + Send + Sync>;
}

/// The root endpoints the registry keeps alive: they pin the channel
/// connected (so handle drops never trigger channel-level disconnect) and
/// mint every publisher/subscriber clone.
struct Roots<T: Clone + Send + Sync + 'static> {
    tx: Sender<T>,
    rx: Receiver<T>,
}

/// One topic's shared state: the root endpoints, the close [`Seal`], the
/// broker-level signals and the stats counters.
pub(crate) struct TopicCore<T: Clone + Send + Sync + 'static> {
    name: String,
    /// Locked only on the rare paths (handle minting, stats snapshots);
    /// the publish/consume fast paths never touch it.
    roots: Mutex<Roots<T>>,
    /// Every publish runs inside an entry; `close` seals it. Its wake
    /// signal is `not_empty` — see the module docs.
    seal: Seal,
    /// Values accepted by a publish (`Ok` returns).
    published: AtomicU64,
    /// Values handed to a subscriber.
    delivered: AtomicU64,
    /// Live publisher handles (stats only; no disconnect semantics).
    publishers: AtomicUsize,
    /// Live subscriber handles (stats only).
    subscribers: AtomicUsize,
    publisher_limit: usize,
    subscriber_limit: usize,
    /// Subscribers park here; publishes and `close` notify.
    not_empty: Signal,
    /// Backpressured publishers park here; consumes and `close` notify.
    not_full: Signal,
}

impl<T: Clone + Send + Sync + 'static> TopicCore<T> {
    fn new(name: &str, config: TopicConfig) -> Result<Arc<Self>, BrokerError> {
        // The +1 on each side is the root pair: minting draws on the
        // channel's endpoint budget, so the user-visible budgets stay
        // exactly `config.publishers` / `config.subscribers`.
        let mut builder = Channel::builder::<T>()
            .backend(config.backend)
            .endpoints(Endpoints {
                senders: config.publishers.saturating_add(1),
                receivers: config.subscribers.saturating_add(1),
            });
        if let Some(reclaim) = config.reclaim {
            builder = builder.reclaim(reclaim);
        }
        let (tx, rx) = builder.build().map_err(|source| BrokerError::Config {
            name: name.to_string(),
            source,
        })?;
        Ok(Arc::new(TopicCore {
            name: name.to_string(),
            roots: Mutex::new(Roots { tx, rx }),
            seal: Seal::default(),
            published: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            publishers: AtomicUsize::new(0),
            subscribers: AtomicUsize::new(0),
            publisher_limit: config.publishers,
            subscriber_limit: config.subscribers,
            not_empty: Signal::default(),
            not_full: Signal::default(),
        }))
    }

    fn roots(&self) -> std::sync::MutexGuard<'_, Roots<T>> {
        self.roots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn close(&self) {
        self.seal.seal();
        self.not_empty.notify();
        self.not_full.notify();
    }

    fn stats(&self) -> TopicStats {
        let roots = self.roots();
        TopicStats {
            name: self.name.clone(),
            // ORDERING: SeqCst counter reads — at quiescence these pair
            // exactly with the fast paths' SeqCst increments, which is
            // what lets `published == delivered` certify a full drain.
            published: self.published.load(Ordering::SeqCst),
            delivered: self.delivered.load(Ordering::SeqCst),
            backlog: roots.tx.approx_len(),
            // ORDERING: SeqCst handle-count reads, pairing with the
            // mint/drop increments.
            publishers: self.publishers.load(Ordering::SeqCst),
            subscribers: self.subscribers.load(Ordering::SeqCst),
            closed: self.seal.is_sealed(),
            capacity: roots.tx.capacity(),
        }
    }

    fn memory_stats(&self) -> MemoryStats {
        self.roots().tx.memory_stats()
    }
}

impl<T: Clone + Send + Sync + 'static> AnyTopic for TopicCore<T> {
    fn close(&self) {
        TopicCore::close(self);
    }

    fn stats(&self) -> TopicStats {
        TopicCore::stats(self)
    }

    fn memory_stats(&self) -> MemoryStats {
        TopicCore::memory_stats(self)
    }

    fn value_type(&self) -> &'static str {
        std::any::type_name::<T>()
    }

    fn as_any(self: Arc<Self>) -> Arc<dyn Any + Send + Sync> {
        self
    }
}

/// A handle on a named topic: mints publishers and subscribers, closes the
/// topic, and reports its counters. Cheap to clone (an `Arc`).
///
/// Obtained from [`Broker::topic`](crate::Broker::topic) /
/// [`Broker::create_topic`](crate::Broker::create_topic).
pub struct Topic<T: Clone + Send + Sync + 'static> {
    core: Arc<TopicCore<T>>,
}

impl<T: Clone + Send + Sync + 'static> Clone for Topic<T> {
    fn clone(&self) -> Self {
        Topic {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> std::fmt::Debug for Topic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topic")
            .field("name", &self.core.name)
            .field("closed", &self.core.seal.is_sealed())
            .finish_non_exhaustive()
    }
}

impl<T: Clone + Send + Sync + 'static> Topic<T> {
    pub(crate) fn from_core(core: Arc<TopicCore<T>>) -> Self {
        Topic { core }
    }

    pub(crate) fn build(name: &str, config: TopicConfig) -> Result<Self, BrokerError> {
        TopicCore::new(name, config).map(Topic::from_core)
    }

    pub(crate) fn core_as_any_topic(&self) -> Arc<dyn AnyTopic> {
        Arc::clone(&self.core) as Arc<dyn AnyTopic>
    }

    /// The topic's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// Mints a new publisher handle, drawing on the topic's publisher
    /// budget. Minting on a closed topic succeeds, but every publish
    /// through the handle reports [`TryPublishError::Closed`].
    ///
    /// # Errors
    ///
    /// [`BrokerError::PublishersExhausted`] once
    /// [`TopicConfig::publishers`] handles have been minted (dropped
    /// handles do not return their slot).
    pub fn publisher(&self) -> Result<Publisher<T>, BrokerError> {
        let tx =
            self.core
                .roots()
                .tx
                .try_clone()
                .map_err(|_| BrokerError::PublishersExhausted {
                    name: self.core.name.clone(),
                    limit: self.core.publisher_limit,
                })?;
        // ORDERING: SeqCst handle-count increment, read by `stats`.
        self.core.publishers.fetch_add(1, Ordering::SeqCst);
        Ok(Publisher {
            tx,
            core: Arc::clone(&self.core),
        })
    }

    /// Mints a new subscriber handle, drawing on the topic's subscriber
    /// budget. Minting on a closed topic succeeds and is the idiomatic way
    /// to drain a topic whose earlier subscribers were dropped — the
    /// registry's root endpoints keep every published value alive.
    ///
    /// # Errors
    ///
    /// [`BrokerError::SubscribersExhausted`] once
    /// [`TopicConfig::subscribers`] handles have been minted.
    pub fn subscriber(&self) -> Result<Subscriber<T>, BrokerError> {
        let rx =
            self.core
                .roots()
                .rx
                .try_clone()
                .map_err(|_| BrokerError::SubscribersExhausted {
                    name: self.core.name.clone(),
                    limit: self.core.subscriber_limit,
                })?;
        // ORDERING: SeqCst handle-count increment, read by `stats`.
        self.core.subscribers.fetch_add(1, Ordering::SeqCst);
        Ok(Subscriber {
            rx,
            core: Arc::clone(&self.core),
        })
    }

    /// Seals the topic: every subsequent (and in-flight-but-unsealed)
    /// publish fails with `Closed`, while subscribers drain the backlog
    /// and then observe `Closed` — the drain-then-close protocol of the
    /// module docs. Never blocks; idempotent.
    pub fn close(&self) {
        self.core.close();
    }

    /// Whether the topic has been sealed. Subscribers may still be
    /// draining the backlog.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.core.seal.is_sealed()
    }

    /// A snapshot of the topic's counters.
    #[must_use]
    pub fn stats(&self) -> TopicStats {
        self.core.stats()
    }

    /// The backend queue's memory footprint (the E12 introspection
    /// counters) — see
    /// [`MemoryStats`].
    #[must_use]
    pub fn memory_stats(&self) -> MemoryStats {
        self.core.memory_stats()
    }

    /// The topic's capacity bound (`None` for unbounded topics).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.core.roots().tx.capacity()
    }
}

// ---------------------------------------------------------------------------
// Publisher
// ---------------------------------------------------------------------------

/// The publishing half of a topic (the broker's fan-in side: any number of
/// publishers, each minted from [`Topic::publisher`], feed one topic).
///
/// Operations take `&mut self` — one pending operation per handle, the
/// paper's process model — and the handle is `Send`, so it moves freely
/// into a thread. Values of one publisher are delivered in publish order
/// (per-publisher FIFO); see the crate docs for the exact cross-publisher
/// ordering contract per backend.
///
/// Dropping a publisher never closes the topic — topics outlive their
/// handles, and only [`Topic::close`] /
/// [`Broker::close_topic`](crate::Broker::close_topic) seal them.
pub struct Publisher<T: Clone + Send + Sync + 'static> {
    tx: Sender<T>,
    core: Arc<TopicCore<T>>,
}

impl<T: Clone + Send + Sync + 'static> Publisher<T> {
    /// Attempts to publish without blocking.
    ///
    /// # Errors
    ///
    /// [`TryPublishError::Full`] if the topic is capacity-bounded and
    /// full; [`TryPublishError::Closed`] if the topic has been sealed.
    /// Both hand the value back.
    ///
    /// # Examples
    ///
    /// ```
    /// let broker = wfqueue_broker::Broker::new();
    /// let topic = broker.topic::<u32>("events").unwrap();
    /// let mut publisher = topic.publisher().unwrap();
    /// publisher.try_publish(7).unwrap();
    /// topic.close();
    /// assert!(publisher.try_publish(8).unwrap_err().is_closed());
    /// ```
    pub fn try_publish(&mut self, value: T) -> Result<(), TryPublishError<T>> {
        self.try_publish_counted(value, 1, Sender::try_send)
    }

    /// One non-blocking publish of `count` values inside a seal entry:
    /// `send` enqueues them, and an accepted send is counted in
    /// `published` before the entry drops.
    fn try_publish_counted<V>(
        &mut self,
        values: V,
        count: u64,
        send: impl FnOnce(&mut Sender<T>, V) -> Result<(), TrySendError<V>>,
    ) -> Result<(), TryPublishError<V>> {
        let Some(entry) = self.core.seal.enter(&self.core.not_empty) else {
            return Err(TryPublishError::Closed(values));
        };
        wfqueue_metrics::adversary_yield();
        let result = send(&mut self.tx, values);
        if result.is_ok() {
            // ORDERING: SeqCst published-counter increment *before* the
            // entry drops: once a consumer sees the seal drained,
            // `published` already covers these values.
            self.core.published.fetch_add(count, Ordering::SeqCst);
        }
        drop(entry);
        result.map_err(|e| match e {
            TrySendError::Full(v) => TryPublishError::Full(v),
            // The registry's root receiver pins the channel connected, so
            // a channel-level disconnect means the whole topic (registry
            // included) is gone — report it as closed.
            TrySendError::Disconnected(v) => TryPublishError::Closed(v),
        })
    }

    /// Publishes, blocking while a capacity-bounded topic is full
    /// (backpressure). On an unbounded topic this never blocks.
    ///
    /// # Errors
    ///
    /// [`PublishError`] (returning the value) if the topic is closed.
    pub fn publish(&mut self, value: T) -> Result<(), PublishError<T>> {
        let mut value = value;
        loop {
            match self.try_publish(value) {
                Ok(()) => return Ok(()),
                Err(TryPublishError::Closed(v)) => return Err(PublishError(v)),
                Err(TryPublishError::Full(v)) => value = v,
            }
            let key = self.core.not_full.listen();
            wfqueue_metrics::adversary_yield();
            match self.try_publish(value) {
                Ok(()) => {
                    self.core.not_full.cancel(key);
                    return Ok(());
                }
                Err(TryPublishError::Closed(v)) => {
                    self.core.not_full.cancel(key);
                    return Err(PublishError(v));
                }
                Err(TryPublishError::Full(v)) => {
                    value = v;
                    self.core.not_full.wait(key);
                }
            }
        }
    }

    /// Non-blocking batch publish: the whole batch lands as one atomic
    /// leaf block or not at all (the channel's
    /// [`try_send_all`](wfqueue_channel::Sender::try_send_all) contract).
    ///
    /// # Errors
    ///
    /// [`TryPublishError::Full`] if a capacity-bounded topic cannot admit
    /// the whole batch right now; [`TryPublishError::Closed`] if the topic
    /// is sealed. Both hand every value back; nothing was published.
    pub fn try_publish_all(
        &mut self,
        values: impl IntoIterator<Item = T>,
    ) -> Result<(), TryPublishError<Vec<T>>> {
        let values: Vec<T> = values.into_iter().collect();
        if values.is_empty() {
            return Ok(());
        }
        let count = values.len() as u64;
        self.try_publish_counted(values, count, |tx, values| tx.try_send_all(values))
    }

    /// Blocking batch publish: splits the batch into capacity-sized
    /// chunks, blocking while the topic is too full for the next chunk.
    ///
    /// # Errors
    ///
    /// [`PublishError`] with the values **not yet published** if the topic
    /// is closed mid-way; chunks already published stay in the topic.
    pub fn publish_all(
        &mut self,
        values: impl IntoIterator<Item = T>,
    ) -> Result<(), PublishError<Vec<T>>> {
        let mut rest: Vec<T> = values.into_iter().collect();
        while !rest.is_empty() {
            let take = match self.capacity() {
                None => rest.len(),
                Some(cap) => cap.min(rest.len()),
            };
            let mut chunk: Vec<T> = rest.drain(..take).collect();
            loop {
                chunk = match self.try_publish_all(chunk) {
                    Ok(()) => break,
                    Err(TryPublishError::Closed(mut c)) => {
                        c.extend(rest);
                        return Err(PublishError(c));
                    }
                    Err(TryPublishError::Full(c)) => c,
                };
                let key = self.core.not_full.listen();
                chunk = match self.try_publish_all(chunk) {
                    Ok(()) => {
                        self.core.not_full.cancel(key);
                        break;
                    }
                    Err(TryPublishError::Closed(mut c)) => {
                        self.core.not_full.cancel(key);
                        c.extend(rest);
                        return Err(PublishError(c));
                    }
                    Err(TryPublishError::Full(c)) => {
                        self.core.not_full.wait(key);
                        c
                    }
                };
            }
        }
        Ok(())
    }

    /// Publishes asynchronously: the returned future resolves once the
    /// value is in the topic, suspending (instead of parking a thread)
    /// while a capacity-bounded topic is full.
    #[cfg(feature = "async")]
    pub fn publish_async(&mut self, value: T) -> crate::future::PublishFuture<'_, T> {
        crate::future::PublishFuture::new(self, value)
    }

    /// Mints another publisher for the same topic (drawing on the topic's
    /// publisher budget).
    ///
    /// # Errors
    ///
    /// [`BrokerError::PublishersExhausted`] once the budget is exhausted.
    pub fn try_clone(&self) -> Result<Publisher<T>, BrokerError> {
        Topic::from_core(Arc::clone(&self.core)).publisher()
    }

    /// A [`Topic`] handle for this publisher's topic.
    #[must_use]
    pub fn topic(&self) -> Topic<T> {
        Topic::from_core(Arc::clone(&self.core))
    }

    /// The topic's name.
    #[must_use]
    pub fn topic_name(&self) -> &str {
        &self.core.name
    }

    /// The topic's capacity bound (`None` for unbounded topics).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.tx.capacity()
    }

    /// Whether the topic has been sealed (publishes would fail).
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.core.seal.is_sealed()
    }

    #[cfg(feature = "async")]
    pub(crate) fn core(&self) -> &TopicCore<T> {
        &self.core
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for Publisher<T> {
    fn drop(&mut self) {
        // ORDERING: SeqCst handle-count decrement, read by `stats`. No
        // notify: dropping a publisher does not close the topic, so no
        // parked subscriber's wakeup condition changed.
        self.core.publishers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T: Clone + Send + Sync + 'static> std::fmt::Debug for Publisher<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher")
            .field("topic", &self.core.name)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Subscriber
// ---------------------------------------------------------------------------

/// The consuming half of a topic (the broker's fan-out side).
///
/// Fan-out is **work-sharing**, not broadcast: the subscribers of a topic
/// partition its values between them, each value delivered to exactly one
/// subscriber — the MPMC contract of the underlying channel. Run one topic
/// per consumer group where broadcast semantics are needed.
///
/// Dropping a subscriber never strands published values: the registry's
/// root endpoints keep the backlog alive, and a subscriber minted later
/// (even after [`Topic::close`]) drains it.
pub struct Subscriber<T: Clone + Send + Sync + 'static> {
    rx: Receiver<T>,
    core: Arc<TopicCore<T>>,
}

impl<T: Clone + Send + Sync + 'static> Subscriber<T> {
    /// Books a delivered value in the topic counters and wakes one side:
    /// a consume frees capacity, so backpressured publishers re-check.
    fn booked(&self, count: u64) {
        // ORDERING: SeqCst delivered-counter increment before the
        // notify's fence; quiescence checks read it with SeqCst.
        self.core.delivered.fetch_add(count, Ordering::SeqCst);
        self.core.not_full.notify();
    }

    /// Attempts to receive without blocking.
    ///
    /// # Errors
    ///
    /// [`TryConsumeError::Empty`] if the topic holds no value right now
    /// but is still open (or a publish is mid-flight);
    /// [`TryConsumeError::Closed`] only once the topic's [`Seal`] is
    /// drained **and** a final dequeue came back empty — so a publish
    /// that returned `Ok` is never stranded.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_broker::{Broker, TryConsumeError};
    ///
    /// let broker = Broker::new();
    /// let topic = broker.topic::<u32>("events").unwrap();
    /// let mut publisher = topic.publisher().unwrap();
    /// let mut subscriber = topic.subscriber().unwrap();
    /// publisher.try_publish(1).unwrap();
    /// topic.close();
    /// // Drain-then-close: the backlog survives the close...
    /// assert_eq!(subscriber.try_recv(), Ok(1));
    /// // ...and only then is the closure reported.
    /// assert_eq!(subscriber.try_recv(), Err(TryConsumeError::Closed));
    /// ```
    pub fn try_recv(&mut self) -> Result<T, TryConsumeError> {
        match self.rx.try_recv() {
            Ok(value) => {
                self.booked(1);
                return Ok(value);
            }
            // The registry's root sender pins the channel connected; a
            // disconnect means the topic (registry included) is gone.
            Err(TryRecvError::Disconnected) => return Err(TryConsumeError::Closed),
            Err(TryRecvError::Empty) => {}
        }
        // Open, or a publish that may still land is in flight: `Closed`
        // cannot be reported yet.
        if !self.core.seal.is_drained() {
            return Err(TryConsumeError::Empty);
        }
        wfqueue_metrics::adversary_yield();
        // Drained: every accepted publish has completed its enqueue, so
        // one more dequeue either drains a remaining value or proves the
        // topic empty forever.
        match self.rx.try_recv() {
            Ok(value) => {
                self.booked(1);
                Ok(value)
            }
            Err(_) => Err(TryConsumeError::Closed),
        }
    }

    /// Receives, parking the thread while the topic is empty.
    ///
    /// # Errors
    ///
    /// [`ConsumeError`] once the topic is closed and fully drained; every
    /// value published before the close is delivered (somewhere) first.
    pub fn recv(&mut self) -> Result<T, ConsumeError> {
        loop {
            match self.try_recv() {
                Ok(value) => return Ok(value),
                Err(TryConsumeError::Closed) => return Err(ConsumeError),
                Err(TryConsumeError::Empty) => {}
            }
            let key = self.core.not_empty.listen();
            wfqueue_metrics::adversary_yield();
            match self.try_recv() {
                Ok(value) => {
                    self.core.not_empty.cancel(key);
                    return Ok(value);
                }
                Err(TryConsumeError::Closed) => {
                    self.core.not_empty.cancel(key);
                    return Err(ConsumeError);
                }
                Err(TryConsumeError::Empty) => self.core.not_empty.wait(key),
            }
        }
    }

    /// Receives with a deadline of `timeout` from now.
    ///
    /// # Errors
    ///
    /// [`ConsumeTimeoutError::Timeout`] if no value arrived in time;
    /// [`ConsumeTimeoutError::Closed`] as in [`Subscriber::recv`].
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, ConsumeTimeoutError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.try_recv() {
                Ok(value) => return Ok(value),
                Err(TryConsumeError::Closed) => return Err(ConsumeTimeoutError::Closed),
                Err(TryConsumeError::Empty) => {}
            }
            let key = self.core.not_empty.listen();
            wfqueue_metrics::adversary_yield();
            match self.try_recv() {
                Ok(value) => {
                    self.core.not_empty.cancel(key);
                    return Ok(value);
                }
                Err(TryConsumeError::Closed) => {
                    self.core.not_empty.cancel(key);
                    return Err(ConsumeTimeoutError::Closed);
                }
                Err(TryConsumeError::Empty) => {
                    if !self.core.not_empty.wait_deadline(key, deadline)
                        && Instant::now() >= deadline
                    {
                        return Err(ConsumeTimeoutError::Timeout);
                    }
                }
            }
        }
    }

    /// Receives up to `max` values without blocking, using the backend's
    /// native batch dequeue (one leaf block resolves the whole batch).
    /// Returns fewer (possibly zero) values if the topic ran empty; it
    /// never waits and does not distinguish empty from closed — use
    /// [`Subscriber::try_recv`] for that.
    #[must_use = "the received values should be used"]
    pub fn recv_up_to(&mut self, max: usize) -> Vec<T> {
        let values = self.rx.recv_up_to(max);
        if !values.is_empty() {
            self.booked(values.len() as u64);
        }
        values
    }

    /// Receives asynchronously: the returned future resolves to the next
    /// value, suspending (instead of parking a thread) while the topic is
    /// empty.
    #[cfg(feature = "async")]
    pub fn recv_async(&mut self) -> crate::future::ConsumeFuture<'_, T> {
        crate::future::ConsumeFuture::new(self)
    }

    /// Mints another subscriber for the same topic (drawing on the
    /// topic's subscriber budget).
    ///
    /// # Errors
    ///
    /// [`BrokerError::SubscribersExhausted`] once the budget is exhausted.
    pub fn try_clone(&self) -> Result<Subscriber<T>, BrokerError> {
        Topic::from_core(Arc::clone(&self.core)).subscriber()
    }

    /// A [`Topic`] handle for this subscriber's topic.
    #[must_use]
    pub fn topic(&self) -> Topic<T> {
        Topic::from_core(Arc::clone(&self.core))
    }

    /// The topic's name.
    #[must_use]
    pub fn topic_name(&self) -> &str {
        &self.core.name
    }

    /// Whether the topic has been sealed. The backlog may still hold
    /// values to drain.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.core.seal.is_sealed()
    }

    #[cfg(feature = "async")]
    pub(crate) fn core(&self) -> &TopicCore<T> {
        &self.core
    }
}

impl<T: Clone + Send + Sync + 'static> Drop for Subscriber<T> {
    fn drop(&mut self) {
        // ORDERING: SeqCst handle-count decrement, read by `stats`. No
        // notify: the backlog stays drainable through the root endpoints,
        // so no parked publisher's wakeup condition changed.
        self.core.subscribers.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T: Clone + Send + Sync + 'static> std::fmt::Debug for Subscriber<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("topic", &self.core.name)
            .finish_non_exhaustive()
    }
}

/// Blocking consuming iterator, see [`Subscriber::into_iter`].
#[derive(Debug)]
pub struct SubscriberIter<T: Clone + Send + Sync + 'static> {
    subscriber: Subscriber<T>,
}

impl<T: Clone + Send + Sync + 'static> Iterator for SubscriberIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.subscriber.recv().ok()
    }
}

/// Consumes the subscriber into a blocking iterator: each `next` parks
/// until a value arrives and returns `None` once the topic is closed and
/// drained — the natural shape of a topic worker loop.
impl<T: Clone + Send + Sync + 'static> IntoIterator for Subscriber<T> {
    type Item = T;
    type IntoIter = SubscriberIter<T>;

    fn into_iter(self) -> SubscriberIter<T> {
        SubscriberIter { subscriber: self }
    }
}

#[cfg(feature = "async")]
impl<T: Clone + Send + Sync + 'static> TopicCore<T> {
    /// The subscriber-side signal, for the futures' waker registration.
    pub(crate) fn not_empty_signal(&self) -> &Signal {
        &self.not_empty
    }

    /// The publisher-side signal, for the futures' waker registration.
    pub(crate) fn not_full_signal(&self) -> &Signal {
        &self.not_full
    }
}
