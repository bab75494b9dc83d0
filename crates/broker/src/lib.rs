//! A multi-topic publish/subscribe broker over the wait-free channel
//! facade.
//!
//! Where `wfqueue_channel` packages *one* queue of Naderibeni & Ruppert's
//! *"A Wait-free Queue with Polylogarithmic Step Complexity"* (PODC 2023)
//! behind sender/receiver endpoints, this crate composes *many* of them
//! into a service-shaped artifact: a [`Broker`] owning named, typed
//! **topics**, each backed by its own
//! [`Channel::builder`](wfqueue_channel::Channel::builder)-configured
//! queue — the §3 unbounded tree with epoch-based truncation, the §6
//! bounded-space tree behind a capacity gate, the wCQ-style ring, or the
//! sharded frontend ([`TopicConfig::backend`]).
//!
//! * **Fan-in**: any number of [`Publisher`] handles (minted within the
//!   topic's budget) feed one topic concurrently.
//! * **Fan-out**: the topic's [`Subscriber`]s partition its values —
//!   each value is delivered to **exactly one** subscriber (work-sharing,
//!   not broadcast; use one topic per consumer group for broadcast).
//! * **Backpressure**: a topic over [`Backend::BoundedTree`] or
//!   [`Backend::Ring`] bounds its in-flight values; [`Publisher::publish`]
//!   blocks (and [`Publisher::try_publish`] reports `Full`) at the limit.
//!   Backpressure is strictly per-topic: every topic has its own queue and
//!   its own wakeup signals, so a stalled subscriber on one topic cannot
//!   stall any other (hunted adversarially in `tests/broker.rs`).
//! * **Graceful close**: [`Topic::close`] seals a topic without dropping
//!   its backlog — subscribers drain every accepted value and only then
//!   observe `Closed`, publishers get their value handed back. Dropping
//!   subscriber handles never strands published values: the registry keeps
//!   root endpoints alive, and a later-minted subscriber drains the
//!   backlog. The protocol is the channel crate's
//!   [`Seal`](wfqueue_channel::Seal), applied in the `topic` module.
//!
//! # Ordering contract
//!
//! Within one topic the ordering is the backing channel's: **per-publisher
//! FIFO always** (one publisher's values are delivered in publish order),
//! and fully linearizable FIFO across publishers on the single-queue
//! backends (`Unbounded`, `BoundedTree`, `Ring`). A `Sharded` topic
//! relaxes cross-publisher order for root-CAS bandwidth. **Across topics
//! there is no ordering whatsoever** — topics are independent queues, and
//! no operation linearizes with respect to another topic's operations.
//! `tests/broker.rs` checks the per-topic contract with the Wing–Gong
//! linearizability checker through the harness broker adapters.
//!
//! # Example
//!
//! ```
//! use wfqueue_broker::{Broker, TopicConfig};
//!
//! let broker = Broker::new();
//! // Topics are typed at creation; `topic` is get-or-create.
//! let jobs = broker
//!     .create_topic::<u32>("jobs", TopicConfig::bounded(64))
//!     .unwrap();
//!
//! let mut publisher = jobs.publisher().unwrap();
//! let subscriber = jobs.subscriber().unwrap();
//!
//! let worker = wfqueue_sync::thread::spawn(move || {
//!     // Parks between values; ends when the topic is closed and drained.
//!     subscriber.into_iter().sum::<u32>()
//! });
//!
//! publisher.publish_all(0..10).unwrap();
//! jobs.close(); // drain-then-close: the worker still gets all 10 values
//! assert_eq!(worker.join().unwrap(), 45);
//! ```

#![deny(missing_docs)]

mod error;
mod topic;

#[cfg(feature = "async")]
pub mod future;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

pub use error::{
    BrokerError, ConsumeError, ConsumeTimeoutError, PublishError, TryConsumeError, TryPublishError,
};
pub use topic::{Publisher, Subscriber, SubscriberIter, Topic, TopicConfig, TopicStats};
pub use wfqueue_channel::{Backend, MemoryStats, ReclaimPolicy};

use topic::AnyTopic;

/// The topic registry: a named, typed map of independent topics.
///
/// Cheap to clone (an `Arc`): every clone sees the same topics. The
/// registry holds each topic's root endpoint pair, which is what lets a
/// topic outlive all of its handles — see [`Topic`].
#[derive(Clone, Default)]
pub struct Broker {
    inner: Arc<BrokerInner>,
}

#[derive(Default)]
struct BrokerInner {
    topics: Mutex<BTreeMap<String, Arc<dyn AnyTopic>>>,
}

impl Broker {
    /// Creates an empty broker.
    #[must_use]
    pub fn new() -> Broker {
        Broker::default()
    }

    fn topics(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<dyn AnyTopic>>> {
        self.inner
            .topics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn downcast<T: Clone + Send + Sync + 'static>(
        name: &str,
        entry: &Arc<dyn AnyTopic>,
    ) -> Result<Topic<T>, BrokerError> {
        let actual = entry.value_type();
        Arc::clone(entry)
            .as_any()
            .downcast::<topic::TopicCore<T>>()
            .map(Topic::from_core)
            .map_err(|_| BrokerError::TypeMismatch {
                name: name.to_string(),
                requested: std::any::type_name::<T>(),
                actual,
            })
    }

    /// Creates a new topic with an explicit [`TopicConfig`].
    ///
    /// # Errors
    ///
    /// [`BrokerError::TopicExists`] if the name is taken (by any value
    /// type); [`BrokerError::Config`] if the channel builder rejects the
    /// configuration.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_broker::{Broker, BrokerError, TopicConfig};
    ///
    /// let broker = Broker::new();
    /// broker
    ///     .create_topic::<u64>("metrics", TopicConfig::ring(256))
    ///     .unwrap();
    /// assert!(matches!(
    ///     broker.create_topic::<u64>("metrics", TopicConfig::default()),
    ///     Err(BrokerError::TopicExists { .. })
    /// ));
    /// ```
    pub fn create_topic<T: Clone + Send + Sync + 'static>(
        &self,
        name: &str,
        config: TopicConfig,
    ) -> Result<Topic<T>, BrokerError> {
        let mut topics = self.topics();
        if topics.contains_key(name) {
            return Err(BrokerError::TopicExists {
                name: name.to_string(),
            });
        }
        let topic = Topic::build(name, config)?;
        topics.insert(name.to_string(), topic.core_as_any_topic());
        Ok(topic)
    }

    /// Returns the named topic, creating it with [`TopicConfig::default`]
    /// if it does not exist yet (get-or-create).
    ///
    /// # Errors
    ///
    /// [`BrokerError::TypeMismatch`] if the topic exists with a different
    /// value type.
    pub fn topic<T: Clone + Send + Sync + 'static>(
        &self,
        name: &str,
    ) -> Result<Topic<T>, BrokerError> {
        let mut topics = self.topics();
        if let Some(entry) = topics.get(name) {
            return Broker::downcast(name, entry);
        }
        let topic = Topic::build(name, TopicConfig::default())?;
        topics.insert(name.to_string(), topic.core_as_any_topic());
        Ok(topic)
    }

    /// Returns the named topic without creating it.
    ///
    /// # Errors
    ///
    /// [`BrokerError::UnknownTopic`] if it does not exist;
    /// [`BrokerError::TypeMismatch`] if it exists with a different value
    /// type.
    pub fn get_topic<T: Clone + Send + Sync + 'static>(
        &self,
        name: &str,
    ) -> Result<Topic<T>, BrokerError> {
        let topics = self.topics();
        let entry = topics.get(name).ok_or_else(|| BrokerError::UnknownTopic {
            name: name.to_string(),
        })?;
        Broker::downcast(name, entry)
    }

    /// Mints a publisher on the named topic, get-or-creating it —
    /// shorthand for `broker.topic(name)?.publisher()`.
    ///
    /// # Errors
    ///
    /// As [`Broker::topic`] and [`Topic::publisher`].
    pub fn publisher<T: Clone + Send + Sync + 'static>(
        &self,
        name: &str,
    ) -> Result<Publisher<T>, BrokerError> {
        self.topic::<T>(name)?.publisher()
    }

    /// Mints a subscriber on the named topic, get-or-creating it —
    /// shorthand for `broker.topic(name)?.subscriber()`.
    ///
    /// # Errors
    ///
    /// As [`Broker::topic`] and [`Topic::subscriber`].
    pub fn subscriber<T: Clone + Send + Sync + 'static>(
        &self,
        name: &str,
    ) -> Result<Subscriber<T>, BrokerError> {
        self.topic::<T>(name)?.subscriber()
    }

    /// Seals the named topic (type-erased [`Topic::close`]): publishers
    /// get their values handed back, subscribers drain then observe
    /// `Closed`. The topic stays in the registry so late subscribers can
    /// still drain the backlog.
    ///
    /// # Errors
    ///
    /// [`BrokerError::UnknownTopic`] if it does not exist.
    pub fn close_topic(&self, name: &str) -> Result<(), BrokerError> {
        let topics = self.topics();
        let entry = topics.get(name).ok_or_else(|| BrokerError::UnknownTopic {
            name: name.to_string(),
        })?;
        entry.close();
        Ok(())
    }

    /// Seals every topic — the broker-wide graceful shutdown. Never
    /// blocks; subscribers drain each topic's backlog afterwards.
    pub fn shutdown(&self) {
        for entry in self.topics().values() {
            entry.close();
        }
    }

    /// The names of every registered topic, sorted.
    #[must_use]
    pub fn topic_names(&self) -> Vec<String> {
        self.topics().keys().cloned().collect()
    }

    /// Per-topic counter snapshots, sorted by topic name.
    #[must_use]
    pub fn stats(&self) -> Vec<TopicStats> {
        self.topics().values().map(|t| t.stats()).collect()
    }

    /// The memory footprint summed over every topic's backend (the E12
    /// introspection counters — see [`MemoryStats`]).
    #[must_use]
    pub fn memory_stats(&self) -> MemoryStats {
        let mut total = MemoryStats::default();
        for entry in self.topics().values() {
            total.accumulate(entry.memory_stats());
        }
        total
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("topics", &self.topic_names())
            .finish()
    }
}
