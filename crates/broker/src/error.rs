//! Error types of the broker operations.
//!
//! The publish/consume errors mirror the channel crate's send/receive
//! errors (failed publishes hand the value(s) back; consumers distinguish
//! *empty right now* from *closed forever*), and [`BrokerError`] covers
//! the registry operations: topic lookup, typing, budgets and
//! configuration.

use std::fmt;

use wfqueue_channel::BuildError;

/// A [`Broker`](crate::Broker) registry operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BrokerError {
    /// The named topic does not exist (and the operation does not create
    /// topics — see [`Broker::topic`](crate::Broker::topic) for
    /// get-or-create).
    UnknownTopic {
        /// The topic name that was looked up.
        name: String,
    },
    /// [`Broker::create_topic`](crate::Broker::create_topic) found the
    /// name already taken.
    TopicExists {
        /// The topic name that was requested.
        name: String,
    },
    /// The topic exists but carries values of a different type: topics are
    /// typed at creation, and every later access must use the same `T`.
    TypeMismatch {
        /// The topic name that was accessed.
        name: String,
        /// The value type the caller asked for.
        requested: &'static str,
        /// The value type the topic was created with.
        actual: &'static str,
    },
    /// The topic's publisher-handle budget
    /// ([`TopicConfig::publishers`](crate::TopicConfig::publishers)) is
    /// exhausted — each handle owns one leaf of the backing ordering tree,
    /// and dropped handles do not return their leaf.
    PublishersExhausted {
        /// The topic name.
        name: String,
        /// The exhausted budget.
        limit: usize,
    },
    /// The topic's subscriber-handle budget
    /// ([`TopicConfig::subscribers`](crate::TopicConfig::subscribers)) is
    /// exhausted.
    SubscribersExhausted {
        /// The topic name.
        name: String,
        /// The exhausted budget.
        limit: usize,
    },
    /// The topic's [`TopicConfig`](crate::TopicConfig) was rejected by the
    /// channel builder it delegates to.
    Config {
        /// The topic name that was requested.
        name: String,
        /// The channel builder's verdict.
        source: BuildError,
    },
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::UnknownTopic { name } => write!(f, "no topic named {name:?}"),
            BrokerError::TopicExists { name } => {
                write!(f, "a topic named {name:?} already exists")
            }
            BrokerError::TypeMismatch {
                name,
                requested,
                actual,
            } => write!(
                f,
                "topic {name:?} carries values of type {actual}, not {requested}"
            ),
            BrokerError::PublishersExhausted { name, limit } => write!(
                f,
                "topic {name:?} publisher budget exhausted: all {limit} handles have been \
                 created (configure the topic with a larger `publishers` budget)"
            ),
            BrokerError::SubscribersExhausted { name, limit } => write!(
                f,
                "topic {name:?} subscriber budget exhausted: all {limit} handles have been \
                 created (configure the topic with a larger `subscribers` budget)"
            ),
            BrokerError::Config { name, source } => {
                write!(f, "invalid configuration for topic {name:?}: {source}")
            }
        }
    }
}

impl std::error::Error for BrokerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BrokerError::Config { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A [`Publisher::try_publish`](crate::Publisher::try_publish) failed; the
/// value is handed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryPublishError<T> {
    /// The topic is capacity-bounded and currently full.
    Full(T),
    /// The topic has been closed; no further values are accepted.
    Closed(T),
}

impl<T> TryPublishError<T> {
    /// Consumes the error, returning the value that was not published.
    pub fn into_inner(self) -> T {
        match self {
            TryPublishError::Full(v) | TryPublishError::Closed(v) => v,
        }
    }

    /// Whether the failure was a full capacity-bounded topic.
    #[must_use]
    pub fn is_full(&self) -> bool {
        matches!(self, TryPublishError::Full(_))
    }

    /// Whether the failure was a closed topic.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        matches!(self, TryPublishError::Closed(_))
    }
}

impl<T> fmt::Display for TryPublishError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryPublishError::Full(_) => write!(f, "publishing on a full topic"),
            TryPublishError::Closed(_) => write!(f, "publishing on a closed topic"),
        }
    }
}

impl<T: fmt::Debug> std::error::Error for TryPublishError<T> {}

/// A [`Publisher::publish`](crate::Publisher::publish) or
/// [`Publisher::publish_all`](crate::Publisher::publish_all) failed because
/// the topic was closed; the unpublished value(s) are handed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishError<T>(pub T);

impl<T> PublishError<T> {
    /// Consumes the error, returning the value(s) that were not published.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> fmt::Display for PublishError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "publishing on a closed topic")
    }
}

impl<T: fmt::Debug> std::error::Error for PublishError<T> {}

/// A [`Subscriber::try_recv`](crate::Subscriber::try_recv) found no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryConsumeError {
    /// The topic was empty at the dequeue's linearization point but is
    /// still open (or a publish is still in flight) — a value may arrive.
    Empty,
    /// The topic is closed **and** drained: no value can ever arrive.
    /// Reported only once the topic's seal is drained and a final
    /// dequeue came back empty, so a publish that returned `Ok` is never
    /// stranded.
    Closed,
}

impl fmt::Display for TryConsumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryConsumeError::Empty => write!(f, "receiving on an empty topic"),
            TryConsumeError::Closed => write!(f, "receiving on a closed, drained topic"),
        }
    }
}

impl std::error::Error for TryConsumeError {}

/// A [`Subscriber::recv`](crate::Subscriber::recv) failed: the topic is
/// closed and fully drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsumeError;

impl fmt::Display for ConsumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on a closed, drained topic")
    }
}

impl std::error::Error for ConsumeError {}

/// A [`Subscriber::recv_timeout`](crate::Subscriber::recv_timeout) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsumeTimeoutError {
    /// No value arrived within the timeout; the topic is still open.
    Timeout,
    /// The topic is closed and fully drained.
    Closed,
}

impl fmt::Display for ConsumeTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsumeTimeoutError::Timeout => write!(f, "timed out receiving on an empty topic"),
            ConsumeTimeoutError::Closed => write!(f, "receiving on a closed, drained topic"),
        }
    }
}

impl std::error::Error for ConsumeTimeoutError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(BrokerError::UnknownTopic {
            name: "jobs".into()
        }
        .to_string()
        .contains("jobs"));
        assert!(BrokerError::TopicExists {
            name: "jobs".into()
        }
        .to_string()
        .contains("already exists"));
        assert!(BrokerError::TypeMismatch {
            name: "jobs".into(),
            requested: "u32",
            actual: "alloc::string::String",
        }
        .to_string()
        .contains("not u32"));
        assert!(BrokerError::PublishersExhausted {
            name: "jobs".into(),
            limit: 4
        }
        .to_string()
        .contains('4'));
        assert!(BrokerError::Config {
            name: "jobs".into(),
            source: BuildError::ZeroCapacity,
        }
        .to_string()
        .contains("at least 1"));
        assert!(TryPublishError::Full(1).to_string().contains("full"));
        assert!(TryPublishError::Closed(1).to_string().contains("closed"));
        assert!(TryConsumeError::Empty.to_string().contains("empty"));
        assert!(TryConsumeError::Closed.to_string().contains("drained"));
        assert!(ConsumeError.to_string().contains("closed"));
        assert!(ConsumeTimeoutError::Timeout.to_string().contains("timed"));
    }

    #[test]
    fn publish_error_accessors() {
        assert_eq!(TryPublishError::Full(7).into_inner(), 7);
        assert!(TryPublishError::Full(7).is_full());
        assert!(!TryPublishError::Full(7).is_closed());
        assert!(TryPublishError::Closed(7).is_closed());
        assert_eq!(PublishError(vec![1, 2]).into_inner(), vec![1, 2]);
    }
}
