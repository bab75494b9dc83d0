//! Error types of the channel operations.
//!
//! The surface mirrors `std::sync::mpsc` / crossbeam-channel so the facade
//! is a drop-in mental model: send errors return the unsent value(s) to the
//! caller, receive errors distinguish *empty right now* from *disconnected
//! forever*.

use std::fmt;

/// A [`Sender::try_send`](crate::Sender::try_send) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is capacity-bounded and currently full; the value is
    /// handed back.
    Full(T),
    /// Every [`Receiver`](crate::Receiver) has been dropped, so the value
    /// could never be consumed; it is handed back.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// Consumes the error, returning the value that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        }
    }

    /// Whether the failure was a full capacity-bounded channel.
    #[must_use]
    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }

    /// Whether the failure was a disconnected channel (no receivers left).
    #[must_use]
    pub fn is_disconnected(&self) -> bool {
        matches!(self, TrySendError::Disconnected(_))
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "sending on a full channel"),
            TrySendError::Disconnected(_) => {
                write!(f, "sending on a channel with no receivers")
            }
        }
    }
}

impl<T: fmt::Debug> std::error::Error for TrySendError<T> {}

/// A [`Sender::send`](crate::Sender::send) or
/// [`Sender::send_all`](crate::Sender::send_all) failed because every
/// [`Receiver`](crate::Receiver) was dropped; the unsent value(s) are handed
/// back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> SendError<T> {
    /// Consumes the error, returning the value(s) that could not be sent.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a channel with no receivers")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// A [`Receiver::try_recv`](crate::Receiver::try_recv) found no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel was empty at the dequeue's linearization point, but
    /// senders still exist — a value may arrive later.
    Empty,
    /// The channel is empty **and** every [`Sender`](crate::Sender) has
    /// been dropped: no value can ever arrive. Reported only after a final
    /// drain attempt, so every value sent before the disconnect is
    /// delivered first.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "receiving on an empty channel"),
            TryRecvError::Disconnected => {
                write!(f, "receiving on an empty channel with no senders")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

/// A [`Receiver::recv`](crate::Receiver::recv) failed: the channel is empty
/// and every [`Sender`](crate::Sender) has been dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty channel with no senders")
    }
}

impl std::error::Error for RecvError {}

/// A [`Receiver::recv_timeout`](crate::Receiver::recv_timeout) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No value arrived within the timeout; senders still exist.
    Timeout,
    /// The channel is empty and every [`Sender`](crate::Sender) has been
    /// dropped.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "timed out receiving on an empty channel"),
            RecvTimeoutError::Disconnected => {
                write!(f, "receiving on an empty channel with no senders")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// A [`Sender::try_clone`](crate::Sender::try_clone) or
/// [`Receiver::try_clone`](crate::Receiver::try_clone) failed: the
/// channel's endpoint budget for that side is exhausted.
///
/// Every endpoint owns one process id (one leaf) of the backing ordering
/// tree, and the tree is sized at construction
/// ([`Endpoints`](crate::Endpoints)); dropped endpoints do **not** return
/// their id (mirroring the queues' `register`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloneError {
    /// The per-side endpoint budget that is exhausted.
    pub limit: usize,
}

impl fmt::Display for CloneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "channel endpoint budget exhausted: all {} endpoints of this side have been \
             created (build the channel with a larger `Endpoints` budget)",
            self.limit
        )
    }
}

impl std::error::Error for CloneError {}

/// A [`ChannelBuilder::build`](crate::ChannelBuilder::build) rejected the
/// requested configuration.
///
/// The builder validates the whole configuration up front and reports the
/// first inconsistency here instead of panicking deep inside a backend
/// constructor. The crate has exactly two knob-free shorthands over the
/// builder: [`unbounded`](crate::unbounded) takes no argument, so its
/// configuration is always valid and it never fails, and
/// [`bounded`](crate::bounded) panics with this error's message when its
/// `capacity` is zero ([`BuildError::ZeroCapacity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// A capacity-bounded backend was requested with `capacity == 0` (a
    /// zero-capacity channel could never transfer a value).
    ZeroCapacity,
    /// The ring backend's capacity exceeds the largest ring it can
    /// allocate ([`wfqueue_ring::MAX_CAPACITY`]).
    RingCapacityTooLarge {
        /// The capacity that was requested.
        capacity: usize,
        /// The largest capacity a ring supports.
        max: usize,
    },
    /// A sharded backend was requested with `shards == 0`.
    ZeroShards,
    /// An endpoint budget ([`Endpoints`](crate::Endpoints)) has a zero
    /// side; every channel needs at least one sender and one receiver.
    ZeroEndpoints,
    /// A reclaim period of zero was requested
    /// (`ReclaimPolicy::EveryKRootBlocks(0)`); use `ReclaimPolicy::Off`
    /// to disable truncation instead.
    ZeroReclaimPeriod,
    /// A GC period of zero was requested for the bounded-tree backend;
    /// leave it unset for the paper's default.
    ZeroGcPeriod,
    /// A reclaim policy was set, but the chosen backend does not truncate
    /// (the bounded tree has its own GC; the ring recycles slots in
    /// place).
    ReclaimUnsupported {
        /// The backend that was requested.
        backend: &'static str,
    },
    /// A GC period was set, but only the bounded-tree backend has the
    /// paper's §6 garbage collector.
    GcPeriodUnsupported {
        /// The backend that was requested.
        backend: &'static str,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroCapacity => {
                write!(f, "channel capacity must be at least 1")
            }
            BuildError::RingCapacityTooLarge { capacity, max } => write!(
                f,
                "ring capacity {capacity} exceeds the largest supported ring ({max})"
            ),
            BuildError::ZeroShards => {
                write!(f, "a sharded channel needs at least 1 shard")
            }
            BuildError::ZeroEndpoints => write!(
                f,
                "endpoint budgets must be at least 1 sender and 1 receiver"
            ),
            BuildError::ZeroReclaimPeriod => write!(
                f,
                "reclaim period must be at least 1 root block (use ReclaimPolicy::Off to \
                 disable truncation)"
            ),
            BuildError::ZeroGcPeriod => {
                write!(f, "GC period must be at least 1 (or unset for the default)")
            }
            BuildError::ReclaimUnsupported { backend } => {
                write!(f, "the {backend} backend does not take a reclaim policy")
            }
            BuildError::GcPeriodUnsupported { backend } => write!(
                f,
                "only the bounded-tree backend has a GC period (got {backend})"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(TrySendError::Full(1).to_string().contains("full"));
        assert!(TrySendError::Disconnected(1)
            .to_string()
            .contains("no receivers"));
        assert!(SendError(5).to_string().contains("no receivers"));
        assert!(TryRecvError::Empty.to_string().contains("empty"));
        assert!(TryRecvError::Disconnected
            .to_string()
            .contains("no senders"));
        assert!(RecvError.to_string().contains("no senders"));
        assert!(RecvTimeoutError::Timeout.to_string().contains("timed out"));
        assert!(CloneError { limit: 4 }.to_string().contains("4"));
        assert!(BuildError::ZeroCapacity.to_string().contains("at least 1"));
        assert!(BuildError::RingCapacityTooLarge {
            capacity: 1 << 20,
            max: 1 << 15
        }
        .to_string()
        .contains("exceeds"));
        assert!(BuildError::ReclaimUnsupported { backend: "ring" }
            .to_string()
            .contains("ring"));
    }

    #[test]
    fn try_send_error_accessors() {
        assert_eq!(TrySendError::Full(7).into_inner(), 7);
        assert!(TrySendError::Full(7).is_full());
        assert!(!TrySendError::Full(7).is_disconnected());
        assert!(TrySendError::Disconnected(7).is_disconnected());
        assert_eq!(SendError(vec![1, 2]).into_inner(), vec![1, 2]);
    }
}
