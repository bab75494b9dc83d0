//! The unified channel constructor: [`Channel::builder`].
//!
//! The free constructors ([`unbounded`](crate::unbounded),
//! [`bounded`](crate::bounded), [`sharded`](crate::sharded), …) grew one
//! config struct per backend; the builder replaces that N-structs surface
//! with a single fluent spelling in which the backend is just another
//! typed knob:
//!
//! ```
//! use wfqueue_channel::{Backend, Channel};
//!
//! let (mut tx, mut rx) = Channel::builder()
//!     .backend(Backend::Ring { capacity: 64 })
//!     .build()
//!     .unwrap();
//! tx.send(7u32).unwrap();
//! assert_eq!(rx.recv(), Ok(7));
//! ```
//!
//! Cross-knob validation happens once, in [`ChannelBuilder::build`], which
//! returns a [`BuildError`] instead of panicking deep inside a backend
//! constructor: a reclaim policy on the ring, a placement on a
//! single-queue backend, a zero capacity — all are rejected up front with
//! a message naming the inconsistent pair. The free constructors remain as
//! thin wrappers over this builder (with identical step counts — asserted
//! by `tests/channel.rs`), so existing code keeps working unchanged.

use std::marker::PhantomData;

use wfqueue_ring::Ring;

use crate::backend::Backend as Queue;
use wfqueue_shard::Routing;

use crate::{BuildError, Endpoints, PlacementConfig, Receiver, ReclaimPolicy, Sender, Shared};

/// Which queue stores the channel's values — the builder's backend knob.
///
/// | variant | memory | capacity | ordering |
/// |---|---|---|---|
/// | [`Unbounded`](Backend::Unbounded) | plateaus under churn (tree truncation) | unbounded | FIFO |
/// | [`BoundedTree`](Backend::BoundedTree) | polynomial in `p`, `q` (§6 GC) | bounded by the channel-layer gate | FIFO |
/// | [`Ring`](Backend::Ring) | fixed (`capacity` slots, values boxed) | bounded natively by the ring | FIFO |
/// | [`Sharded`](Backend::Sharded) | plateaus (per-shard truncation) | unbounded | per-sender FIFO |
///
/// `BoundedTree` and `Ring` make different trade-offs at the same
/// capacity: the tree is wait-free with the paper's polylogarithmic step
/// bound and bounds *space* (the gate bounds values), while the ring
/// bounds values natively in fixed storage with far cheaper single-word
/// CAS operations, at the cost of two documented lock-free (not wait-free)
/// windows — see the `wfqueue_ring` crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The paper's §3 unbounded queue, with epoch-based tree truncation
    /// (configure via [`ChannelBuilder::reclaim`]).
    Unbounded,
    /// The paper's §6 bounded-*space* queue plus the channel-layer
    /// capacity gate (configure the GC via [`ChannelBuilder::gc_period`]).
    BoundedTree {
        /// Maximum in-flight values (≥ 1); `send` blocks at the limit.
        capacity: usize,
    },
    /// The wCQ-style bounded ring (`wfqueue_ring`): fixed storage,
    /// single-word CAS, full/empty detected natively by the ring's ticket
    /// counters (no channel-layer gate).
    Ring {
        /// Maximum in-flight values (1 ..= [`wfqueue_ring::MAX_CAPACITY`]);
        /// `send` blocks at the limit.
        capacity: usize,
    },
    /// `shards` independent wait-free unbounded queues: root-CAS bandwidth
    /// multiplies by the shard count, ordering relaxes to per-sender FIFO
    /// (configure via [`ChannelBuilder::placement`] /
    /// [`ChannelBuilder::reclaim`]). Senders pin to their home shard;
    /// receivers scan every shard nearest-first
    /// ([`wfqueue_shard::Routing::Nearest`]).
    Sharded {
        /// Independent shards (≥ 1); `1` is observationally `Unbounded`.
        shards: usize,
    },
}

impl Backend {
    /// The name used in [`BuildError`] messages.
    fn name(self) -> &'static str {
        match self {
            Backend::Unbounded => "unbounded",
            Backend::BoundedTree { .. } => "bounded-tree",
            Backend::Ring { .. } => "ring",
            Backend::Sharded { .. } => "sharded",
        }
    }
}

/// Namespace for [`Channel::builder`], the entry point of the unified
/// constructor API.
#[derive(Debug, Clone, Copy)]
pub struct Channel;

impl Channel {
    /// Starts building a channel; defaults to the [`Backend::Unbounded`]
    /// backend with default [`Endpoints`] (16 + 16).
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_channel::{Backend, Channel, Endpoints};
    ///
    /// let (mut tx, mut rx) = Channel::builder::<u64>()
    ///     .backend(Backend::BoundedTree { capacity: 2 })
    ///     .endpoints(Endpoints { senders: 1, receivers: 1 })
    ///     .build()
    ///     .unwrap();
    /// tx.send(1).unwrap();
    /// assert_eq!(rx.recv(), Ok(1));
    /// ```
    pub fn builder<T: Clone + Send + Sync + 'static>() -> ChannelBuilder<T> {
        ChannelBuilder {
            backend: Backend::Unbounded,
            endpoints: Endpoints::default(),
            reclaim: None,
            placement: None,
            gc_period: None,
            _values: PhantomData,
        }
    }
}

/// Builds a channel from a [`Backend`] choice plus the knobs that backend
/// supports; see [`Channel::builder`].
///
/// Knobs left unset take the same defaults the free constructors use
/// (reclaim `EveryKRootBlocks(64)`, detected placement, paper-default GC
/// period). Setting a knob the chosen backend cannot honour is a
/// [`BuildError`], not a silent ignore.
#[derive(Debug, Clone, Copy)]
#[must_use = "a builder does nothing until `.build()`"]
pub struct ChannelBuilder<T> {
    backend: Backend,
    endpoints: Endpoints,
    reclaim: Option<ReclaimPolicy>,
    placement: Option<PlacementConfig>,
    gc_period: Option<usize>,
    _values: PhantomData<fn() -> T>,
}

impl<T: Clone + Send + Sync + 'static> ChannelBuilder<T> {
    /// Selects the queue storing the channel's values (default:
    /// [`Backend::Unbounded`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the endpoint budget (default: 16 senders + 16 receivers).
    pub fn endpoints(mut self, endpoints: Endpoints) -> Self {
        self.endpoints = endpoints;
        self
    }

    /// Sets the tree-truncation policy — [`Backend::Unbounded`] and
    /// [`Backend::Sharded`] only (default: `EveryKRootBlocks(64)`).
    pub fn reclaim(mut self, reclaim: ReclaimPolicy) -> Self {
        self.reclaim = Some(reclaim);
        self
    }

    /// Sets the hardware placement that orders the sharded backend's
    /// nearest-first receive scan — [`Backend::Sharded`] only (default:
    /// [`PlacementConfig::Detect`]).
    pub fn placement(mut self, placement: PlacementConfig) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Sets the §6 GC period — [`Backend::BoundedTree`] only (default:
    /// a period that follows the endpoints registered so far, capped at
    /// the paper's `p²⌈log₂ p⌉` for the whole endpoint budget; see
    /// [`wfqueue::bounded::Queue::new`]). `None` resets to the default.
    pub fn gc_period(mut self, period: impl Into<Option<usize>>) -> Self {
        self.gc_period = period.into();
        self
    }

    /// Validates the whole configuration and constructs the channel.
    ///
    /// # Errors
    ///
    /// [`BuildError`] naming the first inconsistency: a zero capacity /
    /// shard count / endpoint budget, a ring capacity beyond
    /// [`wfqueue_ring::MAX_CAPACITY`], or a knob the chosen backend does
    /// not support.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_channel::{Backend, BuildError, Channel, ReclaimPolicy};
    ///
    /// // The ring recycles slots in place: a reclaim policy is an error,
    /// // caught here instead of being silently ignored.
    /// let err = Channel::builder::<u64>()
    ///     .backend(Backend::Ring { capacity: 8 })
    ///     .reclaim(ReclaimPolicy::Off)
    ///     .build()
    ///     .unwrap_err();
    /// assert_eq!(err, BuildError::ReclaimUnsupported { backend: "ring" });
    /// ```
    pub fn build(self) -> Result<(Sender<T>, Receiver<T>), BuildError> {
        self.validate()?;
        let Endpoints { senders, receivers } = self.endpoints;
        let total = self.endpoints.total();
        let reclaim = self.reclaim.unwrap_or(ReclaimPolicy::EveryKRootBlocks(64));
        let (queue, gate) = match self.backend {
            Backend::Unbounded => (
                Queue::Unbounded(wfqueue::unbounded::Queue::with_reclaim(total, reclaim)),
                None,
            ),
            Backend::BoundedTree { capacity } => {
                let queue = match self.gc_period {
                    Some(period) => wfqueue::bounded::Queue::with_gc_period(total, period),
                    None => wfqueue::bounded::Queue::new(total),
                };
                (Queue::SpaceBounded(queue), Some(capacity))
            }
            Backend::Ring { capacity } => (Queue::Ring(Box::new(Ring::new(capacity, total))), None),
            Backend::Sharded { shards } => (
                Queue::Sharded(wfqueue_shard::ShardedUnbounded::with_reclaim_placed(
                    shards,
                    total,
                    Routing::Nearest,
                    reclaim,
                    self.placement.unwrap_or_default(),
                )),
                None,
            ),
        };
        Ok(Shared::channel(queue, gate, senders, receivers))
    }

    /// The cross-knob validation matrix behind [`ChannelBuilder::build`].
    fn validate(&self) -> Result<(), BuildError> {
        if self.endpoints.senders == 0 || self.endpoints.receivers == 0 {
            return Err(BuildError::ZeroEndpoints);
        }
        if let Some(ReclaimPolicy::EveryKRootBlocks(0)) = self.reclaim {
            return Err(BuildError::ZeroReclaimPeriod);
        }
        if self.gc_period == Some(0) {
            return Err(BuildError::ZeroGcPeriod);
        }
        let backend = self.backend.name();
        let reclaim_ok = matches!(self.backend, Backend::Unbounded | Backend::Sharded { .. });
        if self.reclaim.is_some() && !reclaim_ok {
            return Err(BuildError::ReclaimUnsupported { backend });
        }
        if self.placement.is_some() && !matches!(self.backend, Backend::Sharded { .. }) {
            return Err(BuildError::PlacementUnsupported { backend });
        }
        if self.gc_period.is_some() && !matches!(self.backend, Backend::BoundedTree { .. }) {
            return Err(BuildError::GcPeriodUnsupported { backend });
        }
        match self.backend {
            Backend::Unbounded => {}
            Backend::BoundedTree { capacity } => {
                if capacity == 0 {
                    return Err(BuildError::ZeroCapacity);
                }
            }
            Backend::Ring { capacity } => {
                if capacity == 0 {
                    return Err(BuildError::ZeroCapacity);
                }
                if capacity > wfqueue_ring::MAX_CAPACITY {
                    return Err(BuildError::RingCapacityTooLarge {
                        capacity,
                        max: wfqueue_ring::MAX_CAPACITY,
                    });
                }
            }
            Backend::Sharded { shards } => {
                if shards == 0 {
                    return Err(BuildError::ZeroShards);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_round_trips_through_builder() {
        let (mut tx, mut rx) = Channel::builder::<u64>()
            .backend(Backend::Ring { capacity: 4 })
            .endpoints(Endpoints {
                senders: 1,
                receivers: 1,
            })
            .build()
            .unwrap();
        assert_eq!(tx.capacity(), Some(4), "the ring's native bound surfaces");
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        assert!(tx.try_send(99).unwrap_err().is_full());
        assert_eq!(rx.recv_up_to(10), vec![0, 1, 2, 3]);
    }

    #[test]
    fn every_invalid_combination_is_named() {
        fn build(b: ChannelBuilder<u64>) -> BuildError {
            b.build().unwrap_err()
        }
        assert_eq!(
            build(Channel::builder().backend(Backend::BoundedTree { capacity: 0 })),
            BuildError::ZeroCapacity
        );
        assert_eq!(
            build(Channel::builder().backend(Backend::Ring { capacity: 0 })),
            BuildError::ZeroCapacity
        );
        assert_eq!(
            build(Channel::builder().backend(Backend::Ring {
                capacity: wfqueue_ring::MAX_CAPACITY + 1
            })),
            BuildError::RingCapacityTooLarge {
                capacity: wfqueue_ring::MAX_CAPACITY + 1,
                max: wfqueue_ring::MAX_CAPACITY
            }
        );
        assert_eq!(
            build(Channel::builder().backend(Backend::Sharded { shards: 0 })),
            BuildError::ZeroShards
        );
        assert_eq!(
            build(Channel::builder().endpoints(Endpoints {
                senders: 0,
                receivers: 1
            })),
            BuildError::ZeroEndpoints
        );
        assert_eq!(
            build(Channel::builder().reclaim(ReclaimPolicy::EveryKRootBlocks(0))),
            BuildError::ZeroReclaimPeriod
        );
        assert_eq!(
            build(
                Channel::builder()
                    .backend(Backend::BoundedTree { capacity: 1 })
                    .gc_period(0)
            ),
            BuildError::ZeroGcPeriod
        );
        assert_eq!(
            build(
                Channel::builder()
                    .backend(Backend::Ring { capacity: 8 })
                    .reclaim(ReclaimPolicy::Off)
            ),
            BuildError::ReclaimUnsupported { backend: "ring" }
        );
        assert_eq!(
            build(
                Channel::builder()
                    .backend(Backend::BoundedTree { capacity: 8 })
                    .reclaim(ReclaimPolicy::Off)
            ),
            BuildError::ReclaimUnsupported {
                backend: "bounded-tree"
            }
        );
        assert_eq!(
            build(
                Channel::builder()
                    .backend(Backend::Ring { capacity: 8 })
                    .placement(PlacementConfig::Flat)
            ),
            BuildError::PlacementUnsupported { backend: "ring" }
        );
        assert_eq!(
            build(Channel::builder().gc_period(16)),
            BuildError::GcPeriodUnsupported {
                backend: "unbounded"
            }
        );
    }

    #[test]
    fn valid_knobs_reach_their_backends() {
        // Sharded accepts placement + reclaim.
        let (mut tx, mut rx) = Channel::builder::<u32>()
            .backend(Backend::Sharded { shards: 2 })
            .placement(PlacementConfig::Flat)
            .reclaim(ReclaimPolicy::EveryKRootBlocks(8))
            .build()
            .unwrap();
        tx.send_all([1, 2, 3]).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        // BoundedTree accepts a GC period.
        let (mut tx, mut rx) = Channel::builder::<u32>()
            .backend(Backend::BoundedTree { capacity: 4 })
            .gc_period(32)
            .build()
            .unwrap();
        tx.try_send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
    }
}
