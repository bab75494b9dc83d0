//! Blocking and async MPMC channels over the wait-free ordering-tree
//! queues.
//!
//! Everything below this facade is the queue of *Naderibeni & Ruppert,
//! "A Wait-free Queue with Polylogarithmic Step Complexity" (PODC 2023)*
//! and this repository's extensions to it (batching, sharding, epoch-based
//! tree truncation). This crate packages those cores behind the interface
//! an application actually consumes — [`Sender`]/[`Receiver`] pairs in the
//! `std::sync::mpsc`/crossbeam mould — instead of the raw busy-polling
//! handles:
//!
//! * **Non-blocking**: [`Sender::try_send`] / [`Receiver::try_recv`] — a
//!   thin wrapper over the raw handles. On the unbounded backends the try
//!   path performs **zero additional CAS** and only two channel-layer
//!   loads per send (none per successful receive); `tests/channel.rs`
//!   asserts this parity exactly, step counter by step counter.
//! * **Blocking**: [`Sender::send`] / [`Receiver::recv`] /
//!   [`Receiver::recv_timeout`] — idle consumers *park* on an event count
//!   instead of spinning (see [`Where wait-freedom
//!   ends`](#where-wait-freedom-ends)).
//! * **Async** (`feature = "async"`): `Sender::send_async` /
//!   `Receiver::recv_async` — executor-agnostic futures with a waker
//!   registry behind the same event counts, plus the minimal
//!   `exec::block_on` test executor. No runtime dependency.
//!
//! Plus the channel conveniences: `Drop`-driven disconnect (senders gone ⇒
//! receivers drain then see [`RecvError`]; receivers gone ⇒ sends fail
//! returning the value), [`Receiver::into_iter`] worker loops, and batch
//! ops ([`Sender::send_all`] / [`Receiver::recv_up_to`]) that delegate to
//! the queues' native one-leaf-block-per-batch amortization.
//!
//! # Choosing a constructor
//!
//! One entry point covers every backend: [`Channel::builder`] picks the
//! queue with a typed [`Backend`] value and validates the whole
//! configuration at [`ChannelBuilder::build`] (invalid combinations are a
//! [`BuildError`], not a panic or a silent ignore):
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
//! | backend | queue | memory | capacity |
//! |---|---|---|---|
//! | [`Backend::Unbounded`] | §3 queue + epoch-based tree truncation | plateaus under churn | unbounded |
//! | [`Backend::BoundedTree`] | §6 bounded-*space* queue + capacity gate | polynomial in `p`, `q` | bounded (`send` blocks when full) |
//! | [`Backend::Ring`] | wCQ-style single-word-CAS ring (`wfqueue_ring`) | fixed: `capacity` slots | bounded natively (`send` blocks when full) |
//! | [`Backend::Sharded`] | `S` independent wait-free shards | plateaus (per-shard truncation) | unbounded |
//!
//! A [`Backend::Sharded`] channel multiplies root-CAS bandwidth but
//! relaxes ordering to per-sender FIFO (each sender's values arrive in
//! order; values of different senders on different shards carry no order)
//! — the semantics of [`wfqueue_shard::Routing::Nearest`], which every
//! sharded channel routes by.
//! The single-queue backends are fully linearizable FIFO. At equal
//! capacity, [`Backend::BoundedTree`] keeps the paper's wait-free
//! polylogarithmic step bound while [`Backend::Ring`] trades two
//! documented lock-free windows for much cheaper per-operation work — see
//! the `wfqueue_ring` crate docs for the exact contract.
//!
//! Two knob-free shorthands cover the common cases: [`unbounded`] is
//! `Channel::builder().build()`, and [`bounded`] is the same with
//! [`Backend::BoundedTree`] at the given capacity.
//!
//! # Endpoint budgets
//!
//! Every endpoint owns one process id — one leaf — of the backing
//! ordering tree, which is sized at construction by [`Endpoints`] (default
//! 16 senders + 16 receivers). [`Sender::try_clone`] /
//! [`Receiver::try_clone`] mint new endpoints until that budget is
//! exhausted; dropped endpoints do **not** return their id (the queues'
//! `register` contract). Per-operation cost grows with the tree height,
//! `O(log(total endpoints))`, so budget what you will actually use.
//!
//! # Where wait-freedom ends
//!
//! **Wait-freedom is a property of the queue operations, not of waiting
//! for data.** Every enqueue and dequeue under this facade — including the
//! ones issued by `send`, `recv` and the futures — completes in the
//! paper's bounded number of steps regardless of what other threads do,
//! once it has entered the queue. On the reclaiming backends
//! ([`Backend::Unbounded`], the default, and [`Backend::Sharded`]) the
//! entry itself is only lock-free: the hazard handshake that protects
//! truncation retries whenever a truncator advances the frontier, and the
//! offline epoch shim pins under a process-wide lock (see
//! `wfqueue::unbounded::reclaim`).
//! *Blocking until the channel is non-empty (or non-full) is a different
//! problem*: "wait until someone else produces" is by definition not
//! wait-free, and no channel can make it so. What the facade guarantees:
//!
//! * `try_send` / `try_recv` / `recv_up_to` are exactly as wait-free as
//!   the raw handles (asserted parity), entry handshake included.
//! * `send` on an [`unbounded`] or [`Backend::Sharded`] channel never
//!   waits at all.
//! * `recv` / full-`send` park on an event count whose handshake is
//!   lost-wakeup-free (publish → re-check → sleep vs update → fence →
//!   check, hunted by the adversarial scheduler in `tests/channel.rs`),
//!   and the capacity gate of [`bounded`] channels is a lock-free CAS
//!   reservation. Waiting threads consume no CPU.
//!
//! See `DESIGN.md` ("Channel facade") for the full protocol.
//!
//! # Example
//!
//! ```
//! use wfqueue_channel as channel;
//!
//! let (tx, rx) = channel::unbounded();
//!
//! // A worker pool: each worker blocks on `recv` (no spinning), and the
//! // loop ends when every sender is dropped and the channel drained.
//! wfqueue_sync::thread::scope(|s| {
//!     for worker in 0..2 {
//!         let rx = rx.try_clone().unwrap();
//!         s.spawn(move || {
//!             for job in rx {
//!                 let _ = (worker, job); // process the job
//!             }
//!         });
//!     }
//!     let mut tx = tx; // take ownership so the drop disconnects
//!     for job in 0..100u32 {
//!         tx.send(job).unwrap();
//!     }
//!     drop(tx);
//!     drop(rx);
//! });
//! ```

#![deny(missing_docs)]

mod backend;
mod builder;
mod endpoint;
mod error;
mod wait;

#[cfg(feature = "async")]
pub mod exec;
#[cfg(feature = "async")]
pub mod future;

pub use backend::MemoryStats;
pub use builder::{Backend, Channel, ChannelBuilder};
pub(crate) use endpoint::Shared;
pub use endpoint::{IntoIter, Receiver, Sender, TryIter};
pub use error::{
    BuildError, CloneError, RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError,
};
pub use wait::{Entry, Seal, Signal};
pub use wfqueue_shard::ReclaimPolicy;

/// How many endpoints of each side a channel can mint
/// ([`Sender::try_clone`] / [`Receiver::try_clone`] draw on this budget).
///
/// The backing ordering tree gets `senders + receivers` leaves, so
/// per-operation cost is `O(log(senders + receivers))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoints {
    /// Maximum sender endpoints ever created (must be ≥ 1).
    pub senders: usize,
    /// Maximum receiver endpoints ever created (must be ≥ 1).
    pub receivers: usize,
}

impl Default for Endpoints {
    /// 16 senders + 16 receivers.
    fn default() -> Self {
        Endpoints {
            senders: 16,
            receivers: 16,
        }
    }
}

impl Endpoints {
    /// Total process ids the backend must provide.
    #[must_use]
    pub fn total(self) -> usize {
        self.senders + self.receivers
    }
}

/// Creates an unbounded MPMC channel over the wait-free unbounded queue,
/// with memory-stabilising tree truncation and the default [`Endpoints`]:
/// `Channel::builder().build()`.
///
/// `send` never blocks; `recv` parks while empty.
///
/// # Examples
///
/// ```
/// let (mut tx, rx) = wfqueue_channel::unbounded();
/// tx.send_all(0..3).unwrap();
/// drop(tx);
/// assert_eq!(rx.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
/// ```
#[must_use]
pub fn unbounded<T: Clone + Send + Sync + 'static>() -> (Sender<T>, Receiver<T>) {
    Channel::builder()
        .build()
        .expect("the default configuration is valid")
}

/// Creates a capacity-bounded MPMC channel over the wait-free
/// bounded-space queue: at most `capacity` values are in flight
/// ([`Sender::send`] blocks at the limit — backpressure), and the
/// backend's own GC keeps memory polynomial in the endpoint count and
/// queue size regardless of history.
///
/// # Panics
///
/// Panics if `capacity` is zero.
///
/// # Examples
///
/// ```
/// let (mut tx, mut rx) = wfqueue_channel::bounded(2);
/// tx.try_send(1).unwrap();
/// tx.try_send(2).unwrap();
/// assert!(tx.try_send(3).unwrap_err().is_full());
/// assert_eq!(rx.recv(), Ok(1)); // frees a slot
/// tx.try_send(3).unwrap();
/// ```
#[must_use]
pub fn bounded<T: Clone + Send + Sync + 'static>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    Channel::builder()
        .backend(Backend::BoundedTree { capacity })
        .build()
        .unwrap_or_else(|e| panic!("{e}"))
}
