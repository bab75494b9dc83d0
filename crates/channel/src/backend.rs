//! The queue backends behind a channel, and the owning handles the
//! endpoints carry.
//!
//! Endpoints ([`Sender`](crate::Sender)/[`Receiver`](crate::Receiver)) own
//! the channel through an `Arc` while also owning a per-process queue
//! handle that *borrows* the queue inside that `Arc`. Rust cannot express
//! this self-referential shape safely, so [`Backend::register`] is the one
//! `unsafe` site of this crate: it extends the borrow to `'static`. The
//! justification is the standard owning-handle argument:
//!
//! * the queue lives inside an `Arc`-managed [`Shared`](crate::Shared)
//!   allocation, so it never moves;
//! * every [`RawHandle`] is stored in an endpoint **next to** a clone of
//!   that `Arc`, with the handle field declared first, so the handle is
//!   dropped before the queue can be;
//! * handles never escape the endpoint that owns them.

use std::sync::Arc;

use wfqueue::{bounded, unbounded};
use wfqueue_ring::Ring;
use wfqueue_shard::{ShardedHandle, ShardedUnbounded};

/// A point-in-time snapshot of a channel backend's memory footprint, in
/// the units of the ordering-tree introspection machinery (the same
/// counters the E12 memory-trajectory experiment records).
///
/// Taken via [`Sender::memory_stats`](crate::Sender::memory_stats) /
/// [`Receiver::memory_stats`](crate::Receiver::memory_stats). Exact at
/// quiescence; a recent-past approximation under concurrency. What each
/// backend reports:
///
/// * [`Backend::Unbounded`](crate::Backend::Unbounded): the queue's block
///   counters and live-block heap bytes.
/// * [`Backend::Sharded`](crate::Backend::Sharded): the sum over every
///   shard's counters.
/// * [`Backend::BoundedTree`](crate::Backend::BoundedTree): the
///   bounded-space queue's total live blocks and the bytes of its block
///   stores (its GC reclaims in place, so `reclaimed_blocks` stays `0`).
/// * [`Backend::Ring`](crate::Backend::Ring): all zeros — the ring's
///   storage is one fixed preallocated array, sized at construction and
///   never grown, so there is no trajectory to watch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Blocks currently installed in the backend's ordering tree(s).
    pub live_blocks: usize,
    /// Blocks unlinked by epoch-based truncation over the lifetime.
    pub reclaimed_blocks: usize,
    /// `live + reclaimed`: what the paper's never-reclaiming construction
    /// would retain.
    pub logical_blocks: usize,
    /// Heap bytes held by the live blocks and their containers: the
    /// ordering trees' slot storage (unbounded/sharded backends) or the
    /// persistent block stores (bounded-tree backend).
    pub live_bytes: usize,
}

impl MemoryStats {
    /// Accumulates another snapshot into this one — used to aggregate the
    /// shards of a sharded channel, and by `wfqueue_broker` to aggregate
    /// topics.
    pub fn accumulate(&mut self, other: MemoryStats) {
        self.live_blocks += other.live_blocks;
        self.reclaimed_blocks += other.reclaimed_blocks;
        self.logical_blocks += other.logical_blocks;
        self.live_bytes += other.live_bytes;
    }
}

/// The queue actually storing a channel's values.
pub(crate) enum Backend<T: Clone + Send + Sync + 'static> {
    /// The paper's §3 queue (optionally with epoch-based tree truncation).
    Unbounded(unbounded::Queue<T>),
    /// The paper's §6 bounded-*space* queue (treap-backed).
    SpaceBounded(bounded::Queue<T>),
    /// The PR 3 sharded frontend over unbounded shards.
    Sharded(ShardedUnbounded<T>),
    /// The wCQ-style bounded ring (`wfqueue_ring`): capacity-bounded
    /// *natively* — full/empty detection lives in the ring's ticket
    /// counters, so channels over it skip the channel-layer capacity
    /// gate entirely (`Shared::capacity` stays `None`). Boxed: its
    /// cache-padded tickets make it several times larger than the other
    /// variants.
    Ring(Box<Ring<T>>),
}

impl<T: Clone + Send + Sync + 'static> Backend<T> {
    /// Total per-process handles the backend can register.
    pub(crate) fn capacity(&self) -> usize {
        match self {
            Backend::Unbounded(q) => q.num_processes(),
            Backend::SpaceBounded(q) => q.num_processes(),
            Backend::Sharded(q) => q.max_handles(),
            Backend::Ring(q) => q.max_handles(),
        }
    }

    /// The backend's recent-past length snapshot (exact at quiescence).
    pub(crate) fn approx_len(&self) -> usize {
        match self {
            Backend::Unbounded(q) => q.approx_len(),
            Backend::SpaceBounded(q) => q.approx_len(),
            Backend::Sharded(q) => q.approx_len(),
            Backend::Ring(q) => q.approx_len(),
        }
    }

    /// The backend's memory footprint snapshot — see [`MemoryStats`] for
    /// what each backend reports.
    pub(crate) fn memory_stats(&self) -> MemoryStats {
        fn of_unbounded<T: Clone + Send + Sync>(q: &unbounded::Queue<T>) -> MemoryStats {
            let counts = unbounded::introspect::block_counts(q);
            MemoryStats {
                live_blocks: counts.live,
                reclaimed_blocks: counts.reclaimed,
                logical_blocks: counts.logical,
                live_bytes: unbounded::introspect::live_block_bytes(q),
            }
        }
        match self {
            Backend::Unbounded(q) => of_unbounded(q),
            Backend::SpaceBounded(q) => {
                let stats = bounded::introspect::space_stats(q);
                MemoryStats {
                    live_blocks: stats.total_blocks,
                    reclaimed_blocks: 0,
                    logical_blocks: stats.total_blocks,
                    live_bytes: bounded::introspect::live_block_bytes(q),
                }
            }
            Backend::Sharded(q) => {
                let mut total = MemoryStats::default();
                for shard in q.shards() {
                    total.accumulate(of_unbounded(shard));
                }
                total
            }
            Backend::Ring(_) => MemoryStats::default(),
        }
    }

    /// `Some(cap)` when the backend itself bounds the number of in-flight
    /// values (the ring); `None` for the unbounded cores, whose channels
    /// bound capacity — if at all — with the channel-layer gate.
    pub(crate) fn native_capacity(&self) -> Option<usize> {
        match self {
            Backend::Ring(q) => Some(q.capacity()),
            _ => None,
        }
    }

    /// Registers one per-process handle, with its borrow of `self`
    /// extended to `'static`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that the returned handle is dropped
    /// before `self_arc`'s allocation is, and that the backend is never
    /// moved out of it. Both hold for the endpoints: they store the handle
    /// alongside a clone of the `Arc` (handle field first, so it drops
    /// first) and never move the backend.
    pub(crate) unsafe fn register(self_arc: &Arc<crate::Shared<T>>) -> Option<RawHandle<T>> {
        match &self_arc.backend {
            Backend::Unbounded(q) => {
                // SAFETY: lifetime extension only; the caller's contract
                // (# Safety above) keeps the backend alive and in place
                // for the handle's whole life.
                let q: &'static unbounded::Queue<T> = unsafe { &*std::ptr::from_ref(q) };
                q.register().map(RawHandle::Unbounded)
            }
            Backend::SpaceBounded(q) => {
                // SAFETY: as above.
                let q: &'static bounded::Queue<T> = unsafe { &*std::ptr::from_ref(q) };
                q.register().map(RawHandle::SpaceBounded)
            }
            Backend::Sharded(q) => {
                // SAFETY: as above.
                let q: &'static ShardedUnbounded<T> = unsafe { &*std::ptr::from_ref(q) };
                q.try_handle().map(RawHandle::Sharded)
            }
            Backend::Ring(q) => {
                // SAFETY: as above; the box the backend owns keeps the
                // ring at one heap address for the backend's whole life.
                let q: &'static Ring<T> = unsafe { &*std::ptr::from_ref(&**q) };
                q.register().map(RawHandle::Ring)
            }
        }
    }
}

/// A per-endpoint queue handle (one process id of the ordering tree),
/// dispatching to whichever backend the channel was built over.
///
/// The `'static` lifetime is a fiction maintained by the endpoint that
/// owns this handle — see the module docs.
pub(crate) enum RawHandle<T: Clone + Send + Sync + 'static> {
    /// Handle into [`Backend::Unbounded`].
    Unbounded(unbounded::Handle<'static, T>),
    /// Handle into [`Backend::SpaceBounded`].
    SpaceBounded(bounded::Handle<'static, T>),
    /// Handle into [`Backend::Sharded`].
    Sharded(ShardedHandle<'static, unbounded::Queue<T>>),
    /// Handle into [`Backend::Ring`].
    Ring(wfqueue_ring::RingHandle<'static, T>),
}

impl<T: Clone + Send + Sync + 'static> RawHandle<T> {
    /// Enqueues, or — on the natively-bounded ring backend — hands the
    /// value back when the queue is full at the operation's linearization
    /// point. The unbounded-memory backends always accept (any capacity
    /// bound there is the channel-layer gate, checked by the caller
    /// *before* this).
    pub(crate) fn try_enqueue(&mut self, value: T) -> Result<(), T> {
        match self {
            RawHandle::Unbounded(h) => {
                h.enqueue(value);
                Ok(())
            }
            RawHandle::SpaceBounded(h) => {
                h.enqueue(value);
                Ok(())
            }
            RawHandle::Sharded(h) => {
                h.enqueue(value);
                Ok(())
            }
            RawHandle::Ring(h) => h.try_enqueue(value),
        }
    }

    pub(crate) fn dequeue(&mut self) -> Option<T> {
        match self {
            RawHandle::Unbounded(h) => h.dequeue(),
            RawHandle::SpaceBounded(h) => h.dequeue(),
            RawHandle::Sharded(h) => h.dequeue(),
            RawHandle::Ring(h) => h.dequeue(),
        }
    }

    /// Batch [`RawHandle::try_enqueue`]: all-or-nothing on the ring (its
    /// multi-ticket claim either admits the whole batch contiguously or
    /// returns it untouched), infallible on the other backends.
    pub(crate) fn try_enqueue_batch(&mut self, values: Vec<T>) -> Result<(), Vec<T>> {
        match self {
            RawHandle::Unbounded(h) => {
                h.enqueue_batch(values);
                Ok(())
            }
            RawHandle::SpaceBounded(h) => {
                h.enqueue_batch(values);
                Ok(())
            }
            RawHandle::Sharded(h) => {
                h.enqueue_batch(values);
                Ok(())
            }
            RawHandle::Ring(h) => h.try_enqueue_batch(values),
        }
    }

    pub(crate) fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        match self {
            RawHandle::Unbounded(h) => h.dequeue_batch(count),
            RawHandle::SpaceBounded(h) => h.dequeue_batch(count),
            RawHandle::Sharded(h) => h.dequeue_batch(count),
            RawHandle::Ring(h) => h.dequeue_batch(count),
        }
    }
}
