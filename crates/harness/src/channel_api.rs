//! [`ConcurrentQueue`] adapters for the channel facade, so every checker
//! in this workspace — the Wing–Gong linearizability rounds, the
//! adversarial-scheduler audits, the proptest workloads — runs unchanged
//! against `wfqueue_channel`'s `Sender`/`Receiver` layer.
//!
//! A harness "handle" is a full endpoint pair (one `Sender` + one
//! `Receiver`, two process ids of the backing tree), because the uniform
//! [`QueueHandle`] interface issues both enqueues and dequeues from one
//! thread. [`ChannelMode`] selects which consumption mode the suite
//! exercises:
//!
//! * [`ChannelMode::Try`] — `try_send`/`try_recv`, the zero-extra-CAS
//!   pass-through (this is the mode the step-parity experiments use);
//! * [`ChannelMode::Blocking`] — `send` plus `recv_timeout` with a short
//!   timeout (a timeout maps to `None`, which is linearizable: the
//!   channel was observed empty inside the operation's interval);
//! * `ChannelMode::Async` (`feature = "async"`) — the `send_async`/
//!   `recv_async` futures driven by the facade's `block_on` executor, so
//!   the waker-registry path gets the same linearizability scrutiny.
//!
//! The adapters build their channels with [`ReclaimPolicy::Off`] so that
//! step counts compare apples-to-apples against the raw queues.

use std::sync::Mutex;
use std::time::Duration;

use wfqueue_channel::{Backend, Channel, Endpoints, Receiver, ReclaimPolicy, Sender};

use crate::queue_api::{ConcurrentQueue, QueueHandle};

/// How long the blocking/async dequeue modes wait before reporting the
/// channel empty. Short, so dequeue-heavy histories stay fast; long
/// enough that a concurrent send's wakeup (microseconds) is routinely
/// exercised.
const RECV_PATIENCE: Duration = Duration::from_micros(500);

/// Which consumption mode of the channel a suite exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelMode {
    /// `try_send` / `try_recv` — the non-blocking pass-through.
    Try,
    /// `send` / `recv_timeout` — parked waiting, timeouts map to `None`.
    Blocking,
    /// `send_async` / `recv_async` driven by `wfqueue_channel::exec` —
    /// exercises the waker registry.
    #[cfg(feature = "async")]
    Async,
}

/// A channel under test: a pool of pre-minted endpoint pairs handed out
/// as harness handles.
///
/// The pool keeps its channel connected while undistributed pairs remain;
/// once every handle is taken and dropped the channel disconnects — which
/// is after any workload finishes, so harness sends cannot fail.
///
/// # Examples
///
/// ```
/// use wfqueue_harness::channel_api::{ChannelMode, WfChannel};
/// use wfqueue_harness::queue_api::{ConcurrentQueue, QueueHandle};
///
/// let q: WfChannel<u64> = WfChannel::unbounded(2, ChannelMode::Try);
/// let mut h = q.handle();
/// h.enqueue(9);
/// assert_eq!(h.dequeue(), Some(9));
/// ```
pub struct WfChannel<T: Clone + Send + Sync + 'static> {
    pool: Mutex<Vec<(Sender<T>, Receiver<T>)>>,
    mode: ChannelMode,
    handles: usize,
    name: &'static str,
}

impl<T: Clone + Send + Sync + 'static> WfChannel<T> {
    /// An unbounded channel sized for `p` harness handles (`2p` process
    /// ids: one sender + one receiver each).
    #[must_use]
    pub fn unbounded(p: usize, mode: ChannelMode) -> Self {
        let (tx, rx) = Channel::builder()
            .backend(Backend::Unbounded)
            .endpoints(Endpoints {
                senders: p,
                receivers: p,
            })
            .reclaim(ReclaimPolicy::Off)
            .build()
            .expect("valid harness channel config");
        Self::from_pair(tx, rx, p, mode, "wf-channel-unbounded")
    }

    /// A capacity-bounded channel (§6 bounded-tree backend) sized for `p`
    /// harness handles.
    ///
    /// Size `capacity` at least as large as the workload's maximum
    /// in-flight value count when using [`ChannelMode::Try`]: the uniform
    /// [`QueueHandle::enqueue`]/[`QueueHandle::enqueue_batch`] have no
    /// failure path, so a `Full` response panics the adapter.
    #[must_use]
    pub fn bounded(p: usize, capacity: usize, mode: ChannelMode) -> Self {
        let (tx, rx) = Channel::builder()
            .backend(Backend::BoundedTree { capacity })
            .endpoints(Endpoints {
                senders: p,
                receivers: p,
            })
            .build()
            .expect("valid harness channel config");
        Self::from_pair(tx, rx, p, mode, "wf-channel-bounded")
    }

    /// A channel over the wCQ-style bounded ring backend, sized for `p`
    /// harness handles. Same capacity caveat as [`WfChannel::bounded`]:
    /// in [`ChannelMode::Try`], a `Full` response panics the adapter.
    #[must_use]
    pub fn ring(p: usize, capacity: usize, mode: ChannelMode) -> Self {
        let (tx, rx) = Channel::builder()
            .backend(Backend::Ring { capacity })
            .endpoints(Endpoints {
                senders: p,
                receivers: p,
            })
            .build()
            .expect("valid harness channel config");
        Self::from_pair(tx, rx, p, mode, "wf-channel-ring")
    }

    /// A sharded channel (`shards` wait-free shards, receive scan cyclic
    /// from each receiver's home shard) sized for `p` harness handles.
    ///
    /// The `shards > 1` composite is per-*sender* FIFO, not one
    /// linearizable queue — run the Wing–Gong checker against
    /// `shards = 1`, and the per-producer workload audits against any
    /// shard count (exactly as for the raw sharded adapters).
    #[must_use]
    pub fn sharded(shards: usize, p: usize, mode: ChannelMode) -> Self {
        let (tx, rx) = Channel::builder()
            .backend(Backend::Sharded { shards })
            .endpoints(Endpoints {
                senders: p,
                receivers: p,
            })
            .reclaim(ReclaimPolicy::Off)
            .build()
            .expect("valid harness channel config");
        Self::from_pair(tx, rx, p, mode, "wf-channel-sharded")
    }

    fn from_pair(
        tx: Sender<T>,
        rx: Receiver<T>,
        p: usize,
        mode: ChannelMode,
        name: &'static str,
    ) -> Self {
        assert!(p > 0, "need at least one handle");
        let mut pool = Vec::with_capacity(p);
        // Pair 0 is the constructor's own pair (process ids 0 and 1);
        // clones take ids in order after it. Deterministic, so step-parity
        // comparisons can reproduce the exact same tree layout.
        pool.push((tx, rx));
        for _ in 1..p {
            let tx = pool[0].0.try_clone().expect("endpoint budget sized to p");
            let rx = pool[0].1.try_clone().expect("endpoint budget sized to p");
            pool.push((tx, rx));
        }
        WfChannel {
            pool: Mutex::new(pool),
            mode,
            handles: p,
            name,
        }
    }
}

impl<T: Clone + Send + Sync + 'static> std::fmt::Debug for WfChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WfChannel")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("handles", &self.handles)
            .finish()
    }
}

impl<T: Clone + Send + Sync + 'static> ConcurrentQueue<T> for WfChannel<T> {
    type Handle<'a>
        = WfChannelHandle<T>
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
            let (tx, rx) = pool.remove(0);
            Some(WfChannelHandle {
                tx,
                rx,
                mode: self.mode,
            })
        }
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.handles)
    }
}

/// One harness handle: a `Sender` + `Receiver` pair consumed in the
/// selected [`ChannelMode`].
#[derive(Debug)]
pub struct WfChannelHandle<T: Clone + Send + Sync + 'static> {
    /// The sending endpoint (exposed for tests that need endpoint-level
    /// access, e.g. to drop one side).
    pub tx: Sender<T>,
    /// The receiving endpoint.
    pub rx: Receiver<T>,
    mode: ChannelMode,
}

impl<T: Clone + Send + Sync + 'static> QueueHandle<T> for WfChannelHandle<T> {
    fn enqueue(&mut self, value: T) {
        match self.mode {
            ChannelMode::Try => self
                .tx
                .try_send(value)
                .unwrap_or_else(|e| panic!("harness channel try_send failed: {e}")),
            ChannelMode::Blocking => self
                .tx
                .send(value)
                .unwrap_or_else(|e| panic!("harness channel send failed: {e}")),
            #[cfg(feature = "async")]
            ChannelMode::Async => wfqueue_channel::exec::block_on(self.tx.send_async(value))
                .unwrap_or_else(|e| panic!("harness channel send_async failed: {e}")),
        }
    }

    fn dequeue(&mut self) -> Option<T> {
        match self.mode {
            // Empty and Disconnected both witness "empty at the
            // linearization point" — a valid `None`.
            ChannelMode::Try => self.rx.try_recv().ok(),
            ChannelMode::Blocking => self.rx.recv_timeout(RECV_PATIENCE).ok(),
            #[cfg(feature = "async")]
            ChannelMode::Async => {
                wfqueue_channel::exec::block_on_timeout(self.rx.recv_async(), RECV_PATIENCE)
                    .and_then(Result::ok)
            }
        }
    }

    fn enqueue_batch(&mut self, values: Vec<T>) {
        match self.mode {
            // Non-blocking all-or-nothing batch; as with `enqueue`, a
            // `Full` response on an undersized bounded channel panics
            // (the uniform interface has no failure path).
            ChannelMode::Try => self
                .tx
                .try_send_all(values)
                .unwrap_or_else(|e| panic!("harness channel try_send_all failed: {e}")),
            // The channel has no async batch API: batches ride the
            // blocking `send_all` in both remaining modes.
            #[cfg(feature = "async")]
            ChannelMode::Async => self
                .tx
                .send_all(values)
                .unwrap_or_else(|e| panic!("harness channel send_all failed: {e}")),
            ChannelMode::Blocking => self
                .tx
                .send_all(values)
                .unwrap_or_else(|e| panic!("harness channel send_all failed: {e}")),
        }
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<T>> {
        let mut out: Vec<Option<T>> = self.rx.recv_up_to(count).into_iter().map(Some).collect();
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
                WfChannel::<u64>::unbounded(2, mode),
                WfChannel::<u64>::bounded(2, 64, mode),
                WfChannel::<u64>::ring(2, 64, mode),
                WfChannel::<u64>::sharded(2, 2, mode),
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
            let q = WfChannel::<u64>::unbounded(1, mode);
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
    fn pool_is_capped() {
        let q = WfChannel::<u64>::unbounded(2, ChannelMode::Try);
        assert_eq!(ConcurrentQueue::<u64>::capacity(&q), Some(2));
        let handles = q.handles();
        assert_eq!(handles.len(), 2);
        assert!(q.try_handle().is_none());
    }

    #[test]
    fn workload_audits_pass_through_the_channel() {
        use crate::workload::{run_workload, WorkloadSpec};
        for mode in modes() {
            let q = WfChannel::<u64>::unbounded(2, mode);
            let spec = WorkloadSpec {
                threads: 2,
                ops_per_thread: 400,
                enqueue_permille: 600,
                prefill: 8,
                seed: 0xC4A2,
            };
            let r = run_workload(&q, &spec);
            assert!(r.audits_ok(), "{mode:?}: {r:?}");
        }
    }
}
