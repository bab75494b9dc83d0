//! [`ConcurrentQueue`] adapter for the work-stealing executor, so the
//! workload runner, the per-producer FIFO audits and the adversarial
//! scheduler drive `wfqueue_executor`'s full spawn → schedule → steal →
//! join pipeline through the same uniform interface as every queue.
//!
//! The mapping: a harness *enqueue* spawns a task that returns the
//! value (through the handle's own [`Spawner`], i.e. its own home
//! injection shard), and a harness *dequeue* joins this handle's
//! oldest outstanding task — so a dequeue completes only once the pool
//! has actually scheduled and executed the task, and the values drain in
//! per-handle spawn order. Per-producer FIFO therefore holds by
//! construction *if and only if* the executor's join protocol delivers
//! every task exactly once; duplicated or lost deliveries surface in the
//! workload audits exactly as a broken queue's would.

use std::collections::VecDeque;
use std::sync::Mutex;

use wfqueue_executor::{Executor, ExecutorConfig, ExecutorStats, JoinHandle, Spawner};

use crate::queue_api::{ConcurrentQueue, QueueHandle};

/// An executor under test: a pool of pre-minted [`Spawner`]s handed out
/// as harness handles, over a running [`Executor`].
///
/// # Examples
///
/// ```
/// use wfqueue_harness::executor_api::WfExecutor;
/// use wfqueue_harness::queue_api::{ConcurrentQueue, QueueHandle};
///
/// let q: WfExecutor<u64> = WfExecutor::new(2, 2);
/// let mut h = q.handle();
/// h.enqueue(9);
/// assert_eq!(h.dequeue(), Some(9));
/// ```
pub struct WfExecutor<T: Send + 'static> {
    exec: Executor,
    pool: Mutex<Vec<Spawner>>,
    handles: usize,
    _values: std::marker::PhantomData<fn() -> T>,
}

impl<T: Send + 'static> WfExecutor<T> {
    /// A pool with `workers` workers, sized for `p` harness handles
    /// (each backed by its own per-producer-routed [`Spawner`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero or `workers` is zero.
    #[must_use]
    pub fn new(p: usize, workers: usize) -> Self {
        assert!(p > 0, "need at least one handle");
        let exec = Executor::new(ExecutorConfig {
            workers,
            max_spawners: p,
            ..ExecutorConfig::default()
        });
        let pool = (0..p)
            .map(|_| exec.try_spawner().expect("pool sized for p spawners"))
            .collect();
        WfExecutor {
            exec,
            pool: Mutex::new(pool),
            handles: p,
            _values: std::marker::PhantomData,
        }
    }

    /// The underlying pool's counters (steals, parks, spawn sources) —
    /// what the executor test battery audits after a workload.
    #[must_use]
    pub fn stats(&self) -> ExecutorStats {
        self.exec.stats()
    }
}

impl<T: Send + 'static> ConcurrentQueue<T> for WfExecutor<T> {
    type Handle<'a>
        = WfExecutorHandle<T>
    where
        T: 'a;

    fn name(&self) -> &'static str {
        "wf-executor"
    }

    fn try_handle(&self) -> Option<Self::Handle<'_>> {
        let spawner = self
            .pool
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()?;
        Some(WfExecutorHandle {
            spawner,
            pending: VecDeque::new(),
        })
    }

    fn capacity(&self) -> Option<usize> {
        Some(self.handles)
    }
}

/// One thread's view of a [`WfExecutor`]: a [`Spawner`] plus the FIFO of
/// this handle's outstanding joins.
pub struct WfExecutorHandle<T: Send + 'static> {
    spawner: Spawner,
    pending: VecDeque<JoinHandle<T>>,
}

impl<T: Send + 'static> QueueHandle<T> for WfExecutorHandle<T> {
    fn enqueue(&mut self, value: T) {
        let handle = self
            .spawner
            .spawn(move || value)
            .expect("harness pool is never sealed mid-workload");
        self.pending.push_back(handle);
    }

    fn dequeue(&mut self) -> Option<T> {
        let handle = self.pending.pop_front()?;
        Some(
            handle
                .join()
                .expect("a value-returning adapter task neither panics nor is cancelled"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_per_handle_order() {
        let q: WfExecutor<u64> = WfExecutor::new(2, 2);
        let mut h = q.handle();
        for i in 0..100 {
            h.enqueue(i);
        }
        for i in 0..100 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
        let stats = q.stats();
        assert_eq!(stats.spawned, 100);
    }

    #[test]
    fn capacity_reports_the_spawner_pool() {
        let q: WfExecutor<u64> = WfExecutor::new(3, 1);
        assert_eq!(q.capacity(), Some(3));
        let hs = q.handles();
        assert_eq!(hs.len(), 3);
        assert!(q.try_handle().is_none());
    }
}
