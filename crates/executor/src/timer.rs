//! The hashed timer wheel behind [`crate::Executor::spawn_after`],
//! [`crate::Executor::sleep`] and deadline tasks.
//!
//! Entries hash into one of [`WHEEL_SLOTS`] independently-locked buckets
//! by deadline (`⌊deadline_ms / TICK_MS⌋ mod SLOTS`), so concurrent
//! inserters and cancellers contend on one bucket, not one global list —
//! the hashing shards the locks. The expiry side is a dedicated timeout
//! worker (see the worker loop in `lib.rs`): it harvests due entries with
//! [`TimerWheel::take_due`], injects their tasks into the pool's global
//! queue in deadline order, and parks on the wheel's [`Signal`] until the
//! earliest remaining deadline (or an insert with an earlier one wakes it).
//!
//! The wheel itself knows nothing of shutdown. `spawn_after` inserts from
//! inside an entry of the pool's [`wfqueue_channel::Seal`], and the
//! timeout worker waits for that seal to drain before its final sweep —
//! so an insert that was let in before the seal is always in the sweep
//! (and cancelled, never stranded). The proof is the `Seal` type's.

use std::sync::Mutex;
use std::time::Instant;

use wfqueue_channel::Signal;
use wfqueue_sync::atomic::{AtomicU64, Ordering};

use crate::task::{CancelFn, TaskRef};

/// Number of hash buckets in the wheel. Power of two so the deadline
/// hash is a mask.
pub(crate) const WHEEL_SLOTS: usize = 64;

/// Bucket granularity of the deadline hash, in milliseconds.
const TICK_MS: u128 = 1;

/// One pending timer: fires `task` into the pool at `deadline`, or runs
/// `cancel` (resolving the join handle to `Cancelled`) if removed first.
pub(crate) struct TimerEntry {
    pub(crate) id: u64,
    pub(crate) deadline: Instant,
    pub(crate) task: TaskRef,
    pub(crate) cancel: CancelFn,
}

/// The hashed timer wheel. See the module docs.
pub(crate) struct TimerWheel {
    slots: Vec<Mutex<Vec<TimerEntry>>>,
    /// Wakes the timeout worker: on insert (the new deadline may be the
    /// earliest) and on shutdown.
    pub(crate) signal: Signal,
    next_id: AtomicU64,
    base: Instant,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
            signal: Signal::default(),
            next_id: AtomicU64::new(1),
            base: Instant::now(),
        }
    }

    fn slot_of(&self, deadline: Instant) -> usize {
        let ticks = deadline.saturating_duration_since(self.base).as_millis() / TICK_MS;
        (ticks as usize) & (WHEEL_SLOTS - 1)
    }

    /// Registers an entry and returns the `(slot, id)` pair that
    /// addresses it for [`TimerWheel::remove`].
    pub(crate) fn insert(
        &self,
        deadline: Instant,
        task: TaskRef,
        cancel: CancelFn,
    ) -> (usize, u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot_of(deadline);
        self.slots[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(TimerEntry {
                id,
                deadline,
                task,
                cancel,
            });
        (slot, id)
    }

    /// Removes the entry `(slot, id)` if it has neither fired nor been
    /// cancelled yet. Fire and cancel both hold the bucket lock, so
    /// exactly one caller obtains the entry.
    pub(crate) fn remove(&self, slot: usize, id: u64) -> Option<TimerEntry> {
        let mut bucket = self.slots[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let pos = bucket.iter().position(|e| e.id == id)?;
        Some(bucket.swap_remove(pos))
    }

    /// Harvests every entry due at `now`, in deadline order (ties by
    /// insertion id, so equal deadlines fire in registration order).
    pub(crate) fn take_due(&self, now: Instant) -> Vec<TimerEntry> {
        let mut due = Vec::new();
        for slot in &self.slots {
            let mut bucket = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].deadline <= now {
                    due.push(bucket.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        due.sort_by_key(|e| (e.deadline, e.id));
        due
    }

    /// The earliest deadline still registered, if any.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let mut min: Option<Instant> = None;
        for slot in &self.slots {
            let bucket = slot
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for e in bucket.iter() {
                if min.is_none_or(|m| e.deadline < m) {
                    min = Some(e.deadline);
                }
            }
        }
        min
    }

    /// Removes and returns every registered entry (the shutdown drain).
    pub(crate) fn drain_all(&self) -> Vec<TimerEntry> {
        let mut all = Vec::new();
        for slot in &self.slots {
            all.append(
                &mut slot
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
        all
    }
}

impl std::fmt::Debug for TimerWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("slots", &WHEEL_SLOTS)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::task::Task;

    fn entry_ids(entries: &[TimerEntry]) -> Vec<u64> {
        entries.iter().map(|e| e.id).collect()
    }

    fn insert_noop(wheel: &TimerWheel, deadline: Instant) -> (usize, u64) {
        let (task, _handle, cancel) = Task::package(|| ());
        wheel.insert(deadline, task, cancel)
    }

    /// Entries registered at the *identical* `Instant` (an exact deadline
    /// tie, unreachable through `spawn_after`'s per-call clock reads) are
    /// harvested in insertion-id order — the tie-break the integration
    /// battery relies on for same-delay batches.
    #[test]
    fn exact_deadline_ties_fire_in_insertion_order() {
        let wheel = TimerWheel::new();
        let tie = wheel.base + Duration::from_millis(5);
        let ids: Vec<u64> = (0..4).map(|_| insert_noop(&wheel, tie).1).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids mint in order");
        let due = wheel.take_due(tie);
        assert_eq!(entry_ids(&due), ids, "exact ties break by insertion id");
    }

    /// `take_due` harvests across *different* hash buckets in deadline
    /// order, leaves not-yet-due entries registered, and `remove` is a
    /// one-shot claim.
    #[test]
    fn take_due_orders_across_buckets_and_remove_is_one_shot() {
        let wheel = TimerWheel::new();
        // Spread over more than WHEEL_SLOTS ms so at least two land in
        // different buckets; register in scrambled deadline order.
        let offsets = [90u64, 10, 130, 50];
        let keys: Vec<(usize, u64)> = offsets
            .iter()
            .map(|&ms| insert_noop(&wheel, wheel.base + Duration::from_millis(ms)))
            .collect();
        let (later_slot, later_id) = insert_noop(&wheel, wheel.base + Duration::from_millis(500));
        let due = wheel.take_due(wheel.base + Duration::from_millis(200));
        // Sorted by deadline: offsets 10, 50, 90, 130 → ids minted 2nd,
        // 4th, 1st, 3rd.
        assert_eq!(
            entry_ids(&due),
            vec![keys[1].1, keys[3].1, keys[0].1, keys[2].1]
        );
        assert_eq!(
            wheel.next_deadline(),
            Some(wheel.base + Duration::from_millis(500)),
            "the 500ms entry stays registered"
        );
        assert!(wheel.remove(later_slot, later_id).is_some());
        assert!(
            wheel.remove(later_slot, later_id).is_none(),
            "remove must be a one-shot claim"
        );
        assert_eq!(wheel.next_deadline(), None);
    }
}
