//! The seam between the facade types and the model: every hook returns
//! `None`/`false` when the calling OS thread is not inside a model
//! schedule, in which case the facade falls through to the real
//! `std::sync::atomic` operation.

use std::sync::atomic::AtomicUsize;

use crate::atomic::Ordering;

use super::{current, exec};

/// A facade atomic's identity in the modeled memory system.
///
/// It lives inside the atomic, so it moves with it: a location's history
/// follows the value, not the address it happened to be built at. The id
/// is drawn from a process-wide counter on first modeled use and never
/// reused; 0 means "not yet drawn".
#[derive(Debug, Default)]
pub(crate) struct LocationId(AtomicUsize);

/// The next id to hand out (ids start at 1).
static NEXT_ID: AtomicUsize = AtomicUsize::new(1);

impl LocationId {
    pub(crate) const fn new() -> Self {
        LocationId(AtomicUsize::new(0))
    }

    /// The id, drawn on first call.
    fn get(&self) -> usize {
        // ORDERING: Relaxed throughout — the id is an opaque key, and the
        // CAS alone makes every caller agree on one value.
        let id = self.0.load(std::sync::atomic::Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let fresh = NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        match self.0.compare_exchange(
            0,
            fresh,
            std::sync::atomic::Ordering::Relaxed,
            std::sync::atomic::Ordering::Relaxed,
        ) {
            Ok(_) => fresh,
            Err(drawn) => drawn,
        }
    }

    /// The id if one was drawn.
    fn drawn(&self) -> Option<usize> {
        match self.0.load(std::sync::atomic::Ordering::Relaxed) {
            0 => None,
            id => Some(id),
        }
    }
}

/// Modeled atomic load; `None` outside a model run.
pub(crate) fn atomic_load(
    loc: &LocationId,
    init: impl FnOnce() -> u64,
    order: Ordering,
) -> Option<u64> {
    let h = current()?;
    Some(exec::op_load(&h, loc.get(), init(), order))
}

/// Modeled atomic store; `false` outside a model run.
pub(crate) fn atomic_store(
    loc: &LocationId,
    init: impl FnOnce() -> u64,
    val: u64,
    order: Ordering,
) -> bool {
    let Some(h) = current() else { return false };
    exec::op_store(&h, loc.get(), init(), val, order);
    true
}

/// Modeled read-modify-write (returns the previous value); `None` outside
/// a model run.
pub(crate) fn atomic_rmw(
    loc: &LocationId,
    init: impl FnOnce() -> u64,
    f: &mut dyn FnMut(u64) -> u64,
    order: Ordering,
) -> Option<u64> {
    let h = current()?;
    Some(exec::op_rmw(&h, loc.get(), init(), f, order))
}

/// Modeled compare-and-exchange; `None` outside a model run.
pub(crate) fn atomic_cas(
    loc: &LocationId,
    init: impl FnOnce() -> u64,
    expected: u64,
    new: u64,
    success: Ordering,
    failure: Ordering,
) -> Option<Result<u64, u64>> {
    let h = current()?;
    Some(exec::op_cas(
        &h,
        loc.get(),
        init(),
        expected,
        new,
        success,
        failure,
    ))
}

/// Modeled memory fence; `false` outside a model run.
pub(crate) fn fence(order: Ordering) -> bool {
    let Some(h) = current() else { return false };
    exec::op_fence(&h, order);
    true
}

/// Pure scheduling point ([`crate::thread::yield_now`] /
/// [`crate::thread::sleep`] inside a model run); `false` outside one.
pub(crate) fn yield_point() -> bool {
    let Some(h) = current() else { return false };
    exec::op_yield(&h);
    true
}

/// Deregisters a dropped atomic's location, so the run tracks only live
/// ones. No-op outside a model run, and for an atomic never modeled.
pub(crate) fn forget_location(loc: &LocationId) {
    if let (Some(h), Some(id)) = (current(), loc.drawn()) {
        exec::op_forget(&h, id);
    }
}
