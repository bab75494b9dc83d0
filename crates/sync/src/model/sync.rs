//! Modeled blocking primitives for use *inside* a model run.
//!
//! These mirror the `std::sync` subset the workspace uses (`lock`
//! ignoring poisoning, `Condvar::wait` taking the guard). Outside an
//! [`super::explore`] closure they panic — production code keeps using
//! `std::sync`; these exist so protocol *replicas* can model their
//! blocking halves and have lost wakeups surface as detected deadlocks.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};

use super::{current, exec, Handle};

fn addr_of<T: ?Sized>(r: &T) -> usize {
    std::ptr::from_ref(r).cast::<()>() as usize
}

/// A mutual-exclusion lock modeled by the schedule explorer.
///
/// Blocking on a contended lock is a voluntary context switch (it never
/// consumes preemption budget), and an unlock→lock pair carries the usual
/// happens-before edge.
pub struct Mutex<T> {
    cell: UnsafeCell<T>,
}

// SAFETY: the model scheduler guarantees at most one virtual thread holds
// the lock (and therefore touches `cell`) at a time, and only one virtual
// thread executes at any instant anyway; `T: Send` is required so the
// protected value may move between the OS threads backing them.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as above — `&Mutex<T>` only yields `&T`/`&mut T` through the
// guard, which the modeled lock hands to one thread at a time.
unsafe impl<T: Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    /// Creates a modeled mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            cell: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, blocking the virtual thread until available.
    ///
    /// # Panics
    ///
    /// Panics when called outside a model run.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let h = current().expect("model::Mutex used outside a model::explore run");
        exec::op_mutex_lock(&h, addr_of(self));
        MutexGuard { mutex: self, h }
    }
}

impl<T> Drop for Mutex<T> {
    fn drop(&mut self) {
        if let Some(h) = current() {
            exec::op_forget_sync(&h, addr_of(self));
        }
    }
}

/// RAII guard returned by [`Mutex::lock`]; unlocks on drop.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    h: Handle,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the modeled lock is held for the guard's lifetime, so
        // no other virtual thread can form a reference to the cell.
        unsafe { &*self.mutex.cell.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive access for the guard's
        // lifetime is exactly the modeled mutex invariant.
        unsafe { &mut *self.mutex.cell.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        exec::op_mutex_unlock(&self.h, addr_of(self.mutex));
    }
}

/// A condition variable modeled by the schedule explorer.
///
/// Only `notify_all` is offered: every protocol in this workspace uses
/// broadcast wakeups (see `wfqueue_channel`'s `Signal`), and modeling
/// `notify_one` would add a wake-order choice point with nothing in-tree
/// to exercise it.
pub struct Condvar {
    // Zero-sized payload; identity (the address) is the registration key.
    _private: (),
}

impl Condvar {
    /// Creates a modeled condition variable.
    pub const fn new() -> Self {
        Condvar { _private: () }
    }

    /// Atomically releases `guard`'s mutex and waits for a notification,
    /// reacquiring the lock before returning. No spurious wakeups: the
    /// model only wakes waiters from [`Condvar::notify_all`], so a
    /// missing notification is *detected* as a deadlock rather than
    /// papered over by a retry loop.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mutex = guard.mutex;
        let h = guard.h.clone();
        // The modeled wait releases and reacquires the mutex itself;
        // running the guard's unlock-on-drop too would double-release.
        std::mem::forget(guard);
        exec::op_cv_wait(&h, addr_of(self), addr_of(mutex));
        MutexGuard { mutex, h }
    }

    /// Wakes every current waiter.
    ///
    /// # Panics
    ///
    /// Panics when called outside a model run.
    pub fn notify_all(&self) {
        let h = current().expect("model::Condvar used outside a model::explore run");
        exec::op_cv_notify_all(&h, addr_of(self));
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl Drop for Condvar {
    fn drop(&mut self) {
        if let Some(h) = current() {
            exec::op_forget_sync(&h, addr_of(self));
        }
    }
}
