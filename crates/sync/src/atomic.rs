//! Facade over [`std::sync::atomic`]: the workspace's only sanctioned way
//! to touch an atomic.
//!
//! Each type here is a `#[repr(transparent)]`-equivalent newtype over its
//! `std` counterpart with `#[inline]` passthrough methods, so default
//! builds compile to exactly the raw instructions. Under
//! `feature = "model"` every operation first asks whether the current
//! thread is running inside a `crate::model::explore` schedule; if so the
//! operation is routed through the modeled memory system (which tracks
//! happens-before and may serve *stale but legal* values to weakly-ordered
//! loads), otherwise it falls through to the real atomic. The model keys
//! each atomic by an identity that it carries inside itself (assigned on
//! first modeled use), not by its address, so an atomic that moves — say,
//! a struct built on the stack and then boxed — keeps its modeled history,
//! and a new atomic at a freed address starts a fresh one.
//!
//! Only the operations the workspace actually uses are exposed; extending
//! the surface is a one-line passthrough per method. `get_mut` /
//! `into_inner` take `&mut self`/`self` and therefore cannot race — they
//! always bypass the model (do not call them on a location that is still
//! shared inside a model run).

pub use std::sync::atomic::Ordering;

/// An atomic memory fence ([`std::sync::atomic::fence`]), model-aware.
///
/// Inside a model run the fence updates the modeled thread's vector clocks
/// (acquire/release/SC semantics) instead of emitting a hardware fence.
#[inline]
pub fn fence(order: Ordering) {
    #[cfg(feature = "model")]
    if crate::model::hooks::fence(order) {
        return;
    }
    std::sync::atomic::fence(order);
}

macro_rules! int_atomic {
    ($(#[$doc:meta])* $name:ident, $std:ident, $int:ty) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            inner: std::sync::atomic::$std,
            #[cfg(feature = "model")]
            id: crate::model::hooks::LocationId,
        }

        #[allow(
            clippy::cast_possible_truncation,
            clippy::unnecessary_cast,
            reason = "the facade funnels every width through u64: casts are \
                      lossless, and for u64 itself trivially redundant"
        )]
        impl $name {
            /// Creates a new atomic initialized to `v`.
            #[must_use]
            #[inline]
            pub const fn new(v: $int) -> Self {
                Self {
                    inner: std::sync::atomic::$std::new(v),
                    #[cfg(feature = "model")]
                    id: crate::model::hooks::LocationId::new(),
                }
            }

            /// Loads the current value with the given ordering.
            #[inline]
            pub fn load(&self, order: Ordering) -> $int {
                #[cfg(feature = "model")]
                if let Some(v) = crate::model::hooks::atomic_load(
                    &self.id,
                    || self.inner.load(Ordering::Relaxed) as u64,
                    order,
                ) {
                    return v as $int;
                }
                self.inner.load(order)
            }

            /// Stores `val` with the given ordering.
            #[inline]
            pub fn store(&self, val: $int, order: Ordering) {
                #[cfg(feature = "model")]
                if crate::model::hooks::atomic_store(
                    &self.id,
                    || self.inner.load(Ordering::Relaxed) as u64,
                    val as u64,
                    order,
                ) {
                    return;
                }
                self.inner.store(val, order);
            }

            /// Swaps in `val`, returning the previous value.
            #[inline]
            pub fn swap(&self, val: $int, order: Ordering) -> $int {
                #[cfg(feature = "model")]
                if let Some(v) = crate::model::hooks::atomic_rmw(
                    &self.id,
                    || self.inner.load(Ordering::Relaxed) as u64,
                    &mut |_| val as u64,
                    order,
                ) {
                    return v as $int;
                }
                self.inner.swap(val, order)
            }

            /// Adds `val`, wrapping, returning the previous value.
            #[inline]
            pub fn fetch_add(&self, val: $int, order: Ordering) -> $int {
                #[cfg(feature = "model")]
                if let Some(v) = crate::model::hooks::atomic_rmw(
                    &self.id,
                    || self.inner.load(Ordering::Relaxed) as u64,
                    &mut |old| (old as $int).wrapping_add(val) as u64,
                    order,
                ) {
                    return v as $int;
                }
                self.inner.fetch_add(val, order)
            }

            /// Subtracts `val`, wrapping, returning the previous value.
            #[inline]
            pub fn fetch_sub(&self, val: $int, order: Ordering) -> $int {
                #[cfg(feature = "model")]
                if let Some(v) = crate::model::hooks::atomic_rmw(
                    &self.id,
                    || self.inner.load(Ordering::Relaxed) as u64,
                    &mut |old| (old as $int).wrapping_sub(val) as u64,
                    order,
                ) {
                    return v as $int;
                }
                self.inner.fetch_sub(val, order)
            }

            /// Bitwise-xors in `val`, returning the previous value.
            #[inline]
            pub fn fetch_xor(&self, val: $int, order: Ordering) -> $int {
                #[cfg(feature = "model")]
                if let Some(v) = crate::model::hooks::atomic_rmw(
                    &self.id,
                    || self.inner.load(Ordering::Relaxed) as u64,
                    &mut |old| ((old as $int) ^ val) as u64,
                    order,
                ) {
                    return v as $int;
                }
                self.inner.fetch_xor(val, order)
            }

            /// Compare-and-exchange: stores `new` iff the current value is
            /// `current`. `Ok(previous)` on success, `Err(actual)` otherwise.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                #[cfg(feature = "model")]
                if let Some(r) = crate::model::hooks::atomic_cas(
                    &self.id,
                    || self.inner.load(Ordering::Relaxed) as u64,
                    current as u64,
                    new as u64,
                    success,
                    failure,
                ) {
                    return r.map(|v| v as $int).map_err(|v| v as $int);
                }
                self.inner.compare_exchange(current, new, success, failure)
            }

            /// Like [`Self::compare_exchange`] but allowed to fail
            /// spuriously. The model treats it as the strong variant
            /// (spurious failures add no safety behaviours, only retries).
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                #[cfg(feature = "model")]
                if let Some(r) = crate::model::hooks::atomic_cas(
                    &self.id,
                    || self.inner.load(Ordering::Relaxed) as u64,
                    current as u64,
                    new as u64,
                    success,
                    failure,
                ) {
                    return r.map(|v| v as $int).map_err(|v| v as $int);
                }
                self.inner
                    .compare_exchange_weak(current, new, success, failure)
            }

            /// Mutable access to the value (no synchronization needed —
            /// `&mut self` proves exclusivity). Always bypasses the model.
            #[inline]
            pub fn get_mut(&mut self) -> &mut $int {
                self.inner.get_mut()
            }

            /// Consumes the atomic, returning the value. Always bypasses
            /// the model.
            #[must_use]
            #[inline]
            #[cfg(not(feature = "model"))]
            pub fn into_inner(self) -> $int {
                self.inner.into_inner()
            }

            /// Consumes the atomic, returning the value. Always bypasses
            /// the model.
            #[must_use]
            #[inline]
            #[cfg(feature = "model")]
            pub fn into_inner(mut self) -> $int {
                crate::model::hooks::forget_location(&self.id);
                let v = *self.inner.get_mut();
                // The underlying std atomic has no Drop of its own; skipping our
                // Drop impl (which only deregisters the model location, already
                // done above) leaks nothing.
                std::mem::forget(self);
                v
            }
        }

        #[cfg(feature = "model")]
        impl Drop for $name {
            fn drop(&mut self) {
                // The active model run (if any) stops tracking the
                // location; ids are never reused, so nothing aliases it.
                crate::model::hooks::forget_location(&self.id);
            }
        }
    };
}

int_atomic!(
    /// Facade over [`std::sync::atomic::AtomicUsize`].
    AtomicUsize,
    AtomicUsize,
    usize
);
int_atomic!(
    /// Facade over [`std::sync::atomic::AtomicU64`].
    AtomicU64,
    AtomicU64,
    u64
);

/// Facade over [`std::sync::atomic::AtomicBool`].
#[derive(Debug, Default)]
pub struct AtomicBool {
    inner: std::sync::atomic::AtomicBool,
    #[cfg(feature = "model")]
    id: crate::model::hooks::LocationId,
}

impl AtomicBool {
    /// Creates a new atomic flag initialized to `v`.
    #[must_use]
    #[inline]
    pub const fn new(v: bool) -> Self {
        Self {
            inner: std::sync::atomic::AtomicBool::new(v),
            #[cfg(feature = "model")]
            id: crate::model::hooks::LocationId::new(),
        }
    }

    /// Loads the current value with the given ordering.
    #[inline]
    pub fn load(&self, order: Ordering) -> bool {
        #[cfg(feature = "model")]
        if let Some(v) = crate::model::hooks::atomic_load(
            &self.id,
            || u64::from(self.inner.load(Ordering::Relaxed)),
            order,
        ) {
            return v != 0;
        }
        self.inner.load(order)
    }

    /// Stores `val` with the given ordering.
    #[inline]
    pub fn store(&self, val: bool, order: Ordering) {
        #[cfg(feature = "model")]
        if crate::model::hooks::atomic_store(
            &self.id,
            || u64::from(self.inner.load(Ordering::Relaxed)),
            u64::from(val),
            order,
        ) {
            return;
        }
        self.inner.store(val, order);
    }

    /// Swaps in `val`, returning the previous value.
    #[inline]
    pub fn swap(&self, val: bool, order: Ordering) -> bool {
        #[cfg(feature = "model")]
        if let Some(v) = crate::model::hooks::atomic_rmw(
            &self.id,
            || u64::from(self.inner.load(Ordering::Relaxed)),
            &mut |_| u64::from(val),
            order,
        ) {
            return v != 0;
        }
        self.inner.swap(val, order)
    }

    /// Compare-and-exchange: stores `new` iff the current value is
    /// `current`. `Ok(previous)` on success, `Err(actual)` otherwise.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        #[cfg(feature = "model")]
        if let Some(r) = crate::model::hooks::atomic_cas(
            &self.id,
            || u64::from(self.inner.load(Ordering::Relaxed)),
            u64::from(current),
            u64::from(new),
            success,
            failure,
        ) {
            return r.map(|v| v != 0).map_err(|v| v != 0);
        }
        self.inner.compare_exchange(current, new, success, failure)
    }

    /// Mutable access to the value. Always bypasses the model.
    #[inline]
    pub fn get_mut(&mut self) -> &mut bool {
        self.inner.get_mut()
    }

    /// Consumes the atomic, returning the value. Always bypasses the model.
    #[must_use]
    #[inline]
    #[cfg(not(feature = "model"))]
    pub fn into_inner(self) -> bool {
        self.inner.into_inner()
    }

    /// Consumes the atomic, returning the value. Always bypasses the model.
    #[must_use]
    #[inline]
    #[cfg(feature = "model")]
    pub fn into_inner(mut self) -> bool {
        crate::model::hooks::forget_location(&self.id);
        let v = *self.inner.get_mut();
        // The underlying std atomic has no Drop of its own; skipping our
        // Drop impl (which only deregisters the model location, already
        // done above) leaks nothing.
        std::mem::forget(self);
        v
    }
}

#[cfg(feature = "model")]
impl Drop for AtomicBool {
    fn drop(&mut self) {
        crate::model::hooks::forget_location(&self.id);
    }
}

/// Facade over [`std::sync::atomic::AtomicPtr`].
///
/// Inside a model run the pointer is tracked as its address value; the
/// model never dereferences it.
#[derive(Debug)]
pub struct AtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
    #[cfg(feature = "model")]
    id: crate::model::hooks::LocationId,
}

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        Self::new(std::ptr::null_mut())
    }
}

impl<T> AtomicPtr<T> {
    /// Creates a new atomic pointer initialized to `p`.
    #[must_use]
    #[inline]
    pub const fn new(p: *mut T) -> Self {
        Self {
            inner: std::sync::atomic::AtomicPtr::new(p),
            #[cfg(feature = "model")]
            id: crate::model::hooks::LocationId::new(),
        }
    }

    /// Loads the current pointer with the given ordering.
    #[inline]
    pub fn load(&self, order: Ordering) -> *mut T {
        #[cfg(feature = "model")]
        if let Some(v) = crate::model::hooks::atomic_load(
            &self.id,
            || self.inner.load(Ordering::Relaxed) as u64,
            order,
        ) {
            return v as usize as *mut T;
        }
        self.inner.load(order)
    }

    /// Stores `p` with the given ordering.
    #[inline]
    pub fn store(&self, p: *mut T, order: Ordering) {
        #[cfg(feature = "model")]
        if crate::model::hooks::atomic_store(
            &self.id,
            || self.inner.load(Ordering::Relaxed) as u64,
            p as u64,
            order,
        ) {
            return;
        }
        self.inner.store(p, order);
    }

    /// Swaps in `p`, returning the previous pointer.
    #[inline]
    pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        #[cfg(feature = "model")]
        if let Some(v) = crate::model::hooks::atomic_rmw(
            &self.id,
            || self.inner.load(Ordering::Relaxed) as u64,
            &mut |_| p as u64,
            order,
        ) {
            return v as usize as *mut T;
        }
        self.inner.swap(p, order)
    }

    /// Compare-and-exchange: stores `new` iff the current pointer is
    /// `current`. `Ok(previous)` on success, `Err(actual)` otherwise.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        #[cfg(feature = "model")]
        if let Some(r) = crate::model::hooks::atomic_cas(
            &self.id,
            || self.inner.load(Ordering::Relaxed) as u64,
            current as u64,
            new as u64,
            success,
            failure,
        ) {
            return r
                .map(|v| v as usize as *mut T)
                .map_err(|v| v as usize as *mut T);
        }
        self.inner.compare_exchange(current, new, success, failure)
    }

    /// Mutable access to the pointer. Always bypasses the model.
    #[inline]
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.inner.get_mut()
    }

    /// Consumes the atomic, returning the pointer. Always bypasses the
    /// model.
    #[must_use]
    #[inline]
    #[cfg(not(feature = "model"))]
    pub fn into_inner(self) -> *mut T {
        self.inner.into_inner()
    }

    /// Consumes the atomic, returning the pointer. Always bypasses the
    /// model.
    #[must_use]
    #[inline]
    #[cfg(feature = "model")]
    pub fn into_inner(mut self) -> *mut T {
        crate::model::hooks::forget_location(&self.id);
        let v = *self.inner.get_mut();
        // The underlying std atomic has no Drop of its own; skipping our
        // Drop impl (which only deregisters the model location, already
        // done above) leaks nothing.
        std::mem::forget(self);
        v
    }
}

#[cfg(feature = "model")]
impl<T> Drop for AtomicPtr<T> {
    fn drop(&mut self) {
        crate::model::hooks::forget_location(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_semantics() {
        let x = AtomicUsize::new(1);
        assert_eq!(x.fetch_add(2, Ordering::SeqCst), 1);
        assert_eq!(x.swap(9, Ordering::SeqCst), 3);
        assert_eq!(
            x.compare_exchange(9, 4, Ordering::SeqCst, Ordering::SeqCst),
            Ok(9)
        );
        assert_eq!(
            x.compare_exchange(9, 5, Ordering::SeqCst, Ordering::SeqCst),
            Err(4)
        );
        assert_eq!(x.into_inner(), 4);

        let b = AtomicBool::new(false);
        assert!(!b.swap(true, Ordering::SeqCst));
        assert!(b.load(Ordering::SeqCst));

        let mut p = AtomicPtr::<u8>::default();
        assert!(p.load(Ordering::SeqCst).is_null());
        *p.get_mut() = std::ptr::NonNull::<u8>::dangling().as_ptr();
        assert!(!p.into_inner().is_null());
    }

    #[test]
    fn const_new_in_static() {
        static FLAG: AtomicBool = AtomicBool::new(true);
        static COUNT: AtomicU64 = AtomicU64::new(41);
        assert!(FLAG.load(Ordering::Relaxed));
        assert_eq!(COUNT.fetch_add(1, Ordering::Relaxed), 41);
        fence(Ordering::SeqCst);
    }
}
