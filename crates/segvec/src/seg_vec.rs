//! The write-once chunked vector.

use std::fmt;
use std::marker::PhantomData;
use std::mem::size_of;
use std::ptr;
use wfqueue_sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

use wfqueue_metrics as metrics;

/// Slots per chunk: the unit in which slot storage is allocated and
/// released.
const CHUNK: usize = 64;
/// log2 of [`CHUNK`].
const CHUNK_LOG2: u32 = CHUNK.trailing_zeros();
/// Chunk pointers in directory segment 0 (stored inline, so the first
/// 1024 slots are two dependent loads away); segment `s` holds
/// `DIR_BASE << s` chunk pointers.
const DIR_BASE: usize = 16;
/// log2 of [`DIR_BASE`].
const DIR_BASE_LOG2: u32 = DIR_BASE.trailing_zeros();
/// Heap-allocated directory segments (segments `1..=DIR_SEGMENTS`). Total
/// capacity is `(2^(DIR_SEGMENTS + 1) - 1) * DIR_BASE` chunks, i.e.
/// `(2^51 - 1) * 1024` ≥ 2^60 slots: effectively unbounded (an index
/// beyond it panics).
const DIR_SEGMENTS: usize = 50;

/// One fixed-size block of 64 slots of a [`SegVec`].
///
/// Only ever seen behind the raw pointers that
/// [`SegVec::take_chunks_below`] hands back. Dropping a chunk drops every
/// value still installed in it.
pub struct Chunk<T> {
    slots: [AtomicPtr<T>; CHUNK],
    /// A chunk owns (and drops) its values, so it is `Send`/`Sync` only
    /// when `T` is.
    _marker: PhantomData<T>,
}

impl<T> Chunk<T> {
    fn new() -> Box<Self> {
        Box::new(Chunk {
            slots: [(); CHUNK].map(|()| AtomicPtr::new(ptr::null_mut())),
            _marker: PhantomData,
        })
    }
}

impl<T> fmt::Debug for Chunk<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Chunk { .. }")
    }
}

impl<T> Drop for Chunk<T> {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            let value = *slot.get_mut();
            if !value.is_null() {
                // SAFETY: installed values are owned by their chunk, and a
                // chunk is dropped only once no reader can reach it (at
                // `SegVec` drop, or by a releasing caller's deferred free).
                unsafe { drop(Box::from_raw(value)) };
            }
        }
    }
}

/// An unbounded, lock-free, **write-once** vector.
///
/// `SegVec<T>` models the paper's infinite `blocks` array: each index can be
/// installed at most once (CAS from empty) and is never overwritten by
/// `try_install`. Readers get `&T` references with no synchronisation
/// beyond a few atomic loads.
///
/// Storage is a sequence of chunks of 64 slots each, reached through a
/// directory of chunk pointers whose segments grow geometrically
/// (16, 32, 64, ... chunk pointers; the first segment is inline). `get` and
/// `try_install` are wait-free with O(1) work, and installing never moves
/// existing entries.
///
/// # Explicit unlinking
///
/// A caller that never unlinks gets the plain write-once contract: every
/// value and every chunk lives until the `SegVec` is dropped. A
/// *reclaiming* caller (the unbounded queue's epoch-based tree truncation)
/// can give storage back early, in two steps:
///
/// * [`SegVec::take_raw`] and [`SegVec::replace_raw`] unlink single
///   entries and hand back the raw pointer that was installed;
/// * [`SegVec::take_chunks_below`] unlinks every chunk lying wholly below
///   an index and hands back the raw chunk pointers. The chunk holding the
///   index itself always stays.
///
/// In both cases the caller owns what it gets back and must free it only
/// once no concurrent reader can still use it (e.g. through an epoch
/// guard's deferred destruction); until then, handed-out `&T` references
/// stay valid. A released index reads as empty. Unlinking records no
/// shared-memory step: it is maintenance work outside the algorithms' step
/// accounting (like [`SegVec::get_untracked`]).
///
/// # Examples
///
/// ```
/// use wfqueue_segvec::SegVec;
///
/// let v: SegVec<String> = SegVec::new();
/// assert!(v.get(3).is_none());
/// v.try_install(3, Box::new("hello".to_owned())).unwrap();
/// assert_eq!(v.get(3).map(String::as_str), Some("hello"));
/// ```
pub struct SegVec<T> {
    /// Directory segment 0: the pointers to chunks `0..DIR_BASE`, inline so
    /// that a fresh vector's first install allocates one chunk and nothing
    /// else.
    first: [AtomicPtr<Chunk<T>>; DIR_BASE],
    /// `directory[s - 1]` points to an array of `DIR_BASE << s` chunk
    /// pointers, or is null if that segment has not been allocated yet.
    /// Directory segments are freed only with the vector.
    directory: [AtomicPtr<AtomicPtr<Chunk<T>>>; DIR_SEGMENTS],
    /// Every chunk below this index has been handed back by
    /// [`SegVec::take_chunks_below`]; the next call resumes its scan here.
    released: AtomicUsize,
    _marker: PhantomData<T>,
}

// SAFETY: `SegVec` hands out `&T` to any thread and accepts `Box<T>` from
// any thread, so it is `Send`/`Sync` exactly when `T` is both.
unsafe impl<T: Send + Sync> Send for SegVec<T> {}
// SAFETY: see above.
unsafe impl<T: Send + Sync> Sync for SegVec<T> {}

/// Maps a chunk number to its `(directory segment, offset)`.
///
/// Segment `s` covers chunks `[(2^s - 1) * DIR_BASE, (2^(s+1) - 1) * DIR_BASE)`.
#[inline]
fn locate(chunk: usize) -> (usize, usize) {
    let d = (chunk >> DIR_BASE_LOG2) + 1;
    let seg = (usize::BITS - 1 - d.leading_zeros()) as usize;
    let seg_start = ((1usize << seg) - 1) << DIR_BASE_LOG2;
    (seg, chunk - seg_start)
}

impl<T> SegVec<T> {
    /// Creates an empty vector.
    ///
    /// # Examples
    ///
    /// ```
    /// let v: wfqueue_segvec::SegVec<u32> = wfqueue_segvec::SegVec::new();
    /// assert!(v.get(0).is_none());
    /// ```
    #[must_use]
    pub fn new() -> Self {
        SegVec {
            first: [(); DIR_BASE].map(|()| AtomicPtr::new(ptr::null_mut())),
            directory: [(); DIR_SEGMENTS].map(|()| AtomicPtr::new(ptr::null_mut())),
            released: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Returns the entry at `index`, or `None` if nothing has been installed
    /// there yet (or the index was released). Counts as one shared-memory
    /// step.
    ///
    /// # Examples
    ///
    /// ```
    /// let v: wfqueue_segvec::SegVec<u32> = wfqueue_segvec::SegVec::new();
    /// assert_eq!(v.get(3), None);
    /// v.try_install(3, Box::new(30)).unwrap();
    /// assert_eq!(v.get(3), Some(&30));
    /// ```
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&T> {
        metrics::record_shared_load();
        self.get_untracked(index)
    }

    /// [`SegVec::get`] without recording a shared-memory step.
    ///
    /// For *maintenance* readers that live outside the algorithms' step
    /// accounting (the unbounded queue's truncator is the motivating
    /// caller): recording their probes would attribute unbounded bursts of
    /// maintenance work to whichever operation happens to trigger it.
    /// Algorithm code paths must use [`SegVec::get`].
    #[must_use]
    #[inline]
    pub fn get_untracked(&self, index: usize) -> Option<&T> {
        let value = self.slot(index)?.load(Ordering::Acquire);
        if value.is_null() {
            None
        } else {
            // SAFETY: the pointee is freed either with its chunk or — after
            // an explicit `take_raw`/`replace_raw`/`take_chunks_below`
            // unlink — by a caller who contractually defers the free past
            // every outstanding reader, so the reference is valid for as
            // long as the caller can use it.
            Some(unsafe { &*value })
        }
    }

    /// Attempts to install `value` at `index` (a CAS from empty).
    ///
    /// On success returns a reference to the installed value. If another
    /// value was installed first, returns it together with the rejected box
    /// so the caller can reuse or drop it. Counts as one CAS step.
    ///
    /// # Examples
    ///
    /// ```
    /// let v = wfqueue_segvec::SegVec::new();
    /// assert!(v.try_install(0, Box::new(1)).is_ok());
    /// let (existing, rejected) = v.try_install(0, Box::new(2)).unwrap_err();
    /// assert_eq!((*existing, *rejected), (1, 2));
    /// ```
    pub fn try_install(&self, index: usize, value: Box<T>) -> Result<&T, (&T, Box<T>)> {
        let slot = self.slot_or_alloc(index);
        let raw = Box::into_raw(value);
        // ORDERING: SC publication CAS of the boxed value; readers'
        // SC loads then see the pointee fully initialised. SC (rather
        // than Release/Acquire) keeps the segvec layer uniform until
        // the ROADMAP relaxation pass.
        match slot.compare_exchange(ptr::null_mut(), raw, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                metrics::record_cas(true);
                // SAFETY: we just published `raw`; installed values are
                // freed only with their chunk or after a deferred unlink.
                Ok(unsafe { &*raw })
            }
            Err(existing) => {
                metrics::record_cas(false);
                // SAFETY: `raw` came from `Box::into_raw` above and was not
                // published (the CAS failed), so we uniquely own it again.
                let rejected = unsafe { Box::from_raw(raw) };
                // SAFETY: `existing` is non-null (CAS failed against a
                // non-null current value) and write-once.
                Err((unsafe { &*existing }, rejected))
            }
        }
    }

    /// Atomically unlinks the entry at `index`, returning the raw pointer
    /// that was installed there (`None` if the slot was empty or released).
    ///
    /// The pointee is **not** freed: ownership of the allocation passes to
    /// the caller, who must destroy it with `Box::from_raw` only once no
    /// concurrent reader can still hold a `&T` obtained from [`SegVec::get`]
    /// (e.g. via an epoch guard's deferred destruction). After the unlink,
    /// `get(index)` returns `None` and `try_install(index, ..)` could
    /// succeed again — callers that rely on write-once semantics must not
    /// reuse unlinked indices. Records no step (maintenance work).
    #[must_use]
    pub fn take_raw(&self, index: usize) -> Option<*mut T> {
        // ORDERING: SC swap — takes unique ownership of the boxed value
        // and synchronizes with its publication.
        let old = self.slot(index)?.swap(ptr::null_mut(), Ordering::SeqCst);
        if old.is_null() {
            None
        } else {
            Some(old)
        }
    }

    /// Atomically replaces the entry at `index` with `value`, returning the
    /// raw pointer that was installed before (`None` if the slot was empty —
    /// the new value is installed either way; a released index gets a
    /// fresh chunk).
    ///
    /// Ownership of the returned pointer passes to the caller under the same
    /// deferred-destruction contract as [`SegVec::take_raw`]. Concurrent
    /// readers observe either the old or the new entry. Records no step
    /// (maintenance work).
    #[must_use]
    pub fn replace_raw(&self, index: usize, value: Box<T>) -> Option<*mut T> {
        // ORDERING: SC swap — publishes the new box and takes unique
        // ownership of the old one in a single RMW.
        let old = self
            .slot_or_alloc(index)
            .swap(Box::into_raw(value), Ordering::SeqCst);
        if old.is_null() {
            None
        } else {
            Some(old)
        }
    }

    /// Unlinks every chunk lying wholly below `index` and hands back the
    /// raw chunk pointers. The chunk that holds `index` is never released.
    ///
    /// Ownership of each chunk passes to the caller under the
    /// deferred-destruction contract of [`SegVec::take_raw`]: a reader may
    /// still be inside a chunk it looked up before the unlink. Dropping a
    /// chunk drops any value still installed in it, so a caller that first
    /// [`take_raw`](SegVec::take_raw)s the values below `index` frees only
    /// the slot storage here. After the call, every index below the
    /// returned chunks reads as empty; as with `take_raw`, callers must not
    /// reuse released indices (writing one allocates a fresh chunk that is
    /// kept until the vector drops). Each chunk is handed back at most
    /// once, even to concurrent callers, and a call resumes where the
    /// previous one stopped, so its work is proportional to what it
    /// releases. Records no step (maintenance work).
    #[must_use]
    pub fn take_chunks_below(&self, index: usize) -> Vec<*mut Chunk<T>> {
        let end = index >> CHUNK_LOG2;
        let mut start = self.released.load(Ordering::Acquire);
        let mut taken = Vec::new();
        for chunk in start..end {
            if let Some(entry) = self.chunk_entry(chunk) {
                // The swap makes each hand-back unique, even when a racing
                // caller scans the same range.
                let old = entry.swap(ptr::null_mut(), Ordering::AcqRel);
                if !old.is_null() {
                    taken.push(old);
                }
            }
        }
        // Advance the watermark monotonically, so a racing caller with a
        // lower index never makes a later call rescan (and release a chunk
        // re-allocated below the watermark).
        while start < end {
            match self
                .released
                .compare_exchange(start, end, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(current) => start = current,
            }
        }
        taken
    }

    /// Bytes of slot storage the vector holds right now: its allocated
    /// directory segments plus every chunk still linked. Excludes the
    /// values themselves and the inline part of the struct. Reads only
    /// untracked atomics; exact at quiescence.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let linked = |entries: &[AtomicPtr<Chunk<T>>]| {
            let chunks = entries
                .iter()
                .filter(|e| !e.load(Ordering::Acquire).is_null())
                .count();
            chunks * size_of::<Chunk<T>>()
        };
        let mut bytes = linked(&self.first);
        for (i, dir) in self.directory.iter().enumerate() {
            let seg_ptr = dir.load(Ordering::Acquire);
            if !seg_ptr.is_null() {
                let len = DIR_BASE << (i + 1);
                // SAFETY: a published directory segment holds `len` chunk
                // pointers and is freed only in Drop.
                let entries = unsafe { &*ptr::slice_from_raw_parts(seg_ptr, len) };
                bytes += len * size_of::<AtomicPtr<Chunk<T>>>() + linked(entries);
            }
        }
        bytes
    }

    /// Allocates directory segment `seg >= 1` and publishes it in `dir`,
    /// returning the published segment. Losing allocators free their
    /// candidate.
    #[cold]
    fn link_dir_segment(
        dir: &AtomicPtr<AtomicPtr<Chunk<T>>>,
        seg: usize,
    ) -> *mut AtomicPtr<Chunk<T>> {
        let len = DIR_BASE << seg;
        let mut fresh: Vec<AtomicPtr<Chunk<T>>> = Vec::with_capacity(len);
        fresh.resize_with(len, || AtomicPtr::new(ptr::null_mut()));
        let raw = Box::into_raw(fresh.into_boxed_slice()).cast::<AtomicPtr<Chunk<T>>>();
        match dir.compare_exchange(ptr::null_mut(), raw, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => raw,
            Err(winner) => {
                // SAFETY: our candidate lost the race and was never
                // published; reconstitute the box to free it.
                unsafe { drop(Box::from_raw(ptr::slice_from_raw_parts_mut(raw, len))) };
                winner
            }
        }
    }

    /// The directory entry for `chunk`, or `None` if its directory segment
    /// has not been allocated.
    #[inline]
    fn chunk_entry(&self, chunk: usize) -> Option<&AtomicPtr<Chunk<T>>> {
        let (seg, off) = locate(chunk);
        let base = if seg == 0 {
            self.first.as_ptr()
        } else {
            let dir = self.directory[seg - 1].load(Ordering::Acquire);
            if dir.is_null() {
                return None;
            }
            dir.cast_const()
        };
        // SAFETY: `base` is directory segment `seg` (inline, or published
        // with Release and freed only in Drop), which holds
        // `DIR_BASE << seg` entries; `off < DIR_BASE << seg` by `locate`.
        Some(unsafe { &*base.add(off) })
    }

    /// [`Self::chunk_entry`], allocating the directory segment if needed.
    #[inline]
    fn chunk_entry_or_alloc(&self, chunk: usize) -> &AtomicPtr<Chunk<T>> {
        let (seg, off) = locate(chunk);
        let base = if seg == 0 {
            self.first.as_ptr()
        } else {
            let dir = &self.directory[seg - 1];
            let current = dir.load(Ordering::Acquire);
            if current.is_null() {
                Self::link_dir_segment(dir, seg)
            } else {
                current
            }
        };
        // SAFETY: as in `chunk_entry`.
        unsafe { &*base.add(off) }
    }

    /// The slot for `index`, or `None` if its chunk is not linked (never
    /// allocated, or released).
    #[inline]
    fn slot(&self, index: usize) -> Option<&AtomicPtr<T>> {
        let chunk = self
            .chunk_entry(index >> CHUNK_LOG2)?
            .load(Ordering::Acquire);
        if chunk.is_null() {
            return None;
        }
        // SAFETY: a linked chunk is freed either in Drop or — after
        // `take_chunks_below` — by a caller who defers the free past every
        // reader that could have loaded the pointer.
        Some(unsafe { &(*chunk).slots[index & (CHUNK - 1)] })
    }

    /// The slot for `index`, allocating and linking its chunk (and
    /// directory segment) if necessary. The allocation CASes are not
    /// recorded steps.
    #[inline]
    fn slot_or_alloc(&self, index: usize) -> &AtomicPtr<T> {
        let entry = self.chunk_entry_or_alloc(index >> CHUNK_LOG2);
        let mut chunk = entry.load(Ordering::Acquire);
        if chunk.is_null() {
            chunk = Self::link_chunk(entry);
        }
        // SAFETY: `chunk` is linked (see `slot`).
        unsafe { &(*chunk).slots[index & (CHUNK - 1)] }
    }

    /// Allocates a chunk and links it at `entry`, returning the linked
    /// chunk. Losing allocators free their candidate.
    #[cold]
    fn link_chunk(entry: &AtomicPtr<Chunk<T>>) -> *mut Chunk<T> {
        let raw = Box::into_raw(Chunk::new());
        match entry.compare_exchange(ptr::null_mut(), raw, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => raw,
            Err(winner) => {
                // SAFETY: our candidate lost the race and was never
                // published; it holds no values.
                unsafe { drop(Box::from_raw(raw)) };
                winner
            }
        }
    }

    /// Returns an iterator over installed entries in `0..len`, yielding
    /// `None` for empty slots. Intended for tests and introspection.
    ///
    /// # Examples
    ///
    /// ```
    /// let v: wfqueue_segvec::SegVec<u32> = wfqueue_segvec::SegVec::new();
    /// v.try_install(1, Box::new(10)).unwrap();
    /// let prefix: Vec<Option<&u32>> = v.iter_prefix(3).collect();
    /// assert_eq!(prefix, vec![None, Some(&10), None]);
    /// ```
    pub fn iter_prefix(&self, len: usize) -> impl Iterator<Item = Option<&T>> + '_ {
        (0..len).map(move |i| self.get(i))
    }
}

impl<T> Default for SegVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for SegVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show the installed prefix (stops at the first hole), which is the
        // meaningful contents under the queue's Invariant 3.
        let mut list = f.debug_list();
        let mut i = 0;
        while let Some(v) = self.get(i) {
            list.entry(v);
            i += 1;
            if i > 64 {
                break;
            }
        }
        list.finish()
    }
}

impl<T> Drop for SegVec<T> {
    fn drop(&mut self) {
        let free_chunks = |entries: &mut [AtomicPtr<Chunk<T>>]| {
            for entry in entries {
                let chunk = *entry.get_mut();
                if !chunk.is_null() {
                    // SAFETY: exclusive access (`&mut self`); a linked chunk
                    // came from `Box::into_raw` in `slot_or_alloc`.
                    unsafe { drop(Box::from_raw(chunk)) };
                }
            }
        };
        free_chunks(&mut self.first);
        for (i, dir) in self.directory.iter_mut().enumerate() {
            let seg_ptr = *dir.get_mut();
            if seg_ptr.is_null() {
                continue;
            }
            let len = DIR_BASE << (i + 1);
            // SAFETY: exclusive access (`&mut self`); the segment was
            // allocated by `chunk_entry_or_alloc` with exactly this length.
            let mut segment = unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(seg_ptr, len)) };
            free_chunks(&mut segment);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    struct CountDrop(Arc<AtomicUsize>);
    impl Drop for CountDrop {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Frees chunks handed back by `take_chunks_below` (tests have no
    /// concurrent readers, so immediate destruction is sound).
    fn free(chunks: Vec<*mut Chunk<u64>>) -> usize {
        let n = chunks.len();
        for c in chunks {
            // SAFETY: handed back exactly once; no readers in these tests.
            unsafe { drop(Box::from_raw(c)) };
        }
        n
    }

    /// Installs then `take_raw`s every index below `end`, as the queue's
    /// truncator does before releasing chunks.
    fn fill_and_take(v: &SegVec<u64>, end: usize) {
        for i in 0..end {
            v.try_install(i, Box::new(i as u64)).unwrap();
        }
        for i in 0..end {
            let raw = v.take_raw(i).expect("installed");
            // SAFETY: unlinked exactly once, no concurrent readers.
            drop(unsafe { Box::from_raw(raw) });
        }
    }

    #[test]
    fn locate_covers_consecutive_indices() {
        // Each chunk number maps to a unique (segment, offset) pair and the
        // segment boundaries line up with geometric growth.
        let mut last = (0usize, usize::MAX);
        for c in 0..100_000 {
            let (seg, off) = locate(c);
            assert!(off < DIR_BASE << seg, "offset in range at {c}");
            if seg == last.0 {
                assert_eq!(off, last.1.wrapping_add(1), "offsets consecutive at {c}");
            } else {
                assert_eq!(seg, last.0 + 1, "segments consecutive at {c}");
                assert_eq!(off, 0, "new segment starts at 0 at {c}");
            }
            last = (seg, off);
        }
    }

    #[test]
    fn locate_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(DIR_BASE - 1), (0, DIR_BASE - 1));
        assert_eq!(locate(DIR_BASE), (1, 0));
        assert_eq!(locate(3 * DIR_BASE - 1), (1, 2 * DIR_BASE - 1));
        assert_eq!(locate(3 * DIR_BASE), (2, 0));
        // The last heap segment ends at the documented capacity.
        let last_chunk = ((1usize << (DIR_SEGMENTS + 1)) - 1) * DIR_BASE - 1;
        assert_eq!(locate(last_chunk).0, DIR_SEGMENTS);
    }

    #[test]
    fn fresh_vector_allocates_one_chunk() {
        let v: SegVec<u64> = SegVec::new();
        assert_eq!(v.heap_bytes(), 0);
        v.try_install(0, Box::new(1)).unwrap();
        assert_eq!(v.heap_bytes(), CHUNK * size_of::<usize>());
    }

    #[test]
    fn get_empty_returns_none() {
        let v: SegVec<u64> = SegVec::new();
        assert!(v.get(0).is_none());
        assert!(v.get(12345).is_none());
    }

    #[test]
    fn install_then_get() {
        let v = SegVec::new();
        for i in (0..1000).rev() {
            v.try_install(i, Box::new(i as u64 * 3)).unwrap();
        }
        for i in 0..1000 {
            assert_eq!(v.get(i), Some(&(i as u64 * 3)));
        }
    }

    #[test]
    fn double_install_fails_and_returns_box() {
        let v = SegVec::new();
        v.try_install(7, Box::new("first")).unwrap();
        let (existing, rejected) = v.try_install(7, Box::new("second")).unwrap_err();
        assert_eq!(*existing, "first");
        assert_eq!(*rejected, "second");
        assert_eq!(v.get(7), Some(&"first"));
    }

    #[test]
    fn sparse_indices_across_segments() {
        let v = SegVec::new();
        for &i in &[0usize, 63, 64, 191, 192, 1000, 65_535, 1 << 20] {
            v.try_install(i, Box::new(i)).unwrap();
        }
        for &i in &[0usize, 63, 64, 191, 192, 1000, 65_535, 1 << 20] {
            assert_eq!(v.get(i), Some(&i));
        }
        assert!(v.get(1).is_none());
        assert!(v.get((1 << 20) - 1).is_none());
    }

    #[test]
    fn drop_frees_all_values() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let v = SegVec::new();
            for i in 0..500 {
                v.try_install(i, Box::new(CountDrop(Arc::clone(&drops))))
                    .ok();
            }
            // A lost race also drops its box exactly once.
            let _ = v.try_install(0, Box::new(CountDrop(Arc::clone(&drops))));
            assert_eq!(drops.load(Ordering::Relaxed), 1);
        }
        assert_eq!(drops.load(Ordering::Relaxed), 501);
    }

    #[test]
    fn concurrent_install_single_winner_per_slot() {
        let v: Arc<SegVec<usize>> = Arc::new(SegVec::new());
        let threads = 8;
        let slots = 256;
        let winners: Vec<_> = (0..threads)
            .map(|t| {
                let v = Arc::clone(&v);
                wfqueue_sync::thread::spawn(move || {
                    let mut won = 0;
                    for i in 0..slots {
                        if v.try_install(i, Box::new(t)).is_ok() {
                            won += 1;
                        }
                    }
                    won
                })
            })
            .collect();
        let total: usize = winners.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, slots, "exactly one install wins per slot");
        for i in 0..slots {
            assert!(v.get(i).is_some());
        }
    }

    #[test]
    fn take_raw_unlinks_and_hands_back_ownership() {
        let v: SegVec<u64> = SegVec::new();
        assert!(v.take_raw(5).is_none(), "empty slot yields nothing");
        v.try_install(5, Box::new(42)).unwrap();
        let raw = v.take_raw(5).expect("installed entry is returned");
        assert!(v.get(5).is_none(), "slot is empty after the unlink");
        assert!(v.take_raw(5).is_none(), "second take finds nothing");
        // SAFETY: `raw` came from `Box::into_raw` inside `try_install` and
        // was unlinked exactly once; no readers exist in this test.
        let owned = unsafe { Box::from_raw(raw) };
        assert_eq!(*owned, 42);
    }

    #[test]
    fn replace_raw_swaps_entries() {
        let v: SegVec<&str> = SegVec::new();
        assert!(
            v.replace_raw(3, Box::new("fresh")).is_none(),
            "replacing an empty slot installs and returns nothing"
        );
        assert_eq!(v.get(3), Some(&"fresh"));
        let old = v.replace_raw(3, Box::new("newer")).expect("old entry");
        assert_eq!(v.get(3), Some(&"newer"));
        // SAFETY: unlinked exactly once, no concurrent readers in this test.
        let owned = unsafe { Box::from_raw(old) };
        assert_eq!(*owned, "fresh");
    }

    #[test]
    fn take_chunks_below_frees_whole_chunks_only() {
        let v: SegVec<u64> = SegVec::new();
        // Twenty chunks, spanning the inline directory segment and the
        // first heap segment.
        let n = 20 * CHUNK;
        fill_and_take(&v, n);
        for i in n..n + 2 * CHUNK {
            v.try_install(i, Box::new(i as u64)).unwrap();
        }
        let full = v.heap_bytes();
        // An index inside chunk 0 releases nothing: chunk 0 holds it.
        assert_eq!(free(v.take_chunks_below(CHUNK - 1)), 0);
        // Exactly the chunks wholly below the index go, never its own.
        assert_eq!(free(v.take_chunks_below(3 * CHUNK + 5)), 3);
        assert_eq!(full - v.heap_bytes(), 3 * size_of::<Chunk<u64>>());
        // A chunk boundary index releases everything below it, across
        // directory segments; the chunk starting at the index stays.
        assert_eq!(free(v.take_chunks_below(18 * CHUNK)), 15);
        assert_eq!(free(v.take_chunks_below(18 * CHUNK)), 0, "released once");
        // A lower index than before releases nothing more.
        assert_eq!(free(v.take_chunks_below(2 * CHUNK)), 0);
        assert_eq!(full - v.heap_bytes(), 18 * size_of::<Chunk<u64>>());
        assert_eq!(v.get(n), Some(&(n as u64)));
        // Chunks that were never allocated are skipped, not invented.
        let sparse: SegVec<u64> = SegVec::new();
        sparse.try_install(40 * CHUNK, Box::new(1)).unwrap();
        assert_eq!(free(sparse.take_chunks_below(40 * CHUNK)), 0);
        assert_eq!(sparse.get(40 * CHUNK), Some(&1));
    }

    #[test]
    fn released_indices_read_empty_and_neighbours_are_intact() {
        let v: SegVec<u64> = SegVec::new();
        let boundary = 2 * CHUNK + 1;
        fill_and_take(&v, boundary);
        // The boundary slot and its chunk-mates stay installed.
        for i in boundary..4 * CHUNK {
            v.try_install(i, Box::new(i as u64)).unwrap();
        }
        let summary = v.replace_raw(boundary, Box::new(7)).expect("installed");
        // SAFETY: unlinked once, no concurrent readers.
        drop(unsafe { Box::from_raw(summary) });
        assert_eq!(free(v.take_chunks_below(boundary)), 2);
        // Released indices read as empty; `take_raw` finds nothing there.
        for i in [0, 1, CHUNK - 1, CHUNK, 2 * CHUNK - 1] {
            assert!(v.get(i).is_none(), "released index {i} reads empty");
            assert!(v.get_untracked(i).is_none());
            assert!(v.take_raw(i).is_none(), "nothing to take at {i}");
        }
        // The first index of the retained chunk (a taken slot) is empty,
        // the boundary and its upper neighbours are intact.
        assert!(v.get(2 * CHUNK).is_none());
        assert_eq!(v.get(boundary), Some(&7));
        assert_eq!(v.get(boundary + 1), Some(&(boundary as u64 + 1)));
        assert_eq!(v.get(3 * CHUNK), Some(&(3 * CHUNK as u64)));
        // `replace_raw` on a released index installs into a fresh chunk,
        // which the vector keeps until it drops.
        assert!(v.replace_raw(CHUNK + 3, Box::new(99)).is_none());
        assert_eq!(v.get(CHUNK + 3), Some(&99));
        assert!(v.get(CHUNK + 2).is_none());
        assert_eq!(free(v.take_chunks_below(boundary)), 0);
        assert_eq!(v.get(CHUNK + 3), Some(&99));
    }

    #[test]
    fn drop_after_partial_release_drops_each_value_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let released_chunks;
        {
            let v = SegVec::new();
            let n = 5 * CHUNK + 10;
            for i in 0..n {
                v.try_install(i, Box::new(CountDrop(Arc::clone(&drops))))
                    .ok();
            }
            // Take the values of the first two chunks, release those chunks.
            for i in 0..2 * CHUNK {
                let raw = v.take_raw(i).expect("installed");
                // SAFETY: unlinked exactly once, no concurrent readers.
                drop(unsafe { Box::from_raw(raw) });
            }
            let chunks = v.take_chunks_below(2 * CHUNK + 3);
            released_chunks = chunks.len();
            for c in chunks {
                // SAFETY: handed back exactly once, no concurrent readers.
                drop(unsafe { Box::from_raw(c) });
            }
            assert_eq!(drops.load(Ordering::Relaxed), 2 * CHUNK);
            // Installs after a release land in retained storage as usual.
            v.try_install(n, Box::new(CountDrop(Arc::clone(&drops))))
                .ok();
        }
        assert_eq!(released_chunks, 2);
        assert_eq!(drops.load(Ordering::Relaxed), 5 * CHUNK + 11);
    }

    #[test]
    fn releasing_a_chunk_drops_values_left_in_it() {
        let drops = Arc::new(AtomicUsize::new(0));
        let v = SegVec::new();
        for i in 0..CHUNK + 1 {
            v.try_install(i, Box::new(CountDrop(Arc::clone(&drops))))
                .ok();
        }
        let chunks = v.take_chunks_below(CHUNK);
        assert_eq!(chunks.len(), 1);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            0,
            "release frees nothing yet"
        );
        for c in chunks {
            // SAFETY: handed back exactly once, no concurrent readers.
            drop(unsafe { Box::from_raw(c) });
        }
        assert_eq!(drops.load(Ordering::Relaxed), CHUNK);
        drop(v);
        assert_eq!(drops.load(Ordering::Relaxed), CHUNK + 1);
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<X: Send + Sync>() {}
        assert_send_sync::<SegVec<u64>>();
    }

    #[test]
    fn debug_is_nonempty() {
        let v: SegVec<u8> = SegVec::new();
        assert_eq!(format!("{v:?}"), "[]");
        v.try_install(0, Box::new(9)).unwrap();
        assert_eq!(format!("{v:?}"), "[9]");
    }
}
