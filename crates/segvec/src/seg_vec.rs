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
/// Chunk pointers stored inline in the vector (chunks `0..INLINE`, i.e.
/// slots `0..1024`), so that a fresh vector's first install allocates one
/// chunk and nothing else.
const INLINE: usize = 16;
/// Chunk pointers per page: chunk `c >= INLINE` lives in page
/// `(c - INLINE) / PAGE`, which covers 4096 slots.
const PAGE: usize = 64;
/// log2 of [`PAGE`].
const PAGE_LOG2: u32 = PAGE.trailing_zeros();
/// Page pointers in page-table segment 0; segment `s` holds
/// `TABLE_BASE << s` page pointers.
const TABLE_BASE: usize = 8;
/// log2 of [`TABLE_BASE`].
const TABLE_BASE_LOG2: u32 = TABLE_BASE.trailing_zeros();
/// Page-table segments. Total capacity is `(2^TABLE_SEGMENTS - 1) *
/// TABLE_BASE` pages of 4096 slots, i.e. `(2^46 - 1) * 2^15` ≥ 2^60 slots:
/// effectively unbounded (an index beyond it panics).
const TABLE_SEGMENTS: usize = 46;

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

/// A fixed-size page of 64 chunk pointers (4096 slots) of a [`SegVec`].
///
/// Only ever seen behind the raw pointers that
/// [`SegVec::take_chunks_below`] hands back. Dropping a page drops every
/// chunk still linked in it.
pub struct Page<T> {
    chunks: [AtomicPtr<Chunk<T>>; PAGE],
    /// A page owns (and drops) its chunks and so their values, so it is
    /// `Send`/`Sync` only when `T` is.
    _marker: PhantomData<T>,
}

impl<T> Page<T> {
    fn new() -> Box<Self> {
        Box::new(Page {
            chunks: [(); PAGE].map(|()| AtomicPtr::new(ptr::null_mut())),
            _marker: PhantomData,
        })
    }

    /// Bytes of this page plus the chunks linked in it.
    fn heap_bytes(&self) -> usize {
        size_of::<Self>() + linked_chunk_bytes(&self.chunks)
    }
}

impl<T> fmt::Debug for Page<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Page { .. }")
    }
}

impl<T> Drop for Page<T> {
    fn drop(&mut self) {
        free_chunks(&mut self.chunks);
    }
}

/// Bytes of the chunks linked in `entries`.
fn linked_chunk_bytes<T>(entries: &[AtomicPtr<Chunk<T>>]) -> usize {
    let linked = entries
        .iter()
        .filter(|e| !e.load(Ordering::Acquire).is_null())
        .count();
    linked * size_of::<Chunk<T>>()
}

/// Frees the chunks linked in `entries` (exclusive access).
fn free_chunks<T>(entries: &mut [AtomicPtr<Chunk<T>>]) {
    for entry in entries {
        let chunk = *entry.get_mut();
        if !chunk.is_null() {
            // SAFETY: exclusive access (`&mut`); a linked chunk came from
            // `Box::into_raw` in `link_chunk` and was never handed back (a
            // hand-back nulls its entry first).
            unsafe { drop(Box::from_raw(chunk)) };
        }
    }
}

/// Slot storage that [`SegVec::take_chunks_below`] unlinked and handed
/// back to its caller.
///
/// The caller owns every pointer here and frees each one with
/// `Box::from_raw` exactly once, after every reader that could have looked
/// it up before the unlink is gone. A page is handed back whole, together
/// with the chunks still linked in it (dropping it drops them).
#[derive(Debug)]
pub struct Released<T> {
    /// Chunks unlinked on their own: those of the inline prefix, and those
    /// of a page that still holds chunks at or above the index.
    pub chunks: Vec<*mut Chunk<T>>,
    /// Pages whose chunks all lie below the index.
    pub pages: Vec<*mut Page<T>>,
}

/// An unbounded, lock-free, **write-once** vector.
///
/// `SegVec<T>` models the paper's infinite `blocks` array: each index can be
/// installed at most once (CAS from empty) and is never overwritten by
/// `try_install`. Readers get `&T` references with no synchronisation
/// beyond a few atomic loads.
///
/// Storage is a sequence of chunks of 64 slots each. The first 16 chunk
/// pointers are inline; above them, chunk pointers sit in fixed pages of 64
/// (4096 slots each), reached through a page table whose segments grow
/// geometrically (8, 16, 32, ... page pointers). `get` and `try_install`
/// are wait-free with O(1) work, and installing never moves existing
/// entries.
///
/// # Explicit unlinking
///
/// A caller that never unlinks gets the plain write-once contract: every
/// value, chunk and page lives until the `SegVec` is dropped. A
/// *reclaiming* caller (the unbounded queue's epoch-based tree truncation)
/// can give storage back early, in two steps:
///
/// * [`SegVec::take_raw`] and [`SegVec::replace_raw`] unlink single
///   entries and hand back the raw pointer that was installed;
/// * [`SegVec::take_chunks_below`] unlinks every chunk lying wholly below
///   an index, and every page whose chunks all do, and hands them back.
///   The chunk holding the index itself always stays.
///
/// In both cases the caller owns what it gets back and must free it only
/// once no concurrent reader can still use it (e.g. through an epoch
/// guard's deferred destruction); until then, handed-out `&T` references
/// stay valid. A released index reads as empty. Unlinking records no
/// shared-memory step: it is maintenance work outside the algorithms' step
/// accounting (like [`SegVec::get_untracked`]).
///
/// What a reclaiming caller cannot give back is the page table: it keeps
/// one 8-byte pointer per 4096 slots of history (rounded up to its
/// segments' doubling), 1/64 of a directory with one pointer per chunk.
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
    /// The pointers to chunks `0..INLINE`.
    first: [AtomicPtr<Chunk<T>>; INLINE],
    /// `table[s]` points to an array of `TABLE_BASE << s` page pointers, or
    /// is null if that segment has not been allocated yet. Table segments
    /// are freed only with the vector; the pages they point to may be
    /// handed back earlier.
    table: [AtomicPtr<AtomicPtr<Page<T>>>; TABLE_SEGMENTS],
    /// Every chunk below this index has been handed back by
    /// [`SegVec::take_chunks_below`] (alone or inside its page); the next
    /// call resumes its scan here.
    released: AtomicUsize,
    _marker: PhantomData<T>,
}

// SAFETY: `SegVec` hands out `&T` to any thread and accepts `Box<T>` from
// any thread, so it is `Send`/`Sync` exactly when `T` is both.
unsafe impl<T: Send + Sync> Send for SegVec<T> {}
// SAFETY: see above.
unsafe impl<T: Send + Sync> Sync for SegVec<T> {}

/// Maps a page number to its `(table segment, offset)`.
///
/// Segment `s` covers pages `[(2^s - 1) * TABLE_BASE, (2^(s+1) - 1) * TABLE_BASE)`.
#[inline]
fn locate(page: usize) -> (usize, usize) {
    let d = (page >> TABLE_BASE_LOG2) + 1;
    let seg = (usize::BITS - 1 - d.leading_zeros()) as usize;
    let seg_start = ((1usize << seg) - 1) << TABLE_BASE_LOG2;
    (seg, page - seg_start)
}

/// Maps a chunk number `>= INLINE` to its `(page, offset in the page)`.
#[inline]
fn page_of(chunk: usize) -> (usize, usize) {
    let paged = chunk - INLINE;
    (paged >> PAGE_LOG2, paged & (PAGE - 1))
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
            first: [(); INLINE].map(|()| AtomicPtr::new(ptr::null_mut())),
            table: [(); TABLE_SEGMENTS].map(|()| AtomicPtr::new(ptr::null_mut())),
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

    /// Unlinks every chunk lying wholly below `index`, and every page whose
    /// chunks all do, and hands them back. The chunk that holds `index` is
    /// never released, nor is the page that holds that chunk.
    ///
    /// Ownership of each chunk and page passes to the caller under the
    /// deferred-destruction contract of [`SegVec::take_raw`]: a reader may
    /// still be inside a chunk or page it looked up before the unlink.
    /// Dropping a chunk drops any value still installed in it, and dropping
    /// a page drops any chunk still linked in it, so a caller that first
    /// [`take_raw`](SegVec::take_raw)s the values below `index` frees only
    /// the slot storage here. After the call, every index below the
    /// returned storage reads as empty; as with `take_raw`, callers must
    /// not reuse released indices (writing one allocates a fresh chunk,
    /// and page if needed, that is kept until the vector drops). Each chunk
    /// and page is handed back at most once, even to concurrent callers,
    /// and a call resumes where the previous one stopped, so its work is
    /// proportional to what it releases. Records no step (maintenance
    /// work).
    #[must_use]
    pub fn take_chunks_below(&self, index: usize) -> Released<T> {
        let end = index >> CHUNK_LOG2;
        let mut start = self.released.load(Ordering::Acquire);
        let (mut chunks, mut pages) = (Vec::new(), Vec::new());
        // The swaps make each hand-back unique, even when a racing caller
        // scans the same range.
        let mut take_chunk = |entry: &AtomicPtr<Chunk<T>>| {
            let old = entry.swap(ptr::null_mut(), Ordering::AcqRel);
            if !old.is_null() {
                chunks.push(old);
            }
        };
        let mut chunk = start;
        while chunk < end {
            if chunk < INLINE {
                take_chunk(&self.first[chunk]);
                chunk += 1;
                continue;
            }
            let (page, off) = page_of(chunk);
            let page_end = chunk - off + PAGE;
            let Some(entry) = self.page_entry(page) else {
                // Table segment never allocated: nothing linked up to here.
                chunk = page_end;
                continue;
            };
            if page_end <= end {
                // The whole page lies below the index: hand it back with
                // whatever chunks are still linked in it.
                let old = entry.swap(ptr::null_mut(), Ordering::AcqRel);
                if !old.is_null() {
                    pages.push(old);
                }
                chunk = page_end;
            } else {
                let linked = entry.load(Ordering::Acquire);
                if !linked.is_null() {
                    // SAFETY: a linked page is freed either in Drop or —
                    // after a hand-back — by a caller who defers the free
                    // past every reader that could have loaded the pointer.
                    let page = unsafe { &*linked };
                    for entry in &page.chunks[off..off + (end - chunk)] {
                        take_chunk(entry);
                    }
                }
                chunk = end;
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
        Released { chunks, pages }
    }

    /// Bytes of slot storage the vector holds right now: its allocated
    /// page-table segments, every page still linked and every chunk still
    /// linked. Excludes the values themselves and the inline part of the
    /// struct. Reads only untracked atomics; exact at quiescence.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let mut bytes = linked_chunk_bytes(&self.first);
        for (s, seg) in self.table.iter().enumerate() {
            let seg_ptr = seg.load(Ordering::Acquire);
            if seg_ptr.is_null() {
                continue;
            }
            let len = TABLE_BASE << s;
            // SAFETY: a published table segment holds `len` page pointers
            // and is freed only in Drop.
            let entries = unsafe { &*ptr::slice_from_raw_parts(seg_ptr, len) };
            bytes += len * size_of::<AtomicPtr<Page<T>>>();
            for entry in entries {
                let page = entry.load(Ordering::Acquire);
                if !page.is_null() {
                    // SAFETY: as in `chunk_entry`.
                    bytes += unsafe { &*page }.heap_bytes();
                }
            }
        }
        bytes
    }

    /// Allocates table segment `seg` and publishes it in `slot`, returning
    /// the published segment. Losing allocators free their candidate.
    #[cold]
    fn link_table_segment(
        slot: &AtomicPtr<AtomicPtr<Page<T>>>,
        seg: usize,
    ) -> *mut AtomicPtr<Page<T>> {
        let len = TABLE_BASE << seg;
        let mut fresh: Vec<AtomicPtr<Page<T>>> = Vec::with_capacity(len);
        fresh.resize_with(len, || AtomicPtr::new(ptr::null_mut()));
        let raw = Box::into_raw(fresh.into_boxed_slice()).cast::<AtomicPtr<Page<T>>>();
        match slot.compare_exchange(ptr::null_mut(), raw, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => raw,
            Err(winner) => {
                // SAFETY: our candidate lost the race and was never
                // published; reconstitute the box to free it.
                unsafe { drop(Box::from_raw(ptr::slice_from_raw_parts_mut(raw, len))) };
                winner
            }
        }
    }

    /// The table entry for `page`, or `None` if its table segment has not
    /// been allocated.
    #[inline]
    fn page_entry(&self, page: usize) -> Option<&AtomicPtr<Page<T>>> {
        let (seg, off) = locate(page);
        let base = self.table[seg].load(Ordering::Acquire);
        if base.is_null() {
            return None;
        }
        // SAFETY: `base` is table segment `seg` (published with Release and
        // freed only in Drop), which holds `TABLE_BASE << seg` entries;
        // `off < TABLE_BASE << seg` by `locate`.
        Some(unsafe { &*base.add(off) })
    }

    /// [`Self::page_entry`], allocating the table segment if needed.
    #[inline]
    fn page_entry_or_alloc(&self, page: usize) -> &AtomicPtr<Page<T>> {
        let (seg, off) = locate(page);
        let slot = &self.table[seg];
        let mut base = slot.load(Ordering::Acquire);
        if base.is_null() {
            base = Self::link_table_segment(slot, seg);
        }
        // SAFETY: as in `page_entry`.
        unsafe { &*base.add(off) }
    }

    /// The entry for `chunk`, or `None` if its page is not linked (never
    /// allocated, or released).
    #[inline]
    fn chunk_entry(&self, chunk: usize) -> Option<&AtomicPtr<Chunk<T>>> {
        if chunk < INLINE {
            return Some(&self.first[chunk]);
        }
        let (page, off) = page_of(chunk);
        let page = self.page_entry(page)?.load(Ordering::Acquire);
        if page.is_null() {
            return None;
        }
        // SAFETY: a linked page is freed either in Drop or — after
        // `take_chunks_below` — by a caller who defers the free past every
        // reader that could have loaded the pointer.
        Some(unsafe { &(*page).chunks[off] })
    }

    /// [`Self::chunk_entry`], allocating the table segment and page if
    /// needed.
    #[inline]
    fn chunk_entry_or_alloc(&self, chunk: usize) -> &AtomicPtr<Chunk<T>> {
        if chunk < INLINE {
            return &self.first[chunk];
        }
        let (page, off) = page_of(chunk);
        let entry = self.page_entry_or_alloc(page);
        let mut page = entry.load(Ordering::Acquire);
        if page.is_null() {
            page = link(entry, Page::new());
        }
        // SAFETY: as in `chunk_entry`.
        unsafe { &(*page).chunks[off] }
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
        // SAFETY: a linked chunk is freed either with its page, in Drop, or
        // — after `take_chunks_below` — by a caller who defers the free past
        // every reader that could have loaded the pointer.
        Some(unsafe { &(*chunk).slots[index & (CHUNK - 1)] })
    }

    /// The slot for `index`, allocating and linking its chunk (and page and
    /// table segment) if necessary. The allocation CASes are not recorded
    /// steps.
    #[inline]
    fn slot_or_alloc(&self, index: usize) -> &AtomicPtr<T> {
        let entry = self.chunk_entry_or_alloc(index >> CHUNK_LOG2);
        let mut chunk = entry.load(Ordering::Acquire);
        if chunk.is_null() {
            chunk = link(entry, Chunk::new());
        }
        // SAFETY: `chunk` is linked (see `slot`).
        unsafe { &(*chunk).slots[index & (CHUNK - 1)] }
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

/// Links the empty `fresh` at `entry`, returning the linked pointer. A
/// losing allocator frees its candidate and returns the winner.
#[cold]
fn link<X>(entry: &AtomicPtr<X>, fresh: Box<X>) -> *mut X {
    let raw = Box::into_raw(fresh);
    match entry.compare_exchange(ptr::null_mut(), raw, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => raw,
        Err(winner) => {
            // SAFETY: our candidate lost the race and was never published;
            // it holds nothing.
            unsafe { drop(Box::from_raw(raw)) };
            winner
        }
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
        free_chunks(&mut self.first);
        for (s, seg) in self.table.iter_mut().enumerate() {
            let seg_ptr = *seg.get_mut();
            if seg_ptr.is_null() {
                continue;
            }
            let len = TABLE_BASE << s;
            // SAFETY: exclusive access (`&mut self`); the segment was
            // allocated by `link_table_segment` with exactly this length.
            let mut segment = unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(seg_ptr, len)) };
            for entry in segment.iter_mut() {
                let page = *entry.get_mut();
                if !page.is_null() {
                    // SAFETY: exclusive access; a linked page came from
                    // `Box::into_raw` in `link` and was never handed back.
                    unsafe { drop(Box::from_raw(page)) };
                }
            }
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

    /// Frees storage handed back by `take_chunks_below` (tests have no
    /// concurrent readers, so immediate destruction is sound) and returns
    /// how many chunks and pages it held.
    fn free<T>(released: Released<T>) -> (usize, usize) {
        let counts = (released.chunks.len(), released.pages.len());
        for c in released.chunks {
            // SAFETY: handed back exactly once; no readers in these tests.
            unsafe { drop(Box::from_raw(c)) };
        }
        for p in released.pages {
            // SAFETY: as above.
            unsafe { drop(Box::from_raw(p)) };
        }
        counts
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
        // Each page number maps to a unique (segment, offset) pair and the
        // segment boundaries line up with geometric growth.
        let mut last = (0usize, usize::MAX);
        for c in 0..100_000 {
            let (seg, off) = locate(c);
            assert!(off < TABLE_BASE << seg, "offset in range at {c}");
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
        assert_eq!(locate(TABLE_BASE - 1), (0, TABLE_BASE - 1));
        assert_eq!(locate(TABLE_BASE), (1, 0));
        assert_eq!(locate(3 * TABLE_BASE - 1), (1, 2 * TABLE_BASE - 1));
        assert_eq!(locate(3 * TABLE_BASE), (2, 0));
        // The last table segment ends at the documented capacity.
        let last_page = ((1usize << TABLE_SEGMENTS) - 1) * TABLE_BASE - 1;
        assert_eq!(locate(last_page).0, TABLE_SEGMENTS - 1);
        assert!((last_page + 1) * PAGE * CHUNK >= 1 << 60);
        // Pages start right above the inline chunks.
        assert_eq!(page_of(INLINE), (0, 0));
        assert_eq!(page_of(INLINE + PAGE - 1), (0, PAGE - 1));
        assert_eq!(page_of(INLINE + PAGE), (1, 0));
    }

    #[test]
    fn struct_stays_within_its_size_budget() {
        // Every node of the unbounded queue embeds one; the paged layout
        // must not make it larger than the directory layout it replaced,
        // 67 words (536 bytes). The struct is all atomics, so the budget
        // counts atomic words: under the model checker each facade atomic
        // carries an identity word as well.
        assert!(size_of::<SegVec<u64>>() <= 67 * size_of::<AtomicUsize>());
    }

    #[test]
    fn fresh_vector_allocates_one_chunk() {
        let v: SegVec<u64> = SegVec::new();
        assert_eq!(v.heap_bytes(), 0);
        v.try_install(0, Box::new(1)).unwrap();
        assert_eq!(v.heap_bytes(), size_of::<Chunk<u64>>());
        // The first slot above the inline chunks adds table segment 0, a
        // page and a chunk.
        v.try_install(INLINE * CHUNK, Box::new(2)).unwrap();
        assert_eq!(
            v.heap_bytes(),
            TABLE_BASE * size_of::<AtomicPtr<Page<u64>>>()
                + size_of::<Page<u64>>()
                + 2 * size_of::<Chunk<u64>>()
        );
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
        assert_eq!(free(v.take_chunks_below(CHUNK - 1)), (0, 0));
        // Exactly the chunks wholly below the index go, never its own.
        assert_eq!(free(v.take_chunks_below(3 * CHUNK + 5)), (3, 0));
        assert_eq!(full - v.heap_bytes(), 3 * size_of::<Chunk<u64>>());
        // A chunk boundary index releases everything below it, from the
        // inline chunks into the first page; the chunk starting at the
        // index stays, and so does its page.
        assert_eq!(free(v.take_chunks_below(18 * CHUNK)), (15, 0));
        assert_eq!(
            free(v.take_chunks_below(18 * CHUNK)),
            (0, 0),
            "released once"
        );
        // A lower index than before releases nothing more.
        assert_eq!(free(v.take_chunks_below(2 * CHUNK)), (0, 0));
        assert_eq!(full - v.heap_bytes(), 18 * size_of::<Chunk<u64>>());
        assert_eq!(v.get(n), Some(&(n as u64)));
        // Chunks that were never allocated are skipped, not invented.
        let sparse: SegVec<u64> = SegVec::new();
        sparse.try_install(40 * CHUNK, Box::new(1)).unwrap();
        assert_eq!(free(sparse.take_chunks_below(40 * CHUNK)), (0, 0));
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
        assert_eq!(free(v.take_chunks_below(boundary)), (2, 0));
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
        assert_eq!(free(v.take_chunks_below(boundary)), (0, 0));
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
            released_chunks = free(v.take_chunks_below(2 * CHUNK + 3)).0;
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
        let released = v.take_chunks_below(CHUNK);
        assert_eq!(released.chunks.len(), 1);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            0,
            "release frees nothing yet"
        );
        free(released);
        assert_eq!(drops.load(Ordering::Relaxed), CHUNK);
        drop(v);
        assert_eq!(drops.load(Ordering::Relaxed), CHUNK + 1);
    }

    #[test]
    fn take_chunks_below_hands_back_whole_pages() {
        let v: SegVec<u64> = SegVec::new();
        let page_slots = PAGE * CHUNK;
        let paged = INLINE * CHUNK;
        // The inline chunks, two full pages and five chunks of a third.
        let n = paged + 2 * page_slots + 5 * CHUNK;
        fill_and_take(&v, paged + 2 * page_slots);
        for i in paged + 2 * page_slots..n {
            v.try_install(i, Box::new(i as u64)).unwrap();
        }
        let full = v.heap_bytes();
        // Below a point three chunks into page 1: the inline chunks go one
        // by one, page 0 goes whole with its chunks, and page 1 stays but
        // gives back the three chunks below the index.
        let cut = paged + page_slots + 3 * CHUNK + 7;
        assert_eq!(free(v.take_chunks_below(cut)), (INLINE + 3, 1));
        let page_bytes = size_of::<Page<u64>>() + PAGE * size_of::<Chunk<u64>>();
        assert_eq!(
            full - v.heap_bytes(),
            (INLINE + 3) * size_of::<Chunk<u64>>() + page_bytes
        );
        assert!(v.get(paged).is_none() && v.get_untracked(cut - 1).is_none());
        // At the end of page 1 it goes whole, with the 61 chunks still in
        // it; the chunk starting at the index, in page 2, stays.
        let end = paged + 2 * page_slots;
        assert_eq!(free(v.take_chunks_below(end)), (0, 1));
        assert_eq!(free(v.take_chunks_below(end)), (0, 0), "released once");
        assert_eq!(
            full - v.heap_bytes(),
            (INLINE + 3) * size_of::<Chunk<u64>>() + 2 * page_bytes - 3 * size_of::<Chunk<u64>>()
        );
        assert_eq!(v.get(end), Some(&(end as u64)));
        assert_eq!(v.get(n - 1), Some(&(n as u64 - 1)));
        // Writing a released index links a fresh page and chunk, which the
        // vector keeps.
        assert!(v.replace_raw(paged + 1, Box::new(5)).is_none());
        assert_eq!(v.get(paged + 1), Some(&5));
        assert_eq!(free(v.take_chunks_below(end)), (0, 0));
        // Pages whose table segment was never allocated are skipped.
        let sparse: SegVec<u64> = SegVec::new();
        sparse.try_install(0, Box::new(0)).unwrap();
        assert_eq!(free(sparse.take_chunks_below(100 * page_slots)), (1, 0));
    }

    #[test]
    fn releasing_a_page_drops_chunks_and_values_left_in_it() {
        let drops = Arc::new(AtomicUsize::new(0));
        let v = SegVec::new();
        let end = (INLINE + PAGE) * CHUNK;
        // Values in page 0 only, never taken.
        for i in INLINE * CHUNK..end + 1 {
            v.try_install(i, Box::new(CountDrop(Arc::clone(&drops))))
                .ok();
        }
        let released = v.take_chunks_below(end);
        assert_eq!((released.chunks.len(), released.pages.len()), (0, 1));
        assert_eq!(
            drops.load(Ordering::Relaxed),
            0,
            "release frees nothing yet"
        );
        free(released);
        assert_eq!(drops.load(Ordering::Relaxed), PAGE * CHUNK);
        drop(v);
        assert_eq!(drops.load(Ordering::Relaxed), PAGE * CHUNK + 1);
    }

    #[test]
    fn sliding_window_keeps_heap_flat() {
        // The queue's pattern: install at the head, take the dead tail,
        // release the storage below it. Only the page table keeps growing,
        // by 8 B per 4096 slots: about 16 KiB after 2^22 installs, where a
        // directory with one pointer per chunk would hold 512 KiB. Miri
        // runs a shorter history of the same shape. The storage is all
        // atomic pointers, so the bound counts them: 4096 of them, 32 KiB
        // (under the model checker each carries an identity word as well).
        const WINDOW: usize = 1000;
        let bound = 4096 * size_of::<AtomicPtr<u64>>();
        let installs: usize = if cfg!(miri) { 1 << 14 } else { 1 << 22 };
        let v: SegVec<u64> = SegVec::new();
        let mut peak = 0;
        for i in 0..installs {
            v.try_install(i, Box::new(i as u64)).unwrap();
            let Some(dead) = i.checked_sub(WINDOW) else {
                continue;
            };
            // SAFETY: unlinked exactly once, no concurrent readers.
            drop(unsafe { Box::from_raw(v.take_raw(dead).expect("installed")) });
            if dead % CHUNK == 0 {
                free(v.take_chunks_below(dead));
            }
            if i % (PAGE * CHUNK) == 0 {
                peak = peak.max(v.heap_bytes());
            }
        }
        assert!(peak < bound, "slot storage grew to {peak} B");
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
