//! Heap cost of the §3 unbounded queue's blocks, measured by a counting
//! global allocator: allocations per enqueue, and requested bytes per live
//! block once truncation has cut the dead prefix.
//!
//! Every operation leaves one boxed block per tree level, so the block's
//! size is the unit the whole §3 heap is counted in. A block is four prefix
//! and interval words, one word shared by the root's `size` and the
//! `super` hint below the root, and a boxed-slice payload: 56 bytes. A
//! layout that gives `size` and `super` a word each, or that stores the
//! payload in a `Vec`, breaks the per-block bound.
//!
//! The binary holds a single test, and counts only its own thread's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wfqueue::unbounded::{introspect, Queue, ReclaimPolicy};

thread_local! {
    // Per-thread counters: the test is single-threaded, so the harness's
    // own threads stay out of them. `const` cells without a destructor
    // stay usable while the thread tears down.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count(allocs: usize, bytes: isize) {
    ALLOCS.with(|a| a.set(a.get() + allocs));
    LIVE_BYTES.with(|b| b.set(b.get() + bytes));
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's layout; the
// counters are thread-local cells and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as isize));
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as isize - layout.size() as isize);
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The channel's default endpoint budget: 16 senders + 16 receivers.
const PROCESSES: usize = 32;

#[test]
fn block_heap_cost_per_enqueue_and_per_block() {
    let base = live_bytes();
    let q: Queue<u64> = Queue::with_reclaim(PROCESSES, ReclaimPolicy::EveryKRootBlocks(64));
    let (mut producer, mut consumer) = (q.register().unwrap(), q.register().unwrap());
    for v in 0..1024 {
        producer.enqueue(v);
    }

    // Allocations per enqueue while two handles churn the queue: a leaf
    // block and its one-value payload, one block per level above the leaf,
    // and the slot chunks and truncation work amortised over the run.
    let pairs = 12_000;
    let before = allocs();
    let mut dequeue_allocs = 0;
    for v in 0..pairs {
        producer.enqueue(v);
        let mid = allocs();
        assert!(consumer.dequeue().is_some());
        dequeue_allocs += allocs() - mid;
    }
    let per_enqueue = (allocs() - before - dequeue_allocs) as f64 / pairs as f64;
    println!("allocations per enqueue: {per_enqueue:.2}");
    assert!(
        per_enqueue <= 8.0,
        "{per_enqueue:.2} allocations per enqueue"
    );

    // Requested bytes per live block at quiescence, after one forced
    // truncation pass: the blocks, their payloads and the slot storage of
    // a queue of ~1,024 values.
    q.try_reclaim();
    let blocks = introspect::total_blocks(&q);
    let bytes = live_bytes() - base;
    let per_block = bytes as f64 / blocks as f64;
    println!("{bytes} live bytes over {blocks} live blocks: {per_block:.1} B/block");
    assert!(blocks > 0);
    assert!(
        per_block <= 80.0,
        "{per_block:.1} requested bytes per live block"
    );
    introspect::check_invariants(&q).unwrap();
}
