//! Heap cost of the §6 bounded queue's block store, measured by a counting
//! global allocator: allocations per enqueue, requested bytes per live
//! block, and how closely `introspect::live_block_bytes` matches them.
//!
//! Blocks live inline in the store (16 per trie leaf, plus one shared
//! payload per leaf block). An append copies only the version header with
//! its inline tail, one allocation, and every 16th moves the tail into the
//! trie as one leaf. Copying trie nodes on every append, or storing each
//! block behind its own `Arc`, breaks these bounds.
//!
//! The binary holds a single test, and counts only its own thread's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wfqueue::bounded::introspect as bintro;
use wfqueue::bounded::Queue;

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
fn block_store_heap_cost_per_enqueue_and_per_block() {
    // Allocations per single-threaded enqueue after a 1,024-value prefill,
    // averaged over 1,024 enqueues, so that every node's tail fills and
    // moves into its trie many times. Measured: 10.1.
    {
        let q: Queue<u64> = Queue::new(PROCESSES);
        let mut h = q.register().unwrap();
        for v in 0..1024 {
            h.enqueue(v);
        }
        let ops = 1024;
        let before = allocs();
        for v in 0..ops {
            h.enqueue(v);
        }
        let per_enqueue = (allocs() - before) as f64 / ops as f64;
        println!("allocations per enqueue: {per_enqueue:.1}");
        assert!(
            per_enqueue <= 12.0,
            "{per_enqueue:.1} allocations per enqueue"
        );
    }

    // Requested bytes per live block after two handles churn a queue of
    // ~1,024 values through several GC phases. Measured: 66.9.
    let base = live_bytes();
    let q: Queue<u64> = Queue::new(PROCESSES);
    let (mut producer, mut consumer) = (q.register().unwrap(), q.register().unwrap());
    for v in 0..1024 {
        producer.enqueue(v);
    }
    for v in 0..12_000 {
        producer.enqueue(v);
        assert!(consumer.dequeue().is_some());
    }
    let blocks = bintro::space_stats(&q).total_blocks;
    let bytes = live_bytes() - base;
    let per_block = bytes as f64 / blocks as f64;
    println!("{bytes} live bytes over {blocks} live blocks: {per_block:.1} B/block");
    assert!(blocks > 0);
    assert!(
        per_block <= 75.0,
        "{per_block:.1} requested bytes per live block"
    );
    // The introspection figure counts the store's real allocations (the
    // version headers with their tails, the trie nodes, the leaf
    // payloads), so it matches the allocator. Measured: 0.7% below.
    let reported = bintro::live_block_bytes(&q);
    println!("live_block_bytes reports {reported} B");
    let ratio = reported as f64 / bytes as f64;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "live_block_bytes {reported} B vs {bytes} B allocated"
    );
    bintro::check_invariants(&q).unwrap();
}
