//! A3 — the persistent block store of the bounded queue.
//!
//! The paper's §6 stores each node's blocks in a persistent red–black tree
//! (worst-case balanced); this workspace uses a persistent vector with
//! implicit keys (`bounded/store.rs`: a fanout-16 trie plus an inline tail
//! of recent blocks per version), whose depth is at most ⌈log₁₆ n⌉ + 1.
//! This baseline runs the §6 queue on a 50/50 mix and records, per process
//! count, the amortized and worst single-operation steps, the deepest
//! block store and the live bytes per block. A single-threaded probe then
//! prices the append path: on a queue for `p` processes with one handle
//! and a 1,024-value prefill, five rounds of 1,024 enqueues are timed and
//! their allocations counted by a counting global allocator. Allocations
//! are per enqueue; nanoseconds are per block appended, over every node
//! the enqueues appended to (the leaf and each level up to the root), the
//! median round. So a change to the store has figures to beat.
//!
//! `--json` prints the rows as JSON with the core count (used by
//! `scripts/bench.sh a3_block_store` to record `BENCH_a3.json`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use wfqueue::bounded;
use wfqueue::bounded::introspect as bintro;
use wfqueue_bench::exp;
use wfqueue_harness::table::{f1, Table};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

thread_local! {
    // Per-thread, so the probe counts only the thread that runs it. A
    // `const` cell without a destructor stays usable at thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: every call forwards to `System` with the caller's layout; the
// counter is a thread-local cell and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The highest block index over all nodes, summed: with consecutive
/// indices, the difference between two readings is the blocks appended.
fn appended(q: &bounded::Queue<u64>) -> usize {
    bintro::dump(q)
        .iter()
        .filter_map(|node| node.blocks.last())
        .map(|b| b.index)
        .sum()
}

/// Allocations per enqueue and nanoseconds per block appended, for
/// single-threaded enqueues after a 1,024-value prefill: the median of
/// five rounds of 1,024, so that one preempted round does not set the
/// figure.
fn append_probe(p: usize) -> (f64, f64) {
    const OPS: u64 = 1_024;
    const ROUNDS: usize = 5;
    let q = bounded::Queue::new(p);
    let mut h = q.register().unwrap();
    for v in 0..OPS {
        h.enqueue(v);
    }
    let mut allocs_per_enqueue = 0.0;
    let mut ns_per_append = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let blocks_before = appended(&q);
        let allocs_before = allocs();
        let start = Instant::now();
        for v in 0..OPS {
            h.enqueue(std::hint::black_box(v));
        }
        let elapsed = start.elapsed();
        allocs_per_enqueue += (allocs() - allocs_before) as f64 / (OPS as f64 * ROUNDS as f64);
        let blocks = appended(&q) - blocks_before;
        ns_per_append.push(elapsed.as_nanos() as f64 / blocks as f64);
    }
    ns_per_append.sort_by(f64::total_cmp);
    (allocs_per_enqueue, ns_per_append[ROUNDS / 2])
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut rows = Vec::new();
    let mut table = Table::new(
        "A3: §6 block store (implicit-key persistent vector), 50/50 mix, q~256",
        &[
            "p",
            "steps/op",
            "max steps",
            "depth",
            "B/blk",
            "allocs/enq",
            "ns/append",
        ],
    );
    for &p in exp::p_sweep() {
        let spec = WorkloadSpec {
            threads: p,
            ops_per_thread: (20_000 / p).max(400),
            enqueue_permille: 500,
            prefill: 256,
            seed: 0xA3,
        };
        let q = bounded::Queue::new(p);
        let r = run_workload(&q, &spec);
        assert!(r.audits_ok());
        let max_steps = r
            .enqueue
            .steps_max
            .max(r.dequeue_hit.steps_max)
            .max(r.dequeue_null.steps_max);
        let stats = bintro::space_stats(&q);
        let depth = stats.max_tree_depth;
        let bytes = bintro::live_block_bytes(&q) as f64 / stats.total_blocks as f64;
        let (allocs_per_enqueue, ns_per_append) = append_probe(p);
        rows.push(format!(
            "    {{\"p\": {p}, \"steps\": {:.1}, \"max_steps\": {max_steps}, \"depth\": {depth}, \"bytes_per_block\": {bytes:.1}, \"allocs_per_enqueue\": {allocs_per_enqueue:.1}, \"ns_per_append\": {ns_per_append:.0}}}",
            r.steps_avg(),
        ));
        table.row_owned(vec![
            p.to_string(),
            f1(r.steps_avg()),
            max_steps.to_string(),
            depth.to_string(),
            f1(bytes),
            f1(allocs_per_enqueue),
            format!("{ns_per_append:.0}"),
        ]);
    }
    if json {
        // Hand-rolled JSON (no serde in the offline workspace).
        let cores = wfqueue_sync::thread::available_parallelism().map_or(1, usize::from);
        println!(
            "{{\n  \"experiment\": \"a3_block_store\",\n  \"cores\": {cores},\n  \"rows\": [\n{}\n  ]\n}}",
            rows.join(",\n")
        );
        return;
    }
    println!("{table}");
    println!(
        "expected shape: steps grow polylogarithmically in p; depth stays within\n\
         ⌈log16 n⌉ + 1 levels for the n live blocks of a node; an enqueue\n\
         allocates a version header per node it appends to, plus a leaf and a\n\
         path copy every 16th append.\n"
    );
}
