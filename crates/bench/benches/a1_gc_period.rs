//! Ablation A1 — the GC period `G`.
//!
//! The paper fixes `G = p²⌈log₂ p⌉` so that a GC phase's
//! `O(p² log p log(p+q))` total cost amortizes to `O(log p log(p+q))` per
//! operation (§B.2). This ablation sweeps `G` and reports both sides of the
//! trade-off: amortized steps per operation (falls as G grows — fewer help
//! phases) and live-block space (rises as G grows — more garbage retained),
//! with the paper's choice marked.
//!
//! A second sweep prices `bounded::Queue::new`'s period, which follows the
//! handles registered so far: a `p = 32` budget (the channel's 16 + 16
//! endpoints) with `r ∈ {1, 2, 6, 32}` handles registered, under the old
//! fixed period `G(32) = 5,120` and under `G(r) = min(max(r, 2), p)²⌈log₂ p⌉`.
//! It drives the `r` handles round-robin from one thread with a seeded
//! 50/50 mix over a 1,024-value prefill, so its numbers are deterministic,
//! and counts that thread's allocations with a counting global allocator.
//!
//! `--json` prints both sweeps as JSON with the core count (used by
//! `scripts/bench_a1.sh` to record `BENCH_a1.json`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wfqueue::bounded::{introspect, Queue};
use wfqueue_harness::table::{f1, Table};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

thread_local! {
    // Per-thread, so the sweep counts only the thread that runs it. A
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

/// One registered-sweep run: the period in force, steps and allocations
/// per operation, and live blocks (total, largest node) at the end.
struct Run {
    period: usize,
    steps_per_op: f64,
    allocs_per_op: f64,
    live_blocks: usize,
    max_node_blocks: usize,
}

/// Registers `r` handles on `q`, prefills 1,024 values, and runs `ops`
/// operations round-robin over the handles, each an enqueue or a dequeue
/// with probability ½ from a seeded xorshift.
fn churn(q: &Queue<u64>, r: usize, ops: u64) -> Run {
    let mut handles: Vec<_> = (0..r).map(|_| q.register().unwrap()).collect();
    for v in 0..1_024u64 {
        handles[v as usize % r].enqueue(v);
    }
    let mut x = 0xA1B_u64;
    let before = allocs();
    let ((), steps) = wfqueue_metrics::measure(|| {
        for i in 0..ops {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let h = &mut handles[i as usize % r];
            if x & 1 == 0 {
                h.enqueue(i);
            } else {
                let _ = h.dequeue();
            }
        }
    });
    let allocs = allocs() - before;
    let stats = introspect::space_stats(q);
    introspect::check_invariants(q).unwrap();
    Run {
        period: q.gc_period(),
        steps_per_op: steps.memory_steps() as f64 / ops as f64,
        allocs_per_op: allocs as f64 / ops as f64,
        live_blocks: stats.total_blocks,
        max_node_blocks: stats.max_node_blocks,
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    let p = 4usize;
    let paper_g = p * p * 2; // p² ⌈log₂ p⌉ for p = 4
    let mut table = Table::new(
        "A1: GC period ablation (p=4, q~64): amortized cost vs retained space",
        &[
            "G",
            "steps/op",
            "gc phases",
            "helps",
            "live blocks",
            "max/node",
        ],
    );
    let mut g_rows = Vec::new();
    for g in [1usize, 4, 16, paper_g, 128, 1024, 16_384] {
        let q = Queue::with_gc_period(p, g);
        let spec = WorkloadSpec {
            threads: p,
            ops_per_thread: 8_000,
            enqueue_permille: 500,
            prefill: 64,
            seed: 0xA1,
        };
        let r = run_workload(&q, &spec);
        assert!(r.audits_ok(), "audits failed at G={g}");
        let gc = r.enqueue.gc_phases + r.dequeue_hit.gc_phases + r.dequeue_null.gc_phases;
        let helps = r.enqueue.help_calls + r.dequeue_hit.help_calls + r.dequeue_null.help_calls;
        let stats = introspect::space_stats(&q);
        let label = if g == paper_g {
            format!("{g} (paper)")
        } else {
            g.to_string()
        };
        g_rows.push(format!(
            "    {{\"G\": {g}, \"steps_per_op\": {:.1}, \"gc_phases\": {gc}, \"helps\": {helps}, \
             \"live_blocks\": {}, \"max_node_blocks\": {}}}",
            r.steps_avg(),
            stats.total_blocks,
            stats.max_node_blocks,
        ));
        table.row_owned(vec![
            label,
            f1(r.steps_avg()),
            gc.to_string(),
            helps.to_string(),
            stats.total_blocks.to_string(),
            stats.max_node_blocks.to_string(),
        ]);
    }

    // The registered-handle period at a 32-process budget.
    let budget = 32usize;
    let mut registered = Table::new(
        "A1b: fixed G(32) vs G(r) for r registered of a p=32 budget (q~1024)",
        &[
            "r",
            "period",
            "G",
            "steps/op",
            "allocs/op",
            "live blocks",
            "max/node",
        ],
    );
    let mut r_rows = Vec::new();
    for r in [1usize, 2, 6, 32] {
        let fixed: Queue<u64> = Queue::with_gc_period(budget, budget * budget * 5);
        let follows: Queue<u64> = Queue::new(budget);
        for (name, q) in [("fixed", &fixed), ("registered", &follows)] {
            let run = churn(q, r, 24_000);
            r_rows.push(format!(
                "    {{\"r\": {r}, \"period\": \"{name}\", \"G\": {}, \"steps_per_op\": {:.1}, \
                 \"allocs_per_op\": {:.1}, \"live_blocks\": {}, \"max_node_blocks\": {}}}",
                run.period,
                run.steps_per_op,
                run.allocs_per_op,
                run.live_blocks,
                run.max_node_blocks,
            ));
            registered.row_owned(vec![
                r.to_string(),
                name.to_string(),
                run.period.to_string(),
                f1(run.steps_per_op),
                f1(run.allocs_per_op),
                run.live_blocks.to_string(),
                run.max_node_blocks.to_string(),
            ]);
        }
    }

    if json {
        // Hand-rolled JSON (no serde in the offline workspace).
        let cores = wfqueue_sync::thread::available_parallelism().map_or(1, usize::from);
        println!(
            "{{\n  \"experiment\": \"a1_gc_period\",\n  \"cores\": {cores},\n  \
             \"g_sweep\": [\n{}\n  ],\n  \"registered_sweep\": [\n{}\n  ]\n}}",
            g_rows.join(",\n"),
            r_rows.join(",\n")
        );
        return;
    }
    println!("{table}");
    println!(
        "expected shape: steps/op falls and flattens as G grows (GC cost amortizes away);\n\
         live blocks grow ~linearly with G (garbage retained between phases). The paper's\n\
         G sits on the flat part of the cost curve at polynomial space.\n"
    );
    println!("{registered}");
    println!(
        "expected shape: with r < p registered, G(r) keeps a backlog sized by r instead of\n\
         the budget, so live blocks and max/node fall well below the fixed G(32) rows, and\n\
         steps/op move both ways (more phases, smaller trees to search); at r = p both rows\n\
         run the same period and the registered row pays one load per AddBlock.\n"
    );
}
