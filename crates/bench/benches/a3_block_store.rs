//! A3 — the persistent block store of the bounded queue.
//!
//! The paper's §6 stores each node's blocks in a persistent red–black tree
//! (worst-case balanced); this workspace uses a persistent treap whose
//! depth is logarithmic only in expectation. This baseline runs the §6
//! queue on a 50/50 mix and records, per process count, the amortized and
//! worst single-operation steps, the deepest block tree and the live bytes
//! per block (blocks live inline in the treap's nodes), so a change to the
//! store has a figure to beat.
//!
//! `--json` prints the rows as JSON (used by `scripts/bench_a3.sh` to
//! record `BENCH_a3.json`).

use wfqueue::bounded;
use wfqueue::bounded::introspect as bintro;
use wfqueue_bench::exp;
use wfqueue_harness::table::{f1, Table};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut rows = Vec::new();
    let mut table = Table::new(
        "A3: §6 block store (persistent treap), 50/50 mix, q~256",
        &["p", "steps/op", "max steps", "depth", "B/blk"],
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
        rows.push(format!(
            "    {{\"p\": {p}, \"steps\": {:.1}, \"max_steps\": {max_steps}, \"depth\": {depth}, \"bytes_per_block\": {bytes:.1}}}",
            r.steps_avg(),
        ));
        table.row_owned(vec![
            p.to_string(),
            f1(r.steps_avg()),
            max_steps.to_string(),
            depth.to_string(),
            f1(bytes),
        ]);
    }
    if json {
        // Hand-rolled JSON (no serde in the offline workspace).
        println!(
            "{{\n  \"experiment\": \"a3_block_store\",\n  \"rows\": [\n{}\n  ]\n}}",
            rows.join(",\n")
        );
        return;
    }
    println!("{table}");
    println!(
        "expected shape: steps grow polylogarithmically in p; depth stays within\n\
         a small multiple of log2 of the live blocks per node (the treap's\n\
         expected bound, not the paper's red–black worst case).\n"
    );
}
