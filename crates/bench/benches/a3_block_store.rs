//! Ablation A3 — the persistent block store of the bounded queue.
//!
//! The paper uses a persistent red–black tree (worst-case balanced); this
//! workspace offers two interchangeable stores behind the same interface:
//! a treap (randomized, expected O(log n)) and an AVL tree (worst-case
//! O(log n)). This ablation runs the same workload on both and compares
//! amortized steps, worst single operation, tree depths and live bytes per
//! block — checking that the queue's behaviour is store-independent and
//! quantifying the constant-factor difference. Blocks live inline in either
//! store's tree nodes, so the bytes per block differ only by the node
//! layout (the AVL node adds a height).
//!
//! `--json` prints the rows as JSON (used by `scripts/bench_a3.sh` to
//! record `BENCH_a3.json`).

use wfqueue::bounded::introspect as bintro;
use wfqueue::bounded::{Queue, StoreFamily};
use wfqueue_bench::exp;
use wfqueue_harness::queue_api::{WfBounded, WfBoundedAvl};
use wfqueue_harness::table::{f1, Table};
use wfqueue_harness::workload::{run_workload, RunReport, WorkloadSpec};

fn max_steps(r: &RunReport) -> u64 {
    r.enqueue
        .steps_max
        .max(r.dequeue_hit.steps_max)
        .max(r.dequeue_null.steps_max)
}

/// Tree depth and live bytes per block of a quiescent queue.
fn depth_and_bytes<F: StoreFamily>(q: &Queue<u64, F>) -> (usize, f64) {
    let stats = bintro::space_stats(q);
    let bytes = bintro::live_block_bytes(q) as f64 / stats.total_blocks as f64;
    (stats.max_tree_depth, bytes)
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut rows = Vec::new();
    let mut table = Table::new(
        "A3: block store ablation (treap vs AVL), 50/50 mix, q~256",
        &[
            "p",
            "treap steps",
            "treap max",
            "treap depth",
            "treap B/blk",
            "avl steps",
            "avl max",
            "avl depth",
            "avl B/blk",
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
        let qt = WfBounded::new(p);
        let rt = run_workload(&qt, &spec);
        assert!(rt.audits_ok());
        let (dt, bt) = depth_and_bytes(&qt.0);
        let qa = WfBoundedAvl::new(p);
        let ra = run_workload(&qa, &spec);
        assert!(ra.audits_ok());
        let (da, ba) = depth_and_bytes(&qa.0);
        rows.push(format!(
            "    {{\"p\": {p}, \"treap\": {{\"steps\": {:.1}, \"max_steps\": {}, \"depth\": {dt}, \"bytes_per_block\": {bt:.1}}}, \
             \"avl\": {{\"steps\": {:.1}, \"max_steps\": {}, \"depth\": {da}, \"bytes_per_block\": {ba:.1}}}}}",
            rt.steps_avg(),
            max_steps(&rt),
            ra.steps_avg(),
            max_steps(&ra),
        ));
        table.row_owned(vec![
            p.to_string(),
            f1(rt.steps_avg()),
            max_steps(&rt).to_string(),
            dt.to_string(),
            f1(bt),
            f1(ra.steps_avg()),
            max_steps(&ra).to_string(),
            da.to_string(),
            f1(ba),
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
        "expected shape: both stores give the same polylog scaling; AVL depths are\n\
         smaller and deterministic (worst-case balance, matching the paper's RBT),\n\
         treap depths are slightly larger but within the expected-log envelope.\n"
    );
}
