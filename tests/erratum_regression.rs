//! Regression tests pinning the `IndexDequeue` **paper-erratum fix**.
//!
//! Figure 4 line 78 of the paper (and its Figure 5 twin) reads the subblock
//! interval end `endleft` of the superblock and indexes `v.blocks` with it.
//! But `endleft` indexes blocks of the parent's *left* child — for a right
//! child `v`, that is v's **sibling**, which is what the proof of Lemma 13
//! describes ("all of the subblocks of B′ from v's left sibling also
//! precede the required dequeue"). Our implementations index the sibling
//! (`crates/core/src/unbounded/search.rs`, the `!is_left` branch; same in
//! `bounded/search.rs`).
//!
//! A naive "match the pseudocode" refactor would index `v.blocks` again.
//! These tests are built so that such a refactor cannot survive them:
//!
//! * [`right_leaf_dequeues_after_long_left_history`] drives the left leaf's
//!   history far ahead of the right leaf's, so the (shared) `endleft` index
//!   is far beyond the right leaf's block count — naive indexing panics on
//!   a missing block or returns a garbage rank, and the exact-response
//!   assertions catch either.
//! * The adversarial-scheduler tests make superblocks aggregate several
//!   subblocks per child, so the sibling term `sib_end − sib_start` is
//!   frequently non-zero and a wrong term shifts dequeue responses —
//!   caught by the Wing–Gong checker and the workload audits.
//!
//! (Kept in its own integration-test binary because the adversary switch is
//! process-global.)

use std::collections::VecDeque;

use wfqueue::{bounded, unbounded};
use wfqueue_harness::lincheck;
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

/// Deterministic, sequential: the right-child leaf computes dequeue
/// responses while its sibling's block indices dwarf its own.
#[test]
fn right_leaf_dequeues_after_long_left_history() {
    let q: wfqueue::unbounded::Queue<u64> = wfqueue::unbounded::Queue::new(2);
    let mut handles = q.handles();
    let mut model: VecDeque<u64> = VecDeque::new();

    // pid 0 (left leaf): a long mixed history — several hundred blocks.
    for i in 0..300u64 {
        handles[0].enqueue(i);
        model.push_back(i);
        if i % 3 == 0 {
            assert_eq!(handles[0].dequeue(), model.pop_front());
        }
    }
    // pid 1 (right leaf): every dequeue walks the `!is_left` branch of
    // IndexDequeue with superblock interval ends in the hundreds, while the
    // right leaf holds only a handful of blocks.
    for i in 0..40u64 {
        handles[1].enqueue(1_000 + i);
        model.push_back(1_000 + i);
        assert_eq!(handles[1].dequeue(), model.pop_front(), "right-leaf op {i}");
    }
    wfqueue::unbounded::introspect::check_invariants(&q).unwrap();
}

/// Same shape on the bounded queue (which shares the erratum fix), with a
/// GC period small enough to exercise discard paths along the way.
#[test]
fn right_leaf_dequeues_after_long_left_history_bounded() {
    let q: wfqueue::bounded::Queue<u64> = wfqueue::bounded::Queue::with_gc_period(2, 8);
    let mut handles = q.handles();
    let mut model: VecDeque<u64> = VecDeque::new();
    for i in 0..300u64 {
        handles[0].enqueue(i);
        model.push_back(i);
        if i % 3 == 0 {
            assert_eq!(handles[0].dequeue(), model.pop_front());
        }
    }
    for i in 0..40u64 {
        handles[1].enqueue(1_000 + i);
        model.push_back(1_000 + i);
        assert_eq!(handles[1].dequeue(), model.pop_front(), "right-leaf op {i}");
    }
    wfqueue::bounded::introspect::check_invariants(&q).unwrap();
}

/// A deeper tree: right children exist at internal levels too, where the
/// sibling is an internal node with its own block numbering.
#[test]
fn deep_tree_right_path_dequeues() {
    let q: wfqueue::unbounded::Queue<u64> = wfqueue::unbounded::Queue::new(8);
    let mut handles = q.handles();
    let mut model: VecDeque<u64> = VecDeque::new();
    // Skew history towards low pids (left subtrees), then dequeue from the
    // highest pid (the rightmost leaf: right child at every level).
    for i in 0..200u64 {
        handles[(i % 3) as usize].enqueue(i);
        model.push_back(i);
    }
    for i in 0..150u64 {
        assert_eq!(handles[7].dequeue(), model.pop_front(), "rightmost op {i}");
    }
    wfqueue::unbounded::introspect::check_invariants(&q).unwrap();
}

/// Under the adversarial scheduler, Refresh constantly loses CASes, so
/// superblocks aggregate several subblocks per child and the sibling term
/// of IndexDequeue is frequently non-zero. Small scopes + Wing–Gong verify
/// every dequeue response is linearizable.
#[test]
fn adversarial_small_scope_linearizability() {
    wfqueue_metrics::set_adversary(true);
    let result = (|| {
        for round in 0..40u64 {
            let q = unbounded::Queue::new(4);
            let h = lincheck::record_history(&q, 4, 4, 350, round * 13 + 1);
            lincheck::check_linearizable(&h)
                .map_err(|e| format!("unbounded round {round}: {e}"))?;

            let q = bounded::Queue::with_gc_period(4, 4);
            let h = lincheck::record_history(&q, 4, 4, 350, round * 17 + 5);
            lincheck::check_linearizable(&h).map_err(|e| format!("bounded round {round}: {e}"))?;
        }
        Ok::<(), String>(())
    })();
    wfqueue_metrics::set_adversary(false);
    result.unwrap();
}

/// Dequeue-heavy adversarial stress: responses audited for per-producer
/// FIFO and no duplication; wrong sibling ranks would surface as duplicated
/// or reordered values.
#[test]
fn adversarial_dequeue_heavy_audits() {
    wfqueue_metrics::set_adversary(true);
    for threads in [2usize, 4, 8] {
        let spec = WorkloadSpec {
            threads,
            ops_per_thread: 1_000,
            enqueue_permille: 350,
            prefill: 128,
            seed: 0xE88 + threads as u64,
        };
        let q = unbounded::Queue::new(threads);
        let r = run_workload(&q, &spec);
        assert!(r.audits_ok(), "wf-unbounded p={threads}: {r:?}");
        wfqueue::unbounded::introspect::check_invariants(&q).unwrap();
    }
    wfqueue_metrics::set_adversary(false);
}
