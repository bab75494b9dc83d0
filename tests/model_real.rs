//! Model-checks the shipped §3 queue itself, not a replica of it
//! (`cargo test --features model`).
//!
//! `tests/model.rs` explores hand-written replicas of single protocols.
//! This file hands the real `wfqueue::unbounded::Queue` to the same
//! interleaving explorer: every facade atomic it touches — `head`, the
//! `super` words, the slot CASes of the block arrays, the handle counter —
//! is a modeled location, so the run covers Propagate's double Refresh
//! (Lemma 10), `Advance` and the searches as they ship. Atomics keep their
//! modeled identity when they move (`wfqueue_sync::atomic`), which is what
//! lets a queue built on the stack and then moved into place run here.
//!
//! The queue is built with `Queue::new`, so reclamation is off: the epoch
//! shim's pins and its process-wide lock stay outside the model.
//!
//! The preemption bound is pinned. The per-push run explores bound 1; a
//! run that raises `MODEL_PREEMPTION_BOUND` (the weekly job asks for 3)
//! gets bound 2, because the schedule count grows steeply with the bound
//! (bound 2 visits ~23k schedules in ~9 s of release time, and bound 3
//! would exceed `max_schedules`). Run with `--nocapture` to see the
//! schedule counts.

#![cfg(feature = "model")]

use std::sync::Arc;

use wfqueue::unbounded::{introspect, Queue};
use wfqueue_sync::model::{explore, spawn, Options};

/// The preemption bound for this file: 1, or 2 when the environment asks
/// for a deeper run (see the module docs).
fn opts() -> Options {
    let raised = std::env::var_os("MODEL_PREEMPTION_BOUND").is_some();
    Options {
        preemption_bound: if raised { 2 } else { 1 },
        ..Options::default()
    }
}

/// Two processes each enqueue one value and then dequeue once. Each
/// dequeue follows its own process's enqueue, so in every linearization
/// the queue is non-empty at both dequeues: together they must return
/// both values, in either order, and leave the queue empty with every
/// structural invariant intact.
#[test]
fn unbounded_two_processes_enqueue_then_dequeue() {
    let r = explore(opts(), || {
        let q = Arc::new(Queue::<u64>::new(2));
        let q2 = Arc::clone(&q);
        let other = spawn(move || {
            let mut h = q2.register().expect("two handles");
            h.enqueue(2);
            h.dequeue()
        });
        let mut h = q.register().expect("two handles");
        h.enqueue(1);
        let mine = h.dequeue();
        let theirs = other.join();
        let mut got = [mine, theirs];
        got.sort_unstable();
        assert_eq!(
            got,
            [Some(1), Some(2)],
            "dequeues lost or duplicated a value"
        );
        assert_eq!(q.approx_len(), 0);
        introspect::check_invariants(&q).expect("invariants hold at quiescence");
    });
    assert!(
        r.complete,
        "exhaustive phase was cut short at {} schedules",
        r.exhaustive_schedules
    );
    assert!(r.exhaustive_schedules > 1, "the scenario never branched");
    println!(
        "unbounded p=2 enqueue+dequeue: exhaustive {} schedules (complete) + {} random",
        r.exhaustive_schedules, r.random_schedules
    );
}
