//! Small-scope linearizability checking of complete concurrent histories
//! (Theorem 18 of the paper: the queue implementation is linearizable).
//!
//! Histories of 2–4 threads × 3–5 operations are recorded with a global
//! logical clock and exhaustively checked against the sequential FIFO
//! specification. Many seeded rounds are run per configuration; this is the
//! small-scope regime in which queue linearizability bugs are historically
//! found.

use wfqueue::{bounded, unbounded};
use wfqueue_harness::lincheck::check_rounds;
use wfqueue_harness::queue_api::{CoarseMutex, Ms};
use wfqueue_ring::Ring;

#[test]
fn wf_unbounded_two_threads() {
    check_rounds(|| unbounded::Queue::new(2), 2, 5, 60).unwrap();
}

#[test]
fn wf_unbounded_three_threads() {
    check_rounds(|| unbounded::Queue::new(3), 3, 4, 40).unwrap();
}

#[test]
fn wf_unbounded_four_threads() {
    check_rounds(|| unbounded::Queue::new(4), 4, 3, 30).unwrap();
}

#[test]
fn wf_bounded_two_threads_default_gc() {
    check_rounds(|| bounded::Queue::new(2), 2, 5, 60).unwrap();
}

#[test]
fn wf_bounded_three_threads_aggressive_gc() {
    // GC on every insertion: the discard/help paths are live in nearly
    // every operation while the checker watches.
    check_rounds(|| bounded::Queue::with_gc_period(3, 1), 3, 4, 40).unwrap();
}

#[test]
fn wf_bounded_four_threads_small_gc() {
    check_rounds(|| bounded::Queue::with_gc_period(4, 2), 4, 3, 30).unwrap();
}

#[test]
fn wf_bounded_three_threads_small_gc() {
    check_rounds(|| bounded::Queue::with_gc_period(3, 2), 3, 4, 40).unwrap();
}

#[test]
fn wf_ring_two_threads() {
    // Capacity above the worst-case in-flight count (2 threads × 5 ops):
    // the adapter spins on Full, which would wedge a history whose tail
    // is all enqueues.
    check_rounds(|| Ring::new(16, 2), 2, 5, 60).unwrap();
}

#[test]
fn wf_ring_three_threads() {
    check_rounds(|| Ring::new(16, 3), 3, 4, 40).unwrap();
}

#[test]
fn wf_ring_four_threads() {
    check_rounds(|| Ring::new(16, 4), 4, 3, 30).unwrap();
}

#[test]
fn baselines_pass_as_checker_sanity() {
    // If the checker were too permissive or too strict, the well-understood
    // baselines would expose it.
    check_rounds(Ms::new, 3, 4, 25).unwrap();
    check_rounds(CoarseMutex::new, 3, 4, 25).unwrap();
}
