//! A wait-free FIFO queue with polylogarithmic step complexity.
//!
//! This crate is a from-scratch Rust implementation of the queue of
//! *Hossein Naderibeni and Eric Ruppert, "A Wait-free Queue with
//! Polylogarithmic Step Complexity", PODC 2023* (arXiv:2305.07229). It
//! provides both constructions from the paper:
//!
//! * [`unbounded::Queue`] — the unbounded-space queue of §3–§5:
//!   `O(log p)` steps per enqueue and `O(log² p + log q)` steps per dequeue,
//!   with `O(log p)` CAS instructions per operation, where `p` is the number
//!   of registered processes and `q` the queue size. Blocks accumulate
//!   forever (they are reclaimed only when the queue is dropped).
//! * [`bounded::Queue`] — the bounded-space queue of §6/Appendix B: the same
//!   algorithm over persistent block trees with periodic garbage-collection
//!   phases, keeping space polynomial in `p` and `q` at
//!   `O(log p · log(p + q))` amortized steps per operation.
//! * [`vector::WfVector`] — the wait-free vector sketched in §7 (append /
//!   get / positional index), built on the same ordering tree.
//!
//! # How it works
//!
//! Operations are agreed into a single linearization order through an
//! *ordering tree*: a static binary tree with one leaf per process. A
//! process appends each operation as a *block* in its leaf and then
//! cooperatively propagates pending blocks level by level to the root using
//! the double-`Refresh` pattern; a block in an internal node implicitly
//! represents the concatenation of operation sequences from its children
//! (prefix sums `sumenq`/`sumdeq` plus child interval ends
//! `endleft`/`endright`), so blocks merge in O(1) and any operation can be
//! located by O(log p) binary searches. Dequeue responses are computed from
//! the linearization directly — no per-element nodes, no head/tail hotspot,
//! and thus no CAS retry problem.
//!
//! # Example
//!
//! ```
//! use wfqueue::unbounded::Queue;
//!
//! let queue: Queue<u64> = Queue::new(2);
//! let mut handles = queue.handles();
//! let mut b = handles.pop().unwrap();
//! let mut a = handles.pop().unwrap();
//!
//! wfqueue_sync::thread::scope(|s| {
//!     s.spawn(move || {
//!         for i in 0..100 {
//!             a.enqueue(i);
//!         }
//!     });
//!     s.spawn(move || {
//!         let mut seen = 0;
//!         while seen < 100 {
//!             if b.dequeue().is_some() {
//!                 seen += 1;
//!             }
//!         }
//!     });
//! });
//! ```
//!
//! # Values must be `Clone`
//!
//! A dequeued value is read out of the enqueuer's leaf block, which stays in
//! the structure (unbounded variant) or may also be read by helpers
//! (bounded variant), so `T: Clone + Send + Sync` is required. Wrap
//! expensive payloads in [`std::sync::Arc`].

#![deny(missing_docs)]

pub mod bounded;
pub mod topology;
pub mod unbounded;
pub mod vector;

#[cfg(test)]
mod tests;
#[cfg(test)]
mod trait_conformance;
