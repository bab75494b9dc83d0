//! The bounded-space queue of §6 / Appendix B of the paper.
//!
//! Same ordering-tree algorithm as [`crate::unbounded`], but each node's
//! infinite `blocks` array is replaced by a persistent search tree of blocks
//! published by CAS, with periodic garbage-collection phases that discard
//! finished blocks, keeping space `O(p·q_max + p³ log p)` (Theorem 31) at
//! `O(log p · log(p + q_max))` amortized steps per operation (Theorem 32).
//!
//! The persistent tree is a treap ([`wfqueue_treap::PTreap`]) where the
//! paper uses a red–black tree. Its priorities are a fixed hash of the
//! key, so its depth — the log factor each tree operation contributes to
//! Theorems 22 and 32 — is O(log n) in expectation, not in the worst case.

mod block;
mod gc;
mod node;
mod queue;
mod search;

pub mod introspect;

pub use queue::{Handle, Queue};

#[cfg(test)]
mod tests;
