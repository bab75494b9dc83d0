//! The bounded-space queue of §6 / Appendix B of the paper.
//!
//! Same ordering-tree algorithm as [`crate::unbounded`], but each node's
//! infinite `blocks` array is replaced by a persistent search tree of blocks
//! published by CAS, with periodic garbage-collection phases that discard
//! finished blocks, keeping space `O(p·q_max + p³ log p)` (Theorem 31) at
//! `O(log p · log(p + q_max))` amortized steps per operation (Theorem 32).
//!
//! Where the paper uses a red–black tree, each node's store is a
//! persistent vector with implicit keys (`store.rs`): the queue only
//! appends the next index and drops a prefix, so a fanout-16 trie with an
//! inline tail of recent blocks serves it. Its depth — the log factor each
//! store search contributes to Theorems 22 and 32 — is at most
//! `⌈log₁₆ n⌉ + 1` for `n` live blocks in the worst case.

pub(crate) mod block;
mod gc;
mod node;
mod queue;
mod search;
pub(crate) mod store;

pub mod introspect;

pub use queue::{Handle, Queue};

#[cfg(test)]
mod tests;
