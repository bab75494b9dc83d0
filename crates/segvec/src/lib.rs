//! Write-once lock-free storage substrates for the wait-free queue.
//!
//! The ordering-tree queue of Naderibeni & Ruppert (PODC 2023) stores, in
//! every tree node, an *infinite array* of blocks: slots are written at most
//! once (by a CAS from null) and never overwritten (§3.3 and Invariant 3 of
//! the paper). This crate provides the two substrates that realise this
//! model in Rust:
//!
//! * [`SegVec`] — an unbounded, lock-free, write-once vector built from
//!   fixed-size chunks of 64 slots: 16 chunk pointers inline, the rest in
//!   fixed pages of 64 behind a geometrically growing page table,
//!   supporting wait-free `get` and CAS-based `try_install`;
//! * [`AtomicOnceCell`] — a single write-once slot, used for the `super`
//!   approximation and `response` fields of blocks.
//!
//! Storage is freed when the structure drops, unless a reclaiming caller
//! gives it back earlier: the unbounded queue's epoch-based truncation
//! unlinks dead entries ([`SegVec::take_raw`]) and then the chunks lying
//! wholly below its new boundary, and the pages whose chunks all do
//! ([`SegVec::take_chunks_below`]), and frees them only once every reader
//! that could still reach them has unpinned. The chunk holding the
//! boundary is never released, nor is its page, so the slots a caller may
//! still index stay allocated. What stays behind is the page table: one
//! 8-byte pointer per 4096 slots of history.
//!
//! Both structures are the only place (besides the epoch-managed tree
//! versions of the bounded queue) where this workspace uses `unsafe`; each
//! block is justified by the write-once / deferred-release protocol.

#![deny(missing_docs)]

mod once_cell;
mod seg_vec;

pub use once_cell::AtomicOnceCell;
pub use seg_vec::{Chunk, Page, Released, SegVec};
