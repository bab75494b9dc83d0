//! Ordering-tree nodes of the bounded-space queue.
//!
//! Each node holds a pointer to the current version of its persistent block
//! store. Updates build a new version (structurally sharing almost all of
//! the old one) and publish it with a single CAS, exactly like the paper's
//! `CAS(v.blocks, T, T′)` (Figure 5 line 265); superseded versions are
//! reclaimed through epoch-based reclamation, which plays the role of the
//! paper's assumed garbage collector. The store itself is a persistent
//! vector with implicit keys ([`BlockStore`]).
//!
//! Blocks are stored inline in the store: in its version header's tail,
//! copied by each append, and in the 16-block leaves of its trie, shared
//! between versions. Only a leaf block's operation payload is a separate
//! shared allocation (see [`Block`]).

use wfqueue_sync::atomic::Ordering;

use super::block::Block;
use super::store::BlockStore;
use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use wfqueue_metrics as metrics;

/// The persistent store of blocks of one node, keyed by block index.
pub(crate) type BlockTree<T> = BlockStore<T>;

/// A loaded store version: the shared pointer (needed for the publishing
/// CAS) plus a dereferenced view valid for the guard's lifetime.
pub(crate) struct TreeRef<'g, T: Clone + Send + Sync> {
    shared: Shared<'g, BlockTree<T>>,
    /// The store version itself.
    pub tree: &'g BlockTree<T>,
}

pub(crate) struct Node<T: Clone + Send + Sync> {
    blocks: Atomic<BlockTree<T>>,
}

impl<T: Clone + Send + Sync> Node<T> {
    /// A fresh node whose store holds only the dummy block (index 0).
    pub fn new() -> Self {
        let tree = BlockStore::new().append(0, Block::dummy());
        Node {
            blocks: Atomic::new(tree),
        }
    }

    /// Loads the current store version (one shared step).
    pub fn load<'g>(&self, guard: &'g Guard) -> TreeRef<'g, T> {
        metrics::record_shared_load();
        // ORDERING: the paper's pseudocode assumes sequentially
        // consistent shared memory; every tree-node load/CAS stays SC so
        // the implementation matches the proof obligations line for line
        // (relaxation is ROADMAP work, gated on the model checker).
        let shared = self.blocks.load(Ordering::SeqCst, guard);
        // SAFETY: the version is retired only after being replaced by a
        // successful CAS (see `try_publish`), and destruction is deferred
        // until all pinned guards — including `guard` — are released.
        let tree = unsafe { shared.deref() };
        TreeRef { shared, tree }
    }

    /// Attempts to replace the version `current` with `next` (the paper's
    /// `CAS(v.blocks, T, T′)`). On success the old version is retired to the
    /// epoch collector. Counts as one CAS step.
    pub fn try_publish<'g>(
        &self,
        current: &TreeRef<'g, T>,
        next: BlockTree<T>,
        guard: &'g Guard,
    ) -> bool {
        // ORDERING: SC per the paper's SC-memory assumption (see `load`).
        match self.blocks.compare_exchange(
            current.shared,
            Owned::new(next),
            Ordering::SeqCst,
            Ordering::SeqCst,
            guard,
        ) {
            Ok(_) => {
                metrics::record_cas(true);
                // SAFETY: `current.shared` was just unlinked by our CAS and
                // can no longer be loaded by new readers; existing readers
                // are protected by their guards until the deferred drop runs.
                unsafe { guard.defer_destroy(current.shared) };
                true
            }
            Err(_) => {
                metrics::record_cas(false);
                false
            }
        }
    }
}

impl<T: Clone + Send + Sync> Drop for Node<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees no concurrent readers; the final
        // version was published by a CAS and is owned by this node.
        unsafe {
            let shared = self.blocks.load(Ordering::Relaxed, epoch::unprotected());
            if !shared.is_null() {
                drop(shared.into_owned());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_node_has_dummy_tree() {
        let n: Node<u32> = Node::new();
        let guard = epoch::pin();
        let t = n.load(&guard);
        assert_eq!(t.tree.len(), 1);
        let (k, b) = t.tree.max().unwrap();
        assert_eq!(k, 0);
        assert_eq!((b.sumenq, b.sumdeq), (0, 0));
    }

    #[test]
    fn publish_swaps_versions_and_fails_on_stale() {
        let n: Node<u32> = Node::new();
        let guard = epoch::pin();
        let t0 = n.load(&guard);
        let t1 = t0.tree.append(1, Block::internal(1, 0, 1, 1, 0));
        assert!(n.try_publish(&t0, t1, &guard));
        // Publishing again from the stale version must fail.
        let t2 = t0.tree.append(1, Block::internal(2, 0, 1, 1, 0));
        assert!(!n.try_publish(&t0, t2, &guard));
        let now = n.load(&guard);
        assert_eq!(now.tree.len(), 2);
        assert_eq!(now.tree.max().unwrap().1.sumenq, 1);
    }

    #[test]
    fn drop_reclaims_last_version() {
        // Exercised under the normal allocator; mainly checks no
        // double-free/UAF under Drop (caught by miri/asan when run there).
        let n: Node<String> = Node::new();
        drop(n);
    }
}
