//! The wait-free vector sketched in §7 ("Future Directions") of the paper.
//!
//! > "we can easily adapt our routines to implement a vector data structure
//! > that stores a sequence and provides three operations: Append(e) to add
//! > an element e to the end of the sequence, Get(i) to read the ith element
//! > in the sequence, and Index(e) to compute the position of element e in
//! > the sequence."
//!
//! [`WfVector`] reuses the unbounded ordering tree directly: an `Append` is
//! an enqueue (propagated to the root in `O(log p)` steps), `Get(i)` locates
//! the `i`-th enqueue of the linearization with the same binary searches as
//! `FindResponse`/`GetEnqueue`, and `Index` is provided as the position
//! returned by [`VectorHandle::append`] (computed like `IndexDequeue`, but
//! over the enqueue sequence).

use std::fmt;

use crate::unbounded::Queue;

/// A wait-free append-only vector (§7 of the paper).
///
/// Supports concurrent `append` (with the element's linearized position
/// returned), and wait-free random-access `get`. Built on the same ordering
/// tree as [`crate::unbounded::Queue`]; appends cost `O(log p)` steps, reads
/// cost `O(log p · log c + log n)`.
///
/// # Examples
///
/// ```
/// let v: wfqueue::vector::WfVector<&str> = wfqueue::vector::WfVector::new(2);
/// let mut h = v.register().unwrap();
/// assert_eq!(h.append("a"), 0);
/// assert_eq!(h.append("b"), 1);
/// assert_eq!(v.get(1), Some("b"));
/// assert_eq!(v.len(), 2);
/// assert_eq!(v.get(2), None);
/// ```
pub struct WfVector<T> {
    inner: Queue<T>,
}

impl<T: Clone + Send + Sync> WfVector<T> {
    /// Creates a vector for at most `num_processes` concurrent appenders.
    ///
    /// # Panics
    ///
    /// Panics if `num_processes` is zero.
    #[must_use]
    pub fn new(num_processes: usize) -> Self {
        WfVector {
            inner: Queue::new(num_processes),
        }
    }

    /// The number of processes this vector was created for.
    #[must_use]
    pub fn num_processes(&self) -> usize {
        self.inner.num_processes()
    }

    /// Registers the next process, or `None` when all handles are taken.
    pub fn register(&self) -> Option<VectorHandle<'_, T>> {
        self.inner.register().map(|h| VectorHandle { inner: h })
    }

    /// Returns all remaining handles.
    pub fn handles(&self) -> Vec<VectorHandle<'_, T>> {
        std::iter::from_fn(|| self.register()).collect()
    }

    /// The number of elements whose append has been propagated to the root
    /// (every element appended by a completed `append` is counted).
    #[must_use]
    pub fn len(&self) -> usize {
        let node = self.inner.root_node();
        let h = node.head();
        node.block_installed(h - 1, "Invariant 3: blocks[head-1] is installed")
            .sumenq
    }

    /// Whether no element is visible yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the element at 0-based `position`, or `None` if the vector is
    /// not (yet) that long.
    ///
    /// Elements are immutable once appended, so concurrent `get`s at a
    /// position below [`WfVector::len`] always succeed and always return the
    /// same value.
    #[must_use]
    pub fn get(&self, position: usize) -> Option<T> {
        let root = self.inner.topology().root();
        let node = self.inner.root_node();
        let h = node.head();
        // The last installed root block bounds the visible prefix; `head`
        // may lag one behind an installed block, so probe `h` too.
        let last = if node.block(h).is_some() { h } else { h - 1 };
        let total = node
            .block_installed(last, "Invariant 3: root prefix is installed")
            .sumenq;
        let e = position + 1; // 1-based rank among all enqueues
        if e > total {
            return None;
        }
        // The vector's inner queue never reclaims (`Queue::new`), so the
        // boundary clamp is the constant 0 and the search is the paper's.
        let be = self
            .inner
            .search_root_enqueue_block(last, e, node.boundary());
        let before = node
            .block_installed(be - 1, "Invariant 3: root prefix is installed")
            .sumenq;
        Some(self.inner.get_enqueue(root, be, e - before))
    }
}

impl<T: Clone + Send + Sync> fmt::Debug for WfVector<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WfVector")
            .field("num_processes", &self.num_processes())
            .field("len", &self.len())
            .finish()
    }
}

/// A per-process handle to a [`WfVector`].
pub struct VectorHandle<'v, T> {
    inner: crate::unbounded::Handle<'v, T>,
}

impl<'v, T: Clone + Send + Sync> VectorHandle<'v, T> {
    /// Appends `value` and returns its 0-based position in the sequence
    /// (the paper's `Index(e)`, delivered at append time).
    pub fn append(&mut self, value: T) -> usize {
        let queue = self.inner.queue();
        let topo = queue.topology();
        let leaf = topo.leaf_of(self.inner.process_id());
        let node = queue.leaf_node(leaf);
        let h = node.head();
        // Perform the enqueue (appends leaf block at index h, propagates).
        self.inner.enqueue(value);
        // Locate that enqueue in the root's linearization: it is the 1st
        // enqueue of E(leaf.blocks[h]).
        let (b, i) = queue.index_enqueue(leaf, h, 1);
        let before = queue
            .root_node()
            .block_installed(b - 1, "Invariant 3: root prefix is installed")
            .sumenq;
        before + i - 1
    }

    /// This handle's process id.
    #[must_use]
    pub fn process_id(&self) -> usize {
        self.inner.process_id()
    }
}

impl<T> fmt::Debug for VectorHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VectorHandle").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_returns_sequential_positions_single_process() {
        let v: WfVector<u32> = WfVector::new(1);
        let mut h = v.register().unwrap();
        for i in 0..100 {
            assert_eq!(h.append(i), i as usize);
        }
        assert_eq!(v.len(), 100);
    }

    #[test]
    fn get_reads_back_appends() {
        let v: WfVector<String> = WfVector::new(2);
        let mut h = v.register().unwrap();
        for i in 0..50 {
            h.append(format!("item-{i}"));
        }
        for i in 0..50 {
            assert_eq!(v.get(i), Some(format!("item-{i}")));
        }
        assert_eq!(v.get(50), None);
        assert_eq!(v.get(usize::MAX - 1), None);
    }

    #[test]
    fn empty_vector() {
        let v: WfVector<u8> = WfVector::new(1);
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.get(0), None);
    }

    #[test]
    fn interleaved_appenders_get_distinct_positions() {
        let v: WfVector<u64> = WfVector::new(3);
        let mut handles = v.handles();
        let mut positions = Vec::new();
        for i in 0..90u64 {
            let h = &mut handles[(i % 3) as usize];
            positions.push(h.append(i));
        }
        // Sequential execution: positions are exactly 0..90 in order.
        let expect: Vec<usize> = (0..90).collect();
        assert_eq!(positions, expect);
    }

    #[test]
    fn concurrent_appends_yield_unique_positions_and_consistent_gets() {
        let threads = 4usize;
        let per_thread = 500u64;
        let v: WfVector<u64> = WfVector::new(threads);
        let mut handles = v.handles();
        let all_positions: Vec<Vec<(usize, u64)>> = wfqueue_sync::thread::scope(|s| {
            let joins: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let mut h = handles.remove(0);
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for i in 0..per_thread {
                            let value = (t << 32) | i;
                            out.push((h.append(value), value));
                        }
                        out
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let total = threads as u64 * per_thread;
        assert_eq!(v.len() as u64, total);
        let mut seen = vec![None::<u64>; total as usize];
        for (pos, value) in all_positions.into_iter().flatten() {
            assert!(seen[pos].is_none(), "position {pos} assigned twice");
            seen[pos] = Some(value);
        }
        // Every position is assigned, and get() agrees with the appender's
        // returned position.
        for (pos, value) in seen.iter().enumerate() {
            let value = value.expect("every position assigned");
            assert_eq!(v.get(pos), Some(value), "get({pos})");
        }
        // Per-appender order is preserved in the linearization.
        let mut last = vec![None::<u64>; threads];
        for value in seen.into_iter().flatten() {
            let t = (value >> 32) as usize;
            let i = value & 0xffff_ffff;
            if let Some(prev) = last[t] {
                assert!(i > prev, "appender {t} out of order");
            }
            last[t] = Some(i);
        }
    }

    #[test]
    fn debug_impls() {
        let v: WfVector<u8> = WfVector::new(1);
        let h = v.register().unwrap();
        assert!(!format!("{v:?}").is_empty());
        assert!(!format!("{h:?}").is_empty());
    }
}
