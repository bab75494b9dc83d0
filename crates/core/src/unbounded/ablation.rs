//! Ablation hooks for design choices the paper calls out.
//!
//! Currently one: the **doubling search** of `FindResponse` (Figure 4 line
//! 91, analysed in Lemma 20). The obvious alternative — a plain binary
//! search over the whole root history `[1, b]` — costs `O(log b)`, i.e.
//! logarithmic in the *number of operations ever performed*, while the
//! doubling search costs `O(log(b − b_e)) = O(log q)`, logarithmic in the
//! *queue size*. The `a2_doubling_search` bench uses
//! [`compare_front_search`] to measure both on the same structure.

use wfqueue_metrics as metrics;

use super::queue::Queue;

/// Step counts for locating the same enqueue block with the two search
/// strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchComparison {
    /// Steps taken by the paper's doubling search (Lemma 20, `O(log q)`).
    pub doubling_steps: u64,
    /// Steps taken by a plain binary search over `[1, b]` (`O(log b)`).
    pub full_binary_steps: u64,
    /// The root block index the searches ran from (history length proxy).
    pub root_blocks: usize,
}

/// Runs both search strategies for the queue's current front element and
/// returns their measured step counts, or `None` if the queue is empty.
///
/// Read-only: no operation is performed. Call while quiescent.
pub fn compare_front_search<T>(queue: &Queue<T>) -> Option<SearchComparison>
where
    T: Clone + Send + Sync,
{
    let _guard = queue.read_guard();
    let node = queue.root_node();
    let b = node.head() - 1;
    if b == 0 {
        return None;
    }
    let last = node.block_installed(b, "Invariant 3: root prefix installed");
    if last.size() == 0 {
        return None;
    }
    // Rank (among all enqueues) of the element at the front of the queue.
    let e = last.sumenq - last.size() + 1;

    let (be_doubling, doubling) =
        metrics::measure(|| queue.search_root_enqueue_block(b, e, node.boundary()));

    let (be_full, full) = metrics::measure(|| {
        // Plain lower-bound binary search over the whole retained history
        // (the truncation boundary plays the dummy's role; it is 0 — the
        // paper's search — on a queue that never reclaims).
        let (mut lo, mut hi) = (node.boundary() + 1, b);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if node
                .block_installed(mid, "Invariant 3: root prefix installed")
                .sumenq
                >= e
            {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    });

    assert_eq!(be_doubling, be_full, "both searches find the same block");
    Some(SearchComparison {
        doubling_steps: doubling.memory_steps(),
        full_binary_steps: full.memory_steps(),
        root_blocks: b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue_has_no_front() {
        let q: Queue<u32> = Queue::new(1);
        assert!(compare_front_search(&q).is_none());
        let mut h = q.register().unwrap();
        h.enqueue(1);
        let _ = h.dequeue();
        assert!(compare_front_search(&q).is_none());
    }

    #[test]
    fn strategies_agree_and_doubling_wins_on_long_history() {
        let q: Queue<u64> = Queue::new(1);
        let mut h = q.register().unwrap();
        // Long history, short queue: churn 4096 pairs, keep q = 8.
        for i in 0..8 {
            h.enqueue(i);
        }
        for i in 0..4096u64 {
            h.enqueue(100 + i);
            let _ = h.dequeue();
        }
        let cmp = compare_front_search(&q).expect("queue is non-empty");
        assert!(cmp.root_blocks > 4000);
        assert!(
            cmp.doubling_steps < cmp.full_binary_steps,
            "doubling {} !< full {}",
            cmp.doubling_steps,
            cmp.full_binary_steps
        );
        // O(log q) ≈ 2·(log2(8)+1) fence reads plus the narrow binary
        // search; generous envelope.
        assert!(cmp.doubling_steps <= 24, "{cmp:?}");
    }

    #[test]
    fn short_history_keeps_both_cheap() {
        let q: Queue<u64> = Queue::new(1);
        let mut h = q.register().unwrap();
        for i in 0..4 {
            h.enqueue(i);
        }
        let cmp = compare_front_search(&q).unwrap();
        assert!(cmp.doubling_steps <= 12);
        assert!(cmp.full_binary_steps <= 12);
    }
}
