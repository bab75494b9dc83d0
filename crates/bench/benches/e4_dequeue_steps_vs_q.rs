//! Experiment E4 — Theorem 22 + Lemma 20 (dequeue bound, `q` axis): the
//! doubling search in `FindResponse` makes a dequeue's cost grow only
//! logarithmically with the queue size `q`.
//!
//! Setup: a single process prefills `q` values, then dequeues; each
//! dequeue's matching enqueue lies `q` blocks back in the root, so the
//! doubling search walks `Θ(log q)` fence posts.
//!
//! Reported series: mean steps per dequeue vs `q`, with the per-doubling
//! increment (difference between consecutive rows, which should be roughly
//! constant for logarithmic growth).

use wfqueue::unbounded;
use wfqueue_harness::queue_api::ConcurrentQueue;
use wfqueue_harness::table::{f1, Table};
use wfqueue_metrics as metrics;

fn measure_dequeue_steps(q_size: usize, samples: usize) -> (f64, u64) {
    let queue = unbounded::Queue::new(1);
    let mut h = queue.handle();
    for i in 0..q_size + samples {
        h.enqueue(i as u64);
    }
    let mut total = 0u64;
    let mut max = 0u64;
    for _ in 0..samples {
        let (r, steps) = metrics::measure(|| h.dequeue());
        assert!(r.is_some());
        total += steps.memory_steps();
        max = max.max(steps.memory_steps());
    }
    (total as f64 / samples as f64, max)
}

fn main() {
    let mut table = Table::new(
        "E4: steps per dequeue vs queue size q (Theorem 22/Lemma 20: O(log q))",
        &["q", "log2(q)", "steps avg", "delta/doubling", "steps max"],
    );
    let mut prev: Option<f64> = None;
    for exp2 in [4u32, 6, 8, 10, 12, 14, 16, 18] {
        let q = 1usize << exp2;
        let samples = 512.min(q);
        let (avg, max) = measure_dequeue_steps(q, samples);
        let delta = prev.map(|p| (avg - p) / 2.0); // two doublings per row
        table.row_owned(vec![
            q.to_string(),
            exp2.to_string(),
            f1(avg),
            delta.map(f1).unwrap_or_else(|| "-".into()),
            max.to_string(),
        ]);
        prev = Some(avg);
    }
    println!("{table}");
    println!(
        "expected shape: steps grow by a small additive constant per doubling of q\n\
         (logarithmic growth), not proportionally to q.\n"
    );
}
