//! Cross-crate behaviour of the **routing layer**: the contention-aware
//! `Nearest` scan.
//!
//! Three layers of evidence that the hint-ordered scan cannot break the
//! per-producer FIFO contract:
//!
//! 1. a proptest driving multiple handles through arbitrary interleaved
//!    scripts, checking every consumed value against its producer's
//!    sequence;
//! 2. a multi-threaded adversarial-scheduler hunt (in `tests/sharded.rs`,
//!    whose `ROUTINGS` includes `Nearest`);
//! 3. a Wing–Gong linearizability round against the scan (below):
//!    per-shard sub-histories under `Nearest`, and the composite at
//!    `S = 1` where it must be one linearizable FIFO.

use proptest::prelude::*;

use wfqueue_harness::lincheck::{self, Event, Op};
use wfqueue_harness::queue_api::Routing;
use wfqueue_shard::ShardedUnbounded;

/// `shards` unbounded shards under the nearest-first scan.
fn nearest<T: Clone + Send + Sync>(shards: usize, handles: usize) -> ShardedUnbounded<T> {
    ShardedUnbounded::new(shards, handles, Routing::Nearest)
}

// ---------------------------------------------------------------------------
// Per-producer FIFO across arbitrary interleavings (proptest)
// ---------------------------------------------------------------------------

/// One scripted step: `(handle, action, size)` where `action` selects
/// enqueue / dequeue / batch variants and `size` a batch length.
type Step = (u8, u8, u8);

fn check_fifo(script: &[Step], shards: usize) -> Result<(), TestCaseError> {
    const HANDLES: usize = 3;
    let q: ShardedUnbounded<u64> = nearest(shards, HANDLES);
    let mut handles = q.handles();
    // Values are tagged (producer, seq): FIFO per producer means each
    // producer's consumed seqs are strictly increasing, no matter which
    // handle consumed them.
    let mut next_seq = [0u64; HANDLES];
    let mut last_seen = [None::<u64>; HANDLES];
    let mut check = |value: u64| -> Result<(), TestCaseError> {
        let producer = (value >> 32) as usize;
        let seq = value & 0xFFFF_FFFF;
        if let Some(prev) = last_seen[producer] {
            prop_assert!(
                seq > prev,
                "producer {producer}: consumed seq {seq} after {prev}"
            );
        }
        last_seen[producer] = Some(seq);
        Ok(())
    };
    for &(h, action, size) in script {
        let h = h as usize % HANDLES;
        match action % 5 {
            0 | 1 => {
                let v = ((h as u64) << 32) | next_seq[h];
                next_seq[h] += 1;
                handles[h].enqueue(v);
            }
            2 => {
                if let Some(v) = handles[h].dequeue() {
                    check(v)?;
                }
            }
            3 => {
                let n = (size % 4) as u64 + 1;
                let batch: Vec<u64> = (0..n)
                    .map(|j| ((h as u64) << 32) | (next_seq[h] + j))
                    .collect();
                next_seq[h] += n;
                handles[h].enqueue_batch(batch);
            }
            _ => {
                for v in handles[h]
                    .dequeue_batch(size as usize % 4 + 1)
                    .into_iter()
                    .flatten()
                {
                    check(v)?;
                }
            }
        }
    }
    // Drain everything; FIFO must hold through the tail too.
    for handle in &mut handles {
        let collected: Vec<u64> = handle.drain().collect();
        for v in collected {
            check(v)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The nearest-first scan never violates per-producer FIFO, for any
    // interleaving of operations the generator finds.
    #[test]
    fn nearest_scans_preserve_per_producer_fifo(
        script in proptest::collection::vec((0u8..3, 0u8..5, 0u8..8), 0..120),
        shards in 2usize..5,
    ) {
        check_fifo(&script, shards)?;
    }
}

// ---------------------------------------------------------------------------
// Wing–Gong rounds against the contention-aware scan
// ---------------------------------------------------------------------------

/// The shard a recorded value lives on under `Nearest`:
/// `record_history` tags the producing thread in the
/// upper bits, and handle `i` pins to shard `i % S`.
fn shard_of(value: u32, shards: usize) -> usize {
    ((value >> 16) as usize) % shards
}

#[test]
fn wing_gong_nearest_composite_s1() {
    // At S = 1 the nearest scan degenerates to "probe the one shard":
    // the composite must be one linearizable FIFO.
    for round in 0..10u64 {
        let q = nearest(1, 3);
        let h = lincheck::record_history(&q, 3, 4, 500, round * 17 + 3);
        assert_eq!(h.len(), 12);
        lincheck::check_linearizable(&h).unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}

#[test]
fn wing_gong_nearest_per_shard_sub_histories() {
    // For S > 1: per-shard sub-histories of concurrent runs against the
    // hint-guided scan are linearizable — the hints are advisory and the
    // fallback pass keeps every probe an ordinary shard dequeue, so each
    // shard's history is exactly a history of that wait-free queue.
    for shards in [2usize, 3] {
        for round in 0..12u64 {
            let q = nearest(shards, 4);
            let history = lincheck::record_history(&q, 4, 4, 500, round * 31 + 7);
            for s in 0..shards {
                let sub: Vec<Event> = history
                    .iter()
                    .copied()
                    .filter(|e| match e.op {
                        Op::Enqueue(v) | Op::Dequeue(Some(v)) => shard_of(v, shards) == s,
                        Op::Dequeue(None) => false,
                    })
                    .collect();
                lincheck::check_linearizable(&sub)
                    .unwrap_or_else(|e| panic!("S={shards} shard {s} round {round}: {e}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hint sanity
// ---------------------------------------------------------------------------

#[test]
fn nearest_scan_finds_values_other_policies_leave_stranded() {
    // The scenario the contention-aware scan exists for: values parked on
    // a far shard while the consumer's own shard stays empty. PerProducer
    // never finds them; Nearest always does (fallback pass covers
    // hinted-empty shards too).
    let q: ShardedUnbounded<u64> = nearest(4, 4);
    let mut handles = q.handles();
    handles[3].enqueue(42);
    // Consumer 0's home (shard 0) is empty; hints say only shard 3 may
    // hold values, so the scan probes it early and finds the value.
    assert_eq!(handles[0].dequeue(), Some(42));
    // And a full empty scan lowers every hint without losing coverage.
    assert_eq!(handles[0].dequeue(), None);
    for s in 0..4 {
        assert!(!q.hints().maybe_nonempty(s));
    }
}
