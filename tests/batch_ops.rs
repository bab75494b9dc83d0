//! Cross-crate behaviour of the **batched** operations: batched concurrent
//! histories are linearizable (Wing–Gong), batched workloads pass the FIFO
//! audits on every queue (native batching and the per-op fallback alike),
//! and sequential batched scripts replay exactly like a `VecDeque`.

use std::collections::VecDeque;

use wfqueue_harness::lincheck;
use wfqueue_harness::queue_api::{CoarseMutex, Ms, WfBounded, WfUnbounded};
use wfqueue_harness::workload::{run_batch_workload, BatchWorkloadSpec};
use wfqueue_harness::QueueHandle;

#[test]
fn batched_histories_are_linearizable_small_scope() {
    for round in 0..25u64 {
        // 2 threads × 3 batches × 3 ops = 18 events per history.
        let q = WfUnbounded::new(2);
        let h = lincheck::record_batch_history(&q, 2, 3, 3, 500, round * 11 + 1);
        assert_eq!(h.len(), 18);
        lincheck::check_linearizable(&h).unwrap_or_else(|e| panic!("unbounded {round}: {e}"));

        let q = WfBounded::with_gc_period(2, 4);
        let h = lincheck::record_batch_history(&q, 2, 3, 3, 500, round * 19 + 7);
        lincheck::check_linearizable(&h).unwrap_or_else(|e| panic!("bounded {round}: {e}"));
    }
}

#[test]
fn batched_workload_audits_across_queues_and_sizes() {
    for batch_size in [1usize, 2, 8, 32] {
        let spec = BatchWorkloadSpec {
            threads: 4,
            batches_per_thread: 400 / batch_size.max(1),
            batch_size,
            enqueue_permille: 500,
            prefill: 64,
            seed: 0xBB + batch_size as u64,
        };
        let q = WfUnbounded::new(4);
        let r = run_batch_workload(&q, &spec);
        assert!(r.audits_ok(), "wf-unbounded k={batch_size}: {r:?}");
        wfqueue::unbounded::introspect::check_invariants(&q.0).unwrap();

        let q = WfBounded::new(4);
        let r = run_batch_workload(&q, &spec);
        assert!(r.audits_ok(), "wf-bounded k={batch_size}: {r:?}");

        // Frequent GC phases under concurrent batches.
        let q = WfBounded::with_gc_period(4, 8);
        let r = run_batch_workload(&q, &spec);
        assert!(r.audits_ok(), "wf-bounded gc=8 k={batch_size}: {r:?}");

        // Baselines run the same workload through the fallback loops.
        let r = run_batch_workload(&Ms::new(), &spec);
        assert!(r.audits_ok(), "ms k={batch_size}: {r:?}");
        let r = run_batch_workload(&CoarseMutex::new(), &spec);
        assert!(r.audits_ok(), "mutex k={batch_size}: {r:?}");
    }
}

#[test]
fn sequential_batched_script_matches_vecdeque_on_all_wf_variants() {
    fn drive<H: QueueHandle<u64>>(handles: &mut [H]) {
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for round in 0..90usize {
            let who = round % handles.len();
            let k = round % 8;
            if round % 2 == 0 {
                let batch: Vec<u64> = (0..k as u64).map(|j| next + j).collect();
                next += k as u64;
                model.extend(batch.iter().copied());
                handles[who].enqueue_batch(batch);
            } else {
                let expect: Vec<Option<u64>> = (0..k).map(|_| model.pop_front()).collect();
                assert_eq!(handles[who].dequeue_batch(k), expect, "round {round}");
            }
        }
    }
    let q = wfqueue::unbounded::Queue::new(3);
    drive(&mut q.handles()[..]);
    wfqueue::unbounded::introspect::check_invariants(&q).unwrap();

    let q: wfqueue::bounded::Queue<u64> = wfqueue::bounded::Queue::with_gc_period(3, 4);
    drive(&mut q.handles()[..]);
    wfqueue::bounded::introspect::check_invariants(&q).unwrap();
}

#[test]
fn concurrent_batches_preserve_per_producer_order_within_batches() {
    // Producer batches are atomic: a consumer that sees value (p, s) must
    // never later see (p, s') with s' < s — including inside one dequeued
    // batch. The workload audit covers this; here we double-check by hand
    // on raw batch responses.
    let q = wfqueue::unbounded::Queue::new(4);
    let mut handles = q.handles();
    let consumed: Vec<Vec<u64>> = wfqueue_sync::thread::scope(|s| {
        let mut producers = Vec::new();
        for pid in 0..2u64 {
            let mut h = handles.remove(0);
            producers.push(s.spawn(move || {
                for batch in 0..150u64 {
                    let base = (pid << 32) | (batch * 4);
                    h.enqueue_batch((0..4).map(|j| base + j));
                }
            }));
        }
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let mut h = handles.remove(0);
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut misses = 0u32;
                    while got.len() < 600 && misses < 1_000_000 {
                        let hits: Vec<u64> = h.dequeue_batch(4).into_iter().flatten().collect();
                        if hits.is_empty() {
                            misses += 1;
                        } else {
                            misses = 0;
                            got.extend(hits);
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        consumers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for got in &consumed {
        let mut last = [None::<u64>; 2];
        for v in got {
            let pid = (v >> 32) as usize;
            let seq = v & 0xffff_ffff;
            if let Some(prev) = last[pid] {
                assert!(seq > prev, "per-producer order violated in batch");
            }
            last[pid] = Some(seq);
        }
    }
    let mut all: Vec<u64> = consumed.iter().flatten().copied().collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "duplicates across batches");
}
