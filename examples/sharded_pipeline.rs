//! Sharded pipeline: fan a multi-producer event stream out over wait-free
//! queue shards, keeping per-producer order end to end.
//!
//! Four producers emit ordered event batches; four consumers drain them
//! through a channel built over the sharded backend: producers pin to
//! shards (so each producer's events stay FIFO), while each consumer scans
//! every shard nearest-first from its own home shard, so no value is left
//! behind on a shard it does not own. Each consumer verifies on the fly that
//! every producer's events arrive in order — the relaxed-queue contract
//! the sharded frontend guarantees. The channel facade adds the pipeline
//! conveniences on top: consumers park while empty (no spin-waiting) and
//! their loops end by themselves when the producers drop their senders.
//!
//! Run with: `cargo run --release --example sharded_pipeline`

use std::sync::Arc;
use wfqueue_sync::atomic::{AtomicU64, Ordering};

use wfqueue_channel::{Backend, Channel, Endpoints};

const PRODUCERS: usize = 4;
const CONSUMERS: usize = 4;
const SHARDS: usize = 2;
const BATCHES_PER_PRODUCER: u64 = 200;
const BATCH: u64 = 16;

/// Events carry `(producer, sequence)` so consumers can audit order.
fn event(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << 32) | seq
}

fn main() {
    let (tx, rx) = Channel::builder::<u64>()
        .backend(Backend::Sharded { shards: SHARDS })
        .endpoints(Endpoints {
            senders: PRODUCERS,
            receivers: CONSUMERS,
        })
        .build()
        .unwrap();
    let consumed = Arc::new(AtomicU64::new(0));

    let mut txs: Vec<_> = (1..PRODUCERS).map(|_| tx.try_clone().unwrap()).collect();
    txs.push(tx);
    let mut rxs: Vec<_> = (1..CONSUMERS).map(|_| rx.try_clone().unwrap()).collect();
    rxs.push(rx);

    wfqueue_sync::thread::scope(|s| {
        for (p, mut tx) in txs.into_iter().enumerate() {
            s.spawn(move || {
                for batch in 0..BATCHES_PER_PRODUCER {
                    // A whole batch routes to one shard: one leaf block,
                    // one propagation — batching composes with sharding.
                    tx.send_all((0..BATCH).map(|j| event(p, batch * BATCH + j)))
                        .expect("consumers outlive the producers");
                }
                // tx drops here; once the last producer finishes, the
                // consumers' loops below end on their own.
            });
        }
        for rx in rxs {
            let consumed = Arc::clone(&consumed);
            s.spawn(move || {
                let mut last_seen = [None::<u64>; PRODUCERS];
                // The whole consumer: park while empty, exit on disconnect.
                for ev in rx {
                    let (p, seq) = ((ev >> 32) as usize, ev & 0xFFFF_FFFF);
                    if let Some(prev) = last_seen[p] {
                        assert!(
                            seq > prev,
                            "per-producer order violated: producer {p} seq {seq} after {prev}"
                        );
                    }
                    last_seen[p] = Some(seq);
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    let total = PRODUCERS as u64 * BATCHES_PER_PRODUCER * BATCH;
    assert_eq!(
        consumed.load(Ordering::Relaxed),
        total,
        "pipeline fully drained"
    );
    println!(
        "pipelined {total} events from {PRODUCERS} producers to {CONSUMERS} consumers over \
         {SHARDS} wait-free shards (nearest-first receive scans)"
    );
    println!(
        "per-producer FIFO verified by every consumer; each shard kept the paper's \
         polylogarithmic wait-free guarantees while root CASes spread over {SHARDS} roots"
    );
}
