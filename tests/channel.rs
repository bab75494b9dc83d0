//! Cross-crate behaviour of the **channel facade**: the try path is a
//! zero-extra-CAS pass-through over the raw handles (exact step-counter
//! parity, constant by constant), the blocking and async modes pass the
//! same Wing–Gong linearizability rounds and adversarial-scheduler audits
//! as the raw queues, the park/unpark handshake survives a lost-wakeup
//! hunt, and no interleaving of sender/receiver drops ever loses a
//! successfully sent value (drain-then-`Disconnected`).

use proptest::prelude::*;

use wfqueue_channel::{
    bounded, unbounded, Backend, Channel, Endpoints, Receiver, ReclaimPolicy, Sender, TryRecvError,
    TrySendError,
};
use wfqueue_harness::channel_api::{ChannelMode, WfChannel};
use wfqueue_harness::lincheck;
use wfqueue_harness::workload::{run_workload, WorkloadSpec};
use wfqueue_metrics::StepSnapshot;

fn all_modes() -> Vec<ChannelMode> {
    vec![
        ChannelMode::Try,
        ChannelMode::Blocking,
        #[cfg(feature = "async")]
        ChannelMode::Async,
    ]
}

/// A 1-sender/1-receiver channel with reclamation off: the configuration
/// whose backend is bit-for-bit a raw 2-process queue, used by the parity
/// tests.
fn pair_channel<T: Clone + Send + Sync + 'static>() -> (Sender<T>, Receiver<T>) {
    Channel::builder()
        .endpoints(ONE_EACH)
        .reclaim(ReclaimPolicy::Off)
        .build()
        .unwrap()
}

/// One sender and one receiver.
const ONE_EACH: Endpoints = Endpoints {
    senders: 1,
    receivers: 1,
};

/// Three senders and three receivers.
const THREE_EACH: Endpoints = Endpoints {
    senders: 3,
    receivers: 3,
};

/// A 1-sender/1-receiver §6 channel holding at most `capacity` values.
fn bounded_pair(capacity: usize) -> (Sender<u64>, Receiver<u64>) {
    Channel::builder()
        .backend(Backend::BoundedTree { capacity })
        .endpoints(ONE_EACH)
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------------
// Step-counter parity of the try path
// ---------------------------------------------------------------------------

/// Sums the step snapshots of `n` runs of `op`.
fn measure_n(n: usize, mut op: impl FnMut()) -> StepSnapshot {
    let mut total = StepSnapshot::default();
    for _ in 0..n {
        let ((), steps) = wfqueue_metrics::measure(&mut op);
        total += steps;
    }
    total
}

/// A snapshot holding only channel-layer shared loads/stores/CAS — the
/// documented per-op constants the facade adds on top of the raw handles.
fn overhead(loads: u64, stores: u64, cas: u64) -> StepSnapshot {
    StepSnapshot {
        shared_loads: loads,
        shared_stores: stores,
        cas_success: cas,
        ..StepSnapshot::default()
    }
}

#[test]
fn try_path_parity_unbounded() {
    const N: u64 = 24;
    let (mut tx, mut rx) = pair_channel::<u64>();
    let raw = wfqueue::unbounded::Queue::<u64>::new(2);
    let mut raw_enq = raw.register().unwrap();
    let mut raw_deq = raw.register().unwrap();

    // Sends: the channel adds exactly 2 shared loads (disconnect check +
    // parked-receiver check) and ZERO CAS per operation.
    let mut v = 0;
    let ch = measure_n(N as usize, || {
        tx.try_send(v).unwrap();
        v += 1;
    });
    let mut w = 0;
    let rw = measure_n(N as usize, || {
        raw_enq.enqueue(w);
        w += 1;
    });
    assert_eq!(ch, rw + overhead(2 * N, 0, 0), "try_send vs raw enqueue");

    // Successful receives: the channel path is *identical* — not one
    // extra shared access of any kind.
    let ch = measure_n(N as usize, || {
        rx.try_recv().unwrap();
    });
    let rw = measure_n(N as usize, || {
        raw_deq.dequeue().unwrap();
    });
    assert_eq!(ch, rw, "try_recv hit vs raw dequeue");

    // Empty receives: one extra load (the disconnect check).
    let ch = measure_n(5, || {
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    });
    let rw = measure_n(5, || {
        assert_eq!(raw_deq.dequeue(), None);
    });
    assert_eq!(ch, rw + overhead(5, 0, 0), "try_recv miss vs raw dequeue");
}

#[test]
fn try_path_parity_sharded() {
    const N: u64 = 24;
    let (mut tx, mut rx) = Channel::builder::<u64>()
        .backend(Backend::Sharded { shards: 2 })
        .endpoints(ONE_EACH)
        .reclaim(ReclaimPolicy::Off)
        .build()
        .unwrap();
    let raw = wfqueue_shard::ShardedQueue::build(
        2,
        2,
        wfqueue_shard::Routing::Nearest,
        wfqueue::unbounded::Queue::<u64>::new,
    );
    let mut raw_enq = raw.try_handle().unwrap();
    let mut raw_deq = raw.try_handle().unwrap();

    let mut v = 0;
    let ch = measure_n(N as usize, || {
        tx.try_send(v).unwrap();
        v += 1;
    });
    let mut w = 0;
    let rw = measure_n(N as usize, || {
        raw_enq.enqueue(w);
        w += 1;
    });
    assert_eq!(ch, rw + overhead(2 * N, 0, 0), "sharded try_send");

    let ch = measure_n(N as usize, || {
        rx.try_recv().unwrap();
    });
    let rw = measure_n(N as usize, || {
        raw_deq.dequeue().unwrap();
    });
    assert_eq!(ch, rw, "sharded try_recv hit");
}

#[test]
fn try_path_parity_bounded_documented_constants() {
    const N: u64 = 24;
    let (mut tx, mut rx) = bounded_pair(1_024);
    let raw = wfqueue::bounded::Queue::<u64>::new(2);
    let mut raw_enq = raw.register().unwrap();
    let mut raw_deq = raw.register().unwrap();

    // Sends additionally pay the capacity reservation: +1 load +1 CAS.
    let mut v = 0;
    let ch = measure_n(N as usize, || {
        tx.try_send(v).unwrap();
        v += 1;
    });
    let mut w = 0;
    let rw = measure_n(N as usize, || {
        raw_enq.enqueue(w);
        w += 1;
    });
    assert_eq!(ch, rw + overhead(3 * N, 0, N), "bounded try_send");

    // Receives additionally pay the slot release: +2 loads +1 store.
    let ch = measure_n(N as usize, || {
        rx.try_recv().unwrap();
    });
    let rw = measure_n(N as usize, || {
        raw_deq.dequeue().unwrap();
    });
    assert_eq!(ch, rw + overhead(2 * N, N, 0), "bounded try_recv hit");
}

#[test]
fn batch_path_parity_unbounded() {
    let (mut tx, mut rx) = pair_channel::<u64>();
    let raw = wfqueue::unbounded::Queue::<u64>::new(2);
    let mut raw_enq = raw.register().unwrap();
    let mut raw_deq = raw.register().unwrap();

    for k in [1usize, 4, 16] {
        let batch: Vec<u64> = (0..k as u64).collect();
        let (_, ch) = wfqueue_metrics::measure(|| tx.send_all(batch.clone()).unwrap());
        let (_, rw) = wfqueue_metrics::measure(|| raw_enq.enqueue_batch(batch.clone()));
        assert_eq!(ch, rw + overhead(2, 0, 0), "send_all k={k}");

        let (got, ch) = wfqueue_metrics::measure(|| rx.recv_up_to(k));
        let (raw_got, rw) = wfqueue_metrics::measure(|| raw_deq.dequeue_batch(k));
        assert_eq!(got.len(), k);
        assert_eq!(raw_got.into_iter().flatten().count(), k);
        assert_eq!(ch, rw, "recv_up_to k={k}");

        // The non-blocking batch path carries the same two-load constant.
        let (_, ch) = wfqueue_metrics::measure(|| tx.try_send_all(batch.clone()).unwrap());
        let (_, rw) = wfqueue_metrics::measure(|| raw_enq.enqueue_batch(batch.clone()));
        assert_eq!(ch, rw + overhead(2, 0, 0), "try_send_all k={k}");
        assert_eq!(rx.recv_up_to(k).len(), k);
        assert_eq!(raw_deq.dequeue_batch(k).into_iter().flatten().count(), k);
    }
}

// ---------------------------------------------------------------------------
// Builder parity: the free constructors are thin wrappers
// ---------------------------------------------------------------------------

/// Step snapshot of constructing a channel and pushing one value through
/// it — covers both the construction path and the per-op hot path.
fn construction_steps(make: impl FnOnce() -> (Sender<u64>, Receiver<u64>)) -> StepSnapshot {
    let ((), steps) = wfqueue_metrics::measure(|| {
        let (mut tx, mut rx) = make();
        tx.try_send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
    });
    steps
}

/// [`unbounded`] and [`bounded`] are shorthands for the builder —
/// step-for-step identical, not merely equivalent. Asserted here as exact
/// step-snapshot identity of construction plus a send/recv round, for each
/// shorthand against its builder spelling.
#[test]
fn free_constructors_are_step_identical_to_builder() {
    assert_eq!(
        construction_steps(unbounded),
        construction_steps(|| Channel::builder().build().unwrap()),
        "unbounded() vs builder defaults"
    );
    assert_eq!(
        construction_steps(|| bounded(8)),
        construction_steps(|| {
            Channel::builder()
                .backend(Backend::BoundedTree { capacity: 8 })
                .build()
                .unwrap()
        }),
        "bounded(8) vs builder"
    );
}

// ---------------------------------------------------------------------------
// Linearizability (Wing–Gong) through the harness adapters
// ---------------------------------------------------------------------------

#[test]
fn channel_histories_linearizable_all_modes() {
    for mode in all_modes() {
        lincheck::check_rounds(|| WfChannel::unbounded(3, mode), 3, 4, 6)
            .unwrap_or_else(|e| panic!("unbounded {mode:?}: {e}"));
        lincheck::check_rounds(|| WfChannel::bounded(3, 64, mode), 3, 4, 6)
            .unwrap_or_else(|e| panic!("bounded {mode:?}: {e}"));
        // A one-shard sharded channel is a single linearizable queue.
        lincheck::check_rounds(|| WfChannel::sharded(1, 3, mode), 3, 4, 6)
            .unwrap_or_else(|e| panic!("sharded {mode:?}: {e}"));
    }
}

#[test]
fn channel_batch_histories_linearizable() {
    for mode in all_modes() {
        let q = WfChannel::unbounded(2, mode);
        let history = lincheck::record_batch_history(&q, 2, 3, 3, 500, 0xC4A);
        lincheck::check_linearizable(&history).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
    }
}

// ---------------------------------------------------------------------------
// Adversarial-scheduler audits (park/unpark hunting)
// ---------------------------------------------------------------------------

#[test]
fn adversarial_workloads_all_modes_and_backends() {
    wfqueue_metrics::set_adversary(true);
    let spec = |seed: u64| WorkloadSpec {
        threads: 4,
        ops_per_thread: 800,
        enqueue_permille: 500,
        prefill: 32,
        seed,
    };
    for (i, mode) in all_modes().into_iter().enumerate() {
        let i = i as u64;
        let r = run_workload(&WfChannel::unbounded(4, mode), &spec(0xCAD0 + i));
        assert!(r.audits_ok(), "unbounded {mode:?}: {r:?}");
        // Capacity sized above the maximum possible in-flight count, so
        // Try-mode sends cannot hit Full mid-workload.
        let r = run_workload(
            &WfChannel::bounded(4, 4 * 800 + 32, mode),
            &spec(0xCAD4 + i),
        );
        assert!(r.audits_ok(), "bounded {mode:?}: {r:?}");
        let r = run_workload(&WfChannel::sharded(2, 4, mode), &spec(0xCAD8 + i));
        assert!(r.audits_ok(), "sharded {mode:?}: {r:?}");
    }
    wfqueue_metrics::set_adversary(false);
}

/// The lost-wakeup hunt: a capacity-1 channel forces sender and receiver
/// to alternate park/unpark on every value. A single lost wakeup on
/// either signal deadlocks the pair (and fails the suite by timeout);
/// the adversary yields inside every window of the handshake.
#[test]
fn adversarial_ping_pong_capacity_one() {
    wfqueue_metrics::set_adversary(true);
    const ROUNDS: u64 = 2_000;
    let (mut tx, mut rx) = bounded_pair(1);
    let producer = wfqueue_sync::thread::spawn(move || {
        for i in 0..ROUNDS {
            tx.send(i).unwrap();
        }
    });
    for i in 0..ROUNDS {
        assert_eq!(rx.recv(), Ok(i));
    }
    producer.join().unwrap();
    wfqueue_metrics::set_adversary(false);
}

/// Blocking worker-pool shape under the adversary: producers send then
/// drop, consumers `into_iter` until the drain-then-disconnect ends their
/// loop. Every successfully sent value must arrive exactly once.
#[test]
fn adversarial_drain_then_disconnect_under_contention() {
    wfqueue_metrics::set_adversary(true);
    const PER_SENDER: u64 = 1_500;
    let (tx, rx) = Channel::builder::<u64>()
        .endpoints(Endpoints {
            senders: 3,
            receivers: 2,
        })
        .reclaim(ReclaimPolicy::EveryKRootBlocks(16))
        .build()
        .unwrap();
    let senders = [tx.try_clone().unwrap(), tx.try_clone().unwrap(), tx];
    let consumed: Vec<Vec<u64>> = wfqueue_sync::thread::scope(|s| {
        for (p, mut tx) in senders.into_iter().enumerate() {
            s.spawn(move || {
                for i in 0..PER_SENDER {
                    tx.send(p as u64 * PER_SENDER + i).unwrap();
                }
                // tx drops here; the last drop disconnects the receivers.
            });
        }
        let joins: Vec<_> = [rx.try_clone().unwrap(), rx]
            .into_iter()
            .map(|rx| s.spawn(move || rx.into_iter().collect::<Vec<u64>>()))
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let mut all: Vec<u64> = consumed.into_iter().flatten().collect();
    all.sort_unstable();
    assert_eq!(all, (0..3 * PER_SENDER).collect::<Vec<_>>());
    wfqueue_metrics::set_adversary(false);
}

// ---------------------------------------------------------------------------
// Drop-interleaving proptest: drain-then-Disconnected never loses a value
// ---------------------------------------------------------------------------

/// Applies a generated endpoint-drop/operation script against a channel:
/// senders and receivers are dropped at arbitrary points (receiver 0
/// stays alive to drain); at the end, every remaining sender drops and
/// receiver 0 drains until `Disconnected`. The multiset of received
/// values must equal the multiset of successfully sent ones.
fn check_drop_script(
    script: &[(u8, u8)],
    mut make: impl FnMut() -> (Sender<u64>, Receiver<u64>),
) -> Result<(), TestCaseError> {
    let (tx, rx) = make();
    let mut senders: Vec<Option<Sender<u64>>> = vec![Some(tx)];
    for _ in 1..3 {
        senders.push(Some(senders[0].as_ref().unwrap().try_clone().unwrap()));
    }
    let mut receivers: Vec<Option<Receiver<u64>>> = vec![Some(rx)];
    for _ in 1..3 {
        receivers.push(Some(receivers[0].as_ref().unwrap().try_clone().unwrap()));
    }

    let mut next = 0u64;
    let mut sent: Vec<u64> = Vec::new();
    let mut received: Vec<u64> = Vec::new();
    for &(kind, who) in script {
        match kind % 5 {
            // Two send weights so scripts are send-heavy enough to queue
            // values up for the drop cases.
            0 | 1 => {
                let idx = who as usize % senders.len();
                if let Some(tx) = senders[idx].as_mut() {
                    match tx.try_send(next) {
                        Ok(()) => sent.push(next),
                        Err(TrySendError::Full(_)) => {}
                        Err(TrySendError::Disconnected(_)) => {
                            // Receiver 0 is always alive.
                            return Err(TestCaseError::Fail("spurious disconnect".into()));
                        }
                    }
                    next += 1;
                }
            }
            2 => {
                let idx = who as usize % receivers.len();
                if let Some(rx) = receivers[idx].as_mut() {
                    if let Ok(v) = rx.try_recv() {
                        received.push(v);
                    }
                }
            }
            3 => {
                let idx = who as usize % senders.len();
                senders[idx] = None;
            }
            _ => {
                // Never drop receiver 0: the drain guarantee is "as long
                // as a receiver remains"; dropping the last receiver
                // drops the queued values with the channel (documented).
                let idx = who as usize % receivers.len();
                if idx != 0 {
                    receivers[idx] = None;
                }
            }
        }
    }
    senders.clear(); // every sender drops: channel disconnects
    let mut rx0 = receivers[0].take().expect("receiver 0 is never dropped");
    loop {
        match rx0.try_recv() {
            Ok(v) => received.push(v),
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                return Err(TestCaseError::Fail(
                    "Empty after all senders dropped".into(),
                ))
            }
        }
    }
    sent.sort_unstable();
    received.sort_unstable();
    prop_assert_eq!(sent, received);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn drop_interleavings_never_lose_values_unbounded(
        script in proptest::collection::vec((0u8..5, 0u8..6), 0..60)
    ) {
        check_drop_script(&script, || {
            Channel::builder()
                .endpoints(THREE_EACH)
                .reclaim(ReclaimPolicy::EveryKRootBlocks(8))
                .build()
                .unwrap()
        })?;
    }

    #[test]
    fn drop_interleavings_never_lose_values_bounded(
        script in proptest::collection::vec((0u8..5, 0u8..6), 0..60)
    ) {
        check_drop_script(&script, || {
            Channel::builder()
                .backend(Backend::BoundedTree { capacity: 8 })
                .endpoints(THREE_EACH)
                .gc_period(8)
                .build()
                .unwrap()
        })?;
    }

    #[test]
    fn drop_interleavings_never_lose_values_sharded(
        script in proptest::collection::vec((0u8..5, 0u8..6), 0..60)
    ) {
        check_drop_script(&script, || {
            Channel::builder()
                .backend(Backend::Sharded { shards: 2 })
                .endpoints(THREE_EACH)
                .reclaim(ReclaimPolicy::Off)
                .build()
                .unwrap()
        })?;
    }
}

// ---------------------------------------------------------------------------
// Async mode specifics
// ---------------------------------------------------------------------------

#[cfg(feature = "async")]
mod async_mode {
    use super::*;
    use std::time::Duration;
    use wfqueue_channel::exec::{block_on, block_on_timeout};

    #[test]
    fn futures_complete_across_threads_under_adversary() {
        wfqueue_metrics::set_adversary(true);
        const ROUNDS: u64 = 500;
        let (mut tx, mut rx) = bounded_pair(1);
        let producer = wfqueue_sync::thread::spawn(move || {
            for i in 0..ROUNDS {
                block_on(tx.send_async(i)).unwrap();
            }
        });
        for i in 0..ROUNDS {
            assert_eq!(block_on(rx.recv_async()), Ok(i));
        }
        producer.join().unwrap();
        wfqueue_metrics::set_adversary(false);
    }

    #[test]
    fn cancelled_recv_future_leaves_channel_clean() {
        let (mut tx, mut rx) = super::pair_channel::<u64>();
        for _ in 0..10 {
            // Time out (cancelling the future and deregistering its
            // waker), then deliver: nothing leaks, nothing hangs.
            assert_eq!(
                block_on_timeout(rx.recv_async(), Duration::from_millis(2)),
                None
            );
            tx.send(7).unwrap();
            assert_eq!(block_on(rx.recv_async()), Ok(7));
        }
    }
}
