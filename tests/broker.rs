//! Cross-crate behaviour of the **broker layer**: per-topic round trips on
//! every backend, fan-in/fan-out partitioning, the `Seal`
//! drain-then-close protocol, strict per-topic backpressure isolation
//! (hunted adversarially), Wing–Gong linearizability through the harness
//! broker adapters, a multi-topic drop-interleaving proptest (a publish
//! that returned `Ok` is never lost), and a churn/soak memory-plateau
//! check over the E12 introspection counters.

use std::time::Duration;

use proptest::prelude::*;

use wfqueue_broker::{
    Broker, BrokerError, ConsumeTimeoutError, PublishError, Publisher, ReclaimPolicy, Subscriber,
    TopicConfig, TryConsumeError, TryPublishError,
};
use wfqueue_harness::broker_api::WfBrokerTopic;
use wfqueue_harness::channel_api::ChannelMode;
use wfqueue_harness::lincheck;

fn all_modes() -> Vec<ChannelMode> {
    vec![
        ChannelMode::Try,
        ChannelMode::Blocking,
        #[cfg(feature = "async")]
        ChannelMode::Async,
    ]
}

// ---------------------------------------------------------------------------
// Round trips on every backend + registry semantics
// ---------------------------------------------------------------------------

#[test]
fn round_trip_every_backend() {
    let configs = [
        ("unbounded", TopicConfig::default()),
        ("bounded", TopicConfig::bounded(64)),
        ("ring", TopicConfig::ring(64)),
        ("sharded", TopicConfig::sharded(2)),
    ];
    for (name, config) in configs {
        let broker = Broker::new();
        let topic = broker.create_topic::<u64>(name, config).unwrap();
        let mut publisher = topic.publisher().unwrap();
        let mut subscriber = topic.subscriber().unwrap();
        for i in 0..32 {
            publisher.publish(i).unwrap();
        }
        let mut got: Vec<u64> = (0..32).map(|_| subscriber.recv().unwrap()).collect();
        got.sort_unstable(); // sharded relaxes cross-publisher order
        assert_eq!(got, (0..32).collect::<Vec<_>>(), "{name}");
        assert_eq!(subscriber.try_recv(), Err(TryConsumeError::Empty), "{name}");
        let stats = topic.stats();
        assert_eq!((stats.published, stats.delivered), (32, 32), "{name}");
        assert_eq!(stats.backlog, 0, "{name}");
    }
}

#[test]
fn registry_get_or_create_and_errors() {
    let broker = Broker::new();

    // Get-or-create: same topic both times.
    let a = broker.topic::<u64>("jobs").unwrap();
    let b = broker.topic::<u64>("jobs").unwrap();
    let mut publisher = a.publisher().unwrap();
    let mut subscriber = b.subscriber().unwrap();
    publisher.publish(7).unwrap();
    assert_eq!(subscriber.recv(), Ok(7));

    // Same name, different type: TypeMismatch from every accessor.
    assert!(matches!(
        broker.topic::<String>("jobs"),
        Err(BrokerError::TypeMismatch { .. })
    ));
    assert!(matches!(
        broker.get_topic::<String>("jobs"),
        Err(BrokerError::TypeMismatch { .. })
    ));

    // Explicit create on a taken name fails even with the right type.
    assert!(matches!(
        broker.create_topic::<u64>("jobs", TopicConfig::default()),
        Err(BrokerError::TopicExists { .. })
    ));

    // get_topic never creates.
    assert!(matches!(
        broker.get_topic::<u64>("nope"),
        Err(BrokerError::UnknownTopic { .. })
    ));
    assert!(matches!(
        broker.close_topic("nope"),
        Err(BrokerError::UnknownTopic { .. })
    ));

    // Invalid channel configuration surfaces as Config, not a panic.
    assert!(matches!(
        broker.create_topic::<u64>("bad", TopicConfig::bounded(0)),
        Err(BrokerError::Config { .. })
    ));

    assert_eq!(broker.topic_names(), vec!["jobs".to_string()]);
}

#[test]
fn handle_budgets_are_mint_once() {
    let broker = Broker::new();
    let config = TopicConfig {
        publishers: 2,
        subscribers: 1,
        ..TopicConfig::default()
    };
    let topic = broker.create_topic::<u64>("t", config).unwrap();
    let _p1 = topic.publisher().unwrap();
    let _p2 = topic.publisher().unwrap();
    assert!(matches!(
        topic.publisher(),
        Err(BrokerError::PublishersExhausted { limit: 2, .. })
    ));
    let s1 = topic.subscriber().unwrap();
    // Dropped handles do not return their slot (the backing tree leaf is
    // consumed): the budget counts handles ever minted.
    drop(s1);
    assert!(matches!(
        topic.subscriber(),
        Err(BrokerError::SubscribersExhausted { limit: 1, .. })
    ));
}

// ---------------------------------------------------------------------------
// Fan-in / fan-out partitioning across topics
// ---------------------------------------------------------------------------

/// Values fan in from many publishers and fan out across many subscribers
/// of the same topic — each value delivered exactly once — while a second
/// topic runs the same workload without the two ever mixing.
#[test]
fn fan_in_fan_out_partitions_per_topic() {
    const PER_PUBLISHER: u64 = 2_000;
    let broker = Broker::new();
    for (name, tag) in [("evens", 0u64), ("odds", 1u64)] {
        broker
            .create_topic::<u64>(
                name,
                TopicConfig::default().with_reclaim(ReclaimPolicy::Off),
            )
            .unwrap();
        let publishers: Vec<Publisher<u64>> =
            (0..3).map(|_| broker.publisher(name).unwrap()).collect();
        let subscribers: Vec<Subscriber<u64>> =
            (0..2).map(|_| broker.subscriber(name).unwrap()).collect();
        let consumed: Vec<Vec<u64>> = wfqueue_sync::thread::scope(|s| {
            for (p, mut publisher) in publishers.into_iter().enumerate() {
                s.spawn(move || {
                    for i in 0..PER_PUBLISHER {
                        // Tag every value with its topic's parity so
                        // cross-topic leakage is detectable, not silent.
                        let v = 2 * (p as u64 * PER_PUBLISHER + i) + tag;
                        publisher.publish(v).unwrap();
                    }
                });
            }
            let broker = &broker;
            let joins: Vec<_> = subscribers
                .into_iter()
                .map(|subscriber| s.spawn(move || subscriber.into_iter().collect::<Vec<u64>>()))
                .collect();
            // Publishers have finished once scope joins their threads;
            // close so the subscriber iterators terminate after draining.
            s.spawn(move || {
                while broker.get_topic::<u64>(name).unwrap().stats().published < 3 * PER_PUBLISHER {
                    wfqueue_sync::thread::yield_now();
                }
                broker.close_topic(name).unwrap();
            });
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = consumed.into_iter().flatten().collect();
        assert!(all.iter().all(|v| v % 2 == tag), "{name}: foreign value");
        all.sort_unstable();
        let expected: Vec<u64> = (0..3 * PER_PUBLISHER).map(|k| 2 * k + tag).collect();
        assert_eq!(all, expected, "{name}: lost or duplicated values");
    }
}

// ---------------------------------------------------------------------------
// Graceful close: seal, drain, then Closed — on every consumption path
// ---------------------------------------------------------------------------

#[test]
fn close_is_drain_then_closed_on_every_path() {
    for path in ["try", "blocking", "timeout"] {
        let broker = Broker::new();
        let topic = broker.topic::<u64>("t").unwrap();
        let mut publisher = topic.publisher().unwrap();
        let mut subscriber = topic.subscriber().unwrap();
        publisher.publish_all([1, 2, 3]).unwrap();
        topic.close();
        assert!(topic.is_closed());

        // Publishing after the seal hands the value back untouched.
        assert_eq!(publisher.try_publish(9), Err(TryPublishError::Closed(9)));
        assert_eq!(publisher.publish(9).unwrap_err().0, 9);

        // The backlog drains in order before Closed appears.
        for want in [1, 2, 3] {
            match path {
                "try" => assert_eq!(subscriber.try_recv(), Ok(want)),
                "blocking" => assert_eq!(subscriber.recv(), Ok(want)),
                _ => assert_eq!(subscriber.recv_timeout(Duration::from_secs(1)), Ok(want)),
            }
        }
        match path {
            "try" => assert_eq!(subscriber.try_recv(), Err(TryConsumeError::Closed)),
            "blocking" => assert!(subscriber.recv().is_err()),
            _ => assert_eq!(
                subscriber.recv_timeout(Duration::from_secs(1)),
                Err(ConsumeTimeoutError::Closed)
            ),
        }
    }
}

/// Close wakes publishers parked on a full bounded topic, and each hands
/// back every value it had not published: `publish` its one value,
/// `publish_all` its parked chunk plus the chunks still queued behind it.
#[test]
fn close_hands_parked_publishers_every_unsent_value() {
    let broker = Broker::new();
    let topic = broker
        .create_topic::<u64>("full", TopicConfig::bounded(2))
        .unwrap();
    topic.publisher().unwrap().publish_all([1, 2]).unwrap();
    let (mut one, mut many) = (topic.publisher().unwrap(), topic.publisher().unwrap());
    let single = wfqueue_sync::thread::spawn(move || one.publish(3));
    let batch = wfqueue_sync::thread::spawn(move || many.publish_all([4, 5, 6, 7, 8]));
    // Give both time to park on the full topic (a close that lands first
    // must hand the same values back through the try path).
    wfqueue_sync::thread::sleep(Duration::from_millis(30));
    topic.close();
    assert_eq!(single.join().unwrap(), Err(PublishError(3)));
    assert_eq!(
        batch.join().unwrap(),
        Err(PublishError(vec![4, 5, 6, 7, 8]))
    );
    // Only the values accepted before the close are delivered.
    let mut subscriber = topic.subscriber().unwrap();
    assert_eq!(subscriber.recv(), Ok(1));
    assert_eq!(subscriber.recv(), Ok(2));
    assert_eq!(subscriber.try_recv(), Err(TryConsumeError::Closed));
    assert_eq!(topic.stats().published, 2);
}

/// Dropping every subscriber handle never strands published values: the
/// registry's root endpoints keep the backlog alive, and a later-minted
/// subscriber drains it — even after the topic is closed.
#[test]
fn subscriber_drop_never_strands_published_values() {
    let broker = Broker::new();
    let topic = broker.topic::<u64>("t").unwrap();
    let mut publisher = topic.publisher().unwrap();
    let early = topic.subscriber().unwrap();
    publisher.publish_all(0..100).unwrap();
    drop(early); // backlog of 100 with zero live subscribers
    assert_eq!(topic.stats().subscribers, 0);
    assert_eq!(topic.stats().backlog, 100);

    broker.close_topic("t").unwrap();
    let late = topic.subscriber().unwrap();
    assert_eq!(late.into_iter().sum::<u64>(), (0..100).sum());
}

#[test]
fn shutdown_seals_every_topic() {
    let broker = Broker::new();
    let mut handles = Vec::new();
    for name in ["a", "b", "c"] {
        let mut publisher = broker.publisher::<u64>(name).unwrap();
        publisher.publish(1).unwrap();
        handles.push((broker.get_topic::<u64>(name).unwrap(), publisher));
    }
    broker.shutdown();
    for (topic, publisher) in &mut handles {
        assert!(topic.is_closed());
        assert_eq!(publisher.try_publish(2), Err(TryPublishError::Closed(2)));
        // Backlog still drains after the broker-wide seal.
        let mut subscriber = topic.subscriber().unwrap();
        assert_eq!(subscriber.try_recv(), Ok(1));
        assert_eq!(subscriber.try_recv(), Err(TryConsumeError::Closed));
    }
    assert!(broker.stats().iter().all(|s| s.closed));
}

// ---------------------------------------------------------------------------
// Linearizability (Wing–Gong) through the harness broker adapters
// ---------------------------------------------------------------------------

#[test]
fn broker_histories_linearizable_all_modes() {
    for mode in all_modes() {
        lincheck::check_rounds(|| WfBrokerTopic::unbounded(3, mode), 3, 4, 6)
            .unwrap_or_else(|e| panic!("unbounded {mode:?}: {e}"));
        lincheck::check_rounds(|| WfBrokerTopic::bounded(3, 64, mode), 3, 4, 6)
            .unwrap_or_else(|e| panic!("bounded {mode:?}: {e}"));
        // A one-shard sharded topic is a single linearizable queue.
        lincheck::check_rounds(|| WfBrokerTopic::sharded(1, 3, mode), 3, 4, 6)
            .unwrap_or_else(|e| panic!("sharded {mode:?}: {e}"));
    }
}

#[test]
fn broker_batch_histories_linearizable() {
    for mode in all_modes() {
        let q = WfBrokerTopic::unbounded(2, mode);
        let history = lincheck::record_batch_history(&q, 2, 3, 3, 500, 0xB40);
        lincheck::check_linearizable(&history).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
    }
}

// ---------------------------------------------------------------------------
// Adversarial hunts: lost wakeups and backpressure isolation
// ---------------------------------------------------------------------------

/// The lost-wakeup hunt one layer up: a capacity-1 **topic** forces
/// publisher and subscriber to alternate park/unpark on the topic-level
/// signals for every value. A single lost wakeup on either signal
/// deadlocks the pair (and fails the suite by timeout).
#[test]
fn adversarial_ping_pong_capacity_one_topic() {
    wfqueue_metrics::set_adversary(true);
    const ROUNDS: u64 = 2_000;
    let broker = Broker::new();
    let topic = broker
        .create_topic::<u64>("pp", TopicConfig::bounded(1))
        .unwrap();
    let mut publisher = topic.publisher().unwrap();
    let mut subscriber = topic.subscriber().unwrap();
    let producer = wfqueue_sync::thread::spawn(move || {
        for i in 0..ROUNDS {
            publisher.publish(i).unwrap();
        }
    });
    for i in 0..ROUNDS {
        assert_eq!(subscriber.recv(), Ok(i));
    }
    producer.join().unwrap();
    wfqueue_metrics::set_adversary(false);
}

/// Fault injection: a **stalled subscriber on a bounded topic**
/// backpressures only its own topic. While topic "stuck" (capacity 4) has
/// a parked publisher and a subscriber that consumes nothing, topic
/// "busy" on the same broker completes a full blocking ping-pong
/// unimpeded. Releasing the stalled subscriber then delivers every value
/// — no lost wakeup across the stall.
#[test]
fn adversarial_stalled_subscriber_backpressures_only_its_topic() {
    wfqueue_metrics::set_adversary(true);
    const CAPACITY: usize = 4;
    const STUCK_VALUES: u64 = 64;
    const BUSY_ROUNDS: u64 = 1_000;
    let broker = Broker::new();
    let stuck = broker
        .create_topic::<u64>("stuck", TopicConfig::bounded(CAPACITY))
        .unwrap();
    let busy = broker
        .create_topic::<u64>("busy", TopicConfig::bounded(1))
        .unwrap();

    let mut stuck_pub = stuck.publisher().unwrap();
    let mut stuck_sub = stuck.subscriber().unwrap();
    let mut busy_pub = busy.publisher().unwrap();
    let mut busy_sub = busy.subscriber().unwrap();

    let stalled_producer = wfqueue_sync::thread::spawn(move || {
        for i in 0..STUCK_VALUES {
            stuck_pub.publish(i).unwrap(); // parks at value CAPACITY
        }
    });

    // The stalled topic's publisher must actually hit the wall...
    while stuck.stats().published < CAPACITY as u64 {
        wfqueue_sync::thread::yield_now();
    }
    // ...and with its neighbour fully wedged, this topic still ping-pongs
    // to completion: backpressure is per-topic, signals are per-topic.
    let busy_producer = wfqueue_sync::thread::spawn(move || {
        for i in 0..BUSY_ROUNDS {
            busy_pub.publish(i).unwrap();
        }
    });
    for i in 0..BUSY_ROUNDS {
        assert_eq!(busy_sub.recv(), Ok(i));
    }
    busy_producer.join().unwrap();

    // The stalled topic never ran ahead of its capacity bound while its
    // subscriber consumed nothing.
    let published_while_stalled = stuck.stats().published;
    assert!(
        published_while_stalled <= CAPACITY as u64,
        "bounded topic overran its capacity: {published_while_stalled} > {CAPACITY}"
    );

    // Release the stall: every value arrives, in order, exactly once.
    for i in 0..STUCK_VALUES {
        assert_eq!(stuck_sub.recv(), Ok(i));
    }
    stalled_producer.join().unwrap();
    assert_eq!(stuck.stats().backlog, 0);
    wfqueue_metrics::set_adversary(false);
}

// ---------------------------------------------------------------------------
// Multi-topic drop-interleaving proptest
// ---------------------------------------------------------------------------

/// Applies a generated handle-drop/operation script across **two topics**
/// of one broker: publishers and subscribers are dropped at arbitrary
/// points, values are published (blocking, so `Full` backpressure cannot
/// drop them silently) and consumed concurrently with the drops. At the
/// end each topic is closed and a **freshly minted** subscriber drains it
/// to `Closed` — the registry guarantee that dropping handles never
/// strands accepted values. Per topic, the received multiset must equal
/// the successfully-published multiset.
fn check_broker_drop_script(
    script: &[(u8, u8, u8)],
    configs: [TopicConfig; 2],
) -> Result<(), TestCaseError> {
    let broker = Broker::new();
    let names = ["alpha", "beta"];
    let mut publishers: Vec<Vec<Option<Publisher<u64>>>> = Vec::new();
    let mut subscribers: Vec<Vec<Option<Subscriber<u64>>>> = Vec::new();
    for (name, config) in names.iter().zip(configs) {
        // Budgets sized for the script pool plus the final drain
        // subscriber (handles are mint-once).
        let config = config.with_publishers(3).with_subscribers(4);
        let topic = broker.create_topic::<u64>(name, config).unwrap();
        publishers.push((0..3).map(|_| Some(topic.publisher().unwrap())).collect());
        subscribers.push((0..3).map(|_| Some(topic.subscriber().unwrap())).collect());
    }

    let mut next = 0u64;
    let mut published: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut received: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    for &(topic_pick, kind, who) in script {
        let t = topic_pick as usize % 2;
        match kind % 5 {
            // Send-heavy weighting, as in the channel drop proptest.
            0 | 1 => {
                let idx = who as usize % publishers[t].len();
                if let Some(publisher) = publishers[t][idx].as_mut() {
                    // Blocking publish: backpressure waits instead of
                    // dropping, and a concurrent subscriber drain (below)
                    // cannot run, so capacity must cover the script.
                    match publisher.publish(next) {
                        Ok(()) => published[t].push(next),
                        Err(_) => {
                            return Err(TestCaseError::Fail("publish on open topic failed".into()))
                        }
                    }
                    next += 1;
                }
            }
            2 => {
                let idx = who as usize % subscribers[t].len();
                if let Some(subscriber) = subscribers[t][idx].as_mut() {
                    if let Ok(v) = subscriber.try_recv() {
                        received[t].push(v);
                    }
                }
            }
            3 => {
                let idx = who as usize % publishers[t].len();
                publishers[t][idx] = None;
            }
            _ => {
                // Unlike the channel proptest, *every* subscriber may
                // drop: the broker's registry (not a surviving handle) is
                // what keeps the backlog alive.
                let idx = who as usize % subscribers[t].len();
                subscribers[t][idx] = None;
            }
        }
    }

    for (t, name) in names.iter().enumerate() {
        publishers[t].clear();
        subscribers[t].clear();
        broker.close_topic(name).unwrap();
        let mut drain = broker.get_topic::<u64>(name).unwrap().subscriber().unwrap();
        loop {
            match drain.try_recv() {
                Ok(v) => received[t].push(v),
                Err(TryConsumeError::Closed) => break,
                Err(TryConsumeError::Empty) => {
                    return Err(TestCaseError::Fail(
                        "Empty on closed, undrained topic".into(),
                    ))
                }
            }
        }
        published[t].sort_unstable();
        received[t].sort_unstable();
        prop_assert_eq!(&published[t], &received[t], "topic {}", name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn drop_interleavings_never_lose_published_values_unbounded(
        script in proptest::collection::vec((0u8..2, 0u8..5, 0u8..6), 0..60)
    ) {
        check_broker_drop_script(&script, [
            TopicConfig::default().with_reclaim(ReclaimPolicy::EveryKRootBlocks(8)),
            TopicConfig::default().with_reclaim(ReclaimPolicy::Off),
        ])?;
    }

    #[test]
    fn drop_interleavings_never_lose_published_values_bounded_mix(
        script in proptest::collection::vec((0u8..2, 0u8..5, 0u8..6), 0..60)
    ) {
        // Capacity ≥ script length: the single-threaded script never
        // blocks forever on a full topic.
        check_broker_drop_script(&script, [
            TopicConfig::bounded(64),
            TopicConfig::ring(64),
        ])?;
    }
}

// ---------------------------------------------------------------------------
// Churn plateau (deterministic) + env-gated soak
// ---------------------------------------------------------------------------

/// One churn round: publish `batch` values and drain them back.
fn churn_round(publisher: &mut Publisher<u64>, subscriber: &mut Subscriber<u64>, batch: u64) {
    publisher.publish_all(0..batch).unwrap();
    for _ in 0..batch {
        subscriber.recv().unwrap();
    }
}

/// Live blocks must plateau under sustained publish/drain churn: with
/// epoch-based truncation on, round N's footprint is no larger than the
/// footprint after warmup, for arbitrarily many rounds. This is the
/// broker-level restatement of E12's reclamation result. Handle churn
/// rides along in the deterministic rounds (fresh handles each round,
/// budgets sized to the round count — handles are mint-once); the
/// env-gated soak churns values through persistent handles until its
/// deadline.
#[test]
fn churn_memory_plateaus() {
    const ROUNDS: usize = 40;
    const BATCH: u64 = 256;
    let broker = Broker::new();
    let topic = broker
        .create_topic::<u64>(
            "churn",
            TopicConfig {
                publishers: ROUNDS + 8,
                subscribers: ROUNDS + 8,
                ..TopicConfig::default().with_reclaim(ReclaimPolicy::EveryKRootBlocks(16))
            },
        )
        .unwrap();

    // Warmup establishes the plateau level.
    let mut publisher = topic.publisher().unwrap();
    let mut subscriber = topic.subscriber().unwrap();
    for _ in 0..4 {
        churn_round(&mut publisher, &mut subscriber, BATCH);
    }
    assert!(
        broker.memory_stats().live_blocks > 0,
        "introspection should see live blocks"
    );
    // Constant ceiling after warmup, same idiom as the E12 acceptance
    // check: quiescent footprint may sit anywhere within one truncation
    // period, so the bound has a fixed floor rather than being the exact
    // warmup sample.
    let plateau = broker.memory_stats().live_blocks.max(64);

    let mut peak = 0;
    for _ in 0..ROUNDS {
        // Fresh handles each round: handle churn must not leak blocks
        // either.
        let mut publisher = topic.publisher().unwrap();
        let mut subscriber = topic.subscriber().unwrap();
        churn_round(&mut publisher, &mut subscriber, BATCH);
        peak = peak.max(broker.memory_stats().live_blocks);
    }
    // Identical rounds at quiescence: the footprint must not grow at all
    // beyond the warmup plateau (truncation keeps up between rounds).
    assert!(
        peak <= plateau,
        "live blocks grew under churn: peak {peak} > plateau {plateau}"
    );

    // Soak mode (weekly stress CI): keep churning until the deadline,
    // re-asserting the plateau the whole way.
    if let Ok(secs) = std::env::var("SOAK_SECS") {
        let secs: u64 = secs.parse().expect("SOAK_SECS must be an integer");
        let deadline = std::time::Instant::now() + Duration::from_secs(secs);
        let mut rounds = 0u64;
        while std::time::Instant::now() < deadline {
            churn_round(&mut publisher, &mut subscriber, BATCH);
            let live = broker.memory_stats().live_blocks;
            assert!(
                live <= plateau,
                "soak round {rounds}: live blocks {live} > plateau {plateau}"
            );
            rounds += 1;
        }
        eprintln!("soak: {rounds} churn rounds, live blocks held at {plateau}");
    }
}

// ---------------------------------------------------------------------------
// Async-mode specifics
// ---------------------------------------------------------------------------

#[cfg(feature = "async")]
mod async_mode {
    use super::*;
    use wfqueue_channel::exec::block_on;

    /// Capacity-1 async ping-pong across threads under the adversary:
    /// hunts lost wakeups in the waker-registry path of the topic-level
    /// signals.
    #[test]
    fn async_futures_complete_across_threads_under_adversary() {
        wfqueue_metrics::set_adversary(true);
        const ROUNDS: u64 = 500;
        let broker = Broker::new();
        let topic = broker
            .create_topic::<u64>("pp", TopicConfig::bounded(1))
            .unwrap();
        let mut publisher = topic.publisher().unwrap();
        let mut subscriber = topic.subscriber().unwrap();
        let producer = wfqueue_sync::thread::spawn(move || {
            for i in 0..ROUNDS {
                block_on(publisher.publish_async(i)).unwrap();
            }
        });
        for i in 0..ROUNDS {
            assert_eq!(block_on(subscriber.recv_async()), Ok(i));
        }
        producer.join().unwrap();
        wfqueue_metrics::set_adversary(false);
    }
}
