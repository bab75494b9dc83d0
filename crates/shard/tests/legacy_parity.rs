//! Byte-for-byte step-counter parity of the two routing policies.
//!
//! * `PerProducer` is driven side by side with a frozen copy of the
//!   original enum-dispatch routing logic (pin to `index % S`, lazy
//!   first-touch registration), over *raw* `wfqueue::unbounded::Queue`
//!   shards sized by the same capacity formula. Both must produce the same
//!   responses and the same `StepSnapshot` — every shared load, store and
//!   CAS, bit for bit.
//! * `Nearest` is checked against golden step counts and response digests
//!   recorded from the trait-object routing layer it replaced (where a
//!   feedback window and `snapshot()` pair wrapped every enqueue). The
//!   enum dispatch must reproduce the hint traffic and the scan order
//!   exactly.

use wfqueue::unbounded;
use wfqueue_metrics::StepSnapshot;
use wfqueue_shard::{Routing, ShardedQueue, ShardedUnbounded};

// ---------------------------------------------------------------------------
// Frozen reference (PerProducer)
// ---------------------------------------------------------------------------

/// The original `PerProducer` sharded queue, reduced to unbounded shards
/// of `u64`.
struct FrozenSharded {
    shards: Vec<unbounded::Queue<u64>>,
}

impl FrozenSharded {
    fn new(num_shards: usize, max_handles: usize) -> Self {
        let shards = (0..num_shards)
            .map(|s| {
                unbounded::Queue::new(Routing::PerProducer.shard_capacity(
                    max_handles,
                    num_shards,
                    s,
                ))
            })
            .collect();
        FrozenSharded { shards }
    }

    fn handle(&self, index: usize) -> FrozenHandle<'_> {
        FrozenHandle {
            queue: self,
            index,
            inner: (0..self.shards.len()).map(|_| None).collect(),
        }
    }
}

struct FrozenHandle<'q> {
    queue: &'q FrozenSharded,
    index: usize,
    inner: Vec<Option<unbounded::Handle<'q, u64>>>,
}

impl<'q> FrozenHandle<'q> {
    fn pinned(&mut self) -> &mut unbounded::Handle<'q, u64> {
        let s = self.index % self.queue.shards.len();
        if self.inner[s].is_none() {
            self.inner[s] = Some(self.queue.shards[s].register().expect("capacity"));
        }
        self.inner[s].as_mut().expect("just registered")
    }

    fn enqueue(&mut self, value: u64) {
        self.pinned().enqueue(value);
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.pinned().dequeue()
    }

    fn enqueue_batch(&mut self, values: Vec<u64>) {
        if !values.is_empty() {
            self.pinned().enqueue_batch(values);
        }
    }

    fn dequeue_batch(&mut self, count: usize) -> Vec<Option<u64>> {
        if count == 0 {
            return Vec::new();
        }
        let mut out: Vec<Option<u64>> = Vec::with_capacity(count);
        out.extend(
            self.pinned()
                .dequeue_batch(count)
                .into_iter()
                .flatten()
                .map(Some),
        );
        out.resize_with(count, || None);
        out
    }
}

// ---------------------------------------------------------------------------
// Deterministic script driver
// ---------------------------------------------------------------------------

/// SplitMix64: tiny deterministic generator for the op scripts (no RNG
/// dependency in this crate).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One scripted operation on one of the handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScriptOp {
    Enqueue(u64),
    Dequeue,
    EnqueueBatch(u64, usize),
    DequeueBatch(usize),
}

fn script(seed: u64, len: usize, handles: usize) -> Vec<(usize, ScriptOp)> {
    let mut rng = SplitMix64(seed);
    let mut next_value = 0u64;
    (0..len)
        .map(|_| {
            let h = (rng.next() % handles as u64) as usize;
            let op = match rng.next() % 10 {
                // Enqueue-leaning mix so sweeps hit nonempty and empty
                // shards, batches exercise the multi-shard paths.
                0..=3 => {
                    let v = next_value;
                    next_value += 1;
                    ScriptOp::Enqueue(v)
                }
                4..=6 => ScriptOp::Dequeue,
                7 => {
                    let n = (rng.next() % 5) as usize;
                    let v = next_value;
                    next_value += n as u64;
                    ScriptOp::EnqueueBatch(v, n)
                }
                _ => ScriptOp::DequeueBatch((rng.next() % 5) as usize),
            };
            (h, op)
        })
        .collect()
}

/// Drives `script` through the frozen reference; returns (steps, responses).
fn run_frozen(
    shards: usize,
    handles: usize,
    ops: &[(usize, ScriptOp)],
) -> (StepSnapshot, Vec<Option<u64>>) {
    let q = FrozenSharded::new(shards, handles);
    let mut hs: Vec<FrozenHandle<'_>> = (0..handles).map(|i| q.handle(i)).collect();
    let mut responses = Vec::new();
    let (_, steps) = wfqueue_metrics::measure(|| {
        for &(h, op) in ops {
            match op {
                ScriptOp::Enqueue(v) => hs[h].enqueue(v),
                ScriptOp::Dequeue => responses.push(hs[h].dequeue()),
                ScriptOp::EnqueueBatch(v, n) => {
                    hs[h].enqueue_batch((v..v + n as u64).collect());
                }
                ScriptOp::DequeueBatch(n) => responses.extend(hs[h].dequeue_batch(n)),
            }
        }
    });
    (steps, responses)
}

/// Drives `script` through `ShardedUnbounded` with `routing`.
fn run_sharded(
    routing: Routing,
    shards: usize,
    handles: usize,
    ops: &[(usize, ScriptOp)],
) -> (StepSnapshot, Vec<Option<u64>>) {
    let q: ShardedUnbounded<u64> =
        ShardedQueue::build(shards, handles, routing, unbounded::Queue::new);
    let mut hs = q.handles();
    assert_eq!(hs.len(), handles);
    let mut responses = Vec::new();
    let (_, steps) = wfqueue_metrics::measure(|| {
        for &(h, op) in ops {
            match op {
                ScriptOp::Enqueue(v) => hs[h].enqueue(v),
                ScriptOp::Dequeue => responses.push(hs[h].dequeue()),
                ScriptOp::EnqueueBatch(v, n) => {
                    hs[h].enqueue_batch((v..v + n as u64).collect::<Vec<_>>());
                }
                ScriptOp::DequeueBatch(n) => responses.extend(hs[h].dequeue_batch(n)),
            }
        }
    });
    (steps, responses)
}

/// FNV-1a over the responses (`None` folds as 0, `Some(v)` as `v + 1`):
/// the golden `Nearest` cases record this digest instead of several
/// hundred responses each.
fn digest(responses: &[Option<u64>]) -> u64 {
    responses.iter().fold(0xCBF2_9CE4_8422_2325, |h, r| {
        let x = r.map_or(0, |v| v + 1);
        (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

// ---------------------------------------------------------------------------
// The parity assertions
// ---------------------------------------------------------------------------

#[test]
fn legacy_policies_match_pre_refactor_steps_exactly() {
    for shards in [1usize, 2, 3, 4] {
        for handles in [1usize, 2, 5] {
            for seed in [1u64, 0xDEAD_BEEF, 0x5EED_5EED] {
                let ops = script(seed ^ (shards as u64) << 8, 600, handles);
                let (frozen_steps, frozen_resp) = run_frozen(shards, handles, &ops);
                let (new_steps, new_resp) =
                    run_sharded(Routing::PerProducer, shards, handles, &ops);
                // Identical responses ⇒ the same shard served every
                // operation (values are unique, so a single divergent
                // placement changes some response).
                assert_eq!(
                    frozen_resp, new_resp,
                    "PerProducer S={shards} p={handles} seed={seed:#x}: \
                     responses diverged — routing decisions differ"
                );
                // Identical StepSnapshot ⇒ byte-for-byte parity of every
                // shared load, store and CAS.
                assert_eq!(
                    frozen_steps, new_steps,
                    "PerProducer S={shards} p={handles} seed={seed:#x}: \
                     step counters diverged"
                );
            }
        }
    }
}

/// One golden `Nearest` case: `(S, p, steps, responses, digest)`,
/// recorded from the trait-object routing layer.
type Golden = (usize, usize, StepSnapshot, usize, u64);

const fn steps(
    shared_loads: u64,
    shared_stores: u64,
    cas_success: u64,
    block_allocs: u64,
) -> StepSnapshot {
    StepSnapshot {
        shared_loads,
        shared_stores,
        cas_success,
        cas_failure: 0,
        tree_node_visits: 0,
        block_allocs,
        gc_phases: 0,
        help_calls: 0,
    }
}

const NEAREST_GOLDEN: [Golden; 6] = [
    (
        1,
        1,
        steps(16316, 90, 2805, 1122),
        433,
        0xd040_da89_cd41_c30a,
    ),
    (
        1,
        5,
        steps(38201, 90, 6171, 2244),
        433,
        0xd040_da89_cd41_c30a,
    ),
    (
        2,
        1,
        steps(19113, 204, 3315, 1326),
        480,
        0x0dc3_a905_e4f1_15ec,
    ),
    (
        2,
        5,
        steps(46600, 275, 7623, 2772),
        480,
        0xbbd3_6898_e9a3_2be0,
    ),
    (
        4,
        1,
        steps(18807, 61, 3005, 1202),
        394,
        0x59ca_000b_a5c0_1fa2,
    ),
    (
        4,
        5,
        steps(44870, 183, 7249, 2636),
        394,
        0xf960_bd5c_4410_f658,
    ),
];

#[test]
fn nearest_matches_recorded_steps_exactly() {
    for (shards, handles, golden_steps, len, golden_digest) in NEAREST_GOLDEN {
        let ops = script(0x5EED_5EED ^ (shards as u64) << 8, 600, handles);
        let (got_steps, responses) = run_sharded(Routing::Nearest, shards, handles, &ops);
        assert_eq!(
            (responses.len(), digest(&responses)),
            (len, golden_digest),
            "Nearest S={shards} p={handles}: responses diverged — scan order differs"
        );
        assert_eq!(
            got_steps, golden_steps,
            "Nearest S={shards} p={handles}: step counters diverged"
        );
    }
}
