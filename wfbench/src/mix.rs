//! `unbounded-open` and `bounded-closed`: two client threads, each owning
//! one `Sender` and one `Receiver` of a single channel, issue a seeded
//! 50/50 `try_send`/`try_recv` mix.
//!
//! Values carry `(sender, sequence number)`, so every receiver can check
//! per-sender FIFO and the run can check that each sent value was
//! received or drained exactly once.

use std::hint::spin_loop;
use std::thread;
use std::time::Instant;

use wfqueue_channel::{Backend, Channel, Receiver, Sender, TryRecvError, TrySendError};

use crate::gen::{mix, Arrivals, Rng};
use crate::stats::{Windowed, RESERVOIR_CAP};
use crate::trace::{self, Clock, Layer, Roles, Span, SPAN_SAMPLE};
use crate::{CatchUp, Pass, Phase, PhaseLen, GRACE_NS, LATE_NS};

/// Values put in the channel before the clients start.
const PREFILL: u64 = 1_024;
/// Client threads.
const CLIENTS: usize = 2;
/// Sender id of the prefill values (the clients are `0..CLIENTS`).
const PREFILL_SENDER: usize = CLIENTS;
const SENDERS: usize = CLIENTS + 1;

/// How the clients pace their operations.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pacing {
    /// Each client issues operations as a Poisson stream of `rate` per
    /// second, each timed from when it was due.
    Open { rate: f64 },
    /// Each client issues its next operation when the previous returns.
    Closed,
}

fn encode(sender: usize, seq: u64) -> u64 {
    ((sender as u64) << 56) | seq
}

fn decode(v: u64) -> (usize, u64) {
    ((v >> 56) as usize, v & ((1 << 56) - 1))
}

/// Order-independent digest of a set of sequence numbers: with the count,
/// a lost or duplicated value changes it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    count: u64,
    sum: u64,
    sum_sq: u64,
}

impl Fingerprint {
    fn add(&mut self, seq: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(seq);
        self.sum_sq = self.sum_sq.wrapping_add(seq.wrapping_mul(seq));
    }

    fn merge(&mut self, o: Fingerprint) {
        self.count += o.count;
        self.sum = self.sum.wrapping_add(o.sum);
        self.sum_sq = self.sum_sq.wrapping_add(o.sum_sq);
    }

    /// The fingerprint of `0..n`.
    fn of_first(n: u64) -> Fingerprint {
        let mut f = Fingerprint::default();
        (0..n).for_each(|s| f.add(s));
        f
    }
}

/// What one receiver saw.
#[derive(Debug, Default)]
struct Received {
    last: [Option<u64>; SENDERS],
    prints: [Fingerprint; SENDERS],
    out_of_order: u64,
    foreign: u64,
}

impl Received {
    fn observe(&mut self, v: u64) {
        let (s, seq) = decode(v);
        if s >= SENDERS {
            self.foreign += 1;
            return;
        }
        if self.last[s].is_some_and(|l| l >= seq) {
            self.out_of_order += 1;
        }
        self.last[s] = Some(seq);
        self.prints[s].add(seq);
    }
}

/// One set-up: the channel's root endpoints (prefill and drain) and one
/// endpoint pair per client.
struct Setup {
    tx: Sender<u64>,
    rx: Receiver<u64>,
    clients: Vec<(Sender<u64>, Receiver<u64>)>,
}

fn set_up(backend: Backend) -> Setup {
    let (mut tx, rx) = Channel::builder::<u64>()
        .backend(backend)
        .build()
        .expect("the workload's channel configuration is valid");
    let clients = (0..CLIENTS)
        .map(|_| {
            (
                tx.try_clone().expect("endpoint budget covers the clients"),
                rx.try_clone().expect("endpoint budget covers the clients"),
            )
        })
        .collect();
    for seq in 0..PREFILL {
        tx.try_send(encode(PREFILL_SENDER, seq))
            .expect("the prefill fits the channel");
    }
    Setup { tx, rx, clients }
}

/// One client's results.
#[derive(Default)]
struct ClientOut {
    sent: u64,
    received: Received,
    latency: Windowed,
    units: u64,
    attempted: u64,
    failed: u64,
    /// Open loop: operations that fell due but were never issued.
    unissued: u64,
    layer: Layer,
    /// Traced: when each in-window send started, by sequence number.
    send_start: Vec<u64>,
    /// Traced: in-window receptions as `(value, time)`.
    got: Vec<(u64, u64)>,
}

/// One client's seeded inputs: when each operation is due (open loop)
/// and whether it sends or receives.
///
/// Open-loop clients arrive as independent Poisson streams: with strictly
/// periodic schedules the two clients' relative phase, and with it how
/// often their operations collide, would be fixed by the seed for the
/// whole run.
///
/// Operations come in pairs of one send and one receive, in seeded
/// order. The queue length then stays within a few values of the
/// prefill, instead of random-walking by a seed-dependent amount and
/// with it the tree size and the cost of every operation.
struct Ops {
    /// Open loop: the schedule, and the pace of catching up on it.
    arrivals: Option<(Arrivals, CatchUp)>,
    rng: Rng,
    /// The second operation of the current pair, if it is still due.
    pending: Option<bool>,
}

impl Ops {
    fn new(seed: u64, me: usize, pacing: Pacing) -> Ops {
        Ops {
            arrivals: match pacing {
                Pacing::Open { rate } => {
                    Some((Arrivals::poisson(seed, me as u64, rate), CatchUp::new(rate)))
                }
                Pacing::Closed => None,
            },
            rng: Rng::new(seed, me as u64),
            pending: None,
        }
    }

    /// When the next operation is due, ns after the schedule starts;
    /// `None` in a closed loop.
    fn next_due(&mut self) -> Option<u64> {
        self.arrivals.as_mut().and_then(|(a, _)| a.next())
    }

    /// Open loop: waits on `clock` until the operation due at `due` may be
    /// issued.
    fn wait_to_issue(&mut self, clock: Clock, due: u64) {
        if let Some((_, pace)) = &mut self.arrivals {
            let at = pace.earliest(due);
            let mut now = clock.now();
            while now < at {
                spin_loop();
                now = clock.now();
            }
            pace.issued(now);
        }
    }

    fn next_is_send(&mut self) -> bool {
        self.pending.take().unwrap_or_else(|| {
            let send = self.rng.next_u64() & 1 == 0;
            self.pending = Some(!send);
            send
        })
    }
}

/// A digest of the first `n` inputs of every client.
pub(crate) fn input_digest(seed: u64, pacing: Pacing, n: u64) -> u64 {
    (0..CLIENTS).fold(0, |h, me| {
        let mut ops = Ops::new(seed, me, pacing);
        (0..n).fold(h, |h, _| {
            let due = ops.next_due().unwrap_or(0);
            mix(h ^ due ^ (u64::from(ops.next_is_send()) << 63))
        })
    })
}

fn client(
    me: usize,
    (mut tx, mut rx): (Sender<u64>, Receiver<u64>),
    mut ops: Ops,
    clock: Clock,
    phase: Phase,
    traced: bool,
) -> ClientOut {
    let mut out = ClientOut {
        latency: Windowed::preallocated(phase.windows(), RESERVOIR_CAP),
        ..ClientOut::default()
    };
    let open = ops.arrivals.is_some();
    let mut k = 0u64;
    loop {
        let now = clock.now();
        let due = if let Some(rel) = ops.next_due() {
            let due = phase.start + rel;
            if due >= phase.end {
                break;
            }
            if now > phase.end + GRACE_NS {
                // Due but never issued: neither attempted nor failed.
                let rest = std::iter::from_fn(|| ops.next_due())
                    .take_while(|&d| phase.start + d < phase.end)
                    .count() as u64;
                out.unissued = 1 + rest;
                break;
            }
            ops.wait_to_issue(clock, due);
            due
        } else {
            if now >= phase.end {
                break;
            }
            now
        };
        let in_window = due >= phase.warm_end;
        let trace_op = traced && in_window;
        let steps0 = trace_op.then(wfqueue_metrics::snapshot);
        let t0 = if open { clock.now() } else { now };
        let sending = ops.next_is_send();
        let mut failed = false;
        let mut full_or_empty = false;
        let mut got = None;
        if sending {
            match tx.try_send(encode(me, out.sent)) {
                Ok(()) => out.sent += 1,
                Err(TrySendError::Full(_)) => full_or_empty = true,
                Err(TrySendError::Disconnected(_)) => failed = true,
            }
        } else {
            match rx.try_recv() {
                Ok(v) => got = Some(v),
                Err(TryRecvError::Empty) => full_or_empty = true,
                Err(TryRecvError::Disconnected) => failed = true,
            }
        }
        let t1 = clock.now();
        if let Some(v) = got {
            out.received.observe(v);
        }
        out.attempted += 1;
        if failed {
            out.failed += 1;
        } else if in_window {
            let latency = t1 - if open { due } else { t0 };
            out.latency.push(phase.window_of(due), latency);
            out.units += 1;
        }
        if let Some(steps0) = steps0 {
            let name = if sending {
                "channel.try_send"
            } else {
                "channel.try_recv"
            };
            let l = &mut out.layer;
            l.time(name, t1 - t0);
            l.steps(name, wfqueue_metrics::snapshot() - steps0);
            l.count(name, 1);
            if full_or_empty {
                l.count(
                    if sending {
                        "channel.try_send.full"
                    } else {
                        "channel.try_recv.empty"
                    },
                    1,
                );
            }
            if sending && !full_or_empty && !failed {
                let seq = out.sent as usize - 1;
                out.send_start.resize(seq + 1, 0);
                out.send_start[seq] = t0;
            }
            if let Some(v) = got {
                out.got.push((v, t1));
            }
            if open {
                l.time("gen_lag", t0 - due);
                l.count("gen.issued", 1);
                l.count("gen.late", u64::from(t0 - due > LATE_NS));
            }
            if k.is_multiple_of(SPAN_SAMPLE) {
                let request = ((me as u64) << 48) | k;
                let thread = me as u32;
                let parent = open.then_some("op");
                if open {
                    l.spans.push(Span {
                        name: "op",
                        request,
                        parent: None,
                        thread,
                        start_ns: due,
                        end_ns: t1,
                    });
                    l.spans.push(Span {
                        name: "gen_lag",
                        request,
                        parent,
                        thread,
                        start_ns: due,
                        end_ns: t0,
                    });
                }
                l.spans.push(Span {
                    name,
                    request,
                    parent,
                    thread,
                    start_ns: t0,
                    end_ns: t1,
                });
            }
        }
        k += 1;
    }
    out
}

/// Runs one pass of a mix workload.
pub(crate) fn run(
    backend: Backend,
    pacing: Pacing,
    seed: u64,
    phase_len: &PhaseLen,
    traced: bool,
) -> Pass {
    let mut pass = Pass::default();
    let mut setup = None;
    for _ in 0..phase_len.setups {
        let t = Instant::now();
        let s = set_up(backend);
        pass.setup_s.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let Setup {
        tx,
        mut rx,
        clients,
    } = setup.expect("at least one set-up");
    let clock = Clock::start();
    let phase = phase_len.starting(clock.now());
    let heap = crate::sample_heap(clock, phase);
    let mut allocs = None;
    let outs: Vec<ClientOut> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(me, ends)| {
                let ops = Ops::new(seed, me, pacing);
                s.spawn(move || client(me, ends, ops, clock, phase, traced))
            })
            .collect();
        let allocs0 = traced.then(|| {
            clock.sleep_until(phase.warm_end);
            trace::count_allocs(true)
        });
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        allocs = allocs0.map(|a0| trace::count_allocs(false) - a0);
        outs
    });
    let held = heap.join().expect("the heap sampler panicked");
    let memory = tx.memory_stats();

    // Drain what is left and audit.
    let mut drained = Received::default();
    while let Ok(v) = rx.try_recv() {
        drained.observe(v);
    }
    // What dropping the channel gives back is what it held; the clients'
    // records were allocated before the window and are still alive.
    drop((tx, rx));
    pass.heap_mb = held - crate::heap_in_use_mb();
    let mut totals = [Fingerprint::default(); SENDERS];
    let mut out_of_order = drained.out_of_order;
    let mut foreign = drained.foreign;
    for r in outs.iter().map(|o| &o.received).chain([&drained]) {
        for (t, p) in totals.iter_mut().zip(r.prints) {
            t.merge(p);
        }
    }
    for o in &outs {
        out_of_order += o.received.out_of_order;
        foreign += o.received.foreign;
    }
    let sent: Vec<u64> = outs.iter().map(|o| o.sent).chain([PREFILL]).collect();
    let received: u64 = outs
        .iter()
        .map(|o| o.received.prints.iter().map(|p| p.count).sum::<u64>())
        .sum();
    let drained_n: u64 = drained.prints.iter().map(|p| p.count).sum();
    if out_of_order + foreign > 0 {
        pass.audit.push(format!(
            "per-sender FIFO: {out_of_order} out-of-order and {foreign} unknown values"
        ));
    }
    for (s, (&n, total)) in sent.iter().zip(totals).enumerate() {
        if total != Fingerprint::of_first(n) {
            pass.audit.push(format!(
                "conservation: sender {s} sent {n} values but {} came back, or not exactly once",
                total.count
            ));
        }
    }
    pass.notes.push(format!(
        "audit: per-sender FIFO at {} receivers; sent {} = received {received} + drained {drained_n}",
        CLIENTS + 1,
        sent.iter().sum::<u64>()
    ));

    let mut layer = Layer {
        roles: Roles {
            send: "channel.try_send",
            recv: "channel.try_recv",
            handoff: "channel.handoff",
        },
        ..Layer::default()
    };
    for o in &outs {
        for &(v, t) in &o.got {
            let (s, seq) = decode(v);
            let start = outs
                .get(s)
                .and_then(|so| so.send_start.get(seq as usize))
                .copied()
                .unwrap_or(0);
            if start != 0 {
                layer.time("channel.handoff", t.saturating_sub(start));
            }
        }
    }
    let unissued: u64 = outs.iter().map(|o| o.unissued).sum();
    if unissued > 0 {
        pass.notes.push(format!(
            "unissued: {unissued} ops fell due but were never issued, as a client was still \
             {} s behind after the window",
            GRACE_NS as f64 / 1e9
        ));
    }
    for o in outs {
        pass.attempted += o.attempted;
        pass.failed += o.failed;
        pass.units += o.units;
        pass.latency.merge(o.latency);
        layer.merge(o.layer);
    }
    pass.rates = phase.rates(&pass.latency.counts());
    if let Some(allocs) = allocs {
        layer.units = pass.units;
        layer.allocs = allocs;
        layer.count("core.live_blocks_end", memory.live_blocks as u64);
        layer.count("core.reclaimed_blocks", memory.reclaimed_blocks as u64);
        pass.layer = Some(layer);
    }
    pass
}
