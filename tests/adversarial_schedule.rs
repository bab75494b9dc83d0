//! Safety under the adversarial scheduler: with every read-to-CAS race
//! window yielding the CPU, CAS failures (and the helping/double-refresh
//! paths they trigger) occur constantly. All audits must still pass — on
//! both queue variants and with aggressive GC.
//!
//! (Kept in its own integration-test binary because the adversary switch is
//! process-global; every test here wants it enabled.)

use wfqueue_harness::queue_api::{WfBounded, WfRing, WfUnbounded};
use wfqueue_harness::workload::{run_workload, WorkloadSpec};

fn spec(threads: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        threads,
        ops_per_thread: 1_200,
        enqueue_permille: 500,
        prefill: 64,
        seed,
    }
}

#[test]
fn adversarial_stress_all_variants() {
    wfqueue_metrics::set_adversary(true);

    for threads in [2, 4, 8] {
        let q = WfUnbounded::new(threads);
        let r = run_workload(&q, &spec(threads, 0xAD0 + threads as u64));
        assert!(r.audits_ok(), "wf-unbounded p={threads}: {r:?}");
        wfqueue::unbounded::introspect::check_invariants(&q.0).unwrap();

        let q = WfBounded::with_gc_period(threads, 4);
        let r = run_workload(&q, &spec(threads, 0xAD1 + threads as u64));
        assert!(r.audits_ok(), "wf-bounded p={threads}: {r:?}");
        wfqueue::bounded::introspect::check_invariants(&q.0).unwrap();

        // Ring capacity well above the workload's random-walk excursion
        // (≈ prefill + √ops): the adapter spins on Full, which is
        // harmless backpressure here but would serialise the test if it
        // dominated.
        let q = WfRing::new(threads, 1 << 12);
        let r = run_workload(&q, &spec(threads, 0xAD3 + threads as u64));
        assert!(r.audits_ok(), "wf-ring p={threads}: {r:?}");
    }

    wfqueue_metrics::set_adversary(false);
}

#[test]
fn adversary_increases_failed_cas_but_not_correctness() {
    // Not a fixed threshold on *how many* CAS fail (schedule-dependent);
    // just that the adversarial run stays correct and the wf queue's
    // worst-case op stays within its per-level budget.
    wfqueue_metrics::set_adversary(true);
    let threads = 6;
    let q = WfUnbounded::new(threads);
    let r = run_workload(&q, &spec(threads, 0xAD9));
    assert!(r.audits_ok());
    let max_cas = r
        .enqueue
        .cas_max
        .max(r.dequeue_hit.cas_max)
        .max(r.dequeue_null.cas_max);
    // Height for p=6 is 3; ≤ ~7 CAS per level even when every window loses.
    assert!(max_cas <= 64, "wf single-op CAS exploded: {max_cas}");
    wfqueue_metrics::set_adversary(false);
}
