//! Experiment helpers (scales, environment detection, printing).

/// Thread counts ("p") swept by the scaling experiments. Kept modest so the
/// full suite completes quickly even on small CI machines; pass `--full` to
/// an experiment binary to extend the sweep.
pub const P_SWEEP: &[usize] = &[1, 2, 4, 8, 16, 32];

/// Extended sweep used with `--full`.
pub const P_SWEEP_FULL: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128];

/// Returns the sweep selected by the command line.
pub fn p_sweep() -> &'static [usize] {
    if std::env::args().any(|a| a == "--full") {
        P_SWEEP_FULL
    } else {
        P_SWEEP
    }
}

/// log2 of a positive number, as f64.
pub fn log2(x: f64) -> f64 {
    x.log2()
}

/// The `permille`/1000 percentile of ascending-sorted samples, by the
/// floor rule: the sample at index `⌊(n − 1) · permille / 1000⌋`, so
/// `500` is the median and `1000` the maximum.
///
/// # Panics
///
/// Panics if `sorted_ns` is empty.
pub fn percentile(sorted_ns: &[u64], permille: u64) -> u64 {
    let idx = (sorted_ns.len() as u64 - 1) * permille / 1_000;
    sorted_ns[idx as usize]
}
