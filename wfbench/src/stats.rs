//! Percentiles over raw samples.
//!
//! Percentiles interpolate linearly between order statistics, so a
//! reported value keeps every digit the samples give it.

/// The `q`-quantile (`q` in `[0, 1]`) of ascending `sorted`; 0 when empty.
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// The median of `values` (sorted in place); 0 when empty.
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The highest quantile that has at least ten of `n` samples beyond it,
/// or `None` below 20 samples.
#[must_use]
pub fn tail_quantile(n: usize) -> Option<f64> {
    (n >= 20).then(|| 1.0 - 10.0 / n as f64)
}

/// Latency samples (ns) bucketed by the window they fall in; each window
/// keeps an evenly thinned sample (a [`Reservoir`]).
#[derive(Debug, Default, Clone)]
pub struct Windowed {
    windows: Vec<Reservoir>,
}

impl Windowed {
    /// `n` windows with room for `per_window` samples each, allocated
    /// now. Recording up to that many (or any number, when `per_window`
    /// is [`RESERVOIR_CAP`]) allocates nothing, so the heap readings
    /// behind `heap_mb` change only with the system under test.
    #[must_use]
    pub fn preallocated(n: usize, per_window: usize) -> Windowed {
        Windowed {
            windows: (0..n)
                .map(|_| Reservoir::with_capacity(per_window))
                .collect(),
        }
    }

    /// Records `ns` in window `window`.
    pub fn push(&mut self, window: usize, ns: u64) {
        if self.windows.len() <= window {
            self.windows.resize_with(window + 1, Reservoir::default);
        }
        self.windows[window].push(ns);
    }

    /// Moves `other`'s samples into `self`.
    pub fn merge(&mut self, other: Windowed) {
        for (w, samples) in other.windows.into_iter().enumerate() {
            if self.windows.len() <= w {
                self.windows.resize_with(w + 1, Reservoir::default);
            }
            self.windows[w].merge(samples);
        }
    }

    /// Samples per window.
    #[must_use]
    pub fn counts(&self) -> Vec<u64> {
        self.windows.iter().map(Reservoir::seen).collect()
    }

    /// Summarises the samples (sorting each window in place).
    pub fn summary(&mut self) -> Summary {
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for w in self.windows.iter_mut().filter(|w| w.seen > 0) {
            w.kept.sort_unstable();
            p50s.push(percentile(&w.kept, 0.5));
            p99s.push(percentile(&w.kept, 0.99));
        }
        // Every window thinned alike, so each kept value weighs the same.
        let stride = self.windows.iter().map(|w| w.stride).max().unwrap_or(1);
        let mut all = Vec::new();
        for w in &self.windows {
            let mut w = w.clone();
            w.thin_to(stride);
            all.append(&mut w.kept);
        }
        all.sort_unstable();
        Summary {
            count: self.windows.iter().map(Reservoir::seen).sum::<u64>() as usize,
            windows: p50s.len(),
            p50: median(&mut p50s),
            p99: median(&mut p99s),
            tail: tail_quantile(all.len()).map(|q| (q, percentile(&all, q))),
        }
    }
}

/// Latency summary in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Samples.
    pub count: usize,
    /// Windows with at least one sample.
    pub windows: usize,
    /// Median of the per-window medians.
    pub p50: f64,
    /// Median of the per-window 99th percentiles.
    pub p99: f64,
    /// Over every sample: the highest quantile with ≥ 10 samples beyond
    /// it, and its value.
    pub tail: Option<(f64, f64)>,
}

/// A bounded, evenly thinned sample: keeps every `stride`-th value and
/// doubles the stride (dropping every other kept value) when full.
#[derive(Debug, Clone)]
pub struct Reservoir {
    kept: Vec<u64>,
    stride: u64,
    seen: u64,
}

/// Values a [`Reservoir`] keeps at most.
pub const RESERVOIR_CAP: usize = 1 << 17;

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            kept: Vec::new(),
            stride: 1,
            seen: 0,
        }
    }
}

impl Reservoir {
    /// An empty reservoir with room for `n` values, at most
    /// [`RESERVOIR_CAP`]: all it will ever keep.
    #[must_use]
    pub fn with_capacity(n: usize) -> Reservoir {
        Reservoir {
            kept: Vec::with_capacity(n.min(RESERVOIR_CAP)),
            ..Reservoir::default()
        }
    }

    /// Offers one value.
    pub fn push(&mut self, v: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == RESERVOIR_CAP {
                self.halve();
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(v);
            }
        }
        self.seen += 1;
    }

    /// Drops every other kept value and doubles the stride.
    fn halve(&mut self) {
        let mut i = 0;
        self.kept.retain(|_| {
            i += 1;
            i % 2 == 1
        });
        self.stride *= 2;
    }

    /// Halves until the stride is at least `stride`.
    fn thin_to(&mut self, stride: u64) {
        while self.stride < stride {
            self.halve();
        }
    }

    /// Values offered.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Moves `other`'s kept values into `self`. The less thinned of the
    /// two is first thinned to the other's stride, so that every kept
    /// value stands for as many offered values as any other.
    pub fn merge(&mut self, mut other: Reservoir) {
        let stride = self.stride.max(other.stride);
        self.thin_to(stride);
        other.thin_to(stride);
        self.kept.append(&mut other.kept);
        self.seen += other.seen;
        while self.kept.len() > RESERVOIR_CAP {
            self.halve();
        }
    }

    /// The `q`-quantile of the kept values.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.kept.clone();
        v.sort_unstable();
        percentile(&v, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_quantile_leaves_ten_beyond() {
        assert_eq!(tail_quantile(19), None);
        let q = tail_quantile(1_000).unwrap();
        assert!((q - 0.99).abs() < 1e-12);
    }

    #[test]
    fn windowed_percentiles_take_the_median_window() {
        let mut w = Windowed::default();
        for (window, scale) in [(0, 1), (1, 100), (2, 2)] {
            for i in 1..=1_000u64 {
                w.push(window, i * scale);
            }
        }
        assert_eq!(w.counts(), vec![1_000; 3]);
        let s = w.summary();
        assert_eq!((s.count, s.windows), (3_000, 3));
        assert!((s.p99 - 2.0 * 990.01).abs() < 1e-6);
        assert!((s.p50 - 2.0 * 500.5).abs() < 1e-6);
    }

    #[test]
    fn reservoir_thins_evenly() {
        let mut r = Reservoir::default();
        for i in 0..1_000_000u64 {
            r.push(i);
        }
        assert_eq!(r.seen(), 1_000_000);
        assert!(r.kept.len() <= RESERVOIR_CAP);
        let p50 = r.quantile(0.5);
        assert!((p50 - 500_000.0).abs() < 10_000.0, "{p50}");
    }

    #[test]
    fn merge_weights_unequal_strides_evenly() {
        // 1M ones thin to stride 8; 1,000 twos keep stride 1. The twos are
        // 0.1% of the values offered, so the 99.5th percentile is a one.
        let (mut ones, mut twos) = (Reservoir::default(), Reservoir::default());
        (0..1_000_000).for_each(|_| ones.push(1));
        (0..1_000).for_each(|_| twos.push(2));
        assert!(ones.stride > twos.stride);
        ones.merge(twos);
        assert_eq!(ones.seen(), 1_001_000);
        assert_eq!(ones.quantile(0.995), 1.0);

        let mut full = Reservoir::default();
        (0..RESERVOIR_CAP as u64).for_each(|i| full.push(i));
        full.merge(full.clone());
        assert!(full.kept.len() <= RESERVOIR_CAP);
    }
}
