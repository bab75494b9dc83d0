//! Seeded input generators. Every input a workload feeds the system under
//! test comes from here, so one `--seed` fixes all of them.

/// The SplitMix64 finalizer: a cheap, well-mixed hash of one word.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An open-loop arrival schedule: bursts separated by exponential gaps,
/// at `rate` arrivals per second on average.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: Rng,
    next_ns: f64,
    mean_gap_ns: f64,
    bursty: bool,
    left_in_burst: u32,
}

/// Mean burst size of [`Arrivals::bursty`].
pub const MEAN_BURST: f64 = 13.0 / 16.0 + 4.0 / 8.0 + 12.0 / 16.0;

impl Arrivals {
    /// Poisson arrivals (bursts of one) on stream `stream` of `seed`.
    #[must_use]
    pub fn poisson(seed: u64, stream: u64, rate: f64) -> Arrivals {
        Arrivals {
            rng: Rng::new(seed, 0xA11 + stream),
            next_ns: 0.0,
            mean_gap_ns: 1e9 / rate,
            bursty: false,
            left_in_burst: 0,
        }
    }

    /// Bursts of 1, 4 or 12 arrivals (mean 2.25: weights 13/16, 1/8,
    /// 1/16) sharing one due time.
    #[must_use]
    pub fn bursty(seed: u64, rate: f64) -> Arrivals {
        Arrivals {
            mean_gap_ns: MEAN_BURST * 1e9 / rate,
            bursty: true,
            ..Arrivals::poisson(seed, 0, rate)
        }
    }
}

impl Iterator for Arrivals {
    /// Due time of the next arrival, in ns after the schedule start.
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.left_in_burst == 0 {
            self.next_ns += -self.mean_gap_ns * (1.0 - self.rng.unit()).ln();
            self.left_in_burst = if !self.bursty {
                1
            } else {
                match self.rng.next_u64() % 16 {
                    0 => 12,
                    1 | 2 => 4,
                    _ => 1,
                }
            };
        }
        self.left_in_burst -= 1;
        Some(self.next_ns as u64)
    }
}

/// One task of a fork-join tree: `budget` is the size of the subtree it
/// roots, itself included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    /// Hash-derived identity; drives the task's own inputs.
    pub id: u64,
    /// Tasks in this subtree, this one included (≥ 1).
    pub budget: u64,
}

/// What one fork-join task does: hash `rounds` times, then spawn its
/// children (whose budgets sum to the task's budget minus one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPlan {
    /// Hash rounds of the task body (0–63).
    pub rounds: u32,
    kids: [TaskSpec; 4],
    len: usize,
}

impl TaskPlan {
    /// Children to spawn, 2–4 while the budget allows.
    #[must_use]
    pub fn children(&self) -> &[TaskSpec] {
        &self.kids[..self.len]
    }
}

/// Splits a task of a tree of `tree` tasks.
///
/// Subtrees above `tree / 32` tasks split evenly four ways, so the top of
/// the tree fans out into 64 *spines* whatever the seed. Below that, each
/// task spawns 2–4 children: one heavy child, and siblings of 1–8 tasks
/// each. The FIFO local rings run a tree breadth-first, so this shape
/// keeps the live frontier at a few hundred tasks, within the rings.
#[must_use]
pub fn plan(seed: u64, tree: u64, task: TaskSpec) -> TaskPlan {
    let h = mix(seed ^ task.id);
    let mut rest = task.budget - 1;
    let even = task.budget > tree / 32;
    let k = if even { 4 } else { 2 + (h >> 6) % 3 }.min(rest);
    let mut kids = [TaskSpec { id: 0, budget: 0 }; 4];
    for (j, kid) in (0..k).zip(kids.iter_mut()) {
        let budget = if even {
            rest / (k - j)
        } else if j + 1 == k {
            rest
        } else {
            // Leave at least one task for each later sibling.
            (1 + (h >> (8 + 3 * j)) % 8).min(rest - (k - 1 - j))
        };
        rest -= budget;
        *kid = TaskSpec {
            id: mix(task.id ^ (j + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)),
            budget,
        };
    }
    TaskPlan {
        rounds: (h & 63) as u32,
        kids,
        len: k as usize,
    }
}

/// The root of tree number `index` of a run.
#[must_use]
pub fn tree_root(seed: u64, index: u64, tree: u64) -> TaskSpec {
    TaskSpec {
        id: mix(seed ^ mix(index ^ 0x7EE)),
        budget: tree,
    }
}

/// The body of a fork-join task: `rounds` dependent hash rounds.
#[must_use]
pub fn task_body(id: u64, rounds: u32) -> u64 {
    (0..rounds).fold(id, |x, _| mix(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subtree_size(seed: u64, tree: u64, task: TaskSpec) -> u64 {
        let p = plan(seed, tree, task);
        assert!(p.children().iter().all(|c| c.budget >= 1));
        let sum: u64 = p.children().iter().map(|c| c.budget).sum();
        assert_eq!(sum, task.budget - 1);
        1 + p
            .children()
            .iter()
            .map(|&c| subtree_size(seed, tree, c))
            .sum::<u64>()
    }

    #[test]
    fn trees_have_exactly_their_budget() {
        for seed in 0..4 {
            let root = tree_root(seed, 0, 5_000);
            assert_eq!(subtree_size(seed, 5_000, root), 5_000);
        }
    }

    #[test]
    fn arrivals_average_the_rate() {
        let n = 200_000;
        for arrivals in [
            Arrivals::bursty(7, 30_000.0),
            Arrivals::poisson(7, 1, 30_000.0),
        ] {
            let last = arrivals.clone().nth(n - 1).unwrap();
            let rate = n as f64 / (last as f64 / 1e9);
            assert!((rate / 30_000.0 - 1.0).abs() < 0.03, "{rate}");
        }
    }
}
