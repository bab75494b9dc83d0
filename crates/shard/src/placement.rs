//! Hardware-topology discovery and shard placement.
//!
//! This module answers one question for the routing layer: *which shards
//! are near each other, and which shard is nearest to a given handle?*
//! It discovers the machine's core/cache-domain layout from
//! `/sys/devices/system/cpu` (cores sharing a last-level cache form one
//! **domain**), falls back to a deterministic single-domain layout when
//! sysfs is unavailable (CI containers, non-Linux), and precomputes a
//! nearest-first scan order per home shard that
//! [`Routing::Nearest`](crate::Routing::Nearest) consumes on every dequeue
//! sweep.
//!
//! **Not to be confused with `crates/core/src/topology.rs`**, which is the
//! paper's §3.1 *ordering-tree* topology — the implicit-heap index
//! arithmetic of the tournament tree inside one queue. That topology is a
//! proof artifact (it decides where a propagation step goes); this module
//! is a performance artifact (it decides which shard a handle should talk
//! to so cache lines stay local). See `DESIGN.md` § "Two topologies".
//!
//! Everything here is plain immutable data computed at queue construction;
//! the hot path only ever indexes into precomputed slices, so placement
//! adds zero shared-memory steps to any operation.

use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

/// Where a [`HwTopology`] came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySource {
    /// Parsed from `/sys/devices/system/cpu` (or a caller-provided root).
    Sysfs,
    /// Deterministic fallback (sysfs unavailable or unparsable).
    Fallback,
}

/// The machine's CPU layout as the routing layer sees it: a list of
/// **cache domains**, each holding the ids of the CPUs that share a
/// last-level cache.
///
/// # Examples
///
/// ```
/// use wfqueue_shard::placement::HwTopology;
///
/// // A deterministic 8-CPU / 2-domain layout (no sysfs involved).
/// let topo = HwTopology::uniform(8, 2);
/// assert_eq!(topo.num_cpus(), 8);
/// assert_eq!(topo.num_domains(), 2);
/// assert_eq!(topo.domain_of_cpu(0), Some(0));
/// assert_eq!(topo.domain_of_cpu(7), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwTopology {
    /// `domains[d]` = sorted CPU ids in cache domain `d`; domains are
    /// ordered by their smallest CPU id.
    domains: Vec<Vec<usize>>,
    source: TopologySource,
}

impl HwTopology {
    /// Discovers the topology of the current machine, parsing
    /// `/sys/devices/system/cpu`. Falls back to [`HwTopology::uniform`]
    /// over [`std::thread::available_parallelism`] CPUs in one domain when
    /// sysfs is unavailable, so the result is always usable and CI is
    /// deterministic.
    ///
    /// The detected topology is cached process-wide (the sysfs walk runs
    /// once, not once per queue).
    #[must_use]
    pub fn detect() -> Self {
        static DETECTED: OnceLock<HwTopology> = OnceLock::new();
        DETECTED
            .get_or_init(|| {
                Self::from_sysfs_root(Path::new("/sys/devices/system/cpu"))
                    .unwrap_or_else(Self::fallback)
            })
            .clone()
    }

    /// Deterministic fallback layout: every visible CPU in one domain.
    fn fallback() -> Self {
        let cpus = wfqueue_sync::thread::available_parallelism().map_or(1, usize::from);
        let mut topo = Self::uniform(cpus, 1);
        topo.source = TopologySource::Fallback;
        topo
    }

    /// Parses a sysfs CPU tree rooted at `root` (normally
    /// `/sys/devices/system/cpu`). CPUs are grouped into domains by their
    /// last-level-cache sharing list (`cache/index3/shared_cpu_list`),
    /// falling back to the physical package id when no L3 is described.
    /// Returns `None` when the tree yields no CPUs at all.
    #[must_use]
    pub fn from_sysfs_root(root: &Path) -> Option<Self> {
        let entries = std::fs::read_dir(root).ok()?;
        // (domain key, cpu id); the key is the raw sharing-list string —
        // CPUs with identical lists share a last-level cache.
        let mut cpus: Vec<(String, usize)> = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(id) = name
                .strip_prefix("cpu")
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            let cpu_dir = entry.path();
            let key = std::fs::read_to_string(cpu_dir.join("cache/index3/shared_cpu_list"))
                .or_else(|_| std::fs::read_to_string(cpu_dir.join("topology/physical_package_id")))
                .map_or_else(|_| String::from("?"), |s| s.trim().to_string());
            cpus.push((key, id));
        }
        if cpus.is_empty() {
            return None;
        }
        cpus.sort_by_key(|&(_, id)| id);
        let mut keys: Vec<String> = Vec::new();
        let mut domains: Vec<Vec<usize>> = Vec::new();
        for (key, id) in cpus {
            match keys.iter().position(|k| *k == key) {
                Some(d) => domains[d].push(id),
                None => {
                    keys.push(key);
                    domains.push(vec![id]);
                }
            }
        }
        Some(HwTopology {
            domains,
            source: TopologySource::Sysfs,
        })
    }

    /// A deterministic synthetic layout: `num_cpus` CPUs split as evenly
    /// as possible over `num_domains` domains (earlier domains take the
    /// remainder). Intended for tests and for explicit
    /// [`PlacementConfig::Uniform`] configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` or `num_domains` is zero.
    #[must_use]
    pub fn uniform(num_cpus: usize, num_domains: usize) -> Self {
        assert!(num_cpus > 0, "need at least one CPU");
        assert!(num_domains > 0, "need at least one domain");
        let num_domains = num_domains.min(num_cpus);
        let mut domains = vec![Vec::new(); num_domains];
        let per = num_cpus / num_domains;
        let extra = num_cpus % num_domains;
        let mut next = 0;
        for (d, dom) in domains.iter_mut().enumerate() {
            let take = per + usize::from(d < extra);
            dom.extend(next..next + take);
            next += take;
        }
        HwTopology {
            domains,
            source: TopologySource::Fallback,
        }
    }

    /// Number of CPUs in the layout.
    #[must_use]
    pub fn num_cpus(&self) -> usize {
        self.domains.iter().map(Vec::len).sum()
    }

    /// Number of cache domains.
    #[must_use]
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// The domain a CPU id belongs to, or `None` for unknown CPUs.
    #[must_use]
    pub fn domain_of_cpu(&self, cpu: usize) -> Option<usize> {
        self.domains.iter().position(|d| d.contains(&cpu))
    }

    /// Where this layout came from.
    #[must_use]
    pub fn source(&self) -> TopologySource {
        self.source
    }
}

/// How a sharded queue should derive its [`Placement`] — the `Copy`
/// value that `ShardedQueue::build` and the channel builder's
/// `placement` knob take.
///
/// # Examples
///
/// ```
/// use wfqueue_shard::placement::{Placement, PlacementConfig};
///
/// // Explicit synthetic layout: 4 shards over 2 domains of 2 CPUs each.
/// let p = PlacementConfig::Uniform { cpus: 4, domains: 2 }.resolve(4);
/// assert_eq!(p.domain_of_shard(0), 0);
/// assert_eq!(p.domain_of_shard(1), 1, "shards round-robin over domains");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementConfig {
    /// Discover the machine topology via [`HwTopology::detect`] (cached;
    /// deterministic single-domain fallback when sysfs is unavailable).
    #[default]
    Detect,
    /// A synthetic [`HwTopology::uniform`] layout — deterministic across
    /// machines, the right choice for tests and reproducible benchmarks.
    Uniform {
        /// Total CPUs in the synthetic layout.
        cpus: usize,
        /// Cache domains the CPUs are split over.
        domains: usize,
    },
    /// No locality structure at all: one domain, one CPU per shard. The
    /// nearest-first scan order degenerates to the cyclic order the legacy
    /// sweep used.
    Flat,
}

impl PlacementConfig {
    /// Resolves this configuration into a concrete [`Placement`] for
    /// `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    #[must_use]
    pub fn resolve(self, num_shards: usize) -> Placement {
        match self {
            PlacementConfig::Detect => Placement::new(&HwTopology::detect(), num_shards),
            PlacementConfig::Uniform { cpus, domains } => {
                Placement::new(&HwTopology::uniform(cpus, domains), num_shards)
            }
            PlacementConfig::Flat => Placement::flat(num_shards),
        }
    }
}

/// The placement of a queue's shards onto a [`HwTopology`]: which domain
/// each shard lives in, and — precomputed for the hot path — the
/// nearest-first order in which a handle homed on shard `s` should scan
/// all shards.
///
/// Shards are assigned to domains round-robin (`shard s → domain s mod
/// D`), so any `S ≥ D` spreads shards over every cache domain and
/// same-domain shards are exactly those congruent mod `D`.
///
/// # Examples
///
/// ```
/// use wfqueue_shard::placement::{HwTopology, Placement};
///
/// let topo = HwTopology::uniform(8, 2);
/// let p = Placement::new(&topo, 4);
/// // Shard 0's scan visits itself, then its domain sibling (shard 2),
/// // then the other domain's shards — nearest first.
/// assert_eq!(p.scan_order(0), &[0, 2, 1, 3]);
/// assert_eq!(p.distance(0, 2), 1, "same domain");
/// assert!(p.distance(0, 1) > p.distance(0, 2), "cross-domain is farther");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    num_shards: usize,
    num_domains: usize,
    /// `shard_domain[s]` = domain of shard `s`.
    shard_domain: Vec<usize>,
    /// `scan_orders[s]` = every shard, sorted nearest-first from `s`
    /// (`s` itself first; ties broken by cyclic shard index so orders are
    /// deterministic and handles homed on different shards diverge).
    scan_orders: Vec<Vec<usize>>,
}

impl Placement {
    /// Places `num_shards` shards round-robin over the domains of `topo`
    /// and precomputes every home shard's nearest-first scan order.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    #[must_use]
    pub fn new(topo: &HwTopology, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let num_domains = topo.num_domains().min(num_shards);
        let shard_domain: Vec<usize> = (0..num_shards).map(|s| s % num_domains).collect();
        let mut placement = Placement {
            num_shards,
            num_domains,
            shard_domain,
            scan_orders: Vec::new(),
        };
        placement.scan_orders = (0..num_shards)
            .map(|home| {
                let mut order: Vec<usize> = (0..num_shards).collect();
                order.sort_by_key(|&t| {
                    (
                        placement.distance(home, t),
                        (t + num_shards - home) % num_shards,
                    )
                });
                order
            })
            .collect();
        placement
    }

    /// A placement with no locality structure: one domain, so every scan
    /// order is the plain cyclic order starting at the home shard —
    /// exactly the legacy rotating sweep's probe order.
    ///
    /// # Examples
    ///
    /// ```
    /// use wfqueue_shard::placement::Placement;
    ///
    /// let p = Placement::flat(4);
    /// assert_eq!(p.scan_order(2), &[2, 3, 0, 1]);
    /// ```
    #[must_use]
    pub fn flat(num_shards: usize) -> Self {
        Self::new(&HwTopology::uniform(num_shards.max(1), 1), num_shards)
    }

    /// Number of shards placed.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Number of cache domains the shards span.
    #[must_use]
    pub fn num_domains(&self) -> usize {
        self.num_domains
    }

    /// The domain shard `s` lives in.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn domain_of_shard(&self, s: usize) -> usize {
        self.shard_domain[s]
    }

    /// Routing distance between two shards: `0` for the same shard, `1`
    /// for distinct shards sharing a cache domain, and `1 +` the cyclic
    /// domain distance otherwise (so "one domain over" beats "two domains
    /// over" deterministically).
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> usize {
        if a == b {
            return 0;
        }
        let (da, db) = (self.shard_domain[a], self.shard_domain[b]);
        if da == db {
            1
        } else {
            1 + (db + self.num_domains - da) % self.num_domains
        }
    }

    /// Every shard, nearest first from `home` (`home` itself leads). This
    /// is the probe order of the contention-aware dequeue scan.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range.
    #[must_use]
    pub fn scan_order(&self, home: usize) -> &[usize] {
        &self.scan_orders[home]
    }

    /// The default home shard for composite handle `handle_index` —
    /// `handle_index mod num_shards`, the pinning rule of both routing
    /// policies, and (because shards round-robin over domains) it
    /// already spreads consecutive handles over cache domains.
    #[must_use]
    pub fn home_for(&self, handle_index: usize) -> usize {
        handle_index % self.num_shards
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shards over {} domain(s)",
            self.num_shards, self.num_domains
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_splits_evenly_with_remainder_first() {
        let t = HwTopology::uniform(5, 2);
        assert_eq!(t.num_cpus(), 5);
        assert_eq!(t.domains, vec![vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(t.domain_of_cpu(2), Some(0));
        assert_eq!(t.domain_of_cpu(3), Some(1));
        assert_eq!(t.domain_of_cpu(9), None);
    }

    #[test]
    fn uniform_caps_domains_at_cpus() {
        let t = HwTopology::uniform(2, 8);
        assert_eq!(t.num_domains(), 2);
    }

    #[test]
    fn detect_always_yields_a_usable_topology() {
        let t = HwTopology::detect();
        assert!(t.num_cpus() >= 1);
        assert!(t.num_domains() >= 1);
        // Cached: a second detect agrees.
        assert_eq!(HwTopology::detect(), t);
    }

    #[test]
    fn sysfs_parse_on_this_machine_if_present() {
        // On Linux CI this exercises the real parser; elsewhere the
        // fallback path is what detect() returns and this is vacuous.
        if let Some(t) = HwTopology::from_sysfs_root(Path::new("/sys/devices/system/cpu")) {
            assert!(t.num_cpus() >= 1);
            assert_eq!(t.source(), TopologySource::Sysfs);
        }
    }

    #[test]
    fn flat_scan_order_is_cyclic() {
        let p = Placement::flat(4);
        assert_eq!(p.scan_order(0), &[0, 1, 2, 3]);
        assert_eq!(p.scan_order(3), &[3, 0, 1, 2]);
        assert_eq!(p.num_domains(), 1);
    }

    #[test]
    fn two_domain_scan_order_prefers_domain_siblings() {
        let p = Placement::new(&HwTopology::uniform(8, 2), 8);
        // Shards 0,2,4,6 in domain 0; 1,3,5,7 in domain 1.
        assert_eq!(p.scan_order(0), &[0, 2, 4, 6, 1, 3, 5, 7]);
        assert_eq!(p.scan_order(3), &[3, 5, 7, 1, 4, 6, 0, 2]);
        for s in 0..8 {
            let mut sorted = p.scan_order(s).to_vec();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                (0..8).collect::<Vec<_>>(),
                "order {s} is a permutation"
            );
            assert_eq!(p.scan_order(s)[0], s, "home leads its own order");
        }
    }

    #[test]
    fn more_domains_than_shards_folds() {
        let p = Placement::new(&HwTopology::uniform(8, 4), 2);
        assert_eq!(p.num_domains(), 2);
        assert_eq!(p.domain_of_shard(0), 0);
        assert_eq!(p.domain_of_shard(1), 1);
    }

    #[test]
    fn distance_is_zero_iff_same_shard() {
        let p = Placement::new(&HwTopology::uniform(4, 2), 4);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(p.distance(a, b) == 0, a == b);
            }
        }
        assert_eq!(p.distance(0, 2), 1);
        assert_eq!(p.distance(0, 1), 2);
    }

    #[test]
    fn config_resolution() {
        assert_eq!(PlacementConfig::Flat.resolve(3).scan_order(1), &[1, 2, 0]);
        let p = PlacementConfig::Uniform {
            cpus: 4,
            domains: 2,
        }
        .resolve(4);
        assert_eq!(p.num_domains(), 2);
        let d = PlacementConfig::Detect.resolve(2);
        assert_eq!(d.num_shards(), 2);
        assert_eq!(PlacementConfig::default(), PlacementConfig::Detect);
    }

    #[test]
    fn home_for_matches_legacy_pin() {
        let p = Placement::flat(3);
        for i in 0..9 {
            assert_eq!(p.home_for(i), i % 3);
        }
    }
}
