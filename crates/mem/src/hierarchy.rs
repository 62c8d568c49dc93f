//! The private-L1s → shared-L2 → DRAM texture hierarchy.

use crate::cache::{CacheConfig, SetAssocCache};
use crate::dram::{DramConfig, DramModel};
use crate::lane::{L1Lane, LaneHandle, SharedL2};
use crate::stats::HierarchyStats;
use crate::LineAddr;

/// Replacement policy selector for the hierarchy's caches.
///
/// The baseline GPU uses LRU (Table II); the other policies exist for
/// ablation studies showing DTexL's gains are not LRU artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementKind {
    /// Least recently used (baseline).
    #[default]
    Lru,
    /// First in, first out.
    Fifo,
    /// Deterministic pseudo-random.
    Random,
}

/// Configuration of the texture memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextureHierarchyConfig {
    /// Number of shader cores / private L1 texture caches.
    pub num_l1: usize,
    /// Geometry of each private L1.
    pub l1: CacheConfig,
    /// Geometry of the shared L2.
    pub l2: CacheConfig,
    /// DRAM latency window.
    pub dram: DramConfig,
    /// Replacement policy for the L1s and the L2.
    pub replacement: ReplacementKind,
    /// Next-line prefetch on L1 misses (the simple form of the
    /// decoupled-prefetching related work the paper cites). On a
    /// demand miss, line+1 is also brought into the missing L1;
    /// prefetch fills consume L2 bandwidth (counted in the L2
    /// statistics) but add no demand latency.
    pub prefetch_next_line: bool,
}

impl Default for TextureHierarchyConfig {
    /// Table II baseline: 4 × 16 KiB L1, 1 MiB L2, 50–100-cycle DRAM.
    fn default() -> Self {
        Self {
            num_l1: 4,
            l1: CacheConfig::texture_l1(),
            l2: CacheConfig::l2(),
            dram: DramConfig::default(),
            replacement: ReplacementKind::Lru,
            prefetch_next_line: false,
        }
    }
}

impl TextureHierarchyConfig {
    /// The Fig. 16 upper-bound arrangement: a single shader core whose L1
    /// is `factor ×` the private size (aggregating all private capacity,
    /// with no replication possible).
    #[must_use]
    pub fn upper_bound(mut self, factor: u64) -> Self {
        self.l1 = self.l1.scaled(factor);
        self.num_l1 = 1;
        self
    }
}

/// Result of one texture access through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Hit in the requesting core's private L1.
    pub l1_hit: bool,
    /// On L1 miss: hit in the shared L2.
    pub l2_hit: bool,
    /// Load-to-use latency in cycles, including lower levels.
    pub latency: u32,
}

/// The texture memory hierarchy of the modeled GPU: one private L1 per
/// shader core, a shared L2, and DRAM behind it.
///
/// This is the structure whose *aggregated capacity* DTexL's scheduling
/// protects: when adjacent quads land on different cores, the same line
/// is filled into several private L1s (replication), effectively
/// shrinking the total cache.
///
/// # Examples
///
/// ```
/// use dtexl_mem::{TextureHierarchy, TextureHierarchyConfig};
/// let mut h = TextureHierarchy::new(TextureHierarchyConfig::default());
/// h.access(0, 7);
/// h.access(1, 7);
/// // The same line now occupies space in two private L1s:
/// assert_eq!(h.stats().l2.accesses, 2);
/// ```
#[derive(Debug)]
pub struct TextureHierarchy {
    config: TextureHierarchyConfig,
    lanes: Vec<L1Lane>,
    shared: SharedL2,
}

impl TextureHierarchy {
    /// Build the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_l1 == 0` or any cache geometry is
    /// degenerate.
    #[must_use]
    pub fn new(config: TextureHierarchyConfig) -> Self {
        assert!(config.num_l1 > 0, "need at least one L1");
        Self {
            config,
            lanes: (0..config.num_l1)
                .map(|_| {
                    L1Lane::new(
                        SetAssocCache::with_replacement(config.l1, config.replacement),
                        config.prefetch_next_line,
                    )
                })
                .collect(),
            shared: SharedL2::new(
                SetAssocCache::with_replacement(config.l2, config.replacement),
                DramModel::new(config.dram),
            ),
        }
    }

    /// The hierarchy's configuration.
    #[must_use]
    pub fn config(&self) -> &TextureHierarchyConfig {
        &self.config
    }

    /// Access `line` from shader core `sc`: a [`LaneHandle`] of one
    /// access.
    ///
    /// The lane's L1 is accessed first (the demand line, then any
    /// next-line prefetch fill), then the shared L2 sees the demand
    /// request, then the prefetch.
    ///
    /// # Panics
    ///
    /// Panics if `sc >= num_l1`.
    #[inline]
    pub fn access(&mut self, sc: usize, line: LineAddr) -> AccessResult {
        match self.config.l1.ways {
            4 => self.lane::<4>(sc).access(line),
            8 => self.lane::<8>(sc).access(line),
            _ => self.lane::<0>(sc).access(line),
        }
    }

    /// Open shader core `sc`'s handle for a run of accesses, its L1
    /// lookup compiled for `W` ways (`W == 0` reads the width at run
    /// time).
    ///
    /// # Panics
    ///
    /// Panics if `sc >= num_l1`. In debug builds the handle's accesses
    /// panic if `W` is neither 0 nor the L1's associativity.
    #[inline(always)]
    pub fn lane<const W: usize>(&mut self, sc: usize) -> LaneHandle<'_, W> {
        LaneHandle::new(&mut self.lanes[sc], &mut self.shared)
    }

    /// Cumulative shared-level counters: a constant-time snapshot
    /// meant to bracket a window of accesses.
    #[must_use]
    pub fn shared_counters(&self) -> crate::stats::MemCounters {
        self.shared.counters()
    }

    /// Snapshot of all statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.lanes.iter().map(|l| l.l1().stats()).collect(),
            l2: self.shared.l2().stats(),
            dram_accesses: self.shared.dram().requests(),
            distinct_lines: self.distinct_lines(),
        }
    }

    /// Number of distinct lines ever requested (the compulsory-miss
    /// floor; `l1_accesses / distinct_lines` is the paper's
    /// "texture memory block reuse" characterization of §IV-B).
    /// Counted as the shared L2 sees requests, so it is the union
    /// over all private L1s at no extra cost here.
    #[must_use]
    pub fn distinct_lines(&self) -> u64 {
        self.shared.distinct_lines()
    }

    /// How many private L1s currently hold `line` — the replication
    /// degree the paper's schedulers minimize.
    #[must_use]
    pub fn replication_of(&self, line: LineAddr) -> usize {
        self.lanes.iter().filter(|l| l.probe(line)).count()
    }

    /// Invalidate every cache (e.g. between frames in sensitivity
    /// studies). Statistics are preserved.
    pub fn flush(&mut self) {
        for lane in &mut self.lanes {
            lane.l1_mut().flush();
        }
        self.shared.l2_mut().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> TextureHierarchy {
        TextureHierarchy::new(TextureHierarchyConfig::default())
    }

    #[test]
    fn miss_path_latencies() {
        let mut h = hier();
        let cold = h.access(0, 100);
        assert!(!cold.l1_hit && !cold.l2_hit);
        assert!(cold.latency >= 1 + 12 + 50 && cold.latency <= 1 + 12 + 100);

        let warm = h.access(0, 100);
        assert!(warm.l1_hit);
        assert_eq!(warm.latency, 1);

        let sibling = h.access(2, 100);
        assert!(!sibling.l1_hit && sibling.l2_hit);
        assert_eq!(sibling.latency, 1 + 12);
    }

    #[test]
    fn replication_counts_private_copies() {
        let mut h = hier();
        assert_eq!(h.replication_of(5), 0);
        h.access(0, 5);
        h.access(1, 5);
        h.access(3, 5);
        assert_eq!(h.replication_of(5), 3);
    }

    #[test]
    fn l2_accesses_equal_l1_misses() {
        let mut h = hier();
        for i in 0..100 {
            h.access((i % 4) as usize, i * 3);
            h.access((i % 4) as usize, i * 3); // re-hit in L1
        }
        let s = h.stats();
        assert_eq!(s.l1_misses(), s.l2.accesses);
        assert_eq!(s.l2.misses, s.dram_accesses);
        assert_eq!(s.l1_accesses(), 200);
    }

    #[test]
    fn upper_bound_config_aggregates_capacity() {
        let ub = TextureHierarchyConfig::default().upper_bound(4);
        assert_eq!(ub.num_l1, 1);
        assert_eq!(ub.l1.size_bytes, 64 * 1024);
        let mut h = TextureHierarchy::new(ub);
        // Upper bound never replicates: one access per line.
        h.access(0, 9);
        h.access(0, 9);
        assert_eq!(h.stats().l2.accesses, 1);
    }

    #[test]
    fn flush_preserves_stats() {
        let mut h = hier();
        h.access(0, 1);
        h.flush();
        assert_eq!(h.stats().l1_accesses(), 1);
        assert!(!h.access(0, 1).l1_hit);
    }

    #[test]
    fn replacement_kinds_all_work_and_differ() {
        let mut l2_accesses = Vec::new();
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::Random,
        ] {
            let cfg = TextureHierarchyConfig {
                replacement: kind,
                ..TextureHierarchyConfig::default()
            };
            let mut h = TextureHierarchy::new(cfg);
            // A classic LRU-adversarial loop: 6 lines that all map to
            // one 4-way set, walked cyclically. LRU/FIFO thrash (miss
            // every access after warm-up); random keeps some residents.
            for _pass in 0..200 {
                for i in 0..6u64 {
                    h.access(0, i * 64);
                }
            }
            let s = h.stats();
            assert_eq!(s.l1_misses(), s.l2.accesses, "{kind:?}");
            l2_accesses.push(s.l2.accesses);
        }
        // The policies must actually change behavior on this pattern.
        let distinct: std::collections::HashSet<_> = l2_accesses.iter().collect();
        assert!(
            distinct.len() >= 2,
            "policies all identical: {l2_accesses:?}"
        );
    }

    #[test]
    fn prefetch_brings_in_the_next_line() {
        let cfg = TextureHierarchyConfig {
            prefetch_next_line: true,
            ..TextureHierarchyConfig::default()
        };
        let mut h = TextureHierarchy::new(cfg);
        let miss = h.access(0, 100);
        assert!(!miss.l1_hit);
        // Line 101 was prefetched: the demand access hits.
        let next = h.access(0, 101);
        assert!(next.l1_hit, "next line must be resident");
        // Prefetch traffic is visible in the statistics.
        let plain = {
            let mut h2 = TextureHierarchy::new(TextureHierarchyConfig::default());
            h2.access(0, 100);
            h2.access(0, 101);
            h2.stats()
        };
        assert!(h.stats().l2.accesses <= plain.l2.accesses);
    }

    type Stats = crate::stats::HierarchyStats;

    #[test]
    fn prefetch_helps_sequential_hurts_nothing_on_strided() {
        let run = |prefetch: bool, stride: u64| {
            let cfg = TextureHierarchyConfig {
                prefetch_next_line: prefetch,
                ..TextureHierarchyConfig::default()
            };
            let mut h = TextureHierarchy::new(cfg);
            for i in 0..512u64 {
                h.access(0, i * stride);
            }
            h.stats()
        };
        // Sequential walk: every other demand access now hits (the L1
        // stats also count the prefetch fills themselves, so compare
        // demand *hits*, which prefetches never inflate).
        let seq_off = run(false, 1);
        let seq_on = run(true, 1);
        let hits = |s: &Stats| -> u64 { s.l1.iter().map(|c| c.hits).sum() };
        assert_eq!(hits(&seq_off), 0, "cold sequential walk never hits");
        assert!(
            hits(&seq_on) >= 250,
            "prefetch should convert ~half the accesses to hits, got {}",
            hits(&seq_on)
        );
        // Large stride: prefetches are useless and convert nothing.
        let str_on = run(true, 64);
        assert_eq!(hits(&str_on), 0);
    }

    #[test]
    fn distinct_lines_match_a_btreeset_oracle() {
        use std::collections::BTreeSet;
        // Clusters below and above the texture base (line 4,194,304),
        // at 2^26 and far above it: the count must not depend on where
        // lines sit in the address space.
        const CLUSTERS: [u64; 4] = [0, 4_194_304, 1 << 26, 1 << 40];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for num_l1 in [1, 4] {
            for prefetch_next_line in [false, true] {
                let cfg = TextureHierarchyConfig {
                    num_l1,
                    prefetch_next_line,
                    ..TextureHierarchyConfig::default()
                };
                let stream: Vec<(usize, u64)> = (0..20_000)
                    .map(|_| {
                        let r = next();
                        let base = CLUSTERS[(r % 4) as usize];
                        ((r >> 8) as usize % num_l1, base + (r >> 16) % 10_000)
                    })
                    .collect();

                // Oracle: every accessed line, plus the next line of
                // each L1 miss when prefetching (skipped only when
                // already resident, i.e. already requested).
                let mut h = TextureHierarchy::new(cfg);
                let mut oracle = BTreeSet::new();
                for &(sc, line) in &stream {
                    oracle.insert(line);
                    if !h.access(sc, line).l1_hit && prefetch_next_line {
                        oracle.insert(line + 1);
                    }
                }
                assert_eq!(
                    h.distinct_lines(),
                    oracle.len() as u64,
                    "{num_l1} lanes, prefetch {prefetch_next_line}"
                );
            }
        }
    }

    /// Walk runs of 1–40 lines through one [`LaneHandle`] each on one
    /// hierarchy, and line by line through [`TextureHierarchy::access`]
    /// on another. Every result must agree, and after every run the
    /// shared counters, the distinct lines and the statistics.
    fn lane_walk_matches_single_accesses<const W: usize>(config: TextureHierarchyConfig) {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut walked = TextureHierarchy::new(config);
        let mut single = TextureHierarchy::new(config);
        for run in 0..600 {
            let sc = (next() % config.num_l1 as u64) as usize;
            let base = next() % 4096;
            let lines: Vec<u64> = (0..1 + next() % 40).map(|_| base + next() % 96).collect();
            let mut lane = walked.lane::<W>(sc);
            for &line in &lines {
                assert_eq!(
                    lane.access(line),
                    single.access(sc, line),
                    "run {run}, SC{sc}, line {line}, {config:?}"
                );
            }
            drop(lane);
            assert_eq!(
                walked.shared_counters(),
                single.shared_counters(),
                "run {run}"
            );
            assert_eq!(
                walked.distinct_lines(),
                single.distinct_lines(),
                "run {run}"
            );
            assert_eq!(walked.stats(), single.stats(), "run {run}");
        }
    }

    #[test]
    fn lane_handle_walk_equals_per_line_access() {
        for replacement in [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::Random,
        ] {
            let config = TextureHierarchyConfig {
                replacement,
                prefetch_next_line: true,
                ..TextureHierarchyConfig::default()
            };
            // 3-4 KiB L1s so the walk evicts; 12 sets take the modulo
            // set index.
            let small = |sets: u64, ways: usize| CacheConfig {
                size_bytes: sets * ways as u64 * 64,
                ways,
                ..CacheConfig::texture_l1()
            };
            lane_walk_matches_single_accesses::<4>(TextureHierarchyConfig {
                l1: small(16, 4),
                ..config
            });
            lane_walk_matches_single_accesses::<8>(TextureHierarchyConfig {
                l1: small(8, 8),
                ..config
            });
            lane_walk_matches_single_accesses::<0>(TextureHierarchyConfig {
                l1: small(12, 4),
                ..config
            });
            lane_walk_matches_single_accesses::<0>(config.upper_bound(4));
        }
    }

    #[test]
    fn single_l1_is_accepted() {
        let cfg = TextureHierarchyConfig {
            num_l1: 1,
            ..TextureHierarchyConfig::default()
        };
        let h = TextureHierarchy::new(cfg);
        assert_eq!(h.config().num_l1, 1, "one L1 is the accepted floor");
    }

    #[test]
    // lint: typed-sibling(single_l1_is_accepted)
    #[should_panic]
    fn zero_l1_panics() {
        let cfg = TextureHierarchyConfig {
            num_l1: 0,
            ..TextureHierarchyConfig::default()
        };
        let _ = TextureHierarchy::new(cfg);
    }
}
