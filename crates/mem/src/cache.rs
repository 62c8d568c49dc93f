//! Set-associative cache model.
//!
//! [`SetAssocCache::access`] matches on the replacement policy once and
//! runs one lookup body compiled for it, so the policy hooks inline. The
//! body compares every way of the set (no early exit: a line is in at
//! most one way); on a miss the policy picks the way to fill, invalid
//! ways included. [`SetAssocCache::flush`] also rebuilds the policy.

use crate::hierarchy::ReplacementKind;
use crate::replacement::{Fifo, Lru, PseudoRandom, ReplacementPolicy};
use crate::stats::CacheStats;
use crate::{LineAddr, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Geometry of a cache (Table II style: size, line, associativity,
/// access latency in cycles).
///
/// # Examples
///
/// ```
/// use dtexl_mem::CacheConfig;
/// let l1 = CacheConfig::texture_l1();
/// assert_eq!(l1.sets(), 16 * 1024 / 64 / 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (64 throughout the paper).
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in cycles (hit latency).
    pub latency: u32,
}

impl CacheConfig {
    /// The paper's 16 KiB, 4-way, 1-cycle private L1 texture cache.
    #[must_use]
    pub const fn texture_l1() -> Self {
        Self {
            size_bytes: 16 * 1024,
            line_bytes: LINE_BYTES,
            ways: 4,
            latency: 1,
        }
    }

    /// The paper's 8 KiB, 4-way, 1-cycle L1 vertex cache.
    #[must_use]
    pub const fn vertex_l1() -> Self {
        Self {
            size_bytes: 8 * 1024,
            line_bytes: LINE_BYTES,
            ways: 4,
            latency: 1,
        }
    }

    /// The paper's 64 KiB, 4-way, 1-cycle tile cache.
    #[must_use]
    pub const fn tile_cache() -> Self {
        Self {
            size_bytes: 64 * 1024,
            line_bytes: LINE_BYTES,
            ways: 4,
            latency: 1,
        }
    }

    /// The paper's 1 MiB, 8-way, 12-cycle shared L2.
    #[must_use]
    pub const fn l2() -> Self {
        Self {
            size_bytes: 1024 * 1024,
            line_bytes: LINE_BYTES,
            ways: 8,
            latency: 12,
        }
    }

    /// A copy of this configuration scaled to `factor ×` the capacity
    /// (used for the Fig. 16 upper bound: one SC with a 4× L1).
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        self.size_bytes *= factor;
        self
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero ways or a capacity
    /// that is not a multiple of `line_bytes × ways`).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0, "cache must have at least one way");
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines as usize / self.ways;
        assert!(
            sets > 0 && sets * self.ways == lines as usize,
            "capacity {} not divisible into {} ways of {}-byte lines",
            self.size_bytes,
            self.ways,
            self.line_bytes,
        );
        sets
    }
}

/// Result of a single cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Line evicted to make room (misses only; `None` when an invalid
    /// way was filled).
    pub evicted: Option<LineAddr>,
}

/// The cache's replacement policy, one variant per stock policy.
#[derive(Debug)]
enum PolicyImpl {
    Lru(Lru),
    Fifo(Fifo),
    Random(PseudoRandom),
}

impl PolicyImpl {
    fn new(kind: ReplacementKind, config: &CacheConfig) -> Self {
        let sets = config.sets();
        match kind {
            ReplacementKind::Lru => Self::Lru(Lru::new(sets, config.ways)),
            ReplacementKind::Fifo => Self::Fifo(Fifo::new(sets, config.ways)),
            ReplacementKind::Random => Self::Random(PseudoRandom::new(config.ways, 0x5eed)),
        }
    }
}

/// Tag value marking an invalid (never filled) way. No real line can
/// take this value: line addresses are byte addresses divided by the
/// 64-byte line size, so they are bounded well below `u64::MAX`.
pub(crate) const INVALID_TAG: LineAddr = LineAddr::MAX;

/// The policy-independent state of a cache: geometry, tags, the
/// logical clock and the statistics.
#[derive(Debug)]
struct TagArray {
    ways: usize,
    sets: usize,
    /// `sets - 1` when the set count is a power of two: `line % sets`
    /// is then a mask instead of a per-access 64-bit division (every
    /// standard geometry is power-of-two; the modulo fallback keeps
    /// arbitrary configs working, bit-identically).
    set_mask: Option<u64>,
    /// `tags[set * ways + way]`; [`INVALID_TAG`] = invalid. A bare
    /// sentinel keeps the hit scan to one 8-byte compare per way
    /// (an `Option<LineAddr>` doubles the tag array and the compare).
    tags: Vec<LineAddr>,
    tick: u64,
    stats: CacheStats,
}

impl TagArray {
    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets as u64) as usize,
        }
    }

    /// The tags of `line`'s set.
    #[inline]
    fn set_tags(&self, line: LineAddr) -> &[LineAddr] {
        &self.tags[self.set_of(line) * self.ways..][..self.ways]
    }

    /// One lookup under `policy`, filling `line` on a miss.
    #[inline]
    fn access<P: ReplacementPolicy>(&mut self, policy: &mut P, line: LineAddr) -> AccessOutcome {
        self.tick += 1;
        self.stats.accesses += 1;
        let set = self.set_of(line);
        let tags = &mut self.tags[set * self.ways..][..self.ways];
        // A line is resident in at most one way, so every way can be
        // compared without an early exit.
        let mut hit_way = usize::MAX;
        for (way, &tag) in tags.iter().enumerate() {
            hit_way = std::hint::select_unpredictable(tag == line, way, hit_way);
        }
        if hit_way != usize::MAX {
            policy.on_hit(set, hit_way, self.tick);
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        self.stats.misses += 1;
        let way = policy.fill(set, tags, self.tick);
        debug_assert!(way < self.ways);
        let old = std::mem::replace(&mut tags[way], line);
        let evicted = (old != INVALID_TAG).then_some(old);
        self.stats.evictions += u64::from(evicted.is_some());
        AccessOutcome {
            hit: false,
            evicted,
        }
    }
}

/// A set-associative cache with LRU, FIFO or pseudo-random replacement.
///
/// The model is *functional plus latency*: it tracks residency and
/// statistics; timing (latency stacking, MSHR contention) is handled by
/// the pipeline's shader-core model using [`CacheConfig::latency`].
///
/// # Examples
///
/// ```
/// use dtexl_mem::{CacheConfig, SetAssocCache};
/// let mut c = SetAssocCache::new(CacheConfig::texture_l1());
/// assert!(!c.access(42).hit);
/// assert!(c.access(42).hit);
/// assert_eq!(c.stats().accesses, 2);
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    kind: ReplacementKind,
    array: TagArray,
    policy: PolicyImpl,
}

impl SetAssocCache {
    /// Create a cache with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics if `config` is degenerate (see [`CacheConfig::sets`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        Self::with_replacement(config, ReplacementKind::Lru)
    }

    /// Create a cache with the `kind` replacement policy.
    pub(crate) fn with_replacement(config: CacheConfig, kind: ReplacementKind) -> Self {
        let sets = config.sets();
        Self {
            config,
            kind,
            array: TagArray {
                ways: config.ways,
                sets,
                set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
                tags: vec![INVALID_TAG; sets * config.ways],
                tick: 0,
                stats: CacheStats::default(),
            },
            policy: PolicyImpl::new(kind, &config),
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.array.stats
    }

    /// Look up `line`, filling it on a miss. Returns hit/miss and any
    /// eviction.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> AccessOutcome {
        debug_assert!(
            line != INVALID_TAG,
            "line address is the invalid-tag sentinel"
        );
        match &mut self.policy {
            PolicyImpl::Lru(p) => self.array.access(p, line),
            PolicyImpl::Fifo(p) => self.array.access(p, line),
            PolicyImpl::Random(p) => self.array.access(p, line),
        }
    }

    /// Whether `line` is currently resident (no state change).
    #[must_use]
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        self.array.set_tags(line).contains(&line)
    }

    /// Invalidate all contents and start the replacement policy afresh,
    /// keeping statistics.
    pub fn flush(&mut self) {
        self.array.tags.fill(INVALID_TAG);
        self.policy = PolicyImpl::new(self.kind, &self.config);
    }

    /// Number of resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.array
            .tags
            .iter()
            .filter(|&&t| t != INVALID_TAG)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        // 2 sets × 2 ways × 64 B = 256 B
        CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
            latency: 1,
        }
    }

    #[test]
    fn table2_configs() {
        assert_eq!(CacheConfig::texture_l1().sets(), 64);
        assert_eq!(CacheConfig::vertex_l1().sets(), 32);
        assert_eq!(CacheConfig::tile_cache().sets(), 256);
        assert_eq!(CacheConfig::l2().sets(), 2048);
        assert_eq!(CacheConfig::texture_l1().scaled(4).size_bytes, 64 * 1024);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(tiny());
        assert!(!c.access(0).hit);
        assert!(c.access(0).hit);
        assert!(c.probe(0));
        assert!(!c.probe(1));
    }

    #[test]
    fn conflict_eviction_lru() {
        let mut c = SetAssocCache::new(tiny());
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.access(0);
        c.access(2);
        let out = c.access(4);
        assert!(!out.hit);
        assert_eq!(out.evicted, Some(0), "LRU evicts line 0");
        assert!(c.probe(2) && c.probe(4) && !c.probe(0));
    }

    #[test]
    fn lru_refresh_changes_victim() {
        let mut c = SetAssocCache::new(tiny());
        c.access(0);
        c.access(2);
        c.access(0); // refresh 0
        let out = c.access(4);
        assert_eq!(out.evicted, Some(2));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = SetAssocCache::new(tiny());
        c.access(0); // set 0
        c.access(1); // set 1
        c.access(2); // set 0
        c.access(3); // set 1
        assert_eq!(c.resident_lines(), 4);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = SetAssocCache::new(tiny());
        for _ in 0..3 {
            c.access(7);
        }
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn flush_clears_content_keeps_stats() {
        let mut c = SetAssocCache::new(tiny());
        c.access(0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().accesses, 1);
        assert!(!c.access(0).hit, "miss again after flush");
    }

    #[test]
    fn fifo_policy_is_used() {
        let cfg = tiny();
        let mut c = SetAssocCache::with_replacement(cfg, ReplacementKind::Fifo);
        c.access(0);
        c.access(2);
        c.access(0); // FIFO ignores the re-hit
        let out = c.access(4);
        assert_eq!(out.evicted, Some(0), "FIFO still evicts first-filled");
    }

    #[test]
    fn divisible_config_is_accepted() {
        // The checked counterpart of `degenerate_config_panics`: a
        // geometry where size / (line * ways) divides evenly.
        let c = SetAssocCache::new(CacheConfig {
            size_bytes: 4096,
            line_bytes: 64,
            ways: 4,
            latency: 1,
        });
        assert_eq!(c.config().sets(), 16);
    }

    #[test]
    // lint: typed-sibling(divisible_config_is_accepted)
    #[should_panic(expected = "not divisible")]
    fn degenerate_config_panics() {
        let _ = SetAssocCache::new(CacheConfig {
            size_bytes: 100,
            line_bytes: 64,
            ways: 3,
            latency: 1,
        });
    }

    #[test]
    fn working_set_equal_to_capacity_fits() {
        let cfg = tiny();
        let mut c = SetAssocCache::new(cfg);
        let lines = cfg.size_bytes / cfg.line_bytes;
        for l in 0..lines {
            c.access(l);
        }
        for l in 0..lines {
            assert!(c.access(l).hit, "line {l} should be resident");
        }
    }

    /// The lookup as it was before the policy picked the fill way,
    /// kept as a reference: a hit scan with an early exit, else the
    /// first invalid way, else the policy's victim; every hit or fill
    /// touches the policy. Its `flush` keeps LRU's stamps, as the old
    /// one did. It resets FIFO's fill times and the random stream, which
    /// the old one kept: a FIFO way refilled after a flush used to be
    /// ordered by its pre-flush fill.
    struct Reference {
        sets: u64,
        ways: usize,
        kind: ReplacementKind,
        tags: Vec<LineAddr>,
        /// LRU: last touch; FIFO: fill tick, `u64::MAX` = unset.
        stamps: Vec<u64>,
        rng: u64,
        tick: u64,
        stats: CacheStats,
    }

    impl Reference {
        fn new(config: CacheConfig, kind: ReplacementKind) -> Self {
            let lines = config.sets() * config.ways;
            Self {
                sets: config.sets() as u64,
                ways: config.ways,
                kind,
                tags: vec![INVALID_TAG; lines],
                stamps: vec![
                    if kind == ReplacementKind::Fifo {
                        u64::MAX
                    } else {
                        0
                    };
                    lines
                ],
                rng: 0x5eed | 1,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn touch(&mut self, slot: usize) {
            match self.kind {
                ReplacementKind::Lru => self.stamps[slot] = self.tick,
                ReplacementKind::Fifo if self.stamps[slot] == u64::MAX => {
                    self.stamps[slot] = self.tick;
                }
                _ => {}
            }
        }

        fn victim(&mut self, set: usize) -> usize {
            let base = set * self.ways;
            if self.kind == ReplacementKind::Random {
                let mut x = self.rng ^ (set as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.tick;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.rng = x;
                return (x % self.ways as u64) as usize;
            }
            let mut best = 0;
            for w in 1..self.ways {
                if self.stamps[base + w] < self.stamps[base + best] {
                    best = w;
                }
            }
            if self.kind == ReplacementKind::Fifo {
                self.stamps[base + best] = u64::MAX;
            }
            best
        }

        fn access(&mut self, line: LineAddr) -> AccessOutcome {
            self.tick += 1;
            self.stats.accesses += 1;
            let set = (line % self.sets) as usize;
            let base = set * self.ways;
            if let Some(way) = (0..self.ways).find(|&w| self.tags[base + w] == line) {
                self.touch(base + way);
                self.stats.hits += 1;
                return AccessOutcome {
                    hit: true,
                    evicted: None,
                };
            }
            self.stats.misses += 1;
            if let Some(way) = (0..self.ways).find(|&w| self.tags[base + w] == INVALID_TAG) {
                self.tags[base + way] = line;
                self.touch(base + way);
                return AccessOutcome {
                    hit: false,
                    evicted: None,
                };
            }
            let way = self.victim(set);
            let evicted = Some(self.tags[base + way]);
            self.tags[base + way] = line;
            self.touch(base + way);
            self.stats.evictions += 1;
            AccessOutcome {
                hit: false,
                evicted,
            }
        }

        fn flush(&mut self) {
            self.tags.fill(INVALID_TAG);
            if self.kind == ReplacementKind::Fifo {
                self.stamps.fill(u64::MAX);
            }
            self.rng = 0x5eed | 1;
        }
    }

    #[test]
    fn access_matches_the_reference_lookup() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::Fifo,
            ReplacementKind::Random,
        ] {
            for sets in [1, 3, 4, 6, 16] {
                for ways in [1, 2, 4, 8, 16] {
                    let config = CacheConfig {
                        size_bytes: (sets * ways * 64) as u64,
                        line_bytes: 64,
                        ways,
                        latency: 1,
                    };
                    let mut cache = SetAssocCache::with_replacement(config, kind);
                    let mut reference = Reference::new(config, kind);
                    // A working set of about twice the capacity: hits,
                    // invalid fills and evictions all occur, and the
                    // flush halfway makes every way invalid again.
                    let span = 2 * (sets * ways) as u64 + 1;
                    for i in 0..4000 {
                        if i == 2000 {
                            cache.flush();
                            reference.flush();
                        }
                        let line = next() % span;
                        let what = format!("{kind:?} {sets}x{ways}, access {i}, line {line}");
                        assert_eq!(cache.access(line), reference.access(line), "{what}");
                    }
                    assert_eq!(*cache.stats(), reference.stats, "{kind:?} {sets}x{ways}");
                }
            }
        }
    }
}
