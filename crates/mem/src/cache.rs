//! Set-associative cache model.
//!
//! Each way is one `{tag, stamp}` record, so a set of four ways is one
//! 64-byte host line. Every access runs one lookup body
//! compiled for the cache's associativity (4 and 8 ways, any other
//! width through the same body). It compares every way of the set (no
//! early exit: a line is in at most one way). On a miss it fills the
//! first way with the smallest stamp: a never-filled way while the set
//! has one, else the LRU or FIFO victim. Random replacement instead
//! draws from a seeded xorshift stream once the set is full. LRU stamps
//! on a hit or a fill, FIFO and Random on a fill only.
//! [`SetAssocCache::flush`] also restarts the stamps and the stream.
//!
//! The body runs inside a `Session`: a run of accesses that holds the
//! clock, the hit and eviction counts and the random stream in locals
//! and writes them back when it ends. The texture walk opens one per
//! subtile; [`SetAssocCache::access`] is a session of one access.

use crate::hierarchy::ReplacementKind;
use crate::stats::CacheStats;
use crate::{LineAddr, LINE_BYTES};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Tag value marking an invalid (never filled) way. No real line can
/// take this value: line addresses are byte addresses divided by the
/// 64-byte line size, so they are bounded well below `u64::MAX`.
pub(crate) const INVALID_TAG: LineAddr = LineAddr::MAX;

/// Seed of the pseudo-random replacement stream (odd, as xorshift needs
/// a non-zero state).
const RANDOM_SEED: u64 = 0x5eed | 1;

/// One way of a set: its tag and its replacement stamp side by side, so
/// a lookup reads one record per way.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// The resident line; [`INVALID_TAG`] = never filled.
    tag: LineAddr,
    /// LRU: tick of the last hit or fill. FIFO and Random: tick of the
    /// fill. 0 = never filled (the clock starts at 1).
    stamp: u64,
}

const EMPTY: Way = Way {
    tag: INVALID_TAG,
    stamp: 0,
};

/// What a set index and a lookup need of the cache beside its width:
/// fixed at construction, so a [`Session`] copies it once.
#[derive(Debug, Clone, Copy)]
struct Shape {
    kind: ReplacementKind,
    sets: u64,
    /// `sets - 1` when the set count is a power of two: `line % sets`
    /// is then a mask instead of a per-access 64-bit division (every
    /// standard geometry is power-of-two; the modulo fallback keeps
    /// arbitrary configs working, bit-identically).
    set_mask: Option<u64>,
}

impl Shape {
    #[inline(always)]
    fn set_of(self, line: LineAddr) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets) as usize,
        }
    }

    /// The ways of `line`'s set in `ways`, a cache of `width` ways.
    #[inline(always)]
    fn set(self, ways: &[Way], width: usize, line: LineAddr) -> &[Way] {
        &ways[self.set_of(line) * width..][..width]
    }
}

/// The state every access moves: the logical clock (one tick per
/// access, so also the access count), the hit and eviction counts and
/// Random replacement's xorshift state (it advances only when a full
/// set evicts).
#[derive(Debug, Clone, Copy)]
struct Counters {
    tick: u64,
    hits: u64,
    evictions: u64,
    rng: u64,
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
    shape: Shape,
    /// `ways[set * config.ways + way]`.
    ways: Vec<Way>,
    counters: Counters,
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
            shape: Shape {
                kind,
                sets: sets as u64,
                set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            },
            ways: vec![EMPTY; sets * config.ways],
            counters: Counters {
                tick: 0,
                hits: 0,
                evictions: 0,
                rng: RANDOM_SEED,
            },
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let Counters {
            tick,
            hits,
            evictions,
            ..
        } = self.counters;
        CacheStats {
            accesses: tick,
            hits,
            misses: tick - hits,
            evictions,
        }
    }

    /// Open a run of accesses that holds the counters in locals until
    /// it is dropped.
    #[inline(always)]
    pub(crate) fn session(&mut self) -> Session<'_> {
        Session {
            shape: self.shape,
            width: self.config.ways,
            ways: &mut self.ways,
            counters: self.counters,
            saved: &mut self.counters,
        }
    }

    /// Look up `line`, filling it on a miss. Returns hit/miss and any
    /// eviction. A session of one access.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> AccessOutcome {
        self.session().access(line)
    }

    /// Whether `line` is currently resident (no state change).
    #[must_use]
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        resident(self.shape.set(&self.ways, self.config.ways, line), line)
    }

    /// Invalidate all contents and restart the replacement state (stamps
    /// back to 0, the random stream back to its seed), keeping
    /// statistics.
    pub fn flush(&mut self) {
        self.ways.fill(EMPTY);
        self.counters.rng = RANDOM_SEED;
    }

    /// Number of resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.tag != INVALID_TAG).count()
    }
}

/// Whether `line` is one of `set`'s tags.
#[inline(always)]
fn resident(set: &[Way], line: LineAddr) -> bool {
    set.iter().any(|way| way.tag == line)
}

/// A run of accesses to one [`SetAssocCache`]: it borrows the way
/// array and holds the clock, the hit and eviction counts and the
/// random stream in locals, writing them back when dropped. Every
/// access of the cache, single or in a run, goes through
/// [`Session::lookup`].
#[derive(Debug)]
pub(crate) struct Session<'a> {
    shape: Shape,
    /// Associativity.
    width: usize,
    ways: &'a mut [Way],
    counters: Counters,
    saved: &'a mut Counters,
}

impl Drop for Session<'_> {
    #[inline(always)]
    fn drop(&mut self) {
        *self.saved = self.counters;
    }
}

impl Session<'_> {
    /// [`Session::lookup`] compiled for the cache's width (4 and 8
    /// ways, any other width through the same body).
    #[inline(always)]
    pub(crate) fn access(&mut self, line: LineAddr) -> AccessOutcome {
        match self.width {
            4 => self.lookup::<4>(line),
            8 => self.lookup::<8>(line),
            _ => self.lookup::<0>(line),
        }
    }

    /// Whether `line` is resident, for a cache of `W` ways (`W == 0`
    /// reads the width at run time).
    #[inline(always)]
    pub(crate) fn probe<const W: usize>(&self, line: LineAddr) -> bool {
        let width = if W == 0 { self.width } else { W };
        resident(self.shape.set(self.ways, width, line), line)
    }

    /// The lookup body, compiled for `W` ways; `W == 0` reads the width
    /// at run time. The caller must pass the cache's own width.
    #[inline(always)]
    pub(crate) fn lookup<const W: usize>(&mut self, line: LineAddr) -> AccessOutcome {
        debug_assert!(
            line != INVALID_TAG,
            "line address is the invalid-tag sentinel"
        );
        debug_assert!(W == 0 || W == self.width, "session width mismatch");
        let width = if W == 0 { self.width } else { W };
        let c = &mut self.counters;
        c.tick += 1;
        let set = self.shape.set_of(line);
        let ways = &mut self.ways[set * width..][..width];
        // A line is resident in at most one way, so every way can be
        // compared without an early exit.
        let mut hit_way = usize::MAX;
        for (w, way) in ways.iter().enumerate() {
            hit_way = std::hint::select_unpredictable(way.tag == line, w, hit_way);
        }
        if hit_way != usize::MAX {
            if self.shape.kind == ReplacementKind::Lru {
                ways[hit_way].stamp = c.tick;
            }
            c.hits += 1;
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        // The first way with the smallest stamp: the first never-filled
        // way while the set has one, else the least recent (LRU) or
        // oldest (FIFO) fill. Random draws among the ways of a full set.
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (w, way) in ways.iter().enumerate() {
            victim = std::hint::select_unpredictable(way.stamp < oldest, w, victim);
            oldest = oldest.min(way.stamp);
        }
        if self.shape.kind == ReplacementKind::Random && oldest != 0 {
            let mut x = c.rng ^ (set as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ c.tick;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            c.rng = x;
            victim = (x % width as u64) as usize;
        }
        let old = std::mem::replace(
            &mut ways[victim],
            Way {
                tag: line,
                stamp: c.tick,
            },
        );
        let evicted = (old.tag != INVALID_TAG).then_some(old.tag);
        c.evictions += u64::from(evicted.is_some());
        AccessOutcome {
            hit: false,
            evicted,
        }
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

    /// A cache of one set of `ways` ways: every line lands in it.
    fn one_set(ways: usize) -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * ways as u64,
            line_bytes: 64,
            ways,
            latency: 1,
        }
    }

    #[test]
    fn lru_fills_invalid_ways_first_then_evicts_least_recent() {
        let mut c = SetAssocCache::new(one_set(4));
        for line in 10..14 {
            let out = c.access(line);
            assert_eq!(out.evicted, None, "never-filled ways go first");
        }
        assert_eq!(c.resident_lines(), 4);
        assert!(c.access(10).hit); // refresh line 10
        assert_eq!(c.access(14).evicted, Some(11), "line 11 is now the oldest");
    }

    #[test]
    fn lru_tracks_sets_independently() {
        // Two sets of two ways: even lines in set 0, odd ones in set 1.
        let mut c = SetAssocCache::new(tiny());
        for line in [0, 2, 1, 3] {
            c.access(line);
        }
        assert!(c.access(0).hit);
        assert!(c.access(3).hit);
        assert_eq!(c.access(4).evicted, Some(2));
        assert_eq!(c.access(5).evicted, Some(1));
    }

    #[test]
    fn fifo_ignores_rehits() {
        let mut c = SetAssocCache::with_replacement(one_set(2), ReplacementKind::Fifo);
        assert_eq!(c.access(10).evicted, None);
        assert_eq!(c.access(11).evicted, None);
        for _ in 0..3 {
            assert!(c.access(10).hit, "a re-hit does not refresh");
        }
        assert_eq!(c.access(12).evicted, Some(10), "line 10 was filled first");
    }

    #[test]
    fn random_fills_invalid_ways_first_and_is_deterministic() {
        let mut a = SetAssocCache::with_replacement(one_set(4), ReplacementKind::Random);
        let mut b = SetAssocCache::with_replacement(one_set(4), ReplacementKind::Random);
        for line in [10, 11, 12, 13] {
            assert_eq!(a.access(line).evicted, None, "never-filled ways go first");
            b.access(line);
        }
        let mut victims = std::collections::BTreeSet::new();
        for line in 14..114 {
            let out = a.access(line);
            assert_eq!(out, b.access(line), "same stream, same victims");
            let victim = out.evicted.expect("a full set evicts");
            assert!((10..line).contains(&victim), "evicted a resident line");
            assert!(!a.probe(victim) && a.probe(line));
            victims.insert(line - victim);
        }
        assert!(victims.len() > 1, "the victim's age varies");
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

        fn probe(&self, line: LineAddr) -> bool {
            let base = (line % self.sets) as usize * self.ways;
            self.tags[base..base + self.ways].contains(&line)
        }

        fn resident_lines(&self) -> usize {
            self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
        }

        fn flush(&mut self) {
            self.tags.fill(INVALID_TAG);
            if self.kind == ReplacementKind::Fifo {
                self.stamps.fill(u64::MAX);
            }
            self.rng = 0x5eed | 1;
        }
    }

    /// Drive a cache and the reference through `accesses` lines drawn
    /// from `next`, flushing both at each access index in `flushes`.
    /// The working set cycles through half, twice and eight times the
    /// capacity, so hits, invalid fills and evictions all occur. The
    /// cache runs the accesses in sessions of 1–64 accesses (a flush
    /// ends one early), each access through [`Session::access`] or the
    /// run-time-width [`Session::lookup`]. After every access the
    /// outcomes and a session probe of the neighbouring line must
    /// agree; between sessions, a cache probe and the statistics; at
    /// each flush and at the end, the resident-line count too.
    fn differential(
        config: CacheConfig,
        kind: ReplacementKind,
        accesses: usize,
        flushes: &[usize],
        next: &mut impl FnMut() -> u64,
    ) {
        let mut cache = SetAssocCache::with_replacement(config, kind);
        let mut reference = Reference::new(config, kind);
        let capacity = (config.sets() * config.ways) as u64;
        let spans = [capacity / 2 + 1, 2 * capacity + 1, 8 * capacity + 1];
        let what = |i: usize| format!("{kind:?} {}x{}, access {i}", config.sets(), config.ways);
        let mut i = 0;
        while i < accesses {
            if flushes.contains(&i) {
                assert_eq!(
                    cache.resident_lines(),
                    reference.resident_lines(),
                    "{}",
                    what(i)
                );
                cache.flush();
                reference.flush();
            }
            let end = accesses.min(i + 1 + (next() % 64) as usize);
            let mut session = cache.session();
            loop {
                let line = next() % spans[i * spans.len() / accesses];
                let out = if next().is_multiple_of(4) {
                    session.lookup::<0>(line)
                } else {
                    session.access(line)
                };
                assert_eq!(out, reference.access(line), "{}, line {line}", what(i));
                let near = line ^ 1;
                assert_eq!(
                    session.probe::<0>(near),
                    reference.probe(near),
                    "{}, probe {near}",
                    what(i)
                );
                i += 1;
                if i == end || flushes.contains(&i) {
                    break;
                }
            }
            drop(session);
            let near = next() % spans[(i - 1) * spans.len() / accesses];
            assert_eq!(
                cache.probe(near),
                reference.probe(near),
                "{}, probe {near} between sessions",
                what(i)
            );
            assert_eq!(cache.stats(), reference.stats, "{}", what(i));
        }
        assert_eq!(
            cache.resident_lines(),
            reference.resident_lines(),
            "{}",
            what(accesses)
        );
        assert_eq!(cache.stats(), reference.stats, "{}", what(accesses));
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut rng = seed;
        move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        }
    }

    const KINDS: [ReplacementKind; 3] = [
        ReplacementKind::Lru,
        ReplacementKind::Fifo,
        ReplacementKind::Random,
    ];

    fn geometry(sets: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            size_bytes: (sets * ways * 64) as u64,
            line_bytes: 64,
            ways,
            latency: 1,
        }
    }

    #[test]
    fn access_matches_the_reference_lookup() {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for kind in KINDS {
            for sets in [1, 3, 4, 6, 16] {
                for ways in [1, 2, 3, 4, 8, 16] {
                    differential(geometry(sets, ways), kind, 4000, &[2000], &mut next);
                }
            }
        }
    }

    /// The same oracle over millions of accesses (release profile): the
    /// shipped geometries (the 64×4 L1, the 2048×8 L2, the 256×4
    /// upper-bound L1) and set counts that are not powers of two.
    #[test]
    #[ignore]
    fn access_matches_the_reference_lookup_large() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for kind in KINDS {
            for (sets, ways) in [
                (64, 4),
                (2048, 8),
                (256, 4),
                (48, 4),
                (1000, 8),
                (7, 3),
                (96, 16),
            ] {
                let accesses = 1_200_000;
                let flushes = [accesses / 3, 2 * accesses / 3 + 1];
                differential(geometry(sets, ways), kind, accesses, &flushes, &mut next);
            }
        }
    }
}
