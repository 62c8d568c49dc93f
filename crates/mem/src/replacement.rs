//! Replacement policies for [`SetAssocCache`](crate::SetAssocCache).
//!
//! The baseline GPU uses LRU everywhere (Table II); [`Fifo`] and
//! [`PseudoRandom`] exist for the ablation benches, to show that DTexL's
//! gains are not an artifact of the replacement policy.
//!
//! A policy picks the way every miss fills, invalid ways included: while
//! a set has a way not filled since the policy was built, the lowest
//! such way must be chosen. LRU and FIFO get this from their stamps (0
//! = never filled; the cache's clock starts at 1), so their fill is one
//! first-minimum scan. A flush rebuilds the policy.

use crate::cache::INVALID_TAG;
use crate::LineAddr;

/// A per-set replacement policy.
///
/// The cache calls [`on_hit`](ReplacementPolicy::on_hit) on every hit
/// and [`fill`](ReplacementPolicy::fill) on every miss.
/// Implementations keep whatever per-way state they need; `ways` is
/// fixed at construction.
pub trait ReplacementPolicy: std::fmt::Debug {
    /// Record a hit on `way` in `set` at logical time `tick`.
    fn on_hit(&mut self, set: usize, way: usize, tick: u64);

    /// Choose the way of `set` to fill at logical time `tick` and
    /// record the fill. `tags` holds the set's tags, the invalid-tag
    /// sentinel for ways never filled; the first such way must be
    /// chosen while one exists.
    fn fill(&mut self, set: usize, tags: &[LineAddr], tick: u64) -> usize;
}

/// The LRU and FIFO fill: the first way of `set` with the smallest
/// stamp (never-filled ways first, as their stamp is 0), stamped `tick`.
#[inline]
fn fill_oldest(stamps: &mut [u64], set: usize, ways: usize, tick: u64) -> usize {
    let stamps = &mut stamps[set * ways..][..ways];
    let (mut best, mut oldest) = (0, u64::MAX);
    for (way, &stamp) in stamps.iter().enumerate() {
        best = std::hint::select_unpredictable(stamp < oldest, way, best);
        oldest = oldest.min(stamp);
    }
    stamps[best] = tick;
    best
}

/// Least-recently-used replacement (the baseline policy).
#[derive(Debug, Clone)]
pub struct Lru {
    /// Tick of each way's last hit or fill; 0 = never filled.
    last_used: Vec<u64>,
    ways: usize,
}

impl Lru {
    /// Create LRU state for `sets × ways` lines.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            last_used: vec![0; sets * ways],
            ways,
        }
    }
}

impl ReplacementPolicy for Lru {
    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, tick: u64) {
        self.last_used[set * self.ways + way] = tick;
    }

    #[inline]
    fn fill(&mut self, set: usize, _tags: &[LineAddr], tick: u64) -> usize {
        fill_oldest(&mut self.last_used, set, self.ways, tick)
    }
}

/// First-in-first-out replacement (ablation only).
#[derive(Debug, Clone)]
pub struct Fifo {
    /// Tick of each way's fill; 0 = never filled. Hits leave it alone.
    filled_at: Vec<u64>,
    ways: usize,
}

impl Fifo {
    /// Create FIFO state for `sets × ways` lines.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        Self {
            filled_at: vec![0; sets * ways],
            ways,
        }
    }
}

impl ReplacementPolicy for Fifo {
    #[inline]
    fn on_hit(&mut self, _set: usize, _way: usize, _tick: u64) {}

    #[inline]
    fn fill(&mut self, set: usize, _tags: &[LineAddr], tick: u64) -> usize {
        fill_oldest(&mut self.filled_at, set, self.ways, tick)
    }
}

/// Deterministic pseudo-random replacement (ablation only).
///
/// Uses a per-policy xorshift stream so runs stay reproducible. The
/// stream advances only when a full set evicts.
#[derive(Debug, Clone)]
pub struct PseudoRandom {
    state: u64,
    ways: usize,
}

impl PseudoRandom {
    /// Create the policy with a fixed seed.
    #[must_use]
    pub fn new(ways: usize, seed: u64) -> Self {
        Self {
            state: seed | 1,
            ways,
        }
    }
}

impl ReplacementPolicy for PseudoRandom {
    #[inline]
    fn on_hit(&mut self, _set: usize, _way: usize, _tick: u64) {}

    fn fill(&mut self, set: usize, tags: &[LineAddr], tick: u64) -> usize {
        if let Some(way) = tags.iter().position(|&t| t == INVALID_TAG) {
            return way;
        }
        let mut x = self.state ^ (set as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tick;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        (x % self.ways as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: [LineAddr; 4] = [10, 11, 12, 13];

    #[test]
    fn lru_fills_invalid_ways_first_then_evicts_least_recent() {
        let mut lru = Lru::new(1, 4);
        for (tick, want) in [(1, 0), (2, 1), (3, 2), (4, 3)] {
            assert_eq!(lru.fill(0, &FULL, tick), want, "never-filled ways go first");
        }
        lru.on_hit(0, 0, 5); // refresh way 0
        assert_eq!(lru.fill(0, &FULL, 6), 1, "way 1 is now the oldest");
    }

    #[test]
    fn lru_tracks_sets_independently() {
        let mut lru = Lru::new(2, 2);
        for (tick, set) in [(1, 0), (2, 0), (3, 1), (4, 1)] {
            lru.fill(set, &FULL[..2], tick);
        }
        lru.on_hit(0, 0, 10);
        lru.on_hit(1, 1, 10);
        assert_eq!(lru.fill(0, &FULL[..2], 11), 1);
        assert_eq!(lru.fill(1, &FULL[..2], 12), 0);
    }

    #[test]
    fn fifo_ignores_rehits() {
        let mut fifo = Fifo::new(1, 2);
        assert_eq!(fifo.fill(0, &FULL[..2], 1), 0);
        assert_eq!(fifo.fill(0, &FULL[..2], 2), 1);
        fifo.on_hit(0, 0, 99); // re-hit does not refresh
        assert_eq!(fifo.fill(0, &FULL[..2], 100), 0, "way 0 filled first");
    }

    #[test]
    fn random_fills_invalid_ways_first_and_is_deterministic() {
        let mut a = PseudoRandom::new(4, 42);
        let mut b = PseudoRandom::new(4, 42);
        let partial = [10, INVALID_TAG, 12, INVALID_TAG];
        assert_eq!(a.fill(0, &partial, 1), 1);
        for tick in 0..100 {
            let va = a.fill(tick as usize % 8, &FULL, tick);
            let vb = b.fill(tick as usize % 8, &FULL, tick);
            assert_eq!(va, vb);
            assert!(va < 4);
        }
    }
}
