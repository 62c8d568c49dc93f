//! The two halves of the texture hierarchy: each shader core's private
//! [`L1Lane`] and the [`SharedL2`] with DRAM behind it.
//!
//! An L1 access that misses sends up to two lines to the shared L2 — the
//! demand line, then an optional next-line prefetch — which
//! [`TextureHierarchy::access`](crate::TextureHierarchy::access) hands to
//! the shared levels at once, in that order. The DRAM latency hash
//! depends on the global request index, so that order is part of every
//! metric.
//!
//! Distinct lines (the compulsory-miss floor in
//! [`HierarchyStats::distinct_lines`](crate::HierarchyStats::distinct_lines))
//! are counted once, at the shared level: every line an L1 fills —
//! demand miss or next-line prefetch — is a request [`SharedL2::access`]
//! sees, so one set there equals the union over all lanes.

use crate::cache::SetAssocCache;
use crate::dram::DramModel;
use crate::stats::MemCounters;
use crate::LineAddr;
use std::collections::BTreeMap;

/// Lines per [`LineSet`] page: a 512-byte bitmap covering 256 KiB of
/// texture.
const PAGE_LINES: u64 = 1 << 12;

/// A set of line addresses kept as a bitmap in pages allocated on first
/// touch, so its memory follows the lines actually touched, never their
/// absolute address: a scene's 0.2–6.8 MiB texture heap needs 1–28
/// pages (at most 16 KiB with the page vector's doubling), and nothing
/// is allocated before the first insert. An insert on the page of the previous one is a test-and-set;
/// moving to another page adds one lookup in a map of pages.
#[derive(Debug, Default)]
pub(crate) struct LineSet {
    /// Page number (`line / PAGE_LINES`) → index into `pages`.
    index: BTreeMap<u64, usize>,
    pages: Vec<[u64; (PAGE_LINES / 64) as usize]>,
    /// `(page number, index)` of the page the last insert touched.
    last: Option<(u64, usize)>,
    len: u64,
}

impl LineSet {
    #[inline]
    pub(crate) fn insert(&mut self, line: LineAddr) {
        let page = line / PAGE_LINES;
        let slot = match self.last {
            Some((last, slot)) if last == page => slot,
            _ => {
                let fresh = self.pages.len();
                let slot = *self.index.entry(page).or_insert(fresh);
                if slot == fresh {
                    self.pages.push([0; (PAGE_LINES / 64) as usize]);
                }
                self.last = Some((page, slot));
                slot
            }
        };
        let bit = line % PAGE_LINES;
        let word = &mut self.pages[slot][(bit / 64) as usize];
        let mask = 1u64 << (bit % 64);
        self.len += u64::from(*word & mask == 0);
        *word |= mask;
    }

    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

/// A private L1 texture cache and its next-line prefetch setting.
#[derive(Debug)]
pub(crate) struct L1Lane {
    l1: SetAssocCache,
    prefetch_next_line: bool,
}

impl L1Lane {
    pub(crate) fn new(l1: SetAssocCache, prefetch_next_line: bool) -> Self {
        Self {
            l1,
            prefetch_next_line,
        }
    }

    /// L1 hit latency in cycles.
    pub(crate) fn l1_latency(&self) -> u32 {
        self.l1.config().latency
    }

    /// Access `line` and return the lines that sends to the shared L2:
    /// `None` on an L1 hit; on a miss the demand line, then the next
    /// line if the L1 prefetched it. Prefetch decisions probe only this
    /// lane's cache.
    #[inline]
    pub(crate) fn access(&mut self, line: LineAddr) -> Option<(LineAddr, Option<LineAddr>)> {
        if self.l1.access(line).hit {
            return None;
        }
        let next = line + 1;
        let prefetch = (self.prefetch_next_line && !self.l1.probe(next)).then(|| {
            self.l1.access(next);
            next
        });
        Some((line, prefetch))
    }

    /// Whether `line` is currently resident (no state change).
    pub(crate) fn probe(&self, line: LineAddr) -> bool {
        self.l1.probe(line)
    }

    pub(crate) fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    pub(crate) fn l1_mut(&mut self) -> &mut SetAssocCache {
        &mut self.l1
    }
}

/// Outcome of one line request to the shared levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct L2Outcome {
    /// Hit in the shared L2.
    pub(crate) l2_hit: bool,
    /// Latency below the L1 in cycles: the L2 hit latency, plus the
    /// DRAM fill latency on an L2 miss.
    pub(crate) latency: u32,
}

/// The shared half of the texture hierarchy: the L2 and the DRAM model
/// behind it. The DRAM latency depends on the global request index, so
/// request order matters.
#[derive(Debug)]
pub(crate) struct SharedL2 {
    l2: SetAssocCache,
    dram: DramModel,
    /// Every line ever requested: the distinct-line count.
    seen: LineSet,
}

impl SharedL2 {
    pub(crate) fn new(l2: SetAssocCache, dram: DramModel) -> Self {
        Self {
            l2,
            dram,
            seen: LineSet::default(),
        }
    }

    /// Request `line`: an L2 lookup, plus a DRAM fill on a miss.
    #[inline]
    pub(crate) fn access(&mut self, line: LineAddr) -> L2Outcome {
        self.seen.insert(line);
        let l2_latency = self.l2.config().latency;
        if self.l2.access(line).hit {
            L2Outcome {
                l2_hit: true,
                latency: l2_latency,
            }
        } else {
            let dram_latency = self.dram.request(line);
            L2Outcome {
                l2_hit: false,
                latency: l2_latency + dram_latency,
            }
        }
    }

    /// Cumulative shared-level counters (see [`MemCounters`]): a
    /// constant-time snapshot meant to bracket a window of accesses.
    pub(crate) fn counters(&self) -> MemCounters {
        let l2 = self.l2.stats();
        MemCounters {
            l2_accesses: l2.accesses,
            l2_hits: l2.hits,
            l2_misses: l2.misses,
            dram_requests: self.dram.requests(),
            dram_spikes: self.dram.spikes(),
        }
    }

    pub(crate) fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    pub(crate) fn l2_mut(&mut self) -> &mut SetAssocCache {
        &mut self.l2
    }

    pub(crate) fn dram(&self) -> &DramModel {
        &self.dram
    }

    pub(crate) fn distinct_lines(&self) -> u64 {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::dram::DramConfig;

    fn lane(prefetch: bool) -> L1Lane {
        L1Lane::new(SetAssocCache::new(CacheConfig::texture_l1()), prefetch)
    }

    fn shared() -> SharedL2 {
        SharedL2::new(
            SetAssocCache::new(CacheConfig::l2()),
            DramModel::new(DramConfig::default()),
        )
    }

    #[test]
    fn lane_sends_lines_to_the_l2_on_misses_only() {
        let mut l = lane(false);
        assert_eq!(l.access(7), Some((7, None)));
        assert_eq!(l.access(7), None);
    }

    #[test]
    fn lane_prefetch_follows_the_demand() {
        let mut l = lane(true);
        assert_eq!(l.access(100), Some((100, Some(101))));
        // The prefetched line is resident, so its demand access hits
        // and sends nothing.
        assert_eq!(l.access(101), None);
    }

    #[test]
    fn request_order_changes_dram_latencies() {
        // The DRAM hash depends on the request index, so the order the
        // shared levels see requests in is part of every metric.
        let mut fwd = shared();
        let a = [fwd.access(11).latency, fwd.access(23).latency];
        let mut rev = shared();
        let b = [rev.access(23).latency, rev.access(11).latency];
        assert!(
            a[0] != b[1] || a[1] != b[0],
            "order-dependent latencies: {a:?} vs {b:?}"
        );
    }
}
