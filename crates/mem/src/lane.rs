//! The two halves of the texture hierarchy: each shader core's private
//! [`L1Lane`] and the [`SharedL2`] with DRAM behind it.
//!
//! A [`LaneHandle`] runs accesses through both halves. An L1 access that
//! misses sends up to two lines to the shared L2 — the demand line, then
//! an optional next-line prefetch — which the handle hands to the shared
//! levels at once, in that order. The DRAM latency hash depends on the
//! global request index, so that order is part of every metric.
//!
//! Distinct lines (the compulsory-miss floor in
//! [`HierarchyStats::distinct_lines`](crate::HierarchyStats::distinct_lines))
//! are counted once, at the shared level: every line an L1 fills —
//! demand miss or next-line prefetch — is a request the shared levels
//! see, so one set there equals the union over all lanes.

use crate::cache::{Session, SetAssocCache};
use crate::dram::DramModel;
use crate::hierarchy::AccessResult;
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

/// One shader core's way into the texture hierarchy for a run of
/// accesses: a session on its private L1 and one on the shared L2,
/// plus the distinct-line set and the DRAM model. The caches' clocks
/// and counters stay in the handle until it is dropped, so the other
/// views of the hierarchy (statistics, probes, other lanes) wait for
/// it; [`TextureHierarchy::lane`](crate::TextureHierarchy::lane) opens
/// it.
///
/// `W` is the L1's associativity, so the L1 lookup is compiled for it;
/// `W == 0` reads the width at run time.
///
/// # Examples
///
/// ```
/// use dtexl_mem::{TextureHierarchy, TextureHierarchyConfig};
/// let mut h = TextureHierarchy::new(TextureHierarchyConfig::default());
/// let mut lane = h.lane::<4>(0);
/// assert!(!lane.access(7).l1_hit);
/// assert!(lane.access(7).l1_hit);
/// drop(lane);
/// assert_eq!(h.stats().l1[0].accesses, 2);
/// ```
#[derive(Debug)]
pub struct LaneHandle<'a, const W: usize> {
    l1: Session<'a>,
    l1_latency: u32,
    prefetch_next_line: bool,
    l2: Session<'a>,
    l2_latency: u32,
    seen: &'a mut LineSet,
    dram: &'a mut DramModel,
}

impl<'a, const W: usize> LaneHandle<'a, W> {
    /// Open the handle on `lane` and the shared levels.
    #[inline(always)]
    pub(crate) fn new(lane: &'a mut L1Lane, shared: &'a mut SharedL2) -> Self {
        let l1_latency = lane.l1.config().latency;
        let l2_latency = shared.l2.config().latency;
        Self {
            l1: lane.l1.session(),
            l1_latency,
            prefetch_next_line: lane.prefetch_next_line,
            l2: shared.l2.session(),
            l2_latency,
            seen: &mut shared.seen,
            dram: &mut shared.dram,
        }
    }

    /// Access `line`: the L1 takes the demand line, then on a miss the
    /// next line if prefetching and not resident (a decision that
    /// probes only this lane's L1); the shared L2 then sees the demand
    /// request, then the prefetch.
    #[inline(always)]
    pub fn access(&mut self, line: LineAddr) -> AccessResult {
        if self.l1.lookup::<W>(line).hit {
            return AccessResult {
                l1_hit: true,
                l2_hit: false,
                latency: self.l1_latency,
            };
        }
        let next = line + 1;
        let prefetch = self.prefetch_next_line && !self.l1.probe::<W>(next);
        if prefetch {
            self.l1.lookup::<W>(next);
        }
        let (l2_hit, below) = self.shared(line);
        if prefetch {
            self.shared(next);
        }
        AccessResult {
            l1_hit: false,
            l2_hit,
            latency: self.l1_latency + below,
        }
    }

    /// Request `line` from the shared levels: an L2 lookup, plus a DRAM
    /// fill on a miss. Returns the L2 hit and the latency below the L1.
    #[inline(always)]
    fn shared(&mut self, line: LineAddr) -> (bool, u32) {
        self.seen.insert(line);
        if self.l2.access(line).hit {
            (true, self.l2_latency)
        } else {
            (false, self.l2_latency + self.dram.request(line))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{TextureHierarchy, TextureHierarchyConfig};

    fn hierarchy(prefetch_next_line: bool) -> TextureHierarchy {
        TextureHierarchy::new(TextureHierarchyConfig {
            prefetch_next_line,
            ..TextureHierarchyConfig::default()
        })
    }

    #[test]
    fn lane_sends_lines_to_the_l2_on_misses_only() {
        let mut h = hierarchy(false);
        let mut lane = h.lane::<4>(0);
        assert!(!lane.access(7).l1_hit);
        assert!(lane.access(7).l1_hit);
        drop(lane);
        assert_eq!(h.shared_counters().l2_accesses, 1);
        assert_eq!(h.distinct_lines(), 1);
    }

    #[test]
    fn lane_prefetch_follows_the_demand() {
        let mut h = hierarchy(true);
        let mut lane = h.lane::<4>(0);
        assert!(!lane.access(100).l1_hit);
        // The prefetched line is resident, so its demand access hits
        // and sends nothing.
        assert!(lane.access(101).l1_hit);
        drop(lane);
        assert_eq!(h.shared_counters().l2_accesses, 2, "demand, then prefetch");
        assert_eq!(h.distinct_lines(), 2);
    }

    #[test]
    fn request_order_changes_dram_latencies() {
        // The DRAM hash depends on the request index, so the order the
        // shared levels see requests in is part of every metric.
        let mut fwd = hierarchy(false);
        let mut lane = fwd.lane::<4>(0);
        let a = [lane.access(11).latency, lane.access(23).latency];
        let mut rev = hierarchy(false);
        let mut lane = rev.lane::<4>(0);
        let b = [lane.access(23).latency, lane.access(11).latency];
        assert!(
            a[0] != b[1] || a[1] != b[0],
            "order-dependent latencies: {a:?} vs {b:?}"
        );
    }
}
