//! Decoupled L1-lane / shared-L2 halves of the texture hierarchy.
//!
//! The serial [`TextureHierarchy::access`](crate::TextureHierarchy::access)
//! interleaves private-L1 state updates with shared-L2/DRAM accesses.
//! For parallel frame simulation the two halves are pulled apart:
//!
//! * each shader core's [`L1Lane`] is simulated independently (it only
//!   reads and writes its own private cache), emitting the stream of
//!   [`L2Request`]s that would have reached the shared levels;
//! * a serial replay pass drives those requests into the [`SharedL2`]
//!   in the exact order the serial simulator would have issued them.
//!
//! Because the DRAM latency hash depends on the global request index,
//! the replay order is what makes parallel runs bit-identical to the
//! serial reference: same L2 access sequence, same DRAM latencies,
//! same statistics.
//!
//! Distinct lines (the compulsory-miss floor in
//! [`HierarchyStats::distinct_lines`](crate::HierarchyStats::distinct_lines))
//! are counted once, at the shared level: every line an L1 fills —
//! demand miss or next-line prefetch — is a request [`SharedL2::replay`]
//! sees, so one set there equals the union over all lanes, on the
//! serial and the split path alike.

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

/// One request bound for the shared L2, recorded while tracing a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Request {
    /// Line address.
    pub line: LineAddr,
    /// `true` for next-line prefetch fills: charged to the bandwidth
    /// statistics but carrying no demand latency.
    pub prefetch: bool,
}

/// A private L1 texture cache plus the per-lane bookkeeping needed to
/// simulate it in isolation from the shared levels.
#[derive(Debug)]
pub struct L1Lane {
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
    #[must_use]
    pub fn l1_latency(&self) -> u32 {
        self.l1.config().latency
    }

    /// Access `line`, appending any shared-L2 requests (the demand miss
    /// first, then an optional next-line prefetch) to `sink`. Returns
    /// whether the access hit in the private L1.
    ///
    /// The L1 state transition is identical to the serial hierarchy's:
    /// prefetch decisions probe only this lane's cache, so they can be
    /// made without consulting the L2.
    #[inline]
    pub fn access(&mut self, line: LineAddr, sink: &mut Vec<L2Request>) -> bool {
        let requests = self.requests(line);
        sink.extend(requests.into_iter().flatten());
        requests[0].is_none()
    }

    /// Access `line` and return the shared-L2 requests that emits: none
    /// on an L1 hit; on a miss the demand request, then a next-line
    /// prefetch if the L1 prefetched.
    #[inline]
    pub(crate) fn requests(&mut self, line: LineAddr) -> [Option<L2Request>; 2] {
        if self.l1.access(line).hit {
            return [None, None];
        }
        let next = line + 1;
        let prefetch = (self.prefetch_next_line && !self.l1.probe(next)).then(|| {
            self.l1.access(next);
            L2Request {
                line: next,
                prefetch: true,
            }
        });
        let demand = L2Request {
            line,
            prefetch: false,
        };
        [Some(demand), prefetch]
    }

    /// Whether `line` is currently resident (no state change).
    #[must_use]
    pub fn probe(&self, line: LineAddr) -> bool {
        self.l1.probe(line)
    }

    pub(crate) fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    pub(crate) fn l1_mut(&mut self) -> &mut SetAssocCache {
        &mut self.l1
    }
}

/// Outcome of replaying one [`L2Request`] into the shared levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Hit in the shared L2.
    pub l2_hit: bool,
    /// Latency below the L1 in cycles: the L2 hit latency, plus the
    /// DRAM fill latency on an L2 miss.
    pub latency: u32,
}

/// The shared half of the texture hierarchy: the L2 and the DRAM model
/// behind it. Requests must be replayed in the serial issue order —
/// the DRAM latency depends on the global request index.
#[derive(Debug)]
pub struct SharedL2 {
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

    /// Replay one request: an L2 lookup, plus a DRAM fill on a miss.
    #[inline]
    pub fn replay(&mut self, req: L2Request) -> ReplayOutcome {
        self.seen.insert(req.line);
        let l2_latency = self.l2.config().latency;
        if self.l2.access(req.line).hit {
            ReplayOutcome {
                l2_hit: true,
                latency: l2_latency,
            }
        } else {
            let dram_latency = self.dram.request(req.line);
            ReplayOutcome {
                l2_hit: false,
                latency: l2_latency + dram_latency,
            }
        }
    }

    /// Replay a trace of requests in order, returning the below-L1
    /// latency of each *demand* request (one entry per non-prefetch
    /// request, in trace order). Prefetches are replayed for their
    /// statistics but yield no latency entry.
    pub fn replay_demand(&mut self, requests: &[L2Request]) -> Vec<u32> {
        requests
            .iter()
            .filter_map(|&req| {
                let out = self.replay(req);
                (!req.prefetch).then_some(out.latency)
            })
            .collect()
    }

    /// Cumulative shared-level counters (see [`MemCounters`]): a
    /// constant-time snapshot meant to bracket replay windows.
    #[must_use]
    pub fn counters(&self) -> MemCounters {
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
    fn lane_emits_demand_requests_on_misses_only() {
        let mut l = lane(false);
        let mut sink = Vec::new();
        assert!(!l.access(7, &mut sink));
        assert!(l.access(7, &mut sink));
        assert_eq!(
            sink,
            vec![L2Request {
                line: 7,
                prefetch: false
            }]
        );
    }

    #[test]
    fn lane_prefetch_appends_after_the_demand() {
        let mut l = lane(true);
        let mut sink = Vec::new();
        l.access(100, &mut sink);
        assert_eq!(sink.len(), 2);
        assert!(!sink[0].prefetch && sink[0].line == 100);
        assert!(sink[1].prefetch && sink[1].line == 101);
        // The prefetched line is resident, so its demand access hits
        // and emits nothing.
        sink.clear();
        assert!(l.access(101, &mut sink));
        assert!(sink.is_empty());
    }

    #[test]
    fn replay_matches_a_direct_l2_walk() {
        // Replaying a trace must access the L2/DRAM in exactly the
        // recorded order: same hits, same latencies.
        let reqs = vec![
            L2Request {
                line: 1,
                prefetch: false,
            },
            L2Request {
                line: 2,
                prefetch: true,
            },
            L2Request {
                line: 1,
                prefetch: false,
            },
        ];
        let mut a = shared();
        let lat = a.replay_demand(&reqs);
        assert_eq!(lat.len(), 2, "one latency per demand request");
        let mut b = shared();
        let first = b.replay(reqs[0]);
        assert!(!first.l2_hit);
        assert_eq!(lat[0], first.latency);
        b.replay(reqs[1]);
        let third = b.replay(reqs[2]);
        assert!(third.l2_hit, "line 1 is now resident");
        assert_eq!(lat[1], third.latency);
    }

    #[test]
    fn replay_order_changes_dram_latencies() {
        // The DRAM hash depends on the request index, so replay order
        // is semantically meaningful — the property the serial replay
        // pass preserves.
        let r1 = L2Request {
            line: 11,
            prefetch: false,
        };
        let r2 = L2Request {
            line: 23,
            prefetch: false,
        };
        let mut fwd = shared();
        let a = fwd.replay_demand(&[r1, r2]);
        let mut rev = shared();
        let b = rev.replay_demand(&[r2, r1]);
        assert!(
            a[0] != b[1] || a[1] != b[0],
            "order-dependent latencies: {a:?} vs {b:?}"
        );
    }
}
