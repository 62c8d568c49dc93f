//! Statistics for caches and the texture hierarchy.

use std::ops::AddAssign;

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that found the line resident.
    pub hits: u64,
    /// Lookups that had to fill.
    pub misses: u64,
    /// Fills that displaced a valid line.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when there were no accesses).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Miss rate in `[0, 1]` (0 when there were no accesses).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: Self) {
        self.accesses += rhs.accesses;
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.evictions += rhs.evictions;
    }
}

/// Cheap monotone snapshot of the shared levels (L2 + DRAM), taken
/// before/after a window of accesses so observability probes can attribute
/// the delta to one fragment subtile without walking full
/// [`HierarchyStats`]. All counters are cumulative since construction;
/// subtract two snapshots to get a window's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Shared-L2 lookups.
    pub l2_accesses: u64,
    /// Shared-L2 hits.
    pub l2_hits: u64,
    /// Shared-L2 misses (each becomes a DRAM request).
    pub l2_misses: u64,
    /// DRAM fill requests.
    pub dram_requests: u64,
    /// DRAM requests that landed on an injected latency spike.
    pub dram_spikes: u64,
}

impl MemCounters {
    /// Counter-wise difference `self - earlier` (saturating, so a
    /// mismatched pair degrades to zeros instead of wrapping).
    #[must_use]
    pub fn since(&self, earlier: &Self) -> Self {
        Self {
            l2_accesses: self.l2_accesses.saturating_sub(earlier.l2_accesses),
            l2_hits: self.l2_hits.saturating_sub(earlier.l2_hits),
            l2_misses: self.l2_misses.saturating_sub(earlier.l2_misses),
            dram_requests: self.dram_requests.saturating_sub(earlier.dram_requests),
            dram_spikes: self.dram_spikes.saturating_sub(earlier.dram_spikes),
        }
    }
}

/// Aggregated statistics for the texture memory hierarchy.
///
/// `l2.accesses` is the headline metric of the paper (Figs. 2, 11, 16):
/// every private-L1 miss becomes an L2 access.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// Per-L1 statistics, indexed by shader core.
    pub l1: Vec<CacheStats>,
    /// Shared L2 statistics.
    pub l2: CacheStats,
    /// Number of DRAM fills (L2 misses).
    pub dram_accesses: u64,
    /// Distinct lines ever requested from the shared L2, demand and
    /// prefetch (the compulsory-miss floor).
    pub distinct_lines: u64,
}

impl HierarchyStats {
    /// Sum of all L1 accesses (the texture request count).
    #[must_use]
    pub fn l1_accesses(&self) -> u64 {
        self.l1.iter().map(|s| s.accesses).sum()
    }

    /// Sum of all L1 misses — equals the L2 access count.
    #[must_use]
    pub fn l1_misses(&self) -> u64 {
        self.l1.iter().map(|s| s.misses).sum()
    }

    /// Mean requests per distinct line — the "reuse of texture memory
    /// blocks" the paper observes "varies greatly across different
    /// games" (§IV-B). Zero when nothing was accessed.
    #[must_use]
    pub fn reuse_factor(&self) -> f64 {
        if self.distinct_lines == 0 {
            0.0
        } else {
            self.l1_accesses() as f64 / self.distinct_lines as f64
        }
    }

    /// Mean L1 fills per distinct line — how often the *same* block was
    /// (re)fetched into private L1s. This is the paper's "memory block
    /// replication" made measurable: a fine-grained scheduler fetches
    /// each shared line into up to four private caches (plus capacity
    /// refetches); a locality scheduler approaches 1 fill per line.
    /// Zero when nothing was accessed.
    #[must_use]
    pub fn fill_redundancy(&self) -> f64 {
        if self.distinct_lines == 0 {
            0.0
        } else {
            self.l1_misses() as f64 / self.distinct_lines as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CacheStats {
            accesses: 10,
            hits: 7,
            misses: 3,
            evictions: 1,
        };
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
        assert!((s.miss_rate() - 0.3).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn add_assign_sums_fields() {
        let mut a = CacheStats {
            accesses: 1,
            hits: 1,
            misses: 0,
            evictions: 0,
        };
        a += CacheStats {
            accesses: 2,
            hits: 0,
            misses: 2,
            evictions: 1,
        };
        assert_eq!(a.accesses, 3);
        assert_eq!(a.hits, 1);
        assert_eq!(a.misses, 2);
        assert_eq!(a.evictions, 1);
    }

    #[test]
    fn hierarchy_aggregates() {
        let h = HierarchyStats {
            l1: vec![
                CacheStats {
                    accesses: 10,
                    hits: 8,
                    misses: 2,
                    evictions: 0,
                },
                CacheStats {
                    accesses: 20,
                    hits: 15,
                    misses: 5,
                    evictions: 2,
                },
            ],
            l2: CacheStats {
                accesses: 7,
                hits: 6,
                misses: 1,
                evictions: 0,
            },
            dram_accesses: 1,
            distinct_lines: 10,
        };
        assert_eq!(h.l1_accesses(), 30);
        assert_eq!(h.l1_misses(), 7);
        assert_eq!(h.l1_misses(), h.l2.accesses);
    }
}
