//! Deterministic fault injection.
//!
//! A [`FaultPlan`] perturbs one simulation in a fully reproducible way
//! — the same plan on the same scene always produces the same result.
//! It exists to turn the paper's robustness argument into executable
//! properties: decoupled barriers degrade gracefully when a single SC
//! lane stalls, while coupled barriers collapse to the slowest lane
//! (see `tests/fault_injection.rs` and `docs/ROBUSTNESS.md`).
//!
//! Independent knobs:
//!
//! * **Lane stall** — one shader-core lane loses [`LaneStall::cycles`]
//!   fragment-stage cycles on a single tile chosen deterministically
//!   from [`FaultPlan::seed`]. Applied to the recorded stage durations,
//!   so both barrier modes see the *same* perturbed workload and the
//!   cache statistics are untouched.
//! * **Early-Z stall** — the same, but on one early-Z unit, landing on
//!   an independently seeded tile. Exists so the observability layer
//!   can prove trace wait-attribution localizes a stall to the right
//!   (SC, stage), not just the right lane.
//! * **DRAM spike** — every [`DramSpike::period`]-th memory fill pays
//!   [`DramSpike::extra_cycles`] extra latency (bus contention).
//! * **Wall stall** — the simulation sleeps for
//!   [`FaultPlan::wall_stall_ms`] of real time before running. Purely a
//!   test hook for the sweep engine's per-job timeout watchdog; it does
//!   not change any simulated metric.
//! * **Allocation spike** — the simulation transiently allocates
//!   [`FaultPlan::alloc_spike_mb`] mebibytes on the calling thread
//!   before running. Purely a test hook for the sweep engine's per-job
//!   memory budget watchdog; it does not change any simulated metric.

use crate::timing::StageDurations;

/// Stall one SC lane's fragment stage for a number of cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStall {
    /// The shader-core lane to stall (0..num_sc).
    pub lane: usize,
    /// Cycles added to that lane's fragment duration on the chosen
    /// tile.
    pub cycles: u64,
}

/// Periodic DRAM latency spikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramSpike {
    /// Every `period`-th fill request is spiked (must be ≥ 1).
    pub period: u64,
    /// Extra cycles charged on spiked requests.
    pub extra_cycles: u32,
}

/// A deterministic, seeded fault-injection plan (off by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed selecting *where* faults land (e.g. which tile a lane
    /// stall hits).
    pub seed: u64,
    /// Optional single-lane fragment-stage stall.
    pub lane_stall: Option<LaneStall>,
    /// Optional single-unit early-Z-stage stall. Lands on a tile chosen
    /// from an *uncorrelated* seed stream (see
    /// [`early_z_stall_tile`](Self::early_z_stall_tile)), so a plan that
    /// also carries a fragment [`lane_stall`](Self::lane_stall) can hit
    /// two different tiles. Trace wait-attribution must localize this
    /// stall to the injected (SC, stage) — pinned by
    /// `tests/fault_injection.rs`.
    pub early_z_stall: Option<LaneStall>,
    /// Optional periodic DRAM latency spikes.
    pub dram_spike: Option<DramSpike>,
    /// Wall-clock sleep (milliseconds) before simulating — a watchdog
    /// test hook, not a model feature.
    pub wall_stall_ms: u64,
    /// Transient allocation (mebibytes) on the calling thread before
    /// simulating — a memory-budget test hook, not a model feature.
    /// The buffer is freed before simulation starts, so only allocator
    /// high-water marks see it.
    pub alloc_spike_mb: u32,
}

impl FaultPlan {
    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.lane_stall.is_none()
            && self.early_z_stall.is_none()
            && self.dram_spike.is_none()
            && self.wall_stall_ms == 0
            && self.alloc_spike_mb == 0
    }

    /// Check the plan against the hardware it will be injected into.
    ///
    /// # Errors
    ///
    /// Returns a message when a knob is out of range (stalled lane not
    /// present, zero spike period).
    pub fn validate(&self, num_sc: usize) -> Result<(), String> {
        if let Some(s) = self.lane_stall {
            if s.lane >= num_sc {
                return Err(format!(
                    "lane stall targets lane {}, but only {num_sc} lane(s) exist",
                    s.lane
                ));
            }
        }
        if let Some(s) = self.early_z_stall {
            if s.lane >= num_sc {
                return Err(format!(
                    "early-Z stall targets unit {}, but only {num_sc} unit(s) exist",
                    s.lane
                ));
            }
        }
        if let Some(s) = self.dram_spike {
            if s.period == 0 {
                return Err("dram spike period must be >= 1".into());
            }
        }
        Ok(())
    }

    /// The tile index a lane stall lands on, for a frame of
    /// `num_tiles` tiles (seeded, deterministic).
    #[must_use]
    pub fn stall_tile(&self, num_tiles: usize) -> usize {
        if num_tiles == 0 {
            return 0;
        }
        (splitmix64(self.seed) % num_tiles as u64) as usize
    }

    /// The tile index an early-Z stall lands on, for a frame of
    /// `num_tiles` tiles. Seeded from a stream decorrelated from
    /// [`stall_tile`](Self::stall_tile) so the two stalls spread over
    /// different tiles under the same seed.
    #[must_use]
    pub fn early_z_stall_tile(&self, num_tiles: usize) -> usize {
        if num_tiles == 0 {
            return 0;
        }
        (splitmix64(self.seed ^ 0xE2) % num_tiles as u64) as usize
    }

    /// Inject the lane stall (if any) into recorded stage durations.
    /// Both barrier modes compose frame time from the same durations,
    /// so the perturbation is identical for the coupled/decoupled
    /// comparison.
    pub(crate) fn apply_to_durations(&self, d: &mut StageDurations) {
        if d.is_empty() {
            return;
        }
        if let Some(stall) = self.lane_stall {
            let tile = self.stall_tile(d.len());
            d.fragment[tile][stall.lane] += stall.cycles;
        }
        if let Some(stall) = self.early_z_stall {
            let tile = self.early_z_stall_tile(d.len());
            d.early_z[tile][stall.lane] += stall.cycles;
        }
    }
}

/// splitmix64: the same mixer the DRAM model uses, kept private there —
/// good enough to decorrelate seed → tile choice.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop_and_valid() {
        let f = FaultPlan::default();
        assert!(f.is_noop());
        assert_eq!(f.validate(4), Ok(()));
    }

    #[test]
    fn alloc_spike_makes_the_plan_non_noop() {
        let f = FaultPlan {
            alloc_spike_mb: 64,
            ..FaultPlan::default()
        };
        assert!(!f.is_noop());
        assert_eq!(f.validate(4), Ok(()), "spike size is unconstrained");
    }

    #[test]
    fn out_of_range_lane_is_rejected() {
        let f = FaultPlan {
            lane_stall: Some(LaneStall {
                lane: 4,
                cycles: 100,
            }),
            ..FaultPlan::default()
        };
        assert!(f.validate(4).unwrap_err().contains("lane 4"));
        assert_eq!(f.validate(5), Ok(()));
    }

    #[test]
    fn zero_spike_period_is_rejected() {
        let f = FaultPlan {
            dram_spike: Some(DramSpike {
                period: 0,
                extra_cycles: 10,
            }),
            ..FaultPlan::default()
        };
        assert!(f.validate(4).is_err());
    }

    #[test]
    fn stall_tile_is_seed_deterministic_and_in_range() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let f = FaultPlan {
                seed,
                ..FaultPlan::default()
            };
            let t = f.stall_tile(7);
            assert!(t < 7);
            assert_eq!(t, f.stall_tile(7), "same seed, same tile");
        }
        // Different seeds should be able to reach different tiles.
        let tiles: std::collections::HashSet<usize> = (0..32)
            .map(|seed| {
                FaultPlan {
                    seed,
                    ..FaultPlan::default()
                }
                .stall_tile(64)
            })
            .collect();
        assert!(tiles.len() > 8, "seeds spread over tiles: {tiles:?}");
    }

    #[test]
    fn stall_applies_to_one_lane_of_one_tile() {
        let mut d = StageDurations {
            fetch: vec![1; 5],
            raster: vec![1; 5],
            early_z: vec![[1; 4]; 5],
            fragment: vec![[10; 4]; 5],
            blend: vec![[1; 4]; 5],
        };
        let f = FaultPlan {
            seed: 3,
            lane_stall: Some(LaneStall {
                lane: 2,
                cycles: 1000,
            }),
            ..FaultPlan::default()
        };
        f.apply_to_durations(&mut d);
        let total: u64 = d.fragment.iter().flatten().sum();
        assert_eq!(total, 5 * 4 * 10 + 1000);
        let hit = f.stall_tile(5);
        assert_eq!(d.fragment[hit][2], 1010);
    }

    #[test]
    fn early_z_stall_hits_its_own_stage_on_a_decorrelated_tile() {
        let mut d = StageDurations {
            fetch: vec![1; 5],
            raster: vec![1; 5],
            early_z: vec![[2; 4]; 5],
            fragment: vec![[10; 4]; 5],
            blend: vec![[1; 4]; 5],
        };
        let f = FaultPlan {
            seed: 3,
            early_z_stall: Some(LaneStall {
                lane: 1,
                cycles: 500,
            }),
            ..FaultPlan::default()
        };
        assert!(!f.is_noop());
        assert_eq!(f.validate(4), Ok(()));
        assert!(f
            .validate(1)
            .unwrap_err()
            .contains("early-Z stall targets unit 1"));
        f.apply_to_durations(&mut d);
        let hit = f.early_z_stall_tile(5);
        assert_eq!(d.early_z[hit][1], 502);
        // Fragment durations untouched.
        assert!(d.fragment.iter().flatten().all(|&c| c == 10));
        // The two stall streams decorrelate: over many seeds they must
        // disagree on the tile at least once.
        assert!(
            (0..16).any(|seed| {
                let f = FaultPlan {
                    seed,
                    ..FaultPlan::default()
                };
                f.stall_tile(64) != f.early_z_stall_tile(64)
            }),
            "seed streams must not be identical"
        );
    }
}
