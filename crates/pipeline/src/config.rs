//! Pipeline configuration (Table II defaults).

use crate::error::SimError;
use crate::fault::FaultPlan;
use dtexl_mem::{CacheConfig, TextureHierarchyConfig};

/// Barrier organization of the last three raster stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierMode {
    /// Baseline (Fig. 4): Early-Z, Fragment and Blend each process one
    /// tile at a time; all four units synchronize at tile boundaries.
    Coupled,
    /// DTexL (Fig. 10): each parallel unit only waits for *its own*
    /// previous subtile; color-buffer banks flush independently.
    Decoupled,
    /// Decoupled, but a unit may run at most `tiles_ahead` tiles ahead
    /// of the slowest sibling unit (a bounded run-ahead credit). The
    /// paper's proposal is unbounded; this variant shows how quickly
    /// the benefit converges with modest buffering (DESIGN.md §6).
    DecoupledBounded {
        /// Maximum tiles a unit may lead the slowest unit by (0 ≡
        /// coupled for the fragment chain).
        tiles_ahead: u32,
    },
}

/// Hardware configuration of the modeled GPU.
///
/// Defaults reproduce Table II: 600 MHz, 32×32 tiles, 4 SCs with 16 KiB
/// private texture L1s, 1 MiB shared L2, 50–100-cycle DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Tile side in pixels (Table II: 32): even, at most 512.
    pub tile_size: u32,
    /// Number of parallel raster pipelines / shader cores (4).
    pub num_sc: usize,
    /// Warp slots per shader core (multithreading depth for latency
    /// hiding).
    pub warp_slots: usize,
    /// Rasterizer throughput in quads per cycle (feeds all pipelines).
    pub raster_quads_per_cycle: u32,
    /// Texture memory hierarchy (L1s + L2 + DRAM).
    pub hierarchy: TextureHierarchyConfig,
    /// L1 vertex cache geometry.
    pub vertex_cache: CacheConfig,
    /// Tile cache geometry (parameter buffer traffic).
    pub tile_cache: CacheConfig,
    /// Cycles the tile fetcher spends per primitive list entry.
    pub fetch_cycles_per_prim: u32,
    /// Cycles an L1 texture miss occupies the shader core's texture
    /// unit (MSHR allocation + line fill). This bounds the miss
    /// bandwidth of each core: multithreading hides miss *latency*, but
    /// the fill port is a throughput resource, which is how reduced
    /// replication (fewer L1 misses) turns into shader-core throughput
    /// (§V-C2).
    pub l1_miss_fill_cycles: u32,
    /// Cycles to flush one color-buffer bank to memory at tile end.
    pub flush_cycles_per_bank: u32,
    /// Model the Fig. 16 upper bound: a single SC whose L1 aggregates
    /// all private capacity (4×), eliminating replication.
    pub upper_bound: bool,
    /// Deterministic fault injection (robustness testing; off by
    /// default — see [`FaultPlan`]).
    pub fault: FaultPlan,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            tile_size: 32,
            num_sc: 4,
            warp_slots: 12,
            raster_quads_per_cycle: 4,
            hierarchy: TextureHierarchyConfig::default(),
            vertex_cache: CacheConfig::vertex_l1(),
            tile_cache: CacheConfig::tile_cache(),
            fetch_cycles_per_prim: 2,
            l1_miss_fill_cycles: 10,
            // One bank holds 1/4 of a 32×32 RGBA8 tile = 1 KiB = 16
            // lines; one line per cycle.
            flush_cycles_per_bank: 16,
            upper_bound: false,
            fault: FaultPlan::default(),
        }
    }
}

impl PipelineConfig {
    /// Quads per tile row/column.
    #[must_use]
    pub fn quads_per_side(&self) -> u32 {
        self.tile_size / 2
    }

    /// The effective texture-hierarchy configuration, honoring
    /// [`upper_bound`](Self::upper_bound) and merging in any DRAM
    /// fault injection from [`fault`](Self::fault).
    #[must_use]
    pub fn effective_hierarchy(&self) -> TextureHierarchyConfig {
        let mut h = if self.upper_bound {
            self.hierarchy.upper_bound(self.num_sc as u64)
        } else {
            self.hierarchy
        };
        if let Some(spike) = self.fault.dram_spike {
            h.dram.spike_period = spike.period;
            h.dram.spike_extra = spike.extra_cycles;
        }
        h
    }

    /// Number of shader cores actually instantiated (1 in upper-bound
    /// mode).
    #[must_use]
    pub fn effective_num_sc(&self) -> usize {
        if self.upper_bound {
            1
        } else {
            self.num_sc
        }
    }

    /// Validate invariants the simulator depends on.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the configuration is
    /// inconsistent, or [`SimError::Fault`] when the fault plan does
    /// not fit the hardware.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.tile_size == 0 || !self.tile_size.is_multiple_of(2) {
            return Err(SimError::Config(format!(
                "tile size {} must be even and non-zero",
                self.tile_size
            )));
        }
        if self.tile_size > 512 {
            return Err(SimError::Config(format!(
                "tile size {} exceeds 512: a tile-local quad position must fit one byte per axis",
                self.tile_size
            )));
        }
        if self.num_sc != 4 {
            return Err(SimError::Config(format!(
                "num_sc = {} is unsupported: the modeled raster pipeline has exactly 4 \
                 parallel units (Fig. 4); use `upper_bound` for the aggregated-cache study",
                self.num_sc
            )));
        }
        if self.warp_slots == 0 {
            return Err(SimError::Config("need at least one warp slot".into()));
        }
        if self.raster_quads_per_cycle == 0 {
            return Err(SimError::Config(
                "rasterizer throughput must be non-zero".into(),
            ));
        }
        self.fault
            .validate(self.effective_num_sc())
            .map_err(SimError::Fault)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = PipelineConfig::default();
        assert_eq!(c.tile_size, 32);
        assert_eq!(c.num_sc, 4);
        assert_eq!(c.quads_per_side(), 16);
        assert_eq!(c.hierarchy.l1.size_bytes, 16 * 1024);
        assert_eq!(c.hierarchy.l2.size_bytes, 1024 * 1024);
        assert_eq!(c.vertex_cache.size_bytes, 8 * 1024);
        assert_eq!(c.tile_cache.size_bytes, 64 * 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn upper_bound_rewires_hierarchy() {
        let c = PipelineConfig {
            upper_bound: true,
            ..PipelineConfig::default()
        };
        assert_eq!(c.effective_num_sc(), 1);
        let h = c.effective_hierarchy();
        assert_eq!(h.num_l1, 1);
        assert_eq!(h.l1.size_bytes, 64 * 1024);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let c = PipelineConfig {
            tile_size: 31,
            ..PipelineConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PipelineConfig {
            warp_slots: 0,
            ..PipelineConfig::default()
        };
        assert!(c.validate().is_err());
        let c = PipelineConfig {
            num_sc: 8,
            ..PipelineConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(
            err.to_string().contains("num_sc = 8"),
            "error names the value: {err}"
        );
    }

    #[test]
    fn tiles_over_512_pixels_are_a_config_error() {
        // A tile-local quad position packs into one byte per axis.
        let at = |tile_size| {
            PipelineConfig {
                tile_size,
                ..PipelineConfig::default()
            }
            .validate()
        };
        assert!(at(512).is_ok());
        let err = at(514).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
        assert!(err.to_string().contains("tile size 514"), "{err}");
    }

    #[test]
    fn validation_covers_the_fault_plan() {
        use crate::fault::LaneStall;
        let c = PipelineConfig {
            fault: crate::fault::FaultPlan {
                lane_stall: Some(LaneStall { lane: 9, cycles: 1 }),
                ..crate::fault::FaultPlan::default()
            },
            ..PipelineConfig::default()
        };
        assert!(matches!(c.validate(), Err(SimError::Fault(_))));
    }

    #[test]
    fn dram_spike_merges_into_effective_hierarchy() {
        use crate::fault::DramSpike;
        let mut c = PipelineConfig::default();
        assert_eq!(c.effective_hierarchy().dram.spike_period, 0);
        c.fault.dram_spike = Some(DramSpike {
            period: 7,
            extra_cycles: 300,
        });
        let h = c.effective_hierarchy();
        assert_eq!(h.dram.spike_period, 7);
        assert_eq!(h.dram.spike_extra, 300);
    }
}
