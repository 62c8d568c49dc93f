//! Event-energy model (McPAT stand-in).
//!
//! Total GPU energy is modeled as
//!
//! ```text
//! E = Σ (event_count × per-event energy)  +  P_static × T
//! ```
//!
//! with per-event energies chosen to be representative of a 32 nm
//! low-power GPU (same technology node as Table II). The absolute values
//! are calibration constants — the paper's energy result (Fig. 18) is a
//! *relative* 6.3% decrease driven by (a) fewer L2 accesses and (b)
//! shorter execution time × leakage, and both terms are captured exactly
//! by this event model.

use crate::stats::HierarchyStats;
use std::ops::AddAssign;

/// Per-event energies (picojoules) and static power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy per L1 cache access (any L1: texture, vertex, tile).
    pub l1_access_pj: f64,
    /// Energy per shared-L2 access.
    pub l2_access_pj: f64,
    /// Energy per DRAM 64-byte fill.
    pub dram_access_pj: f64,
    /// Energy per shader-core ALU instruction (register file + ALU).
    pub alu_op_pj: f64,
    /// Energy per quad through a fixed-function stage (raster, early-Z,
    /// blend).
    pub fixed_stage_pj: f64,
    /// Static (leakage) power of the whole GPU in picojoules per cycle.
    /// At 600 MHz, 1 pJ/cycle = 0.6 mW.
    pub static_pj_per_cycle: f64,
}

impl Default for EnergyParams {
    /// 32 nm-class constants (see module docs; calibration values).
    fn default() -> Self {
        Self {
            l1_access_pj: 12.0,
            l2_access_pj: 48.0,
            dram_access_pj: 2600.0,
            alu_op_pj: 4.5,
            fixed_stage_pj: 8.0,
            static_pj_per_cycle: 45.0,
        }
    }
}

/// Event counts accumulated over a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyEvents {
    /// Total L1 accesses (texture + vertex + tile caches).
    pub l1_accesses: u64,
    /// Shared-L2 accesses.
    pub l2_accesses: u64,
    /// DRAM 64-byte transfers.
    pub dram_accesses: u64,
    /// Shader-core ALU instructions executed.
    pub alu_ops: u64,
    /// Quads processed by fixed-function stages.
    pub fixed_stage_quads: u64,
    /// Total execution cycles (for leakage).
    pub cycles: u64,
}

impl EnergyEvents {
    /// Fold a texture-hierarchy statistics snapshot into the event
    /// counts.
    pub fn add_hierarchy(&mut self, stats: &HierarchyStats) {
        self.l1_accesses += stats.l1_accesses();
        self.l2_accesses += stats.l2.accesses;
        self.dram_accesses += stats.dram_accesses;
    }
}

impl AddAssign for EnergyEvents {
    fn add_assign(&mut self, rhs: Self) {
        self.l1_accesses += rhs.l1_accesses;
        self.l2_accesses += rhs.l2_accesses;
        self.dram_accesses += rhs.dram_accesses;
        self.alu_ops += rhs.alu_ops;
        self.fixed_stage_quads += rhs.fixed_stage_quads;
        self.cycles = self.cycles.max(rhs.cycles);
    }
}

/// Energy totals in picojoules, by component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// L1 dynamic energy.
    pub l1_pj: f64,
    /// L2 dynamic energy.
    pub l2_pj: f64,
    /// DRAM dynamic energy.
    pub dram_pj: f64,
    /// Shader-core dynamic energy.
    pub core_pj: f64,
    /// Fixed-function dynamic energy.
    pub fixed_pj: f64,
    /// Leakage energy.
    pub static_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in picojoules.
    #[must_use]
    pub fn total_pj(&self) -> f64 {
        self.l1_pj + self.l2_pj + self.dram_pj + self.core_pj + self.fixed_pj + self.static_pj
    }

    /// Total energy in millijoules (convenience for reports).
    #[must_use]
    pub fn total_mj(&self) -> f64 {
        self.total_pj() * 1e-9
    }
}

/// The energy model: applies [`EnergyParams`] to [`EnergyEvents`].
///
/// # Examples
///
/// ```
/// use dtexl_mem::energy::{EnergyEvents, EnergyModel};
/// let model = EnergyModel::default();
/// let mut ev = EnergyEvents::default();
/// ev.l2_accesses = 1000;
/// ev.cycles = 10_000;
/// let e = model.evaluate(&ev);
/// assert!(e.l2_pj > 0.0 && e.static_pj > 0.0);
/// assert_eq!(e.l1_pj, 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Create a model with custom parameters.
    #[must_use]
    pub fn new(params: EnergyParams) -> Self {
        Self { params }
    }

    /// The model's parameters.
    #[must_use]
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Compute the energy breakdown for a set of event counts.
    #[must_use]
    pub fn evaluate(&self, ev: &EnergyEvents) -> EnergyBreakdown {
        let p = &self.params;
        EnergyBreakdown {
            l1_pj: ev.l1_accesses as f64 * p.l1_access_pj,
            l2_pj: ev.l2_accesses as f64 * p.l2_access_pj,
            dram_pj: ev.dram_accesses as f64 * p.dram_access_pj,
            core_pj: ev.alu_ops as f64 * p.alu_op_pj,
            fixed_pj: ev.fixed_stage_quads as f64 * p.fixed_stage_pj,
            static_pj: ev.cycles as f64 * p.static_pj_per_cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CacheStats;

    #[test]
    fn breakdown_sums() {
        let model = EnergyModel::default();
        let ev = EnergyEvents {
            l1_accesses: 10,
            l2_accesses: 5,
            dram_accesses: 1,
            alu_ops: 100,
            fixed_stage_quads: 20,
            cycles: 1000,
        };
        let e = model.evaluate(&ev);
        let p = model.params();
        assert_eq!(e.l1_pj, 10.0 * p.l1_access_pj);
        assert_eq!(e.l2_pj, 5.0 * p.l2_access_pj);
        assert_eq!(e.dram_pj, p.dram_access_pj);
        assert_eq!(e.core_pj, 100.0 * p.alu_op_pj);
        assert_eq!(e.fixed_pj, 20.0 * p.fixed_stage_pj);
        assert_eq!(e.static_pj, 1000.0 * p.static_pj_per_cycle);
        let sum = e.l1_pj + e.l2_pj + e.dram_pj + e.core_pj + e.fixed_pj + e.static_pj;
        assert_eq!(e.total_pj(), sum);
        assert!((e.total_mj() - sum * 1e-9).abs() < 1e-15);
    }

    #[test]
    fn fewer_l2_accesses_and_cycles_reduce_energy() {
        let model = EnergyModel::default();
        let base = EnergyEvents {
            l1_accesses: 1000,
            l2_accesses: 500,
            dram_accesses: 50,
            alu_ops: 10_000,
            fixed_stage_quads: 400,
            cycles: 100_000,
        };
        let mut improved = base;
        improved.l2_accesses = 250; // DTexL halves replication misses
        improved.cycles = 85_000; // and runs faster
        assert!(model.evaluate(&improved).total_pj() < model.evaluate(&base).total_pj());
    }

    #[test]
    fn hierarchy_stats_fold_in() {
        let mut ev = EnergyEvents::default();
        let stats = HierarchyStats {
            l1: vec![CacheStats {
                accesses: 8,
                hits: 6,
                misses: 2,
                evictions: 0,
            }],
            l2: CacheStats {
                accesses: 2,
                hits: 1,
                misses: 1,
                evictions: 0,
            },
            dram_accesses: 1,
            distinct_lines: 3,
        };
        ev.add_hierarchy(&stats);
        assert_eq!(ev.l1_accesses, 8);
        assert_eq!(ev.l2_accesses, 2);
        assert_eq!(ev.dram_accesses, 1);
    }

    #[test]
    fn add_assign_merges_and_keeps_max_cycles() {
        let mut a = EnergyEvents {
            l1_accesses: 1,
            cycles: 500,
            ..Default::default()
        };
        a += EnergyEvents {
            l1_accesses: 2,
            cycles: 300,
            ..Default::default()
        };
        assert_eq!(a.l1_accesses, 3);
        assert_eq!(a.cycles, 500, "cycles are wall-clock, not additive");
    }
}
