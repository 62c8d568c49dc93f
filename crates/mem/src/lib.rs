//! Memory hierarchy and energy models for the DTexL GPU simulator.
//!
//! The paper's baseline (Table II) has, per GPU:
//!
//! * one 8 KiB L1 **vertex cache** (geometry pipeline),
//! * four private 16 KiB L1 **texture caches** (one per shader core),
//! * one 64 KiB **tile cache** (tiling engine / parameter buffer),
//! * a shared 1 MiB, 8-way **L2** (12-cycle access),
//! * DRAM with a 50–100 cycle load-to-use latency.
//!
//! All caches use 64-byte lines. This crate provides:
//!
//! * [`SetAssocCache`] — a set-associative cache model with LRU, FIFO or
//!   pseudo-random replacement ([`ReplacementKind`]) and per-cache
//!   [`CacheStats`];
//! * [`TextureHierarchy`] — the private-L1s → shared-L2 → DRAM stack the
//!   shader cores see, which is what DTexL's scheduling manipulates, and
//!   its per-core [`LaneHandle`] for a run of accesses;
//! * [`DramModel`] — deterministic 50–100-cycle latency model standing in
//!   for DRAMSim2;
//! * [`energy`] — an event-energy model standing in for McPAT.
//!
//! # Examples
//!
//! ```
//! use dtexl_mem::{TextureHierarchy, TextureHierarchyConfig};
//!
//! let mut hier = TextureHierarchy::new(TextureHierarchyConfig::default());
//! let first = hier.access(0, 0x1000);
//! assert!(!first.l1_hit, "cold miss");
//! let again = hier.access(0, 0x1000);
//! assert!(again.l1_hit, "now resident in SC0's L1");
//! // A different SC misses in its own private L1 but hits in shared L2:
//! let other = hier.access(1, 0x1000);
//! assert!(!other.l1_hit && other.l2_hit, "replicated across private L1s");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dram;
mod energy_impl;
mod hierarchy;
mod lane;
mod stats;

pub use cache::{AccessOutcome, CacheConfig, SetAssocCache};
pub use dram::{DramConfig, DramModel};
pub use hierarchy::{AccessResult, ReplacementKind, TextureHierarchy, TextureHierarchyConfig};
pub use lane::LaneHandle;
pub use stats::{CacheStats, HierarchyStats, MemCounters};

/// Event-energy model (per-access energies plus leakage) standing in for
/// McPAT.
pub mod energy {
    pub use crate::energy_impl::{EnergyBreakdown, EnergyEvents, EnergyModel, EnergyParams};
}

/// A 64-byte cache-line address (byte address ≫ 6).
///
/// The whole simulator works at line granularity: texture sampling
/// produces line addresses directly.
pub type LineAddr = u64;

/// Number of bytes in a cache line throughout the modeled GPU.
pub const LINE_BYTES: u64 = 64;

/// Convert a byte address into a line address.
#[must_use]
pub fn line_of(byte_addr: u64) -> LineAddr {
    byte_addr / LINE_BYTES
}
