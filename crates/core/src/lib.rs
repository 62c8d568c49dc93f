//! # DTexL — Decoupled Raster Pipeline for Texture Locality
//!
//! A full reproduction of *DTexL: Decoupled Raster Pipeline for Texture
//! Locality* (MICRO 2022) as a Rust library. DTexL improves mobile-GPU
//! performance and energy by scheduling raster quads for **texture
//! locality** instead of pure load balance, and recovers the resulting
//! load imbalance with a **decoupled-barrier** raster pipeline.
//!
//! The workspace layers:
//!
//! * [`dtexl_sched`] — quad groupings (Fig. 6), tile orders (Fig. 7)
//!   and subtile assignments (Fig. 8);
//! * [`dtexl_scene`] — synthetic stand-ins for the ten commercial games
//!   of Table I;
//! * [`dtexl_pipeline`] — the cycle-level TBR pipeline (TEAPOT
//!   stand-in) with coupled/decoupled barrier composition;
//! * [`dtexl_mem`] — caches, DRAM and the energy model;
//! * this crate — a one-call simulator facade ([`Simulator`]) and the
//!   experiment harness ([`experiments::Lab`]) that regenerates every
//!   figure and table of the paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use dtexl::{SimConfig, Simulator};
//! use dtexl_scene::Game;
//!
//! // Simulate one small frame of the GTr workload under both the
//! // baseline scheduler and DTexL.
//! let base = Simulator::simulate(&SimConfig::baseline(Game::GravityTetris).with_resolution(256, 128));
//! let dtexl = Simulator::simulate(&SimConfig::dtexl(Game::GravityTetris).with_resolution(256, 128));
//! assert!(dtexl.l2_accesses < base.l2_accesses, "DTexL cuts L2 traffic");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod sim;
mod tail;

pub mod characterize;
pub mod daemon;
pub mod dispatch;
pub mod experiments;
pub mod profile;
pub mod registry;
pub mod report;
pub mod spool;
pub mod sweep;

pub use metrics::{percentile, Distribution, Row, Table};
pub use sim::{SequenceReport, SimConfig, SimReport, Simulator, CLOCK_HZ};

// Re-export the member crates so `dtexl` is a one-stop dependency.
pub use dtexl_alloc as alloc;
pub use dtexl_gmath as gmath;
pub use dtexl_mem as mem;
pub use dtexl_obs as obs;
pub use dtexl_pipeline as pipeline;
pub use dtexl_scene as scene;
pub use dtexl_sched as sched;
pub use dtexl_texture as texture;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `mutex`, recovering its data when a panicking holder poisoned
/// it: an isolated job panic must not wedge the prefix cache, a
/// sweep's records or [`experiments::Lab`]. Recovery is sound because
/// every critical section is one map or vector update, which leaves
/// the data valid at every step.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
