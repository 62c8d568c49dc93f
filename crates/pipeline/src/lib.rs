//! Cycle-level Tile-Based-Rendering graphics pipeline for DTexL.
//!
//! This crate is the TEAPOT stand-in: it models the full TBR pipeline of
//! Fig. 3 at the granularity the paper's results depend on.
//!
//! ```text
//!  Geometry Pipeline          Tiling Engine              Raster Pipeline
//! ┌──────────────────┐   ┌─────────────────────┐   ┌───────────────────────────┐
//! │ Vertex fetch      │   │ Polygon List Builder │   │ Tile Fetcher → Rasterizer │
//! │  (L1 vertex cache)│ → │  (Parameter Buffer,  │ → │  → Early-Z (4 units)      │
//! │ Transform, Prim   │   │   Tile Cache)        │   │  → Fragment (4 SCs + L1s) │
//! │ Assembly, Clip    │   │ Tile Fetcher order   │   │  → Blend (4 banks), Flush │
//! └──────────────────┘   └─────────────────────┘   └───────────────────────────┘
//! ```
//!
//! The important modeling decisions:
//!
//! * **Functional + timing split.** One functional pass rasterizes every
//!   tile in schedule order, performs early-Z, and feeds each shader
//!   core's quads (with real texture-line footprints) through a
//!   warp-level SC timing model backed by the `dtexl-mem` hierarchy.
//!   That yields per-(tile, SC) fragment durations and cache statistics.
//!   Frame time is then *composed* from those durations under either
//!   barrier mode — the per-SC quad order is identical in both, so the
//!   cache behavior is shared and the comparison is apples-to-apples.
//! * **Coupled barriers** (Fig. 4): each of Early-Z / Fragment / Blend
//!   works on exactly one tile at a time; a stage starts tile *t+1* only
//!   when all four of its units finished tile *t*.
//! * **Decoupled barriers** (Fig. 10, DTexL): each *unit* of those
//!   stages advances to its subtile of the next tile independently; the
//!   color buffer flushes per bank.
//!
//! # Examples
//!
//! ```
//! use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
//! use dtexl_scene::{Game, SceneSpec};
//! use dtexl_sched::{ScheduleConfig, TileSchedule};
//!
//! let config = PipelineConfig::default();
//! let scene = Game::GravityTetris.scene(&SceneSpec::new(256, 128, 0));
//! let sim = FrameSim::try_run(&scene, &ScheduleConfig::baseline(), &config, 256, 128)?;
//! assert!(sim.total_cycles(BarrierMode::Coupled)
//!     >= sim.total_cycles(BarrierMode::Decoupled));
//! # Ok::<(), dtexl_pipeline::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod fault;
mod frame;
mod geometry;
mod prefix;
mod prim;
mod raster;
mod render;
mod shade;
#[cfg(test)]
mod shade_detailed;
mod tiling;
mod timing;
mod zbuffer;

pub use config::{BarrierMode, PipelineConfig};
pub use error::SimError;
pub use fault::{DramSpike, FaultPlan, LaneStall};
pub use frame::{FrameResult, FrameSim, TileRecord};
pub use geometry::{GeometryOutput, GeometryPipeline, GeometryStats};
pub use prefix::FramePrefix;
pub use prim::{Quad, RasterPrim};
pub use raster::{Rasterizer, TileRasterStats};
pub use render::{Image, Renderer};
pub use shade::{ShaderCore, ShaderCoreStats};
pub use tiling::{TileBins, TilingEngine, TilingStats};
pub use timing::{compose_frame, compose_frame_probed, StageDurations};
pub use zbuffer::ZBuffer;

/// Re-export of the observability crate, so downstream callers can
/// build probes ([`dtexl_obs::EventSink`]) without naming the crate as
/// a direct dependency.
pub use dtexl_obs as obs;
