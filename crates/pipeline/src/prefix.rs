//! The schedule-independent frame prefix.
//!
//! A sweep simulates each (game, resolution) scene once per schedule
//! leg (FG/CG) even though most of the functional pass does not depend
//! on the schedule at all. [`FramePrefix::build`] captures exactly that
//! schedule-independent prefix — geometry, tile binning, per-tile
//! rasterization, early-Z and the per-quad texture footprints — in
//! flat, index-addressed arenas, so [`crate::FrameSim`] can re-run only
//! the schedule-*dependent* remainder (quad→SC partitioning, the L1
//! lane walks, the shared-L2 replay and the warp timing) per leg.
//!
//! What makes each piece schedule-independent:
//!
//! * geometry and binning run before any tile ordering exists;
//! * rasterization and early-Z are per-tile: the depth buffer is
//!   cleared at every tile start, so a tile's survivor set and final
//!   shade masks are the same whatever order a schedule visits tiles
//!   in (the prefix walks them row-major);
//! * a quad's texture footprint ([`Sampler::quad_footprint`]) is a
//!   pure function of its UVs, texture and filter.
//!
//! Everything else — which SC a quad lands on, each L1 lane's hit/miss
//! history, the DRAM latencies (hashed from the *global* request
//! index) and the warp-model timing — changes with the schedule and is
//! recomputed per leg from these arenas.

use crate::config::PipelineConfig;
use crate::error::SimError;
use crate::geometry::{GeometryPipeline, GeometryStats};
use crate::prim::Quad;
use crate::raster::Rasterizer;
use crate::shade::PreparedQuad;
use crate::tiling::{TilingEngine, TilingStats};
use crate::zbuffer::ZBuffer;
use dtexl_gmath::Rect;
use dtexl_mem::LineAddr;
use dtexl_scene::Scene;
use dtexl_texture::{Sampler, TextureDesc};

/// A post-early-Z survivor quad, reduced to what the fragment stage
/// actually consumes: its position (for the schedule's quad→SC
/// partition), its shader-profile scalars and its footprint range in
/// the line arena. Roughly a third the size of a full [`Quad`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrepQuad {
    /// Quad x position in screen quads.
    pub(crate) qx: u32,
    /// Quad y position in screen quads.
    pub(crate) qy: u32,
    /// Issue-port slots (`shader.issue_slots()`).
    pub(crate) issue: u32,
    /// ALU instructions.
    pub(crate) alu_ops: u32,
    /// Texture sample instructions.
    pub(crate) tex_samples: u32,
    /// `lines.0..lines.1` range in [`FramePrefix::lines`].
    pub(crate) lines: (u32, u32),
}

/// Per-tile slice of the prefix arenas. Tile coordinates are implicit:
/// [`FramePrefix::tiles`] is row-major.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TilePrefix {
    /// Binned primitive-list length (the raster probe's `prims`).
    pub(crate) prims: u32,
    /// Rasterizer-emitted quad count (the raster probe's `quads`).
    pub(crate) raster_quads: u32,
    /// Range of this tile's rasterized quads in
    /// [`FramePrefix::rast_pos`], submission order.
    pub(crate) rast: (u32, u32),
    /// Range of this tile's early-Z survivors in
    /// [`FramePrefix::quads`], submission order.
    pub(crate) surv: (u32, u32),
    /// Tile-fetcher cycles.
    pub(crate) fetch: u64,
    /// Rasterizer cycles.
    pub(crate) raster_cycles: u64,
}

/// The schedule-independent prefix of one frame simulation, computed
/// once by [`build`](Self::build) and shared (immutably, e.g. behind an
/// `Arc`) across every schedule leg that [`crate::FrameSim`] runs over
/// the same (scene, resolution, config) triple.
#[derive(Debug)]
pub struct FramePrefix {
    /// The configuration the prefix was built under; every leg run
    /// over it must use exactly this configuration.
    pub(crate) config: PipelineConfig,
    /// Screen width in pixels.
    pub(crate) width: u32,
    /// Screen height in pixels.
    pub(crate) height: u32,
    /// Texture table, dense by id (validated by `build`).
    pub(crate) textures: Vec<TextureDesc>,
    /// Geometry-phase statistics.
    pub(crate) geometry: GeometryStats,
    /// Tiling-engine statistics.
    pub(crate) tiling: TilingStats,
    /// Frame width in tiles.
    pub(crate) tiles_w: u32,
    /// Frame height in tiles.
    pub(crate) tiles_h: u32,
    /// Per-tile arena slices, row-major (`ty * tiles_w + tx`).
    pub(crate) tiles: Vec<TilePrefix>,
    /// `(qx, qy)` of every rasterized quad (pre early-Z) — the
    /// schedule partitions these to count `quads_rasterized` per SC.
    pub(crate) rast_pos: Vec<(u32, u32)>,
    /// Early-Z survivor arena.
    pub(crate) quads: Vec<PrepQuad>,
    /// Flat texture-footprint arena ([`Sampler::quad_footprint`]
    /// output, back to back).
    pub(crate) lines: Vec<LineAddr>,
}

impl FramePrefix {
    /// Run the schedule-independent half of the functional pass:
    /// geometry, binning, then per tile (row-major) rasterization,
    /// early-Z and footprint resolution into flat arenas.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the configuration or scene is
    /// invalid, exactly as [`crate::FrameSim::try_run_with_resolution`]
    /// would.
    pub fn build(
        scene: &Scene,
        config: &PipelineConfig,
        width: u32,
        height: u32,
    ) -> Result<Self, SimError> {
        config.validate()?;
        scene.validate().map_err(SimError::Scene)?;

        // Texture table indexed by id.
        let textures: Vec<TextureDesc> = scene.textures.clone();
        for (i, t) in textures.iter().enumerate() {
            if t.id() as usize != i {
                return Err(SimError::SparseTextureIds {
                    index: i,
                    id: t.id(),
                });
            }
        }

        // 1. Geometry phase.
        let mut geom = GeometryPipeline::new(config.vertex_cache);
        let gout = geom.run(scene, width, height);

        // 2. Tiling engine.
        let mut tiling = TilingEngine::new(config.tile_cache, config.tile_size);
        let bins = tiling.bin(&gout.prims, width, height);

        // 3. Per-tile raster + early-Z + footprints. Row-major tile
        // order: the depth buffer is cleared per tile, so each tile's
        // outcome is independent of the traversal order a schedule
        // later picks.
        let raster = Rasterizer::new(config.tile_size);
        let mut zbuf = ZBuffer::new(config.tile_size);
        let screen = Rect::new(0, 0, width as i32, height as i32);

        let mut tiles = Vec::with_capacity((bins.tiles_w() * bins.tiles_h()) as usize);
        // Seed the arenas at one screen's worth of quads (~quarter of a
        // busy frame's total, which runs several × the screen-quad
        // count from overdraw). Growth doubling reaches any final size
        // within a handful of reallocations, while sparse frames — most
        // of the sweep grid — don't pay a worst-case reservation in
        // peak allocation (the per-job high-water mark is a CI gate).
        let screen_quads = (width.div_ceil(2) as usize) * (height.div_ceil(2) as usize);
        let mut rast_pos: Vec<(u32, u32)> = Vec::with_capacity(screen_quads / 2);
        let mut quads: Vec<PrepQuad> = Vec::with_capacity(screen_quads / 2);
        let mut lines: Vec<LineAddr> = Vec::with_capacity(screen_quads);
        let mut tile_quads: Vec<Quad> = Vec::new();
        for ty in 0..bins.tiles_h() {
            for tx in 0..bins.tiles_w() {
                let list = bins.list(tx, ty);
                let tile_px = (tx * config.tile_size) as i32;
                let tile_py = (ty * config.tile_size) as i32;

                // Tile fetcher cost.
                let fetch = 4 + list.len() as u64 * u64::from(config.fetch_cycles_per_prim);

                // Rasterize the tile's primitives in program order.
                tile_quads.clear();
                let rstats = raster.rasterize_tile_into(
                    &gout.prims,
                    list,
                    tile_px,
                    tile_py,
                    screen,
                    &mut tile_quads,
                );
                let raster_cycles =
                    (tile_quads.len() as u64).div_ceil(u64::from(config.raster_quads_per_cycle));

                // Early-Z in submission order. Late-Z quads are shaded
                // *unconditionally* (their shader may change depth, so
                // early culling is illegal — §II-A) and only resolved
                // afterwards.
                zbuf.clear();
                let rast_start = rast_pos.len() as u32;
                let surv_start = quads.len() as u32;
                for q in &tile_quads {
                    rast_pos.push((q.qx, q.qy));
                    let surviving = zbuf.test_and_update(q);
                    let shade_mask = if q.late_z { q.mask } else { surviving };
                    if shade_mask != 0 {
                        let tex = &textures[q.texture as usize];
                        let line_start = lines.len() as u32;
                        Sampler::new(q.shader.filter).quad_footprint_into(tex, q.uv, &mut lines);
                        quads.push(PrepQuad {
                            qx: q.qx,
                            qy: q.qy,
                            issue: q.shader.issue_slots(),
                            alu_ops: q.shader.alu_ops,
                            tex_samples: q.shader.tex_samples,
                            lines: (line_start, lines.len() as u32),
                        });
                    }
                }
                tiles.push(TilePrefix {
                    prims: list.len() as u32,
                    raster_quads: rstats.quads,
                    rast: (rast_start, rast_pos.len() as u32),
                    surv: (surv_start, quads.len() as u32),
                    fetch,
                    raster_cycles,
                });
            }
        }

        // The arenas grew by doubling; a cached prefix is long-lived,
        // so trade one realloc for a tight budget-accounting footprint.
        rast_pos.shrink_to_fit();
        quads.shrink_to_fit();
        lines.shrink_to_fit();

        let (tiles_w, tiles_h) = (bins.tiles_w(), bins.tiles_h());
        Ok(Self {
            config: *config,
            width,
            height,
            textures,
            geometry: gout.stats,
            tiling: bins.stats,
            tiles_w,
            tiles_h,
            tiles,
            rast_pos,
            quads,
            lines,
        })
    }

    /// Approximate retained heap size, for cache budget accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        (size_of::<Self>()
            + self.textures.capacity() * size_of::<TextureDesc>()
            + self.tiles.capacity() * size_of::<TilePrefix>()
            + self.rast_pos.capacity() * size_of::<(u32, u32)>()
            + self.quads.capacity() * size_of::<PrepQuad>()
            + self.lines.capacity() * size_of::<LineAddr>()) as u64
    }

    /// Screen width in pixels the prefix was built for.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Screen height in pixels the prefix was built for.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Iterate `indices` (into the survivor arena) as
    /// [`PreparedQuad`]s for [`crate::ShaderCore::run_prepared`].
    pub(crate) fn prepared<'a>(
        &'a self,
        indices: &'a [u32],
    ) -> impl Iterator<Item = PreparedQuad<'a>> + 'a {
        indices.iter().map(move |&qi| {
            let q = &self.quads[qi as usize];
            PreparedQuad {
                issue: q.issue,
                alu_ops: q.alu_ops,
                tex_samples: q.tex_samples,
                lines: &self.lines[q.lines.0 as usize..q.lines.1 as usize],
            }
        })
    }
}
