//! The schedule-independent frame prefix.
//!
//! A sweep simulates each (game, resolution) scene once per schedule
//! leg (FG/CG) even though most of the functional pass does not depend
//! on the schedule at all. [`FramePrefix::build`] captures exactly that
//! schedule-independent prefix — geometry, tile binning, per-tile
//! rasterization, early-Z and the per-quad texture footprints — in
//! per-tile arenas, so [`crate::FrameSim`] can re-run only
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
//!
//! The arenas hold only what a leg reads, at the width the data needs.
//! Of the rasterized quads a leg needs only how many land in each
//! subtile slot of its grouping, so the prefix keeps one 2-byte count
//! per tile-local quad position (`qps²` per tile, frame-wide in
//! [`FramePrefix::rast_hist`]); a count that reaches `u16::MAX` keeps
//! its exact value in [`FramePrefix::rast_over`]. A survivor takes 8
//! bytes ([`PrepQuad`]) and a footprint line 4. `build` rejects with a
//! typed [`SimError`] whatever would not fit: tiles over 512 px
//! (`PipelineConfig::validate`), texture lines at or past 2^32, Morton
//! textures over 65,536 texels a side, and more than 65,536 distinct
//! shader profiles. Each tile owns its survivor and line arenas at
//! their exact length: `build` fills per-tile scratch buffers it reuses
//! across tiles and copies each tile out, so its peak is the retained
//! prefix plus one tile's scratch.

use crate::config::PipelineConfig;
use crate::error::SimError;
use crate::geometry::{GeometryPipeline, GeometryStats};
use crate::prim::Quad;
use crate::raster::Rasterizer;
use crate::shade::PreparedQuad;
use crate::tiling::{TilingEngine, TilingStats};
use crate::zbuffer::ZBuffer;
use dtexl_gmath::Rect;
use dtexl_mem::{line_of, LineAddr};
use dtexl_scene::{Scene, ShaderProfile};
use dtexl_sched::QuadGrouping;
use dtexl_texture::{Sampler, TexelLayout, TextureDesc};
use std::collections::BTreeMap;

/// A post-early-Z survivor quad, reduced to what the fragment stage
/// reads: its tile-local position (for the schedule's quad→SC
/// partition), its shader profile and the end of its footprint in the
/// line arena. Its footprint starts where the tile's previous
/// survivor's ends, so a survivor takes 8 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrepQuad {
    /// End of this quad's range in its tile's [`TilePrefix::lines`];
    /// the range starts at the previous survivor's `line_end` (0 for
    /// the tile's first).
    pub(crate) line_end: u32,
    /// Tile-local quad position, [`pack_pos`]ed.
    pub(crate) pos: u16,
    /// Index into [`FramePrefix::profiles`].
    pub(crate) profile: u16,
}

/// Pack a tile-local quad position into one `u16`, one byte per axis
/// (`PipelineConfig::validate` caps tiles at 512 px, 256 quads a side).
fn pack_pos(qx: u32, qy: u32) -> u16 {
    debug_assert!(qx < 256 && qy < 256, "tile-local quad ({qx}, {qy})");
    (qy << 8 | qx) as u16
}

/// Inverse of [`pack_pos`]: `(qx, qy)` within the tile.
pub(crate) fn unpack_pos(pos: u16) -> (u32, u32) {
    (u32::from(pos & 0xff), u32::from(pos >> 8))
}

/// A quad grouping's tile-local position → subtile-slot map, built once
/// per leg. A quad's SC is then one table load mapped through the
/// tile's slot → SC assignment
/// ([`dtexl_sched::TileSchedule::assignment`]), not a
/// [`QuadGrouping::subtile_of`] call per quad.
pub(crate) struct SlotTable {
    qps: u32,
    /// `slots[qy * qps + qx]`, each in `0..4`.
    slots: Vec<u8>,
}

impl SlotTable {
    /// The table of `grouping` for tiles of `qps × qps` quads.
    pub(crate) fn new(grouping: QuadGrouping, qps: u32) -> Self {
        let slots = (0..qps)
            .flat_map(|qy| (0..qps).map(move |qx| grouping.subtile_of(qx, qy, qps, qps) as u8))
            .collect();
        Self { qps, slots }
    }

    /// The slot of the quad at `(qx, qy)` in its tile.
    #[inline]
    pub(crate) fn slot(&self, qx: u32, qy: u32) -> usize {
        usize::from(self.slots[(qy * self.qps + qx) as usize])
    }

    /// The slot of a [`pack_pos`]ed position.
    #[inline]
    pub(crate) fn slot_of_pos(&self, pos: u16) -> usize {
        let (qx, qy) = unpack_pos(pos);
        self.slot(qx, qy)
    }

    /// Sum per-position `counts` (row-major, as
    /// [`FramePrefix::rast_counts`] yields them) into per-slot totals.
    pub(crate) fn per_slot(&self, counts: impl Iterator<Item = u32>) -> [u32; 4] {
        let mut per_slot = [0u32; 4];
        for (&slot, n) in self.slots.iter().zip(counts) {
            per_slot[usize::from(slot)] += n;
        }
        per_slot
    }
}

/// Widest or tallest Morton texture whose texel coordinates all survive
/// [`dtexl_texture::morton::spread_bits`], which keeps the low 16 bits
/// of a coordinate.
const MORTON_MAX_EXTENT: u32 = 1 << 16;

/// Reject a texture table the footprint path cannot address exactly:
/// a Morton texture wider or taller than [`MORTON_MAX_EXTENT`] (its
/// far texels would alias the near ones' lines), or one whose line
/// addresses do not all fit the `u32` line arena. Checked once per
/// table, so [`resolve_footprints`] narrows without a per-line check.
pub(crate) fn check_texture_table(textures: &[TextureDesc]) -> Result<(), SimError> {
    for t in textures {
        if t.layout() == TexelLayout::Morton && t.width().max(t.height()) > MORTON_MAX_EXTENT {
            return Err(SimError::Scene(format!(
                "texture {} is {}x{}, past the {MORTON_MAX_EXTENT}-texel Morton extent",
                t.id(),
                t.width(),
                t.height()
            )));
        }
        let last = t
            .base_addr()
            .checked_add(t.footprint_bytes())
            .map_or(LineAddr::MAX, line_of);
        if last > LineAddr::from(u32::MAX) {
            return Err(SimError::Scene(format!(
                "texture {} ends at line {last}, past the 32-bit line arena",
                t.id()
            )));
        }
    }
    Ok(())
}

/// Resolve the footprints of `quads` (each on `textures[quad.texture]`)
/// as one batch, appending each quad's lines to the `u32` line arena
/// `lines` and then calling `end` with the arena's new length, quad by
/// quad. `textures` must have passed [`check_texture_table`]: this is
/// the one place a line is narrowed.
pub(crate) fn resolve_footprints(
    quads: &[Quad],
    textures: &[TextureDesc],
    lines: &mut Vec<u32>,
    mut end: impl FnMut(usize),
) {
    let batch = quads.iter().map(|q| {
        let tex = &textures[q.texture as usize];
        debug_assert_eq!(tex.id(), q.texture, "texture table must be id-indexed");
        (tex, Sampler::new(q.shader.filter), q.uv)
    });
    Sampler::footprints(batch, |footprint| {
        lines.extend(footprint.iter().map(|&l| {
            debug_assert!(
                u32::try_from(l).is_ok(),
                "line {l} past check_texture_table"
            );
            l as u32
        }));
        end(lines.len());
    });
}

/// One tile of the prefix: the counts its durations follow from and
/// its survivor and line arenas, each at its exact length. Tile
/// coordinates are implicit: [`FramePrefix::tiles`] is row-major.
/// The tile's rasterized quads are counted per position in
/// [`FramePrefix::rast_hist`].
#[derive(Debug, Clone)]
pub(crate) struct TilePrefix {
    /// Binned primitive-list length (the raster probe's `prims`).
    pub(crate) prims: u32,
    /// Rasterizer-emitted quad count (the raster probe's `quads`).
    pub(crate) raster_quads: u32,
    /// Early-Z survivors, submission order.
    pub(crate) quads: Box<[PrepQuad]>,
    /// Texture-footprint lines of the survivors ([`Sampler::footprints`]
    /// output, back to back), narrowed to `u32` by
    /// [`resolve_footprints`].
    pub(crate) lines: Box<[u32]>,
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
    /// Per-tile arenas, row-major (`ty * tiles_w + tx`).
    pub(crate) tiles: Vec<TilePrefix>,
    /// Rasterized quads (pre early-Z) per tile-local position: tile `i`
    /// owns the `qps²` counts from `i · qps²`, row-major
    /// (`qy · qps + qx`). The leg sums them per slot of its grouping
    /// to count `quads_rasterized` per SC. A count that reaches
    /// `u16::MAX` stores `u16::MAX` and keeps its exact value in
    /// [`rast_over`](Self::rast_over).
    pub(crate) rast_hist: Vec<u16>,
    /// Exact counts of the saturated [`rast_hist`](Self::rast_hist)
    /// entries, by histogram index; empty unless some position of
    /// some tile rasterizes `u16::MAX` quads or more.
    pub(crate) rast_over: BTreeMap<usize, u32>,
    /// The distinct `(alu_ops, tex_samples)` shader profiles of the
    /// survivors, in first-use order; a quad's issue slots are their
    /// sum ([`ShaderProfile::issue_slots`]).
    pub(crate) profiles: Vec<(u32, u32)>,
}

impl FramePrefix {
    /// Run the schedule-independent half of the functional pass:
    /// geometry, binning, then per tile (row-major) rasterization,
    /// early-Z and footprint resolution into the tile's arenas.
    ///
    /// # Errors
    ///
    /// Returns the [`PipelineConfig::validate`] error for an invalid
    /// configuration or fault plan, [`SimError::SparseTextureIds`] when
    /// the scene's texture ids are not dense, and [`SimError::Scene`]
    /// when the scene fails [`Scene::validate`], a texture's lines do
    /// not fit the 32-bit line arena, a Morton texture is over 65,536
    /// texels a side, or the survivors carry more than 65,536 distinct
    /// shader profiles. This is all the validation a fresh
    /// [`crate::FrameSim::try_run`] does.
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
        check_texture_table(&textures)?;

        // 1. Geometry phase.
        let mut geom = GeometryPipeline::new(config.vertex_cache);
        let gout = geom.run(scene, width, height);

        // 2. Tiling engine.
        let mut tiling = TilingEngine::new(config.tile_cache, config.tile_size);
        let bins = tiling.bin(&gout.prims, width, height);

        // 3. Per tile, three phases: raster, early-Z (keeping only the
        // survivors), then the survivors' footprints. Row-major tile order:
        // the depth buffer is cleared per tile, so each tile's outcome
        // is independent of the traversal order a schedule later picks.
        let raster = Rasterizer::new(config.tile_size);
        let mut zbuf = ZBuffer::new(config.tile_size);
        let screen = Rect::new(0, 0, width as i32, height as i32);

        let tile_count = (bins.tiles_w() * bins.tiles_h()) as usize;
        let qps = config.quads_per_side();
        let positions = (qps * qps) as usize;
        let mut tiles = Vec::with_capacity(tile_count);
        let mut rast_hist = vec![0u16; tile_count * positions];
        let mut rast_over = BTreeMap::new();
        let mut profiles: Vec<(u32, u32)> = Vec::new();
        let mut profile_ids = BTreeMap::new();
        // Per-tile scratch, reused across tiles; each tile keeps an
        // exact-size copy.
        let mut tile_quads: Vec<Quad> = Vec::new();
        let mut quads: Vec<PrepQuad> = Vec::new();
        let mut lines: Vec<u32> = Vec::new();
        for ty in 0..bins.tiles_h() {
            for tx in 0..bins.tiles_w() {
                let list = bins.list(tx, ty);
                let tile_px = (tx * config.tile_size) as i32;
                let tile_py = (ty * config.tile_size) as i32;

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
                let base = tiles.len() * positions;
                for q in &tile_quads {
                    count_position(
                        &mut rast_hist,
                        &mut rast_over,
                        base + (q.qy * qps + q.qx) as usize,
                    );
                }

                // Early-Z in submission order, keeping only the tile's
                // survivors (`retain` visits each quad once, in order).
                // Late-Z quads are shaded *unconditionally* (their shader
                // may change depth, so early culling is illegal — §II-A)
                // and only resolved afterwards.
                zbuf.clear();
                tile_quads.retain(|q| {
                    let surviving = zbuf.test_and_update(q);
                    (if q.late_z { q.mask } else { surviving }) != 0
                });

                // The survivors, still in submission order, then their
                // footprints as one batch.
                quads.clear();
                for q in &tile_quads {
                    quads.push(PrepQuad {
                        line_end: 0,
                        pos: pack_pos(q.qx, q.qy),
                        profile: profile_index(&mut profiles, &mut profile_ids, &q.shader)?,
                    });
                }
                lines.clear();
                let mut next = 0;
                resolve_footprints(&tile_quads, &textures, &mut lines, |end| {
                    quads[next].line_end = end as u32;
                    next += 1;
                });
                tiles.push(TilePrefix {
                    prims: list.len() as u32,
                    raster_quads: rstats.quads,
                    quads: quads.as_slice().into(),
                    lines: lines.as_slice().into(),
                });
            }
        }

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
            rast_hist,
            rast_over,
            profiles,
        })
    }

    /// Approximate retained heap size, for cache budget accounting.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let arenas: usize = self
            .tiles
            .iter()
            .map(|t| t.quads.len() * size_of::<PrepQuad>() + t.lines.len() * size_of::<u32>())
            .sum();
        (size_of::<Self>()
            + self.textures.capacity() * size_of::<TextureDesc>()
            + self.tiles.capacity() * size_of::<TilePrefix>()
            + self.rast_hist.capacity() * size_of::<u16>()
            + self.rast_over.len() * size_of::<(usize, u32)>()
            + self.profiles.capacity() * size_of::<(u32, u32)>()
            + arenas) as u64
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

    /// The exact rasterized-quad count of each position of tile `tile`
    /// (row-major index into [`tiles`](Self::tiles)), row-major.
    pub(crate) fn rast_counts(&self, tile: usize) -> impl Iterator<Item = u32> + '_ {
        let qps = self.config.quads_per_side() as usize;
        let base = tile * qps * qps;
        self.rast_hist[base..base + qps * qps]
            .iter()
            .enumerate()
            .map(move |(i, &n)| match n {
                u16::MAX => self
                    .rast_over
                    .get(&(base + i))
                    .copied()
                    .unwrap_or(u32::from(n)),
                n => u32::from(n),
            })
    }

    /// Iterate `indices` (into `tile`'s survivors) as [`PreparedQuad`]s
    /// for [`crate::ShaderCore::run_prepared`].
    pub(crate) fn prepared<'a>(
        &'a self,
        tile: &'a TilePrefix,
        indices: &'a [u32],
    ) -> impl Iterator<Item = PreparedQuad<'a>> + 'a {
        indices.iter().map(move |&qi| {
            let qi = qi as usize;
            let start = qi.checked_sub(1).map_or(0, |p| tile.quads[p].line_end);
            let q = &tile.quads[qi];
            let (alu_ops, tex_samples) = self.profiles[usize::from(q.profile)];
            PreparedQuad {
                alu_ops,
                tex_samples,
                lines: &tile.lines[start as usize..q.line_end as usize],
            }
        })
    }
}

/// Count one rasterized quad at histogram index `i`. The common case is
/// one compare; the count that reaches `u16::MAX` and every later one
/// go to `over`, which then holds the position's exact count.
fn count_position(hist: &mut [u16], over: &mut BTreeMap<usize, u32>, i: usize) {
    if hist[i] < u16::MAX - 1 {
        hist[i] += 1;
    } else {
        hist[i] = u16::MAX;
        *over.entry(i).or_insert(u32::from(u16::MAX - 1)) += 1;
    }
}

/// The index of `shader`'s `(alu_ops, tex_samples)` in `profiles`,
/// appending it on first use; `index` maps each profile to its place.
fn profile_index(
    profiles: &mut Vec<(u32, u32)>,
    index: &mut BTreeMap<(u32, u32), u16>,
    shader: &ShaderProfile,
) -> Result<u16, SimError> {
    let key = (shader.alu_ops, shader.tex_samples);
    if let Some(&i) = index.get(&key) {
        return Ok(i);
    }
    let i = u16::try_from(profiles.len()).map_err(|_| {
        SimError::Scene(format!(
            "more than {} distinct shader profiles in one frame",
            1 << 16
        ))
    })?;
    profiles.push(key);
    index.insert(key, i);
    Ok(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtexl_gmath::{Mat4, Vec2, Vec3};
    use dtexl_scene::{DepthMode, DrawCommand, Vertex, TEXTURE_BASE_ADDR};

    /// `draws` late-Z draws of one triangle covering the whole `size`²
    /// screen; draw `i` runs `i + 1` ALU ops, so each is its own shader
    /// profile and every draw shades every quad.
    fn stacked_scene(size: f32, draws: u32) -> Scene {
        Scene {
            textures: vec![TextureDesc::new(0, 64, 64, TEXTURE_BASE_ADDR)],
            vertices: vec![
                Vertex::new(Vec3::new(-1.0, -1.0, -1.0), Vec2::new(0.0, 0.0)),
                Vertex::new(Vec3::new(3.0 * size, -1.0, -1.0), Vec2::new(1.0, 0.0)),
                Vertex::new(Vec3::new(-1.0, 3.0 * size, -1.0), Vec2::new(0.0, 1.0)),
            ],
            draws: (0..draws)
                .map(|i| DrawCommand {
                    first_vertex: 0,
                    vertex_count: 3,
                    texture: 0,
                    shader: ShaderProfile {
                        alu_ops: i + 1,
                        ..ShaderProfile::standard()
                    },
                    transform: Mat4::orthographic(0.0, size, size, 0.0, 0.1, 10.0),
                    opaque: true,
                    uv_scale: 1.0,
                    depth_mode: DepthMode::Late,
                })
                .collect(),
        }
    }

    fn fnv1a(hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(hash, |h, w| {
            w.to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// FNV-1a over every arena of the prefix, in the frame-wide layout
    /// the goldens were taken in: per tile its counts, its running
    /// ranges over the frame's rasterized quads and survivors and its
    /// fetch and raster cycles under `config`; then every tile's
    /// rasterized-quad count per tile-local position (tile-major, then
    /// row-major), every survivor with its line end offset to a
    /// frame-wide line arena, the profile table and the lines.
    fn arena_digest(p: &FramePrefix, config: &PipelineConfig) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        let (mut rast, mut surv) = (0u64, 0u64);
        h = fnv1a(
            h,
            p.tiles.iter().flat_map(|t| {
                let (r0, s0) = (rast, surv);
                rast += u64::from(t.raster_quads);
                surv += t.quads.len() as u64;
                [
                    u64::from(t.prims),
                    u64::from(t.raster_quads),
                    r0,
                    rast,
                    s0,
                    surv,
                    4 + u64::from(t.prims) * u64::from(config.fetch_cycles_per_prim),
                    u64::from(t.raster_quads).div_ceil(u64::from(config.raster_quads_per_cycle)),
                ]
            }),
        );
        h = fnv1a(
            h,
            (0..p.tiles.len()).flat_map(|i| p.rast_counts(i).map(u64::from)),
        );
        let mut line_base = 0u64;
        h = fnv1a(
            h,
            p.tiles.iter().flat_map(|t| {
                let base = line_base;
                line_base += t.lines.len() as u64;
                t.quads.iter().flat_map(move |q| {
                    [
                        base + u64::from(q.line_end),
                        u64::from(q.pos),
                        u64::from(q.profile),
                    ]
                })
            }),
        );
        h = fnv1a(
            h,
            p.profiles
                .iter()
                .flat_map(|&(alu, tex)| [u64::from(alu), u64::from(tex)]),
        );
        fnv1a(
            h,
            p.tiles
                .iter()
                .flat_map(|t| t.lines.iter().map(|&l| u64::from(l))),
        )
    }

    /// `(game, width, height, frame, digest)` of a prefix under the
    /// default configuration: frame 0 of all ten games at 128×64 and
    /// three at 480×192, then RoK frames 1–3 at 128×64 and three games
    /// at the ragged 65×31, whose tiles hold survivor counts that are
    /// not multiples of 8 and whose edge tiles are partial. Pins the
    /// raster, early-Z and footprint arenas directly, so a footprint
    /// rewrite must reproduce every line of every quad. The raster
    /// part was taken from a prefix that still kept each rasterized
    /// quad's position, so the per-position counts are checked against
    /// that independent layout.
    const ARENA_GOLDEN: [(&str, u32, u32, u32, u64); 19] = [
        ("CCS", 128, 64, 0, 0xcc34_efa9_4174_9900),
        ("SoD", 128, 64, 0, 0x7d05_2172_d785_9822),
        ("TRu", 128, 64, 0, 0x6ad3_1c95_d914_25b1),
        ("SWa", 128, 64, 0, 0x9022_795a_d048_0e49),
        ("CRa", 128, 64, 0, 0x267c_16e7_361b_94c7),
        ("RoK", 128, 64, 0, 0x9648_b592_bd82_c389),
        ("DDS", 128, 64, 0, 0x8ae0_bab5_76a6_70a0),
        ("Snp", 128, 64, 0, 0x2457_a27f_c808_03f1),
        ("Mze", 128, 64, 0, 0x670b_51ef_c2ac_bfe2),
        ("GTr", 128, 64, 0, 0xcc44_ebac_18ba_5e14),
        ("CCS", 480, 192, 0, 0xab63_482e_3e65_61d6),
        ("RoK", 480, 192, 0, 0xfb84_c24a_81d4_6324),
        ("SoD", 480, 192, 0, 0x9049_7be4_8421_92ce),
        ("RoK", 128, 64, 1, 0x0225_6ecf_2abc_3948),
        ("RoK", 128, 64, 2, 0x7adf_0e3f_11b2_9506),
        ("RoK", 128, 64, 3, 0xb811_bca0_5f6c_7065),
        ("CCS", 65, 31, 0, 0x52db_c4e7_26ad_619e),
        ("RoK", 65, 31, 0, 0xbb18_bfad_a3c4_8d17),
        ("SoD", 65, 31, 0, 0x4349_20ba_a97e_d52a),
    ];

    #[test]
    fn arenas_are_golden() {
        use dtexl_scene::{Game, SceneSpec};
        use Game::{CandyCrush, RiseOfKingdoms, SonicDash};
        let config = PipelineConfig::default();
        let runs = Game::ALL
            .iter()
            .map(|&g| (g, 128, 64, 0))
            .chain([CandyCrush, RiseOfKingdoms, SonicDash].map(|g| (g, 480, 192, 0)))
            .chain((1..=3).map(|f| (RiseOfKingdoms, 128, 64, f)))
            .chain([CandyCrush, RiseOfKingdoms, SonicDash].map(|g| (g, 65, 31, 0)));
        let got: Vec<(&str, u32, u32, u32, u64)> = runs
            .map(|(game, w, h, frame)| {
                let scene = game.scene(&SceneSpec::new(w, h, frame));
                let prefix = FramePrefix::build(&scene, &config, w, h).unwrap();
                (game.alias(), w, h, frame, arena_digest(&prefix, &config))
            })
            .collect();
        assert_eq!(got, ARENA_GOLDEN);
    }

    #[test]
    fn positions_pack_one_byte_per_axis() {
        for (qx, qy) in [(0, 0), (15, 3), (255, 255), (7, 200)] {
            assert_eq!(unpack_pos(pack_pos(qx, qy)), (qx, qy));
        }
    }

    #[test]
    fn slot_table_and_assignment_equal_sc_of_quad() {
        use dtexl_sched::{AssignMode, ScheduleConfig, TileOrder, TileSchedule};
        for grouping in QuadGrouping::ALL {
            let schedule = ScheduleConfig {
                grouping,
                order: TileOrder::HILBERT8,
                assignment: AssignMode::Flip2,
            };
            let tsched = TileSchedule::build(&schedule, 3, 3);
            for qps in [1, 2, 16, 256] {
                let table = SlotTable::new(grouping, qps);
                for (ti, _, assign) in tsched.iter() {
                    for qy in 0..qps {
                        for qx in 0..qps {
                            let want = tsched.sc_of_quad(ti, qx, qy, qps, qps);
                            let pos = pack_pos(qx, qy);
                            assert_eq!(
                                usize::from(assign[table.slot_of_pos(pos)]),
                                want,
                                "{} tile {ti}, qps {qps}, quad ({qx}, {qy})",
                                grouping.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn survivors_index_a_profile_table() {
        let scene = stacked_scene(8.0, 3);
        let prefix = FramePrefix::build(&scene, &PipelineConfig::default(), 8, 8).unwrap();
        assert_eq!(prefix.profiles.len(), 3);
        // One tile of 16 quads per draw; each survivor's footprint
        // starts where the previous one's ends.
        let [tile] = &prefix.tiles[..] else {
            panic!("8×8 is one tile");
        };
        assert_eq!(tile.quads.len(), 3 * 16);
        let all: Vec<u32> = (0..48).collect();
        let mut start = 0;
        for (quad, shaded) in tile.quads.iter().zip(prefix.prepared(tile, &all)) {
            assert_eq!(shaded.lines.len() as u32, quad.line_end - start);
            start = quad.line_end;
        }
        let last = prefix.prepared(tile, &[47]).next().unwrap();
        assert_eq!((last.alu_ops, last.tex_samples), prefix.profiles[2]);
        assert_eq!(tile.quads[47].line_end as usize, tile.lines.len());
    }

    #[test]
    fn saturated_position_counts_stay_exact() {
        use crate::FrameSim;
        use dtexl_sched::ScheduleConfig;
        // One quad per draw on a 2×2 screen, all at one position, whose
        // count crosses `u16::MAX`. One shader profile for every draw:
        // 70,000 distinct ones would be a scene error.
        let config = PipelineConfig::default();
        let schedule = ScheduleConfig::dtexl();
        for draws in [65_534, 65_535, 65_536, 70_000] {
            let mut scene = stacked_scene(2.0, draws);
            for d in &mut scene.draws {
                d.shader = ShaderProfile::standard();
            }
            let prefix = FramePrefix::build(&scene, &config, 2, 2).unwrap();
            let saturated = draws >= u32::from(u16::MAX);
            assert_eq!(
                (prefix.rast_hist[0], prefix.rast_over.get(&0).copied()),
                if saturated {
                    (u16::MAX, Some(draws))
                } else {
                    (draws as u16, None)
                },
                "{draws} draws"
            );
            let memo = FrameSim::try_run_prefixed(&prefix, &schedule, &config).unwrap();
            let rasterized: u32 = memo.tiles.iter().flat_map(|t| t.quads_rasterized).sum();
            assert_eq!(rasterized, draws);
            let fresh = FrameSim::try_run(&scene, &schedule, &config, 2, 2).unwrap();
            assert_eq!(format!("{memo:?}"), format!("{fresh:?}"), "{draws} draws");
        }
    }

    #[test]
    fn textures_past_the_32_bit_line_arena_are_a_scene_error() {
        let mut scene = stacked_scene(8.0, 1);
        let config = PipelineConfig::default();
        // The last line of a texture ending exactly at line 2^32 - 1
        // still fits; one more line does not.
        let footprint = TextureDesc::new(0, 64, 64, 0).footprint_bytes();
        let fits = (u64::from(u32::MAX) << 6) - footprint;
        scene.textures = vec![TextureDesc::new(0, 64, 64, fits)];
        assert!(FramePrefix::build(&scene, &config, 8, 8).is_ok());
        scene.textures = vec![TextureDesc::new(0, 64, 64, fits + 64)];
        let err = FramePrefix::build(&scene, &config, 8, 8).unwrap_err();
        assert!(matches!(err, SimError::Scene(_)), "{err}");
        assert!(err.to_string().contains("32-bit line arena"), "{err}");
    }

    #[test]
    fn more_than_65536_shader_profiles_are_a_scene_error() {
        // One quad per draw on a 2×2 screen.
        let config = PipelineConfig::default();
        let mut scene = stacked_scene(2.0, 65_537);
        let err = FramePrefix::build(&scene, &config, 2, 2).unwrap_err();
        assert!(matches!(err, SimError::Scene(_)), "{err}");
        assert!(err.to_string().contains("shader profiles"), "{err}");
        scene.draws.pop();
        let prefix = FramePrefix::build(&scene, &config, 2, 2).unwrap();
        assert_eq!(prefix.profiles.len(), 65_536);
    }
}
