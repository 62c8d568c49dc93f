//! Whole-frame simulation: functional pass + metrics.

use crate::config::{BarrierMode, PipelineConfig};
use crate::error::SimError;
use crate::geometry::GeometryStats;
use crate::prefix::{FramePrefix, SlotTable};
use crate::shade::{PreparedQuad, ShaderCore, ShaderCoreStats};
use crate::tiling::TilingStats;
use crate::timing::{compose_frame, StageDurations};
use dtexl_mem::energy::EnergyEvents;
use dtexl_mem::{HierarchyStats, TextureHierarchy, LINE_BYTES};
use dtexl_obs::{Event, MemSample, NullProbe, Probe, RasterSample};
use dtexl_scene::Scene;
use dtexl_sched::{ScheduleConfig, TileSchedule};

/// Per-tile outcome of the functional pass, indexed `[u]` by shader
/// core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileRecord {
    /// Tile coordinates.
    pub tile: (u32, u32),
    /// Quads emitted by the rasterizer per SC (pre early-Z).
    pub quads_rasterized: [u32; 4],
    /// Quads surviving early-Z per SC (shaded).
    pub quads_shaded: [u32; 4],
    /// Fragment-stage cycles per SC (from the warp model).
    pub frag_cycles: [u64; 4],
}

/// Result of simulating one frame.
///
/// The functional pass is shared between barrier modes; call
/// [`total_cycles`](Self::total_cycles) with either mode to compose the
/// corresponding frame time.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// The hardware configuration used.
    pub config: PipelineConfig,
    /// The schedule used.
    pub schedule: ScheduleConfig,
    /// Screen width in pixels the frame was simulated at.
    pub width: u32,
    /// Screen height in pixels the frame was simulated at.
    pub height: u32,
    /// Geometry-phase statistics.
    pub geometry: GeometryStats,
    /// Tiling-engine statistics.
    pub tiling: TilingStats,
    /// Per-tile records in traversal order.
    pub tiles: Vec<TileRecord>,
    /// Stage durations for frame-time composition.
    pub durations: StageDurations,
    /// Texture-hierarchy statistics.
    pub hierarchy: HierarchyStats,
    /// Aggregated shader-core statistics.
    pub shader: ShaderCoreStats,
}

impl FrameResult {
    /// Total frame cycles under `mode` (geometry + tiling + raster
    /// phase).
    #[must_use]
    pub fn total_cycles(&self, mode: BarrierMode) -> u64 {
        self.geometry.cycles + self.tiling.build_cycles + compose_frame(&self.durations, mode)
    }

    /// Frames per second at `clock_hz` under `mode`.
    #[must_use]
    pub fn fps(&self, clock_hz: f64, mode: BarrierMode) -> f64 {
        clock_hz / self.total_cycles(mode) as f64
    }

    /// Total L2 accesses — the paper's headline cache metric: texture
    /// L1 misses, vertex- and tile-cache misses, plus the color-buffer
    /// flush lines written back through the L2 (Fig. 5 routes the
    /// Color Buffer's memory path through the shared L2). Texture
    /// traffic dominates but the other streams are scheduler-invariant,
    /// which is why the paper's *total* decrease (46.8%) is smaller
    /// than the texture-only decrease.
    #[must_use]
    pub fn total_l2_accesses(&self) -> u64 {
        self.hierarchy.l2.accesses
            + self.geometry.vertex_cache.misses
            + self.tiling.tile_cache.misses
            + self.framebuffer_lines()
    }

    /// Cache lines of color-buffer flush traffic. Each tile flushes
    /// only the pixels it covers on screen — edge tiles at ragged
    /// resolutions are clamped to their screen intersection instead of
    /// being charged a full tile — at 4 bytes per pixel, rounded up to
    /// whole lines per tile flush.
    #[must_use]
    pub fn framebuffer_lines(&self) -> u64 {
        let ts = u64::from(self.config.tile_size);
        self.tiles
            .iter()
            .map(|t| {
                let x0 = u64::from(t.tile.0) * ts;
                let y0 = u64::from(t.tile.1) * ts;
                let w = ts.min(u64::from(self.width).saturating_sub(x0));
                let h = ts.min(u64::from(self.height).saturating_sub(y0));
                (w * h * 4).div_ceil(LINE_BYTES)
            })
            .sum()
    }

    /// Total quads shaded across the frame.
    #[must_use]
    pub fn total_quads_shaded(&self) -> u64 {
        self.tiles
            .iter()
            .map(|t| t.quads_shaded.iter().map(|&q| u64::from(q)).sum::<u64>())
            .sum()
    }

    /// Per-tile normalized mean deviation of the *quad count* per SC
    /// (in percent) — the Fig. 1 / Fig. 12 / Fig. 15 load-balance
    /// metric. Tiles with no work are skipped.
    #[must_use]
    pub fn quad_deviation_samples(&self) -> Vec<f64> {
        self.per_tile_deviation(|t| t.quads_shaded.map(|q| q as f64))
    }

    /// Per-tile normalized mean deviation of the *fragment execution
    /// time* per SC (in percent) — the Fig. 14 metric.
    #[must_use]
    pub fn time_deviation_samples(&self) -> Vec<f64> {
        self.per_tile_deviation(|t| t.frag_cycles.map(|c| c as f64))
    }

    fn per_tile_deviation(&self, f: impl Fn(&TileRecord) -> [f64; 4]) -> Vec<f64> {
        // Only the active lanes participate: in upper-bound mode a
        // single core does all the work and the three idle lanes must
        // not be averaged in as zeros.
        let active = self.config.effective_num_sc();
        let n = active as f64;
        self.tiles
            .iter()
            .filter_map(|t| {
                let v = f(t);
                let v = &v[..active];
                let mean = v.iter().sum::<f64>() / n;
                if mean <= 0.0 {
                    return None;
                }
                let dev = v.iter().map(|x| (x - mean).abs()).sum::<f64>() / n;
                Some(100.0 * dev / mean)
            })
            .collect()
    }

    /// Mean of [`quad_deviation_samples`](Self::quad_deviation_samples).
    #[must_use]
    pub fn mean_quad_deviation(&self) -> f64 {
        mean(&self.quad_deviation_samples())
    }

    /// Mean of [`time_deviation_samples`](Self::time_deviation_samples).
    #[must_use]
    pub fn mean_time_deviation(&self) -> f64 {
        mean(&self.time_deviation_samples())
    }

    /// Energy-model event counts for this frame under `mode`.
    #[must_use]
    pub fn energy_events(&self, mode: BarrierMode) -> EnergyEvents {
        let total_quads: u64 = self
            .tiles
            .iter()
            .map(|t| {
                t.quads_rasterized
                    .iter()
                    .map(|&q| u64::from(q))
                    .sum::<u64>()
                    + t.quads_shaded.iter().map(|&q| u64::from(q)).sum::<u64>()
            })
            .sum();
        // Color flush: each tile writes its pixels to the framebuffer.
        let fb_lines = self.framebuffer_lines();
        EnergyEvents {
            l1_accesses: self.hierarchy.l1_accesses()
                + self.geometry.vertex_cache.accesses
                + self.tiling.tile_cache.accesses,
            l2_accesses: self.total_l2_accesses(),
            dram_accesses: self.hierarchy.dram_accesses + fb_lines,
            alu_ops: self.shader.alu_ops,
            fixed_stage_quads: total_quads,
            cycles: self.total_cycles(mode),
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The frame simulator: runs the functional pass and produces a
/// [`FrameResult`].
#[derive(Debug)]
pub struct FrameSim;

impl FrameSim {
    /// Simulate one frame of `scene` under `schedule` on `config`'s
    /// hardware at `width × height`: [`FramePrefix::build`] followed by
    /// the leg [`try_run_prefixed_probed`](Self::try_run_prefixed_probed)
    /// runs. The screen extent cannot be recovered from the scene itself
    /// (draws may under- or overshoot it), so callers pass the
    /// resolution the scene was generated for.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the configuration, fault plan or
    /// scene is invalid (see [`FramePrefix::build`]). Never panics on
    /// malformed input.
    pub fn try_run(
        scene: &Scene,
        schedule: &ScheduleConfig,
        config: &PipelineConfig,
        width: u32,
        height: u32,
    ) -> Result<FrameResult, SimError> {
        let prefix = FramePrefix::build(scene, config, width, height)?;
        Self::try_run_prefixed_probed(&prefix, schedule, config, &mut NullProbe)
    }

    /// Run one schedule leg over a prebuilt [`FramePrefix`] —
    /// bit-identical to a fresh [`try_run`](Self::try_run) of the same
    /// scene, because the fresh path is `FramePrefix::build` followed by
    /// this exact leg.
    ///
    /// `config` must equal the prefix's build configuration; the
    /// wall-clock and allocation fault hooks still fire per leg, so
    /// sweep watchdogs see every job.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when `config` is invalid or does
    /// not match the configuration the prefix was built under.
    pub fn try_run_prefixed(
        prefix: &FramePrefix,
        schedule: &ScheduleConfig,
        config: &PipelineConfig,
    ) -> Result<FrameResult, SimError> {
        Self::try_run_prefixed_probed(prefix, schedule, config, &mut NullProbe)
    }

    /// [`try_run_prefixed`](Self::try_run_prefixed) with an
    /// observability probe: the leg records one [`Event::Raster`] per
    /// tile and one [`Event::Mem`] per (tile, SC) subtile, in
    /// tile-major / SC-ascending order — the order the shared memory
    /// levels see the subtiles in. Busy/wait [`Event::Span`]s are *not*
    /// emitted here; they come from frame-time composition
    /// ([`compose_frame_probed`](crate::timing::compose_frame_probed))
    /// over the returned [`StageDurations`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when `config` is invalid or does
    /// not match the configuration the prefix was built under.
    pub fn try_run_prefixed_probed<P: Probe>(
        prefix: &FramePrefix,
        schedule: &ScheduleConfig,
        config: &PipelineConfig,
        probe: &mut P,
    ) -> Result<FrameResult, SimError> {
        config.validate()?;
        if *config != prefix.config {
            return Err(SimError::Config(
                "frame prefix was built under a different pipeline configuration".into(),
            ));
        }
        fault_hooks(config);
        Ok(Self::run_leg(prefix, schedule, config, probe))
    }

    /// The schedule-dependent remainder of the simulation: partition
    /// the prefix's tiles under `schedule`, then run the fragment stage
    /// (the hierarchy walk and warp timing) per subtile.
    fn run_leg<P: Probe>(
        prefix: &FramePrefix,
        schedule: &ScheduleConfig,
        config: &PipelineConfig,
        probe: &mut P,
    ) -> FrameResult {
        let tsched = TileSchedule::build(schedule, prefix.tiles_w, prefix.tiles_h);
        let index = |(tx, ty): (u32, u32)| (ty * prefix.tiles_w + tx) as usize;
        let tile_at = |tile| &prefix.tiles[index(tile)];

        // Partition pass, in schedule order: the fetch and raster
        // durations, per-SC rasterized-quad counts (the tile's
        // per-position counts summed per slot) and, per (tile, SC),
        // the survivors' tile-local indices — one flat index arena with
        // per-subtile ranges instead of four `Vec<Quad>` re-merge
        // buffers per tile. A quad's SC is its slot in the grouping
        // table, mapped through the tile's assignment.
        let slots = SlotTable::new(schedule.grouping, config.quads_per_side());
        let survivors = prefix.tiles.iter().map(|t| t.quads.len()).sum();
        let mut legs: Vec<LegTile> = Vec::with_capacity(tsched.len());
        let mut sc_idx: Vec<u32> = Vec::with_capacity(survivors);
        let mut buckets: [Vec<u32>; 4] = Default::default();
        let mut durations = StageDurations::default();
        for (ti, tile, assign) in tsched.iter() {
            let tp = tile_at(tile);
            if probe.enabled() {
                probe.record(Event::Raster(RasterSample {
                    tile: ti as u32,
                    prims: tp.prims,
                    quads: tp.raster_quads,
                }));
            }
            durations
                .fetch
                .push(4 + u64::from(tp.prims) * u64::from(config.fetch_cycles_per_prim));
            durations.raster.push(
                u64::from(tp.raster_quads).div_ceil(u64::from(config.raster_quads_per_cycle)),
            );
            let mut rec = TileRecord {
                tile,
                ..TileRecord::default()
            };
            let per_slot = slots.per_slot(prefix.rast_counts(index(tile)));
            for (&sc, n) in assign.iter().zip(per_slot) {
                rec.quads_rasterized[usize::from(sc)] += n;
            }
            for b in &mut buckets {
                b.clear();
            }
            for (qi, q) in tp.quads.iter().enumerate() {
                buckets[usize::from(assign[slots.slot_of_pos(q.pos)])].push(qi as u32);
            }
            let mut sc = [(0u32, 0u32); 4];
            for (r, b) in sc.iter_mut().zip(&buckets) {
                let start = sc_idx.len() as u32;
                sc_idx.extend_from_slice(b);
                *r = (start, sc_idx.len() as u32);
            }
            legs.push(LegTile { rec, sc });
        }

        // Fragment stage: run each SC's subtile on the warp model,
        // tile-major and SC-ascending. In upper-bound mode all quads
        // execute on the single core, in slot order (cache metric only).
        let mut hierarchy = TextureHierarchy::new(config.effective_hierarchy());
        let core = ShaderCore::new(config.warp_slots, config.l1_miss_fill_cycles);

        let mut tiles = Vec::with_capacity(legs.len());
        let mut shader_total = ShaderCoreStats::default();
        let mut merged: Vec<u32> = Vec::new();
        for ((ti, tile, _), leg) in tsched.iter().zip(&legs) {
            let tp = tile_at(tile);
            let mut rec = leg.rec;
            let mut ez = [0u64; 4];
            let mut frag = [0u64; 4];
            let mut blend = [0u64; 4];
            if config.upper_bound {
                // All quads on the single core: the per-SC lists
                // concatenated in SC order.
                merged.clear();
                for r in leg.sc {
                    merged.extend_from_slice(&sc_idx[span(r)]);
                }
                let quads = prefix.prepared(tp, &merged);
                let (cycles, stats) =
                    run_subtile_cached(&core, 0, ti, quads, &mut hierarchy, probe);
                rec.quads_shaded[0] = merged.len() as u32;
                rec.frag_cycles[0] = cycles;
                shader_total += stats;
                ez[0] = u64::from(rec.quads_rasterized.iter().sum::<u32>());
                frag[0] = cycles;
                blend[0] = merged.len() as u64 + u64::from(config.flush_cycles_per_bank);
            } else {
                for (sc, &r) in leg.sc.iter().enumerate().take(config.num_sc) {
                    let indices = &sc_idx[span(r)];
                    let quads = prefix.prepared(tp, indices);
                    let (cycles, stats) =
                        run_subtile_cached(&core, sc, ti, quads, &mut hierarchy, probe);
                    rec.quads_shaded[sc] = indices.len() as u32;
                    rec.frag_cycles[sc] = cycles;
                    shader_total += stats;
                    ez[sc] = u64::from(rec.quads_rasterized[sc]);
                    frag[sc] = cycles;
                    blend[sc] = indices.len() as u64 + u64::from(config.flush_cycles_per_bank);
                }
            }
            durations.early_z.push(ez);
            durations.fragment.push(frag);
            durations.blend.push(blend);
            tiles.push(rec);
        }

        // Inject any lane-stall fault into the recorded durations.
        // Both barrier modes compose frame time from these durations,
        // so coupled and decoupled see the identical perturbation.
        config.fault.apply_to_durations(&mut durations);

        FrameResult {
            config: *config,
            schedule: *schedule,
            width: prefix.width,
            height: prefix.height,
            geometry: prefix.geometry.clone(),
            tiling: prefix.tiling.clone(),
            tiles,
            durations,
            hierarchy: hierarchy.stats(),
            shader: shader_total,
        }
    }
}

/// Deterministic wall-clock and allocation fault hooks, fired once per
/// leg (per sweep job) on the calling thread — the one sweep timeout
/// and memory-budget watchdogs observe — without touching any simulated
/// metric.
// lint: taint-barrier(fault hooks stall wall time and allocator pressure only; nothing here is read back into simulated state)
fn fault_hooks(config: &PipelineConfig) {
    // Wall-clock hook: wedge the job (exercises timeout watchdogs).
    if config.fault.wall_stall_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(config.fault.wall_stall_ms));
    }
    // Allocation spike: hold a transient buffer (exercises the sweep
    // allocator watchdog).
    if config.fault.alloc_spike_mb > 0 {
        let spike = vec![0u8; config.fault.alloc_spike_mb as usize * 1024 * 1024];
        std::hint::black_box(&spike);
    }
}

/// `(start, end)` arena range → `usize` slice range.
fn span(r: (u32, u32)) -> std::ops::Range<usize> {
    r.0 as usize..r.1 as usize
}

/// Run one subtile over its prepared quads. When probing, the walk is
/// bracketed with [`TextureHierarchy::shared_counters`] snapshots so its
/// L2/DRAM traffic (prefetches included) is attributed to this
/// (tile, SC) subtile; the L1 counts are the walk's demand accesses.
fn run_subtile_cached<'a, P: Probe>(
    core: &ShaderCore,
    sc: usize,
    tile: usize,
    quads: impl IntoIterator<Item = PreparedQuad<'a>>,
    hierarchy: &mut TextureHierarchy,
    probe: &mut P,
) -> (u64, ShaderCoreStats) {
    let before = probe.enabled().then(|| hierarchy.shared_counters());
    let (cycles, stats, l1_misses) = core.run_prepared(sc, quads, hierarchy);
    if let Some(before) = before {
        let delta = hierarchy.shared_counters().since(&before);
        probe.record(Event::Mem(MemSample {
            tile: tile as u32,
            sc: sc as u8,
            l1_hits: stats.line_accesses - l1_misses,
            l1_misses,
            l2_hits: delta.l2_hits,
            l2_misses: delta.l2_misses,
            dram_requests: delta.dram_requests,
            dram_spikes: delta.dram_spikes,
        }));
    }
    (cycles, stats)
}

/// Per-tile output of the leg's partition pass: the tile record with
/// `quads_rasterized` filled in, and per SC a `(start, end)` range of
/// the leg's survivor-index arena (tile-local indices, submission
/// order).
#[derive(Debug, Clone, Copy)]
struct LegTile {
    rec: TileRecord,
    sc: [(u32, u32); 4],
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtexl_mem::LineAddr;
    use dtexl_scene::{Game, SceneSpec};

    fn small_result(schedule: ScheduleConfig) -> FrameResult {
        let scene = Game::GravityTetris.scene(&SceneSpec::new(256, 128, 0));
        FrameSim::try_run(&scene, &schedule, &PipelineConfig::default(), 256, 128).unwrap()
    }

    #[test]
    fn rasterized_counts_equal_a_direct_count_under_every_grouping() {
        // The oracle re-rasterizes every tile and maps each quad through
        // `sc_of_quad`, bypassing the prefix's per-position counts and
        // the leg's slot table. 65×31 leaves partial edge tiles.
        use crate::{GeometryPipeline, Rasterizer, TilingEngine};
        use dtexl_gmath::Rect;
        use dtexl_sched::{AssignMode, QuadGrouping, TileOrder};
        let config = PipelineConfig::default();
        let qps = config.quads_per_side();
        let assignments = [
            AssignMode::Const,
            AssignMode::Flip1,
            AssignMode::Flip2,
            AssignMode::Flip3,
        ];
        for game in [Game::RiseOfKingdoms, Game::CandyCrush] {
            for (w, h) in [(65, 31), (128, 64)] {
                let scene = game.scene(&SceneSpec::new(w, h, 0));
                let gout = GeometryPipeline::new(config.vertex_cache).run(&scene, w, h);
                let bins =
                    TilingEngine::new(config.tile_cache, config.tile_size).bin(&gout.prims, w, h);
                let raster = Rasterizer::new(config.tile_size);
                let screen = Rect::new(0, 0, w as i32, h as i32);
                let rasterized = |(tx, ty): (u32, u32)| {
                    let mut quads = Vec::new();
                    raster.rasterize_tile_into(
                        &gout.prims,
                        bins.list(tx, ty),
                        (tx * config.tile_size) as i32,
                        (ty * config.tile_size) as i32,
                        screen,
                        &mut quads,
                    );
                    quads
                };
                for grouping in QuadGrouping::ALL {
                    for assignment in assignments {
                        let schedule = ScheduleConfig {
                            grouping,
                            order: TileOrder::HILBERT8,
                            assignment,
                        };
                        let r = FrameSim::try_run(&scene, &schedule, &config, w, h).unwrap();
                        let tsched = TileSchedule::build(&schedule, bins.tiles_w(), bins.tiles_h());
                        assert_eq!(r.tiles.len(), tsched.len());
                        for ((ti, tile, _), rec) in tsched.iter().zip(&r.tiles) {
                            let mut want = [0u32; 4];
                            for q in rasterized(tile) {
                                want[tsched.sc_of_quad(ti, q.qx, q.qy, qps, qps)] += 1;
                            }
                            assert_eq!(
                                (rec.tile, rec.quads_rasterized),
                                (tile, want),
                                "{} {w}x{h} {}/{}",
                                game.alias(),
                                grouping.name(),
                                assignment.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn frame_produces_work_and_metrics() {
        let r = small_result(ScheduleConfig::baseline());
        assert_eq!(r.tiles.len(), 8 * 4, "256×128 → 8×4 tiles");
        assert!(r.total_quads_shaded() > 100);
        assert!(r.total_l2_accesses() > 0);
        assert!(r.total_cycles(BarrierMode::Coupled) > 0);
        assert!(r.fps(600e6, BarrierMode::Coupled) > 0.0);
    }

    #[test]
    fn decoupled_at_least_as_fast() {
        for sched in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
            let r = small_result(sched);
            assert!(r.total_cycles(BarrierMode::Decoupled) <= r.total_cycles(BarrierMode::Coupled));
        }
    }

    #[test]
    fn cg_square_reduces_l2_accesses() {
        let fg = small_result(ScheduleConfig::baseline());
        let cg = small_result(ScheduleConfig::dtexl());
        assert!(
            (cg.total_l2_accesses() as f64) < 0.9 * fg.total_l2_accesses() as f64,
            "CG {} vs FG {}",
            cg.total_l2_accesses(),
            fg.total_l2_accesses()
        );
    }

    #[test]
    fn fg_balances_quads_better_than_cg() {
        let fg = small_result(ScheduleConfig::baseline());
        let cg = small_result(ScheduleConfig::dtexl());
        assert!(
            fg.mean_quad_deviation() < cg.mean_quad_deviation(),
            "FG dev {} must be below CG dev {}",
            fg.mean_quad_deviation(),
            cg.mean_quad_deviation()
        );
    }

    #[test]
    fn upper_bound_beats_split_caches() {
        let scene = Game::GravityTetris.scene(&SceneSpec::new(256, 128, 0));
        let cfg = PipelineConfig::default();
        let ub_cfg = PipelineConfig {
            upper_bound: true,
            ..cfg
        };
        let split = FrameSim::try_run(&scene, &ScheduleConfig::baseline(), &cfg, 256, 128).unwrap();
        let ub = FrameSim::try_run(&scene, &ScheduleConfig::baseline(), &ub_cfg, 256, 128).unwrap();
        assert!(
            ub.hierarchy.l2.accesses < split.hierarchy.l2.accesses,
            "upper bound {} must beat split {}",
            ub.hierarchy.l2.accesses,
            split.hierarchy.l2.accesses
        );
    }

    #[test]
    fn distinct_lines_equal_the_footprint_arenas_distinct_lines() {
        // Without prefetch the L2 only ever sees footprint lines, and
        // every footprint line is a compulsory miss in some lane, so
        // the count is fixed by the prefix alone — however it is
        // tracked, on any schedule or L1 arrangement.
        let scene = Game::CandyCrush.scene(&SceneSpec::new(100, 50, 0));
        for upper_bound in [false, true] {
            let build = PipelineConfig {
                upper_bound,
                ..PipelineConfig::default()
            };
            assert!(!build.hierarchy.prefetch_next_line);
            let prefix = FramePrefix::build(&scene, &build, 100, 50).unwrap();
            let footprint: std::collections::BTreeSet<LineAddr> = prefix
                .tiles
                .iter()
                .flat_map(|t| t.lines.iter().map(|&l| LineAddr::from(l)))
                .collect();
            assert!(footprint.len() > 100, "frame must touch texture");
            for schedule in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
                let r = FrameSim::try_run_prefixed(&prefix, &schedule, &build).unwrap();
                assert_eq!(
                    r.hierarchy.distinct_lines,
                    footprint.len() as u64,
                    "upper_bound {upper_bound}, {}",
                    schedule.label()
                );
            }
        }
    }

    #[test]
    fn ragged_edge_resolutions_work() {
        // Resolutions that are not multiples of the tile size exercise
        // partial tiles on the right/bottom edges.
        for (w, h) in [(100u32, 50u32), (33, 33), (65, 31)] {
            let scene = Game::CandyCrush.scene(&SceneSpec::new(w, h, 0));
            for sched in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
                let r =
                    FrameSim::try_run(&scene, &sched, &PipelineConfig::default(), w, h).unwrap();
                assert_eq!(
                    r.tiles.len() as u32,
                    w.div_ceil(32) * h.div_ceil(32),
                    "{w}x{h}"
                );
                assert!(r.total_quads_shaded() > 0, "{w}x{h}");
                // No quad may cover pixels beyond the screen: bounded by
                // the pixel count (4 fragments per quad).
                let max_quads = (w.div_ceil(2) * h.div_ceil(2)) as u64;
                let per_tile_max: u64 = r
                    .tiles
                    .iter()
                    .map(|t| u64::from(*t.quads_shaded.iter().max().unwrap()))
                    .sum();
                assert!(per_tile_max <= max_quads * 8, "sanity bound");
                assert!(
                    r.total_cycles(BarrierMode::Decoupled) <= r.total_cycles(BarrierMode::Coupled)
                );
            }
        }
    }

    #[test]
    fn determinism() {
        let a = small_result(ScheduleConfig::dtexl());
        let b = small_result(ScheduleConfig::dtexl());
        assert_eq!(
            a.total_cycles(BarrierMode::Coupled),
            b.total_cycles(BarrierMode::Coupled)
        );
        assert_eq!(a.total_l2_accesses(), b.total_l2_accesses());
    }

    #[test]
    fn energy_events_populated() {
        let r = small_result(ScheduleConfig::baseline());
        let ev = r.energy_events(BarrierMode::Coupled);
        assert!(ev.l1_accesses > 0);
        assert!(ev.l2_accesses > 0);
        assert!(ev.alu_ops > 0);
        assert!(ev.fixed_stage_quads > 0);
        assert_eq!(ev.cycles, r.total_cycles(BarrierMode::Coupled));
    }

    #[test]
    fn late_z_quads_are_always_shaded() {
        use dtexl_scene::DepthMode;
        let mut scene = Game::TempleRun.scene(&SceneSpec::new(256, 128, 0));
        let early = FrameSim::try_run(
            &scene,
            &ScheduleConfig::baseline(),
            &PipelineConfig::default(),
            256,
            128,
        )
        .unwrap();
        for d in &mut scene.draws {
            d.depth_mode = DepthMode::Late;
        }
        let late = FrameSim::try_run(
            &scene,
            &ScheduleConfig::baseline(),
            &PipelineConfig::default(),
            256,
            128,
        )
        .unwrap();
        assert!(
            late.total_quads_shaded() > early.total_quads_shaded(),
            "late-Z disables early culling: {} vs {}",
            late.total_quads_shaded(),
            early.total_quads_shaded()
        );
        assert!(
            late.total_cycles(BarrierMode::Coupled) > early.total_cycles(BarrierMode::Coupled),
            "the wasted shading costs time"
        );
    }

    #[test]
    fn row_major_layout_reduces_cg_benefit() {
        use dtexl_texture::TexelLayout;
        let scene = Game::GravityTetris.scene(&SceneSpec::new(256, 128, 0));
        let cfg = PipelineConfig::default();
        let ratio = |s: &dtexl_scene::Scene| {
            let fg = FrameSim::try_run(s, &ScheduleConfig::baseline(), &cfg, 256, 128).unwrap();
            let cg = FrameSim::try_run(s, &ScheduleConfig::dtexl(), &cfg, 256, 128).unwrap();
            cg.hierarchy.l2.accesses as f64 / fg.hierarchy.l2.accesses as f64
        };
        let morton = ratio(&scene);
        let linear = ratio(&scene.relayout(TexelLayout::RowMajor));
        assert!(
            morton < linear,
            "Morton tiling exposes more schedulable locality: {morton:.3} vs {linear:.3}"
        );
    }

    #[test]
    fn probed_run_is_bit_identical_and_samples_cover_every_subtile() {
        use dtexl_obs::EventSink;
        let scene = Game::GravityTetris.scene(&SceneSpec::new(256, 128, 0));
        let sched = ScheduleConfig::dtexl();
        let cfg = PipelineConfig::default();
        let plain = FrameSim::try_run(&scene, &sched, &cfg, 256, 128).unwrap();
        let mut sink = EventSink::new();
        let prefix = FramePrefix::build(&scene, &cfg, 256, 128).expect("valid inputs");
        let probed = FrameSim::try_run_prefixed_probed(&prefix, &sched, &cfg, &mut sink)
            .expect("valid inputs");

        // Probing must not perturb the simulation.
        assert_eq!(plain.durations, probed.durations);
        assert_eq!(plain.hierarchy, probed.hierarchy);
        assert_eq!(plain.tiles, probed.tiles);
        assert_eq!(sink.dropped(), 0);

        // One raster sample per tile, one mem sample per (tile, SC),
        // in tile-major / SC-ascending order.
        let tiles = probed.tiles.len();
        let raster: Vec<_> = sink
            .iter()
            .filter_map(|e| match e {
                Event::Raster(r) => Some(*r),
                _ => None,
            })
            .collect();
        assert_eq!(raster.len(), tiles);
        let mem: Vec<_> = sink.mem_samples();
        assert_eq!(mem.len(), tiles * cfg.num_sc);
        let keys: Vec<_> = mem.iter().map(|m| (m.tile, m.sc)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "mem samples in replay order");

        // The samples partition the frame's shared-level traffic.
        let l2: u64 = mem.iter().map(|m| m.l2_hits + m.l2_misses).sum();
        assert_eq!(l2, probed.hierarchy.l2.accesses);
        let dram: u64 = mem.iter().map(|m| m.dram_requests).sum();
        assert_eq!(dram, probed.hierarchy.dram_accesses);
        // L1 samples count demand accesses only; prefetch fills also
        // bump the cache's own access stat, so the sum is a lower bound.
        let l1: u64 = mem.iter().map(|m| m.l1_hits + m.l1_misses).sum();
        assert!(l1 > 0 && l1 <= probed.hierarchy.l1_accesses());
    }

    #[test]
    fn early_z_kills_some_overdraw() {
        let r = small_result(ScheduleConfig::baseline());
        let rasterized: u64 = r
            .tiles
            .iter()
            .map(|t| {
                t.quads_rasterized
                    .iter()
                    .map(|&q| u64::from(q))
                    .sum::<u64>()
            })
            .sum();
        assert!(
            r.total_quads_shaded() < rasterized,
            "early-Z must cull something: {} vs {}",
            r.total_quads_shaded(),
            rasterized
        );
    }
}
