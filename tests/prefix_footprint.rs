//! The frame prefix's retained layout: `approx_bytes` (the prefix
//! cache's budget figure) matches what the allocator actually holds,
//! the build peaks no more than one tile's scratch above it, and the
//! arenas cost no more per element than the compact layout
//! (docs/MODEL.md, "Schedule-independent frame prefix").

use dtexl_alloc::{meter_current_thread, AllocMeter};
use dtexl_pipeline::{FramePrefix, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::ScheduleConfig;

const W: u32 = 480;
const H: u32 = 192;

/// The build's allowance over the prefix it returns: one tile's
/// scratch and the frame's transient geometry and bins.
const SCRATCH_BYTES: u64 = 640 * 1024;

#[test]
fn approx_bytes_is_the_live_heap_of_a_compact_prefix() {
    let config = PipelineConfig::default();
    for game in [Game::RiseOfKingdoms, Game::CandyCrush] {
        let scene = game.scene(&SceneSpec::new(W, H, 0));
        let meter = AllocMeter::new();
        let guard = meter_current_thread(&meter);
        let prefix = FramePrefix::build(&scene, &config, W, H).unwrap();
        let live = meter.current_bytes();
        let peak = meter.peak_bytes();
        drop(guard);
        let approx = prefix.approx_bytes();
        assert!(
            approx.abs_diff(live) * 50 <= live,
            "{}: approx_bytes {approx} vs {live} live bytes after the build",
            game.alias()
        );
        // Each tile is copied out of reused scratch at its exact size,
        // so the build peaks one tile's scratch (and the geometry and
        // bins it drops) over what it keeps. Frame-wide arenas grown by
        // doubling peaked 1.01 MB (RoK) and 1.21 MB (CCS) over.
        assert!(
            peak <= live + SCRATCH_BYTES,
            "{}: build peak {peak} over {live} live bytes plus one tile's scratch",
            game.alias()
        );

        // The arena lengths, from the leg's public counters: every
        // survivor is shaded once and walks its whole footprint once.
        // Rasterized quads cost 2 bytes per tile-local position, not
        // per quad.
        let r = FrameSim::try_run_prefixed(&prefix, &ScheduleConfig::baseline(), &config).unwrap();
        let survivors: u64 = r
            .tiles
            .iter()
            .flat_map(|t| t.quads_shaded)
            .map(u64::from)
            .sum();
        let lines = r.shader.line_accesses;
        let tiles = r.tiles.len() as u64;
        let positions = u64::from(config.quads_per_side()).pow(2) * tiles;
        let bound = 2 * positions + 8 * survivors + 4 * lines + 64 * tiles + 4096;
        assert!(
            approx <= bound,
            "{}: approx_bytes {approx} over the compact layout's {bound} \
             ({positions} quad positions, {survivors} survivors, {lines} lines, {tiles} tiles)",
            game.alias()
        );
    }
}
