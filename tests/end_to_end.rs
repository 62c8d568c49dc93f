//! Cross-crate integration tests: scene generation → geometry → tiling
//! → raster → shading → metrics, exercised end to end.

use dtexl::{SimConfig, Simulator};
use dtexl_alloc::{meter_current_thread, AllocMeter};
use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{Game, Scene, SceneSpec};
use dtexl_sched::{NamedMapping, ScheduleConfig};

const W: u32 = 384;
const H: u32 = 192;

fn sim(game: Game, sched: &ScheduleConfig) -> dtexl_pipeline::FrameResult {
    let scene = game.scene(&SceneSpec::new(W, H, 0));
    FrameSim::try_run(&scene, sched, &PipelineConfig::default(), W, H).unwrap()
}

#[test]
fn every_game_runs_under_every_named_mapping() {
    for game in Game::ALL {
        for mapping in NamedMapping::FIG16 {
            let r = sim(game, &mapping.config());
            assert!(
                r.total_quads_shaded() > 0,
                "{} under {} shaded nothing",
                game.alias(),
                mapping.name()
            );
            assert!(r.total_cycles(BarrierMode::Coupled) > 0);
        }
    }
}

#[test]
fn quad_conservation_across_stages() {
    for game in [Game::CandyCrush, Game::SonicDash, Game::Maze] {
        let r = sim(game, &ScheduleConfig::baseline());
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
        let shaded = r.total_quads_shaded();
        assert!(shaded <= rasterized, "{}", game.alias());
        assert!(shaded > 0);
        // Shader stats agree with per-tile records.
        assert_eq!(r.shader.quads, shaded, "{}", game.alias());
    }
}

#[test]
fn l2_flow_conservation() {
    let r = sim(Game::Sniper3d, &ScheduleConfig::dtexl());
    let h = &r.hierarchy;
    assert_eq!(h.l1_misses(), h.l2.accesses);
    assert_eq!(h.l2.misses, h.dram_accesses);
    assert!(r.total_l2_accesses() >= h.l2.accesses);
}

#[test]
fn frame_time_composition_is_order_sound() {
    // The frame can never be faster than its slowest single component.
    let r = sim(Game::CityRacing, &ScheduleConfig::baseline());
    let frag_per_unit: [u64; 4] = {
        let mut acc = [0u64; 4];
        for d in &r.durations.fragment {
            for u in 0..4 {
                acc[u] += d[u];
            }
        }
        acc
    };
    let lower_bound = *frag_per_unit.iter().max().unwrap();
    for mode in [BarrierMode::Coupled, BarrierMode::Decoupled] {
        assert!(
            r.total_cycles(mode) >= lower_bound,
            "{mode:?}: {} < fragment lower bound {lower_bound}",
            r.total_cycles(mode)
        );
    }
}

#[test]
fn simulator_facade_matches_manual_pipeline() {
    let cfg = SimConfig::baseline(Game::GravityTetris).with_resolution(W, H);
    let report = Simulator::simulate(&cfg);
    let manual = sim(Game::GravityTetris, &ScheduleConfig::baseline());
    assert_eq!(report.cycles, manual.total_cycles(BarrierMode::Coupled));
    assert_eq!(report.l2_accesses, manual.total_l2_accesses());
}

#[test]
fn animation_changes_work_but_not_structure() {
    let f0 = Game::SonicDash.scene(&SceneSpec::new(W, H, 0));
    let f9 = Game::SonicDash.scene(&SceneSpec::new(W, H, 9));
    assert_eq!(f0.textures.len(), f9.textures.len(), "same assets");
    assert_ne!(f0, f9, "camera moved");
    let r0 = FrameSim::try_run(
        &f0,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        W,
        H,
    )
    .unwrap();
    let r9 = FrameSim::try_run(
        &f9,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        W,
        H,
    )
    .unwrap();
    assert_ne!(
        r0.total_cycles(BarrierMode::Coupled),
        r9.total_cycles(BarrierMode::Coupled),
        "different frames take different time"
    );
}

#[test]
fn empty_scene_is_handled() {
    let scene = Scene::default();
    let r = FrameSim::try_run(
        &scene,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        64,
        64,
    )
    .unwrap();
    assert_eq!(r.total_quads_shaded(), 0);
    assert_eq!(r.hierarchy.l2.accesses, 0);
    // Fixed per-tile costs (fetch, flush) still accrue.
    assert!(r.total_cycles(BarrierMode::Coupled) > 0);
}

#[test]
fn upper_bound_mode_end_to_end() {
    let scene = Game::RiseOfKingdoms.scene(&SceneSpec::new(W, H, 0));
    let cfg = PipelineConfig {
        upper_bound: true,
        ..PipelineConfig::default()
    };
    let ub = FrameSim::try_run(&scene, &ScheduleConfig::baseline(), &cfg, W, H).unwrap();
    let split = sim(Game::RiseOfKingdoms, &ScheduleConfig::baseline());
    assert!(ub.hierarchy.l2.accesses < split.hierarchy.l2.accesses);
    assert_eq!(
        ub.total_quads_shaded(),
        split.total_quads_shaded(),
        "same functional work"
    );
}

#[test]
fn barrier_modes_share_functional_results() {
    let r = sim(Game::DerbyDestruction, &ScheduleConfig::dtexl());
    // One functional pass serves both compositions, so all functional
    // metrics are identical by construction; the test guards that the
    // API keeps it that way.
    let coupled = r.total_cycles(BarrierMode::Coupled);
    let decoupled = r.total_cycles(BarrierMode::Decoupled);
    assert!(decoupled <= coupled);
    assert_eq!(
        r.energy_events(BarrierMode::Coupled).l2_accesses,
        r.energy_events(BarrierMode::Decoupled).l2_accesses
    );
}

#[test]
fn fragment_stage_does_not_allocate_per_quad() {
    // The early-Z survivor path used to clone every surviving `Quad`
    // into per-SC re-merge buffers; on the densest game (CandyCrush,
    // ~120k survivors at 480×192) the frame's high-water mark measured
    // 15_450_568 bytes before the fix. The prepared-quad arena path
    // reuses flat index buffers: with the compact prefix layout
    // (8-byte survivors, 32-bit lines) in frame-wide arenas grown by
    // doubling it measured 3_771_432 bytes (10_038_152 with the wide
    // layout), with exact-size per-tile arenas 3_373_178, and with
    // per-position raster counts in place of a position per
    // rasterized quad 3_179_432 — the retained prefix plus the leg's
    // survivor-index arena. The bound is that plus 15%: above normal
    // jitter, below every older layout.
    let scene = Game::CandyCrush.scene(&SceneSpec::new(480, 192, 0));
    let meter = AllocMeter::new();
    let guard = meter_current_thread(&meter);
    let r = FrameSim::try_run(
        &scene,
        &ScheduleConfig::dtexl(),
        &PipelineConfig::default(),
        480,
        192,
    )
    .unwrap();
    drop(guard);
    assert!(r.total_l2_accesses() > 0, "frame must have run");
    assert!(
        meter.peak_bytes() < 3_656_347,
        "fragment-stage peak allocation regressed: {} bytes",
        meter.peak_bytes()
    );
}

#[test]
fn edge_tiles_flush_only_their_screen_intersection() {
    // 100×50 with 32-pixel tiles: 4×2 tile grid covering 128×64 pixels.
    // Flushed color traffic must charge the 100×50 screen area only —
    // 4 bytes per pixel rounded up to 64-byte lines *per tile*, not the
    // full 128×64 the tile grid spans.
    let scene = Game::GravityTetris.scene(&SceneSpec::new(100, 50, 0));
    let r = FrameSim::try_run(
        &scene,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        100,
        50,
    )
    .unwrap();
    let mut expected = 0u64;
    for ty in 0..2u64 {
        for tx in 0..4u64 {
            let w = 32.min(100 - tx * 32);
            let h = 32.min(50 - ty * 32);
            expected += (w * h * 4).div_ceil(64);
        }
    }
    assert_eq!(r.framebuffer_lines(), expected);
    let full_tiles = 8 * (32u64 * 32 * 4).div_ceil(64);
    assert!(
        r.framebuffer_lines() < full_tiles,
        "partial edge tiles must not be charged full-tile flushes"
    );
}
