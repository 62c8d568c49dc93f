//! Negative-space tests: malformed inputs must fail loudly (with the
//! documented panics/errors), and extreme-but-legal inputs must not
//! wedge the simulator.

use dtexl::gmath::{Mat4, Vec2, Vec3};
use dtexl::texture::TextureDesc;
use dtexl::{SimConfig, Simulator};
use dtexl_pipeline::{
    BarrierMode, DramSpike, FaultPlan, FrameSim, LaneStall, PipelineConfig, SimError,
};
use dtexl_scene::{
    DepthMode, DrawCommand, Game, Scene, SceneSpec, ShaderProfile, Vertex, TEXTURE_BASE_ADDR,
};
use dtexl_sched::ScheduleConfig;

fn one_tri_scene() -> Scene {
    Scene {
        textures: vec![TextureDesc::new(0, 64, 64, TEXTURE_BASE_ADDR)],
        vertices: vec![
            Vertex::new(Vec3::new(4.0, 4.0, -1.0), Vec2::new(0.0, 0.0)),
            Vertex::new(Vec3::new(60.0, 4.0, -1.0), Vec2::new(1.0, 0.0)),
            Vertex::new(Vec3::new(4.0, 60.0, -1.0), Vec2::new(0.0, 1.0)),
        ],
        draws: vec![DrawCommand {
            first_vertex: 0,
            vertex_count: 3,
            texture: 0,
            shader: ShaderProfile::standard(),
            transform: Mat4::orthographic(0.0, 64.0, 64.0, 0.0, 0.1, 10.0),
            opaque: true,
            uv_scale: 1.0,
            depth_mode: DepthMode::Early,
        }],
    }
}

/// The panicking facade's configuration for [`one_tri_scene`]: the
/// baseline schedule at 64×64 (the game is ignored for a given scene).
fn facade_config(pipeline: PipelineConfig) -> SimConfig {
    SimConfig {
        pipeline,
        ..SimConfig::baseline(Game::CandyCrush).with_resolution(64, 64)
    }
}

#[test]
// lint: typed-sibling(dangling_texture_is_a_scene_error)
#[should_panic(expected = "invalid scene")]
fn scene_with_dangling_texture_panics() {
    let mut scene = one_tri_scene();
    scene.draws[0].texture = 99;
    let _ = Simulator::simulate_scene(&scene, &facade_config(PipelineConfig::default()));
}

#[test]
// lint: typed-sibling(odd_tile_size_is_a_config_error)
#[should_panic(expected = "invalid pipeline configuration")]
fn odd_tile_size_panics() {
    let cfg = PipelineConfig {
        tile_size: 31,
        ..PipelineConfig::default()
    };
    let _ = Simulator::simulate_scene(&one_tri_scene(), &facade_config(cfg));
}

#[test]
// lint: typed-sibling(sparse_texture_ids_are_a_typed_error)
#[should_panic(expected = "texture ids must be dense")]
fn sparse_texture_ids_panic() {
    let mut scene = one_tri_scene();
    // Texture with id 5 at position 0: ids are no longer dense.
    scene.textures = vec![TextureDesc::new(5, 64, 64, TEXTURE_BASE_ADDR)];
    scene.draws[0].texture = 5;
    let _ = Simulator::simulate_scene(&scene, &facade_config(PipelineConfig::default()));
}

// --- typed-error parity: every panic above has a `try_*` sibling ---

#[test]
fn dangling_texture_is_a_scene_error() {
    let mut scene = one_tri_scene();
    scene.draws[0].texture = 99;
    let err = FrameSim::try_run(
        &scene,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        64,
        64,
    )
    .unwrap_err();
    assert!(matches!(err, SimError::Scene(_)));
    assert!(err.to_string().starts_with("invalid scene"));
}

#[test]
fn odd_tile_size_is_a_config_error() {
    let cfg = PipelineConfig {
        tile_size: 31,
        ..PipelineConfig::default()
    };
    let err =
        FrameSim::try_run(&one_tri_scene(), &ScheduleConfig::baseline(), &cfg, 64, 64).unwrap_err();
    assert!(matches!(err, SimError::Config(_)));
    assert!(err
        .to_string()
        .starts_with("invalid pipeline configuration"));
}

#[test]
fn sparse_texture_ids_are_a_typed_error() {
    let mut scene = one_tri_scene();
    scene.textures = vec![TextureDesc::new(5, 64, 64, TEXTURE_BASE_ADDR)];
    scene.draws[0].texture = 5;
    let err = FrameSim::try_run(
        &scene,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        64,
        64,
    )
    .unwrap_err();
    assert_eq!(err, SimError::SparseTextureIds { index: 0, id: 5 });
    assert!(err.to_string().contains("texture ids must be dense"));
}

#[test]
// lint: typed-sibling(zero_resolution_spec_is_a_typed_error)
#[should_panic(expected = "non-zero")]
fn zero_resolution_spec_panics() {
    let _ = SceneSpec::new(0, 64, 0);
}

#[test]
fn zero_resolution_spec_is_a_typed_error() {
    let err = SceneSpec::try_new(0, 64, 0).unwrap_err();
    assert!(err.contains("non-zero"));
    assert!(SceneSpec::try_new(64, 64, 0).is_ok());
}

/// Morton addressing keeps 16 bits per texel coordinate, so a texture
/// over 65,536 texels a side would alias its far texels onto the near
/// ones' lines: the texture table is rejected, naming the texture, and
/// the widest addressable texture still runs.
#[test]
fn morton_textures_past_16_bit_coordinates_are_a_scene_error() {
    let run = |width: u32| {
        let mut scene = one_tri_scene();
        scene.textures = vec![TextureDesc::new(0, width, 1, TEXTURE_BASE_ADDR)];
        FrameSim::try_run(
            &scene,
            &ScheduleConfig::baseline(),
            &PipelineConfig::default(),
            64,
            64,
        )
    };
    let err = run(1 << 17).unwrap_err();
    assert!(matches!(err, SimError::Scene(_)));
    assert!(err.to_string().contains("texture 0 is 131072x1"), "{err}");
    let r = run(1 << 16).expect("a 65,536-texel Morton texture is addressable");
    assert!(r.total_quads_shaded() > 0);
    assert!(r.hierarchy.l1_accesses() > 0);
}

#[test]
fn invalid_fault_plan_is_a_fault_error() {
    let cfg = PipelineConfig {
        fault: FaultPlan {
            lane_stall: Some(LaneStall {
                lane: 7,
                cycles: 100,
            }),
            ..FaultPlan::default()
        },
        ..PipelineConfig::default()
    };
    let err =
        FrameSim::try_run(&one_tri_scene(), &ScheduleConfig::baseline(), &cfg, 64, 64).unwrap_err();
    assert!(matches!(err, SimError::Fault(_)));
    assert!(err.to_string().contains("lane 7"));
}

#[test]
fn degenerate_and_offscreen_geometry_is_dropped_not_crashed() {
    let mut scene = one_tri_scene();
    // A zero-area triangle and a far-offscreen one.
    let base = scene.vertices.len() as u32;
    for p in [
        Vec3::new(1.0, 1.0, -1.0),
        Vec3::new(1.0, 1.0, -1.0),
        Vec3::new(1.0, 1.0, -1.0),
        Vec3::new(9000.0, 9000.0, -1.0),
        Vec3::new(9010.0, 9000.0, -1.0),
        Vec3::new(9000.0, 9010.0, -1.0),
    ] {
        scene.vertices.push(Vertex::new(p, Vec2::ZERO));
    }
    for first in [base, base + 3] {
        scene.draws.push(DrawCommand {
            first_vertex: first,
            vertex_count: 3,
            ..scene.draws[0].clone()
        });
    }
    let r = FrameSim::try_run(
        &scene,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        64,
        64,
    )
    .unwrap();
    assert_eq!(r.geometry.prims_assembled, 3);
    assert_eq!(
        r.geometry.prims_emitted, 1,
        "only the real triangle survives"
    );
}

#[test]
fn single_pixel_resolution_works() {
    let scene = one_tri_scene();
    let r = FrameSim::try_run(
        &scene,
        &ScheduleConfig::dtexl(),
        &PipelineConfig::default(),
        2,
        2,
    )
    .unwrap();
    assert_eq!(r.tiles.len(), 1);
    assert!(r.total_cycles(BarrierMode::Decoupled) > 0);
}

#[test]
fn gigantic_triangle_is_clipped_cheaply() {
    let mut scene = one_tri_scene();
    // Vertices a thousand screens away in every direction.
    scene.vertices = vec![
        Vertex::new(Vec3::new(-60000.0, -60000.0, -1.0), Vec2::new(0.0, 0.0)),
        Vertex::new(Vec3::new(120000.0, -60000.0, -1.0), Vec2::new(500.0, 0.0)),
        Vertex::new(Vec3::new(-60000.0, 120000.0, -1.0), Vec2::new(0.0, 500.0)),
    ];
    let r = FrameSim::try_run(
        &scene,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        64,
        64,
    )
    .unwrap();
    // The triangle covers the whole 64×64 screen: exactly 32×32 quads.
    assert_eq!(r.total_quads_shaded(), 32 * 32);
}

#[test]
fn zero_alu_shader_is_legal() {
    let mut scene = one_tri_scene();
    scene.draws[0].shader = ShaderProfile {
        alu_ops: 0,
        tex_samples: 1,
        filter: dtexl::texture::Filter::Bilinear,
    };
    let r = FrameSim::try_run(
        &scene,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        64,
        64,
    )
    .unwrap();
    assert!(r.total_quads_shaded() > 0);
    assert!(r.shader.alu_ops == 0);
    assert!(r.shader.tex_instructions > 0);
}

#[test]
fn extreme_uv_scale_stays_finite() {
    let mut scene = one_tri_scene();
    scene.draws[0].uv_scale = 1.0e4; // absurd texel density → deep mips
    let r = FrameSim::try_run(
        &scene,
        &ScheduleConfig::baseline(),
        &PipelineConfig::default(),
        64,
        64,
    )
    .unwrap();
    assert!(r.total_quads_shaded() > 0);
    assert!(r.hierarchy.l1_accesses() > 0);
}

// --- deterministic fault injection (FaultPlan) ---

fn game_frame(game: Game, fault: FaultPlan) -> dtexl_pipeline::FrameResult {
    let (w, h) = (480, 192);
    let scene = game.scene(&SceneSpec::new(w, h, 0));
    let cfg = PipelineConfig {
        fault,
        ..PipelineConfig::default()
    };
    FrameSim::try_run(&scene, &ScheduleConfig::dtexl(), &cfg, w, h).unwrap()
}

/// The paper's robustness claim, made executable: when one SC lane
/// stalls, coupled barriers propagate the stall through every
/// subsequent tile boundary, while decoupled barriers absorb part of
/// it in the other lanes' slack — so decoupled loses strictly fewer
/// cycles, on multiple games.
#[test]
fn decoupled_absorbs_a_lane_stall_better_than_coupled() {
    for game in [Game::GravityTetris, Game::CandyCrush] {
        let clean = game_frame(game, FaultPlan::default());
        // Stall the least-loaded lane: a coupled pipeline still pays
        // for the stall at every tile barrier, while the decoupled
        // pipeline has the most slack in exactly that lane's chain.
        let mut totals = [0u64; 4];
        for frag in &clean.durations.fragment {
            for (lane, &cycles) in frag.iter().enumerate() {
                totals[lane] += cycles;
            }
        }
        let lane = (0..4).min_by_key(|&l| totals[l]).unwrap();
        let stall_cycles = clean.total_cycles(BarrierMode::Coupled) / 8;
        let stalled = game_frame(
            game,
            FaultPlan {
                seed: 7,
                lane_stall: Some(LaneStall {
                    lane,
                    cycles: stall_cycles,
                }),
                ..FaultPlan::default()
            },
        );
        let loss_coupled =
            stalled.total_cycles(BarrierMode::Coupled) - clean.total_cycles(BarrierMode::Coupled);
        let loss_decoupled = stalled.total_cycles(BarrierMode::Decoupled)
            - clean.total_cycles(BarrierMode::Decoupled);
        assert!(
            loss_coupled > 0,
            "{game:?}: the stall must cost coupled barriers something"
        );
        assert!(
            loss_decoupled < loss_coupled,
            "{game:?}: decoupled lost {loss_decoupled} cycles vs coupled {loss_coupled}"
        );
        // The cache model must be untouched: the stall perturbs timing
        // composition only, so both runs saw identical memory traffic.
        assert_eq!(clean.hierarchy, stalled.hierarchy);
    }
}

/// DRAM latency spikes slow the frame down but do not change *what*
/// is accessed: cache statistics stay bit-identical.
#[test]
fn dram_spikes_cost_cycles_but_not_accesses() {
    let game = Game::TempleRun;
    let clean = game_frame(game, FaultPlan::default());
    let spiked = game_frame(
        game,
        FaultPlan {
            dram_spike: Some(DramSpike {
                period: 2,
                extra_cycles: 400,
            }),
            ..FaultPlan::default()
        },
    );
    assert!(
        spiked.total_cycles(BarrierMode::Decoupled) > clean.total_cycles(BarrierMode::Decoupled),
        "every other DRAM fill paying +400 cycles must slow the frame"
    );
    assert_eq!(clean.hierarchy, spiked.hierarchy);
    assert_eq!(clean.total_quads_shaded(), spiked.total_quads_shaded());
}

/// An injected early-Z stall shows up in the observability trace
/// exactly where it was injected: the wait/busy attribution localizes
/// the fault to the stalled (SC, stage) unit without being told where
/// it is. This is the probes' reason to exist — a timing anomaly in
/// any unit is findable from the trace alone.
#[test]
fn trace_wait_attribution_localizes_an_injected_early_z_stall() {
    use dtexl::obs::{Span, SpanKind, Stage};
    use dtexl::profile::FrameProfile;
    use dtexl::SimConfig;
    use std::collections::BTreeMap;

    let lane = 2usize;
    let stall = 40_000u64;
    let clean_cfg = SimConfig::dtexl(Game::GravityTetris).with_resolution(480, 192);
    let mut faulted_cfg = clean_cfg;
    faulted_cfg.pipeline.fault = FaultPlan {
        seed: 11,
        early_z_stall: Some(LaneStall {
            lane,
            cycles: stall,
        }),
        ..FaultPlan::default()
    };
    let clean = FrameProfile::capture(&clean_cfg).expect("valid config");
    let faulted = FrameProfile::capture(&faulted_cfg).expect("valid config");

    // Busy totals per (stage, SC) unit from the span stream. Busy time
    // is barrier-mode-invariant; use the decoupled composition.
    let busy_totals = |spans: &[Span]| -> BTreeMap<(Stage, u8), u64> {
        let mut m = BTreeMap::new();
        for s in spans.iter().filter(|s| s.kind == SpanKind::Busy) {
            *m.entry((s.stage, s.sc)).or_insert(0) += s.cycles();
        }
        m
    };
    let before = busy_totals(&clean.decoupled);
    let after = busy_totals(&faulted.decoupled);

    // Without being told where the fault is, the largest busy delta
    // names the injected unit — and carries the full injected cost.
    let (culprit, delta) = after
        .iter()
        .map(|(unit, &b)| (*unit, b - before.get(unit).copied().unwrap_or(0)))
        .max_by_key(|&(_, d)| d)
        .unwrap();
    assert_eq!(
        culprit,
        (Stage::EarlyZ, lane as u8),
        "stall must localize to the injected (stage, SC) unit"
    );
    assert_eq!(delta, stall, "the whole injected cost lands in one unit");
    for (unit, b) in &after {
        if *unit != culprit {
            assert_eq!(*b, before[unit], "{unit:?}: untouched units must not move");
        }
    }

    // Coupled barriers turn the stall into sibling waits: the other
    // early-Z units now stand at the tile barrier longer.
    let ez_barrier_wait = |spans: &[Span]| -> u64 {
        spans
            .iter()
            .filter(|s| {
                s.stage == Stage::EarlyZ && s.kind == SpanKind::WaitBarrier && s.sc != lane as u8
            })
            .map(Span::cycles)
            .sum()
    };
    assert!(
        ez_barrier_wait(&faulted.coupled) > ez_barrier_wait(&clean.coupled),
        "coupled siblings must absorb the stall as barrier waits"
    );
}

/// The same fault plan is bit-identical across runs and across the
/// serial/parallel simulator paths.
#[test]
fn fault_injection_is_deterministic() {
    let plan = FaultPlan {
        seed: 42,
        lane_stall: Some(LaneStall {
            lane: 2,
            cycles: 10_000,
        }),
        dram_spike: Some(DramSpike {
            period: 5,
            extra_cycles: 120,
        }),
        ..FaultPlan::default()
    };
    let a = game_frame(Game::Maze, plan);
    let b = game_frame(Game::Maze, plan);
    assert_eq!(a.durations, b.durations, "same plan, same timing");
    assert_eq!(a.hierarchy, b.hierarchy, "same plan, same traffic");
}
