//! Cross-crate property tests: arbitrary (non-game) scenes through the
//! whole pipeline.

use dtexl::gmath::{Mat4, Vec2, Vec3};
use dtexl::texture::TextureDesc;
use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{DrawCommand, Scene, ShaderProfile, Vertex, TEXTURE_BASE_ADDR};
use dtexl_sched::{AssignMode, QuadGrouping, ScheduleConfig, TileOrder};
use proptest::prelude::*;

/// Strategy: a random screen-space triangle-list scene over one
/// texture.
fn arb_scene(max_draws: usize) -> impl Strategy<Value = Scene> {
    let tri = (
        -32.0f32..160.0,
        -32.0f32..160.0,
        1.0f32..96.0,
        1.0f32..96.0,
        0.05f32..0.95,
        any::<bool>(),
        0u8..3,
    );
    proptest::collection::vec(tri, 1..max_draws).prop_map(|tris| {
        let mut scene = Scene {
            textures: vec![TextureDesc::new(0, 128, 128, TEXTURE_BASE_ADDR)],
            ..Scene::default()
        };
        // Screen-space ortho over a 128×128 viewport.
        let ortho = Mat4::orthographic(0.0, 128.0, 128.0, 0.0, 0.1, 10.0);
        for (x, y, w, h, z, opaque, shader) in tris {
            let first = scene.vertices.len() as u32;
            let uv = |u: f32, v: f32| Vec2::new(u, v);
            let p = |px: f32, py: f32| Vec3::new(px, py, -1.0 - z);
            for (pos, t) in [
                (p(x, y), uv(0.0, 0.0)),
                (p(x + w, y), uv(w / 128.0, 0.0)),
                (p(x, y + h), uv(0.0, h / 128.0)),
            ] {
                scene.vertices.push(Vertex::new(pos, t));
            }
            scene.draws.push(DrawCommand {
                first_vertex: first,
                vertex_count: 3,
                texture: 0,
                shader: match shader {
                    0 => ShaderProfile::simple(),
                    1 => ShaderProfile::standard(),
                    _ => ShaderProfile::heavy(),
                },
                transform: ortho,
                opaque,
                uv_scale: 1.0,
                depth_mode: dtexl_scene::DepthMode::Early,
            });
        }
        scene
    })
}

fn arb_schedule() -> impl Strategy<Value = ScheduleConfig> {
    (
        proptest::sample::select(QuadGrouping::ALL.to_vec()),
        prop_oneof![
            Just(TileOrder::Scanline),
            Just(TileOrder::SOrder),
            Just(TileOrder::ZOrder),
            Just(TileOrder::HILBERT8),
        ],
        prop_oneof![
            Just(AssignMode::Const),
            Just(AssignMode::Flip1),
            Just(AssignMode::Flip2),
            Just(AssignMode::Flip3),
        ],
    )
        .prop_map(|(grouping, order, assignment)| ScheduleConfig {
            grouping,
            order,
            assignment,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any scene under any schedule simulates without panicking and
    /// preserves the cross-stage invariants.
    #[test]
    fn pipeline_invariants(scene in arb_scene(12), sched in arb_schedule()) {
        prop_assume!(scene.validate().is_ok());
        let r = FrameSim::try_run(&scene, &sched, &PipelineConfig::default(), 128, 128).unwrap();
        let rasterized: u64 = r.tiles.iter()
            .map(|t| t.quads_rasterized.iter().map(|&q| u64::from(q)).sum::<u64>())
            .sum();
        prop_assert!(r.total_quads_shaded() <= rasterized);
        prop_assert_eq!(r.shader.quads, r.total_quads_shaded());
        prop_assert_eq!(r.hierarchy.l1_misses(), r.hierarchy.l2.accesses);
        prop_assert!(r.total_cycles(BarrierMode::Decoupled) <= r.total_cycles(BarrierMode::Coupled));
    }

    /// The functional outcome (shaded quads, texture traffic) depends
    /// on the grouping only through the partition, not on the tile
    /// order or assignment: total shaded quads are schedule-invariant.
    #[test]
    fn shaded_quads_schedule_invariant(scene in arb_scene(10), a in arb_schedule(), b in arb_schedule()) {
        prop_assume!(scene.validate().is_ok());
        let cfg = PipelineConfig::default();
        let ra = FrameSim::try_run(&scene, &a, &cfg, 128, 128).unwrap();
        let rb = FrameSim::try_run(&scene, &b, &cfg, 128, 128).unwrap();
        prop_assert_eq!(ra.total_quads_shaded(), rb.total_quads_shaded());
        prop_assert_eq!(ra.shader.tex_instructions, rb.shader.tex_instructions);
    }

    /// Simulation is a pure function of (scene, schedule, config).
    #[test]
    fn determinism(scene in arb_scene(8), sched in arb_schedule()) {
        prop_assume!(scene.validate().is_ok());
        let cfg = PipelineConfig::default();
        let a = FrameSim::try_run(&scene, &sched, &cfg, 128, 128).unwrap();
        let b = FrameSim::try_run(&scene, &sched, &cfg, 128, 128).unwrap();
        prop_assert_eq!(a.total_cycles(BarrierMode::Coupled), b.total_cycles(BarrierMode::Coupled));
        prop_assert_eq!(a.total_l2_accesses(), b.total_l2_accesses());
        prop_assert_eq!(a.hierarchy, b.hierarchy);
    }

    /// Opaque-only scenes drawn front-to-back (increasing z in draw
    /// order ⇒ our generator's z is per-draw) never shade more quads
    /// than the same scene with early-Z-defeating transparency.
    #[test]
    fn transparency_never_reduces_work(scene in arb_scene(10)) {
        prop_assume!(scene.validate().is_ok());
        let cfg = PipelineConfig::default();
        let sched = ScheduleConfig::baseline();
        let opaque_scene = {
            let mut s = scene.clone();
            for d in &mut s.draws { d.opaque = true; }
            s
        };
        let blended_scene = {
            let mut s = scene;
            for d in &mut s.draws { d.opaque = false; }
            s
        };
        let o = FrameSim::try_run(&opaque_scene, &sched, &cfg, 128, 128).unwrap();
        let b = FrameSim::try_run(&blended_scene, &sched, &cfg, 128, 128).unwrap();
        prop_assert!(o.total_quads_shaded() <= b.total_quads_shaded());
    }
}
