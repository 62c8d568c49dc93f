//! The geometry pipeline: vertex fetch, transform, primitive assembly,
//! trivial clipping and viewport mapping.

use crate::prim::RasterPrim;
use dtexl_gmath::{Rect, Triangle2, Vec2};
use dtexl_mem::{line_of, CacheConfig, CacheStats, DramConfig, DramModel, SetAssocCache};
use dtexl_scene::{Scene, Vertex};

/// Statistics of one geometry-pipeline run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GeometryStats {
    /// Vertices fetched from memory.
    pub vertices: u64,
    /// Triangles assembled (before clipping).
    pub prims_assembled: u64,
    /// Triangles surviving clipping/culling.
    pub prims_emitted: u64,
    /// Vertex-cache behavior.
    pub vertex_cache: CacheStats,
    /// Modeled execution cycles of the whole geometry phase.
    pub cycles: u64,
}

/// Output of the geometry pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GeometryOutput {
    /// Screen-space primitives in program order.
    pub prims: Vec<RasterPrim>,
    /// Run statistics.
    pub stats: GeometryStats,
}

/// The geometry pipeline (Vertex Stage + Primitive Assembly of Fig. 3).
///
/// # Examples
///
/// ```
/// use dtexl_pipeline::GeometryPipeline;
/// use dtexl_scene::{Game, SceneSpec};
/// use dtexl_mem::CacheConfig;
///
/// let scene = Game::CandyCrush.scene(&SceneSpec::new(128, 128, 0));
/// let out = GeometryPipeline::new(CacheConfig::vertex_l1()).run(&scene, 128, 128);
/// assert!(out.stats.prims_emitted > 0);
/// ```
#[derive(Debug)]
pub struct GeometryPipeline {
    vertex_cache: SetAssocCache,
    dram: DramModel,
}

impl GeometryPipeline {
    /// Create the pipeline with the given L1 vertex-cache geometry.
    #[must_use]
    pub fn new(vertex_cache: CacheConfig) -> Self {
        Self {
            vertex_cache: SetAssocCache::new(vertex_cache),
            dram: DramModel::new(DramConfig::default()),
        }
    }

    /// Transform and assemble every draw of `scene` for a
    /// `width × height` viewport.
    #[must_use]
    pub fn run(&mut self, scene: &Scene, width: u32, height: u32) -> GeometryOutput {
        let screen = Rect::new(0, 0, width as i32, height as i32);
        let mut out = GeometryOutput::default();
        let mut miss_latency = 0u64;

        for (draw_index, draw) in scene.draws.iter().enumerate() {
            let mvp = draw.transform;
            let mut tri_clip = Vec::with_capacity(3);
            for local in 0..draw.vertex_count {
                let index = draw.first_vertex + local;
                // Vertex fetch through the L1 vertex cache (a 32-byte
                // vertex spans part of a 64-byte line; sequential
                // vertices share lines).
                let addr = Vertex::address_of(index);
                out.stats.vertices += 1;
                if !self.vertex_cache.access(line_of(addr)).hit {
                    // Miss latency: shared L2 then possibly DRAM; we
                    // charge the L2 latency plus an address-hashed DRAM
                    // latency 1/4 of the time (warm parameter data).
                    miss_latency += 12;
                    if index % 4 == 0 {
                        miss_latency += u64::from(self.dram.request(line_of(addr)));
                    }
                }
                let v = scene.vertices[index as usize];
                let clip = mvp * v.pos.extend(1.0);
                tri_clip.push((clip, v.uv));

                if tri_clip.len() == 3 {
                    out.stats.prims_assembled += 1;
                    if let Some(prim) =
                        assemble(&tri_clip, screen, width, height, draw_index as u32, draw)
                    {
                        out.prims.push(prim);
                        out.stats.prims_emitted += 1;
                    }
                    tri_clip.clear();
                }
            }
        }

        out.stats.vertex_cache = self.vertex_cache.stats();
        // 1 cycle per vertex issue + 1 per assembled primitive, with
        // 4-wide memory-level parallelism on miss latency.
        out.stats.cycles = out.stats.vertices + out.stats.prims_assembled + miss_latency / 4;
        out
    }
}

/// Clip (trivially), project and viewport-map one triangle.
fn assemble(
    tri_clip: &[(dtexl_gmath::Vec4, Vec2)],
    screen: Rect,
    width: u32,
    height: u32,
    draw_index: u32,
    draw: &dtexl_scene::DrawCommand,
) -> Option<RasterPrim> {
    // Trivial near-plane handling: reject triangles not fully in front
    // of the camera. Synthetic scenes never straddle the near plane, so
    // full polygon clipping would only ever see these rejects.
    const MIN_W: f32 = 1e-3;
    if tri_clip.iter().any(|(c, _)| c.w < MIN_W) {
        return None;
    }
    let mut pos = [Vec2::ZERO; 3];
    let mut z = [0f32; 3];
    let mut w = [0f32; 3];
    let mut uv = [Vec2::ZERO; 3];
    for (i, (clip, vuv)) in tri_clip.iter().enumerate() {
        let ndc = clip.project();
        pos[i] = Vec2::new(
            (ndc.x + 1.0) * 0.5 * width as f32,
            (1.0 - ndc.y) * 0.5 * height as f32,
        );
        z[i] = (ndc.z + 1.0) * 0.5;
        w[i] = clip.w;
        uv[i] = *vuv;
    }
    let tri = Triangle2::new(pos[0], pos[1], pos[2]);
    if tri.is_degenerate() {
        return None;
    }
    if tri.pixel_bounds().intersect(&screen).is_empty() {
        return None;
    }
    Some(RasterPrim {
        tri,
        z,
        w,
        uv,
        texture: draw.texture,
        shader: draw.shader,
        opaque: draw.opaque,
        uv_scale: draw.uv_scale,
        depth_mode: draw.depth_mode,
        draw_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtexl_scene::{Game, SceneSpec};

    fn run(game: Game) -> GeometryOutput {
        let scene = game.scene(&SceneSpec::new(320, 180, 0));
        GeometryPipeline::new(CacheConfig::vertex_l1()).run(&scene, 320, 180)
    }

    #[test]
    fn emits_primitives_for_all_games() {
        for game in Game::ALL {
            let out = run(game);
            assert!(out.stats.prims_emitted > 0, "{}", game.alias());
            assert!(out.stats.prims_emitted <= out.stats.prims_assembled);
            assert_eq!(out.prims.len() as u64, out.stats.prims_emitted);
        }
    }

    #[test]
    fn emitted_prims_are_on_screen_and_ordered() {
        let out = run(Game::SonicDash);
        let screen = Rect::new(0, 0, 320, 180);
        let mut last_draw = 0;
        for p in &out.prims {
            assert!(!p.bounds(screen).is_empty());
            assert!(p.draw_index >= last_draw, "program order preserved");
            last_draw = p.draw_index;
            assert!(p.w.iter().all(|&w| w > 0.0));
        }
    }

    #[test]
    fn vertex_cache_sees_traffic_and_locality() {
        let out = run(Game::CandyCrush);
        let s = out.stats.vertex_cache;
        assert_eq!(s.accesses, out.stats.vertices);
        // Two 32-byte vertices per 64-byte line → at least ~40% hits.
        assert!(s.hit_rate() > 0.4, "hit rate {}", s.hit_rate());
    }

    #[test]
    fn cycles_scale_with_work() {
        let small = run(Game::ShootWar);
        assert!(small.stats.cycles >= small.stats.vertices);
    }

    #[test]
    fn fully_behind_camera_scene_emits_nothing() {
        use dtexl_gmath::{Mat4, Vec3};
        use dtexl_scene::{DrawCommand, ShaderProfile, Vertex};
        use dtexl_texture::TextureDesc;
        let scene = Scene {
            textures: vec![TextureDesc::new(0, 64, 64, dtexl_scene::TEXTURE_BASE_ADDR)],
            vertices: vec![
                Vertex::new(Vec3::new(0.0, 0.0, 5.0), Vec2::new(0.0, 0.0)),
                Vertex::new(Vec3::new(1.0, 0.0, 5.0), Vec2::new(1.0, 0.0)),
                Vertex::new(Vec3::new(0.0, 1.0, 5.0), Vec2::new(0.0, 1.0)),
            ],
            draws: vec![DrawCommand {
                first_vertex: 0,
                vertex_count: 3,
                texture: 0,
                shader: ShaderProfile::simple(),
                transform: Mat4::perspective(1.0, 1.0, 0.1, 100.0),
                opaque: true,
                uv_scale: 1.0,
                depth_mode: dtexl_scene::DepthMode::Early,
            }],
        };
        let out = GeometryPipeline::new(CacheConfig::vertex_l1()).run(&scene, 100, 100);
        assert_eq!(out.stats.prims_emitted, 0, "behind the camera");
    }
}
