//! Functional rendering: produce the actual output image of a frame.
//!
//! This is the correctness backbone of the reproduction: the paper's
//! schedulers reorder work "without violating the correctness of the
//! pipeline", so the rendered image must be **bit-identical** for every
//! quad grouping, tile order, subtile assignment and barrier mode. The
//! renderer processes quads exactly as the hardware would — per tile in
//! schedule order, per subtile in its shader core's stream order — and
//! relies on the same property the hardware does: subtiles partition
//! the tile's pixels, so per-bank in-order blending is globally
//! in-order per pixel.

use crate::config::PipelineConfig;
use crate::geometry::GeometryPipeline;
use crate::prefix::SlotTable;
use crate::prim::Quad;
use crate::raster::Rasterizer;
use crate::tiling::TilingEngine;
use crate::zbuffer::ZBuffer;
use dtexl_gmath::Rect;
use dtexl_scene::Scene;
use dtexl_sched::{ScheduleConfig, TileSchedule};
use dtexl_texture::Sampler;

/// An RGBA8 output image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: u32,
    height: u32,
    pixels: Vec<[u8; 4]>,
}

impl Image {
    /// A black, opaque image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0);
        Self {
            width,
            height,
            pixels: vec![[0, 0, 0, 255]; (width * height) as usize],
        }
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn pixel(&self, x: u32, y: u32) -> [u8; 4] {
        assert!(x < self.width && y < self.height);
        self.pixels[(y * self.width + x) as usize]
    }

    fn pixel_mut(&mut self, x: u32, y: u32) -> &mut [u8; 4] {
        &mut self.pixels[(y * self.width + x) as usize]
    }

    /// A 64-bit content digest (FNV over the pixel bytes); equal images
    /// have equal digests.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in &self.pixels {
            for &b in p {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Serialize as a binary PPM (P6) file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_ppm<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "P6\n{} {}\n255", self.width, self.height)?;
        for p in &self.pixels {
            w.write_all(&p[..3])?;
        }
        Ok(())
    }
}

/// The functional renderer.
#[derive(Debug)]
pub struct Renderer;

impl Renderer {
    /// Render `scene` at `width × height` using the given schedule.
    ///
    /// The schedule affects only the *processing order*; the output
    /// image is invariant — which is exactly what the invariance tests
    /// assert.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations or scenes (see
    /// [`PipelineConfig::validate`] and [`Scene::validate`]).
    #[must_use]
    pub fn render(
        scene: &Scene,
        schedule: &ScheduleConfig,
        config: &PipelineConfig,
        width: u32,
        height: u32,
    ) -> Image {
        // lint: allow(no-panic) -- documented panicking debug renderer; simulation paths use the try_ APIs
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        scene
            .validate()
            // lint: allow(no-panic) -- documented panicking debug renderer; simulation paths use the try_ APIs
            .unwrap_or_else(|e| panic!("invalid scene: {e}"));

        let mut geom = GeometryPipeline::new(config.vertex_cache);
        let gout = geom.run(scene, width, height);
        let mut tiling = TilingEngine::new(config.tile_cache, config.tile_size);
        let bins = tiling.bin(&gout.prims, width, height);
        let tsched = TileSchedule::build(schedule, bins.tiles_w(), bins.tiles_h());
        let raster = Rasterizer::new(config.tile_size);
        let mut zbuf = ZBuffer::new(config.tile_size);
        let screen = Rect::new(0, 0, width as i32, height as i32);
        let slots = SlotTable::new(schedule.grouping, config.quads_per_side());

        let mut image = Image::new(width, height);
        let mut tile_quads: Vec<Quad> = Vec::new();
        let mut per_sc: [Vec<Quad>; 4] = Default::default();

        for (_, (tx, ty), assign) in tsched.iter() {
            let tile_px = (tx * config.tile_size) as i32;
            let tile_py = (ty * config.tile_size) as i32;
            tile_quads.clear();
            for &pi in bins.list(tx, ty) {
                raster.rasterize_into(
                    &gout.prims[pi as usize],
                    tile_px,
                    tile_py,
                    screen,
                    &mut tile_quads,
                );
            }
            // Depth resolve in submission order (the hardware's early/
            // late Z stages preserve it), then partition into per-bank
            // streams.
            zbuf.clear();
            for q in per_sc.iter_mut() {
                q.clear();
            }
            for q in &tile_quads {
                let surviving = zbuf.test_and_update(q);
                let mask = if q.late_z {
                    q.mask & surviving
                } else {
                    surviving
                };
                if mask != 0 {
                    let sc = usize::from(assign[slots.slot(q.qx, q.qy)]);
                    let mut alive = q.clone();
                    alive.mask = mask;
                    per_sc[sc].push(alive);
                }
            }
            // Each bank blends its own stream; the streams touch
            // disjoint pixels, so any interleaving yields the same
            // image.
            for stream in &per_sc {
                for q in stream {
                    blend_quad(&mut image, q, scene, tile_px, tile_py);
                }
            }
        }
        image
    }
}

/// Shade and blend one quad's live fragments into the image.
fn blend_quad(image: &mut Image, q: &Quad, scene: &Scene, tile_px: i32, tile_py: i32) {
    // lint: allow(no-panic) -- scene.validate() above guarantees every quad's texture id resolves
    let tex = scene.texture(q.texture).expect("validated scene");
    let sampler = Sampler::new(q.shader.filter);
    // Per-quad LOD from the UV footprint, as the texture unit computes.
    let lod = sampler.lod(tex, q.uv);

    for (i, (dx, dy)) in [(0u32, 0u32), (1, 0), (0, 1), (1, 1)].iter().enumerate() {
        if q.mask & (1 << i) == 0 {
            continue;
        }
        let px = tile_px + (q.qx * 2 + dx) as i32;
        let py = tile_py + (q.qy * 2 + dy) as i32;
        if px < 0 || py < 0 || px as u32 >= image.width() || py as u32 >= image.height() {
            continue;
        }
        let c = sampler.sample_color(tex, q.uv[i], lod);
        let dst = image.pixel_mut(px as u32, py as u32);
        if q.opaque {
            for ch in 0..3 {
                dst[ch] = (c[ch] * 255.0) as u8;
            }
            dst[3] = 255;
        } else {
            // Source-over with the texture's alpha.
            let a = c[3];
            for ch in 0..3 {
                let src = c[ch] * 255.0;
                let d = f32::from(dst[ch]);
                dst[ch] = (src * a + d * (1.0 - a)).clamp(0.0, 255.0) as u8;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtexl_scene::{Game, SceneSpec};
    use dtexl_sched::NamedMapping;

    const W: u32 = 160;
    const H: u32 = 96;

    fn render(game: Game, schedule: &ScheduleConfig) -> Image {
        let scene = game.scene(&SceneSpec::new(W, H, 0));
        Renderer::render(&scene, schedule, &PipelineConfig::default(), W, H)
    }

    #[test]
    fn renders_nonblack_content() {
        let img = render(Game::CandyCrush, &ScheduleConfig::baseline());
        let lit = (0..H)
            .flat_map(|y| (0..W).map(move |x| (x, y)))
            .filter(|&(x, y)| img.pixel(x, y)[..3] != [0, 0, 0])
            .count();
        assert!(
            lit > (W * H) as usize / 2,
            "most of the screen is drawn, got {lit}"
        );
    }

    #[test]
    fn image_is_schedule_invariant() {
        // The paper's correctness requirement: scheduling must not
        // change the output.
        let reference = render(Game::SonicDash, &ScheduleConfig::baseline());
        for mapping in NamedMapping::FIG16 {
            let img = render(Game::SonicDash, &mapping.config());
            assert_eq!(
                img.digest(),
                reference.digest(),
                "{} changed the rendered image",
                mapping.name()
            );
        }
    }

    #[test]
    fn different_games_render_differently() {
        let a = render(Game::CandyCrush, &ScheduleConfig::baseline());
        let b = render(Game::Maze, &ScheduleConfig::baseline());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn ppm_roundtrip_header() {
        let img = Image::new(4, 2);
        let mut buf = Vec::new();
        img.write_ppm(&mut buf).unwrap();
        assert!(buf.starts_with(b"P6\n4 2\n255\n"));
        assert_eq!(buf.len(), "P6\n4 2\n255\n".len() + 4 * 2 * 3);
    }

    #[test]
    fn digest_detects_single_pixel_change() {
        let mut a = Image::new(8, 8);
        let d0 = a.digest();
        a.pixel_mut(3, 3)[0] = 7;
        assert_ne!(a.digest(), d0);
    }

    #[test]
    fn opaque_overwrite_and_blend_differ() {
        // A scene with a transparent layer must differ from the same
        // scene drawn opaque.
        let mut scene = Game::CandyCrush.scene(&SceneSpec::new(W, H, 0));
        let transparent = Renderer::render(
            &scene,
            &ScheduleConfig::baseline(),
            &PipelineConfig::default(),
            W,
            H,
        );
        for d in &mut scene.draws {
            d.opaque = true;
        }
        let opaque = Renderer::render(
            &scene,
            &ScheduleConfig::baseline(),
            &PipelineConfig::default(),
            W,
            H,
        );
        assert_ne!(transparent.digest(), opaque.digest());
    }
}
