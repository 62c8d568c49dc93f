//! The tiling engine: polygon list builder, parameter buffer and tile
//! fetcher cost model.

use crate::prim::RasterPrim;
use dtexl_gmath::Rect;
use dtexl_mem::{line_of, CacheConfig, CacheStats, SetAssocCache};
use dtexl_scene::PARAMETER_BUFFER_BASE_ADDR;

/// Bytes one primitive-ID entry occupies in a per-tile list.
const ENTRY_BYTES: u64 = 4;
/// Bytes the shared attribute record of one primitive occupies in the
/// parameter buffer (positions, depths, UVs, state).
const ATTR_BYTES: u64 = 96;

/// Statistics of the tiling engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TilingStats {
    /// Total (tile, primitive) pairs binned.
    pub entries: u64,
    /// Tile-cache behavior (parameter-buffer traffic).
    pub tile_cache: CacheStats,
    /// Cycles spent building the polygon lists.
    pub build_cycles: u64,
}

/// Per-tile primitive lists (the per-frame parameter buffer contents).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileBins {
    tiles_w: u32,
    tiles_h: u32,
    /// `lists[ty * tiles_w + tx]` = indices into the primitive array.
    lists: Vec<Vec<u32>>,
    /// Engine statistics.
    pub stats: TilingStats,
}

impl TileBins {
    /// Frame width in tiles.
    #[must_use]
    pub fn tiles_w(&self) -> u32 {
        self.tiles_w
    }

    /// Frame height in tiles.
    #[must_use]
    pub fn tiles_h(&self) -> u32 {
        self.tiles_h
    }

    /// Primitive indices overlapping tile `(tx, ty)`, in program order.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn list(&self, tx: u32, ty: u32) -> &[u32] {
        assert!(tx < self.tiles_w && ty < self.tiles_h);
        &self.lists[(ty * self.tiles_w + tx) as usize]
    }

    /// Total binned entries.
    #[must_use]
    pub fn total_entries(&self) -> u64 {
        self.stats.entries
    }
}

/// The tiling engine (Polygon List Builder + Tile Fetcher cost model).
#[derive(Debug)]
pub struct TilingEngine {
    tile_cache: SetAssocCache,
    tile_size: u32,
}

impl TilingEngine {
    /// Create the engine.
    ///
    /// # Panics
    ///
    /// Panics if `tile_size` is zero.
    #[must_use]
    pub fn new(tile_cache: CacheConfig, tile_size: u32) -> Self {
        assert!(tile_size > 0);
        Self {
            tile_cache: SetAssocCache::new(tile_cache),
            tile_size,
        }
    }

    /// Bin `prims` into per-tile lists for a `width × height` frame.
    #[must_use]
    pub fn bin(&mut self, prims: &[RasterPrim], width: u32, height: u32) -> TileBins {
        let ts = self.tile_size;
        let tiles_w = width.div_ceil(ts);
        let tiles_h = height.div_ceil(ts);
        let screen = Rect::new(0, 0, width as i32, height as i32);
        let mut lists = vec![Vec::new(); (tiles_w * tiles_h) as usize];
        let mut entries = 0u64;
        let mut miss_latency = 0u64;
        let mut attr_cursor = PARAMETER_BUFFER_BASE_ADDR;
        let mut entry_cursor = PARAMETER_BUFFER_BASE_ADDR + 0x0100_0000;

        for (i, p) in prims.iter().enumerate() {
            // Write the shared attribute record once per primitive.
            for off in (0..ATTR_BYTES).step_by(64) {
                if !self.tile_cache.access(line_of(attr_cursor + off)).hit {
                    miss_latency += 12;
                }
            }
            attr_cursor += ATTR_BYTES;

            let b = p.bounds(screen);
            if b.is_empty() {
                continue;
            }
            let tx0 = b.x0 as u32 / ts;
            let ty0 = b.y0 as u32 / ts;
            let tx1 = (b.x1 as u32 - 1) / ts;
            let ty1 = (b.y1 as u32 - 1) / ts;
            for ty in ty0..=ty1 {
                for tx in tx0..=tx1 {
                    // Conservative bbox binning, as real polygon list
                    // builders do at this stage.
                    lists[(ty * tiles_w + tx) as usize].push(i as u32);
                    entries += 1;
                    if !self.tile_cache.access(line_of(entry_cursor)).hit {
                        miss_latency += 12;
                    }
                    entry_cursor += ENTRY_BYTES;
                }
            }
        }

        TileBins {
            tiles_w,
            tiles_h,
            lists,
            stats: TilingStats {
                entries,
                tile_cache: self.tile_cache.stats(),
                // One cycle per entry plus amortized miss latency.
                build_cycles: entries + prims.len() as u64 + miss_latency / 4,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtexl_gmath::{Triangle2, Vec2};
    use dtexl_scene::{DepthMode, ShaderProfile};

    fn prim(x0: f32, y0: f32, x1: f32, y1: f32) -> RasterPrim {
        RasterPrim {
            tri: Triangle2::new(Vec2::new(x0, y0), Vec2::new(x1, y0), Vec2::new(x0, y1)),
            z: [0.5; 3],
            w: [1.0; 3],
            uv: [Vec2::ZERO; 3],
            texture: 0,
            shader: ShaderProfile::simple(),
            opaque: true,
            uv_scale: 1.0,
            depth_mode: DepthMode::Early,
            draw_index: 0,
        }
    }

    fn engine() -> TilingEngine {
        TilingEngine::new(CacheConfig::tile_cache(), 32)
    }

    #[test]
    fn single_tile_prim_binned_once() {
        let bins = engine().bin(&[prim(2.0, 2.0, 20.0, 20.0)], 128, 64);
        assert_eq!(bins.tiles_w(), 4);
        assert_eq!(bins.tiles_h(), 2);
        assert_eq!(bins.list(0, 0), &[0]);
        assert_eq!(bins.total_entries(), 1);
        for ty in 0..2 {
            for tx in 0..4 {
                if (tx, ty) != (0, 0) {
                    assert!(bins.list(tx, ty).is_empty());
                }
            }
        }
    }

    #[test]
    fn spanning_prim_lands_in_all_overlapped_tiles() {
        let bins = engine().bin(&[prim(10.0, 10.0, 100.0, 40.0)], 128, 64);
        // bbox covers tiles x 0..3, y 0..1
        assert_eq!(bins.total_entries(), 8);
        assert_eq!(bins.list(3, 1), &[0]);
    }

    #[test]
    fn program_order_preserved_per_tile() {
        let prims = vec![
            prim(0.0, 0.0, 30.0, 30.0),
            prim(5.0, 5.0, 25.0, 25.0),
            prim(1.0, 1.0, 10.0, 10.0),
        ];
        let bins = engine().bin(&prims, 32, 32);
        assert_eq!(bins.list(0, 0), &[0, 1, 2]);
    }

    #[test]
    fn offscreen_prim_not_binned() {
        let bins = engine().bin(&[prim(500.0, 500.0, 600.0, 600.0)], 128, 64);
        assert_eq!(bins.total_entries(), 0);
    }

    #[test]
    fn partial_edge_tiles_work() {
        // 70×40 frame → 3×2 tiles with ragged edges.
        let bins = engine().bin(&[prim(60.0, 30.0, 69.0, 39.0)], 70, 40);
        assert_eq!(bins.tiles_w(), 3);
        assert_eq!(bins.list(2, 1), &[0]);
    }

    #[test]
    fn stats_accumulate() {
        let prims = vec![prim(0.0, 0.0, 64.0, 64.0); 10];
        let bins = engine().bin(&prims, 64, 64);
        assert_eq!(bins.total_entries(), 40, "10 prims × 4 tiles");
        assert!(bins.stats.tile_cache.accesses > 0);
        assert!(bins.stats.build_cycles >= bins.total_entries());
    }
}
