//! Text rendering of experiment results.

use crate::metrics::Table;
use crate::sim::CLOCK_HZ;
use dtexl_pipeline::PipelineConfig;

/// Render Table II (the simulation parameters actually in force).
#[must_use]
pub fn table2_text(config: &PipelineConfig) -> String {
    let h = config.hierarchy;
    format!(
        "== table2 — GPU simulation parameters ==\n\
         Tech Specs            {:.0} MHz\n\
         Tile Size             {}x{}\n\
         Shader Cores          {} (x{} warp slots)\n\
         Main Memory Latency   {}-{} cycles\n\
         Vertex Cache          {} KiB, {}-way, {} cycle\n\
         Texture Caches ({}x)   {} KiB, {}-way, {} cycle\n\
         Tile Cache            {} KiB, {}-way, {} cycle\n\
         L2 Cache              {} KiB, {}-way, {} cycles\n",
        CLOCK_HZ / 1e6,
        config.tile_size,
        config.tile_size,
        config.num_sc,
        config.warp_slots,
        h.dram.min_latency,
        h.dram.max_latency,
        config.vertex_cache.size_bytes / 1024,
        config.vertex_cache.ways,
        config.vertex_cache.latency,
        config.num_sc,
        h.l1.size_bytes / 1024,
        h.l1.ways,
        h.l1.latency,
        config.tile_cache.size_bytes / 1024,
        config.tile_cache.ways,
        config.tile_cache.latency,
        h.l2.size_bytes / 1024,
        h.l2.ways,
        h.l2.latency,
    )
}

/// Render an ASCII heatmap of per-tile SC execution-time imbalance:
/// one character per tile, darker = more imbalanced. Makes the spatial
/// structure of the overdraw clustering (and hence of the CG
/// grouping's pain) visible at a glance.
#[must_use]
pub fn tile_imbalance_heatmap(result: &dtexl_pipeline::FrameResult) -> String {
    const RAMP: [char; 6] = [' ', '░', '▒', '▓', '█', '█'];
    let (mut max_x, mut max_y) = (0u32, 0u32);
    for t in &result.tiles {
        max_x = max_x.max(t.tile.0);
        max_y = max_y.max(t.tile.1);
    }
    let w = (max_x + 1) as usize;
    let mut grid = vec![vec![' '; w]; (max_y + 1) as usize];
    for t in &result.tiles {
        let v: [f64; 4] = t.frag_cycles.map(|c| c as f64);
        let mean = v.iter().sum::<f64>() / 4.0;
        let c = if mean <= 0.0 {
            '·'
        } else {
            let dev = v.iter().map(|x| (x - mean).abs()).sum::<f64>() / 4.0 / mean;
            // 0% → ' ', ≥50% → '█'
            RAMP[((dev * 10.0) as usize).min(RAMP.len() - 1)]
        };
        grid[t.tile.1 as usize][t.tile.0 as usize] = c;
    }
    let mut out = String::with_capacity((w + 3) * grid.len());
    out.push_str("per-tile SC time imbalance ('·' empty, ' '→'█' = 0%→50%+):\n");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push_str("|\n");
    }
    out
}

/// Render a full report from a set of result tables.
#[must_use]
pub fn render_all(tables: &[Table]) -> String {
    let mut out = String::new();
    out.push_str(&table2_text(&PipelineConfig::default()));
    out.push('\n');
    for t in tables {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_table_ii_values() {
        let s = table2_text(&PipelineConfig::default());
        assert!(s.contains("600 MHz"));
        assert!(s.contains("32x32"));
        assert!(s.contains("50-100 cycles"));
        assert!(s.contains("16 KiB, 4-way"));
        assert!(s.contains("1024 KiB, 8-way, 12 cycles"));
    }

    #[test]
    fn heatmap_has_one_row_per_tile_row() {
        use dtexl_pipeline::FrameSim;
        use dtexl_scene::{Game, SceneSpec};
        use dtexl_sched::ScheduleConfig;
        let scene = Game::GravityTetris.scene(&SceneSpec::new(256, 128, 0));
        let r = FrameSim::try_run(
            &scene,
            &ScheduleConfig::dtexl(),
            &PipelineConfig::default(),
            256,
            128,
        )
        .unwrap();
        let map = tile_imbalance_heatmap(&r);
        // 256×128 at 32px tiles → 8×4 tiles → 4 map rows + header.
        assert_eq!(map.lines().count(), 5);
        assert!(map.lines().nth(1).unwrap().len() >= 10);
    }

    #[test]
    fn render_all_concatenates() {
        let mut t = Table::new("figX", "demo", vec!["v".into()]);
        t.push_row("CCS", vec![1.0]);
        let s = render_all(&[t]);
        assert!(s.contains("table2"));
        assert!(s.contains("figX"));
    }
}
