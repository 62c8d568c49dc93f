//! Workload characterization (§IV-B).
//!
//! The paper characterizes its benchmark suite by texture footprint and
//! notes that "the reuse of texture memory blocks also varies greatly
//! across different games". This module measures those properties of
//! the synthetic stand-ins from an actual baseline simulation.

use crate::sim::{SimConfig, Simulator};
use dtexl_scene::{Game, SceneSpec};

/// Measured characteristics of one workload under the baseline
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// The benchmark.
    pub game: Game,
    /// Texture allocation in MiB (Table I's "texture footprint").
    pub footprint_mib: f64,
    /// Draw commands per frame.
    pub draws: usize,
    /// Triangles per frame.
    pub triangles: u32,
    /// Quads emitted by the rasterizer (pre early-Z).
    pub quads_rasterized: u64,
    /// Quads shaded (post early-Z).
    pub quads_shaded: u64,
    /// Average depth complexity: rasterized fragments per screen pixel.
    pub overdraw_factor: f64,
    /// Texture cache-line requests issued by the shader cores.
    pub texture_requests: u64,
    /// Distinct texture lines touched (compulsory-miss floor).
    pub distinct_lines: u64,
    /// Requests per distinct line — the paper's "reuse of texture
    /// memory blocks".
    pub reuse_factor: f64,
    /// Baseline frames per second at 600 MHz.
    pub baseline_fps: f64,
}

/// Measure `game` at `width × height` (baseline schedule, coupled
/// barriers).
///
/// # Panics
///
/// Panics if the resolution is zero.
#[must_use]
pub fn characterize(game: Game, width: u32, height: u32, frame: u32) -> WorkloadProfile {
    let scene = game.scene(&SceneSpec::new(width, height, frame));
    let config = SimConfig {
        frame,
        ..SimConfig::baseline(game).with_resolution(width, height)
    };
    let report = Simulator::simulate_scene(&scene, &config);
    let r = &report.frame;
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
    WorkloadProfile {
        game,
        footprint_mib: scene.texture_footprint_bytes() as f64 / (1024.0 * 1024.0),
        draws: scene.draws.len(),
        triangles: scene.triangle_count(),
        quads_rasterized: rasterized,
        quads_shaded: r.total_quads_shaded(),
        overdraw_factor: rasterized as f64 * 4.0 / f64::from(width * height),
        texture_requests: r.hierarchy.l1_accesses(),
        distinct_lines: r.hierarchy.distinct_lines,
        reuse_factor: r.hierarchy.reuse_factor(),
        baseline_fps: report.fps,
    }
}

/// Characterize every Table I game.
#[must_use]
pub fn characterize_all(width: u32, height: u32, frame: u32) -> Vec<WorkloadProfile> {
    Game::ALL
        .iter()
        .map(|&g| characterize(g, width, height, frame))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_is_internally_consistent() {
        let p = characterize(Game::GravityTetris, 256, 128, 0);
        assert!(p.quads_shaded <= p.quads_rasterized);
        assert!(p.overdraw_factor > 1.0, "layered scenes overdraw");
        assert!(p.reuse_factor > 1.0, "texture lines are reused");
        assert!(p.distinct_lines <= p.texture_requests);
        assert!(p.baseline_fps > 0.0);
        assert!((0.3..1.5).contains(&p.footprint_mib));
    }

    #[test]
    fn reuse_varies_greatly_across_games() {
        // §IV-B: "the reuse of texture memory blocks also varies
        // greatly across different games".
        let small = characterize(Game::ShootWar, 256, 128, 0);
        let large = characterize(Game::RiseOfKingdoms, 256, 128, 0);
        let ratio = small.reuse_factor / large.reuse_factor;
        assert!(
            !(0.67..=1.5).contains(&ratio),
            "reuse factors too similar: {} vs {}",
            small.reuse_factor,
            large.reuse_factor
        );
    }
}
