//! The ten benchmark games of Table I, as synthetic generators.

use crate::gen::{self, GenParams};
use crate::scene::{Scene, SceneSpec};

/// Game genre (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Genre {
    /// Match-three and falling-block puzzles.
    Puzzle,
    /// Endless runners and mazes.
    Arcade,
    /// First/third-person shooters.
    Shooter,
    /// Driving games.
    Racing,
    /// Base-building strategy.
    Strategy,
}

/// Static description of a benchmark (the Table I row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameInfo {
    /// Full title.
    pub title: &'static str,
    /// Paper alias (e.g. `"CCS"`).
    pub alias: &'static str,
    /// Play-store installs in millions (popularity proxy).
    pub installs_millions: u32,
    /// Genre.
    pub genre: Genre,
    /// Whether the game renders a 3-D scene (else layered 2-D).
    pub is_3d: bool,
    /// Texture footprint in MiB that the generator targets.
    pub texture_footprint_mib: f64,
}

/// The ten benchmark games (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Game {
    /// Candy Crush Saga — 2D puzzle, 2.4 MiB textures.
    CandyCrush,
    /// Sonic Dash — 3D arcade runner, 1.4 MiB.
    SonicDash,
    /// Temple Run — 3D arcade runner, 0.4 MiB.
    TempleRun,
    /// Shoot Strike War Fire — 3D shooter, 0.2 MiB.
    ShootWar,
    /// City Racing 3D — 3D racing, 2.8 MiB.
    CityRacing,
    /// Rise of Kingdoms — 2D strategy, 6.8 MiB.
    RiseOfKingdoms,
    /// Derby Destruction Simulator — 3D racing, 1.4 MiB.
    DerbyDestruction,
    /// Sniper 3D — 3D shooter, 1.8 MiB.
    Sniper3d,
    /// 3D Maze 2 — 3D arcade, 2.4 MiB.
    Maze,
    /// Gravitytetris — 3D puzzle, 0.7 MiB.
    GravityTetris,
}

impl Game {
    /// All ten games in Table I order.
    pub const ALL: [Self; 10] = [
        Self::CandyCrush,
        Self::SonicDash,
        Self::TempleRun,
        Self::ShootWar,
        Self::CityRacing,
        Self::RiseOfKingdoms,
        Self::DerbyDestruction,
        Self::Sniper3d,
        Self::Maze,
        Self::GravityTetris,
    ];

    /// Table I metadata.
    #[must_use]
    pub fn info(&self) -> GameInfo {
        match self {
            Self::CandyCrush => GameInfo {
                title: "Candy Crush Saga",
                alias: "CCS",
                installs_millions: 1000,
                genre: Genre::Puzzle,
                is_3d: false,
                texture_footprint_mib: 2.4,
            },
            Self::SonicDash => GameInfo {
                title: "Sonic Dash",
                alias: "SoD",
                installs_millions: 100,
                genre: Genre::Arcade,
                is_3d: true,
                texture_footprint_mib: 1.4,
            },
            Self::TempleRun => GameInfo {
                title: "Temple Run",
                alias: "TRu",
                installs_millions: 500,
                genre: Genre::Arcade,
                is_3d: true,
                texture_footprint_mib: 0.4,
            },
            Self::ShootWar => GameInfo {
                title: "Shoot Strike War Fire",
                alias: "SWa",
                installs_millions: 10,
                genre: Genre::Shooter,
                is_3d: true,
                texture_footprint_mib: 0.2,
            },
            Self::CityRacing => GameInfo {
                title: "City Racing 3D",
                alias: "CRa",
                installs_millions: 50,
                genre: Genre::Racing,
                is_3d: true,
                texture_footprint_mib: 2.8,
            },
            Self::RiseOfKingdoms => GameInfo {
                title: "Rise of Kingdoms: Lost Crusade",
                alias: "RoK",
                installs_millions: 10,
                genre: Genre::Strategy,
                is_3d: false,
                texture_footprint_mib: 6.8,
            },
            Self::DerbyDestruction => GameInfo {
                title: "Derby Destruction Simulator",
                alias: "DDS",
                installs_millions: 10,
                genre: Genre::Racing,
                is_3d: true,
                texture_footprint_mib: 1.4,
            },
            Self::Sniper3d => GameInfo {
                title: "Sniper 3D",
                alias: "Snp",
                installs_millions: 500,
                genre: Genre::Shooter,
                is_3d: true,
                texture_footprint_mib: 1.8,
            },
            Self::Maze => GameInfo {
                title: "3D Maze 2: Diamonds & Ghosts",
                alias: "Mze",
                installs_millions: 10,
                genre: Genre::Arcade,
                is_3d: true,
                texture_footprint_mib: 2.4,
            },
            Self::GravityTetris => GameInfo {
                title: "Gravitytetris",
                alias: "GTr",
                installs_millions: 5,
                genre: Genre::Puzzle,
                is_3d: true,
                texture_footprint_mib: 0.7,
            },
        }
    }

    /// Paper alias (`"CCS"`, `"GTr"`, …).
    #[must_use]
    pub fn alias(&self) -> &'static str {
        self.info().alias
    }

    /// Deterministic per-game RNG seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        // Stable across runs; derived from the alias bytes.
        self.alias().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Generator tuning for this game (scene structure knobs beyond the
    /// Table I metadata).
    #[must_use]
    pub(crate) fn gen_params(&self) -> GenParams {
        let info = self.info();
        let base = GenParams::for_info(&info);
        match self {
            // CCS: big board of candy sprites + heavy effect bursts.
            Self::CandyCrush => GenParams {
                sprite_cells: 9,
                overdraw_layers: 3,
                heavy_fraction: 0.25,
                transparent_fraction: 0.45,
                texel_density: 1.5,
                uv_rotation_fraction: 0.65,
                ..base
            },
            // RoK: dense 2D map with many UI layers and big textures.
            Self::RiseOfKingdoms => GenParams {
                sprite_cells: 12,
                overdraw_layers: 4,
                heavy_fraction: 0.15,
                transparent_fraction: 0.35,
                texture_reuse: 0.6,
                texel_density: 1.5,
                uv_rotation_fraction: 0.65,
                ..base
            },
            // TRu: narrow corridor, few small textures, strong overdraw
            // clustering (the paper's worst imbalance case in Fig. 14).
            Self::TempleRun => GenParams {
                ground_rows: 10,
                prop_count: 70,
                hotspot_strength: 3.0,
                heavy_fraction: 0.35,
                ..base
            },
            // SWa: tiny texture set → everything fits in L1s.
            Self::ShootWar => GenParams {
                ground_rows: 6,
                prop_count: 40,
                heavy_fraction: 0.1,
                ..base
            },
            // CRa: road + buildings, big texture set.
            Self::CityRacing => GenParams {
                ground_rows: 12,
                prop_count: 90,
                hotspot_strength: 2.0,
                ..base
            },
            // DDS: arena racing, mid-size textures.
            Self::DerbyDestruction => GenParams {
                ground_rows: 10,
                prop_count: 60,
                heavy_fraction: 0.3,
                ..base
            },
            // Snp: scope overlays → transparent full-screen layers.
            Self::Sniper3d => GenParams {
                ground_rows: 8,
                prop_count: 50,
                transparent_fraction: 0.4,
                overdraw_layers: 3,
                ..base
            },
            // Mze: corridors with repeated wall textures.
            Self::Maze => GenParams {
                ground_rows: 9,
                prop_count: 80,
                texture_reuse: 0.7,
                ..base
            },
            // GTr: falling blocks over a background — the paper's best
            // DTexL speedup (≈1.4×): high reuse, mid overdraw.
            Self::GravityTetris => GenParams {
                ground_rows: 6,
                prop_count: 160,
                texture_reuse: 0.8,
                heavy_fraction: 0.15,
                overdraw_layers: 2,
                // Dense 1:1 texel mapping, few rotated mappings and
                // texture-dominated materials: maximum inter-quad
                // sharing → DTexL's best case.
                texel_density: 1.0,
                uv_rotation_fraction: 0.2,
                texture_rich_fraction: 0.8,
                ..base
            },
            // SoD: default runner tuning.
            Self::SonicDash => base,
        }
    }

    /// Generate the frame described by `spec` for this game.
    ///
    /// Deterministic: the same `(game, spec)` always yields the same
    /// scene.
    #[must_use]
    pub fn scene(&self, spec: &SceneSpec) -> Scene {
        gen::generate(*self, spec)
    }
}

impl std::fmt::Display for Game {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.alias())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_complete() {
        assert_eq!(Game::ALL.len(), 10);
        let total: f64 = Game::ALL
            .iter()
            .map(|g| g.info().texture_footprint_mib)
            .sum();
        assert!((total - 20.3).abs() < 1e-9, "Table I sums to 20.3 MiB");
        assert_eq!(Game::RiseOfKingdoms.info().texture_footprint_mib, 6.8);
        assert_eq!(Game::ShootWar.info().texture_footprint_mib, 0.2);
    }

    #[test]
    fn aliases_unique() {
        let mut aliases: Vec<_> = Game::ALL.iter().map(Game::alias).collect();
        aliases.sort_unstable();
        aliases.dedup();
        assert_eq!(aliases.len(), 10);
    }

    #[test]
    fn seeds_unique_and_stable() {
        let seeds: std::collections::HashSet<_> = Game::ALL.iter().map(Game::seed).collect();
        assert_eq!(seeds.len(), 10);
        assert_eq!(Game::CandyCrush.seed(), Game::CandyCrush.seed());
    }

    #[test]
    fn dimensionality_matches_table1() {
        assert!(!Game::CandyCrush.info().is_3d);
        assert!(!Game::RiseOfKingdoms.info().is_3d);
        for g in Game::ALL {
            if g != Game::CandyCrush && g != Game::RiseOfKingdoms {
                assert!(g.info().is_3d, "{} should be 3D", g.alias());
            }
        }
    }

    #[test]
    fn display_uses_alias() {
        assert_eq!(Game::GravityTetris.to_string(), "GTr");
    }

    #[test]
    fn genre_drives_scene_structure() {
        use crate::scene::SceneSpec;
        let spec = SceneSpec::new(512, 256, 0);
        // The big-map strategy game carries more texture assets than
        // the tiny-footprint shooter.
        let rok = Game::RiseOfKingdoms.scene(&spec);
        let swa = Game::ShootWar.scene(&spec);
        assert!(
            rok.textures.len() > swa.textures.len(),
            "RoK {} vs SWa {}",
            rok.textures.len(),
            swa.textures.len()
        );
        // 2D games are sprite boards: every vertex sits at z > 0 planes
        // under the orthographic transform (negative view z).
        let ccs = Game::CandyCrush.scene(&spec);
        assert!(ccs.vertices.iter().all(|v| v.pos.z < 0.0));
        // 3D games include ground geometry on the y = 0 plane.
        let sod = Game::SonicDash.scene(&spec);
        assert!(sod.vertices.iter().any(|v| v.pos.y == 0.0));
    }

    #[test]
    fn hotspot_band_concentrates_draws_2d() {
        use crate::scene::SceneSpec;
        // The §V-A overdraw clustering: the 2D hotspot band (y in
        // [0.55h, 0.85h]) receives disproportionally many draw centers.
        let (w, h) = (512.0f32, 256.0f32);
        let scene = Game::CandyCrush.scene(&SceneSpec::new(w as u32, h as u32, 0));
        let mut band = 0usize;
        let mut total = 0usize;
        for d in &scene.draws {
            // Centroid of the draw's vertices.
            let verts = &scene.vertices
                [d.first_vertex as usize..(d.first_vertex + d.vertex_count) as usize];
            let cy = verts.iter().map(|v| v.pos.y).sum::<f32>() / verts.len() as f32;
            let cw = verts.iter().map(|v| v.pos.x).fold(f32::MAX, f32::min);
            if cw > w {
                continue; // skip anything odd
            }
            total += 1;
            if cy > h * 0.5 && cy < h * 0.9 {
                band += 1;
            }
        }
        let frac = band as f64 / total as f64;
        assert!(
            frac > 0.45,
            "hotspot band holds {frac:.2} of draws; band height is only 0.4 of the screen"
        );
    }
}
