//! One-call simulation facade.

use crate::lock;
use dtexl_mem::energy::{EnergyBreakdown, EnergyModel};
use dtexl_pipeline::{BarrierMode, FrameResult, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::ScheduleConfig;

/// The modeled GPU clock (Table II: 600 MHz).
pub const CLOCK_HZ: f64 = 600.0e6;

/// Everything needed to simulate one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Which benchmark to run.
    pub game: Game,
    /// Screen width in pixels.
    pub width: u32,
    /// Screen height in pixels.
    pub height: u32,
    /// Frame number (animation phase).
    pub frame: u32,
    /// Quad grouping / tile order / subtile assignment.
    pub schedule: ScheduleConfig,
    /// Hardware parameters.
    pub pipeline: PipelineConfig,
    /// Barrier organization used for the reported frame time.
    pub barrier: BarrierMode,
}

impl SimConfig {
    /// The paper's baseline: FG-xshift2, Z-order, coupled barriers, at
    /// Table II resolution.
    #[must_use]
    pub fn baseline(game: Game) -> Self {
        Self {
            game,
            width: 1960,
            height: 768,
            frame: 0,
            schedule: ScheduleConfig::baseline(),
            pipeline: PipelineConfig::default(),
            barrier: BarrierMode::Coupled,
        }
    }

    /// Full DTexL: CG-square + Hilbert + flp2 with decoupled barriers.
    #[must_use]
    pub fn dtexl(game: Game) -> Self {
        Self {
            schedule: ScheduleConfig::dtexl(),
            barrier: BarrierMode::Decoupled,
            ..Self::baseline(game)
        }
    }

    /// Same configuration at a different resolution (useful for quick
    /// runs and tests).
    #[must_use]
    pub fn with_resolution(mut self, width: u32, height: u32) -> Self {
        self.width = width;
        self.height = height;
        self
    }
}

/// Headline results of one simulated frame, plus the raw
/// [`FrameResult`] for deeper analysis.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The configuration simulated.
    pub config: SimConfig,
    /// Total execution cycles under `config.barrier`.
    pub cycles: u64,
    /// Frames per second at [`CLOCK_HZ`].
    pub fps: f64,
    /// Total L2 accesses.
    pub l2_accesses: u64,
    /// Quads shaded.
    pub quads_shaded: u64,
    /// Energy breakdown for the frame.
    pub energy: EnergyBreakdown,
    /// The full per-tile result.
    pub frame: FrameResult,
}

/// Aggregate results over a sequence of animated frames.
///
/// The paper's FPS numbers average over gameplay; this is the
/// equivalent for the synthetic stand-ins, whose camera/sprites move
/// with the frame index.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceReport {
    /// Per-frame cycle counts.
    pub cycles: Vec<u64>,
    /// Per-frame L2 access counts.
    pub l2_accesses: Vec<u64>,
    /// Per-frame energy in picojoules.
    pub energy_pj: Vec<f64>,
}

impl SequenceReport {
    /// Number of frames simulated.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.cycles.len()
    }

    /// Average frames per second at [`CLOCK_HZ`] (harmonic over
    /// per-frame times, i.e. total frames / total time).
    #[must_use]
    pub fn mean_fps(&self) -> f64 {
        let total: u64 = self.cycles.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.frames() as f64 * CLOCK_HZ / total as f64
        }
    }

    /// Mean L2 accesses per frame.
    #[must_use]
    pub fn mean_l2_accesses(&self) -> f64 {
        if self.l2_accesses.is_empty() {
            0.0
        } else {
            self.l2_accesses.iter().sum::<u64>() as f64 / self.frames() as f64
        }
    }

    /// Total energy over the sequence, in millijoules.
    #[must_use]
    pub fn total_energy_mj(&self) -> f64 {
        self.energy_pj.iter().sum::<f64>() * 1e-9
    }
}

/// The simulator facade.
#[derive(Debug)]
pub struct Simulator;

impl Simulator {
    /// Simulate one frame of `config`'s game.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations (zero resolution, inconsistent
    /// pipeline parameters).
    #[must_use]
    pub fn simulate(config: &SimConfig) -> SimReport {
        let scene = config
            .game
            .scene(&SceneSpec::new(config.width, config.height, config.frame));
        Self::simulate_scene(&scene, config)
    }

    /// Simulate one frame of `scene` under `config`'s schedule and
    /// hardware — the panicking facade over [`FrameSim::try_run`] for
    /// callers that treat malformed input as a programming error. The
    /// `game` field of `config` is ignored, so this also runs
    /// *user-provided* scenes instead of a Table I generator.
    ///
    /// # Panics
    ///
    /// Panics with the [`dtexl_pipeline::SimError`] message if the
    /// scene fails [`dtexl_scene::Scene::validate`], its texture ids are
    /// not dense, or the configuration is invalid.
    #[must_use]
    pub fn simulate_scene(scene: &dtexl_scene::Scene, config: &SimConfig) -> SimReport {
        let frame = FrameSim::try_run(
            scene,
            &config.schedule,
            &config.pipeline,
            config.width,
            config.height,
        )
        // lint: allow(no-panic) -- documented panicking facade over FrameSim::try_run
        .unwrap_or_else(|e| panic!("{e}"));
        let cycles = frame.total_cycles(config.barrier);
        let events = frame.energy_events(config.barrier);
        let energy = EnergyModel::default().evaluate(&events);
        SimReport {
            config: *config,
            cycles,
            fps: CLOCK_HZ / cycles as f64,
            l2_accesses: frame.total_l2_accesses(),
            quads_shaded: frame.total_quads_shaded(),
            energy,
            frame,
        }
    }

    /// Simulate `num_frames` consecutive frames of `config`'s game
    /// (frame indices `config.frame ..`) on up to `workers` threads,
    /// returning per-frame and aggregate metrics. Frames are independent
    /// and the report is assembled in frame order, so the result does
    /// not depend on `workers`.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations, like [`simulate`](Self::simulate).
    #[must_use]
    pub fn simulate_sequence(
        config: &SimConfig,
        num_frames: u32,
        workers: usize,
    ) -> SequenceReport {
        let next = std::sync::atomic::AtomicU32::new(0);
        let rows = std::sync::Mutex::new(Vec::with_capacity(num_frames as usize));
        std::thread::scope(|scope| {
            for _ in 0..workers.max(1).min(num_frames as usize) {
                scope.spawn(|| loop {
                    let f = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if f >= num_frames {
                        break;
                    }
                    let frame_cfg = SimConfig {
                        frame: config.frame + f,
                        ..*config
                    };
                    let r = Self::simulate(&frame_cfg);
                    lock(&rows).push((f, r.cycles, r.l2_accesses, r.energy.total_pj()));
                });
            }
        });
        let mut rows = rows
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rows.sort_unstable_by_key(|row| row.0);
        SequenceReport {
            cycles: rows.iter().map(|row| row.1).collect(),
            l2_accesses: rows.iter().map(|row| row.2).collect(),
            energy_pj: rows.iter().map(|row| row.3).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mut c: SimConfig) -> SimReport {
        c.width = 256;
        c.height = 128;
        Simulator::simulate(&c)
    }

    #[test]
    fn baseline_and_dtexl_run() {
        let b = quick(SimConfig::baseline(Game::GravityTetris));
        let d = quick(SimConfig::dtexl(Game::GravityTetris));
        assert!(b.cycles > 0 && d.cycles > 0);
        assert!(d.l2_accesses < b.l2_accesses);
        assert!(b.fps > 0.0);
        assert!(b.energy.total_pj() > 0.0);
    }

    #[test]
    fn report_consistent_with_frame() {
        let r = quick(SimConfig::baseline(Game::CandyCrush));
        assert_eq!(r.cycles, r.frame.total_cycles(BarrierMode::Coupled));
        assert_eq!(r.l2_accesses, r.frame.total_l2_accesses());
        assert_eq!(r.quads_shaded, r.frame.total_quads_shaded());
    }

    #[test]
    fn custom_scenes_run_through_the_facade() {
        use dtexl_scene::SceneSpec;
        let scene = Game::Maze.scene(&SceneSpec::new(128, 64, 0));
        let cfg = SimConfig::baseline(Game::Maze).with_resolution(128, 64);
        let via_scene = Simulator::simulate_scene(&scene, &cfg);
        let via_game = Simulator::simulate(&cfg);
        assert_eq!(via_scene.cycles, via_game.cycles, "same scene, same result");
    }

    #[test]
    fn sequences_aggregate_and_vary() {
        let cfg = SimConfig::baseline(Game::SonicDash).with_resolution(256, 128);
        let seq = Simulator::simulate_sequence(&cfg, 3, 1);
        assert_eq!(seq.frames(), 3);
        assert!(seq.mean_fps() > 0.0);
        assert!(seq.mean_l2_accesses() > 0.0);
        assert!(seq.total_energy_mj() > 0.0);
        // Animation makes frames differ.
        let distinct: std::collections::HashSet<_> = seq.cycles.iter().collect();
        assert!(distinct.len() > 1, "animated frames should differ");
        // The sequence's first frame equals a single-frame run.
        let single = Simulator::simulate(&cfg);
        assert_eq!(seq.cycles[0], single.cycles);
    }

    #[test]
    fn parallel_sequences_match_serial() {
        let cfg = SimConfig::baseline(Game::SonicDash).with_resolution(256, 128);
        let a = Simulator::simulate_sequence(&cfg, 5, 1);
        let b = Simulator::simulate_sequence(&cfg, 5, 4);
        assert_eq!(a, b, "frame fan-out must not change any metric");
    }

    #[test]
    fn empty_sequence() {
        let cfg = SimConfig::baseline(Game::ShootWar).with_resolution(128, 64);
        let seq = Simulator::simulate_sequence(&cfg, 0, 1);
        assert_eq!(seq.frames(), 0);
        assert_eq!(seq.mean_fps(), 0.0);
        assert_eq!(seq.mean_l2_accesses(), 0.0);
    }

    #[test]
    fn resolution_override() {
        let c = SimConfig::baseline(Game::ShootWar).with_resolution(128, 64);
        assert_eq!((c.width, c.height), (128, 64));
        let r = Simulator::simulate(&c);
        assert_eq!(r.frame.tiles.len(), 4 * 2);
    }
}
