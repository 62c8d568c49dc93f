//! Reproduction of every figure and table in the paper's evaluation
//! (§V), driven by a shared, cached simulation [`Lab`].

use crate::lock;
use crate::metrics::{Distribution, Table};
use crate::sim::CLOCK_HZ;
use crate::sweep::{run_sweep, JobError, SweepJob, SweepOptions, SweepReport};
use dtexl_mem::energy::EnergyModel;
use dtexl_pipeline::{BarrierMode, FrameResult, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::{AssignMode, NamedMapping, QuadGrouping, ScheduleConfig, TileOrder};
// lint: allow(determinism-hash) -- keyed lookup cache and dedup sets only; iteration order is never observed
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Experiment setup: resolution, frame and benchmark set.
#[derive(Debug, Clone, PartialEq)]
pub struct Setup {
    /// Screen width in pixels.
    pub width: u32,
    /// Screen height in pixels.
    pub height: u32,
    /// Animation frame index.
    pub frame: u32,
    /// Benchmarks to evaluate.
    pub games: Vec<Game>,
    /// Worker threads for the simulation fan-out.
    pub threads: usize,
}

impl Setup {
    /// The paper's setup: 1960×768 (Table II) over all ten games.
    #[must_use]
    pub fn table2() -> Self {
        Self {
            width: 1960,
            height: 768,
            frame: 0,
            games: Game::ALL.to_vec(),
            // lint: allow(determinism-env) -- worker count only fans out independent jobs (a 2-worker sweep matches direct runs in tests/obs_rollup.rs)
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
        }
    }

    /// A reduced setup for tests and smoke runs (quarter resolution,
    /// three representative games).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            width: 480,
            height: 192,
            games: vec![Game::CandyCrush, Game::TempleRun, Game::GravityTetris],
            ..Self::table2()
        }
    }
}

type Key = (Game, String, bool);
type Job = (Game, ScheduleConfig, bool);

/// A cached simulation laboratory: runs each `(game, schedule,
/// upper-bound)` combination at most once and shares the
/// [`FrameResult`] across all figures.
///
/// # Examples
///
/// ```
/// use dtexl::experiments::{Lab, Setup};
/// let mut setup = Setup::quick();
/// setup.width = 192; setup.height = 96; // tiny smoke test
/// setup.games.truncate(1);
/// let lab = Lab::new(setup);
/// let fig2 = lab.fig2();
/// assert_eq!(fig2.rows.len(), 2, "one game + mean");
/// ```
#[derive(Debug)]
pub struct Lab {
    setup: Setup,
    pipeline: PipelineConfig,
    // lint: allow(determinism-hash) -- keyed lookups only; results are read back per job key, never iterated
    cache: Mutex<HashMap<Key, Arc<FrameResult>>>,
}

impl Lab {
    /// Create a lab with the default (Table II) pipeline.
    #[must_use]
    pub fn new(setup: Setup) -> Self {
        Self::with_pipeline(setup, PipelineConfig::default())
    }

    /// Create a lab whose jobs run on a custom base pipeline (e.g. one
    /// carrying a [`dtexl_pipeline::FaultPlan`]); `upper_bound` is
    /// still overridden per job.
    #[must_use]
    pub fn with_pipeline(setup: Setup, pipeline: PipelineConfig) -> Self {
        Self {
            setup,
            pipeline,
            // lint: allow(determinism-hash) -- keyed lookups only; never iterated
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// The lab's setup.
    #[must_use]
    pub fn setup(&self) -> &Setup {
        &self.setup
    }

    fn key(game: Game, sched: &ScheduleConfig, upper: bool) -> Key {
        (game, sched.label(), upper)
    }

    /// Compute (or fetch) the frame result for one configuration.
    ///
    /// # Panics
    ///
    /// Panics when the job fails; see [`try_result`](Self::try_result)
    /// for the fallible variant.
    pub fn result(&self, game: Game, sched: ScheduleConfig, upper: bool) -> Arc<FrameResult> {
        self.ensure(&[(game, sched, upper)]);
        lock(&self.cache)
            .get(&Self::key(game, &sched, upper))
            // lint: allow(no-panic) -- ensure() either populated this key or already panicked with the job report
            .expect("just ensured")
            .clone()
    }

    /// Fallible variant of [`result`](Self::result).
    ///
    /// # Errors
    ///
    /// Returns the job's [`JobError`] when the simulation is rejected,
    /// panics, or times out under `opts`.
    pub fn try_result(
        &self,
        game: Game,
        sched: ScheduleConfig,
        upper: bool,
        opts: &SweepOptions,
    ) -> Result<Arc<FrameResult>, JobError> {
        let report = self
            .try_ensure(&[(game, sched, upper)], opts)
            .map_err(|e| JobError::Panicked(format!("journal I/O failed: {e}")))?;
        if let Some(r) = report.failed().first() {
            return Err(r.error.clone().unwrap_or(JobError::Panicked(
                "job failed without a recorded error".into(),
            )));
        }
        Ok(lock(&self.cache)
            .get(&Self::key(game, &sched, upper))
            // lint: allow(no-panic) -- try_ensure returned success for this key on the line above
            .expect("just ensured")
            .clone())
    }

    /// Ensure all `jobs` are simulated, fanning out over worker
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics with the sweep's failure summary if any job fails (the
    /// remaining jobs still complete first); use
    /// [`try_ensure`](Self::try_ensure) to get a [`SweepReport`]
    /// instead.
    pub fn ensure(&self, jobs: &[Job]) {
        let opts = SweepOptions {
            workers: self.setup.threads,
            keep_going: true,
            ..SweepOptions::default()
        };
        let report = self
            .try_ensure(jobs, &opts)
            // lint: allow(no-panic) -- no journal is configured, so the only I/O error source is absent
            .expect("no journal configured, I/O cannot fail");
        assert!(report.is_success(), "{}", report.summary());
    }

    /// Ensure all `jobs` are simulated under the fault-tolerant sweep
    /// engine: panicking, invalid or wedged jobs are isolated and
    /// reported instead of taking the process down (see
    /// [`crate::sweep::run_sweep`]).
    ///
    /// Successful results land in the lab's cache; failed jobs are
    /// described in the returned [`SweepReport`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error only for journal-file problems when
    /// `opts.journal` is set.
    pub fn try_ensure(&self, jobs: &[Job], opts: &SweepOptions) -> std::io::Result<SweepReport> {
        let missing: Vec<Job> = {
            let cache = lock(&self.cache);
            // lint: allow(determinism-hash) -- membership-only dedup; job order comes from the input slice
            let mut seen = std::collections::HashSet::new();
            jobs.iter()
                .filter(|(g, s, u)| {
                    let k = Self::key(*g, s, *u);
                    !cache.contains_key(&k) && seen.insert(k)
                })
                .copied()
                .collect()
        };
        if missing.is_empty() {
            return Ok(SweepReport {
                records: Vec::new(),
                aborted: false,
            });
        }
        let sweep_jobs: Vec<SweepJob> = missing
            .iter()
            .map(|&(game, sched, upper)| SweepJob {
                game,
                schedule: sched,
                width: self.setup.width,
                height: self.setup.height,
                frame: self.setup.frame,
                pipeline: PipelineConfig {
                    upper_bound: upper,
                    ..self.pipeline
                },
            })
            .collect();
        let mut opts = opts.clone();
        if opts.workers == 0 {
            opts.workers = self.setup.threads;
        }
        // Sharding is a fleet-level concern: the lab needs every job's
        // result in its cache, so a shard filter (which silently drops
        // out-of-shard jobs) would break the `try_result` invariant
        // that ensured keys are present.
        opts.shard = None;
        run_sweep(&sweep_jobs, &opts, |job, result| {
            lock(&self.cache).insert(
                Self::key(job.game, &job.schedule, job.pipeline.upper_bound),
                Arc::new(result),
            );
        })
    }

    // ---- schedule shorthands -------------------------------------------------

    fn baseline_sched() -> ScheduleConfig {
        ScheduleConfig::baseline()
    }

    fn grouping_sched(g: QuadGrouping) -> ScheduleConfig {
        ScheduleConfig {
            grouping: g,
            order: TileOrder::ZOrder,
            assignment: AssignMode::Const,
        }
    }

    // ---- figures -------------------------------------------------------------

    /// Fig. 1: per-tile quad-count deviation (%) of the load-balancing
    /// scheduler (FG-xshift2) vs the texture-locality scheduler
    /// (CG-square).
    #[must_use]
    pub fn fig1(&self) -> Table {
        self.two_sched_table(
            "fig1",
            "Mean deviation of threads per SC per tile (%)",
            |r| r.mean_quad_deviation(),
        )
    }

    /// Fig. 2: L2 accesses of the texture-locality scheduler normalized
    /// to the load-balancing scheduler.
    #[must_use]
    pub fn fig2(&self) -> Table {
        let jobs = self.per_game_jobs(&[
            Self::baseline_sched(),
            Self::grouping_sched(QuadGrouping::CgSquare),
        ]);
        self.ensure(&jobs);
        let mut t = Table::new(
            "fig2",
            "L2 accesses of CG-square normalized to FG-xshift2",
            vec!["CG-square/FG-xshift2".into()],
        );
        for &game in &self.setup.games {
            let base = self.result(game, Self::baseline_sched(), false);
            let cg = self.result(game, Self::grouping_sched(QuadGrouping::CgSquare), false);
            t.push_row(
                game.alias(),
                vec![cg.total_l2_accesses() as f64 / base.total_l2_accesses() as f64],
            );
        }
        t.push_mean_row();
        t
    }

    /// Fig. 11: average L2 accesses of each quad grouping, normalized
    /// to FG-xshift2.
    #[must_use]
    pub fn fig11(&self) -> Table {
        self.grouping_sweep("fig11", "Avg L2 accesses normalized to FG-xshift2", |r| {
            r.total_l2_accesses() as f64
        })
    }

    /// Fig. 12: average normalized mean deviation of quad distribution
    /// per grouping, normalized to FG-xshift2.
    #[must_use]
    pub fn fig12(&self) -> Table {
        self.grouping_sweep(
            "fig12",
            "Avg quad-distribution deviation normalized to FG-xshift2",
            FrameResult::mean_quad_deviation,
        )
    }

    /// Fig. 13: speedup of CG-square and CG-yrect over FG-xshift2, all
    /// with coupled barriers (no decoupling yet).
    #[must_use]
    pub fn fig13(&self) -> Table {
        let cg_sq = Self::grouping_sched(QuadGrouping::CgSquare);
        let cg_y = Self::grouping_sched(QuadGrouping::CgYRect);
        let jobs = self.per_game_jobs(&[Self::baseline_sched(), cg_sq, cg_y]);
        self.ensure(&jobs);
        let mut t = Table::new(
            "fig13",
            "Speedup over FG-xshift2 (coupled barriers)",
            vec!["CG-square".into(), "CG-yrect".into()],
        );
        for &game in &self.setup.games {
            let base = self
                .result(game, Self::baseline_sched(), false)
                .total_cycles(BarrierMode::Coupled) as f64;
            let sq = self
                .result(game, cg_sq, false)
                .total_cycles(BarrierMode::Coupled) as f64;
            let y = self
                .result(game, cg_y, false)
                .total_cycles(BarrierMode::Coupled) as f64;
            t.push_row(game.alias(), vec![base / sq, base / y]);
        }
        t.push_mean_row();
        t
    }

    /// Fig. 14: distribution of per-tile SC *execution-time* imbalance
    /// (%), FG-xshift2 vs CG-square (violin summary: min/p25/mean/p75/
    /// max).
    #[must_use]
    pub fn fig14(&self) -> Table {
        self.violin_table("fig14", "SC execution-time imbalance per tile (%)", |r| {
            r.time_deviation_samples()
        })
    }

    /// Fig. 15: distribution of per-tile SC *quad-count* imbalance (%).
    #[must_use]
    pub fn fig15(&self) -> Table {
        self.violin_table(
            "fig15",
            "SC quad-distribution imbalance per tile (%)",
            |r| r.quad_deviation_samples(),
        )
    }

    /// Fig. 16: decrease in L2 accesses (%) vs the baseline for the
    /// eight subtile mappings of Fig. 8 plus the aggregated-cache upper
    /// bound.
    #[must_use]
    pub fn fig16(&self) -> Table {
        let mut jobs = self.per_game_jobs(&[Self::baseline_sched()]);
        for m in NamedMapping::FIG16 {
            jobs.extend(self.per_game_jobs(&[m.config()]));
        }
        for &game in &self.setup.games {
            jobs.push((game, Self::baseline_sched(), true));
        }
        self.ensure(&jobs);

        let mut columns: Vec<String> = NamedMapping::FIG16
            .iter()
            .map(|m| m.name().into())
            .collect();
        columns.push("UpperBound".into());
        let mut t = Table::new("fig16", "Decrease in L2 accesses vs baseline (%)", columns);
        for &game in &self.setup.games {
            let base = self
                .result(game, Self::baseline_sched(), false)
                .total_l2_accesses() as f64;
            let mut vals: Vec<f64> = NamedMapping::FIG16
                .iter()
                .map(|m| {
                    let l2 = self.result(game, m.config(), false).total_l2_accesses() as f64;
                    100.0 * (1.0 - l2 / base)
                })
                .collect();
            let ub = self
                .result(game, Self::baseline_sched(), true)
                .total_l2_accesses() as f64;
            vals.push(100.0 * (1.0 - ub / base));
            t.push_row(game.alias(), vals);
        }
        t.push_mean_row();
        t
    }

    /// Fig. 17: speedup over the non-decoupled baseline for (a)
    /// FG-xshift2 with decoupled barriers and (b) DTexL (HLB-flp2,
    /// decoupled).
    #[must_use]
    pub fn fig17(&self) -> Table {
        let dtexl = ScheduleConfig::dtexl();
        let jobs = self.per_game_jobs(&[Self::baseline_sched(), dtexl]);
        self.ensure(&jobs);
        let mut t = Table::new(
            "fig17",
            "Speedup over non-decoupled FG-xshift2",
            vec!["FG-xshift2+dec".into(), "DTexL(HLB-flp2)".into()],
        );
        for &game in &self.setup.games {
            let base = self.result(game, Self::baseline_sched(), false);
            let coupled = base.total_cycles(BarrierMode::Coupled) as f64;
            let fg_dec = base.total_cycles(BarrierMode::Decoupled) as f64;
            let dt = self
                .result(game, dtexl, false)
                .total_cycles(BarrierMode::Decoupled) as f64;
            t.push_row(game.alias(), vec![coupled / fg_dec, coupled / dt]);
        }
        t.push_mean_row();
        t
    }

    /// Fig. 18: decrease in total GPU energy (%) vs the non-decoupled
    /// baseline for the same two configurations as Fig. 17.
    #[must_use]
    pub fn fig18(&self) -> Table {
        let dtexl = ScheduleConfig::dtexl();
        let jobs = self.per_game_jobs(&[Self::baseline_sched(), dtexl]);
        self.ensure(&jobs);
        let model = EnergyModel::default();
        let energy =
            |r: &FrameResult, mode: BarrierMode| model.evaluate(&r.energy_events(mode)).total_pj();
        let mut t = Table::new(
            "fig18",
            "Decrease in total GPU energy vs non-decoupled FG-xshift2 (%)",
            vec!["FG-xshift2+dec".into(), "DTexL(HLB-flp2)".into()],
        );
        for &game in &self.setup.games {
            let base = self.result(game, Self::baseline_sched(), false);
            let e_base = energy(&base, BarrierMode::Coupled);
            let e_fg = energy(&base, BarrierMode::Decoupled);
            let dt = self.result(game, dtexl, false);
            let e_dt = energy(&dt, BarrierMode::Decoupled);
            t.push_row(
                game.alias(),
                vec![100.0 * (1.0 - e_fg / e_base), 100.0 * (1.0 - e_dt / e_base)],
            );
        }
        t.push_mean_row();
        t
    }

    /// Table I: benchmark characteristics — metadata plus the measured
    /// footprint and scene size of the synthetic stand-ins.
    #[must_use]
    pub fn table1(&self) -> Table {
        let mut t = Table::new(
            "table1",
            "Benchmarks (paper metadata + synthetic measurements)",
            vec![
                "Installs(M)".into(),
                "3D".into(),
                "Paper MiB".into(),
                "Actual MiB".into(),
                "Draws".into(),
                "Triangles".into(),
            ],
        );
        let spec = SceneSpec::new(self.setup.width, self.setup.height, self.setup.frame);
        for &game in &self.setup.games {
            let info = game.info();
            let scene = game.scene(&spec);
            t.push_row(
                game.alias(),
                vec![
                    f64::from(info.installs_millions),
                    f64::from(u8::from(info.is_3d)),
                    info.texture_footprint_mib,
                    scene.texture_footprint_bytes() as f64 / (1024.0 * 1024.0),
                    scene.draws.len() as f64,
                    f64::from(scene.triangle_count()),
                ],
            );
        }
        t
    }

    /// Beyond-paper diagnostic: measured texture-block fill redundancy
    /// (L1 fills per distinct line — spatial replication across the
    /// four private caches *times* temporal refetching across tiles)
    /// for the load-balancing baseline, DTexL's mapping, and the
    /// aggregated-cache upper bound. This quantifies the paper's
    /// central claim: the fine-grained baseline refetches each block
    /// ~3× more often than the locality mapping, which itself sits
    /// within ~1.6× of the no-replication upper bound.
    #[must_use]
    pub fn replication_table(&self) -> Table {
        let dtexl = ScheduleConfig::dtexl();
        let mut jobs = self.per_game_jobs(&[Self::baseline_sched(), dtexl]);
        for &game in &self.setup.games {
            jobs.push((game, Self::baseline_sched(), true));
        }
        self.ensure(&jobs);
        let mut t = Table::new(
            "replication",
            "Texture-block fill redundancy (L1 fills per distinct line)",
            vec![
                "FG-xshift2".into(),
                "DTexL(HLB-flp2)".into(),
                "UpperBound".into(),
            ],
        );
        for &game in &self.setup.games {
            let fg = self.result(game, Self::baseline_sched(), false);
            let dt = self.result(game, dtexl, false);
            let ub = self.result(game, Self::baseline_sched(), true);
            t.push_row(
                game.alias(),
                vec![
                    fg.hierarchy.fill_redundancy(),
                    dt.hierarchy.fill_redundancy(),
                    ub.hierarchy.fill_redundancy(),
                ],
            );
        }
        t.push_mean_row();
        t
    }

    /// Generic comparison of arbitrary named schedules: one row per
    /// game, columns `speedup` / `L2 decrease %` / `quad dev %` for each
    /// named configuration (all relative to the paper baseline, using
    /// `mode` for the candidates' frame time). The extension point for
    /// custom design-space exploration on top of the cached lab.
    #[must_use]
    pub fn compare(&self, candidates: &[(&str, ScheduleConfig)], mode: BarrierMode) -> Table {
        let mut jobs = self.per_game_jobs(&[Self::baseline_sched()]);
        for (_, s) in candidates {
            jobs.extend(self.per_game_jobs(&[*s]));
        }
        self.ensure(&jobs);
        let mut columns = Vec::new();
        for (name, _) in candidates {
            columns.push(format!("{name} speedup"));
            columns.push(format!("{name} L2dec%"));
        }
        let mut t = Table::new("compare", "Custom schedule comparison vs baseline", columns);
        for &game in &self.setup.games {
            let base = self.result(game, Self::baseline_sched(), false);
            let base_cycles = base.total_cycles(BarrierMode::Coupled) as f64;
            let base_l2 = base.total_l2_accesses() as f64;
            let mut vals = Vec::new();
            for (_, s) in candidates {
                let r = self.result(game, *s, false);
                vals.push(base_cycles / r.total_cycles(mode) as f64);
                vals.push(100.0 * (1.0 - r.total_l2_accesses() as f64 / base_l2));
            }
            t.push_row(game.alias(), vals);
        }
        t.push_mean_row();
        t
    }

    /// Average FPS of a configuration across the setup's games
    /// (convenience for examples and ablations).
    #[must_use]
    pub fn mean_fps(&self, sched: ScheduleConfig, mode: BarrierMode) -> f64 {
        let jobs = self.per_game_jobs(&[sched]);
        self.ensure(&jobs);
        let sum: f64 = self
            .setup
            .games
            .iter()
            .map(|&g| CLOCK_HZ / self.result(g, sched, false).total_cycles(mode) as f64)
            .sum();
        sum / self.setup.games.len() as f64
    }

    // ---- shared helpers ------------------------------------------------------

    fn per_game_jobs(&self, scheds: &[ScheduleConfig]) -> Vec<Job> {
        self.setup
            .games
            .iter()
            .flat_map(|&g| scheds.iter().map(move |&s| (g, s, false)))
            .collect()
    }

    fn two_sched_table(
        &self,
        id: &str,
        title: &str,
        metric: impl Fn(&FrameResult) -> f64,
    ) -> Table {
        let cg = Self::grouping_sched(QuadGrouping::CgSquare);
        let jobs = self.per_game_jobs(&[Self::baseline_sched(), cg]);
        self.ensure(&jobs);
        let mut t = Table::new(id, title, vec!["FG-xshift2".into(), "CG-square".into()]);
        for &game in &self.setup.games {
            let fg = metric(&self.result(game, Self::baseline_sched(), false));
            let c = metric(&self.result(game, cg, false));
            t.push_row(game.alias(), vec![fg, c]);
        }
        t.push_mean_row();
        t
    }

    fn grouping_sweep(&self, id: &str, title: &str, metric: impl Fn(&FrameResult) -> f64) -> Table {
        let scheds: Vec<ScheduleConfig> = QuadGrouping::ALL
            .iter()
            .map(|&g| Self::grouping_sched(g))
            .collect();
        self.ensure(&self.per_game_jobs(&scheds));
        let mut t = Table::new(id, title, vec!["norm. to FG-xshift2".into()]);
        for g in QuadGrouping::ALL {
            let sched = Self::grouping_sched(g);
            let mut acc = 0.0;
            for &game in &self.setup.games {
                let base = metric(&self.result(game, Self::baseline_sched(), false));
                let v = metric(&self.result(game, sched, false));
                acc += if base > 0.0 { v / base } else { 1.0 };
            }
            t.push_row(g.name(), vec![acc / self.setup.games.len() as f64]);
        }
        t
    }

    fn violin_table(
        &self,
        id: &str,
        title: &str,
        samples: impl Fn(&FrameResult) -> Vec<f64>,
    ) -> Table {
        let cg = Self::grouping_sched(QuadGrouping::CgSquare);
        self.ensure(&self.per_game_jobs(&[Self::baseline_sched(), cg]));
        let mut t = Table::new(
            id,
            title,
            vec![
                "FG-min".into(),
                "FG-p25".into(),
                "FG-mean".into(),
                "FG-p75".into(),
                "FG-max".into(),
                "CG-min".into(),
                "CG-p25".into(),
                "CG-mean".into(),
                "CG-p75".into(),
                "CG-max".into(),
            ],
        );
        for &game in &self.setup.games {
            let fg = Distribution::from_samples(&samples(&self.result(
                game,
                Self::baseline_sched(),
                false,
            )));
            let c = Distribution::from_samples(&samples(&self.result(game, cg, false)));
            t.push_row(
                game.alias(),
                vec![
                    fg.min, fg.p25, fg.mean, fg.p75, fg.max, c.min, c.p25, c.mean, c.p75, c.max,
                ],
            );
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small but not degenerate: 16×8 tiles, enough for the Hilbert
    /// 8×8 sub-frames and the decoupling dynamics to operate.
    fn tiny_lab() -> Lab {
        Lab::new(Setup {
            width: 512,
            height: 256,
            frame: 0,
            games: vec![Game::GravityTetris, Game::CandyCrush],
            threads: 4,
        })
    }

    #[test]
    fn fig2_shows_l2_reduction() {
        let lab = tiny_lab();
        let t = lab.fig2();
        let mean = t.get("Mean", "CG-square/FG-xshift2").unwrap();
        assert!(mean < 1.0, "CG must reduce L2 accesses, got {mean}");
        assert!(mean > 0.1);
    }

    #[test]
    fn fig1_shows_balance_tradeoff() {
        let lab = tiny_lab();
        let t = lab.fig1();
        let fg = t.get("Mean", "FG-xshift2").unwrap();
        let cg = t.get("Mean", "CG-square").unwrap();
        assert!(fg < cg, "FG balances better: {fg} vs {cg}");
    }

    #[test]
    fn fig17_dtexl_speeds_up() {
        let lab = tiny_lab();
        let t = lab.fig17();
        let dtexl = t.get("Mean", "DTexL(HLB-flp2)").unwrap();
        assert!(dtexl > 1.0, "DTexL must speed up, got {dtexl}");
        let fg = t.get("Mean", "FG-xshift2+dec").unwrap();
        assert!(fg >= 1.0, "decoupling never slows the baseline, got {fg}");
    }

    #[test]
    fn cache_hits_avoid_recompute() {
        let lab = tiny_lab();
        let a = lab.result(Game::GravityTetris, ScheduleConfig::baseline(), false);
        let b = lab.result(Game::GravityTetris, ScheduleConfig::baseline(), false);
        assert!(Arc::ptr_eq(&a, &b), "second call must be cached");
    }

    #[test]
    fn replication_ordering_matches_the_paper_claim() {
        let lab = tiny_lab();
        let t = lab.replication_table();
        let fg = t.get("Mean", "FG-xshift2").unwrap();
        let dt = t.get("Mean", "DTexL(HLB-flp2)").unwrap();
        let ub = t.get("Mean", "UpperBound").unwrap();
        assert!(
            fg > dt && dt > ub,
            "replication must fall FG({fg:.2}) > DTexL({dt:.2}) > UB({ub:.2})"
        );
        assert!(
            fg > 2.0,
            "fine-grained replication should approach the SC count"
        );
        assert!(ub >= 1.0, "every line is fetched at least once");
    }

    #[test]
    fn compare_builds_columns_per_candidate() {
        use dtexl_sched::TileOrder;
        let lab = tiny_lab();
        let spiral = ScheduleConfig {
            order: TileOrder::Spiral,
            ..ScheduleConfig::dtexl()
        };
        let t = lab.compare(
            &[("dtexl", ScheduleConfig::dtexl()), ("spiral", spiral)],
            BarrierMode::Decoupled,
        );
        assert_eq!(t.columns.len(), 4);
        let dtexl_speed = t.get("Mean", "dtexl speedup").unwrap();
        let spiral_speed = t.get("Mean", "spiral speedup").unwrap();
        assert!(dtexl_speed > 1.0);
        assert!(spiral_speed > 1.0, "spiral order also decouples fine");
        assert!(t.get("Mean", "dtexl L2dec%").unwrap() > 20.0);
    }

    #[test]
    fn table1_has_metadata_and_measurements() {
        let lab = tiny_lab();
        let t = lab.table1();
        assert_eq!(t.rows.len(), 2);
        let paper = t.get("GTr", "Paper MiB").unwrap();
        let actual = t.get("GTr", "Actual MiB").unwrap();
        assert_eq!(paper, 0.7);
        assert!(actual > 0.3 && actual < 1.5);
    }
}
