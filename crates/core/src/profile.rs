//! Frame profiling: capture the observability event streams for one
//! frame and turn them into a stall-attribution report and a
//! Chrome-trace / Perfetto export.
//!
//! [`FrameProfile::capture`] runs the functional pass once with an
//! event probe (per-tile raster counts, per-subtile memory counters),
//! then composes frame time under **both** barrier modes with span
//! probes — every (SC, stage, tile) interval is attributed busy /
//! wait-upstream / wait-barrier. Both compositions read the same
//! [`StageDurations`](dtexl_pipeline::StageDurations), which are
//! bit-identical across thread counts, so the whole profile is too
//! (pinned by `tests/obs_determinism.rs`).
//!
//! Timestamps are simulated cycles with 0 = start of the raster phase;
//! geometry and tiling cycles are reported separately in the profile's
//! [`FrameResult`].

use crate::metrics::{Distribution, Table};
use crate::sim::SimConfig;
use dtexl_obs::perfetto::{chrome_trace, TrackGroup};
use dtexl_obs::{
    Event, EventSink, MemSample, ObsRollup, Probe, RasterSample, RollupMode, Span, SpanKind, Stage,
    StallRollup,
};
use dtexl_pipeline::{
    compose_frame_probed, BarrierMode, FramePrefix, FrameResult, FrameSim, SimError,
};
use dtexl_scene::SceneSpec;
use std::collections::BTreeMap;

/// A profiled frame: the functional result plus the recorded event
/// streams under both barrier modes.
#[derive(Debug, Clone)]
pub struct FrameProfile {
    /// The configuration profiled.
    pub config: SimConfig,
    /// The underlying frame result (durations, caches, tiles).
    pub result: FrameResult,
    /// Per-subtile memory samples, tile-major / SC-ascending.
    pub mem: Vec<MemSample>,
    /// Per-tile rasterizer samples, in schedule order.
    pub raster: Vec<RasterSample>,
    /// Busy/wait spans under coupled barriers.
    pub coupled: Vec<Span>,
    /// Busy/wait spans under decoupled barriers.
    pub decoupled: Vec<Span>,
    /// Raster-phase cycles under coupled barriers.
    pub coupled_cycles: u64,
    /// Raster-phase cycles under decoupled barriers.
    pub decoupled_cycles: u64,
    /// Events lost to sink overflow (0 unless the frame is enormous).
    pub dropped: u64,
}

impl FrameProfile {
    /// Simulate `config`'s frame with probes attached and collect the
    /// full event picture.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] when the configuration or generated scene
    /// is invalid — the same conditions as [`FrameSim::try_run`].
    pub fn capture(config: &SimConfig) -> Result<Self, SimError> {
        let spec = SceneSpec::try_new(config.width, config.height, config.frame)
            .map_err(SimError::Scene)?;
        let scene = config.game.scene(&spec);
        let prefix = FramePrefix::build(&scene, &config.pipeline, config.width, config.height)?;
        let mut sink = EventSink::new();
        let result = FrameSim::try_run_prefixed_probed(
            &prefix,
            &config.schedule,
            &config.pipeline,
            &mut sink,
        )?;
        let mem = sink.mem_samples();
        let raster = sink.raster_samples();
        let mut dropped = sink.dropped();

        let mut spans_of = |mode: BarrierMode| {
            let mut s = EventSink::new();
            let cycles = compose_frame_probed(&result.durations, mode, &mut s);
            dropped += s.dropped();
            (s.spans(), cycles)
        };
        let (coupled, coupled_cycles) = spans_of(BarrierMode::Coupled);
        let (decoupled, decoupled_cycles) = spans_of(BarrierMode::Decoupled);

        Ok(Self {
            config: *config,
            result,
            mem,
            raster,
            coupled,
            decoupled,
            coupled_cycles,
            decoupled_cycles,
            dropped,
        })
    }

    /// The stall-attribution table: per unit (row), total busy cycles
    /// plus barrier-wait and upstream-wait cycles under each barrier
    /// mode (columns `busy`, `c-barrier`, `c-upstream`, `d-barrier`,
    /// `d-upstream`). Busy cycles are mode-invariant by construction —
    /// both compositions replay the same durations — so a single `busy`
    /// column serves both.
    #[must_use]
    pub fn stall_table(&self) -> Table {
        let coupled = per_unit_totals(&self.coupled);
        let decoupled = per_unit_totals(&self.decoupled);
        let mut t = Table::new(
            "stalls",
            format!(
                "Busy vs wait cycles per unit — {} {} {}x{}",
                self.config.game.alias(),
                self.config.schedule.label(),
                self.config.width,
                self.config.height
            ),
            ["busy", "c-barrier", "c-upstream", "d-barrier", "d-upstream"]
                .map(String::from)
                .to_vec(),
        );
        for (stage, sc) in unit_order() {
            let c = coupled.get(&(stage, sc)).copied().unwrap_or_default();
            let d = decoupled.get(&(stage, sc)).copied().unwrap_or_default();
            t.push_row(
                dtexl_obs::perfetto::track_name(stage, sc),
                vec![
                    c[0] as f64,
                    c[2] as f64,
                    c[1] as f64,
                    d[2] as f64,
                    d[1] as f64,
                ],
            );
        }
        t
    }

    /// Distribution of per-tile *barrier*-wait cycles per back-half
    /// stage under `mode` (columns `min`/`p25`/`mean`/`p75`/`max`).
    /// Under pure decoupled composition the populations are empty and
    /// the rows are all zero — [`Distribution::from_samples`] pins that
    /// contract.
    #[must_use]
    pub fn wait_table(&self, mode: BarrierMode) -> Table {
        let spans = match mode {
            BarrierMode::Coupled => &self.coupled,
            _ => &self.decoupled,
        };
        let mut t = Table::new(
            "waits",
            format!("Per-tile barrier-wait cycles ({mode:?})"),
            ["min", "p25", "mean", "p75", "max"]
                .map(String::from)
                .to_vec(),
        );
        for stage in [Stage::EarlyZ, Stage::Fragment, Stage::Blend] {
            let samples: Vec<f64> = spans
                .iter()
                .filter(|s| s.stage == stage && s.kind == SpanKind::WaitBarrier)
                .map(|s| s.cycles() as f64)
                .collect();
            let d = Distribution::from_samples(&samples);
            t.push_row(stage.name(), vec![d.min, d.p25, d.mean, d.p75, d.max]);
        }
        t
    }

    /// Fold the captured event streams into the journal's per-job
    /// rollup form — the same [`ObsRollup`] a `dtexl sweep --with-obs`
    /// run journals for this configuration (pinned by
    /// `tests/obs_rollup.rs`), so an exported profile and a journal
    /// record diff against each other freely.
    #[must_use]
    pub fn rollup(&self) -> ObsRollup {
        let mut rollup = ObsRollup::default();
        {
            let mut probe = rollup.probe(RollupMode::Sim);
            for m in &self.mem {
                probe.record(Event::Mem(*m));
            }
        }
        for (mode, spans) in [
            (RollupMode::Coupled, &self.coupled),
            (RollupMode::Decoupled, &self.decoupled),
        ] {
            let mut probe = rollup.probe(mode);
            for s in spans {
                probe.record(Event::Span(*s));
            }
        }
        rollup
    }

    /// Chrome-trace / Perfetto JSON for the profile: process 1 is the
    /// coupled composition, process 2 the decoupled one, each with one
    /// track per (SC, stage) unit. Open at <https://ui.perfetto.dev>.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        chrome_trace(&[
            TrackGroup {
                pid: 1,
                name: "coupled",
                spans: &self.coupled,
                mem: &self.mem,
            },
            TrackGroup {
                pid: 2,
                name: "decoupled",
                spans: &self.decoupled,
                mem: &self.mem,
            },
        ])
    }
}

/// The per-unit stall delta between two stall rollups, `b − a`: one
/// row per (SC, stage) unit, with a signed cycle delta and a percent
/// change for each of busy / wait-upstream / wait-barrier. Percent
/// change is relative to `a`; a unit going from zero to nonzero reads
/// as +100%, zero to zero as 0%. This powers `dtexl profile --diff`.
#[must_use]
pub fn stall_diff_table(a: &StallRollup, b: &StallRollup, title: impl Into<String>) -> Table {
    let pct = |x: f64, y: f64| -> f64 {
        if x == 0.0 {
            if y > 0.0 {
                100.0
            } else {
                0.0
            }
        } else {
            100.0 * (y - x) / x
        }
    };
    let mut t = Table::new(
        "stall-diff",
        title,
        [
            "busy",
            "busy%",
            "upstream",
            "upstream%",
            "barrier",
            "barrier%",
        ]
        .map(String::from)
        .to_vec(),
    );
    for (i, (stage, sc)) in dtexl_obs::rollup::unit_order().iter().enumerate() {
        let (ua, ub) = (a.units[i], b.units[i]);
        let mut row = Vec::with_capacity(6);
        for col in 0..3 {
            let (x, y) = (ua[col] as f64, ub[col] as f64);
            row.push(y - x);
            row.push(pct(x, y));
        }
        t.push_row(dtexl_obs::perfetto::track_name(*stage, *sc), row);
    }
    t
}

/// Units in dataflow order: the serial front-end stages, then each
/// back-half stage across its four SC units.
fn unit_order() -> Vec<(Stage, u8)> {
    let mut order = vec![(Stage::Fetch, 0), (Stage::Raster, 0)];
    for stage in [Stage::EarlyZ, Stage::Fragment, Stage::Blend] {
        for sc in 0..4u8 {
            order.push((stage, sc));
        }
    }
    order
}

/// Accumulate `[busy, wait_upstream, wait_barrier]` cycle totals per
/// (stage, SC) unit.
fn per_unit_totals(spans: &[Span]) -> BTreeMap<(Stage, u8), [u64; 3]> {
    let mut totals: BTreeMap<(Stage, u8), [u64; 3]> = BTreeMap::new();
    for s in spans {
        let slot = totals.entry((s.stage, s.sc)).or_default();
        let i = match s.kind {
            SpanKind::Busy => 0,
            SpanKind::WaitUpstream => 1,
            SpanKind::WaitBarrier => 2,
        };
        slot[i] += s.cycles();
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtexl_scene::Game;

    fn small_profile() -> FrameProfile {
        let cfg = SimConfig::dtexl(Game::GravityTetris).with_resolution(256, 128);
        FrameProfile::capture(&cfg).expect("valid config")
    }

    #[test]
    fn capture_agrees_with_unprobed_composition() {
        let p = small_profile();
        let raster_phase_coupled = p.result.total_cycles(BarrierMode::Coupled)
            - p.result.geometry.cycles
            - p.result.tiling.build_cycles;
        assert_eq!(p.coupled_cycles, raster_phase_coupled);
        assert!(p.decoupled_cycles <= p.coupled_cycles);
        assert_eq!(p.dropped, 0);
        assert_eq!(p.raster.len(), p.result.tiles.len());
        assert_eq!(p.mem.len(), p.result.tiles.len() * 4);
    }

    #[test]
    fn stall_table_accounts_for_busy_and_waits() {
        let p = small_profile();
        let t = p.stall_table();
        assert_eq!(t.rows.len(), 2 + 3 * 4);
        // Busy cycles are positive for every fragment unit.
        for sc in 0..4 {
            let busy = t.get(&format!("fragment/SC{sc}"), "busy").unwrap();
            assert!(busy > 0.0, "SC{sc} must do work");
        }
        // Coupled barriers wait somewhere; decoupled composition (pure,
        // unbounded) never holds a unit at a barrier.
        let c_barrier: f64 = t
            .rows
            .iter()
            .map(|r| t.get(&r.label, "c-barrier").unwrap())
            .sum();
        let d_barrier: f64 = t
            .rows
            .iter()
            .map(|r| t.get(&r.label, "d-barrier").unwrap())
            .sum();
        assert!(c_barrier > 0.0, "coupled composition must barrier-wait");
        assert_eq!(d_barrier, 0.0, "pure decoupled has no barrier waits");
    }

    #[test]
    fn wait_table_handles_empty_populations() {
        let p = small_profile();
        let coupled = p.wait_table(BarrierMode::Coupled);
        let decoupled = p.wait_table(BarrierMode::Decoupled);
        assert!(coupled.get("fragment", "max").unwrap() > 0.0);
        for stage in ["early_z", "fragment", "blend"] {
            for col in ["min", "p25", "mean", "p75", "max"] {
                assert_eq!(
                    decoupled.get(stage, col),
                    Some(0.0),
                    "{stage}/{col}: empty population must summarize to zero"
                );
            }
        }
    }

    #[test]
    fn rollup_folds_the_same_totals_as_the_stall_table() {
        let p = small_profile();
        let r = p.rollup();
        let t = p.stall_table();
        assert_eq!(
            r.coupled.busy(Stage::Fragment, 0) as f64,
            t.get("fragment/SC0", "busy").unwrap()
        );
        assert_eq!(
            r.coupled.wait_barrier(Stage::Fragment, 1) as f64,
            t.get("fragment/SC1", "c-barrier").unwrap()
        );
        assert_eq!(
            r.decoupled.wait_upstream(Stage::Blend, 2) as f64,
            t.get("blend/SC2", "d-upstream").unwrap()
        );
        let dram: u64 = p.mem.iter().map(|m| m.dram_requests).sum();
        assert_eq!(r.dram_requests, dram, "mem counters fold too");
        assert!(r.l1_hits > 0);
    }

    #[test]
    fn diff_of_coupled_vs_decoupled_kills_barrier_waits_only() {
        let p = small_profile();
        let r = p.rollup();
        let t = stall_diff_table(&r.coupled, &r.decoupled, "coupled -> decoupled");
        assert_eq!(t.rows.len(), 2 + 3 * 4);
        for row in &t.rows {
            assert_eq!(
                t.get(&row.label, "busy"),
                Some(0.0),
                "{}: busy cycles are mode-invariant",
                row.label
            );
        }
        let total_barrier: f64 = t
            .rows
            .iter()
            .map(|r2| t.get(&r2.label, "barrier").unwrap())
            .sum();
        assert!(total_barrier < 0.0, "decoupling removes barrier waits");
        // Any unit that barrier-waited under coupled loses 100% of it.
        for row in &t.rows {
            let delta = t.get(&row.label, "barrier").unwrap();
            let pct = t.get(&row.label, "barrier%").unwrap();
            if delta < 0.0 {
                assert_eq!(pct, -100.0, "{}: pure decoupled zeroes the wait", row.label);
            } else {
                assert_eq!(pct, 0.0);
            }
        }
    }

    #[test]
    fn chrome_trace_is_deterministic_and_structured() {
        let a = small_profile().chrome_trace();
        let b = small_profile().chrome_trace();
        assert_eq!(a, b, "profiling must be reproducible byte-for-byte");
        assert!(a.starts_with("{\"displayTimeUnit\""));
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("coupled") && a.contains("decoupled"));
        assert!(a.contains("fragment/SC"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }
}
