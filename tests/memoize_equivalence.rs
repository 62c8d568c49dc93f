//! Memoized vs fresh simulation equivalence.
//!
//! `SweepJob::simulate_with(Some(cache))` reuses one schedule-
//! independent [`FramePrefix`] across every leg that shares a
//! `prefix_key`; `simulate_with(None)` (== `simulate()`) recomputes
//! the whole frame from scratch. These tests pin the tentpole
//! guarantee: the two paths are **bit-identical** on every reported
//! metric — across both schedules, ragged resolutions, thread counts
//! and active fault plans — and that the cache key separates exactly
//! the configurations whose prefixes may not be shared.

use dtexl::sweep::{PrefixCache, SweepJob};
use dtexl_pipeline::{BarrierMode, FaultPlan, LaneStall, PipelineConfig};
use dtexl_scene::Game;
use dtexl_sched::ScheduleConfig;

/// Ragged resolutions (partial edge tiles in both axes) plus one
/// tile-aligned shape.
const RESOLUTIONS: [(u32, u32); 3] = [(100, 50), (65, 31), (96, 64)];

fn job(game: Game, schedule: ScheduleConfig, w: u32, h: u32) -> SweepJob {
    SweepJob::new(game, schedule, false, w, h, 0)
}

/// Assert every metric the sweep reports (and some it doesn't) agrees
/// between a fresh run and a cache-mediated run of `job`.
fn assert_equivalent(job: &SweepJob, cache: &PrefixCache) {
    let fresh = job.simulate_with(None).expect("fresh run");
    let memo = job.simulate_with(Some(cache)).expect("memoized run");
    let ctx = job.key();
    for mode in [
        BarrierMode::Coupled,
        BarrierMode::Decoupled,
        BarrierMode::DecoupledBounded { tiles_ahead: 2 },
    ] {
        assert_eq!(
            fresh.total_cycles(mode),
            memo.total_cycles(mode),
            "cycles diverge under {mode:?}: {ctx}"
        );
        assert_eq!(
            fresh.energy_events(mode),
            memo.energy_events(mode),
            "energy events diverge under {mode:?}: {ctx}"
        );
    }
    assert_eq!(
        fresh.total_l2_accesses(),
        memo.total_l2_accesses(),
        "L2: {ctx}"
    );
    assert_eq!(fresh.hierarchy, memo.hierarchy, "hierarchy stats: {ctx}");
}

#[test]
fn memoized_matches_fresh_across_schedules_and_resolutions() {
    for game in [Game::CandyCrush, Game::GravityTetris, Game::Maze] {
        for (w, h) in RESOLUTIONS {
            // One cache per (game, resolution): the FG and CG legs
            // share its single prefix entry, exactly as a sweep does.
            let cache = PrefixCache::new(None);
            for schedule in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
                assert_equivalent(&job(game, schedule, w, h), &cache);
            }
            let stats = cache.stats();
            assert_eq!(stats.misses, 1, "legs must share one prefix: {game:?}");
            assert!(stats.hits >= 1, "second leg must hit: {game:?}");
        }
    }
}

#[test]
fn memoized_matches_fresh_with_active_fault_plan() {
    let fault = FaultPlan {
        seed: 7,
        lane_stall: Some(LaneStall {
            lane: 2,
            cycles: 5_000,
        }),
        ..FaultPlan::default()
    };
    let cache = PrefixCache::new(None);
    for schedule in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
        let mut j = job(Game::TempleRun, schedule, 100, 50);
        j.pipeline = PipelineConfig {
            fault,
            ..j.pipeline
        };
        assert_equivalent(&j, &cache);
    }
}

#[test]
fn fault_plans_key_separately() {
    // The fault plan is part of the prefix key: a faulty job must never
    // reuse (or poison) the pristine job's cache entry.
    let clean = job(Game::TempleRun, ScheduleConfig::dtexl(), 100, 50);
    let mut faulty = clean;
    faulty.pipeline.fault = FaultPlan {
        seed: 9,
        lane_stall: Some(LaneStall {
            lane: 1,
            cycles: 1_000,
        }),
        ..FaultPlan::default()
    };
    assert_ne!(
        clean.prefix_key(),
        faulty.prefix_key(),
        "fault plan must be keyed into the prefix hash"
    );

    // Different resolutions and games separate too; schedules must NOT.
    let mut other_res = clean;
    other_res.width = 65;
    other_res.height = 31;
    assert_ne!(clean.prefix_key(), other_res.prefix_key());
    let mut other_game = clean;
    other_game.game = Game::Maze;
    assert_ne!(clean.prefix_key(), other_game.prefix_key());
    let mut other_sched = clean;
    other_sched.schedule = ScheduleConfig::baseline();
    assert_eq!(
        clean.prefix_key(),
        other_sched.prefix_key(),
        "the prefix is schedule-independent by design"
    );
}

#[test]
fn tiny_budget_rejects_insertion_but_stays_correct() {
    // A cache whose budget can't hold even one prefix must simply keep
    // simulating fresh — never evict-thrash, never corrupt results.
    let cache = PrefixCache::new(Some(1024));
    for _ in 0..2 {
        assert_equivalent(
            &job(Game::GravityTetris, ScheduleConfig::dtexl(), 100, 50),
            &cache,
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "nothing can fit, so nothing can hit");
    assert_eq!(stats.bytes, 0, "over-budget prefixes are dropped");
    assert!(
        stats.rejected >= 1,
        "insertion must be rejected, not evict-thrash"
    );
}
