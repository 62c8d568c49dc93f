//! Per-job probe rollups: determinism, journal round-trip, and the
//! `profile --diff` stall-delta view.
//!
//! The `ObsRollup` a `--with-obs` sweep journals per job folds the
//! exact event stream tests/obs_determinism.rs pins — so it must be
//! bit-identical between memoized and fresh execution, must survive the journal's merge/resume union
//! verbatim, and must stay invisible to `sweep canon`. The golden diff
//! table re-uses the GTr 96x64 stall goldens of obs_determinism.rs:
//! re-baseline the two files together.

use dtexl::obs::{ObsRollup, Stage};
use dtexl::profile::{stall_diff_table, FrameProfile};
use dtexl::sweep::{
    canon_text, latest_entries, merge_journals, run_sweep, PrefixCache, Shard, SweepJob,
    SweepOptions,
};
use dtexl::SimConfig;
use dtexl_scene::Game;
use dtexl_sched::ScheduleConfig;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtexl_obs_rollup_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The rollup is a pure function of the job: memoization and cache
/// temperature (cold build vs warm hit) must produce the same bits as
/// a fresh run. 100x50 is ragged in both axes, so the subtile split is
/// maximally irregular.
#[test]
fn rollup_is_bit_identical_across_schedules_and_memoization() {
    for schedule in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
        let job = SweepJob::new(Game::CandyCrush, schedule, false, 100, 50, 0);
        let (_, fresh) = job.simulate_rollup(None).expect("valid job");
        assert_ne!(
            fresh,
            ObsRollup::default(),
            "probes recorded nothing under {}",
            schedule.label()
        );
        let cache = PrefixCache::new(None);
        let (_, cold) = job.simulate_rollup(Some(&cache)).expect("valid job");
        let (_, warm) = job.simulate_rollup(Some(&cache)).expect("valid job");
        assert_eq!(cache.stats().hits, 1, "second memoized run must hit");
        for (label, rollup) in [("memoized-cold", cold), ("memoized-warm", warm)] {
            assert_eq!(
                rollup,
                fresh,
                "{label} rollup diverges under {}",
                schedule.label()
            );
        }
    }
}

/// `--with-obs` journal lines round-trip the rollup bit-exactly, and
/// the `obs` object survives the full journal lifecycle: shard
/// journals → merge, then a resumed sweep whose `skipped` lines must
/// not clobber the merged `ok` records. Canon stays byte-identical to
/// an unprobed sweep's.
#[test]
fn journal_obs_survives_merge_and_resume() {
    let dir = scratch_dir("journal");
    let jobs: Vec<SweepJob> = [
        (Game::GravityTetris, ScheduleConfig::baseline()),
        (Game::GravityTetris, ScheduleConfig::dtexl()),
        (Game::CandyCrush, ScheduleConfig::baseline()),
        (Game::CandyCrush, ScheduleConfig::dtexl()),
    ]
    .into_iter()
    .map(|(game, schedule)| SweepJob::new(game, schedule, false, 96, 64, 0))
    .collect();

    // Shard the sweep two ways, as a fleet would.
    let shard_paths = [dir.join("shard0.jsonl"), dir.join("shard1.jsonl")];
    for (index, path) in shard_paths.iter().enumerate() {
        let opts = SweepOptions {
            with_obs: true,
            journal: Some(path.clone()),
            shard: Some(Shard::new(index as u32, 2).unwrap()),
            workers: 2,
            ..SweepOptions::default()
        };
        let report = run_sweep(&jobs, &opts, |_, _| {}).unwrap();
        assert!(report.is_success());
    }

    let merged_path = dir.join("merged.jsonl");
    merge_journals(&shard_paths, &merged_path).unwrap();
    let merged = std::fs::read_to_string(&merged_path).unwrap();
    let entries = latest_entries(&merged);
    assert_eq!(entries.len(), jobs.len());
    for job in &jobs {
        let entry = &entries[&job.key()];
        let journaled = entry.obs.expect("ok entry under --with-obs carries obs");
        let (_, direct) = job.simulate_rollup(None).expect("valid job");
        assert_eq!(
            journaled,
            direct,
            "journal round-trip altered {}",
            job.key()
        );
        // The JSON form itself round-trips bit-exactly.
        assert_eq!(ObsRollup::parse(&journaled.to_json()), Some(journaled));
    }

    // Resume against the merged journal: every job skips, and merging
    // the resumed journal back in leaves the obs-bearing ok lines as
    // winners (ok-over-skipped at matching config hash).
    let resumed_path = dir.join("resumed.jsonl");
    std::fs::copy(&merged_path, &resumed_path).unwrap();
    let opts = SweepOptions {
        with_obs: true,
        journal: Some(resumed_path.clone()),
        resume: true,
        ..SweepOptions::default()
    };
    let report = run_sweep(&jobs, &opts, |_, _| {}).unwrap();
    assert!(report
        .records
        .iter()
        .all(|r| r.status == dtexl::sweep::JobStatus::Skipped));
    let reunion = dir.join("reunion.jsonl");
    merge_journals(&[merged_path, resumed_path], &reunion).unwrap();
    let reunion_text = std::fs::read_to_string(&reunion).unwrap();
    for (key, entry) in latest_entries(&reunion_text) {
        assert_eq!(entry.status, "ok", "{key} lost its ok record");
        assert_eq!(entry.obs, entries[&key].obs, "{key} lost its rollup");
    }

    // Canon is blind to the rollups: a probe-free sweep canonicalizes
    // to the same bytes.
    let plain_path = dir.join("plain.jsonl");
    let opts = SweepOptions {
        journal: Some(plain_path.clone()),
        ..SweepOptions::default()
    };
    run_sweep(&jobs, &opts, |_, _| {}).unwrap();
    let plain = std::fs::read_to_string(&plain_path).unwrap();
    assert!(latest_entries(&plain).values().all(|e| e.obs.is_none()));
    assert_eq!(canon_text(&reunion_text), canon_text(&plain));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden `profile --diff` view of GTr at 96x64: decoupling the
/// barriers eliminates barrier waits wholesale (−100% on every unit
/// that had any) without moving a single busy cycle. The absolute
/// numbers re-use tests/obs_determinism.rs's goldens.
#[test]
fn golden_profile_diff_for_gtr_96x64() {
    let cfg = SimConfig::dtexl(Game::GravityTetris).with_resolution(96, 64);
    let rollup = FrameProfile::capture(&cfg).expect("valid config").rollup();

    // Spot-check the rollup against the golden stall table first.
    assert_eq!(rollup.coupled.busy(Stage::Fetch, 0), 2_520);
    assert_eq!(rollup.coupled.busy(Stage::Raster, 0), 2_173);
    assert_eq!(rollup.coupled.busy(Stage::EarlyZ, 0), 3_126);
    assert_eq!(rollup.coupled.busy(Stage::Fragment, 0), 105_406);
    assert_eq!(rollup.coupled.wait_barrier(Stage::Fragment, 1), 77_927);
    assert_eq!(rollup.coupled.busy(Stage::Fragment, 3), 85_194);
    assert_eq!(rollup.coupled.wait_upstream(Stage::Blend, 2), 130_825);
    assert_eq!(rollup.decoupled.wait_upstream(Stage::Blend, 1), 54_227);
    assert_eq!(
        rollup.decoupled.totals()[2],
        0,
        "pure decoupled composition has no barrier waits"
    );

    let table = stall_diff_table(&rollup.coupled, &rollup.decoupled, "decoupled vs coupled");
    let cell = |row: &str, col: &str| {
        table
            .get(row, col)
            .unwrap_or_else(|| panic!("missing cell {row}/{col}"))
    };

    // Busy work is schedule-composition-invariant: every busy delta is
    // exactly zero.
    for (stage, sc) in dtexl::obs::rollup::unit_order() {
        let row = dtexl::obs::perfetto::track_name(stage, sc);
        assert_eq!(cell(&row, "busy"), 0.0, "busy moved on {row}");
        assert_eq!(cell(&row, "busy%"), 0.0);
        // Barrier waits go to zero, so the percent delta is −100 on
        // every unit that had any and 0 on the rest.
        let barrier = cell(&row, "barrier");
        assert!(barrier <= 0.0);
        let pct = cell(&row, "barrier%");
        assert_eq!(pct, if barrier < 0.0 { -100.0 } else { 0.0 }, "{row}");
    }
    assert_eq!(cell("fragment/SC1", "barrier"), -77_927.0);
    assert_eq!(cell("early_z/SC1", "barrier"), -2_481.0);

    // The headline: total barrier-wait delta is the whole coupled
    // barrier bill, signed negative.
    let total_barrier: f64 = dtexl::obs::rollup::unit_order()
        .iter()
        .map(|&(stage, sc)| cell(&dtexl::obs::perfetto::track_name(stage, sc), "barrier"))
        .sum();
    assert_eq!(total_barrier, -(rollup.coupled.totals()[2] as f64));
}
