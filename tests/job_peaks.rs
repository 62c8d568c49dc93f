//! Per-job allocator peaks of the canonical quick sweep (ten games ×
//! baseline, dtexl at 480x192, one worker, unbounded prefix cache),
//! gated against pinned values on the direct `run_sweep` path and on
//! the spool-worker path (submit → accept → drain), whose peaks are
//! read back from the worker's journal.
//!
//! The counting allocator charges only the thread running the job, so
//! each peak is a deterministic property of the simulation: the same
//! bytes in the debug and the release profile, on either path, and
//! whether the attempt runs inline on its worker or on a watched
//! job thread. A job that peaks more than [`BOUND`] × its pin fails
//! the test. Wall-clock timing is perfbench's concern (`perfbench/`).

use dtexl::daemon::{run_spool_worker, WorkerOptions};
use dtexl::spool::{JobSpec, Spool};
use dtexl::sweep::{latest_entries, run_sweep, PrefixCache, SweepJob, SweepOptions};
use dtexl_scene::Game;
use dtexl_sched::ScheduleConfig;
use std::collections::BTreeMap;
use std::time::Duration;

const W: u32 = 480;
const H: u32 = 192;

/// A job fails the gate when its peak exceeds its pin × 5/4.
const BOUND: (u64, u64) = (5, 4);

/// Peak allocator bytes per job key. Each game's FG (baseline) leg
/// runs first and builds the frame prefix; its CG (dtexl) leg reuses
/// the cached prefix and peaks at the leg alone.
const PINNED: [(&str, u64); 20] = [
    ("CCS|FG-xshift2/Z-order/const|base|480x192#0", 3_271_328),
    ("CCS|CG-square/Hilbert/flp2|base|480x192#0", 812_228),
    ("SoD|FG-xshift2/Z-order/const|base|480x192#0", 1_170_404),
    ("SoD|CG-square/Hilbert/flp2|base|480x192#0", 438_020),
    ("TRu|FG-xshift2/Z-order/const|base|480x192#0", 1_180_012),
    ("TRu|CG-square/Hilbert/flp2|base|480x192#0", 440_744),
    ("SWa|FG-xshift2/Z-order/const|base|480x192#0", 1_054_204),
    ("SWa|CG-square/Hilbert/flp2|base|480x192#0", 432_620),
    ("CRa|FG-xshift2/Z-order/const|base|480x192#0", 1_180_260),
    ("CRa|CG-square/Hilbert/flp2|base|480x192#0", 444_620),
    ("RoK|FG-xshift2/Z-order/const|base|480x192#0", 3_509_468),
    ("RoK|CG-square/Hilbert/flp2|base|480x192#0", 877_332),
    ("DDS|FG-xshift2/Z-order/const|base|480x192#0", 1_108_000),
    ("DDS|CG-square/Hilbert/flp2|base|480x192#0", 434_492),
    ("Snp|FG-xshift2/Z-order/const|base|480x192#0", 1_131_640),
    ("Snp|CG-square/Hilbert/flp2|base|480x192#0", 438_144),
    ("Mze|FG-xshift2/Z-order/const|base|480x192#0", 1_226_240),
    ("Mze|CG-square/Hilbert/flp2|base|480x192#0", 455_344),
    ("GTr|FG-xshift2/Z-order/const|base|480x192#0", 1_595_844),
    ("GTr|CG-square/Hilbert/flp2|base|480x192#0", 455_532),
];

fn options() -> SweepOptions {
    SweepOptions {
        workers: 1,
        keep_going: true,
        prefix_cache: Some(PrefixCache::new(None)),
        ..SweepOptions::default()
    }
}

/// Every pinned job ran, and none peaked above its bound.
fn assert_within_bounds(path: &str, peaks: &BTreeMap<String, u64>) {
    let pinned: BTreeMap<&str, u64> = PINNED.into_iter().collect();
    assert_eq!(
        peaks.keys().map(String::as_str).collect::<Vec<_>>(),
        pinned.keys().copied().collect::<Vec<_>>(),
        "{path}: the quick sweep ran other jobs than the pinned ones"
    );
    let over: Vec<String> = peaks
        .iter()
        .filter(|(key, &peak)| peak * BOUND.1 > pinned[key.as_str()] * BOUND.0)
        .map(|(key, peak)| format!("{key}: {peak} B against {} B pinned", pinned[key.as_str()]))
        .collect();
    assert!(
        over.is_empty(),
        "{path}: {} job(s) peaked over {}/{} of their pin:\n{}",
        over.len(),
        BOUND.0,
        BOUND.1,
        over.join("\n")
    );
}

/// Per-job peaks of the quick sweep straight through `run_sweep`.
fn direct_sweep_peaks(opts: &SweepOptions) -> BTreeMap<String, u64> {
    let jobs: Vec<SweepJob> = Game::ALL
        .into_iter()
        .flat_map(|game| {
            [ScheduleConfig::baseline(), ScheduleConfig::dtexl()]
                .into_iter()
                .map(move |schedule| SweepJob::new(game, schedule, false, W, H, 0))
        })
        .collect();
    let report = run_sweep(&jobs, opts, |_, _| {}).unwrap();
    assert!(report.is_success(), "{}", report.summary());
    report
        .records
        .iter()
        .map(|r| (r.key.clone(), r.peak_alloc.unwrap()))
        .collect()
}

#[test]
fn direct_sweep_peaks_stay_within_their_pins() {
    assert_within_bounds("run_sweep", &direct_sweep_peaks(&options()));
}

/// A timeout puts every attempt on a watched job thread instead of the
/// worker itself; the job allocates the same bytes either way.
#[test]
fn watched_sweep_peaks_equal_the_inline_peaks_and_their_pins() {
    let inline = direct_sweep_peaks(&options());
    let watched = direct_sweep_peaks(&SweepOptions {
        job_timeout: Some(Duration::from_secs(600)),
        ..options()
    });
    assert_eq!(watched, inline, "watched against inline peaks");
    let pinned: BTreeMap<String, u64> = PINNED.into_iter().map(|(k, p)| (k.into(), p)).collect();
    assert_eq!(watched, pinned, "watched peaks against their pins");
}

#[test]
fn spool_worker_peaks_stay_within_their_pins() {
    let specs: Vec<JobSpec> = Game::ALL
        .into_iter()
        .flat_map(|game| {
            ["baseline", "dtexl"]
                .into_iter()
                .map(move |schedule| JobSpec::new(game.alias(), schedule, W, H, 0, false).unwrap())
        })
        .collect();
    let root = std::env::temp_dir().join(format!("dtexl_job_peaks_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spool = Spool::open(&root).unwrap();
    spool.submit(&specs).unwrap();
    assert_eq!(spool.accept_incoming().accepted.len(), 1);
    // Drain is pre-armed: the worker runs one generation and exits.
    spool.request_drain().unwrap();
    let journal = root.join("worker.jsonl");
    let opts = WorkerOptions {
        sweep: SweepOptions {
            journal: Some(journal.clone()),
            ..options()
        },
        ..WorkerOptions::default()
    };
    let report = run_spool_worker(&spool, &opts).unwrap();
    assert_eq!(
        (report.exit_code(), report.jobs_run),
        (0, specs.len()),
        "{report:?}"
    );
    let text = std::fs::read_to_string(&journal).unwrap();
    std::fs::remove_dir_all(&root).unwrap();
    let peaks = latest_entries(&text)
        .into_iter()
        .map(|(key, e)| (key, e.peak_alloc_bytes.unwrap()))
        .collect();
    assert_within_bounds("spool worker", &peaks);
}
