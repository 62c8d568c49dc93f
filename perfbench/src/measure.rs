//! The timed path: a discarded warm-up pass, set-up samples, then
//! passes until the run's time is spent. Only `run_sweep`, `Spool`,
//! `run_spool_worker`, `merge_journals` and `canon_text` run here.

use crate::check::{verify, Reference};
use crate::workload::Workload;
use crate::{median, quantile};
use dtexl::daemon::{run_spool_worker, WorkerOptions};
use dtexl::pipeline::PipelineConfig;
use dtexl::spool::{jobs_from_specs, JobSpec, Spool};
use dtexl::sweep::{
    canon_text, journal_line, merge_journals, run_sweep, JobMetrics, PrefixCache, Progress,
    ProgressKind, SweepJob, SweepOptions,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Retained-bytes budget of the sweeps' shared prefix cache.
pub const CACHE_BUDGET: u64 = 256 << 20;
/// Set-up samples taken right after the warm-up (one more precedes each
/// timed pass); `setup_s` is the median of all of them.
const SETUP_WARM_SAMPLES: usize = 10;
/// Set-ups timed together in one sample: the sweeps' set-up takes
/// microseconds, too little to time alone; the churn's takes about a
/// millisecond of file-system work, and batching it would multiply the
/// spool directories created and deleted, which slows the file system
/// down run after run.
fn setup_batch(workload: Workload) -> u32 {
    match workload {
        Workload::DaemonChurn => 1,
        _ => 200,
    }
}

/// The paper's Table II totals the simulated metrics are shown against.
const PAPER_L2_REDUCTION_PCT: f64 = 46.8;
const PAPER_SPEEDUP: f64 = 1.193;

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Result of a run: the JSON fields plus human-readable lines.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the measured phase.
    pub wall: Duration,
    /// Wall time of the `run_sweep` / `run_spool_worker` call alone.
    pub run_wall: Duration,
    /// Per-job elapsed time, by job key.
    pub job_elapsed: BTreeMap<String, Duration>,
    /// Largest per-job allocator high-water mark (bytes).
    pub peak_alloc: u64,
    /// `canon_text` of the pass's journal.
    pub canon: String,
    /// Journal lines the merge read (spool passes only).
    pub merged_lines: usize,
    /// Headline metrics and total L2 accesses of each successful job
    /// (direct sweeps only).
    pub results: BTreeMap<String, (JobMetrics, u64)>,
}

/// The inputs of one pass, built by the workload's set-up.
pub struct Prepared {
    pub jobs: Vec<SweepJob>,
    pub cache: Arc<PrefixCache>,
    /// The drained, pre-armed spool of the churn workload.
    pub spool: Option<Spool>,
}

/// The set-up a user pays before the first job dispatches. Sweeps:
/// materialize the specs, turn them into jobs, create the prefix
/// cache. Churn: additionally open a fresh spool under `work`, submit
/// the batch, accept it and request the drain.
pub fn prepare(workload: Workload, seed: u64, res: (u32, u32), work: &Path) -> Prepared {
    let specs = workload.specs(seed, res);
    let jobs = jobs_from_specs(&specs, &PipelineConfig::default());
    if workload != Workload::DaemonChurn {
        let cache = PrefixCache::new(Some(CACHE_BUDGET));
        return Prepared {
            jobs,
            cache,
            spool: None,
        };
    }
    let cache = PrefixCache::new(None);
    Prepared {
        jobs,
        cache,
        spool: Some(arm_spool(work, &specs)),
    }
}

/// Open a new spool under `work`, submit `specs`, accept them and
/// request the drain, so a worker runs the batch and exits.
pub fn arm_spool(work: &Path, specs: &[JobSpec]) -> Spool {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = work.join(format!("spool-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    let spool = Spool::open(dir).expect("the work directory is writable");
    spool.submit(specs).expect("a new spool takes the batch");
    let accepted = spool.accept_incoming();
    assert_eq!(accepted.accepted.len(), 1, "the batch is accepted");
    spool.request_drain().expect("the drain marker is writable");
    spool
}

impl Prepared {
    /// Remove the spool directory, if any (outside any timed span).
    pub fn discard(self) {
        if let Some(spool) = self.spool {
            let _ = std::fs::remove_dir_all(spool.root());
        }
    }
}

/// `Done` events of the spool worker's jobs: (key, elapsed, peak). The
/// progress hook is a plain `fn`, so its sink is a static.
static DONE: Mutex<Vec<(String, Duration, u64)>> = Mutex::new(Vec::new());

fn record_done(p: &Progress) {
    if p.kind == ProgressKind::Done {
        DONE.lock().expect("progress sink lock").push((
            p.key.clone(),
            p.elapsed,
            p.peak_alloc_bytes,
        ));
    }
}

fn sweep_options(cache: &Arc<PrefixCache>) -> SweepOptions {
    SweepOptions {
        workers: 1,
        keep_going: true,
        prefix_cache: Some(Arc::clone(cache)),
        ..SweepOptions::default()
    }
}

/// Run the prepared jobs straight through `run_sweep`.
pub fn sweep_pass(prep: &Prepared) -> Pass {
    let results = Mutex::new(BTreeMap::new());
    let started = Instant::now();
    let report = run_sweep(&prep.jobs, &sweep_options(&prep.cache), |job, result| {
        let entry = (JobMetrics::of(&result), result.total_l2_accesses());
        results
            .lock()
            .expect("results lock")
            .insert(job.key(), entry);
    })
    .expect("a sweep without a journal does no I/O");
    let run_wall = started.elapsed();
    let journal: String = report
        .records
        .iter()
        .map(|r| journal_line(r) + "\n")
        .collect();
    let canon = canon_text(&journal);
    let wall = started.elapsed();
    Pass {
        wall,
        run_wall,
        job_elapsed: report
            .records
            .iter()
            .map(|r| (r.key.clone(), r.elapsed))
            .collect(),
        peak_alloc: report
            .records
            .iter()
            .filter_map(|r| r.peak_alloc)
            .max()
            .unwrap_or(0),
        canon,
        merged_lines: 0,
        results: results.into_inner().expect("results lock"),
    }
}

/// Drain the prepared spool with one worker, then merge its journal
/// and render the canon view.
pub fn spool_pass(prep: &Prepared) -> Pass {
    let spool = prep
        .spool
        .as_ref()
        .expect("spool passes run on an armed spool");
    DONE.lock().expect("progress sink lock").clear();
    let opts = WorkerOptions {
        poll: Duration::from_millis(1),
        sweep: SweepOptions {
            journal: Some(spool.shard_journal(0)),
            progress: Some(record_done),
            progress_heartbeat: Duration::ZERO,
            ..sweep_options(&prep.cache)
        },
        ..WorkerOptions::default()
    };
    let started = Instant::now();
    let report = run_spool_worker(spool, &opts).expect("the spool journal is writable");
    let run_wall = started.elapsed();
    let stats = merge_journals(&[spool.shard_journal(0)], &spool.merged_journal())
        .expect("the worker's journal merges");
    let merged = std::fs::read_to_string(spool.merged_journal()).expect("merged journal reads");
    let canon = canon_text(&merged);
    let wall = started.elapsed();
    assert_eq!(
        report.jobs_run,
        prep.jobs.len(),
        "the worker runs the whole batch"
    );
    let done = std::mem::take(&mut *DONE.lock().expect("progress sink lock"));
    Pass {
        wall,
        run_wall,
        peak_alloc: done.iter().map(|d| d.2).max().unwrap_or(0),
        job_elapsed: done.into_iter().map(|(k, e, _)| (k, e)).collect(),
        canon,
        merged_lines: stats.lines,
        results: BTreeMap::new(),
    }
}

/// Run the workload's own timed path once.
pub fn pass(workload: Workload, prep: &Prepared) -> Pass {
    match workload {
        Workload::DaemonChurn => spool_pass(prep),
        _ => sweep_pass(prep),
    }
}

/// Mean over (game, frame) pairs of the total-L2 cut and the
/// baseline-coupled vs DTexL-decoupled speedup. `results` maps job
/// keys to (metrics, total L2 accesses).
fn paper_metrics(results: &BTreeMap<String, (JobMetrics, u64)>) -> (f64, f64) {
    let base_label = dtexl::sched::ScheduleConfig::baseline().label();
    let dtexl_label = dtexl::sched::ScheduleConfig::dtexl().label();
    let (mut cut, mut speedup, mut n) = (0.0, 0.0, 0.0);
    for (key, (base, base_l2)) in results {
        let parts: Vec<&str> = key.split('|').collect();
        if parts.len() != 4 || parts[1] != base_label {
            continue;
        }
        let dkey = format!("{}|{dtexl_label}|{}|{}", parts[0], parts[2], parts[3]);
        if let Some((dt, dt_l2)) = results.get(&dkey) {
            cut += 100.0 * (1.0 - *dt_l2 as f64 / *base_l2 as f64);
            speedup += base.coupled_cycles as f64 / dt.decoupled_cycles as f64;
            n += 1.0;
        }
    }
    assert!(n > 0.0, "the workload pairs baseline and DTexL jobs");
    (cut / n, speedup / n)
}

/// Untimed baseline + DTexL simulation of every (game, frame) of the
/// churn batch, for the simulated metrics: the churn itself runs DTexL
/// only. Both legs share a prefix, as in a memoized sweep.
fn churn_paper_results(jobs: &[SweepJob]) -> BTreeMap<String, (JobMetrics, u64)> {
    let cache = PrefixCache::new(None);
    let mut out = BTreeMap::new();
    for job in jobs {
        for schedule in [dtexl::sched::ScheduleConfig::baseline(), job.schedule] {
            let leg = SweepJob { schedule, ..*job };
            let result = leg
                .simulate_with(Some(&cache))
                .expect("churn jobs simulate");
            out.insert(
                leg.key(),
                (JobMetrics::of(&result), result.total_l2_accesses()),
            );
        }
    }
    out
}

/// Where the benchmark writes, under the directory it runs from.
pub const WORK_ROOT: &str = ".bench_work";

/// The run's own work directory for `workload`.
pub fn work_dir(workload: Workload) -> PathBuf {
    Path::new(WORK_ROOT).join(format!("{}-{}", workload.name(), std::process::id()))
}

/// Remove the run's work directory, and the work root once it is empty.
pub fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(WORK_ROOT);
}

/// A timed run: one discarded warm-up pass, `setup_s` from repeated
/// set-ups, then passes until `seconds` are spent; every pass is checked.
pub fn run(workload: Workload, seed: u64, seconds: u64, reference: &Reference) -> Outcome {
    let dir = work_dir(workload);
    let res = workload.resolution();
    let mut out = Outcome::default();

    let check = |pass: &Pass, prep: &Prepared, out: &mut Outcome| {
        let verdict = verify(reference, &pass.canon, &prep.jobs, seed);
        out.attempted += prep.jobs.len() as u64;
        out.failed += verdict.failed.len() as u64;
        for key in verdict.failed.iter().take(5) {
            out.notes.push(format!(
                "FAILED {key}: result missing or differs from the reference"
            ));
        }
        verdict
    };

    // Warm-up: fills the allocator's pools and the page cache; its
    // results are checked but not timed.
    let prep = prepare(workload, seed, res, &dir);
    let warm = pass(workload, &prep);
    check(&warm, &prep, &mut out);
    let results = match workload {
        Workload::DaemonChurn => churn_paper_results(&prep.jobs),
        _ => warm.results,
    };
    let (cut, speedup) = paper_metrics(&results);

    // Set-up samples: a few after the warm-up, then one before each
    // timed pass, so they spread over the run like the passes do.
    let setup_sample = || {
        let n = setup_batch(workload);
        let started = Instant::now();
        let batch: Vec<Prepared> = (0..n).map(|_| prepare(workload, seed, res, &dir)).collect();
        let took = started.elapsed().as_secs_f64() / f64::from(n);
        batch.into_iter().for_each(Prepared::discard);
        took
    };
    let mut setups: Vec<f64> = (0..SETUP_WARM_SAMPLES).map(|_| setup_sample()).collect();

    let budget = Duration::from_secs(seconds);
    let mut spent = Duration::ZERO;
    let mut rates = Vec::new();
    let mut job_ms = Vec::new();
    let mut peak = 0u64;
    let mut verdict = None;
    let jobs = prep.jobs.len();
    prep.discard();
    while rates.is_empty() || spent < budget {
        setups.push(setup_sample());
        let prep = prepare(workload, seed, res, &dir);
        let p = pass(workload, &prep);
        spent += p.wall;
        rates.push(prep.jobs.len() as f64 / p.wall.as_secs_f64());
        job_ms.extend(p.job_elapsed.values().map(|d| d.as_secs_f64() * 1e3));
        peak = peak.max(p.peak_alloc);
        verdict = Some(check(&p, &prep, &mut out));
        prep.discard();
    }
    remove_work_dir(&dir);
    let verdict = verdict.expect("at least one timed pass");

    let p50 = quantile(&job_ms, 0.5);
    let p90 = quantile(&job_ms, 0.9);
    out.metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("jobs_per_s", median(&rates), "1/s"),
        ("job_ms_p50", p50, "ms"),
        ("job_ms_p90", p90, "ms"),
        ("peak_alloc_mib", peak as f64 / (1024.0 * 1024.0), "MiB"),
        ("sim_l2_reduction_pct", cut, "%"),
        ("sim_speedup", speedup, "x"),
    ];
    out.notes.extend([
        format!(
            "{} passes of {} jobs in {:.2} s; {} job samples, {} beyond p90",
            rates.len(),
            jobs,
            spent.as_secs_f64(),
            job_ms.len(),
            job_ms.iter().filter(|&&v| v > p90).count()
        ),
        format!(
            "job_fail_pct {:.3} % ({} of {} attempted, warm-up included)",
            100.0 * out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ),
        format!(
            "check: {} jobs against the reference, {} re-simulated fresh, {} unchecked per pass",
            verdict.by_reference, verdict.by_fresh, verdict.unchecked
        ),
        format!(
            "sim_l2_reduction_pct {cut:.2} (paper {PAPER_L2_REDUCTION_PCT}, error {:+.2} pt)",
            cut - PAPER_L2_REDUCTION_PCT
        ),
        format!(
            "sim_speedup {speedup:.4} (paper {PAPER_SPEEDUP}, error {:+.2} %)",
            100.0 * (speedup / PAPER_SPEEDUP - 1.0)
        ),
    ]);
    out
}
