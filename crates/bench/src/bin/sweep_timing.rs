//! Wall-clock timing of the quick experiment sweep.
//!
//! Two modes:
//!
//! * **Default** — runs [`Lab::all_figures`] over [`Setup::quick`] with
//!   the Lab's job fan-out pinned to a single thread:
//!
//!   ```text
//!   cargo run --release -p dtexl-bench --bin sweep_timing
//!   ```
//!
//! * **`--quick [--out BENCH_sweep.json] [--no-memoize] [--spool]`** —
//!   runs the canonical 20-job quick sweep (all ten games ×
//!   baseline,dtexl at 480x192) through the sweep engine with one
//!   worker, and writes a JSON benchmark report with the total
//!   wall-clock plus per-job wall time and allocator high-water marks.
//!   `cargo xtask bench-compare` diffs two of these reports for the CI
//!   perf gate. Prefix memoization is on by default — it is what the
//!   perf gate measures — and `--no-memoize` runs every job from
//!   scratch (metrics are bit-identical either way; CI diffs `sweep
//!   canon` over both). `--spool` routes the same jobs through the
//!   daemon machinery instead of a direct `run_sweep` call — submitted
//!   as a content-addressed batch to a scratch spool, accepted, and
//!   drained by `run_spool_worker` — so the spool/daemon hot path sits
//!   under the identical deterministic peak-alloc gate (job keys are
//!   the same, so one baseline gates both legs).

use dtexl::daemon::{run_spool_worker, WorkerOptions};
use dtexl::experiments::{Lab, Setup};
use dtexl::spool::{JobSpec, Spool};
use dtexl::sweep::{
    json_escape, run_sweep, JobRecord, PrefixCache, Progress, ProgressKind, SweepJob, SweepOptions,
};
use dtexl_scene::Game;
use dtexl_sched::ScheduleConfig;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let quick = take_flag(&mut args, "--quick");
    let out = take_value(&mut args, "--out");
    let no_memoize = take_flag(&mut args, "--no-memoize");
    let spool = take_flag(&mut args, "--spool");
    if !args.is_empty() {
        eprintln!("unrecognized arguments: {args:?}");
        std::process::exit(1);
    }
    if quick {
        bench_quick_sweep(out.as_deref(), !no_memoize, spool);
    } else if spool {
        eprintln!("--spool requires --quick");
        std::process::exit(1);
    } else {
        bench_all_figures();
    }
}

fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    args.iter()
        .position(|a| a == name)
        .map(|i| args.remove(i))
        .is_some()
}

fn take_value(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        args.remove(i);
        return None;
    }
    args.remove(i);
    Some(args.remove(i))
}

fn bench_all_figures() {
    let setup = Setup {
        threads: 1,
        ..Setup::quick()
    };
    let start = Instant::now();
    let lab = Lab::new(setup);
    let figures = lab.all_figures();
    let elapsed = start.elapsed();
    let rows: usize = figures.iter().map(|t| t.rows.len()).sum();
    println!(
        "quick sweep: {} tables / {} rows, {:.3} s",
        figures.len(),
        rows,
        elapsed.as_secs_f64()
    );
}

/// The canonical 20-job quick sweep, timed job-by-job through either
/// the direct sweep engine or (`--spool`) the daemon's spool-worker
/// path. One worker so the per-job wall times are not fighting each
/// other for cores; the journal-visible metrics are bit-identical
/// regardless.
fn bench_quick_sweep(out: Option<&str>, memoize: bool, through_spool: bool) {
    let jobs: Vec<SweepJob> = Game::ALL
        .into_iter()
        .flat_map(|game| {
            [ScheduleConfig::baseline(), ScheduleConfig::dtexl()]
                .into_iter()
                .map(move |schedule| SweepJob::new(game, schedule, false, 480, 192, 0))
        })
        .collect();
    let opts = SweepOptions {
        workers: 1,
        keep_going: true,
        // The job list keeps each game's two legs back to back (the
        // spool path sorts specs per game too), so one live entry at a
        // time suffices; unbounded keeps the bench independent of list
        // order.
        prefix_cache: memoize.then(|| PrefixCache::new(None)),
        ..SweepOptions::default()
    };
    let start = Instant::now();
    let rows = if through_spool {
        bench_through_spool(opts)
    } else {
        let report = match run_sweep(&jobs, &opts, |_, _| {}) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("sweep failed: {e}");
                std::process::exit(1);
            }
        };
        if !report.is_success() {
            eprintln!("{}", report.summary());
            std::process::exit(1);
        }
        report
            .records
            .iter()
            .map(|r: &JobRecord| {
                (
                    r.key.clone(),
                    r.elapsed.as_millis() as u64,
                    r.peak_alloc.unwrap_or(0),
                )
            })
            .collect()
    };
    let total = start.elapsed();

    let mut json = format!("{{\"total_wall_ms\":{},\"jobs\":[", total.as_millis());
    for (i, (key, wall_ms, peak)) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\n  {{\"key\":\"{}\",\"wall_ms\":{wall_ms},\"peak_alloc_bytes\":{peak}}}",
            json_escape(key),
        ));
    }
    json.push_str("\n]}\n");

    match out {
        Some(path) => {
            let write = std::fs::File::create(path)
                .and_then(|f| std::io::BufWriter::new(f).write_all(json.as_bytes()));
            if let Err(e) = write {
                eprintln!("write {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "quick sweep{}: {} jobs, {:.3} s -> {path}",
                if through_spool { " (spool path)" } else { "" },
                rows.len(),
                total.as_secs_f64()
            );
        }
        None => print!("{json}"),
    }
}

/// Done events captured from the spool worker's progress stream —
/// per-job wall time and allocator peak live there, since the worker
/// consumes its own `JobRecord`s. A static because `SweepOptions`
/// takes a plain fn pointer.
static DONE_EVENTS: Mutex<Vec<(String, u64, u64)>> = Mutex::new(Vec::new());

fn record_done(p: &Progress) {
    if matches!(p.kind, ProgressKind::Done) {
        if let Ok(mut done) = DONE_EVENTS.lock() {
            done.push((
                p.key.clone(),
                p.elapsed.as_millis() as u64,
                p.peak_alloc_bytes,
            ));
        }
    }
}

/// Run the canonical quick jobs through the daemon machinery: submit
/// them as one content-addressed batch to a scratch spool, accept it,
/// pre-arm the drain marker, and let `run_spool_worker` drain the
/// queue. Rows come back in completion order (the worker's canonical
/// sorted-batch order).
fn bench_through_spool(mut sweep: SweepOptions) -> Vec<(String, u64, u64)> {
    let specs: Vec<JobSpec> = Game::ALL
        .into_iter()
        .flat_map(|game| {
            ["baseline", "dtexl"].into_iter().map(move |schedule| {
                JobSpec::new(game.alias(), schedule, 480, 192, 0, false)
                    .expect("canonical quick specs are valid")
            })
        })
        .collect();
    let root = std::env::temp_dir().join(format!("dtexl-bench-spool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let fail = |what: &str, e: String| -> ! {
        eprintln!("{what}: {e}");
        std::process::exit(1);
    };
    let spool = match Spool::open(&root) {
        Ok(s) => s,
        Err(e) => fail("open scratch spool", e.to_string()),
    };
    if let Err(e) = spool.submit(&specs) {
        fail("submit bench batch", e.to_string());
    }
    let accepted = spool.accept_incoming();
    if accepted.accepted.len() != 1 {
        fail("accept bench batch", format!("{accepted:?}"));
    }
    // Drain is pre-armed: the worker runs one generation and exits.
    if let Err(e) = spool.request_drain() {
        fail("arm drain marker", e.to_string());
    }
    sweep.journal = Some(root.join("bench.jsonl"));
    sweep.progress = Some(record_done as fn(&Progress));
    let wopts = WorkerOptions {
        sweep,
        ..WorkerOptions::default()
    };
    let report = match run_spool_worker(&spool, &wopts) {
        Ok(r) => r,
        Err(e) => fail("spool worker", e.to_string()),
    };
    if report.exit_code() != 0 || report.jobs_run != specs.len() {
        fail("spool worker", format!("incomplete drain: {report:?}"));
    }
    let _ = std::fs::remove_dir_all(&root);
    let rows = DONE_EVENTS.lock().map(|d| d.clone()).unwrap_or_default();
    if rows.len() != specs.len() {
        fail(
            "spool worker progress stream",
            format!("{} done events for {} jobs", rows.len(), specs.len()),
        );
    }
    rows
}
