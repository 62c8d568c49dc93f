//! `dtexl` — command-line interface to the DTexL simulator.
//!
//! ```text
//! dtexl list
//! dtexl sim         --game GTr [--schedule dtexl] [--res 1960x768]
//!                   [--frames N] [--threads N] [--coupled]
//! dtexl sweep       [--games all|CSV] [--schedules baseline,dtexl]
//!                   [--res 1960x768] [--journal sweep.jsonl] [--resume]
//!                   [--keep-going] [--job-timeout SECS] [--retries N]
//!                   [--backoff-ms N] [--upper] [--threads N]
//!                   [--shard i/N] [--job-mem-budget MB] [--table]
//!                   [--progress] [--progress-to FILE] [--heartbeat-ms N]
//!                   [--memoize [--memoize-budget MB]] [--with-obs]
//!                   [--stall-key SUBSTR --stall-ms N]
//! dtexl sweep dispatch [--shards N] [--wedge-timeout SECS]
//!                   [--max-restarts N] [--restart-backoff-ms N]
//!                   [--poison-threshold N] [--shard-mem-limit MB]
//!                   [--workdir DIR] [--out merged.jsonl] [--poll-ms N]
//!                   [+ the sweep job flags above]
//! dtexl sweep submit --spool DIR [--games all|CSV]
//!                   [--schedules baseline,dtexl] [--res 1960x768]
//!                   [--frame N] [--upper]
//! dtexl sweep daemon --spool DIR [--shards N] [--spool-poll-ms N]
//!                   [+ the dispatch supervision flags]
//!                   [+ the per-job sweep flags, minus the axes]
//! dtexl sweep status --spool DIR [--metrics]
//! dtexl sweep merge <journals...> --out merged.jsonl
//! dtexl sweep canon <journal>
//! dtexl profile     --game CCS [--schedule dtexl] [--res 1960x768]
//!                   [--trace-out frame.json] [--rollup-out rollup.json]
//!                   [--csv]
//! dtexl profile --diff A B  (operands: coupled | decoupled |
//!                   PATH[@coupled|@decoupled]) [+ the profile flags]
//! dtexl render      --game SoD --out frame.ppm [--res 980x384]
//! dtexl characterize [--res 1960x768]
//! dtexl trace-save  --game CCS --out frame.dtxl [--res 1960x768]
//! dtexl trace-sim   --in frame.dtxl [--schedule dtexl] [--res 1960x768]
//! ```
//!
//! `--threads N` (default 1) sets how many jobs `sweep` runs at once
//! and how many frames `sim --frames` simulates at once; each frame is
//! one serial simulation, so results do not depend on it.
//!
//! `dtexl --help` lists the commands, and `dtexl <command> --help`
//! (`-h` alike, `sweep` subcommands included) prints a command's flags.
//!
//! `--format json` (any command) switches error reporting to one JSON
//! object per line on stderr; `sweep` also emits its per-job records as
//! JSON lines on stdout.
//!
//! `sweep --shard i/N` runs only the jobs a stable hash of the job key
//! assigns to shard `i` of `N`; `sweep merge` unions shard journals
//! back into one (last-wins per key, typed error on divergent records)
//! and `sweep canon` prints a journal's latest `ok` records in a
//! canonical `key|config_hash|coupled|decoupled|l2` form for diffing.
//! `sweep --job-mem-budget MB` bounds each job's allocator high-water
//! mark (exceeding it is a journaled, non-retried `mem_budget` error).
//! `sweep --progress` streams one JSON line per job lifecycle event
//! (start/attempt/retry/heartbeat/done, with live `peak_alloc_bytes`
//! and the emitter's `shard`/`pid`/`seq`) to stderr; `--progress-to
//! FILE` sends the stream to a file instead (flushed per line, so a
//! supervisor can tail it); `--heartbeat-ms` tunes the in-flight beat
//! interval and `--heartbeat-ms 0` disables heartbeats (other events
//! still flow). `--stall-key SUBSTR --stall-ms N` injects a wall-clock
//! stall into every job whose key contains the substring — a
//! supervision test hook honoured by `sweep` and `sweep --spool` alike
//! (the stall is part of the jobs' fault plans, so it changes their
//! config hashes).
//! `sweep --memoize` shares the schedule-independent frame prefix
//! (geometry, binning, raster, early-Z, texture footprints) across the
//! jobs that differ only in schedule — metrics are bit-identical with
//! or without it; `--memoize-budget MB` bounds the cache's retained
//! bytes (default: the `--job-mem-budget` value, else unbounded).
//! `sweep --with-obs` attaches the rollup probes to every job and
//! journals an `obs` object per record — the per-(SC, stage)
//! busy/wait cycle totals under both barrier modes plus the frame's
//! L1/L2/DRAM counters (bit-identical with or without `--memoize`;
//! `sweep canon` output is unchanged). `done` progress
//! events then carry the job's dominant stall category (`top_stall`)
//! and `dram_requests`.
//!
//! `profile` simulates one frame with the observability probes of
//! `dtexl-obs` attached and prints the stall-attribution tables (busy
//! vs barrier-wait vs upstream-wait cycles per (SC, stage) unit, under
//! both barrier modes); `--trace-out` additionally writes a
//! Chrome-trace JSON viewable at <https://ui.perfetto.dev>, with one
//! track per unit, and `--rollup-out` writes the journal-form rollup
//! JSON (the same object `sweep --with-obs` journals). Events carry
//! simulated cycles only, so the output is deterministic.
//! `profile --diff A B` prints the per-unit stall
//! delta (signed cycles and percent change) between two rollups: an
//! operand is `coupled`/`decoupled` (the two barrier modes of one
//! live capture) or `PATH[@MODE]` (an exported rollup file, mode
//! defaulting to coupled).
//!
//! `sweep daemon` runs the sweep as a self-healing fleet of child
//! processes — one `dtexl sweep --spool DIR --shard i/N` worker per
//! shard, each resuming its own journal — under a supervisor that
//! tails their progress streams, kills and restarts wedged shards
//! (`--wedge-timeout`), restarts crashed/OOM-killed ones with
//! exponential backoff (`--restart-backoff-ms`, capped by
//! `--max-restarts`), quarantines jobs blamed for `--poison-threshold`
//! shard deaths as typed `poisoned` journal records, and enforces
//! `--shard-mem-limit` at the process boundary (cgroup-v2 `memory.max`
//! when writable, else polled RSS). Workers always keep going: a
//! self-healing fleet attempts every job. `--threads` here sets each
//! *worker's* thread count (default 1, so a death blames exactly the
//! in-flight job). `sweep dispatch` is the same daemon on a pre-armed
//! spool in `--workdir`: its axes are submitted as one batch and
//! accepted with the drain already requested, so the fleet drains that
//! batch and exits, and `--out` receives a copy of the merged journal.
//! Both commands share one parser for these flags.
//!
//! The daemon runs over a durable *spool* directory: `sweep
//! submit` atomically drops content-addressed batches of job specs
//! into `<spool>/incoming/` (re-submitting the same batch is a
//! reported no-op), the daemon validates and accepts them *while
//! running* — healthy workers pick up new jobs between spool scans
//! without being restarted — and an incremental merger tails the
//! shard journals so `<spool>/merged.jsonl` and `<spool>/merged.canon`
//! are live views (a crash loses no completed work; restarting the
//! daemon resumes exactly). Supervision state is published to
//! `<spool>/status.json` (atomically swapped; also served on the
//! `<spool>/status.sock` unix socket) and `sweep status` pretty-prints
//! it (`--format json` passes the raw document through). The daemon
//! also keeps a Prometheus text-format metrics document live at
//! `<spool>/metrics.prom` (atomically swapped; `sweep status
//! --metrics` prints it, and sending `metrics\n` to the status socket
//! returns the same text — see docs/OBSERVABILITY.md for the metric
//! inventory). SIGTERM or
//! SIGINT — or `touch <spool>/drain` from anywhere — triggers a
//! graceful drain: in-flight jobs finish, the merge is flushed, and a
//! terminal status (`drained`/`stopped`, `alive:false`) is written.
//! Workers are `dtexl sweep --spool DIR` processes: the spool replaces
//! the `--games`/`--schedules` axes as the source of jobs, and
//! `--spool-poll-ms` sets the idle rescan interval.
//!
//! Exit codes: `0` success; `1` error or aborted sweep; `2` sweep
//! completed with failures (`--keep-going`). `sweep dispatch` and
//! `sweep daemon`: `0` every job ok; `2` completed with failed (incl.
//! poisoned) jobs; `1` a shard gave up, jobs are missing from the
//! merge, or the merge diverged/failed. `sweep submit`: `0` batch
//! accepted *or* an exact duplicate of one already spooled; `1`
//! invalid specs or spool I/O error.

use dtexl::characterize::characterize_all;
use dtexl::daemon::{
    run_daemon, run_spool_worker, DaemonOptions, DaemonReport, DaemonStatus, WorkerOptions,
};
use dtexl::dispatch::{DispatchOptions, FleetSpec};
use dtexl::obs::json::{escape, str_array};
use dtexl::obs::{ObsRollup, StallRollup};
use dtexl::profile::{stall_diff_table, FrameProfile};
use dtexl::spool::{jobs_from_specs, JobSpec, Spool};
use dtexl::sweep::{
    canon_text, journal_line, merge_journals, JobError, PrefixCache, Progress, RetryPolicy, Shard,
    SweepJob, SweepOptions,
};
use dtexl::{SimConfig, Simulator, CLOCK_HZ};
use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig, Renderer};
use dtexl_scene::{Game, Scene, SceneSpec};
use dtexl_sched::{NamedMapping, ScheduleConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::{Mutex, OnceLock};

mod args;
mod help;
mod signals;

use args::Args;

/// How errors and sweep records are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut args = Args::parse(std::env::args().skip(1));
    // `--format` is global: take it before dispatch so every error —
    // including argument errors — honors it.
    let format = match args.value("--format").as_deref() {
        None | Some("text") => Format::Text,
        Some("json") => Format::Json,
        Some(other) => {
            eprintln!("error: bad --format '{other}', expected text or json");
            return ExitCode::FAILURE;
        }
    };
    let help = args.flag("--help") | args.flag("-h");
    let Some(command) = args.subcommand() else {
        if help {
            println!("{}", help::TOP);
            return ExitCode::SUCCESS;
        }
        report_error(format, usage());
        return ExitCode::FAILURE;
    };
    if help {
        let command = match args.subcommand() {
            Some(sub) if command == "sweep" => format!("sweep {sub}"),
            _ => command,
        };
        let Some(text) = help::command(&command) else {
            report_error(format, &format!("unknown command '{command}'\n{}", usage()));
            return ExitCode::FAILURE;
        };
        println!("{text}");
        return ExitCode::SUCCESS;
    }
    let result = match command.as_str() {
        "list" => cmd_list().map(|()| ExitCode::SUCCESS),
        "sim" => cmd_sim(&mut args).map(|()| ExitCode::SUCCESS),
        "sweep" => cmd_sweep(&mut args, format),
        "profile" => cmd_profile(&mut args).map(|()| ExitCode::SUCCESS),
        "render" => cmd_render(&mut args).map(|()| ExitCode::SUCCESS),
        "characterize" => cmd_characterize(&mut args).map(|()| ExitCode::SUCCESS),
        "trace-save" => cmd_trace_save(&mut args).map(|()| ExitCode::SUCCESS),
        "trace-sim" => cmd_trace_sim(&mut args).map(|()| ExitCode::SUCCESS),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            report_error(format, &e);
            ExitCode::FAILURE
        }
    }
}

/// Print an error as plain text or as a single JSON line on stderr.
fn report_error(format: Format, message: &str) {
    match format {
        Format::Text => eprintln!("error: {message}"),
        Format::Json => eprintln!("{{\"error\":\"{}\"}}", escape(message)),
    }
}

fn usage() -> &'static str {
    "usage: dtexl <list|sim|sweep|profile|render|characterize|trace-save|trace-sim> [options]\n\
     run `dtexl --help` for the commands, `dtexl list` for games and schedules"
}

fn cmd_list() -> Result<(), String> {
    println!("games (Table I):");
    for g in Game::ALL {
        let info = g.info();
        println!(
            "  {:4} {} ({}, {} MiB textures, {})",
            g.alias(),
            info.title,
            if info.is_3d { "3D" } else { "2D" },
            info.texture_footprint_mib,
            format!("{:?}", info.genre).to_lowercase(),
        );
    }
    println!("\nschedules:");
    println!("  baseline  FG-xshift2 / Z-order / const (coupled barriers)");
    println!("  dtexl     CG-square / Hilbert / flp2 (decoupled barriers)");
    for m in NamedMapping::FIG16 {
        println!("  {:13} {}", m.name().to_lowercase(), m.config().label());
    }
    Ok(())
}

fn parse_game(args: &mut Args) -> Result<Game, String> {
    let alias = args
        .value("--game")
        .ok_or_else(|| "missing --game <alias>".to_string())?;
    Game::ALL
        .into_iter()
        .find(|g| g.alias().eq_ignore_ascii_case(&alias))
        .ok_or_else(|| format!("unknown game '{alias}' (try `dtexl list`)"))
}

fn parse_res(args: &mut Args) -> Result<(u32, u32), String> {
    match args.value("--res") {
        None => Ok((1960, 768)),
        Some(s) => {
            let (w, h) = s
                .split_once('x')
                .ok_or_else(|| format!("bad --res '{s}', expected WxH"))?;
            let w: u32 = w.parse().map_err(|_| format!("bad width '{w}'"))?;
            let h: u32 = h.parse().map_err(|_| format!("bad height '{h}'"))?;
            if w == 0 || h == 0 {
                return Err("resolution must be non-zero".into());
            }
            Ok((w, h))
        }
    }
}

/// `--threads N`: how many jobs or frames run at once (default 1).
fn parse_threads(args: &mut Args) -> Result<usize, String> {
    match args.parsed_value::<usize>("--threads")? {
        Some(0) => Err("--threads must be >= 1".into()),
        threads => Ok(threads.unwrap_or(1)),
    }
}

fn parse_schedule(args: &mut Args) -> Result<ScheduleConfig, String> {
    match args.value("--schedule") {
        None => Ok(ScheduleConfig::dtexl()),
        Some(name) => name.parse().map_err(|e| format!("{e} (try `dtexl list`)")),
    }
}

fn cmd_sim(args: &mut Args) -> Result<(), String> {
    let game = parse_game(args)?;
    let (w, h) = parse_res(args)?;
    let schedule = parse_schedule(args)?;
    let coupled = args.flag("--coupled");
    let frames: u32 = args.parsed_value("--frames")?.unwrap_or(1);
    let threads = parse_threads(args)?;
    args.finish()?;

    let config = SimConfig {
        game,
        width: w,
        height: h,
        frame: 0,
        schedule,
        pipeline: PipelineConfig::default(),
        barrier: if coupled {
            BarrierMode::Coupled
        } else {
            BarrierMode::Decoupled
        },
    };
    if frames <= 1 {
        let r = Simulator::simulate(&config);
        println!(
            "{} {}x{} {} [{:?}]",
            game.alias(),
            w,
            h,
            schedule.label(),
            config.barrier
        );
        println!("  cycles       {}", r.cycles);
        println!("  fps          {:.2}", r.fps);
        println!("  L2 accesses  {}", r.l2_accesses);
        println!("  quads shaded {}", r.quads_shaded);
        println!("  energy       {:.4} mJ", r.energy.total_mj());
    } else {
        let seq = Simulator::simulate_sequence(&config, frames, threads);
        println!(
            "{} × {frames} frames: {:.2} fps avg, {:.4} mJ total, {:.0} L2/frame",
            game.alias(),
            seq.mean_fps(),
            seq.total_energy_mj(),
            seq.mean_l2_accesses()
        );
    }
    Ok(())
}

/// Parse a `--games`-style CSV (`all` or aliases).
fn games_from_csv(csv: &str) -> Result<Vec<Game>, String> {
    if csv == "all" {
        return Ok(Game::ALL.to_vec());
    }
    csv.split(',')
        .map(|alias| {
            let alias = alias.trim();
            Game::ALL
                .into_iter()
                .find(|g| g.alias().eq_ignore_ascii_case(alias))
                .ok_or_else(|| format!("unknown game '{alias}' (try `dtexl list`)"))
        })
        .collect()
}

/// The job axes `sweep`, `sweep submit` and `sweep dispatch` share:
/// games × schedules at one resolution, frame and pipeline mode, as
/// spool-ready specs (so a spooled job and a direct one are the same
/// job, key and config hash alike).
fn parse_job_specs(args: &mut Args) -> Result<Vec<JobSpec>, String> {
    let games = games_from_csv(&args.value("--games").unwrap_or_else(|| "all".into()))?;
    let schedules = args
        .value("--schedules")
        .unwrap_or_else(|| "baseline,dtexl".into());
    let (width, height) = parse_res(args)?;
    let frame: u32 = args.parsed_value("--frame")?.unwrap_or(0);
    let upper = args.flag("--upper");
    let mut specs = Vec::new();
    for game in games {
        for name in schedules.split(',') {
            specs.push(
                JobSpec::new(game.alias(), name.trim(), width, height, frame, upper)
                    .map_err(|e| format!("{e} (try `dtexl list`)"))?,
            );
        }
    }
    Ok(specs)
}

/// `--stall-key SUBSTR --stall-ms N`, given together or not at all.
fn parse_stall(args: &mut Args) -> Result<Option<(String, u64)>, String> {
    let key = args.value("--stall-key");
    let ms: u64 = args.parsed_value("--stall-ms")?.unwrap_or(0);
    match key {
        None if ms == 0 => Ok(None),
        Some(key) if ms > 0 => Ok(Some((key, ms))),
        _ => Err("--stall-key and --stall-ms must be given together".into()),
    }
}

/// The stall `sweep` or `sweep --spool` was given, behind a static
/// because `WorkerOptions::stall` takes a plain fn pointer. Set once
/// per process in `cmd_sweep`.
static STALL: OnceLock<(String, u64)> = OnceLock::new();

/// The supervision test hook: a wall-clock stall in the fault plan of
/// every job whose key contains the `--stall-key` substring, which
/// changes those jobs' config hashes. Plain `sweep` and the spool
/// worker both apply it through this one function.
fn apply_stall(job: &mut SweepJob) {
    if let Some((pattern, ms)) = STALL.get() {
        if job.key().contains(pattern.as_str()) {
            job.pipeline.fault.wall_stall_ms = *ms;
        }
    }
}

/// Run a fault-tolerant sweep over games × schedules, journaling one
/// JSON line per job. Exit code 0: all jobs completed; 1: aborted on
/// first failure; 2: completed with failures (`--keep-going`).
fn cmd_sweep(args: &mut Args, format: Format) -> Result<ExitCode, String> {
    // Nested subcommands operate on journals instead of running jobs.
    match args.subcommand().as_deref() {
        Some("merge") => return cmd_sweep_merge(args).map(|()| ExitCode::SUCCESS),
        Some("canon") => return cmd_sweep_canon(args).map(|()| ExitCode::SUCCESS),
        Some("dispatch") => return cmd_sweep_dispatch(args, format),
        Some("submit") => return cmd_sweep_submit(args, format),
        Some("daemon") => return cmd_sweep_daemon(args, format),
        Some("status") => return cmd_sweep_status(args, format).map(|()| ExitCode::SUCCESS),
        Some(other) => return Err(format!("unknown sweep subcommand '{other}'\n{}", usage())),
        None => {}
    }
    // `--spool DIR` switches this process into spool-worker mode: jobs
    // come from the spool's accepted batches instead of the
    // `--games`/`--schedules` axes (which are rejected as unknown
    // flags), and the worker loops until the spool drains.
    let spool_dir = args.value("--spool");
    let spool_poll_ms: u64 = args.parsed_value("--spool-poll-ms")?.unwrap_or(100);
    let specs = match &spool_dir {
        Some(_) => None,
        None => Some(parse_job_specs(args)?),
    };
    if let Some(stall) = parse_stall(args)? {
        let _ = STALL.set(stall);
    }
    let threads = parse_threads(args)?;
    let keep_going = args.flag("--keep-going");
    let resume = args.flag("--resume");
    let journal = args.value("--journal");
    let job_timeout = args
        .parsed_value::<u64>("--job-timeout")?
        .map(std::time::Duration::from_secs);
    let retries: u32 = args.parsed_value("--retries")?.unwrap_or(0);
    let backoff_ms: u64 = args.parsed_value("--backoff-ms")?.unwrap_or(50);
    let shard: Option<Shard> = match args.value("--shard") {
        None => None,
        Some(spec) => Some(spec.parse().map_err(|e| format!("bad --shard: {e}"))?),
    };
    let job_mem_budget = args
        .parsed_value::<u64>("--job-mem-budget")?
        .map(|mb| mb.saturating_mul(1024 * 1024));
    let table = args.flag("--table");
    let progress = args.flag("--progress");
    let progress_to = args.value("--progress-to");
    // 0 disables heartbeats (run_sweep treats a zero interval as "no
    // beats", not "beat as fast as possible").
    let heartbeat_ms: u64 = args.parsed_value("--heartbeat-ms")?.unwrap_or(1_000);
    let memoize = args.flag("--memoize");
    let memoize_budget = args
        .parsed_value::<u64>("--memoize-budget")?
        .map(|mb| mb.saturating_mul(1024 * 1024));
    let with_obs = args.flag("--with-obs");
    args.finish()?;
    if memoize_budget.is_some() && !memoize {
        return Err("--memoize-budget requires --memoize".into());
    }

    if resume && journal.is_none() {
        return Err("--resume requires --journal <file>".into());
    }

    // `--progress-to` redirects the stream to a per-line-flushed file
    // (and implies `--progress`); otherwise `--progress` streams to
    // stderr.
    let progress_hook: Option<fn(&Progress)> = match &progress_to {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
            let _ = PROGRESS_FILE.set(Mutex::new(file));
            Some(print_progress_to_file as fn(&Progress))
        }
        None => progress.then_some(print_progress as fn(&Progress)),
    };

    let opts = SweepOptions {
        workers: threads,
        keep_going,
        job_timeout,
        retry: RetryPolicy {
            max_retries: retries,
            backoff: std::time::Duration::from_millis(backoff_ms),
        },
        journal: journal.map(std::path::PathBuf::from),
        resume,
        shard,
        job_mem_budget,
        progress: progress_hook,
        progress_heartbeat: std::time::Duration::from_millis(heartbeat_ms),
        // The cache budget defaults to the per-job budget: if one job
        // may not allocate more than that, retaining more than that
        // across jobs is not a saving either.
        prefix_cache: memoize.then(|| PrefixCache::new(memoize_budget.or(job_mem_budget))),
        with_obs,
        ..SweepOptions::default()
    };

    if let Some(dir) = spool_dir {
        if opts.journal.is_none() {
            return Err("--spool worker mode requires --journal <file>".into());
        }
        // A direct SIGTERM/SIGINT to a worker is honored as a drain
        // request scoped to this process.
        signals::install();
        let spool = Spool::open(&dir).map_err(|e| format!("open spool {dir}: {e}"))?;
        let wopts = WorkerOptions {
            stall: apply_stall,
            poll: std::time::Duration::from_millis(spool_poll_ms.max(1)),
            sweep: opts,
            shutdown: signals::shutdown_requested,
        };
        let report = run_spool_worker(&spool, &wopts).map_err(|e| format!("spool worker: {e}"))?;
        match format {
            Format::Text => println!(
                "spool worker: {} generation(s), {} job(s) run, {} failed, {} corrupt batch(es)",
                report.generations, report.jobs_run, report.failed, report.corrupt_batches
            ),
            Format::Json => println!(
                "{{\"worker\":{{\"generations\":{},\"jobs_run\":{},\"failed\":{},\
                 \"corrupt_batches\":{},\"exit_code\":{}}}}}",
                report.generations,
                report.jobs_run,
                report.failed,
                report.corrupt_batches,
                report.exit_code()
            ),
        }
        return Ok(ExitCode::from(report.exit_code()));
    }

    let specs = specs.expect("specs are parsed whenever --spool is absent");
    let mut jobs = jobs_from_specs(&specs, &PipelineConfig::default());
    jobs.iter_mut().for_each(apply_stall);
    let report = dtexl::sweep::run_sweep(&jobs, &opts, |_, _| {})
        .map_err(|e| format!("journal I/O: {e}"))?;

    for r in &report.records {
        match format {
            Format::Json => println!("{}", journal_line(r)),
            Format::Text => {
                let outcome = match (&r.metrics, &r.error) {
                    (Some(m), _) => format!(
                        "coupled {} / decoupled {} cycles",
                        m.coupled_cycles, m.decoupled_cycles
                    ),
                    (None, Some(e)) => e.to_string(),
                    (None, None) => String::new(),
                };
                println!("{:44} {:?} {}", r.key, r.status, outcome);
            }
        }
    }
    if table && format == Format::Text {
        println!("{}", report.table());
    }
    if report.is_success() {
        if format == Format::Text {
            println!("{}", report.summary());
        }
        Ok(ExitCode::SUCCESS)
    } else if report.aborted {
        report_error(format, &report.summary());
        Ok(ExitCode::FAILURE)
    } else {
        report_error(format, &report.summary());
        Ok(ExitCode::from(2))
    }
}

/// `sweep --progress` sink: one JSON line per lifecycle event on
/// stderr, so progress streams live while stdout keeps the per-job
/// records and tables.
fn print_progress(p: &Progress) {
    eprintln!("{}", p.to_json());
}

/// The `--progress-to` file, behind a static because `SweepOptions`
/// takes a plain fn pointer. Set once per process in `cmd_sweep`.
static PROGRESS_FILE: OnceLock<Mutex<std::fs::File>> = OnceLock::new();

/// `sweep --progress-to` sink: one JSON line per event, flushed
/// immediately so a supervising process can tail the file and treat
/// write latency as liveness.
fn print_progress_to_file(p: &Progress) {
    let Some(lock) = PROGRESS_FILE.get() else {
        return;
    };
    if let Ok(mut file) = lock.lock() {
        let _ = writeln!(file, "{}", p.to_json());
        let _ = file.flush();
    }
}

/// The flags `sweep dispatch` and `sweep daemon` share: the
/// supervision knobs, and the per-job flags forwarded to every `sweep
/// --spool` worker.
struct FleetFlags {
    /// Worker arguments that follow `sweep --spool DIR`.
    worker_args: Vec<String>,
    shards: u32,
    opts: DaemonOptions,
}

impl FleetFlags {
    fn parse(args: &mut Args) -> Result<Self, String> {
        // Per-job flags are checked here and forwarded as given; an
        // absent one takes the worker's default, the plain sweep's.
        // Workers default to one thread, so a shard death blames
        // exactly the job that was in flight.
        let mut worker_args = vec!["--threads".to_string(), parse_threads(args)?.to_string()];
        let mut forward = |flag: &str, value: Option<String>| {
            if let Some(value) = value {
                worker_args.extend([flag.to_string(), value]);
            }
        };
        let retries: Option<u32> = args.parsed_value("--retries")?;
        forward("--retries", retries.map(|n| n.to_string()));
        for flag in [
            "--job-timeout",
            "--backoff-ms",
            "--job-mem-budget",
            "--heartbeat-ms",
            "--memoize-budget",
        ] {
            let value: Option<u64> = args.parsed_value(flag)?;
            forward(flag, value.map(|v| v.to_string()));
        }
        if let Some((key, ms)) = parse_stall(args)? {
            forward("--stall-key", Some(key));
            forward("--stall-ms", Some(ms.to_string()));
        }
        let memoize = args.flag("--memoize");
        if !memoize && worker_args.iter().any(|a| a == "--memoize-budget") {
            return Err("--memoize-budget requires --memoize".into());
        }
        if memoize {
            worker_args.push("--memoize".into());
        }
        if args.flag("--with-obs") {
            worker_args.push("--with-obs".into());
        }

        let shards: u32 = args.parsed_value("--shards")?.unwrap_or(2);
        if shards == 0 {
            return Err("--shards must be >= 1".into());
        }
        let wedge_timeout: u64 = args.parsed_value("--wedge-timeout")?.unwrap_or(30);
        let max_restarts: u32 = args.parsed_value("--max-restarts")?.unwrap_or(3);
        let restart_backoff_ms: u64 = args.parsed_value("--restart-backoff-ms")?.unwrap_or(500);
        let poison_threshold: u32 = args.parsed_value("--poison-threshold")?.unwrap_or(2);
        if poison_threshold == 0 {
            return Err("--poison-threshold must be >= 1".into());
        }
        let shard_mem_limit = args
            .parsed_value::<u64>("--shard-mem-limit")?
            .map(|mb| mb.saturating_mul(1024 * 1024));
        let poll_ms: u64 = args.parsed_value("--poll-ms")?.unwrap_or(50);
        Ok(Self {
            worker_args,
            shards,
            opts: DaemonOptions {
                dispatch: DispatchOptions {
                    wedge_timeout: std::time::Duration::from_secs(wedge_timeout),
                    max_restarts,
                    restart_backoff: std::time::Duration::from_millis(restart_backoff_ms),
                    poison_threshold,
                    mem_limit: shard_mem_limit,
                    ..DispatchOptions::default()
                },
                poll: std::time::Duration::from_millis(poll_ms.max(1)),
                shutdown: signals::shutdown_requested,
            },
        })
    }

    /// Run the daemon over `spool` until it drains.
    fn supervise(self, spool: &Spool, spool_poll_ms: u64) -> Result<DaemonReport, String> {
        let program =
            std::env::current_exe().map_err(|e| format!("cannot locate the dtexl binary: {e}"))?;
        // The fleet appends the per-shard
        // `--shard/--journal/--resume/--progress-to` itself.
        let mut sweep_args: Vec<String> = vec![
            "sweep".into(),
            "--spool".into(),
            spool.root().to_string_lossy().into_owned(),
            "--spool-poll-ms".into(),
            spool_poll_ms.to_string(),
        ];
        sweep_args.extend(self.worker_args);
        let spec = FleetSpec {
            program,
            sweep_args,
            shards: self.shards,
        };
        signals::install();
        run_daemon(spool, spec, &self.opts).map_err(|e| format!("daemon: {e}"))
    }
}

/// `dtexl sweep dispatch`: the daemon on a pre-armed spool in
/// `--workdir`. The axes become one batch, accepted with the drain
/// already requested, so the fleet drains exactly the spool's batches
/// and exits; `--out` receives a copy of the merged journal.
fn cmd_sweep_dispatch(args: &mut Args, format: Format) -> Result<ExitCode, String> {
    let specs = parse_job_specs(args)?;
    let fleet = FleetFlags::parse(args)?;
    let workdir = args.value("--workdir").map_or_else(
        || std::env::temp_dir().join(format!("dtexl-dispatch-{}", std::process::id())),
        std::path::PathBuf::from,
    );
    let out = args.value("--out").map(std::path::PathBuf::from);
    args.finish()?;

    let spool =
        Spool::open(&workdir).map_err(|e| format!("open spool {}: {e}", workdir.display()))?;
    match spool.submit(&specs) {
        // A re-run in an old workdir submits the same batch again; its
        // shard journals resume.
        Ok(_) | Err(JobError::DuplicateBatch { .. }) => {}
        Err(e) => return Err(format!("submit: {e}")),
    }
    // The batch is well-formed; whatever an old workdir left in
    // `incoming/` is accepted or quarantined along with it.
    let _ = spool.accept_incoming();
    spool
        .request_drain()
        .map_err(|e| format!("arm drain marker: {e}"))?;
    let report = fleet.supervise(&spool, 100)?;

    let merged = match out {
        Some(out) => {
            // No merged file means no job journaled anything: copy an
            // empty journal.
            let text = std::fs::read_to_string(spool.merged_journal()).unwrap_or_default();
            std::fs::write(&out, text).map_err(|e| format!("write {}: {e}", out.display()))?;
            out
        }
        None => spool.merged_journal(),
    };
    match format {
        Format::Text => println!("{}", report.summary()),
        Format::Json => println!(
            "{{\"fleet\":{{\"ok\":{},\"failed\":{},\"missing\":{},\"poisoned\":{},\
             \"shards\":{},\"restarts\":{},\"merged\":\"{}\",\"exit_code\":{}}}}}",
            report.ok,
            report.failed,
            report.missing.len(),
            str_array(&report.poisoned),
            report.shards.len(),
            report.shards.iter().map(|s| s.restarts).sum::<u32>(),
            escape(&merged.display().to_string()),
            report.exit_code()
        ),
    }
    Ok(ExitCode::from(report.exit_code()))
}

/// `dtexl sweep submit`: atomically append a content-addressed batch
/// of job specs to a spool's `incoming/` directory. Re-submitting a
/// batch the spool already holds (same canonical content) is a
/// reported no-op with exit 0, so at-least-once submitters are safe.
fn cmd_sweep_submit(args: &mut Args, format: Format) -> Result<ExitCode, String> {
    let dir = args
        .value("--spool")
        .ok_or_else(|| "missing --spool <dir>".to_string())?;
    let specs = parse_job_specs(args)?;
    args.finish()?;
    let spool = Spool::open(&dir).map_err(|e| format!("open spool {dir}: {e}"))?;
    match spool.submit(&specs) {
        Ok(receipt) => {
            match format {
                Format::Text => println!(
                    "submitted batch {} ({} job(s)) -> {}",
                    receipt.batch,
                    receipt.jobs,
                    receipt.path.display()
                ),
                Format::Json => println!(
                    "{{\"submit\":{{\"batch\":\"{}\",\"jobs\":{},\"duplicate\":false}}}}",
                    escape(&receipt.batch),
                    receipt.jobs
                ),
            }
            Ok(ExitCode::SUCCESS)
        }
        Err(JobError::DuplicateBatch { batch }) => {
            match format {
                Format::Text => {
                    println!(
                        "batch {batch} already spooled ({} job(s)); nothing to do",
                        specs.len()
                    )
                }
                Format::Json => println!(
                    "{{\"submit\":{{\"batch\":\"{}\",\"jobs\":{},\"duplicate\":true}}}}",
                    escape(&batch),
                    specs.len()
                ),
            }
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Err(format!("submit: {e}")),
    }
}

/// `dtexl sweep daemon`: supervise a fleet of `sweep --spool` workers
/// over a spool directory until it drains (see the module docs and
/// `dtexl::daemon`).
fn cmd_sweep_daemon(args: &mut Args, format: Format) -> Result<ExitCode, String> {
    let dir = args
        .value("--spool")
        .ok_or_else(|| "missing --spool <dir>".to_string())?;
    let spool_poll_ms: u64 = args.parsed_value("--spool-poll-ms")?.unwrap_or(100);
    // Same flags as `sweep dispatch`, minus the job axes (jobs arrive
    // through the spool).
    let fleet = FleetFlags::parse(args)?;
    args.finish()?;
    let spool = Spool::open(&dir).map_err(|e| format!("open spool {dir}: {e}"))?;
    let report = fleet.supervise(&spool, spool_poll_ms)?;
    match format {
        Format::Text => println!("{}", report.summary()),
        Format::Json => {
            println!(
                "{{\"daemon\":{{\"ok\":{},\"failed\":{},\"missing\":{},\"poisoned\":{},\
                 \"shards\":{},\"restarts\":{},\"batches_accepted\":{},\"batches_duplicate\":{},\
                 \"batches_rejected\":{},\"status_writes\":{},\"exit_code\":{}}}}}",
                report.ok,
                report.failed,
                report.missing.len(),
                str_array(&report.poisoned),
                report.shards.len(),
                report.shards.iter().map(|s| s.restarts).sum::<u32>(),
                report.batches.0,
                report.batches.1,
                report.batches.2,
                report.status_writes,
                report.exit_code()
            );
        }
    }
    Ok(ExitCode::from(report.exit_code()))
}

/// `dtexl sweep status`: read and render a spool's status document.
/// `--format json` passes the raw document through unchanged (the
/// schema is documented in docs/ROBUSTNESS.md). `--metrics` prints
/// the spool's Prometheus text exposition (`metrics.prom`) instead.
fn cmd_sweep_status(args: &mut Args, format: Format) -> Result<(), String> {
    let dir = args
        .value("--spool")
        .ok_or_else(|| "missing --spool <dir>".to_string())?;
    let metrics = args.flag("--metrics");
    args.finish()?;
    let spool = Spool::open(&dir).map_err(|e| format!("open spool {dir}: {e}"))?;
    if metrics {
        // Already a stable text format; --format does not apply.
        let path = spool.metrics_file();
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "read {}: {e} (has a daemon written metrics on this spool?)",
                path.display()
            )
        })?;
        print!("{text}");
        return Ok(());
    }
    let path = spool.status_file();
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "read {}: {e} (is a daemon running on this spool?)",
            path.display()
        )
    })?;
    let status = DaemonStatus::parse(&text)
        .ok_or_else(|| format!("unparseable status document at {}", path.display()))?;
    match format {
        Format::Text => println!("{}", status.summary()),
        Format::Json => print!("{text}"),
    }
    Ok(())
}

/// Profile one frame: print the stall-attribution tables and
/// optionally export a Chrome-trace JSON (`--trace-out`) or the
/// journal-form rollup JSON (`--rollup-out`, consumed by `profile
/// --diff`). `--diff A B` switches to comparison mode instead.
fn cmd_profile(args: &mut Args) -> Result<(), String> {
    if args.flag("--diff") {
        return cmd_profile_diff(args);
    }
    let game = parse_game(args)?;
    let (w, h) = parse_res(args)?;
    let schedule = parse_schedule(args)?;
    let frame: u32 = args.parsed_value("--frame")?.unwrap_or(0);
    let trace_out = args.value("--trace-out");
    let rollup_out = args.value("--rollup-out");
    let csv = args.flag("--csv");
    args.finish()?;

    let config = SimConfig {
        game,
        width: w,
        height: h,
        frame,
        schedule,
        pipeline: PipelineConfig::default(),
        barrier: BarrierMode::Decoupled,
    };
    let profile = FrameProfile::capture(&config).map_err(|e| e.to_string())?;
    println!(
        "{} {}x{} {}: coupled {} / decoupled {} cycles ({:.1}% saved), {} mem samples, {} dropped",
        game.alias(),
        w,
        h,
        schedule.label(),
        profile.coupled_cycles,
        profile.decoupled_cycles,
        100.0 * (1.0 - profile.decoupled_cycles as f64 / profile.coupled_cycles.max(1) as f64),
        profile.mem.len(),
        profile.dropped,
    );
    let stalls = profile.stall_table();
    let waits = profile.wait_table(BarrierMode::Coupled);
    if csv {
        println!("{}", stalls.to_csv());
        println!("{}", waits.to_csv());
    } else {
        println!("{}", stalls.render());
        println!("{}", waits.render());
    }
    if let Some(path) = trace_out {
        std::fs::write(&path, profile.chrome_trace()).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path} — open at https://ui.perfetto.dev");
    }
    if let Some(path) = rollup_out {
        std::fs::write(&path, format!("{}\n", profile.rollup().to_json()))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path} — rollup JSON for `dtexl profile --diff`");
    }
    Ok(())
}

/// `dtexl profile --diff A B`: print the per-(SC, stage) stall delta
/// between two rollups. An operand is `coupled` / `decoupled` (both
/// sides of one live capture from `--game`/`--res`/`--schedule`) or
/// `PATH[@coupled|@decoupled]` — a rollup JSON written by `profile
/// --rollup-out` or sliced from a `sweep --with-obs` journal record's
/// `obs` field (mode defaults to coupled).
fn cmd_profile_diff(args: &mut Args) -> Result<(), String> {
    let game_alias = args.value("--game");
    let (w, h) = parse_res(args)?;
    let schedule = parse_schedule(args)?;
    let frame: u32 = args.parsed_value("--frame")?.unwrap_or(0);
    let csv = args.flag("--csv");
    let operands = args.positionals();
    args.finish()?;
    let [a, b] = operands.as_slice() else {
        return Err(
            "profile --diff needs exactly two operands: coupled | decoupled | PATH[@MODE]".into(),
        );
    };

    // Capture one live profile only when a mode operand asks for it —
    // two file operands need no --game at all.
    let needs_capture = [a, b]
        .iter()
        .any(|o| matches!(o.as_str(), "coupled" | "decoupled"));
    let captured: Option<ObsRollup> = if needs_capture {
        let alias = game_alias
            .ok_or_else(|| "operand 'coupled'/'decoupled' requires --game <alias>".to_string())?;
        let game = Game::ALL
            .into_iter()
            .find(|g| g.alias().eq_ignore_ascii_case(&alias))
            .ok_or_else(|| format!("unknown game '{alias}' (try `dtexl list`)"))?;
        let config = SimConfig {
            game,
            width: w,
            height: h,
            frame,
            schedule,
            pipeline: PipelineConfig::default(),
            barrier: BarrierMode::Decoupled,
        };
        Some(
            FrameProfile::capture(&config)
                .map_err(|e| e.to_string())?
                .rollup(),
        )
    } else {
        None
    };

    let side = |operand: &str| -> Result<(String, StallRollup), String> {
        match operand {
            "coupled" | "decoupled" => {
                let r = captured
                    .as_ref()
                    .expect("captured whenever a mode operand exists");
                let rollup = if operand == "coupled" {
                    r.coupled
                } else {
                    r.decoupled
                };
                Ok((operand.to_string(), rollup))
            }
            spec => {
                let (path, mode) = match spec.rsplit_once('@') {
                    Some((p, m)) if m == "coupled" || m == "decoupled" => (p, m),
                    _ => (spec, "coupled"),
                };
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
                let rollup = ObsRollup::parse(text.trim()).ok_or_else(|| {
                    format!(
                        "{path}: not a rollup JSON (export one with `dtexl profile --rollup-out` \
                         or slice a `sweep --with-obs` record's \"obs\" field)"
                    )
                })?;
                let side = if mode == "coupled" {
                    rollup.coupled
                } else {
                    rollup.decoupled
                };
                Ok((format!("{path}@{mode}"), side))
            }
        }
    };
    let (label_a, ra) = side(a)?;
    let (label_b, rb) = side(b)?;

    println!("A = {label_a}, B = {label_b}; deltas are B − A (signed cycles, percent change)");
    let table = stall_diff_table(&ra, &rb, format!("stall delta {label_b} vs {label_a}"));
    if csv {
        println!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
    let (ta, tb) = (ra.totals(), rb.totals());
    println!(
        "total wait delta: {:+} barrier cycles, {:+} upstream cycles",
        tb[2] as i64 - ta[2] as i64,
        tb[1] as i64 - ta[1] as i64
    );
    Ok(())
}

/// Union shard journals into one: `dtexl sweep merge <journals...>
/// --out merged.jsonl`. Last-wins per key, except that an `ok` record
/// beats a `failed` one for the same config hash regardless of input
/// order; two `ok` records with the same key and config hash but
/// different metrics are a typed error.
fn cmd_sweep_merge(args: &mut Args) -> Result<(), String> {
    let out = args
        .value("--out")
        .ok_or_else(|| "missing --out <file>".to_string())?;
    let inputs: Vec<std::path::PathBuf> = args
        .positionals()
        .into_iter()
        .map(std::path::PathBuf::from)
        .collect();
    args.finish()?;
    if inputs.is_empty() {
        return Err("merge needs at least one input journal".into());
    }
    let stats = merge_journals(&inputs, std::path::Path::new(&out)).map_err(|e| e.to_string())?;
    println!(
        "merged {} journal(s): {} record(s), {} superseded, {} corrupt line(s) dropped -> {out}",
        stats.journals, stats.records, stats.superseded, stats.corrupt
    );
    if stats.failed_ignored > 0 {
        eprintln!(
            "warning: {} failed record(s) ignored in favor of ok records for the same config hash",
            stats.failed_ignored
        );
    }
    Ok(())
}

/// Print a journal's latest `ok` records in the canonical, sorted
/// `key|config_hash|coupled|decoupled|l2` form. Volatile fields (wall
/// time, peak allocation, shard) are omitted, so two journals that
/// simulated the same jobs canonicalize identically — CI diffs a
/// merged shard run against an unsharded one this way.
fn cmd_sweep_canon(args: &mut Args) -> Result<(), String> {
    let inputs = args.positionals();
    args.finish()?;
    let [path] = inputs.as_slice() else {
        return Err("canon needs exactly one journal".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // Same renderer the daemon's live merger uses for merged.canon, so
    // `sweep canon <journal>` and a daemon's on-disk canon view are
    // diffable against each other byte-for-byte.
    print!("{}", canon_text(&text));
    Ok(())
}

fn cmd_render(args: &mut Args) -> Result<(), String> {
    let game = parse_game(args)?;
    let (w, h) = parse_res(args)?;
    let schedule = parse_schedule(args)?;
    let out = args.value("--out").unwrap_or_else(|| "frame.ppm".into());
    args.finish()?;

    let scene = game.scene(&SceneSpec::try_new(w, h, 0)?);
    let img = Renderer::render(&scene, &schedule, &PipelineConfig::default(), w, h);
    let file = std::fs::File::create(&out).map_err(|e| format!("create {out}: {e}"))?;
    img.write_ppm(std::io::BufWriter::new(file))
        .map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {out} ({w}x{h}, digest {:016x})", img.digest());
    Ok(())
}

fn cmd_characterize(args: &mut Args) -> Result<(), String> {
    let (w, h) = parse_res(args)?;
    args.finish()?;
    println!(
        "{:5} {:>9} {:>7} {:>9} {:>9} {:>8} {:>8} {:>9}",
        "game", "foot MiB", "draws", "quads", "overdraw", "reuse", "fps", "tex req"
    );
    for p in characterize_all(w, h, 0) {
        println!(
            "{:5} {:>9.2} {:>7} {:>9} {:>8.2}x {:>7.2}x {:>8.1} {:>9}",
            p.game.alias(),
            p.footprint_mib,
            p.draws,
            p.quads_shaded,
            p.overdraw_factor,
            p.reuse_factor,
            p.baseline_fps,
            p.texture_requests,
        );
    }
    Ok(())
}

fn cmd_trace_save(args: &mut Args) -> Result<(), String> {
    let game = parse_game(args)?;
    let (w, h) = parse_res(args)?;
    let out = args
        .value("--out")
        .ok_or_else(|| "missing --out <file>".to_string())?;
    args.finish()?;
    let scene = game.scene(&SceneSpec::try_new(w, h, 0)?);
    dtexl_trace::save_trace(&scene, std::path::Path::new(&out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} draws, {} textures, {} vertices",
        scene.draws.len(),
        scene.textures.len(),
        scene.vertices.len()
    );
    Ok(())
}

fn cmd_trace_sim(args: &mut Args) -> Result<(), String> {
    let input = args
        .value("--in")
        .ok_or_else(|| "missing --in <file>".to_string())?;
    let (w, h) = parse_res(args)?;
    let schedule = parse_schedule(args)?;
    let coupled = args.flag("--coupled");
    args.finish()?;
    let scene: Scene =
        dtexl_trace::load_trace(std::path::Path::new(&input)).map_err(|e| e.to_string())?;
    let pipeline = PipelineConfig::default();
    let r = FrameSim::try_run(&scene, &schedule, &pipeline, w, h).map_err(|e| e.to_string())?;
    let mode = if coupled {
        BarrierMode::Coupled
    } else {
        BarrierMode::Decoupled
    };
    println!("{} under {} [{:?}]", input, schedule.label(), mode);
    println!("  cycles       {}", r.total_cycles(mode));
    println!(
        "  fps          {:.2}",
        CLOCK_HZ / r.total_cycles(mode) as f64
    );
    println!("  L2 accesses  {}", r.total_l2_accesses());
    println!("  quads shaded {}", r.total_quads_shaded());
    Ok(())
}
