//! End-to-end resilience of the fleet supervisor (`dtexl::dispatch`,
//! driven by `dtexl::daemon::run_daemon` on a pre-armed spool, as
//! `sweep dispatch` does), with the real `dtexl` binary as `sweep
//! --spool` shard workers:
//!
//! * kill -9 one shard mid-sweep → the supervisor restarts it from
//!   its journal and the merged result canonicalizes bit-identically
//!   to a clean unsharded run;
//! * wedge one shard (a fault-plan wall stall with heartbeats off) →
//!   the supervisor detects the silence, kills and restarts the
//!   shard, and after the poison threshold quarantines the job as a
//!   typed `poisoned` journal record, stamped with the config hash
//!   the worker reported, while every other job completes.

use dtexl::daemon::{run_daemon, DaemonOptions};
use dtexl::dispatch::{DeathCause, DispatchOptions, FleetSpec, ShardOutcome};
use dtexl::spool::{JobSpec, Spool};
use dtexl::sweep::{latest_entries, shard_of, SweepJob};
use dtexl_scene::Game;
use dtexl_sched::ScheduleConfig;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const W: u32 = 192;
const H: u32 = 96;
const GAMES_CSV: &str = "CCS,GTr,TRu";
const SCHEDULES_CSV: &str = "baseline,dtexl";

/// The `dtexl` binary cargo built for this test run.
fn dtexl_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dtexl"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtexl_dispatch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The job list the workers build from the spooled axes, with the
/// stall hook applied exactly as the CLI does.
fn jobs_with_stall(stall_key: Option<&str>, stall_ms: u64) -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for game in [Game::CandyCrush, Game::GravityTetris, Game::TempleRun] {
        for schedule in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
            let mut job = SweepJob::new(game, schedule, false, W, H, 0);
            if let Some(pat) = stall_key {
                if job.key().contains(pat) {
                    job.pipeline.fault.wall_stall_ms = stall_ms;
                }
            }
            jobs.push(job);
        }
    }
    jobs
}

/// The per-job sweep flags shared by the clean run and the workers.
fn job_args(heartbeat_ms: u64, stall_key: Option<&str>, stall_ms: u64) -> Vec<String> {
    let mut args: Vec<String> = vec!["--threads".into(), "1".into()];
    args.push("--heartbeat-ms".into());
    args.push(heartbeat_ms.to_string());
    if let Some(key) = stall_key {
        args.push("--stall-key".into());
        args.push(key.into());
        args.push("--stall-ms".into());
        args.push(stall_ms.to_string());
    }
    args
}

/// Run a clean, unsharded `dtexl sweep` into `journal` with the same
/// axes (and stall hook, so config hashes line up).
fn clean_sweep(journal: &PathBuf, stall_key: Option<&str>, stall_ms: u64) {
    let mut cmd = Command::new(dtexl_bin());
    cmd.args(["sweep", "--keep-going", "--res", "192x96"])
        .args(["--games", GAMES_CSV, "--schedules", SCHEDULES_CSV])
        .args(job_args(1_000, stall_key, stall_ms))
        .arg("--journal")
        .arg(journal);
    let out = cmd.output().expect("run clean sweep");
    assert!(
        out.status.success(),
        "clean sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `dtexl sweep canon <journal>` — the volatile-field-free canonical
/// form CI diffs on.
fn canon(journal: &PathBuf) -> String {
    let out = Command::new(dtexl_bin())
        .arg("sweep")
        .arg("canon")
        .arg(journal)
        .output()
        .expect("run sweep canon");
    assert!(
        out.status.success(),
        "canon failed on {}",
        journal.display()
    );
    String::from_utf8(out.stdout).expect("canon output is utf-8")
}

/// A spool in `dir` armed as `sweep dispatch` arms it: the axes
/// submitted as one batch, accepted, and the drain requested.
fn arm_spool(dir: &Path) -> Spool {
    let spool = Spool::open(dir).expect("open spool");
    let mut specs = Vec::new();
    for game in GAMES_CSV.split(',') {
        for schedule in SCHEDULES_CSV.split(',') {
            specs.push(JobSpec::new(game, schedule, W, H, 0, false).expect("valid spec"));
        }
    }
    spool.submit(&specs).expect("submit");
    assert_eq!(spool.accept_incoming().accepted.len(), 1);
    spool.request_drain().expect("drain marker");
    spool
}

/// The fleet over `spool`: `sweep --spool` workers with the per-job
/// flags and the stall hook.
fn fleet_spec(spool: &Spool, heartbeat_ms: u64, stall_key: &str, stall_ms: u64) -> FleetSpec {
    let mut sweep_args: Vec<String> = vec!["sweep".into(), "--spool".into()];
    sweep_args.push(spool.root().to_string_lossy().into_owned());
    sweep_args.extend(["--spool-poll-ms".into(), "20".into()]);
    sweep_args.extend(job_args(heartbeat_ms, Some(stall_key), stall_ms));
    FleetSpec {
        program: dtexl_bin(),
        sweep_args,
        shards: 2,
    }
}

fn kill9(pid: u32) {
    let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
}

/// Extract `pid` from a `dispatch: shard i/N pid P spawned …` line.
fn spawned_pid(line: &str, shard_index: u32) -> Option<u32> {
    let rest = line.strip_prefix(&format!("dispatch: shard {shard_index}/2 pid "))?;
    let (pid, rest) = rest.split_once(' ')?;
    rest.starts_with("spawned").then(|| pid.parse().ok())?
}

static KILL_LOG: Mutex<Vec<String>> = Mutex::new(Vec::new());
fn kill_log(line: &str) {
    KILL_LOG.lock().unwrap().push(line.to_string());
}

/// kill -9 one shard while a stalled job guarantees it is mid-sweep:
/// the supervisor classifies the death as a crash, restarts the shard
/// from its journal, and the merged journal canonicalizes
/// bit-identically to a clean unsharded run of the same axes.
#[test]
fn killed_shard_restarts_from_journal_and_canon_matches_clean_run() {
    let dir = scratch_dir("kill");
    // A 2.5 s wall stall on one job holds its shard open long enough
    // to kill deterministically; heartbeats stay on, so the stall is
    // NOT a wedge (the watchdog keeps beating through it).
    let stall_key = "TRu|CG";
    let stall_ms = 2_500;
    let jobs = jobs_with_stall(Some(stall_key), stall_ms);
    let victim_key = jobs
        .iter()
        .map(|j| j.key())
        .find(|k| k.contains(stall_key))
        .expect("stalled job exists");
    let victim_shard = shard_of(&victim_key, 2);

    let clean = dir.join("clean.jsonl");
    clean_sweep(&clean, Some(stall_key), stall_ms);

    let spool = arm_spool(&dir.join("spool"));
    let spec = fleet_spec(&spool, 1_000, stall_key, stall_ms);
    let opts = DaemonOptions {
        dispatch: DispatchOptions {
            wedge_timeout: Duration::from_secs(120),
            max_restarts: 3,
            restart_backoff: Duration::from_millis(50),
            poison_threshold: 2,
            log: kill_log,
            ..DispatchOptions::default()
        },
        poll: Duration::from_millis(20),
        ..DaemonOptions::default()
    };

    let merged_journal = spool.merged_journal();
    let fleet = std::thread::spawn(move || run_daemon(&spool, spec, &opts).expect("fleet runs"));

    // Watch the supervisor log for the victim shard's first spawn,
    // give it a beat to get into the sweep (the stalled job pins the
    // shard open for >= 2.5 s), then kill -9 it.
    let deadline = Instant::now() + Duration::from_secs(30);
    let pid = loop {
        assert!(Instant::now() < deadline, "victim shard never spawned");
        let found = KILL_LOG
            .lock()
            .unwrap()
            .iter()
            .find_map(|l| spawned_pid(l, victim_shard));
        if let Some(pid) = found {
            break pid;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    std::thread::sleep(Duration::from_millis(600));
    kill9(pid);

    let report = fleet.join().expect("fleet thread");
    let victim = &report.shards[victim_shard as usize];
    assert!(victim.restarts >= 1, "killed shard restarted: {:?}", victim);
    assert!(
        victim
            .deaths
            .iter()
            .any(|d| matches!(d, DeathCause::Crashed { .. })),
        "kill -9 classifies as a crash: {:?}",
        victim.deaths
    );
    assert!(
        report
            .shards
            .iter()
            .all(|s| matches!(s.outcome, ShardOutcome::Completed { .. })),
        "every shard completed: {:?}",
        report.shards
    );
    assert_eq!(report.exit_code(), 0, "{}", report.summary());
    assert_eq!(report.ok, 6);
    assert!(report.poisoned.is_empty(), "one death never poisons");

    // The paper-facing acceptance bar: merged canon == clean canon,
    // byte for byte.
    let merged_canon = canon(&merged_journal);
    let clean_canon = canon(&clean);
    assert!(!merged_canon.is_empty());
    assert_eq!(merged_canon, clean_canon, "recovery is bit-identical");
    std::fs::remove_dir_all(&dir).ok();
}

static WEDGE_LOG: Mutex<Vec<String>> = Mutex::new(Vec::new());
fn wedge_log(line: &str) {
    WEDGE_LOG.lock().unwrap().push(line.to_string());
}

/// A job that wall-stalls with heartbeats disabled silences its
/// shard's progress stream: the supervisor must detect the wedge
/// within the timeout, restart the shard, and — once the job has
/// killed its shard twice — quarantine it as `poisoned` while every
/// other job completes.
#[test]
fn wedged_shard_is_restarted_and_its_job_poisoned() {
    let dir = scratch_dir("wedge");
    // The stall (60 s) dwarfs the wedge timeout (1.5 s); with
    // `--heartbeat-ms 0` nothing beats through it, so the stream goes
    // silent and the supervisor must act.
    let stall_key = "TRu|CG";
    let stall_ms = 60_000;
    let jobs = jobs_with_stall(Some(stall_key), stall_ms);
    let victim_key = jobs
        .iter()
        .map(|j| j.key())
        .find(|k| k.contains(stall_key))
        .expect("stalled job exists");
    let victim_shard = shard_of(&victim_key, 2);

    let spool = arm_spool(&dir.join("spool"));
    let opts = DaemonOptions {
        dispatch: DispatchOptions {
            wedge_timeout: Duration::from_millis(1_500),
            max_restarts: 3,
            restart_backoff: Duration::from_millis(50),
            poison_threshold: 2,
            log: wedge_log,
            ..DispatchOptions::default()
        },
        poll: Duration::from_millis(20),
        ..DaemonOptions::default()
    };
    let spec = fleet_spec(&spool, 0, stall_key, stall_ms);
    let report = run_daemon(&spool, spec, &opts).expect("fleet runs");

    let victim = &report.shards[victim_shard as usize];
    assert!(
        victim.restarts >= 2,
        "two wedges before quarantine: {:?}",
        victim
    );
    assert!(
        victim
            .deaths
            .iter()
            .filter(|d| matches!(d, DeathCause::Wedged { .. }))
            .count()
            >= 2,
        "both deaths are wedges: {:?}",
        victim.deaths
    );
    assert_eq!(
        victim.outcome,
        ShardOutcome::Completed { code: 2 },
        "the shard finishes past the quarantine with a failed job"
    );
    assert_eq!(report.exit_code(), 2, "{}", report.summary());
    assert_eq!(report.poisoned, vec![victim_key.clone()]);
    assert_eq!(report.ok, 5, "every healthy job completed");
    assert_eq!(report.failed, 1);
    assert!(report.missing.is_empty());

    // The merged journal carries the typed quarantine record, stamped
    // with the hash the worker reported: the stalled job's own, which
    // the stall set apart from the plain job's.
    let merged = std::fs::read_to_string(spool.merged_journal()).unwrap();
    let latest = latest_entries(&merged);
    let entry = &latest[&victim_key];
    assert_eq!(entry.status, "failed");
    assert_eq!(entry.error_kind.as_deref(), Some("poisoned"));
    assert_eq!(entry.attempts, 2, "blamed for two deaths");
    let hash_of = |jobs: Vec<SweepJob>| {
        jobs.into_iter()
            .find(|j| j.key() == victim_key)
            .map(|j| j.config_hash())
    };
    let stalled_hash = hash_of(jobs);
    assert_eq!(entry.config_hash, stalled_hash);
    assert_ne!(stalled_hash, hash_of(jobs_with_stall(None, 0)));

    // Healthy jobs are untouched by the injection (their fault plans
    // — and so config hashes — never changed): canon of the merged
    // journal equals a clean, stall-free run's canon minus the
    // poisoned key's line.
    let clean = dir.join("clean.jsonl");
    clean_sweep(&clean, None, 0);
    let clean_minus_victim: String = canon(&clean)
        .lines()
        .filter(|l| !l.contains(&victim_key))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(canon(&spool.merged_journal()), clean_minus_victim);

    // The supervisor narrated the recovery in greppable form.
    let log = WEDGE_LOG.lock().unwrap().join("\n");
    assert!(log.contains("wedged (no progress events for"), "{log}");
    assert!(log.contains("poisoned job"), "{log}");
    std::fs::remove_dir_all(&dir).ok();
}
