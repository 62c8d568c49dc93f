//! Fleet supervisor for multi-process sweeps (`dtexl sweep daemon`
//! and `dtexl sweep dispatch`, which is the daemon on a pre-armed
//! spool).
//!
//! [`run_sweep`](crate::sweep::run_sweep) already isolates jobs
//! behind `catch_unwind` (and a watched job on a disposable thread),
//! but a panic that escapes isolation, an OOM kill, or a wedged
//! process still takes the whole run down with it.
//! This module moves the fault boundary to the *process*: a supervisor
//! spawns one child `dtexl sweep --spool DIR --shard i/N` per shard,
//! tails each child's `--progress-to` JSONL stream, and drives a
//! per-shard state machine:
//!
//! ```text
//!            ┌────────────────────── backoff elapsed ─────────────┐
//!            ▼                                                    │
//!        [pending] ──spawn──▶ [healthy] ──exit 0/2──▶ [completed] │
//!                                │ │ │                            │
//!              no events within  │ │ │ non-zero / signal exit     │
//!              --wedge-timeout ──┘ │ └─────────────▶ (crashed) ───┤
//!                │                 │ rss / cgroup limit           │
//!                ▼                 ▼                              │
//!             (wedged)        (oom-killed)                        │
//!                └────────────────┴──── blame in-flight jobs, ────┘
//!                                       restarts < --max-restarts?
//!                                       no → [gave up]
//! ```
//!
//! Every death blames the jobs that were in flight (progress stream
//! said `attempt`/`heartbeat` but not yet `done`). A job blamed for
//! [`DispatchOptions::poison_threshold`] deaths is **poisoned**: the
//! supervisor appends a typed `error_kind:"poisoned"` record to the
//! shard's journal and restarts the shard, whose `--resume` pass sees
//! the quarantine ([`JobError::Poisoned`]) and fails the job without
//! executing it. The record carries the `config_hash` the child
//! itself reported on the job's progress events, so the supervisor
//! never rebuilds a job list of its own. One pathological config
//! therefore degrades to a single failed record instead of a dead
//! fleet.
//!
//! Children always restart `--resume`-ing their own journal, so a
//! restart re-runs only the jobs the dead incarnation had not
//! journaled. The daemon ([`run_daemon`](crate::daemon::run_daemon))
//! drives this machine one tick at a time, merges the shard journals
//! as they grow and audits coverage over the spool's job keys.
//!
//! Hard memory enforcement happens at the process boundary: when a
//! per-shard limit is set, the supervisor places each child in a
//! dedicated cgroup-v2 with `memory.max` when the cgroup filesystem
//! is writable, and otherwise falls back to polling the child's RSS
//! from `/proc` and killing it on overrun. Either way the *kernel's*
//! accounting covers every thread of the child — including the lane
//! workers that an in-process `AllocMeter` can only see when the
//! pipeline hands the tag down.
//!
//! Wall-clock use (wedge timers, restart backoff) is intrinsic to
//! supervising real processes; the determinism lint allows it here by
//! a scoped built-in allowlist entry rather than by widening the
//! sim-crate rules (see `cargo xtask lint`).

use crate::daemon::ShardStatus;
use crate::spool::Spool;
use crate::sweep::{
    journal_line, parse_progress_line, JobError, JobRecord, JobStatus, JournalEntry, ProgressLine,
    Shard,
};
use crate::tail::TailReader;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// What to run: the child binary, the worker arguments every shard
/// shares, and the shard count.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The `dtexl` binary to spawn.
    pub program: PathBuf,
    /// Worker arguments forwarded to every child verbatim (`sweep
    /// --spool DIR`, budgets, …). The supervisor appends the
    /// per-shard `--shard i/N --journal … --resume --progress-to …`
    /// itself; the spec must not contain them.
    pub sweep_args: Vec<String>,
    /// Number of shard processes (`N` in `--shard i/N`).
    pub shards: u32,
}

/// Supervision knobs for [`Fleet`].
#[derive(Debug, Clone)]
pub struct DispatchOptions {
    /// Declare a shard wedged — kill and restart it — when its
    /// progress stream produces no complete line for this long.
    pub wedge_timeout: Duration,
    /// Re-spawns allowed per shard after its first spawn; exceeding
    /// this marks the shard gave-up (fleet exit code 1).
    pub max_restarts: u32,
    /// Base restart delay; restart `n` waits `backoff × 2^(n-1)`,
    /// doubling capped at ×64.
    pub restart_backoff: Duration,
    /// Shard deaths blamed on one in-flight job before the supervisor
    /// quarantines it as poisoned (by default, a job that kills its
    /// shard twice).
    pub poison_threshold: u32,
    /// Per-shard-process memory limit in bytes, enforced at the
    /// process boundary (cgroup-v2 `memory.max` when available, else
    /// supervisor-polled RSS). `None` = unlimited.
    pub mem_limit: Option<u64>,
    /// Supervisor log sink, one line per call. A fn pointer (like
    /// `SweepOptions::sleeper`) so the options stay `Clone` + `Debug`;
    /// the CLI logs to stderr, tests capture into a static.
    pub log: fn(&str),
}

impl Default for DispatchOptions {
    fn default() -> Self {
        Self {
            wedge_timeout: Duration::from_secs(30),
            max_restarts: 3,
            restart_backoff: Duration::from_millis(500),
            poison_threshold: 2,
            mem_limit: None,
            log: log_to_stderr,
        }
    }
}

/// Default [`DispatchOptions::log`] sink: one line to stderr.
fn log_to_stderr(line: &str) {
    eprintln!("{line}");
}

/// Why the supervisor declared a shard incarnation dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeathCause {
    /// The child exited with a non-zero status (or a signal) the
    /// supervisor did not inflict and cannot attribute to memory.
    Crashed {
        /// Human-readable exit status (`signal 9`, `exit code 101`…).
        status: String,
    },
    /// The progress stream went silent past the wedge timeout; the
    /// supervisor killed the child.
    Wedged {
        /// How long the stream had been silent when the shard was
        /// declared wedged.
        silence: Duration,
    },
    /// The child died of (or was killed for) exceeding the per-shard
    /// memory limit.
    OomKilled {
        /// What convicted it: a cgroup `oom_kill` event, a supervisor
        /// RSS-poll overrun, or a kill signal with the last heartbeat
        /// peak at the limit.
        evidence: String,
    },
}

impl fmt::Display for DeathCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeathCause::Crashed { status } => write!(f, "crashed ({status})"),
            DeathCause::Wedged { silence } => {
                write!(
                    f,
                    "wedged (no progress events for {}ms)",
                    silence.as_millis()
                )
            }
            DeathCause::OomKilled { evidence } => write!(f, "oom-killed ({evidence})"),
        }
    }
}

/// Terminal state of one shard slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The child ran a sweep to completion (exit code 0 or 2 — 2 is
    /// "completed with failed jobs", which is the sweep's business,
    /// not a process fault).
    Completed {
        /// The child's exit code.
        code: i32,
    },
    /// The shard exhausted [`DispatchOptions::max_restarts`].
    GaveUp,
}

/// One shard's supervision history, for the final report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    /// Which slice this slot ran.
    pub shard: Shard,
    /// Re-spawns consumed (0 = first incarnation completed).
    pub restarts: u32,
    /// Every death the supervisor recorded, in order.
    pub deaths: Vec<DeathCause>,
    /// How the slot ended.
    pub outcome: ShardOutcome,
    /// Progress-stream sequence gaps observed (lost lines).
    pub stream_gaps: u64,
}

/// Tail-side view of one child incarnation's progress stream: which
/// jobs are in flight (blame candidates), the freshest allocator
/// peak, and stream-integrity counters.
#[derive(Debug, Default)]
struct StreamTracker {
    /// Jobs with an `attempt`/`heartbeat` but no `done` yet, mapped to
    /// the config hash the child reported for them (`None` on streams
    /// that predate the field).
    in_flight: BTreeMap<String, Option<u64>>,
    /// Next expected `seq` (gap detection).
    next_seq: u64,
    /// Sequence gaps observed (lost or reordered lines).
    gaps: u64,
    /// Lines whose `pid` was not the supervised child's (stale
    /// writer); such lines are counted and otherwise ignored.
    foreign_pid_lines: u64,
    /// Largest `peak_alloc_bytes` seen on any event.
    last_peak: u64,
}

impl StreamTracker {
    /// Fold one parsed progress line into the tracker. `expect_pid` is
    /// the supervised child's pid; lines stamped with any other pid
    /// are ignored (a stale writer must not pollute blame).
    fn observe(&mut self, line: &ProgressLine, expect_pid: u32) {
        if line.pid.is_some_and(|p| p != expect_pid) {
            self.foreign_pid_lines += 1;
            return;
        }
        if let Some(seq) = line.seq {
            if seq != self.next_seq {
                self.gaps += 1;
            }
            self.next_seq = seq + 1;
        }
        self.last_peak = self.last_peak.max(line.peak_alloc_bytes);
        match line.event.as_str() {
            // `attempt` marks real execution; a heartbeat implies it
            // too (covers a lost attempt line).
            "attempt" | "heartbeat" => {
                self.in_flight.insert(line.key.clone(), line.config_hash);
            }
            "done" => {
                self.in_flight.remove(&line.key);
            }
            _ => {}
        }
    }
}

/// One live child process plus the supervisor's tail state for it.
#[derive(Debug)]
struct RunningShard {
    child: Child,
    pid: u32,
    /// Tail state for the incarnation's `--progress-to` stream.
    tail: TailReader,
    tracker: StreamTracker,
    /// When the progress stream last produced a complete line (spawn
    /// time initially) — the wedge clock.
    last_event: Instant,
    /// Set when the supervisor kills the child deliberately, so the
    /// reaped exit status is classified as that cause rather than
    /// re-diagnosed.
    kill_cause: Option<DeathCause>,
    /// The child's cgroup directory, when kernel enforcement is on.
    cgroup: Option<PathBuf>,
}

/// Supervision state of one shard slot.
#[derive(Debug)]
enum Phase {
    /// Waiting out the restart backoff (or the initial spawn).
    Pending { at: Instant },
    /// A child incarnation is (believed) alive.
    Running(Box<RunningShard>),
    /// The child exited cleanly; the slot is done.
    Completed { code: i32 },
    /// Restart budget exhausted.
    GaveUp,
}

/// One shard slot: persistent identity, restart ledger and blame
/// counts that survive incarnations.
struct ShardState {
    shard: Shard,
    journal: PathBuf,
    phase: Phase,
    /// Spawns performed so far (incarnation counter).
    incarnations: u32,
    /// Re-spawns consumed (`incarnations - 1` once running).
    restarts: u32,
    deaths: Vec<DeathCause>,
    /// Shard deaths blamed on each job key (across incarnations).
    blame: BTreeMap<String, u32>,
    /// Keys already quarantined (so one journal line each).
    poisoned: BTreeSet<String>,
    /// Stream gaps accumulated across incarnations.
    stream_gaps: u64,
}

/// Coverage of a job list against the latest merged journal entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Coverage {
    /// Jobs whose latest record is `ok` or `skipped`.
    pub ok: usize,
    /// Jobs whose latest record is `failed`.
    pub failed: usize,
    /// The failed jobs that were poison-quarantined, by key.
    pub poisoned: Vec<String>,
    /// Jobs with no record at all.
    pub missing: Vec<String>,
}

/// Audit a key set against a latest-entry lookup (the daemon's live
/// status and its end-of-run report).
pub(crate) fn audit_coverage<'a, K, F>(keys: K, lookup: F) -> Coverage
where
    K: IntoIterator<Item = &'a String>,
    F: Fn(&str) -> Option<&'a JournalEntry>,
{
    let mut cov = Coverage::default();
    for key in keys {
        match lookup(key) {
            Some(e) if e.status == "ok" || e.status == "skipped" => cov.ok += 1,
            Some(e) if e.status == "failed" => {
                cov.failed += 1;
                if e.error_kind.as_deref() == Some("poisoned") {
                    cov.poisoned.push(key.clone());
                }
            }
            _ => cov.missing.push(key.clone()),
        }
    }
    cov
}

/// A supervised fleet of shard processes, one tick at a time.
///
/// The daemon drives the machine so it can interleave spool
/// ingestion, live merging and status publication between ticks, and
/// revive workers that exit while the queue is still open.
pub(crate) struct Fleet {
    spec: FleetSpec,
    /// Where shard journals, progress streams and child logs live.
    root: PathBuf,
    /// Every job key the fleet knows about (coverage is audited over
    /// these).
    keys: BTreeSet<String>,
    shards: Vec<ShardState>,
}

impl Fleet {
    /// Build the shard slots over the spool's shard journals (nothing
    /// spawned yet).
    pub(crate) fn new(spec: FleetSpec, spool: &Spool) -> Self {
        let shard_count = spec.shards.max(1);
        let mut shards: Vec<ShardState> = Vec::with_capacity(shard_count as usize);
        for index in 0..shard_count {
            let shard = match Shard::new(index, shard_count) {
                Ok(s) => s,
                // Unreachable (index < count by construction), but the
                // supervisor must not panic over it.
                Err(_) => continue,
            };
            shards.push(ShardState {
                shard,
                journal: spool.shard_journal(index),
                phase: Phase::Pending { at: Instant::now() },
                incarnations: 0,
                restarts: 0,
                deaths: Vec::new(),
                blame: BTreeMap::new(),
                poisoned: BTreeSet::new(),
                stream_gaps: 0,
            });
        }
        Self {
            spec,
            root: spool.root().to_path_buf(),
            keys: BTreeSet::new(),
            shards,
        }
    }

    /// Register job keys (daemon spool ingest). Returns how many were
    /// new to the fleet; already-known keys are ignored.
    pub(crate) fn extend_keys(&mut self, keys: impl IntoIterator<Item = String>) -> usize {
        let before = self.keys.len();
        self.keys.extend(keys);
        self.keys.len() - before
    }

    /// Advance every shard slot by one supervision tick. Returns
    /// `true` when every slot is settled (completed or gave up).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when a child cannot be spawned
    /// or a poison record cannot be journaled.
    pub(crate) fn tick(&mut self, opts: &DispatchOptions) -> std::io::Result<bool> {
        let mut settled = true;
        for state in &mut self.shards {
            step_shard(state, &self.spec, &self.root, opts)?;
            settled &= matches!(state.phase, Phase::Completed { .. } | Phase::GaveUp);
        }
        Ok(settled)
    }

    /// Re-open completed slots (daemon mode, queue still open): a
    /// worker that exited cleanly goes back to pending for a fresh
    /// incarnation. Not a restart — nothing died; the slot is revived
    /// because more work can still arrive. Gave-up slots stay down.
    pub(crate) fn revive_completed(&mut self, opts: &DispatchOptions) {
        let log = opts.log;
        for state in &mut self.shards {
            if let Phase::Completed { code } = state.phase {
                log(&format!(
                    "dispatch: shard {} exited (code {code}) with the queue still open; reviving",
                    state.shard
                ));
                state.phase = Phase::Pending { at: Instant::now() };
            }
        }
    }

    /// Every shard's journal path (existing or not).
    pub(crate) fn journals(&self) -> Vec<PathBuf> {
        self.shards.iter().map(|s| s.journal.clone()).collect()
    }

    /// Every job key the fleet knows about.
    pub(crate) fn keys(&self) -> &BTreeSet<String> {
        &self.keys
    }

    /// Status-document rows, one per shard slot (the supervision
    /// internals stay private to this module).
    pub(crate) fn views(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .map(|s| {
                let (phase, pid, in_flight, peak, backoff_ms) = match &s.phase {
                    Phase::Pending { at } => (
                        "pending",
                        None,
                        Vec::new(),
                        0,
                        at.saturating_duration_since(Instant::now()).as_millis() as u64,
                    ),
                    Phase::Running(r) => (
                        "healthy",
                        Some(r.pid),
                        r.tracker.in_flight.keys().cloned().collect(),
                        r.tracker.last_peak,
                        0,
                    ),
                    Phase::Completed { .. } => ("completed", None, Vec::new(), 0, 0),
                    Phase::GaveUp => ("gave_up", None, Vec::new(), 0, 0),
                };
                ShardStatus {
                    index: s.shard.index,
                    phase: phase.into(),
                    pid,
                    restarts: s.restarts,
                    deaths: s.deaths.iter().map(ToString::to_string).collect(),
                    in_flight,
                    peak_alloc_bytes: peak,
                    backoff_ms,
                }
            })
            .collect()
    }

    /// Consume the fleet into per-shard supervision summaries.
    pub(crate) fn into_summaries(self) -> Vec<ShardSummary> {
        self.shards
            .into_iter()
            .map(|s| ShardSummary {
                shard: s.shard,
                restarts: s.restarts,
                deaths: s.deaths,
                outcome: match s.phase {
                    Phase::Completed { code } => ShardOutcome::Completed { code },
                    _ => ShardOutcome::GaveUp,
                },
                stream_gaps: s.stream_gaps,
            })
            .collect()
    }
}

/// Advance one shard slot by one supervision tick.
fn step_shard(
    state: &mut ShardState,
    spec: &FleetSpec,
    root: &Path,
    opts: &DispatchOptions,
) -> std::io::Result<()> {
    let log = opts.log;
    match &mut state.phase {
        Phase::Completed { .. } | Phase::GaveUp => {}
        Phase::Pending { at } => {
            if Instant::now() >= *at {
                let running = spawn_shard(state, spec, root, opts)?;
                state.phase = Phase::Running(Box::new(running));
            }
        }
        Phase::Running(running) => {
            drain_progress(running, &mut state.stream_gaps);
            match running.child.try_wait()? {
                Some(status) => {
                    // Final drain: the child may have flushed events
                    // between our last poll and its exit.
                    drain_progress(running, &mut state.stream_gaps);
                    let cgroup_oom = running.cgroup.as_deref().is_some_and(cgroup_oom_killed);
                    if let Some(cg) = running.cgroup.take() {
                        let _ = std::fs::remove_dir(&cg);
                    }
                    let verdict = classify_exit(
                        &status,
                        running.kill_cause.take(),
                        cgroup_oom,
                        running.tracker.last_peak,
                        opts.mem_limit,
                    );
                    match verdict {
                        Ok(code) => {
                            log(&format!(
                                "dispatch: shard {} pid {} completed (exit {code})",
                                state.shard, running.pid
                            ));
                            state.phase = Phase::Completed { code };
                        }
                        Err(cause) => handle_death(state, cause, opts)?,
                    }
                }
                None => {
                    // Liveness checks, in escalating order of cost:
                    // wedge (pure clock math), then RSS (a /proc read,
                    // only when the fallback enforcer is active).
                    let silence = running.last_event.elapsed();
                    if silence >= opts.wedge_timeout {
                        let cause = DeathCause::Wedged { silence };
                        log(&format!(
                            "dispatch: shard {} pid {} {cause}; killing it",
                            state.shard, running.pid
                        ));
                        kill_and_reap(running, cause);
                    } else if let (Some(limit), None) = (opts.mem_limit, &running.cgroup) {
                        if let Some(rss) = rss_bytes(running.pid) {
                            if rss > limit {
                                let cause = DeathCause::OomKilled {
                                    evidence: format!("rss {rss} bytes > limit {limit} (polled)"),
                                };
                                log(&format!(
                                    "dispatch: shard {} pid {} {cause}; killing it",
                                    state.shard, running.pid
                                ));
                                kill_and_reap(running, cause);
                            }
                        }
                    }
                    // A kill above is reaped on the next tick through
                    // the `try_wait` arm, with `kill_cause` set.
                }
            }
        }
    }
    Ok(())
}

/// SIGKILL the child and remember why; the next tick reaps it.
fn kill_and_reap(running: &mut RunningShard, cause: DeathCause) {
    running.kill_cause = Some(cause);
    // Kill failures (already-dead child) are fine: try_wait reaps it
    // either way and the recorded cause still applies.
    let _ = running.child.kill();
}

/// Spawn one child incarnation for a shard slot.
fn spawn_shard(
    state: &mut ShardState,
    spec: &FleetSpec,
    root: &Path,
    opts: &DispatchOptions,
) -> std::io::Result<RunningShard> {
    let log = opts.log;
    state.incarnations += 1;
    let incarnation = state.incarnations;
    // A fresh progress file per incarnation: restarts never truncate a
    // stream the supervisor is mid-tail in.
    let progress_path = root.join(format!(
        "shard-{}.run-{incarnation}.progress.jsonl",
        state.shard.index
    ));
    let cgroup = opts
        .mem_limit
        .and_then(|limit| cgroup_create(state.shard.index, limit));
    // Child stdout/stderr land in an append-only per-shard log, so
    // crashes stay debuggable without entangling the supervisor's own
    // stderr.
    let child_log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(root.join(format!("shard-{}.log", state.shard.index)))?;
    let child_log_err = child_log.try_clone()?;

    let mut cmd = Command::new(&spec.program);
    cmd.args(&spec.sweep_args)
        .arg("--shard")
        .arg(state.shard.to_string())
        .arg("--journal")
        .arg(&state.journal)
        .arg("--resume")
        .arg("--progress-to")
        .arg(&progress_path)
        .stdin(Stdio::null())
        .stdout(Stdio::from(child_log))
        .stderr(Stdio::from(child_log_err));
    let child = cmd.spawn()?;
    let pid = child.id();
    if let Some(cg) = &cgroup {
        if std::fs::write(cg.join("cgroup.procs"), pid.to_string()).is_err() {
            // Could not place the child in its cgroup: fall back to
            // RSS polling rather than running unenforced.
            let _ = std::fs::remove_dir(cg);
        }
    }
    let enforced = match &cgroup {
        Some(cg) if cg.join("cgroup.procs").exists() => "cgroup",
        _ => {
            if opts.mem_limit.is_some() {
                "rss-poll"
            } else {
                "none"
            }
        }
    };
    log(&format!(
        "dispatch: shard {} pid {pid} spawned (incarnation {incarnation}, mem enforcement: \
         {enforced})",
        state.shard
    ));
    Ok(RunningShard {
        child,
        pid,
        tail: TailReader::new(progress_path),
        tracker: StreamTracker::default(),
        last_event: Instant::now(),
        kill_cause: None,
        cgroup: cgroup.filter(|cg| cg.join("cgroup.procs").exists()),
    })
}

/// Blame the dead incarnation's in-flight jobs, quarantine any that
/// crossed the poison threshold, and either schedule a restart or
/// give the slot up.
fn handle_death(
    state: &mut ShardState,
    cause: DeathCause,
    opts: &DispatchOptions,
) -> std::io::Result<()> {
    let log = opts.log;
    let in_flight: Vec<(String, Option<u64>)> = match &state.phase {
        Phase::Running(r) => r
            .tracker
            .in_flight
            .iter()
            .map(|(k, h)| (k.clone(), *h))
            .collect(),
        _ => Vec::new(),
    };
    log(&format!(
        "dispatch: shard {} died: {cause} ({} job(s) in flight)",
        state.shard,
        in_flight.len()
    ));
    for (key, config_hash) in &in_flight {
        let blame = state.blame.entry(key.clone()).or_insert(0);
        *blame += 1;
        if *blame >= opts.poison_threshold && !state.poisoned.contains(key) {
            // The child's resume pass honours the quarantine only at the
            // hash it computes itself, which is the one it reported.
            let Some(config_hash) = *config_hash else {
                log(&format!(
                    "dispatch: cannot quarantine job {key} (its progress events carry no \
                     config hash)"
                ));
                continue;
            };
            let deaths = *blame;
            let record = JobRecord {
                // Not journaled; the key identifies the job.
                index: 0,
                key: key.clone(),
                status: JobStatus::Failed,
                attempts: deaths,
                elapsed: Duration::ZERO,
                error: Some(JobError::Poisoned { deaths }),
                metrics: None,
                config_hash,
                peak_alloc: None,
                shard: Some(state.shard),
                obs: None,
            };
            let mut journal = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&state.journal)?;
            writeln!(journal, "{}", journal_line(&record))?;
            journal.flush()?;
            state.poisoned.insert(key.clone());
            log(&format!(
                "dispatch: poisoned job {key}: blamed for {deaths} shard death(s); journaled \
                 and quarantined"
            ));
        }
    }
    state.deaths.push(cause);
    if state.restarts >= opts.max_restarts {
        log(&format!(
            "dispatch: shard {} gave up after {} restart(s)",
            state.shard, state.restarts
        ));
        state.phase = Phase::GaveUp;
        return Ok(());
    }
    state.restarts += 1;
    let exp = state.restarts.saturating_sub(1).min(6);
    let delay = opts.restart_backoff.saturating_mul(1 << exp);
    log(&format!(
        "dispatch: shard {} restart {}/{} in {}ms",
        state.shard,
        state.restarts,
        opts.max_restarts,
        delay.as_millis()
    ));
    state.phase = Phase::Pending {
        at: Instant::now() + delay,
    };
    Ok(())
}

/// Pull newly appended bytes from the shard's progress stream and fold
/// complete lines into the tracker. A trailing partial line (child
/// died mid-write) is carried by the [`TailReader`] until its
/// remainder arrives or the incarnation is abandoned.
fn drain_progress(running: &mut RunningShard, stream_gaps: &mut u64) {
    let gaps_before = running.tracker.gaps;
    let tracker = &mut running.tracker;
    let pid = running.pid;
    let mut saw_event = false;
    running.tail.drain(|line| {
        if let Some(parsed) = parse_progress_line(line) {
            tracker.observe(&parsed, pid);
            saw_event = true;
        }
    });
    if saw_event {
        running.last_event = Instant::now();
    }
    *stream_gaps += running.tracker.gaps - gaps_before;
}

/// Classify a reaped exit status: `Ok(code)` for a clean sweep exit
/// (0 or 2), `Err(cause)` for anything the supervisor must treat as a
/// shard death.
fn classify_exit(
    status: &std::process::ExitStatus,
    kill_cause: Option<DeathCause>,
    cgroup_oom: bool,
    last_peak: u64,
    mem_limit: Option<u64>,
) -> Result<i32, DeathCause> {
    // The supervisor's own kill verdict (wedge / RSS overrun) wins:
    // the exit status is just the SIGKILL it inflicted.
    if let Some(cause) = kill_cause {
        return Err(cause);
    }
    if cgroup_oom {
        return Err(DeathCause::OomKilled {
            evidence: "cgroup memory.events recorded an oom_kill".into(),
        });
    }
    match status.code() {
        Some(code @ (0 | 2)) => Ok(code),
        Some(code) => Err(DeathCause::Crashed {
            status: format!("exit code {code}"),
        }),
        None => {
            // Signal exit the supervisor did not inflict. A kill
            // signal with the last heartbeat's allocator peak at the
            // limit is the kernel OOM killer's signature (exit status
            // plus the last heartbeat's `peak_alloc_bytes`).
            let sig = exit_signal(status);
            if mem_limit.is_some_and(|limit| last_peak >= limit) {
                return Err(DeathCause::OomKilled {
                    evidence: format!(
                        "killed by signal {} with last heartbeat peak {last_peak} bytes at the \
                         {}-byte limit",
                        sig.unwrap_or(-1),
                        mem_limit.unwrap_or(0)
                    ),
                });
            }
            Err(DeathCause::Crashed {
                status: match sig {
                    Some(s) => format!("signal {s}"),
                    None => "unknown abnormal exit".into(),
                },
            })
        }
    }
}

/// The signal that terminated the child, on unix.
#[cfg(unix)]
fn exit_signal(status: &std::process::ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt as _;
    status.signal()
}

/// Non-unix fallback: signals are not observable.
#[cfg(not(unix))]
fn exit_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}

/// The child's resident set size from `/proc/<pid>/status` (`VmRSS`),
/// for the fallback enforcer when no cgroup is available.
fn rss_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// Best-effort cgroup-v2 setup: a dedicated child cgroup with
/// `memory.max` set. Any failure (no cgroup2 mount, read-only fs,
/// unprivileged) returns `None` and the caller falls back to RSS
/// polling.
fn cgroup_create(shard_index: u32, limit: u64) -> Option<PathBuf> {
    let base = Path::new("/sys/fs/cgroup");
    // cgroup-v2 signature: the unified hierarchy exposes
    // `cgroup.controllers` at the mount root.
    if !base.join("cgroup.controllers").exists() {
        return None;
    }
    let dir = base.join(format!(
        "dtexl-dispatch-{}-s{shard_index}",
        std::process::id()
    ));
    std::fs::create_dir(&dir).ok()?;
    if std::fs::write(dir.join("memory.max"), limit.to_string()).is_err() {
        let _ = std::fs::remove_dir(&dir);
        return None;
    }
    Some(dir)
}

/// Whether the child's cgroup recorded a kernel OOM kill.
fn cgroup_oom_killed(cgroup: &Path) -> bool {
    std::fs::read_to_string(cgroup.join("memory.events")).is_ok_and(|events| {
        events.lines().any(|l| {
            l.split_once(' ')
                .is_some_and(|(k, v)| k == "oom_kill" && v.trim().parse::<u64>().unwrap_or(0) > 0)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(event: &str, key: &str, seq: u64, pid: u32) -> ProgressLine {
        ProgressLine {
            event: event.into(),
            key: key.into(),
            index: 0,
            attempt: 1,
            elapsed_ms: 0,
            peak_alloc_bytes: 0,
            shard: None,
            pid: Some(pid),
            seq: Some(seq),
            status: None,
            top_stall: None,
            dram_requests: None,
            config_hash: Some(0xabc0 + seq),
        }
    }

    #[test]
    fn tracker_follows_the_job_lifecycle() {
        let mut t = StreamTracker::default();
        t.observe(&line("start", "a", 0, 7), 7);
        assert!(t.in_flight.is_empty(), "start alone is not execution");
        t.observe(&line("attempt", "a", 1, 7), 7);
        assert_eq!(t.in_flight.len(), 1);
        assert_eq!(t.in_flight["a"], Some(0xabc1), "the child-reported hash");
        t.observe(&line("heartbeat", "a", 2, 7), 7);
        assert_eq!(t.in_flight["a"], Some(0xabc2), "the latest report wins");
        t.observe(&line("attempt", "b", 3, 7), 7);
        assert_eq!(t.in_flight.len(), 2);
        t.observe(&line("done", "a", 4, 7), 7);
        assert_eq!(t.in_flight.len(), 1);
        assert_eq!(t.in_flight.get("b"), Some(&Some(0xabc3)));
        assert_eq!(t.gaps, 0);
    }

    #[test]
    fn tracker_detects_gaps_and_foreign_pids() {
        let mut t = StreamTracker::default();
        t.observe(&line("attempt", "a", 0, 7), 7);
        // seq 1 lost:
        t.observe(&line("heartbeat", "a", 2, 7), 7);
        assert_eq!(t.gaps, 1);
        // A stale writer's line is counted but never folds into state.
        t.observe(&line("done", "a", 3, 99), 7);
        assert_eq!(t.foreign_pid_lines, 1);
        assert!(t.in_flight.contains_key("a"), "foreign done ignored");
        t.observe(&line("done", "a", 3, 7), 7);
        assert!(t.in_flight.is_empty());
    }

    #[test]
    fn tracker_tracks_the_peak_high_water_mark() {
        let mut t = StreamTracker::default();
        let mut hb = line("heartbeat", "a", 0, 7);
        hb.peak_alloc_bytes = 10_000;
        t.observe(&hb, 7);
        let mut hb2 = line("heartbeat", "a", 1, 7);
        hb2.peak_alloc_bytes = 4_000;
        t.observe(&hb2, 7);
        assert_eq!(t.last_peak, 10_000, "peak is monotone");
    }

    #[test]
    fn exit_classification_covers_the_state_machine() {
        use std::process::Command;
        let ok = Command::new("true").status().expect("run /bin/true");
        let fail = Command::new("false").status().expect("run /bin/false");
        // Clean sweep exits: 0 completes, non-0/2 codes crash.
        assert_eq!(classify_exit(&ok, None, false, 0, None), Ok(0));
        assert_eq!(
            classify_exit(&fail, None, false, 0, None),
            Err(DeathCause::Crashed {
                status: "exit code 1".into()
            })
        );
        // A supervisor-inflicted kill keeps its recorded cause.
        let cause = DeathCause::Wedged {
            silence: Duration::from_secs(5),
        };
        assert_eq!(
            classify_exit(&ok, Some(cause.clone()), false, 0, None),
            Err(cause)
        );
        // cgroup OOM evidence outranks the raw status.
        assert!(matches!(
            classify_exit(&ok, None, true, 0, None),
            Err(DeathCause::OomKilled { .. })
        ));
    }

    #[test]
    fn signal_exits_classify_as_oom_only_with_memory_evidence() {
        use std::process::Command;
        // A child killed by SIGKILL: spawn a sleeper and kill it.
        let mut child = Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        child.kill().expect("kill sleep");
        let status = child.wait().expect("reap sleep");
        // No memory limit: a kill signal is a crash.
        assert!(matches!(
            classify_exit(&status, None, false, 0, None),
            Err(DeathCause::Crashed { .. })
        ));
        // With a limit and the last heartbeat peak at/over it, the
        // same status convicts the OOM killer.
        assert!(matches!(
            classify_exit(&status, None, false, 600, Some(512)),
            Err(DeathCause::OomKilled { .. })
        ));
        // Peak below the limit: still a crash.
        assert!(matches!(
            classify_exit(&status, None, false, 100, Some(512)),
            Err(DeathCause::Crashed { .. })
        ));
    }

    #[test]
    fn rss_probe_reads_this_process() {
        let rss = rss_bytes(std::process::id()).expect("/proc is available in tests");
        assert!(rss > 0, "a live process has resident pages");
    }
}
