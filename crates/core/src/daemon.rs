//! Sweep daemon: a spool-fed fleet supervisor with merge-as-you-go
//! and a pollable status endpoint — the one way to run a fleet.
//!
//! [`run_daemon`] drives the per-shard supervision state machine of
//! [`crate::dispatch`] over a spool. `dtexl sweep daemon` runs it
//! open-ended; `dtexl sweep dispatch` runs it on a pre-armed spool (one
//! batch submitted and accepted, drain already requested), so it
//! drains that batch and exits:
//!
//! * **Durable spool.** Jobs arrive through a [`Spool`] directory —
//!   `dtexl sweep submit` atomically appends content-addressed batches
//!   to `incoming/`, the daemon validates and moves them to
//!   `accepted/`, and the shard workers (child `dtexl sweep --spool`
//!   processes, [`run_spool_worker`]) rescan `accepted/` between
//!   generations. New work flows to healthy workers without
//!   restarting them.
//! * **Merge-as-you-go.** A live merger tails every shard journal and
//!   maintains `merged.jsonl` + `merged.canon` with the same
//!   last-wins / ok-over-failed / divergence semantics as
//!   `dtexl sweep merge` ([`MergeAccumulator`]). A daemon crash loses
//!   no completed work: shard journals are the source of truth, and a
//!   restarted daemon re-folds them from byte 0 into a bit-identical
//!   merged view.
//! * **Status endpoint.** An atomically-swapped `status.json`
//!   ([`DaemonStatus`]) — and, on unix, a socket speaking the same
//!   document — reports queue depth, per-shard state-machine phase,
//!   in-flight keys, completed/failed/poisoned counts, live
//!   peak-alloc and restart/backoff history. Dashboards and CI poll
//!   the file; nothing blocks on a reader.
//! * **Metrics plane.** A [`DaemonMetrics`] registry fed every tick
//!   is exposed as Prometheus text format two ways: an
//!   atomically-swapped `metrics.prom` in the spool and a `metrics`
//!   line command on the status socket (see `crate::registry` and
//!   `docs/OBSERVABILITY.md`).
//! * **Graceful drain.** SIGTERM/SIGINT (via the CLI's shutdown hook)
//!   writes the spool's drain marker: submission of new batches
//!   stops, workers finish everything already accepted and exit, the
//!   final merge is flushed, and a terminal status (`alive: false`)
//!   is swapped in before the daemon returns.
//!
//! Wall-clock use (poll sleeps, supervision timers) is intrinsic to a
//! daemon, as in the dispatch module; the determinism lint allows it
//! here by scoped built-in allowlist entries.

use crate::dispatch::{
    audit_coverage, DispatchOptions, Fleet, FleetSpec, ShardOutcome, ShardSummary,
};
use crate::registry::{DaemonMetrics, RESTART_CAUSES};
use crate::spool::{atomic_write, jobs_from_specs, Spool, EVENTS_ROTATE_BYTES};
use crate::sweep::{
    canon_text, journal_line, latest_entries, run_sweep, JobError, JobRecord, JobStatus,
    MergeAccumulator, MergeStats, Progress, ProgressKind, SweepJob, SweepOptions,
};
use crate::tail::TailReader;
use dtexl_obs::json::{self, escape, str_array, FromJson, Json};
use dtexl_pipeline::PipelineConfig;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

// --- status document -------------------------------------------------------

/// One shard slot's row in the status document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index.
    pub index: u32,
    /// Supervision phase: `pending`, `healthy`, `completed`,
    /// `gave_up`.
    pub phase: String,
    /// The live child's pid, when one is running.
    pub pid: Option<u32>,
    /// Re-spawns consumed so far.
    pub restarts: u32,
    /// Milliseconds of restart backoff still to wait (0 unless
    /// pending).
    pub backoff_ms: u64,
    /// Largest allocator peak seen on the live incarnation's progress
    /// stream (bytes).
    pub peak_alloc_bytes: u64,
    /// Every death recorded for this slot, human-readable, in order.
    pub deaths: Vec<String>,
    /// Keys currently in flight on the live incarnation.
    pub in_flight: Vec<String>,
}

impl ShardStatus {
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "{{\"index\":{},\"phase\":\"{}\"",
            self.index,
            escape(&self.phase)
        );
        if let Some(pid) = self.pid {
            let _ = write!(s, ",\"pid\":{pid}");
        }
        let _ = write!(
            s,
            ",\"restarts\":{},\"backoff_ms\":{},\"peak_alloc_bytes\":{},\"deaths\":{},\
             \"in_flight\":{}",
            self.restarts,
            self.backoff_ms,
            self.peak_alloc_bytes,
            str_array(&self.deaths),
            str_array(&self.in_flight)
        );
        s.push('}');
        s
    }
}

impl FromJson for ShardStatus {
    fn from_json(value: &Json) -> Option<Self> {
        Some(Self {
            index: value.field("index")?,
            phase: value.field("phase")?,
            pid: value.field("pid"),
            restarts: value.field("restarts")?,
            backoff_ms: value.field("backoff_ms")?,
            peak_alloc_bytes: value.field("peak_alloc_bytes")?,
            deaths: value.field("deaths")?,
            in_flight: value.field("in_flight")?,
        })
    }
}

/// The daemon's pollable status document — the exact content of the
/// spool's `status.json` (and of one socket response). Serialized with
/// [`to_json`](Self::to_json), parsed back with
/// [`parse`](Self::parse) through the crate's one codec
/// ([`dtexl_obs::json`]); the pair round-trips field-by-field, and any
/// JSON parser reads the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonStatus {
    /// `active` (work queued or in flight), `draining` (drain
    /// requested, work remains), `drained` (queue empty, nothing in
    /// flight — the state CI polls for), or `stopped` (terminal write
    /// with work left behind, e.g. a shard gave up).
    pub state: String,
    /// `false` only on the terminal status written as the daemon
    /// exits.
    pub alive: bool,
    /// The daemon process's pid.
    pub pid: u32,
    /// Status-write counter (bumps once per swapped file; a reader
    /// seeing the same `seq` twice is reading the same snapshot).
    pub seq: u64,
    /// Whether a drain has been requested.
    pub draining: bool,
    /// Jobs the fleet knows about (accepted batches, deduplicated by
    /// key).
    pub submitted_jobs: u64,
    /// Jobs with no terminal record in the live merge yet — the queue
    /// depth, in-flight work included.
    pub queued: u64,
    /// Jobs whose latest merged record is `ok`/`skipped`.
    pub ok: u64,
    /// Jobs whose latest merged record is `failed`.
    pub failed: u64,
    /// The failed jobs that were poison-quarantined.
    pub poisoned: u64,
    /// Batches accepted from `incoming/` so far.
    pub batches_accepted: u64,
    /// Batches dropped as content-duplicates of accepted ones.
    pub batches_duplicate: u64,
    /// Batches quarantined as corrupt.
    pub batches_rejected: u64,
    /// Largest live allocator peak across shard streams (bytes).
    pub peak_alloc_bytes: u64,
    /// Keys in flight across all shards.
    pub in_flight: Vec<String>,
    /// Per-shard supervision rows.
    pub shards: Vec<ShardStatus>,
}

impl DaemonStatus {
    /// Render the document as one line of JSON (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let shards: Vec<String> = self.shards.iter().map(ShardStatus::to_json).collect();
        format!(
            "{{\"state\":\"{}\",\"alive\":{},\"pid\":{},\"seq\":{},\"draining\":{},\
             \"submitted_jobs\":{},\"queued\":{},\"ok\":{},\"failed\":{},\"poisoned\":{},\
             \"batches_accepted\":{},\"batches_duplicate\":{},\"batches_rejected\":{},\
             \"peak_alloc_bytes\":{},\"in_flight\":{},\"shards\":[{}]}}",
            escape(&self.state),
            self.alive,
            self.pid,
            self.seq,
            self.draining,
            self.submitted_jobs,
            self.queued,
            self.ok,
            self.failed,
            self.poisoned,
            self.batches_accepted,
            self.batches_duplicate,
            self.batches_rejected,
            self.peak_alloc_bytes,
            str_array(&self.in_flight),
            shards.join(",")
        )
    }

    /// Parse a document rendered by [`to_json`](Self::to_json); `None`
    /// for blank, truncated or corrupt input (a poller may race the
    /// very first atomic swap and read an empty file).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let v = json::parse(text)?;
        Some(Self {
            state: v.field("state")?,
            alive: v.field("alive")?,
            pid: v.field("pid")?,
            seq: v.field("seq")?,
            draining: v.field("draining")?,
            submitted_jobs: v.field("submitted_jobs")?,
            queued: v.field("queued")?,
            ok: v.field("ok")?,
            failed: v.field("failed")?,
            poisoned: v.field("poisoned")?,
            batches_accepted: v.field("batches_accepted")?,
            batches_duplicate: v.field("batches_duplicate")?,
            batches_rejected: v.field("batches_rejected")?,
            peak_alloc_bytes: v.field("peak_alloc_bytes")?,
            in_flight: v.field("in_flight")?,
            shards: v.field("shards")?,
        })
    }

    /// Multi-line human rendering for `dtexl sweep status`.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "daemon {} (pid {}, seq {}): {} queued / {} submitted, {} ok, {} failed ({} \
             poisoned), {} in flight",
            self.state,
            self.pid,
            self.seq,
            self.queued,
            self.submitted_jobs,
            self.ok,
            self.failed,
            self.poisoned,
            self.in_flight.len()
        );
        let _ = write!(
            s,
            "\n  batches: {} accepted, {} duplicate, {} rejected; live peak {} bytes",
            self.batches_accepted,
            self.batches_duplicate,
            self.batches_rejected,
            self.peak_alloc_bytes
        );
        for sh in &self.shards {
            let pid = sh.pid.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n  shard {}: {} (pid {pid}), {} restart(s), {} in flight, peak {} bytes",
                sh.index,
                sh.phase,
                sh.restarts,
                sh.in_flight.len(),
                sh.peak_alloc_bytes
            );
            if sh.backoff_ms > 0 {
                let _ = write!(s, ", backoff {}ms", sh.backoff_ms);
            }
            for d in &sh.deaths {
                let _ = write!(s, "\n    death: {d}");
            }
        }
        s
    }
}

// --- live merger -----------------------------------------------------------

/// Merge-as-you-go: tails every shard journal and re-renders the
/// merged journal + canon view whenever new lines land. Rendering is
/// a pure function of the winning line set, so a daemon restart that
/// re-folds the journals from byte 0 reproduces both files
/// bit-identically.
struct LiveMerger {
    tails: Vec<TailReader>,
    acc: MergeAccumulator,
    merged_path: PathBuf,
    canon_path: PathBuf,
    /// First divergence observed, if any (never auto-resolved; the
    /// offending line is not folded and the daemon reports the error).
    diverged: Option<String>,
}

impl LiveMerger {
    fn new(journals: Vec<PathBuf>, merged_path: PathBuf, canon_path: PathBuf) -> Self {
        Self {
            tails: journals.into_iter().map(TailReader::new).collect(),
            acc: MergeAccumulator::new(),
            merged_path,
            canon_path,
            diverged: None,
        }
    }

    /// Drain every journal tail; rewrite the merged journal and canon
    /// view if anything changed. Returns whether new lines landed.
    fn tick(&mut self) -> std::io::Result<bool> {
        let mut folded = false;
        let acc = &mut self.acc;
        let diverged = &mut self.diverged;
        for tail in &mut self.tails {
            tail.drain(|line| {
                match acc.fold_line(line) {
                    Ok(()) => folded = true,
                    // Keep folding the rest: one divergent line must
                    // not stall the merge of every other job.
                    Err(e) => {
                        if diverged.is_none() {
                            *diverged = Some(e.to_string());
                        }
                    }
                }
            });
        }
        if folded {
            let merged = self.acc.render();
            atomic_write(&self.merged_path, &merged)?;
            atomic_write(&self.canon_path, &canon_text(&merged))?;
        }
        Ok(folded)
    }
}

// --- spool worker (child side) ---------------------------------------------

/// Knobs for [`run_spool_worker`] (`dtexl sweep --spool`).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Applied to every job the worker materializes from the spool,
    /// before it is run or counted: the CLI's `--stall-key/--stall-ms`
    /// supervision test hook, the same function plain `dtexl sweep`
    /// applies. A stalled job's fault plan, and so its config hash,
    /// changes exactly as in a plain sweep. A fn pointer (like
    /// [`Self::shutdown`]) so the options stay `Clone` + `Debug`.
    pub stall: fn(&mut SweepJob),
    /// Sleep between spool scans when the queue is empty.
    pub poll: Duration,
    /// Sweep execution knobs (journal, shard, retries, progress hook,
    /// …). `resume` is forced on — a spool worker must honor poison
    /// quarantines and its own prior work.
    pub sweep: SweepOptions,
    /// Polled between scan passes; `true` is treated exactly like the
    /// spool's drain marker. A fn pointer (like
    /// [`SweepOptions::sleeper`]) so the options stay `Clone` +
    /// `Debug`; the CLI wires its signal flag here.
    pub shutdown: fn() -> bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            stall: |_| {},
            poll: Duration::from_millis(100),
            sweep: SweepOptions::default(),
            shutdown: || false,
        }
    }
}

/// What one [`run_spool_worker`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Sweep generations executed (scan passes that found work).
    pub generations: u64,
    /// Jobs dispatched across all generations.
    pub jobs_run: usize,
    /// Jobs in this worker's shard whose latest journal record is
    /// `failed` at the current config hash, as of exit.
    pub failed: usize,
    /// Accepted batch files that failed to read/parse during scans
    /// (high-water count; the daemon quarantines corruption before
    /// acceptance, so this is normally 0).
    pub corrupt_batches: u64,
}

impl WorkerReport {
    /// Process exit code, mirroring `dtexl sweep`: 0 all ok, 2
    /// completed with failed jobs.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        if self.failed > 0 {
            2
        } else {
            0
        }
    }
}

/// Every accepted spec, materialized under the default pipeline with
/// the stall hook applied, and filtered to this worker's shard; plus
/// the count of accepted batches that failed to read.
fn shard_jobs(spool: &Spool, opts: &WorkerOptions) -> (Vec<SweepJob>, u64) {
    let (specs, corrupt) = spool.accepted_specs();
    let mut jobs = jobs_from_specs(&specs, &PipelineConfig::default());
    jobs.retain_mut(|job| {
        (opts.stall)(job);
        opts.sweep
            .shard
            .is_none_or(|shard| shard.contains(&job.key()))
    });
    (jobs, corrupt)
}

/// This worker's slice of the spool queue right now: its shard's jobs
/// minus those with a terminal journal record at the current config
/// hash.
fn pending_jobs(spool: &Spool, opts: &WorkerOptions, journal_text: &str) -> (Vec<SweepJob>, u64) {
    let (mut jobs, corrupt) = shard_jobs(spool, opts);
    let latest = latest_entries(journal_text);
    // Any journaled record at the current hash — ok, skipped, failed,
    // poisoned — is terminal across daemon generations. (Plain resume
    // re-runs failures, which is right for a one-shot sweep; an
    // idle-looping worker re-running a deterministic failure forever
    // is not. To re-run a failed job, clear the journal or change the
    // config.)
    jobs.retain(|job| {
        latest
            .get(&job.key())
            .is_none_or(|e| e.config_hash != Some(job.config_hash()))
    });
    (jobs, corrupt)
}

/// Drive one shard worker against a spool until drained: scan
/// `accepted/`, run what is pending, idle (emitting
/// [`ProgressKind::Idle`] beats so a supervisor's wedge detection sees
/// a live child) when nothing is, exit when the drain marker is set
/// and the queue is empty.
///
/// # Errors
///
/// Returns the underlying I/O error when the journal cannot be read
/// or appended ([`run_sweep`](crate::sweep::run_sweep)'s error
/// surface).
pub fn run_spool_worker(spool: &Spool, opts: &WorkerOptions) -> std::io::Result<WorkerReport> {
    let mut sweep_opts = opts.sweep.clone();
    sweep_opts.resume = true;
    let journal = sweep_opts.journal.clone();
    let read_journal = |journal: &Option<PathBuf>| -> String {
        journal
            .as_ref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .unwrap_or_default()
    };

    let mut report = WorkerReport::default();
    let mut idle_seq: u64 = 0;
    loop {
        let journal_text = read_journal(&journal);
        let (pending, corrupt) = pending_jobs(spool, opts, &journal_text);
        report.corrupt_batches = report.corrupt_batches.max(corrupt);
        if pending.is_empty() {
            if spool.drain_requested() || (opts.shutdown)() {
                break;
            }
            if let Some(hook) = sweep_opts.progress {
                hook(&Progress {
                    kind: ProgressKind::Idle,
                    key: String::new(),
                    index: 0,
                    attempt: 0,
                    elapsed: Duration::ZERO,
                    peak_alloc_bytes: 0,
                    shard: sweep_opts.shard,
                    pid: std::process::id(),
                    seq: idle_seq,
                    status: None,
                    top_stall: None,
                    dram_requests: None,
                    config_hash: 0,
                });
                idle_seq += 1;
            }
            // lint: allow(determinism-clock) -- idle pacing between spool scans; no simulated metric depends on it
            std::thread::sleep(opts.poll);
            continue;
        }
        report.generations += 1;
        report.jobs_run += pending.len();
        // keep-going within the generation: one failed job must not
        // strand the rest of the queue.
        sweep_opts.keep_going = true;
        run_sweep(&pending, &sweep_opts, |_, _| {})?;
        // Progress sequence numbers restart per run_sweep call; idle
        // beats continue a fresh local sequence. Either way the
        // supervisor counts at most one benign gap per generation.
        idle_seq = 0;
    }

    // Exit audit: count terminal failures over this shard's current
    // job view (the worker's exit code mirrors `dtexl sweep`).
    let journal_text = read_journal(&journal);
    let latest = latest_entries(&journal_text);
    report.failed = shard_jobs(spool, opts)
        .0
        .into_iter()
        .filter(|job| {
            latest
                .get(&job.key())
                .is_some_and(|e| e.status == "failed" && e.config_hash == Some(job.config_hash()))
        })
        .count();
    Ok(report)
}

// --- daemon (supervisor side) ----------------------------------------------

/// Knobs for [`run_daemon`].
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Fleet supervision knobs. Shard journals, progress streams and
    /// child logs live in the spool (shard journals are spool state —
    /// that is what makes the daemon's resume exact).
    pub dispatch: DispatchOptions,
    /// Supervisor loop sleep between ticks.
    pub poll: Duration,
    /// Polled every tick; `true` requests a graceful drain (the CLI
    /// wires its SIGTERM/SIGINT flag here).
    pub shutdown: fn() -> bool,
}

impl Default for DaemonOptions {
    fn default() -> Self {
        Self {
            dispatch: DispatchOptions::default(),
            poll: Duration::from_millis(50),
            shutdown: || false,
        }
    }
}

/// End-of-daemon summary.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// Per-shard supervision history.
    pub shards: Vec<ShardSummary>,
    /// Final live-merge statistics.
    pub merge: MergeStats,
    /// The divergence that poisoned the merge, when one was seen.
    pub merge_error: Option<String>,
    /// Jobs whose final merged record is `ok`/`skipped`.
    pub ok: usize,
    /// Jobs whose final merged record is `failed`.
    pub failed: usize,
    /// The failed jobs that were poison-quarantined, by key.
    pub poisoned: Vec<String>,
    /// Jobs with no merged record at all (a shard gave up).
    pub missing: Vec<String>,
    /// Batches accepted / dropped-as-duplicate / rejected-as-corrupt
    /// over the daemon's lifetime.
    pub batches: (u64, u64, u64),
    /// Status-file swaps performed.
    pub status_writes: u64,
}

impl DaemonReport {
    /// Process exit code, mirroring `dtexl sweep`: 0 every job ok, 2
    /// completed with failed (incl. poisoned) jobs, 1 supervision
    /// failure (gave-up shard, missing coverage, or a divergent
    /// merge).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        let gave_up = self
            .shards
            .iter()
            .any(|s| s.outcome == ShardOutcome::GaveUp);
        if gave_up || !self.missing.is_empty() || self.merge_error.is_some() {
            1
        } else if self.failed > 0 {
            2
        } else {
            0
        }
    }

    /// Multi-line human summary: coverage, one line per shard with
    /// restarts and deaths, then one line per poisoned job.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let total = self.ok + self.failed + self.missing.len();
        let mut s = format!(
            "daemon: drained {}/{total} jobs ok, {} failed ({} poisoned), {} missing; \
             batches {} accepted / {} duplicate / {} rejected; {} status write(s)",
            self.ok,
            self.failed,
            self.poisoned.len(),
            self.missing.len(),
            self.batches.0,
            self.batches.1,
            self.batches.2,
            self.status_writes
        );
        if let Some(err) = &self.merge_error {
            let _ = write!(s, "\n  merge divergence: {err}");
        }
        for sh in &self.shards {
            let outcome = match &sh.outcome {
                ShardOutcome::Completed { code } => format!("completed (exit {code})"),
                ShardOutcome::GaveUp => "gave up".into(),
            };
            let _ = write!(
                s,
                "\n  shard {}: {outcome}, {} restart(s)",
                sh.shard, sh.restarts
            );
            for d in &sh.deaths {
                let _ = write!(s, "\n    death: {d}");
            }
        }
        for key in &self.poisoned {
            let _ = write!(s, "\n  poisoned: {key}");
        }
        s
    }
}

/// The job keys of every accepted spec. Keys depend only on the spec,
/// so the supervisor needs no pipeline configuration to compute them.
fn accepted_keys(spool: &Spool) -> Vec<String> {
    let (specs, _) = spool.accepted_specs();
    jobs_from_specs(&specs, &PipelineConfig::default())
        .iter()
        .map(SweepJob::key)
        .collect()
}

/// Journal a batch-level event (rejected or duplicate batch) into the
/// spool's events journal as a typed failed record, so `error_kind`
/// tooling sees queue-level faults exactly like job-level ones.
fn journal_batch_event(spool: &Spool, log: fn(&str), name: &str, error: JobError) {
    let record = JobRecord {
        index: 0,
        key: format!("batch:{name}"),
        status: JobStatus::Failed,
        attempts: 1,
        elapsed: Duration::ZERO,
        error: Some(error),
        metrics: None,
        config_hash: 0,
        peak_alloc: None,
        shard: None,
        obs: None,
    };
    if spool.append_event(&journal_line(&record)).is_err() {
        log(&format!(
            "daemon: could not journal batch event for {name} (events journal unwritable)"
        ));
    }
}

/// Run the sweep daemon over `spool` until drained.
///
/// The spool may start empty (the classic CI flow) or pre-armed (a
/// batch accepted and the drain marker set, as `dtexl sweep dispatch`
/// does). `spec.sweep_args` must be the worker-mode arguments (`sweep
/// --spool <dir> …`) — the fleet appends the per-shard
/// `--shard/--journal/--resume/--progress-to` itself.
///
/// # Errors
///
/// Returns the underlying I/O error when the spool or workdir cannot
/// be written, a child cannot be spawned, or the merged journal
/// cannot be swapped.
pub fn run_daemon(
    spool: &Spool,
    spec: FleetSpec,
    opts: &DaemonOptions,
) -> std::io::Result<DaemonReport> {
    let dopts = &opts.dispatch;
    let log = dopts.log;

    let mut fleet = Fleet::new(spec, spool);
    let mut merger = LiveMerger::new(fleet.journals(), spool.merged_journal(), spool.canon_file());
    let metrics = DaemonMetrics::new();
    // Re-fold whatever the shard journals already contain: a restarted
    // daemon's merged view is rebuilt from the source of truth.
    if merger.tick()? {
        metrics.merge_swaps.inc();
    }

    let socket = StatusSocket::bind(spool);
    let mut batches = (0u64, 0u64, 0u64);
    let mut status_writes = 0u64;
    let mut last_body = String::new();
    let mut last_metrics = String::new();
    // Keys whose terminal wall-clock has been fed to the histogram; a
    // key is observed exactly once, as it first turns terminal.
    let mut clocked: BTreeSet<String> = BTreeSet::new();

    // Initial ingest: accepted batches from a previous daemon run.
    let known = fleet.extend_keys(accepted_keys(spool));
    if known > 0 {
        log(&format!("daemon: resumed spool with {known} known job(s)"));
    }

    loop {
        // Honor the shutdown hook by converting it into the durable
        // drain marker the workers watch.
        if (opts.shutdown)() && !spool.drain_requested() {
            log("daemon: shutdown requested; draining (finishing accepted work)");
            spool.request_drain()?;
        }
        let draining = spool.drain_requested();

        // Ingest new batches while the queue is open. Batches
        // submitted after the drain marker stay in incoming/ for the
        // next daemon run.
        if !draining {
            let accept = spool.accept_incoming();
            batches.0 += accept.accepted.len() as u64;
            batches.1 += accept.duplicates.len() as u64;
            batches.2 += accept.rejected.len() as u64;
            for name in &accept.duplicates {
                log(&format!("daemon: dropped duplicate batch {name}"));
                journal_batch_event(
                    spool,
                    log,
                    name,
                    JobError::DuplicateBatch {
                        batch: name.clone(),
                    },
                );
            }
            for (name, detail) in &accept.rejected {
                log(&format!("daemon: rejected corrupt batch {name}: {detail}"));
                journal_batch_event(
                    spool,
                    log,
                    name,
                    JobError::SpoolCorrupt {
                        path: name.clone(),
                        detail: detail.clone(),
                    },
                );
            }
            if !accept.accepted.is_empty() {
                let added = fleet.extend_keys(accepted_keys(spool));
                log(&format!(
                    "daemon: accepted {} batch(es), {added} new job(s), {} known total",
                    accept.accepted.len(),
                    fleet.keys().len()
                ));
            }
        }

        // Size-capped events rotation. A failed rotation is advisory
        // (logged, retried next pass) — see `Spool::rotate_events`.
        if let Err(e) = spool.rotate_events(EVENTS_ROTATE_BYTES) {
            log(&format!("daemon: {e}"));
        }

        let settled = fleet.tick(dopts)?;
        if !spool.drain_requested() {
            // A worker that exited while the queue is open is revived
            // (it only exits by itself when draining).
            fleet.revive_completed(dopts);
        }
        if merger.tick()? {
            metrics.merge_swaps.inc();
        }

        let status = build_status(
            spool,
            &fleet,
            &merger,
            batches,
            status_writes.saturating_add(1),
        );
        let body = {
            let mut unsequenced = status.clone();
            unsequenced.seq = 0;
            unsequenced.to_json()
        };
        if body != last_body {
            atomic_write(&spool.status_file(), &status.to_json())?;
            status_writes += 1;
            last_body = body;
        }
        feed_metrics(&metrics, &status, status_writes);
        observe_wall_clocks(&metrics, &fleet, &merger, &mut clocked);
        let prom = metrics.render();
        if prom != last_metrics {
            atomic_write(&spool.metrics_file(), &prom)?;
            last_metrics = prom.clone();
        }
        socket.serve(&status, &prom);

        if spool.drain_requested() && settled {
            break;
        }
        // lint: allow(determinism-clock) -- supervisor tick pacing; no simulated metric depends on it
        std::thread::sleep(opts.poll);
    }

    // Terminal flush: final merge state, terminal status document and
    // a last metrics snapshot (scrapers read metrics.prom after the
    // daemon exits; the socket goes away with the process).
    if merger.tick()? {
        metrics.merge_swaps.inc();
    }
    let cov = audit_coverage(fleet.keys(), |k| merger.acc.get(k));
    let mut status = build_status(spool, &fleet, &merger, batches, status_writes + 1);
    status.alive = false;
    status.state = if cov.missing.is_empty() {
        "drained".into()
    } else {
        "stopped".into()
    };
    atomic_write(&spool.status_file(), &status.to_json())?;
    status_writes += 1;
    feed_metrics(&metrics, &status, status_writes);
    observe_wall_clocks(&metrics, &fleet, &merger, &mut clocked);
    atomic_write(&spool.metrics_file(), &metrics.render())?;
    socket.close(spool);

    let report = DaemonReport {
        shards: fleet.into_summaries(),
        merge: merger.acc.stats(),
        merge_error: merger.diverged,
        ok: cov.ok,
        failed: cov.failed,
        poisoned: cov.poisoned,
        missing: cov.missing,
        batches,
        status_writes,
    };
    log(&format!(
        "daemon: exiting: {} ok, {} failed, {} missing (exit {})",
        report.ok,
        report.failed,
        report.missing.len(),
        report.exit_code()
    ));
    Ok(report)
}

/// Snapshot the daemon's current state into a status document.
fn build_status(
    spool: &Spool,
    fleet: &Fleet,
    merger: &LiveMerger,
    batches: (u64, u64, u64),
    seq: u64,
) -> DaemonStatus {
    let views = fleet.views();
    let cov = audit_coverage(fleet.keys(), |k| merger.acc.get(k));
    let in_flight: Vec<String> = views.iter().flat_map(|v| v.in_flight.clone()).collect();
    let peak = views.iter().map(|v| v.peak_alloc_bytes).max().unwrap_or(0);
    let draining = spool.drain_requested();
    let queued = cov.missing.len() as u64;
    let state = if queued == 0 && in_flight.is_empty() {
        "drained"
    } else if draining {
        "draining"
    } else {
        "active"
    };
    DaemonStatus {
        state: state.into(),
        alive: true,
        pid: std::process::id(),
        seq,
        draining,
        submitted_jobs: fleet.keys().len() as u64,
        queued,
        ok: cov.ok as u64,
        failed: cov.failed as u64,
        poisoned: cov.poisoned.len() as u64,
        batches_accepted: batches.0,
        batches_duplicate: batches.1,
        batches_rejected: batches.2,
        peak_alloc_bytes: peak,
        in_flight,
        shards: views,
    }
}

/// Feed the metrics registry from a freshly-built status snapshot.
/// Counters whose source is an absolute total (batch counts, journal
/// coverage, cumulative death lists) go through `record_total`, so
/// the exposed values stay monotone even when the source dips.
fn feed_metrics(metrics: &DaemonMetrics, status: &DaemonStatus, status_writes: u64) {
    metrics
        .batches_accepted
        .record_total(status.batches_accepted);
    metrics
        .batches_duplicate
        .record_total(status.batches_duplicate);
    metrics
        .batches_rejected
        .record_total(status.batches_rejected);
    metrics.jobs_submitted.set(status.submitted_jobs);
    metrics.queue_depth.set(status.queued);
    metrics.jobs_in_flight.set(status.in_flight.len() as u64);
    metrics.jobs_ok.record_total(status.ok);
    metrics.jobs_failed.record_total(status.failed);
    metrics.jobs_poisoned.record_total(status.poisoned);
    metrics.peak_alloc_bytes.set(status.peak_alloc_bytes);
    metrics.status_writes.record_total(status_writes);
    let mut by_cause = [0u64; RESTART_CAUSES.len()];
    for shard in &status.shards {
        for death in &shard.deaths {
            let cause = death.split(" (").next().unwrap_or(death);
            let idx = RESTART_CAUSES
                .iter()
                .position(|c| *c == cause)
                .unwrap_or(RESTART_CAUSES.len() - 1);
            by_cause[idx] += 1;
        }
    }
    for (i, cause) in RESTART_CAUSES.iter().enumerate() {
        metrics.record_restart_total(cause, by_cause[i]);
    }
}

/// Observe each job's wall clock exactly once, as its merged record
/// first turns terminal. Resume-skips are not observed (their elapsed
/// is the skip cost, not a job run).
fn observe_wall_clocks(
    metrics: &DaemonMetrics,
    fleet: &Fleet,
    merger: &LiveMerger,
    clocked: &mut BTreeSet<String>,
) {
    for key in fleet.keys() {
        if clocked.contains(key) {
            continue;
        }
        if let Some(entry) = merger.acc.get(key) {
            if entry.status == "ok" || entry.status == "failed" {
                metrics.job_wall_clock.observe_ms(entry.elapsed_ms);
                clocked.insert(key.clone());
            }
        }
    }
}

// --- status socket ---------------------------------------------------------

/// A nonblocking unix socket speaking a one-line request protocol: a
/// client that sends `metrics\n` gets the Prometheus text exposition;
/// anything else — including the classic client that sends nothing
/// and just reads — gets the current status document (one line, then
/// EOF), the same bytes as `status.json` without the file-polling
/// latency. Best-effort everywhere: a platform or filesystem that
/// cannot host the socket degrades to the file, never to an error.
#[cfg(unix)]
struct StatusSocket {
    listener: Option<std::os::unix::net::UnixListener>,
}

#[cfg(unix)]
impl StatusSocket {
    fn bind(spool: &Spool) -> Self {
        let path = spool.socket_path();
        // A stale socket from a crashed daemon blocks bind; remove it.
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)
            .and_then(|l| l.set_nonblocking(true).map(|()| l))
            .ok();
        Self { listener }
    }

    fn serve(&self, status: &DaemonStatus, metrics: &str) {
        use std::io::{Read as _, Write as _};
        let Some(listener) = &self.listener else {
            return;
        };
        // Answer everything queued this tick; WouldBlock means idle.
        while let Ok((mut conn, _)) = listener.accept() {
            // Accepted sockets are blocking even off a nonblocking
            // listener; a short read timeout keeps a silent client
            // (the plain status poller) from stalling the daemon.
            let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
            let mut buf = [0u8; 64];
            // One read is enough: the only request is the 8-byte
            // `metrics\n`, which arrives in a single segment. No
            // bytes, EOF or a timeout all mean "status".
            let request = match conn.read(&mut buf) {
                Ok(n) => std::str::from_utf8(&buf[..n]).unwrap_or(""),
                Err(_) => "",
            };
            if request.trim() == "metrics" {
                let _ = conn.write_all(metrics.as_bytes());
            } else {
                let _ = writeln!(conn, "{}", status.to_json());
            }
        }
    }

    fn close(&self, spool: &Spool) {
        if self.listener.is_some() {
            let _ = std::fs::remove_file(spool.socket_path());
        }
    }
}

/// Non-unix stand-in: the status file is the only endpoint.
#[cfg(not(unix))]
struct StatusSocket;

#[cfg(not(unix))]
impl StatusSocket {
    fn bind(_spool: &Spool) -> Self {
        Self
    }
    fn serve(&self, _status: &DaemonStatus, _metrics: &str) {}
    fn close(&self, _spool: &Spool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spool::JobSpec;
    use std::path::Path;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtexl_daemon_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_status() -> DaemonStatus {
        DaemonStatus {
            state: "active".into(),
            alive: true,
            pid: 4242,
            seq: 17,
            draining: false,
            submitted_jobs: 20,
            queued: 3,
            ok: 15,
            failed: 2,
            poisoned: 1,
            batches_accepted: 4,
            batches_duplicate: 1,
            batches_rejected: 2,
            peak_alloc_bytes: 9_000_000,
            in_flight: vec![
                "CCS|CG-square/Hilbert/flp2|480x192#0".into(),
                "GTr|baseline|480x192#0".into(),
            ],
            shards: vec![
                ShardStatus {
                    index: 0,
                    phase: "healthy".into(),
                    pid: Some(777),
                    restarts: 1,
                    backoff_ms: 0,
                    peak_alloc_bytes: 9_000_000,
                    deaths: vec!["wedged (no progress events for 5000ms)".into()],
                    in_flight: vec!["CCS|CG-square/Hilbert/flp2|480x192#0".into()],
                },
                ShardStatus {
                    index: 1,
                    phase: "pending".into(),
                    pid: None,
                    restarts: 2,
                    backoff_ms: 350,
                    peak_alloc_bytes: 0,
                    deaths: vec![
                        "crashed (exit code 101)".into(),
                        "oom-killed (rss 900 bytes > limit 512 (polled))".into(),
                    ],
                    in_flight: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn status_document_round_trips_field_by_field() {
        let status = sample_status();
        let parsed = DaemonStatus::parse(&status.to_json()).expect("parse own rendering");
        // Field-by-field, so a regression names the exact field.
        assert_eq!(parsed.state, status.state);
        assert_eq!(parsed.alive, status.alive);
        assert_eq!(parsed.pid, status.pid);
        assert_eq!(parsed.seq, status.seq);
        assert_eq!(parsed.draining, status.draining);
        assert_eq!(parsed.submitted_jobs, status.submitted_jobs);
        assert_eq!(parsed.queued, status.queued);
        assert_eq!(parsed.ok, status.ok);
        assert_eq!(parsed.failed, status.failed);
        assert_eq!(parsed.poisoned, status.poisoned);
        assert_eq!(parsed.batches_accepted, status.batches_accepted);
        assert_eq!(parsed.batches_duplicate, status.batches_duplicate);
        assert_eq!(parsed.batches_rejected, status.batches_rejected);
        assert_eq!(parsed.peak_alloc_bytes, status.peak_alloc_bytes);
        assert_eq!(parsed.in_flight, status.in_flight);
        assert_eq!(parsed.shards.len(), status.shards.len());
        for (p, s) in parsed.shards.iter().zip(&status.shards) {
            assert_eq!(p.index, s.index);
            assert_eq!(p.phase, s.phase);
            assert_eq!(p.pid, s.pid);
            assert_eq!(p.restarts, s.restarts);
            assert_eq!(p.backoff_ms, s.backoff_ms);
            assert_eq!(p.peak_alloc_bytes, s.peak_alloc_bytes);
            assert_eq!(p.deaths, s.deaths);
            assert_eq!(p.in_flight, s.in_flight);
        }
        // And the composite equality, in case a field is added without
        // extending the list above.
        assert_eq!(parsed, status);
    }

    #[test]
    fn feed_metrics_maps_status_fields_and_death_causes() {
        let metrics = DaemonMetrics::new();
        feed_metrics(&metrics, &sample_status(), 6);
        let text = metrics.render();
        assert!(text.contains("dtexl_batches_accepted_total 4"));
        assert!(text.contains("dtexl_jobs_submitted 20"));
        assert!(text.contains("dtexl_queue_depth 3"));
        assert!(text.contains("dtexl_jobs_in_flight 2"));
        assert!(text.contains("dtexl_jobs_ok_total 15"));
        assert!(text.contains("dtexl_jobs_failed_total 2"));
        assert!(text.contains("dtexl_jobs_poisoned_total 1"));
        assert!(text.contains("dtexl_status_writes_total 6"));
        assert!(text.contains("dtexl_peak_alloc_bytes 9000000"));
        // Death strings parse to their cause prefix.
        assert!(text.contains("dtexl_shard_restarts_total{cause=\"wedged\"} 1"));
        assert!(text.contains("dtexl_shard_restarts_total{cause=\"crashed\"} 1"));
        assert!(text.contains("dtexl_shard_restarts_total{cause=\"oom-killed\"} 1"));
        assert!(text.contains("dtexl_shard_restarts_total{cause=\"other\"} 0"));

        // Re-feeding a shrunken snapshot never lowers a counter.
        let mut dipped = sample_status();
        dipped.ok = 9;
        feed_metrics(&metrics, &dipped, 6);
        assert!(metrics.render().contains("dtexl_jobs_ok_total 15"));
    }

    #[test]
    fn status_parse_tolerates_garbage_and_truncation() {
        assert!(DaemonStatus::parse("").is_none());
        assert!(DaemonStatus::parse("not json").is_none());
        let full = sample_status().to_json();
        // A reader racing the writer sees either old or new bytes —
        // but a truncated read (non-atomic writer) must parse as None,
        // not panic.
        assert!(DaemonStatus::parse(&full[..full.len() / 2]).is_none());
    }

    #[test]
    fn hostile_strings_round_trip_through_the_status_document() {
        // Death messages and keys that a substring scan would split or
        // cut short: quotes, brackets, `","`, a shard opener and a
        // backslash.
        let mut status = sample_status();
        status.state = "active \"]}".into();
        status.in_flight = vec!["C\\S|\"a\",\"b\"|96x64#0".into(), String::new()];
        status.shards[0].deaths = vec![
            "crashed (\"quoted\")".into(),
            "wedged ] after [1,2]".into(),
            "a\",\"b".into(),
            "{\"index\":9,\"phase\":\"gave_up\"}".into(),
        ];
        status.shards[1].phase = "pending\\".into();
        status.shards[1].in_flight = status.in_flight.clone();
        let parsed = DaemonStatus::parse(&status.to_json()).expect("parse own rendering");
        assert_eq!(parsed.state, status.state);
        assert_eq!(parsed.in_flight, status.in_flight);
        assert_eq!(parsed.shards.len(), 2);
        for (p, s) in parsed.shards.iter().zip(&status.shards) {
            assert_eq!(p.index, s.index);
            assert_eq!(p.phase, s.phase);
            assert_eq!(p.pid, s.pid);
            assert_eq!(p.deaths, s.deaths);
            assert_eq!(p.in_flight, s.in_flight);
        }
        assert_eq!(parsed, status);
    }

    #[test]
    fn empty_arrays_round_trip() {
        let mut status = sample_status();
        status.in_flight.clear();
        status.shards.clear();
        let parsed = DaemonStatus::parse(&status.to_json()).expect("parse");
        assert_eq!(parsed, status);
    }

    fn sample_report() -> DaemonReport {
        DaemonReport {
            shards: vec![ShardSummary {
                shard: crate::sweep::Shard::new(0, 1).expect("valid shard"),
                restarts: 0,
                deaths: Vec::new(),
                outcome: ShardOutcome::Completed { code: 0 },
                stream_gaps: 0,
            }],
            merge: MergeStats::default(),
            merge_error: None,
            ok: 4,
            failed: 0,
            poisoned: Vec::new(),
            missing: Vec::new(),
            batches: (1, 0, 0),
            status_writes: 3,
        }
    }

    #[test]
    fn daemon_report_exit_codes_mirror_the_sweep() {
        let base = sample_report();
        assert_eq!(base.exit_code(), 0);
        let with_failures = DaemonReport {
            failed: 1,
            poisoned: vec!["k".into()],
            ..base.clone()
        };
        assert_eq!(with_failures.exit_code(), 2);
        let gave_up = DaemonReport {
            shards: vec![ShardSummary {
                outcome: ShardOutcome::GaveUp,
                ..base.shards[0].clone()
            }],
            ..base.clone()
        };
        assert_eq!(gave_up.exit_code(), 1);
        let missing = DaemonReport {
            missing: vec!["k".into()],
            ..base.clone()
        };
        assert_eq!(missing.exit_code(), 1);
        let merge_failed = DaemonReport {
            merge_error: Some("divergent".into()),
            ..base
        };
        assert_eq!(merge_failed.exit_code(), 1);
    }

    #[test]
    fn daemon_report_summary_names_poisoned_jobs() {
        let report = DaemonReport {
            failed: 1,
            poisoned: vec!["TRu|CG-square/Hilbert/flp2|base|192x96#0".into()],
            ..sample_report()
        };
        let summary = report.summary();
        assert!(summary.contains("1 failed (1 poisoned)"), "{summary}");
        assert!(
            summary.ends_with("\n  poisoned: TRu|CG-square/Hilbert/flp2|base|192x96#0"),
            "{summary}"
        );
        assert!(!sample_report().summary().contains("poisoned:"));
    }

    fn tiny_job(game: &str, schedule: &str) -> JobSpec {
        JobSpec::new(game, schedule, 64, 32, 0, false).expect("valid spec")
    }

    /// End-to-end in-process drain: submit → accept → worker runs the
    /// queue dry → drain marker → worker exits; then verify the
    /// journal covers every job.
    #[test]
    fn spool_worker_drains_a_live_queue() {
        let root = scratch("worker");
        let spool = Spool::open(&root).expect("open spool");
        spool
            .submit(&[tiny_job("GTr", "baseline"), tiny_job("GTr", "dtexl")])
            .expect("submit");
        let accept = spool.accept_incoming();
        assert_eq!(accept.accepted.len(), 1);
        // Drain is pre-requested: the worker runs everything accepted,
        // then exits instead of idling.
        spool.request_drain().expect("drain marker");

        let mut wopts = WorkerOptions {
            poll: Duration::from_millis(1),
            ..WorkerOptions::default()
        };
        wopts.sweep.journal = Some(root.join("shard-0.jsonl"));
        wopts.sweep.workers = 1;
        let report = run_spool_worker(&spool, &wopts).expect("worker runs");
        assert_eq!(report.generations, 1);
        assert_eq!(report.jobs_run, 2);
        assert_eq!(report.failed, 0);
        assert_eq!(report.exit_code(), 0);

        // A second worker pass over the same spool finds nothing to do
        // (terminal records at the same config hash) and exits
        // immediately.
        let again = run_spool_worker(&spool, &wopts).expect("worker reruns");
        assert_eq!(again.generations, 0);
        assert_eq!(again.jobs_run, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The stall hook reaches every job the worker materializes: the
    /// journal carries the stalled hash, and dropping the hook changes
    /// the hash, so the same spool runs again.
    #[test]
    fn spool_worker_applies_the_stall_hook() {
        fn stall(job: &mut SweepJob) {
            job.pipeline.fault.wall_stall_ms = 1;
        }
        let root = scratch("stall");
        let spool = Spool::open(&root).expect("open spool");
        let spec = tiny_job("GTr", "baseline");
        spool.submit(std::slice::from_ref(&spec)).expect("submit");
        assert_eq!(spool.accept_incoming().accepted.len(), 1);
        spool.request_drain().expect("drain marker");
        let mut wopts = WorkerOptions {
            stall,
            poll: Duration::from_millis(1),
            ..WorkerOptions::default()
        };
        wopts.sweep.journal = Some(root.join("shard-0.jsonl"));
        wopts.sweep.workers = 1;
        let report = run_spool_worker(&spool, &wopts).expect("worker runs");
        assert_eq!((report.jobs_run, report.failed), (1, 0));

        let mut stalled = spec.to_job(&PipelineConfig::default());
        let plain = stalled.config_hash();
        stall(&mut stalled);
        assert_ne!(stalled.config_hash(), plain);
        let journal = std::fs::read_to_string(root.join("shard-0.jsonl")).expect("journal");
        let entry = &latest_entries(&journal)[&stalled.key()];
        assert_eq!(entry.config_hash, Some(stalled.config_hash()));

        wopts.stall = |_| {};
        let again = run_spool_worker(&spool, &wopts).expect("worker reruns");
        assert_eq!(again.jobs_run, 1, "a different hash is new work");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The crash-exactness contract: a merged view rebuilt from byte 0
    /// of the shard journals (what a restarted daemon does) is
    /// bit-identical to the one maintained incrementally (what the
    /// live daemon does), including the canon view.
    #[test]
    fn merger_restart_is_bit_identical_to_incremental() {
        use std::io::Write as _;
        let root = scratch("merger");
        std::fs::create_dir_all(&root).expect("mkdir");
        let j0 = root.join("shard-0.jsonl");
        let j1 = root.join("shard-1.jsonl");
        let line = |key: &str, hash: u64, c: u64| {
            format!(
                "{{\"key\":\"{key}\",\"status\":\"ok\",\"attempts\":1,\"elapsed_ms\":1,\
                 \"config_hash\":\"{hash:016x}\",\"coupled_cycles\":{c},\
                 \"decoupled_cycles\":2,\"l2_accesses\":3}}"
            )
        };

        // Incremental daemon: lines arrive across ticks, some torn.
        let mut live = LiveMerger::new(
            vec![j0.clone(), j1.clone()],
            root.join("live.jsonl"),
            root.join("live.canon"),
        );
        let mut f0 = std::fs::File::create(&j0).expect("create j0");
        writeln!(f0, "{}", line("a", 1, 10)).expect("write");
        f0.flush().expect("flush");
        live.tick().expect("tick 1");
        let mut f1 = std::fs::File::create(&j1).expect("create j1");
        // Tear a write mid-line across two ticks.
        let l = line("b", 2, 20);
        let (head, tail) = l.split_at(l.len() / 2);
        write!(f1, "{head}").expect("write head");
        f1.flush().expect("flush");
        live.tick().expect("tick 2");
        writeln!(f1, "{tail}").expect("write tail");
        // A re-run of `a` (same hash, same metrics: allowed) lands too.
        writeln!(f0, "{}", line("a", 1, 10)).expect("rewrite a");
        f0.flush().expect("flush");
        f1.flush().expect("flush");
        live.tick().expect("tick 3");
        assert!(live.diverged.is_none());

        // Restarted daemon: a fresh merger folds the same journals
        // from byte 0 in one pass.
        let mut rebuilt = LiveMerger::new(
            vec![j0.clone(), j1.clone()],
            root.join("rebuilt.jsonl"),
            root.join("rebuilt.canon"),
        );
        rebuilt.tick().expect("rebuild tick");

        let read = |p: &Path| std::fs::read_to_string(p).expect("read");
        assert_eq!(
            read(&root.join("live.jsonl")),
            read(&root.join("rebuilt.jsonl")),
            "merged journal must be a pure function of the shard journals"
        );
        assert_eq!(
            read(&root.join("live.canon")),
            read(&root.join("rebuilt.canon")),
            "canon view must be too"
        );
        assert!(!read(&root.join("live.canon")).is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Divergent records must not stall the rest of the merge, and the
    /// first divergence is reported.
    #[test]
    fn merger_reports_divergence_without_stalling() {
        use std::io::Write as _;
        let root = scratch("diverge");
        std::fs::create_dir_all(&root).expect("mkdir");
        let j0 = root.join("shard-0.jsonl");
        let mut f = std::fs::File::create(&j0).expect("create");
        let line = |key: &str, c: u64| {
            format!(
                "{{\"key\":\"{key}\",\"status\":\"ok\",\"attempts\":1,\"elapsed_ms\":1,\
                 \"config_hash\":\"000000000000002a\",\"coupled_cycles\":{c},\
                 \"decoupled_cycles\":2,\"l2_accesses\":3}}"
            )
        };
        writeln!(f, "{}", line("a", 10)).expect("write");
        writeln!(f, "{}", line("a", 99)).expect("write divergent");
        writeln!(f, "{}", line("b", 20)).expect("write unrelated key");
        f.flush().expect("flush");
        let mut live = LiveMerger::new(vec![j0], root.join("m.jsonl"), root.join("m.canon"));
        live.tick().expect("tick");
        assert!(live
            .diverged
            .as_deref()
            .is_some_and(|d| d.contains("divergent")));
        let canon = std::fs::read_to_string(root.join("m.canon")).expect("canon");
        assert!(canon.lines().any(|l| l.starts_with("b|")), "b still merged");
        let _ = std::fs::remove_dir_all(&root);
    }
}
