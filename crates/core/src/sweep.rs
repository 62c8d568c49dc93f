//! Fault-tolerant sweep execution: job isolation, retry/resume and a
//! line-oriented journal.
//!
//! [`run_sweep`] executes a batch of [`SweepJob`]s on a worker pool
//! with the robustness properties `docs/ROBUSTNESS.md` documents:
//!
//! * **Isolation** — each attempt runs behind
//!   [`std::panic::catch_unwind`], so a panicking job cannot take down
//!   the sweep or corrupt its siblings' results. An unwatched attempt
//!   runs on its worker thread; under a timeout, memory budget or
//!   heartbeat it runs on a disposable thread of its own, so a wedged
//!   job can be abandoned. The thread calling [`run_sweep`] is worker
//!   0, so a one-worker sweep without a watchdog starts no thread.
//! * **Timeouts** — an optional per-job watchdog
//!   ([`SweepOptions::job_timeout`]) abandons jobs that exceed their
//!   budget and reports them as [`JobError::TimedOut`].
//! * **Retry** — transient failures (panics, timeouts) are retried up
//!   to [`RetryPolicy::max_retries`] times with exponential backoff
//!   and deterministic (key-seeded) jitter; deterministic rejections
//!   ([`JobError::Invalid`]) are never retried.
//! * **Keep-going vs abort** — with [`SweepOptions::keep_going`] the
//!   sweep finishes every job and reports all failures at the end;
//!   without it the first failure stops the dispatch of new jobs.
//! * **Journal / resume** — with a journal path every finished job
//!   appends one JSON line (append + flush, so a killed process loses
//!   at most the in-flight jobs); a resumed sweep skips jobs whose
//!   most recent journal entry is `ok` and re-runs only the rest.
//!   Since journal v2 each line also records the job's
//!   [config hash](SweepJob::config_hash); resume refuses to skip a
//!   completed job whose recorded hash no longer matches the job, so
//!   stale results can never masquerade as current ones.
//! * **Sharding** — [`SweepOptions::shard`] restricts a run to the
//!   jobs a stable hash of the *job key* assigns to shard `i` of `N`
//!   ([`shard_of`]), so several machines can split one canonical job
//!   list without coordination and appending jobs never reshuffles
//!   existing assignments. Shard journals are unioned back together by
//!   [`merge_journals`] (last-wins per key, except that an `ok` record
//!   is never displaced by a `failed` one for the same config hash,
//!   with a typed [`MergeError::Divergent`] when two `ok` records for
//!   the same key and config hash disagree on metrics); `--resume`
//!   works against both per-shard and merged journals.
//! * **Memory budgets** — [`SweepOptions::job_mem_budget`] bounds each
//!   job's allocator high-water mark. The thread running an attempt
//!   is tagged with a [`dtexl_alloc::AllocMeter`] for that attempt
//!   only; the dispatching worker polls the
//!   meter and abandons jobs that exceed the budget with a typed
//!   [`JobError::MemBudget`] — journaled and resumable exactly like a
//!   wall-clock timeout, but never retried (the same job at the same
//!   budget allocates the same bytes). Peak usage is recorded on every
//!   attempted job ([`JobRecord::peak_alloc`]) whether or not a budget
//!   is set, so fleet runs are memory-debuggable from journals alone.
//! * **Prefix memoization** — [`SweepOptions::prefix_cache`] shares
//!   the schedule-independent half of each frame simulation (geometry,
//!   binning, raster, early-Z, texture footprints) across the jobs
//!   that only differ in schedule, keyed by [`SweepJob::prefix_key`]
//!   and bounded by a retained-bytes budget. Metrics are bit-identical
//!   with the cache on or off.
//!
//! The journal is one JSON object per line, written by [`journal_line`]
//! and read back by [`parse_journal_line`] through the crate's one
//! codec, [`dtexl_obs::json`]; the format is pinned in
//! `docs/ROBUSTNESS.md` and by the tests in this module.

use crate::lock;
use dtexl_alloc::{meter_current_thread, AllocMeter};
use dtexl_obs::json::{self, escape, FromJson, Json};
use dtexl_obs::{NullProbe, ObsRollup, Probe, RollupMode};
use dtexl_pipeline::{
    compose_frame_probed, BarrierMode, FramePrefix, FrameResult, FrameSim, PipelineConfig, SimError,
};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::ScheduleConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One unit of sweep work: a fully-specified frame simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepJob {
    /// Benchmark to simulate.
    pub game: Game,
    /// Tile schedule under test.
    pub schedule: ScheduleConfig,
    /// Screen width in pixels.
    pub width: u32,
    /// Screen height in pixels.
    pub height: u32,
    /// Animation frame index.
    pub frame: u32,
    /// Hardware configuration (including `upper_bound` and any
    /// [`dtexl_pipeline::FaultPlan`]).
    pub pipeline: PipelineConfig,
}

impl SweepJob {
    /// A job with the default pipeline, optionally in upper-bound mode.
    #[must_use]
    pub fn new(
        game: Game,
        schedule: ScheduleConfig,
        upper: bool,
        width: u32,
        height: u32,
        frame: u32,
    ) -> Self {
        Self {
            game,
            schedule,
            width,
            height,
            frame,
            pipeline: PipelineConfig {
                upper_bound: upper,
                ..PipelineConfig::default()
            },
        }
    }

    /// Stable identity used for journal resume and report lines, e.g.
    /// `"CCS|CG-square/Hilbert/flp2|base|480x192#0"`.
    #[must_use]
    pub fn key(&self) -> String {
        use std::fmt::Write as _;
        // One pre-sized buffer: every sweep builds a key per job while
        // setting up, before any job runs.
        let words = [
            self.game.alias(),
            "|",
            self.schedule.grouping.name(),
            "/",
            self.schedule.order.name(),
            "/",
            self.schedule.assignment.name(),
            if self.pipeline.upper_bound {
                "|upper|"
            } else {
                "|base|"
            },
        ];
        // Three u32s and their separators fit in 32 bytes.
        let mut key = String::with_capacity(words.iter().map(|w| w.len()).sum::<usize>() + 32);
        for word in words {
            key.push_str(word);
        }
        let _ = write!(key, "{}x{}#{}", self.width, self.height, self.frame);
        key
    }

    /// Hash of everything that determines this job's *results*: the
    /// full pipeline configuration (fault plan included) plus the
    /// scene identity. Journal v2 records this hash per line and resume
    /// refuses to skip entries whose hash changed.
    #[must_use]
    pub fn config_hash(&self) -> u64 {
        // The Debug rendering is a stable canonical form within one
        // build of the simulator, which is exactly the scope a resumed
        // journal is trusted for.
        fnv1a(format!("{}|{:?}", self.key(), self.pipeline).as_bytes())
    }

    /// Run the simulation for this job (no isolation — callers wanting
    /// panic/timeout protection go through [`run_sweep`]).
    ///
    /// # Errors
    ///
    /// Returns the typed [`SimError`] for invalid specs, configurations
    /// or scenes.
    pub fn simulate(&self) -> Result<FrameResult, SimError> {
        self.run(None, &mut NullProbe)
    }

    /// Hash of everything that determines this job's *shared frame
    /// prefix* — the scene identity plus the full pipeline
    /// configuration (fault plan included, same canonical form as
    /// [`config_hash`](Self::config_hash)).
    /// Unlike `config_hash` it deliberately **excludes the schedule**:
    /// the prefix is schedule-independent, so the FG and CG legs of one
    /// (game, resolution, config) triple share a single cache entry.
    #[must_use]
    pub fn prefix_key(&self) -> u64 {
        fnv1a(
            format!(
                "{}|{}x{}#{}|{:?}",
                self.game.alias(),
                self.width,
                self.height,
                self.frame,
                self.pipeline
            )
            .as_bytes(),
        )
    }

    /// Like [`simulate`](Self::simulate), but reuse (or populate) a
    /// shared [`PrefixCache`] of schedule-independent frame prefixes.
    /// With `None` this is exactly `simulate()`. The memoized path is
    /// bit-identical to the fresh one by construction — both run the
    /// same schedule-dependent leg over the same prefix data (pinned by
    /// tests/memoize_equivalence.rs).
    ///
    /// # Errors
    ///
    /// Returns the typed [`SimError`] for invalid specs, configurations
    /// or scenes.
    pub fn simulate_with(&self, cache: Option<&PrefixCache>) -> Result<FrameResult, SimError> {
        self.run(cache, &mut NullProbe)
    }

    /// Like [`simulate_with`](Self::simulate_with), but with rollup
    /// probes attached: the functional pass feeds the memory counters
    /// and both frame-time compositions feed the per-unit stall totals
    /// of the returned [`ObsRollup`]. Every input the probes see —
    /// mem samples in tile-major / SC-ascending order, spans derived
    /// from the `StageDurations` — is bit-identical between memoized and
    /// fresh execution, so the rollup is too (pinned by
    /// `tests/obs_rollup.rs`).
    ///
    /// # Errors
    ///
    /// Returns the typed [`SimError`] for invalid specs, configurations
    /// or scenes.
    pub fn simulate_rollup(
        &self,
        cache: Option<&PrefixCache>,
    ) -> Result<(FrameResult, ObsRollup), SimError> {
        let mut rollup = ObsRollup::default();
        let result = self.run(cache, &mut rollup.probe(RollupMode::Sim))?;
        compose_frame_probed(
            &result.durations,
            BarrierMode::Coupled,
            &mut rollup.probe(RollupMode::Coupled),
        );
        compose_frame_probed(
            &result.durations,
            BarrierMode::Decoupled,
            &mut rollup.probe(RollupMode::Decoupled),
        );
        Ok((result, rollup))
    }

    /// The one simulation body: look the prefix up in `cache`, or
    /// generate the scene and [`FramePrefix::build`] it; then run the
    /// schedule leg with `probe` attached. A fresh run is exactly the
    /// cache-miss path without the insert.
    fn run<P: Probe>(
        &self,
        cache: Option<&PrefixCache>,
        probe: &mut P,
    ) -> Result<FrameResult, SimError> {
        let cached = cache.map(|c| (c, self.prefix_key()));
        if let Some(prefix) = cached.and_then(|(c, key)| c.lookup(key)) {
            return FrameSim::try_run_prefixed_probed(
                &prefix,
                &self.schedule,
                &self.pipeline,
                probe,
            );
        }
        let spec =
            SceneSpec::try_new(self.width, self.height, self.frame).map_err(SimError::Scene)?;
        let scene = self.game.scene(&spec);
        let prefix = Arc::new(FramePrefix::build(
            &scene,
            &self.pipeline,
            self.width,
            self.height,
        )?);
        let result =
            FrameSim::try_run_prefixed_probed(&prefix, &self.schedule, &self.pipeline, probe)?;
        // Insert only after the leg succeeded, so a prefix that trips a
        // downstream validation error is never cached.
        if let Some((c, key)) = cached {
            c.insert(key, prefix);
        }
        Ok(result)
    }
}

/// Counter snapshot from [`PrefixCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Prefixes currently resident.
    pub entries: usize,
    /// Approximate retained bytes across resident prefixes.
    pub bytes: u64,
    /// Lookups that found their prefix.
    pub hits: u64,
    /// Lookups that missed (each miss costs one prefix build).
    pub misses: u64,
    /// Entries displaced to make room under the budget.
    pub evictions: u64,
    /// Inserts refused because the prefix alone exceeds the budget.
    pub rejected: u64,
}

/// Bounded, shared cache of schedule-independent [`FramePrefix`]es,
/// keyed by [`SweepJob::prefix_key`] (an FNV-1a hash, the same family
/// journal v2 uses for config hashes).
///
/// The canonical sweep runs every (game, resolution) pair once per
/// schedule leg; the prefix — geometry, binning, raster, early-Z,
/// texture footprints — is identical across those legs, so caching it
/// halves the functional work. Prefixes are built on the job's
/// metered thread (so `--job-mem-budget` sees the build), and the
/// cache's *retained* footprint is bounded separately by `budget`:
/// once `approx_bytes` of the resident prefixes would exceed it, the
/// oldest entries are evicted first (FIFO — sweep job lists group a
/// game's legs together, so insertion order approximates recency), and
/// a prefix too large to ever fit is simply not retained — the job
/// still completes, it just forfeits reuse. Either way an overrun
/// degrades to a cache miss, never to a failure.
///
/// Determinism: the cache only changes *when* a prefix is computed,
/// never *what* it contains, so metrics are bit-identical with the
/// cache on, off, or thrashing (pinned by tests/memoize_equivalence.rs
/// and the CI canon diff).
#[derive(Debug)]
pub struct PrefixCache {
    /// Retained-bytes bound; `None` is unbounded.
    budget: Option<u64>,
    inner: Mutex<PrefixCacheInner>,
}

#[derive(Debug, Default)]
struct PrefixCacheInner {
    /// Resident prefixes. `BTreeMap` (not `HashMap`): iteration order
    /// feeds nothing observable today, but the determinism lint bans
    /// `HashMap` wholesale in sim crates and this map is no exception.
    entries: BTreeMap<u64, Arc<FramePrefix>>,
    /// Insertion order of live keys, oldest first (FIFO eviction).
    order: Vec<u64>,
    /// Approximate retained bytes across `entries`.
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
}

impl PrefixCache {
    /// A cache retaining at most `budget` bytes of prefixes (`None` is
    /// unbounded), shareable across sweep workers.
    #[must_use]
    pub fn new(budget: Option<u64>) -> Arc<Self> {
        Arc::new(Self {
            budget,
            inner: Mutex::new(PrefixCacheInner::default()),
        })
    }

    /// Fetch the prefix cached under `key`, if resident.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<Arc<FramePrefix>> {
        let mut inner = lock(&self.inner);
        match inner.entries.get(&key) {
            Some(prefix) => {
                let prefix = Arc::clone(prefix);
                inner.hits += 1;
                Some(prefix)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Retain `prefix` under `key`, evicting oldest-first to fit the
    /// budget. A prefix that alone exceeds the budget is rejected
    /// (counted, not an error); a key already resident is left as-is
    /// (two workers can race to build the same prefix — the copies are
    /// identical, so whichever insert lands first wins).
    pub fn insert(&self, key: u64, prefix: Arc<FramePrefix>) {
        let size = prefix.approx_bytes();
        let mut inner = lock(&self.inner);
        if inner.entries.contains_key(&key) {
            return;
        }
        if let Some(budget) = self.budget {
            if size > budget {
                inner.rejected += 1;
                return;
            }
            while inner.bytes + size > budget {
                // `order` tracks exactly the live keys, so the front is
                // always removable while we are over budget.
                let oldest = inner.order.remove(0);
                if let Some(evicted) = inner.entries.remove(&oldest) {
                    inner.bytes -= evicted.approx_bytes();
                    inner.evictions += 1;
                }
            }
        }
        inner.bytes += size;
        inner.order.push(key);
        inner.entries.insert(key, prefix);
    }

    /// Snapshot of the cache's counters.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        let inner = lock(&self.inner);
        PrefixCacheStats {
            entries: inner.entries.len(),
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            rejected: inner.rejected,
        }
    }
}

/// Which shard of the canonical job list `shard_of` assigns a key to:
/// `fnv1a(key) % count`. Hashing the *key* (not the list position)
/// makes assignments stable under job-list append — adding games never
/// moves an existing job to a different shard.
#[must_use]
pub fn shard_of(key: &str, count: u32) -> u32 {
    (fnv1a(key.as_bytes()) % u64::from(count.max(1))) as u32
}

/// One slice `i/N` of a sharded sweep (`0 <= i < N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index (0-based).
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl Shard {
    /// Build a validated shard selector.
    ///
    /// # Errors
    ///
    /// Rejects `count == 0` and `index >= count`.
    pub fn new(index: u32, count: u32) -> Result<Self, ParseShardError> {
        if count == 0 {
            return Err(ParseShardError::ZeroCount);
        }
        if index >= count {
            return Err(ParseShardError::IndexOutOfRange { index, count });
        }
        Ok(Self { index, count })
    }

    /// Whether this shard owns the job with identity `key`.
    #[must_use]
    pub fn contains(&self, key: &str) -> bool {
        shard_of(key, self.count) == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl std::str::FromStr for Shard {
    type Err = ParseShardError;

    /// Parse the CLI spelling `i/N`, e.g. `0/2`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (index, count) = s
            .split_once('/')
            .ok_or_else(|| ParseShardError::Malformed(s.into()))?;
        let index = index
            .trim()
            .parse()
            .map_err(|_| ParseShardError::Malformed(s.into()))?;
        let count = count
            .trim()
            .parse()
            .map_err(|_| ParseShardError::Malformed(s.into()))?;
        Shard::new(index, count)
    }
}

/// A journal or progress line's `"shard":"i/N"` member.
impl FromJson for Shard {
    fn from_json(value: &Json) -> Option<Self> {
        String::from_json(value)?.parse().ok()
    }
}

/// Why a shard spec was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseShardError {
    /// Not of the form `i/N` with two unsigned integers.
    Malformed(String),
    /// `N == 0`: a sweep cannot be split into zero shards.
    ZeroCount,
    /// `i >= N`: the index names a shard that does not exist.
    IndexOutOfRange {
        /// Offending index.
        index: u32,
        /// Declared shard count.
        count: u32,
    },
}

impl fmt::Display for ParseShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseShardError::Malformed(s) => {
                write!(f, "shard spec `{s}` is not of the form i/N (e.g. 0/2)")
            }
            ParseShardError::ZeroCount => write!(f, "shard count must be >= 1"),
            ParseShardError::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} out of range for {count} shard(s)")
            }
        }
    }
}

impl std::error::Error for ParseShardError {}

/// Why a sweep job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The simulator rejected the job's inputs; deterministic, never
    /// retried.
    Invalid(SimError),
    /// The job panicked (payload message attached). Isolated by
    /// `catch_unwind`; retried.
    Panicked(String),
    /// The job exceeded the per-job timeout and was abandoned; retried.
    TimedOut {
        /// The budget it blew through.
        after: Duration,
    },
    /// The job's allocator high-water mark exceeded the per-job memory
    /// budget and the job was abandoned. Deterministic at a fixed
    /// budget (the same job allocates the same bytes), so never
    /// retried; `--resume` with a raised budget re-runs it.
    MemBudget {
        /// Peak bytes observed when the job was abandoned.
        used: u64,
        /// The budget (bytes) it exceeded.
        budget: u64,
    },
    /// The fleet supervisor (`dtexl sweep dispatch`) quarantined this
    /// job: its shard process died repeatedly while the job was the
    /// in-flight attempt, so the job is presumed to be what killed it.
    /// Written to the journal *by the supervisor* (the child that
    /// would have run the job is dead); a resuming child sees the
    /// quarantine record and fails the job without executing it, so
    /// one pathological config degrades to a single failed record
    /// instead of a crash loop. Never retried in-process; delete the
    /// journal line (or run without `--resume`) to re-attempt it.
    Poisoned {
        /// How many shard deaths were blamed on the job.
        deaths: u32,
    },
    /// A spool artifact (batch file, spool directory) could not be
    /// read or did not parse. Raised by the daemon-mode job queue
    /// (`dtexl sweep daemon` / `submit`); a corrupt *batch* is
    /// quarantined and journaled with this kind, never retried — the
    /// bytes on disk will not improve on a second read.
    SpoolCorrupt {
        /// The offending file or directory.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A submitted batch's content hash matched a batch already in the
    /// spool: the same job set was already queued or accepted.
    /// Deterministic (content-addressed), never retried; resubmit is a
    /// no-op by design so at-least-once submitters are safe.
    DuplicateBatch {
        /// The batch id (content hash) both submissions share.
        batch: String,
    },
}

impl JobError {
    /// Whether a retry could plausibly succeed (panics and timeouts can
    /// be transient; typed rejections cannot, and a memory budget is
    /// deterministic at a fixed budget).
    #[must_use]
    pub fn retryable(&self) -> bool {
        !matches!(
            self,
            JobError::Invalid(_)
                | JobError::MemBudget { .. }
                | JobError::Poisoned { .. }
                | JobError::SpoolCorrupt { .. }
                | JobError::DuplicateBatch { .. }
        )
    }

    /// Short machine-readable kind tag (journal `error_kind` field).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Invalid(_) => "invalid",
            JobError::Panicked(_) => "panic",
            JobError::TimedOut { .. } => "timeout",
            JobError::MemBudget { .. } => "mem_budget",
            JobError::Poisoned { .. } => "poisoned",
            JobError::SpoolCorrupt { .. } => "spool_corrupt",
            JobError::DuplicateBatch { .. } => "duplicate_batch",
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Invalid(e) => write!(f, "{e}"),
            JobError::Panicked(m) => write!(f, "job panicked: {m}"),
            JobError::TimedOut { after } => {
                write!(f, "job exceeded its {}ms timeout", after.as_millis())
            }
            JobError::MemBudget { used, budget } => write!(
                f,
                "job allocated {used} bytes, exceeding its {budget}-byte memory budget"
            ),
            JobError::Poisoned { deaths } => write!(
                f,
                "job quarantined as poison: its shard died {deaths} time(s) while this job \
                 was in flight"
            ),
            JobError::SpoolCorrupt { path, detail } => {
                write!(f, "spool artifact {path} is corrupt: {detail}")
            }
            JobError::DuplicateBatch { batch } => write!(
                f,
                "batch {batch} was already submitted (content-identical job set)"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// Bounded retry with exponential backoff and deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = try once).
    pub max_retries: u32,
    /// Base delay: retry `n` sleeps `backoff × 2^(n-1)` plus a
    /// key-seeded jitter in `[0, backoff / 2)` (see
    /// [`delay`](Self::delay)).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 0,
            backoff: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (1-based: the sleep after the
    /// `attempt`-th failed try): `backoff × 2^(attempt-1)`, doubling
    /// capped at `×64`, plus a deterministic jitter in
    /// `[0, backoff / 2)` derived from `salt` (the job-key hash) and
    /// `attempt`. Pure and seeded, so retry schedules are replayable
    /// and testable without wall-clock coupling.
    #[must_use]
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(6);
        let base = self.backoff.saturating_mul(1 << exp);
        let half = self.backoff.checked_div(2).unwrap_or(Duration::ZERO);
        if half.is_zero() {
            return base;
        }
        let jitter_ns = splitmix64(salt ^ u64::from(attempt)) % half.as_nanos().max(1) as u64;
        base + Duration::from_nanos(jitter_ns)
    }
}

/// FNV-1a 64-bit: stable, dependency-free hash for job identities.
/// `pub(crate)`: the spool content-addresses batch files with the same
/// hash family the journal uses for config hashes.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 mixer (same finalizer the fault plan uses): uncorrelated
/// jitter streams from consecutive salts.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Knobs for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads, the calling thread included (0 = one per job,
    /// capped at 8).
    pub workers: usize,
    /// Finish every job and report failures at the end, instead of
    /// stopping dispatch at the first failure.
    pub keep_going: bool,
    /// Per-job watchdog budget; `None` waits forever.
    pub job_timeout: Option<Duration>,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Append one JSON line per finished job to this file.
    pub journal: Option<PathBuf>,
    /// Skip jobs whose latest journal entry is `ok` *and* whose
    /// recorded config hash still matches (requires `journal`).
    pub resume: bool,
    /// Run only the jobs [`shard_of`] assigns to this shard; `None`
    /// runs the full list. Out-of-shard jobs get no record and no
    /// journal line — they belong to another machine's run.
    pub shard: Option<Shard>,
    /// Per-job allocator high-water budget in **bytes**; `None` is
    /// unbounded. Exceeding it fails the job with
    /// [`JobError::MemBudget`] (never retried at the same budget).
    pub job_mem_budget: Option<u64>,
    /// How backoff delays are slept. Defaults to
    /// [`std::thread::sleep`]; tests inject a recording stub so retry
    /// schedules are pinned without wall-clock coupling.
    pub sleeper: fn(Duration),
    /// Structured progress hook: invoked (from worker threads) with
    /// every [`Progress`] event of every job this process dispatches.
    /// `None` (the default) emits nothing and adds no overhead. A fn
    /// pointer, like [`SweepOptions::sleeper`], so the options stay
    /// `Clone` + `Debug`; sinks that need state go through globals
    /// (the CLI writes straight to stderr).
    pub progress: Option<fn(&Progress)>,
    /// Minimum interval between [`ProgressKind::Heartbeat`] events for
    /// an in-flight attempt. Only consulted when `progress` is set; a
    /// **zero** interval disables heartbeats entirely (the other event
    /// kinds still flow) rather than emitting as fast as possible.
    pub progress_heartbeat: Duration,
    /// Shared [`PrefixCache`] of schedule-independent frame prefixes;
    /// jobs run through [`SweepJob::simulate_with`] when set. `None`
    /// (the default) simulates every job from scratch.
    pub prefix_cache: Option<Arc<PrefixCache>>,
    /// Attach rollup probes to every job
    /// ([`SweepJob::simulate_rollup`]) and journal the resulting
    /// [`ObsRollup`] as each record's `obs` object. Off by default —
    /// the unprobed path monomorphizes against `NullProbe` and keeps
    /// its allocation profile.
    pub with_obs: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            keep_going: false,
            job_timeout: None,
            retry: RetryPolicy::default(),
            journal: None,
            resume: false,
            shard: None,
            job_mem_budget: None,
            sleeper: std::thread::sleep,
            progress: None,
            progress_heartbeat: Duration::from_secs(1),
            prefix_cache: None,
            with_obs: false,
        }
    }
}

/// What a [`Progress`] event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressKind {
    /// The job was picked up by a worker (emitted even when resume
    /// then skips it, so a consumer sees every in-shard job exactly
    /// once).
    Start,
    /// An attempt is about to run (`attempt` is 1-based).
    Attempt,
    /// The attempt failed retryably; the worker is about to back off
    /// and try again.
    Retry,
    /// The attempt is still running; `peak_alloc_bytes` is the live
    /// allocator high-water mark.
    Heartbeat,
    /// The job reached a terminal [`JobStatus`] (carried in `status`).
    Done,
    /// Not a job event: a spool worker (`dtexl sweep --spool`) has no
    /// queued work and is waiting for batches. Emitted between scan
    /// passes so a fleet supervisor's wedge detection sees a live,
    /// merely idle, child (`key` is empty; never enters blame
    /// tracking).
    Idle,
}

impl ProgressKind {
    /// Stable wire name of the event (the JSONL `"event"` field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Start => "start",
            Self::Attempt => "attempt",
            Self::Retry => "retry",
            Self::Heartbeat => "heartbeat",
            Self::Done => "done",
            Self::Idle => "idle",
        }
    }
}

/// One structured sweep-progress event, streamed live while a sweep
/// runs (unlike the journal, which records only terminal outcomes).
/// [`Progress::to_json`] renders the stable one-line JSON form the CLI
/// emits under `dtexl sweep --progress`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    /// What happened.
    pub kind: ProgressKind,
    /// The job's stable identity ([`SweepJob::key`]).
    pub key: String,
    /// Index into the job slice passed to [`run_sweep`].
    pub index: usize,
    /// 1-based attempt number (0 before the first attempt starts).
    pub attempt: u32,
    /// Wall time spent on the job so far.
    pub elapsed: Duration,
    /// Allocator high-water mark observed so far (bytes; live for
    /// heartbeats, final for done events, 0 before the job allocates).
    pub peak_alloc_bytes: u64,
    /// The shard this process is running, when sharded — lets a fleet
    /// supervisor attribute a multiplexed stream.
    pub shard: Option<Shard>,
    /// The emitting process's OS pid: a supervisor tailing a progress
    /// file can detect a stale writer (lines from a pid it no longer
    /// supervises).
    pub pid: u32,
    /// Monotonic per-run sequence number (0-based, shared across all
    /// worker threads of one [`run_sweep`] call). Gap-free within a
    /// run; a gap means the consumer lost lines (truncated stream),
    /// and a reset to 0 marks a restarted process.
    pub seq: u64,
    /// Terminal status; only present on [`ProgressKind::Done`].
    pub status: Option<JobStatus>,
    /// The job's dominant stall category ([`ObsRollup::top_stall`]),
    /// on `done` events of rollup-probed (`--with-obs`) runs — a fleet
    /// operator sees *why* a job was slow without opening the journal.
    pub top_stall: Option<String>,
    /// The job's total DRAM requests, on `done` events of
    /// rollup-probed runs.
    pub dram_requests: Option<u64>,
    /// The job's [`SweepJob::config_hash`], the hash its journal record
    /// carries: a fleet supervisor stamps poison records with it
    /// instead of rebuilding the job. 0 on [`ProgressKind::Idle`]
    /// beats, which render without it.
    pub config_hash: u64,
}

impl Progress {
    /// Render the event as one line of JSON (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"event\":\"{}\",\"key\":\"{}\",\"index\":{},\"attempt\":{},\"elapsed_ms\":{},\"peak_alloc_bytes\":{}",
            self.kind.name(),
            escape(&self.key),
            self.index,
            self.attempt,
            self.elapsed.as_millis(),
            self.peak_alloc_bytes
        );
        use std::fmt::Write as _;
        if self.kind != ProgressKind::Idle {
            let _ = write!(s, ",\"config_hash\":\"{:016x}\"", self.config_hash);
        }
        if let Some(shard) = self.shard {
            let _ = write!(s, ",\"shard\":\"{shard}\"");
        }
        let _ = write!(s, ",\"pid\":{},\"seq\":{}", self.pid, self.seq);
        if let Some(status) = self.status {
            let _ = write!(s, ",\"status\":\"{}\"", status.name());
        }
        if let Some(top) = &self.top_stall {
            let _ = write!(s, ",\"top_stall\":\"{}\"", escape(top));
        }
        if let Some(dram) = self.dram_requests {
            let _ = write!(s, ",\"dram_requests\":{dram}");
        }
        s.push('}');
        s
    }
}

/// A progress event parsed back from its JSONL wire form — the
/// supervisor-side dual of [`Progress::to_json`]. Unknown fields are
/// ignored and `None` for blank/truncated/corrupt lines, mirroring
/// [`parse_journal_line`]: a dying child may leave a partial final
/// line, and the tail reader must shrug it off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProgressLine {
    /// The `"event"` wire name (`start`/`attempt`/`retry`/`heartbeat`/
    /// `done`).
    pub event: String,
    /// Job identity.
    pub key: String,
    /// Job index within the emitting process's job list.
    pub index: u64,
    /// 1-based attempt number (0 before the first attempt).
    pub attempt: u64,
    /// Wall time the job had consumed when the event fired.
    pub elapsed_ms: u64,
    /// Live (heartbeat) or final (done) allocator high-water mark.
    pub peak_alloc_bytes: u64,
    /// The emitting shard, when the run was sharded.
    pub shard: Option<Shard>,
    /// Emitting process pid (`None` on pre-fleet streams).
    pub pid: Option<u32>,
    /// Monotonic per-run sequence number (`None` on pre-fleet streams).
    pub seq: Option<u64>,
    /// Terminal status wire name, on `done` events.
    pub status: Option<String>,
    /// Dominant stall category, on `done` events of `--with-obs` runs.
    pub top_stall: Option<String>,
    /// Total DRAM requests, on `done` events of `--with-obs` runs.
    pub dram_requests: Option<u64>,
    /// The job's config hash as the emitter computed it (`None` on
    /// idle beats and on streams that predate the field).
    pub config_hash: Option<u64>,
}

/// Parse one progress JSONL line; `None` for blank, truncated or
/// corrupt lines.
pub(crate) fn parse_progress_line(line: &str) -> Option<ProgressLine> {
    let v = json::parse(line)?;
    Some(ProgressLine {
        event: v.field("event")?,
        key: v.field("key")?,
        index: v.field("index")?,
        attempt: v.field("attempt").unwrap_or(0),
        elapsed_ms: v.field("elapsed_ms").unwrap_or(0),
        peak_alloc_bytes: v.field("peak_alloc_bytes").unwrap_or(0),
        shard: v.field("shard"),
        pid: v.field("pid"),
        seq: v.field("seq"),
        status: v.field("status"),
        top_stall: v.field("top_stall"),
        dram_requests: v.field("dram_requests"),
        config_hash: config_hash_field(&v),
    })
}

/// A journal line's three metric members, when all are present.
impl FromJson for JobMetrics {
    fn from_json(line: &Json) -> Option<Self> {
        Some(Self {
            coupled_cycles: line.field("coupled_cycles")?,
            decoupled_cycles: line.field("decoupled_cycles")?,
            l2_accesses: line.field("l2_accesses")?,
        })
    }
}

/// The hex `config_hash` member of a journal or progress line.
fn config_hash_field(v: &Json) -> Option<u64> {
    u64::from_str_radix(&v.field::<String>("config_hash")?, 16).ok()
}

/// Headline metrics captured per successful job (journaled, so a
/// resumed sweep still knows what completed runs produced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMetrics {
    /// Frame time under coupled barriers (cycles).
    pub coupled_cycles: u64,
    /// Frame time under decoupled barriers (cycles).
    pub decoupled_cycles: u64,
    /// Shared-L2 accesses (= total L1 misses).
    pub l2_accesses: u64,
}

impl JobMetrics {
    /// Extract the journaled metrics from a frame result.
    #[must_use]
    pub fn of(result: &FrameResult) -> Self {
        Self {
            coupled_cycles: result.total_cycles(BarrierMode::Coupled),
            decoupled_cycles: result.total_cycles(BarrierMode::Decoupled),
            l2_accesses: result.hierarchy.l2.accesses,
        }
    }
}

/// Terminal state of one job in a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Simulated successfully (this run).
    Ok,
    /// Failed after all permitted attempts.
    Failed,
    /// Skipped: the journal says a previous run already completed it.
    Skipped,
    /// Never dispatched: the sweep aborted on an earlier failure.
    NotRun,
}

impl JobStatus {
    /// Stable wire name (used by both the journal and progress JSONL).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Failed => "failed",
            Self::Skipped => "skipped",
            Self::NotRun => "not_run",
        }
    }
}

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Index into the job slice passed to [`run_sweep`].
    pub index: usize,
    /// The job's stable identity ([`SweepJob::key`]).
    pub key: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Attempts consumed (0 for skipped/not-run jobs).
    pub attempts: u32,
    /// Wall time spent on the job across attempts.
    pub elapsed: Duration,
    /// The last error, for failed jobs.
    pub error: Option<JobError>,
    /// Headline metrics, for successful jobs.
    pub metrics: Option<JobMetrics>,
    /// The job's [`SweepJob::config_hash`], journaled so resume can
    /// detect configuration drift.
    pub config_hash: u64,
    /// Allocator high-water mark (bytes) across all attempts; `None`
    /// for jobs that never ran (skipped / not-run).
    pub peak_alloc: Option<u64>,
    /// The shard this record was produced under, when sharded.
    pub shard: Option<Shard>,
    /// Per-job probe rollup, for successful jobs of `--with-obs` runs.
    pub obs: Option<ObsRollup>,
}

/// End-of-sweep summary: one record per job plus the abort flag.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Per-job outcomes, in job order.
    pub records: Vec<JobRecord>,
    /// Whether the sweep stopped dispatching after a failure
    /// (`keep_going == false`).
    pub aborted: bool,
}

impl SweepReport {
    /// Jobs that completed (this run or, when resuming, a previous
    /// one).
    #[must_use]
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.status, JobStatus::Ok | JobStatus::Skipped))
            .count()
    }

    /// Jobs that exhausted their attempts.
    #[must_use]
    pub fn failed(&self) -> Vec<&JobRecord> {
        self.records
            .iter()
            .filter(|r| r.status == JobStatus::Failed)
            .collect()
    }

    /// Whether every job completed.
    #[must_use]
    pub fn is_success(&self) -> bool {
        !self.aborted && self.failed().is_empty()
    }

    /// Multi-line failure report: a headline count plus one line per
    /// failed job (`key`, attempts, error).
    #[must_use]
    pub fn summary(&self) -> String {
        let failed = self.failed();
        let mut s = format!(
            "sweep: {}/{} jobs completed, {} failed{}",
            self.completed(),
            self.records.len(),
            failed.len(),
            if self.aborted {
                " (aborted on first failure)"
            } else {
                ""
            }
        );
        for r in failed {
            use std::fmt::Write as _;
            let err = r.error.as_ref().map_or_else(String::new, |e| e.to_string());
            let _ = write!(s, "\n  {} after {} attempt(s): {err}", r.key, r.attempts);
        }
        s
    }

    /// Fixed-width per-job summary table: status, attempts, wall time
    /// and allocator high-water mark — the engine's own observability
    /// view, so fleet runs are debuggable without re-parsing journals.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let key_w = self
            .records
            .iter()
            .map(|r| r.key.len())
            .max()
            .unwrap_or(3)
            .max(3);
        let mut s = format!(
            "{:key_w$}  {:8}  {:>3}  {:>10}  {:>14}",
            "key", "status", "att", "elapsed_ms", "peak_alloc"
        );
        if let Some(shard) = self.records.iter().find_map(|r| r.shard) {
            let _ = write!(s, "  (shard {shard})");
        }
        for r in &self.records {
            let status = r.status.name();
            let peak = r
                .peak_alloc
                .map_or_else(|| "-".into(), |p| format!("{:.1} MiB", p as f64 / MIB));
            let _ = write!(
                s,
                "\n{:key_w$}  {:8}  {:>3}  {:>10}  {:>14}",
                r.key,
                status,
                r.attempts,
                r.elapsed.as_millis(),
                peak
            );
        }
        s
    }
}

/// Bytes per mebibyte (the unit `--job-mem-budget` is spelled in).
pub const MIB: f64 = 1024.0 * 1024.0;

/// How often the watchdog samples the job's allocator meter while a
/// memory budget (or a timeout alongside one) is in force.
const WATCHDOG_POLL: Duration = Duration::from_millis(5);

/// What an attempt's body returned, or the message of the panic it
/// unwound with.
type Caught<T> = Result<Result<T, SimError>, String>;

/// Run one job attempt and return its outcome and allocator peak
/// (see [`attempt`] for where it runs and how it is watched).
fn run_attempt(
    job: SweepJob,
    timeout: Option<Duration>,
    mem_budget: Option<u64>,
    heartbeat: Option<(Duration, &dyn Fn(u64))>,
    cache: Option<Arc<PrefixCache>>,
    with_obs: bool,
) -> (Result<(FrameResult, Option<ObsRollup>), JobError>, u64) {
    attempt(
        move || {
            if with_obs {
                job.simulate_rollup(cache.as_deref())
                    .map(|(result, rollup)| (result, Some(rollup)))
            } else {
                job.simulate_with(cache.as_deref())
                    .map(|result| (result, None))
            }
        },
        &AllocMeter::new(),
        timeout,
        mem_budget,
        heartbeat,
    )
}

/// Run one attempt of `body`, charged to `meter`, behind
/// [`std::panic::catch_unwind`], and map its outcome to a
/// [`JobError`]; returns the outcome and the meter's peak.
///
/// With no timeout, no memory budget and no heartbeat, nothing needs
/// to watch the attempt, so it runs on the calling worker thread:
/// tagged for the body's duration and untagged again afterwards, panic
/// or not. Otherwise it runs on a disposable thread under [`watch`],
/// because a watchdog can abandon only a job on a thread of its own.
///
/// Either way a completed attempt gets a final high-water check
/// against the budget, which catches spikes that came and went
/// between the watchdog's polls — so the verdict is deterministic for
/// a given job and budget, independent of scheduler timing.
fn attempt<T: Send + 'static>(
    body: impl FnOnce() -> Result<T, SimError> + Send + 'static,
    meter: &Arc<AllocMeter>,
    timeout: Option<Duration>,
    mem_budget: Option<u64>,
    heartbeat: Option<(Duration, &dyn Fn(u64))>,
) -> (Result<T, JobError>, u64) {
    // Belt and braces: callers already translate a zero interval into
    // `None`, but a zero that slipped through would min-merge into the
    // watchdog slice and busy-loop it.
    let heartbeat = heartbeat.filter(|(every, _)| !every.is_zero());
    let caught = if timeout.is_none() && mem_budget.is_none() && heartbeat.is_none() {
        metered(meter, body)
    } else {
        match watch(body, meter, timeout, mem_budget, heartbeat) {
            Ok(caught) => caught,
            Err((abandoned, peak)) => return (Err(abandoned), peak),
        }
    };
    let peak = meter.peak_bytes();
    let result = match caught {
        Ok(Ok(value)) => match mem_budget {
            Some(budget) if peak > budget => Err(JobError::MemBudget { used: peak, budget }),
            _ => Ok(value),
        },
        Ok(Err(sim)) => Err(JobError::Invalid(sim)),
        Err(panic_msg) => Err(JobError::Panicked(panic_msg)),
    };
    (result, peak)
}

/// Run `body` on the current thread, tagged with `meter` before any
/// simulation work (so a prefix build on a cache miss is charged too)
/// and catching a panic as its payload message. The tag drops before
/// this returns, so the thread's later allocations charge nothing.
fn metered<T>(meter: &Arc<AllocMeter>, body: impl FnOnce() -> Result<T, SimError>) -> Caught<T> {
    let _tag = meter_current_thread(meter);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// Run `body` through [`metered`] on a disposable thread while this
/// thread watches it: the watchdogs abandon (detach) the job thread
/// once a wall-clock or memory budget is exhausted, so it cannot block
/// the sweep. Returns the attempt's outcome, or the abandoning error
/// and the peak seen at that moment.
///
/// `heartbeat` is an optional `(interval, emit)` pair: while the
/// attempt is in flight, `emit` is called with the live allocator
/// high-water mark at least `interval` apart.
fn watch<T: Send + 'static>(
    body: impl FnOnce() -> Result<T, SimError> + Send + 'static,
    meter: &Arc<AllocMeter>,
    timeout: Option<Duration>,
    mem_budget: Option<u64>,
    heartbeat: Option<(Duration, &dyn Fn(u64))>,
) -> Result<Caught<T>, (JobError, u64)> {
    let (tx, rx) = std::sync::mpsc::channel();
    let job_meter = Arc::clone(meter);
    std::thread::spawn(move || {
        // The receiver may be gone (watchdog fired): ignore the send error.
        let _ = tx.send(metered(&job_meter, body));
    });

    let started = Instant::now();
    let mut last_beat = Instant::now();
    loop {
        if let Some((every, emit)) = heartbeat {
            if last_beat.elapsed() >= every {
                emit(meter.peak_bytes());
                last_beat = Instant::now();
            }
        }
        if let Some(budget) = mem_budget {
            let used = meter.peak_bytes();
            if used > budget {
                return Err((JobError::MemBudget { used, budget }, used));
            }
        }
        // Wait until the next beat is due; the floor keeps a
        // pathologically small interval from busy-spinning the loop.
        let beat_slice = heartbeat.map(|(every, _)| {
            every
                .saturating_sub(last_beat.elapsed())
                .max(Duration::from_millis(1))
        });
        let slice = match (timeout, mem_budget) {
            (Some(t), budget) => {
                let elapsed = started.elapsed();
                if elapsed >= t {
                    return Err((JobError::TimedOut { after: t }, meter.peak_bytes()));
                }
                let remaining = t - elapsed;
                // Poll the meter only when a budget is in force; a
                // plain timeout blocks for its full remainder instead
                // of waking every few milliseconds.
                if budget.is_some() {
                    Some(remaining.min(WATCHDOG_POLL))
                } else {
                    Some(remaining)
                }
            }
            (None, Some(_)) => Some(WATCHDOG_POLL),
            // Only beats are due: wake for each one.
            (None, None) => None,
        };
        let slice = match (slice, beat_slice) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => a.or(b).unwrap_or(WATCHDOG_POLL),
        };
        match rx.recv_timeout(slice) {
            Ok(caught) => return Ok(caught),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                return Ok(Err("job thread died without reporting".into()));
            }
        }
    }
}

/// Execute `jobs` with isolation, retries and journaling; `on_ok` is
/// invoked (from worker threads) with each successful result.
///
/// The calling thread is worker 0 and runs unwatched attempts itself,
/// tagged with each job's [`AllocMeter`]. Tags do not nest, so the
/// caller must not be metered: its first such attempt would end the
/// caller's own tag.
///
/// # Errors
///
/// Returns an I/O error only for journal file problems (opening or
/// reading it); simulation failures are reported in the
/// [`SweepReport`], never as `Err`.
pub fn run_sweep<F>(
    jobs: &[SweepJob],
    opts: &SweepOptions,
    on_ok: F,
) -> std::io::Result<SweepReport>
where
    F: Fn(&SweepJob, FrameResult) + Sync,
{
    let (done_keys, quarantined) = match (&opts.journal, opts.resume) {
        (Some(path), true) if path.exists() => {
            let text = std::fs::read_to_string(path)?;
            (completed_entries(&text), poisoned_entries(&text))
        }
        _ => (BTreeMap::new(), BTreeMap::new()),
    };
    let journal = match &opts.journal {
        Some(path) => {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ))
        }
        None => None,
    };

    let records: Mutex<Vec<JobRecord>> = Mutex::new(Vec::with_capacity(jobs.len()));
    let abort = AtomicBool::new(false);
    let next = AtomicUsize::new(0);
    // Progress-stream correlation fields: one pid per process, one
    // gap-free sequence counter per run (shared by all workers).
    let pid = std::process::id();
    let seq = AtomicU64::new(0);
    let workers = if opts.workers == 0 {
        jobs.len().clamp(1, 8)
    } else {
        opts.workers.clamp(1, jobs.len().max(1))
    };

    let worker = || loop {
        if !opts.keep_going && abort.load(Ordering::Relaxed) {
            break;
        }
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(index).copied() else {
            break;
        };
        let key = job.key();
        // Out-of-shard jobs belong to another machine's run:
        // no record, no journal line.
        if opts.shard.is_some_and(|s| !s.contains(&key)) {
            continue;
        }
        let config_hash = job.config_hash();
        let emit_obs = |kind, attempt, elapsed, peak, status, obs: Option<(&str, u64)>| {
            if let Some(f) = opts.progress {
                f(&Progress {
                    kind,
                    key: key.clone(),
                    index,
                    attempt,
                    elapsed,
                    peak_alloc_bytes: peak,
                    shard: opts.shard,
                    pid,
                    // Assigned at emit time so the stream's
                    // sequence numbers are gap-free even with
                    // events interleaving across workers.
                    seq: seq.fetch_add(1, Ordering::Relaxed),
                    status,
                    top_stall: obs.map(|(top, _)| top.to_string()),
                    dram_requests: obs.map(|(_, dram)| dram),
                    config_hash,
                });
            }
        };
        let emit = |kind, attempt, elapsed, peak, status| {
            emit_obs(kind, attempt, elapsed, peak, status, None);
        };
        emit(ProgressKind::Start, 0, Duration::ZERO, 0, None);
        // Resume refuses to skip when the journaled config
        // hash differs from the job's: the old result was
        // produced by a different simulator configuration.
        // Pre-v2 lines carry no hash and stay skippable.
        let hash_matches = |h: &Option<u64>| h.is_none_or(|h| h == config_hash);
        if done_keys.get(&key).is_some_and(hash_matches) {
            emit(
                ProgressKind::Done,
                0,
                Duration::ZERO,
                0,
                Some(JobStatus::Skipped),
            );
            let record = JobRecord {
                index,
                key,
                status: JobStatus::Skipped,
                attempts: 0,
                elapsed: Duration::ZERO,
                error: None,
                metrics: None,
                config_hash,
                peak_alloc: None,
                shard: opts.shard,
                obs: None,
            };
            lock(&records).push(record);
            continue;
        }
        // Poison quarantine: the fleet supervisor journaled
        // this job as having killed its shard repeatedly.
        // Record the failure without executing — and without
        // tripping the abort flag (the failure is historical,
        // already accounted; the restarted shard's purpose is
        // to get *past* it) or re-journaling (the supervisor's
        // line is already the key's latest entry).
        if let Some(entry) = quarantined
            .get(&key)
            .filter(|e| hash_matches(&e.config_hash))
        {
            let deaths = u32::try_from(entry.attempts).unwrap_or(u32::MAX);
            emit(
                ProgressKind::Done,
                deaths,
                Duration::ZERO,
                0,
                Some(JobStatus::Failed),
            );
            lock(&records).push(JobRecord {
                index,
                key,
                status: JobStatus::Failed,
                attempts: deaths,
                elapsed: Duration::ZERO,
                error: Some(JobError::Poisoned { deaths }),
                metrics: None,
                config_hash,
                peak_alloc: None,
                shard: opts.shard,
                obs: None,
            });
            continue;
        }

        let started = Instant::now();
        let mut attempts = 0u32;
        let mut peak_alloc = 0u64;
        let outcome = loop {
            attempts += 1;
            emit(
                ProgressKind::Attempt,
                attempts,
                started.elapsed(),
                peak_alloc,
                None,
            );
            let beat = |peak: u64| {
                emit(
                    ProgressKind::Heartbeat,
                    attempts,
                    started.elapsed(),
                    peak,
                    None,
                )
            };
            // A zero interval means "no heartbeats", not "as
            // fast as possible": leave the pair unset so the
            // watchdog below blocks instead of busy-looping.
            let heartbeat = opts
                .progress
                .filter(|_| !opts.progress_heartbeat.is_zero())
                .map(|_| (opts.progress_heartbeat, &beat as &dyn Fn(u64)));
            let (attempt, peak) = run_attempt(
                job,
                opts.job_timeout,
                opts.job_mem_budget,
                heartbeat,
                opts.prefix_cache.clone(),
                opts.with_obs,
            );
            peak_alloc = peak_alloc.max(peak);
            match attempt {
                Ok(result) => break Ok(result),
                Err(e) => {
                    if !e.retryable() || attempts > opts.retry.max_retries {
                        break Err(e);
                    }
                    emit(
                        ProgressKind::Retry,
                        attempts,
                        started.elapsed(),
                        peak_alloc,
                        None,
                    );
                    (opts.sleeper)(opts.retry.delay(attempts, fnv1a(key.as_bytes())));
                }
            }
        };
        let elapsed = started.elapsed();
        let terminal = if outcome.is_ok() {
            JobStatus::Ok
        } else {
            JobStatus::Failed
        };
        // Done events of rollup-probed jobs carry the headline
        // stall attribution inline.
        let done_obs = outcome
            .as_ref()
            .ok()
            .and_then(|(_, rollup)| rollup.as_ref().map(|r| (r.top_stall().0, r.dram_requests)));
        emit_obs(
            ProgressKind::Done,
            attempts,
            elapsed,
            peak_alloc,
            Some(terminal),
            done_obs,
        );

        let record = match outcome {
            Ok((result, rollup)) => {
                let metrics = JobMetrics::of(&result);
                on_ok(&job, result);
                JobRecord {
                    index,
                    key,
                    status: JobStatus::Ok,
                    attempts,
                    elapsed,
                    error: None,
                    metrics: Some(metrics),
                    config_hash,
                    peak_alloc: Some(peak_alloc),
                    shard: opts.shard,
                    obs: rollup,
                }
            }
            Err(e) => {
                abort.store(true, Ordering::Relaxed);
                JobRecord {
                    index,
                    key,
                    status: JobStatus::Failed,
                    attempts,
                    elapsed,
                    error: Some(e),
                    metrics: None,
                    config_hash,
                    peak_alloc: Some(peak_alloc),
                    shard: opts.shard,
                    obs: None,
                }
            }
        };
        if let Some(j) = &journal {
            let line = journal_line(&record);
            let mut file = lock(j);
            // Journal write failures must not kill the sweep;
            // the in-memory report stays authoritative.
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
        lock(&records).push(record);
    };
    // The calling thread is worker 0, so `workers: 1` starts no thread.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });

    let mut records = records.into_inner().unwrap_or_else(PoisonError::into_inner);
    records.sort_by_key(|r| r.index);
    let aborted = abort.load(Ordering::Relaxed) && !opts.keep_going;
    // Jobs never dispatched because of an abort still get a record, so
    // reports always cover the full job list — restricted, when
    // sharded, to the jobs this shard owns.
    let covered: BTreeSet<usize> = records.iter().map(|r| r.index).collect();
    for (index, job) in jobs.iter().enumerate() {
        if covered.contains(&index) {
            continue;
        }
        let key = job.key();
        if opts.shard.is_some_and(|s| !s.contains(&key)) {
            continue;
        }
        records.push(JobRecord {
            index,
            key,
            status: JobStatus::NotRun,
            attempts: 0,
            elapsed: Duration::ZERO,
            error: None,
            metrics: None,
            config_hash: job.config_hash(),
            peak_alloc: None,
            shard: opts.shard,
            obs: None,
        });
    }
    records.sort_by_key(|r| r.index);
    Ok(SweepReport { records, aborted })
}

/// One journal line for a finished job (single-line JSON object).
#[must_use]
pub fn journal_line(r: &JobRecord) -> String {
    let mut s = format!(
        "{{\"key\":\"{}\",\"status\":\"{}\",\"attempts\":{},\"elapsed_ms\":{},\"config_hash\":\"{:016x}\"",
        escape(&r.key),
        r.status.name(),
        r.attempts,
        r.elapsed.as_millis(),
        r.config_hash
    );
    use std::fmt::Write as _;
    if let Some(m) = &r.metrics {
        let _ = write!(
            s,
            ",\"coupled_cycles\":{},\"decoupled_cycles\":{},\"l2_accesses\":{}",
            m.coupled_cycles, m.decoupled_cycles, m.l2_accesses
        );
    }
    if let Some(o) = &r.obs {
        let _ = write!(s, ",\"obs\":{}", o.to_json());
    }
    if let Some(p) = r.peak_alloc {
        let _ = write!(s, ",\"peak_alloc_bytes\":{p}");
    }
    if let Some(shard) = r.shard {
        let _ = write!(s, ",\"shard\":\"{shard}\"");
    }
    if let Some(e) = &r.error {
        let _ = write!(
            s,
            ",\"error_kind\":\"{}\",\"error\":\"{}\"",
            e.kind(),
            escape(&e.to_string())
        );
    }
    s.push('}');
    s
}

/// A parsed journal entry (the fields resume and tests need).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Job identity.
    pub key: String,
    /// `"ok"`, `"failed"`, `"skipped"` or `"not_run"`.
    pub status: String,
    /// Attempts consumed.
    pub attempts: u64,
    /// Journaled wall time in milliseconds (0 on lines that never ran
    /// or pre-dated the field). The daemon's job-wall-clock histogram
    /// is fed from this.
    pub elapsed_ms: u64,
    /// Journaled metrics, when the entry is `ok`.
    pub metrics: Option<JobMetrics>,
    /// Journaled per-job probe rollup, on `--with-obs` `ok` entries.
    pub obs: Option<ObsRollup>,
    /// Journal-v2 config hash; `None` on pre-v2 lines.
    pub config_hash: Option<u64>,
    /// Allocator high-water mark (bytes); `None` on lines written
    /// before memory metering or for jobs that never ran.
    pub peak_alloc_bytes: Option<u64>,
    /// The shard that produced the line, when the run was sharded.
    pub shard: Option<Shard>,
    /// Journaled `error_kind` tag, for failed entries.
    pub error_kind: Option<String>,
}

/// Parse one journal line; `None` for blank, truncated or corrupt
/// lines (a killed process may leave a partial final line — resume
/// must shrug it off).
#[must_use]
pub fn parse_journal_line(line: &str) -> Option<JournalEntry> {
    let v = json::parse(line)?;
    Some(JournalEntry {
        key: v.field("key")?,
        status: v.field("status")?,
        attempts: v.field("attempts").unwrap_or(0),
        elapsed_ms: v.field("elapsed_ms").unwrap_or(0),
        metrics: JobMetrics::from_json(&v),
        obs: v.field("obs"),
        config_hash: config_hash_field(&v),
        peak_alloc_bytes: v.field("peak_alloc_bytes"),
        shard: v.field("shard"),
        error_kind: v.field("error_kind"),
    })
}

/// The set of job keys whose **latest** journal entry is `ok` or
/// `skipped` (last-wins: a later failed re-run invalidates an earlier
/// success).
#[must_use]
pub fn completed_keys(journal: &str) -> BTreeSet<String> {
    completed_entries(journal).into_keys().collect()
}

/// Like [`completed_keys`], but paired with each entry's journaled
/// [config hash](SweepJob::config_hash) (`None` on pre-v2 lines).
/// Resume uses the hash to refuse skipping jobs whose configuration
/// drifted since the journal was written.
#[must_use]
pub fn completed_entries(journal: &str) -> BTreeMap<String, Option<u64>> {
    latest_entries(journal)
        .into_iter()
        .filter(|(_, e)| e.status == "ok" || e.status == "skipped")
        .map(|(k, e)| (k, e.config_hash))
        .collect()
}

/// The **latest** journal entry per key (last-wins over the whole
/// file), ignoring unparseable lines.
#[must_use]
pub fn latest_entries(journal: &str) -> BTreeMap<String, JournalEntry> {
    let mut latest: BTreeMap<String, JournalEntry> = BTreeMap::new();
    for line in journal.lines() {
        if let Some(e) = parse_journal_line(line) {
            latest.insert(e.key.clone(), e);
        }
    }
    latest
}

/// Job keys whose latest journal entry is a supervisor-written poison
/// quarantine (`status:"failed"`, `error_kind:"poisoned"`), mapped to
/// that entry. A resuming sweep fails these jobs without executing
/// them (see [`JobError::Poisoned`]); any later `ok`/`failed` line —
/// e.g. from a deliberate re-attempt without `--resume` — lifts the
/// quarantine because only the *latest* entry counts.
#[must_use]
pub fn poisoned_entries(journal: &str) -> BTreeMap<String, JournalEntry> {
    latest_entries(journal)
        .into_iter()
        .filter(|(_, e)| e.status == "failed" && e.error_kind.as_deref() == Some("poisoned"))
        .collect()
}

// --- shard-journal merge ---------------------------------------------------

/// Why merging shard journals failed.
#[derive(Debug)]
pub enum MergeError {
    /// An input journal could not be read, or the output written.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Two `ok` records for the same key *and the same config hash*
    /// disagree on metrics. The simulator is deterministic, so equal
    /// configurations must produce bit-identical metrics — divergence
    /// means corruption or mixed simulator builds, and is never
    /// auto-resolved.
    Divergent {
        /// The job key both records claim.
        key: String,
        /// The config hash both records carry.
        config_hash: u64,
        /// Metrics from the record seen first.
        first: JobMetrics,
        /// Metrics from the conflicting later record.
        second: JobMetrics,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Io { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            MergeError::Divergent {
                key,
                config_hash,
                first,
                second,
            } => write!(
                f,
                "divergent records for `{key}` (config {config_hash:016x}): \
                 {first:?} vs {second:?} — same configuration must be bit-identical"
            ),
        }
    }
}

impl std::error::Error for MergeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MergeError::Io { source, .. } => Some(source),
            MergeError::Divergent { .. } => None,
        }
    }
}

/// Bookkeeping from one merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Input journals consumed.
    pub journals: usize,
    /// Parseable records read across all inputs.
    pub lines: usize,
    /// Non-blank lines that did not parse (corrupt / truncated) and
    /// were dropped.
    pub corrupt: usize,
    /// Unique keys in the merged output.
    pub records: usize,
    /// Records replaced by a later entry for the same key (duplicates
    /// across shards, or re-runs within one journal).
    pub superseded: usize,
    /// `failed` records dropped because an `ok` record with the same
    /// key *and* config hash was also present (ok-over-failed
    /// preference; counted separately from `superseded` so losing a
    /// completed result is never silent).
    pub failed_ignored: usize,
}

/// Incremental journal-merge state: the fold underneath
/// [`merge_journal_texts`], exposed so a live merger (the sweep
/// daemon) can feed shard-journal lines *as they are appended* and
/// re-render the merged view at any point, with semantics identical
/// to a one-shot merge of the same lines.
///
/// Last-wins per key, with two carve-outs that make the result
/// independent of feed order: (1) two `ok` records sharing a key
/// *and* a config hash must agree on metrics
/// ([`MergeError::Divergent`] otherwise) — checked against *every*
/// `ok` record seen for that configuration, not just the current
/// per-key winner, so interleaved records with other hashes cannot
/// mask a divergence; (2) a `failed` record never displaces an `ok`
/// record carrying the same config hash — merge inputs have no time
/// order, and the deterministic `ok` metrics are strictly more
/// informative than a transient failure (dropped records are counted
/// in [`MergeStats::failed_ignored`]). A record with a *different*
/// hash simply supersedes the earlier one — the configuration drifted
/// and the later run is authoritative, exactly as in-journal resume
/// semantics.
///
/// The rendered output ([`render`](Self::render)) is the winning
/// verbatim input lines sorted by key — a pure function of the fed
/// line *set*'s winners, so a daemon that crashes mid-merge and
/// re-folds the shard journals from byte 0 reproduces the merged file
/// bit-identically.
#[derive(Debug, Default)]
pub struct MergeAccumulator {
    winners: BTreeMap<String, (JournalEntry, String)>,
    /// First-seen `ok` metrics per (key, config hash) — the divergence
    /// guarantee is order-independent, so it must survive a record
    /// with a different hash being interleaved between two divergent
    /// ones.
    seen_ok: BTreeMap<(String, u64), JobMetrics>,
    stats: MergeStats,
}

impl MergeAccumulator {
    /// An empty accumulator (no lines folded, zero stats).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one journal line. Blank lines are ignored; unparseable
    /// ones are counted corrupt and dropped.
    ///
    /// # Errors
    ///
    /// [`MergeError::Divergent`] when the line's `ok` metrics
    /// contradict an earlier `ok` record for the same key and config
    /// hash. The accumulator is left as of the previous line; callers
    /// should stop feeding it (divergence means corruption or mixed
    /// simulator builds and is never auto-resolved).
    pub fn fold_line(&mut self, line: &str) -> Result<(), MergeError> {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Ok(());
        }
        let Some(entry) = parse_journal_line(trimmed) else {
            self.stats.corrupt += 1;
            return Ok(());
        };
        self.stats.lines += 1;
        if entry.status == "ok" {
            if let (Some(h), Some(m)) = (entry.config_hash, entry.metrics) {
                match self.seen_ok.entry((entry.key.clone(), h)) {
                    std::collections::btree_map::Entry::Occupied(first) => {
                        if *first.get() != m {
                            return Err(MergeError::Divergent {
                                key: entry.key,
                                config_hash: h,
                                first: *first.get(),
                                second: m,
                            });
                        }
                    }
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        slot.insert(m);
                    }
                }
            }
        }
        // `ok` beats a non-`ok` record for the same configuration
        // regardless of encounter order.
        let ok_over_failed = |ok: &JournalEntry, other: &JournalEntry| {
            ok.status == "ok"
                && other.status != "ok"
                && ok.config_hash.is_some()
                && ok.config_hash == other.config_hash
        };
        match self.winners.get(&entry.key) {
            Some((prev, _)) if ok_over_failed(prev, &entry) => {
                self.stats.failed_ignored += 1;
            }
            Some((prev, _)) => {
                if ok_over_failed(&entry, prev) {
                    self.stats.failed_ignored += 1;
                } else {
                    self.stats.superseded += 1;
                }
                self.winners
                    .insert(entry.key.clone(), (entry, trimmed.to_string()));
            }
            None => {
                self.winners
                    .insert(entry.key.clone(), (entry, trimmed.to_string()));
            }
        }
        Ok(())
    }

    /// Fold every line of one journal text, bumping the input-journal
    /// counter.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MergeError::Divergent`] from
    /// [`fold_line`](Self::fold_line).
    pub fn fold_text(&mut self, text: &str) -> Result<(), MergeError> {
        self.stats.journals += 1;
        for line in text.lines() {
            self.fold_line(line)?;
        }
        Ok(())
    }

    /// Current merge statistics ([`MergeStats::records`] reflects the
    /// winner count as of the last fold).
    #[must_use]
    pub fn stats(&self) -> MergeStats {
        MergeStats {
            records: self.winners.len(),
            ..self.stats
        }
    }

    /// The current winning entry per key (the merged journal's
    /// last-wins view), for coverage and status queries.
    pub fn latest(&self) -> impl Iterator<Item = (&String, &JournalEntry)> {
        self.winners.iter().map(|(k, (e, _))| (k, e))
    }

    /// The current winning entry for one key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JournalEntry> {
        self.winners.get(key).map(|(e, _)| e)
    }

    /// Render the merged journal: the winning verbatim input lines,
    /// sorted by key, one per line with a trailing newline each.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (_, line) in self.winners.values() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Union journal texts (in argument order, lines in file order)
/// through a [`MergeAccumulator`] — see its docs for the last-wins /
/// ok-over-failed / divergence semantics. Output lines are the
/// winning verbatim input lines, sorted by key.
///
/// # Errors
///
/// Only [`MergeError::Divergent`]; the text-level API does no I/O.
pub fn merge_journal_texts(texts: &[String]) -> Result<(String, MergeStats), MergeError> {
    let mut acc = MergeAccumulator::new();
    for text in texts {
        acc.fold_text(text)?;
    }
    Ok((acc.render(), acc.stats()))
}

/// Render a journal text's latest `ok` records in the canonical,
/// sorted `key|config_hash|coupled|decoupled|l2` form (one line each,
/// trailing newline). Volatile fields (wall time, peak allocation,
/// shard) are omitted, so two journals that simulated the same jobs
/// canonicalize identically — `dtexl sweep canon` prints this form
/// and CI diffs runs through it; the daemon's live merger maintains
/// the same view on disk next to the merged journal.
#[must_use]
pub fn canon_text(journal: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (key, e) in latest_entries(journal) {
        if e.status != "ok" {
            continue;
        }
        let Some(m) = e.metrics else { continue };
        let _ = writeln!(
            out,
            "{key}|{:016x}|{}|{}|{}",
            e.config_hash.unwrap_or(0),
            m.coupled_cycles,
            m.decoupled_cycles,
            m.l2_accesses
        );
    }
    out
}

/// File-level [`merge_journal_texts`]: read `inputs` in order, write
/// the merged journal to `out` (parent directories created). The
/// merged file is itself a valid journal — `--resume` against it skips
/// everything the shards completed.
///
/// # Errors
///
/// [`MergeError::Io`] for unreadable inputs or an unwritable output,
/// [`MergeError::Divergent`] per [`merge_journal_texts`].
pub fn merge_journals(inputs: &[PathBuf], out: &Path) -> Result<MergeStats, MergeError> {
    let mut texts = Vec::with_capacity(inputs.len());
    for path in inputs {
        texts.push(
            std::fs::read_to_string(path).map_err(|source| MergeError::Io {
                path: path.clone(),
                source,
            })?,
        );
    }
    let (merged, stats) = merge_journal_texts(&texts)?;
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|source| MergeError::Io {
            path: out.to_path_buf(),
            source,
        })?;
    }
    std::fs::write(out, merged).map_err(|source| MergeError::Io {
        path: out.to_path_buf(),
        source,
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job(game: Game) -> SweepJob {
        SweepJob::new(game, ScheduleConfig::baseline(), false, 96, 64, 0)
    }

    #[test]
    fn journal_roundtrips_ok_and_failed_records() {
        let ok = JobRecord {
            index: 0,
            key: "CCS|x|base|96x64#0".into(),
            status: JobStatus::Ok,
            attempts: 2,
            elapsed: Duration::from_millis(7),
            error: None,
            metrics: Some(JobMetrics {
                coupled_cycles: 100,
                decoupled_cycles: 90,
                l2_accesses: 5,
            }),
            config_hash: 0xdead_beef_0042,
            peak_alloc: Some(1_482_336),
            shard: Some(Shard { index: 1, count: 3 }),
            obs: Some(ObsRollup {
                l1_hits: 40,
                dram_requests: 3,
                ..ObsRollup::default()
            }),
        };
        let line = journal_line(&ok);
        let e = parse_journal_line(&line).unwrap();
        assert_eq!(e.key, ok.key);
        assert_eq!(e.status, "ok");
        assert_eq!(e.attempts, 2);
        assert_eq!(e.elapsed_ms, 7);
        assert_eq!(e.metrics, ok.metrics);
        assert_eq!(e.obs, ok.obs);
        assert_eq!(e.config_hash, Some(0xdead_beef_0042));
        assert_eq!(e.peak_alloc_bytes, Some(1_482_336));
        assert_eq!(e.shard, Some(Shard { index: 1, count: 3 }));
        assert_eq!(e.error_kind, None);

        let failed = JobRecord {
            error: Some(JobError::Panicked("boom \"quoted\"\npath".into())),
            status: JobStatus::Failed,
            metrics: None,
            ..ok
        };
        let line = journal_line(&failed);
        let e = parse_journal_line(&line).unwrap();
        assert_eq!(e.status, "failed");
        assert_eq!(e.metrics, None);
        assert_eq!(e.error_kind.as_deref(), Some("panic"));
        assert!(json::parse(&line)
            .and_then(|v| v.field::<String>("error"))
            .unwrap()
            .contains("boom \"quoted\""));
    }

    /// Strings that a substring scanner would misread: a key with a
    /// backslash and quotes, and an error message that carries a
    /// closing brace, a fake `obs` object and a fake status.
    const HOSTILE_KEY: &str = "C\\S|\"x\"]|{\"index\":1}|96x64#0";
    const HOSTILE_ERROR: &str = "boom } \"obs\":{\"l1_hits\":9} \"status\":\"ok\" \u{2028}";

    #[test]
    fn hostile_journal_records_round_trip_field_by_field() {
        let mut obs = ObsRollup {
            l1_hits: 40,
            l2_misses: u64::MAX,
            ..ObsRollup::default()
        };
        obs.coupled.units[13] = [1, 2, 3];
        let ok = JobRecord {
            index: 0,
            key: HOSTILE_KEY.into(),
            status: JobStatus::Ok,
            attempts: 1,
            elapsed: Duration::from_millis(12),
            error: None,
            metrics: Some(JobMetrics {
                coupled_cycles: 100,
                decoupled_cycles: 90,
                l2_accesses: 5,
            }),
            config_hash: u64::MAX,
            peak_alloc: Some(0),
            shard: Some(Shard { index: 2, count: 3 }),
            obs: Some(obs),
        };
        let failed = JobRecord {
            status: JobStatus::Failed,
            error: Some(JobError::Panicked(HOSTILE_ERROR.into())),
            metrics: None,
            obs: None,
            shard: None,
            ..ok.clone()
        };
        for r in [&ok, &failed] {
            let line = journal_line(r);
            let e = parse_journal_line(&line).expect("parse own line");
            assert_eq!(e.key, r.key);
            assert_eq!(e.status, r.status.name());
            assert_eq!(e.attempts, u64::from(r.attempts));
            assert_eq!(e.elapsed_ms, 12);
            assert_eq!(e.metrics, r.metrics);
            assert_eq!(e.obs, r.obs, "{line}");
            assert_eq!(e.config_hash, Some(r.config_hash));
            assert_eq!(e.peak_alloc_bytes, r.peak_alloc);
            assert_eq!(e.shard, r.shard);
            assert_eq!(
                e.error_kind.as_deref(),
                r.error.as_ref().map(JobError::kind)
            );
            let error = json::parse(&line).and_then(|v| v.field::<String>("error"));
            assert_eq!(error, r.error.as_ref().map(ToString::to_string));
        }
    }

    #[test]
    fn every_progress_kind_round_trips_field_by_field() {
        for kind in [
            ProgressKind::Start,
            ProgressKind::Attempt,
            ProgressKind::Retry,
            ProgressKind::Heartbeat,
            ProgressKind::Done,
            ProgressKind::Idle,
        ] {
            let done = kind == ProgressKind::Done;
            let p = Progress {
                kind,
                key: HOSTILE_KEY.into(),
                index: 3,
                attempt: 2,
                elapsed: Duration::from_millis(99),
                peak_alloc_bytes: u64::MAX,
                shard: Some(Shard { index: 1, count: 2 }),
                pid: u32::MAX,
                seq: 7,
                status: done.then_some(JobStatus::Ok),
                top_stall: done.then(|| HOSTILE_ERROR.to_string()),
                dram_requests: done.then_some(11),
                config_hash: 0x0123_4567_89ab_cdef,
            };
            let line = p.to_json();
            let l = parse_progress_line(&line).expect("parse own line");
            assert_eq!(l.event, kind.name());
            assert_eq!(l.key, p.key);
            assert_eq!(l.index, 3);
            assert_eq!(l.attempt, 2);
            assert_eq!(l.elapsed_ms, 99);
            assert_eq!(l.peak_alloc_bytes, u64::MAX);
            assert_eq!(l.shard, p.shard);
            assert_eq!(l.pid, Some(u32::MAX));
            assert_eq!(l.seq, Some(7));
            assert_eq!(l.status.as_deref(), done.then_some("ok"));
            assert_eq!(l.top_stall, p.top_stall, "{line}");
            assert_eq!(l.dram_requests, p.dram_requests);
            let hash = (kind != ProgressKind::Idle).then_some(p.config_hash);
            assert_eq!(l.config_hash, hash);
        }
    }

    #[test]
    fn mem_budget_errors_journal_their_kind_and_are_not_retryable() {
        let e = JobError::MemBudget {
            used: 20 << 20,
            budget: 16 << 20,
        };
        assert!(!e.retryable(), "deterministic at a fixed budget");
        assert_eq!(e.kind(), "mem_budget");
        assert!(e.to_string().contains("memory budget"));
    }

    #[test]
    fn shard_spec_parses_displays_and_validates() {
        let s: Shard = "0/2".parse().unwrap();
        assert_eq!(s, Shard { index: 0, count: 2 });
        assert_eq!(s.to_string(), "0/2");
        assert_eq!("2/3".parse::<Shard>().unwrap().index, 2);
        assert!(matches!(
            "3/3".parse::<Shard>(),
            Err(ParseShardError::IndexOutOfRange { index: 3, count: 3 })
        ));
        assert!(matches!(
            "0/0".parse::<Shard>(),
            Err(ParseShardError::ZeroCount)
        ));
        assert!(matches!(
            "nope".parse::<Shard>(),
            Err(ParseShardError::Malformed(_))
        ));
        assert!(matches!(
            "1".parse::<Shard>(),
            Err(ParseShardError::Malformed(_))
        ));
    }

    #[test]
    fn shards_partition_keys_exactly_once() {
        let keys: Vec<String> = (0..40).map(|i| format!("job-{i}|base|96x64#0")).collect();
        for count in [1u32, 2, 3, 5] {
            for key in &keys {
                let owners = (0..count)
                    .filter(|&i| Shard { index: i, count }.contains(key))
                    .count();
                assert_eq!(owners, 1, "{key} under {count} shards");
            }
        }
        // Hash-of-key assignment: position in the list is irrelevant,
        // so appending jobs cannot move existing ones across shards.
        for key in &keys {
            assert_eq!(shard_of(key, 3), shard_of(key, 3));
        }
    }

    #[test]
    fn sharded_sweep_runs_only_its_slice_and_stamps_records() {
        let jobs: Vec<SweepJob> = [Game::CandyCrush, Game::TempleRun, Game::Maze]
            .into_iter()
            .map(tiny_job)
            .collect();
        let shard = Shard { index: 0, count: 2 };
        let opts = SweepOptions {
            shard: Some(shard),
            ..SweepOptions::default()
        };
        let report = run_sweep(&jobs, &opts, |_, _| {}).unwrap();
        let expected: Vec<&SweepJob> = jobs.iter().filter(|j| shard.contains(&j.key())).collect();
        assert!(!expected.is_empty() && expected.len() < jobs.len());
        assert_eq!(report.records.len(), expected.len());
        for r in &report.records {
            assert_eq!(r.status, JobStatus::Ok);
            assert_eq!(r.shard, Some(shard));
            assert!(r.peak_alloc.unwrap() > 0, "attempted jobs carry a peak");
        }
        assert!(report.is_success());
    }

    #[test]
    fn merge_unions_shards_and_dedups_identical_records() {
        let a = "{\"key\":\"a\",\"status\":\"ok\",\"config_hash\":\"0000000000000001\",\"coupled_cycles\":10,\"decoupled_cycles\":9,\"l2_accesses\":3}\n".to_string();
        let b = "{\"key\":\"b\",\"status\":\"ok\",\"config_hash\":\"0000000000000002\",\"coupled_cycles\":20,\"decoupled_cycles\":18,\"l2_accesses\":6}\n".to_string();
        let (merged, stats) = merge_journal_texts(&[a.clone(), b, a]).unwrap();
        assert_eq!(stats.journals, 3);
        assert_eq!(stats.lines, 3);
        assert_eq!(stats.records, 2);
        assert_eq!(stats.superseded, 1, "the duplicate `a` was deduped");
        assert_eq!(stats.corrupt, 0);
        let keys: Vec<String> = merged
            .lines()
            .map(|l| parse_journal_line(l).unwrap().key)
            .collect();
        assert_eq!(keys, ["a", "b"], "sorted by key");
    }

    #[test]
    fn merge_rejects_divergent_metrics_for_equal_hashes() {
        let a = "{\"key\":\"a\",\"status\":\"ok\",\"config_hash\":\"00000000000000aa\",\"coupled_cycles\":10,\"decoupled_cycles\":9,\"l2_accesses\":3}\n".to_string();
        let twisted = a.replace("\"l2_accesses\":3", "\"l2_accesses\":4");
        let err = merge_journal_texts(&[a, twisted]).unwrap_err();
        match err {
            MergeError::Divergent {
                key,
                config_hash,
                first,
                second,
            } => {
                assert_eq!(key, "a");
                assert_eq!(config_hash, 0xaa);
                assert_eq!(first.l2_accesses, 3);
                assert_eq!(second.l2_accesses, 4);
            }
            other => panic!("expected Divergent, got {other:?}"),
        }
    }

    #[test]
    fn merge_divergence_survives_interleaved_hashes() {
        // A record with a *different* hash between two divergent ones
        // must not reset the check: divergence is per (key, hash),
        // independent of record order.
        let ok1 = "{\"key\":\"a\",\"status\":\"ok\",\"config_hash\":\"00000000000000aa\",\"coupled_cycles\":10,\"decoupled_cycles\":9,\"l2_accesses\":3}\n".to_string();
        let drift = "{\"key\":\"a\",\"status\":\"ok\",\"config_hash\":\"00000000000000bb\",\"coupled_cycles\":50,\"decoupled_cycles\":40,\"l2_accesses\":5}\n".to_string();
        let twisted = ok1.replace("\"l2_accesses\":3", "\"l2_accesses\":4");
        let err = merge_journal_texts(&[ok1, drift, twisted]).unwrap_err();
        match err {
            MergeError::Divergent {
                key, config_hash, ..
            } => {
                assert_eq!(key, "a");
                assert_eq!(config_hash, 0xaa);
            }
            other => panic!("expected Divergent, got {other:?}"),
        }
    }

    #[test]
    fn merge_prefers_ok_over_failed_for_equal_hashes_in_either_order() {
        let ok = "{\"key\":\"a\",\"status\":\"ok\",\"config_hash\":\"0000000000000001\",\"coupled_cycles\":10,\"decoupled_cycles\":9,\"l2_accesses\":3}\n".to_string();
        let failed = "{\"key\":\"a\",\"status\":\"failed\",\"config_hash\":\"0000000000000001\",\"error_kind\":\"timeout\",\"error\":\"x\"}\n".to_string();
        for inputs in [[ok.clone(), failed.clone()], [failed.clone(), ok.clone()]] {
            let (merged, stats) = merge_journal_texts(&inputs).unwrap();
            let e = parse_journal_line(merged.trim()).unwrap();
            assert_eq!(e.status, "ok", "completed result survives either order");
            assert_eq!(stats.records, 1);
            assert_eq!(stats.superseded, 0);
            assert_eq!(stats.failed_ignored, 1, "the drop is visible in stats");
        }
    }

    #[test]
    fn merge_lets_a_failed_record_with_a_newer_hash_supersede_ok() {
        // ok-over-failed applies only to the *same* configuration; a
        // drifted config keeps last-wins (resume must re-run the job).
        let ok = "{\"key\":\"a\",\"status\":\"ok\",\"config_hash\":\"0000000000000001\",\"coupled_cycles\":10,\"decoupled_cycles\":9,\"l2_accesses\":3}\n".to_string();
        let failed = "{\"key\":\"a\",\"status\":\"failed\",\"config_hash\":\"0000000000000002\",\"error_kind\":\"timeout\",\"error\":\"x\"}\n".to_string();
        let (merged, stats) = merge_journal_texts(&[ok, failed]).unwrap();
        let e = parse_journal_line(merged.trim()).unwrap();
        assert_eq!(e.status, "failed");
        assert_eq!(e.config_hash, Some(2));
        assert_eq!(stats.superseded, 1);
        assert_eq!(stats.failed_ignored, 0);
    }

    #[test]
    fn merge_lets_a_newer_config_hash_supersede() {
        let old = "{\"key\":\"a\",\"status\":\"ok\",\"config_hash\":\"0000000000000001\",\"coupled_cycles\":10,\"decoupled_cycles\":9,\"l2_accesses\":3}\n".to_string();
        let new = "{\"key\":\"a\",\"status\":\"ok\",\"config_hash\":\"0000000000000002\",\"coupled_cycles\":99,\"decoupled_cycles\":80,\"l2_accesses\":7}\n".to_string();
        let (merged, stats) = merge_journal_texts(&[old, new]).unwrap();
        assert_eq!(stats.records, 1);
        assert_eq!(stats.superseded, 1);
        let e = parse_journal_line(merged.trim()).unwrap();
        assert_eq!(e.config_hash, Some(2), "config drift: the later run wins");
        assert_eq!(e.metrics.unwrap().l2_accesses, 7);
    }

    #[test]
    fn merge_tolerates_corrupt_pre_v2_and_empty_inputs() {
        let shard0 = concat!(
            "{\"key\":\"a\",\"status\":\"ok\"}\n", // pre-v2: no hash, no metrics
            "{\"key\":\"b\",\"status\":\"fail",    // truncated by a kill
        )
        .to_string();
        let shard1 = concat!(
            "garbage line\n",
            "{\"key\":\"c\",\"status\":\"failed\",\"config_hash\":\"0000000000000003\",\"error_kind\":\"timeout\",\"error\":\"x\"}\n",
        )
        .to_string();
        let empty = String::new();
        let (merged, stats) = merge_journal_texts(&[shard0, shard1, empty]).unwrap();
        assert_eq!(stats.journals, 3);
        assert_eq!(stats.lines, 2);
        assert_eq!(stats.corrupt, 2, "truncated + garbage lines dropped");
        assert_eq!(stats.records, 2);
        let entries: Vec<JournalEntry> = merged
            .lines()
            .map(|l| parse_journal_line(l).unwrap())
            .collect();
        assert_eq!(entries[0].key, "a");
        assert_eq!(entries[0].config_hash, None, "pre-v2 line passes through");
        assert_eq!(entries[1].error_kind.as_deref(), Some("timeout"));
    }

    #[test]
    fn merged_file_resumes_like_a_single_journal() {
        let dir = std::env::temp_dir().join(format!("dtexl_sweep_merge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jobs: Vec<SweepJob> = [Game::CandyCrush, Game::TempleRun, Game::Maze]
            .into_iter()
            .map(tiny_job)
            .collect();
        let mut shard_paths = Vec::new();
        for index in 0..2u32 {
            let path = dir.join(format!("shard{index}.jsonl"));
            let _ = std::fs::remove_file(&path);
            let opts = SweepOptions {
                shard: Some(Shard { index, count: 2 }),
                journal: Some(path.clone()),
                ..SweepOptions::default()
            };
            assert!(run_sweep(&jobs, &opts, |_, _| {}).unwrap().is_success());
            shard_paths.push(path);
        }
        let merged = dir.join("merged.jsonl");
        let stats = merge_journals(&shard_paths, &merged).unwrap();
        assert_eq!(stats.records, jobs.len(), "shards cover the full list");

        let opts = SweepOptions {
            journal: Some(merged),
            resume: true,
            ..SweepOptions::default()
        };
        let ran = AtomicUsize::new(0);
        let report = run_sweep(&jobs, &opts, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 0, "merged journal resumes");
        assert!(report
            .records
            .iter()
            .all(|r| r.status == JobStatus::Skipped));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_table_lists_every_job_with_peaks() {
        let jobs = vec![tiny_job(Game::CandyCrush), tiny_job(Game::TempleRun)];
        let report = run_sweep(&jobs, &SweepOptions::default(), |_, _| {}).unwrap();
        let table = report.table();
        assert!(table.starts_with("key"), "{table}");
        for r in &report.records {
            assert!(table.contains(&r.key), "{table}");
        }
        assert!(table.contains("MiB"), "peaks rendered: {table}");
    }

    #[test]
    fn corrupt_or_partial_lines_are_ignored() {
        assert_eq!(parse_journal_line(""), None);
        assert_eq!(parse_journal_line("{\"key\":\"x\",\"status\":\"o"), None);
        assert_eq!(parse_journal_line("not json at all"), None);
        let keys = completed_keys("{\"key\":\"a\",\"status\":\"ok\"}\ngarbage\n");
        assert!(keys.contains("a"));
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn completed_keys_are_last_wins() {
        let journal = concat!(
            "{\"key\":\"a\",\"status\":\"ok\"}\n",
            "{\"key\":\"b\",\"status\":\"failed\"}\n",
            "{\"key\":\"a\",\"status\":\"failed\"}\n",
            "{\"key\":\"c\",\"status\":\"ok\"}\n",
        );
        let keys = completed_keys(journal);
        assert!(!keys.contains("a"), "later failure invalidates success");
        assert!(!keys.contains("b"));
        assert!(keys.contains("c"));
    }

    #[test]
    fn invalid_jobs_fail_typed_and_are_not_retried() {
        let mut job = tiny_job(Game::CandyCrush);
        job.pipeline.num_sc = 8;
        let opts = SweepOptions {
            keep_going: true,
            retry: RetryPolicy {
                max_retries: 3,
                backoff: Duration::from_millis(1),
            },
            ..SweepOptions::default()
        };
        let report = run_sweep(&[job], &opts, |_, _| {}).unwrap();
        let r = &report.records[0];
        assert_eq!(r.status, JobStatus::Failed);
        assert_eq!(r.attempts, 1, "Invalid is not retryable");
        assert!(matches!(r.error, Some(JobError::Invalid(_))));
        assert!(!report.is_success());
        assert!(report.summary().contains("num_sc = 8"));
    }

    #[test]
    fn timeouts_are_detected_and_retried() {
        let mut job = tiny_job(Game::CandyCrush);
        job.pipeline.fault.wall_stall_ms = 5_000;
        let opts = SweepOptions {
            keep_going: true,
            job_timeout: Some(Duration::from_millis(50)),
            retry: RetryPolicy {
                max_retries: 1,
                backoff: Duration::from_millis(1),
            },
            ..SweepOptions::default()
        };
        let report = run_sweep(&[job], &opts, |_, _| {}).unwrap();
        let r = &report.records[0];
        assert_eq!(r.status, JobStatus::Failed);
        assert_eq!(r.attempts, 2, "timeout consumed the one retry");
        assert!(matches!(r.error, Some(JobError::TimedOut { .. })));
    }

    #[test]
    fn panics_are_isolated_inline_and_on_a_watched_thread() {
        // `None` runs the attempt on this thread; a timeout forces the
        // disposable job thread.
        for timeout in [None, Some(Duration::from_secs(600))] {
            let meter = AllocMeter::new();
            let body = || -> Result<u64, SimError> { panic!("job {} blew up", 7) };
            let (result, _) = attempt(body, &meter, timeout, None, None);
            assert_eq!(
                result,
                Err(JobError::Panicked("job 7 blew up".into())),
                "timeout {timeout:?}"
            );
            // This thread is untagged again: its allocations no longer
            // charge the panicked job's meter.
            let total = meter.total_bytes();
            std::hint::black_box(vec![0u8; 1 << 16]);
            assert_eq!(meter.total_bytes(), total, "timeout {timeout:?}");
            // The next job runs and is charged to its own meter.
            let next = AllocMeter::new();
            let body = || Ok(std::hint::black_box(vec![1u8; 1 << 16]).len());
            let (result, peak) = attempt(body, &next, timeout, None, None);
            assert_eq!(result, Ok(1 << 16), "timeout {timeout:?}");
            assert!(peak >= 1 << 16, "timeout {timeout:?}: peak {peak}");
            assert_eq!(meter.total_bytes(), total, "timeout {timeout:?}");
        }
    }

    #[test]
    fn abort_mode_stops_dispatch_and_marks_not_run() {
        let mut bad = tiny_job(Game::CandyCrush);
        bad.pipeline.num_sc = 8;
        // Serial worker: the bad job fails first, the rest never run.
        let jobs = vec![bad, tiny_job(Game::TempleRun), tiny_job(Game::Maze)];
        let opts = SweepOptions {
            workers: 1,
            keep_going: false,
            ..SweepOptions::default()
        };
        let report = run_sweep(&jobs, &opts, |_, _| {}).unwrap();
        assert!(report.aborted);
        assert_eq!(report.records[0].status, JobStatus::Failed);
        assert_eq!(report.records[1].status, JobStatus::NotRun);
        assert_eq!(report.records[2].status, JobStatus::NotRun);
        assert!(report.summary().contains("aborted"));
    }

    #[test]
    fn keep_going_completes_good_jobs_around_a_bad_one() {
        let mut bad = tiny_job(Game::CandyCrush);
        bad.pipeline.num_sc = 8;
        let good = tiny_job(Game::TempleRun);
        let jobs = vec![good, bad, tiny_job(Game::Maze)];
        let opts = SweepOptions {
            keep_going: true,
            ..SweepOptions::default()
        };
        let done = Mutex::new(Vec::new());
        let report =
            run_sweep(&jobs, &opts, |job, _| done.lock().unwrap().push(job.key())).unwrap();
        assert!(!report.aborted);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.failed().len(), 1);
        assert_eq!(done.lock().unwrap().len(), 2);
    }

    #[test]
    fn resume_skips_journaled_ok_jobs() {
        let dir = std::env::temp_dir().join(format!("dtexl_sweep_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);

        let jobs = vec![tiny_job(Game::CandyCrush), tiny_job(Game::TempleRun)];
        let opts = SweepOptions {
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        };
        let first = run_sweep(&jobs, &opts, |_, _| {}).unwrap();
        assert!(first.is_success());

        let opts = SweepOptions {
            resume: true,
            ..opts
        };
        let ran = AtomicUsize::new(0);
        let second = run_sweep(&jobs, &opts, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert!(second.is_success());
        assert_eq!(ran.load(Ordering::Relaxed), 0, "everything was skipped");
        assert!(second
            .records
            .iter()
            .all(|r| r.status == JobStatus::Skipped));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_is_exponential_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_retries: 10,
            backoff: Duration::from_millis(8),
        };
        let salt = fnv1a(b"some job key");
        for attempt in 1..=10 {
            let d = policy.delay(attempt, salt);
            // Replayable: the schedule is a pure function of (attempt, salt).
            assert_eq!(d, policy.delay(attempt, salt), "attempt {attempt}");
            let base = policy
                .backoff
                .saturating_mul(1 << attempt.saturating_sub(1).min(6));
            assert!(d >= base, "attempt {attempt}: {d:?} < base {base:?}");
            assert!(
                d < base + policy.backoff / 2,
                "attempt {attempt}: jitter exceeds backoff/2"
            );
        }
        // Doubling: attempt 2's floor is twice attempt 1's.
        assert!(policy.delay(2, salt) + policy.backoff >= policy.delay(1, salt) * 2);
        // Capped at x64: attempts 7 and beyond share a floor.
        let floor = policy.backoff * 64;
        assert!(policy.delay(7, salt) >= floor && policy.delay(7, salt) < floor + policy.backoff);
        assert!(policy.delay(9, salt) >= floor && policy.delay(9, salt) < floor + policy.backoff);
        // Different salts decorrelate the jitter stream.
        assert_ne!(policy.delay(1, salt), policy.delay(1, salt ^ 1));
        // A zero backoff never sleeps (and never divides by zero).
        let zero = RetryPolicy {
            max_retries: 1,
            backoff: Duration::ZERO,
        };
        assert_eq!(zero.delay(3, salt), Duration::ZERO);
    }

    #[test]
    fn config_hash_covers_faults_tuning_and_scene() {
        let job = tiny_job(Game::CandyCrush);
        let mut faulted = job;
        faulted.pipeline.fault.wall_stall_ms = 100;
        assert_ne!(job.config_hash(), faulted.config_hash());
        let mut tuned = job;
        tuned.pipeline.l1_miss_fill_cycles += 1;
        assert_ne!(job.config_hash(), tuned.config_hash());
        let other_game = tiny_job(Game::TempleRun);
        assert_ne!(job.config_hash(), other_game.config_hash());
    }

    /// Journals key resume on these hashes: a change that re-keys them
    /// silently re-runs every journaled job, so any drift must be a
    /// deliberate, reviewed update of this table.
    #[test]
    fn job_hashes_are_golden() {
        use dtexl_pipeline::{DramSpike, FaultPlan, LaneStall};
        let default = SweepJob::new(
            Game::CandyCrush,
            ScheduleConfig::baseline(),
            false,
            480,
            192,
            0,
        );
        let upper = SweepJob::new(
            Game::GravityTetris,
            ScheduleConfig::dtexl(),
            true,
            96,
            64,
            3,
        );
        let mut faulted =
            SweepJob::new(Game::TempleRun, ScheduleConfig::dtexl(), false, 192, 96, 1);
        faulted.pipeline.fault = FaultPlan {
            seed: 7,
            lane_stall: Some(LaneStall {
                lane: 2,
                cycles: 500,
            }),
            early_z_stall: None,
            dram_spike: Some(DramSpike {
                period: 16,
                extra_cycles: 40,
            }),
            wall_stall_ms: 5,
            alloc_spike_mb: 1,
        };
        let got: Vec<(u64, u64)> = [default, upper, faulted]
            .iter()
            .map(|j| (j.config_hash(), j.prefix_key()))
            .collect();
        assert_eq!(
            got,
            [
                (0x6423_6540_bb0a_3a42, 0x4fd0_f3da_f5e0_f7f3),
                (0xcad6_9618_a05d_4e12, 0xf112_420e_ec4d_b89e),
                (0xb189_ac33_2efb_5c61, 0x0ec8_8c78_7ee2_36c6),
            ]
        );
    }

    #[test]
    fn pre_v2_journal_lines_remain_skippable() {
        let journal = concat!(
            "{\"key\":\"a\",\"status\":\"ok\"}\n",
            "{\"key\":\"b\",\"status\":\"ok\",\"config_hash\":\"00000000deadbeef\"}\n",
        );
        let entries = completed_entries(journal);
        assert_eq!(entries["a"], None, "pre-v2 line: no hash recorded");
        assert_eq!(entries["b"], Some(0xdead_beef));
    }

    #[test]
    fn resume_refuses_to_skip_jobs_whose_config_changed() {
        let dir = std::env::temp_dir().join(format!("dtexl_sweep_hash_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);

        let jobs = vec![tiny_job(Game::CandyCrush), tiny_job(Game::TempleRun)];
        let opts = SweepOptions {
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        };
        run_sweep(&jobs, &opts, |_, _| {}).unwrap();

        // Same keys, different pipeline: the keys alone would skip, the
        // hashes must not.
        let mut changed = jobs.clone();
        for j in &mut changed {
            j.pipeline.l1_miss_fill_cycles += 5;
            assert_eq!(j.key(), tiny_job(j.game).key());
        }
        let opts = SweepOptions {
            resume: true,
            ..opts
        };
        let ran = AtomicUsize::new(0);
        let report = run_sweep(&changed, &opts, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(
            ran.load(Ordering::Relaxed),
            2,
            "a changed config hash invalidates the journal entry"
        );
        assert!(report.records.iter().all(|r| r.status == JobStatus::Ok));

        // A third run with the changed configs now skips: the journal's
        // last-wins entries carry the new hash.
        let ran = AtomicUsize::new(0);
        run_sweep(&changed, &opts, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retries_sleep_through_the_injected_sleeper() {
        static SLEEPS: AtomicUsize = AtomicUsize::new(0);
        static TOTAL_NS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        fn recording_sleeper(d: Duration) {
            SLEEPS.fetch_add(1, Ordering::Relaxed);
            TOTAL_NS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        }
        let mut wedged = tiny_job(Game::CandyCrush);
        wedged.pipeline.fault.wall_stall_ms = 60_000;
        let opts = SweepOptions {
            keep_going: true,
            job_timeout: Some(Duration::from_millis(20)),
            retry: RetryPolicy {
                max_retries: 2,
                backoff: Duration::from_millis(4),
            },
            sleeper: recording_sleeper,
            ..SweepOptions::default()
        };
        let report = run_sweep(&[wedged], &opts, |_, _| {}).unwrap();
        assert_eq!(report.records[0].attempts, 3);
        assert_eq!(
            SLEEPS.load(Ordering::Relaxed),
            2,
            "one backoff per retry, through the injected sleeper"
        );
        // The recorded schedule matches the pure policy exactly.
        let salt = fnv1a(wedged.key().as_bytes());
        let expected = opts.retry.delay(1, salt) + opts.retry.delay(2, salt);
        assert_eq!(TOTAL_NS.load(Ordering::Relaxed), expected.as_nanos() as u64);
    }

    #[test]
    fn poisoned_journal_entries_are_quarantined_on_resume() {
        let dir = std::env::temp_dir().join(format!("dtexl_sweep_poison_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&journal);

        let jobs = vec![tiny_job(Game::CandyCrush), tiny_job(Game::TempleRun)];
        // Simulate the fleet supervisor: journal the first job as
        // poisoned before any sweep runs.
        let poisoned = JobRecord {
            index: 0,
            key: jobs[0].key(),
            status: JobStatus::Failed,
            attempts: 2,
            elapsed: Duration::ZERO,
            error: Some(JobError::Poisoned { deaths: 2 }),
            metrics: None,
            config_hash: jobs[0].config_hash(),
            peak_alloc: None,
            shard: None,
            obs: None,
        };
        std::fs::write(&journal, format!("{}\n", journal_line(&poisoned))).unwrap();

        let opts = SweepOptions {
            journal: Some(journal.clone()),
            resume: true,
            // Deliberately NOT keep_going: a historical quarantine
            // must not trip the first-failure abort, or a restarted
            // shard would never get past its poison job.
            keep_going: false,
            ..SweepOptions::default()
        };
        let ran = AtomicUsize::new(0);
        let report = run_sweep(&jobs, &opts, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert!(!report.aborted, "quarantine must not abort the sweep");
        assert_eq!(ran.load(Ordering::Relaxed), 1, "only the healthy job ran");
        let quarantined = &report.records[0];
        assert_eq!(quarantined.status, JobStatus::Failed);
        assert_eq!(quarantined.attempts, 2, "blame count from the journal");
        assert_eq!(
            quarantined.error,
            Some(JobError::Poisoned { deaths: 2 }),
            "typed quarantine error"
        );
        assert!(!JobError::Poisoned { deaths: 2 }.retryable());
        assert_eq!(report.records[1].status, JobStatus::Ok);
        // The quarantine record is not re-journaled: the supervisor's
        // line stays the key's single (latest) entry.
        let text = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"error_kind\":\"poisoned\""))
                .count(),
            1
        );
        // A config drift lifts the quarantine: mutate the job so its
        // hash no longer matches the journaled one and it re-runs.
        let mut drifted = jobs.clone();
        drifted[0].pipeline.fault.alloc_spike_mb = 1;
        let report = run_sweep(&drifted, &opts, |_, _| {}).unwrap();
        assert_eq!(
            report.records[0].status,
            JobStatus::Ok,
            "hash mismatch re-runs the quarantined key"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_json_is_one_stable_line() {
        let p = Progress {
            kind: ProgressKind::Heartbeat,
            key: "CCS|x|base|96x64#0".into(),
            index: 3,
            attempt: 2,
            elapsed: Duration::from_millis(12),
            peak_alloc_bytes: 4096,
            shard: None,
            pid: 4242,
            seq: 17,
            status: None,
            top_stall: None,
            dram_requests: None,
            config_hash: 0x00c0_ffee,
        };
        assert_eq!(
            p.to_json(),
            "{\"event\":\"heartbeat\",\"key\":\"CCS|x|base|96x64#0\",\"index\":3,\
             \"attempt\":2,\"elapsed_ms\":12,\"peak_alloc_bytes\":4096,\
             \"config_hash\":\"0000000000c0ffee\",\"pid\":4242,\"seq\":17}"
        );
        let done = Progress {
            kind: ProgressKind::Done,
            shard: Some(Shard::new(1, 4).unwrap()),
            status: Some(JobStatus::Ok),
            top_stall: Some("c-barrier".into()),
            dram_requests: Some(1234),
            ..p
        };
        assert!(done.to_json().ends_with(
            ",\"shard\":\"1/4\",\"pid\":4242,\"seq\":17,\"status\":\"ok\",\
             \"top_stall\":\"c-barrier\",\"dram_requests\":1234}"
        ));
        assert!(!done.to_json().contains('\n'));
    }

    #[test]
    fn progress_lines_round_trip_through_the_parser() {
        let p = Progress {
            kind: ProgressKind::Done,
            key: "CCS|dtexl|base|96x64#0".into(),
            index: 5,
            attempt: 2,
            elapsed: Duration::from_millis(34),
            peak_alloc_bytes: 8192,
            shard: Some(Shard::new(0, 2).unwrap()),
            pid: 77,
            seq: 9,
            status: Some(JobStatus::Failed),
            top_stall: Some("d-upstream".into()),
            dram_requests: Some(42),
            config_hash: 0xfeed_0000_0000_beef,
        };
        let parsed = parse_progress_line(&p.to_json()).expect("round trip");
        assert_eq!(parsed.event, "done");
        assert_eq!(parsed.key, p.key);
        assert_eq!(parsed.index, 5);
        assert_eq!(parsed.attempt, 2);
        assert_eq!(parsed.elapsed_ms, 34);
        assert_eq!(parsed.peak_alloc_bytes, 8192);
        assert_eq!(parsed.shard, Some(Shard::new(0, 2).unwrap()));
        assert_eq!(parsed.pid, Some(77));
        assert_eq!(parsed.seq, Some(9));
        assert_eq!(parsed.status.as_deref(), Some("failed"));
        assert_eq!(parsed.top_stall.as_deref(), Some("d-upstream"));
        assert_eq!(parsed.dram_requests, Some(42));
        assert_eq!(parsed.config_hash, Some(0xfeed_0000_0000_beef));
        // Idle beats carry no job, so no hash.
        let idle = Progress {
            kind: ProgressKind::Idle,
            key: String::new(),
            config_hash: 0,
            ..p
        };
        assert!(!idle.to_json().contains("config_hash"));
        assert_eq!(
            parse_progress_line(&idle.to_json()).map(|l| l.config_hash),
            Some(None)
        );
        // Truncated / corrupt lines parse to None, like journal lines.
        assert_eq!(parse_progress_line(""), None);
        assert_eq!(parse_progress_line("{\"event\":\"done\",\"key\":\"x"), None);
        // Pre-fleet lines (no pid/seq/shard) still parse.
        let old = parse_progress_line(
            "{\"event\":\"start\",\"key\":\"k\",\"index\":0,\"attempt\":0,\
             \"elapsed_ms\":0,\"peak_alloc_bytes\":0}",
        )
        .expect("pre-fleet line parses");
        assert_eq!(old.pid, None);
        assert_eq!(old.seq, None);
        assert_eq!(old.shard, None);
        assert_eq!(old.config_hash, None);
    }

    /// One test owns the static collector: progress events are pinned
    /// for the whole job lifecycle — wedged job (attempt, heartbeats,
    /// retry, failed), healthy job (ok with a real peak), and a
    /// resume-skipped job.
    #[test]
    fn progress_stream_covers_the_job_lifecycle() {
        static EVENTS: std::sync::LazyLock<Mutex<Vec<Progress>>> =
            std::sync::LazyLock::new(|| Mutex::new(Vec::new()));
        fn capture(p: &Progress) {
            EVENTS.lock().unwrap().push(p.clone());
        }
        let kinds = |key: &str| -> Vec<ProgressKind> {
            EVENTS
                .lock()
                .unwrap()
                .iter()
                .filter(|p| p.key == key)
                .map(|p| p.kind)
                .collect()
        };

        let mut wedged = tiny_job(Game::CandyCrush);
        wedged.pipeline.fault.wall_stall_ms = 60_000;
        let healthy = tiny_job(Game::TempleRun);
        let opts = SweepOptions {
            workers: 1,
            keep_going: true,
            // Far above the healthy job's run time even in an unoptimised
            // build on a loaded machine, so only the wedged job times out.
            job_timeout: Some(Duration::from_secs(1)),
            retry: RetryPolicy {
                max_retries: 1,
                backoff: Duration::from_millis(1),
            },
            progress: Some(capture),
            progress_heartbeat: Duration::from_millis(5),
            ..SweepOptions::default()
        };
        let report = run_sweep(&[wedged, healthy], &opts, |_, _| {}).unwrap();
        assert_eq!(report.records[0].status, JobStatus::Failed);
        assert_eq!(report.records[1].status, JobStatus::Ok);

        let w = kinds(&wedged.key());
        assert_eq!(w.first(), Some(&ProgressKind::Start));
        assert_eq!(w.last(), Some(&ProgressKind::Done));
        assert_eq!(
            w.iter().filter(|k| **k == ProgressKind::Attempt).count(),
            2,
            "timeout is retryable: two attempts announced"
        );
        assert_eq!(w.iter().filter(|k| **k == ProgressKind::Retry).count(), 1);
        assert!(
            w.contains(&ProgressKind::Heartbeat),
            "a 1 s attempt with a 5ms heartbeat must beat at least once"
        );
        let w_done = EVENTS
            .lock()
            .unwrap()
            .iter()
            .find(|p| p.key == wedged.key() && p.kind == ProgressKind::Done)
            .cloned()
            .unwrap();
        assert_eq!(w_done.status, Some(JobStatus::Failed));
        assert_eq!(w_done.attempt, 2);
        assert!(
            EVENTS
                .lock()
                .unwrap()
                .iter()
                .filter(|p| p.key == wedged.key())
                .all(|p| p.config_hash == wedged.config_hash()),
            "every event carries the job's own config hash"
        );

        let h = kinds(&healthy.key());
        assert_eq!(h.first(), Some(&ProgressKind::Start));
        assert_eq!(h.last(), Some(&ProgressKind::Done));
        assert!(!h.contains(&ProgressKind::Retry));
        let h_done = EVENTS
            .lock()
            .unwrap()
            .iter()
            .find(|p| p.key == healthy.key() && p.kind == ProgressKind::Done)
            .cloned()
            .unwrap();
        assert_eq!(h_done.status, Some(JobStatus::Ok));
        assert!(
            h_done.peak_alloc_bytes > 0,
            "done events carry the allocator high-water mark"
        );

        // Fleet-correlation fields: every event stamps this process's
        // pid, and the run's sequence numbers are gap-free from 0.
        {
            let events = EVENTS.lock().unwrap();
            assert!(events.iter().all(|p| p.pid == std::process::id()));
            assert!(events.iter().all(|p| p.shard.is_none()), "unsharded run");
            let mut seqs: Vec<u64> = events.iter().map(|p| p.seq).collect();
            seqs.sort_unstable();
            let expected: Vec<u64> = (0..events.len() as u64).collect();
            assert_eq!(seqs, expected, "seq is gap-free across the run");
        }

        // Resume-skipped jobs still announce themselves: start, then
        // done(skipped), with no attempts in between.
        let dir = std::env::temp_dir().join(format!("dtexl-progress-{}", std::process::id()));
        let journal = dir.join("sweep.jsonl");
        let journal_opts = SweepOptions {
            journal: Some(journal.clone()),
            resume: true,
            ..SweepOptions::default()
        };
        run_sweep(&[healthy], &journal_opts, |_, _| {}).unwrap();
        EVENTS.lock().unwrap().clear();
        let resumed = SweepOptions {
            progress: Some(capture),
            ..journal_opts
        };
        let report = run_sweep(&[healthy], &resumed, |_, _| {}).unwrap();
        assert_eq!(report.records[0].status, JobStatus::Skipped);
        assert_eq!(
            kinds(&healthy.key()),
            vec![ProgressKind::Start, ProgressKind::Done]
        );
        let skip_done = EVENTS.lock().unwrap().last().cloned().unwrap();
        assert_eq!(skip_done.status, Some(JobStatus::Skipped));
        assert_eq!(skip_done.attempt, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
