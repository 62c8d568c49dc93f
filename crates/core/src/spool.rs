//! Durable, journal-backed job queue for daemon-mode sweeps.
//!
//! A **spool** is a directory that decouples job *submission* from
//! job *execution*: `dtexl sweep submit` appends batches while a
//! long-running `dtexl sweep daemon` (and its shard workers) drains
//! them. The layout, all under one root:
//!
//! ```text
//! spool/
//!   incoming/batch-<hash16>.jsonl   submitted, not yet accepted
//!   accepted/batch-<hash16>.jsonl   ingested; workers scan these
//!   shard-<i>.jsonl                 per-shard journals (workers append)
//!   merged.jsonl                    live merged journal (atomic swap)
//!   merged.canon                    live canon view of merged.jsonl
//!   status.json                     atomically-swapped status document
//!   status.sock                     unix socket speaking status.json
//!   metrics.prom                    Prometheus text-format metrics (atomic swap)
//!   events.jsonl                    batch-level events (rejects, dups)
//!   events.1.jsonl                  previous events generation (size-capped rotation)
//!   drain                           marker: finish the queue and exit
//! ```
//!
//! Batches are **content-addressed**: a batch file's name is the
//! FNV-1a hash of its canonicalized content (lines sorted and
//! deduplicated), so resubmitting the same job set is a typed no-op
//! ([`JobError::DuplicateBatch`]) and at-least-once submitters are
//! safe. Writes are atomic (write to a `.tmp-<pid>` sibling, then
//! rename), so a reader never observes a half-written batch; any
//! non-temp file that still fails to parse is quarantined with a
//! typed [`JobError::SpoolCorrupt`] event — counted, journaled,
//! never a crash.
//!
//! Job-level dedup against already-completed work is *not* the
//! spool's job: every job key maps to a stable shard
//! ([`shard_of`](crate::sweep::shard_of)), and that shard's journal
//! already records the completed config hashes — the worker's resume
//! filter skips them for free. The spool only dedups *batches*.

use crate::sweep::{fnv1a, JobError, SweepJob};
use dtexl_obs::json::{self, escape, FromJson};
use dtexl_pipeline::PipelineConfig;
use dtexl_scene::Game;
use dtexl_sched::ScheduleConfig;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// One submitted job: the wire form of a [`SweepJob`] without the
/// hardware config (the daemon applies its own `--threads` etc.; the
/// `upper` flag is the only pipeline axis a submitter chooses, as in
/// `dtexl sweep --upper`).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Resolved benchmark (parsed from its paper alias, e.g. `"CCS"`).
    pub game: Game,
    /// Resolved schedule under test.
    pub schedule: ScheduleConfig,
    /// The schedule's submitted wire name (`"baseline"`, `"dtexl"`,
    /// `"HLB-flp2"`, …) — kept alongside the resolved config so the
    /// spec re-serializes to the exact line it was parsed from.
    pub schedule_name: String,
    /// Screen width in pixels (non-zero).
    pub width: u32,
    /// Screen height in pixels (non-zero).
    pub height: u32,
    /// Animation frame index.
    pub frame: u32,
    /// Upper-bound (infinite-L1) pipeline mode.
    pub upper: bool,
}

impl JobSpec {
    /// Build a spec from parts, resolving the game alias and schedule
    /// name.
    ///
    /// # Errors
    ///
    /// A message naming the unknown alias / schedule or the zero
    /// dimension.
    pub fn new(
        game_alias: &str,
        schedule_name: &str,
        width: u32,
        height: u32,
        frame: u32,
        upper: bool,
    ) -> Result<Self, String> {
        let game = Game::ALL
            .into_iter()
            .find(|g| g.alias().eq_ignore_ascii_case(game_alias))
            .ok_or_else(|| format!("unknown game '{game_alias}'"))?;
        let schedule: ScheduleConfig = schedule_name
            .parse()
            .map_err(|e| format!("bad schedule '{schedule_name}': {e}"))?;
        if width == 0 || height == 0 {
            return Err("resolution must be non-zero".into());
        }
        Ok(Self {
            game,
            schedule,
            schedule_name: schedule_name.trim().to_string(),
            width,
            height,
            frame,
            upper,
        })
    }

    /// Render the spec as one batch-file line (single-line JSON).
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "{{\"game\":\"{}\",\"schedule\":\"{}\",\"width\":{},\"height\":{},\"frame\":{},\"upper\":{}}}",
            self.game.alias(),
            escape(&self.schedule_name),
            self.width,
            self.height,
            self.frame,
            self.upper
        )
    }

    /// Parse one batch-file line; `None` for blank, truncated,
    /// corrupt or unresolvable lines (unknown game / schedule, zero
    /// dimensions), and for a `width`, `height` or `frame` that is not
    /// an unsigned integer or an `upper` that is not a bool. A missing
    /// `upper` is `false`.
    #[must_use]
    pub fn parse_line(line: &str) -> Option<Self> {
        let v = json::parse(line)?;
        let upper = v.get("upper").map_or(Some(false), bool::from_json)?;
        Self::new(
            &v.field::<String>("game")?,
            &v.field::<String>("schedule")?,
            v.field("width")?,
            v.field("height")?,
            v.field("frame")?,
            upper,
        )
        .ok()
    }

    /// Materialize the spec into a runnable [`SweepJob`] under the
    /// daemon's base pipeline configuration.
    #[must_use]
    pub fn to_job(&self, pipeline_base: &PipelineConfig) -> SweepJob {
        SweepJob {
            game: self.game,
            schedule: self.schedule,
            width: self.width,
            height: self.height,
            frame: self.frame,
            pipeline: PipelineConfig {
                upper_bound: self.upper,
                ..*pipeline_base
            },
        }
    }
}

/// Materialize a spec list into a job list, dropping jobs a previous
/// spec already produced (two batches may both carry a job; the first
/// occurrence wins — both would simulate identically anyway, the dedup
/// just keeps the canonical job list and queue depth honest). Specs
/// are compared on the fields a job is made of, which are equal
/// exactly when the jobs' keys are.
#[must_use]
pub fn jobs_from_specs(specs: &[JobSpec], pipeline_base: &PipelineConfig) -> Vec<SweepJob> {
    let mut seen = BTreeSet::new();
    specs
        .iter()
        .filter(|s| seen.insert((s.game, s.schedule, s.width, s.height, s.frame, s.upper)))
        .map(|s| s.to_job(pipeline_base))
        .collect()
}

/// Write `contents` to `path` atomically: write a `.tmp-<pid>`
/// sibling, flush, then rename over the target. Readers see either
/// the old file or the new one, never a torn write.
pub(crate) fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = sibling_tmp(path);
    std::fs::write(&tmp, contents)?;
    let renamed = std::fs::rename(&tmp, path);
    if renamed.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    renamed
}

/// The `.tmp-<pid>` sibling used for atomic writes; spool scans skip
/// anything with a `.tmp-` extension segment.
fn sibling_tmp(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp-{}", std::process::id()));
    path.with_file_name(name)
}

/// Whether a directory entry is an in-progress atomic write (skipped
/// by every scan).
fn is_tmp(name: &str) -> bool {
    name.contains(".tmp-")
}

/// Receipt from a successful [`Spool::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// The batch id (16-hex content hash).
    pub batch: String,
    /// Jobs in the canonicalized batch (after line dedup).
    pub jobs: usize,
    /// Where the batch file landed.
    pub path: PathBuf,
}

/// What one [`Spool::accept_incoming`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AcceptReport {
    /// Batch ids moved `incoming/` → `accepted/` this pass.
    pub accepted: Vec<String>,
    /// Incoming file names dropped because their content hash matched
    /// an already-accepted batch.
    pub duplicates: Vec<String>,
    /// Incoming file names quarantined as corrupt, with the reason.
    pub rejected: Vec<(String, String)>,
}

/// Handle to a spool directory (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Open (creating if needed) the spool at `root`.
    ///
    /// # Errors
    ///
    /// The underlying I/O error when the directories cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let spool = Self { root: root.into() };
        std::fs::create_dir_all(spool.incoming_dir())?;
        std::fs::create_dir_all(spool.accepted_dir())?;
        Ok(spool)
    }

    /// The spool root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where submitted batches land.
    #[must_use]
    pub fn incoming_dir(&self) -> PathBuf {
        self.root.join("incoming")
    }

    /// Where accepted batches live (workers scan this).
    #[must_use]
    pub fn accepted_dir(&self) -> PathBuf {
        self.root.join("accepted")
    }

    /// Shard `i`'s journal (matches the fleet supervisor's layout).
    #[must_use]
    pub fn shard_journal(&self, index: u32) -> PathBuf {
        self.root.join(format!("shard-{index}.jsonl"))
    }

    /// The live merged journal.
    #[must_use]
    pub fn merged_journal(&self) -> PathBuf {
        self.root.join("merged.jsonl")
    }

    /// The live canon view of the merged journal.
    #[must_use]
    pub fn canon_file(&self) -> PathBuf {
        self.root.join("merged.canon")
    }

    /// The atomically-swapped status document.
    #[must_use]
    pub fn status_file(&self) -> PathBuf {
        self.root.join("status.json")
    }

    /// The unix status socket (when the platform supports one).
    #[must_use]
    pub fn socket_path(&self) -> PathBuf {
        self.root.join("status.sock")
    }

    /// The batch-level events journal (duplicate / corrupt batches,
    /// journaled with `error_kind` like any job failure).
    #[must_use]
    pub fn events_journal(&self) -> PathBuf {
        self.root.join("events.jsonl")
    }

    /// The previous events generation, produced by
    /// [`Spool::rotate_events`] when the live journal crosses the
    /// size cap. Exactly two generations are kept: rotating again
    /// replaces this file.
    #[must_use]
    pub fn rotated_events_journal(&self) -> PathBuf {
        self.root.join("events.1.jsonl")
    }

    /// The atomically-swapped Prometheus text-format metrics document
    /// (see [`crate::registry`]).
    #[must_use]
    pub fn metrics_file(&self) -> PathBuf {
        self.root.join("metrics.prom")
    }

    /// The drain marker: present means "stop accepting, finish the
    /// accepted queue, exit".
    #[must_use]
    pub fn drain_marker(&self) -> PathBuf {
        self.root.join("drain")
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub fn drain_requested(&self) -> bool {
        self.drain_marker().exists()
    }

    /// Request a drain (idempotent).
    ///
    /// # Errors
    ///
    /// The underlying I/O error when the marker cannot be written.
    pub fn request_drain(&self) -> io::Result<()> {
        std::fs::write(self.drain_marker(), "drain\n")
    }

    /// Submit a batch: canonicalize the specs (lines sorted,
    /// duplicates dropped), content-hash them into a batch id, and
    /// atomically write `incoming/batch-<id>.jsonl`.
    ///
    /// # Errors
    ///
    /// [`JobError::DuplicateBatch`] when a batch with the same
    /// canonical content is already incoming or accepted;
    /// [`JobError::SpoolCorrupt`] when the spool directory itself is
    /// unwritable (the queue cannot take work).
    pub fn submit(&self, specs: &[JobSpec]) -> Result<SubmitReceipt, JobError> {
        if specs.is_empty() {
            return Err(JobError::SpoolCorrupt {
                path: self.incoming_dir().display().to_string(),
                detail: "refusing to submit an empty batch".into(),
            });
        }
        let mut lines: Vec<String> = specs.iter().map(JobSpec::to_line).collect();
        lines.sort();
        lines.dedup();
        let content = lines.join("\n") + "\n";
        let batch = format!("{:016x}", fnv1a(content.as_bytes()));
        let name = format!("batch-{batch}.jsonl");
        let target = self.incoming_dir().join(&name);
        if target.exists() || self.accepted_dir().join(&name).exists() {
            return Err(JobError::DuplicateBatch { batch });
        }
        atomic_write(&target, &content).map_err(|e| JobError::SpoolCorrupt {
            path: target.display().to_string(),
            detail: format!("cannot write batch: {e}"),
        })?;
        Ok(SubmitReceipt {
            batch,
            jobs: lines.len(),
            path: target,
        })
    }

    /// Sorted non-temp file names in `dir` (missing dir = empty).
    fn scan_dir(dir: &Path) -> Vec<String> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| !is_tmp(n) && !n.ends_with(".rejected"))
            .collect();
        names.sort();
        names
    }

    /// Parse one batch file's content into specs; `Err` names the
    /// first offending line.
    fn parse_batch(content: &str) -> Result<Vec<JobSpec>, String> {
        let mut specs = Vec::new();
        for (i, line) in content.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match JobSpec::parse_line(line) {
                Some(spec) => specs.push(spec),
                None => return Err(format!("line {} does not parse as a job spec", i + 1)),
            }
        }
        if specs.is_empty() {
            return Err("batch contains no job specs".into());
        }
        Ok(specs)
    }

    /// Daemon-side ingest pass: validate every complete file in
    /// `incoming/` and move it to `accepted/` under its canonical
    /// content-hash name. Duplicates of already-accepted batches are
    /// dropped; unreadable or unparseable files are renamed to
    /// `<name>.rejected` (so one bad submitter cannot wedge the scan)
    /// — both are reported, neither is an error: a corrupt batch must
    /// never crash the daemon.
    #[must_use]
    pub fn accept_incoming(&self) -> AcceptReport {
        let mut report = AcceptReport::default();
        let incoming = self.incoming_dir();
        for name in Self::scan_dir(&incoming) {
            let path = incoming.join(&name);
            let reject = |detail: String, report: &mut AcceptReport| {
                let _ = std::fs::rename(&path, incoming.join(format!("{name}.rejected")));
                report.rejected.push((name.clone(), detail));
            };
            let content = match std::fs::read_to_string(&path) {
                Ok(c) => c,
                Err(e) => {
                    reject(format!("unreadable: {e}"), &mut report);
                    continue;
                }
            };
            let specs = match Self::parse_batch(&content) {
                Ok(s) => s,
                Err(detail) => {
                    reject(detail, &mut report);
                    continue;
                }
            };
            // Re-canonicalize: accept under the *content's* hash even
            // if a foreign writer picked a different file name.
            let mut lines: Vec<String> = specs.iter().map(JobSpec::to_line).collect();
            lines.sort();
            lines.dedup();
            let content = lines.join("\n") + "\n";
            let batch = format!("{:016x}", fnv1a(content.as_bytes()));
            let target = self.accepted_dir().join(format!("batch-{batch}.jsonl"));
            if target.exists() {
                let _ = std::fs::remove_file(&path);
                report.duplicates.push(name.clone());
                continue;
            }
            if let Err(e) = atomic_write(&target, &content) {
                reject(format!("cannot accept: {e}"), &mut report);
                continue;
            }
            let _ = std::fs::remove_file(&path);
            report.accepted.push(batch);
        }
        report
    }

    /// Worker-side scan: every spec in every accepted batch, in
    /// batch-name order then line order, plus the number of accepted
    /// files skipped as unreadable/unparseable (a file the daemon
    /// accepted should always parse; tolerance is cheap insurance).
    #[must_use]
    pub fn accepted_specs(&self) -> (Vec<JobSpec>, u64) {
        let accepted = self.accepted_dir();
        let mut specs = Vec::new();
        let mut corrupt = 0u64;
        for name in Self::scan_dir(&accepted) {
            let path = accepted.join(&name);
            match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
                Ok(content) => match Self::parse_batch(&content) {
                    Ok(batch) => specs.extend(batch),
                    Err(_) => corrupt += 1,
                },
                Err(_) => corrupt += 1,
            }
        }
        (specs, corrupt)
    }

    /// Append one record to the batch-level events journal.
    ///
    /// # Errors
    ///
    /// The underlying I/O error when the journal cannot be appended.
    pub fn append_event(&self, line: &str) -> io::Result<()> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.events_journal())?;
        writeln!(file, "{line}")?;
        file.flush()
    }

    /// Rotate the events journal when it has grown past `cap_bytes`:
    /// `events.jsonl` is renamed over `events.1.jsonl` (replacing the
    /// previous generation — exactly two generations are kept) and a
    /// fresh journal starts on the next [`Spool::append_event`].
    /// Returns whether a rotation happened.
    ///
    /// # Errors
    ///
    /// [`RotateError`] when the size probe or the rename fails. The
    /// error is advisory: the caller keeps appending to the (now
    /// oversized) live journal and retries next pass — a full disk or
    /// a permissions hiccup must never take the daemon down.
    pub fn rotate_events(&self, cap_bytes: u64) -> Result<bool, RotateError> {
        let live = self.events_journal();
        let len = match std::fs::metadata(&live) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => {
                return Err(RotateError {
                    path: live.display().to_string(),
                    detail: format!("cannot stat events journal: {e}"),
                })
            }
        };
        if len < cap_bytes {
            return Ok(false);
        }
        std::fs::rename(&live, self.rotated_events_journal()).map_err(|e| RotateError {
            path: live.display().to_string(),
            detail: format!("cannot rotate events journal: {e}"),
        })?;
        Ok(true)
    }
}

/// Default size cap for [`Spool::rotate_events`]: once the live
/// `events.jsonl` crosses this, the daemon rotates it at the next
/// loop pass.
pub const EVENTS_ROTATE_BYTES: u64 = 1 << 20;

/// Typed, non-fatal failure from [`Spool::rotate_events`]. Carries
/// the journal path and the underlying I/O detail; the daemon logs it
/// and keeps running (the live journal just grows past the cap until
/// a later pass succeeds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotateError {
    /// The events journal that failed to rotate.
    pub path: String,
    /// What went wrong (stat or rename failure detail).
    pub detail: String,
}

impl std::fmt::Display for RotateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "events rotation failed for {}: {}",
            self.path, self.detail
        )
    }
}

impl std::error::Error for RotateError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dtexl_spool_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(game: &str, schedule: &str) -> JobSpec {
        JobSpec::new(game, schedule, 96, 64, 0, false).unwrap()
    }

    #[test]
    fn job_spec_round_trips_through_its_line_form() {
        let s = JobSpec::new("ccs", "dtexl", 480, 192, 3, true).unwrap();
        assert_eq!(
            s.game.alias(),
            "CCS",
            "alias resolution is case-insensitive"
        );
        let line = s.to_line();
        let parsed = JobSpec::parse_line(&line).unwrap();
        assert_eq!(parsed, s);
        // The spec and a CLI-built job agree on identity.
        let job = parsed.to_job(&PipelineConfig::default());
        assert!(job.key().starts_with("CCS|"));
        assert!(job.key().contains("|upper|480x192#3"));
    }

    #[test]
    fn job_spec_rejects_garbage() {
        assert!(JobSpec::parse_line("").is_none());
        assert!(JobSpec::parse_line("not json").is_none());
        assert!(
            JobSpec::parse_line("{\"game\":\"CCS\"}").is_none(),
            "missing fields"
        );
        assert!(
            JobSpec::parse_line(
                "{\"game\":\"NOPE\",\"schedule\":\"dtexl\",\"width\":96,\"height\":64,\"frame\":0,\"upper\":false}"
            )
            .is_none(),
            "unknown game"
        );
        assert!(JobSpec::new("CCS", "dtexl", 0, 64, 0, false).is_err());
        // Batch lines come from outside the program: a present field
        // of the wrong JSON type is malformed, not a default or a
        // prefix of a number.
        let good = JobSpec::new("CCS", "dtexl", 96, 64, 0, false)
            .unwrap()
            .to_line();
        for (from, to) in [
            ("\"upper\":false", "\"upper\":\"true\""),
            ("\"upper\":false", "\"upper\":1"),
            ("\"width\":96", "\"width\":96.5"),
            ("\"width\":96", "\"width\":1e3"),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good);
            assert!(JobSpec::parse_line(&bad).is_none(), "{bad}");
        }
        // A missing `upper` is a base job.
        let no_upper = good.replace(",\"upper\":false", "");
        assert_eq!(JobSpec::parse_line(&no_upper).map(|s| s.upper), Some(false));
    }

    #[test]
    fn submit_is_content_addressed_and_dedups_resubmission() {
        let spool = Spool::open(scratch("submit")).unwrap();
        let specs = vec![spec("CCS", "baseline"), spec("GTr", "dtexl")];
        let receipt = spool.submit(&specs).unwrap();
        assert_eq!(receipt.jobs, 2);
        assert!(receipt.path.exists());

        // Same set, different order: same content hash, typed dup.
        let reordered = vec![spec("GTr", "dtexl"), spec("CCS", "baseline")];
        match spool.submit(&reordered) {
            Err(JobError::DuplicateBatch { batch }) => assert_eq!(batch, receipt.batch),
            other => panic!("expected DuplicateBatch, got {other:?}"),
        }

        // A different set is a different batch.
        let other = spool.submit(&[spec("TRu", "baseline")]).unwrap();
        assert_ne!(other.batch, receipt.batch);
        let _ = std::fs::remove_dir_all(spool.root());
    }

    #[test]
    fn accept_moves_batches_and_quarantines_corruption() {
        let spool = Spool::open(scratch("accept")).unwrap();
        let receipt = spool.submit(&[spec("CCS", "baseline")]).unwrap();
        // A half-written batch (no atomic rename): ignored while it
        // has a temp name, quarantined once it looks complete but
        // does not parse.
        std::fs::write(
            spool.incoming_dir().join("batch-bad.jsonl.tmp-999"),
            "{\"ga",
        )
        .unwrap();
        std::fs::write(spool.incoming_dir().join("torn.jsonl"), "{\"game\":\"CC").unwrap();
        // A complete batch whose second line carries a string `upper`:
        // the whole batch is quarantined, not run as a base job.
        let typed = spec("GTr", "dtexl").to_line();
        std::fs::write(
            spool.incoming_dir().join("typed.jsonl"),
            format!(
                "{typed}\n{}\n",
                typed.replace("\"upper\":false", "\"upper\":\"true\"")
            ),
        )
        .unwrap();

        let report = spool.accept_incoming();
        assert_eq!(report.accepted, vec![receipt.batch.clone()]);
        assert_eq!(report.duplicates, Vec::<String>::new());
        let rejected: Vec<&str> = report.rejected.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(
            rejected,
            ["torn.jsonl", "typed.jsonl"],
            "the torn and the mistyped complete files"
        );
        assert!(spool.incoming_dir().join("typed.jsonl.rejected").exists());
        assert!(
            spool.incoming_dir().join("torn.jsonl.rejected").exists(),
            "quarantined, not deleted"
        );
        assert!(
            spool
                .incoming_dir()
                .join("batch-bad.jsonl.tmp-999")
                .exists(),
            "in-progress temp files are left alone"
        );

        // Accepted specs are readable by a worker.
        let (specs, corrupt) = spool.accepted_specs();
        assert_eq!(specs.len(), 1);
        assert_eq!(corrupt, 0);
        assert_eq!(specs[0].game.alias(), "CCS");

        // Re-submitting the accepted batch is a duplicate at submit
        // time; a foreign copy dropped straight into incoming/ dedups
        // at accept time.
        assert!(matches!(
            spool.submit(&[spec("CCS", "baseline")]),
            Err(JobError::DuplicateBatch { .. })
        ));
        std::fs::write(
            spool.incoming_dir().join("copycat.jsonl"),
            std::fs::read_to_string(
                spool
                    .accepted_dir()
                    .join(format!("batch-{}.jsonl", receipt.batch)),
            )
            .unwrap(),
        )
        .unwrap();
        let report = spool.accept_incoming();
        assert_eq!(report.accepted, Vec::<String>::new());
        assert_eq!(report.duplicates, vec!["copycat.jsonl".to_string()]);
        let _ = std::fs::remove_dir_all(spool.root());
    }

    #[test]
    fn jobs_from_specs_dedups_by_key_across_batches() {
        let specs = vec![
            spec("CCS", "baseline"),
            spec("GTr", "dtexl"),
            spec("CCS", "baseline"),
        ];
        let jobs = jobs_from_specs(&specs, &PipelineConfig::default());
        assert_eq!(jobs.len(), 2, "the repeated CCS job collapses");
    }

    #[test]
    fn jobs_from_specs_matches_key_dedup_on_every_preset() {
        // Every `dtexl list` preset (`dtexl` and `HLB-flp2` name the
        // same schedule) × {base, upper} over two games and sizes,
        // then every spec again in reverse order.
        let mut names = vec!["baseline", "dtexl"];
        names.extend(dtexl_sched::NamedMapping::FIG16.iter().map(|m| m.name()));
        let mut specs = Vec::new();
        for name in names {
            for upper in [false, true] {
                for (game, w, frame) in [("CCS", 96, 0), ("GTr", 128, 3)] {
                    specs.push(JobSpec::new(game, name, w, 64, frame, upper).unwrap());
                }
            }
        }
        let repeated: Vec<JobSpec> = specs.iter().chain(specs.iter().rev()).cloned().collect();
        let base = PipelineConfig::default();
        let all: Vec<SweepJob> = repeated.iter().map(|s| s.to_job(&base)).collect();
        let mut keys = BTreeSet::new();
        let by_key: Vec<SweepJob> = all
            .iter()
            .filter(|j| keys.insert(j.key()))
            .copied()
            .collect();
        assert_eq!(by_key.len(), 36, "nine distinct presets × 2 × 2");
        assert_eq!(jobs_from_specs(&repeated, &base), by_key);
        for a in &all {
            for b in &all {
                assert_eq!(a.key() == b.key(), a == b, "{} vs {}", a.key(), b.key());
            }
        }
    }

    #[test]
    fn events_rotation_keeps_two_generations() {
        let spool = Spool::open(scratch("rotate")).unwrap();
        assert_eq!(
            spool.rotate_events(64),
            Ok(false),
            "no journal yet: nothing to rotate"
        );
        spool.append_event("{\"gen\":1}").unwrap();
        assert_eq!(spool.rotate_events(1 << 20), Ok(false), "under the cap");

        // Grow past a tiny cap and rotate: the live journal becomes
        // the .1 generation and the next append starts fresh.
        for _ in 0..8 {
            spool
                .append_event("{\"pad\":\"xxxxxxxxxxxxxxxx\"}")
                .unwrap();
        }
        assert_eq!(spool.rotate_events(64), Ok(true));
        assert!(!spool.events_journal().exists());
        assert!(spool.rotated_events_journal().exists());
        let gen1 = std::fs::read_to_string(spool.rotated_events_journal()).unwrap();
        assert!(gen1.starts_with("{\"gen\":1}"));

        // A second rotation replaces the old generation: exactly two
        // files ever exist.
        spool.append_event("{\"gen\":2}").unwrap();
        assert_eq!(spool.rotate_events(0), Ok(true));
        let gen2 = std::fs::read_to_string(spool.rotated_events_journal()).unwrap();
        assert!(gen2.starts_with("{\"gen\":2}"));
        let _ = std::fs::remove_dir_all(spool.root());
    }

    #[test]
    fn rotate_error_is_typed_and_displayable() {
        let err = RotateError {
            path: "spool/events.jsonl".into(),
            detail: "permission denied".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("events.jsonl"));
        assert!(msg.contains("permission denied"));
    }

    #[test]
    fn queue_errors_are_typed_and_never_retryable() {
        let dup = JobError::DuplicateBatch {
            batch: "abc".into(),
        };
        assert_eq!(dup.kind(), "duplicate_batch");
        assert!(!dup.retryable());
        assert!(dup.to_string().contains("already submitted"));
        let corrupt = JobError::SpoolCorrupt {
            path: "spool/incoming/x.jsonl".into(),
            detail: "line 3 does not parse".into(),
        };
        assert_eq!(corrupt.kind(), "spool_corrupt");
        assert!(!corrupt.retryable());
        assert!(corrupt.to_string().contains("corrupt"));
    }
}
