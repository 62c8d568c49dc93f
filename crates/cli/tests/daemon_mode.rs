//! End-to-end coverage of the spool daemon (`dtexl sweep
//! submit`/`daemon`/`status` plus the `sweep --spool` worker mode),
//! driving the real `dtexl` binary:
//!
//! * submit → daemon → live second submit → drain → SIGTERM: the
//!   terminal status is graceful (`alive:false`) and the live-merged
//!   canon view is bit-identical to a clean one-shot sweep of the
//!   union of both batches;
//! * re-submitting a batch is a reported no-op with exit 0;
//! * `sweep status` renders the status document and `--format json`
//!   passes it through byte-for-byte;
//! * a worker (`sweep --spool`) drains a pre-armed spool directly;
//! * a second daemon on an already-drained spool resumes exactly:
//!   completed jobs are not re-simulated and the final canon still
//!   matches a clean run of the union.

use dtexl::spool::{JobSpec, Spool};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const RES: &str = "96x64";

/// The `dtexl` binary cargo built for this test run.
fn dtexl_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dtexl"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtexl_daemon_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `dtexl sweep submit` for `games` × baseline,dtexl at [`RES`].
fn submit(spool: &Path, games: &str) -> std::process::Output {
    let out = Command::new(dtexl_bin())
        .args(["sweep", "submit", "--spool"])
        .arg(spool)
        .args([
            "--games",
            games,
            "--schedules",
            "baseline,dtexl",
            "--res",
            RES,
        ])
        .output()
        .expect("run sweep submit");
    assert!(
        out.status.success(),
        "submit failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Spawn `dtexl sweep daemon` with fast polling, stderr to a log file.
fn spawn_daemon(spool: &Path, log: &Path) -> Child {
    Command::new(dtexl_bin())
        .args(["sweep", "daemon", "--spool"])
        .arg(spool)
        .args(["--shards", "2", "--poll-ms", "20", "--spool-poll-ms", "20"])
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(log).expect("create daemon log"))
        .spawn()
        .expect("spawn daemon")
}

/// Poll the spool's status document until `pred` holds on its text.
fn wait_for_status(spool: &Path, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let path = spool.join("status.json");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            if pred(&text) {
                return text;
            }
        }
        assert!(
            Instant::now() < deadline,
            "status never reached: {what} (last: {:?})",
            std::fs::read_to_string(&path).ok()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn sigterm(pid: u32) {
    let status = Command::new("kill")
        .args(["-TERM", &pid.to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success(), "kill -TERM {pid} failed");
}

/// Clean one-shot `dtexl sweep` over `games`, canonicalized.
fn clean_canon(dir: &Path, games: &str) -> String {
    let journal = dir.join("clean.jsonl");
    let out = Command::new(dtexl_bin())
        .args(["sweep", "--games", games, "--schedules", "baseline,dtexl"])
        .args(["--res", RES, "--threads", "1", "--keep-going"])
        .arg("--journal")
        .arg(&journal)
        .output()
        .expect("run clean sweep");
    assert!(
        out.status.success(),
        "clean sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    canon(&journal)
}

/// `dtexl sweep canon <journal>`.
fn canon(journal: &Path) -> String {
    let out = Command::new(dtexl_bin())
        .args(["sweep", "canon"])
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

/// The headline flow: daemon on an empty spool, a batch submitted
/// before and another *while it runs*, drain observed through the
/// status endpoint, graceful SIGTERM, and a bit-identical canon.
#[test]
fn daemon_drains_live_submissions_and_canon_matches_one_shot_run() {
    let dir = scratch_dir("live");
    let spool = dir.join("spool");
    submit(&spool, "CCS,SoD");
    let mut daemon = spawn_daemon(&spool, &dir.join("daemon.log"));

    // First batch fully drained (4 jobs ok), then feed the *running*
    // daemon a second batch and wait for the queue to empty again.
    wait_for_status(&spool, "first batch drained", |s| {
        s.contains("\"state\":\"drained\"") && s.contains("\"ok\":4")
    });
    submit(&spool, "GTr");
    wait_for_status(&spool, "second batch drained", |s| {
        s.contains("\"state\":\"drained\"") && s.contains("\"ok\":6")
    });

    sigterm(daemon.id());
    let status = daemon.wait().expect("daemon exits");
    let log = std::fs::read_to_string(dir.join("daemon.log")).unwrap_or_default();
    assert!(status.success(), "daemon exit: {status:?}\n{log}");

    let terminal = std::fs::read_to_string(spool.join("status.json")).expect("terminal status");
    assert!(
        terminal.contains("\"alive\":false") && terminal.contains("\"state\":\"drained\""),
        "terminal status not graceful: {terminal}"
    );

    // `sweep status` renders the document; `--format json` passes the
    // raw bytes through.
    let text = Command::new(dtexl_bin())
        .args(["sweep", "status", "--spool"])
        .arg(&spool)
        .output()
        .expect("run sweep status");
    assert!(text.status.success());
    let rendered = String::from_utf8_lossy(&text.stdout).to_string();
    assert!(rendered.contains("drained"), "summary: {rendered}");
    let json = Command::new(dtexl_bin())
        .args(["sweep", "status", "--spool"])
        .arg(&spool)
        .args(["--format", "json"])
        .output()
        .expect("run sweep status --format json");
    assert_eq!(String::from_utf8_lossy(&json.stdout), terminal);

    // The live-merged journal and its canon view both match a clean
    // one-shot run of the union of the two batches.
    let clean = clean_canon(&dir, "CCS,SoD,GTr");
    assert_eq!(canon(&spool.join("merged.jsonl")), clean);
    assert_eq!(
        std::fs::read_to_string(spool.join("merged.canon")).expect("canon view exists"),
        clean,
        "the on-disk canon view must equal `sweep canon` of the merged journal"
    );
}

/// Submitting byte-identical work twice (even with the axes spelled in
/// a different order) is a reported no-op: exit 0, one spooled batch.
#[test]
fn duplicate_submission_is_a_reported_noop() {
    let dir = scratch_dir("dup");
    let spool = dir.join("spool");
    let first = submit(&spool, "CCS,GTr");
    let second = submit(&spool, "GTr,CCS");
    assert!(
        String::from_utf8_lossy(&first.stdout).contains("submitted batch"),
        "first submit: {:?}",
        first
    );
    assert!(
        String::from_utf8_lossy(&second.stdout).contains("already spooled"),
        "second submit: {:?}",
        second
    );
    let batches: Vec<_> = std::fs::read_dir(spool.join("incoming"))
        .expect("incoming dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(batches.len(), 1, "one content-addressed batch: {batches:?}");
}

/// `dtexl sweep --spool` drains a pre-armed spool (accepted batch +
/// drain marker) and exits cleanly — the worker leg the daemon spawns,
/// driven directly.
#[test]
fn worker_mode_drains_a_pre_armed_spool() {
    let dir = scratch_dir("worker");
    let spool = Spool::open(dir.join("spool")).expect("open spool");
    let specs = vec![
        JobSpec::new("GTr", "baseline", 96, 64, 0, false).expect("spec"),
        JobSpec::new("GTr", "dtexl", 96, 64, 0, false).expect("spec"),
    ];
    spool.submit(&specs).expect("submit");
    let accepted = spool.accept_incoming();
    assert_eq!(accepted.accepted.len(), 1, "{accepted:?}");
    spool.request_drain().expect("arm drain");

    let journal = dir.join("worker.jsonl");
    let out = Command::new(dtexl_bin())
        .args(["sweep", "--spool"])
        .arg(spool.root())
        .args(["--threads", "1", "--spool-poll-ms", "20"])
        .arg("--journal")
        .arg(&journal)
        .output()
        .expect("run worker");
    assert!(
        out.status.success(),
        "worker failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&journal).expect("worker journal");
    assert_eq!(
        text.lines()
            .filter(|l| l.contains("\"status\":\"ok\""))
            .count(),
        2,
        "journal: {text}"
    );
}

/// A daemon restarted over a drained spool resumes exactly: nothing is
/// re-simulated (the journals already cover batch 1) and newly
/// submitted work still drains to a canon matching a clean union run.
#[test]
fn restarted_daemon_resumes_without_resimulating() {
    let dir = scratch_dir("restart");
    let spool_dir = dir.join("spool");
    submit(&spool_dir, "CCS");
    let mut first = spawn_daemon(&spool_dir, &dir.join("daemon1.log"));
    wait_for_status(&spool_dir, "first daemon drained", |s| {
        s.contains("\"state\":\"drained\"") && s.contains("\"ok\":2")
    });
    sigterm(first.id());
    assert!(first.wait().expect("first daemon exits").success());
    let merged_after_first =
        std::fs::read_to_string(spool_dir.join("merged.jsonl")).expect("merged journal");

    // A graceful drain leaves the marker armed (that is what makes it
    // crash-safe); restarting the service means removing it.
    std::fs::remove_file(spool_dir.join("drain")).expect("clear drain marker");
    submit(&spool_dir, "GTr");
    let mut second = spawn_daemon(&spool_dir, &dir.join("daemon2.log"));
    wait_for_status(&spool_dir, "second daemon drained", |s| {
        s.contains("\"state\":\"drained\"") && s.contains("\"ok\":4")
    });
    sigterm(second.id());
    assert!(second.wait().expect("second daemon exits").success());

    // Batch 1's records survive verbatim — resume skips, it does not
    // re-run — and the union canon matches a clean one-shot sweep.
    let merged = std::fs::read_to_string(spool_dir.join("merged.jsonl")).expect("merged journal");
    for line in merged_after_first.lines() {
        assert!(
            merged.contains(line),
            "batch 1 record lost across restart: {line}"
        );
    }
    assert_eq!(
        canon(&spool_dir.join("merged.jsonl")),
        clean_canon(&dir, "CCS,GTr")
    );
}
