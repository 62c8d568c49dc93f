//! Acceptance pins for sharded sweeps and per-job memory budgets:
//! the union of all shard journals must equal the unsharded journal
//! (bit-identical metrics per key), a job exceeding its memory budget
//! must fail typed + journaled and complete under a raised budget on
//! resume, and shard assignment must be stable when the job list
//! grows.

use dtexl::sweep::{
    merge_journals, parse_journal_line, run_sweep, shard_of, JobError, JobMetrics, JobStatus,
    RetryPolicy, Shard, SweepJob, SweepOptions,
};
use dtexl_scene::Game;
use dtexl_sched::{NamedMapping, ScheduleConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

const W: u32 = 192;
const H: u32 = 96;

fn jobs() -> Vec<SweepJob> {
    let mut out = Vec::new();
    for game in [Game::CandyCrush, Game::GravityTetris, Game::TempleRun] {
        for schedule in [ScheduleConfig::baseline(), ScheduleConfig::dtexl()] {
            out.push(SweepJob::new(game, schedule, false, W, H, 0));
        }
    }
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtexl_shard_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sweep_to_journal(jobs: &[SweepJob], journal: &Path, shard: Option<Shard>) {
    let opts = SweepOptions {
        keep_going: true,
        journal: Some(journal.to_path_buf()),
        shard,
        ..SweepOptions::default()
    };
    let report = run_sweep(jobs, &opts, |_, _| {}).unwrap();
    assert!(report.is_success(), "{}", report.summary());
}

/// The stable, order-independent content of a journal: for every key,
/// the latest record's status, config hash and metrics. Volatile
/// fields (elapsed, peak alloc, shard stamp) are exactly the ones a
/// sharded run may legitimately differ on.
fn canonical(journal: &Path) -> BTreeMap<String, (String, Option<u64>, Option<JobMetrics>)> {
    let text = std::fs::read_to_string(journal).unwrap();
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if let Some(e) = parse_journal_line(line) {
            out.insert(e.key, (e.status, e.config_hash, e.metrics));
        }
    }
    out
}

/// Pin (a): for N ∈ {2, 3}, running every shard `i/N` into its own
/// journal and merging yields exactly the unsharded journal's record
/// set, with bit-identical metrics per key.
#[test]
fn shard_union_equals_unsharded_journal() {
    let dir = scratch_dir("union");
    let jobs = jobs();

    let unsharded = dir.join("unsharded.jsonl");
    sweep_to_journal(&jobs, &unsharded, None);
    let expected = canonical(&unsharded);
    assert_eq!(expected.len(), jobs.len(), "every job journaled");

    for count in [2u32, 3] {
        let mut shard_paths = Vec::new();
        for index in 0..count {
            let path = dir.join(format!("shard_{index}_of_{count}.jsonl"));
            sweep_to_journal(&jobs, &path, Some(Shard::new(index, count).unwrap()));
            shard_paths.push(path);
        }
        let merged = dir.join(format!("merged_{count}.jsonl"));
        let stats = merge_journals(&shard_paths, &merged).unwrap();
        assert_eq!(stats.journals, count as usize);
        assert_eq!(stats.records, jobs.len(), "union covers every job");
        assert_eq!(stats.superseded, 0, "shards are disjoint");
        assert_eq!(
            canonical(&merged),
            expected,
            "merged {count}-way shard journals must match the unsharded run bit-for-bit"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Pin (b): a job whose allocation spike exceeds `job_mem_budget`
/// fails with the typed [`JobError::MemBudget`], is never retried at
/// the same budget, lands in the journal with its `error_kind`, and a
/// `resume` run with a raised budget completes it.
#[test]
fn mem_budget_failure_is_typed_journaled_and_resumable() {
    let dir = scratch_dir("budget");
    let journal = dir.join("journal.jsonl");

    let mut hungry = SweepJob::new(Game::CandyCrush, ScheduleConfig::dtexl(), false, W, H, 0);
    hungry.pipeline.fault.alloc_spike_mb = 64;
    let healthy = SweepJob::new(
        Game::GravityTetris,
        ScheduleConfig::baseline(),
        false,
        W,
        H,
        0,
    );
    let jobs = vec![hungry, healthy];

    let opts = SweepOptions {
        keep_going: true,
        journal: Some(journal.clone()),
        job_mem_budget: Some(16 * 1024 * 1024),
        retry: RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_millis(1),
        },
        ..SweepOptions::default()
    };
    let report = run_sweep(&jobs, &opts, |_, _| {}).unwrap();
    assert!(!report.is_success());
    let failed = report.failed();
    assert_eq!(failed.len(), 1);
    let record = failed[0];
    assert_eq!(record.key, hungry.key());
    let (used, budget) = match &record.error {
        Some(JobError::MemBudget { used, budget }) => (*used, *budget),
        other => panic!("expected MemBudget, got {other:?}"),
    };
    assert_eq!(budget, 16 * 1024 * 1024);
    assert!(used > budget, "used {used} must exceed budget {budget}");
    assert_eq!(
        record.attempts, 1,
        "a budget overrun is deterministic: never retried at the same budget"
    );

    let text = std::fs::read_to_string(&journal).unwrap();
    let entry = text
        .lines()
        .filter_map(parse_journal_line)
        .find(|e| e.key == hungry.key())
        .unwrap();
    assert_eq!(entry.status, "failed");
    assert_eq!(entry.error_kind.as_deref(), Some("mem_budget"));

    // Raise the budget and resume: only the budget-failed job runs,
    // and it now completes.
    let opts = SweepOptions {
        resume: true,
        job_mem_budget: Some(256 * 1024 * 1024),
        ..opts
    };
    let report = run_sweep(&jobs, &opts, |_, _| {}).unwrap();
    assert!(report.is_success(), "{}", report.summary());
    let by_key: BTreeMap<_, _> = report
        .records
        .iter()
        .map(|r| (r.key.clone(), r.status))
        .collect();
    assert_eq!(by_key[&hungry.key()], JobStatus::Ok);
    assert_eq!(by_key[&healthy.key()], JobStatus::Skipped);
    let ok_entry = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .filter_map(parse_journal_line)
        .rfind(|e| e.key == hungry.key())
        .unwrap();
    assert_eq!(ok_entry.status, "ok");
    assert!(
        ok_entry.peak_alloc_bytes.unwrap() > 64 * 1024 * 1024,
        "the spike is metered: {:?}",
        ok_entry.peak_alloc_bytes
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Pin (c): shard assignment hashes the job *key*, so appending jobs
/// to the list never moves an existing job to a different shard, and
/// every key lands in exactly one shard.
#[test]
fn shard_assignment_is_stable_under_job_list_append() {
    let mut jobs = jobs();
    for count in [2u32, 3, 5] {
        let before: Vec<u32> = jobs.iter().map(|j| shard_of(&j.key(), count)).collect();

        let mut grown = jobs.clone();
        grown.push(SweepJob::new(
            Game::TempleRun,
            ScheduleConfig::dtexl(),
            true,
            W,
            H,
            7,
        ));
        let after: Vec<u32> = grown.iter().map(|j| shard_of(&j.key(), count)).collect();
        assert_eq!(
            before,
            after[..before.len()],
            "appending a job must not reshuffle existing assignments (N = {count})"
        );

        // Partition: each key is owned by exactly one shard.
        for job in &grown {
            let owners: Vec<u32> = (0..count)
                .filter(|&i| Shard::new(i, count).unwrap().contains(&job.key()))
                .collect();
            assert_eq!(owners.len(), 1, "{} (N = {count})", job.key());
            assert_eq!(owners[0], shard_of(&job.key(), count));
        }
    }

    // Out-of-shard jobs leave no trace: a sharded run journals only
    // its own slice, never `not_run` placeholders for the rest.
    let dir = scratch_dir("stable");
    let journal = dir.join("slice.jsonl");
    jobs.truncate(4);
    sweep_to_journal(&jobs, &journal, Some(Shard::new(0, 2).unwrap()));
    let mine: Vec<String> = jobs
        .iter()
        .map(SweepJob::key)
        .filter(|k| shard_of(k, 2) == 0)
        .collect();
    let journaled = canonical(&journal);
    assert_eq!(
        journaled.keys().cloned().collect::<Vec<_>>(),
        mine,
        "exactly the shard's own keys are journaled"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_keys_and_their_shards_are_golden() {
    // Every `dtexl list` preset × {base, upper}, cycling games and
    // sizes (u32::MAX included). The key feeds `shard_of`, journal
    // resume, `config_hash` and canon, so its bytes must never move.
    const GOLDEN: [(&str, u32); 20] = [
        ("CCS|FG-xshift2/Z-order/const|base|1960x768#0", 6),
        ("SoD|FG-xshift2/Z-order/const|upper|128x64#37", 5),
        (
            "TRu|CG-square/Hilbert/flp2|base|4294967295x4294967295#4294967295",
            2,
        ),
        ("SWa|CG-square/Hilbert/flp2|upper|1960x768#0", 0),
        ("CRa|CG-square/Z-order/const|base|128x64#37", 0),
        (
            "RoK|CG-square/Z-order/const|upper|4294967295x4294967295#4294967295",
            5,
        ),
        ("DDS|CG-square/Z-order/flp1|base|1960x768#0", 0),
        ("Snp|CG-square/Z-order/flp1|upper|128x64#37", 1),
        (
            "Mze|CG-square/Hilbert/const|base|4294967295x4294967295#4294967295",
            5,
        ),
        ("GTr|CG-square/Hilbert/const|upper|1960x768#0", 1),
        ("CCS|CG-square/Hilbert/flp1|base|128x64#37", 0),
        (
            "SoD|CG-square/Hilbert/flp1|upper|4294967295x4294967295#4294967295",
            2,
        ),
        ("TRu|CG-square/Hilbert/flp2|base|1960x768#0", 6),
        ("SWa|CG-square/Hilbert/flp2|upper|128x64#37", 2),
        (
            "CRa|CG-square/Hilbert/flp3|base|4294967295x4294967295#4294967295",
            6,
        ),
        ("RoK|CG-square/Hilbert/flp3|upper|1960x768#0", 0),
        ("DDS|CG-yrect/S-order/const|base|128x64#37", 6),
        (
            "Snp|CG-yrect/S-order/const|upper|4294967295x4294967295#4294967295",
            4,
        ),
        ("Mze|CG-yrect/S-order/flp1|base|1960x768#0", 6),
        ("GTr|CG-yrect/S-order/flp1|upper|128x64#37", 5),
    ];
    let mut presets = vec![ScheduleConfig::baseline(), ScheduleConfig::dtexl()];
    presets.extend(NamedMapping::FIG16.iter().map(|m| m.config()));
    let sizes = [
        (1960, 768, 0),
        (128, 64, 37),
        (u32::MAX, u32::MAX, u32::MAX),
    ];
    let mut got = Vec::new();
    for schedule in presets {
        for upper in [false, true] {
            let i = got.len();
            let (w, h, frame) = sizes[i % sizes.len()];
            let game = Game::ALL[i % Game::ALL.len()];
            let key = SweepJob::new(game, schedule, upper, w, h, frame).key();
            let shard = shard_of(&key, 7);
            got.push((key, shard));
        }
    }
    let want: Vec<(String, u32)> = GOLDEN.iter().map(|&(k, s)| (k.to_string(), s)).collect();
    assert_eq!(got, want);
}
