//! Output correctness: every pass's `canon_text` is checked job by job
//! against reference lines stored with the benchmark. A job the
//! reference does not list is checked, for a seed-chosen subset, by
//! re-simulating it fresh (untimed) through `SweepJob::simulate`.

use crate::workload::{SplitMix, Workload, CHURN_FRAME_POOL};
use dtexl::pipeline::PipelineConfig;
use dtexl::spool::{jobs_from_specs, JobSpec};
use dtexl::sweep::{JobMetrics, SweepJob};
use std::collections::BTreeMap;

/// Reference lines `key|coupled|decoupled|l2`, one per job any seed can
/// produce (regenerate with `--record-reference`).
const REFERENCE: &str = include_str!("../reference.txt");

/// Most unlisted jobs re-simulated fresh per check.
pub const FRESH_SUBSET: usize = 3;

/// Expected canon metrics by job key.
#[derive(Debug, Default)]
pub struct Reference(BTreeMap<String, String>);

impl Reference {
    /// The reference compiled into the benchmark.
    pub fn stored() -> Self {
        Self::parse(REFERENCE)
    }

    /// Parse reference lines; blank and `#` lines are skipped.
    pub fn parse(text: &str) -> Self {
        Self(
            text.lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .filter_map(split_canon_line)
                .collect(),
        )
    }
}

/// Split a line `key|...|coupled|decoupled|l2` into the key and the
/// metric triple. The key itself holds `|`; a canon line also carries
/// the config hash, which is left out of the comparison (it hashes the
/// configuration's debug form, which any new config field changes).
fn split_canon_line(line: &str) -> Option<(String, String)> {
    let mut parts = line.rsplitn(4, '|');
    let (l2, dec, coup, rest) = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    let key = if rest.matches('|').count() == 4 {
        rest.rsplit_once('|')?.0
    } else {
        rest
    };
    Some((key.to_string(), format!("{coup}|{dec}|{l2}")))
}

/// Outcome of checking one pass.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Jobs compared against the stored reference.
    pub by_reference: usize,
    /// Unlisted jobs compared against a fresh simulation.
    pub by_fresh: usize,
    /// Unlisted jobs left unchecked (outside the fresh subset).
    pub unchecked: usize,
    /// Keys of jobs whose result is missing or differs.
    pub failed: Vec<String>,
}

/// Check `canon` (a `canon_text` rendering) against the expected
/// results of `jobs`. A job missing from `canon` or disagreeing with
/// its expectation fails.
pub fn verify(reference: &Reference, canon: &str, jobs: &[SweepJob], seed: u64) -> Verdict {
    let got: BTreeMap<String, String> = canon.lines().filter_map(split_canon_line).collect();
    let mut verdict = Verdict::default();
    let mut unlisted = Vec::new();
    for job in jobs {
        let key = job.key();
        let Some(actual) = got.get(&key) else {
            verdict.failed.push(key);
            continue;
        };
        match reference.0.get(&key) {
            Some(expected) => {
                verdict.by_reference += 1;
                if expected != actual {
                    verdict.failed.push(key);
                }
            }
            None => unlisted.push((job, actual)),
        }
    }
    let mut rng = SplitMix(seed);
    for i in 0..unlisted.len().min(FRESH_SUBSET) {
        let j = i + (rng.next() % (unlisted.len() - i) as u64) as usize;
        unlisted.swap(i, j);
        let (job, actual) = unlisted[i];
        verdict.by_fresh += 1;
        if fresh_line(job).as_deref() != Some(actual.as_str()) {
            verdict.failed.push(job.key());
        }
    }
    verdict.unchecked = unlisted.len() - verdict.by_fresh;
    verdict
}

/// The metric triple a fresh, cache-free simulation of `job` gives.
fn fresh_line(job: &SweepJob) -> Option<String> {
    let m = JobMetrics::of(&job.simulate().ok()?);
    Some(format!(
        "{}|{}|{}",
        m.coupled_cycles, m.decoupled_cycles, m.l2_accesses
    ))
}

/// Fresh reference lines for every job any seed can produce, for every
/// workload: the sweeps' jobs (the seed only orders them), and every
/// pool frame of every game for the churn.
pub fn record() -> String {
    let mut specs: Vec<JobSpec> = Vec::new();
    for w in [Workload::PaperSweep, Workload::ScheduleExplore] {
        specs.extend(w.specs(0, w.resolution()));
    }
    let (width, height) = Workload::DaemonChurn.resolution();
    for game in dtexl::scene::Game::ALL {
        for frame in 0..CHURN_FRAME_POOL {
            specs.push(
                JobSpec::new(game.alias(), "dtexl", width, height, frame, false)
                    .expect("known game and schedule"),
            );
        }
    }
    let mut out = String::from("# key|coupled_cycles|decoupled_cycles|l2_accesses\n");
    for job in jobs_from_specs(&specs, &PipelineConfig::default()) {
        let line = fresh_line(&job).expect("reference jobs simulate");
        out.push_str(&format!("{}|{line}\n", job.key()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtexl::sweep::{canon_text, journal_line, JobRecord, JobStatus};
    use std::time::Duration;

    fn canon_of(jobs: &[SweepJob]) -> String {
        let journal: String = jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                let m = JobMetrics::of(&job.simulate().expect("tiny jobs simulate"));
                let record = JobRecord {
                    index,
                    key: job.key(),
                    status: JobStatus::Ok,
                    attempts: 1,
                    elapsed: Duration::ZERO,
                    error: None,
                    metrics: Some(m),
                    config_hash: job.config_hash(),
                    peak_alloc: None,
                    shard: None,
                    obs: None,
                };
                journal_line(&record) + "\n"
            })
            .collect();
        canon_text(&journal)
    }

    #[test]
    fn canon_lines_split_with_and_without_the_config_hash() {
        let (k, m) = split_canon_line("CCS|CG/H/flp2|base|64x32#0|00ff|10|9|8").unwrap();
        assert_eq!(
            (k.as_str(), m.as_str()),
            ("CCS|CG/H/flp2|base|64x32#0", "10|9|8")
        );
        let (k2, m2) = split_canon_line("CCS|CG/H/flp2|base|64x32#0|10|9|8").unwrap();
        assert_eq!((k2, m2), (k, m));
    }

    #[test]
    fn a_corrupted_result_is_reported_as_failed() {
        let specs = Workload::ScheduleExplore.specs(1, (64, 32));
        let jobs = jobs_from_specs(&specs[..3], &PipelineConfig::default());
        let canon = canon_of(&jobs);
        let reference = Reference::parse(&canon);
        assert_eq!(
            verify(&reference, &canon, &jobs, 1).failed,
            Vec::<String>::new()
        );

        // Bump one job's L2 count: the reference check must catch it.
        let first = canon.lines().next().unwrap();
        let (head, l2) = first.rsplit_once('|').unwrap();
        let bumped = format!("{head}|{}", l2.parse::<u64>().unwrap() + 1);
        let corrupt = canon.replacen(first, &bumped, 1);
        let victim = split_canon_line(first).unwrap().0;
        let v = verify(&reference, &corrupt, &jobs, 1);
        assert_eq!(v.failed, vec![victim.clone()]);

        // With no reference, the fresh re-simulation catches it too.
        let v = verify(&Reference::default(), &corrupt, &jobs, 1);
        assert_eq!((v.by_fresh, v.failed), (3, vec![victim]));

        // A missing result fails as well.
        let dropped: String = canon.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert_eq!(
            verify(&reference, &dropped, &jobs, 1).failed,
            vec![split_canon_line(first).unwrap().0]
        );
    }

    #[test]
    fn the_stored_reference_covers_every_seed() {
        let reference = Reference::stored();
        for w in Workload::ALL {
            for seed in [0, 1, 2, 3, 17, 1 << 40] {
                let jobs =
                    jobs_from_specs(&w.specs(seed, w.resolution()), &PipelineConfig::default());
                assert!(
                    jobs.iter().all(|j| reference.0.contains_key(&j.key())),
                    "{}",
                    w.name()
                );
            }
        }
    }
}
