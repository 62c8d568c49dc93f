//! The three workloads: which jobs each one runs, generated from the
//! seed. The program only ever sees the generated job specs.

use dtexl::scene::Game;
use dtexl::spool::JobSpec;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table II experiment: every game under baseline and
    /// DTexL at 1960×768.
    PaperSweep,
    /// Fig. 16-style design-space exploration: three games under the
    /// nine distinct schedule presets at 960×384.
    ScheduleExplore,
    /// A closed-loop client submitting small jobs to a spool and
    /// waiting for the drain.
    DaemonChurn,
}

/// The frame both sweeps simulate. Their seed only orders the games:
/// with the frame fixed, every seed does the same work, so run-to-run
/// spread is the host's and not the inputs'.
pub const SWEEP_FRAME: u32 = 0;
/// Frame pool the churn workload draws each game's frames from.
pub const CHURN_FRAME_POOL: u32 = 64;
/// Distinct frames per game in one churn batch.
pub const CHURN_FRAMES_PER_GAME: usize = 8;
/// The game whose jobs are the slowest at the churn's resolution, and
/// the frames it gets instead. With every game at 10 % of the jobs, the
/// p90 of job time would sit on the edge between this game's jobs and
/// the rest, where it jumps with small shifts; at 18 % it falls inside
/// this game's own spread.
const CHURN_HEAVY: (&str, usize) = ("RoK", 16);

/// Games of the exploration workload.
const EXPLORE_GAMES: [&str; 3] = ["CCS", "SoD", "GTr"];

/// The nine distinct presets `dtexl list` prints (`HLB-flp2` is left
/// out: it is the same schedule as `dtexl`).
pub const EXPLORE_SCHEDULES: [&str; 9] = [
    "baseline",
    "Zorder-const",
    "Zorder-flp",
    "HLB-const",
    "HLB-flp1",
    "dtexl",
    "HLB-flp3",
    "Sorder-const",
    "Sorder-flp",
];

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Self; 3] = [Self::PaperSweep, Self::ScheduleExplore, Self::DaemonChurn];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperSweep => "paper-sweep",
            Self::ScheduleExplore => "schedule-explore",
            Self::DaemonChurn => "daemon-churn",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Full-size resolution of the workload's jobs.
    pub fn resolution(self) -> (u32, u32) {
        match self {
            Self::PaperSweep => (1960, 768),
            Self::ScheduleExplore => (960, 384),
            Self::DaemonChurn => (128, 64),
        }
    }

    /// The job specs of one pass, at `resolution`. The same seed always
    /// gives the same specs, in the same order.
    pub fn specs(self, seed: u64, (width, height): (u32, u32)) -> Vec<JobSpec> {
        let spec = |game: &str, schedule: &str, frame: u32| {
            JobSpec::new(game, schedule, width, height, frame, false)
                .expect("workload specs name known games and schedules")
        };
        match self {
            // Baseline first, so the DTexL leg of each game reuses the
            // prefix the baseline leg built.
            Self::PaperSweep => shuffled(seed, Game::ALL.map(|g| g.alias()).to_vec())
                .into_iter()
                .flat_map(|g| ["baseline", "dtexl"].map(|s| spec(g, s, SWEEP_FRAME)))
                .collect(),
            Self::ScheduleExplore => shuffled(seed, EXPLORE_GAMES.to_vec())
                .into_iter()
                .flat_map(|g| EXPLORE_SCHEDULES.map(|s| spec(g, s, SWEEP_FRAME)))
                .collect(),
            Self::DaemonChurn => Game::ALL
                .iter()
                .enumerate()
                .flat_map(|(i, g)| {
                    let count = if g.alias() == CHURN_HEAVY.0 {
                        CHURN_HEAVY.1
                    } else {
                        CHURN_FRAMES_PER_GAME
                    };
                    churn_frames(seed, i as u64, count)
                        .into_iter()
                        .map(|f| spec(g.alias(), "dtexl", f))
                })
                .collect(),
        }
    }
}

/// `count` distinct frames from the pool, chosen by a shuffle seeded
/// from (seed, game).
fn churn_frames(seed: u64, game: u64, count: usize) -> Vec<u32> {
    let mut pool = shuffled(
        seed ^ game.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        (0..CHURN_FRAME_POOL).collect(),
    );
    pool.truncate(count);
    pool
}

/// `items` in a seeded Fisher–Yates order.
fn shuffled<T>(seed: u64, mut items: Vec<T>) -> Vec<T> {
    let mut rng = SplitMix(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    items
}

/// SplitMix64: a small, well-mixed generator for seed-derived choices.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_repeat_for_a_seed_and_churn_frames_are_distinct() {
        for w in Workload::ALL {
            assert_eq!(w.specs(7, (64, 32)), w.specs(7, (64, 32)));
        }
        let frames = churn_frames(3, 1, CHURN_FRAMES_PER_GAME);
        let mut dedup = frames.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), CHURN_FRAMES_PER_GAME);
        assert!(frames.iter().all(|&f| f < CHURN_FRAME_POOL));
        assert_eq!(Workload::PaperSweep.specs(0, (64, 32)).len(), 20);
        assert_eq!(Workload::ScheduleExplore.specs(0, (64, 32)).len(), 27);
        assert_eq!(Workload::DaemonChurn.specs(0, (64, 32)).len(), 88);
        let order = |seed| Workload::PaperSweep.specs(seed, (64, 32));
        assert_ne!(order(1), order(2), "the seed orders the sweep");
        let mut sorted = order(1);
        sorted.sort_by_key(|s| s.to_line());
        let mut other = order(2);
        other.sort_by_key(|s| s.to_line());
        assert_eq!(sorted, other, "but every seed runs the same jobs");
    }
}
