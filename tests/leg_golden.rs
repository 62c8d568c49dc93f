//! Golden digests of the fragment leg.
//!
//! Every simulated statistic the fragment leg produces — hierarchy
//! statistics (distinct lines included), shader-core statistics,
//! per-tile fragment cycles and the frame totals under both barrier
//! modes — folded into one FNV-1a digest per (game, hierarchy mode)
//! over the nine distinct `dtexl list` presets at 96×64. This pins the
//! cache lookup, the replacement policies, the L1 → L2 request order
//! under next-line prefetch and the warp model. The default
//! configuration is also covered by the benchmark's reference; the
//! prefetch, upper-bound and non-LRU modes are pinned only here.

use dtexl_mem::ReplacementKind;
use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::{NamedMapping, ScheduleConfig};

const W: u32 = 96;
const H: u32 = 64;

/// `(name, prefetch_next_line, upper_bound, replacement)`.
const MODES: [(&str, bool, bool, ReplacementKind); 6] = [
    ("lru", false, false, ReplacementKind::Lru),
    ("lru+prefetch", true, false, ReplacementKind::Lru),
    ("upper", false, true, ReplacementKind::Lru),
    ("upper+prefetch", true, true, ReplacementKind::Lru),
    ("fifo", false, false, ReplacementKind::Fifo),
    ("random+prefetch", true, false, ReplacementKind::Random),
];

const GAMES: [Game; 3] = [Game::CandyCrush, Game::SonicDash, Game::GravityTetris];

/// `(game, mode, digest)`, generated from the simulator before its
/// cache lookup and warp model were restructured.
const GOLDEN: [(&str, &str, u64); 18] = [
    ("CCS", "lru", 0x6182_d4bf_5c86_3ad0),
    ("CCS", "lru+prefetch", 0x13c3_5c81_08bc_f463),
    ("CCS", "upper", 0x46ed_b65b_327c_aec1),
    ("CCS", "upper+prefetch", 0x8482_f7a6_4922_ed53),
    ("CCS", "fifo", 0x7e14_5311_6f7f_b5fa),
    ("CCS", "random+prefetch", 0xa5d8_f6f7_d631_5fbd),
    ("SoD", "lru", 0xfde7_f61c_7c10_d512),
    ("SoD", "lru+prefetch", 0x4c6a_d13a_2edc_d31c),
    ("SoD", "upper", 0xf88f_e5a1_a213_ea3a),
    ("SoD", "upper+prefetch", 0xbf80_e6a9_abb1_3f6b),
    ("SoD", "fifo", 0x5abb_f476_0dff_7a26),
    ("SoD", "random+prefetch", 0x593e_d525_6aad_d746),
    ("GTr", "lru", 0x0e32_e851_1fd7_d5ba),
    ("GTr", "lru+prefetch", 0x4647_2bf6_a300_a7f3),
    ("GTr", "upper", 0x34ad_20f7_ee07_ff6e),
    ("GTr", "upper+prefetch", 0x54ee_afe1_f1ec_ec04),
    ("GTr", "fifo", 0xe0e7_431e_1cdb_0026),
    ("GTr", "random+prefetch", 0x6988_e468_53c7_02db),
];

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The nine distinct presets `dtexl list` prints (`dtexl` is
/// `HLB-flp2`, one of the Fig. 16 mappings).
fn presets() -> Vec<ScheduleConfig> {
    let mut presets = vec![ScheduleConfig::baseline()];
    presets.extend(NamedMapping::FIG16.iter().map(|m| m.config()));
    presets
}

fn digest(game: Game, mode: (&str, bool, bool, ReplacementKind)) -> u64 {
    let (_, prefetch_next_line, upper_bound, replacement) = mode;
    let mut config = PipelineConfig {
        upper_bound,
        ..PipelineConfig::default()
    };
    config.hierarchy.prefetch_next_line = prefetch_next_line;
    config.hierarchy.replacement = replacement;
    let scene = game.scene(&SceneSpec::new(W, H, 0));
    presets()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, schedule| {
            let r = FrameSim::try_run(&scene, schedule, &config, W, H).unwrap();
            let frag: Vec<[u64; 4]> = r.tiles.iter().map(|t| t.frag_cycles).collect();
            let text = format!(
                "{:?} {:?} {frag:?} {} {}",
                r.hierarchy,
                r.shader,
                r.total_cycles(BarrierMode::Coupled),
                r.total_cycles(BarrierMode::Decoupled),
            );
            fnv1a(hash, text.as_bytes())
        })
}

#[test]
fn fragment_leg_digests_are_golden() {
    let got: Vec<(&str, &str, u64)> = GAMES
        .iter()
        .flat_map(|&game| {
            MODES
                .iter()
                .map(move |&mode| (game.alias(), mode.0, digest(game, mode)))
        })
        .collect();
    assert_eq!(got, GOLDEN);
}
