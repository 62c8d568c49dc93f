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
//! prefetch, upper-bound and non-LRU modes are pinned only here, and so
//! are the modes where warp slots bind (1 and 2 slots) and the L1
//! geometries off the compiled widths' fast path (48 sets, 8 ways).

use dtexl_mem::{CacheConfig, ReplacementKind};
use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::{NamedMapping, ScheduleConfig};

const W: u32 = 96;
const H: u32 = 64;

/// One hierarchy and core configuration the leg is pinned under.
#[derive(Clone, Copy)]
struct Mode {
    name: &'static str,
    prefetch_next_line: bool,
    upper_bound: bool,
    replacement: ReplacementKind,
    /// Warp slots per core: at the default 12 no slot ever binds on
    /// these scenes, so 1 and 2 are what pin slot-bound timing.
    warp_slots: usize,
    /// The private L1's `(sets, ways)`; `None` is the 64×4 default.
    l1: Option<(u64, usize)>,
}

const fn mode(name: &'static str, prefetch_next_line: bool, upper_bound: bool) -> Mode {
    Mode {
        name,
        prefetch_next_line,
        upper_bound,
        replacement: ReplacementKind::Lru,
        warp_slots: 12,
        l1: None,
    }
}

const MODES: [Mode; 12] = [
    mode("lru", false, false),
    mode("lru+prefetch", true, false),
    mode("upper", false, true),
    mode("upper+prefetch", true, true),
    Mode {
        replacement: ReplacementKind::Fifo,
        ..mode("fifo", false, false)
    },
    Mode {
        replacement: ReplacementKind::Random,
        ..mode("random+prefetch", true, false)
    },
    Mode {
        warp_slots: 1,
        ..mode("slots1", false, false)
    },
    Mode {
        warp_slots: 2,
        ..mode("slots2+prefetch", true, false)
    },
    Mode {
        warp_slots: 2,
        ..mode("slots2+upper", false, true)
    },
    // 48 sets is not a power of two, so the set index takes the modulo
    // path (192 sets in upper-bound mode).
    Mode {
        l1: Some((48, 4)),
        replacement: ReplacementKind::Random,
        ..mode("l1-48x4+random", false, false)
    },
    Mode {
        l1: Some((48, 4)),
        ..mode("l1-48x4+upper+prefetch", true, true)
    },
    Mode {
        l1: Some((32, 8)),
        replacement: ReplacementKind::Fifo,
        ..mode("l1-32x8+fifo+prefetch", true, false)
    },
];

const GAMES: [Game; 3] = [Game::CandyCrush, Game::SonicDash, Game::GravityTetris];

/// `(game, mode, digest)`, generated from the simulator before its
/// cache lookup and warp model were restructured (the slot-bound and
/// L1-geometry modes before the per-subtile cache sessions and the
/// multiset warp-slot model).
const GOLDEN: [(&str, &str, u64); 36] = [
    ("CCS", "lru", 0x6182_d4bf_5c86_3ad0),
    ("CCS", "lru+prefetch", 0x13c3_5c81_08bc_f463),
    ("CCS", "upper", 0x46ed_b65b_327c_aec1),
    ("CCS", "upper+prefetch", 0x8482_f7a6_4922_ed53),
    ("CCS", "fifo", 0x7e14_5311_6f7f_b5fa),
    ("CCS", "random+prefetch", 0xa5d8_f6f7_d631_5fbd),
    ("CCS", "slots1", 0x9068_074e_9772_9ecb),
    ("CCS", "slots2+prefetch", 0x34ec_8cb3_11be_fdcb),
    ("CCS", "slots2+upper", 0xbdf0_a41a_c1a1_268e),
    ("CCS", "l1-48x4+random", 0x3f21_df15_8e12_2eb1),
    ("CCS", "l1-48x4+upper+prefetch", 0xa0bd_375a_1845_8377),
    ("CCS", "l1-32x8+fifo+prefetch", 0x3833_2abd_f05b_7656),
    ("SoD", "lru", 0xfde7_f61c_7c10_d512),
    ("SoD", "lru+prefetch", 0x4c6a_d13a_2edc_d31c),
    ("SoD", "upper", 0xf88f_e5a1_a213_ea3a),
    ("SoD", "upper+prefetch", 0xbf80_e6a9_abb1_3f6b),
    ("SoD", "fifo", 0x5abb_f476_0dff_7a26),
    ("SoD", "random+prefetch", 0x593e_d525_6aad_d746),
    ("SoD", "slots1", 0x6857_077b_65bc_93ef),
    ("SoD", "slots2+prefetch", 0xc16d_6688_97a7_a0a4),
    ("SoD", "slots2+upper", 0xe3b8_3f0b_24cc_ee41),
    ("SoD", "l1-48x4+random", 0x651a_7dd3_2de8_972e),
    ("SoD", "l1-48x4+upper+prefetch", 0x88ef_3c28_d939_437b),
    ("SoD", "l1-32x8+fifo+prefetch", 0x3be5_9929_8ece_8097),
    ("GTr", "lru", 0x0e32_e851_1fd7_d5ba),
    ("GTr", "lru+prefetch", 0x4647_2bf6_a300_a7f3),
    ("GTr", "upper", 0x34ad_20f7_ee07_ff6e),
    ("GTr", "upper+prefetch", 0x54ee_afe1_f1ec_ec04),
    ("GTr", "fifo", 0xe0e7_431e_1cdb_0026),
    ("GTr", "random+prefetch", 0x6988_e468_53c7_02db),
    ("GTr", "slots1", 0x1a92_066c_fdc3_5fe2),
    ("GTr", "slots2+prefetch", 0x16a2_c434_17b3_3293),
    ("GTr", "slots2+upper", 0x44cd_8173_45aa_d9f5),
    ("GTr", "l1-48x4+random", 0x3bb0_e82c_e56d_fa82),
    ("GTr", "l1-48x4+upper+prefetch", 0xf30f_45d3_6358_02ca),
    ("GTr", "l1-32x8+fifo+prefetch", 0x915c_f298_b6de_36c6),
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

fn digest(game: Game, mode: Mode) -> u64 {
    let mut config = PipelineConfig {
        upper_bound: mode.upper_bound,
        warp_slots: mode.warp_slots,
        ..PipelineConfig::default()
    };
    config.hierarchy.prefetch_next_line = mode.prefetch_next_line;
    config.hierarchy.replacement = mode.replacement;
    if let Some((sets, ways)) = mode.l1 {
        config.hierarchy.l1 = CacheConfig {
            size_bytes: sets * ways as u64 * 64,
            ways,
            ..CacheConfig::texture_l1()
        };
    }
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
                .map(move |&mode| (game.alias(), mode.name, digest(game, mode)))
        })
        .collect();
    assert_eq!(got, GOLDEN);
}
