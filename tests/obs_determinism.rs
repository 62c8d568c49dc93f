//! Determinism of the observability event streams.
//!
//! The probes (`dtexl-obs`) record sim-time events only: raster stats
//! while tiles are binned, memory counters per fragment subtile, and
//! busy/wait spans when frame time is composed from `StageDurations`.
//! These tests pin the *entire* probed event stream with golden
//! digests across games, hierarchy modes, schedules and a ragged
//! resolution, plus a golden stall-attribution table for one small
//! scene.
//!
//! If an intentional model change moves the goldens, re-baseline via
//! `dtexl profile --game GTr --res 96x64 --csv` and re-check
//! EXPERIMENTS.md as with tests/calibration_golden.rs.

use dtexl::obs::EventSink;
use dtexl::profile::FrameProfile;
use dtexl::SimConfig;
use dtexl_mem::ReplacementKind;
use dtexl_pipeline::{BarrierMode, FramePrefix, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::{NamedMapping, ScheduleConfig};

/// `(name, prefetch_next_line, upper_bound, replacement)` — the
/// hierarchy modes of `tests/leg_golden.rs`.
const MODES: [(&str, bool, bool, ReplacementKind); 6] = [
    ("lru", false, false, ReplacementKind::Lru),
    ("lru+prefetch", true, false, ReplacementKind::Lru),
    ("upper", false, true, ReplacementKind::Lru),
    ("upper+prefetch", true, true, ReplacementKind::Lru),
    ("fifo", false, false, ReplacementKind::Fifo),
    ("random+prefetch", true, false, ReplacementKind::Random),
];

const GAMES: [Game; 3] = [Game::CandyCrush, Game::SonicDash, Game::GravityTetris];

/// 96×64 tiles evenly; 100×50 is ragged in both axes, so edge tiles
/// are partial and the subtile split is maximally irregular.
const RESOLUTIONS: [(u32, u32); 2] = [(96, 64), (100, 50)];

/// `(game, mode, resolution, digest)`, generated from the simulator
/// while probed runs still took a separate trace-and-replay path.
const GOLDEN: [(&str, &str, &str, u64); 36] = [
    ("CCS", "lru", "96x64", 0xfd50_cd9f_57ad_b37a),
    ("CCS", "lru", "100x50", 0x18bb_57f9_e887_fdae),
    ("CCS", "lru+prefetch", "96x64", 0x5a66_2c5e_9b50_daec),
    ("CCS", "lru+prefetch", "100x50", 0xda5b_214a_c7de_0a62),
    ("CCS", "upper", "96x64", 0xe40d_b4fd_2787_f852),
    ("CCS", "upper", "100x50", 0x03b4_2155_ef32_c6fc),
    ("CCS", "upper+prefetch", "96x64", 0x052d_6f04_cf35_217e),
    ("CCS", "upper+prefetch", "100x50", 0xce4c_6f89_d319_5c42),
    ("CCS", "fifo", "96x64", 0x1927_03cd_b779_12f2),
    ("CCS", "fifo", "100x50", 0x542a_d22b_618c_1ac1),
    ("CCS", "random+prefetch", "96x64", 0x618b_86a8_2685_b7aa),
    ("CCS", "random+prefetch", "100x50", 0xad90_2168_4797_4c78),
    ("SoD", "lru", "96x64", 0x98a4_b013_683b_7062),
    ("SoD", "lru", "100x50", 0x75f6_066d_795a_1f9b),
    ("SoD", "lru+prefetch", "96x64", 0xd416_7914_110d_722d),
    ("SoD", "lru+prefetch", "100x50", 0xec1c_73cf_09cb_4500),
    ("SoD", "upper", "96x64", 0x909d_95ed_278c_481a),
    ("SoD", "upper", "100x50", 0x0147_aed6_1088_a764),
    ("SoD", "upper+prefetch", "96x64", 0xe6d1_459f_b1f8_f6ee),
    ("SoD", "upper+prefetch", "100x50", 0x1566_97aa_0c5d_7dca),
    ("SoD", "fifo", "96x64", 0x0b8c_052d_8bcc_2fd2),
    ("SoD", "fifo", "100x50", 0x5a2c_76ba_b863_1e04),
    ("SoD", "random+prefetch", "96x64", 0x367e_837e_b4e6_8dbb),
    ("SoD", "random+prefetch", "100x50", 0x3dcd_24f7_8e5e_fbb0),
    ("GTr", "lru", "96x64", 0x8dff_a5ba_49a8_57a5),
    ("GTr", "lru", "100x50", 0x07c0_7044_a646_ec20),
    ("GTr", "lru+prefetch", "96x64", 0xe267_62e8_4200_2855),
    ("GTr", "lru+prefetch", "100x50", 0xa6fb_3606_1482_30b5),
    ("GTr", "upper", "96x64", 0xcc0d_6fbb_01da_3a8a),
    ("GTr", "upper", "100x50", 0x62a7_87dd_a6db_7567),
    ("GTr", "upper+prefetch", "96x64", 0x4dae_20a5_755e_733e),
    ("GTr", "upper+prefetch", "100x50", 0x8788_63b6_f609_6525),
    ("GTr", "fifo", "96x64", 0xcab7_14cc_50a1_d785),
    ("GTr", "fifo", "100x50", 0xe687_ac88_7075_fd3c),
    ("GTr", "random+prefetch", "96x64", 0x3912_e6e8_c166_797b),
    ("GTr", "random+prefetch", "100x50", 0x9e8a_258e_2de0_ecb4),
];

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One digest per (game, mode, resolution) over the nine distinct
/// `dtexl list` presets: the full probed event stream, the hierarchy
/// and shader statistics and the frame totals under both barrier
/// modes.
fn probed_digest(game: Game, mode: (&str, bool, bool, ReplacementKind), w: u32, h: u32) -> u64 {
    let (_, prefetch_next_line, upper_bound, replacement) = mode;
    let mut config = PipelineConfig {
        upper_bound,
        ..PipelineConfig::default()
    };
    config.hierarchy.prefetch_next_line = prefetch_next_line;
    config.hierarchy.replacement = replacement;
    let scene = game.scene(&SceneSpec::new(w, h, 0));
    let prefix = FramePrefix::build(&scene, &config, w, h).expect("valid scene");
    let mut presets = vec![ScheduleConfig::baseline()];
    presets.extend(NamedMapping::FIG16.iter().map(|m| m.config()));
    presets
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, schedule| {
            let mut sink = EventSink::new();
            let r = FrameSim::try_run_prefixed_probed(&prefix, schedule, &config, &mut sink)
                .expect("valid scene");
            assert_eq!(sink.dropped(), 0);
            let text = format!(
                "{:?} {:?} {:?} {} {}",
                sink.to_vec(),
                r.hierarchy,
                r.shader,
                r.total_cycles(BarrierMode::Coupled),
                r.total_cycles(BarrierMode::Decoupled),
            );
            fnv1a(hash, text.as_bytes())
        })
}

#[test]
fn probed_event_streams_are_golden() {
    let got: Vec<(&str, &str, String, u64)> = GAMES
        .iter()
        .flat_map(|&game| {
            MODES.iter().flat_map(move |&mode| {
                RESOLUTIONS.iter().map(move |&(w, h)| {
                    (
                        game.alias(),
                        mode.0,
                        format!("{w}x{h}"),
                        probed_digest(game, mode, w, h),
                    )
                })
            })
        })
        .collect();
    let want: Vec<(&str, &str, String, u64)> = GOLDEN
        .iter()
        .map(|&(game, mode, res, digest)| (game, mode, res.to_string(), digest))
        .collect();
    assert_eq!(got, want);
}

/// Golden stall attribution for GTr at 96x64 under the DTexL schedule.
/// Exact sim-time cycle totals per unit; `d-barrier` is structurally
/// zero under pure decoupled composition. Re-baselined together with
/// `tests/calibration_golden.rs` (line-aligned texture bases and the
/// libm-free trig module — see that file's header).
#[test]
fn golden_stall_attribution_for_gtr_96x64() {
    let cfg = SimConfig::dtexl(Game::GravityTetris).with_resolution(96, 64);
    let p = FrameProfile::capture(&cfg).expect("valid config");
    assert_eq!(p.coupled_cycles, 133_807);
    assert_eq!(p.decoupled_cycles, 106_462);
    assert_eq!(p.dropped, 0);

    let t = p.stall_table();
    let cell = |row: &str, col: &str| {
        t.get(row, col)
            .unwrap_or_else(|| panic!("missing cell {row}/{col}")) as u64
    };
    assert_eq!(cell("fetch", "busy"), 2_520);
    assert_eq!(cell("raster", "busy"), 2_173);
    assert_eq!(cell("early_z/SC0", "busy"), 3_126);
    assert_eq!(cell("fragment/SC0", "busy"), 105_406);
    assert_eq!(cell("fragment/SC1", "c-barrier"), 77_927);
    assert_eq!(cell("fragment/SC3", "busy"), 85_194);
    assert_eq!(cell("blend/SC2", "c-upstream"), 130_825);
    assert_eq!(cell("blend/SC1", "d-upstream"), 54_227);
    for sc in 0..4 {
        for stage in ["early_z", "fragment", "blend"] {
            assert_eq!(
                cell(&format!("{stage}/SC{sc}"), "d-barrier"),
                0,
                "pure decoupled composition never blocks {stage}/SC{sc} at a barrier"
            );
        }
    }

    // The trace spans are self-consistent with the table: summed
    // fragment busy spans equal the table's fragment busy row total.
    let table_busy: u64 = (0..4)
        .map(|sc| cell(&format!("fragment/SC{sc}"), "busy"))
        .sum();
    let span_busy: u64 = p
        .coupled
        .iter()
        .filter(|s| s.stage == dtexl::obs::Stage::Fragment && s.kind == dtexl::obs::SpanKind::Busy)
        .map(dtexl::obs::Span::cycles)
        .sum();
    assert_eq!(table_busy, span_busy);
}

/// Per-track timestamps in the exported trace are monotonic: spans on
/// one (pid, stage, sc) track never overlap, under either composition.
#[test]
fn trace_tracks_are_monotonic() {
    let cfg = SimConfig::dtexl(Game::GravityTetris).with_resolution(96, 64);
    let p = FrameProfile::capture(&cfg).expect("valid config");
    for spans in [&p.coupled, &p.decoupled] {
        let mut last: std::collections::BTreeMap<(dtexl::obs::Stage, u8), u64> =
            std::collections::BTreeMap::new();
        for s in spans {
            let prev = last.entry((s.stage, s.sc)).or_insert(0);
            assert!(
                s.start >= *prev && s.end >= s.start,
                "span regresses on track {:?}/SC{}: [{}, {}) after {}",
                s.stage,
                s.sc,
                s.start,
                s.end,
                prev
            );
            *prev = s.end;
        }
    }
}
