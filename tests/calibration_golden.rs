//! Golden regression values for the calibrated simulator.
//!
//! The whole stack is deterministic, so these exact numbers (at 512×256,
//! frame 0) must reproduce bit-for-bit. If an intentional change to the
//! generators, cache model or timing model moves them, re-baseline the
//! constants *and* re-run the full-resolution suite to confirm the
//! paper-shape targets in EXPERIMENTS.md still hold.
//!
//! Last re-baseline, two intentional changes:
//! * texture heap allocation now rounds each texture's base up to a
//!   cache-line boundary (the generator's old comment claimed
//!   footprints were already 64-byte multiples; the mip tail made that
//!   false) — line-aligned mip levels straddle fewer lines, so line
//!   counts, L2 traffic and cycle totals all dropped slightly;
//! * transforms and scene generation use `dtexl_gmath::trig` instead
//!   of libm sin/cos/tan, so these constants are now identical across
//!   build profiles (libm calls constant-fold against the *compiler's*
//!   math library under LTO, which drifted from the runtime libm by an
//!   ulp and silently forked debug and release metrics).

use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::ScheduleConfig;

const W: u32 = 512;
const H: u32 = 256;

struct Golden {
    game: Game,
    base_cycles: u64,
    base_l2: u64,
    quads_shaded: u64,
    dtexl_cycles: u64,
    dtexl_l2: u64,
}

const GOLDEN: [Golden; 3] = [
    Golden {
        game: Game::CandyCrush,
        base_cycles: 1_665_749,
        base_l2: 140_186,
        quads_shaded: 158_911,
        dtexl_cycles: 1_453_234,
        dtexl_l2: 56_043,
    },
    Golden {
        game: Game::TempleRun,
        base_cycles: 299_014,
        base_l2: 28_366,
        quads_shaded: 44_953,
        dtexl_cycles: 265_853,
        dtexl_l2: 17_692,
    },
    Golden {
        game: Game::GravityTetris,
        base_cycles: 375_588,
        base_l2: 50_610,
        quads_shaded: 49_976,
        dtexl_cycles: 311_550,
        dtexl_l2: 25_781,
    },
];

#[test]
fn calibrated_metrics_are_bit_stable() {
    for g in &GOLDEN {
        let scene = g.game.scene(&SceneSpec::new(W, H, 0));
        let cfg = PipelineConfig::default();
        let base = FrameSim::try_run(&scene, &ScheduleConfig::baseline(), &cfg, W, H).unwrap();
        let dtexl = FrameSim::try_run(&scene, &ScheduleConfig::dtexl(), &cfg, W, H).unwrap();
        let alias = g.game.alias();
        assert_eq!(
            base.total_cycles(BarrierMode::Coupled),
            g.base_cycles,
            "{alias} baseline cycles drifted"
        );
        assert_eq!(
            base.total_l2_accesses(),
            g.base_l2,
            "{alias} baseline L2 drifted"
        );
        assert_eq!(
            base.total_quads_shaded(),
            g.quads_shaded,
            "{alias} shaded quads drifted"
        );
        assert_eq!(
            dtexl.total_cycles(BarrierMode::Decoupled),
            g.dtexl_cycles,
            "{alias} DTexL cycles drifted"
        );
        assert_eq!(
            dtexl.total_l2_accesses(),
            g.dtexl_l2,
            "{alias} DTexL L2 drifted"
        );
    }
}

#[test]
fn golden_values_encode_the_paper_shape() {
    // Self-check on the constants: the recorded values themselves show
    // the headline effects.
    for g in &GOLDEN {
        let speedup = g.base_cycles as f64 / g.dtexl_cycles as f64;
        let l2_dec = 1.0 - g.dtexl_l2 as f64 / g.base_l2 as f64;
        assert!(
            (1.05..1.40).contains(&speedup),
            "{}: speedup {speedup}",
            g.game.alias()
        );
        assert!(
            (0.30..0.70).contains(&l2_dec),
            "{}: L2 decrease {l2_dec}",
            g.game.alias()
        );
    }
}
