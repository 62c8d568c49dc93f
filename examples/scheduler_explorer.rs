//! Explore the whole scheduling design space on one game: every quad
//! grouping × tile order × assignment mode, reporting L2 accesses, load
//! balance and FPS under both barrier modes.
//!
//! ```text
//! cargo run --release --example scheduler_explorer [game-alias]
//! ```

use dtexl::CLOCK_HZ;
use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::{AssignMode, QuadGrouping, ScheduleConfig, TileOrder};

const W: u32 = 980;
const H: u32 = 384;

fn main() {
    let alias = std::env::args().nth(1).unwrap_or_else(|| "TRu".into());
    let game = Game::ALL
        .into_iter()
        .find(|g| g.alias().eq_ignore_ascii_case(&alias))
        .unwrap_or(Game::TempleRun);
    let scene = game.scene(&SceneSpec::new(W, H, 0));
    let config = PipelineConfig::default();

    println!(
        "Scheduler design space for {} at {W}x{H} (half resolution)\n",
        game.alias()
    );
    println!(
        "{:38} {:>10} {:>8} {:>9} {:>9}",
        "schedule", "L2 acc", "dev %", "fps(cpl)", "fps(dec)"
    );

    let orders = [
        TileOrder::Scanline,
        TileOrder::SOrder,
        TileOrder::ZOrder,
        TileOrder::HILBERT8,
        TileOrder::Spiral,
    ];
    let modes = [AssignMode::Const, AssignMode::Flip1, AssignMode::Flip2];
    let groupings = [
        QuadGrouping::FgXShift2,
        QuadGrouping::CgYRect,
        QuadGrouping::CgSquare,
    ];

    let mut best: Option<(String, f64)> = None;
    for grouping in groupings {
        for order in orders {
            for assignment in modes {
                let sched = ScheduleConfig {
                    grouping,
                    order,
                    assignment,
                };
                let r = FrameSim::try_run(&scene, &sched, &config, W, H)
                    .expect("generated scene is valid");
                let fps_c = CLOCK_HZ / r.total_cycles(BarrierMode::Coupled) as f64;
                let fps_d = CLOCK_HZ / r.total_cycles(BarrierMode::Decoupled) as f64;
                println!(
                    "{:38} {:>10} {:>8.1} {:>9.1} {:>9.1}",
                    sched.label(),
                    r.total_l2_accesses(),
                    r.mean_quad_deviation(),
                    fps_c,
                    fps_d,
                );
                if best.as_ref().is_none_or(|(_, f)| fps_d > *f) {
                    best = Some((sched.label(), fps_d));
                }
            }
        }
        println!();
    }
    if let Some((label, fps)) = best {
        println!("Best decoupled configuration: {label} at {fps:.1} fps");
    }
}
