//! Visualize what barrier decoupling does: per-tile fragment-stage
//! durations per shader core, and how the coupled vs decoupled
//! compositions differ on the same functional run.
//!
//! ```text
//! cargo run --release --example decoupled_demo
//! ```

use dtexl::report::tile_imbalance_heatmap;
use dtexl_pipeline::{compose_frame, BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::ScheduleConfig;

fn main() {
    let (w, h) = (512u32, 256u32);
    let scene = Game::TempleRun.scene(&SceneSpec::new(w, h, 0));
    let cfg = PipelineConfig::default();
    let r = FrameSim::try_run(&scene, &ScheduleConfig::dtexl(), &cfg, w, h)
        .expect("generated scene is valid");

    println!("{}", tile_imbalance_heatmap(&r));

    println!("Per-tile fragment durations (cycles) per SC, DTexL schedule, TRu {w}x{h}:\n");
    println!(
        "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "tile", "SC0", "SC1", "SC2", "SC3", "max/avg"
    );
    let mut shown = 0;
    for (i, t) in r.tiles.iter().enumerate() {
        let c = t.frag_cycles;
        let max = *c.iter().max().unwrap() as f64;
        let avg = c.iter().sum::<u64>() as f64 / 4.0;
        if avg > 0.0 && shown < 16 {
            println!(
                "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9.2}",
                i,
                c[0],
                c[1],
                c[2],
                c[3],
                max / avg
            );
            shown += 1;
        }
    }

    let coupled = compose_frame(&r.durations, BarrierMode::Coupled);
    let decoupled = compose_frame(&r.durations, BarrierMode::Decoupled);
    println!("\nRaster-phase composition of the SAME functional run:");
    println!("  coupled barriers   : {coupled:>12} cycles");
    println!("  decoupled barriers : {decoupled:>12} cycles");
    println!(
        "  decoupling recovers {:.1}% of the frame time",
        100.0 * (1.0 - decoupled as f64 / coupled as f64)
    );
    println!(
        "\nWhy: with per-tile barriers every stage waits for its slowest unit\n\
         each tile (the 'max/avg' column above); decoupling lets each unit\n\
         chain its own subtiles, amortizing the imbalance across the frame."
    );
}
