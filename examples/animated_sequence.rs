//! Multi-frame simulation: average DTexL's gains over an animated
//! gameplay sequence, the way the paper's FPS numbers average over
//! real gameplay.
//!
//! ```text
//! cargo run --release --example animated_sequence [game-alias] [frames]
//! ```

use dtexl::{SimConfig, Simulator};
use dtexl_scene::Game;

fn main() {
    let alias = std::env::args().nth(1).unwrap_or_else(|| "SoD".into());
    let frames: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let game = Game::ALL
        .into_iter()
        .find(|g| g.alias().eq_ignore_ascii_case(&alias))
        .unwrap_or(Game::SonicDash);

    // Half resolution keeps an 8-frame sequence around a second.
    let base_cfg = SimConfig::baseline(game).with_resolution(980, 384);
    let dtexl_cfg = SimConfig::dtexl(game).with_resolution(980, 384);

    println!("Simulating {frames} frames of {}…\n", game.alias());
    let base = Simulator::simulate_sequence(&base_cfg, frames, 1);
    let dtexl = Simulator::simulate_sequence(&dtexl_cfg, frames, 1);

    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "frame", "base cyc", "DTexL cyc", "speedup"
    );
    for f in 0..base.frames() {
        println!(
            "{:>6} {:>12} {:>12} {:>8.3}x",
            f,
            base.cycles[f],
            dtexl.cycles[f],
            base.cycles[f] as f64 / dtexl.cycles[f] as f64
        );
    }
    println!(
        "\nsequence: {:.1} → {:.1} fps ({:.3}x), energy {:.3} → {:.3} mJ (−{:.1}%)",
        base.mean_fps(),
        dtexl.mean_fps(),
        dtexl.mean_fps() / base.mean_fps(),
        base.total_energy_mj(),
        dtexl.total_energy_mj(),
        100.0 * (1.0 - dtexl.total_energy_mj() / base.total_energy_mj()),
    );
}
