//! Ablation benches for the design choices called out in DESIGN.md §6.
//!
//! Each bench measures the end-to-end frame simulation under one knob
//! setting and prints the resulting DTexL speedup so `cargo bench`
//! output doubles as an ablation record (the full-resolution ablation
//! tables come from `figures ablations`).

use criterion::{criterion_group, criterion_main, Criterion};
use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::{ScheduleConfig, TileOrder};
use std::hint::black_box;

const W: u32 = 256;
const H: u32 = 128;

fn speedup(scene: &dtexl_scene::Scene, cfg: &PipelineConfig, dtexl: &ScheduleConfig) -> f64 {
    let base = FrameSim::try_run(scene, &ScheduleConfig::baseline(), cfg, W, H).unwrap();
    let dt = FrameSim::try_run(scene, dtexl, cfg, W, H).unwrap();
    base.total_cycles(BarrierMode::Coupled) as f64 / dt.total_cycles(BarrierMode::Decoupled) as f64
}

fn bench_warp_slots(c: &mut Criterion) {
    let scene = Game::GravityTetris.scene(&SceneSpec::new(W, H, 0));
    let mut g = c.benchmark_group("ablation_warp_slots");
    for slots in [4usize, 12, 48] {
        let cfg = PipelineConfig {
            warp_slots: slots,
            ..PipelineConfig::default()
        };
        eprintln!(
            "ablation warp_slots={slots}: DTexL speedup {:.3}",
            speedup(&scene, &cfg, &ScheduleConfig::dtexl())
        );
        g.bench_function(format!("warps_{slots}"), |b| {
            b.iter(|| black_box(speedup(&scene, &cfg, &ScheduleConfig::dtexl())));
        });
    }
    g.finish();
}

fn bench_l1_size(c: &mut Criterion) {
    let scene = Game::GravityTetris.scene(&SceneSpec::new(W, H, 0));
    let mut g = c.benchmark_group("ablation_l1_size");
    for kib in [8u64, 16, 64] {
        let mut cfg = PipelineConfig::default();
        cfg.hierarchy.l1.size_bytes = kib * 1024;
        eprintln!(
            "ablation l1={kib}KiB: DTexL speedup {:.3}",
            speedup(&scene, &cfg, &ScheduleConfig::dtexl())
        );
        g.bench_function(format!("l1_{kib}kib"), |b| {
            b.iter(|| black_box(speedup(&scene, &cfg, &ScheduleConfig::dtexl())));
        });
    }
    g.finish();
}

fn bench_hilbert_subframe(c: &mut Criterion) {
    let scene = Game::GravityTetris.scene(&SceneSpec::new(W, H, 0));
    let cfg = PipelineConfig::default();
    let mut g = c.benchmark_group("ablation_hilbert_subframe");
    for sub in [4u32, 8] {
        let sched = ScheduleConfig {
            order: TileOrder::Hilbert { sub },
            ..ScheduleConfig::dtexl()
        };
        eprintln!(
            "ablation hilbert sub={sub}: DTexL speedup {:.3}",
            speedup(&scene, &cfg, &sched)
        );
        g.bench_function(format!("sub_{sub}"), |b| {
            b.iter(|| black_box(speedup(&scene, &cfg, &sched)));
        });
    }
    g.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_warp_slots, bench_l1_size, bench_hilbert_subframe,
}
criterion_main!(ablations);
