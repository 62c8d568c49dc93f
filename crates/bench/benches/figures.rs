//! One criterion bench per reproduced table/figure.
//!
//! Each benchmark measures the simulation kernel behind the
//! corresponding figure at a reduced size, and the whole suite first
//! prints a reduced-size preview of every figure (the full-size tables
//! come from the `figures` binary).

use criterion::{criterion_group, criterion_main, Criterion};
use dtexl::experiments::Lab;
use dtexl::Distribution;
use dtexl_bench::bench_setup;
use dtexl_mem::energy::EnergyModel;
use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::{NamedMapping, QuadGrouping, ScheduleConfig, TileOrder};
use std::hint::black_box;
use std::sync::OnceLock;

const W: u32 = 256;
const H: u32 = 128;

fn scene(game: Game) -> dtexl_scene::Scene {
    game.scene(&SceneSpec::new(W, H, 0))
}

fn run(scene: &dtexl_scene::Scene, sched: &ScheduleConfig) -> dtexl_pipeline::FrameResult {
    FrameSim::try_run(scene, sched, &PipelineConfig::default(), W, H).unwrap()
}

fn grouping_sched(g: QuadGrouping) -> ScheduleConfig {
    ScheduleConfig {
        grouping: g,
        order: TileOrder::ZOrder,
        assignment: dtexl_sched::AssignMode::Const,
    }
}

/// Print the reduced-size preview of every figure exactly once.
fn print_preview() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let lab = Lab::new(bench_setup());
        eprintln!("# Reduced-size figure preview (512x256, 3 games)");
        for t in lab.all_figures() {
            eprintln!("{}", t.render());
        }
    });
}

fn bench_table1_workloads(c: &mut Criterion) {
    print_preview();
    c.bench_function("table1_workloads", |b| {
        b.iter(|| {
            for game in Game::ALL {
                black_box(scene(game).triangle_count());
            }
        });
    });
}

fn bench_fig01_load_balance(c: &mut Criterion) {
    let s = scene(Game::GravityTetris);
    c.bench_function("fig01_load_balance", |b| {
        b.iter(|| black_box(run(&s, &ScheduleConfig::baseline()).mean_quad_deviation()));
    });
}

fn bench_fig02_l2_accesses(c: &mut Criterion) {
    let s = scene(Game::GravityTetris);
    c.bench_function("fig02_l2_accesses", |b| {
        b.iter(|| black_box(run(&s, &grouping_sched(QuadGrouping::CgSquare)).total_l2_accesses()));
    });
}

fn bench_fig11_groupings_l2(c: &mut Criterion) {
    let s = scene(Game::TempleRun);
    let mut g = c.benchmark_group("fig11_groupings_l2");
    for grouping in [
        QuadGrouping::FgXShift2,
        QuadGrouping::CgSquare,
        QuadGrouping::CgTri,
    ] {
        g.bench_function(grouping.name(), |b| {
            b.iter(|| black_box(run(&s, &grouping_sched(grouping)).total_l2_accesses()));
        });
    }
    g.finish();
}

fn bench_fig12_groupings_balance(c: &mut Criterion) {
    let s = scene(Game::TempleRun);
    c.bench_function("fig12_groupings_balance", |b| {
        b.iter(|| black_box(run(&s, &grouping_sched(QuadGrouping::CgYRect)).mean_quad_deviation()));
    });
}

fn bench_fig13_coupled_speedup(c: &mut Criterion) {
    let s = scene(Game::CandyCrush);
    c.bench_function("fig13_coupled_speedup", |b| {
        b.iter(|| {
            let base = run(&s, &ScheduleConfig::baseline());
            let cg = run(&s, &grouping_sched(QuadGrouping::CgSquare));
            black_box(
                base.total_cycles(BarrierMode::Coupled) as f64
                    / cg.total_cycles(BarrierMode::Coupled) as f64,
            )
        });
    });
}

fn bench_fig14_time_imbalance(c: &mut Criterion) {
    let s = scene(Game::TempleRun);
    let r = run(&s, &grouping_sched(QuadGrouping::CgSquare));
    c.bench_function("fig14_time_imbalance", |b| {
        b.iter(|| black_box(Distribution::from_samples(&r.time_deviation_samples())));
    });
}

fn bench_fig15_quad_imbalance(c: &mut Criterion) {
    let s = scene(Game::TempleRun);
    let r = run(&s, &grouping_sched(QuadGrouping::CgSquare));
    c.bench_function("fig15_quad_imbalance", |b| {
        b.iter(|| black_box(Distribution::from_samples(&r.quad_deviation_samples())));
    });
}

fn bench_fig16_subtile_l2(c: &mut Criterion) {
    let s = scene(Game::GravityTetris);
    let mut g = c.benchmark_group("fig16_subtile_l2");
    for mapping in [
        NamedMapping::ZorderConst,
        NamedMapping::HilbertFlip2,
        NamedMapping::SorderFlip,
    ] {
        g.bench_function(mapping.name(), |b| {
            b.iter(|| black_box(run(&s, &mapping.config()).total_l2_accesses()));
        });
    }
    g.finish();
}

fn bench_fig17_dtexl_speedup(c: &mut Criterion) {
    let s = scene(Game::GravityTetris);
    let base = run(&s, &ScheduleConfig::baseline());
    let dtexl = run(&s, &ScheduleConfig::dtexl());
    // The composition itself is the kernel here: the same functional
    // pass serves both barrier modes.
    c.bench_function("fig17_dtexl_speedup", |b| {
        b.iter(|| {
            black_box(
                base.total_cycles(BarrierMode::Coupled) as f64
                    / dtexl.total_cycles(BarrierMode::Decoupled) as f64,
            )
        });
    });
}

fn bench_fig18_energy(c: &mut Criterion) {
    let s = scene(Game::GravityTetris);
    let r = run(&s, &ScheduleConfig::dtexl());
    let model = EnergyModel::default();
    c.bench_function("fig18_energy", |b| {
        b.iter(|| {
            black_box(
                model
                    .evaluate(&r.energy_events(BarrierMode::Decoupled))
                    .total_pj(),
            )
        });
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets =
        bench_table1_workloads,
        bench_fig01_load_balance,
        bench_fig02_l2_accesses,
        bench_fig11_groupings_l2,
        bench_fig12_groupings_balance,
        bench_fig13_coupled_speedup,
        bench_fig14_time_imbalance,
        bench_fig15_quad_imbalance,
        bench_fig16_subtile_l2,
        bench_fig17_dtexl_speedup,
        bench_fig18_energy,
}
criterion_main!(figures);
