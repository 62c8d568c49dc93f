//! Regenerate every table and figure of the DTexL paper.
//!
//! ```text
//! figures [--quick] [--csv DIR] [--frame N] [--avg-frames N] [ids...]
//!
//!   --quick     quarter resolution, three games (fast smoke run)
//!   --csv DIR   additionally write each table as DIR/<id>.csv
//!   --frame N   first animation frame to evaluate (default 0)
//!   --avg-frames N  average each table over N consecutive frames
//!   ids         subset to regenerate: table1 table2 replication fig1
//!               fig2 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18
//!               ablations
//!               (default: everything except ablations)
//! ```
//!
//! The full run (default) uses the Table II configuration — 1960×768,
//! ten games — and takes a couple of minutes on a laptop.
//!
//! The ablation sweeps run through the fault-tolerant lab
//! ([`Lab::try_ensure`] / [`Lab::try_result`]): a configuration the
//! simulator rejects becomes a `NaN` cell plus a `[gap]` note on
//! stderr, and the remaining ablations still run to completion.

use dtexl::experiments::{Lab, Setup};
use dtexl::report;
use dtexl::sweep::SweepOptions;
use dtexl::{Table, CLOCK_HZ};
use dtexl_pipeline::{BarrierMode, FrameSim, PipelineConfig};
use dtexl_scene::{Game, SceneSpec};
use dtexl_sched::{ScheduleConfig, TileOrder};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let frame: u32 = args
        .iter()
        .position(|a| a == "--frame")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let avg_frames: u32 = args
        .iter()
        .position(|a| a == "--avg-frames")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    let csv_dir: Option<std::path::PathBuf> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from);
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("create --csv directory");
    }
    let mut skip_next = false;
    let ids: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--csv" || *a == "--frame" || *a == "--avg-frames" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    let all = ids.is_empty();
    let want = |id: &str| all || ids.contains(&id);

    let mut setup = if quick {
        quick_setup()
    } else {
        Setup::table2()
    };
    setup.frame = frame;
    eprintln!(
        "# DTexL figure regeneration — {}x{}, {} games, {} threads, {} frame(s) from {}",
        setup.width,
        setup.height,
        setup.games.len(),
        setup.threads,
        avg_frames,
        frame,
    );
    // One lab per animation frame; tables are averaged cell-wise.
    let labs: Vec<Lab> = (0..avg_frames)
        .map(|f| {
            let mut s = setup.clone();
            s.frame = frame + f;
            Lab::new(s)
        })
        .collect();

    if want("table2") || all {
        println!("{}", report::table2_text(&PipelineConfig::default()));
    }
    type FigFn = fn(&Lab) -> Table;
    let run_fig = |f: FigFn| -> Table {
        if labs.len() == 1 {
            f(&labs[0])
        } else {
            let per_frame: Vec<Table> = labs.iter().map(f).collect();
            Table::average(&per_frame)
        }
    };
    let figs: [(&str, FigFn); 12] = [
        ("table1", Lab::table1),
        ("replication", Lab::replication_table),
        ("fig1", Lab::fig1),
        ("fig2", Lab::fig2),
        ("fig11", Lab::fig11),
        ("fig12", Lab::fig12),
        ("fig13", Lab::fig13),
        ("fig14", Lab::fig14),
        ("fig15", Lab::fig15),
        ("fig16", Lab::fig16),
        ("fig17", Lab::fig17),
        ("fig18", Lab::fig18),
    ];
    for (id, f) in figs {
        if want(id) {
            let t0 = std::time::Instant::now();
            let table = run_fig(f);
            println!("{}", table.render());
            if let Some(dir) = &csv_dir {
                let path = dir.join(format!("{id}.csv"));
                std::fs::write(&path, table.to_csv()).expect("write csv");
                eprintln!("[wrote {}]", path.display());
            }
            eprintln!("[{id} in {:?}]", t0.elapsed());
        }
    }

    if want("ablations") && !all {
        ablations(quick);
    }
}

/// Record an ablation cell the simulator refused: `NaN` in the table,
/// a note on stderr, and the sweep moves on.
fn gap(table_id: &str, label: &str, err: &dyn std::fmt::Display) -> f64 {
    eprintln!("[gap] {table_id}/{label}: {err}");
    f64::NAN
}

/// Ablations of DESIGN.md §6: sensitivity of the headline result to the
/// design knobs.
///
/// Each pipeline-configuration cell is evaluated through a
/// fault-tolerant [`Lab`] ([`Lab::try_result`], backed by
/// [`Lab::try_ensure`]'s sweep isolation), so one bad configuration in
/// a knob sweep degrades to a reported gap instead of aborting the
/// run. Scene- and schedule-mutating cells use
/// [`FrameSim::try_run`] with the same policy.
fn ablations(quick: bool) {
    let (w, h) = if quick { (512, 256) } else { (1960, 768) };
    let game = Game::GravityTetris;
    let scene = game.scene(&SceneSpec::new(w, h, 0));
    let setup = Setup {
        width: w,
        height: h,
        games: vec![game],
        ..Setup::quick()
    };
    let opts = SweepOptions {
        keep_going: true,
        ..SweepOptions::default()
    };

    // Coupled-baseline over decoupled-DTexL speedup for one pipeline
    // configuration, isolated per cell.
    let speedup = |table_id: &str, label: &str, cfg: &PipelineConfig| -> f64 {
        let lab = Lab::with_pipeline(setup.clone(), *cfg);
        let base = lab.try_result(game, ScheduleConfig::baseline(), false, &opts);
        let dt = lab.try_result(game, ScheduleConfig::dtexl(), false, &opts);
        match (base, dt) {
            (Ok(b), Ok(d)) => {
                b.total_cycles(BarrierMode::Coupled) as f64
                    / d.total_cycles(BarrierMode::Decoupled) as f64
            }
            (Err(e), _) | (_, Err(e)) => gap(table_id, label, &e),
        }
    };

    let mut t = Table::new(
        "ablation-warps",
        format!("DTexL speedup vs warp slots ({game})"),
        vec!["speedup".into()],
    );
    for slots in [4usize, 8, 12, 24, 48] {
        let cfg = PipelineConfig {
            warp_slots: slots,
            ..PipelineConfig::default()
        };
        let label = format!("{slots} warps");
        let v = speedup("ablation-warps", &label, &cfg);
        t.push_row(label, vec![v]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "ablation-l1",
        format!("DTexL speedup vs private L1 size ({game})"),
        vec!["speedup".into()],
    );
    for kib in [8u64, 16, 32, 64] {
        let mut cfg = PipelineConfig::default();
        cfg.hierarchy.l1.size_bytes = kib * 1024;
        let label = format!("{kib} KiB");
        let v = speedup("ablation-l1", &label, &cfg);
        t.push_row(label, vec![v]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "ablation-hilbert",
        format!("DTexL FPS vs Hilbert sub-frame side ({game})"),
        vec!["fps".into()],
    );
    for sub in [4u32, 8, 16] {
        let sched = ScheduleConfig {
            order: TileOrder::Hilbert { sub },
            ..ScheduleConfig::dtexl()
        };
        let lab = Lab::new(setup.clone());
        let label = format!("sub {sub}");
        let v = match lab.try_result(game, sched, false, &opts) {
            Ok(r) => CLOCK_HZ / r.total_cycles(BarrierMode::Decoupled) as f64,
            Err(e) => gap("ablation-hilbert", &label, &e),
        };
        t.push_row(label, vec![v]);
    }
    println!("{}", t.render());

    let mut t = Table::new(
        "ablation-fill",
        format!("DTexL speedup vs L1 miss fill cost ({game})"),
        vec!["speedup".into()],
    );
    for fill in [0u32, 5, 10, 20] {
        let cfg = PipelineConfig {
            l1_miss_fill_cycles: fill,
            ..PipelineConfig::default()
        };
        let label = format!("{fill} cycles");
        let v = speedup("ablation-fill", &label, &cfg);
        t.push_row(label, vec![v]);
    }
    println!("{}", t.render());

    // Bounded decoupling: how much run-ahead credit the decoupled
    // pipeline needs before it matches the paper's unbounded proposal.
    // Composition-only, so this reuses a single functional pass.
    let mut t = Table::new(
        "ablation-credit",
        format!("DTexL speedup vs run-ahead credit ({game})"),
        vec!["speedup".into()],
    );
    {
        let lab = Lab::new(setup.clone());
        let base = lab.try_result(game, ScheduleConfig::baseline(), false, &opts);
        let dt = lab.try_result(game, ScheduleConfig::dtexl(), false, &opts);
        match (base, dt) {
            (Ok(base), Ok(dt)) => {
                let coupled = base.total_cycles(BarrierMode::Coupled) as f64;
                for ahead in [0u32, 1, 2, 4, 16] {
                    let mode = BarrierMode::DecoupledBounded { tiles_ahead: ahead };
                    t.push_row(
                        format!("credit {ahead}"),
                        vec![coupled / dt.total_cycles(mode) as f64],
                    );
                }
                t.push_row(
                    "unbounded",
                    vec![coupled / dt.total_cycles(BarrierMode::Decoupled) as f64],
                );
            }
            (Err(e), _) | (_, Err(e)) => {
                let v = gap("ablation-credit", "all credits", &e);
                for ahead in [0u32, 1, 2, 4, 16] {
                    t.push_row(format!("credit {ahead}"), vec![v]);
                }
                t.push_row("unbounded", vec![v]);
            }
        }
    }
    println!("{}", t.render());

    // Texture layout: Morton tiling vs linear scanlines. Linear lines
    // are 16×1 texel strips, so less 2-D locality is schedulable.
    // The scene itself is relaid out, which a game-keyed lab cannot
    // express — these cells run the fallible simulator directly.
    let mut t = Table::new(
        "ablation-layout",
        format!("CG-square L2 ratio vs texel layout ({game})"),
        vec!["CG/FG L2 ratio".into()],
    );
    for (name, layout) in [
        ("Morton", dtexl::texture::TexelLayout::Morton),
        ("RowMajor", dtexl::texture::TexelLayout::RowMajor),
    ] {
        let s = scene.relayout(layout);
        let cfg = PipelineConfig::default();
        let fg = FrameSim::try_run(&s, &ScheduleConfig::baseline(), &cfg, w, h);
        let cg = FrameSim::try_run(&s, &ScheduleConfig::dtexl(), &cfg, w, h);
        let v = match (fg, cg) {
            (Ok(fg), Ok(cg)) => cg.hierarchy.l2.accesses as f64 / fg.hierarchy.l2.accesses as f64,
            (Err(e), _) | (_, Err(e)) => gap("ablation-layout", name, &e),
        };
        t.push_row(name, vec![v]);
    }
    println!("{}", t.render());

    // Next-line prefetching (related-work interaction): does a simple
    // prefetcher already capture what DTexL captures?
    let mut t = Table::new(
        "ablation-prefetch",
        format!("Prefetch × scheduler interaction ({game})"),
        vec!["speedup vs base".into(), "L2 accesses".into()],
    );
    for (name, prefetch, sched) in [
        ("FG, no prefetch", false, ScheduleConfig::baseline()),
        ("FG + prefetch", true, ScheduleConfig::baseline()),
        ("DTexL, no prefetch", false, ScheduleConfig::dtexl()),
        ("DTexL + prefetch", true, ScheduleConfig::dtexl()),
    ] {
        let mut cfg = PipelineConfig::default();
        cfg.hierarchy.prefetch_next_line = prefetch;
        let base_lab = Lab::new(setup.clone());
        let lab = Lab::with_pipeline(setup.clone(), cfg);
        let base = base_lab.try_result(game, ScheduleConfig::baseline(), false, &opts);
        let r = lab.try_result(game, sched, false, &opts);
        // FG rows stay coupled (the paper's baseline pipeline);
        // DTexL rows use its decoupled barriers.
        let mode = if sched == ScheduleConfig::baseline() {
            BarrierMode::Coupled
        } else {
            BarrierMode::Decoupled
        };
        let (sp, l2) = match (base, r) {
            (Ok(base), Ok(r)) => (
                base.total_cycles(BarrierMode::Coupled) as f64 / r.total_cycles(mode) as f64,
                r.total_l2_accesses() as f64,
            ),
            (Err(e), _) | (_, Err(e)) => {
                let v = gap("ablation-prefetch", name, &e);
                (v, v)
            }
        };
        t.push_row(name, vec![sp, l2]);
    }
    println!("{}", t.render());

    // Replacement policy: DTexL's gain is not an LRU artifact.
    let mut t = Table::new(
        "ablation-replacement",
        format!("DTexL speedup vs cache replacement policy ({game})"),
        vec!["speedup".into(), "L2 decrease %".into()],
    );
    for (name, kind) in [
        ("LRU", dtexl::mem::ReplacementKind::Lru),
        ("FIFO", dtexl::mem::ReplacementKind::Fifo),
        ("Random", dtexl::mem::ReplacementKind::Random),
    ] {
        let mut cfg = PipelineConfig::default();
        cfg.hierarchy.replacement = kind;
        let lab = Lab::with_pipeline(setup.clone(), cfg);
        let base = lab.try_result(game, ScheduleConfig::baseline(), false, &opts);
        let dt = lab.try_result(game, ScheduleConfig::dtexl(), false, &opts);
        let (sp, dec) = match (base, dt) {
            (Ok(base), Ok(dt)) => (
                base.total_cycles(BarrierMode::Coupled) as f64
                    / dt.total_cycles(BarrierMode::Decoupled) as f64,
                100.0 * (1.0 - dt.total_l2_accesses() as f64 / base.total_l2_accesses() as f64),
            ),
            (Err(e), _) | (_, Err(e)) => {
                let v = gap("ablation-replacement", name, &e);
                (v, v)
            }
        };
        t.push_row(name, vec![sp, dec]);
    }
    println!("{}", t.render());

    // Late-Z pressure: how the speedup behaves when a fraction of the
    // shading can no longer be early-culled. Scene-mutating, so the
    // cells run the fallible simulator directly.
    let mut t = Table::new(
        "ablation-latez",
        format!("DTexL speedup vs late-Z draw fraction ({game})"),
        vec!["speedup".into()],
    );
    for pct in [0u32, 25, 50, 100] {
        let mut s = scene.clone();
        for (i, d) in s.draws.iter_mut().enumerate() {
            if (i as u32 * 100 / s_len(&scene)) < pct {
                d.depth_mode = dtexl_scene::DepthMode::Late;
            }
        }
        let cfg = PipelineConfig::default();
        let label = format!("{pct}% late-Z");
        let v =
            try_speedup_scene(&s, &cfg, w, h).unwrap_or_else(|e| gap("ablation-latez", &label, &e));
        t.push_row(label, vec![v]);
    }
    println!("{}", t.render());
}

/// The `--quick` setup: 512x256 and three games spanning 2D/3D and
/// small/large texture footprints.
fn quick_setup() -> Setup {
    Setup {
        width: 512,
        height: 256,
        ..Setup::quick()
    }
}

fn s_len(scene: &dtexl_scene::Scene) -> u32 {
    scene.draws.len().max(1) as u32
}

fn try_speedup_scene(
    scene: &dtexl_scene::Scene,
    cfg: &PipelineConfig,
    w: u32,
    h: u32,
) -> Result<f64, dtexl_pipeline::SimError> {
    let base = FrameSim::try_run(scene, &ScheduleConfig::baseline(), cfg, w, h)?;
    let dt = FrameSim::try_run(scene, &ScheduleConfig::dtexl(), cfg, w, h)?;
    Ok(base.total_cycles(BarrierMode::Coupled) as f64
        / dt.total_cycles(BarrierMode::Decoupled) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_are_consistent() {
        let q = quick_setup();
        assert_eq!(q.games.len(), 3);
        assert!(q.width * q.height < 1960 * 768 / 4);
        let p = Setup::table2();
        assert_eq!((p.width, p.height), (1960, 768));
        assert_eq!(p.games.len(), 10);
    }
}
