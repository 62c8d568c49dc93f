//! The traced run: host time and work counts per layer, from spans the
//! benchmark records around its own calls into each layer's public
//! functions. No span lives inside the program.
//!
//! Jobs are driven layer by layer in the order `SweepJob::simulate_with`
//! uses: scene, prefix build (on a cache miss), leg, then the metrics
//! and journal codecs. `GeometryPipeline::run`, `TilingEngine::bin` and
//! `TileSchedule::build` run inside the prefix build and the leg, where
//! no span can reach; they are timed by calling them again after the
//! job (probe spans outside the job span), and their time is taken out
//! of the prefix and leg self times.

use crate::check::{verify, Reference};
use crate::measure::{
    arm_spool, prepare, remove_work_dir, spool_pass, sweep_pass, work_dir, Metric, Outcome, Pass,
    WORK_ROOT,
};
use crate::workload::Workload;
use dtexl::pipeline::{
    compose_frame, BarrierMode, FramePrefix, FrameSim, GeometryPipeline, TilingEngine,
};
use dtexl::scene::SceneSpec;
use dtexl::sched::TileSchedule;
use dtexl::sweep::{
    canon_text, journal_line, JobMetrics, JobRecord, JobStatus, PrefixCache, PrefixCacheStats,
    SweepJob,
};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the job the span belongs to.
    pub job: Option<usize>,
}

/// Spans kept in memory, written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, job: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        assert_eq!(self.open.pop(), Some(span), "spans close innermost first");
        self.spans[span].end = self.origin.elapsed();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, job: Option<usize>, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, job);
        let out = f();
        self.end(span);
        out
    }

    /// Record an interval measured elsewhere, ending now.
    fn push_ended(&mut self, name: &'static str, length: Duration) {
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: end.saturating_sub(length),
            end,
            parent: self.open.last().copied(),
            job: None,
        });
    }

    /// Total duration of the spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum()
    }

    /// Self time of the spans named `name` (their duration minus the
    /// part their child spans cover), in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum();
        self.total_ms(name) - children
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "null".into(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                opt(s.parent),
                opt(s.job)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Deterministic work counts of a traced pass.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    pub jobs: u64,
    pub triangles: u64,
    pub prims_emitted: u64,
    pub bin_entries: u64,
    pub quads_rasterized: u64,
    pub quads_shaded: u64,
    pub prefix_bytes: u64,
    pub sched_tiles: u64,
    pub l1_accesses: u64,
    pub l1_hits: u64,
    pub l2_accesses: u64,
    pub l2_hits: u64,
    pub dram_accesses: u64,
    pub journal_bytes: u64,
    pub cache: PrefixCacheStats,
}

/// Drive `jobs` layer by layer under spans; returns the work counts
/// and the journal the pass would write.
pub fn traced_pass(
    jobs: &[SweepJob],
    cache: &PrefixCache,
    tracer: &mut Tracer,
) -> (Counters, String) {
    let mut c = Counters::default();
    let mut journal = String::new();
    for (j, job) in jobs.iter().enumerate() {
        let id = Some(j);
        let (w, h) = (job.width, job.height);
        let job_span = tracer.begin("job", id);
        let key = job.prefix_key();
        let (prefix, scene) = match cache.lookup(key) {
            Some(prefix) => (prefix, None),
            None => {
                let spec = SceneSpec::try_new(w, h, job.frame).expect("workload specs are valid");
                let scene = tracer.time("scene", id, || job.game.scene(&spec));
                let prefix = tracer
                    .time("prefix", id, || {
                        FramePrefix::build(&scene, &job.pipeline, w, h)
                    })
                    .expect("workload scenes build");
                (Arc::new(prefix), Some(scene))
            }
        };
        let result = tracer
            .time("leg", id, || {
                FrameSim::try_run_prefixed(&prefix, &job.schedule, &job.pipeline)
            })
            .expect("workload legs run");
        if scene.is_some() {
            cache.insert(key, Arc::clone(&prefix));
        }
        let metrics = tracer.time("compose", id, || {
            std::hint::black_box(compose_frame(&result.durations, BarrierMode::Coupled));
            std::hint::black_box(compose_frame(&result.durations, BarrierMode::Decoupled));
            JobMetrics::of(&result)
        });
        let line = tracer.time("journal", id, || {
            journal_line(&JobRecord {
                index: j,
                key: job.key(),
                status: JobStatus::Ok,
                attempts: 1,
                // Zero, so the journal's byte count repeats exactly.
                elapsed: Duration::ZERO,
                error: None,
                metrics: Some(metrics),
                config_hash: job.config_hash(),
                peak_alloc: None,
                shard: None,
                obs: None,
            })
        });
        tracer.end(job_span);

        // Probes: the calls the prefix build and the leg make inside.
        if let Some(scene) = scene {
            let geo = tracer.time("geometry", id, || {
                GeometryPipeline::new(job.pipeline.vertex_cache).run(&scene, w, h)
            });
            let bins = tracer.time("tiling", id, || {
                TilingEngine::new(job.pipeline.tile_cache, job.pipeline.tile_size)
                    .bin(&geo.prims, w, h)
            });
            c.triangles += u64::from(scene.triangle_count());
            c.prims_emitted += geo.stats.prims_emitted;
            c.bin_entries += bins.total_entries();
            c.quads_rasterized += result
                .tiles
                .iter()
                .flat_map(|t| t.quads_rasterized)
                .map(u64::from)
                .sum::<u64>();
            c.quads_shaded += result.total_quads_shaded();
            c.prefix_bytes += prefix.approx_bytes();
        }
        let ts = job.pipeline.tile_size;
        let sched = tracer.time("sched", id, || {
            TileSchedule::build(&job.schedule, w.div_ceil(ts), h.div_ceil(ts))
        });
        c.sched_tiles += sched.len() as u64;
        let hier = &result.hierarchy;
        c.l1_accesses += hier.l1_accesses();
        c.l1_hits += hier.l1.iter().map(|s| s.hits).sum::<u64>();
        c.l2_accesses += hier.l2.accesses;
        c.l2_hits += hier.l2.hits;
        c.dram_accesses += hier.dram_accesses;
        c.journal_bytes += line.len() as u64 + 1;
        c.jobs += 1;
        journal.push_str(&line);
        journal.push('\n');
    }
    c.cache = cache.stats();
    (c, journal)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn elapsed_ms(p: &Pass) -> f64 {
    p.job_elapsed.values().map(|d| d.as_secs_f64() * 1e3).sum()
}

/// Median over jobs of the job's elapsed time under `run_sweep` minus
/// its traced job span: the per-job cost of isolation (thread, meter,
/// channel). The two come from different passes, so on large jobs host
/// noise can outweigh it and the value can read below zero.
fn job_overhead_ms(tracer: &Tracer, jobs: &[SweepJob], direct: &Pass) -> f64 {
    let diffs: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "job")
        .filter_map(|s| {
            let elapsed = direct.job_elapsed.get(&jobs[s.job?].key())?;
            Some((elapsed.as_secs_f64() - (s.end - s.start).as_secs_f64()) * 1e3)
        })
        .collect();
    crate::median(&diffs)
}

/// A traced run: warm-up, an untraced direct pass (the base for the
/// overhead and the sweep layer), the traced layer pass, and a spool
/// pass for the service layers. Every pass is checked.
pub fn run(workload: Workload, seed: u64, reference: &Reference) -> Outcome {
    let dir = work_dir(workload);
    let res = workload.resolution();
    let mut out = Outcome::default();
    let check = |canon: &str, jobs: &[SweepJob], out: &mut Outcome| {
        let v = verify(reference, canon, jobs, seed);
        out.attempted += jobs.len() as u64;
        out.failed += v.failed.len() as u64;
        for key in v.failed.iter().take(5) {
            out.notes.push(format!(
                "FAILED {key}: result missing or differs from the reference"
            ));
        }
    };

    let prep = prepare(workload, seed, res, &dir);
    let warm = sweep_pass(&prep);
    check(&warm.canon, &prep.jobs, &mut out);
    let prep = prepare(workload, seed, res, &dir);
    let direct = sweep_pass(&prep);
    check(&direct.canon, &prep.jobs, &mut out);

    let mut tracer = Tracer::new();
    let prep = prepare(workload, seed, res, &dir);
    let (c, journal) = traced_pass(&prep.jobs, &prep.cache, &mut tracer);
    check(&canon_text(&journal), &prep.jobs, &mut out);

    // Service layers: the same jobs through a spool and one worker.
    let specs = workload.specs(seed, res);
    let mut prep = prepare(workload, seed, res, &dir);
    prep.spool = Some(tracer.time("spool", None, || arm_spool(&dir, &specs)));
    let service = spool_pass(&prep);
    tracer.push_ended("worker", service.run_wall);
    tracer.push_ended("merge", service.wall - service.run_wall);
    check(&service.canon, &prep.jobs, &mut out);

    let spans_path = Path::new(WORK_ROOT).join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) = tracer.write(&spans_path) {
        out.notes.push(format!("spans not written: {e}"));
    }
    remove_work_dir(&dir);

    let t = |name| tracer.total_ms(name);
    let prefix_ms = t("prefix") - t("geometry") - t("tiling");
    let leg_ms = t("leg") - t("sched");
    let job_ms = t("job");
    let unattributed_ms = tracer.self_ms("job");
    let n = |v: u64| v as f64;
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let metrics: Vec<Metric> = vec![
        ("scene.ms", t("scene"), "ms"),
        ("scene.triangles", n(c.triangles), "count"),
        ("geometry.ms", t("geometry"), "ms"),
        ("geometry.prims_emitted", n(c.prims_emitted), "count"),
        ("tiling.ms", t("tiling"), "ms"),
        ("tiling.bin_entries", n(c.bin_entries), "count"),
        ("prefix.ms", prefix_ms, "ms"),
        ("prefix.quads_rasterized", n(c.quads_rasterized), "count"),
        ("prefix.quads_shaded", n(c.quads_shaded), "count"),
        ("prefix.mib", mib(c.prefix_bytes), "MiB"),
        (
            "prefix.ns_per_quad",
            ratio(prefix_ms * 1e6, n(c.quads_rasterized)),
            "ns",
        ),
        ("sched.ms", t("sched"), "ms"),
        ("sched.tiles", n(c.sched_tiles), "count"),
        ("leg.ms", leg_ms, "ms"),
        ("leg.l1_accesses", n(c.l1_accesses), "count"),
        (
            "leg.l1_hit_rate",
            ratio(n(c.l1_hits), n(c.l1_accesses)),
            "ratio",
        ),
        ("leg.l2_accesses", n(c.l2_accesses), "count"),
        (
            "leg.l2_hit_rate",
            ratio(n(c.l2_hits), n(c.l2_accesses)),
            "ratio",
        ),
        ("leg.dram_accesses", n(c.dram_accesses), "count"),
        (
            "leg.ns_per_l1_access",
            ratio(leg_ms * 1e6, n(c.l1_accesses)),
            "ns",
        ),
        ("compose.ms", t("compose"), "ms"),
        ("prefix_cache.hits", n(c.cache.hits), "count"),
        ("prefix_cache.misses", n(c.cache.misses), "count"),
        (
            "prefix_cache.hit_rate",
            ratio(n(c.cache.hits), n(c.cache.hits + c.cache.misses)),
            "ratio",
        ),
        ("prefix_cache.evictions", n(c.cache.evictions), "count"),
        ("prefix_cache.mib", mib(c.cache.bytes), "MiB"),
        (
            "sweep.job_overhead_ms",
            job_overhead_ms(&tracer, &prep.jobs, &direct),
            "ms",
        ),
        (
            "sweep.dispatch_ms",
            direct.run_wall.as_secs_f64() * 1e3 - elapsed_ms(&direct),
            "ms",
        ),
        ("journal.ms", t("journal"), "ms"),
        ("journal.bytes", n(c.journal_bytes), "bytes"),
        ("spool.ms", t("spool"), "ms"),
        ("spool.specs", specs.len() as f64, "count"),
        (
            "worker.scan_ms",
            service.run_wall.as_secs_f64() * 1e3 - elapsed_ms(&service),
            "ms",
        ),
        ("merge.ms", t("merge"), "ms"),
        ("merge.lines", service.merged_lines as f64, "count"),
        (
            "trace.unattributed_pct",
            100.0 * ratio(unattributed_ms, job_ms),
            "%",
        ),
        (
            "trace.overhead_pct",
            100.0 * ratio(job_ms - elapsed_ms(&direct), elapsed_ms(&direct)),
            "%",
        ),
        ("trace.spans", tracer.spans.len() as f64, "count"),
    ];
    out.notes.push(format!(
        "traced pass: {} jobs, job spans {job_ms:.1} ms, unattributed {unattributed_ms:.2} ms; untraced jobs {:.1} ms; spans in {}",
        c.jobs,
        elapsed_ms(&direct),
        spans_path.display()
    ));
    out.metrics = metrics;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtexl::pipeline::PipelineConfig;
    use dtexl::spool::jobs_from_specs;

    fn tiny_pass(w: Workload) -> Counters {
        let jobs = jobs_from_specs(&w.specs(5, (96, 48)), &PipelineConfig::default());
        let cache = PrefixCache::new(None);
        traced_pass(&jobs, &cache, &mut Tracer::new()).0
    }

    #[test]
    fn traced_counters_repeat_and_balance() {
        for w in Workload::ALL {
            let c = tiny_pass(w);
            assert_eq!(c, tiny_pass(w), "{} counters repeat exactly", w.name());
            assert_eq!(
                c.l1_accesses - c.l1_hits,
                c.l2_accesses,
                "every L1 miss is an L2 access"
            );
            assert_eq!(
                c.cache.hits + c.cache.misses,
                c.jobs,
                "one cache lookup per job"
            );
            assert!(c.quads_rasterized >= c.quads_shaded && c.quads_shaded > 0);
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", None);
        t.time("inner", None, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.end(outer);
        assert!(t.total_ms("outer") >= t.total_ms("inner"));
        assert!(t.self_ms("outer") < t.total_ms("inner"));
        assert!((t.self_ms("outer") + t.total_ms("inner") - t.total_ms("outer")).abs() < 1e-9);
    }
}
