//! Chrome-trace / Perfetto JSON export.
//!
//! Renders recorded [`Span`]s as a [Trace Event Format] stream that
//! both `chrome://tracing` and [ui.perfetto.dev] open directly: one
//! *process* per track group (one per `BarrierMode`, by convention) and
//! one *thread* (track) per (SC, stage) unit, so coupled-vs-decoupled
//! slack is visible as whitespace between busy blocks. Fragment busy
//! spans carry their subtile's [`MemSample`] counters in `args`, which
//! Perfetto shows in the selection panel.
//!
//! Everything is rendered with hand-rolled JSON (strings through
//! [`json::escape`](crate::json::escape), no dependencies) and
//! in a deterministic order — metadata first (pid- then tid-sorted),
//! then spans in recording order — so the bytes are reproducible and
//! CI can diff traces across thread counts.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use crate::json::escape;
use crate::{MemSample, Span, SpanKind, Stage};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One process row in the exported trace: a named group of unit tracks
/// (one `BarrierMode` composition, by convention).
#[derive(Debug)]
pub struct TrackGroup<'a> {
    /// Trace-local process id (must be unique across groups).
    pub pid: u32,
    /// Process name shown by the viewer (e.g. `"coupled"`).
    pub name: &'a str,
    /// Busy/wait spans, in recording order.
    pub spans: &'a [Span],
    /// Per-subtile memory counters, merged into fragment busy spans by
    /// (tile, sc). May be empty.
    pub mem: &'a [MemSample],
}

/// Trace-local thread id for a unit: stages get decade offsets so the
/// numeric tid order matches dataflow order in the viewer.
#[must_use]
pub fn track_id(stage: Stage, sc: u8) -> u32 {
    let base = match stage {
        Stage::Fetch => 0,
        Stage::Raster => 10,
        Stage::EarlyZ => 20,
        Stage::Fragment => 30,
        Stage::Blend => 40,
    };
    base + u32::from(sc)
}

/// Human name for a unit track.
#[must_use]
pub fn track_name(stage: Stage, sc: u8) -> String {
    if stage.is_per_sc() {
        format!("{}/SC{sc}", stage.name())
    } else {
        stage.name().to_string()
    }
}

fn push_meta(out: &mut String, name: &str, pid: u32, tid: u32, value: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(value)
    );
}

/// Render track groups to a complete Chrome-trace JSON document.
///
/// Timestamps are simulated cycles reported through the microsecond
/// `ts`/`dur` fields (the viewer's time unit labels read as cycles);
/// spans of zero length are skipped.
#[must_use]
pub fn chrome_trace(groups: &[TrackGroup<'_>]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };

    // Metadata: process names, then the thread (track) names each
    // group actually uses, in (pid, tid) order.
    for g in groups {
        sep(&mut out);
        push_meta(&mut out, "process_name", g.pid, 0, g.name);
        let tracks: BTreeSet<(u32, Stage, u8)> = g
            .spans
            .iter()
            .map(|s| (track_id(s.stage, s.sc), s.stage, s.sc))
            .collect();
        for (tid, stage, sc) in tracks {
            sep(&mut out);
            push_meta(&mut out, "thread_name", g.pid, tid, &track_name(stage, sc));
        }
    }

    for g in groups {
        let mem: BTreeMap<(u32, u8), &MemSample> =
            g.mem.iter().map(|m| ((m.tile, m.sc), m)).collect();
        for s in g.spans {
            if s.end <= s.start {
                continue;
            }
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{} t{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"tile\":{},\"kind\":\"{}\"",
                s.kind.name(),
                s.tile,
                s.stage.name(),
                s.start,
                s.end - s.start,
                g.pid,
                track_id(s.stage, s.sc),
                s.tile,
                s.kind.name(),
            );
            if s.stage == Stage::Fragment && s.kind == SpanKind::Busy {
                if let Some(m) = mem.get(&(s.tile, s.sc)) {
                    let _ = write!(
                        out,
                        ",\"l1_hits\":{},\"l1_misses\":{},\"l2_hits\":{},\"l2_misses\":{},\
                         \"dram_requests\":{},\"dram_spikes\":{}",
                        m.l1_hits,
                        m.l1_misses,
                        m.l2_hits,
                        m.l2_misses,
                        m.dram_requests,
                        m.dram_spikes,
                    );
                }
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(stage: Stage, sc: u8, tile: u32, kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            stage,
            sc,
            tile,
            kind,
            start,
            end,
        }
    }

    #[test]
    fn track_ids_follow_dataflow_order() {
        assert!(track_id(Stage::Fetch, 0) < track_id(Stage::Raster, 0));
        assert!(track_id(Stage::Raster, 0) < track_id(Stage::EarlyZ, 0));
        assert!(track_id(Stage::EarlyZ, 3) < track_id(Stage::Fragment, 0));
        assert!(track_id(Stage::Fragment, 3) < track_id(Stage::Blend, 0));
        assert_eq!(track_name(Stage::Blend, 2), "blend/SC2");
        assert_eq!(track_name(Stage::Fetch, 0), "fetch");
    }

    #[test]
    fn trace_contains_metadata_spans_and_mem_args() {
        let spans = [
            span(Stage::Fetch, 0, 0, SpanKind::Busy, 0, 5),
            span(Stage::Fragment, 2, 0, SpanKind::Busy, 5, 9),
            span(Stage::Fragment, 2, 0, SpanKind::WaitBarrier, 9, 12),
        ];
        let mem = [MemSample {
            tile: 0,
            sc: 2,
            l1_hits: 7,
            l1_misses: 3,
            l2_hits: 2,
            l2_misses: 1,
            dram_requests: 1,
            dram_spikes: 0,
        }];
        let groups = [TrackGroup {
            pid: 1,
            name: "coupled",
            spans: &spans,
            mem: &mem,
        }];
        let json = chrome_trace(&groups);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("fragment/SC2"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"l1_hits\":7"));
        assert!(json.contains("wait_barrier"));
        // Balanced braces — a cheap structural sanity check on the
        // hand-rolled writer.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn zero_length_spans_are_skipped() {
        let spans = [span(Stage::Raster, 0, 3, SpanKind::WaitUpstream, 4, 4)];
        let json = chrome_trace(&[TrackGroup {
            pid: 1,
            name: "m",
            spans: &spans,
            mem: &[],
        }]);
        assert!(!json.contains("\"ph\":\"X\""), "{json}");
    }

    #[test]
    fn process_names_are_escaped() {
        let json = chrome_trace(&[TrackGroup {
            pid: 1,
            name: "we\"ird\\name",
            spans: &[],
            mem: &[],
        }]);
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn empty_input_is_a_valid_document() {
        assert_eq!(
            chrome_trace(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
