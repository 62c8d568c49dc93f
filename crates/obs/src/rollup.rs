//! Deterministic per-job rollups of the observability event stream.
//!
//! A full [`EventSink`](crate::EventSink) capture is the right tool for
//! one frame under a microscope; a fleet sweep needs something it can
//! journal per job without storing megabytes of spans. [`ObsRollup`] is
//! that fixed-field aggregate: per-(SC, stage) busy / wait-upstream /
//! wait-barrier cycle totals under both barrier compositions, plus the
//! frame's memory-hierarchy counters. Aggregation is O(1) state per
//! event — a rollup probe can never drop events or grow memory — and
//! everything in it is simulated-time arithmetic, so rollups inherit
//! the event stream's bit-identity across thread counts and memoized
//! vs fresh execution (pinned by `tests/obs_rollup.rs`).
//!
//! The JSON round-trip ([`ObsRollup::to_json`] / [`ObsRollup::parse`])
//! is what the sweep journal embeds as each record's `obs` object; a
//! journal reader takes that object off its parsed line and converts
//! it with [`FromJson`].

use crate::json::{self, FromJson, Json};
use crate::{Event, Probe, SpanKind, Stage};

/// Number of (stage, SC) units: two serial front-end units plus three
/// back-half stages × four shader cores.
pub const UNIT_COUNT: usize = 14;

/// Units in dataflow order: the serial front-end stages, then each
/// back-half stage across its four SC units. This is the row order of
/// `dtexl profile`'s stall table and the element order of
/// [`StallRollup::units`].
#[must_use]
pub fn unit_order() -> [(Stage, u8); UNIT_COUNT] {
    [
        (Stage::Fetch, 0),
        (Stage::Raster, 0),
        (Stage::EarlyZ, 0),
        (Stage::EarlyZ, 1),
        (Stage::EarlyZ, 2),
        (Stage::EarlyZ, 3),
        (Stage::Fragment, 0),
        (Stage::Fragment, 1),
        (Stage::Fragment, 2),
        (Stage::Fragment, 3),
        (Stage::Blend, 0),
        (Stage::Blend, 1),
        (Stage::Blend, 2),
        (Stage::Blend, 3),
    ]
}

/// Index of a (stage, SC) unit in [`unit_order`]. Serial front-end
/// stages ignore `sc` (their spans always carry 0); back-half `sc` is
/// clamped to the four modeled shader cores.
#[must_use]
pub fn unit_index(stage: Stage, sc: u8) -> usize {
    let sc = usize::from(sc.min(3));
    match stage {
        Stage::Fetch => 0,
        Stage::Raster => 1,
        Stage::EarlyZ => 2 + sc,
        Stage::Fragment => 6 + sc,
        Stage::Blend => 10 + sc,
    }
}

/// Per-unit cycle totals for one barrier composition:
/// `[busy, wait_upstream, wait_barrier]` per unit, in
/// [`unit_order`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallRollup {
    /// `[busy, wait_upstream, wait_barrier]` cycle totals per unit.
    pub units: [[u64; 3]; UNIT_COUNT],
}

impl StallRollup {
    /// Busy cycles for one unit.
    #[must_use]
    pub fn busy(&self, stage: Stage, sc: u8) -> u64 {
        self.units[unit_index(stage, sc)][0]
    }

    /// Upstream-wait cycles for one unit.
    #[must_use]
    pub fn wait_upstream(&self, stage: Stage, sc: u8) -> u64 {
        self.units[unit_index(stage, sc)][1]
    }

    /// Barrier-wait cycles for one unit.
    #[must_use]
    pub fn wait_barrier(&self, stage: Stage, sc: u8) -> u64 {
        self.units[unit_index(stage, sc)][2]
    }

    /// Column totals across all units:
    /// `[busy, wait_upstream, wait_barrier]`.
    #[must_use]
    pub fn totals(&self) -> [u64; 3] {
        let mut t = [0u64; 3];
        for unit in &self.units {
            for (slot, v) in t.iter_mut().zip(unit) {
                *slot += v;
            }
        }
        t
    }

    fn to_json(self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("[");
        for (i, [b, u, w]) in self.units.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{b},{u},{w}]");
        }
        s.push(']');
        s
    }
}

/// Which pass a [`RollupProbe`] is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollupMode {
    /// The functional simulation pass: accumulate [`Event::Mem`]
    /// counters (spans are not emitted there).
    Sim,
    /// Coupled frame-time composition: accumulate spans into the
    /// coupled stall rollup.
    Coupled,
    /// Decoupled frame-time composition: accumulate spans into the
    /// decoupled stall rollup.
    Decoupled,
}

/// The full per-job rollup: both barrier compositions' stall totals
/// plus the frame's memory-hierarchy counters. Busy cycles are
/// mode-invariant by construction (both compositions replay the same
/// durations), so `coupled.units[i][0] == decoupled.units[i][0]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsRollup {
    /// Stall totals under coupled barriers.
    pub coupled: StallRollup,
    /// Stall totals under (pure) decoupled barriers — `wait_barrier`
    /// is structurally zero there.
    pub decoupled: StallRollup,
    /// Private-L1 hits across all fragment subtiles.
    pub l1_hits: u64,
    /// Private-L1 misses across all fragment subtiles.
    pub l1_misses: u64,
    /// Shared-L2 hits across all fragment subtiles.
    pub l2_hits: u64,
    /// Shared-L2 misses across all fragment subtiles.
    pub l2_misses: u64,
    /// DRAM requests across all fragment subtiles.
    pub dram_requests: u64,
    /// DRAM requests that landed on a modeled latency spike.
    pub dram_spikes: u64,
}

impl ObsRollup {
    /// A probe that folds one pass's events into this rollup. Attach a
    /// `Sim` probe to the functional simulation, then a `Coupled` and a
    /// `Decoupled` probe to the two frame-time compositions.
    pub fn probe(&mut self, mode: RollupMode) -> RollupProbe<'_> {
        RollupProbe { rollup: self, mode }
    }

    /// The dominant stall category across all units, as a stall-table
    /// column name (`c-barrier`, `c-upstream`, `d-barrier`,
    /// `d-upstream`), with its cycle total — `("none", 0)` when the
    /// frame never waited. Ties keep the earlier column.
    #[must_use]
    pub fn top_stall(&self) -> (&'static str, u64) {
        let c = self.coupled.totals();
        let d = self.decoupled.totals();
        let mut best = ("none", 0u64);
        for (name, total) in [
            ("c-barrier", c[2]),
            ("c-upstream", c[1]),
            ("d-barrier", d[2]),
            ("d-upstream", d[1]),
        ] {
            if total > best.1 {
                best = (name, total);
            }
        }
        best
    }

    /// Render the rollup as one compact JSON object (no whitespace) —
    /// the journal's `obs` field.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"coupled\":{},\"decoupled\":{},\"l1_hits\":{},\"l1_misses\":{},\
             \"l2_hits\":{},\"l2_misses\":{},\"dram_requests\":{},\"dram_spikes\":{}}}",
            self.coupled.to_json(),
            self.decoupled.to_json(),
            self.l1_hits,
            self.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.dram_requests,
            self.dram_spikes
        )
    }

    /// Parse a document rendered by [`to_json`](Self::to_json); `None`
    /// for truncated or corrupt input.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        Self::from_json(&json::parse(text)?)
    }
}

impl FromJson for ObsRollup {
    fn from_json(value: &Json) -> Option<Self> {
        Some(Self {
            coupled: StallRollup {
                units: value.field("coupled")?,
            },
            decoupled: StallRollup {
                units: value.field("decoupled")?,
            },
            l1_hits: value.field("l1_hits")?,
            l1_misses: value.field("l1_misses")?,
            l2_hits: value.field("l2_hits")?,
            l2_misses: value.field("l2_misses")?,
            dram_requests: value.field("dram_requests")?,
            dram_spikes: value.field("dram_spikes")?,
        })
    }
}

/// A [`Probe`] that folds events into an [`ObsRollup`] — O(1) state,
/// never drops, never allocates per event.
#[derive(Debug)]
pub struct RollupProbe<'a> {
    rollup: &'a mut ObsRollup,
    mode: RollupMode,
}

impl Probe for RollupProbe<'_> {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        match (self.mode, event) {
            (RollupMode::Sim, Event::Mem(m)) => {
                self.rollup.l1_hits += m.l1_hits;
                self.rollup.l1_misses += m.l1_misses;
                self.rollup.l2_hits += m.l2_hits;
                self.rollup.l2_misses += m.l2_misses;
                self.rollup.dram_requests += m.dram_requests;
                self.rollup.dram_spikes += m.dram_spikes;
            }
            (RollupMode::Coupled | RollupMode::Decoupled, Event::Span(s)) => {
                let stalls = match self.mode {
                    RollupMode::Coupled => &mut self.rollup.coupled,
                    _ => &mut self.rollup.decoupled,
                };
                let col = match s.kind {
                    SpanKind::Busy => 0,
                    SpanKind::WaitUpstream => 1,
                    SpanKind::WaitBarrier => 2,
                };
                stalls.units[unit_index(s.stage, s.sc)][col] += s.cycles();
            }
            // Raster samples and cross-pass events carry nothing the
            // rollup aggregates.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemSample, Span};

    fn span(stage: Stage, sc: u8, kind: SpanKind, cycles: u64) -> Event {
        Event::Span(Span {
            stage,
            sc,
            tile: 0,
            kind,
            start: 100,
            end: 100 + cycles,
        })
    }

    fn sample_rollup() -> ObsRollup {
        let mut r = ObsRollup::default();
        {
            let mut p = r.probe(RollupMode::Sim);
            p.record(Event::Mem(MemSample {
                tile: 0,
                sc: 2,
                l1_hits: 10,
                l1_misses: 4,
                l2_hits: 3,
                l2_misses: 1,
                dram_requests: 1,
                dram_spikes: 0,
            }));
            p.record(Event::Mem(MemSample {
                tile: 1,
                sc: 0,
                l1_hits: 5,
                l1_misses: 2,
                l2_hits: 1,
                l2_misses: 1,
                dram_requests: 1,
                dram_spikes: 1,
            }));
        }
        {
            let mut p = r.probe(RollupMode::Coupled);
            p.record(span(Stage::Fragment, 1, SpanKind::Busy, 50));
            p.record(span(Stage::Fragment, 1, SpanKind::WaitBarrier, 30));
            p.record(span(Stage::Blend, 3, SpanKind::WaitUpstream, 20));
            p.record(span(Stage::Fetch, 0, SpanKind::Busy, 7));
        }
        {
            let mut p = r.probe(RollupMode::Decoupled);
            p.record(span(Stage::Fragment, 1, SpanKind::Busy, 50));
            p.record(span(Stage::Blend, 3, SpanKind::WaitUpstream, 12));
        }
        r
    }

    #[test]
    fn probe_accumulates_per_unit_and_mem_counters() {
        let r = sample_rollup();
        assert_eq!(r.coupled.busy(Stage::Fragment, 1), 50);
        assert_eq!(r.coupled.wait_barrier(Stage::Fragment, 1), 30);
        assert_eq!(r.coupled.wait_upstream(Stage::Blend, 3), 20);
        assert_eq!(r.decoupled.wait_barrier(Stage::Fragment, 1), 0);
        assert_eq!(r.decoupled.wait_upstream(Stage::Blend, 3), 12);
        assert_eq!(r.l1_hits, 15);
        assert_eq!(r.l1_misses, 6);
        assert_eq!(r.dram_requests, 2);
        assert_eq!(r.dram_spikes, 1);
    }

    #[test]
    fn top_stall_picks_the_dominant_category() {
        let r = sample_rollup();
        assert_eq!(r.top_stall(), ("c-barrier", 30));
        assert_eq!(ObsRollup::default().top_stall(), ("none", 0));
    }

    #[test]
    fn json_round_trips() {
        let r = sample_rollup();
        let json = r.to_json();
        assert!(!json.contains(' '), "compact form");
        // One object holding two arrays of unit triples.
        assert_eq!(json.matches('{').count(), 1);
        assert_eq!(json.matches('}').count(), 1);
        let parsed = ObsRollup::parse(&json).expect("parse own rendering");
        assert_eq!(parsed, r);
    }

    #[test]
    fn parse_rejects_garbage_and_truncation() {
        assert!(ObsRollup::parse("").is_none());
        assert!(ObsRollup::parse("not json").is_none());
        let full = sample_rollup().to_json();
        assert!(ObsRollup::parse(&full[..full.len() / 2]).is_none());
        // A units array with the wrong arity is corrupt, not padded.
        let short = full.replacen("],[", "]~[", 1).replace("]~[", "],["); // no-op sanity
        assert_eq!(short, full);
        assert!(
            ObsRollup::parse(&full.replacen("\"coupled\":[", "\"coupled\":[[0,0,0],[", 1))
                .is_none()
        );
    }

    #[test]
    fn unit_index_matches_unit_order() {
        for (i, (stage, sc)) in unit_order().iter().enumerate() {
            assert_eq!(unit_index(*stage, *sc), i);
        }
    }
}
