//! Deterministic sim-time observability for the DTexL pipeline.
//!
//! The simulator's headline numbers are two aggregate cycle counts out
//! of `compose_frame` — useless for explaining *why* decoupled barriers
//! win. This crate supplies the event layer underneath those numbers:
//! the pipeline stages record, per (SC, stage, tile), how many cycles a
//! unit spent busy versus waiting, and the memory hierarchy records per
//! subtile L1/L2 hit/miss and DRAM-spike counts.
//!
//! Design constraints (all load-bearing, mirroring `dtexl-alloc`):
//!
//! * **Zero dependencies.** The [`perfetto`] exporter and the sweep
//!   service's documents share the hand-rolled codec in [`json`];
//!   nothing here touches the vendored registry.
//! * **Compiles to a no-op when disabled.** Instrumented code is
//!   generic over [`Probe`]; the default [`NullProbe`] reports
//!   `enabled() == false` from an inlined constant, so the
//!   uninstrumented monomorphization carries no event plumbing and the
//!   sweep/bench paths keep their allocation profile.
//! * **Determinism is non-negotiable.** An [`Event`] carries *simulated*
//!   time stamps and counters only — never wall-clock values — and the
//!   pipeline records them in tile-major / SC-ascending order, so the
//!   event stream is a pure function of the simulated frame (pinned by
//!   `tests/obs_determinism.rs`).
//! * **Bounded memory.** [`EventSink`] is a ring buffer: recording never
//!   allocates past the configured capacity, and overflow is surfaced
//!   as a [`dropped`](EventSink::dropped) count instead of silent loss.

pub mod json;
pub mod perfetto;
pub mod rollup;

pub use rollup::{ObsRollup, RollupMode, RollupProbe, StallRollup};

/// A pipeline stage, in dataflow order. `Fetch` and `Raster` are serial
/// units (their spans always carry `sc == 0`); the back half runs four
/// parallel shader-core units per stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Texture/vertex fetch (serial front-end unit).
    Fetch,
    /// Rasterization into quads (serial front-end unit).
    Raster,
    /// Early depth test (4 SC units).
    EarlyZ,
    /// Fragment shading (4 SC units).
    Fragment,
    /// Blend/output merge (4 SC units).
    Blend,
}

impl Stage {
    /// All stages in dataflow order.
    pub const ALL: [Stage; 5] = [
        Stage::Fetch,
        Stage::Raster,
        Stage::EarlyZ,
        Stage::Fragment,
        Stage::Blend,
    ];

    /// Stable display name (also the Perfetto track-name prefix).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Fetch => "fetch",
            Stage::Raster => "raster",
            Stage::EarlyZ => "early_z",
            Stage::Fragment => "fragment",
            Stage::Blend => "blend",
        }
    }

    /// Whether the stage has one unit per shader core (the back half)
    /// as opposed to a single serial unit.
    #[must_use]
    pub fn is_per_sc(self) -> bool {
        matches!(self, Stage::EarlyZ | Stage::Fragment | Stage::Blend)
    }
}

/// What a unit was doing during a [`Span`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Executing its per-tile work.
    Busy,
    /// Stalled on its producer stage (no input available yet).
    WaitUpstream,
    /// Finished its work but held by a barrier: sibling units under a
    /// coupled barrier, or the credit floor under a bounded decoupled
    /// barrier.
    WaitBarrier,
}

impl SpanKind {
    /// Stable display name (also used in Perfetto event args).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Busy => "busy",
            SpanKind::WaitUpstream => "wait_upstream",
            SpanKind::WaitBarrier => "wait_barrier",
        }
    }
}

/// One half-open interval `[start, end)` of simulated cycles on one
/// unit, attributed to busy work or a specific kind of wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Stage the unit belongs to.
    pub stage: Stage,
    /// Shader core index (always 0 for the serial front-end stages).
    pub sc: u8,
    /// Tile index the interval is attributed to.
    pub tile: u32,
    /// Attribution.
    pub kind: SpanKind,
    /// Start cycle (inclusive).
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
}

impl Span {
    /// Interval length in cycles.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Memory-hierarchy counters for one fragment subtile (one SC's share
/// of one tile), deltas over that subtile's hierarchy walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemSample {
    /// Tile index.
    pub tile: u32,
    /// Shader core the subtile ran on.
    pub sc: u8,
    /// Private-L1 hits of the subtile's demand accesses.
    pub l1_hits: u64,
    /// Private-L1 misses (these become L2 requests).
    pub l1_misses: u64,
    /// Shared-L2 hits (demand and prefetch requests).
    pub l2_hits: u64,
    /// Shared-L2 misses (these become DRAM requests).
    pub l2_misses: u64,
    /// DRAM requests issued during the walk.
    pub dram_requests: u64,
    /// DRAM requests that landed on a modeled latency spike.
    pub dram_spikes: u64,
}

/// Per-tile rasterizer statistics (serial front end).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RasterSample {
    /// Tile index.
    pub tile: u32,
    /// Primitives from the tile's bin that were scan-converted.
    pub prims: u32,
    /// Covered quads emitted into the tile's quad list.
    pub quads: u32,
}

/// One observability event. Everything in here is simulated state —
/// wall-clock values never enter the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Event {
    /// A busy/wait interval on one unit.
    Span(Span),
    /// Memory-hierarchy counters for one fragment subtile.
    Mem(MemSample),
    /// Rasterizer output counts for one tile.
    Raster(RasterSample),
}

/// An event consumer threaded through the instrumented pipeline.
///
/// Instrumented code is generic over this trait and guards any
/// non-trivial event construction behind [`enabled`](Probe::enabled),
/// so the [`NullProbe`] monomorphization compiles the instrumentation
/// out entirely.
pub trait Probe {
    /// Whether this probe wants events at all. Callers may skip event
    /// construction when this is `false`.
    fn enabled(&self) -> bool;
    /// Record one event. Must never panic.
    fn record(&mut self, event: Event);
}

/// Forwarding impl so instrumented helpers can take `&mut P` and pass
/// the probe further down without extra generics gymnastics.
impl<P: Probe + ?Sized> Probe for &mut P {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }
}

/// The disabled probe: `enabled()` is a constant `false` and
/// [`record`](Probe::record) is an empty inlined body, so instrumented
/// code monomorphized over it is identical to uninstrumented code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn record(&mut self, _event: Event) {}
}

/// A bounded, ring-buffered event collector.
///
/// Events are kept oldest-first up to `capacity`; past that, each new
/// event overwrites the oldest and bumps [`dropped`](EventSink::dropped)
/// — recording never grows memory past the configured bound and never
/// fails.
#[derive(Debug, Clone)]
pub struct EventSink {
    buf: Vec<Event>,
    cap: usize,
    /// Next write position once the buffer is full (ring head).
    next: usize,
    dropped: u64,
}

impl EventSink {
    /// Default capacity: roomy enough for every span + mem sample of a
    /// full-resolution frame under both barrier modes (~16 events per
    /// tile per mode) with two orders of magnitude to spare.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A sink with [`DEFAULT_CAPACITY`](Self::DEFAULT_CAPACITY).
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A sink bounded at `capacity` events (clamped to at least 1).
    /// The buffer grows lazily — capacity is a bound, not a
    /// preallocation.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::new(),
            cap: capacity.max(1),
            next: 0,
            dropped: 0,
        }
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events have been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        let (newer, older) = self.buf.split_at(self.next.min(self.buf.len()));
        older.iter().chain(newer.iter())
    }

    /// Retained events, oldest first, as an owned vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Event> {
        self.iter().copied().collect()
    }

    /// Just the [`Span`] events, oldest first.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.iter()
            .filter_map(|e| match e {
                Event::Span(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    /// Just the [`MemSample`] events, oldest first.
    #[must_use]
    pub fn mem_samples(&self) -> Vec<MemSample> {
        self.iter()
            .filter_map(|e| match e {
                Event::Mem(m) => Some(*m),
                _ => None,
            })
            .collect()
    }

    /// Just the [`RasterSample`] events, oldest first.
    #[must_use]
    pub fn raster_samples(&self) -> Vec<RasterSample> {
        self.iter()
            .filter_map(|e| match e {
                Event::Raster(r) => Some(*r),
                _ => None,
            })
            .collect()
    }

    /// Drop all retained events and reset the drop counter.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.dropped = 0;
    }
}

impl Default for EventSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe for EventSink {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.next] = event;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tile: u32, start: u64, end: u64) -> Event {
        Event::Span(Span {
            stage: Stage::Fragment,
            sc: 1,
            tile,
            kind: SpanKind::Busy,
            start,
            end,
        })
    }

    #[test]
    fn null_probe_is_disabled() {
        let mut p = NullProbe;
        assert!(!p.enabled());
        p.record(span(0, 0, 1)); // no-op, must not panic
    }

    #[test]
    fn sink_retains_in_order() {
        let mut sink = EventSink::new();
        for t in 0..5 {
            sink.record(span(t, u64::from(t), u64::from(t) + 1));
        }
        assert_eq!(sink.len(), 5);
        assert_eq!(sink.dropped(), 0);
        let tiles: Vec<u32> = sink.spans().iter().map(|s| s.tile).collect();
        assert_eq!(tiles, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut sink = EventSink::with_capacity(3);
        for t in 0..7 {
            sink.record(span(t, 0, 1));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 4);
        let tiles: Vec<u32> = sink.spans().iter().map(|s| s.tile).collect();
        assert_eq!(tiles, [4, 5, 6], "oldest-first after wrap");
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut sink = EventSink::with_capacity(0);
        sink.record(span(1, 0, 1));
        sink.record(span(2, 0, 1));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.spans()[0].tile, 2);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn filters_split_event_kinds() {
        let mut sink = EventSink::new();
        sink.record(span(0, 0, 1));
        sink.record(Event::Mem(MemSample {
            tile: 0,
            sc: 2,
            l1_hits: 3,
            ..MemSample::default()
        }));
        sink.record(Event::Raster(RasterSample {
            tile: 0,
            prims: 1,
            quads: 9,
        }));
        assert_eq!(sink.spans().len(), 1);
        assert_eq!(sink.mem_samples().len(), 1);
        assert_eq!(sink.mem_samples()[0].sc, 2);
        assert_eq!(sink.to_vec().len(), 3);
    }

    #[test]
    fn span_cycles_saturate() {
        let s = Span {
            stage: Stage::Fetch,
            sc: 0,
            tile: 0,
            kind: SpanKind::Busy,
            start: 10,
            end: 4,
        };
        assert_eq!(s.cycles(), 0);
    }
}
