//! The shader-core (fragment stage) timing model.
//!
//! A subtile runs as one walk: it opens one [`LaneHandle`] on the
//! [`TextureHierarchy`], each quad's texture lines go through it access
//! by access (private L1, then the shared L2 and DRAM on a miss), and
//! each line's latency is charged to the warp model as it comes back.
//! The frame's fragment stage walks its subtiles tile-major,
//! SC-ascending, so the shared levels see one fixed request order.

use dtexl_mem::{LaneHandle, LineAddr, TextureHierarchy};

/// Per-run statistics of a shader core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShaderCoreStats {
    /// Quads (warps) executed.
    pub quads: u64,
    /// ALU instructions issued.
    pub alu_ops: u64,
    /// Texture sample instructions issued.
    pub tex_instructions: u64,
    /// Cache-line requests sent to the texture hierarchy.
    pub line_accesses: u64,
    /// Cycles the issue/fill port was occupied (useful work).
    pub busy_cycles: u64,
    /// Total cycles across the core's subtile batches (`busy +
    /// ramp/drain idle`). `busy_cycles / total_cycles` is the core's
    /// occupancy — the quantity §V-C2 argues is structurally low in
    /// TBR because every subtile boundary drains the warps.
    pub total_cycles: u64,
}

impl ShaderCoreStats {
    /// Fraction of cycles the core was doing useful work (0 when it
    /// never ran).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.total_cycles as f64
        }
    }
}

impl std::ops::AddAssign for ShaderCoreStats {
    fn add_assign(&mut self, rhs: Self) {
        self.quads += rhs.quads;
        self.alu_ops += rhs.alu_ops;
        self.tex_instructions += rhs.tex_instructions;
        self.line_accesses += rhs.line_accesses;
        self.busy_cycles += rhs.busy_cycles;
        self.total_cycles += rhs.total_cycles;
    }
}

/// One quad's pre-resolved shading input for
/// [`ShaderCore::run_prepared`]: the shader-profile scalars plus the
/// quad's texture footprint, already computed (and cached) by the
/// schedule-independent frame prefix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreparedQuad<'a> {
    /// ALU instructions the quad executes.
    pub(crate) alu_ops: u32,
    /// Texture sample instructions per fragment.
    pub(crate) tex_samples: u32,
    /// The quad's deduplicated cache-line footprint
    /// ([`Sampler::quad_footprint`](dtexl_texture::Sampler::quad_footprint)),
    /// narrowed to the prefix's `u32` line arena.
    pub(crate) lines: &'a [u32],
}

/// The warp slots and issue port of one subtile batch, kept as the
/// multiset of slot free times (which slot a warp takes is not
/// observable, only when slots free up).
///
/// `pending` holds the free times of slots taken since the last scan;
/// every other slot is free at or before the port. A dispatch takes
/// such a slot (appending the warp's free time) while one exists. Only
/// when every slot is pending does it scan: entries at or before the
/// port are dropped (their slots are free), and if none is, the warp
/// waits for the earliest and takes its place.
struct WarpSlots {
    /// Free times of the slots taken since the last scan (at most
    /// `slots`).
    pending: Vec<u64>,
    slots: usize,
    /// Cycle at which the issue port frees up.
    port: u64,
}

impl WarpSlots {
    fn new(slots: usize) -> Self {
        Self {
            pending: Vec::with_capacity(slots),
            slots,
            port: 0,
        }
    }

    /// Dispatch a warp on the earliest-free slot. It holds the issue
    /// port for `occupancy` cycles — the issue port serializes
    /// instruction issue across warps, and each L1 miss occupies the
    /// fill port, a throughput cost multithreading cannot hide — and
    /// its slot for `stall` cycles more.
    #[inline]
    fn dispatch(&mut self, occupancy: u64, stall: u64) {
        if self.pending.len() == self.slots {
            let port = self.port;
            self.pending.retain(|&free| free > port);
            if self.pending.len() == self.slots {
                // Every slot frees after the port: wait for the earliest
                // and hand its slot to this warp.
                let (mut slot, mut earliest) = (0, u64::MAX);
                for (s, &free) in self.pending.iter().enumerate() {
                    slot = std::hint::select_unpredictable(free < earliest, s, slot);
                    earliest = earliest.min(free);
                }
                self.port = earliest + occupancy;
                self.pending[slot] = self.port + stall;
                return;
            }
        }
        self.port += occupancy;
        self.pending.push(self.port + stall);
    }

    /// Drain the batch: record the busy and total cycles in `stats` and
    /// return the total.
    fn finish(self, stats: &mut ShaderCoreStats) -> u64 {
        let drain = self.pending.iter().copied().max().unwrap_or(0);
        stats.busy_cycles = self.port;
        stats.total_cycles = self.port.max(drain);
        stats.total_cycles
    }
}

/// The memory stall of a warp whose line accesses took `latencies`
/// cycles, in access order. The texture unit coalesces each sample's
/// line fetches in parallel; successive samples of a warp are
/// dependent. The lines are dealt round-robin over the `samples`
/// sample instructions, and each sample waits for its slowest line.
///
/// One pass: the first `samples` latencies (one per sample that got a
/// line) take the running maximum of each later row of `samples` in
/// place, then are summed. `latencies` is left folded.
fn sample_stall(latencies: &mut [u32], samples: usize) -> u64 {
    let groups = samples.min(latencies.len());
    if groups == 0 {
        return 0;
    }
    let (maxima, rest) = latencies.split_at_mut(groups);
    for row in rest.chunks(groups) {
        for (max, &l) in maxima.iter_mut().zip(row) {
            *max = (*max).max(l);
        }
    }
    maxima.iter().map(|&l| u64::from(l)).sum()
}

/// Warp-level shader-core model.
///
/// Each quad is a warp occupying one of `warp_slots` scheduler slots.
/// The core issues one instruction per cycle while any warp is ready; a
/// texture sample stalls its warp for the memory latency, which other
/// warps hide — unless occupancy is too low, which is precisely the
/// situation at subtile boundaries that makes TBR shader cores
/// "more susceptible to memory latency" (§V-C2).
///
/// A subtile is simulated as one batch starting from an empty core (the
/// barrier — coupled or decoupled — drains the core between subtiles).
#[derive(Debug, Clone, Copy)]
pub struct ShaderCore {
    warp_slots: usize,
    miss_fill_cycles: u32,
}

impl ShaderCore {
    /// Create a core with `warp_slots` warp slots and an L1-miss fill
    /// occupancy of `miss_fill_cycles` (the MSHR / fill-port throughput
    /// bound — see `PipelineConfig::l1_miss_fill_cycles`).
    ///
    /// # Panics
    ///
    /// Panics if `warp_slots` is zero.
    #[must_use]
    pub fn new(warp_slots: usize, miss_fill_cycles: u32) -> Self {
        assert!(warp_slots > 0, "need at least one warp slot");
        Self {
            warp_slots,
            miss_fill_cycles,
        }
    }

    /// Execute one subtile of pre-resolved quads on core `sc`: every
    /// line goes through one [`LaneHandle`] of `hierarchy`, opened for
    /// the subtile, and its latency is charged to the warp model inline.
    ///
    /// Returns `(cycles, stats, l1_misses)` for the batch, where
    /// `l1_misses` counts the demand accesses that missed the core's
    /// L1 (each one also occupies the fill port). The L1's own
    /// statistics cannot give this count: they include prefetch fills.
    pub(crate) fn run_prepared<'a, I>(
        &self,
        sc: usize,
        quads: I,
        hierarchy: &mut TextureHierarchy,
    ) -> (u64, ShaderCoreStats, u64)
    where
        I: IntoIterator<Item = PreparedQuad<'a>>,
    {
        let l1 = hierarchy.config().l1;
        match l1.ways {
            4 => self.walk(quads, hierarchy.lane::<4>(sc), l1.latency),
            8 => self.walk(quads, hierarchy.lane::<8>(sc), l1.latency),
            _ => self.walk(quads, hierarchy.lane::<0>(sc), l1.latency),
        }
    }

    /// [`Self::run_prepared`]'s walk through `lane`, whose L1 hits take
    /// `l1_latency` cycles.
    #[inline(always)]
    fn walk<'a, const W: usize>(
        &self,
        quads: impl IntoIterator<Item = PreparedQuad<'a>>,
        mut lane: LaneHandle<'_, W>,
        l1_latency: u32,
    ) -> (u64, ShaderCoreStats, u64) {
        let mut warps = WarpSlots::new(self.warp_slots);
        let mut latencies: Vec<u32> = Vec::with_capacity(16);
        let mut stats = ShaderCoreStats::default();
        let mut l1_misses = 0u64;
        for quad in quads {
            latencies.clear();
            let mut misses = 0u64;
            for &line in quad.lines {
                let out = lane.access(LineAddr::from(line));
                misses += u64::from(!out.l1_hit);
                latencies.push(out.latency);
            }
            let samples = quad.tex_samples.max(1) as usize;
            // With every line an L1 hit, each sample that got a line
            // waits exactly the hit latency.
            let stall = if misses == 0 {
                samples.min(quad.lines.len()) as u64 * u64::from(l1_latency)
            } else {
                sample_stall(&mut latencies, samples)
            };
            let issue = quad.alu_ops + quad.tex_samples;
            warps.dispatch(
                u64::from(issue) + misses * u64::from(self.miss_fill_cycles),
                stall,
            );
            l1_misses += misses;
            stats.quads += 1;
            stats.alu_ops += u64::from(quad.alu_ops);
            stats.tex_instructions += u64::from(quad.tex_samples);
            stats.line_accesses += quad.lines.len() as u64;
        }
        (warps.finish(&mut stats), stats, l1_misses)
    }
}

#[cfg(test)]
impl ShaderCore {
    /// Execute one subtile's quads on core `sc`, accessing textures
    /// through `hierarchy`. `textures[id]` must be the descriptor for
    /// texture `id`. Resolves each quad's footprint, then runs the same
    /// walk as the frame simulator's fragment stage, which resolves
    /// footprints in the prefix and calls [`Self::run_prepared`].
    ///
    /// Returns `(cycles, stats)` for the batch.
    ///
    /// # Panics
    ///
    /// Panics if a quad references a texture not present in `textures`,
    /// or if a texture's lines do not fit 32 bits or a Morton texture
    /// exceeds 65,536 texels a side (the frame prefix rejects such a
    /// table with [`crate::SimError::Scene`]).
    pub(crate) fn run_subtile(
        &self,
        sc: usize,
        quads: &[crate::prim::Quad],
        textures: &[dtexl_texture::TextureDesc],
        hierarchy: &mut TextureHierarchy,
    ) -> (u64, ShaderCoreStats) {
        use crate::prefix::{check_texture_table, resolve_footprints};

        let fits = check_texture_table(textures);
        assert!(fits.is_ok(), "{fits:?}");
        let mut lines: Vec<u32> = Vec::new();
        let mut ends = Vec::with_capacity(quads.len());
        resolve_footprints(quads, textures, &mut lines, |end| ends.push(end));
        let prepared = quads.iter().zip(&ends).scan(0, |start, (quad, &end)| {
            let lines = &lines[*start..end];
            *start = end;
            Some(PreparedQuad {
                alu_ops: quad.shader.alu_ops,
                tex_samples: quad.shader.tex_samples,
                lines,
            })
        });
        let (cycles, stats, _) = self.run_prepared(sc, prepared, hierarchy);
        (cycles, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prim::Quad;
    use dtexl_gmath::Vec2;
    use dtexl_mem::TextureHierarchyConfig;
    use dtexl_scene::ShaderProfile;
    use dtexl_texture::TextureDesc;

    fn textures() -> Vec<TextureDesc> {
        vec![TextureDesc::new(0, 256, 256, 0x1000_0000)]
    }

    fn quad_at(qx: u32, qy: u32) -> Quad {
        // UVs with a 1:1 texel:pixel mapping around the quad position.
        let uv = |px: f32, py: f32| Vec2::new(px / 256.0, py / 256.0);
        let x = qx as f32 * 2.0;
        let y = qy as f32 * 2.0;
        Quad {
            qx,
            qy,
            mask: 0b1111,
            z: [0.5; 4],
            uv: [
                uv(x, y),
                uv(x + 1.0, y),
                uv(x, y + 1.0),
                uv(x + 1.0, y + 1.0),
            ],
            texture: 0,
            shader: ShaderProfile::standard(),
            opaque: true,
            late_z: false,
        }
    }

    fn hierarchy() -> TextureHierarchy {
        TextureHierarchy::new(TextureHierarchyConfig::default())
    }

    #[test]
    fn empty_subtile_is_free() {
        let core = ShaderCore::new(16, 0);
        let mut h = hierarchy();
        let (cycles, stats) = core.run_subtile(0, &[], &textures(), &mut h);
        assert_eq!(cycles, 0);
        assert_eq!(stats, ShaderCoreStats::default());
    }

    #[test]
    fn single_quad_pays_full_latency() {
        let core = ShaderCore::new(16, 0);
        let mut h = hierarchy();
        let (cycles, stats) = core.run_subtile(0, &[quad_at(0, 0)], &textures(), &mut h);
        // One warp: issue + cold-miss stall, nothing to hide it.
        assert!(cycles > 60, "cold miss visible, got {cycles}");
        assert_eq!(stats.quads, 1);
        assert!(stats.line_accesses >= 1);
    }

    #[test]
    fn multithreading_hides_latency() {
        let tex = textures();
        // 64 quads with disjoint footprints: all cold misses.
        let quads: Vec<Quad> = (0..64)
            .map(|i| quad_at((i % 16) * 4, (i / 16) * 4))
            .collect();

        let run = |slots: usize| {
            let core = ShaderCore::new(slots, 0);
            let mut h = hierarchy();
            core.run_subtile(0, &quads, &tex, &mut h).0
        };
        let serial = run(1);
        let threaded = run(16);
        assert!(
            threaded * 2 < serial,
            "16 warps ({threaded}) must hide most of the serial latency ({serial})"
        );
    }

    #[test]
    fn cache_hits_speed_up_the_batch() {
        let tex = textures();
        let core = ShaderCore::new(4, 0);
        // Same quad repeated: after the first, all L1 hits.
        let quads = vec![quad_at(3, 3); 32];
        let mut h = hierarchy();
        let (warm, _) = core.run_subtile(0, &quads, &tex, &mut h);

        // Disjoint quads: every one cold-misses.
        let cold_quads: Vec<Quad> = (0..32)
            .map(|i| quad_at((i * 5) % 64, (i / 8) * 8))
            .collect();
        let mut h2 = hierarchy();
        let (cold, _) = core.run_subtile(0, &cold_quads, &tex, &mut h2);
        assert!(warm < cold, "hits {warm} must beat misses {cold}");
    }

    #[test]
    fn issue_port_bounds_throughput() {
        let tex = textures();
        let core = ShaderCore::new(64, 0);
        let quads = vec![quad_at(0, 0); 100];
        let mut h = hierarchy();
        let (cycles, stats) = core.run_subtile(0, &quads, &tex, &mut h);
        let issue_total: u64 = stats.alu_ops + stats.tex_instructions;
        assert!(cycles >= issue_total, "can't beat the issue port");
        // With full hits after warm-up, should be close to issue-bound.
        assert!(cycles < issue_total + 200);
    }

    #[test]
    fn stats_accumulate_per_quad() {
        let tex = textures();
        let core = ShaderCore::new(8, 0);
        let mut h = hierarchy();
        let (_c, stats) = core.run_subtile(0, &[quad_at(0, 0), quad_at(1, 0)], &tex, &mut h);
        assert_eq!(stats.quads, 2);
        assert_eq!(
            stats.alu_ops,
            2 * u64::from(ShaderProfile::standard().alu_ops)
        );
    }

    #[test]
    fn occupancy_falls_with_small_batches() {
        // §V-C2: subtile boundaries drain the warps, so smaller
        // batches mean lower occupancy on the same workload.
        let tex = textures();
        let core = ShaderCore::new(12, 0);
        let quads: Vec<Quad> = (0..64)
            .map(|i| quad_at((i % 16) * 3, (i / 16) * 5))
            .collect();
        // One large batch.
        let mut h = hierarchy();
        let (_c, big) = core.run_subtile(0, &quads, &tex, &mut h);
        // The same quads in 16 small batches (fresh hierarchy so the
        // miss pattern is comparable).
        let mut h2 = hierarchy();
        let mut small = ShaderCoreStats::default();
        for chunk in quads.chunks(4) {
            let (_c, s) = core.run_subtile(0, chunk, &tex, &mut h2);
            small += s;
        }
        assert!(
            small.occupancy() < big.occupancy(),
            "small batches {:.3} must be below large batches {:.3}",
            small.occupancy(),
            big.occupancy()
        );
        assert!(big.occupancy() <= 1.0 && small.occupancy() > 0.0);
    }

    /// The stall as first defined: per sample, the maximum over its
    /// stride of the latency list.
    fn sample_stall_by_stride(latencies: &[u32], samples: usize) -> u64 {
        (0..samples.min(latencies.len()))
            .map(|g| {
                latencies[g..]
                    .iter()
                    .step_by(samples)
                    .max()
                    .map_or(0, |&l| u64::from(l))
            })
            .sum()
    }

    #[test]
    fn sample_stall_matches_the_stride_definition() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for case in 0..20_000 {
            let len = (next() % 41) as usize;
            let samples = 1 + (next() % 6) as usize;
            // Few distinct values, so maxima often tie within a group.
            let palette = [1, 13, 63 + (next() % 50) as u32, 200];
            let latencies: Vec<u32> = (0..len).map(|_| palette[(next() % 4) as usize]).collect();
            let want = sample_stall_by_stride(&latencies, samples);
            let mut folded = latencies.clone();
            assert_eq!(
                sample_stall(&mut folded, samples),
                want,
                "case {case}: {latencies:?} over {samples} samples"
            );
        }
        assert_eq!(sample_stall(&mut [], 3), 0);
        assert_eq!(
            sample_stall(&mut [5, 9, 7], 1),
            9,
            "one sample waits for the slowest line"
        );
        assert_eq!(
            sample_stall(&mut [5, 9, 7], 4),
            21,
            "one line per sample: the sum"
        );
        assert_eq!(sample_stall(&mut [5, 9, 7, 1, 2], 2), 7 + 9);
    }

    /// The warp model as it was first written, kept as the reference
    /// for [`WarpSlots`]: one free time per slot, and each warp takes
    /// the first of the earliest-free slots.
    struct Warps {
        /// Cycle at which each warp slot frees up.
        slot_free: Vec<u64>,
        /// Cycle at which the issue port frees up.
        port: u64,
    }

    impl Warps {
        fn new(slots: usize) -> Self {
            Self {
                slot_free: vec![0; slots],
                port: 0,
            }
        }

        fn dispatch(&mut self, occupancy: u64, stall: u64) {
            let (mut slot, mut earliest) = (0, u64::MAX);
            for (s, &free) in self.slot_free.iter().enumerate() {
                if free < earliest {
                    (slot, earliest) = (s, free);
                }
            }
            self.port = self.port.max(earliest) + occupancy;
            self.slot_free[slot] = self.port + stall;
        }

        fn finish(self, stats: &mut ShaderCoreStats) -> u64 {
            let drain = self.slot_free.iter().copied().max().unwrap_or(0);
            stats.busy_cycles = self.port;
            stats.total_cycles = self.port.max(drain);
            stats.total_cycles
        }
    }

    #[test]
    fn dispatch_picks_the_first_of_tied_earliest_slots() {
        let mut warps = Warps::new(4);
        warps.slot_free = vec![30, 10, 20, 10];
        warps.dispatch(2, 5);
        // Slots 1 and 3 both free at 10; slot 1 wins. The port starts at
        // 10, is busy until 12 and the slot frees at 12 + 5.
        assert_eq!(warps.slot_free, [30, 17, 20, 10]);
        assert_eq!(warps.port, 12);
        warps.dispatch(1, 0);
        assert_eq!(warps.slot_free, [30, 17, 20, 13], "then slot 3");
    }

    /// Drive [`WarpSlots`] and the first-slot reference through
    /// `streams` random `(occupancy, stall)` streams of up to 200 warps
    /// on 1–16 slots. Stalls reach 5,000 cycles against occupancies of
    /// at most 60, so every slot is often pending; small palettes make
    /// free times tie. Busy and total cycles must agree.
    fn warp_models_agree(streams: usize, seed: u64) {
        let mut rng = seed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for stream in 0..streams {
            let slots = 1 + (next() % 16) as usize;
            let warps = (next() % 201) as usize;
            let stalls = [0, 1, 12, 60 + next() % 100, next() % 5001];
            let mut fast = WarpSlots::new(slots);
            let mut reference = Warps::new(slots);
            for _ in 0..warps {
                let occupancy = [0, 1, 4, next() % 61][(next() % 4) as usize];
                let stall = stalls[(next() % 5) as usize];
                fast.dispatch(occupancy, stall);
                reference.dispatch(occupancy, stall);
            }
            let (mut got, mut want) = (ShaderCoreStats::default(), ShaderCoreStats::default());
            assert_eq!(
                fast.finish(&mut got),
                reference.finish(&mut want),
                "stream {stream}: {warps} warps on {slots} slots"
            );
            assert_eq!(got, want, "stream {stream}: {warps} warps on {slots} slots");
        }
    }

    #[test]
    fn warp_slots_match_the_first_slot_reference() {
        warp_models_agree(20_000, 0x2545_f491_4f6c_dd1d);
    }

    /// The same oracle over two million streams (release profile).
    #[test]
    #[ignore]
    fn warp_slots_match_the_first_slot_reference_large() {
        warp_models_agree(2_000_000, 0x9e37_79b9_7f4a_7c15);
    }

    #[test]
    fn heavy_shader_takes_longer() {
        let tex = textures();
        let core = ShaderCore::new(8, 0);
        let mk = |profile: ShaderProfile| {
            let mut q = quad_at(0, 0);
            q.shader = profile;
            vec![q; 32]
        };
        let mut h1 = hierarchy();
        let (light, _) = core.run_subtile(0, &mk(ShaderProfile::simple()), &tex, &mut h1);
        let mut h2 = hierarchy();
        let (heavy, _) = core.run_subtile(0, &mk(ShaderProfile::heavy()), &tex, &mut h2);
        assert!(heavy > light);
    }
}
