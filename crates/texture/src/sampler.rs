//! LOD selection and filtering footprints.

use crate::texture::TextureDesc;
use dtexl_gmath::{interp::attr_derivatives, Vec2};
use dtexl_mem::LineAddr;

/// Texture filtering mode.
///
/// The paper notes that adjacent quads re-access neighboring texels
/// "more so in trilinear and anisotropic filtering than in bilinear"
/// — trilinear doubles the footprint (two mip levels) and anisotropic
/// multiplies it along the anisotropy axis, increasing inter-quad
/// sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Filter {
    /// 2×2 texels from the nearest mip level.
    #[default]
    Bilinear,
    /// 2×2 texels from each of the two surrounding mip levels.
    Trilinear,
    /// Up to `max_ratio` trilinear probes along the major axis.
    Anisotropic {
        /// Maximum anisotropy ratio (number of probes), ≥ 1.
        max_ratio: u8,
    },
}

/// Texture-coordinate wrap mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Wrap {
    /// Tile the texture (GL_REPEAT) — the common case for game content.
    #[default]
    Repeat,
    /// Clamp to the edge texel.
    ClampToEdge,
}

/// A texture sampler: computes LOD from quad derivatives and expands
/// fragments into cache-line footprints.
///
/// # Examples
///
/// ```
/// use dtexl_texture::{Filter, Sampler, TextureDesc};
/// use dtexl_gmath::Vec2;
/// let tex = TextureDesc::new(0, 64, 64, 0);
/// let s = Sampler::new(Filter::Trilinear);
/// // Minified 2× → LOD 1.
/// let uv = |x: f32, y: f32| Vec2::new(x * 2.0 / 64.0, y * 2.0 / 64.0);
/// let quad = [uv(4.0, 4.0), uv(5.0, 4.0), uv(4.0, 5.0), uv(5.0, 5.0)];
/// assert!((s.lod(&tex, quad) - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sampler {
    filter: Filter,
    wrap: Wrap,
}

impl Sampler {
    /// Create a sampler with [`Wrap::Repeat`].
    #[must_use]
    pub const fn new(filter: Filter) -> Self {
        Self {
            filter,
            wrap: Wrap::Repeat,
        }
    }

    /// Create a sampler with an explicit wrap mode.
    #[must_use]
    pub const fn with_wrap(filter: Filter, wrap: Wrap) -> Self {
        Self { filter, wrap }
    }

    /// The sampler's filter.
    pub(crate) fn filter(&self) -> Filter {
        self.filter
    }

    /// Texture LOD for a quad of UVs laid out
    /// `[top-left, top-right, bottom-left, bottom-right]` with one-pixel
    /// spacing.
    #[must_use]
    pub fn lod(&self, tex: &TextureDesc, quad_uv: [Vec2; 4]) -> f32 {
        let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
        let texel = quad_uv.map(|uv| uv.mul_elem(scale));
        let (ddx, ddy) = attr_derivatives(texel);
        let rho = ddx.length().max(ddy.length()).max(1e-6);
        rho.log2().max(0.0)
    }

    /// Unbiased exponent of the quad's maximum *squared* texel-space
    /// gradient `m = max(|ddx|², |ddy|²)`.
    ///
    /// With `ρ = √m`, integer mip levels derive from this exponent
    /// without `sqrt` or `log2f` (the footprint hot path):
    /// `floor(log2 ρ + ½) == (e + 1) >> 1` and
    /// `floor(log2 ρ) == e >> 1` exactly, because the half-integer
    /// thresholds of `log2 ρ` are the integer power-of-two boundaries
    /// of `m` — where its exponent increments. Same quantized level as
    /// [`lod`](Self::lod), minus that path's two rounding steps
    /// (`sqrtf` then `log2f`), which cancel out within the float
    /// spacing at every representable `m`.
    #[inline]
    fn grad_exp(tex: &TextureDesc, quad_uv: [Vec2; 4]) -> i32 {
        let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
        let texel = quad_uv.map(|uv| uv.mul_elem(scale));
        let (ddx, ddy) = attr_derivatives(texel);
        let m = ddx.dot(ddx).max(ddy.dot(ddy)).max(1e-12);
        ((m.to_bits() >> 23) as i32) - 127
    }

    /// The mip levels a bilinear (`lo == hi`) or trilinear quad
    /// samples, clamped to the chain: bilinear takes the nearest level,
    /// `floor(max(log2 ρ, 0) + ½)`; trilinear the lower one,
    /// `floor(max(log2 ρ, 0))`, and the next.
    #[inline]
    fn mip_levels(tex: &TextureDesc, quad_uv: [Vec2; 4], trilinear: bool) -> (u32, u32) {
        let e = Self::grad_exp(tex, quad_uv);
        let max_level = tex.levels() - 1;
        if trilinear {
            let lo = ((e >> 1).max(0) as u32).min(max_level);
            (lo, (lo + 1).min(max_level))
        } else {
            let level = (((e + 1) >> 1).max(0) as u32).min(max_level);
            (level, level)
        }
    }

    /// Cache-line footprint of one quad: the deduplicated set of line
    /// addresses its four fragments touch under the configured filter.
    ///
    /// Hardware texture units coalesce the four fragments' requests per
    /// cycle, so intra-quad duplicates count as a single access — the
    /// inter-quad sharing is what the scheduler can win or lose.
    #[must_use]
    pub fn quad_footprint(&self, tex: &TextureDesc, quad_uv: [Vec2; 4]) -> Vec<LineAddr> {
        let mut lines = Vec::with_capacity(16);
        self.quad_footprint_into(tex, quad_uv, &mut lines);
        lines
    }

    /// Arena variant of [`quad_footprint`](Self::quad_footprint):
    /// appends the quad's sorted, deduplicated footprint to `out`
    /// without allocating, so callers can pack many quads' footprints
    /// into one flat buffer. Only the appended tail is sorted and
    /// deduplicated; anything already in `out` is untouched. A batch
    /// of one through [`footprints`](Self::footprints).
    pub fn quad_footprint_into(
        &self,
        tex: &TextureDesc,
        quad_uv: [Vec2; 4],
        lines: &mut Vec<LineAddr>,
    ) {
        Self::footprints([(tex, *self, quad_uv)], |l| lines.extend_from_slice(l));
    }

    /// Footprints of a batch of quads, each with its own texture and
    /// sampler: calls `emit` once per quad, in order, with its sorted,
    /// deduplicated lines (valid until `emit` returns).
    ///
    /// Bilinear and trilinear quads on Morton textures under
    /// [`Wrap::Repeat`] resolve eight at a time, once per mip level over
    /// a block window (`docs/MODEL.md`); every other quad, and any quad
    /// that window cannot hold, expands fragment by fragment. Both paths
    /// produce the same lines on levels up to 65,536 texels a side, the
    /// range [`morton::encode`](crate::morton::encode) addresses exactly.
    pub fn footprints<'t>(
        quads: impl IntoIterator<Item = (&'t TextureDesc, Sampler, [Vec2; 4])>,
        mut emit: impl FnMut(&[LineAddr]),
    ) {
        crate::batch::footprints(quads, |lines, _| emit(lines));
    }

    /// The sampler's wrap mode.
    pub(crate) fn wrap(&self) -> Wrap {
        self.wrap
    }

    /// The per-fragment reference path of
    /// [`footprints`](Self::footprints): every filter, layout and wrap
    /// mode, fragment by fragment. Appends the sorted, deduplicated
    /// footprint to `lines`.
    pub(crate) fn fragment_footprint(
        &self,
        tex: &TextureDesc,
        quad_uv: [Vec2; 4],
        lines: &mut Vec<LineAddr>,
    ) {
        let start = lines.len();
        let max_level = tex.levels() - 1;

        match self.filter {
            Filter::Bilinear | Filter::Trilinear => {
                let trilinear = self.filter == Filter::Trilinear;
                let (lo, hi) = Self::mip_levels(tex, quad_uv, trilinear);
                let ctx_lo = LevelCtx::new(tex, lo, self.wrap);
                let ctx_hi = LevelCtx::new(tex, hi, self.wrap);
                for uv in quad_uv {
                    ctx_lo.fragment_lines(uv, lines, start);
                    if hi != lo {
                        ctx_hi.fragment_lines(uv, lines, start);
                    }
                }
            }
            Filter::Anisotropic { max_ratio } => {
                let ratio = max_ratio.max(1);
                let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
                let texel = quad_uv.map(|uv| uv.mul_elem(scale));
                let (ddx, ddy) = attr_derivatives(texel);
                let (major, minor) = if ddx.length() >= ddy.length() {
                    (ddx, ddy)
                } else {
                    (ddy, ddx)
                };
                let minor_len = minor.length().max(1e-6);
                let probes = ((major.length() / minor_len).ceil() as u8).clamp(1, ratio) as i32;
                // floor(max(log2 minor_len, 0)) is the unbiased
                // exponent of `minor_len`, clamped — see `grad_exp`.
                let e = (minor_len.to_bits() >> 23) as i32 - 127;
                let level = (e.max(0) as u32).min(max_level);
                let hi = (level + 1).min(max_level);
                let ctx_lo = LevelCtx::new(tex, level, self.wrap);
                let ctx_hi = LevelCtx::new(tex, hi, self.wrap);
                for uv in quad_uv {
                    let uvt = uv.mul_elem(scale);
                    for p in 0..probes {
                        // Distribute probes along the major axis.
                        let t = if probes == 1 {
                            0.0
                        } else {
                            (p as f32 + 0.5) / probes as f32 - 0.5
                        };
                        let pos = uvt + major * t;
                        let pos_uv = Vec2::new(pos.x / scale.x, pos.y / scale.y);
                        ctx_lo.fragment_lines(pos_uv, lines, start);
                        if hi != level {
                            ctx_hi.fragment_lines(pos_uv, lines, start);
                        }
                    }
                }
            }
        }

        lines[start..].sort_unstable();
        // In-place dedup of the tail (`Vec::dedup` would scan — and
        // could merge across — the caller's existing prefix).
        let mut w = start;
        for r in start..lines.len() {
            if w == start || lines[w - 1] != lines[r] {
                lines[w] = lines[r];
                w += 1;
            }
        }
        lines.truncate(w);
    }

    /// Bilinearly filtered RGBA color (0–1 floats) at `uv` on the mip
    /// level selected by `lod` (functional rendering path).
    #[must_use]
    pub fn sample_color(&self, tex: &TextureDesc, uv: Vec2, lod: f32) -> [f32; 4] {
        let max_level = tex.levels() - 1;
        let level = (lod + 0.5).floor().clamp(0.0, max_level as f32) as u32;
        let (w, h) = tex.level_dims(level);
        let tu = uv.x * w as f32 - 0.5;
        let tv = uv.y * h as f32 - 0.5;
        let x0 = tu.floor();
        let y0 = tv.floor();
        let fx = tu - x0;
        let fy = tv - y0;
        let mut acc = [0f32; 4];
        for (dx, dy, wgt) in [
            (0, 0, (1.0 - fx) * (1.0 - fy)),
            (1, 0, fx * (1.0 - fy)),
            (0, 1, (1.0 - fx) * fy),
            (1, 1, fx * fy),
        ] {
            let (x, y) = self.wrap_coord(x0 as i64 + dx, y0 as i64 + dy, w, h);
            let c = tex.texel_color(level, x, y);
            for i in 0..4 {
                acc[i] += f32::from(c[i]) / 255.0 * wgt;
            }
        }
        acc
    }

    fn wrap_coord(&self, x: i64, y: i64, w: u32, h: u32) -> (i64, i64) {
        match self.wrap {
            Wrap::Repeat => (x.rem_euclid(i64::from(w)), y.rem_euclid(i64::from(h))),
            Wrap::ClampToEdge => (x.clamp(0, i64::from(w) - 1), y.clamp(0, i64::from(h) - 1)),
        }
    }
}

/// Per-mip-level addressing context of the per-fragment path, hoisted
/// out of the tap loops: one
/// [`fragment_footprint`](Sampler::fragment_footprint) call resolves
/// the level dimensions, wrap masks and base address once, then
/// expands the quad's taps fragment by fragment
/// ([`fragment_lines`](Self::fragment_lines), addressing each tap as
/// [`TextureDesc::texel_line`] does, minus its per-tap `rem_euclid`
/// divisions and bounds re-checks).
struct LevelCtx {
    /// Level dimensions as floats (UV → texel scale).
    wf: f32,
    hf: f32,
    /// Level dimensions as integers. Power-of-two by construction
    /// ([`TextureDesc`] asserts it), so `Repeat` wrapping is a mask.
    w: i64,
    h: i64,
    /// First byte address of the level (base + level offset).
    base: u64,
    /// Row-major line pitch (`max(w, h)`, the padded square side).
    pitch: u64,
    morton: bool,
    clamp: bool,
}

impl LevelCtx {
    fn new(tex: &TextureDesc, level: u32, wrap: Wrap) -> Self {
        let (w, h) = tex.level_dims(level);
        debug_assert!(w.is_power_of_two() && h.is_power_of_two());
        let base = tex.level_base_addr(level);
        Self {
            wf: w as f32,
            hf: h as f32,
            w: i64::from(w),
            h: i64::from(h),
            base,
            pitch: u64::from(w.max(h)),
            morton: tex.layout() == crate::TexelLayout::Morton,
            clamp: wrap == Wrap::ClampToEdge,
        }
    }

    /// Line address of texel `(x, y)` (already wrapped into range).
    #[inline]
    fn line(&self, x: u32, y: u32) -> LineAddr {
        let texel_index = if self.morton {
            crate::morton::encode(x, y)
        } else {
            u64::from(y) * self.pitch + u64::from(x)
        };
        (self.base + texel_index * crate::BYTES_PER_TEXEL) / dtexl_mem::LINE_BYTES
    }

    /// Append the distinct lines of the fragment's 2×2 bilinear taps,
    /// skipping any already present in `out[start..]` (the current
    /// quad's tail). Adjacent fragments of a quad mostly share lines —
    /// a 64 B line is a 4×4-texel block — so deduplicating at push time
    /// keeps the tail at its final unique size (typically 1–4 entries)
    /// and the caller's closing sort+dedup nearly free. The linear
    /// `contains` scan is over that same tiny tail.
    fn fragment_lines(&self, uv: Vec2, out: &mut Vec<LineAddr>, start: usize) {
        // Branchless floor: `f32::floor` lowers to a `floorf` libcall on
        // baseline x86-64 (no SSE4.1), which dominated this function.
        // `as i64` truncates toward zero, so subtract one when the
        // truncation rounded up (negative non-integers); identical to
        // `v.floor() as i64` for every float, NaN and ±∞ included
        // (both saturate the same way).
        #[inline]
        fn floor_i64(v: f32) -> i64 {
            let t = v as i64;
            #[allow(clippy::cast_precision_loss)]
            let adjust = v < t as f32;
            // Saturating: floats below i64::MIN truncate to i64::MIN
            // and must stay there, as `floor() as i64` would.
            t.saturating_sub(i64::from(adjust))
        }
        let tu = uv.x * self.wf - 0.5;
        let tv = uv.y * self.hf - 0.5;
        let x0 = floor_i64(tu);
        let y0 = floor_i64(tv);
        // Wrapping: a +∞ coordinate saturates to `i64::MAX`, whose
        // right tap wraps in every profile, as release builds always did.
        let (x1, y1) = (x0.wrapping_add(1), y0.wrapping_add(1));
        let (x0, x1, y0, y1) = if self.clamp {
            (
                x0.clamp(0, self.w - 1) as u32,
                x1.clamp(0, self.w - 1) as u32,
                y0.clamp(0, self.h - 1) as u32,
                y1.clamp(0, self.h - 1) as u32,
            )
        } else {
            // `rem_euclid` by a power of two is a mask.
            (
                (x0 & (self.w - 1)) as u32,
                (x1 & (self.w - 1)) as u32,
                (y0 & (self.h - 1)) as u32,
                (y1 & (self.h - 1)) as u32,
            )
        };
        let l00 = self.line(x0, y0);
        let l10 = self.line(x1, y0);
        let l01 = self.line(x0, y1);
        let l11 = self.line(x1, y1);
        if !out[start..].contains(&l00) {
            out.push(l00);
        }
        if l10 != l00 && !out[start..].contains(&l10) {
            out.push(l10);
        }
        if l01 != l00 && l01 != l10 && !out[start..].contains(&l01) {
            out.push(l01);
        }
        if l11 != l00 && l11 != l10 && l11 != l01 && !out[start..].contains(&l11) {
            out.push(l11);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tex() -> TextureDesc {
        TextureDesc::new(0, 256, 256, 0)
    }

    /// A screen-aligned quad at `(x, y)` whose UVs advance `step` texels
    /// per pixel.
    fn quad_at(x: f32, y: f32, step: f32, t: &TextureDesc) -> [Vec2; 4] {
        let uv = |px: f32, py: f32| {
            Vec2::new(px * step / t.width() as f32, py * step / t.height() as f32)
        };
        [
            uv(x, y),
            uv(x + 1.0, y),
            uv(x, y + 1.0),
            uv(x + 1.0, y + 1.0),
        ]
    }

    #[test]
    fn lod_zero_at_unit_scale() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        assert!(s.lod(&t, quad_at(10.0, 10.0, 1.0, &t)).abs() < 1e-3);
    }

    #[test]
    fn lod_one_at_half_scale() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        assert!((s.lod(&t, quad_at(10.0, 10.0, 2.0, &t)) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn lod_never_negative_under_magnification() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        assert_eq!(s.lod(&t, quad_at(10.0, 10.0, 0.25, &t)), 0.0);
    }

    /// splitmix64: the differential corpus's fixed-seed generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Uniform in `[lo, hi)`.
        fn range(&mut self, lo: f32, hi: f32) -> f32 {
            lo + (hi - lo) * ((self.next() >> 40) as f32 / (1u64 << 24) as f32)
        }
    }

    /// One corpus quad on `tex`: a pixel quad whose texel-space step is
    /// log-uniform in 1/8..64 texels, rotated, optionally stretched,
    /// with a little perspective skew on the last fragment. Centers
    /// range over −3..3 texture periods (negative UVs, seams); about 4%
    /// of quads sit just inside or outside the ±2^22-texel guard and 2%
    /// carry a NaN or ±∞ coordinate. A `special` quad is always one of
    /// those two kinds. One in 20 is warped: its top-right and
    /// bottom-left fragments shift together by up to 8 steps, which
    /// leaves the LOD's averaged derivatives as they were, so its window
    /// can outgrow 3×3 blocks; the flag reports it.
    fn corpus_quad(rng: &mut Rng, tex: &TextureDesc, special: bool) -> ([Vec2; 4], bool) {
        let scale = Vec2::new(tex.width() as f32, tex.height() as f32);
        let step = rng.range(-3.0, 6.0).exp2();
        let stretch = if rng.below(4) == 0 {
            rng.range(1.0, 6.0)
        } else {
            1.0
        };
        let (sin, cos) = rng.range(0.0, std::f32::consts::TAU).sin_cos();
        let ddx = Vec2::new(cos, sin) * (step * stretch);
        let ddy = Vec2::new(-sin, cos) * step;
        let skew = Vec2::new(rng.range(-0.05, 0.05), rng.range(-0.05, 0.05)) * step;
        let warped = rng.below(20) == 0;
        let warp = if warped {
            Vec2::new(rng.range(-8.0, 8.0), rng.range(-8.0, 8.0)) * step
        } else {
            Vec2::new(0.0, 0.0)
        };
        // A special quad is a guard-edge or a non-finite one, evenly.
        let non_finite = special && rng.below(2) == 0;
        let kind = if special && !non_finite {
            0
        } else {
            rng.below(50)
        };
        let mut c = match kind {
            // Within a few texels of the guard, either side of zero.
            0 | 1 => {
                let t = 4_194_304.0 + rng.range(-4.0, 4.0);
                let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                Vec2::new(sign * t, rng.range(-4.0, 4.0) * 1_048_576.0)
            }
            // Straddling a wrap seam.
            2..=9 => Vec2::new(
                (rng.below(7) as f32 - 3.0) * scale.x + rng.range(-3.0, 3.0),
                (rng.below(7) as f32 - 3.0) * scale.y + rng.range(-3.0, 3.0),
            ),
            _ => Vec2::new(
                rng.range(-3.0, 3.0) * scale.x,
                rng.range(-3.0, 3.0) * scale.y,
            ),
        };
        if rng.below(2) == 0 {
            std::mem::swap(&mut c.x, &mut c.y);
        }
        let texel = [c, c + ddx + warp, c + ddy + warp, c + ddx + ddy + skew];
        let mut quad = texel.map(|t| Vec2::new(t.x / scale.x, t.y / scale.y));
        if non_finite || rng.below(50) == 0 {
            let v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.below(3) as usize];
            let f = &mut quad[rng.below(4) as usize];
            if rng.below(2) == 0 {
                f.x = v;
            } else {
                f.y = v;
            }
        }
        (quad, warped)
    }

    /// A corpus texture: 1×1 to 1024×256 in either orientation, both
    /// layouts, a line-aligned or `+16` base.
    fn corpus_texture(rng: &mut Rng) -> TextureDesc {
        let (mut w, mut h) = (1 << rng.below(11), 1 << rng.below(9));
        if rng.below(2) == 0 {
            std::mem::swap(&mut w, &mut h);
        }
        let base = rng.below(1 << 20) * 64 + if rng.below(4) == 0 { 16 } else { 0 };
        let layout = if rng.below(5) == 0 {
            crate::TexelLayout::RowMajor
        } else {
            crate::TexelLayout::Morton
        };
        TextureDesc::with_layout(0, w, h, base, layout)
    }

    /// A corpus sampler: all three filters and both wraps.
    fn corpus_sampler(rng: &mut Rng) -> Sampler {
        let filter = match rng.below(5) {
            0 | 1 => Filter::Bilinear,
            2 | 3 => Filter::Trilinear,
            _ => Filter::Anisotropic {
                max_ratio: 1 + rng.below(16) as u8,
            },
        };
        let wrap = if rng.below(5) == 0 {
            Wrap::ClampToEdge
        } else {
            Wrap::Repeat
        };
        Sampler::with_wrap(filter, wrap)
    }

    /// Run `quads` corpus quads through the batch pass and assert each
    /// quad's lines equal the per-fragment reference's, and those of a
    /// batch of one ([`Sampler::quad_footprint_into`]). Batches run
    /// 0–20 quads long over a pool of four textures (one replaced per
    /// batch) and mix filters and wraps quad by quad; half the batches
    /// of three or more, at random, carry a guard-edge or non-finite
    /// quad strictly inside them. Quads outside the lane pass's scope must
    /// fall back, and at least 97% of the quads it targets (Morton,
    /// `Repeat`, bilinear or trilinear, line-aligned base, neither
    /// warped nor special) must take it.
    fn differential(seed: u64, quads: usize) {
        let mut rng = Rng(seed);
        let mut pool: Vec<TextureDesc> = (0..4).map(|_| corpus_texture(&mut rng)).collect();
        let (mut targeted, mut taken, mut done) = (0usize, 0usize, 0usize);
        let (mut reference, mut public) = (Vec::new(), Vec::new());
        while done < quads {
            pool[rng.below(4) as usize] = corpus_texture(&mut rng);
            let len = (rng.below(21) as usize).min(quads - done);
            let special_at =
                (len >= 3 && rng.below(2) == 0).then(|| 1 + rng.below(len as u64 - 2) as usize);
            let batch: Vec<(&TextureDesc, Sampler, [Vec2; 4], bool)> = (0..len)
                .map(|i| {
                    let tex = &pool[rng.below(4) as usize];
                    let s = corpus_sampler(&mut rng);
                    let special = special_at == Some(i);
                    let (q, warped) = corpus_quad(&mut rng, tex, special);
                    (tex, s, q, warped || special)
                })
                .collect();
            let mut i = 0;
            crate::batch::footprints(
                batch.iter().map(|&(t, s, q, _)| (t, s, q)),
                |lines, fast| {
                    let (tex, s, q, odd) = batch[i];
                    let ctx = || format!("quad {}: {s:?} {tex:?} {q:?}", done + i);
                    reference.clear();
                    s.fragment_footprint(tex, q, &mut reference);
                    assert_eq!(lines, reference, "{}", ctx());
                    public.clear();
                    public.push(LineAddr::MAX);
                    s.quad_footprint_into(tex, q, &mut public);
                    assert_eq!(public[0], LineAddr::MAX, "{}", ctx());
                    assert_eq!(public[1..], reference, "{}", ctx());
                    let in_scope = tex.layout() == crate::TexelLayout::Morton
                        && s.wrap() == Wrap::Repeat
                        && matches!(s.filter(), Filter::Bilinear | Filter::Trilinear);
                    assert!(in_scope || !fast, "out of scope but taken: {}", ctx());
                    if in_scope && tex.base_addr().is_multiple_of(64) && !odd {
                        targeted += 1;
                        taken += usize::from(fast);
                    }
                    i += 1;
                },
            );
            assert_eq!(i, len, "one emit per quad");
            done += len;
        }
        assert!(
            taken * 100 >= targeted * 97,
            "lane pass took {taken} of {targeted} targeted quads"
        );
    }

    #[test]
    fn lane_pass_matches_fragment_path() {
        differential(0x5eed_f007, 100_000);
    }

    /// The same oracle over a 5M-quad corpus (release profile).
    #[test]
    #[ignore]
    fn lane_pass_matches_fragment_path_large() {
        differential(0xface_b00c, 5_000_000);
    }

    #[test]
    fn batch_of_none_emits_nothing() {
        let mut calls = 0;
        Sampler::footprints([], |_| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn bilinear_footprint_is_small_and_dedupped() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        let lines = s.quad_footprint(&t, quad_at(16.0, 16.0, 1.0, &t));
        // 4 fragments × 4 taps land in at most a 3×3 texel region →
        // 1..=4 distinct 4×4-texel lines.
        assert!((1..=4).contains(&lines.len()), "{} lines", lines.len());
        let mut sorted = lines.clone();
        sorted.dedup();
        assert_eq!(sorted, lines, "sorted and deduplicated");
    }

    #[test]
    fn trilinear_touches_two_levels() {
        let t = tex();
        let bi = Sampler::new(Filter::Bilinear);
        let tri = Sampler::new(Filter::Trilinear);
        let q = quad_at(16.0, 16.0, 3.0, &t); // fractional LOD ≈ 1.58
        let lines_bi = bi.quad_footprint(&t, q);
        let lines_tri = tri.quad_footprint(&t, q);
        assert!(lines_tri.len() > lines_bi.len());
    }

    #[test]
    fn adjacent_quads_share_lines() {
        // The key mechanism of the paper: neighboring quads hit the same
        // cache lines.
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        let a = s.quad_footprint(&t, quad_at(16.0, 16.0, 1.0, &t));
        let b = s.quad_footprint(&t, quad_at(18.0, 16.0, 1.0, &t));
        let shared = a.iter().filter(|l| b.contains(l)).count();
        assert!(shared > 0, "adjacent quads must share texture lines");
        // While far-away quads do not:
        let c = s.quad_footprint(&t, quad_at(120.0, 120.0, 1.0, &t));
        assert_eq!(a.iter().filter(|l| c.contains(l)).count(), 0);
    }

    #[test]
    fn repeat_wraps_far_coordinates() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        // One full texture period apart → identical footprints.
        let a = s.quad_footprint(&t, quad_at(8.0, 8.0, 1.0, &t));
        let b = s.quad_footprint(&t, quad_at(8.0 + 256.0, 8.0, 1.0, &t));
        assert_eq!(a, b);
    }

    #[test]
    fn clamp_keeps_edges() {
        let t = tex();
        let s = Sampler::with_wrap(Filter::Bilinear, Wrap::ClampToEdge);
        let lines = s.quad_footprint(&t, quad_at(-10.0, -10.0, 1.0, &t));
        assert_eq!(lines.len(), 1, "everything clamps to the corner block");
        assert_eq!(lines[0], t.texel_line(0, 0, 0));
    }

    #[test]
    fn anisotropic_probes_scale_with_stretch() {
        let t = tex();
        let iso = Sampler::new(Filter::Anisotropic { max_ratio: 8 });
        // Stretched quad: du/dx = 8 texels, dv/dy = 1 texel.
        let uv = |px: f32, py: f32| Vec2::new(px * 8.0 / 256.0, py * 1.0 / 256.0);
        let stretched = [uv(4.0, 4.0), uv(5.0, 4.0), uv(4.0, 5.0), uv(5.0, 5.0)];
        let square = quad_at(4.0, 4.0, 1.0, &t);
        assert!(
            iso.quad_footprint(&t, stretched).len() > iso.quad_footprint(&t, square).len(),
            "anisotropy adds probes"
        );
    }

    #[test]
    fn sample_color_is_deterministic_and_bounded() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        let c1 = s.sample_color(&t, Vec2::new(0.3, 0.7), 0.0);
        let c2 = s.sample_color(&t, Vec2::new(0.3, 0.7), 0.0);
        assert_eq!(c1, c2);
        assert!(c1.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Different positions produce different content.
        let c3 = s.sample_color(&t, Vec2::new(0.8, 0.1), 0.0);
        assert_ne!(c1, c3);
    }

    #[test]
    fn sample_color_interpolates_smoothly() {
        let t = tex();
        let s = Sampler::new(Filter::Bilinear);
        // Two samples half a texel apart differ less than two samples
        // ten texels apart (bilinear smoothing), on average.
        let d =
            |a: [f32; 4], b: [f32; 4]| -> f32 { a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum() };
        let mut near = 0.0;
        let mut far = 0.0;
        for i in 0..32 {
            let base = Vec2::new(0.1 + i as f32 * 0.02, 0.4);
            let c0 = s.sample_color(&t, base, 0.0);
            near += d(
                c0,
                s.sample_color(&t, base + Vec2::new(0.5 / 256.0, 0.0), 0.0),
            );
            far += d(
                c0,
                s.sample_color(&t, base + Vec2::new(10.0 / 256.0, 0.0), 0.0),
            );
        }
        assert!(near < far, "bilinear must smooth: near {near} vs far {far}");
    }

    #[test]
    fn tiny_texture_clamps_mip_level() {
        let t = TextureDesc::new(0, 4, 4, 0);
        let s = Sampler::new(Filter::Trilinear);
        // Extreme minification: LOD far above the last level.
        let uv = |px: f32, py: f32| Vec2::new(px * 64.0 / 4.0, py * 64.0 / 4.0);
        let q = [uv(0.0, 0.0), uv(1.0, 0.0), uv(0.0, 1.0), uv(1.0, 1.0)];
        let lines = s.quad_footprint(&t, q);
        assert!(!lines.is_empty(), "clamped to the 1x1 level");
    }
}
