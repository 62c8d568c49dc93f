//! Batched footprint resolution, eight quads at a time.
//!
//! [`Sampler::footprints`] runs in two passes over each group of eight
//! quads (`docs/MODEL.md` "Texture footprints"):
//!
//! * the **lane pass** holds the group's state in `[f32; 8]` /
//!   `[i32; 8]` arrays. Each of its loops runs over the eight lanes with
//!   a straight-line, branch-free body (selects and masks, no early
//!   exits or calls), which LLVM vectorizes at the baseline x86-64
//!   target. Per lane it computes the gradient exponent, the mip level
//!   or levels, and per level the range guard, the exact floors, the
//!   block window, the 9-bit block mask, the wrapped Morton offsets of
//!   the window's blocks and whether the lane resolves here;
//! * the **emit pass** walks the quads in order. A fast lane's touched
//!   blocks are sorted and deduplicated on the stack; any other lane
//!   takes the per-fragment reference path.
//!
//! The level selection performs the per-fragment path's IEEE operations
//! in the same order, and every later step is exact integer or
//! power-of-two arithmetic, so both paths produce the same lines (the
//! differential test in `sampler.rs` checks it).

use crate::morton::spread16;
use crate::sampler::{Filter, Sampler, Wrap};
use crate::{TexelLayout, TextureDesc};
use dtexl_gmath::Vec2;
use dtexl_mem::{LineAddr, LINE_BYTES};

/// Quads per lane pass.
const LANES: usize = 8;

/// Range guard for the floors: [`MAGIC`] rounding is exact below 2^22,
/// and the taps' `+1` cannot overflow. Fails NaN and ±∞.
const GUARD: f32 = 4_194_304.0; // 2^22

/// At most nine blocks per level, two levels.
const MAX_LINES: usize = 18;

// A line is one 4×4-texel Morton block only at 16 texels per line.
const _: () = assert!(LINE_BYTES / crate::BYTES_PER_TEXEL == 16);

/// One quad of a batch: its texture, sampler and UVs.
type BatchQuad<'t> = (&'t TextureDesc, Sampler, [Vec2; 4]);

/// One `f32` or `i32` per lane.
type F = [f32; LANES];
type I = [i32; LANES];

/// A lane mask: all ones for `true`, zero for `false`.
#[inline(always)]
fn mask(c: bool) -> i32 {
    -i32::from(c)
}

/// `a` where `m` is all ones, `b` where it is zero.
#[inline(always)]
fn select(m: i32, a: i32, b: i32) -> i32 {
    (a & m) | (b & !m)
}

/// The group's inputs, one lane per quad.
#[derive(Default)]
struct Lanes {
    /// Fragment `k`'s UV, `u[k][lane]` and `v[k][lane]`.
    u: [F; 4],
    v: [F; 4],
    /// Level-0 width and height as floats (UV → texel scale).
    sx: F,
    sy: F,
    /// `log2` of the level-0 width and height (power-of-two textures),
    /// and the last mip level, their maximum.
    lw: I,
    lh: I,
    max_level: I,
    /// `base_addr % 64`.
    r: I,
    /// 1 for trilinear, else 0.
    trilinear: I,
    /// Bilinear or trilinear, Morton layout, `Repeat` wrapping.
    eligible: [bool; LANES],
}

/// One mip level per lane, resolved by [`Lanes::level`]. Masks are all
/// ones or zero.
#[derive(Default)]
struct LevelLanes {
    level: I,
    /// The level's whole allocation fits in one line (the 4×4-and-under
    /// tails): that line is its footprint, whatever the coordinates.
    single: I,
    /// The level resolves here: one line, or a line-aligned level whose
    /// taps pass the range guard and span at most 3×3 blocks.
    ok: I,
    /// Bit `3·row + col` per touched block of the window.
    mask: I,
    /// The Morton offset of each window block `3·row + col`, wrapped:
    /// the block's line is `level_base / 64 + cells[3·row + col]`.
    cells: [[u32; LANES]; 9],
}

impl Lanes {
    /// Load one quad into `lane`.
    fn gather(&mut self, lane: usize, (tex, sampler, uv): BatchQuad<'_>) {
        for (k, f) in uv.iter().enumerate() {
            self.u[k][lane] = f.x;
            self.v[k][lane] = f.y;
        }
        self.sx[lane] = tex.width() as f32;
        self.sy[lane] = tex.height() as f32;
        self.lw[lane] = tex.width().trailing_zeros() as i32;
        self.lh[lane] = tex.height().trailing_zeros() as i32;
        self.max_level[lane] = self.lw[lane].max(self.lh[lane]);
        self.r[lane] = (tex.base_addr() % LINE_BYTES) as i32;
        let filtered = matches!(sampler.filter(), Filter::Bilinear | Filter::Trilinear);
        self.eligible[lane] =
            filtered && sampler.wrap() == Wrap::Repeat && tex.layout() == TexelLayout::Morton;
        self.trilinear[lane] = i32::from(sampler.filter() == Filter::Trilinear);
    }

    /// The mip levels each lane samples: `(lo, hi)`, equal for
    /// bilinear. The same operations as `Sampler::mip_levels`.
    fn mip_levels(&self) -> (I, I) {
        let (mut lo, mut hi) = ([0; LANES], [0; LANES]);
        for i in 0..LANES {
            let t = |k: usize| (self.u[k][i] * self.sx[i], self.v[k][i] * self.sy[i]);
            let (t0, t1, t2, t3) = (t(0), t(1), t(2), t(3));
            // `attr_derivatives`, then each gradient's squared length.
            let ddx = (
                ((t1.0 - t0.0) + (t3.0 - t2.0)) * 0.5,
                ((t1.1 - t0.1) + (t3.1 - t2.1)) * 0.5,
            );
            let ddy = (
                ((t2.0 - t0.0) + (t3.0 - t1.0)) * 0.5,
                ((t2.1 - t0.1) + (t3.1 - t1.1)) * 0.5,
            );
            let m = (ddx.0 * ddx.0 + ddx.1 * ddx.1)
                .max(ddy.0 * ddy.0 + ddy.1 * ddy.1)
                .max(1e-12);
            let e = ((m.to_bits() >> 23) as i32) - 127;
            // Bilinear rounds the level, `(e + 1) >> 1`; trilinear
            // floors it and adds the next level.
            let tri = self.trilinear[i];
            lo[i] = ((e + 1 - tri) >> 1).max(0).min(self.max_level[i]);
            hi[i] = (lo[i] + tri).min(self.max_level[i]);
        }
        (lo, hi)
    }

    /// Resolve mip level `level[lane]` of every lane.
    fn level(&self, level: &I) -> LevelLanes {
        let mut out = LevelLanes {
            level: *level,
            ..LevelLanes::default()
        };
        for i in 0..LANES {
            let l = level[i];
            // The level's dims as exponents, and as floats built from
            // them (powers of two, so no per-lane shift is needed).
            let lwl = (self.lw[i] - l).max(0);
            let lhl = (self.lh[i] - l).max(0);
            let wf = f32::from_bits(((lwl + 127) as u32) << 23);
            let hf = f32::from_bits(((lhl + 127) as u32) << 23);
            // Levels over 2×2 texels take a multiple of 64 bytes, so only
            // the 1×1 tail of a longer chain sits 16 bytes past a line
            // boundary (after the 16-byte 2×2 level).
            let d = self.max_level[i] - l;
            let r = (self.r[i] + (mask(d == 0) & mask(l > 0) & 16)) & 63;
            // The level's allocation is its padded square: 4, 16 or 64
            // bytes for a side of 1, 2 or 4; any larger one spans lines.
            let big = select(mask(d == 2), 64, 128);
            let bytes = select(mask(d == 0), 4, select(mask(d == 1), 16, big));
            let single = mask(r + bytes <= 64);

            // The floors of the four fragments' texel coordinates. One
            // that fails the guard is zeroed first, so the discarded
            // lane's arithmetic stays in range. An axis under 4 texels
            // is a single block: it is wrapped up front (its `dim − 1`
            // is its exponent), so its window is one block however far
            // the taps stray.
            let wrap_x = select(mask(lwl < 2), lwl, -1);
            let wrap_y = select(mask(lhl < 2), lhl, -1);
            let mut guard = -1;
            let (mut fx, mut fy) = ([0; 4], [0; 4]);
            for k in 0..4 {
                let tu = self.u[k][i] * wf - 0.5;
                let tv = self.v[k][i] * hf - 0.5;
                let (gu, gv) = (mask(tu.abs() < GUARD), mask(tv.abs() < GUARD));
                guard &= gu & gv;
                fx[k] = floor(f32::from_bits(tu.to_bits() & gu as u32)) & wrap_x;
                fy[k] = floor(f32::from_bits(tv.to_bits() & gv as u32)) & wrap_y;
            }
            // Unwrapped block window: the blocks of the lowest tap to the
            // highest `+1` tap, per axis.
            let bx = fx[0].min(fx[1]).min(fx[2]).min(fx[3]) >> 2;
            let by = fy[0].min(fy[1]).min(fy[2]).min(fy[3]) >> 2;
            let bx_end = (fx[0].max(fx[1]).max(fx[2]).max(fx[3]) + 1) >> 2;
            let by_end = (fy[0].max(fy[1]).max(fy[2]).max(fy[3]) + 1) >> 2;
            let window = mask(bx_end - bx <= 2) & mask(by_end - by <= 2);
            // Each fragment's 2×2 tap blocks, OR-ed into the window mask.
            let mut blocks = 0;
            for k in 0..4 {
                blocks |= tap_blocks(fx[k], fy[k], bx, by);
            }
            // Wrap at emit time: `Repeat` masks a texel coordinate with
            // `dim − 1` (a power-of-two level), so a block coordinate
            // with `(dim − 1) >> 2`.
            let cols = spread_window(bx, lwl);
            let rows = spread_window(by, lhl);
            for (b, cell) in out.cells.iter_mut().enumerate() {
                cell[i] = cols[b % 3] | rows[b / 3] << 1;
            }
            out.single[i] = single;
            out.ok[i] = single | (mask(r == 0) & guard & window);
            out.mask[i] = blocks;
        }
        out
    }
}

/// `1.5 · 2^23`: adding it to an `f32` of magnitude under 2^22 rounds
/// the value to an integer (the spacing of `[2^23, 2^24)` is 1), which
/// then sits in the low mantissa bits.
const MAGIC: f32 = 12_582_912.0;

/// The integer nearest `t` (ties to even), for `|t| < 2^22`: exact, and
/// unlike a saturating `as i32` it vectorizes on baseline x86-64.
#[inline(always)]
fn round(t: f32) -> i32 {
    ((t + MAGIC).to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32)
}

/// Exact floor for `|t| < 2^22`: round, then step down where rounding
/// went up. `(t + MAGIC) − MAGIC` is the rounded value as an `f32`,
/// exactly.
#[inline(always)]
fn floor(t: f32) -> i32 {
    round(t) - i32::from((t + MAGIC) - MAGIC > t)
}

/// The window bits of one fragment's 2×2 taps at `(x, y)` (floored,
/// `+1` per axis) in the window at block `(bx, by)`: bit `3·row + col`
/// of its top-left block, doubled into the next column where the `+1`
/// tap crosses a block edge (`× 2`) and into the next row likewise
/// (`× 8`). The power of two is built as an `f32`, so it needs no
/// per-lane shift; an oversized (fallback) window yields garbage bits.
#[inline(always)]
fn tap_blocks(x: i32, y: i32, bx: i32, by: i32) -> i32 {
    let (xb, yb) = (x >> 2, y >> 2);
    let (dc, dr) = (((x + 1) >> 2) - xb, ((y + 1) >> 2) - yb);
    let top_left = f32::from_bits((((yb - by) * 3 + (xb - bx) + 127) as u32) << 23);
    round(top_left * (1 + 2 * dc) as f32 * (1 + 8 * dr) as f32)
}

/// `spread_bits` of the three window columns `b, b + 1, b + 2` of an
/// axis `2^dim_log2` texels long, each wrapped with the block mask
/// `(dim − 1) >> 2`. The mask matters only in the low 16 bits that
/// [`spread16`] keeps, so its exponent is capped at 18, where they are
/// all ones. The second and third columns step the first by dilated
/// addition: a carry crosses the odd bits, which are held at one.
#[inline(always)]
fn spread_window(b: i32, dim_log2: i32) -> [u32; 3] {
    const EVEN: u32 = 0x5555_5555;
    let wrap = (round(f32::from_bits(((dim_log2.min(18) + 127) as u32) << 23)) - 1) >> 2;
    let wrap_bits = spread16(wrap as u32);
    let first = spread16((b & wrap) as u32);
    let second = ((first | !EVEN).wrapping_add(1)) & wrap_bits;
    let third = ((second | !EVEN).wrapping_add(1)) & wrap_bits;
    [first, second, third]
}

/// Sorted, deduplicated lines of fast lane `i` over `levels` (one, or
/// two distinct trilinear levels) into `out`; returns their count.
fn emit_lane(
    tex: &TextureDesc,
    levels: &[LevelLanes],
    i: usize,
    out: &mut [LineAddr; MAX_LINES],
) -> usize {
    let mut n = 0;
    // Insertion into the sorted prefix `out[..n]`, skipping duplicates:
    // wrapped window blocks can coincide, and trilinear's 2×2 and 1×1
    // tail levels share a line, so the dedup runs over both levels.
    let mut insert = |line: LineAddr| {
        let mut j = n;
        while j > 0 && out[j - 1] > line {
            j -= 1;
        }
        if j > 0 && out[j - 1] == line {
            return;
        }
        for k in (j..n).rev() {
            out[k + 1] = out[k];
        }
        out[j] = line;
        n += 1;
    };
    for lv in levels {
        let lb = tex.level_base_addr(lv.level[i] as u32) / LINE_BYTES;
        if lv.single[i] != 0 {
            insert(lb);
            continue;
        }
        let mut mask = lv.mask[i] as u32;
        while mask != 0 {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            insert(lb + LineAddr::from(lv.cells[b][i]));
        }
    }
    n
}

/// The batch driver behind [`Sampler::footprints`]: calls `emit` once
/// per quad, in order, with its lines and whether its lane resolved
/// them (`false`: the per-fragment reference path did).
pub(crate) fn footprints<'t>(
    quads: impl IntoIterator<Item = BatchQuad<'t>>,
    mut emit: impl FnMut(&[LineAddr], bool),
) {
    let mut quads = quads.into_iter();
    let mut scratch = Vec::new();
    loop {
        let Some(first) = quads.next() else { return };
        // Slots past the end of the batch hold the first quad's texture
        // and sampler; their lanes keep the defaults. Neither is emitted.
        let mut group = [(first.0, first.1); LANES];
        let mut lanes = Lanes::default();
        lanes.gather(0, first);
        let mut n = 1;
        while n < LANES {
            let Some(q) = quads.next() else { break };
            lanes.gather(n, q);
            group[n] = (q.0, q.1);
            n += 1;
        }
        let (lo, hi) = lanes.mip_levels();
        let lo_lanes = lanes.level(&lo);
        // The second level only where some lane is trilinear below the
        // end of its chain.
        let two: [bool; LANES] = std::array::from_fn(|i| hi[i] != lo[i]);
        let hi_lanes = if two.iter().any(|&t| t) {
            lanes.level(&hi)
        } else {
            LevelLanes::default()
        };
        let levels = [lo_lanes, hi_lanes];
        let mut out = [0; MAX_LINES];
        for (i, &(tex, sampler)) in group[..n].iter().enumerate() {
            let used = &levels[..1 + usize::from(two[i])];
            if lanes.eligible[i] && used.iter().all(|lv| lv.ok[i] != 0) {
                let k = emit_lane(tex, used, i, &mut out);
                emit(&out[..k], true);
            } else {
                let uv = std::array::from_fn(|k| Vec2::new(lanes.u[k][i], lanes.v[k][i]));
                scratch.clear();
                sampler.fragment_footprint(tex, uv, &mut scratch);
                emit(&scratch, false);
            }
        }
        if n < LANES {
            return;
        }
    }
}
