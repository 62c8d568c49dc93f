//! Tile traversal orders (Fig. 7).

/// The order in which the tile fetcher feeds tiles to the raster
/// pipeline.
///
/// Tiles are independent, so any permutation is legal; the order decides
/// how much edge-sharing locality consecutive tiles expose to the L1
/// texture caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TileOrder {
    /// Row-major, every row left→right.
    Scanline,
    /// Boustrophedon: row-major with alternating direction ("S" shape).
    SOrder,
    /// Morton / Z-order of the tile coordinates (the baseline of
    /// Table II).
    ZOrder,
    /// The paper's rectangle-adapted Hilbert order: a Hilbert curve over
    /// each `sub` × `sub`-tile sub-frame, with sub-frames traversed
    /// boustrophedonically.
    Hilbert {
        /// Sub-frame side length in tiles (the paper uses 8).
        sub: u32,
    },
    /// Inward rectangular spiral from the frame's top-left corner —
    /// a beyond-paper design-space probe: fully edge-continuous like
    /// S-order, but its shared edges rotate through all four directions.
    Spiral,
}

impl TileOrder {
    /// The paper's Hilbert configuration (8×8-tile sub-frames).
    pub const HILBERT8: Self = Self::Hilbert { sub: 8 };

    /// Generate the traversal as a sequence of `(tx, ty)` coordinates
    /// covering every tile of a `w × h` frame exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `h == 0`, or if a Hilbert `sub` is zero or
    /// not a power of two.
    #[must_use]
    pub fn sequence(&self, w: u32, h: u32) -> Vec<(u32, u32)> {
        assert!(w > 0 && h > 0, "frame must contain at least one tile");
        match *self {
            TileOrder::Scanline => (0..h).flat_map(|y| (0..w).map(move |x| (x, y))).collect(),
            TileOrder::SOrder => (0..h)
                .flat_map(|y| {
                    let row: Box<dyn Iterator<Item = u32>> = if y % 2 == 0 {
                        Box::new(0..w)
                    } else {
                        Box::new((0..w).rev())
                    };
                    row.map(move |x| (x, y))
                })
                .collect(),
            TileOrder::ZOrder => {
                let side = w.max(h).next_power_of_two() as u64;
                let mut seq = Vec::with_capacity((w * h) as usize);
                for m in 0..side * side {
                    let (x, y) = dtexl_texture::morton::decode(m);
                    if x < w && y < h {
                        seq.push((x, y));
                    }
                }
                seq
            }
            TileOrder::Hilbert { sub } => {
                assert!(
                    sub > 0 && sub.is_power_of_two(),
                    "Hilbert sub-frame side must be a power of two"
                );
                let sub_cols = w.div_ceil(sub);
                let sub_rows = h.div_ceil(sub);
                let mut seq = Vec::with_capacity((w * h) as usize);
                for sy in 0..sub_rows {
                    // Boustrophedon over sub-frames.
                    let cols: Box<dyn Iterator<Item = u32>> = if sy % 2 == 0 {
                        Box::new(0..sub_cols)
                    } else {
                        Box::new((0..sub_cols).rev())
                    };
                    for sx in cols {
                        for d in 0..u64::from(sub) * u64::from(sub) {
                            let (hx, hy) = hilbert_d2xy(sub, d);
                            let x = sx * sub + hx;
                            let y = sy * sub + hy;
                            if x < w && y < h {
                                seq.push((x, y));
                            }
                        }
                    }
                }
                seq
            }
            TileOrder::Spiral => {
                let mut seq = Vec::with_capacity((w * h) as usize);
                let (mut x0, mut y0) = (0i64, 0i64);
                let (mut x1, mut y1) = (i64::from(w) - 1, i64::from(h) - 1);
                while x0 <= x1 && y0 <= y1 {
                    for x in x0..=x1 {
                        seq.push((x as u32, y0 as u32));
                    }
                    for y in y0 + 1..=y1 {
                        seq.push((x1 as u32, y as u32));
                    }
                    if y1 > y0 {
                        for x in (x0..x1).rev() {
                            seq.push((x as u32, y1 as u32));
                        }
                    }
                    if x1 > x0 {
                        for y in (y0 + 1..y1).rev() {
                            seq.push((x0 as u32, y as u32));
                        }
                    }
                    x0 += 1;
                    y0 += 1;
                    x1 -= 1;
                    y1 -= 1;
                }
                seq
            }
        }
    }

    /// Human-readable name used in reports ("Z-order", "Hilbert", …).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TileOrder::Scanline => "Scanline",
            TileOrder::SOrder => "S-order",
            TileOrder::ZOrder => "Z-order",
            TileOrder::Hilbert { .. } => "Hilbert",
            TileOrder::Spiral => "Spiral",
        }
    }
}

/// Direction of the step between two consecutive tiles in a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveDir {
    /// One tile to the right (+x): the tiles share a vertical edge.
    Right,
    /// One tile to the left (−x).
    Left,
    /// One tile down (+y): the tiles share a horizontal edge.
    Down,
    /// One tile up (−y).
    Up,
    /// Any non-adjacent step (diagonal or a jump).
    Jump,
}

impl MoveDir {
    /// Classify the step from tile `a` to tile `b`.
    #[must_use]
    pub fn between(a: (u32, u32), b: (u32, u32)) -> Self {
        let dx = i64::from(b.0) - i64::from(a.0);
        let dy = i64::from(b.1) - i64::from(a.1);
        match (dx, dy) {
            (1, 0) => MoveDir::Right,
            (-1, 0) => MoveDir::Left,
            (0, 1) => MoveDir::Down,
            (0, -1) => MoveDir::Up,
            _ => MoveDir::Jump,
        }
    }

    /// Whether the step crosses a shared tile edge.
    #[must_use]
    pub fn is_adjacent(&self) -> bool {
        !matches!(self, MoveDir::Jump)
    }

    /// Whether the step is horizontal (shares a vertical edge).
    #[must_use]
    pub fn is_horizontal(&self) -> bool {
        matches!(self, MoveDir::Right | MoveDir::Left)
    }
}

/// Map a distance `d` along a Hilbert curve of side `n` (power of two)
/// to `(x, y)` coordinates.
///
/// Classic non-recursive algorithm (Warren, "Hacker's Delight" style).
///
/// # Panics
///
/// Panics if `n` is zero or not a power of two.
///
/// # Examples
///
/// ```
/// use dtexl_sched::hilbert_d2xy;
/// // The first four points of the order-2 curve:
/// assert_eq!(hilbert_d2xy(2, 0), (0, 0));
/// assert_eq!(hilbert_d2xy(2, 1), (0, 1));
/// assert_eq!(hilbert_d2xy(2, 2), (1, 1));
/// assert_eq!(hilbert_d2xy(2, 3), (1, 0));
/// ```
#[must_use]
pub fn hilbert_d2xy(n: u32, d: u64) -> (u32, u32) {
    assert!(n > 0 && n.is_power_of_two(), "side must be a power of two");
    let (mut x, mut y) = (0u32, 0u32);
    let mut t = d;
    let mut s = 1u32;
    while s < n {
        let rx = ((t / 2) & 1) as u32;
        let ry = ((t ^ u64::from(rx)) & 1) as u32;
        // Rotate quadrant.
        if ry == 0 {
            if rx == 1 {
                x = s.wrapping_sub(1).wrapping_sub(x);
                y = s.wrapping_sub(1).wrapping_sub(y);
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_permutation(seq: &[(u32, u32)], w: u32, h: u32) -> bool {
        let set: HashSet<_> = seq.iter().copied().collect();
        set.len() == seq.len()
            && seq.len() == (w * h) as usize
            && set.iter().all(|&(x, y)| x < w && y < h)
    }

    #[test]
    fn all_orders_are_permutations() {
        for order in [
            TileOrder::Scanline,
            TileOrder::SOrder,
            TileOrder::ZOrder,
            TileOrder::HILBERT8,
            TileOrder::Hilbert { sub: 4 },
            TileOrder::Spiral,
        ] {
            for (w, h) in [(1, 1), (4, 4), (8, 3), (62, 24), (5, 9)] {
                let seq = order.sequence(w, h);
                assert!(
                    is_permutation(&seq, w, h),
                    "{order:?} on {w}x{h} is not a permutation"
                );
            }
        }
    }

    #[test]
    fn scanline_is_row_major() {
        let seq = TileOrder::Scanline.sequence(3, 2);
        assert_eq!(seq, vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn sorder_alternates_direction() {
        let seq = TileOrder::SOrder.sequence(3, 2);
        assert_eq!(seq, vec![(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]);
        // Every consecutive pair is edge-adjacent.
        for w in seq.windows(2) {
            assert!(MoveDir::between(w[0], w[1]).is_adjacent());
        }
    }

    #[test]
    fn zorder_matches_morton() {
        let seq = TileOrder::ZOrder.sequence(4, 4);
        assert_eq!(&seq[..4], &[(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert_eq!(seq[4], (2, 0));
    }

    #[test]
    fn hilbert_curve_is_continuous() {
        let n = 8;
        let mut prev = hilbert_d2xy(n, 0);
        for d in 1..u64::from(n) * u64::from(n) {
            let cur = hilbert_d2xy(n, d);
            let dist = prev.0.abs_diff(cur.0) + prev.1.abs_diff(cur.1);
            assert_eq!(dist, 1, "Hilbert step {d} is not unit");
            prev = cur;
        }
    }

    #[test]
    fn hilbert_visits_all_cells() {
        let n = 16;
        let set: HashSet<_> = (0..u64::from(n) * u64::from(n))
            .map(|d| hilbert_d2xy(n, d))
            .collect();
        assert_eq!(set.len(), (n * n) as usize);
    }

    /// Locality measure: fraction of consecutive tile pairs that are
    /// edge-adjacent. Hilbert and S-order should beat scanline and
    /// Z-order on a typical frame.
    #[test]
    fn adjacency_ranking() {
        let (w, h) = (62, 24); // 1960x768 at 32x32 tiles (61.25 → 62 cols)
        let adj = |o: TileOrder| {
            let seq = o.sequence(w, h);
            let n = seq
                .windows(2)
                .filter(|p| MoveDir::between(p[0], p[1]).is_adjacent())
                .count();
            n as f64 / (seq.len() - 1) as f64
        };
        let scan = adj(TileOrder::Scanline);
        let s = adj(TileOrder::SOrder);
        let z = adj(TileOrder::ZOrder);
        let hb = adj(TileOrder::HILBERT8);
        assert!(s > z, "S-order {s} should beat Z-order {z}");
        assert!(hb > z, "Hilbert {hb} should beat Z-order {z}");
        assert!(s > scan, "S-order {s} should beat scanline {scan}");
        assert!(s >= 0.99, "S-order is fully continuous");
    }

    #[test]
    fn spiral_is_fully_continuous() {
        for (w, h) in [(1, 1), (5, 4), (8, 8), (7, 3), (2, 9)] {
            let seq = TileOrder::Spiral.sequence(w, h);
            for p in seq.windows(2) {
                assert!(
                    MoveDir::between(p[0], p[1]).is_adjacent(),
                    "{w}x{h}: jump from {:?} to {:?}",
                    p[0],
                    p[1]
                );
            }
            assert_eq!(seq[0], (0, 0), "starts at the corner");
        }
    }

    #[test]
    fn spiral_walks_the_perimeter_first() {
        let seq = TileOrder::Spiral.sequence(4, 3);
        assert_eq!(
            &seq[..9],
            &[
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (3, 1),
                (3, 2),
                (2, 2),
                (1, 2),
                (0, 2)
            ]
        );
    }

    #[test]
    fn move_dir_classification() {
        assert_eq!(MoveDir::between((1, 1), (2, 1)), MoveDir::Right);
        assert_eq!(MoveDir::between((1, 1), (0, 1)), MoveDir::Left);
        assert_eq!(MoveDir::between((1, 1), (1, 2)), MoveDir::Down);
        assert_eq!(MoveDir::between((1, 1), (1, 0)), MoveDir::Up);
        assert_eq!(MoveDir::between((1, 1), (2, 2)), MoveDir::Jump);
        assert_eq!(MoveDir::between((1, 1), (5, 1)), MoveDir::Jump);
        assert!(MoveDir::Right.is_horizontal());
        assert!(!MoveDir::Down.is_horizontal());
        assert!(MoveDir::Up.is_adjacent());
    }

    #[test]
    fn hilbert_accepts_pow2_sides() {
        // The checked counterpart of `hilbert_bad_side_panics`: every
        // power-of-two side is accepted and stays in bounds.
        for n in [1u32, 2, 4, 8] {
            for d in 0..u64::from(n) * u64::from(n) {
                let (x, y) = hilbert_d2xy(n, d);
                assert!(x < n && y < n);
            }
        }
    }

    #[test]
    // lint: typed-sibling(hilbert_accepts_pow2_sides)
    #[should_panic(expected = "power of two")]
    fn hilbert_bad_side_panics() {
        let _ = hilbert_d2xy(6, 0);
    }
}
