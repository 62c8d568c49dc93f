//! Quad groupings (Fig. 6): mapping quads inside a tile to subtiles.

/// The static mapping from a quad's position within a tile to one of the
/// four subtile slots (and hence, via the subtile assignment, to a
/// shader core).
///
/// Fine-grained (FG) groupings interleave adjacent quads across slots —
/// good load balance, poor texture locality. Coarse-grained (CG)
/// groupings keep spatially contiguous regions on one slot — good
/// locality, poor balance. This is the central trade-off of the paper.
///
/// Coordinates below are quad coordinates inside the tile
/// (`0..quads_w`, `0..quads_h`; 16×16 for a 32×32-pixel tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QuadGrouping {
    /// Fig. 6(a): 2×2 checker — `(qx%2) + 2*(qy%2)`. No two adjacent
    /// (even diagonally adjacent) quads share a slot.
    FgChecker,
    /// Fig. 6(b): rows of `0123` shifted by two each row —
    /// `(qx + 2*qy) % 4`. No adjacent quad shares a slot. **The paper's
    /// load-balancing baseline (FG-xshift2).**
    FgXShift2,
    /// Fig. 6(c): diagonal stripes `(qx + qy) % 4` — at most two
    /// diagonal neighbors share a slot.
    FgDiag,
    /// Fig. 6(d): anti-diagonal stripes `(qx - qy) mod 4`.
    FgAntiDiag,
    /// Fig. 6(e): `0123` rows shifted by two every *two* rows —
    /// `(qx + 2*(qy/2)) % 4`; at most two vertical neighbors share a
    /// slot.
    FgXShift2V,
    /// Fig. 6(f): transpose of (e) — `(qy + 2*(qx/2)) % 4`; at most two
    /// horizontal neighbors share a slot.
    FgYShift2H,
    /// Fig. 6(g): four full-height vertical bands (each `quads_w/4` ×
    /// `quads_h`), i.e. rectangles running along x.
    CgXRect,
    /// Fig. 6(h): four full-width horizontal bands (each `quads_w` ×
    /// `quads_h/4`), stacked along y. Horizontally-elongated bands have
    /// the most horizontal adjacency, which §V-A observes gives the
    /// best texture locality among the rectangles.
    CgYRect,
    /// Fig. 6(i): four triangles cut by the tile's two diagonals
    /// (top, right, bottom, left).
    CgTri,
    /// Fig. 6(j): four square quadrants (2×2 blocks of `quads_w/2` ×
    /// `quads_h/2`). **The paper's locality representative
    /// (CG-square).**
    CgSquare,
}

impl QuadGrouping {
    /// All groupings in the order of Fig. 11/Fig. 12 (fine-grained
    /// first).
    pub const ALL: [Self; 10] = [
        Self::FgChecker,
        Self::FgXShift2,
        Self::FgDiag,
        Self::FgAntiDiag,
        Self::FgXShift2V,
        Self::FgYShift2H,
        Self::CgXRect,
        Self::CgYRect,
        Self::CgTri,
        Self::CgSquare,
    ];

    /// Whether this is one of the fine-grained interleavings.
    #[must_use]
    pub fn is_fine_grained(&self) -> bool {
        matches!(
            self,
            Self::FgChecker
                | Self::FgXShift2
                | Self::FgDiag
                | Self::FgAntiDiag
                | Self::FgXShift2V
                | Self::FgYShift2H
        )
    }

    /// The paper's name for the grouping (e.g. `"FG-xshift2"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::FgChecker => "FG-checker",
            Self::FgXShift2 => "FG-xshift2",
            Self::FgDiag => "FG-diag",
            Self::FgAntiDiag => "FG-antidiag",
            Self::FgXShift2V => "FG-xshift2v",
            Self::FgYShift2H => "FG-yshift2h",
            Self::CgXRect => "CG-xrect",
            Self::CgYRect => "CG-yrect",
            Self::CgTri => "CG-tri",
            Self::CgSquare => "CG-square",
        }
    }

    /// The subtile slot layout this grouping produces (drives how flips
    /// mirror the assignment).
    #[must_use]
    pub fn slot_layout(&self) -> crate::SlotLayout {
        match self {
            Self::CgXRect => crate::SlotLayout::Columns,
            Self::CgYRect => crate::SlotLayout::Rows,
            _ => crate::SlotLayout::Grid2x2,
        }
    }

    /// Subtile slot (0..4) of the quad at `(qx, qy)` in a tile of
    /// `quads_w × quads_h` quads.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the coordinates are out of range.
    #[must_use]
    pub fn subtile_of(&self, qx: u32, qy: u32, quads_w: u32, quads_h: u32) -> usize {
        debug_assert!(qx < quads_w && qy < quads_h);
        let slot = match self {
            Self::FgChecker => (qx % 2) + 2 * (qy % 2),
            Self::FgXShift2 => (qx + 2 * qy) % 4,
            Self::FgDiag => (qx + qy) % 4,
            Self::FgAntiDiag => (qx + 3 * qy) % 4,
            Self::FgXShift2V => (qx + 2 * (qy / 2)) % 4,
            Self::FgYShift2H => (qy + 2 * (qx / 2)) % 4,
            Self::CgXRect => (4 * qx / quads_w).min(3),
            Self::CgYRect => (4 * qy / quads_h).min(3),
            Self::CgTri => {
                // Signed side of the two diagonals, using quad centers
                // in exact integer arithmetic: main diagonal v = u,
                // anti-diagonal v = 1 - u.
                let (w, h) = (i64::from(quads_w), i64::from(quads_h));
                let (cx, cy) = (2 * i64::from(qx) + 1, 2 * i64::from(qy) + 1);
                let main = cy * w - cx * h; // < 0 above the main diagonal
                let anti = cy * w + cx * h - 2 * w * h; // < 0 above the anti-diagonal
                if main == 0 {
                    // On the main diagonal: alternate top/left so the
                    // four triangles stay exactly balanced.
                    if qx.is_multiple_of(2) {
                        0
                    } else {
                        2
                    }
                } else if anti == 0 {
                    // On the anti-diagonal: alternate right/bottom.
                    if qx.is_multiple_of(2) {
                        1
                    } else {
                        3
                    }
                } else {
                    match (main < 0, anti < 0) {
                        (true, true) => 0,   // top triangle
                        (true, false) => 1,  // right triangle
                        (false, true) => 2,  // left triangle
                        (false, false) => 3, // bottom triangle
                    }
                }
            }
            Self::CgSquare => {
                let hx = u32::from(qx >= quads_w / 2);
                let hy = u32::from(qy >= quads_h / 2);
                hx + 2 * hy
            }
        };
        slot as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u32 = 16;
    const H: u32 = 16;

    fn slot_counts(g: QuadGrouping) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for qy in 0..H {
            for qx in 0..W {
                counts[g.subtile_of(qx, qy, W, H)] += 1;
            }
        }
        counts
    }

    #[test]
    fn every_grouping_balances_quad_counts() {
        // With a uniform tile (no overdraw), all groupings assign an
        // equal number of quad *locations* to each slot.
        for g in QuadGrouping::ALL {
            let counts = slot_counts(g);
            assert_eq!(counts, [64, 64, 64, 64], "{} uneven: {counts:?}", g.name());
        }
    }

    #[test]
    fn fg_xshift2_has_no_adjacent_duplicates() {
        let g = QuadGrouping::FgXShift2;
        for qy in 0..H {
            for qx in 0..W {
                let s = g.subtile_of(qx, qy, W, H);
                for (dx, dy) in [(1i64, 0i64), (0, 1), (1, 1), (1, -1)] {
                    let (nx, ny) = (qx as i64 + dx, qy as i64 + dy);
                    if nx >= 0 && ny >= 0 && (nx as u32) < W && (ny as u32) < H {
                        assert_ne!(
                            s,
                            g.subtile_of(nx as u32, ny as u32, W, H),
                            "adjacent quads ({qx},{qy}) and ({nx},{ny}) share a slot"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fg_checker_has_no_adjacent_duplicates() {
        let g = QuadGrouping::FgChecker;
        for qy in 0..H - 1 {
            for qx in 0..W - 1 {
                let s = g.subtile_of(qx, qy, W, H);
                assert_ne!(s, g.subtile_of(qx + 1, qy, W, H));
                assert_ne!(s, g.subtile_of(qx, qy + 1, W, H));
                assert_ne!(s, g.subtile_of(qx + 1, qy + 1, W, H));
            }
        }
    }

    #[test]
    fn fg_diag_allows_only_diagonal_duplicates() {
        let g = QuadGrouping::FgDiag;
        for qy in 0..H - 1 {
            for qx in 0..W - 1 {
                let s = g.subtile_of(qx, qy, W, H);
                assert_ne!(s, g.subtile_of(qx + 1, qy, W, H), "horizontal differs");
                assert_ne!(s, g.subtile_of(qx, qy + 1, W, H), "vertical differs");
            }
        }
        // Anti-diagonal neighbor is the same slot:
        assert_eq!(
            g.subtile_of(3, 2, W, H),
            g.subtile_of(4, 1, W, H),
            "diagonal duplicate expected"
        );
    }

    #[test]
    fn fg_xshift2v_allows_two_vertical() {
        let g = QuadGrouping::FgXShift2V;
        // Within a row pair, vertical neighbors share a slot…
        assert_eq!(g.subtile_of(5, 0, W, H), g.subtile_of(5, 1, W, H));
        // …but not across row pairs.
        assert_ne!(g.subtile_of(5, 1, W, H), g.subtile_of(5, 2, W, H));
        // Horizontal neighbors always differ.
        assert_ne!(g.subtile_of(5, 0, W, H), g.subtile_of(6, 0, W, H));
    }

    #[test]
    fn cg_square_quadrants() {
        let g = QuadGrouping::CgSquare;
        assert_eq!(g.subtile_of(0, 0, W, H), 0);
        assert_eq!(g.subtile_of(15, 0, W, H), 1);
        assert_eq!(g.subtile_of(0, 15, W, H), 2);
        assert_eq!(g.subtile_of(15, 15, W, H), 3);
        // Quadrants are contiguous 8×8 blocks.
        assert_eq!(g.subtile_of(7, 7, W, H), 0);
        assert_eq!(g.subtile_of(8, 7, W, H), 1);
    }

    #[test]
    fn cg_rect_bands() {
        // yrect: full-width bands stacked along y.
        let y = QuadGrouping::CgYRect;
        assert_eq!(y.subtile_of(0, 0, W, H), 0);
        assert_eq!(y.subtile_of(15, 3, W, H), 0);
        assert_eq!(y.subtile_of(0, 4, W, H), 1);
        assert_eq!(y.subtile_of(0, 15, W, H), 3);
        // xrect: full-height bands running along x.
        let x = QuadGrouping::CgXRect;
        assert_eq!(x.subtile_of(3, 15, W, H), 0);
        assert_eq!(x.subtile_of(4, 0, W, H), 1);
        assert_eq!(x.subtile_of(15, 0, W, H), 3);
    }

    #[test]
    fn cg_tri_four_triangles() {
        let g = QuadGrouping::CgTri;
        assert_eq!(g.subtile_of(8, 1, W, H), 0, "top");
        assert_eq!(g.subtile_of(14, 8, W, H), 1, "right");
        assert_eq!(g.subtile_of(1, 8, W, H), 2, "left");
        assert_eq!(g.subtile_of(8, 14, W, H), 3, "bottom");
    }

    /// Contiguity score: number of same-slot adjacent pairs. CG must
    /// beat FG decisively — that is the whole point of Fig. 6.
    #[test]
    fn cg_more_contiguous_than_fg() {
        let contiguity = |g: QuadGrouping| {
            let mut same = 0usize;
            for qy in 0..H {
                for qx in 0..W {
                    let s = g.subtile_of(qx, qy, W, H);
                    if qx + 1 < W && g.subtile_of(qx + 1, qy, W, H) == s {
                        same += 1;
                    }
                    if qy + 1 < H && g.subtile_of(qx, qy + 1, W, H) == s {
                        same += 1;
                    }
                }
            }
            same
        };
        let worst_cg = QuadGrouping::ALL
            .iter()
            .filter(|g| !g.is_fine_grained())
            .map(|g| contiguity(*g))
            .min()
            .unwrap();
        let best_fg = QuadGrouping::ALL
            .iter()
            .filter(|g| g.is_fine_grained())
            .map(|g| contiguity(*g))
            .max()
            .unwrap();
        assert!(
            worst_cg > 2 * best_fg,
            "CG contiguity {worst_cg} must dwarf FG {best_fg}"
        );
    }

    #[test]
    fn names_and_classification() {
        assert_eq!(QuadGrouping::FgXShift2.name(), "FG-xshift2");
        assert_eq!(QuadGrouping::CgSquare.name(), "CG-square");
        assert!(QuadGrouping::FgDiag.is_fine_grained());
        assert!(!QuadGrouping::CgTri.is_fine_grained());
        assert_eq!(QuadGrouping::ALL.len(), 10);
    }
}
