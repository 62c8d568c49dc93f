//! Subtile-to-shader-core assignments (Fig. 8).

use crate::order::MoveDir;

/// Spatial arrangement of the four subtile slots inside a tile.
///
/// Flip assignments mirror the slot→SC mapping across the edge shared
/// by consecutive tiles; what "mirroring" permutes depends on where the
/// slots physically sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotLayout {
    /// Slots are the four quadrants: 0 = top-left, 1 = top-right,
    /// 2 = bottom-left, 3 = bottom-right (CG-square, CG-tri and all FG
    /// groupings).
    Grid2x2,
    /// Slots are four vertical bands, 0 = leftmost (CG-xrect).
    Columns,
    /// Slots are four horizontal bands, 0 = topmost (CG-yrect).
    Rows,
}

impl SlotLayout {
    /// Permutation applied to the slot→SC map when mirroring across a
    /// vertical shared edge (horizontal move): `new[i] = old[perm[i]]`.
    fn mirror_horizontal(&self) -> [usize; 4] {
        match self {
            // Swap left and right quadrants.
            SlotLayout::Grid2x2 => [1, 0, 3, 2],
            // Reverse the bands.
            SlotLayout::Columns => [3, 2, 1, 0],
            // Horizontal bands are unaffected by a horizontal mirror.
            SlotLayout::Rows => [0, 1, 2, 3],
        }
    }

    /// Permutation applied when mirroring across a horizontal shared
    /// edge (vertical move).
    fn mirror_vertical(&self) -> [usize; 4] {
        match self {
            SlotLayout::Grid2x2 => [2, 3, 0, 1],
            SlotLayout::Columns => [0, 1, 2, 3],
            SlotLayout::Rows => [3, 2, 1, 0],
        }
    }

    /// Permutation that swaps the two slots *not* on the shared edge
    /// among themselves (the extra exchange of flip2). For band layouts
    /// every slot moves on a mirror, so this is the identity.
    fn swap_non_shared(&self, dir: MoveDir) -> [usize; 4] {
        match (self, dir) {
            // After the mirror, the new tile's slots on the side *away*
            // from the shared edge hold the non-sharing SCs; exchanging
            // those two slots leaves the shared edge untouched. Which
            // side is "away" depends on the direction of travel.
            (SlotLayout::Grid2x2, MoveDir::Right) => [0, 3, 2, 1], // outer = right col (1,3)
            (SlotLayout::Grid2x2, MoveDir::Left) => [2, 1, 0, 3],  // outer = left col (0,2)
            (SlotLayout::Grid2x2, MoveDir::Down) => [0, 1, 3, 2],  // outer = bottom row (2,3)
            (SlotLayout::Grid2x2, MoveDir::Up) => [1, 0, 2, 3],    // outer = top row (0,1)
            _ => [0, 1, 2, 3],
        }
    }
}

fn apply(map: [u8; 4], perm: [usize; 4]) -> [u8; 4] {
    [map[perm[0]], map[perm[1]], map[perm[2]], map[perm[3]]]
}

/// The subtile assignment policy of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AssignMode {
    /// `*-const`: slot *i* always goes to SC *i* (Fig. 8(a), (c), (g)).
    Const,
    /// `*-flp1`: mirror the mapping across the shared edge of every
    /// adjacent tile transition (Fig. 8(b), (d)); keeps edge-sharing
    /// subtiles on the same SC but permanently favors one SC.
    Flip1,
    /// `*-flp2`: flip1, plus on every second adjacent transition the two
    /// non-sharing slots also exchange places (Fig. 8(e)) — fair edge
    /// sharing over the frame. **DTexL's choice (HLB-flp2).**
    Flip2,
    /// `*-flp3`: flip1, plus a 180° rotation of all four slots every 16
    /// tiles (Fig. 8(f)).
    Flip3,
}

impl AssignMode {
    /// Short name used in mapping labels (`"const"`, `"flp2"`, …).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AssignMode::Const => "const",
            AssignMode::Flip1 => "flp1",
            AssignMode::Flip2 => "flp2",
            AssignMode::Flip3 => "flp3",
        }
    }
}

/// Stateful generator of per-tile slot→SC assignments along a tile
/// traversal.
///
/// # Examples
///
/// ```
/// use dtexl_sched::{AssignMode, MoveDir, SlotLayout, SubtileAssigner};
///
/// let mut a = SubtileAssigner::new(AssignMode::Flip1, SlotLayout::Grid2x2);
/// assert_eq!(a.first(), [0, 1, 2, 3]);
/// // Moving right mirrors left/right quadrants:
/// assert_eq!(a.next(MoveDir::Right), [1, 0, 3, 2]);
/// // Moving right again mirrors back:
/// assert_eq!(a.next(MoveDir::Right), [0, 1, 2, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct SubtileAssigner {
    mode: AssignMode,
    layout: SlotLayout,
    /// Current slot→SC map.
    map: [u8; 4],
    /// Count of adjacent transitions (drives flip2's alternation).
    transitions: u64,
    /// Count of tiles emitted (drives flip3's 16-tile rotation).
    tiles: u64,
}

impl SubtileAssigner {
    /// Create an assigner at the start of a frame.
    #[must_use]
    pub fn new(mode: AssignMode, layout: SlotLayout) -> Self {
        Self {
            mode,
            layout,
            map: [0, 1, 2, 3],
            transitions: 0,
            tiles: 0,
        }
    }

    /// Assignment for the first tile of the traversal.
    pub fn first(&mut self) -> [u8; 4] {
        self.tiles = 1;
        self.map
    }

    /// Assignment for the next tile, reached via `dir` from the previous
    /// one.
    pub fn next(&mut self, dir: MoveDir) -> [u8; 4] {
        self.tiles += 1;
        if self.mode == AssignMode::Const {
            return self.map;
        }
        if dir.is_adjacent() {
            self.transitions += 1;
            let mirror = if dir.is_horizontal() {
                self.layout.mirror_horizontal()
            } else {
                self.layout.mirror_vertical()
            };
            self.map = apply(self.map, mirror);
            if self.mode == AssignMode::Flip2 && self.transitions.is_multiple_of(2) {
                self.map = apply(self.map, self.layout.swap_non_shared(dir));
            }
        }
        if self.mode == AssignMode::Flip3 && self.tiles.is_multiple_of(16) {
            // 180° rotation: both mirrors.
            self.map = apply(self.map, self.layout.mirror_horizontal());
            self.map = apply(self.map, self.layout.mirror_vertical());
        }
        self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_perm(m: [u8; 4]) -> bool {
        let mut s = m;
        s.sort_unstable();
        s == [0, 1, 2, 3]
    }

    #[test]
    fn const_never_changes() {
        let mut a = SubtileAssigner::new(AssignMode::Const, SlotLayout::Grid2x2);
        assert_eq!(a.first(), [0, 1, 2, 3]);
        for dir in [MoveDir::Right, MoveDir::Down, MoveDir::Jump, MoveDir::Left] {
            assert_eq!(a.next(dir), [0, 1, 2, 3]);
        }
    }

    #[test]
    fn flip1_grid_right_matches_shared_edge() {
        let mut a = SubtileAssigner::new(AssignMode::Flip1, SlotLayout::Grid2x2);
        let t1 = a.first();
        let t2 = a.next(MoveDir::Right);
        // Tile1's right column slots are 1 (TR) and 3 (BR); tile2's left
        // column slots are 0 (TL) and 2 (BL). Edge sharing means they
        // carry the same SCs.
        assert_eq!(t1[1], t2[0]);
        assert_eq!(t1[3], t2[2]);
    }

    #[test]
    fn flip1_grid_down_matches_shared_edge() {
        let mut a = SubtileAssigner::new(AssignMode::Flip1, SlotLayout::Grid2x2);
        let t1 = a.first();
        let t2 = a.next(MoveDir::Down);
        // Tile1's bottom row (2, 3) meets tile2's top row (0, 1).
        assert_eq!(t1[2], t2[0]);
        assert_eq!(t1[3], t2[1]);
    }

    #[test]
    fn flip1_columns_reverse() {
        let mut a = SubtileAssigner::new(AssignMode::Flip1, SlotLayout::Columns);
        let t1 = a.first();
        let t2 = a.next(MoveDir::Right);
        // Rightmost band of tile1 (slot 3) meets leftmost band of tile2
        // (slot 0).
        assert_eq!(t1[3], t2[0]);
        // Vertical moves leave bands aligned: slot i meets slot i.
        let t3 = a.next(MoveDir::Down);
        assert_eq!(t2, t3);
    }

    #[test]
    fn flip2_alternates_the_extra_swap() {
        let mut a = SubtileAssigner::new(AssignMode::Flip2, SlotLayout::Grid2x2);
        let t1 = a.first();
        let t2 = a.next(MoveDir::Right); // transition 1: plain mirror
        let t3 = a.next(MoveDir::Right); // transition 2: mirror + swap
                                         // Shared edge still matches after the extra swap:
        assert_eq!(t2[1], t3[0], "edge sharing preserved on swap step");
        assert_eq!(t2[3], t3[2]);
        // And the non-sharing pair really did exchange relative to flip1:
        let mut b = SubtileAssigner::new(AssignMode::Flip1, SlotLayout::Grid2x2);
        b.first();
        b.next(MoveDir::Right);
        let f1_t3 = b.next(MoveDir::Right);
        assert_ne!(t3, f1_t3, "flip2 diverges from flip1 on even steps");
        let _ = t1;
    }

    #[test]
    fn all_modes_always_produce_permutations() {
        for mode in [
            AssignMode::Const,
            AssignMode::Flip1,
            AssignMode::Flip2,
            AssignMode::Flip3,
        ] {
            for layout in [SlotLayout::Grid2x2, SlotLayout::Columns, SlotLayout::Rows] {
                let mut a = SubtileAssigner::new(mode, layout);
                assert!(is_perm(a.first()));
                let dirs = [
                    MoveDir::Right,
                    MoveDir::Right,
                    MoveDir::Down,
                    MoveDir::Left,
                    MoveDir::Jump,
                    MoveDir::Up,
                    MoveDir::Right,
                ];
                for _ in 0..10 {
                    for &d in &dirs {
                        assert!(is_perm(a.next(d)), "{mode:?}/{layout:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn flip1_favors_one_sc_flip2_is_fairer() {
        // Walk a Hilbert curve over a 16×16-tile frame; for every
        // transition, count which SCs hold the slots on the edge shared
        // with the next tile. HLB-flp1 must be biased (the paper: "SC4 is
        // favored to always have a shared edge"), HLB-flp2 close to
        // uniform (Fig. 8(e)).
        let walk: Vec<MoveDir> = {
            let n = 16u32;
            let coords: Vec<_> = (0..u64::from(n) * u64::from(n))
                .map(|d| crate::order::hilbert_d2xy(n, d))
                .collect();
            coords
                .windows(2)
                .map(|p| MoveDir::between(p[0], p[1]))
                .collect()
        };
        let shared_counts = |mode: AssignMode| -> [u32; 4] {
            let mut a = SubtileAssigner::new(mode, SlotLayout::Grid2x2);
            let mut counts = [0u32; 4];
            let mut map = a.first();
            for &dir in &walk {
                let edge_slots: [usize; 2] = match dir {
                    MoveDir::Right => [1, 3],
                    MoveDir::Left => [0, 2],
                    MoveDir::Down => [2, 3],
                    MoveDir::Up => [0, 1],
                    MoveDir::Jump => continue,
                };
                counts[map[edge_slots[0]] as usize] += 1;
                counts[map[edge_slots[1]] as usize] += 1;
                map = a.next(dir);
            }
            counts
        };
        let f1 = shared_counts(AssignMode::Flip1);
        let f2 = shared_counts(AssignMode::Flip2);
        let spread = |c: [u32; 4]| c.iter().max().unwrap() - c.iter().min().unwrap();
        assert!(
            spread(f1) > 2 * spread(f2),
            "flip1 spread {f1:?} must clearly exceed flip2 spread {f2:?}"
        );
    }

    #[test]
    fn flip3_rotates_every_16_tiles() {
        let mut a = SubtileAssigner::new(AssignMode::Flip3, SlotLayout::Grid2x2);
        let mut b = SubtileAssigner::new(AssignMode::Flip1, SlotLayout::Grid2x2);
        a.first();
        b.first();
        let mut diverged = false;
        for i in 2..=40u64 {
            let ma = a.next(MoveDir::Right);
            let mb = b.next(MoveDir::Right);
            if i >= 16 && ma != mb {
                diverged = true;
            }
        }
        assert!(diverged, "flip3 must diverge from flip1 after 16 tiles");
    }

    #[test]
    fn jumps_do_not_flip() {
        let mut a = SubtileAssigner::new(AssignMode::Flip1, SlotLayout::Grid2x2);
        let t1 = a.first();
        assert_eq!(a.next(MoveDir::Jump), t1, "no shared edge, no flip");
    }

    #[test]
    fn mode_names() {
        assert_eq!(AssignMode::Const.name(), "const");
        assert_eq!(AssignMode::Flip2.name(), "flp2");
    }
}
