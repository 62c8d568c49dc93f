//! End-to-end tile schedules: order + grouping + assignment.

use crate::assign::{AssignMode, SubtileAssigner};
use crate::grouping::QuadGrouping;
use crate::order::{MoveDir, TileOrder};

/// Complete description of a workload schedule: which quads form
/// subtiles, in which order tiles are processed, and which shader core
/// each subtile goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ScheduleConfig {
    /// Quad → subtile-slot mapping inside each tile.
    pub grouping: QuadGrouping,
    /// Tile traversal order.
    pub order: TileOrder,
    /// Subtile-slot → shader-core assignment policy.
    pub assignment: AssignMode,
}

impl ScheduleConfig {
    /// The paper's baseline: FG-xshift2 quads, Z-order tiles, constant
    /// assignment (Table II).
    #[must_use]
    pub fn baseline() -> Self {
        Self {
            grouping: QuadGrouping::FgXShift2,
            order: TileOrder::ZOrder,
            assignment: AssignMode::Const,
        }
    }

    /// DTexL's chosen configuration: CG-square quads, Hilbert tile
    /// order, flip2 assignment (HLB-flp2).
    #[must_use]
    pub fn dtexl() -> Self {
        Self {
            grouping: QuadGrouping::CgSquare,
            order: TileOrder::HILBERT8,
            assignment: AssignMode::Flip2,
        }
    }

    /// Short label such as `"CG-square/Hilbert/flp2"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.grouping.name(),
            self.order.name(),
            self.assignment.name()
        )
    }
}

/// A schedule name that did not resolve to any known configuration.
///
/// Produced by [`ScheduleConfig`]'s [`FromStr`](std::str::FromStr)
/// implementation; its `Display` lists the accepted names so CLI users
/// see the valid vocabulary in the error itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScheduleError {
    /// The name that failed to parse.
    pub name: String,
}

impl std::fmt::Display for ParseScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known: Vec<&str> = crate::NamedMapping::ALL.iter().map(|m| m.name()).collect();
        write!(
            f,
            "unknown schedule {:?}: expected \"baseline\", \"dtexl\", or one of {}",
            self.name,
            known.join(", ")
        )
    }
}

impl std::error::Error for ParseScheduleError {}

impl std::str::FromStr for ScheduleConfig {
    type Err = ParseScheduleError;

    /// Parse a schedule by name, case-insensitively: the aliases
    /// `"baseline"` and `"dtexl"`, or any paper label accepted by
    /// [`NamedMapping::from_name`](crate::NamedMapping::from_name)
    /// (e.g. `"HLB-flp2"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let name = s.trim();
        if name.eq_ignore_ascii_case("baseline") {
            return Ok(Self::baseline());
        }
        if name.eq_ignore_ascii_case("dtexl") {
            return Ok(Self::dtexl());
        }
        crate::NamedMapping::from_name(name)
            .map(|m| m.config())
            .ok_or_else(|| ParseScheduleError { name: name.into() })
    }
}

/// A materialized schedule for one frame: the tile sequence plus the
/// per-tile slot→SC assignment.
///
/// # Examples
///
/// ```
/// use dtexl_sched::{ScheduleConfig, TileSchedule};
/// let sched = TileSchedule::build(&ScheduleConfig::dtexl(), 8, 8);
/// assert_eq!(sched.len(), 64);
/// let (tx, ty) = sched.tile(0);
/// assert!(tx < 8 && ty < 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TileSchedule {
    config: ScheduleConfig,
    tiles: Vec<(u32, u32)>,
    assignments: Vec<[u8; 4]>,
}

impl TileSchedule {
    /// Build a schedule for a frame of `tiles_w × tiles_h` tiles.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn build(config: &ScheduleConfig, tiles_w: u32, tiles_h: u32) -> Self {
        let tiles = config.order.sequence(tiles_w, tiles_h);
        let mut assigner = SubtileAssigner::new(config.assignment, config.grouping.slot_layout());
        let mut assignments = Vec::with_capacity(tiles.len());
        assignments.push(assigner.first());
        for pair in tiles.windows(2) {
            assignments.push(assigner.next(MoveDir::between(pair[0], pair[1])));
        }
        Self {
            config: *config,
            tiles,
            assignments,
        }
    }

    /// The schedule's configuration.
    #[must_use]
    pub fn config(&self) -> &ScheduleConfig {
        &self.config
    }

    /// Number of tiles in the frame.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// Whether the frame has no tiles (never true for valid builds).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// Coordinates of the `i`-th tile in traversal order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn tile(&self, i: usize) -> (u32, u32) {
        self.tiles[i]
    }

    /// Slot→SC assignment of the `i`-th tile.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn assignment(&self, i: usize) -> [u8; 4] {
        self.assignments[i]
    }

    /// Shader core for a quad at `(qx, qy)` within the `i`-th tile
    /// (quad coordinates local to the tile). The frame simulator reads
    /// the grouping's slots from a table built once per leg and maps
    /// them through [`assignment`](Self::assignment); this is the
    /// reference that table is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()` or the quad is out of range (debug).
    #[must_use]
    pub fn sc_of_quad(&self, i: usize, qx: u32, qy: u32, quads_w: u32, quads_h: u32) -> usize {
        let slot = self.config.grouping.subtile_of(qx, qy, quads_w, quads_h);
        usize::from(self.assignments[i][slot])
    }

    /// Iterate over `(tile_index, (tx, ty), assignment)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, (u32, u32), [u8; 4])> + '_ {
        self.tiles
            .iter()
            .zip(&self.assignments)
            .enumerate()
            .map(|(i, (&t, &a))| (i, t, a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_and_dtexl_configs() {
        let b = ScheduleConfig::baseline();
        assert_eq!(b.label(), "FG-xshift2/Z-order/const");
        let d = ScheduleConfig::dtexl();
        assert_eq!(d.label(), "CG-square/Hilbert/flp2");
    }

    #[test]
    fn parses_aliases_and_paper_names() {
        assert_eq!(
            "baseline".parse::<ScheduleConfig>().unwrap(),
            ScheduleConfig::baseline()
        );
        assert_eq!(
            "DTexL".parse::<ScheduleConfig>().unwrap(),
            ScheduleConfig::dtexl()
        );
        assert_eq!(
            "hlb-flp2".parse::<ScheduleConfig>().unwrap(),
            ScheduleConfig::dtexl()
        );
        assert_eq!(
            " Sorder-const ".parse::<ScheduleConfig>().unwrap(),
            crate::NamedMapping::SorderConst.config()
        );
    }

    #[test]
    fn unknown_schedule_error_lists_vocabulary() {
        let err = "bogus".parse::<ScheduleConfig>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bogus"));
        assert!(msg.contains("baseline"));
        assert!(msg.contains("HLB-flp2"));
    }

    #[test]
    fn build_covers_all_tiles_with_permutations() {
        let sched = TileSchedule::build(&ScheduleConfig::dtexl(), 10, 6);
        assert_eq!(sched.len(), 60);
        assert!(!sched.is_empty());
        for (_, (tx, ty), assign) in sched.iter() {
            assert!(tx < 10 && ty < 6);
            let mut a = assign;
            a.sort_unstable();
            assert_eq!(a, [0, 1, 2, 3]);
        }
    }

    #[test]
    fn const_assignment_is_identity_everywhere() {
        let sched = TileSchedule::build(&ScheduleConfig::baseline(), 8, 8);
        for i in 0..sched.len() {
            assert_eq!(sched.assignment(i), [0, 1, 2, 3]);
        }
    }

    #[test]
    fn flip_assignment_varies() {
        let sched = TileSchedule::build(&ScheduleConfig::dtexl(), 8, 8);
        let distinct: std::collections::HashSet<_> =
            (0..sched.len()).map(|i| sched.assignment(i)).collect();
        assert!(distinct.len() > 1, "flip2 must change the mapping");
    }

    #[test]
    fn sc_of_quad_composes_grouping_and_assignment() {
        let cfg = ScheduleConfig {
            grouping: QuadGrouping::CgSquare,
            order: TileOrder::SOrder,
            assignment: AssignMode::Flip1,
        };
        let sched = TileSchedule::build(&cfg, 4, 1);
        // Tile 0: identity → top-left quadrant = SC 0.
        assert_eq!(sched.sc_of_quad(0, 0, 0, 16, 16), 0);
        assert_eq!(sched.sc_of_quad(0, 15, 15, 16, 16), 3);
        // Tile 1 (one step right): mirrored → top-left quadrant = SC 1.
        assert_eq!(sched.sc_of_quad(1, 0, 0, 16, 16), 1);
    }

    #[test]
    fn edge_sharing_holds_along_hilbert_flip1() {
        // For every horizontally adjacent transition, the slots that meet
        // at the shared edge carry the same SCs.
        let cfg = ScheduleConfig {
            grouping: QuadGrouping::CgSquare,
            order: TileOrder::HILBERT8,
            assignment: AssignMode::Flip1,
        };
        let sched = TileSchedule::build(&cfg, 8, 8);
        for i in 0..sched.len() - 1 {
            let a = sched.tile(i);
            let b = sched.tile(i + 1);
            let (ma, mb) = (sched.assignment(i), sched.assignment(i + 1));
            match MoveDir::between(a, b) {
                MoveDir::Right => {
                    assert_eq!(ma[1], mb[0]);
                    assert_eq!(ma[3], mb[2]);
                }
                MoveDir::Left => {
                    assert_eq!(ma[0], mb[1]);
                    assert_eq!(ma[2], mb[3]);
                }
                MoveDir::Down => {
                    assert_eq!(ma[2], mb[0]);
                    assert_eq!(ma[3], mb[1]);
                }
                MoveDir::Up => {
                    assert_eq!(ma[0], mb[2]);
                    assert_eq!(ma[1], mb[3]);
                }
                MoveDir::Jump => {}
            }
        }
    }
}
