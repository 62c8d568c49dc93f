//! The named end-to-end mappings evaluated in the paper (Fig. 8 /
//! Fig. 16).

use crate::assign::AssignMode;
use crate::grouping::QuadGrouping;
use crate::order::TileOrder;
use crate::schedule::ScheduleConfig;

/// The eight subtile mappings of Fig. 16, plus the fine-grained
/// baseline.
///
/// | Name | Grouping | Tile order | Assignment |
/// |---|---|---|---|
/// | `Baseline` | FG-xshift2 | Z-order | const |
/// | `ZorderConst` | CG-square | Z-order | const |
/// | `ZorderFlip` | CG-square | Z-order | flp1 |
/// | `HilbertConst` | CG-square | Hilbert | const |
/// | `HilbertFlip1` | CG-square | Hilbert | flp1 |
/// | `HilbertFlip2` | CG-square | Hilbert | flp2 (**DTexL**) |
/// | `HilbertFlip3` | CG-square | Hilbert | flp3 |
/// | `SorderConst` | CG-yrect | S-order | const |
/// | `SorderFlip` | CG-yrect | S-order | flp1 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedMapping {
    /// FG-xshift2 + Z-order + const: the load-balancing baseline.
    Baseline,
    /// CG-square + Z-order + const (Fig. 8(a)).
    ZorderConst,
    /// CG-square + Z-order + flp1 (Fig. 8(b)).
    ZorderFlip,
    /// CG-square + Hilbert + const (Fig. 8(c)).
    HilbertConst,
    /// CG-square + Hilbert + flp1 (Fig. 8(d)).
    HilbertFlip1,
    /// CG-square + Hilbert + flp2 (Fig. 8(e)) — DTexL's configuration.
    HilbertFlip2,
    /// CG-square + Hilbert + flp3 (Fig. 8(f)).
    HilbertFlip3,
    /// CG-yrect + S-order + const (Fig. 8(g)).
    SorderConst,
    /// CG-yrect + S-order + flp1 (Fig. 8(h)).
    SorderFlip,
}

impl NamedMapping {
    /// The eight evaluated mappings of Fig. 16, in plot order.
    pub const FIG16: [Self; 8] = [
        Self::ZorderConst,
        Self::ZorderFlip,
        Self::HilbertConst,
        Self::HilbertFlip1,
        Self::HilbertFlip2,
        Self::HilbertFlip3,
        Self::SorderConst,
        Self::SorderFlip,
    ];

    /// The paper's label for the mapping (e.g. `"HLB-flp2"`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Baseline => "FG-xshift2",
            Self::ZorderConst => "Zorder-const",
            Self::ZorderFlip => "Zorder-flp",
            Self::HilbertConst => "HLB-const",
            Self::HilbertFlip1 => "HLB-flp1",
            Self::HilbertFlip2 => "HLB-flp2",
            Self::HilbertFlip3 => "HLB-flp3",
            Self::SorderConst => "Sorder-const",
            Self::SorderFlip => "Sorder-flp",
        }
    }

    /// All named mappings, including the fine-grained baseline.
    pub const ALL: [Self; 9] = [
        Self::Baseline,
        Self::ZorderConst,
        Self::ZorderFlip,
        Self::HilbertConst,
        Self::HilbertFlip1,
        Self::HilbertFlip2,
        Self::HilbertFlip3,
        Self::SorderConst,
        Self::SorderFlip,
    ];

    /// Look up a mapping by its paper label (case-insensitive), e.g.
    /// `"HLB-flp2"`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// The full schedule configuration for this mapping.
    #[must_use]
    pub fn config(&self) -> ScheduleConfig {
        match self {
            Self::Baseline => ScheduleConfig::baseline(),
            Self::ZorderConst => ScheduleConfig {
                grouping: QuadGrouping::CgSquare,
                order: TileOrder::ZOrder,
                assignment: AssignMode::Const,
            },
            Self::ZorderFlip => ScheduleConfig {
                grouping: QuadGrouping::CgSquare,
                order: TileOrder::ZOrder,
                assignment: AssignMode::Flip1,
            },
            Self::HilbertConst => ScheduleConfig {
                grouping: QuadGrouping::CgSquare,
                order: TileOrder::HILBERT8,
                assignment: AssignMode::Const,
            },
            Self::HilbertFlip1 => ScheduleConfig {
                grouping: QuadGrouping::CgSquare,
                order: TileOrder::HILBERT8,
                assignment: AssignMode::Flip1,
            },
            Self::HilbertFlip2 => ScheduleConfig::dtexl(),
            Self::HilbertFlip3 => ScheduleConfig {
                grouping: QuadGrouping::CgSquare,
                order: TileOrder::HILBERT8,
                assignment: AssignMode::Flip3,
            },
            Self::SorderConst => ScheduleConfig {
                grouping: QuadGrouping::CgYRect,
                order: TileOrder::SOrder,
                assignment: AssignMode::Const,
            },
            Self::SorderFlip => ScheduleConfig {
                grouping: QuadGrouping::CgYRect,
                order: TileOrder::SOrder,
                assignment: AssignMode::Flip1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_has_eight_mappings() {
        assert_eq!(NamedMapping::FIG16.len(), 8);
        let names: Vec<_> = NamedMapping::FIG16.iter().map(|m| m.name()).collect();
        assert!(names.contains(&"HLB-flp2"));
        assert!(names.contains(&"Sorder-const"));
        assert!(!names.contains(&"FG-xshift2"));
    }

    #[test]
    fn dtexl_is_hilbert_flip2() {
        assert_eq!(NamedMapping::HilbertFlip2.config(), ScheduleConfig::dtexl());
    }

    #[test]
    fn sorder_mappings_use_yrect() {
        assert_eq!(
            NamedMapping::SorderConst.config().grouping,
            QuadGrouping::CgYRect
        );
        assert_eq!(NamedMapping::SorderFlip.config().order, TileOrder::SOrder);
    }

    #[test]
    fn all_fig16_use_coarse_grouping() {
        for m in NamedMapping::FIG16 {
            assert!(
                !m.config().grouping.is_fine_grained(),
                "{} must be coarse-grained",
                m.name()
            );
        }
    }
}
