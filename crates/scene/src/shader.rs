//! Fragment-shader cost profiles.

use dtexl_texture::Filter;

/// Cost profile of a draw call's fragment shader.
///
/// The simulator does not interpret shader programs; what matters for
/// the paper's effects is the *instruction mix*: how many ALU cycles a
/// quad occupies a shader core, and how many texture lookups (each of
/// which may stall the warp) it performs. Adjacent quads of the same
/// primitive share the profile, which is exactly the workload-intensity
/// correlation that makes coarse-grained grouping imbalanced (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShaderProfile {
    /// ALU instructions executed per quad (includes interpolation
    /// setup, lighting math, etc.).
    pub alu_ops: u32,
    /// Texture sample instructions per fragment.
    pub tex_samples: u32,
    /// Filtering mode of the samples.
    pub filter: Filter,
}

impl ShaderProfile {
    /// A minimal pass-through shader (UI / sprite blit).
    #[must_use]
    pub const fn simple() -> Self {
        Self {
            alu_ops: 6,
            tex_samples: 1,
            filter: Filter::Bilinear,
        }
    }

    /// A typical lit, textured material.
    #[must_use]
    pub const fn standard() -> Self {
        Self {
            alu_ops: 14,
            tex_samples: 2,
            filter: Filter::Bilinear,
        }
    }

    /// A heavy effect shader (multiple lookups, long math) — the "heavy
    /// workload" primitive of Fig. 9.
    #[must_use]
    pub const fn heavy() -> Self {
        Self {
            alu_ops: 96,
            tex_samples: 3,
            filter: Filter::Trilinear,
        }
    }

    /// A texture-dominated material (multi-layer blending, light ALU)
    /// — the profile that benefits most from texture locality.
    #[must_use]
    pub const fn texture_rich() -> Self {
        Self {
            alu_ops: 10,
            tex_samples: 3,
            filter: Filter::Trilinear,
        }
    }

    /// Total shader-core instruction slots a quad occupies (ALU plus
    /// one issue slot per texture sample).
    #[must_use]
    pub fn issue_slots(&self) -> u32 {
        self.alu_ops + self.tex_samples
    }
}

impl Default for ShaderProfile {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_ordered_by_cost() {
        assert!(ShaderProfile::simple().issue_slots() < ShaderProfile::standard().issue_slots());
        assert!(ShaderProfile::standard().issue_slots() < ShaderProfile::heavy().issue_slots());
    }

    #[test]
    fn issue_slots_counts_tex() {
        let p = ShaderProfile {
            alu_ops: 10,
            tex_samples: 3,
            filter: Filter::Bilinear,
        };
        assert_eq!(p.issue_slots(), 13);
    }

    #[test]
    fn default_is_standard() {
        assert_eq!(ShaderProfile::default(), ShaderProfile::standard());
    }
}
