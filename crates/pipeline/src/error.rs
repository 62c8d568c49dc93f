//! Typed simulation errors.
//!
//! The workspace-wide error surface for everything that can go wrong
//! when preparing or running a frame simulation. Modeled on
//! `dtexl_trace::TraceError`: a small closed enum whose variants name
//! the layer that rejected the input, each carrying a human-readable
//! detail.
//!
//! The leaf crates (`dtexl-scene`, `dtexl-sched`) keep their
//! lightweight `String`-based validation results so they stay
//! dependency-free; this type wraps them at the pipeline boundary.
//! Every [`crate::FrameSim`] entry point returns this type. The one
//! panicking facade, `dtexl::Simulator::simulate_scene`, panics with
//! the error's `Display` text, so `#[should_panic]` callers and scripts
//! matching on stderr see the same messages as the typed path.

use std::fmt;

/// An error rejected by the simulator before (or instead of) running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The [`crate::PipelineConfig`] violates a hardware invariant
    /// (see [`crate::PipelineConfig::validate`]).
    Config(String),
    /// The scene failed [`dtexl_scene::Scene::validate`] (dangling
    /// texture ids, bad vertex ranges, …) or had an invalid spec.
    Scene(String),
    /// A schedule name did not parse (see
    /// [`dtexl_sched::ScheduleConfig`]'s `FromStr`).
    Schedule(String),
    /// The scene's texture table is not densely indexed
    /// (`textures[i].id() != i`).
    SparseTextureIds {
        /// Position in the texture table.
        index: usize,
        /// The id found there.
        id: u32,
    },
    /// The [`crate::FaultPlan`] is inconsistent with the configuration
    /// (e.g. stalling a lane that does not exist).
    Fault(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(m) => write!(f, "invalid pipeline configuration: {m}"),
            SimError::Scene(m) => write!(f, "invalid scene: {m}"),
            SimError::Schedule(m) => write!(f, "invalid schedule: {m}"),
            SimError::SparseTextureIds { index, id } => write!(
                f,
                "texture ids must be dense: textures[{index}] has id {id}"
            ),
            SimError::Fault(m) => write!(f, "invalid fault plan: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<dtexl_sched::ParseScheduleError> for SimError {
    fn from(e: dtexl_sched::ParseScheduleError) -> Self {
        SimError::Schedule(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_name_the_layer() {
        assert!(SimError::Config("x".into())
            .to_string()
            .starts_with("invalid pipeline configuration"));
        assert!(SimError::Scene("x".into())
            .to_string()
            .starts_with("invalid scene"));
        let e = SimError::SparseTextureIds { index: 0, id: 5 };
        assert!(e.to_string().contains("texture ids must be dense"));
        assert!(e.to_string().contains("id 5"));
    }

    #[test]
    fn schedule_parse_errors_convert() {
        let err: SimError = "not-a-schedule"
            .parse::<dtexl_sched::ScheduleConfig>()
            .unwrap_err()
            .into();
        assert!(matches!(err, SimError::Schedule(_)));
        assert!(err.to_string().contains("not-a-schedule"));
    }
}
