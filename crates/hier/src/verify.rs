//! The composition verifier: an independent chunk-by-chunk re-check of a
//! stitched hierarchical schedule against the collective's pre/post
//! relation and the *full* topology's bandwidth constraints.
//!
//! The planner is allowed to be optimistic — its leader graph projects
//! per-link bandwidths and ignores shared constraints that span several
//! leader links — because nothing it produces is trusted: every composed
//! schedule is stepped through [`sccl_core::check::Replay`], the one replay
//! of the run semantics, before it is returned to a caller, and each
//! stage's boundary placements are checked against the replay's state
//! after the stage's last step. A composition that drops a chunk,
//! oversubscribes a constraint, or fails a stage's declared boundary
//! guarantee is rejected with a typed [`CompositionError`] naming the
//! stage.

use crate::plan::HierarchicalAlgorithm;
use sccl_collectives::Collective;
use sccl_core::check::Replay;
use sccl_core::ValidationError;
use sccl_topology::Topology;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Every way a stitched schedule can fail verification.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompositionError {
    /// The composed collective has no pre/post relation to verify against
    /// (combining collectives are planned through their duals).
    UnsupportedCollective { collective: Collective },
    /// The replay rejected a send of `stage`: an index or step out of
    /// range, a missing link, an absent chunk or an oversubscribed
    /// full-topology constraint.
    Replay {
        stage: String,
        error: ValidationError,
    },
    /// A stage's declared boundary guarantee does not hold after its last
    /// step: the next stage would start from a placement it did not plan
    /// for.
    StageBoundary {
        stage: String,
        chunk: usize,
        node: usize,
    },
    /// The collective's post-condition does not hold after the final step.
    PostConditionUnsatisfied { chunk: usize, node: usize },
}

impl fmt::Display for CompositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompositionError::UnsupportedCollective { collective } => {
                write!(f, "{collective} has no pre/post relation to verify against")
            }
            CompositionError::Replay { stage, error } => write!(f, "stage {stage}: {error}"),
            CompositionError::StageBoundary { stage, chunk, node } => write!(
                f,
                "stage {stage}: boundary guarantee broken: chunk {chunk} missing on node {node}"
            ),
            CompositionError::PostConditionUnsatisfied { chunk, node } => {
                write!(f, "chunk {chunk} never reaches node {node}")
            }
        }
    }
}

impl std::error::Error for CompositionError {}

/// Replay the stitched schedule chunk-by-chunk on the full topology.
///
/// Checks, in order: step ranges, then step by step index ranges, link
/// existence, chunk presence at the source when each send fires, per-step
/// bandwidth against every full-topology constraint (scaled by the
/// stitched round counts) and the boundary placement of each stage that
/// ends with the step, and finally the collective's post relation.
pub fn verify_composition(
    hier: &HierarchicalAlgorithm,
    topology: &Topology,
) -> Result<(), CompositionError> {
    let composed = &hier.composed;
    let Some((pre, post)) = composed.collective.relations() else {
        return Err(CompositionError::UnsupportedCollective {
            collective: composed.collective,
        });
    };
    let (chunks, nodes) = (composed.num_chunks, composed.num_nodes);

    // Stage attribution: the stage that scheduled a step, and an error of
    // the replay in it.
    const UNATTRIBUTED: &str = "<unattributed>";
    let stage_of = |step: usize| -> &str {
        hier.stages
            .iter()
            .find(|s| step >= s.step_offset && step < s.step_offset + s.steps)
            .map_or(UNATTRIBUTED, |s| s.name.as_str())
    };
    let attribute = |stage: &str, error: ValidationError| match error {
        ValidationError::PostConditionUnsatisfied { chunk, node } => {
            CompositionError::StageBoundary {
                stage: stage.to_string(),
                chunk,
                node,
            }
        }
        error => CompositionError::Replay {
            stage: stage.to_string(),
            error,
        },
    };

    let mut replay = Replay::new(topology, composed, pre.pairs(chunks, nodes))
        .map_err(|error| attribute(UNATTRIBUTED, error))?;
    for step in 0..composed.num_steps() {
        replay
            .step()
            .map_err(|error| attribute(stage_of(step), error))?;
        // Boundary check after the last step of each stage: every placement
        // the stage promised downstream stages must actually hold.
        for s in &hier.stages {
            if step + 1 == s.step_offset + s.steps {
                replay
                    .holds(s.post.iter().copied())
                    .map_err(|error| attribute(&s.name, error))?;
            }
        }
    }
    replay
        .holds(post.pairs(chunks, nodes))
        .map_err(|error| match error {
            ValidationError::PostConditionUnsatisfied { chunk, node } => {
                CompositionError::PostConditionUnsatisfied { chunk, node }
            }
            error => attribute(UNATTRIBUTED, error),
        })
}
