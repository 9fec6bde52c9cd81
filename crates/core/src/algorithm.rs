//! Synthesized collective algorithms: the `(Q, T)` candidate solutions of
//! §3.3 of the paper, plus validation of the run semantics and bandwidth
//! constraints (a call into the one replay, [`crate::check`]).

use crate::check::Replay;
use crate::cost::AlgorithmCost;
use sccl_collectives::{Collective, CollectiveSpec};
use sccl_topology::Topology;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What happens to the payload when a send is received.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SendOp {
    /// The destination stores a copy of the chunk (non-combining
    /// collectives and the allgather phase of Allreduce).
    Copy,
    /// The destination reduces the incoming chunk into its local copy
    /// (combining collectives derived by inversion, §3.5).
    Reduce,
}

/// One scheduled transfer: chunk `chunk` moves from `src` to `dst` during
/// synchronous step `step` (0-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Send {
    pub chunk: usize,
    pub src: usize,
    pub dst: usize,
    pub step: usize,
    pub op: SendOp,
}

impl Send {
    pub fn copy(chunk: usize, src: usize, dst: usize, step: usize) -> Self {
        Send {
            chunk,
            src,
            dst,
            step,
            op: SendOp::Copy,
        }
    }

    pub fn reduce(chunk: usize, src: usize, dst: usize, step: usize) -> Self {
        Send {
            chunk,
            src,
            dst,
            step,
            op: SendOp::Reduce,
        }
    }
}

/// A synthesized k-synchronous algorithm: the candidate solution `(Q, T)`
/// of §3.3 plus the metadata needed to lower and evaluate it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Algorithm {
    /// The collective this algorithm implements.
    pub collective: Collective,
    /// Name of the topology it was synthesized for.
    pub topology_name: String,
    /// Number of nodes `P`.
    pub num_nodes: usize,
    /// Per-node chunk count `C` (how finely each node's buffer is split).
    pub per_node_chunks: usize,
    /// Global chunk count `G`.
    pub num_chunks: usize,
    /// Rounds per step `Q = r_0, …, r_{S-1}`.
    pub rounds_per_step: Vec<u64>,
    /// The scheduled sends `T`.
    pub sends: Vec<Send>,
}

/// Problems detected when validating an algorithm against its instance.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValidationError {
    /// A send uses an edge that does not exist (or has zero bandwidth).
    MissingLink { src: usize, dst: usize },
    /// A send's step index is outside `0..S`.
    StepOutOfRange { step: usize, num_steps: usize },
    /// A chunk was sent from a node that does not hold it at that step.
    ChunkNotPresent {
        chunk: usize,
        src: usize,
        step: usize,
    },
    /// A bandwidth constraint `(L, b)` is violated at some step.
    BandwidthExceeded {
        step: usize,
        constraint_index: usize,
        used: u64,
        allowed: u64,
    },
    /// The post-condition does not hold after the final step.
    PostConditionUnsatisfied { chunk: usize, node: usize },
    /// A chunk/node index is out of range.
    IndexOutOfRange { chunk: usize, node: usize },
    /// A reducing send would fold the same contribution in twice.
    DoubleCounted {
        chunk: usize,
        node: usize,
        step: usize,
    },
    /// A buffer required to hold the full reduction misses contributions.
    IncompleteReduction {
        chunk: usize,
        node: usize,
        missing: usize,
    },
    /// The schedule is for another `(collective, nodes, chunks)` instance
    /// than the one it is checked against.
    WrongInstance {
        expected: (Collective, usize, usize),
        found: (Collective, usize, usize),
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::MissingLink { src, dst } => {
                write!(f, "send over missing link {src}->{dst}")
            }
            ValidationError::StepOutOfRange { step, num_steps } => {
                write!(f, "step {step} out of range (S = {num_steps})")
            }
            ValidationError::ChunkNotPresent { chunk, src, step } => {
                write!(f, "chunk {chunk} not present on node {src} at step {step}")
            }
            ValidationError::BandwidthExceeded {
                step,
                constraint_index,
                used,
                allowed,
            } => write!(
                f,
                "bandwidth constraint {constraint_index} exceeded at step {step}: {used} > {allowed}"
            ),
            ValidationError::PostConditionUnsatisfied { chunk, node } => {
                write!(f, "chunk {chunk} never reaches node {node}")
            }
            ValidationError::IndexOutOfRange { chunk, node } => {
                write!(f, "chunk {chunk} / node {node} out of range")
            }
            ValidationError::DoubleCounted { chunk, node, step } => write!(
                f,
                "chunk {chunk}: contribution folded twice into node {node} at step {step}"
            ),
            ValidationError::IncompleteReduction {
                chunk,
                node,
                missing,
            } => write!(
                f,
                "chunk {chunk}: node {node} is missing {missing} contributions"
            ),
            ValidationError::WrongInstance { expected, found } => write!(
                f,
                "schedule is for (collective, nodes, chunks) {found:?}, expected {expected:?}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

impl Algorithm {
    /// Number of synchronous steps `S`.
    pub fn num_steps(&self) -> usize {
        self.rounds_per_step.len()
    }

    /// Total number of rounds `R = Σ r_s`.
    pub fn total_rounds(&self) -> u64 {
        self.rounds_per_step.iter().sum()
    }

    /// The `(C, S, R)` cost tuple used throughout the paper's tables.
    pub fn cost(&self) -> AlgorithmCost {
        AlgorithmCost::new(
            self.num_steps() as u64,
            self.total_rounds(),
            self.per_node_chunks as u64,
        )
    }

    /// Sends scheduled for a given step.
    pub fn sends_at_step(&self, step: usize) -> Vec<Send> {
        self.sends
            .iter()
            .copied()
            .filter(|s| s.step == step)
            .collect()
    }

    /// `true` if any send is a reduction.
    pub fn is_combining(&self) -> bool {
        self.sends.iter().any(|s| s.op == SendOp::Reduce)
    }

    /// Validate the algorithm against a topology and collective spec:
    /// index ranges, link existence, chunk availability (the source must
    /// hold the chunk before sending it), per-step bandwidth constraints
    /// scaled by the step's round count, and the post-condition. A Reduce
    /// send places its chunk like a Copy.
    pub fn validate(
        &self,
        topology: &Topology,
        spec: &CollectiveSpec,
    ) -> Result<(), ValidationError> {
        Replay::new(topology, self, spec.pre.iter().copied())?.finish(spec.post.iter().copied())
    }

    /// A compact `(C, S, R)` label like the ones used in the paper's plots,
    /// e.g. `(6,7,7)`.
    pub fn label(&self) -> String {
        format!(
            "({},{},{})",
            self.per_node_chunks,
            self.num_steps(),
            self.total_rounds()
        )
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {} — C={} S={} R={} ({} sends)",
            self.collective,
            self.topology_name,
            self.per_node_chunks,
            self.num_steps(),
            self.total_rounds(),
            self.sends.len()
        )?;
        for step in 0..self.num_steps() {
            let sends = self.sends_at_step(step);
            writeln!(f, "  step {step} ({} rounds):", self.rounds_per_step[step])?;
            for s in sends {
                let op = match s.op {
                    SendOp::Copy => "copy",
                    SendOp::Reduce => "reduce",
                };
                writeln!(f, "    chunk {:>3}: {} -> {} ({op})", s.chunk, s.src, s.dst)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_collectives::Collective;
    use sccl_topology::builders;

    /// Hand-written ring Allgather on 4 nodes with 1 chunk per node:
    /// the classic 3-step algorithm where everyone forwards clockwise.
    fn ring_allgather() -> (Algorithm, Topology, CollectiveSpec) {
        let topo = builders::ring(4, 1);
        let spec = Collective::Allgather.spec(4, 1);
        let mut sends = Vec::new();
        for step in 0..3 {
            for node in 0..4usize {
                // At step `step`, node forwards the chunk originating at
                // (node - step) mod 4 to its clockwise neighbour.
                let chunk = (node + 4 - step) % 4;
                sends.push(Send::copy(chunk, node, (node + 1) % 4, step));
            }
        }
        let alg = Algorithm {
            collective: Collective::Allgather,
            topology_name: topo.name().to_string(),
            num_nodes: 4,
            per_node_chunks: 1,
            num_chunks: 4,
            rounds_per_step: vec![1, 1, 1],
            sends,
        };
        (alg, topo, spec)
    }

    #[test]
    fn ring_allgather_validates() {
        let (alg, topo, spec) = ring_allgather();
        assert_eq!(alg.num_steps(), 3);
        assert_eq!(alg.total_rounds(), 3);
        alg.validate(&topo, &spec).expect("valid schedule");
        assert!(!alg.is_combining());
        assert_eq!(alg.label(), "(1,3,3)");
    }

    #[test]
    fn missing_link_detected() {
        let (mut alg, topo, spec) = ring_allgather();
        alg.sends.push(Send::copy(0, 0, 2, 0)); // 0 and 2 are not adjacent
        assert_eq!(
            alg.validate(&topo, &spec),
            Err(ValidationError::MissingLink { src: 0, dst: 2 })
        );
    }

    #[test]
    fn chunk_not_present_detected() {
        let (mut alg, topo, spec) = ring_allgather();
        // Node 1 does not have chunk 2 at step 0.
        alg.sends.push(Send::copy(2, 1, 2, 0));
        assert_eq!(
            alg.validate(&topo, &spec),
            Err(ValidationError::ChunkNotPresent {
                chunk: 2,
                src: 1,
                step: 0
            })
        );
    }

    #[test]
    fn bandwidth_violation_detected() {
        let (mut alg, topo, spec) = ring_allgather();
        // Two sends over the same unit link in a 1-round step.
        alg.sends.push(Send::copy(0, 0, 1, 1));
        let err = alg.validate(&topo, &spec).unwrap_err();
        assert!(matches!(err, ValidationError::BandwidthExceeded { .. }));
    }

    #[test]
    fn extra_rounds_allow_more_sends() {
        let (mut alg, topo, spec) = ring_allgather();
        alg.sends.push(Send::copy(0, 0, 1, 1));
        alg.rounds_per_step = vec![1, 2, 1];
        alg.validate(&topo, &spec).expect("2 rounds admit 2 sends");
        assert_eq!(alg.total_rounds(), 4);
    }

    #[test]
    fn post_condition_violation_detected() {
        let (mut alg, topo, spec) = ring_allgather();
        // Drop all sends of the last step: nodes miss some chunks.
        alg.sends.retain(|s| s.step != 2);
        let err = alg.validate(&topo, &spec).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::PostConditionUnsatisfied { .. }
        ));
    }

    #[test]
    fn step_out_of_range_detected() {
        let (mut alg, topo, spec) = ring_allgather();
        alg.sends.push(Send::copy(0, 0, 1, 9));
        assert_eq!(
            alg.validate(&topo, &spec),
            Err(ValidationError::StepOutOfRange {
                step: 9,
                num_steps: 3
            })
        );
    }

    #[test]
    fn cost_tuple() {
        let (alg, _, _) = ring_allgather();
        let cost = alg.cost();
        assert_eq!(cost.steps, 3);
        assert_eq!(cost.rounds, 3);
        assert_eq!(cost.chunks, 1);
    }

    #[test]
    fn used_links_and_step_queries() {
        let (alg, _, _) = ring_allgather();
        assert_eq!(alg.sends_at_step(0).len(), 4);
        assert_eq!(alg.sends_at_step(2).len(), 4);
    }

    #[test]
    fn display_lists_steps() {
        let (alg, _, _) = ring_allgather();
        let text = alg.to_string();
        assert!(text.contains("step 0"));
        assert!(text.contains("copy"));
    }
}
