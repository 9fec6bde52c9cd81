//! Combining collectives by inversion (§3.5).
//!
//! A Reduce algorithm is obtained by inverting a Broadcast algorithm
//! synthesized on the reversed topology; a ReduceScatter by inverting an
//! Allgather. Allreduce is synthesized as a ReduceScatter (the inverse of
//! an Allgather) followed by that same Allgather.
//!
//! [`validate_combining`] checks a combining schedule by contribution
//! tracking, a call into the one replay of [`crate::check`].

use crate::algorithm::{Algorithm, Send, SendOp, ValidationError};
use crate::check::Replay;
use sccl_collectives::Collective;
use sccl_topology::Topology;

/// Invert a non-combining algorithm into its combining dual.
///
/// Every send `(c, src → dst, step s)` becomes a reducing send
/// `(c, dst → src, step S−1−s)` and the per-step round counts are reversed.
/// If the forward algorithm was synthesized for topology `T`, the inverted
/// algorithm runs on `T.reversed()` (identical for bidirectional machines
/// like the DGX-1 and the Gigabyte Z52).
pub fn invert(forward: &Algorithm, target: Collective) -> Algorithm {
    let s = forward.num_steps();
    let sends: Vec<Send> = forward
        .sends
        .iter()
        .map(|snd| Send {
            chunk: snd.chunk,
            src: snd.dst,
            dst: snd.src,
            step: s - 1 - snd.step,
            op: SendOp::Reduce,
        })
        .collect();
    let mut rounds = forward.rounds_per_step.clone();
    rounds.reverse();
    // The combining dual of Allgather (ReduceScatter) operates on the whole
    // per-node input buffer, which is split into G = P·C pieces; Reduce
    // keeps the root-buffer chunk count of its Broadcast dual.
    let per_node_chunks = match target {
        Collective::ReduceScatter | Collective::Allreduce => forward.num_chunks,
        _ => forward.per_node_chunks,
    };
    Algorithm {
        collective: target,
        topology_name: forward.topology_name.clone(),
        num_nodes: forward.num_nodes,
        per_node_chunks,
        num_chunks: forward.num_chunks,
        rounds_per_step: rounds,
        sends,
    }
}

/// Compose an Allreduce from an Allgather algorithm: the first phase is the
/// inverted Allgather (a ReduceScatter), the second phase the Allgather
/// itself, with its steps shifted after the first phase (§3.5).
pub fn compose_allreduce(allgather: &Algorithm) -> Algorithm {
    let reduce_phase = invert(allgather, Collective::ReduceScatter);
    let s = allgather.num_steps();
    let mut sends = reduce_phase.sends.clone();
    sends.extend(allgather.sends.iter().map(|snd| Send {
        step: snd.step + s,
        ..*snd
    }));
    sends.sort_by_key(|snd| (snd.step, snd.chunk, snd.src, snd.dst));
    let mut rounds = reduce_phase.rounds_per_step.clone();
    rounds.extend_from_slice(&allgather.rounds_per_step);
    Algorithm {
        collective: Collective::Allreduce,
        topology_name: allgather.topology_name.clone(),
        num_nodes: allgather.num_nodes,
        // The Allreduce input buffer is split into G = P·C pieces.
        per_node_chunks: allgather.num_chunks,
        num_chunks: allgather.num_chunks,
        rounds_per_step: rounds,
        sends,
    }
}

/// Check a combining (or mixed) schedule by tracking which nodes'
/// contributions each buffer holds ([`crate::check::Replay::reducing`]):
/// every node starts with its own contribution to every chunk, and every
/// `(chunk, node)` in `required` must end up with all `num_nodes` ranks'.
pub fn validate_combining(
    algorithm: &Algorithm,
    topology: &Topology,
    required: &[(usize, usize)],
) -> Result<(), ValidationError> {
    Replay::reducing(topology, algorithm)?.finish(required.iter().copied())
}

/// The `(chunk, node)` pairs a ReduceScatter must fully reduce: chunk `c`
/// onto node `c mod P` (the Scattered relation).
pub fn reducescatter_required(num_chunks: usize, num_nodes: usize) -> Vec<(usize, usize)> {
    (0..num_chunks).map(|c| (c, c % num_nodes)).collect()
}

/// The `(chunk, node)` pairs a Reduce must fully reduce: every chunk onto
/// the root.
pub fn reduce_required(num_chunks: usize, root: usize) -> Vec<(usize, usize)> {
    (0..num_chunks).map(|c| (c, root)).collect()
}

/// The `(chunk, node)` pairs an Allreduce must fully reduce: every chunk on
/// every node.
pub fn allreduce_required(num_chunks: usize, num_nodes: usize) -> Vec<(usize, usize)> {
    (0..num_chunks)
        .flat_map(|c| (0..num_nodes).map(move |n| (c, n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{synthesize, EncodingOptions, SynCollInstance};
    use sccl_solver::{Limits, SolverConfig};
    use sccl_topology::builders;

    fn synth(topology: &Topology, collective: Collective, c: usize, s: usize, r: u64) -> Algorithm {
        let inst = SynCollInstance {
            spec: collective.spec(topology.num_nodes(), c),
            per_node_chunks: c,
            num_steps: s,
            num_rounds: r,
        };
        synthesize(
            topology,
            &inst,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        )
        .outcome
        .algorithm()
        .expect("SAT")
    }

    #[test]
    fn inverted_ring_allgather_is_valid_reducescatter() {
        let topo = builders::ring(4, 1);
        let ag = synth(&topo, Collective::Allgather, 1, 3, 3);
        let rs = invert(&ag, Collective::ReduceScatter);
        assert_eq!(rs.collective, Collective::ReduceScatter);
        assert_eq!(rs.num_steps(), 3);
        assert_eq!(rs.total_rounds(), 3);
        assert!(rs.is_combining());
        validate_combining(
            &rs,
            &topo.reversed(),
            &reducescatter_required(rs.num_chunks, 4),
        )
        .expect("valid reduce-scatter");
    }

    #[test]
    fn inverted_broadcast_is_valid_reduce() {
        let topo = builders::chain(4, 1);
        // Broadcast from node 0 synthesized on the reversed chain (same
        // shape); inverting yields a Reduce onto node 0.
        let bc = synth(&topo.reversed(), Collective::Broadcast { root: 0 }, 1, 3, 3);
        let red = invert(&bc, Collective::Reduce { root: 0 });
        validate_combining(&red, &topo, &reduce_required(red.num_chunks, 0)).expect("valid reduce");
    }

    #[test]
    fn composed_allreduce_on_ring_is_valid() {
        let topo = builders::ring(4, 1);
        let ag = synth(&topo, Collective::Allgather, 1, 3, 3);
        let ar = compose_allreduce(&ag);
        assert_eq!(ar.collective, Collective::Allreduce);
        assert_eq!(ar.num_steps(), 6);
        assert_eq!(ar.total_rounds(), 6);
        assert_eq!(ar.per_node_chunks, 4);
        validate_combining(&ar, &topo, &allreduce_required(ar.num_chunks, 4))
            .expect("valid allreduce");
    }

    #[test]
    fn composed_allreduce_on_dgx1_latency_optimal() {
        // Table 4's Allreduce (8, 4, 4) row: compose the (1, 2, 2) Allgather.
        let topo = builders::dgx1();
        let ag = synth(&topo, Collective::Allgather, 1, 2, 2);
        let ar = compose_allreduce(&ag);
        assert_eq!(ar.per_node_chunks, 8);
        assert_eq!(ar.num_steps(), 4);
        assert_eq!(ar.total_rounds(), 4);
        validate_combining(&ar, &topo, &allreduce_required(ar.num_chunks, 8))
            .expect("valid allreduce");
    }

    #[test]
    fn double_count_is_detected() {
        // Two nodes both reduce into node 0, then node 1 reduces into node 2
        // and node 2 into node 0 again: node 0 would fold node 1's value twice.
        let topo = builders::fully_connected(3, 2);
        let alg = Algorithm {
            collective: Collective::Reduce { root: 0 },
            topology_name: topo.name().to_string(),
            num_nodes: 3,
            per_node_chunks: 1,
            num_chunks: 1,
            rounds_per_step: vec![1, 1],
            sends: vec![
                Send::reduce(0, 1, 0, 0),
                Send::reduce(0, 1, 2, 0),
                Send::reduce(0, 2, 0, 1),
            ],
        };
        let err = validate_combining(&alg, &topo, &reduce_required(1, 0)).unwrap_err();
        assert!(matches!(err, ValidationError::DoubleCounted { .. }));
    }

    #[test]
    fn incomplete_reduction_is_detected() {
        let topo = builders::fully_connected(3, 1);
        let alg = Algorithm {
            collective: Collective::Reduce { root: 0 },
            topology_name: topo.name().to_string(),
            num_nodes: 3,
            per_node_chunks: 1,
            num_chunks: 1,
            rounds_per_step: vec![1],
            sends: vec![Send::reduce(0, 1, 0, 0)],
        };
        let err = validate_combining(&alg, &topo, &reduce_required(1, 0)).unwrap_err();
        assert_eq!(
            err,
            ValidationError::IncompleteReduction {
                chunk: 0,
                node: 0,
                missing: 1
            }
        );
    }

    #[test]
    fn missing_link_is_detected() {
        let topo = builders::chain(3, 1);
        let alg = Algorithm {
            collective: Collective::Reduce { root: 0 },
            topology_name: topo.name().to_string(),
            num_nodes: 3,
            per_node_chunks: 1,
            num_chunks: 1,
            rounds_per_step: vec![1],
            sends: vec![Send::reduce(0, 2, 0, 0)],
        };
        let err = validate_combining(&alg, &topo, &[]).unwrap_err();
        assert_eq!(err, ValidationError::MissingLink { src: 2, dst: 0 });
    }

    #[test]
    fn bandwidth_violation_is_detected() {
        let topo = builders::chain(3, 1);
        let alg = Algorithm {
            collective: Collective::ReduceScatter,
            topology_name: topo.name().to_string(),
            num_nodes: 3,
            per_node_chunks: 3,
            num_chunks: 3,
            rounds_per_step: vec![1],
            sends: vec![Send::reduce(0, 1, 0, 0), Send::reduce(1, 1, 0, 0)],
        };
        let err = validate_combining(&alg, &topo, &[]).unwrap_err();
        assert!(matches!(err, ValidationError::BandwidthExceeded { .. }));
    }

    #[test]
    fn inversion_round_trips_metadata() {
        let topo = builders::ring(4, 1);
        let ag = synth(&topo, Collective::Allgather, 1, 3, 3);
        let rs = invert(&ag, Collective::ReduceScatter);
        assert_eq!(rs.sends.len(), ag.sends.len());
        // Every forward send appears reversed at the mirrored step.
        for snd in &ag.sends {
            assert!(rs.sends.iter().any(|r| r.chunk == snd.chunk
                && r.src == snd.dst
                && r.dst == snd.src
                && r.step == ag.num_steps() - 1 - snd.step));
        }
    }
}
