//! The ledger's own replay checker. It shares no code with the validators
//! of the system under test (`Algorithm::validate`, `validate_combining`,
//! `verify_report`, `verify_composition`): the pre/post relations of the
//! paper's Table 2 are restated here, and a schedule is accepted only if
//! replaying its sends step by step — copies move a buffer, reductions fold
//! one into another — respects every bandwidth constraint and ends in the
//! collective's post-condition.

use sccl_collectives::Collective;
use sccl_core::{Algorithm, SendOp};
use sccl_topology::Topology;
use std::collections::{HashMap, HashSet};

/// Contributor set of one buffer: bit `n` set means rank `n`'s input is
/// folded in. 256 ranks covers the largest machine the ledger composes.
type Ranks = [u64; 4];
const MAX_RANKS: usize = 256;

fn single(rank: usize) -> Ranks {
    let mut set = [0u64; 4];
    set[rank / 64] |= 1 << (rank % 64);
    set
}

fn count(set: &Ranks) -> usize {
    set.iter().map(|w| w.count_ones() as usize).sum()
}

/// Where chunk `c` of `G` starts (`true`) for a non-combining collective.
fn pre(collective: Collective, c: usize, n: usize, p: usize) -> bool {
    match collective {
        Collective::Allgather | Collective::Gather { .. } | Collective::Alltoall => n == c % p,
        Collective::Broadcast { root } | Collective::Scatter { root } => n == root,
        _ => unreachable!("combining collectives start with every rank's own input"),
    }
}

/// Where chunk `c` must end up. For combining collectives these are the
/// buffers that must hold the full reduction.
fn post(collective: Collective, c: usize, n: usize, p: usize) -> bool {
    match collective {
        Collective::Allgather | Collective::Broadcast { .. } | Collective::Allreduce => true,
        Collective::Gather { root } | Collective::Reduce { root } => n == root,
        Collective::Scatter { .. } | Collective::ReduceScatter => n == c % p,
        Collective::Alltoall => n == (c / p) % p,
    }
}

fn combining(collective: Collective) -> bool {
    matches!(
        collective,
        Collective::Reduce { .. } | Collective::ReduceScatter | Collective::Allreduce
    )
}

/// Replay `algorithm` as an implementation of `collective` on `topology`.
pub fn check(
    topology: &Topology,
    collective: Collective,
    algorithm: &Algorithm,
) -> Result<(), String> {
    let p = topology.num_nodes();
    let g = algorithm.num_chunks;
    let steps = algorithm.rounds_per_step.len();
    if algorithm.num_nodes != p {
        return Err(format!(
            "schedule is for {} nodes, topology has {p}",
            algorithm.num_nodes
        ));
    }
    if p > MAX_RANKS {
        return Err(format!("{p} ranks exceed the checker's {MAX_RANKS}"));
    }
    if g == 0 || steps == 0 {
        return Err("empty schedule".to_string());
    }
    if let Some(step) = algorithm.rounds_per_step.iter().position(|&r| r == 0) {
        return Err(format!("step {step} has zero rounds"));
    }
    if let Some(root) = collective.root() {
        if root >= p {
            return Err(format!("root {root} out of range"));
        }
    }

    // A usable link appears in some constraint and in no zero-budget one.
    let mut usable: HashSet<(usize, usize)> = HashSet::new();
    for constraint in topology.constraints() {
        usable.extend(constraint.edges.iter().copied());
    }
    for constraint in topology.constraints() {
        if constraint.chunks_per_round == 0 {
            for edge in &constraint.edges {
                usable.remove(edge);
            }
        }
    }

    let mut by_step: Vec<Vec<usize>> = vec![Vec::new(); steps];
    for (index, send) in algorithm.sends.iter().enumerate() {
        if send.chunk >= g || send.src >= p || send.dst >= p {
            return Err(format!("send {index} has an index out of range"));
        }
        if send.step >= steps {
            return Err(format!("send {index} is at step {} of {steps}", send.step));
        }
        if !usable.contains(&(send.src, send.dst)) {
            return Err(format!(
                "send {index} uses missing link {}->{}",
                send.src, send.dst
            ));
        }
        by_step[send.step].push(index);
    }

    // buffers[c * p + n]: who contributed to node n's copy of chunk c, or
    // None while the node does not hold the chunk.
    let reducing = combining(collective);
    let mut buffers: Vec<Option<Ranks>> = (0..g * p)
        .map(|slot| {
            let (c, n) = (slot / p, slot % p);
            (reducing || pre(collective, c, n, p)).then(|| single(n))
        })
        .collect();

    for (step, sends) in by_step.iter().enumerate() {
        // Bandwidth: every constraint (L, b) admits b chunks per round.
        let mut load: HashMap<(usize, usize), u64> = HashMap::new();
        for &index in sends {
            let send = &algorithm.sends[index];
            *load.entry((send.src, send.dst)).or_insert(0) += 1;
        }
        for (ci, constraint) in topology.constraints().iter().enumerate() {
            let used: u64 = constraint
                .edges
                .iter()
                .filter_map(|edge| load.get(edge))
                .sum();
            let allowed = constraint.chunks_per_round * algorithm.rounds_per_step[step];
            if used > allowed {
                return Err(format!(
                    "step {step}: constraint {ci} carries {used} chunks, {allowed} allowed"
                ));
            }
        }

        // Synchronous step: every send reads the state the step began in.
        let mut payloads = Vec::with_capacity(sends.len());
        for &index in sends {
            let send = &algorithm.sends[index];
            match buffers[send.chunk * p + send.src] {
                Some(payload) => payloads.push(payload),
                None => {
                    return Err(format!(
                        "step {step}: node {} sends chunk {} it does not hold",
                        send.src, send.chunk
                    ))
                }
            }
        }
        for (&index, payload) in sends.iter().zip(payloads) {
            let send = &algorithm.sends[index];
            let slot = &mut buffers[send.chunk * p + send.dst];
            match (send.op, *slot) {
                (SendOp::Copy, _) | (SendOp::Reduce, None) => *slot = Some(payload),
                (SendOp::Reduce, Some(mut held)) => {
                    if (0..4).any(|w| held[w] & payload[w] != 0) {
                        return Err(format!(
                            "step {step}: reducing chunk {} into node {} counts a rank twice",
                            send.chunk, send.dst
                        ));
                    }
                    for w in 0..4 {
                        held[w] |= payload[w];
                    }
                    *slot = Some(held);
                }
            }
        }
    }

    for c in 0..g {
        for n in 0..p {
            if !post(collective, c, n, p) {
                continue;
            }
            match buffers[c * p + n] {
                None => return Err(format!("chunk {c} never reaches node {n}")),
                Some(held) if reducing && count(&held) != p => {
                    return Err(format!(
                        "chunk {c} on node {n} folds {} of {p} ranks",
                        count(&held)
                    ))
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_core::Send;
    use sccl_topology::builders;

    /// The classic 3-step ring Allgather on 4 nodes, written out by hand.
    fn ring_allgather() -> Algorithm {
        let mut sends = Vec::new();
        for step in 0..3 {
            for node in 0..4usize {
                sends.push(Send::copy(
                    (node + 4 - step) % 4,
                    node,
                    (node + 1) % 4,
                    step,
                ));
            }
        }
        Algorithm {
            collective: Collective::Allgather,
            topology_name: "ring-4".to_string(),
            num_nodes: 4,
            per_node_chunks: 1,
            num_chunks: 4,
            rounds_per_step: vec![1, 1, 1],
            sends,
        }
    }

    /// Its inversion: a ReduceScatter that folds clockwise contributions.
    fn ring_reducescatter() -> Algorithm {
        let forward = ring_allgather();
        Algorithm {
            collective: Collective::ReduceScatter,
            sends: forward
                .sends
                .iter()
                .map(|s| Send::reduce(s.chunk, s.dst, s.src, 2 - s.step))
                .collect(),
            ..forward
        }
    }

    #[test]
    fn accepts_hand_written_schedules() {
        let ring = builders::ring(4, 1);
        check(&ring, Collective::Allgather, &ring_allgather()).expect("allgather");
        check(&ring, Collective::ReduceScatter, &ring_reducescatter()).expect("reducescatter");
    }

    #[test]
    fn rejects_each_kind_of_tampering() {
        let ring = builders::ring(4, 1);
        let good = ring_allgather();

        let mut dropped = good.clone();
        dropped.sends.pop();
        assert!(check(&ring, Collective::Allgather, &dropped)
            .unwrap_err()
            .contains("never reaches"));

        let mut rewired = good.clone();
        rewired.sends[0].dst = 2;
        assert!(check(&ring, Collective::Allgather, &rewired)
            .unwrap_err()
            .contains("missing link"));

        let mut early = good.clone();
        early.sends[4].step = 0; // forwards a chunk before it arrived
        assert!(check(&ring, Collective::Allgather, &early).is_err());

        let mut crowded = good.clone();
        for send in &mut crowded.sends {
            if send.step == 2 {
                send.step = 1;
            }
        }
        crowded.rounds_per_step = vec![1, 1];
        assert!(check(&ring, Collective::Allgather, &crowded).is_err());

        // The right sends for the wrong collective: under a Broadcast from
        // node 1 nobody else starts out holding anything to forward.
        assert!(check(&ring, Collective::Broadcast { root: 1 }, &good)
            .unwrap_err()
            .contains("does not hold"));

        let mut twice = ring_reducescatter();
        let extra = twice.sends[0];
        twice.sends.push(Send { step: 2, ..extra });
        assert!(check(&ring, Collective::ReduceScatter, &twice).is_err());
    }
}
