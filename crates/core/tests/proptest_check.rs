//! The dense replay of `sccl_core::check` against a naive reference: the
//! `BTreeSet` replay every verifier ran before there was one checker, kept
//! here as the test-only reference the way `synthesize_naive` serves the
//! encoder. Schedules that are valid by construction — synthesized, then
//! inverted or composed for the combining collectives — are mutated once,
//! and the checker's verdict must match the reference's.

use proptest::prelude::*;
use sccl_collectives::relations::Placement;
use sccl_collectives::{Collective, CollectiveSpec};
use sccl_core::bounds::latency_lower_bound;
use sccl_core::check::check;
use sccl_core::combining::{
    allreduce_required, compose_allreduce, invert, reduce_required, reducescatter_required,
    validate_combining,
};
use sccl_core::encoding::{synthesize, EncodingOptions, SynCollInstance};
use sccl_core::pareto::SynthesisConfig;
use sccl_core::{Algorithm, SendOp};
use sccl_hier::{verify_composition, HierEngineExt, HierRequest};
use sccl_sched::Engine;
use sccl_solver::{Limits, SolverConfig};
use sccl_topology::{builders, Topology};
use std::collections::BTreeSet;

mod common;
use common::{arbitrary_topology, small_topology};

/// The reference: placements and contributor sets as `BTreeSet`s, one
/// full scan of the sends per step and per constraint.
mod reference {
    use super::*;

    /// The run `V_0, …, V_S` of §3.3 from `pre`; a Reduce send places its
    /// chunk like a Copy, and a send whose source lacks the chunk moves
    /// nothing.
    pub fn run(alg: &Algorithm, pre: &Placement) -> Vec<Placement> {
        let mut states = vec![pre.clone()];
        for s in 0..alg.num_steps() {
            let mut next = states[s].clone();
            for send in alg.sends.iter().filter(|snd| snd.step == s) {
                if states[s].contains(&(send.chunk, send.src)) {
                    next.insert((send.chunk, send.dst));
                }
            }
            states.push(next);
        }
        states
    }

    fn bandwidth(alg: &Algorithm, topology: &Topology) -> Result<(), String> {
        for (ci, constraint) in topology.constraints().iter().enumerate() {
            for step in 0..alg.num_steps() {
                let used = alg
                    .sends
                    .iter()
                    .filter(|s| s.step == step && constraint.edges.contains(&(s.src, s.dst)))
                    .count() as u64;
                if used > constraint.chunks_per_round * alg.rounds_per_step[step] {
                    return Err(format!("constraint {ci} at step {step}"));
                }
            }
        }
        Ok(())
    }

    fn links(alg: &Algorithm, topology: &Topology) -> Result<(), String> {
        let links = topology.links();
        match alg.sends.iter().find(|s| !links.contains(&(s.src, s.dst))) {
            Some(s) => Err(format!("missing link {}->{}", s.src, s.dst)),
            None => Ok(()),
        }
    }

    pub fn validate(
        alg: &Algorithm,
        topology: &Topology,
        spec: &CollectiveSpec,
    ) -> Result<(), String> {
        let steps = alg.num_steps();
        for send in &alg.sends {
            if send.chunk >= alg.num_chunks
                || send.src >= alg.num_nodes
                || send.dst >= alg.num_nodes
            {
                return Err("index out of range".to_string());
            }
            if send.step >= steps {
                return Err("step out of range".to_string());
            }
        }
        links(alg, topology)?;
        let states = run(alg, &spec.pre);
        if let Some(s) = alg
            .sends
            .iter()
            .find(|s| !states[s.step].contains(&(s.chunk, s.src)))
        {
            return Err(format!("chunk {} not on {} at {}", s.chunk, s.src, s.step));
        }
        bandwidth(alg, topology)?;
        match spec.post.difference(states.last().expect("pre")).next() {
            Some(pair) => Err(format!("{pair:?} never placed")),
            None => Ok(()),
        }
    }

    pub fn validate_combining(
        alg: &Algorithm,
        topology: &Topology,
        required: &[(usize, usize)],
    ) -> Result<(), String> {
        let p = alg.num_nodes;
        links(alg, topology)?;
        bandwidth(alg, topology)?;
        let mut contrib: Vec<Vec<BTreeSet<usize>>> = (0..alg.num_chunks)
            .map(|_| (0..p).map(|n| BTreeSet::from([n])).collect())
            .collect();
        for step in 0..alg.num_steps() {
            let snapshot = contrib.clone();
            for snd in alg.sends.iter().filter(|s| s.step == step) {
                let incoming = &snapshot[snd.chunk][snd.src];
                match snd.op {
                    SendOp::Reduce => {
                        if !incoming.is_disjoint(&contrib[snd.chunk][snd.dst]) {
                            return Err(format!("double count at step {step}"));
                        }
                        contrib[snd.chunk][snd.dst].extend(incoming.iter().copied());
                    }
                    SendOp::Copy => contrib[snd.chunk][snd.dst] = incoming.clone(),
                }
            }
        }
        match required.iter().find(|&&(c, n)| contrib[c][n].len() != p) {
            Some(pair) => Err(format!("{pair:?} incompletely reduced")),
            None => Ok(()),
        }
    }
}

/// One mutation of a schedule, every index and value in range, chosen by
/// `kind` and `seed`: drop, duplicate, re-step, rewire `dst`, re-chunk or
/// flip the op of one send, or take a round from one step.
fn mutate(alg: &mut Algorithm, kind: usize, seed: u64) {
    let pick = |n: usize, salt: u64| (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt) as usize % n;
    let steps = alg.num_steps();
    if kind == 6 || alg.sends.is_empty() {
        if steps > 0 {
            let step = pick(steps, 1);
            alg.rounds_per_step[step] = alg.rounds_per_step[step].saturating_sub(1);
        }
        return;
    }
    let i = pick(alg.sends.len(), 2);
    match kind {
        0 => {
            alg.sends.remove(i);
        }
        1 => alg.sends.push(alg.sends[i]),
        2 => alg.sends[i].step = pick(steps, 3),
        3 => alg.sends[i].dst = pick(alg.num_nodes, 4),
        4 => alg.sends[i].chunk = pick(alg.num_chunks, 5),
        _ => {
            let send = &mut alg.sends[i];
            send.op = match send.op {
                SendOp::Copy => SendOp::Reduce,
                SendOp::Reduce => SendOp::Copy,
            };
        }
    }
}

/// A synthesized schedule for `spec` on `topology` at the latency bound
/// plus `extra_steps`, or — where none exists — an empty schedule of the
/// same shape, which both sides must reject unless there is nothing to do.
fn schedule(
    topology: &Topology,
    spec: &CollectiveSpec,
    chunks: usize,
    extra_steps: usize,
    extra_rounds: u64,
) -> Algorithm {
    let steps = latency_lower_bound(topology, spec).unwrap_or(1).max(1) + extra_steps;
    let instance = SynCollInstance {
        spec: spec.clone(),
        per_node_chunks: chunks,
        num_steps: steps,
        num_rounds: steps as u64 + extra_rounds,
    };
    let run = synthesize(
        topology,
        &instance,
        &EncodingOptions::default(),
        SolverConfig::default(),
        Limits::conflicts(5_000),
    );
    run.outcome.algorithm().unwrap_or_else(|| Algorithm {
        collective: spec.collective,
        topology_name: topology.name().to_string(),
        num_nodes: spec.num_nodes,
        per_node_chunks: chunks,
        num_chunks: spec.num_chunks,
        rounds_per_step: vec![1; steps],
        sends: Vec::new(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Every non-combining collective, on the small builders' machines and
    /// on arbitrary ones (whose shared egress caps put one link in several
    /// constraints): `validate` and `check` agree with the reference.
    #[test]
    fn the_replay_agrees_with_the_reference_on_moved_chunks(
        topologies in (small_topology(), arbitrary_topology(), any::<bool>()),
        kind in 0usize..5,
        chunks in 1usize..3,
        extra in (0usize..2, 0u64..2),
        mutation in (0usize..7, any::<u64>()),
    ) {
        let (small, arbitrary, use_small) = &topologies;
        let topo = if *use_small { small } else { arbitrary };
        let p = topo.num_nodes();
        let (collective, chunks) = match kind {
            0 => (Collective::Allgather, chunks),
            1 => (Collective::Broadcast { root: p / 2 }, chunks),
            2 => (Collective::Gather { root: p - 1 }, chunks),
            3 => (Collective::Scatter { root: 1 }, chunks),
            _ => (Collective::Alltoall, p),
        };
        let spec = collective.spec(p, chunks);
        let mut alg = schedule(topo, &spec, chunks, extra.0, extra.1);
        mutate(&mut alg, mutation.0, mutation.1);
        let expected = reference::validate(&alg, topo, &spec);
        prop_assert_eq!(
            alg.validate(topo, &spec).is_ok(), expected.is_ok(),
            "validate vs reference {:?} on {} {}: {:?}", expected, topo, collective, alg
        );
        prop_assert_eq!(
            check(topo, collective, &alg).is_ok(), expected.is_ok(),
            "check vs reference {:?} on {} {}: {:?}", expected, topo, collective, alg
        );
    }

    /// Reduce and ReduceScatter by inversion of a schedule synthesized on
    /// the reversed machine, Allreduce by composition of an Allgather:
    /// `validate_combining` and `check` agree with the reference's
    /// contributor sets.
    #[test]
    fn the_replay_agrees_with_the_reference_on_reductions(
        topologies in (small_topology(), arbitrary_topology(), any::<bool>()),
        kind in 0usize..3,
        chunks in 1usize..3,
        extra in (0usize..2, 0u64..2),
        mutation in (0usize..7, any::<u64>()),
    ) {
        let (small, arbitrary, use_small) = &topologies;
        let topo = if *use_small { small } else { arbitrary };
        let p = topo.num_nodes();
        let (collective, dual, on) = match kind {
            0 => (Collective::ReduceScatter, Collective::Allgather, topo.reversed()),
            1 => (Collective::Reduce { root: p - 1 }, Collective::Broadcast { root: p - 1 }, topo.reversed()),
            _ => (Collective::Allreduce, Collective::Allgather, topo.clone()),
        };
        let forward = schedule(&on, &dual.spec(p, chunks), chunks, extra.0, extra.1);
        let mut alg = match collective {
            Collective::Allreduce => compose_allreduce(&forward),
            _ => invert(&forward, collective),
        };
        mutate(&mut alg, mutation.0, mutation.1);
        let g = alg.num_chunks;
        let required = match collective {
            Collective::ReduceScatter => reducescatter_required(g, p),
            Collective::Reduce { root } => reduce_required(g, root),
            _ => allreduce_required(g, p),
        };
        let expected = reference::validate_combining(&alg, topo, &required);
        prop_assert_eq!(
            validate_combining(&alg, topo, &required).is_ok(), expected.is_ok(),
            "validate_combining vs reference {:?} on {} {}: {:?}", expected, topo, collective, alg
        );
        prop_assert_eq!(
            check(topo, collective, &alg).is_ok(), expected.is_ok(),
            "check vs reference {:?} on {} {}: {:?}", expected, topo, collective, alg
        );
    }
}

/// Compositions of all four composable collectives on 3 rings of 4, as
/// many single mutations of each as it has sends: `verify_composition`
/// accepts exactly when the
/// reference accepts the flat schedule and every stage's boundary
/// placement holds in the reference run after the stage's last step.
#[test]
fn composition_verdicts_agree_with_the_reference() {
    let topology = builders::ring_of_rings(3, 4, 2, 1);
    let engine = Engine::builder().build().expect("a cacheless engine");
    let config = SynthesisConfig {
        max_steps: 8,
        ..Default::default()
    };
    for collective in [
        Collective::Allgather,
        Collective::Broadcast { root: 5 },
        Collective::Gather { root: 6 },
        Collective::Scatter { root: 6 },
    ] {
        let hier = engine
            .synthesize_hier(HierRequest::new(&topology, collective).with_config(config.clone()))
            .expect("composes")
            .algorithm;
        let spec = collective.spec(topology.num_nodes(), 1);
        let mut rejected = 0;
        for i in 0..hier.composed.sends.len() {
            let kind = i % 7;
            let mut mutated = hier.clone();
            mutate(&mut mutated.composed, kind, i as u64);
            let flat = reference::validate(&mutated.composed, &topology, &spec);
            let states = reference::run(&mutated.composed, &spec.pre);
            let boundaries = mutated.stages.iter().all(|s| {
                let end = s.step_offset + s.steps;
                end == 0 || s.post.iter().all(|pair| states[end].contains(pair))
            });
            let expected = flat.is_ok() && boundaries;
            let verdict = verify_composition(&mutated, &topology);
            assert_eq!(
                verdict.is_ok(),
                expected,
                "{collective}: mutation {i} of kind {kind}: verifier {verdict:?}, reference \
                 {flat:?}, boundaries {boundaries}"
            );
            rejected += usize::from(!expected);
        }
        assert!(rejected > 0, "{collective}: no mutation was caught");
    }
}
