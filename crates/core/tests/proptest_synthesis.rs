//! Property-based tests for the synthesis engine: every schedule the
//! encoder accepts must pass the independent run-semantics validator, and
//! inversion must preserve correctness.

use proptest::prelude::*;
use sccl_collectives::Collective;
use sccl_core::bounds::{bandwidth_lower_bound, latency_lower_bound};
use sccl_core::combining::{
    allreduce_required, compose_allreduce, invert, reducescatter_required, validate_combining,
};
use sccl_core::encoding::{synthesize, EncodingOptions, SynCollInstance, SynthesisOutcome};
use sccl_core::incremental::IncrementalEncoder;
use sccl_solver::{Limits, SolverConfig};
use sccl_topology::{builders, Rational, Topology};

mod common;
use common::{arbitrary_topology, small_topology};

/// Machines symmetric by construction — a ring, a ring whose clockwise
/// cycle has twice the budget, a hypercube, a 2×k torus, a complete graph,
/// an even ring of half-duplex hops (where taking turns beats any schedule
/// that looks the same from every node) — under a random relabelling of
/// their nodes, so that no symmetry is the one a builder's numbering
/// suggests, and optionally with the outgoing links of every node sharing
/// one cap (a constraint over several links, which a symmetry moves as a
/// whole).
fn symmetric_topology() -> impl Strategy<Value = Topology> {
    (
        0usize..6,
        0usize..3,
        prop::collection::vec(any::<u64>(), 8),
        prop::option::of(1u64..3),
    )
        .prop_map(|(kind, size, keys, egress_cap)| {
            let model = match kind {
                0 => builders::ring(4 + size, 1),
                1 => {
                    let n = 3 + size;
                    let mut ring = Topology::new(format!("lopsided-ring-{n}"), n);
                    for i in 0..n {
                        ring.add_link(i, (i + 1) % n, 2);
                        ring.add_link((i + 1) % n, i, 1);
                    }
                    ring
                }
                2 => builders::hypercube(2 + (size as u32) % 2, 1),
                3 => {
                    let k = 3 + size % 2;
                    let mut torus = Topology::new(format!("torus-2x{k}"), 2 * k);
                    for col in 0..k {
                        torus.add_bidi_link(col, k + col, 1);
                        for row in [0, k] {
                            torus.add_bidi_link(row + col, row + (col + 1) % k, 1);
                        }
                    }
                    torus
                }
                4 => builders::fully_connected(3 + size, 1),
                _ => {
                    let n = 2 + 2 * size;
                    let mut ring = Topology::new(format!("half-duplex-ring-{n}"), n);
                    // (Two nodes have one hop between them, not two.)
                    for i in 0..if n == 2 { 1 } else { n } {
                        let next = (i + 1) % n;
                        ring.add_bidi_link(i, next, 1);
                        ring.add_shared_constraint([(i, next), (next, i)], 1);
                    }
                    ring
                }
            };
            let n = model.num_nodes();
            let mut label: Vec<usize> = (0..n).collect();
            label.sort_by_key(|&node| keys[node]);
            let mut topo = Topology::new(format!("{}-relabelled", model.name()), n);
            for constraint in model.constraints() {
                let edges = constraint.edges.iter();
                topo.add_shared_constraint(
                    edges.map(|&(src, dst)| (label[src], label[dst])),
                    constraint.chunks_per_round,
                );
            }
            if let Some(cap) = egress_cap {
                for node in 0..n {
                    let out = topo.links().into_iter().filter(|&(src, _)| src == node);
                    topo.add_shared_constraint(out.collect::<Vec<_>>(), cap);
                }
            }
            topo
        })
}

fn collective_strategy() -> impl Strategy<Value = Collective> {
    prop_oneof![
        Just(Collective::Allgather),
        Just(Collective::Broadcast { root: 0 }),
        Just(Collective::Gather { root: 0 }),
        Just(Collective::Scatter { root: 0 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// If the encoder reports SAT, the decoded schedule validates against
    /// the independent run-semantics checker; if it reports UNSAT, the
    /// instance is below one of the structural lower bounds or genuinely
    /// infeasible — never both outcomes for the same instance.
    #[test]
    fn synthesized_schedules_always_validate(
        topo in small_topology(),
        collective in collective_strategy(),
        chunks in 1usize..3,
        extra_steps in 0usize..2,
        extra_rounds in 0u64..2,
    ) {
        let p = topo.num_nodes();
        let spec = collective.spec(p, chunks);
        let al = latency_lower_bound(&topo, &spec).expect("connected");
        let steps = al.max(1) + extra_steps;
        let rounds = steps as u64 + extra_rounds;
        let instance = SynCollInstance {
            spec: spec.clone(),
            per_node_chunks: chunks,
            num_steps: steps,
            num_rounds: rounds,
        };
        let run = synthesize(
            &topo,
            &instance,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        );
        if let SynthesisOutcome::Satisfiable(alg) = run.outcome {
            prop_assert!(alg.validate(&topo, &spec).is_ok(),
                "decoded schedule fails validation: {:?}", alg.validate(&topo, &spec));
            prop_assert_eq!(alg.total_rounds(), rounds);
            prop_assert_eq!(alg.num_steps(), steps);
        }
    }

    /// Both decodes — the fresh solver's and the warm encoder's — prune
    /// dead sends: the schedule validates, stops validating when any one
    /// send is removed, and where every pair is a post pair (Allgather,
    /// Broadcast) keeps exactly one receive per pair that does not start
    /// with its chunk.
    #[test]
    fn decoded_schedules_are_send_minimal(
        topo in small_topology(),
        kind in 0usize..5,
        chunks in 1usize..3,
        extra_steps in 0usize..3,
        extra_rounds in 0u64..2,
    ) {
        let p = topo.num_nodes();
        let (collective, chunks) = match kind {
            0 => (Collective::Allgather, chunks),
            1 => (Collective::Broadcast { root: 0 }, chunks),
            2 => (Collective::Gather { root: 0 }, chunks),
            3 => (Collective::Scatter { root: 0 }, chunks),
            _ => (Collective::Alltoall, p),
        };
        let spec = collective.spec(p, chunks);
        let al = latency_lower_bound(&topo, &spec).expect("connected");
        let steps = al.max(1) + extra_steps;
        let rounds = steps as u64 + extra_rounds;
        let instance = SynCollInstance {
            spec: spec.clone(),
            per_node_chunks: chunks,
            num_steps: steps,
            num_rounds: rounds,
        };
        let cold = synthesize(
            &topo,
            &instance,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        );
        let warm = IncrementalEncoder::new(
            &topo,
            spec.clone(),
            chunks,
            steps,
            extra_rounds,
            &EncodingOptions::default(),
            SolverConfig::default(),
        )
        .solve_candidate(steps, rounds, Limits::none());
        prop_assert_eq!(cold.outcome.is_sat(), warm.outcome.is_sat());
        for outcome in [cold.outcome, warm.outcome] {
            let SynthesisOutcome::Satisfiable(alg) = outcome else { continue };
            prop_assert!(alg.validate(&topo, &spec).is_ok());
            for i in 0..alg.sends.len() {
                let mut without = alg.clone();
                let removed = without.sends.remove(i);
                prop_assert!(
                    without.validate(&topo, &spec).is_err(),
                    "{} on {}: {:?} was dead weight", collective, topo.name(), removed
                );
            }
            if kind < 2 {
                prop_assert_eq!(alg.sends.len(), spec.num_chunks * p - spec.pre.len());
            }
        }
    }

    /// Below the latency lower bound the encoder always answers UNSAT.
    #[test]
    fn below_latency_bound_is_unsat(
        topo in small_topology(),
        collective in collective_strategy(),
    ) {
        let p = topo.num_nodes();
        let spec = collective.spec(p, 1);
        let al = latency_lower_bound(&topo, &spec).expect("connected");
        prop_assume!(al >= 2); // need room to go below the bound
        let steps = al - 1;
        let instance = SynCollInstance {
            spec,
            per_node_chunks: 1,
            num_steps: steps,
            num_rounds: steps as u64 + 3,
        };
        let run = synthesize(
            &topo,
            &instance,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        );
        prop_assert!(matches!(run.outcome, SynthesisOutcome::Unsatisfiable));
    }

    /// Below the bandwidth lower bound (R/C < b_l) the encoder answers UNSAT.
    #[test]
    fn below_bandwidth_bound_is_unsat(
        topo in small_topology(),
        chunks in 2usize..4,
    ) {
        let p = topo.num_nodes();
        let spec = Collective::Allgather.spec(p, chunks);
        let bl = bandwidth_lower_bound(&topo, &spec, chunks).expect("connected");
        let al = latency_lower_bound(&topo, &spec).expect("connected");
        // Pick R strictly below bl·C (if that leaves any feasible R ≥ S ≥ al).
        let max_r = bl.numerator() * chunks as u64 / bl.denominator();
        prop_assume!(max_r >= 1);
        let rounds = max_r - 1;
        prop_assume!(rounds >= al as u64);
        prop_assume!(Rational::new(rounds, chunks as u64) < bl);
        let instance = SynCollInstance {
            spec,
            per_node_chunks: chunks,
            num_steps: al,
            num_rounds: rounds,
        };
        let run = synthesize(
            &topo,
            &instance,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        );
        prop_assert!(matches!(run.outcome, SynthesisOutcome::Unsatisfiable));
    }

    /// Inverting a synthesized Allgather yields a valid ReduceScatter, and
    /// composing it yields a valid Allreduce (on bidirectional topologies).
    #[test]
    fn inversion_preserves_correctness(
        kind in 0usize..3,
        n in 3usize..6,
        extra_steps in 0usize..2,
    ) {
        let topo = match kind {
            0 => builders::ring(n, 1),
            1 => builders::chain(n, 1),
            _ => builders::fully_connected(n, 1),
        };
        let p = topo.num_nodes();
        let spec = Collective::Allgather.spec(p, 1);
        let al = latency_lower_bound(&topo, &spec).expect("connected");
        let steps = al + extra_steps;
        let instance = SynCollInstance {
            spec,
            per_node_chunks: 1,
            num_steps: steps,
            num_rounds: steps as u64 + 1,
        };
        let run = synthesize(
            &topo,
            &instance,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        );
        if let SynthesisOutcome::Satisfiable(ag) = run.outcome {
            let rs = invert(&ag, Collective::ReduceScatter);
            prop_assert!(validate_combining(
                &rs,
                &topo,
                &reducescatter_required(rs.num_chunks, p)
            ).is_ok());
            let ar = compose_allreduce(&ag);
            prop_assert!(validate_combining(
                &ar,
                &topo,
                &allreduce_required(ar.num_chunks, p)
            ).is_ok());
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The naive encoding is the reference: it states C1–C6 directly, one
    /// Boolean per send tuple, and none of the redundant strengthenings
    /// (distance pruning, ingress cuts). On arbitrary small machines —
    /// directed, with unequal link budgets, optionally a shared egress
    /// cap, sometimes disconnected — and every non-combining collective,
    /// at `(C, S, R)` from below the bounds to above them, the careful
    /// encoding and the warm layered one reach the naive verdict, and
    /// every schedule they return validates.
    #[test]
    fn encodings_agree(
        topo in arbitrary_topology(),
        kind in 0usize..5,
        chunks in 1usize..3,
        steps in 1usize..5,
        extra_rounds in 0u64..3,
    ) {
        let p = topo.num_nodes();
        let (collective, chunks) = match kind {
            0 => (Collective::Allgather, chunks),
            1 => (Collective::Broadcast { root: 0 }, chunks + 1),
            2 => (Collective::Gather { root: p - 1 }, chunks),
            3 => (Collective::Scatter { root: 1 }, chunks),
            _ => (Collective::Alltoall, p),
        };
        let spec = collective.spec(p, chunks);
        let rounds = steps as u64 + extra_rounds;
        let instance = SynCollInstance {
            spec: spec.clone(),
            per_node_chunks: chunks,
            num_steps: steps,
            num_rounds: rounds,
        };
        let naive = sccl_core::encoding::synthesize_naive(
            &topo,
            &instance,
            SolverConfig::default(),
            Limits::none(),
        );
        let careful = synthesize(
            &topo,
            &instance,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        );
        // The warm encoder has built the step layers on both sides of the
        // candidate first, with round counts no wider than the candidate
        // needs: a layer's constraints must not bind a probe at another
        // step count, and the tighter its rounds the sooner one would.
        let mut warm = IncrementalEncoder::new(
            &topo,
            spec.clone(),
            chunks,
            steps + 1,
            extra_rounds,
            &EncodingOptions::default(),
            SolverConfig::default(),
        );
        for neighbour in [steps + 1, steps - 1] {
            warm.solve_candidate(neighbour, neighbour as u64, Limits::none());
        }
        let warm = warm.solve_candidate(steps, rounds, Limits::none());
        for (name, run) in [("careful", careful), ("warm", warm)] {
            prop_assert_eq!(
                run.outcome.is_sat(), naive.outcome.is_sat(),
                "{} disagrees with the naive encoding on {} {} at C={} S={} R={}",
                name, topo.name(), collective, chunks, steps, rounds
            );
            prop_assert!(!matches!(run.outcome, SynthesisOutcome::Unknown));
            if let SynthesisOutcome::Satisfiable(alg) = run.outcome {
                prop_assert!(alg.validate(&topo, &spec).is_ok(),
                    "{} schedule fails validation: {:?}", name, alg.validate(&topo, &spec));
                prop_assert_eq!((alg.num_steps(), alg.total_rounds()), (steps, rounds));
            }
        }
    }

    /// [`synthesize`] decides a candidate on the quotient of its formula
    /// under the machine's symmetries where it can, and the naive encoding
    /// knows nothing of symmetry (nor of cuts or pruning): on machines
    /// that have symmetries by construction, and on the arbitrary ones
    /// above that mostly have none, the two reach one verdict for every
    /// non-combining collective — rooted ones, which no symmetry survives,
    /// included — and every schedule found validates. A quotient taken
    /// under a group that does not act freely, or trusted when refuted,
    /// shows here as a lost schedule; one taken under a permutation that
    /// does not preserve `post`, as an invalid one.
    #[test]
    fn the_quotient_agrees_with_the_naive_reference(
        symmetric in symmetric_topology(),
        arbitrary in arbitrary_topology(),
        kind in 0usize..7,
        chunks in 1usize..4,
        size in (0usize..4, 1usize..5, 0u64..3),
    ) {
        // Three cases in four on the machines that have symmetries, four
        // in seven on the collectives that keep them.
        let (by_construction, steps, extra_rounds) = size;
        let topo = if by_construction > 0 { &symmetric } else { &arbitrary };
        let p = topo.num_nodes();
        let (collective, chunks) = match kind {
            0 | 1 => (Collective::Allgather, chunks),
            2 | 3 => (Collective::Alltoall, p),
            4 => (Collective::Broadcast { root: p / 2 }, chunks),
            5 => (Collective::Gather { root: 0 }, chunks),
            _ => (Collective::Scatter { root: p - 1 }, chunks),
        };
        let spec = collective.spec(p, chunks);
        let rounds = steps as u64 + extra_rounds;
        let instance = SynCollInstance {
            spec: spec.clone(),
            per_node_chunks: chunks,
            num_steps: steps,
            num_rounds: rounds,
        };
        // The reference has nothing to shorten a counting argument with:
        // the few instances it cannot settle in a second are redrawn.
        let naive = sccl_core::encoding::synthesize_naive(
            topo,
            &instance,
            SolverConfig::default(),
            Limits::conflicts(3_000),
        );
        prop_assume!(!matches!(naive.outcome, SynthesisOutcome::Unknown));
        let run = synthesize(
            topo,
            &instance,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        );
        prop_assert!(!matches!(run.outcome, SynthesisOutcome::Unknown));
        prop_assert_eq!(
            run.outcome.is_sat(), naive.outcome.is_sat(),
            "{} {} at C={} S={} R={} ({} solver runs)",
            topo, collective, chunks, steps, rounds, run.solves
        );
        if let SynthesisOutcome::Satisfiable(alg) = run.outcome {
            prop_assert!(alg.validate(topo, &spec).is_ok(),
                "{} {}: {:?}", topo, collective, alg.validate(topo, &spec));
            prop_assert_eq!((alg.num_steps(), alg.total_rounds()), (steps, rounds));
        }
    }
}
