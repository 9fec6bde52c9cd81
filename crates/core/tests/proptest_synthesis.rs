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

/// Small random topologies: ring, chain, star, fully-connected or hypercube
/// with 3–5 nodes (4 or 8 for the hypercube).
fn small_topology() -> impl Strategy<Value = Topology> {
    (0usize..5, 3usize..6, 1u64..3).prop_map(|(kind, n, bw)| match kind {
        0 => builders::ring(n, bw),
        1 => builders::chain(n, bw),
        2 => builders::star(n, bw),
        3 => builders::fully_connected(n, bw),
        _ => builders::hypercube(2, bw),
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

    /// The naive and careful encodings agree on satisfiability for small
    /// instances.
    #[test]
    fn encodings_agree(
        n in 3usize..5,
        steps in 1usize..4,
    ) {
        let topo = builders::ring(n, 1);
        let spec = Collective::Allgather.spec(n, 1);
        let instance = SynCollInstance {
            spec,
            per_node_chunks: 1,
            num_steps: steps,
            num_rounds: steps as u64,
        };
        let careful = synthesize(
            &topo,
            &instance,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        );
        let naive = sccl_core::encoding::synthesize_naive(
            &topo,
            &instance,
            SolverConfig::default(),
            Limits::none(),
        );
        prop_assert_eq!(careful.outcome.is_sat(), naive.outcome.is_sat());
    }
}
