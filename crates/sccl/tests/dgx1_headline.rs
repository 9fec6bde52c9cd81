//! Integration test: the paper's headline DGX-1 Allgather results
//! (§2.4–2.5 and the Allgather block of Table 4).
//!
//! * No 1-step algorithm exists (the diameter is 2).
//! * A latency-optimal 2-step algorithm exists: (C, S, R) = (1, 2, 2) and
//!   the Pareto-optimal (2, 2, 3) with cost 2α + (3/2)Lβ.
//! * The bandwidth lower bound is 7/6; the (6, 3, 7) schedule that attains
//!   it in only 3 steps (the novel algorithm of §2.4) is synthesized in
//!   `table4_dgx1.rs`, under the ledger's conflict budget.

use sccl::prelude::*;
use sccl_core::bounds::{bandwidth_lower_bound, latency_lower_bound};
use sccl_core::encoding::{synthesize, EncodingOptions, SynCollInstance, SynthesisOutcome};
use sccl_solver::{Limits, SolverConfig};

fn probe_allgather(
    topology: &Topology,
    chunks: usize,
    steps: usize,
    rounds: u64,
) -> SynthesisOutcome {
    let instance = SynCollInstance {
        spec: Collective::Allgather.spec(topology.num_nodes(), chunks),
        per_node_chunks: chunks,
        num_steps: steps,
        num_rounds: rounds,
    };
    synthesize(
        topology,
        &instance,
        &EncodingOptions::default(),
        SolverConfig::default(),
        Limits::none(),
    )
    .outcome
}

#[test]
fn dgx1_structural_bounds_match_paper() {
    let dgx1 = builders::dgx1();
    let spec = Collective::Allgather.spec(8, 6);
    assert_eq!(latency_lower_bound(&dgx1, &spec), Some(2));
    assert_eq!(
        bandwidth_lower_bound(&dgx1, &spec, 6),
        Some(Rational::new(7, 6))
    );
}

#[test]
fn dgx1_one_step_allgather_is_impossible() {
    let dgx1 = builders::dgx1();
    assert!(matches!(
        probe_allgather(&dgx1, 1, 1, 1),
        SynthesisOutcome::Unsatisfiable
    ));
    // Even with extra rounds, one step cannot beat the diameter.
    assert!(matches!(
        probe_allgather(&dgx1, 1, 1, 3),
        SynthesisOutcome::Unsatisfiable
    ));
}

#[test]
fn dgx1_latency_optimal_two_step_allgather_exists() {
    let dgx1 = builders::dgx1();
    let alg = probe_allgather(&dgx1, 1, 2, 2)
        .algorithm()
        .expect("the (1,2,2) algorithm of Table 4 exists");
    alg.validate(&dgx1, &Collective::Allgather.spec(8, 1))
        .expect("valid schedule");
    assert_eq!(alg.num_steps(), 2);
    assert_eq!(alg.total_rounds(), 2);
}

#[test]
fn dgx1_pareto_optimal_2step_3round_allgather_exists() {
    // §2.5: cost 2α + (3/2)Lβ — Pareto-optimal at the latency end.
    let dgx1 = builders::dgx1();
    let alg = probe_allgather(&dgx1, 2, 2, 3)
        .algorithm()
        .expect("the (2,2,3) algorithm of Table 4 exists");
    alg.validate(&dgx1, &Collective::Allgather.spec(8, 2))
        .expect("valid schedule");
    assert_eq!(alg.cost().bandwidth_cost(), Rational::new(3, 2));
}

#[test]
fn dgx1_bandwidth_cost_below_lower_bound_is_unsat() {
    // R/C strictly below 7/6 must be impossible: with 2 chunks per node and
    // only 2 rounds, each GPU could receive at most 12 of the 14 chunks it
    // needs.
    let dgx1 = builders::dgx1();
    assert!(Rational::new(2, 2) < Rational::new(7, 6));
    assert!(matches!(
        probe_allgather(&dgx1, 2, 2, 2),
        SynthesisOutcome::Unsatisfiable
    ));
}
