//! Integration test: rows of the paper's Table 4 (DGX-1, root 0) decided
//! under the benchmark ledger's per-probe budget of 20 000 conflicts, so
//! that Table 4 coverage does not depend on running a benchmark.
//!
//! The rows are the ones `sccl_core::encoding` moved from "undecided at
//! 20 000 conflicts" to decided. Its ingress cuts: the bandwidth-optimal
//! 3-step Allgather and Gather `(6,3,7)` of §2.4, and the Allgather rows
//! `(3,3,3)` / `(4,4,4)` that sit one round under the §3.6 bandwidth bound
//! (7·C chunks into 6 link-rounds per round). Its quotient under the
//! DGX-1's four rotations, which acts on Allgather and Alltoall (a rooted
//! collective has no symmetry): Allgather `(6,7,7)`, the last row the
//! ledger left undecided, and the three Alltoall rows, found on a quarter
//! of the formula. Plus two rows that were decided before and must stay
//! so. And the rows its chunk order decides well inside the budget — a
//! rooted collective is solved on the full formula, whose interchangeable
//! chunks it orders: Broadcast `(7,3,3)` and `(8,3,3)` refuted within
//! 1 000 conflicts (~1 350 without the order), Gather `(6,7,7)` and
//! `(6,3,7)` found within 2 000 (6 911 and 6 237 without). Every
//! satisfiable row's schedule is replayed by `Algorithm::validate`.

use sccl::prelude::*;
use sccl_core::encoding::{synthesize, EncodingOptions, SynCollInstance, SynthesisOutcome};
use sccl_solver::{Limits, SolverConfig};

/// `PROBE_CONFLICTS` of the ledger's `table4-probes` workload.
const LEDGER_BUDGET: u64 = 20_000;

fn probe(
    collective: Collective,
    (c, s, r): (usize, usize, u64),
    conflicts: u64,
) -> SynthesisOutcome {
    let dgx1 = builders::dgx1();
    let instance = SynCollInstance {
        spec: collective.spec(dgx1.num_nodes(), c),
        per_node_chunks: c,
        num_steps: s,
        num_rounds: r,
    };
    synthesize(
        &dgx1,
        &instance,
        &EncodingOptions::default(),
        SolverConfig::default(),
        Limits::conflicts(conflicts),
    )
    .outcome
}

fn assert_row_is_synthesized(
    collective: Collective,
    (c, s, r): (usize, usize, u64),
    conflicts: u64,
) -> Algorithm {
    let dgx1 = builders::dgx1();
    let SynthesisOutcome::Satisfiable(alg) = probe(collective, (c, s, r), conflicts) else {
        panic!("{collective} ({c},{s},{r}) of Table 4 is not found within {conflicts} conflicts");
    };
    alg.validate(&dgx1, &collective.spec(dgx1.num_nodes(), c))
        .unwrap_or_else(|e| panic!("{collective} ({c},{s},{r}): invalid schedule: {e:?}"));
    assert_eq!(
        (alg.per_node_chunks, alg.num_steps(), alg.total_rounds()),
        (c, s, r)
    );
    alg
}

#[test]
fn bandwidth_optimal_three_step_allgather_and_gather() {
    // §2.4: the novel 3-step bandwidth-optimal algorithm (6, 3, 7), exactly
    // tight against the ingress bound: 42 chunks into 6 links × 7 rounds.
    let allgather = assert_row_is_synthesized(Collective::Allgather, (6, 3, 7), LEDGER_BUDGET);
    assert_eq!(allgather.cost().bandwidth_cost(), Rational::new(7, 6));
    assert_row_is_synthesized(Collective::Gather { root: 0 }, (6, 3, 7), LEDGER_BUDGET);
}

#[test]
fn allgather_one_round_under_the_bandwidth_bound_is_refuted() {
    for c in [3usize, 4] {
        assert!(Rational::new(c as u64, c as u64) < Rational::new(7, 6));
        assert!(
            matches!(
                probe(Collective::Allgather, (c, c, c as u64), LEDGER_BUDGET),
                SynthesisOutcome::Unsatisfiable
            ),
            "Allgather ({c},{c},{c}) breaks b_l = 7/6 and must be refuted, not left undecided"
        );
    }
}

#[test]
fn rows_decided_before_the_cuts_stay_decided() {
    assert_row_is_synthesized(Collective::Allgather, (5, 6, 6), LEDGER_BUDGET);
    assert_row_is_synthesized(Collective::Broadcast { root: 0 }, (18, 5, 5), LEDGER_BUDGET);
}

#[test]
fn the_quotient_decides_the_last_allgather_row_and_the_alltoall_rows() {
    // The 7-step bandwidth-optimal Allgather: undecided at 20 000 conflicts
    // on the full formula, about a thousand on the quotient.
    let allgather = assert_row_is_synthesized(Collective::Allgather, (6, 7, 7), LEDGER_BUDGET);
    assert_eq!(allgather.cost().bandwidth_cost(), Rational::new(7, 6));
    for row in [(8, 2, 3), (8, 3, 3), (24, 2, 8)] {
        assert_row_is_synthesized(Collective::Alltoall, row, LEDGER_BUDGET);
    }
}

#[test]
fn the_chunk_order_decides_the_rooted_rows_well_inside_the_budget() {
    // (6,3,3) is on Table 4's frontier; one more chunk in the same three
    // one-round steps is not.
    for c in [7usize, 8] {
        assert!(
            matches!(
                probe(Collective::Broadcast { root: 0 }, (c, 3, 3), 1_000),
                SynthesisOutcome::Unsatisfiable
            ),
            "Broadcast ({c},3,3) must be refuted within 1 000 conflicts"
        );
    }
    for row in [(6, 7, 7), (6, 3, 7)] {
        assert_row_is_synthesized(Collective::Gather { root: 0 }, row, 2_000);
    }
}
