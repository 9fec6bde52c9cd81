//! Integration test: all 14 rows of the paper's Table 5 (Gigabyte Z52: 8
//! AMD MI50 GPUs modelled as a single ring, §5.2.2) synthesized under the
//! benchmark ledger's per-probe budget of 20 000 conflicts, replayed by
//! `Algorithm::validate`, and labelled Latency / Bandwidth / Both from the
//! §3.6 lower bounds as the paper's table labels them — so that Table 5
//! coverage does not depend on running a benchmark.
//!
//! The Allreduce rows are synthesized through their Allgather dual (`C/8`
//! chunks, half the steps and rounds), composed with `compose_allreduce`
//! and checked by `validate_combining`. For Reducescatter and Scatter the
//! paper's footnote applies: `C` is that of the dual that is synthesized.

use sccl::prelude::*;
use sccl_core::bounds::{bandwidth_lower_bound, latency_lower_bound};
use sccl_core::combining::{allreduce_required, compose_allreduce, validate_combining};
use sccl_core::encoding::{synthesize, EncodingOptions, SynCollInstance, SynthesisOutcome};
use sccl_solver::{Limits, SolverConfig};

/// `PROBE_CONFLICTS` of the ledger's `table4-probes` workload.
const LEDGER_BUDGET: u64 = 20_000;

/// The paper's optimality label of `(c, s, r)`, re-derived from the lower
/// bounds of `collective` on `topology`: "Latency" at `s = a_l`,
/// "Bandwidth" at `r / c = b_l`, "Both", or blank.
fn classify(
    topology: &Topology,
    collective: Collective,
    c: usize,
    s: usize,
    r: u64,
) -> &'static str {
    let chunk_ref = match collective {
        Collective::Alltoall => topology.num_nodes(),
        _ => 1,
    };
    let spec = collective.spec(topology.num_nodes(), chunk_ref);
    let al = latency_lower_bound(topology, &spec).expect("the ring is connected");
    let bl = bandwidth_lower_bound(topology, &spec, chunk_ref).expect("the ring is connected");
    match (s == al, Rational::new(r, c as u64) == bl) {
        (true, true) => "Both",
        (true, false) => "Latency",
        (false, true) => "Bandwidth",
        (false, false) => "",
    }
}

/// Synthesize `(c, s, r)` of a non-combining collective on the Z52 within
/// the budget, replay it, and check the paper's label.
fn assert_row(collective: Collective, (c, s, r): (usize, usize, u64), label: &str) -> Algorithm {
    let z52 = builders::amd_z52();
    let instance = SynCollInstance {
        spec: collective.spec(z52.num_nodes(), c),
        per_node_chunks: c,
        num_steps: s,
        num_rounds: r,
    };
    let run = synthesize(
        &z52,
        &instance,
        &EncodingOptions::default(),
        SolverConfig::default(),
        Limits::conflicts(LEDGER_BUDGET),
    );
    let SynthesisOutcome::Satisfiable(alg) = run.outcome else {
        panic!(
            "{collective} ({c},{s},{r}) of Table 5 is not found within {LEDGER_BUDGET} conflicts"
        );
    };
    alg.validate(&z52, &instance.spec)
        .unwrap_or_else(|e| panic!("{collective} ({c},{s},{r}): invalid schedule: {e:?}"));
    assert_eq!(
        (alg.per_node_chunks, alg.num_steps(), alg.total_rounds()),
        (c, s, r)
    );
    assert_eq!(
        classify(&z52, collective, c, s, r),
        label,
        "{collective} ({c},{s},{r})"
    );
    alg
}

#[test]
fn allgather_rows() {
    assert_row(Collective::Allgather, (1, 4, 4), "Latency");
    assert_row(Collective::Allgather, (2, 7, 7), "Bandwidth");
    assert_row(Collective::Allgather, (2, 4, 7), "Both");
}

#[test]
fn allreduce_rows_through_the_allgather_dual() {
    let z52 = builders::amd_z52();
    for ((c, s, r), label) in [
        ((8, 8, 8), "Latency"),
        ((16, 14, 14), "Bandwidth"),
        ((16, 8, 14), "Both"),
    ] {
        let dual = assert_row(Collective::Allgather, (c / 8, s / 2, r / 2), label);
        let allreduce = compose_allreduce(&dual);
        assert_eq!(
            (
                allreduce.num_chunks,
                allreduce.num_steps(),
                allreduce.total_rounds()
            ),
            (c, s, r)
        );
        validate_combining(
            &allreduce,
            &z52,
            &allreduce_required(allreduce.num_chunks, 8),
        )
        .unwrap_or_else(|e| panic!("Allreduce ({c},{s},{r}): invalid schedule: {e:?}"));
    }
}

#[test]
fn broadcast_rows() {
    let broadcast = Collective::Broadcast { root: 0 };
    assert_row(broadcast, (2, 4, 4), "Latency");
    for row in [(4, 5, 5), (6, 6, 6), (8, 7, 7), (10, 8, 8)] {
        assert_row(broadcast, row, "");
    }
}

#[test]
fn gather_rows() {
    assert_row(Collective::Gather { root: 0 }, (1, 4, 4), "Latency");
    assert_row(Collective::Gather { root: 0 }, (2, 4, 7), "Both");
}

#[test]
fn alltoall_row() {
    assert_row(Collective::Alltoall, (8, 4, 8), "Both");
}
