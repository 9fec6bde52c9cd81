//! Acceptance test for the parallel solve mode: a sweep answered by
//! worker threads must produce the *identical* Pareto frontier — same
//! `(steps, rounds, chunks)` entries, same algorithms, same termination —
//! as the sequential Algorithm 1 loop, on every topology the paper
//! evaluates.

use sccl_collectives::Collective;
use sccl_core::pareto::{pareto_synthesize, SynthesisConfig, SynthesisReport};
use sccl_sched::{Engine, SynthesisRequest};
use sccl_topology::{builders, Topology};

/// The Allgather frontier of a fresh engine's parallel mode.
fn parallel_allgather(
    topology: &Topology,
    config: &SynthesisConfig,
    threads: usize,
) -> SynthesisReport {
    let engine = Engine::builder().threads(threads).build().expect("engine");
    let request = SynthesisRequest::new(topology, Collective::Allgather)
        .with_config(config.clone())
        .parallel();
    std::sync::Arc::unwrap_or_clone(engine.synthesize(request).expect("parallel").report)
}

fn check_identical(topology: &Topology, config: &SynthesisConfig, threads: usize) {
    let sequential =
        pareto_synthesize(topology, Collective::Allgather, config).expect("sequential");
    let parallel = parallel_allgather(topology, config, threads);
    assert!(
        parallel.same_frontier(&sequential),
        "parallel frontier diverged on {}:\n  sequential: {:?}\n  parallel:   {:?}",
        topology.name(),
        sequential
            .entries
            .iter()
            .map(|e| (e.chunks, e.steps, e.rounds))
            .collect::<Vec<_>>(),
        parallel
            .entries
            .iter()
            .map(|e| (e.chunks, e.steps, e.rounds))
            .collect::<Vec<_>>(),
    );
    // Spot-check the shape: same (C, S, R) triples in the same order.
    let seq_triples: Vec<_> = sequential
        .entries
        .iter()
        .map(|e| (e.chunks, e.steps, e.rounds))
        .collect();
    let par_triples: Vec<_> = parallel
        .entries
        .iter()
        .map(|e| (e.chunks, e.steps, e.rounds))
        .collect();
    assert_eq!(seq_triples, par_triples);
}

#[test]
fn ring4_allgather_identical_frontier() {
    let config = SynthesisConfig {
        max_steps: 8,
        max_chunks: 8,
        ..Default::default()
    };
    check_identical(&builders::ring(4, 1), &config, 4);
}

#[test]
fn ring8_allgather_identical_frontier() {
    let config = SynthesisConfig {
        max_steps: 8,
        max_chunks: 4,
        ..Default::default()
    };
    check_identical(&builders::ring(8, 1), &config, 4);
}

#[test]
fn dgx1_allgather_identical_frontier() {
    // Bounded caps keep the DGX-1 search CI-sized (the full frontier's
    // (6,3,7) endpoint takes minutes); the decision structure exercised is
    // the same: multiple step counts, UNSAT probes, dominated candidates.
    let config = SynthesisConfig {
        k: 1,
        max_steps: 4,
        max_chunks: 6,
        ..Default::default()
    };
    check_identical(&builders::dgx1(), &config, 4);
}

#[test]
fn thread_count_does_not_change_the_frontier() {
    let topo = builders::ring(6, 1);
    let config = SynthesisConfig {
        max_steps: 6,
        max_chunks: 6,
        ..Default::default()
    };
    let reference = pareto_synthesize(&topo, Collective::Allgather, &config).expect("seq");
    for threads in [1, 2, 3, 8] {
        let parallel = parallel_allgather(&topo, &config, threads);
        assert!(
            parallel.same_frontier(&reference),
            "diverged with {threads} threads"
        );
    }
}
