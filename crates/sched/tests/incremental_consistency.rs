//! One sweep, however it is answered: the engine's sequential and parallel
//! modes must produce byte-identical frontiers to the memo-free reference
//! `pareto_synthesize` — `same_frontier` compares bounds, termination,
//! per-entry `(C, S, R)` costs, optimality labels and the synthesized
//! algorithms themselves, everything except wall-clock timings and formula
//! statistics.
//!
//! All three run `sccl_core::pareto::sweep` and decide a candidate by one
//! fresh `BaseProblem::solve`, a pure function, so equality holds by
//! construction; what this suite pins down is that nothing around that
//! function — the engine's memo of decided candidates, worker threads
//! solving ahead of the merge, cancellation — leaks into the result. (The
//! file's name is from when the engine's sweeps ran on warm incremental
//! encoders and this was a property of their decode.)
//!
//! Three paths are compared on every topology of the acceptance matrix
//! (ring:4, ring:8, line:4, dgx1):
//!
//! * **reference** — `sccl_core::pareto::pareto_synthesize`: nothing kept
//!   between candidates,
//! * **sequential** — an `Engine` request in `SolveMode::Sequential`: each
//!   candidate through the memo, on the sweep's thread,
//! * **parallel** — the same request in `SolveMode::Parallel`: each
//!   candidate through the memo, on worker threads.
//!
//! A property test then re-checks the equality on random small connected
//! topologies, where nothing can rely on any structure the named
//! topologies happen to have. The memo's own contract — reuse across
//! requests, the capacity bound — is checked through the engine below and
//! directly in `sccl_sched::memo`.

use proptest::prelude::*;
use sccl_collectives::Collective;
use sccl_core::pareto::{pareto_synthesize, SynthesisConfig, SynthesisReport};
use sccl_sched::{Engine, IncrementalStats, SynthesisRequest};
use sccl_solver::SolverConfig;
use sccl_topology::{builders, Topology};

fn config(max_steps: usize, max_chunks: usize, k: u64) -> SynthesisConfig {
    SynthesisConfig {
        k,
        max_steps,
        max_chunks,
        ..Default::default()
    }
}

/// One sequential request to a fresh engine: the frontier and the sweep's
/// accounting.
fn engine_sequential(
    topology: &Topology,
    collective: Collective,
    config: &SynthesisConfig,
) -> (SynthesisReport, IncrementalStats) {
    let engine = Engine::builder().build().expect("engine");
    let response = engine
        .synthesize(
            SynthesisRequest::new(topology, collective)
                .with_config(config.clone())
                .sequential(),
        )
        .expect("sequential");
    (response.report, response.incremental.expect("solved"))
}

/// Assert frontier equality across the reference, the engine's sequential
/// mode and its parallel mode for one synthesis problem.
fn assert_three_way(topology: &Topology, collective: Collective, config: &SynthesisConfig) {
    let cold = pareto_synthesize(topology, collective, config).expect("sequential-cold");
    let (warm, incremental) = engine_sequential(topology, collective, config);
    assert!(
        warm.same_frontier(&cold),
        "sequential-warm diverged from sequential-cold for {collective} on {}",
        topology.name()
    );
    assert_eq!(
        incremental.cold_fallbacks,
        0,
        "the warm sweep must not re-solve anything cold for {collective} on {}",
        topology.name()
    );
    let engine = Engine::builder()
        .threads(3)
        .build()
        .expect("a cacheless engine builds infallibly");
    let parallel = engine
        .synthesize(
            SynthesisRequest::new(topology, collective)
                .with_config(config.clone())
                .parallel(),
        )
        .expect("parallel-warm");
    assert!(
        parallel.report.same_frontier(&cold),
        "parallel-warm diverged from sequential-cold for {collective} on {}",
        topology.name()
    );
}

#[test]
fn ring4_frontiers_are_identical_across_drivers() {
    let topo = builders::ring(4, 1);
    let cfg = config(8, 8, 1);
    for collective in [
        Collective::Allgather,
        Collective::Broadcast { root: 0 },
        Collective::Allreduce,
    ] {
        assert_three_way(&topo, collective, &cfg);
    }
    // The chronological-backtracking ablation goes through the memo and
    // the workers like any other configuration.
    let ablation = SynthesisConfig {
        solver: SolverConfig {
            clause_learning: false,
            ..Default::default()
        },
        ..config(4, 2, 0)
    };
    assert_three_way(&topo, Collective::Allgather, &ablation);
}

#[test]
fn ring8_frontiers_are_identical_across_drivers() {
    let topo = builders::ring(8, 1);
    let cfg = config(8, 4, 0);
    for collective in [Collective::Allgather, Collective::Broadcast { root: 0 }] {
        assert_three_way(&topo, collective, &cfg);
    }
}

#[test]
fn line4_frontiers_are_identical_across_drivers() {
    let topo = builders::chain(4, 1);
    let cfg = config(8, 6, 1);
    for collective in [
        Collective::Allgather,
        Collective::Broadcast { root: 0 },
        Collective::ReduceScatter,
    ] {
        assert_three_way(&topo, collective, &cfg);
    }
}

#[test]
fn dgx1_frontiers_are_identical_across_drivers() {
    let topo = builders::dgx1();
    let cfg = config(4, 4, 1);
    for collective in [Collective::Allgather, Collective::Broadcast { root: 0 }] {
        assert_three_way(&topo, collective, &cfg);
    }
}

/// Cross-request reuse: Allgather, Allreduce and ReduceScatter all reduce
/// to the same Allgather base problem (the ring is symmetric, so its
/// reversal is itself), and the engine memoizes decided candidates per
/// base — the later requests must be answered from the memo and still be
/// byte-identical to their cold references.
#[test]
fn engine_reuses_warm_pools_across_requests() {
    let topo = builders::ring(4, 1);
    let cfg = config(8, 8, 1);
    let engine = Engine::builder()
        .sequential()
        .synthesis_defaults(cfg.clone())
        .build()
        .expect("engine");
    let first = engine
        .synthesize(SynthesisRequest::new(&topo, Collective::Allgather))
        .expect("allgather");
    assert_eq!(
        first.incremental.expect("stats").memo_hits,
        0,
        "a fresh engine has nothing memoized"
    );
    for collective in [Collective::Allreduce, Collective::ReduceScatter] {
        let response = engine
            .synthesize(SynthesisRequest::new(&topo, collective))
            .expect("shared-base request");
        let stats = response.incremental.expect("stats");
        assert!(
            stats.memo_hits > 0,
            "{collective} must reuse the Allgather base's memo"
        );
        assert_eq!(
            stats.solve_calls, 0,
            "{collective} sweep must not touch a solver"
        );
        let cold = pareto_synthesize(&topo, collective, &cfg).expect("cold reference");
        assert!(
            response.report.same_frontier(&cold),
            "memo-served {collective} frontier diverged from cold"
        );
    }
}

/// Cross-request reuse under `SolveMode::Parallel`: workers decide
/// candidates through the same memo-backed solve, so a second parallel
/// request over the same base problem must be answered (at least partly)
/// from what the first request stored.
#[test]
fn parallel_workers_reuse_warm_pools_across_requests() {
    let topo = builders::ring(4, 1);
    let cfg = config(8, 8, 1);
    let engine = Engine::builder()
        .threads(3)
        .synthesis_defaults(cfg.clone())
        .build()
        .expect("engine");
    let first = engine
        .synthesize(SynthesisRequest::new(&topo, Collective::Allgather).parallel())
        .expect("first parallel request");
    let first_stats = first.incremental.expect("stats");
    assert!(
        first_stats.pool_checkins > 0,
        "parallel workers must answer through the engine's solve"
    );
    let second = engine
        .synthesize(SynthesisRequest::new(&topo, Collective::Allgather).parallel())
        .expect("second parallel request");
    let stats = second.incremental.expect("stats");
    assert!(
        stats.memo_hits > 0,
        "the second parallel request must hit the first one's memos"
    );
    let cold = pareto_synthesize(&topo, Collective::Allgather, &cfg).expect("cold reference");
    assert!(second.report.same_frontier(&cold));
    // A combining collective reducing to the same Allgather base shares the
    // same memo, parallel mode included.
    let allreduce = engine
        .synthesize(SynthesisRequest::new(&topo, Collective::Allreduce).parallel())
        .expect("allreduce over the shared base");
    assert!(
        allreduce.incremental.expect("stats").memo_hits > 0,
        "Allreduce must reuse the Allgather base's memo under parallelism"
    );
}

/// The engine's memo is bounded by *cells*, not entry count: with a 1-cell
/// capacity (below any real schedule), serving distinct base problems
/// cannot accumulate them — only the newest survives each store. (The
/// name is from when the memo was a registry of warm pools.)
#[test]
fn warm_pool_capacity_bounds_the_registry() {
    let cfg = config(4, 2, 0);
    let engine = Engine::builder()
        .sequential()
        .memo_capacity(1)
        .synthesis_defaults(cfg)
        .build()
        .expect("engine");
    for nodes in [4usize, 5, 6] {
        engine
            .synthesize(SynthesisRequest::new(
                &builders::ring(nodes, 1),
                Collective::Allgather,
            ))
            .expect("request");
        // The bound holds *during* serving, not just at the end: at
        // capacity 1 a single (the newest) base problem.
        assert_eq!(
            engine.memo_len(),
            1,
            "a 1-cell capacity must retain only the newest base problem"
        );
    }
    // The weight gauge agrees with what eviction retained: one base's
    // runs, far above the capacity (keep-newest), but exactly one.
    assert!(
        engine.memo_weight() > 1,
        "the surviving base's weight must be visible"
    );
}

/// Build a connected topology from a chain backbone over `n` nodes plus a
/// set of arbitrary extra directed links.
fn random_topology(n: usize, extra: &[(usize, usize)]) -> Topology {
    let mut topo = Topology::new(format!("random-{n}"), n);
    for i in 0..n - 1 {
        topo.add_bidi_link(i, i + 1, 1);
    }
    for &(a, b) in extra {
        let (a, b) = (a % n, b % n);
        if a != b {
            topo.add_link(a, b, 1);
        }
    }
    topo
}

/// A randomized "cloud-shape" machine: a ring-of-rings backbone with
/// asymmetric local/cross bandwidths where some groups carry a second
/// NIC — an extra cross link bridging member 1 of the group to member 1
/// of the next group, with its own bandwidth. Second NICs attach to a
/// *different* member than the primary (as on real multi-NIC hosts);
/// stacking another constraint on the member-0 link would only tighten
/// the existing one.
fn cloud_topology(
    groups: usize,
    group_size: usize,
    local_bandwidth: u64,
    cross_bandwidth: u64,
    second_nic_bandwidth: u64,
    second_nics: &[usize],
) -> Topology {
    let mut topo = builders::ring_of_rings(groups, group_size, local_bandwidth, cross_bandwidth);
    for &g in second_nics {
        let g = g % groups;
        let a = g * group_size + 1;
        let b = ((g + 1) % groups) * group_size + 1;
        topo.add_bidi_link(a, b, second_nic_bandwidth);
    }
    topo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Engine frontiers equal reference frontiers on random small connected
    /// topologies, for both a gather-style and a rooted collective.
    #[test]
    fn warm_matches_cold_on_random_topologies(
        n in 3usize..=5,
        extra in prop::collection::vec((0usize..5, 0usize..5), 0..5),
        rooted in any::<bool>(),
    ) {
        let topo = random_topology(n, &extra);
        let collective = if rooted {
            Collective::Broadcast { root: 0 }
        } else {
            Collective::Allgather
        };
        let cfg = config(5, 3, 1);
        let cold = pareto_synthesize(&topo, collective, &cfg).expect("cold");
        let (warm, _) = engine_sequential(&topo, collective, &cfg);
        prop_assert!(
            warm.same_frontier(&cold),
            "warm diverged from cold for {collective} on {} ({:?} extra links)",
            topo.name(),
            extra
        );
        // Spell the guarantee out beyond same_frontier: the algorithms
        // are byte-identical, not merely equal in cost.
        for (a, b) in warm.entries.iter().zip(&cold.entries) {
            prop_assert_eq!(&a.algorithm, &b.algorithm);
        }
    }

    /// Sequential and parallel engine frontiers equal reference frontiers on
    /// random cloud-shape topologies: ring-of-rings backbones with asymmetric
    /// local/cross bandwidths and a random subset of groups carrying a
    /// second NIC. The named suites above all run on symmetric machines;
    /// here bandwidth tiers and link multiplicity vary per instance, so
    /// nothing can lean on uniform per-link rounds.
    #[test]
    fn warm_matches_cold_on_cloud_shapes(
        groups in 2usize..=3,
        group_size in 2usize..=3,
        local_bandwidth in 1u64..=3,
        cross_bandwidth in 1u64..=2,
        second_nic_bandwidth in 1u64..=2,
        second_nics in prop::collection::vec(0usize..3, 0..3),
        rooted in any::<bool>(),
    ) {
        let topo = cloud_topology(
            groups,
            group_size,
            local_bandwidth,
            cross_bandwidth,
            second_nic_bandwidth,
            &second_nics,
        );
        let collective = if rooted {
            Collective::Broadcast { root: 0 }
        } else {
            Collective::Allgather
        };
        let cfg = config(4, 2, 0);
        let cold = pareto_synthesize(&topo, collective, &cfg).expect("cold");
        let (warm, _) = engine_sequential(&topo, collective, &cfg);
        prop_assert!(
            warm.same_frontier(&cold),
            "warm diverged from cold for {collective} on {} (nics {:?})",
            topo.name(),
            second_nics
        );
        let engine = Engine::builder().threads(2).build().expect("engine");
        let parallel = engine
            .synthesize(
                SynthesisRequest::new(&topo, collective)
                    .with_config(cfg)
                    .parallel(),
            )
            .expect("parallel-warm");
        prop_assert!(
            parallel.report.same_frontier(&cold),
            "parallel-warm diverged from cold for {collective} on {} (nics {:?})",
            topo.name(),
            second_nics
        );
    }
}
