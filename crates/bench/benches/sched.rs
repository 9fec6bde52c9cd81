//! Benchmarks for the synthesis engine: the plain-vs-pooled serving-mix
//! comparison (written to `BENCH_solver.json` so the perf trajectory is
//! tracked across PRs), the many-client daemon load bench
//! (folded into the same file under `daemon`), the work-queue parallel
//! Pareto search against the sequential Algorithm 1 loop on a
//! multi-collective DGX-1 manifest, and the persistent cache's warm-path
//! latency — all driven through `Engine`'s one request path.
//!
//! On a multi-core host the parallel driver's wall clock approaches the
//! longest dependent chain of solver calls instead of their sum; on a
//! single core it degrades gracefully to sequential-plus-epsilon (the
//! speedup assertion below is therefore gated on the core count). The
//! pooled comparison is deliberately single-threaded and measured via
//! solver-internal timings, so it is meaningful on any core count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sccl_collectives::Collective;
use sccl_core::encoding::synthesize;
use sccl_core::pareto::{
    base_problem, enumerate_candidates, finalize_report, pareto_synthesize, MergeAction,
    ParetoMerge, SynthesisConfig, SynthesisReport,
};
use sccl_sched::{parse_manifest, Engine, Provenance, SolveMode, SynthesisRequest};
use sccl_serve::{Daemon, ServeClient, ServeConfig, Server, WireResponse, WireSynthesize};
use sccl_solver::Limits;
use sccl_topology::{builders, Topology};
use std::time::{Duration, Instant};

const MANIFEST: &str = "\
dgx1 allgather
dgx1 broadcast
dgx1 gather
dgx1 scatter
dgx1 reducescatter
dgx1 allreduce
";

fn bench_config() -> SynthesisConfig {
    SynthesisConfig {
        k: 1,
        max_steps: 4,
        max_chunks: 6,
        ..Default::default()
    }
}

fn engine_for(mode: SolveMode) -> Engine {
    Engine::builder()
        .mode(mode)
        .build()
        .expect("a cacheless engine builds infallibly")
}

/// Cold sweep accounting for one frontier: drive the same `ParetoMerge`
/// decision order the sequential driver uses, summing the solver-internal
/// encode and solve times of every candidate actually decided, and return
/// the assembled report so the caller's divergence check needs no second
/// full synthesis.
fn cold_sweep(
    topology: &Topology,
    collective: Collective,
    config: &SynthesisConfig,
) -> (Duration, Duration, u64, SynthesisReport) {
    let base = base_problem(topology, collective);
    let plan = enumerate_candidates(&base.topology, base.collective, config).expect("plan");
    let num_nodes = base.topology.num_nodes();
    let mut merge = ParetoMerge::new(plan);
    let (mut encode, mut solve, mut candidates) = (Duration::ZERO, Duration::ZERO, 0u64);
    while let MergeAction::Need(index) = merge.next() {
        let instance = merge.plan().jobs[index].instance(base.collective, num_nodes);
        let run = synthesize(
            &base.topology,
            &instance,
            &config.encoding,
            config.solver.clone(),
            Limits::none(),
        );
        encode += run.encode_time;
        solve += run.solve_time;
        candidates += 1;
        merge.supply(index, run);
    }
    let report = finalize_report(topology, collective, merge.into_report());
    (encode, solve, candidates, report)
}

/// What the engine's pool registry saves on a serving mix: full Pareto
/// sweeps per topology, solver-internal times summed over every
/// candidate. The plain side pays one fresh solve per candidate per
/// request; the pooled side serves the same requests through one
/// sequential `Engine`, whose shared registry lets collectives that
/// reduce to the same base (Allgather, Allreduce, ReduceScatter on
/// symmetric machines) answer each other's candidates from a memo. Both
/// sides decide a candidate by the same fresh `synthesize`, so there is
/// nothing else to compare. A second, parallel-mode engine then serves the
/// same mix twice to demonstrate the registry's cross-request reuse under
/// `SolveMode::Parallel` (the `parallel_pooled` row: second-pass memo hits
/// must be nonzero). Writes `BENCH_solver.json` at the repository root.
fn bench_incremental_solver(_c: &mut Criterion) {
    #[derive(serde::Serialize)]
    struct PlainSide {
        encode_ms: f64,
        solve_ms: f64,
        candidates: u64,
    }
    #[derive(serde::Serialize)]
    struct PooledSide {
        /// Fresh-formula runs, encode included.
        solve_ms: f64,
        candidates: u64,
        solve_calls: u64,
        memo_hits: u64,
        pool_checkins: u64,
    }
    #[derive(serde::Serialize)]
    struct TopologyRow {
        topology: String,
        collectives: Vec<String>,
        plain: PlainSide,
        pooled: PooledSide,
        /// Second serving pass of the mix through a `SolveMode::Parallel`
        /// engine: nonzero `memo_hits` is the proof that parallel workers
        /// reuse engine-held pools across requests.
        parallel_pooled: PooledSide,
    }
    #[derive(serde::Serialize)]
    struct SolverBench {
        bench: String,
        unit_note: String,
        topologies: Vec<TopologyRow>,
    }

    struct Case {
        name: &'static str,
        topology: Topology,
        collectives: Vec<Collective>,
        config: SynthesisConfig,
    }
    let case = |name, topology, collectives, max_steps, max_chunks, k| Case {
        name,
        topology,
        collectives,
        config: SynthesisConfig {
            k,
            max_steps,
            max_chunks,
            ..Default::default()
        },
    };
    // The serving mix: every collective a `CollectiveLibrary` hydration
    // requests whose synthesis reduces to the Allgather or Broadcast base
    // problem of the machine. Five sweeps, two base problems — the shape
    // the per-base pools are built for.
    let serving_mix = || {
        vec![
            Collective::Allgather,
            Collective::Broadcast { root: 0 },
            Collective::Reduce { root: 0 },
            Collective::Allreduce,
            Collective::ReduceScatter,
        ]
    };
    let cases = [
        case("ring-4", builders::ring(4, 1), serving_mix(), 8, 8, 1),
        case("ring-8", builders::ring(8, 1), serving_mix(), 8, 6, 1),
        case("line-4", builders::chain(4, 1), serving_mix(), 8, 8, 1),
        case("dgx1", builders::dgx1(), serving_mix(), 3, 8, 2),
    ];

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let pooled_side = |stats: &sccl_core::incremental::IncrementalStats| PooledSide {
        solve_ms: ms(stats.cold_solve_time),
        candidates: stats.warm_candidates,
        solve_calls: stats.solve_calls,
        memo_hits: stats.memo_hits,
        pool_checkins: stats.pool_checkins,
    };
    let mut rows = Vec::new();
    for case in &cases {
        let (mut plain_encode, mut plain_solve, mut plain_candidates) =
            (Duration::ZERO, Duration::ZERO, 0u64);
        let mut pooled = sccl_core::incremental::IncrementalStats::default();
        let engine = Engine::builder()
            .sequential()
            .synthesis_defaults(case.config.clone())
            .build()
            .expect("a cacheless engine builds infallibly");
        for &collective in &case.collectives {
            let (encode, solve, candidates, plain_report) =
                cold_sweep(&case.topology, collective, &case.config);
            plain_encode += encode;
            plain_solve += solve;
            plain_candidates += candidates;
            let response = engine
                .synthesize(SynthesisRequest::new(&case.topology, collective))
                .expect("pooled sweep");
            assert!(
                response.report.same_frontier(&plain_report),
                "pooled/plain divergence on {} {collective}",
                case.name
            );
            pooled.absorb(&response.incremental.expect("solved responses carry stats"));
        }
        assert!(
            pooled.memo_hits > 0,
            "the shared-base mix must reuse decided candidates on {}",
            case.name
        );
        println!(
            "bench sched/incremental/{}: plain {:?} ({plain_candidates} candidates) vs pooled \
             {:?} ({} candidates, {} solver runs, {} memo hits)",
            case.name,
            plain_encode + plain_solve,
            pooled.cold_solve_time,
            pooled.warm_candidates,
            pooled.solve_calls,
            pooled.memo_hits,
        );

        // Cross-request reuse under SolveMode::Parallel: serve the mix
        // twice through a parallel engine backed by the shared registry;
        // the second pass must hit the memos the first one checked in.
        let parallel_engine = Engine::builder()
            .mode(SolveMode::Parallel)
            .threads(2)
            .synthesis_defaults(case.config.clone())
            .build()
            .expect("a cacheless engine builds infallibly");
        let mut parallel_second = sccl_core::incremental::IncrementalStats::default();
        for pass in 0..2 {
            for &collective in &case.collectives {
                let response = parallel_engine
                    .synthesize(SynthesisRequest::new(&case.topology, collective))
                    .expect("parallel pooled sweep");
                if pass == 1 {
                    parallel_second
                        .absorb(&response.incremental.expect("solved responses carry stats"));
                }
            }
        }
        assert!(
            parallel_second.memo_hits > 0,
            "parallel workers must reuse engine-held pools across requests on {}",
            case.name
        );
        println!(
            "bench sched/incremental/{}: parallel second pass memo hits {}, \
             pool check-ins {}, solve calls {}",
            case.name,
            parallel_second.memo_hits,
            parallel_second.pool_checkins,
            parallel_second.solve_calls
        );

        rows.push(TopologyRow {
            topology: case.name.to_string(),
            collectives: case.collectives.iter().map(|c| c.to_string()).collect(),
            plain: PlainSide {
                encode_ms: ms(plain_encode),
                solve_ms: ms(plain_solve),
                candidates: plain_candidates,
            },
            pooled: pooled_side(&pooled),
            parallel_pooled: pooled_side(&parallel_second),
        });
    }

    let json = serde_json::to_string_pretty(&SolverBench {
        bench: "sched/incremental".to_string(),
        unit_note: "solver-internal times in milliseconds; plain = one fresh solve per \
                    candidate per request; pooled = the same requests through one sequential \
                    engine's pool registry (solve_ms: its fresh solves, encode included); \
                    parallel_pooled = second serving pass through a SolveMode::Parallel engine \
                    sharing the registry"
            .to_string(),
        topologies: rows,
    })
    .expect("bench report serializes");
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_solver.json");
    std::fs::write(&out, json).expect("write BENCH_solver.json");
    println!("bench sched/incremental: -> {}", out.display());
}

/// Many-client load through the daemon: a cold pass solves a mixed
/// 5-collective workload over the wire, then 8 concurrent clients replay
/// it against the hot tier. Every daemon answer is checked byte-for-byte
/// (modulo per-entry wall clock) against a direct `Engine::synthesize`
/// with the same configuration, and the throughput/hit-rate numbers are
/// folded into `BENCH_solver.json` next to the solver rows.
fn bench_daemon_load(_c: &mut Criterion) {
    #[derive(serde::Serialize)]
    struct DaemonLoadBench {
        bench: String,
        unit_note: String,
        problems: u64,
        clients: u64,
        cold_requests: u64,
        hot_requests: u64,
        cold_wall_ms: f64,
        hot_wall_ms: f64,
        cold_requests_per_sec: f64,
        hot_requests_per_sec: f64,
        hit_rate: f64,
        hot_hits: u64,
        solved: u64,
        rejections: u64,
        served_p50_micros: u64,
        served_p99_micros: u64,
    }

    // Reports carry per-entry wall-clock (`synthesis_time`); identity
    // between two solves means identical bytes once that is zeroed.
    fn timeless_json(report: &SynthesisReport) -> String {
        let mut report = report.clone();
        for entry in &mut report.entries {
            entry.synthesis_time = Duration::ZERO;
        }
        serde_json::to_string(&report).expect("report json")
    }

    let config = SynthesisConfig {
        k: 1,
        max_steps: 6,
        max_chunks: 4,
        ..Default::default()
    };
    let collectives = [
        "allgather",
        "broadcast",
        "reduce",
        "allreduce",
        "reducescatter",
    ];
    let topologies = ["ring:4", "chain:4"];
    let problems: Vec<(String, String)> = topologies
        .iter()
        .flat_map(|t| collectives.iter().map(|c| (t.to_string(), c.to_string())))
        .collect();

    let engine = |mode| {
        Engine::builder()
            .mode(mode)
            .synthesis_defaults(config.clone())
            .build()
            .expect("a cacheless engine builds infallibly")
    };
    let server = Server::start(
        engine(SolveMode::Sequential),
        ServeConfig {
            workers: 4,
            per_client_inflight: 8,
            ..Default::default()
        },
    )
    .expect("server");
    let socket =
        std::env::temp_dir().join(format!("sccl-bench-daemon-{}.sock", std::process::id()));
    let daemon = Daemon::bind(&socket, server).expect("bind");
    let path = daemon.socket_path().to_path_buf();

    // Cold pass: one client walks the whole mix over the wire, in the
    // same order the reference engine will use, so the two solve streams
    // are step-for-step comparable.
    let mut cold_answers = Vec::new();
    let cold_start = Instant::now();
    {
        let mut client = ServeClient::connect(&path).expect("connect");
        for (topology, collective) in &problems {
            let response = client
                .synthesize(WireSynthesize::new(topology, collective).with_client("cold"))
                .expect("cold roundtrip");
            let WireResponse::Report {
                report, provenance, ..
            } = response
            else {
                panic!("cold {topology} {collective} failed: {response:?}");
            };
            assert!(
                provenance.starts_with("solved"),
                "cold pass must solve, served {provenance}"
            );
            cold_answers.push(serde_json::to_string(&report).expect("report json"));
        }
    }
    let cold_wall = cold_start.elapsed();

    // Byte-identity against the direct engine path (same mode, same
    // defaults, same request order — the daemon adds no nondeterminism).
    let direct = engine(SolveMode::Sequential);
    for ((topology, collective), daemon_json) in problems.iter().zip(&cold_answers) {
        let topology = builders::parse_spec(topology).expect("bench topology");
        let collective = Collective::parse_spec(collective, 0).expect("bench collective");
        let response = direct
            .synthesize(SynthesisRequest::new(&topology, collective))
            .expect("direct synthesize");
        let daemon_report: SynthesisReport =
            serde_json::from_str(daemon_json).expect("daemon report decodes");
        assert_eq!(
            timeless_json(&daemon_report),
            timeless_json(&response.report),
            "daemon answer diverged from Engine::synthesize on {} {}",
            response.report.topology_name,
            response.report.collective,
        );
    }

    // Hot pass: 8 concurrent clients replay the mix twice each; every
    // answer must come from the hot tier and carry the cold pass's exact
    // bytes (tier hits re-serve the stored report verbatim).
    const CLIENTS: usize = 8;
    const PASSES: usize = 2;
    let hot_start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let path = path.clone();
            let problems = problems.clone();
            let cold_answers = cold_answers.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&path).expect("connect");
                for _ in 0..PASSES {
                    for ((topology, collective), expected) in problems.iter().zip(&cold_answers) {
                        let response = client
                            .synthesize(
                                WireSynthesize::new(topology, collective)
                                    .with_client(format!("client-{i}")),
                            )
                            .expect("hot roundtrip");
                        let WireResponse::Report {
                            report, provenance, ..
                        } = response
                        else {
                            panic!("hot {topology} {collective} failed: {response:?}");
                        };
                        assert_eq!(provenance, "hot", "replay must hit the hot tier");
                        assert_eq!(
                            &serde_json::to_string(&report).expect("report json"),
                            expected,
                            "hot tier must re-serve the solved bytes verbatim"
                        );
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    let hot_wall = hot_start.elapsed();

    let snapshot = daemon.server().snapshot();
    daemon.shutdown();
    let cold_requests = problems.len() as u64;
    let hot_requests = (CLIENTS * PASSES * problems.len()) as u64;
    assert_eq!(snapshot.cache.solved, cold_requests);
    assert_eq!(snapshot.cache.hot_hits, hot_requests);
    let rejections = snapshot.rejections.queue_full
        + snapshot.rejections.client_quota
        + snapshot.rejections.memory_budget
        + snapshot.rejections.shutdown;
    assert_eq!(rejections, 0, "an idle-queue replay must admit everything");
    let row = DaemonLoadBench {
        bench: "serve/daemon-load".to_string(),
        unit_note: "NDJSON over a Unix socket; cold = one client solving the 10-problem mix, \
                    hot = 8 concurrent clients replaying it twice against the hot tier; \
                    answers byte-identical to direct Engine::synthesize (modulo per-entry \
                    wall clock)"
            .to_string(),
        problems: problems.len() as u64,
        clients: CLIENTS as u64,
        cold_requests,
        hot_requests,
        cold_wall_ms: cold_wall.as_secs_f64() * 1e3,
        hot_wall_ms: hot_wall.as_secs_f64() * 1e3,
        cold_requests_per_sec: cold_requests as f64 / cold_wall.as_secs_f64().max(1e-9),
        hot_requests_per_sec: hot_requests as f64 / hot_wall.as_secs_f64().max(1e-9),
        hit_rate: snapshot.cache.hit_rate,
        hot_hits: snapshot.cache.hot_hits,
        solved: snapshot.cache.solved,
        rejections,
        served_p50_micros: snapshot.latency_micros.total.p50_micros,
        served_p99_micros: snapshot.latency_micros.total.p99_micros,
    };
    println!(
        "bench serve/daemon-load: cold {cold_requests} reqs in {cold_wall:?} \
         ({:.1}/s), hot {hot_requests} reqs from {CLIENTS} clients in {hot_wall:?} \
         ({:.1}/s), hit rate {:.3}",
        row.cold_requests_per_sec, row.hot_requests_per_sec, row.hit_rate
    );

    // Fold the daemon row into BENCH_solver.json next to the solver rows
    // (the incremental bench writes the file earlier in this harness; a
    // filtered run starts a fresh document).
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_solver.json");
    let mut doc = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| serde_json::from_str::<serde::Content>(&text).ok())
        .and_then(|content| match content {
            serde::Content::Map(fields) => Some(fields),
            _ => None,
        })
        .unwrap_or_default();
    doc.retain(|(key, _)| key != "daemon");
    doc.push(("daemon".to_string(), serde::to_content(&row)));
    let json =
        serde_json::to_string_pretty(&serde::Content::Map(doc)).expect("bench report serializes");
    std::fs::write(&out, json).expect("write BENCH_solver.json");
    println!("bench serve/daemon-load -> {}", out.display());
}

/// Hierarchical composition at scales flat synthesis cannot reach: compose
/// Allgather on 64- and 256-node machines through `sccl_hier`, record the
/// per-stage and composed costs, and measure the flat-vs-hier trade on a
/// machine small enough to synthesize both ways. Folded into
/// `BENCH_solver.json` under `hier`.
fn bench_hier_composition(_c: &mut Criterion) {
    use sccl_hier::{synthesize_hier, HierRequest};

    #[derive(serde::Serialize)]
    struct StageRow {
        name: String,
        level: String,
        instances: u64,
        lanes: u64,
        steps: u64,
        rounds: u64,
    }
    #[derive(serde::Serialize)]
    struct CompositionRow {
        topology: String,
        nodes: u64,
        groups: u64,
        stage_solves: u64,
        cache_hits: u64,
        wall_ms: f64,
        composed_steps: u64,
        composed_rounds: u64,
        total_sends: u64,
        stages: Vec<StageRow>,
    }
    /// The same small machine both ways: flat synthesis sees the whole
    /// topology (globally optimal at its chunk granularity), composition
    /// pays a stage-boundary premium in steps/rounds but its solve cost
    /// scales with the group size, not the machine size.
    #[derive(serde::Serialize)]
    struct FlatVsHier {
        topology: String,
        nodes: u64,
        flat_wall_ms: f64,
        flat_steps: u64,
        flat_rounds: u64,
        hier_wall_ms: f64,
        hier_steps: u64,
        hier_rounds: u64,
    }
    #[derive(serde::Serialize)]
    struct HierBench {
        bench: String,
        unit_note: String,
        flat_vs_hier: FlatVsHier,
        compositions: Vec<CompositionRow>,
    }

    let engine = Engine::builder()
        .sequential()
        .build()
        .expect("a cacheless engine builds infallibly");

    // Flat-vs-hier on rings 2x4 (8 nodes): both sides at chunk
    // granularity 1 so the S/R columns compare like for like.
    let small = builders::ring_of_rings(2, 4, 2, 1);
    let flat_config = SynthesisConfig {
        max_steps: 8,
        max_chunks: 1,
        ..Default::default()
    };
    let flat_start = Instant::now();
    let flat = engine
        .synthesize(SynthesisRequest::new(&small, Collective::Allgather).with_config(flat_config))
        .expect("flat synthesis");
    let flat_wall = flat_start.elapsed();
    let flat_entry = flat.report.entries.first().expect("flat frontier");
    let hier_small = synthesize_hier(&engine, &HierRequest::new(&small, Collective::Allgather))
        .expect("hier on the small machine");
    let flat_vs_hier = FlatVsHier {
        topology: small.name().to_string(),
        nodes: small.num_nodes() as u64,
        flat_wall_ms: flat_wall.as_secs_f64() * 1e3,
        flat_steps: flat_entry.steps as u64,
        flat_rounds: flat_entry.rounds,
        hier_wall_ms: hier_small.elapsed.as_secs_f64() * 1e3,
        hier_steps: hier_small.algorithm.cost().steps,
        hier_rounds: hier_small.algorithm.cost().rounds,
    };
    println!(
        "bench hier/flat-vs-hier on {}: flat S={} R={} in {flat_wall:?} \
         vs hier S={} R={} in {:?}",
        flat_vs_hier.topology,
        flat_vs_hier.flat_steps,
        flat_vs_hier.flat_rounds,
        flat_vs_hier.hier_steps,
        flat_vs_hier.hier_rounds,
        hier_small.elapsed
    );

    // Compositions beyond the flat solver's reach: 64 and 256 nodes.
    let machines = [
        builders::ring_of_rings(8, 8, 2, 1),
        builders::dgx_rack(8, 1),
        builders::ring_of_rings(16, 16, 2, 1),
    ];
    let mut compositions = Vec::new();
    for topology in &machines {
        let response = synthesize_hier(&engine, &HierRequest::new(topology, Collective::Allgather))
            .expect("hier composition");
        let summary = response.summary();
        println!(
            "bench hier/compose on {} ({} nodes): S={} R={} over {} sends, \
             {} stage solves in {:?}",
            summary.topology,
            summary.num_nodes,
            summary.composed_cost.steps,
            summary.composed_cost.rounds,
            summary.total_sends,
            summary.stage_solves,
            response.elapsed
        );
        // The acceptance gate: a 64-node machine must compose well under
        // a minute (lenient mode downgrades for throttled hosts).
        if summary.num_nodes == 64 && response.elapsed > Duration::from_secs(60) {
            let message = format!(
                "64-node composition took {:?}, over the 60s acceptance bound",
                response.elapsed
            );
            if std::env::var_os("SCCL_BENCH_LENIENT").is_some() {
                println!("bench hier/compose: WARNING {message}");
            } else {
                panic!("{message}");
            }
        }
        compositions.push(CompositionRow {
            topology: summary.topology,
            nodes: summary.num_nodes as u64,
            groups: summary.num_groups as u64,
            stage_solves: summary.stage_solves as u64,
            cache_hits: summary.cache_hits as u64,
            wall_ms: summary.elapsed_micros as f64 / 1e3,
            composed_steps: summary.composed_cost.steps,
            composed_rounds: summary.composed_cost.rounds,
            total_sends: summary.total_sends as u64,
            stages: summary
                .stages
                .iter()
                .map(|stage| StageRow {
                    name: stage.name.clone(),
                    level: stage.level.to_string(),
                    instances: stage.instances as u64,
                    lanes: stage.lanes,
                    steps: stage.steps as u64,
                    rounds: stage.rounds,
                })
                .collect(),
        });
    }

    let row = HierBench {
        bench: "hier/compose".to_string(),
        unit_note: "hierarchical composition via sccl_hier: per-group stage syntheses at \
                    chunk granularity 1 stitched into one verified schedule; wall_ms = \
                    partition + stage solves + stitch + verify; flat_vs_hier compares both \
                    paths at C=1 on a machine small enough to synthesize flat"
            .to_string(),
        flat_vs_hier,
        compositions,
    };
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_solver.json");
    let mut doc = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| serde_json::from_str::<serde::Content>(&text).ok())
        .and_then(|content| match content {
            serde::Content::Map(fields) => Some(fields),
            _ => None,
        })
        .unwrap_or_default();
    doc.retain(|(key, _)| key != "hier");
    doc.push(("hier".to_string(), serde::to_content(&row)));
    let json =
        serde_json::to_string_pretty(&serde::Content::Map(doc)).expect("bench report serializes");
    std::fs::write(&out, json).expect("write BENCH_solver.json");
    println!("bench hier/compose -> {}", out.display());
}

fn bench_batch_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched/dgx1-manifest");
    group.sample_size(10);
    let jobs = parse_manifest(MANIFEST).expect("manifest");
    let config = bench_config();
    for (label, mode) in [
        ("sequential", SolveMode::Sequential),
        ("parallel", SolveMode::Parallel),
    ] {
        let engine = engine_for(mode);
        group.bench_with_input(BenchmarkId::from_parameter(label), &engine, |b, engine| {
            b.iter(|| {
                let report = engine.run_batch(&jobs, Some(&config));
                assert_eq!(report.failures(), 0);
            })
        });
    }
    group.finish();

    // Direct speedup measurement (one timed run per mode), with the
    // acceptance assertion applied only where hardware parallelism exists.
    let start = Instant::now();
    engine_for(SolveMode::Sequential).run_batch(&jobs, Some(&config));
    let sequential = start.elapsed();
    let start = Instant::now();
    engine_for(SolveMode::Parallel).run_batch(&jobs, Some(&config));
    let parallel = start.elapsed();
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "sched/dgx1-manifest speedup: {speedup:.2}x (sequential {sequential:?}, parallel {parallel:?}, {cores} cores)"
    );
    if cores >= 4 {
        assert!(
            speedup > 1.5,
            "parallel scheduler speedup {speedup:.2}x below 1.5x on a {cores}-core host"
        );
    }
}

fn bench_cache_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched/cache");
    group.sample_size(10);
    let ring = sccl_topology::builders::ring(8, 1);
    let config = SynthesisConfig {
        max_steps: 8,
        max_chunks: 4,
        ..Default::default()
    };

    group.bench_with_input(
        BenchmarkId::from_parameter("solve"),
        &config,
        |b, config| {
            b.iter(|| {
                pareto_synthesize(&ring, sccl_collectives::Collective::Allgather, config)
                    .expect("synthesis")
            })
        },
    );

    let dir = std::env::temp_dir().join(format!("sccl-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::builder()
        .cache_dir(&dir)
        .build()
        .expect("cached engine");
    let request =
        SynthesisRequest::new(&ring, sccl_collectives::Collective::Allgather).with_config(config);
    let primed = engine.synthesize(request.clone()).expect("prime the cache");
    assert_eq!(primed.provenance, Provenance::Solved(SolveMode::Parallel));
    group.bench_with_input(
        BenchmarkId::from_parameter("warm-lookup"),
        &request,
        |b, request| {
            b.iter(|| {
                let response = engine.synthesize(request.clone()).expect("hit");
                assert!(response.from_cache());
            })
        },
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_incremental_solver,
    bench_daemon_load,
    bench_hier_composition,
    bench_batch_modes,
    bench_cache_paths
);
criterion_main!(benches);
