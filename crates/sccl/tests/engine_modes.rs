//! Acceptance test for the engine redesign: all four execution modes —
//! single-shot sequential, work-queue parallel, batch, and warm-cache —
//! flow through `Engine`'s one request path and produce identical reports
//! (and the same frontiers as the pre-engine drivers).

use sccl::prelude::*;
use sccl::sched::parse_manifest;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sccl-engine-modes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_config() -> SynthesisConfig {
    SynthesisConfig {
        max_steps: 6,
        max_chunks: 4,
        ..Default::default()
    }
}

#[test]
fn four_modes_one_request_path_identical_reports() {
    let dir = tmp_dir("four");
    let ring = builders::ring(4, 1);
    let config = quick_config();

    // Reference: the core sequential driver, no engine.
    let reference =
        pareto_synthesize(&ring, Collective::Allgather, &config).expect("reference synthesis");

    // Mode 1 — single-shot sequential through the engine (no cache).
    let engine = Engine::builder().build().expect("engine");
    let single = engine
        .synthesize(
            SynthesisRequest::new(&ring, Collective::Allgather)
                .with_config(config.clone())
                .sequential(),
        )
        .expect("single-shot");
    assert_eq!(single.provenance, Provenance::Solved(SolveMode::Sequential));
    assert!(single.report.same_frontier(&reference));

    // Mode 2 — work-queue parallel through the same request path.
    let parallel = engine
        .synthesize(
            SynthesisRequest::new(&ring, Collective::Allgather)
                .with_config(config.clone())
                .parallel(),
        )
        .expect("parallel");
    assert_eq!(parallel.provenance, Provenance::Solved(SolveMode::Parallel));
    assert!(parallel.report.same_frontier(&reference));

    // Mode 3 — batch through a cache-backed engine (cold: everything
    // solves and persists).
    let cached_engine = Engine::builder()
        .cache_dir(&dir)
        .threads(2)
        .build()
        .expect("cached engine");
    let jobs = parse_manifest("ring:4 allgather\n").expect("manifest");
    let cold = cached_engine.run_batch(&jobs, Some(&config));
    assert_eq!(cold.failures(), 0);
    assert_eq!(cold.solved(), 1);
    assert_eq!(cold.cache_hits(), 0);
    let cold_report = cold.results[0].outcome.as_ref().expect("cold report");
    assert!(cold_report.same_frontier(&reference));

    // Mode 4 — warm-cache serving: a *fresh* engine on the same directory
    // answers from the store without solving, with the identical report.
    let warm_engine = Engine::builder()
        .cache_dir(&dir)
        .build()
        .expect("warm engine");
    let warm = warm_engine
        .synthesize(SynthesisRequest::new(&ring, Collective::Allgather).with_config(config.clone()))
        .expect("warm");
    assert_eq!(warm.provenance, Provenance::CacheHit);
    assert!(warm.from_cache());
    assert_eq!(*warm.report, *cold_report, "cache must round-trip exactly");
    assert!(warm.report.same_frontier(&reference));

    // A warm batch is all hits and still reports a finite throughput.
    let warm_batch = warm_engine.run_batch(&jobs, Some(&config));
    assert_eq!(warm_batch.solved(), 0, "warm batch must not solve");
    assert_eq!(warm_batch.cache_hits(), 1);
    assert!(warm_batch.throughput().is_finite());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn response_chains_into_lowering_codegen_and_simulation() {
    let engine = Engine::builder().threads(2).build().expect("engine");
    let ring = builders::ring(4, 1);
    let response = engine
        .synthesize(SynthesisRequest::new(&ring, Collective::Allgather).with_config(quick_config()))
        .expect("synthesis");

    // The fluent chain: response → lowered program → code / predicted time.
    let lowered = response
        .lower(LoweringOptions::default())
        .expect("nonempty frontier");
    assert_eq!(lowered.algorithm.collective, Collective::Allgather);
    let cuda = lowered.cuda();
    assert!(cuda.contains("__global__"), "no kernel in generated code");
    // Predicted times grow with input size under the (α, β) model.
    let small = lowered.simulate(1 << 10);
    let large = lowered.simulate(1 << 28);
    assert!(small > 0.0 && large > small);

    // Entry selection: the last entry is the bandwidth end of the frontier.
    let last = response.report.entries.len() - 1;
    let bandwidth_end = response
        .lower_entry(last, LoweringOptions::default())
        .expect("last entry");
    assert!(bandwidth_end.algorithm.num_steps() >= lowered.algorithm.num_steps());
}

#[test]
fn engine_library_serves_size_switching_selection() {
    let dir = tmp_dir("library");
    let ring = builders::ring(4, 1);
    let engine = Engine::builder()
        .cache_dir(&dir)
        .threads(2)
        .cost_model(CostModel::nvlink())
        .synthesis_defaults(quick_config())
        .build()
        .expect("engine");

    let warm = engine
        .library(LibraryRequest::new(&ring, &[Collective::Allgather]))
        .expect("library");
    assert_eq!(warm.synthesized, 1);
    let small = warm
        .library
        .select(Collective::Allgather, 1 << 10)
        .expect("small");
    let large = warm
        .library
        .select(Collective::Allgather, 1 << 30)
        .expect("large");
    assert!(small.algorithm.num_steps() <= large.algorithm.num_steps());

    // A second engine hydrates the same library purely from the cache.
    let cold = Engine::builder()
        .cache_dir(&dir)
        .synthesis_defaults(quick_config())
        .build()
        .expect("rehydrating engine");
    let hydrated = cold
        .library(LibraryRequest::new(&ring, &[Collective::Allgather]).cache_only())
        .expect("hydrate");
    assert!(hydrated.misses.is_empty());
    assert_eq!(hydrated.synthesized, 0);
    assert_eq!(hydrated.library.len(), warm.library.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unified_error_covers_synthesis_and_manifest_failures() {
    let engine = Engine::builder().build().expect("engine");

    // Synthesis errors surface through the one Error enum...
    let solo = Topology::new("solo", 1);
    let err = engine
        .synthesize(SynthesisRequest::new(&solo, Collective::Allgather))
        .unwrap_err();
    assert!(matches!(err, Error::Synthesis(_)), "was: {err:?}");
    assert!(err.to_string().contains("at least two nodes"));

    // ...and so do manifest errors, via From.
    let manifest_err: Error = parse_manifest("dgx1 allsum\n").unwrap_err().into();
    assert!(matches!(manifest_err, Error::Manifest(_)));
    assert!(manifest_err.to_string().contains("allsum"));
}
