//! Acceptance test for the engine redesign: every way in — single-shot,
//! batch, and warm-cache — flows through `Engine`'s one request path and
//! produces identical reports (and the same frontiers as the pre-engine
//! drivers).

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

/// (Named for the four modes it once compared; one of them, worker
/// threads solving ahead of the sweep, is gone.)
#[test]
fn four_modes_one_request_path_identical_reports() {
    let dir = tmp_dir("four");
    let ring = builders::ring(4, 1);
    let config = quick_config();

    // Reference: the core sequential driver, no engine.
    let reference =
        pareto_synthesize(&ring, Collective::Allgather, &config).expect("reference synthesis");

    // Single-shot through the engine (no cache).
    let engine = Engine::builder().build().expect("engine");
    let single = engine
        .synthesize(SynthesisRequest::new(&ring, Collective::Allgather).with_config(config.clone()))
        .expect("single-shot");
    assert_eq!(single.provenance, Provenance::Solved);
    assert!(single.report.same_frontier(&reference));

    // Batch through a cache-backed engine (cold: everything
    // solves and persists).
    let cached_engine = Engine::builder()
        .cache_dir(&dir)
        .build()
        .expect("cached engine");
    let jobs = parse_manifest("ring:4 allgather\n").expect("manifest");
    let cold = cached_engine.run_batch(&jobs, Some(&config));
    assert_eq!(cold.failures(), 0);
    assert_eq!(cold.solved(), 1);
    assert_eq!(cold.cache_hits(), 0);
    let cold_report = cold.results[0].outcome.as_ref().expect("cold report");
    assert!(cold_report.same_frontier(&reference));

    // Warm-cache serving: a *fresh* engine on the same directory
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
