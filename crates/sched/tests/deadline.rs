//! A request deadline through `Engine::synthesize`: a deadline that has
//! already passed yields a degraded, empty frontier that is never
//! persisted, and a generous one changes nothing about the answer.

use sccl_collectives::Collective;
use sccl_core::pareto::SynthesisConfig;
use sccl_sched::{Engine, Provenance, SynthesisRequest};
use sccl_topology::builders;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sccl-deadline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh engine (so no memo answers for an earlier request), with a
/// disk cache if `cache` names one.
fn engine(cache: Option<&PathBuf>) -> Engine {
    let mut builder = Engine::builder().synthesis_defaults(SynthesisConfig {
        max_steps: 6,
        max_chunks: 4,
        ..Default::default()
    });
    if let Some(dir) = cache {
        builder = builder.cache_dir(dir);
    }
    builder.build().expect("engine")
}

fn request() -> SynthesisRequest {
    SynthesisRequest::new(&builders::ring(4, 1), Collective::Allgather)
}

#[test]
fn a_passed_deadline_degrades_to_an_empty_frontier_that_is_not_stored() {
    let dir = tmp_dir("passed");
    let engine = engine(Some(&dir));
    let expired = engine
        .synthesize(request().with_deadline(Instant::now()))
        .expect("an expired deadline is an answer, not an error");
    assert!(expired.degraded);
    assert!(expired.report.entries.is_empty());
    assert_eq!(expired.provenance, Provenance::Solved);

    // Nothing was persisted: the same request without a deadline solves
    // again rather than hitting the cache.
    let clean = engine.synthesize(request()).expect("clean");
    assert_eq!(clean.provenance, Provenance::Solved);
    assert!(!clean.degraded && !clean.report.entries.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_generous_deadline_returns_the_undeadlined_frontier() {
    let unbounded = engine(None).synthesize(request()).expect("no deadline");
    let generous = engine(None)
        .synthesize(request().with_deadline(Instant::now() + Duration::from_secs(600)))
        .expect("generous deadline");
    assert!(!generous.degraded);
    assert!(generous.report.same_frontier(&unbounded.report));
}
