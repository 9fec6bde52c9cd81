//! A request deadline through `Engine::synthesize`, in both solve modes: a
//! deadline that has already passed yields a degraded, empty frontier that
//! is never persisted, and a generous one changes nothing about the answer.

use sccl_collectives::Collective;
use sccl_core::pareto::SynthesisConfig;
use sccl_sched::{Engine, Provenance, SolveMode, SynthesisRequest};
use sccl_topology::builders;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const MODES: [SolveMode; 2] = [SolveMode::Sequential, SolveMode::Parallel];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sccl-deadline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A fresh engine (so no memo answers for an earlier request), with a
/// disk cache if `cache` names one.
fn engine(cache: Option<&PathBuf>) -> Engine {
    let mut builder = Engine::builder()
        .threads(2)
        .synthesis_defaults(SynthesisConfig {
            max_steps: 6,
            max_chunks: 4,
            ..Default::default()
        });
    if let Some(dir) = cache {
        builder = builder.cache_dir(dir);
    }
    builder.build().expect("engine")
}

fn request(mode: SolveMode) -> SynthesisRequest {
    SynthesisRequest::new(&builders::ring(4, 1), Collective::Allgather).with_mode(mode)
}

#[test]
fn a_passed_deadline_degrades_to_an_empty_frontier_that_is_not_stored() {
    for mode in MODES {
        let dir = tmp_dir(&format!("passed-{mode:?}"));
        let engine = engine(Some(&dir));
        let expired = engine
            .synthesize(request(mode).with_deadline(Instant::now()))
            .expect("an expired deadline is an answer, not an error");
        assert!(expired.degraded, "{mode:?}");
        assert!(expired.report.entries.is_empty(), "{mode:?}");
        assert_eq!(expired.provenance, Provenance::Solved(mode));

        // Nothing was persisted: the same request without a deadline
        // solves again rather than hitting the cache.
        let clean = engine.synthesize(request(mode)).expect("clean");
        assert_eq!(clean.provenance, Provenance::Solved(mode), "{mode:?}");
        assert!(!clean.degraded && !clean.report.entries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_generous_deadline_returns_the_undeadlined_frontier() {
    for mode in MODES {
        let unbounded = engine(None).synthesize(request(mode)).expect("no deadline");
        let generous = engine(None)
            .synthesize(request(mode).with_deadline(Instant::now() + Duration::from_secs(600)))
            .expect("generous deadline");
        assert!(!generous.degraded, "{mode:?}");
        assert!(generous.report.same_frontier(&unbounded.report), "{mode:?}");
    }
}
