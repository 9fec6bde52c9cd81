//! Engine-level Alltoall coverage. Alltoall is the one collective whose
//! feasible per-node chunk counts are multiples of the node count `P`
//! (every node owns one distinct chunk per peer), so a chunk cap below
//! `P` admits *no* candidate at any step count — the frontier is empty
//! and the report must say [`TerminationReason::ChunkLimited`], not
//! step-limited. These tests pin that special case down through the
//! engine (solve, cache store, cache hit), not just the core search.

use sccl_collectives::Collective;
use sccl_core::pareto::{SynthesisConfig, TerminationReason};
use sccl_sched::{Engine, SynthesisRequest};
use sccl_topology::builders;

fn engine() -> Engine {
    Engine::builder().build().expect("engine")
}

fn config(max_steps: usize, max_chunks: usize) -> SynthesisConfig {
    SynthesisConfig {
        max_steps,
        max_chunks,
        ..Default::default()
    }
}

#[test]
fn chunk_cap_below_node_count_terminates_chunk_limited() {
    let engine = engine();
    // On both a ring and a chain: 4 nodes need per-node chunk counts in
    // multiples of 4, so a cap of 3 admits nothing — raising the *step*
    // cap could never help, and the report must say so.
    for topology in [builders::ring(4, 1), builders::chain(4, 1)] {
        let response = engine
            .synthesize(
                SynthesisRequest::new(&topology, Collective::Alltoall).with_config(config(8, 3)),
            )
            .expect("synthesis");
        assert!(
            response.report.entries.is_empty(),
            "no chunk count is feasible under the cap on {}",
            topology.name()
        );
        assert_eq!(
            response.report.termination,
            TerminationReason::ChunkLimited,
            "an empty Alltoall frontier is chunk-limited, not step-limited, on {}",
            topology.name()
        );
        assert!(
            !response.report.hit_step_cap,
            "the step cap was not the binding limit on {}",
            topology.name()
        );
    }
}

#[test]
fn frontier_chunks_are_multiples_of_the_node_count() {
    let engine = engine();
    let ring = builders::ring(4, 1);
    let response = engine
        .synthesize(SynthesisRequest::new(&ring, Collective::Alltoall).with_config(config(6, 8)))
        .expect("synthesis");
    assert!(
        !response.report.entries.is_empty(),
        "a cap of two full chunk rounds must admit a frontier"
    );
    for entry in &response.report.entries {
        assert_eq!(
            entry.chunks % 4,
            0,
            "Alltoall per-node chunk counts come in multiples of P"
        );
        let spec = Collective::Alltoall.spec(4, entry.chunks);
        entry
            .algorithm
            .validate(&ring, &spec)
            .expect("every frontier algorithm satisfies the Alltoall spec");
    }
}

#[test]
fn chunk_limited_reports_survive_the_cache_roundtrip() {
    let dir = std::env::temp_dir().join(format!("sccl-alltoall-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::builder().cache_dir(&dir).build().expect("engine");
    let ring = builders::ring(4, 1);
    let request = SynthesisRequest::new(&ring, Collective::Alltoall).with_config(config(8, 3));
    let cold = engine.synthesize(request.clone()).expect("cold solve");
    assert!(!cold.from_cache());
    assert_eq!(cold.report.termination, TerminationReason::ChunkLimited);
    // The empty frontier is a legitimate, cacheable answer: the second
    // request must come back from the store with the same termination —
    // a cache that refused to persist it would re-run the whole search
    // on every request that can never succeed.
    let hit = engine.synthesize(request).expect("cache hit");
    assert!(hit.from_cache(), "empty frontiers are cacheable answers");
    assert!(hit.report.same_frontier(&cold.report));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn raising_the_chunk_cap_unblocks_the_search() {
    // The ChunkLimited verdict is actionable: re-asking with the cap at P
    // yields a frontier on the same engine (and the two problems hash to
    // different cache keys, so the empty answer does not shadow the
    // real one).
    let engine = engine();
    let ring = builders::ring(4, 1);
    let blocked = engine
        .synthesize(SynthesisRequest::new(&ring, Collective::Alltoall).with_config(config(8, 3)))
        .expect("blocked synthesis");
    assert_eq!(blocked.report.termination, TerminationReason::ChunkLimited);
    let unblocked = engine
        .synthesize(SynthesisRequest::new(&ring, Collective::Alltoall).with_config(config(8, 4)))
        .expect("unblocked synthesis");
    assert!(!unblocked.report.entries.is_empty());
    assert_eq!(unblocked.report.entries[0].chunks, 4);
}
