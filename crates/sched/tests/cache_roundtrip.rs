//! Acceptance tests for the persistent algorithm cache: a warm store read
//! by a cold process returns the identical `SynthesisReport`, a warm batch
//! run never invokes the solver, and hydrated libraries preserve the
//! size-based selection crossover.

use sccl_collectives::Collective;
use sccl_core::pareto::{pareto_synthesize, SynthesisConfig};
use sccl_core::CostModel;
use sccl_program::LoweringOptions;
use sccl_runtime::CollectiveLibrary;
use sccl_sched::{parse_manifest, AlgorithmCache, CacheKey, Engine, Provenance, SynthesisRequest};
use sccl_topology::builders;
use std::path::PathBuf;
use std::time::Instant;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sccl-it-{tag}-{}", std::process::id()));
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
fn warm_store_cold_process_identical_report() {
    let dir = tmp_dir("roundtrip");
    let ring = builders::ring(4, 1);
    let config = quick_config();
    let key = CacheKey::new(&ring, Collective::Allgather, &config);
    let original = pareto_synthesize(&ring, Collective::Allgather, &config).expect("synthesis");

    // Warm the store with one handle...
    {
        let cache = AlgorithmCache::open(&dir).expect("open");
        cache.store(&key, &original).expect("store");
    }

    // ...and read it back through a completely fresh handle (a cold
    // process: new index scan, empty memo).
    let cache = AlgorithmCache::open(&dir).expect("reopen");
    assert_eq!(cache.len(), 1);
    let restored = cache.lookup(&key).expect("cache hit after reopen");
    assert_eq!(restored, original, "report must round-trip bit-identically");
    assert_eq!(cache.stats().hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_batch_run_never_invokes_the_solver() {
    let dir = tmp_dir("warmbatch");
    let jobs = parse_manifest(
        "dgx1 allgather\ndgx1 broadcast\ndgx1 scatter\ndgx1 reducescatter\ndgx1 allreduce\n",
    )
    .expect("manifest");
    let config = SynthesisConfig {
        max_steps: 3,
        max_chunks: 3,
        ..Default::default()
    };

    let cold_elapsed;
    let cold;
    {
        let engine = Engine::builder().cache_dir(&dir).build().expect("open");
        let start = Instant::now();
        cold = engine.run_batch(&jobs, Some(&config));
        cold_elapsed = start.elapsed();
        assert_eq!(cold.failures(), 0);
        assert_eq!(cold.cache_hits(), 0);
        assert_eq!(cold.solved(), jobs.len());
        assert_eq!(
            engine.cache_stats().expect("cache").stores as usize,
            jobs.len()
        );
    }

    // Second run, fresh engine (a cold process: new index scan, empty
    // memos): every job must come straight from the store, with no
    // synthesis at all — and dramatically faster.
    let engine = Engine::builder().cache_dir(&dir).build().expect("reopen");
    let cache = engine.cache().expect("cache attached");
    let start = Instant::now();
    let warm = engine.run_batch(&jobs, Some(&config));
    let warm_elapsed = start.elapsed();
    assert_eq!(warm.failures(), 0);
    assert_eq!(warm.solved(), 0, "warm run must not invoke the solver");
    assert_eq!(warm.cache_hits(), jobs.len());
    assert_eq!(cache.stats().misses, 0);

    // The cached reports are identical to the freshly solved ones.
    for (cold_result, warm_result) in std::iter::zip(&cold.results, &warm.results) {
        assert_eq!(
            cold_result.outcome.as_ref().expect("ok"),
            warm_result.outcome.as_ref().expect("ok")
        );
    }

    // Wall-clock: serving from the store beats re-synthesis by far more
    // than the 1.5x acceptance threshold (typically two orders of
    // magnitude).
    assert!(
        warm_elapsed.as_secs_f64() * 1.5 < cold_elapsed.as_secs_f64(),
        "warm run ({warm_elapsed:?}) not faster than cold run ({cold_elapsed:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hydrated_library_preserves_size_crossover() {
    // Satellite coverage for `CollectiveLibrary::select`: small buffers
    // pick the latency-optimal frontier entry, large buffers the
    // bandwidth-optimal one — and hydration from the cache preserves that.
    let dir = tmp_dir("crossover");
    let ring = builders::ring(4, 1);
    let config = quick_config();
    let report = pareto_synthesize(&ring, Collective::Allgather, &config).expect("synthesis");
    let latency = report.latency_optimal().expect("latency entry");
    let bandwidth = report.bandwidth_optimal().expect("bandwidth entry");
    assert_ne!(latency.cost(), bandwidth.cost());

    {
        let cache = AlgorithmCache::open(&dir).expect("open");
        cache
            .store(
                &CacheKey::new(&ring, Collective::Allgather, &config),
                &report,
            )
            .expect("store");
    }

    // A fresh engine over the stored directory answers from the cache:
    // nothing is solved.
    let engine = Engine::builder().cache_dir(&dir).build().expect("reopen");
    let hydrated = engine
        .synthesize(SynthesisRequest::new(&ring, Collective::Allgather).with_config(config))
        .expect("cache hit");
    assert_eq!(hydrated.provenance, Provenance::CacheHit);
    assert!(hydrated.incremental.is_none());
    let mut library = CollectiveLibrary::new(ring.clone(), CostModel::nvlink());
    library.register_frontier(&hydrated.report, LoweringOptions::default());
    assert_eq!(library.len(), report.entries.len());

    // Small buffer → fewest steps (latency-optimal).
    let small = library
        .select(Collective::Allgather, 1 << 10)
        .expect("small entry");
    assert_eq!(small.algorithm.num_steps(), latency.steps);
    // Large buffer → cheapest bandwidth (bandwidth-optimal).
    let large = library
        .select(Collective::Allgather, 1 << 30)
        .expect("large entry");
    assert_eq!(large.algorithm.total_rounds(), bandwidth.rounds);
    assert_eq!(large.algorithm.per_node_chunks, bandwidth.chunks);
    let _ = std::fs::remove_dir_all(&dir);
}
