//! The serving engine: one request/response API over synthesis and
//! caching.
//!
//! [`Engine`] is a long-lived handle that owns the persistent
//! [`AlgorithmCache`] and the [`Memo`] of decided candidates. Single-shot
//! requests, batch manifests and cached serving are one code path:
//!
//! 1. build the canonical [`CacheKey`] for the request,
//! 2. look it up in the cache (if one is attached),
//! 3. on a miss, run the one [`sweep`] over one solve closure, on the
//!    request's thread: a candidate is answered from the memo if an
//!    earlier sweep over the same base problem decided it, and by one
//!    fresh [`BaseProblem::solve`](sccl_core::pareto::BaseProblem::solve)
//!    otherwise (of the formula's quotient under the machine's symmetries
//!    first; see `sccl_core::encoding`), which the memo then keeps. The
//!    frontier is the plain sequential loop's, byte for byte,
//! 4. persist reproducible results (evicting LRU entries when a
//!    [`EngineBuilder::cache_capacity`] is configured), and
//! 5. return a [`SynthesisResponse`] carrying the report, its
//!    [`Provenance`] (cache hit or freshly solved), per-stage timings and
//!    the sweep's [`IncrementalStats`].
//!
//! With a [journal](EngineBuilder::journal_dir) attached the sweep also
//! checkpoints and resumes.
//!
//! The engine stops at the report. Lowering, code generation and
//! simulation are the next stages, called on a frontier entry's
//! algorithm directly:
//!
//! ```
//! use sccl_sched::{Engine, SynthesisRequest};
//! use sccl_core::pareto::SynthesisConfig;
//! use sccl_core::CostModel;
//! use sccl_collectives::Collective;
//! use sccl_program::{generate_cuda, lower, LoweringOptions};
//! use sccl_runtime::simulate_time;
//! use sccl_topology::builders;
//!
//! let engine = Engine::builder().build().expect("engine");
//! let ring = builders::ring(4, 1);
//! let config = SynthesisConfig { max_steps: 6, max_chunks: 4, ..Default::default() };
//! let response = engine
//!     .synthesize(SynthesisRequest::new(&ring, Collective::Allgather).with_config(config))
//!     .expect("synthesis succeeds");
//! let algorithm = &response.report.entries[0].algorithm;
//! let options = LoweringOptions::default();
//! let program = lower(algorithm, options);
//! assert!(generate_cuda(&program).contains("__global__"));
//! assert!(simulate_time(algorithm, &ring, 1 << 20, &CostModel::nvlink(), &options) > 0.0);
//! ```

use crate::batch::{BatchJob, BatchReport, BatchResult, ManifestError, SolveMode};
use crate::cache::{AlgorithmCache, CacheKey, CacheStats, CachedReport};
use crate::journal::Journal;
use crate::memo::Memo;
use sccl_collectives::Collective;
use sccl_core::incremental::IncrementalStats;
use sccl_core::pareto::{base_problem, sweep, SynthesisConfig, SynthesisError, SynthesisReport};
use sccl_topology::Topology;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// The unified error surface
// ---------------------------------------------------------------------

/// Every way a request to the engine can fail, unified into one enum so
/// callers match on a single type instead of four.
#[derive(Debug)]
pub enum Error {
    /// Synthesis could not start (disconnected topology, too few nodes).
    Synthesis(SynthesisError),
    /// A batch manifest failed to parse.
    Manifest(ManifestError),
    /// The persistent cache could not be opened or written.
    Cache(io::Error),
    /// An [`EngineBuilder`] (or serving-layer) knob was set to a value that
    /// cannot mean anything — e.g. a zero-entry cache. Rejected at build
    /// time so the misconfiguration surfaces where it was written, not as
    /// a memoryless engine later.
    Config {
        /// The builder field that was invalid.
        field: &'static str,
        /// Why the value was rejected.
        message: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Synthesis(e) => write!(f, "synthesis: {e}"),
            Error::Manifest(e) => write!(f, "{e}"),
            Error::Cache(e) => write!(f, "cache: {e}"),
            Error::Config { field, message } => write!(f, "config {field}: {message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Synthesis(e) => Some(e),
            Error::Manifest(e) => Some(e),
            Error::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SynthesisError> for Error {
    fn from(e: SynthesisError) -> Self {
        Error::Synthesis(e)
    }
}

impl From<ManifestError> for Error {
    fn from(e: ManifestError) -> Self {
        Error::Manifest(e)
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Cache(e)
    }
}

// ---------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------

/// One synthesis problem posed to the engine.
#[derive(Clone, Debug)]
pub struct SynthesisRequest {
    /// The hardware topology to synthesize for.
    pub topology: Topology,
    /// The collective to implement.
    pub collective: Collective,
    /// Search configuration; `None` uses the engine's defaults.
    pub config: Option<SynthesisConfig>,
    /// The instant the whole request must finish by. The solver compares
    /// it with the clock at its budget checks
    /// ([`sccl_solver::Limits::deadline`]); whatever part of the frontier
    /// is already solved when it passes comes back with
    /// [`SynthesisResponse::degraded`] set, and the partial report is never
    /// persisted. Deadlines are not part of the cache key: an expired
    /// request that *was* fully cached still hits.
    pub deadline: Option<Instant>,
}

impl SynthesisRequest {
    /// A request with the engine's default configuration.
    pub fn new(topology: &Topology, collective: Collective) -> Self {
        SynthesisRequest {
            topology: topology.clone(),
            collective,
            config: None,
            deadline: None,
        }
    }

    /// Bound the request to finish by `deadline` (builder style).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Override the search configuration for this request.
    pub fn with_config(mut self, config: SynthesisConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Accepted and ignored: every miss is solved one candidate at a
    /// time. Kept only for the benchmark ledger; its re-cut deletes it.
    pub fn with_mode(self, _mode: SolveMode) -> Self {
        self
    }

    /// Accepted and ignored, like [`SynthesisRequest::with_mode`]. Kept
    /// only for the benchmark ledger; its re-cut deletes it.
    pub fn sequential(self) -> Self {
        self
    }
}

/// Where a response's report came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Served from the persistent cache without solving.
    CacheHit,
    /// Freshly solved.
    Solved,
}

/// Wall-clock breakdown of one request.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResponseTimings {
    /// Cache lookup time (zero when no cache is attached).
    pub lookup: Duration,
    /// Always zero: no solve keeps an encoding between candidates any
    /// more, so none is built outside a candidate's own fresh solve (which
    /// `solve` and `IncrementalStats::cold_solve_time` count, encode
    /// included). The field stays because the benchmark ledger reads it.
    pub encode: Duration,
    /// Always zero, like `encode`: there are no warm assumption solves.
    pub solve_incremental: Duration,
    /// End-to-end sweep time (zero on a cache hit).
    pub solve: Duration,
    /// Cache store time (zero on a hit or without a cache).
    pub store: Duration,
    /// End-to-end time of the request.
    pub total: Duration,
}

/// The engine's answer to a [`SynthesisRequest`].
#[derive(Clone, Debug)]
pub struct SynthesisResponse {
    /// The Pareto frontier (identical whether cached or freshly solved),
    /// shared with the cache's resident entry when there is one.
    pub report: Arc<SynthesisReport>,
    /// Whether the report was served from the cache or solved.
    pub provenance: Provenance,
    /// Wall-clock breakdown of the request.
    pub timings: ResponseTimings,
    /// The sweep's accounting (candidates answered, how many of them by a
    /// solver, the solver runs those took, memo hits). `None` on a cache
    /// hit.
    pub incremental: Option<IncrementalStats>,
    /// `true` when the request's deadline expired mid-solve and the report
    /// is the partial frontier found before the cut — graceful degradation
    /// rather than an error. Degraded reports are never persisted.
    pub degraded: bool,
    /// The cache's resident entry holding `report`, if the report is
    /// resident (see [`SynthesisResponse::resident`]).
    resident: Option<Arc<CachedReport>>,
}

impl SynthesisResponse {
    /// `true` if the report came out of the cache without solving.
    pub fn from_cache(&self) -> bool {
        self.provenance == Provenance::CacheHit
    }

    /// The attached cache's resident entry for this request — the one
    /// whose report *is* [`SynthesisResponse::report`] — when the report
    /// was read from the cache or stored into it. `None` without a cache
    /// and for a report the cache refused (budget-truncated, or a failed
    /// store). A caller that checks the report marks the entry
    /// ([`CachedReport::mark_verified`]) so later readers can skip the
    /// check.
    pub fn resident(&self) -> Option<&Arc<CachedReport>> {
        self.resident.as_ref()
    }
}

// ---------------------------------------------------------------------
// The builder
// ---------------------------------------------------------------------

/// Configures and constructs an [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    cache_dir: Option<PathBuf>,
    cache_capacity: Option<usize>,
    journal_dir: Option<PathBuf>,
    memo_capacity: usize,
    config: SynthesisConfig,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            cache_dir: None,
            cache_capacity: None,
            journal_dir: None,
            memo_capacity: Engine::DEFAULT_MEMO_CAPACITY,
            config: SynthesisConfig::default(),
        }
    }
}

impl EngineBuilder {
    /// Attach a persistent algorithm cache rooted at `dir` (created if
    /// absent when the engine is built).
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Bound the attached cache to roughly `max_entries` entries: once a
    /// store pushes the index 10% past the bound, least-recently-used
    /// entries (by file modification time, refreshed on reads) are evicted
    /// back down to `max_entries` — the slack keeps a store at capacity
    /// from paying an O(entries) metadata scan on every request. An
    /// evicted entry's resident copy is retired
    /// ([`CachedReport::is_retired`]), so no tier sharing it answers it
    /// again. No effect without [`EngineBuilder::cache_dir`].
    pub fn cache_capacity(mut self, max_entries: usize) -> Self {
        self.cache_capacity = Some(max_entries);
        self
    }

    /// Attach a crash-recovery [`Journal`] rooted at `dir` (created if
    /// absent when the engine is built). With a journal attached a sweep
    /// persists a [`SweepCheckpoint`](sccl_core::pareto::SweepCheckpoint)
    /// after every decided candidate but the one that finishes it (whose
    /// frontier is stored next), keyed by the request's cache-key hash; a
    /// process that dies mid-solve resumes the sweep on the next request
    /// for the same key instead of starting over, and reaches the
    /// identical frontier. Checkpoints are removed once the solve
    /// completes.
    pub fn journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Bound the engine's [`Memo`] of decided candidates to `n` cells — one
    /// per decided candidate plus one per send of a memoized schedule
    /// (mirroring [`EngineBuilder::cache_capacity`] for the on-disk
    /// cache). What a base problem's candidates retain varies by orders of
    /// magnitude with the topology and the chunk count, so the bound is by
    /// *weight*, not entry count: it caps the memory a long-lived engine
    /// retains across requests. Past it, whole base problems are evicted
    /// least recently used first; the newest always survives.
    pub fn memo_capacity(mut self, n: usize) -> Self {
        self.memo_capacity = n;
        self
    }

    /// Accepted and ignored: a sweep runs on the request's own thread.
    /// Kept only for the benchmark ledger; its re-cut deletes it.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Accepted and ignored: every miss is solved one candidate at a
    /// time. Kept only for the benchmark ledger; its re-cut deletes it.
    pub fn mode(self, _mode: SolveMode) -> Self {
        self
    }

    /// Accepted and ignored, like [`EngineBuilder::mode`]. Kept only for
    /// the benchmark ledger; its re-cut deletes it.
    pub fn sequential(self) -> Self {
        self
    }

    /// Default search configuration for requests that don't carry one.
    pub fn synthesis_defaults(mut self, config: SynthesisConfig) -> Self {
        self.config = config;
        self
    }

    /// Build the engine, opening the cache directory if one was configured.
    ///
    /// Nonsense knob values are rejected with [`Error::Config`] rather than
    /// silently reinterpreted: `cache_capacity(0)` (a cache evicted on
    /// every store) or `memo_capacity(0)` (a memo that retains nothing).
    pub fn build(self) -> Result<Engine, Error> {
        if self.cache_capacity == Some(0) {
            return Err(Error::Config {
                field: "cache_capacity",
                message: "a 0-entry cache evicts every store; omit cache_capacity() \
                          for an unbounded cache"
                    .to_string(),
            });
        }
        if self.memo_capacity == 0 {
            return Err(Error::Config {
                field: "memo_capacity",
                message: "a 0-cell memo retains no decided candidates; omit \
                          memo_capacity() for the default bound"
                    .to_string(),
            });
        }
        let cache = match self.cache_dir {
            Some(dir) => Some(AlgorithmCache::open(dir)?),
            None => None,
        };
        let journal = match self.journal_dir {
            Some(dir) => Some(Arc::new(Journal::open(dir)?)),
            None => None,
        };
        Ok(Engine {
            cache,
            cache_capacity: self.cache_capacity,
            journal,
            defaults: self.config,
            memo: Memo::new(self.memo_capacity),
        })
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// A long-lived synthesis-serving handle: owns the persistent cache and the
/// memo of decided candidates, and serves single-shot and batch requests
/// through one path.
pub struct Engine {
    cache: Option<AlgorithmCache>,
    cache_capacity: Option<usize>,
    /// Crash-recovery journal: sweep checkpoints (written by the solve
    /// path) plus the daemon's queue records.
    /// `None` unless [`EngineBuilder::journal_dir`] was configured.
    journal: Option<Arc<Journal>>,
    defaults: SynthesisConfig,
    /// Decided candidates held across requests, keyed by the content hash
    /// of `(base topology, base collective, config)` (see [`Memo`]).
    /// Bounded by [`EngineBuilder::memo_capacity`].
    memo: Memo,
}

impl Engine {
    /// Default bound on the memo of decided candidates, in cells —
    /// decided candidates plus the sends of their schedules (see
    /// [`EngineBuilder::memo_capacity`]). Weighing what is retained
    /// (instead of counting entries) keeps a long-lived engine's *memory*
    /// proportional to its working set of base problems.
    pub const DEFAULT_MEMO_CAPACITY: usize = 16 << 20;

    /// Start configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The attached persistent cache, if any.
    pub fn cache(&self) -> Option<&AlgorithmCache> {
        self.cache.as_ref()
    }

    /// Hit/miss counters of the attached cache, if any.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// The attached crash-recovery journal, if any. The daemon layered on
    /// this engine shares the handle for its queue records, so
    /// one directory holds both record families.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Base problems currently held in the memo of decided candidates.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Cells currently held in the memo — the quantity
    /// [`EngineBuilder::memo_capacity`] bounds.
    pub fn memo_weight(&self) -> usize {
        self.memo.weight()
    }

    /// The engine's default search configuration.
    pub fn defaults(&self) -> &SynthesisConfig {
        &self.defaults
    }

    /// Serve one synthesis request: cache lookup, solve on miss, persist,
    /// respond. A request deadline
    /// rides in the per-instance solver limits; once it passes, the
    /// response carries the partial frontier with
    /// [`SynthesisResponse::degraded`] set (see [`SynthesisRequest::deadline`]).
    pub fn synthesize(&self, request: SynthesisRequest) -> Result<SynthesisResponse, Error> {
        let mut owned;
        let config = match (request.deadline, request.config.as_ref()) {
            (None, Some(config)) => config,
            (None, None) => &self.defaults,
            (Some(deadline), config) => {
                // The deadline rides in the per-instance limits but is
                // deliberately not part of the cache key (it changes whether
                // a run completes, never its result).
                owned = config.cloned().unwrap_or_else(|| self.defaults.clone());
                owned.per_instance_limits.deadline = Some(deadline);
                &owned
            }
        };
        let mut response = self.serve(&request.topology, request.collective, config)?;
        if let Some(deadline) = request.deadline {
            response.degraded = Instant::now() >= deadline && response.report.budget_exhausted;
        }
        Ok(response)
    }

    /// Run a batch of jobs through the same request path, one
    /// [`BatchResult`] per job. Failures are per-job; the batch itself
    /// always completes.
    pub fn run_batch(&self, jobs: &[BatchJob], config: Option<&SynthesisConfig>) -> BatchReport {
        let config = config.unwrap_or(&self.defaults);
        let start = Instant::now();
        let mut results = Vec::with_capacity(jobs.len());
        for job in jobs {
            let job_start = Instant::now();
            let (outcome, from_cache) = match self.serve(&job.topology, job.collective, config) {
                Ok(response) => {
                    let from_cache = response.from_cache();
                    (Ok(Arc::unwrap_or_clone(response.report)), from_cache)
                }
                Err(e) => (Err(e), false),
            };
            results.push(BatchResult {
                job: job.clone(),
                outcome,
                from_cache,
                elapsed: job_start.elapsed(),
            });
        }
        BatchReport {
            results,
            wall_time: start.elapsed(),
        }
    }

    // -- the one code path -------------------------------------------------

    /// The unified request path. The sweep is its only fallible step.
    fn serve(
        &self,
        topology: &Topology,
        collective: Collective,
        config: &SynthesisConfig,
    ) -> Result<SynthesisResponse, SynthesisError> {
        let start = Instant::now();
        let mut timings = ResponseTimings::default();
        let cache = self.cache.as_ref();
        // The request's key and its content hash, computed once: the cache
        // lookup, the store and the sweep checkpoint's address all use it.
        // `timings.lookup` includes building and hashing the key.
        let lookup_start = Instant::now();
        let key = (cache.is_some() || self.journal.is_some()).then(|| {
            let key = CacheKey::new(topology, collective, config);
            let hash = key.content_hash();
            (key, hash)
        });

        if let (Some(cache), Some((key, hash))) = (cache, &key) {
            let hit = cache.lookup_shared(hash, key);
            timings.lookup = lookup_start.elapsed();
            if let Some(entry) = hit {
                timings.total = start.elapsed();
                return Ok(SynthesisResponse {
                    report: Arc::clone(entry.report()),
                    provenance: Provenance::CacheHit,
                    timings,
                    incremental: None,
                    degraded: false,
                    resident: Some(entry),
                });
            }
        }

        let solve_start = Instant::now();
        // The base problem is computed exactly once per request (it clones
        // the topology, reverses it for inversion duals and searches it
        // for symmetries).
        let base = base_problem(topology, collective);
        let base_hash = CacheKey::new(&base.topology, base.collective, config).content_hash();
        // With a journal attached, the sweep checkpoints after every
        // decided candidate that leaves another to decide and resumes from
        // any checkpoint a crashed process left behind. Checkpoints are
        // addressed by the *request's* cache-key hash (not the memo's base
        // hash): the merge state being saved belongs to this request's
        // candidate plan.
        let checkpoint_key = self
            .journal
            .as_ref()
            .zip(key.as_ref().map(|(_, hash)| hash));
        let resume = checkpoint_key
            .as_ref()
            .and_then(|(journal, hash)| journal.load_checkpoint(hash));
        // How this request decides a candidate: the memo's answer if an
        // earlier sweep over the same base left one, one fresh solve
        // otherwise, which the memo then keeps.
        let mut incremental = IncrementalStats::default();
        let report = sweep(
            &base,
            topology,
            collective,
            config,
            resume.as_ref(),
            |merge| {
                if let Some((journal, hash)) = &checkpoint_key {
                    let _ = journal.store_checkpoint(hash, &merge.checkpoint());
                }
            },
            |job| {
                incremental.pool_checkins += 1;
                if let Some(run) = self.memo.get(&base_hash, job) {
                    incremental.memo_hits += 1;
                    return run;
                }
                sccl_core::failpoint::fire("pool.solve");
                let solve_start = Instant::now();
                let run = base.solve(job, config, config.per_instance_limits.clone());
                incremental.cold_solve_time += solve_start.elapsed();
                // A candidate reached after the deadline took no solver.
                incremental.warm_candidates += u64::from(run.solves > 0);
                incremental.solve_calls += run.solves;
                self.memo.put(&base_hash, job, &run);
                run
            },
        )?;
        if let Some((journal, hash)) = &checkpoint_key {
            journal.remove_checkpoint(hash);
        }
        let report = Arc::new(report);
        timings.solve = solve_start.elapsed();

        let mut resident = None;
        if let (Some(cache), Some((key, hash))) = (cache, &key) {
            // Budget-truncated frontiers are timing-dependent (a contended
            // run may drop entries a quiet one would find); persisting one
            // would serve the degraded result forever. A failed store leaves
            // the response intact; the next request simply re-solves.
            if !report.budget_exhausted {
                let store_start = Instant::now();
                resident = cache.store_shared(hash, key, Arc::clone(&report)).ok();
                if resident.is_some() {
                    // Prune with 10% slack so a store at capacity does not
                    // pay an O(entries) metadata scan on every request;
                    // the store stays within capacity + capacity/10. A
                    // pruned entry is retired, so no tier answers it again.
                    if let Some(capacity) = self.cache_capacity {
                        if cache.len() > capacity + (capacity / 10).max(1) {
                            let _ = cache.prune(capacity);
                        }
                    }
                }
                timings.store = store_start.elapsed();
            }
        }

        timings.total = start.elapsed();
        Ok(SynthesisResponse {
            report,
            provenance: Provenance::Solved,
            timings,
            incremental: Some(incremental),
            degraded: false,
            resident,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_solver::Limits;
    use sccl_topology::builders;

    fn quick_config() -> SynthesisConfig {
        SynthesisConfig {
            max_steps: 6,
            max_chunks: 4,
            ..Default::default()
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sccl-engine-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn an_unconfigured_engine_solves_sequentially() {
        let engine = Engine::builder().build().expect("engine");
        let ring = builders::ring(4, 1);
        let response = engine
            .synthesize(SynthesisRequest::new(&ring, Collective::Allgather))
            .expect("solved");
        assert_eq!(response.provenance, Provenance::Solved);
    }

    #[test]
    fn sequential_serves_checkpoint_through_the_journal() {
        let ring = builders::ring(4, 1);
        // A sweep long enough to be interrupted in several places.
        let collective = Collective::Broadcast { root: 0 };
        let config = quick_config();
        let reference = Engine::builder()
            .synthesis_defaults(config.clone())
            .build()
            .expect("engine")
            .synthesize(SynthesisRequest::new(&ring, collective))
            .expect("reference solve");
        let hash = CacheKey::new(&ring, collective, &config).content_hash();
        // A stale checkpoint (wrong plan length): resume must discard it
        // and restart cold rather than decide the wrong candidates.
        let stale = sccl_core::pareto::SweepCheckpoint {
            version: sccl_core::pareto::SWEEP_CHECKPOINT_VERSION,
            plan_len: 1,
            cursor: 1,
            best_bw: None,
            settled_step: None,
            entries: Vec::new(),
            budget_exhausted: false,
        };
        // A checkpoint a crashed process left mid-sweep: every one an
        // uninterrupted sweep would have written, tried in turn.
        let base = base_problem(&ring, collective);
        let mut interrupted = Vec::new();
        sweep(
            &base,
            &ring,
            collective,
            &config,
            None,
            |merge| interrupted.push(merge.checkpoint()),
            |job| base.solve(job, &config, Limits::none()),
        )
        .expect("uninterrupted sweep");
        assert!(interrupted.len() > 2, "{} checkpoints", interrupted.len());

        let dir = tmp_dir("journal");
        let engine = Engine::builder()
            .synthesis_defaults(config.clone())
            .journal_dir(&dir)
            .build()
            .expect("engine with journal");
        let journal = engine.journal().expect("journal attached");
        // Attempts, not successes: the `journal.write` failpoint is
        // process-global and a journal test holds it armed for a moment.
        let attempts = || journal.checkpoints_written() + journal.write_errors();
        for (seeded, checkpoint) in std::iter::once(&stale).chain(&interrupted).enumerate() {
            while journal.store_checkpoint(&hash, checkpoint).is_err() {}
            let before = attempts();
            let served = engine
                .synthesize(SynthesisRequest::new(&ring, collective))
                .expect("journaled solve");
            assert!(
                served.report.same_frontier(&reference.report),
                "a stale checkpoint must degrade to a cold start and a valid one \
                 resume, neither to a wrong frontier (checkpoint {seeded})"
            );
            // The stale checkpoint (0) restarts cold and persists the
            // whole sweep's progress; resuming from the i-th skips the
            // i candidates it had already decided.
            assert_eq!(
                (attempts() - before) as usize,
                interrupted.len() - seeded,
                "checkpoint {seeded}"
            );
            assert!(
                journal.load_checkpoint(&hash).is_none(),
                "checkpoint is consumed once the solve completes"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sweep_checkpoints_every_candidate_but_its_last() {
        // The candidate that finishes a sweep writes no checkpoint: its
        // frontier is returned (and stored) next, so the write would
        // recover nothing. k decided candidates, k - 1 checkpoints; a
        // one-candidate sweep never touches the journal.
        for (topology, one_candidate) in [
            (builders::ring(4, 1), false),
            (builders::fully_connected(3, 1), true),
        ] {
            let dir = tmp_dir(&format!("ckpt-count-{}", topology.num_nodes()));
            let engine = Engine::builder()
                .synthesis_defaults(quick_config())
                .journal_dir(&dir)
                .build()
                .expect("engine with journal");
            let served = engine
                .synthesize(SynthesisRequest::new(&topology, Collective::Allgather))
                .expect("journaled solve");
            let candidates = served.incremental.expect("solved").pool_checkins;
            assert_eq!(candidates == 1, one_candidate, "{candidates} candidates");
            let journal = engine.journal().expect("journal attached");
            // Attempts, not successes: the `journal.write` failpoint is
            // process-global and another test may hold it armed.
            assert_eq!(
                journal.checkpoints_written() + journal.write_errors(),
                candidates - 1
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn nonsense_builder_knobs_are_config_errors() {
        // `Engine` itself is deliberately not `Debug` (it owns live solver
        // state), so extract build errors by hand.
        fn build_err(builder: EngineBuilder) -> Error {
            match builder.build() {
                Err(e) => e,
                Ok(_) => panic!("nonsense knob must be rejected"),
            }
        }
        // A zero-entry cache would evict every store immediately.
        let err = build_err(Engine::builder().cache_capacity(0));
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "cache_capacity",
                    ..
                }
            ),
            "was: {err:?}"
        );
        // A zero-cell memo retains nothing.
        let err = build_err(Engine::builder().memo_capacity(0));
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "memo_capacity",
                    ..
                }
            ),
            "was: {err:?}"
        );
        // Config errors have no upstream cause to chain to.
        assert!(std::error::Error::source(&err).is_none());
        assert!(Engine::builder().build().is_ok());
        // The solve-mode knobs the benchmark ledger still calls are
        // accepted and ignored, whatever their value.
        assert!(Engine::builder().threads(0).sequential().build().is_ok());
    }

    #[test]
    fn errors_carry_the_synthesis_cause() {
        let engine = Engine::builder().build().expect("engine");
        let solo = Topology::new("solo", 1);
        let err = engine
            .synthesize(SynthesisRequest::new(&solo, Collective::Allgather))
            .unwrap_err();
        assert!(matches!(err, Error::Synthesis(SynthesisError::TooFewNodes)));
        // The unified error chains to its source.
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn solved_responses_carry_incremental_accounting() {
        let engine = Engine::builder()
            .synthesis_defaults(quick_config())
            .build()
            .expect("engine");
        let ring = builders::ring(4, 1);
        for first in [true, false] {
            let response = engine
                .synthesize(SynthesisRequest::new(&ring, Collective::Allgather))
                .expect("solved");
            let inc = response.incremental.expect("solved responses carry stats");
            // The first request decides its candidates by fresh solves;
            // the second is answered from the memo those left behind.
            if first {
                assert!(inc.warm_candidates > 0 && inc.memo_hits == 0);
                assert!(inc.solve_calls >= inc.warm_candidates);
                assert!(response.timings.solve >= inc.cold_solve_time);
                assert!(inc.cold_solve_time > Duration::ZERO);
            } else {
                assert!(inc.memo_hits > 0);
            }
            // Every candidate answered is counted, and what the deleted
            // warm path accounted for reads zero.
            assert!(inc.pool_checkins > 0);
            assert!(engine.memo_weight() > engine.memo_len());
            assert_eq!((inc.cold_fallbacks, inc.core_skips), (0, 0));
            assert_eq!(response.timings.encode, Duration::ZERO);
            assert_eq!(response.timings.solve_incremental, Duration::ZERO);
        }
    }

    #[test]
    fn cache_hits_have_no_incremental_accounting() {
        let dir = tmp_dir("hit-stats");
        let engine = Engine::builder()
            .cache_dir(&dir)
            .synthesis_defaults(quick_config())
            .build()
            .expect("engine");
        let ring = builders::ring(4, 1);
        let request = SynthesisRequest::new(&ring, Collective::Allgather);
        let cold = engine.synthesize(request.clone()).expect("solve");
        assert!(cold.incremental.is_some());
        let hit = engine.synthesize(request).expect("hit");
        assert!(hit.from_cache());
        assert!(hit.incremental.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_capacity_bounds_the_store() {
        let dir = tmp_dir("capacity");
        let engine = Engine::builder()
            .cache_dir(&dir)
            .cache_capacity(1)
            .synthesis_defaults(quick_config())
            .build()
            .expect("engine");
        let ring = builders::ring(4, 1);
        for collective in [
            Collective::Allgather,
            Collective::Broadcast { root: 0 },
            Collective::Gather { root: 0 },
        ] {
            engine
                .synthesize(SynthesisRequest::new(&ring, collective))
                .expect("solve");
            // Pruning allows a small slack above the configured bound so a
            // store at capacity is not followed by a scan on every request.
            assert!(
                engine.cache().expect("cache").len() <= 2,
                "store exceeded its capacity plus slack"
            );
        }
        assert_eq!(
            engine.cache().expect("cache").len(),
            1,
            "the slack-tripping store must prune back to capacity"
        );
        // The most recent entry is the one retained.
        let hot = engine
            .synthesize(SynthesisRequest::new(&ring, Collective::Gather { root: 0 }))
            .expect("lookup");
        assert!(hot.from_cache());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
