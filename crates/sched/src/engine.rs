//! The serving engine: one request/response API over synthesis, caching,
//! scheduling and lowering.
//!
//! [`Engine`] is a long-lived handle that owns the worker-thread count,
//! the persistent [`AlgorithmCache`], the [`Memo`] of decided candidates
//! and the cost model. All execution modes — single-shot sequential,
//! parallel, batch manifests and cached serving — are one code path:
//!
//! 1. build the canonical [`CacheKey`] for the request,
//! 2. look it up in the cache (if one is attached),
//! 3. on a miss, run the one [`sweep`] over one solve closure: a candidate
//!    is answered from the memo if an earlier sweep over the same base
//!    problem decided it, and by one fresh
//!    [`BaseProblem::solve`](sccl_core::pareto::BaseProblem::solve)
//!    otherwise (of the formula's quotient under the machine's symmetries
//!    first; see `sccl_core::encoding`), which the memo then keeps. The
//!    request's [`SolveMode`] only says whether the closure runs on the
//!    sweep's thread or on worker threads ahead of it; the frontier is
//!    the plain sequential loop's either way, byte for byte,
//! 4. persist reproducible results (evicting LRU entries when a
//!    [`EngineBuilder::cache_capacity`] is configured), and
//! 5. return a [`SynthesisResponse`] carrying the report, its
//!    [`Provenance`] (cache hit or freshly solved), per-stage timings and
//!    the sweep's [`IncrementalStats`].
//!
//! With a [journal](EngineBuilder::journal_dir) attached the sweep also
//! checkpoints and resumes, in either mode.
//!
//! The response offers a fluent follow-on stage: [`SynthesisResponse::lower`]
//! turns a frontier entry into a [`LoweredAlgorithm`] that can emit
//! CUDA-flavoured code ([`LoweredAlgorithm::cuda`]) or predict execution
//! time under the engine's (α, β) cost model
//! ([`LoweredAlgorithm::simulate`]).
//!
//! ```
//! use sccl_sched::{Engine, SynthesisRequest};
//! use sccl_core::pareto::SynthesisConfig;
//! use sccl_collectives::Collective;
//! use sccl_program::LoweringOptions;
//! use sccl_topology::builders;
//!
//! let engine = Engine::builder().threads(2).build().expect("engine");
//! let ring = builders::ring(4, 1);
//! let config = SynthesisConfig { max_steps: 6, max_chunks: 4, ..Default::default() };
//! let response = engine
//!     .synthesize(SynthesisRequest::new(&ring, Collective::Allgather).with_config(config))
//!     .expect("synthesis succeeds");
//! let lowered = response.lower(LoweringOptions::default()).expect("nonempty frontier");
//! assert!(lowered.cuda().contains("__global__"));
//! assert!(lowered.simulate(1 << 20) > 0.0);
//! ```

use crate::batch::{BatchJob, BatchReport, BatchResult, ManifestError, SolveMode};
use crate::cache::{AlgorithmCache, CacheKey, CacheStats, CachedReport};
use crate::journal::Journal;
use crate::memo::Memo;
use crate::parallel::with_workers;
use sccl_collectives::Collective;
use sccl_core::encoding::SynthesisRun;
use sccl_core::incremental::IncrementalStats;
use sccl_core::pareto::{
    base_problem, sweep, CandidateJob, SynthesisConfig, SynthesisError, SynthesisReport,
};
use sccl_core::{Algorithm, CostModel};
use sccl_program::{generate_cuda, lower, LoweringOptions, Program};
use sccl_runtime::{simulate_time, CollectiveLibrary};
use sccl_solver::Limits;
use sccl_topology::Topology;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// The unified error surface
// ---------------------------------------------------------------------

/// Every way a request to the engine (or the CLI built on it) can fail,
/// unified into one enum so callers match on a single type instead of four.
#[derive(Debug)]
pub enum Error {
    /// Synthesis could not start (disconnected topology, too few nodes).
    Synthesis(SynthesisError),
    /// A batch manifest failed to parse.
    Manifest(ManifestError),
    /// The persistent cache could not be opened or written.
    Cache(io::Error),
    /// A command-line flag failed to parse (used by the `sccl` CLI).
    Flag {
        /// The offending flag, without the leading `--`.
        flag: String,
        /// What was wrong with it.
        message: String,
    },
    /// An [`EngineBuilder`] (or serving-layer) knob was set to a value that
    /// cannot mean anything — e.g. zero worker threads or a zero-entry
    /// cache. Rejected at build time so the misconfiguration surfaces where
    /// it was written, not as a hung or memoryless engine later.
    Config {
        /// The builder field that was invalid.
        field: &'static str,
        /// Why the value was rejected.
        message: String,
    },
    /// A follow-on stage asked for a frontier entry that does not exist
    /// (the frontier is empty, or the index is out of range).
    NoSuchEntry {
        /// The entry index that was requested.
        index: usize,
        /// How many entries the frontier actually has.
        len: usize,
        /// The collective that was requested.
        collective: Collective,
        /// The topology it was requested on.
        topology: String,
    },
    /// A lowered program failed its send/receive matching check.
    Program(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Synthesis(e) => write!(f, "synthesis: {e}"),
            Error::Manifest(e) => write!(f, "{e}"),
            Error::Cache(e) => write!(f, "cache: {e}"),
            Error::Flag { flag, message } => write!(f, "flag --{flag}: {message}"),
            Error::Config { field, message } => write!(f, "config {field}: {message}"),
            Error::NoSuchEntry {
                index,
                len,
                collective,
                topology,
            } => {
                if *len == 0 {
                    write!(f, "the frontier of {collective} on {topology} is empty")
                } else {
                    write!(
                        f,
                        "the frontier of {collective} on {topology} has {len} entries, \
                         no entry {index}"
                    )
                }
            }
            Error::Program(e) => write!(f, "lowered program is inconsistent: {e}"),
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
    /// How to solve on a cache miss; `None` uses the engine's default mode.
    pub mode: Option<SolveMode>,
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
    /// A request with the engine's default configuration and solve mode.
    pub fn new(topology: &Topology, collective: Collective) -> Self {
        SynthesisRequest {
            topology: topology.clone(),
            collective,
            config: None,
            mode: None,
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

    /// Override the solve mode for this request.
    pub fn with_mode(mut self, mode: SolveMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Solve cache misses one candidate at a time.
    pub fn sequential(self) -> Self {
        self.with_mode(SolveMode::Sequential)
    }

    /// Solve cache misses with worker threads deciding candidates ahead of
    /// the sweep.
    pub fn parallel(self) -> Self {
        self.with_mode(SolveMode::Parallel)
    }
}

/// Where a response's report came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Served from the persistent cache without solving.
    CacheHit,
    /// Freshly solved in the given mode.
    Solved(SolveMode),
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
    /// The topology the request was posed on (kept for the fluent
    /// lowering/simulation stage).
    topology: Topology,
    /// The engine's cost model at response time.
    cost_model: CostModel,
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

    /// Lower the first frontier entry — the one with the fewest steps.
    /// Whenever the frontier reaches the latency lower bound that entry is
    /// the latency-optimal point; on a capped or budget-truncated search it
    /// is merely the best found (check
    /// [`SynthesisReport::latency_optimal`](sccl_core::pareto::SynthesisReport::latency_optimal)
    /// when the distinction matters).
    pub fn lower(&self, options: LoweringOptions) -> Result<LoweredAlgorithm, Error> {
        self.lower_entry(0, options)
    }

    /// Lower the frontier entry at `index` (entries are in increasing step
    /// order: index 0 has the fewest steps, the last is the cheapest in
    /// bandwidth).
    pub fn lower_entry(
        &self,
        index: usize,
        options: LoweringOptions,
    ) -> Result<LoweredAlgorithm, Error> {
        let entry = self
            .report
            .entries
            .get(index)
            .ok_or_else(|| Error::NoSuchEntry {
                index,
                len: self.report.entries.len(),
                collective: self.report.collective,
                topology: self.report.topology_name.clone(),
            })?;
        let program = lower(&entry.algorithm, options);
        program.check_matching().map_err(Error::Program)?;
        Ok(LoweredAlgorithm {
            algorithm: entry.algorithm.clone(),
            program,
            options,
            topology: self.topology.clone(),
            cost_model: self.cost_model,
        })
    }
}

/// A frontier entry lowered to a rank program, ready for code generation or
/// simulation — the follow-on stage of the request/response chain.
#[derive(Clone, Debug)]
pub struct LoweredAlgorithm {
    /// The synthesized algorithm that was lowered.
    pub algorithm: Algorithm,
    /// Its SPMD rank program.
    pub program: Program,
    /// The lowering options that produced the program.
    pub options: LoweringOptions,
    topology: Topology,
    cost_model: CostModel,
}

impl LoweredAlgorithm {
    /// Generate CUDA-flavoured code for the program.
    pub fn cuda(&self) -> String {
        generate_cuda(&self.program)
    }

    /// Predicted execution time (µs) for an input of `input_bytes` bytes
    /// under the engine's (α, β) cost model.
    pub fn simulate(&self, input_bytes: u64) -> f64 {
        simulate_time(
            &self.algorithm,
            &self.topology,
            input_bytes,
            &self.cost_model,
            &self.options,
        )
    }
}

/// A request for a hydrated, size-switching [`CollectiveLibrary`].
#[derive(Clone, Debug)]
pub struct LibraryRequest {
    /// The machine the library targets.
    pub topology: Topology,
    /// The collectives it should serve.
    pub collectives: Vec<Collective>,
    /// Search configuration; `None` uses the engine's defaults.
    pub config: Option<SynthesisConfig>,
    /// Lowering options registered with every frontier entry; `None` uses
    /// the engine's defaults.
    pub lowering: Option<LoweringOptions>,
    /// `true` (default): synthesize whatever the cache is missing and
    /// persist it. `false`: hydrate from the cache only, reporting misses.
    pub solve_misses: bool,
}

impl LibraryRequest {
    /// A warm-library request (misses are synthesized and persisted).
    pub fn new(topology: &Topology, collectives: &[Collective]) -> Self {
        LibraryRequest {
            topology: topology.clone(),
            collectives: collectives.to_vec(),
            config: None,
            lowering: None,
            solve_misses: true,
        }
    }

    /// Override the search configuration.
    pub fn with_config(mut self, config: SynthesisConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Override the lowering options.
    pub fn with_lowering(mut self, lowering: LoweringOptions) -> Self {
        self.lowering = Some(lowering);
        self
    }

    /// Hydrate from the cache only; collectives without an entry are
    /// reported as misses instead of synthesized.
    pub fn cache_only(mut self) -> Self {
        self.solve_misses = false;
        self
    }
}

/// The engine's answer to a [`LibraryRequest`].
#[derive(Debug)]
pub struct LibraryResponse {
    /// The hydrated library.
    pub library: CollectiveLibrary,
    /// How many collectives had to be synthesized (cache misses that were
    /// solved).
    pub synthesized: usize,
    /// Collectives left unserved (only non-empty for cache-only requests).
    pub misses: Vec<Collective>,
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
    /// `None` = one worker per available core; an explicit count otherwise.
    /// `Some(0)` is representable but rejected by [`EngineBuilder::build`].
    threads: Option<usize>,
    mode: SolveMode,
    cost_model: CostModel,
    config: SynthesisConfig,
    lowering: LoweringOptions,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            cache_dir: None,
            cache_capacity: None,
            journal_dir: None,
            memo_capacity: Engine::DEFAULT_MEMO_CAPACITY,
            threads: None,
            mode: SolveMode::default(),
            cost_model: CostModel::nvlink(),
            config: SynthesisConfig::default(),
            lowering: LoweringOptions::default(),
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
    /// completes. Both solve modes checkpoint and resume: the merge is
    /// supplied in its own cursor order whichever thread decided a
    /// candidate, and a resumed parallel sweep starts its workers at the
    /// checkpoint's cursor.
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

    /// Worker threads for parallel solves. Not calling this (the default)
    /// means one worker per available core; an explicit `0` is rejected by
    /// [`EngineBuilder::build`] with [`Error::Config`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Default solve mode for requests that don't specify one.
    pub fn mode(mut self, mode: SolveMode) -> Self {
        self.mode = mode;
        self
    }

    /// Solve one candidate at a time by default.
    pub fn sequential(self) -> Self {
        self.mode(SolveMode::Sequential)
    }

    /// The (α, β) cost model used for library selection and simulation.
    pub fn cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Default search configuration for requests that don't carry one.
    pub fn synthesis_defaults(mut self, config: SynthesisConfig) -> Self {
        self.config = config;
        self
    }

    /// Default lowering options for library hydration (requests without an
    /// explicit [`LibraryRequest::lowering`]). The fluent
    /// [`SynthesisResponse::lower`] stage takes its options per call.
    pub fn lowering(mut self, lowering: LoweringOptions) -> Self {
        self.lowering = lowering;
        self
    }

    /// Build the engine, opening the cache directory if one was configured.
    ///
    /// Nonsense knob values are rejected with [`Error::Config`] rather than
    /// silently reinterpreted: an explicit `threads(0)` (a pool that could
    /// never solve anything), `cache_capacity(0)` (a cache evicted on every
    /// store) or `memo_capacity(0)` (a memo that retains nothing).
    pub fn build(self) -> Result<Engine, Error> {
        if self.threads == Some(0) {
            return Err(Error::Config {
                field: "threads",
                message: "0 worker threads cannot solve anything; omit threads() \
                          for one worker per core"
                    .to_string(),
            });
        }
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
            threads: self
                .threads
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            mode: self.mode,
            cost_model: self.cost_model,
            defaults: self.config,
            lowering: self.lowering,
            memo: Memo::new(self.memo_capacity),
        })
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// How the unified request path treats a cache miss.
#[derive(Clone, Copy, Debug)]
enum MissPolicy {
    /// Solve the problem (the normal serving path).
    Solve(SolveMode),
    /// Report the miss without solving (cache-only hydration).
    Skip,
}

/// A long-lived synthesis-serving handle: owns the worker-thread count,
/// the persistent cache, the memo of decided candidates and the cost
/// model, and serves single-shot, parallel, batch and library requests
/// through one path.
pub struct Engine {
    cache: Option<AlgorithmCache>,
    cache_capacity: Option<usize>,
    /// Crash-recovery journal: sweep checkpoints (written by the solve
    /// path, in either mode) plus the daemon's queue records.
    /// `None` unless [`EngineBuilder::journal_dir`] was configured.
    journal: Option<Arc<Journal>>,
    /// Worker threads of a parallel solve.
    threads: usize,
    mode: SolveMode,
    cost_model: CostModel,
    defaults: SynthesisConfig,
    lowering: LoweringOptions,
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

    /// The engine's (α, β) cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// The default solve mode for requests that don't specify one.
    pub fn mode(&self) -> SolveMode {
        self.mode
    }

    /// The engine's default search configuration.
    pub fn defaults(&self) -> &SynthesisConfig {
        &self.defaults
    }

    /// Serve one synthesis request: cache lookup, solve on miss (in the
    /// request's or engine's mode), persist, respond. A request deadline
    /// rides in the per-instance solver limits; once it passes, the
    /// response carries the partial frontier with
    /// [`SynthesisResponse::degraded`] set (see [`SynthesisRequest::deadline`]).
    pub fn synthesize(&self, request: SynthesisRequest) -> Result<SynthesisResponse, Error> {
        let mode = request.mode.unwrap_or(self.mode);
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
        let response = self.serve(
            &request.topology,
            request.collective,
            config,
            MissPolicy::Solve(mode),
        )?;
        let mut response = response.expect("a solving policy always produces a response");
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
            let served = self.serve(
                &job.topology,
                job.collective,
                config,
                MissPolicy::Solve(self.mode),
            );
            let (outcome, from_cache) = match served {
                Ok(Some(response)) => {
                    let from_cache = response.from_cache();
                    (Ok(Arc::unwrap_or_clone(response.report)), from_cache)
                }
                Ok(None) => unreachable!("a solving policy always produces a response"),
                Err(Error::Synthesis(e)) => (Err(e), false),
                Err(other) => {
                    unreachable!("the serve path only fails with synthesis errors, got {other}")
                }
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

    /// Hydrate (and optionally warm) a size-switching collective library
    /// through the same request path.
    pub fn library(&self, request: LibraryRequest) -> Result<LibraryResponse, Error> {
        let config = request.config.as_ref().unwrap_or(&self.defaults);
        let lowering = request.lowering.unwrap_or(self.lowering);
        let policy = if request.solve_misses {
            MissPolicy::Solve(self.mode)
        } else {
            MissPolicy::Skip
        };
        let mut library = CollectiveLibrary::new(request.topology.clone(), self.cost_model);
        let mut synthesized = 0;
        let mut misses = Vec::new();
        for &collective in &request.collectives {
            match self.serve(&request.topology, collective, config, policy)? {
                Some(response) => {
                    if !response.from_cache() {
                        synthesized += 1;
                    }
                    library.register_frontier(&response.report, lowering);
                }
                None => misses.push(collective),
            }
        }
        Ok(LibraryResponse {
            library,
            synthesized,
            misses,
        })
    }

    // -- the one code path -------------------------------------------------

    /// The unified request path.
    fn serve(
        &self,
        topology: &Topology,
        collective: Collective,
        config: &SynthesisConfig,
        policy: MissPolicy,
    ) -> Result<Option<SynthesisResponse>, Error> {
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
                return Ok(Some(SynthesisResponse {
                    report: Arc::clone(entry.report()),
                    provenance: Provenance::CacheHit,
                    timings,
                    incremental: None,
                    degraded: false,
                    topology: topology.clone(),
                    cost_model: self.cost_model,
                    resident: Some(entry),
                }));
            }
        }

        let mode = match policy {
            MissPolicy::Solve(mode) => mode,
            MissPolicy::Skip => return Ok(None),
        };
        let solve_start = Instant::now();
        // The base problem is computed exactly once per request (it clones
        // the topology, reverses it for inversion duals and searches it
        // for symmetries).
        let base = base_problem(topology, collective);
        let base_hash = CacheKey::new(&base.topology, base.collective, config).content_hash();
        // How this request decides a candidate, on whichever thread: the
        // memo's answer if an earlier sweep over the same base left one,
        // one fresh solve otherwise, which the memo then keeps.
        let stats = parking_lot::Mutex::new(IncrementalStats::default());
        let solve = |job: &CandidateJob, limits: Limits| -> SynthesisRun {
            let mut answered = IncrementalStats {
                pool_checkins: 1,
                ..Default::default()
            };
            let run = match self.memo.get(&base_hash, job) {
                Some(run) => {
                    answered.memo_hits = 1;
                    run
                }
                None => {
                    sccl_core::failpoint::fire("pool.solve");
                    let solve_start = Instant::now();
                    let run = base.solve(job, config, limits);
                    answered.cold_solve_time = solve_start.elapsed();
                    // A candidate cancelled before it was encoded took no
                    // solver.
                    answered.warm_candidates = u64::from(run.solves > 0);
                    answered.solve_calls = run.solves;
                    self.memo.put(&base_hash, job, &run);
                    run
                }
            };
            stats.lock().absorb(&answered);
            run
        };
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
        let limits = &config.per_instance_limits;
        let run_sweep = |answer: &mut dyn FnMut(&[CandidateJob], usize) -> SynthesisRun| {
            sweep(
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
                answer,
            )
        };
        let report = match mode {
            SolveMode::Sequential => {
                run_sweep(&mut |jobs, index| solve(&jobs[index], limits.clone()))
            }
            SolveMode::Parallel => with_workers(self.threads, limits, &solve, run_sweep),
        }?;
        if let Some((journal, hash)) = &checkpoint_key {
            journal.remove_checkpoint(hash);
        }
        let report = Arc::new(report);
        let incremental = stats.into_inner();
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
        Ok(Some(SynthesisResponse {
            report,
            provenance: Provenance::Solved(mode),
            timings,
            incremental: Some(incremental),
            degraded: false,
            topology: topology.clone(),
            cost_model: self.cost_model,
            resident,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn request_mode_overrides_engine_mode() {
        let engine = Engine::builder()
            .sequential()
            .synthesis_defaults(quick_config())
            .build()
            .expect("engine");
        let ring = builders::ring(4, 1);
        let seq = engine
            .synthesize(SynthesisRequest::new(&ring, Collective::Allgather))
            .expect("sequential");
        assert_eq!(seq.provenance, Provenance::Solved(SolveMode::Sequential));
        let par = engine
            .synthesize(SynthesisRequest::new(&ring, Collective::Allgather).parallel())
            .expect("parallel");
        assert_eq!(par.provenance, Provenance::Solved(SolveMode::Parallel));
        assert!(par.report.same_frontier(&seq.report));
    }

    #[test]
    fn an_unconfigured_engine_solves_sequentially() {
        let engine = Engine::builder().build().expect("engine");
        assert_eq!(engine.mode(), SolveMode::Sequential);
        let ring = builders::ring(4, 1);
        let response = engine
            .synthesize(SynthesisRequest::new(&ring, Collective::Allgather))
            .expect("solved");
        assert_eq!(
            response.provenance,
            Provenance::Solved(SolveMode::Sequential)
        );
    }

    #[test]
    fn sequential_serves_checkpoint_through_the_journal() {
        // (Named for the mode that checkpointed first; both do.)
        let ring = builders::ring(4, 1);
        // A sweep long enough to be interrupted in several places.
        let collective = Collective::Broadcast { root: 0 };
        let config = quick_config();
        let reference = Engine::builder()
            .sequential()
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
            |jobs, index| base.solve(&jobs[index], &config, Limits::none()),
        )
        .expect("uninterrupted sweep");
        assert!(interrupted.len() > 2, "{} checkpoints", interrupted.len());

        for mode in [SolveMode::Sequential, SolveMode::Parallel] {
            let dir = tmp_dir(&format!("journal-{mode:?}"));
            let engine = Engine::builder()
                .mode(mode)
                .threads(2)
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
                    "{mode:?}: a stale checkpoint must degrade to a cold start and a \
                     valid one resume, neither to a wrong frontier (checkpoint {seeded})"
                );
                // The stale checkpoint (0) restarts cold and persists the
                // whole sweep's progress; resuming from the i-th skips the
                // i candidates it had already decided.
                assert_eq!(
                    (attempts() - before) as usize,
                    interrupted.len() - seeded,
                    "{mode:?}, checkpoint {seeded}"
                );
                assert!(
                    journal.load_checkpoint(&hash).is_none(),
                    "checkpoint is consumed once the solve completes"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_sweep_checkpoints_every_candidate_but_its_last() {
        // The candidate that finishes a sweep writes no checkpoint: its
        // frontier is returned (and stored) next, so the write would
        // recover nothing. k decided candidates, k - 1 checkpoints; a
        // one-candidate sweep never touches the journal. In either mode:
        // workers may decide more candidates than the sweep reads, but
        // only what it reads is progress.
        for (topology, one_candidate) in [
            (builders::ring(4, 1), false),
            (builders::fully_connected(3, 1), true),
        ] {
            let mut read = None;
            for mode in [SolveMode::Sequential, SolveMode::Parallel] {
                let dir = tmp_dir(&format!("ckpt-count-{}-{mode:?}", topology.num_nodes()));
                let engine = Engine::builder()
                    .mode(mode)
                    .threads(2)
                    .synthesis_defaults(quick_config())
                    .journal_dir(&dir)
                    .build()
                    .expect("engine with journal");
                let served = engine
                    .synthesize(SynthesisRequest::new(&topology, Collective::Allgather))
                    .expect("journaled solve");
                // Sequentially, the candidates answered are the candidates
                // read; the parallel sweep reads the same ones.
                let answered = served.incremental.expect("solved").pool_checkins;
                let candidates = *read.get_or_insert(answered);
                assert!(answered >= candidates);
                assert_eq!(candidates == 1, one_candidate, "{candidates} candidates");
                let journal = engine.journal().expect("journal attached");
                // Attempts, not successes: the `journal.write` failpoint is
                // process-global and another test may hold it armed.
                assert_eq!(
                    journal.checkpoints_written() + journal.write_errors(),
                    candidates - 1,
                    "{mode:?}"
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
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
        // An explicit zero thread count can never solve anything.
        let err = build_err(Engine::builder().threads(0));
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "threads",
                    ..
                }
            ),
            "was: {err:?}"
        );
        assert!(err.to_string().contains("threads"), "was: {err}");
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
        // The default (no explicit threads) still means one per core.
        assert!(Engine::builder().build().is_ok());
        assert!(Engine::builder().threads(1).build().is_ok());
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
    fn lowering_an_empty_frontier_is_an_error() {
        let engine = Engine::builder()
            .synthesis_defaults(SynthesisConfig {
                max_steps: 1,
                max_chunks: 1,
                ..Default::default()
            })
            .build()
            .expect("engine");
        // A 4-ring Allgather needs at least 2 steps, so max_steps = 1
        // produces an empty frontier.
        let response = engine
            .synthesize(SynthesisRequest::new(
                &builders::ring(4, 1),
                Collective::Allgather,
            ))
            .expect("response");
        assert!(response.report.entries.is_empty());
        let err = response.lower(LoweringOptions::default()).unwrap_err();
        assert!(matches!(err, Error::NoSuchEntry { len: 0, .. }));
        assert!(err.to_string().contains("is empty"), "was: {err}");
    }

    #[test]
    fn lowering_an_out_of_range_entry_names_the_index() {
        let engine = Engine::builder()
            .synthesis_defaults(quick_config())
            .build()
            .expect("engine");
        let response = engine
            .synthesize(SynthesisRequest::new(
                &builders::ring(4, 1),
                Collective::Allgather,
            ))
            .expect("response");
        let len = response.report.entries.len();
        assert!(len > 0);
        let err = response
            .lower_entry(len + 3, LoweringOptions::default())
            .unwrap_err();
        // The error must not claim the frontier is empty — it isn't.
        assert!(matches!(err, Error::NoSuchEntry { .. }));
        assert!(err.to_string().contains("no entry"), "was: {err}");
        assert!(!err.to_string().contains("is empty"), "was: {err}");
    }

    #[test]
    fn solved_responses_carry_incremental_accounting() {
        let engine = Engine::builder()
            .synthesis_defaults(quick_config())
            .build()
            .expect("engine");
        let ring = builders::ring(4, 1);
        for request in [
            SynthesisRequest::new(&ring, Collective::Allgather).sequential(),
            SynthesisRequest::new(&ring, Collective::Allgather).parallel(),
        ] {
            let sequential = matches!(request.mode, Some(SolveMode::Sequential));
            let response = engine.synthesize(request).expect("solved");
            let inc = response.incremental.expect("solved responses carry stats");
            // The first (sequential) request decides its candidates by
            // fresh solves; the second is answered from the memo those
            // left behind.
            if sequential {
                assert!(inc.warm_candidates > 0 && inc.memo_hits == 0);
                assert!(inc.solve_calls >= inc.warm_candidates);
                // Only meaningful sequentially: parallel workers' solve
                // time is summed across threads (so it can exceed the
                // wall clock).
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

    #[test]
    fn cache_only_library_reports_misses_then_warm_fills_them() {
        let dir = tmp_dir("library");
        let engine = Engine::builder()
            .cache_dir(&dir)
            .threads(2)
            .synthesis_defaults(quick_config())
            .build()
            .expect("engine");
        let ring = builders::ring(4, 1);
        let wanted = [Collective::Allgather, Collective::ReduceScatter];

        let cold = engine
            .library(LibraryRequest::new(&ring, &wanted).cache_only())
            .expect("hydrate");
        assert_eq!(cold.misses, wanted.to_vec());
        assert!(cold.library.is_empty());

        let warm = engine
            .library(LibraryRequest::new(&ring, &wanted))
            .expect("warm");
        assert_eq!(warm.synthesized, 2);
        assert!(warm.misses.is_empty());
        assert!(warm.library.select(Collective::Allgather, 1024).is_some());

        // Everything is now served from the cache.
        let hot = engine
            .library(LibraryRequest::new(&ring, &wanted).cache_only())
            .expect("rehydrate");
        assert!(hot.misses.is_empty());
        assert_eq!(hot.synthesized, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
