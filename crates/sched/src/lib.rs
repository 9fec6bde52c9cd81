//! # sccl-sched
//!
//! The serving layer of the SCCL reproduction: the [`Engine`] — one
//! request/response API over synthesis, caching, scheduling and lowering —
//! plus the machinery underneath it.
//!
//! Layers:
//!
//! * [`engine`] — the [`Engine`]: a long-lived handle (built via
//!   [`Engine::builder`]) that owns the worker-thread count, the
//!   persistent [`AlgorithmCache`], the [`Memo`] and the cost model, and
//!   serves [`SynthesisRequest`] → [`SynthesisResponse`] calls.
//!   Single-shot, parallel, batch and library requests are one code path
//!   differing only in policy; responses chain into lowering, code
//!   generation and simulation. It is the only way into this crate's
//!   synthesis: every request runs `sccl_core::pareto::sweep` once.
//! * [`memo`] — what the engine keeps between requests: per base problem,
//!   the runs that decided its candidates, in one bounded map. A second
//!   request over the same base (an Allreduce after an Allgather) is
//!   answered without a solver.
//! * `parallel` (private) — worker threads as the sweep's answer source:
//!   candidate `(S, R, C)` instances are solved ahead of the merge on
//!   `std::thread` workers with cooperative cancellation plumbed into the
//!   CDCL solver; the sweep that reads them is the sequential mode's, so
//!   the frontier is too.
//! * [`cache`] — a persistent, content-addressed algorithm cache: SHA-256
//!   of the canonical `(encoder version, topology, collective,
//!   SynthesisConfig)` JSON keys on-disk `SynthesisReport` blobs with an
//!   in-memory index, so nothing is ever synthesized twice.
//! * [`journal`] — the crash-recovery journal: sweep checkpoints and the
//!   daemon's queue records.
//! * [`batch`] — manifest parsing/rendering (text and JSON) and the batch
//!   report types.
//!
//! ## Example
//!
//! ```
//! use sccl_sched::{Engine, SynthesisRequest};
//! use sccl_core::pareto::{pareto_synthesize, SynthesisConfig};
//! use sccl_collectives::Collective;
//! use sccl_topology::builders;
//!
//! let engine = Engine::builder().threads(2).build().expect("engine");
//! let ring = builders::ring(4, 1);
//! let config = SynthesisConfig { max_steps: 6, max_chunks: 4, ..Default::default() };
//! let response = engine
//!     .synthesize(
//!         SynthesisRequest::new(&ring, Collective::Allgather).with_config(config.clone()),
//!     )
//!     .expect("synthesis succeeds");
//! let sequential = pareto_synthesize(&ring, Collective::Allgather, &config).unwrap();
//! assert!(response.report.same_frontier(&sequential));
//! ```

pub mod batch;
pub mod cache;
pub mod engine;
pub mod journal;
pub mod memo;
mod parallel;
mod sha256;

pub use batch::{
    parse_manifest, render_manifest, render_manifest_json, BatchJob, BatchReport, BatchResult,
    ManifestError, SolveMode,
};
pub use cache::{AlgorithmCache, CacheKey, CacheStats, CachedReport};
pub use engine::{
    Engine, EngineBuilder, Error, LibraryRequest, LibraryResponse, LoweredAlgorithm, Provenance,
    ResponseTimings, SynthesisRequest, SynthesisResponse,
};
pub use journal::{Journal, QueueRecord};
pub use memo::Memo;
pub use sccl_core::incremental::IncrementalStats;
