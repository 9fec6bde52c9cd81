//! # sccl
//!
//! A from-scratch Rust reproduction of **"Synthesizing Optimal Collective
//! Algorithms"** (SCCL, PPoPP 2021): synthesis of latency- and
//! bandwidth-optimal collective communication algorithms for a given
//! hardware topology, plus the lowering, execution and benchmarking
//! infrastructure around it.
//!
//! The front door is [`Engine`]: a long-lived handle that owns the
//! persistent algorithm cache and the memo of decided candidates, and
//! serves typed [`SynthesisRequest`] → [`SynthesisResponse`] calls.
//! Single-shot and batch requests share one request path. The response's
//! frontier entries are plain algorithms: lowering ([`program`]),
//! simulation and size-based selection ([`runtime`]) take them directly.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`solver`] — CDCL SAT + pseudo-Boolean solver (the Z3 substitute).
//! * [`topology`] — hardware topology models (DGX-1, Gigabyte Z52, …).
//! * [`collectives`] — collective primitive specifications.
//! * [`core`] — the synthesis engine (encoding, Pareto search, inversion).
//! * [`program`] — rank-program IR, lowering and CUDA-flavoured codegen.
//! * [`runtime`] — threaded executor and (α, β) simulator.
//! * [`baselines`] — NCCL/RCCL-style ring algorithms.
//! * [`sched`] — the [`Engine`], its memo of decided candidates,
//!   persistent cache, batch manifests.
//! * [`hier`] — hierarchical process-group synthesis: partition a large
//!   topology into groups, compose per-level stage schedules through the
//!   engine, verify the stitched result against the pre/post relation.
//! * [`serve`] — the daemon serving layer: bounded queue, admission
//!   control, hot cache tier, metrics, Unix-socket wire protocol.
//!
//! ## Quickstart
//!
//! ```
//! use sccl::prelude::*;
//!
//! // A long-lived engine: add .cache_dir("...") to persist frontiers
//! // across processes.
//! let engine = Engine::builder().build().expect("engine");
//!
//! // Synthesize the Pareto frontier of Allgather algorithms for a 4-node
//! // ring, lower the fewest-steps entry, and emit CUDA-flavoured code.
//! let ring = sccl::topology::builders::ring(4, 1);
//! let config = SynthesisConfig { max_steps: 6, max_chunks: 4, ..Default::default() };
//! let response = engine
//!     .synthesize(SynthesisRequest::new(&ring, Collective::Allgather).with_config(config))
//!     .expect("synthesis succeeds");
//! assert!(!response.from_cache());
//!
//! let algorithm = &response.report.entries[0].algorithm;
//! let options = LoweringOptions::default();
//! let program = lower(algorithm, options);
//! assert!(generate_cuda(&program).contains("__global__"));
//! assert!(simulate_time(algorithm, &ring, 1 << 20, &CostModel::nvlink(), &options) > 0.0);
//! ```

pub use sccl_baselines as baselines;
pub use sccl_collectives as collectives;
pub use sccl_core as core;
pub use sccl_hier as hier;
pub use sccl_program as program;
pub use sccl_runtime as runtime;
pub use sccl_sched as sched;
pub use sccl_serve as serve;
pub use sccl_solver as solver;
pub use sccl_topology as topology;

pub use sccl_core::incremental::IncrementalStats;
pub use sccl_hier::{
    GroupSpec, HierEngineExt, HierError, HierRequest, HierResponse, HierarchicalAlgorithm,
};
pub use sccl_sched::{
    Engine, EngineBuilder, Error, Provenance, ResponseTimings, SolveMode, SynthesisRequest,
    SynthesisResponse,
};
pub use sccl_serve::{Daemon, ServeClient, ServeConfig, Server};

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use sccl_collectives::{ChunkRelation, Collective, CollectiveSpec};
    pub use sccl_core::pareto::{pareto_synthesize, SynthesisConfig, SynthesisReport};
    pub use sccl_core::{Algorithm, AlgorithmCost, CostModel, SendOp};
    pub use sccl_hier::{GroupSpec, HierEngineExt, HierRequest};
    pub use sccl_program::{generate_cuda, lower, LoweringOptions};
    pub use sccl_runtime::{execute, simulate_time, ExecutionConfig, ExecutionMode};
    pub use sccl_sched::{
        Engine, Error, Provenance, SolveMode, SynthesisRequest, SynthesisResponse,
    };
    pub use sccl_topology::{builders, Rational, Topology};
}
