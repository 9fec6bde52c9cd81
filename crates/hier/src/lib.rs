//! Hierarchical process-group synthesis: break the node-count wall by
//! composing per-group schedules instead of solving the full machine.
//!
//! Flat SAT synthesis tops out at a dozen-odd nodes; real machines have
//! hundreds. This crate carves a large topology into *process groups*
//! ([`partition`]), plans a collective as per-level stages solved through
//! the existing [`sccl_sched::Engine`] ([`plan`]) — so its memo of
//! decided candidates, the on-disk cache and any serving tier apply per
//! group — and re-checks the
//! stitched schedule chunk-by-chunk against the collective's pre/post
//! relation and the full machine's bandwidth constraints ([`verify`]).
//!
//! ```no_run
//! use sccl_hier::{HierEngineExt, HierRequest};
//! use sccl_sched::Engine;
//! use sccl_topology::builders;
//! use sccl_collectives::Collective;
//!
//! let engine = Engine::builder().build().unwrap();
//! let topology = builders::ring_of_rings(8, 8, 2, 1);
//! let response = engine
//!     .synthesize_hier(HierRequest::new(&topology, Collective::Allgather))
//!     .unwrap();
//! println!("{} stages, cost {:?}", response.algorithm.stages.len(),
//!          response.algorithm.cost());
//! ```

pub mod partition;
pub mod plan;
pub mod verify;

pub use partition::{Group, GroupSpec, Partition, PartitionError};
pub use plan::{
    synthesize_hier, ComposedStage, EntryPick, HierEngineExt, HierError, HierRequest, HierResponse,
    HierStats, HierSummary, HierTimings, HierarchicalAlgorithm, PartitionSummary, StageLevel,
    StageSummary,
};
pub use verify::{verify_composition, CompositionError};
