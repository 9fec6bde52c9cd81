//! # sccl-baselines
//!
//! Hand-written collective algorithms used as comparison baselines in the
//! paper's evaluation: NCCL's 6-ring collectives on the DGX-1 and RCCL's
//! 2-ring collectives on the Gigabyte Z52 (§5.3, Table 3), plus classical
//! algorithms (recursive doubling) for additional experiments.
//!
//! All baselines are ordinary [`sccl_core::Algorithm`] values, so they are
//! validated, lowered, executed and simulated with exactly the same
//! machinery as synthesized algorithms.
//!
//! ```
//! use sccl_baselines::nccl;
//!
//! let allgather = nccl::nccl_allgather_dgx1();
//! // Table 3: (C, S, R) = (6, 7, 7).
//! assert_eq!(allgather.per_node_chunks, 6);
//! assert_eq!(allgather.num_steps(), 7);
//! assert_eq!(allgather.total_rounds(), 7);
//! ```

pub mod nccl;
pub mod rings;

pub use nccl::{
    amd_rings, dgx1_rings, nccl_allgather_dgx1, nccl_allreduce_dgx1, nccl_broadcast_dgx1,
    nccl_reduce_dgx1, nccl_reducescatter_dgx1, rccl_allgather_amd, rccl_allreduce_amd,
};
pub use rings::{
    pipelined_broadcast, pipelined_reduce, recursive_doubling_allgather, ring_allgather,
    ring_allreduce, ring_reducescatter, Ring,
};
