//! # sccl-topology
//!
//! Hardware topology models for SCCL synthesis.
//!
//! A [`Topology`] is a set of nodes plus the bandwidth relation `B` of the
//! paper (§3.2.1): constraints `(L, b)` limiting the number of chunks that
//! may cross a set of directed edges `L` in one round. The crate provides
//! the two machines evaluated in the paper — the NVIDIA DGX-1
//! ([`builders::dgx1`]) and the Gigabyte Z52 AMD system
//! ([`builders::amd_z52`]) — along with standard families (rings, chains,
//! stars, hypercubes, meshes, fully-connected graphs) and the metrics the
//! Pareto synthesis procedure needs: diameter and cut-based bandwidth lower
//! bounds.
//!
//! ```
//! use sccl_topology::builders;
//!
//! let dgx1 = builders::dgx1();
//! assert_eq!(dgx1.num_nodes(), 8);
//! assert_eq!(dgx1.diameter(), Some(2));
//! // Every GPU has six NVLink units of ingress bandwidth.
//! assert_eq!(dgx1.in_bandwidth(0), 6);
//! ```

pub mod builders;
pub mod metrics;
pub mod model;
pub mod rational;
pub mod symmetry;

pub use model::{BandwidthConstraint, Edge, Topology};
pub use rational::Rational;
