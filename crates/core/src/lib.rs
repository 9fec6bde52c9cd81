//! # sccl-core
//!
//! The synthesis engine of the SCCL reproduction ("Synthesizing Optimal
//! Collective Algorithms", PPoPP 2021): given a hardware topology and a
//! collective primitive, synthesize k-synchronous algorithms along the
//! Pareto frontier from latency-optimal to bandwidth-optimal.
//!
//! The pipeline mirrors the paper:
//!
//! 1. [`bounds`] computes the latency lower bound `a_l` (shortest-path
//!    distance) and bandwidth lower bound `b_l` (cut bound) of §3.7.
//! 2. [`encoding`] turns one SynColl instance `(G, S, R, P, B, pre, post)`
//!    into constraints C1–C6 (§3.4) over the [`sccl_solver`] CDCL +
//!    pseudo-Boolean solver, and decodes models into [`Algorithm`]s.
//! 3. [`pareto`] runs Algorithm 1, enumerating step counts and picking the
//!    cheapest-bandwidth feasible schedule per step count.
//! 4. [`combining`] derives Reduce/ReduceScatter by inversion and Allreduce
//!    as ReduceScatter followed by Allgather (§3.5).
//! 5. [`check`] replays a schedule under the run semantics of §3.3;
//!    `Algorithm::validate`, `validate_combining` and the serving and
//!    hierarchical verifiers are calls to it.
//!
//! Determinism: *one fresh solve per candidate*. Every sweep — plain,
//! memoized in the scheduler, resumed from a checkpoint — is
//! [`pareto::sweep`] and decides a candidate by one
//! [`encoding::synthesize`] of it (on the quotient of its formula under
//! the machine's symmetries first, on the full formula if that settles
//! nothing), a function of `(topology, instance, options, SolverConfig)`
//! alone; a memo only remembers what that function returned. Their
//! frontiers are therefore byte-identical by construction — see
//! [`pareto::BaseProblem::solve`]. [`incremental`] keeps the name of the
//! warm encoder of earlier sweeps as an adapter over [`encoding::synthesize`]
//! for the benchmark ledger; no sweep calls it.
//!
//! ```
//! use sccl_core::pareto::{pareto_synthesize, SynthesisConfig};
//! use sccl_collectives::Collective;
//! use sccl_topology::builders;
//!
//! let ring = builders::ring(4, 1);
//! let report = pareto_synthesize(&ring, Collective::Allgather, &SynthesisConfig::default())
//!     .expect("synthesis");
//! // The 4-ring Allgather frontier: a 2-step latency-optimal algorithm and
//! // a 3-step bandwidth-optimal one.
//! assert_eq!(report.entries.len(), 2);
//! assert_eq!(report.latency_lower_bound, 2);
//! ```

pub mod algorithm;
pub mod analysis;
pub mod bounds;
pub mod check;
pub mod combining;
pub mod cost;
pub mod encoding;
pub mod failpoint;
pub mod incremental;
pub mod pareto;
mod symmetry;

pub use algorithm::{Algorithm, Send, SendOp, ValidationError};
pub use analysis::LinkUtilization;
pub use cost::{AlgorithmCost, CostModel};
pub use encoding::{
    synthesize, synthesize_naive, EncodingOptions, EncodingStats, SynCollInstance,
    SynthesisOutcome, SynthesisRun,
};
pub use pareto::{
    pareto_synthesize, FrontierEntry, Optimality, SynthesisConfig, SynthesisError, SynthesisReport,
};
