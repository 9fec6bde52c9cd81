//! # sccl-solver
//!
//! A from-scratch CDCL SAT solver with pseudo-Boolean constraints and
//! order-encoded bounded integer variables.
//!
//! This crate is the decision-procedure substrate of the SCCL reproduction:
//! the paper ("Synthesizing Optimal Collective Algorithms", PPoPP 2021)
//! discharges its synthesis encoding to Z3's QF_LIA + pseudo-Boolean
//! fragment; every constraint the encoding generates (C1–C6 in §3.4) is over
//! Booleans, bounded integers and linear 0/1 sums, so this solver decides
//! exactly the same instances.
//!
//! ## Example
//!
//! ```
//! use sccl_solver::{Solver, IntVar};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var().positive();
//! let b = solver.new_var().positive();
//! solver.add_clause(&[a, b]);
//! solver.add_at_most_one(&[a, b]);
//! let x = IntVar::new(&mut solver, 0, 3);
//! x.assert_ge(&mut solver, 2);
//! let model = solver.solve().model().expect("satisfiable");
//! assert!(model.lit_value(a) ^ model.lit_value(b));
//! assert!(x.value_in(&model) >= 2);
//! ```

pub mod clause;
pub mod heap;
pub mod intvar;
pub mod luby;
pub mod model;
pub mod reference;
pub mod solver;
pub mod stats;
pub mod types;

pub use intvar::{add_linear_eq, IntVar};
pub use model::Model;
pub use reference::ReferenceFormula;
pub use solver::{Limits, SolveResult, Solver, SolverConfig};
pub use stats::SolverStats;
pub use types::{LBool, Lit, Var};
