//! Property-based tests: the CDCL solver against the exhaustive reference
//! solver on random formulas.

use proptest::prelude::*;
use sccl_solver::{Limits, Lit, ReferenceFormula, SolveResult, Solver, SolverConfig, Var};

/// Strategy: a random clause over `num_vars` variables with 1..=max_len
/// literals.
fn clause_strategy(num_vars: usize, max_len: usize) -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0..num_vars, any::<bool>()), 1..=max_len)
}

fn to_lits(clause: &[(usize, bool)]) -> Vec<Lit> {
    clause
        .iter()
        .map(|&(v, sign)| Lit::new(Var::from_index(v), sign))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SAT/UNSAT verdicts agree with exhaustive enumeration, and returned
    /// models satisfy every clause.
    #[test]
    fn cdcl_agrees_with_reference_on_random_cnf(
        clauses in prop::collection::vec(clause_strategy(8, 4), 1..40)
    ) {
        let num_vars = 8;
        let mut reference = ReferenceFormula::new(num_vars);
        let mut solver = Solver::new();
        for _ in 0..num_vars {
            solver.new_var();
        }
        for clause in &clauses {
            let lits = to_lits(clause);
            reference.add_clause(&lits);
            solver.add_clause(&lits);
        }
        let expected_sat = reference.solve_exhaustive().is_some();
        match solver.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(expected_sat, "solver found a model for an UNSAT formula");
                prop_assert!(reference.check_model(&model), "model violates a clause");
            }
            SolveResult::Unsat => prop_assert!(!expected_sat, "solver claims UNSAT for a SAT formula"),
            SolveResult::Unknown => prop_assert!(false, "no limits were set"),
        }
    }

    /// Same agreement when pseudo-Boolean constraints are mixed in.
    #[test]
    fn cdcl_agrees_with_reference_on_random_pb(
        clauses in prop::collection::vec(clause_strategy(7, 3), 0..15),
        pbs in prop::collection::vec(
            (prop::collection::vec((1u64..4, 0usize..7, any::<bool>()), 1..6), 0u64..8),
            1..6
        )
    ) {
        let num_vars = 7;
        let mut reference = ReferenceFormula::new(num_vars);
        let mut solver = Solver::new();
        for _ in 0..num_vars {
            solver.new_var();
        }
        for clause in &clauses {
            let lits = to_lits(clause);
            reference.add_clause(&lits);
            solver.add_clause(&lits);
        }
        for (terms, bound) in &pbs {
            let t = to_terms(terms);
            reference.add_pb_le(&t, *bound);
            solver.add_pb_le(&t, *bound);
        }
        let expected_sat = reference.solve_exhaustive().is_some();
        match solver.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(expected_sat, "solver found a model for an UNSAT formula");
                prop_assert!(reference.check_model(&model), "model violates a constraint");
            }
            SolveResult::Unsat => prop_assert!(!expected_sat, "solver claims UNSAT for a SAT formula"),
            SolveResult::Unknown => prop_assert!(false, "no limits were set"),
        }
    }

    /// Whatever the configuration (learning or VSIDS disabled, different
    /// polarity), verdicts do not change.
    #[test]
    fn solver_configurations_agree(
        clauses in prop::collection::vec(clause_strategy(6, 3), 1..25)
    ) {
        let configs = [
            SolverConfig::default(),
            SolverConfig { clause_learning: false, ..Default::default() },
            SolverConfig { vsids: false, ..Default::default() },
            SolverConfig { default_polarity: true, phase_saving: false, ..Default::default() },
        ];
        let mut verdicts = Vec::new();
        for config in configs {
            let mut solver = Solver::with_config(config);
            for _ in 0..6 {
                solver.new_var();
            }
            for clause in &clauses {
                solver.add_clause(&to_lits(clause));
            }
            verdicts.push(solver.solve().is_sat());
        }
        prop_assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "verdicts differ: {verdicts:?}");
    }

    /// Exactly-one constraints produce exactly one true literal.
    #[test]
    fn exactly_one_invariant(n in 2usize..10, forced in prop::option::of(0usize..10)) {
        let mut solver = Solver::new();
        let lits: Vec<Lit> = (0..n).map(|_| solver.new_var().positive()).collect();
        solver.add_exactly_one(&lits);
        if let Some(f) = forced {
            if f < n {
                solver.add_clause(&[lits[f]]);
            }
        }
        let model = solver.solve().model().expect("exactly-one is satisfiable");
        let count = lits.iter().filter(|&&l| model.lit_value(l)).count();
        prop_assert_eq!(count, 1);
        if let Some(f) = forced {
            if f < n {
                prop_assert!(model.lit_value(lits[f]));
            }
        }
    }
}

/// One step of an incremental session: constraints added to the live
/// solver, then an assumption set to solve under.
type Round = (
    Vec<Vec<(usize, bool)>>,
    Vec<(Vec<(u64, usize, bool)>, u64)>,
    Vec<(usize, bool)>,
);

fn pb_strategy(num_vars: usize) -> impl Strategy<Value = (Vec<(u64, usize, bool)>, u64)> {
    (
        prop::collection::vec((1u64..6, 0..num_vars, any::<bool>()), 1..6),
        0u64..10,
    )
}

fn to_terms(terms: &[(u64, usize, bool)]) -> Vec<(u64, Lit)> {
    terms
        .iter()
        .map(|&(c, v, sign)| (c, Lit::new(Var::from_index(v), sign)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The incremental interface against the reference: one solver lives
    /// through several rounds of "add clauses and weighted PB constraints,
    /// then solve under a fresh assumption set". Every verdict agrees with
    /// exhaustive enumeration of formula ∧ assumptions, every model
    /// satisfies both, and every failed-assumption core is a subset of the
    /// assumptions that the reference refutes on its own — the contract
    /// the warm Pareto sweep's `rounds_independent_unsat` rests on.
    #[test]
    fn assumption_solves_agree_with_reference_across_one_solver_lifetime(
        clauses in prop::collection::vec(clause_strategy(8, 3), 0..12),
        pbs in prop::collection::vec(pb_strategy(8), 0..4),
        rounds in prop::collection::vec(
            (
                prop::collection::vec(clause_strategy(8, 3), 0..3),
                prop::collection::vec(pb_strategy(8), 0..2),
                prop::collection::vec((0usize..8, any::<bool>()), 0..6),
            ),
            2..7
        )
    ) {
        let num_vars = 8;
        let mut reference = ReferenceFormula::new(num_vars);
        let mut solver = Solver::new();
        for _ in 0..num_vars {
            solver.new_var();
        }
        // The initial formula is round zero with an empty assumption set.
        let session: Vec<Round> = std::iter::once((clauses.clone(), pbs.clone(), Vec::new()))
            .chain(rounds.iter().cloned())
            .collect();
        for (clauses, pbs, assumed) in &session {
            for clause in clauses {
                let lits = to_lits(clause);
                reference.add_clause(&lits);
                solver.add_clause(&lits);
            }
            for (terms, bound) in pbs {
                let terms = to_terms(terms);
                reference.add_pb_le(&terms, *bound);
                solver.add_pb_le(&terms, *bound);
            }
            let assumptions = to_lits(assumed);
            let mut under = reference.clone();
            for &a in &assumptions {
                under.add_clause(&[a]);
            }
            let expected_sat = under.solve_exhaustive().is_some();
            match solver.solve_under_assumptions(&assumptions, Limits::none()) {
                SolveResult::Sat(model) => {
                    prop_assert!(expected_sat, "model found for an UNSAT formula under {assumptions:?}");
                    prop_assert!(under.check_model(&model), "model violates formula or assumptions");
                    prop_assert!(solver.failed_assumptions().is_empty());
                }
                SolveResult::Unsat => {
                    prop_assert!(!expected_sat, "UNSAT claimed for a SAT formula under {assumptions:?}");
                    let core = solver.failed_assumptions().to_vec();
                    prop_assert!(
                        core.iter().all(|l| assumptions.contains(l)),
                        "core {core:?} leaves the assumptions {assumptions:?}"
                    );
                    let mut core_only = reference.clone();
                    for &l in &core {
                        core_only.add_clause(&[l]);
                    }
                    prop_assert!(
                        core_only.solve_exhaustive().is_none(),
                        "core {core:?} is satisfiable with the formula"
                    );
                    // An empty core means the formula itself is refuted.
                    prop_assert_eq!(core.is_empty(), !solver.is_ok());
                }
                SolveResult::Unknown => prop_assert!(false, "no limits were set"),
            }
        }
    }
}
