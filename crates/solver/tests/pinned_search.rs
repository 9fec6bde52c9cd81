//! The search itself, pinned: three formulas built through the public
//! `Solver` API alone (no encoder), with the exact number of conflicts,
//! propagations, pseudo-Boolean propagations, decisions and restarts the
//! solver spends on each.
//!
//! The counters are a fingerprint of every decision the search makes, so
//! a change that is meant to be *mechanical* — clause storage, watcher
//! lists, how a pseudo-Boolean reason is kept — must leave them exactly as
//! they are. A change that is meant to alter the search (a new heuristic,
//! clause minimization) updates the numbers here, on purpose and in its
//! own commit; one that shifts them by accident fails here instead of
//! moving `decided_share` on the benchmark ledger.

use sccl_solver::{Limits, Lit, Solver, SolverConfig, SolverStats};

/// SplitMix64: the formulas must not depend on any crate's generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// `(conflicts, propagations, pb_propagations, decisions, restarts)`.
type Counters = (u64, u64, u64, u64, u64);

fn counters(stats: &SolverStats) -> Counters {
    (
        stats.conflicts,
        stats.propagations,
        stats.pb_propagations,
        stats.decisions,
        stats.restarts,
    )
}

/// Eight pigeons into seven holes; "at most one pigeon per hole" stated as
/// pseudo-Boolean constraints, so refuting it runs on PB propagations, PB
/// conflicts and PB reasons in conflict analysis.
#[test]
fn pigeonhole_8_into_7_with_pb_at_most_one() {
    const HOLES: usize = 7;
    let mut solver = Solver::new();
    let x: Vec<Vec<Lit>> = (0..=HOLES)
        .map(|_| (0..HOLES).map(|_| solver.new_var().positive()).collect())
        .collect();
    for pigeon in &x {
        solver.add_clause(pigeon);
    }
    for hole in 0..HOLES {
        let column: Vec<Lit> = x.iter().map(|pigeon| pigeon[hole]).collect();
        solver.add_at_most_one(&column);
    }
    assert!(solver.solve().is_unsat());
    assert_eq!(counters(solver.stats()), (5721, 77666, 56221, 6890, 22));
}

/// A satisfiable random 3-SAT formula (every clause agrees with a planted
/// assignment) probed under 50 assumption sets of four literals on one
/// solver: assumption placement, failed-assumption analysis and learnt
/// clauses carried from probe to probe. The learnt-clause cap is lowered
/// so database reductions happen between probes.
#[test]
fn planted_3sat_under_50_assumption_probes() {
    const VARS: usize = 120;
    const CLAUSES: usize = 504;
    let mut rng = SplitMix64(0x5cc1_0001);
    let planted: Vec<bool> = (0..VARS).map(|_| rng.below(2) == 1).collect();
    let mut solver = Solver::with_config(SolverConfig {
        learnt_limit_start: 150,
        ..SolverConfig::default()
    });
    let vars: Vec<Lit> = (0..VARS).map(|_| solver.new_var().positive()).collect();
    let mut added = 0;
    while added < CLAUSES {
        let clause: Vec<Lit> = (0..3)
            .map(|_| {
                let v = rng.below(VARS as u64) as usize;
                if rng.below(2) == 1 {
                    vars[v]
                } else {
                    !vars[v]
                }
            })
            .collect();
        if clause.iter().any(|l| planted[l.var().index()] == l.sign()) {
            solver.add_clause(&clause);
            added += 1;
        }
    }
    let (mut sat, mut unsat) = (0, 0);
    for _ in 0..50 {
        let assumptions: Vec<Lit> = (0..4)
            .map(|_| {
                let v = rng.below(VARS as u64) as usize;
                if rng.below(2) == 1 {
                    vars[v]
                } else {
                    !vars[v]
                }
            })
            .collect();
        let result = solver.solve_under_assumptions(&assumptions, Limits::none());
        if result.is_sat() {
            sat += 1;
        } else {
            assert!(result.is_unsat());
            unsat += 1;
        }
    }
    assert!(solver.is_ok(), "the planted assignment still satisfies it");
    assert_eq!((sat, unsat), (40, 10));
    assert!(solver.stats().removed_clauses > 1_000, "reductions ran");
    assert_eq!(counters(solver.stats()), (1703, 53809, 0, 2998, 0));
}

/// A chain of weighted knapsacks: each layer must pack at least `demand`
/// weight into at most `capacity`, consecutive layers may not pick the
/// same item, and every item has a weighted budget down the chain. All
/// coefficients differ, so slack counting forces literals one weight class
/// at a time.
#[test]
fn weighted_pb_knapsack_chain() {
    const LAYERS: usize = 30;
    const ITEMS: usize = 10;
    let mut rng = SplitMix64(0x5cc1_0002);
    let mut solver = Solver::with_config(SolverConfig {
        learnt_limit_start: 300,
        ..SolverConfig::default()
    });
    let x: Vec<Vec<Lit>> = (0..LAYERS)
        .map(|_| (0..ITEMS).map(|_| solver.new_var().positive()).collect())
        .collect();
    for layer in &x {
        let weights: Vec<u64> = (0..ITEMS).map(|_| 2 + rng.below(9)).collect();
        let total: u64 = weights.iter().sum();
        let capacity = total / 2;
        let demand = capacity - 1;
        let packed: Vec<(u64, Lit)> = weights.iter().copied().zip(layer.iter().copied()).collect();
        solver.add_pb_le(&packed, capacity);
        // Σ w·x ≥ demand  ⇔  Σ w·¬x ≤ total − demand.
        let left_out: Vec<(u64, Lit)> = packed.iter().map(|&(w, l)| (w, !l)).collect();
        solver.add_pb_le(&left_out, total - demand);
    }
    for pair in x.windows(2) {
        for (&above, &below) in pair[0].iter().zip(&pair[1]) {
            solver.add_clause(&[!above, !below]);
        }
    }
    for item in 0..ITEMS {
        let column: Vec<(u64, Lit)> = x
            .iter()
            .map(|layer| (1 + rng.below(5), layer[item]))
            .collect();
        let total: u64 = column.iter().map(|&(w, _)| w).sum();
        solver.add_pb_le(&column, total / 3);
    }
    assert!(solver.solve().is_unsat());
    assert!(solver.stats().removed_clauses > 1_000, "reductions ran");
    assert_eq!(counters(solver.stats()), (3006, 57766, 30422, 4181, 13));
}
