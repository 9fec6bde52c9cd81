//! Search statistics reported by the solver.

/// Counters accumulated during one [`crate::Solver::solve`] call (and across
/// calls, since they are never reset automatically).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated (unit + pseudo-Boolean).
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clauses learnt and stored so far (cumulative; unit
    /// learnts become level-0 facts and are not counted). Subtract
    /// `removed_clauses` for the number currently retained.
    pub learnt_clauses: u64,
    /// Number of learnt clauses removed by database reduction.
    pub removed_clauses: u64,
    /// Number of problem clauses added by the user.
    pub original_clauses: u64,
    /// Number of pseudo-Boolean constraints added by the user.
    pub pb_constraints: u64,
    /// Number of conflicts caused by pseudo-Boolean constraints.
    pub pb_conflicts: u64,
    /// Number of literals propagated by pseudo-Boolean constraints.
    pub pb_propagations: u64,
    /// Number of `solve`/`solve_under_assumptions` calls answered.
    pub solve_calls: u64,
    /// Total assumption literals placed across all solve calls.
    pub assumptions: u64,
    /// Learnt clauses already in the database at the start of a solve call,
    /// summed over calls: the clause reuse an incremental caller gets for
    /// free relative to re-encoding from scratch.
    pub reused_clauses: u64,
}

impl SolverStats {
    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "decisions={} propagations={} conflicts={} restarts={} learnt={} pb_constraints={}",
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.learnt_clauses,
            self.pb_constraints
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_counts() {
        let stats = SolverStats {
            decisions: 10,
            conflicts: 3,
            ..Default::default()
        };
        let s = stats.summary();
        assert!(s.contains("decisions=10"));
        assert!(s.contains("conflicts=3"));
    }
}
