//! [`IncrementalEncoder`], an adapter over one fresh
//! [`synthesize`](crate::encoding::synthesize) per candidate under the name
//! of the retired warm encoder, and [`IncrementalStats`], the accounting
//! type the scheduler's responses carry.
//!
//! Sweeps once decided their candidates on one long-lived solver per
//! `(topology, collective, C)`. Every sweep now decides each candidate on a
//! fresh formula from the one emitter in [`crate::encoding`] (see
//! [`BaseProblem::solve`](crate::pareto::BaseProblem::solve)), and nothing
//! calls the adapter but the frozen benchmark ledger's `core.incremental.*`
//! and `solver.*` replays and `core/tests/proptest_synthesis.rs`, which
//! name it. Its [`solve_candidate`](IncrementalEncoder::solve_candidate)
//! returns exactly the run `synthesize` returns and carries nothing to the
//! next candidate. The benchmark re-cut that drops those metrics deletes it.

use crate::encoding::{
    quotient_group, synthesize_on, EncodingOptions, EncodingStats, SynCollInstance, SynthesisRun,
};
use sccl_collectives::CollectiveSpec;
use sccl_solver::{Limits, SolverConfig, SolverStats};
use sccl_topology::Topology;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Aggregated accounting of a synthesis sweep, surfaced through the
/// scheduler's responses and the benchmarks. The name and the fields that
/// now read zero are from when sweeps ran on warm encoders; the benchmark
/// ledger reads them, so they stay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IncrementalStats {
    /// Always zero (time spent building warm encodings).
    pub encode_time: Duration,
    /// Always zero (time spent in warm assumption solves).
    pub warm_solve_time: Duration,
    /// Wall-clock time of the fresh-formula runs (encode + solve) that
    /// decided the sweep's candidates: all of a sweep but its memo hits.
    pub cold_solve_time: Duration,
    /// Candidates decided by a solver, as opposed to a memo.
    pub warm_candidates: u64,
    /// Always zero (warm base encodings built).
    pub base_encodings: u64,
    /// Solver runs those candidates took: one each, two where a candidate's
    /// quotient under the machine's symmetries settled nothing and the full
    /// formula was solved as well (see "Symmetry" in [`crate::encoding`]).
    pub solve_calls: u64,
    /// Always zero (learnt clauses carried between warm solves).
    pub reused_clauses: u64,
    /// Always zero: the lexicographic decode that issued these probes is
    /// gone. The field stays because the benchmark ledger reads it.
    pub canonical_probes: u64,
    /// Always zero (probes a warm encoder answered from a failed core).
    pub core_skips: u64,
    /// Candidates answered from the scheduler's memo without a solve (a
    /// previous sweep over the same base problem already decided them).
    pub memo_hits: u64,
    /// Always zero (warm probes handed to a fresh solver).
    pub cold_fallbacks: u64,
    /// Candidates the scheduler answered, from its memo or a solver (the
    /// name is from when each borrowed a pool from a registry; zero for
    /// the standalone sequential driver).
    pub pool_checkins: u64,
}

impl IncrementalStats {
    /// Fold another accounting into this one.
    pub fn absorb(&mut self, other: &IncrementalStats) {
        self.encode_time += other.encode_time;
        self.warm_solve_time += other.warm_solve_time;
        self.cold_solve_time += other.cold_solve_time;
        self.warm_candidates += other.warm_candidates;
        self.base_encodings += other.base_encodings;
        self.solve_calls += other.solve_calls;
        self.reused_clauses += other.reused_clauses;
        self.canonical_probes += other.canonical_probes;
        self.core_skips += other.core_skips;
        self.memo_hits += other.memo_hits;
        self.cold_fallbacks += other.cold_fallbacks;
        self.pool_checkins += other.pool_checkins;
    }
}

/// `(S, R)` candidates of one `(topology, collective, C)` problem, each
/// decided by a fresh [`synthesize`](crate::encoding::synthesize).
pub struct IncrementalEncoder {
    topology: Topology,
    /// The [`quotient_group`] of the machine, searched once.
    group: Vec<Vec<usize>>,
    spec: CollectiveSpec,
    per_node_chunks: usize,
    max_steps: usize,
    /// The k-synchronous slack: candidates must satisfy `R ≤ S + k`.
    max_extra_rounds: u64,
    options: EncodingOptions,
    solver_config: SolverConfig,
    /// Conflicts and propagations of every run so far.
    stats: SolverStats,
    /// The formula size of the last run.
    encoding: EncodingStats,
}

impl IncrementalEncoder {
    /// Take `spec` on `topology` for candidates of up to `max_steps` steps
    /// and at most `max_extra_rounds` rounds beyond the step count (the
    /// k-synchronous `k`).
    pub fn new(
        topology: &Topology,
        spec: CollectiveSpec,
        per_node_chunks: usize,
        max_steps: usize,
        max_extra_rounds: u64,
        options: &EncodingOptions,
        solver_config: SolverConfig,
    ) -> Self {
        IncrementalEncoder {
            topology: topology.clone(),
            group: quotient_group(topology, spec.collective),
            spec,
            per_node_chunks,
            max_steps,
            max_extra_rounds,
            options: options.clone(),
            solver_config,
            stats: SolverStats::default(),
            encoding: EncodingStats::default(),
        }
    }

    /// The search effort of every candidate so far: `conflicts` and
    /// `propagations` are summed over the runs, the other fields read zero.
    pub fn solver_stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The size of the last formula solved (see [`SynthesisRun::encoding`]).
    pub fn encoding_stats(&self) -> EncodingStats {
        self.encoding
    }

    /// Decide one `(S, R)` candidate: the run
    /// [`synthesize`](crate::encoding::synthesize) returns for it.
    pub fn solve_candidate(
        &mut self,
        num_steps: usize,
        num_rounds: u64,
        limits: Limits,
    ) -> SynthesisRun {
        assert!(
            num_steps <= self.max_steps,
            "candidate steps {num_steps} exceed the encoder horizon {}",
            self.max_steps
        );
        assert!(
            num_rounds <= num_steps as u64 + self.max_extra_rounds,
            "candidate rounds {num_rounds} exceed the k-synchronous bound S + {}",
            self.max_extra_rounds
        );
        let instance = SynCollInstance {
            spec: self.spec.clone(),
            per_node_chunks: self.per_node_chunks,
            num_steps,
            num_rounds,
        };
        let run = synthesize_on(
            &self.topology,
            &self.group,
            &instance,
            &self.options,
            self.solver_config.clone(),
            limits,
        );
        self.stats.conflicts += run.conflicts;
        self.stats.propagations += run.propagations;
        self.encoding = run.encoding;
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::synthesize;
    use sccl_collectives::Collective;
    use sccl_topology::builders;

    /// The adapter answers a candidate as `synthesize` does, whichever
    /// formulas decide it, and carries nothing from one run to the next.
    #[test]
    fn candidates_are_synthesize_runs() {
        let dgx1 = builders::dgx1();
        // (collective, C, S, R, formulas solved): a refuted quotient and
        // then the full formula, a quotient that settles the candidate, and
        // a rooted collective with no quotient at all.
        for (collective, c, s, r, solves) in [
            (Collective::Allgather, 3, 2, 4, 2),
            (Collective::Alltoall, 8, 3, 3, 1),
            (Collective::Gather { root: 0 }, 6, 7, 7, 1),
        ] {
            let spec = collective.spec(8, c);
            let reference = synthesize(
                &dgx1,
                &SynCollInstance {
                    spec: spec.clone(),
                    per_node_chunks: c,
                    num_steps: s,
                    num_rounds: r,
                },
                &EncodingOptions::default(),
                SolverConfig::default(),
                Limits::none(),
            );
            assert_eq!(reference.solves, solves, "{collective}");
            let mut encoder = IncrementalEncoder::new(
                &dgx1,
                spec,
                c,
                s,
                r - s as u64,
                &EncodingOptions::default(),
                SolverConfig::default(),
            );
            for _ in 0..2 {
                let run = encoder.solve_candidate(s, r, Limits::none());
                assert_eq!(
                    (run.solves, run.encoding, run.conflicts, run.propagations),
                    (
                        reference.solves,
                        reference.encoding,
                        reference.conflicts,
                        reference.propagations
                    ),
                    "{collective}"
                );
                assert_eq!(run.outcome.is_sat(), reference.outcome.is_sat());
                assert_eq!(
                    run.outcome.algorithm(),
                    reference.outcome.clone().algorithm()
                );
                assert_eq!(encoder.encoding_stats(), reference.encoding);
            }
            let stats = encoder.solver_stats();
            assert_eq!(
                (stats.conflicts, stats.propagations),
                (2 * reference.conflicts, 2 * reference.propagations),
                "{collective}"
            );
        }
    }
}
