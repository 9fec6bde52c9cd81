//! The engine's memo of decided candidates: one bounded map.
//!
//! What a long-lived engine keeps between requests is, per base problem
//! (keyed by the content hash of `(base topology, base collective,
//! config)`), the runs that decided its candidates: `(C, S, R)` → the
//! [`SynthesisRun`] that [`BaseProblem::solve`] returned. Requests that
//! reduce to the same base — Allgather and Allreduce on one machine, a
//! parallel sweep after a sequential one — share it, reuse the report
//! cache cannot see because the requests have distinct cache keys.
//!
//! There is no protocol: [`Memo::get`] before a solve, [`Memo::put`] after
//! it, one mutex held for the length of a map operation and never while a
//! solver runs. Two workers that race on one candidate both solve it and
//! both store the same bytes. `Unknown` outcomes — out of budget,
//! cancelled — are never stored, and a solve that panics never reaches
//! `put`, so nothing can leave the memo half-updated.
//!
//! The memo is bounded by what it retains, not by entry count: a run
//! weighs one cell plus one per send of its schedule, and once the stored
//! total exceeds the capacity
//! ([`EngineBuilder::memo_capacity`](crate::EngineBuilder::memo_capacity))
//! whole base problems are evicted, least recently used first. The base
//! problem of the latest `put` always survives, so a capacity below one
//! base's weight degrades to keep-newest rather than thrashing to empty.
//!
//! [`BaseProblem::solve`]: sccl_core::pareto::BaseProblem::solve

use parking_lot::Mutex;
use sccl_core::encoding::{SynthesisOutcome, SynthesisRun};
use sccl_core::pareto::CandidateJob;
use std::collections::HashMap;

/// The decided candidates of one base problem.
#[derive(Default)]
struct Base {
    /// Recency: the memo's tick at the last `get` or `put` that touched
    /// this base.
    tick: u64,
    /// Cells the runs below weigh.
    weight: usize,
    /// `(C, S, R)` → the run that decided the candidate.
    runs: HashMap<(usize, usize, u64), SynthesisRun>,
}

#[derive(Default)]
struct Inner {
    tick: u64,
    /// Cells stored, summed over every base.
    weight: usize,
    bases: HashMap<String, Base>,
}

/// The shared, bounded memo of decided candidates (see the module docs).
pub struct Memo {
    capacity: usize,
    inner: Mutex<Inner>,
}

fn key(job: &CandidateJob) -> (usize, usize, u64) {
    (job.chunks, job.steps, job.rounds)
}

/// What a run retains, in cells: one for the verdict plus one per send of
/// a schedule.
fn weigh(run: &SynthesisRun) -> usize {
    match &run.outcome {
        SynthesisOutcome::Satisfiable(algorithm) => 1 + algorithm.sends.len(),
        _ => 1,
    }
}

impl Memo {
    /// An empty memo bounded to `capacity` cells.
    pub fn new(capacity: usize) -> Self {
        Memo {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The run that decided `job` for the base problem hashing to `base`,
    /// if some sweep stored one.
    pub fn get(&self, base: &str, job: &CandidateJob) -> Option<SynthesisRun> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.bases.get_mut(base)?;
        entry.tick = tick;
        entry.runs.get(&key(job)).cloned()
    }

    /// Remember that `run` decided `job`; an `Unknown` run decided nothing
    /// and is dropped. Storing a candidate again replaces its run and its
    /// weight. Evicts least-recently-used base problems, never `base`
    /// itself, while the stored weight exceeds the capacity.
    pub fn put(&self, base: &str, job: &CandidateJob, run: &SynthesisRun) {
        if matches!(run.outcome, SynthesisOutcome::Unknown) {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.bases.entry(base.to_owned()).or_default();
        entry.tick = tick;
        let replaced = entry.runs.insert(key(job), run.clone());
        let (added, removed) = (weigh(run), replaced.as_ref().map_or(0, weigh));
        entry.weight = entry.weight + added - removed;
        inner.weight = inner.weight + added - removed;
        while inner.weight > self.capacity && inner.bases.len() > 1 {
            // `base` carries the newest tick, so it is never the minimum.
            let oldest = inner
                .bases
                .iter()
                .min_by_key(|(_, entry)| entry.tick)
                .map(|(hash, _)| hash.clone())
                .expect("more than one base is stored");
            let evicted = inner.bases.remove(&oldest).expect("just found");
            inner.weight -= evicted.weight;
        }
    }

    /// Base problems currently stored.
    pub fn len(&self) -> usize {
        self.inner.lock().bases.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cells currently stored — the quantity the capacity bounds.
    pub fn weight(&self) -> usize {
        self.inner.lock().weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, SynthesisRequest};
    use sccl_collectives::Collective;
    use sccl_core::encoding::synthesize;
    use sccl_core::pareto::{base_problem, BaseProblem, SynthesisConfig};
    use sccl_solver::Limits;
    use sccl_topology::builders;
    use std::time::Duration;

    fn ring4() -> (BaseProblem, SynthesisConfig) {
        let base = base_problem(&builders::ring(4, 1), Collective::Allgather);
        let config = SynthesisConfig {
            max_steps: 6,
            max_chunks: 4,
            ..Default::default()
        };
        (base, config)
    }

    fn job(steps: usize, rounds: u64, chunks: usize) -> CandidateJob {
        CandidateJob {
            index: 0,
            steps,
            rounds,
            chunks,
        }
    }

    /// Solve `job` on the 4-ring and store it under `hash`.
    fn solve_into(memo: &Memo, hash: &str, job: &CandidateJob) -> SynthesisRun {
        let (base, config) = ring4();
        let run = base.solve(job, &config, Limits::none());
        memo.put(hash, job, &run);
        run
    }

    /// A capacity comfortably above anything this suite stores, so tests
    /// about sharing never trip eviction.
    const ROOMY: usize = 64 << 20;

    #[test]
    fn decided_runs_survive_across_requests_and_answer_without_a_solver() {
        let memo = Memo::new(ROOMY);
        assert!(memo.get("ring4", &job(2, 2, 1)).is_none());
        let solved = solve_into(&memo, "ring4", &job(2, 2, 1));
        assert!(solved.outcome.is_sat());
        assert_eq!(memo.len(), 1);
        let remembered = memo.get("ring4", &job(2, 2, 1)).expect("stored");
        assert_eq!(remembered.outcome.algorithm(), solved.outcome.algorithm());
        // A refutation is a decision too; a neighbouring candidate is not.
        let refuted = solve_into(&memo, "ring4", &job(1, 1, 1));
        assert!(matches!(refuted.outcome, SynthesisOutcome::Unsatisfiable));
        assert!(memo.get("ring4", &job(1, 1, 1)).is_some());
        assert!(memo.get("ring4", &job(2, 3, 1)).is_none());
        assert_eq!(memo.len(), 1, "one base problem, two candidates");
    }

    #[test]
    fn capacity_bounds_the_stored_weight_and_keeps_the_newest_base() {
        // A capacity of 1 cell is below any schedule, so every `put` into
        // another base evicts everything else.
        let memo = Memo::new(1);
        for hash in ["a", "b", "c"] {
            solve_into(&memo, hash, &job(2, 2, 1));
            assert_eq!(memo.len(), 1, "only the newest base survives");
        }
        assert!(memo.get("c", &job(2, 2, 1)).is_some());
        assert!(memo.get("a", &job(2, 2, 1)).is_none());
        // The newest base keeps growing past the capacity rather than
        // thrashing to empty.
        solve_into(&memo, "c", &job(2, 4, 2));
        assert!(memo.get("c", &job(2, 2, 1)).is_some());
        assert!(memo.weight() > 1);
    }

    /// Eviction order is pinned: least recently *used* first (a `get`
    /// counts), and the weights — cells, not entries — decide how many go.
    #[test]
    fn eviction_is_lru_by_base_and_weighted_by_cells() {
        let probe = Memo::new(ROOMY);
        let weights: Vec<usize> = (1..=3)
            .map(|chunks| weigh(&solve_into(&probe, "w", &job(2, 2 * chunks as u64, chunks))))
            .collect();
        assert!(weights[1] > weights[0] && weights[2] > weights[1]);
        assert_eq!(probe.weight(), weights.iter().sum::<usize>());

        // Room for the two heaviest bases, not for all three.
        let memo = Memo::new(weights[1] + weights[2]);
        solve_into(&memo, "one", &job(2, 2, 1));
        solve_into(&memo, "two", &job(2, 4, 2));
        assert_eq!(memo.len(), 2, "two bases fit within capacity");
        // Touch the older base: "two" is now the least recently used.
        assert!(memo.get("one", &job(2, 2, 1)).is_some());
        solve_into(&memo, "three", &job(2, 6, 3));
        assert_eq!(memo.len(), 2, "the third base evicts exactly one");
        assert!(memo.get("two", &job(2, 4, 2)).is_none());
        assert!(memo.get("one", &job(2, 2, 1)).is_some());
        assert_eq!(memo.weight(), weights[0] + weights[2]);
    }

    #[test]
    fn distinct_base_hashes_share_nothing() {
        let memo = Memo::new(ROOMY);
        solve_into(&memo, "a", &job(2, 2, 1));
        assert!(memo.get("b", &job(2, 2, 1)).is_none());
        solve_into(&memo, "b", &job(2, 2, 1));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn a_second_put_reweighs_instead_of_double_counting() {
        let memo = Memo::new(ROOMY);
        let run = solve_into(&memo, "ring4", &job(2, 2, 1));
        let once = memo.weight();
        assert_eq!(once, weigh(&run));
        // Two workers that raced on one candidate both store it.
        memo.put("ring4", &job(2, 2, 1), &run);
        assert_eq!(memo.weight(), once);
        // A lighter run for the same candidate replaces the weight too.
        let refuted = SynthesisRun::unsolved(SynthesisOutcome::Unsatisfiable);
        memo.put("ring4", &job(2, 2, 1), &refuted);
        assert_eq!(memo.weight(), 1);
    }

    #[test]
    fn unknown_is_never_memoized_and_leaves_the_decided_bytes_fresh() {
        // Out of budget is Unknown, is not stored, and leaves nothing
        // behind that changes the bytes reported once the budget is there.
        let topo = builders::dgx1();
        let base = base_problem(&topo, Collective::Allgather);
        let config = SynthesisConfig {
            k: 2,
            max_steps: 4,
            ..Default::default()
        };
        let memo = Memo::new(ROOMY);
        let job = job(3, 4, 2);
        let starved = base.solve(&job, &config, Limits::conflicts(1));
        assert!(matches!(starved.outcome, SynthesisOutcome::Unknown));
        memo.put("dgx1", &job, &starved);
        assert!(memo.is_empty() && memo.get("dgx1", &job).is_none());
        let decided = base.solve(&job, &config, Limits::none());
        memo.put("dgx1", &job, &decided);
        let fresh = synthesize(
            &topo,
            &job.instance(Collective::Allgather, 8),
            &config.encoding,
            config.solver.clone(),
            Limits::none(),
        );
        assert_eq!(
            memo.get("dgx1", &job).expect("stored").outcome.algorithm(),
            fresh.outcome.algorithm()
        );
    }

    #[test]
    fn dgx1_sweep_costs_one_solver_run_per_candidate_and_none_on_a_memo_hit() {
        // Through the engine, whose solve closure is what accounts: one
        // solver run per decided candidate, a second only where the
        // quotient under the machine's symmetries was refuted, and none
        // at all when the memo answers.
        let engine = Engine::builder()
            .sequential()
            .synthesis_defaults(SynthesisConfig {
                k: 2,
                max_steps: 3,
                max_chunks: 8,
                ..Default::default()
            })
            .build()
            .expect("engine");
        let request = SynthesisRequest::new(&builders::dgx1(), Collective::Allgather);
        let first = engine.synthesize(request.clone()).expect("sweep");
        let stats = first.incremental.expect("solved");
        let (candidates, satisfiable) = (stats.pool_checkins, first.report.entries.len() as u64);
        assert!(satisfiable >= 2 && candidates > satisfiable, "a real sweep");
        assert_eq!((stats.warm_candidates, stats.memo_hits), (candidates, 0));
        assert!(stats.solve_calls > candidates, "some quotient is refuted");
        assert!(stats.solve_calls <= candidates + (candidates - satisfiable));
        assert_eq!(engine.memo_len(), 1);

        let again = engine.synthesize(request).expect("memoized sweep");
        assert!(again.report.same_frontier(&first.report));
        let stats = again.incremental.expect("solved");
        assert_eq!((stats.solve_calls, stats.warm_candidates), (0, 0));
        assert_eq!(
            (stats.memo_hits, stats.pool_checkins),
            (candidates, candidates)
        );
        assert_eq!(stats.cold_solve_time, Duration::ZERO);
    }
}
