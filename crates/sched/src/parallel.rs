//! The work-queue parallel Pareto search.
//!
//! The sequential Algorithm 1 loop pays the *sum* of all solver calls; this
//! driver pays roughly the *max* of the chains the decision procedure
//! actually depends on. It speculatively solves every candidate `(S, R, C)`
//! instance of the [`CandidatePlan`](sccl_core::pareto::CandidatePlan) on a
//! pool of `std::thread` workers while the [`ParetoMerge`] state machine —
//! the same decision procedure
//! the sequential driver uses — replays the sequential order over the
//! arriving outcomes. Candidates the procedure decides to skip get their
//! cooperative stop flag raised, aborting any in-flight solve via
//! `sccl_solver::Limits::stop`.
//!
//! Each worker solves its candidates through the engine's shared
//! [pool registry](crate::registry::WarmPoolRegistry): per candidate it
//! checks out the [`ChunkPool`](sccl_core::pareto::ChunkPool) of exactly
//! the chunk count it needs (the decided-candidate memo of every previous
//! request over the same base problem), solves outside any lock, and
//! checks the pool back in. Workers therefore share decided candidates
//! both *within* a request — a pool freed by one worker is picked up by
//! the next — and *across* requests, which private per-worker pools never
//! could. A candidate cancelled before a worker reaches it — or before
//! the worker has encoded it — builds no formula.
//!
//! Determinism: the merge consumes exactly the candidates the sequential
//! loop would have solved, in the same order, and every candidate is
//! decided by one fresh-formula solve of it (see
//! [`ChunkPool`](sccl_core::pareto::ChunkPool)), which depends on neither
//! a pool's history nor the driver — so the assembled frontier is
//! identical to `pareto_synthesize`'s (modulo wall-clock timings) by
//! construction. Cancellation is
//! only ever applied to candidates the procedure has already decided never
//! to read, so speculation cannot leak into the result. One caveat: a
//! *wall-clock* `per_instance_limits.max_time` makes individual outcomes
//! timing-dependent (under worker contention a solve can hit the budget
//! that it would beat running alone), exactly as it already does between
//! two sequential runs on different machines. A `max_conflicts` budget
//! does not: a fresh solve spends its conflicts the same way every time.

use crate::registry::PoolSession;
use sccl_collectives::Collective;
use sccl_core::encoding::{SynthesisOutcome, SynthesisRun};
use sccl_core::pareto::{
    enumerate_candidates, finalize_report, BaseProblem, MergeAction, ParetoMerge, SynthesisConfig,
    SynthesisError, SynthesisReport,
};
use sccl_topology::Topology;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Configuration of the worker pool.
#[derive(Clone, Debug, Default)]
pub struct ParallelConfig {
    /// Worker threads to spawn. `0` means one per available core.
    pub num_threads: usize,
}

impl ParallelConfig {
    /// A pool of exactly `n` workers (`0` = one per core).
    pub fn with_threads(n: usize) -> Self {
        ParallelConfig { num_threads: n }
    }

    fn resolved_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Shared state between the merger and the workers.
struct WorkQueue {
    /// Next unclaimed candidate index.
    next: AtomicUsize,
    /// Per-candidate cancellation flags, plumbed into the solver.
    cancels: Vec<Arc<AtomicBool>>,
    /// Completed outcomes, filled by workers.
    results: Mutex<Vec<Option<SynthesisRun>>>,
    /// Signalled whenever a result lands.
    ready: Condvar,
}

impl WorkQueue {
    fn new(len: usize) -> Self {
        WorkQueue {
            next: AtomicUsize::new(0),
            cancels: (0..len).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            results: Mutex::new((0..len).map(|_| None).collect()),
            ready: Condvar::new(),
        }
    }

    fn cancel(&self, index: usize) {
        self.cancels[index].store(true, Ordering::Relaxed);
    }

    fn cancel_all(&self) {
        for flag in &self.cancels {
            flag.store(true, Ordering::Relaxed);
        }
    }

    fn publish(&self, index: usize, run: SynthesisRun) {
        let mut results = self.results.lock().expect("queue lock");
        results[index] = Some(run);
        self.ready.notify_all();
    }

    /// Block until the outcome of `index` is available.
    fn wait_for(&self, index: usize) -> SynthesisRun {
        let mut results = self.results.lock().expect("queue lock");
        loop {
            if let Some(run) = results[index].take() {
                return run;
            }
            results = self.ready.wait(results).expect("queue lock");
        }
    }
}

/// A placeholder outcome for candidates cancelled before they started; the
/// merge never reads these.
fn cancelled_run() -> SynthesisRun {
    SynthesisRun::unsolved(SynthesisOutcome::Unknown)
}

/// Parallel drop-in for `sccl_core::pareto::pareto_synthesize`: same
/// frontier, wall-clock bounded by the dependent chain of solver calls
/// instead of their sum.
#[deprecated(
    since = "0.1.0",
    note = "use sccl::Engine::synthesize with SolveMode::Parallel"
)]
pub fn pareto_synthesize_parallel(
    topology: &Topology,
    collective: Collective,
    config: &SynthesisConfig,
    parallel: &ParallelConfig,
) -> Result<SynthesisReport, SynthesisError> {
    let engine = crate::Engine::builder()
        .threads_or_auto(parallel.num_threads)
        .build()
        .expect("an engine without a cache directory builds infallibly");
    let request = crate::SynthesisRequest::new(topology, collective)
        .with_config(config.clone())
        .parallel();
    match engine.synthesize(request) {
        Ok(response) => Ok(response.report),
        Err(crate::Error::Synthesis(e)) => Err(e),
        Err(other) => unreachable!("cacheless synthesis only fails in the solver: {other}"),
    }
}

/// The work-queue parallel Pareto driver (the engine's `SolveMode::Parallel`
/// path). `base` is the request's already-computed
/// [`base_problem`](sccl_core::pareto::base_problem) and `pools` the
/// engine's registry session for it; the sweep's accounting accumulates
/// on the session as workers check pools in.
pub(crate) fn parallel_frontier(
    base: &BaseProblem,
    topology: &Topology,
    collective: Collective,
    config: &SynthesisConfig,
    parallel: &ParallelConfig,
    pools: &PoolSession<'_>,
) -> Result<SynthesisReport, SynthesisError> {
    if topology.num_nodes() < 2 {
        return Err(SynthesisError::TooFewNodes);
    }
    let report = parallel_noncombining(&base.topology, base.collective, config, parallel, pools)?;
    Ok(finalize_report(topology, collective, report))
}

fn parallel_noncombining(
    topology: &Topology,
    collective: Collective,
    config: &SynthesisConfig,
    parallel: &ParallelConfig,
    pools: &PoolSession<'_>,
) -> Result<SynthesisReport, SynthesisError> {
    let plan = enumerate_candidates(topology, collective, config)?;
    let num_jobs = plan.jobs.len();
    let num_threads = parallel.resolved_threads().max(1).min(num_jobs.max(1));
    let mut merge = ParetoMerge::new(plan);
    if num_jobs == 0 {
        return Ok(merge.into_report());
    }

    let queue = WorkQueue::new(num_jobs);
    let jobs = merge.plan().jobs.clone();
    // First panic payload from any worker, re-raised after the scope: a
    // panicking solve must neither hang the merger (its result slot is
    // filled with Unknown so `wait_for` always returns) nor be swallowed.
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..num_threads {
            scope.spawn(|| {
                // Workers own no state: per candidate they check the
                // matching chunk pool out of the shared registry through
                // the session, solve, and check it back in — so decided
                // candidates flow between workers and across requests.
                loop {
                    let index = queue.next.fetch_add(1, Ordering::Relaxed);
                    if index >= num_jobs {
                        break;
                    }
                    let run = if queue.cancels[index].load(Ordering::Relaxed) {
                        cancelled_run()
                    } else {
                        let job = &jobs[index];
                        let limits = config
                            .per_instance_limits
                            .clone()
                            .with_stop(Arc::clone(&queue.cancels[index]));
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            pools.solve(job, limits)
                        })) {
                            Ok(run) => run,
                            Err(payload) => {
                                let mut slot = panicked.lock().expect("panic slot");
                                slot.get_or_insert(payload);
                                // The checked-out pool died with the panic
                                // (the session drops it rather than check a
                                // half-updated pool back in); later
                                // candidates materialize a fresh one.
                                cancelled_run()
                            }
                        }
                    };
                    queue.publish(index, run);
                }
            });
        }

        // The merger: replay the sequential decision order, cancelling
        // every candidate the procedure passes over.
        loop {
            match merge.next() {
                MergeAction::Need(index) => {
                    for skipped in merge.drain_skipped() {
                        queue.cancel(skipped);
                    }
                    let run = queue.wait_for(index);
                    merge.supply(index, run);
                }
                MergeAction::Done => {
                    queue.cancel_all();
                    break;
                }
            }
        }
    });

    if let Some(payload) = panicked.into_inner().expect("panic slot") {
        std::panic::resume_unwind(payload);
    }
    Ok(merge.into_report())
}

#[cfg(test)]
mod tests {
    // The deprecated wrapper is exactly what these tests pin down: it must
    // keep producing the sequential frontier through the engine path.
    #![allow(deprecated)]

    use super::*;
    use sccl_core::pareto::pareto_synthesize;
    use sccl_topology::builders;

    fn quick_config() -> SynthesisConfig {
        SynthesisConfig {
            max_steps: 8,
            max_chunks: 8,
            ..Default::default()
        }
    }

    #[test]
    fn matches_sequential_on_ring4_allgather() {
        let topo = builders::ring(4, 1);
        let sequential =
            pareto_synthesize(&topo, Collective::Allgather, &quick_config()).expect("seq");
        let parallel = pareto_synthesize_parallel(
            &topo,
            Collective::Allgather,
            &quick_config(),
            &ParallelConfig::with_threads(4),
        )
        .expect("par");
        assert!(parallel.same_frontier(&sequential));
    }

    #[test]
    fn matches_sequential_on_combining_collectives() {
        let topo = builders::ring(4, 1);
        for collective in [Collective::ReduceScatter, Collective::Allreduce] {
            let sequential = pareto_synthesize(&topo, collective, &quick_config()).expect("seq");
            let parallel = pareto_synthesize_parallel(
                &topo,
                collective,
                &quick_config(),
                &ParallelConfig::with_threads(3),
            )
            .expect("par");
            assert!(parallel.same_frontier(&sequential), "{collective} diverged");
        }
    }

    #[test]
    fn single_thread_pool_still_correct() {
        let topo = builders::ring(5, 1);
        let sequential =
            pareto_synthesize(&topo, Collective::Broadcast { root: 0 }, &quick_config())
                .expect("seq");
        let parallel = pareto_synthesize_parallel(
            &topo,
            Collective::Broadcast { root: 0 },
            &quick_config(),
            &ParallelConfig::with_threads(1),
        )
        .expect("par");
        assert!(parallel.same_frontier(&sequential));
    }

    #[test]
    fn propagates_errors_like_sequential() {
        let solo = sccl_topology::Topology::new("solo", 1);
        assert_eq!(
            pareto_synthesize_parallel(
                &solo,
                Collective::Allgather,
                &quick_config(),
                &ParallelConfig::default()
            )
            .unwrap_err(),
            SynthesisError::TooFewNodes
        );
        let mut split = sccl_topology::Topology::new("split", 4);
        split.add_bidi_link(0, 1, 1);
        split.add_bidi_link(2, 3, 1);
        assert_eq!(
            pareto_synthesize_parallel(
                &split,
                Collective::Allgather,
                &quick_config(),
                &ParallelConfig::default()
            )
            .unwrap_err(),
            SynthesisError::Disconnected
        );
    }
}
