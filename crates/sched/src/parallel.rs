//! Worker threads as an answer source for the Pareto sweep.
//!
//! A sequential sweep pays the *sum* of its solver calls; with workers it
//! pays roughly the *max* of the chains the decision procedure actually
//! depends on. [`with_workers`] hands
//! [`sweep`](sccl_core::pareto::sweep) an `answer` behind which
//! `std::thread` workers solve the plan's candidates ahead of the merge,
//! in index order, starting at the first index the merge asks for (the
//! cursor of a resumed sweep, not candidate 0). Being asked for an index
//! means nothing below it will be read again, so `answer` raises the
//! cooperative stop flag of everything below — aborting any in-flight
//! solve via `sccl_solver::Limits::stop` — and waits for the one it was
//! asked for; when the sweep returns, everything still outstanding is
//! cancelled the same way. A candidate cancelled before a worker reaches
//! it builds no formula. `stop` is the only flag: a request deadline is
//! the instant `sccl_solver::Limits::deadline`, which every worker's
//! limits carry unchanged beside its own stop flag.
//!
//! The workers decide candidates through the same `solve` the sequential
//! mode calls inline, so the sweep itself — resume, checkpoints, errors,
//! the report — is one function in both modes, and the frontier is
//! `pareto_synthesize`'s by construction: cancellation only ever touches
//! candidates the merge will never read, so speculation cannot leak into
//! the result. One caveat: a *wall-clock* `per_instance_limits.max_time`
//! makes individual outcomes timing-dependent (under worker contention a
//! solve can hit the budget that it would beat running alone), exactly as
//! it already does between two sequential runs on different machines. A
//! `max_conflicts` budget does not: a fresh solve spends its conflicts the
//! same way every time.

use sccl_core::encoding::{SynthesisOutcome, SynthesisRun};
use sccl_core::pareto::CandidateJob;
use sccl_solver::Limits;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Shared state between the sweep's thread and the workers.
struct WorkQueue {
    /// The plan's candidates, in decision order.
    jobs: Vec<CandidateJob>,
    /// Next unclaimed candidate index.
    next: AtomicUsize,
    /// Per-candidate cancellation flags, plumbed into the solver.
    cancels: Vec<Arc<AtomicBool>>,
    /// Completed outcomes, filled by workers.
    results: Mutex<Vec<Option<SynthesisRun>>>,
    /// Signalled whenever a result lands.
    ready: Condvar,
    /// First panic payload from any worker. A panicking solve must neither
    /// hang the sweep (its result slot is filled so `wait_for` returns) nor
    /// be swallowed, nor be mistaken for an outcome: `answer` re-raises it
    /// instead of returning.
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
}

impl WorkQueue {
    /// A queue over `jobs` whose workers start at `first`.
    fn new(jobs: &[CandidateJob], first: usize) -> Self {
        WorkQueue {
            jobs: jobs.to_vec(),
            next: AtomicUsize::new(first),
            cancels: jobs.iter().map(|_| Arc::default()).collect(),
            results: Mutex::new(vec![None; jobs.len()]),
            ready: Condvar::new(),
            panicked: Mutex::new(None),
        }
    }

    fn cancel(&self, indices: std::ops::Range<usize>) {
        for flag in &self.cancels[indices] {
            flag.store(true, Ordering::Relaxed);
        }
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

    /// Re-raise a worker's panic on the calling thread, if there was one.
    fn reraise(&self) {
        if let Some(payload) = self.panicked.lock().expect("panic slot").take() {
            resume_unwind(payload);
        }
    }

    /// A worker: claim candidates in index order until the plan runs out.
    fn work(&self, limits: &Limits, solve: &impl Fn(&CandidateJob, Limits) -> SynthesisRun) {
        // Stands in for a candidate that was never solved; the merge never
        // reads one.
        let cancelled = || SynthesisRun::unsolved(SynthesisOutcome::Unknown);
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = self.jobs.get(index) else {
                break;
            };
            let stop = &self.cancels[index];
            let run = if stop.load(Ordering::Relaxed) {
                cancelled()
            } else {
                let limits = limits.clone().with_stop(Arc::clone(stop));
                catch_unwind(AssertUnwindSafe(|| solve(job, limits))).unwrap_or_else(|payload| {
                    self.panicked
                        .lock()
                        .expect("panic slot")
                        .get_or_insert(payload);
                    self.cancel(0..self.jobs.len());
                    cancelled()
                })
            };
            self.results.lock().expect("queue lock")[index] = Some(run);
            self.ready.notify_all();
        }
    }
}

/// Run `body` — a call of [`sweep`](sccl_core::pareto::sweep) — with an
/// `answer` backed by up to `threads` workers that decide candidates
/// through `solve` under `limits` plus a per-candidate stop flag. Workers
/// are spawned at the first question and joined before this returns; a
/// panic in any of them is re-raised here, on the sweep's thread.
pub(crate) fn with_workers<R>(
    threads: usize,
    limits: &Limits,
    solve: &(impl Fn(&CandidateJob, Limits) -> SynthesisRun + Sync),
    body: impl FnOnce(&mut dyn FnMut(&[CandidateJob], usize) -> SynthesisRun) -> R,
) -> R {
    let mut queue: Option<Arc<WorkQueue>> = None;
    let result = std::thread::scope(|scope| {
        // Everything below this index is answered or cancelled.
        let mut settled = 0;
        let result = body(&mut |jobs, index| {
            let queue = queue.get_or_insert_with(|| {
                settled = index;
                let queue = Arc::new(WorkQueue::new(jobs, index));
                for _ in 0..threads.clamp(1, jobs.len() - index) {
                    let queue = Arc::clone(&queue);
                    scope.spawn(move || queue.work(limits, solve));
                }
                queue
            });
            queue.cancel(settled..index);
            settled = index + 1;
            let run = queue.wait_for(index);
            queue.reraise();
            run
        });
        if let Some(queue) = &queue {
            queue.cancel(0..queue.jobs.len());
        }
        result
    });
    if let Some(queue) = &queue {
        queue.reraise();
    }
    result
}

#[cfg(test)]
mod tests {
    use crate::{Engine, SynthesisRequest};
    use sccl_collectives::Collective;
    use sccl_core::pareto::{pareto_synthesize, SynthesisConfig, SynthesisError, SynthesisReport};
    use sccl_topology::{builders, Topology};

    fn quick_config() -> SynthesisConfig {
        SynthesisConfig {
            max_steps: 8,
            max_chunks: 8,
            ..Default::default()
        }
    }

    fn parallel(
        topology: &Topology,
        collective: Collective,
        threads: usize,
    ) -> Result<SynthesisReport, crate::Error> {
        let engine = Engine::builder().threads(threads).build().expect("engine");
        let request = SynthesisRequest::new(topology, collective)
            .with_config(quick_config())
            .parallel();
        engine.synthesize(request).map(|response| response.report)
    }

    #[test]
    fn matches_sequential_on_ring4_allgather() {
        let topo = builders::ring(4, 1);
        let sequential =
            pareto_synthesize(&topo, Collective::Allgather, &quick_config()).expect("seq");
        let parallel = parallel(&topo, Collective::Allgather, 4).expect("par");
        assert!(parallel.same_frontier(&sequential));
    }

    #[test]
    fn matches_sequential_on_combining_collectives() {
        let topo = builders::ring(4, 1);
        for collective in [Collective::ReduceScatter, Collective::Allreduce] {
            let sequential = pareto_synthesize(&topo, collective, &quick_config()).expect("seq");
            let parallel = parallel(&topo, collective, 3).expect("par");
            assert!(parallel.same_frontier(&sequential), "{collective} diverged");
        }
    }

    #[test]
    fn single_thread_pool_still_correct() {
        let topo = builders::ring(5, 1);
        let sequential =
            pareto_synthesize(&topo, Collective::Broadcast { root: 0 }, &quick_config())
                .expect("seq");
        let parallel = parallel(&topo, Collective::Broadcast { root: 0 }, 1).expect("par");
        assert!(parallel.same_frontier(&sequential));
    }

    #[test]
    fn propagates_errors_like_sequential() {
        let solo = Topology::new("solo", 1);
        assert!(matches!(
            parallel(&solo, Collective::Allgather, 2).unwrap_err(),
            crate::Error::Synthesis(SynthesisError::TooFewNodes)
        ));
        let mut split = Topology::new("split", 4);
        split.add_bidi_link(0, 1, 1);
        split.add_bidi_link(2, 3, 1);
        assert!(matches!(
            parallel(&split, Collective::Allgather, 2).unwrap_err(),
            crate::Error::Synthesis(SynthesisError::Disconnected)
        ));
    }
}
