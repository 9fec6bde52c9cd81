//! The Pareto-synthesis procedure (Algorithm 1 of the paper): enumerate
//! step counts starting at the latency lower bound, and for each step count
//! find the cheapest-bandwidth k-synchronous schedule, until the bandwidth
//! lower bound is reached.
//!
//! The procedure is factored into three composable pieces so that the
//! sequential driver here and the parallel work-queue driver in
//! `sccl-sched` share one decision procedure:
//!
//! 1. [`enumerate_candidates`] turns a synthesis request into a
//!    [`CandidatePlan`]: the full, ordered list of `(S, R, C)` SynColl
//!    instances the sequential loop could ever consider.
//! 2. [`ParetoMerge`] is the decision procedure itself, expressed as a
//!    state machine over the plan: it asks for the outcome of one candidate
//!    at a time ([`MergeAction::Need`]), records which candidates became
//!    skippable (so a parallel driver can cancel their in-flight solves),
//!    and assembles the frontier. Any driver that answers `Need` with the
//!    solver's outcome reproduces the sequential frontier exactly.
//! 3. [`base_problem`] / [`finalize_report`] bracket the non-combining
//!    search with the combining-collective derivations of §3.5 (inversion
//!    duals and the Allreduce composition).

use crate::algorithm::Algorithm;
use crate::bounds::{bandwidth_lower_bound, latency_lower_bound};
use crate::combining::{compose_allreduce, invert};
use crate::cost::AlgorithmCost;
use crate::encoding::{
    synthesize_on, EncodingOptions, EncodingStats, SynCollInstance, SynthesisOutcome, SynthesisRun,
};
use crate::incremental::IncrementalStats;
use sccl_collectives::{Collective, CollectiveClass};
use sccl_solver::{Limits, SolverConfig};
use sccl_topology::{Rational, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Parameters of the Pareto search.
#[derive(Clone, Debug)]
pub struct SynthesisConfig {
    /// The k-synchronous bound: per step count `S`, rounds `R ∈ [S, S+k]`
    /// are considered (§3.1).
    pub k: u64,
    /// Upper bound on the number of steps to enumerate (the procedure may
    /// otherwise not terminate, §3.7).
    pub max_steps: usize,
    /// Upper bound on the per-node chunk count `C`.
    pub max_chunks: usize,
    /// Resource budget per SMT query.
    pub per_instance_limits: Limits,
    /// Encoding options.
    pub encoding: EncodingOptions,
    /// Solver configuration.
    pub solver: SolverConfig,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            k: 0,
            max_steps: 10,
            max_chunks: 24,
            per_instance_limits: Limits::none(),
            encoding: EncodingOptions::default(),
            solver: SolverConfig::default(),
        }
    }
}

/// Optimality classification of a synthesized algorithm with respect to the
/// class of k-synchronous algorithms (§3.7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Optimality {
    /// Matches the latency lower bound `a_l`.
    Latency,
    /// Matches the bandwidth lower bound `b_l`.
    Bandwidth,
    /// Matches both bounds simultaneously.
    Both,
    /// Pareto point strictly between the two bounds.
    Intermediate,
}

impl Optimality {
    fn classify(steps: usize, ratio: Rational, al: usize, bl: Rational) -> Self {
        match (steps == al, ratio == bl) {
            (true, true) => Optimality::Both,
            (true, false) => Optimality::Latency,
            (false, true) => Optimality::Bandwidth,
            (false, false) => Optimality::Intermediate,
        }
    }

    /// The label used in Tables 4–5 ("Latency", "Bandwidth", "Both" or
    /// blank).
    pub fn label(&self) -> &'static str {
        match self {
            Optimality::Latency => "Latency",
            Optimality::Bandwidth => "Bandwidth",
            Optimality::Both => "Both",
            Optimality::Intermediate => "",
        }
    }
}

/// Why the Pareto search stopped (distinguishes the historic `hit_step_cap`
/// flag into its actual causes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerminationReason {
    /// The bandwidth lower bound `b_l` was attained: the frontier is
    /// complete for this k-synchronous family.
    BandwidthOptimal,
    /// Every candidate within the chunk cap was settled and no step count
    /// beyond `max_steps` can improve on the best reported bandwidth: a
    /// round takes at least one step, so the cheapest ratio available at
    /// step `S` is `S / max_chunks`, which *grows* with `S`. Raising
    /// `max_steps` alone cannot extend this frontier — only `max_chunks`
    /// can.
    ChunkLimited,
    /// The search exhausted `max_steps` while a cheaper bandwidth was still
    /// reachable; raising `max_steps` may extend the frontier.
    StepLimited,
    /// The specification was already satisfied by the pre-condition;
    /// nothing was synthesized.
    Trivial,
}

impl TerminationReason {
    /// Human-readable explanation for CLI output.
    pub fn describe(&self) -> &'static str {
        match self {
            TerminationReason::BandwidthOptimal => {
                "bandwidth-optimal: the frontier reached the bandwidth lower bound"
            }
            TerminationReason::ChunkLimited => {
                "chunk-limited: no step count can improve the frontier under --max-chunks"
            }
            TerminationReason::StepLimited => {
                "step-limited: stopped at --max-steps before reaching the bandwidth bound"
            }
            TerminationReason::Trivial => "trivial: the specification is already satisfied",
        }
    }
}

/// One synthesized point on the Pareto frontier (one row of Tables 4–5).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FrontierEntry {
    /// Per-node chunk count `C` as reported in the tables (for combining
    /// collectives this is the count of the non-combining dual that was
    /// actually synthesized; the tables' footnote applies).
    pub chunks: usize,
    /// Steps `S`.
    pub steps: usize,
    /// Rounds `R`.
    pub rounds: u64,
    /// Optimality classification.
    pub optimality: Optimality,
    /// Wall-clock synthesis time (encode + solve), as in the tables.
    pub synthesis_time: Duration,
    /// Formula size.
    pub encoding: EncodingStats,
    /// The synthesized (and, for combining collectives, derived) algorithm.
    pub algorithm: Algorithm,
}

impl FrontierEntry {
    /// The `(S, R, C)` cost of this entry.
    pub fn cost(&self) -> AlgorithmCost {
        AlgorithmCost::new(self.steps as u64, self.rounds, self.chunks as u64)
    }
}

/// The result of a Pareto synthesis run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SynthesisReport {
    pub collective: Collective,
    pub topology_name: String,
    /// Latency lower bound `a_l` (in steps of the synthesized dual for
    /// combining collectives).
    pub latency_lower_bound: usize,
    /// Bandwidth lower bound `b_l = R/C`.
    pub bandwidth_lower_bound: Rational,
    /// Pareto frontier entries in increasing step order.
    pub entries: Vec<FrontierEntry>,
    /// Why the search stopped.
    pub termination: TerminationReason,
    /// `true` if the search stopped because it exhausted `max_steps` while
    /// improvement was still possible. Historically this flag was also set
    /// when the chunk cap (not the step cap) was binding; that case is now
    /// reported as [`TerminationReason::ChunkLimited`] instead.
    pub hit_step_cap: bool,
    /// `true` if some query exhausted its budget (results may be incomplete).
    pub budget_exhausted: bool,
}

impl SynthesisReport {
    /// The entry matching the latency lower bound, if any.
    pub fn latency_optimal(&self) -> Option<&FrontierEntry> {
        self.entries
            .iter()
            .find(|e| matches!(e.optimality, Optimality::Latency | Optimality::Both))
    }

    /// The entry matching the bandwidth lower bound, if any.
    pub fn bandwidth_optimal(&self) -> Option<&FrontierEntry> {
        self.entries
            .iter()
            .find(|e| matches!(e.optimality, Optimality::Bandwidth | Optimality::Both))
    }

    /// `true` if two reports describe the same frontier: identical bounds,
    /// termination and `(C, S, R)` entries with identical algorithms —
    /// everything except wall-clock synthesis times and formula-size
    /// statistics. Algorithms are compared byte-for-byte: every driver
    /// decides a candidate by one fresh
    /// [`synthesize`](crate::encoding::synthesize), so sequential, pooled,
    /// parallel and resumed searches report the identical algorithm per
    /// entry. Formula sizes are diagnostic and excluded, like the timings.
    pub fn same_frontier(&self, other: &SynthesisReport) -> bool {
        self.collective == other.collective
            && self.topology_name == other.topology_name
            && self.latency_lower_bound == other.latency_lower_bound
            && self.bandwidth_lower_bound == other.bandwidth_lower_bound
            && self.termination == other.termination
            && self.hit_step_cap == other.hit_step_cap
            && self.budget_exhausted == other.budget_exhausted
            && self.entries.len() == other.entries.len()
            && self.entries.iter().zip(&other.entries).all(|(a, b)| {
                a.chunks == b.chunks
                    && a.steps == b.steps
                    && a.rounds == b.rounds
                    && a.optimality == b.optimality
                    && a.algorithm == b.algorithm
            })
    }
}

/// Errors that prevent synthesis from starting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthesisError {
    /// The topology cannot implement the collective at all (disconnected).
    Disconnected,
    /// The collective requires at least two nodes.
    TooFewNodes,
}

impl std::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthesisError::Disconnected => {
                write!(f, "topology is not connected for this collective")
            }
            SynthesisError::TooFewNodes => write!(f, "collective requires at least two nodes"),
        }
    }
}

impl std::error::Error for SynthesisError {}

/// The per-node chunk counts worth trying for a collective: Alltoall needs
/// `C` to be a multiple of `P` so that each node has a whole number of
/// chunks per destination.
fn chunk_step(collective: Collective, num_nodes: usize) -> usize {
    match collective {
        Collective::Alltoall => num_nodes,
        _ => 1,
    }
}

// ---------------------------------------------------------------------
// Candidate enumeration
// ---------------------------------------------------------------------

/// One `(S, R, C)` SynColl instance the Pareto search may have to solve: a
/// self-contained job description a scheduler can ship to a worker thread.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateJob {
    /// Position in the sequential decision order (index into
    /// [`CandidatePlan::jobs`]).
    pub index: usize,
    /// Steps `S`.
    pub steps: usize,
    /// Rounds `R`.
    pub rounds: u64,
    /// Per-node chunk count `C`.
    pub chunks: usize,
}

impl CandidateJob {
    /// The bandwidth cost `R / C` of this candidate.
    pub fn ratio(&self) -> Rational {
        Rational::new(self.rounds, self.chunks as u64)
    }

    /// Materialize the SynColl instance for this candidate.
    pub fn instance(&self, collective: Collective, num_nodes: usize) -> SynCollInstance {
        SynCollInstance {
            spec: collective.spec(num_nodes, self.chunks),
            per_node_chunks: self.chunks,
            num_steps: self.steps,
            num_rounds: self.rounds,
        }
    }
}

/// The full, ordered candidate list of one non-combining Pareto search,
/// plus the structural bounds the decision procedure needs.
#[derive(Clone, Debug)]
pub struct CandidatePlan {
    /// The (non-combining) collective being synthesized.
    pub collective: Collective,
    pub topology_name: String,
    /// Latency lower bound `a_l`.
    pub latency_lower_bound: usize,
    /// Bandwidth lower bound `b_l`.
    pub bandwidth_lower_bound: Rational,
    /// The `max_steps` cap the plan was enumerated under.
    pub max_steps: usize,
    /// The `max_chunks` cap the plan was enumerated under.
    pub max_chunks: usize,
    /// Granularity of feasible chunk counts (`P` for Alltoall, 1 otherwise).
    pub chunk_step: usize,
    /// `true` if the spec is already satisfied (no jobs).
    pub trivial: bool,
    /// Candidates in exactly the order the sequential loop considers them:
    /// by step count, then cheapest bandwidth first.
    pub jobs: Vec<CandidateJob>,
}

/// Enumerate every candidate `(S, R, C)` instance the sequential Algorithm 1
/// loop could consider for a non-combining collective, in its decision
/// order. Combining collectives must be reduced with [`base_problem`] first.
pub fn enumerate_candidates(
    topology: &Topology,
    collective: Collective,
    config: &SynthesisConfig,
) -> Result<CandidatePlan, SynthesisError> {
    assert_eq!(
        collective.class(),
        CollectiveClass::NonCombining,
        "enumerate_candidates requires a non-combining collective; use base_problem first"
    );
    let p = topology.num_nodes();
    if p < 2 {
        return Err(SynthesisError::TooFewNodes);
    }
    let step_c = chunk_step(collective, p);
    let ref_spec = collective.spec(p, step_c);
    let al = latency_lower_bound(topology, &ref_spec).ok_or(SynthesisError::Disconnected)?;
    let bl =
        bandwidth_lower_bound(topology, &ref_spec, step_c).ok_or(SynthesisError::Disconnected)?;

    let mut plan = CandidatePlan {
        collective,
        topology_name: topology.name().to_string(),
        latency_lower_bound: al,
        bandwidth_lower_bound: bl,
        max_steps: config.max_steps,
        max_chunks: config.max_chunks,
        chunk_step: step_c,
        trivial: ref_spec.is_trivial(),
        jobs: Vec::new(),
    };
    if plan.trivial {
        return Ok(plan);
    }

    let start_steps = al.max(1);
    for s in start_steps..=config.max_steps {
        // Candidate (R, C) pairs obeying the k-synchronous bound and the
        // bandwidth lower bound, cheapest bandwidth first.
        let mut candidates: Vec<(u64, usize)> = Vec::new();
        for r in s as u64..=s as u64 + config.k {
            let mut c = step_c;
            while c <= config.max_chunks {
                if Rational::new(r, c as u64) >= bl {
                    candidates.push((r, c));
                }
                c += step_c;
            }
        }
        candidates.sort_by(|a, b| {
            Rational::new(a.0, a.1 as u64)
                .cmp(&Rational::new(b.0, b.1 as u64))
                .then(a.1.cmp(&b.1))
        });
        for (r, c) in candidates {
            plan.jobs.push(CandidateJob {
                index: plan.jobs.len(),
                steps: s,
                rounds: r,
                chunks: c,
            });
        }
    }
    Ok(plan)
}

// ---------------------------------------------------------------------
// The deterministic merge state machine
// ---------------------------------------------------------------------

/// What the decision procedure wants next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeAction {
    /// The outcome of candidate `jobs[index]` decides the next frontier
    /// step; supply it with [`ParetoMerge::supply`].
    Need(usize),
    /// The search is finished; call [`ParetoMerge::into_report`].
    Done,
}

/// Version stamp of the [`SweepCheckpoint`] wire format. A checkpoint
/// written by a different version is rejected at resume time rather than
/// misinterpreted.
pub const SWEEP_CHECKPOINT_VERSION: u32 = 1;

/// A serializable snapshot of a [`ParetoMerge`] mid-sweep: everything the
/// decision procedure has settled so far — the partial frontier, the best
/// bandwidth, the settled step — without the plan itself, which is
/// re-enumerated deterministically at resume time from the same request.
///
/// Resuming from a checkpoint is *provably* equivalent to never having
/// been interrupted: candidate outcomes are deterministic (each is one
/// fresh-formula solve under the caller's limits, whatever was solved
/// before), `supply` is strictly cursor-ordered,
/// and the skip rules depend only on `(cursor, best_bw, settled_step)` —
/// all captured here. So replaying the remaining candidates from `cursor`
/// reaches the byte-identical frontier (the property the resume
/// proptest asserts via [`SynthesisReport::same_frontier`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepCheckpoint {
    /// Format version ([`SWEEP_CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Number of jobs in the plan the checkpoint was taken from — a guard
    /// against resuming onto a plan enumerated under different caps.
    pub plan_len: usize,
    /// Next candidate index the sweep will consider.
    pub cursor: usize,
    /// Cheapest bandwidth reported so far.
    pub best_bw: Option<Rational>,
    /// Step count whose remaining candidates are dominated.
    pub settled_step: Option<usize>,
    /// The partial frontier.
    pub entries: Vec<FrontierEntry>,
    /// Whether some decided probe had exhausted its budget.
    pub budget_exhausted: bool,
}

/// Replays the sequential Algorithm 1 decision order over candidate
/// outcomes, wherever those outcomes come from (an inline solver call or a
/// pool of worker threads). Feeding it the deterministic solver's outcomes
/// yields the identical frontier as the sequential loop, by construction.
#[derive(Debug)]
pub struct ParetoMerge {
    plan: CandidatePlan,
    cursor: usize,
    best_bw: Option<Rational>,
    /// Step count whose remaining candidates must be skipped (a cheaper
    /// schedule was already found at this step).
    settled_step: Option<usize>,
    entries: Vec<FrontierEntry>,
    budget_exhausted: bool,
    termination: Option<TerminationReason>,
    /// Candidates the procedure decided never to solve since the last
    /// [`ParetoMerge::drain_skipped`] call (for cancellation).
    skipped: Vec<usize>,
}

impl ParetoMerge {
    pub fn new(plan: CandidatePlan) -> Self {
        let termination = plan.trivial.then_some(TerminationReason::Trivial);
        ParetoMerge {
            plan,
            cursor: 0,
            best_bw: None,
            settled_step: None,
            entries: Vec::new(),
            budget_exhausted: false,
            termination,
            skipped: Vec::new(),
        }
    }

    /// The plan being merged.
    pub fn plan(&self) -> &CandidatePlan {
        &self.plan
    }

    /// Snapshot the merge's decided state for durable storage. Valid at
    /// any point of the sweep; pair with [`ParetoMerge::resume`] against a
    /// plan re-enumerated from the same request.
    pub fn checkpoint(&self) -> SweepCheckpoint {
        SweepCheckpoint {
            version: SWEEP_CHECKPOINT_VERSION,
            plan_len: self.plan.jobs.len(),
            cursor: self.cursor,
            best_bw: self.best_bw,
            settled_step: self.settled_step,
            entries: self.entries.clone(),
            budget_exhausted: self.budget_exhausted,
        }
    }

    /// Reconstruct a merge from a checkpoint taken over the same plan.
    /// The plan is *not* serialized with the checkpoint — it is
    /// re-enumerated deterministically from the request — so the resume
    /// validates the version and the plan length and rejects a mismatch
    /// (a checkpoint from different search caps must not silently decide
    /// the wrong candidates).
    pub fn resume(
        plan: CandidatePlan,
        checkpoint: &SweepCheckpoint,
    ) -> Result<ParetoMerge, String> {
        if checkpoint.version != SWEEP_CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {} does not match {}",
                checkpoint.version, SWEEP_CHECKPOINT_VERSION
            ));
        }
        if checkpoint.plan_len != plan.jobs.len() {
            return Err(format!(
                "checkpoint was taken over a {}-candidate plan, resuming over {} candidates",
                checkpoint.plan_len,
                plan.jobs.len()
            ));
        }
        if checkpoint.cursor > plan.jobs.len() {
            return Err(format!(
                "checkpoint cursor {} is past the {}-candidate plan",
                checkpoint.cursor,
                plan.jobs.len()
            ));
        }
        // Re-derive the terminal states `supply` would have set: a trivial
        // plan and a frontier that already reached the bandwidth bound are
        // both done; everything else re-enters the sweep at the cursor
        // (an exhausted cursor re-classifies through `exhausted_reason`
        // on the first `next()`).
        let termination = if plan.trivial {
            Some(TerminationReason::Trivial)
        } else if checkpoint.best_bw == Some(plan.bandwidth_lower_bound) {
            Some(TerminationReason::BandwidthOptimal)
        } else {
            None
        };
        Ok(ParetoMerge {
            plan,
            cursor: checkpoint.cursor,
            best_bw: checkpoint.best_bw,
            settled_step: checkpoint.settled_step,
            entries: checkpoint.entries.clone(),
            budget_exhausted: checkpoint.budget_exhausted,
            termination,
            skipped: Vec::new(),
        })
    }

    /// Would the sequential loop skip this job given the current state?
    fn skippable(&self, job: &CandidateJob) -> bool {
        if self.settled_step == Some(job.steps) {
            return true;
        }
        match self.best_bw {
            // A candidate at least as expensive as an already-reported entry
            // would be dominated.
            Some(best) => job.ratio() >= best,
            None => false,
        }
    }

    /// Advance to the next candidate whose outcome is needed, recording
    /// everything passed over as skipped.
    ///
    /// (Deliberately named like, but not implementing, `Iterator::next`:
    /// the caller must answer each `Need` with `supply` before advancing.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> MergeAction {
        if self.termination.is_some() {
            return MergeAction::Done;
        }
        while self.cursor < self.plan.jobs.len() {
            let job = &self.plan.jobs[self.cursor];
            if self.skippable(job) {
                self.skipped.push(job.index);
                self.cursor += 1;
                continue;
            }
            return MergeAction::Need(self.cursor);
        }
        self.termination = Some(self.exhausted_reason());
        MergeAction::Done
    }

    /// Termination cause when every candidate in the plan is settled
    /// without reaching the bandwidth bound.
    fn exhausted_reason(&self) -> TerminationReason {
        // The largest chunk count actually usable under the cap: feasible
        // counts are multiples of chunk_step (P for Alltoall).
        let usable_chunks = (self.plan.max_chunks / self.plan.chunk_step) * self.plan.chunk_step;
        if usable_chunks == 0 {
            // No feasible chunk count exists at *any* step count (e.g.
            // Alltoall with max_chunks below the node count): only raising
            // the chunk cap can help.
            return TerminationReason::ChunkLimited;
        }
        if let Some(best) = self.best_bw {
            // Rounds can never be fewer than steps, so the cheapest ratio any
            // step count S offers is S / usable_chunks — increasing in S. If
            // the first out-of-plan step count cannot beat the frontier, no
            // deeper search ever will: the chunk cap is binding.
            let next_step = self.plan.max_steps as u64 + 1;
            let cheapest_beyond = Rational::new(next_step, usable_chunks as u64);
            if cheapest_beyond >= best {
                return TerminationReason::ChunkLimited;
            }
        }
        TerminationReason::StepLimited
    }

    /// Supply the solver outcome of the candidate last returned by
    /// [`ParetoMerge::next`].
    pub fn supply(&mut self, index: usize, run: SynthesisRun) {
        assert_eq!(
            index, self.cursor,
            "supply must answer the job most recently returned by next()"
        );
        assert!(self.termination.is_none(), "merge already finished");
        let job = self.plan.jobs[self.cursor].clone();
        self.cursor += 1;
        let total_time = run.total_time();
        match run.outcome {
            SynthesisOutcome::Satisfiable(algorithm) => {
                let ratio = job.ratio();
                let optimality = Optimality::classify(
                    job.steps,
                    ratio,
                    self.plan.latency_lower_bound,
                    self.plan.bandwidth_lower_bound,
                );
                self.entries.push(FrontierEntry {
                    chunks: job.chunks,
                    steps: job.steps,
                    rounds: job.rounds,
                    optimality,
                    synthesis_time: total_time,
                    encoding: run.encoding,
                    algorithm,
                });
                self.best_bw = Some(ratio);
                if ratio == self.plan.bandwidth_lower_bound {
                    // Everything still outstanding is now moot.
                    for job in &self.plan.jobs[self.cursor..] {
                        self.skipped.push(job.index);
                    }
                    self.cursor = self.plan.jobs.len();
                    self.termination = Some(TerminationReason::BandwidthOptimal);
                } else {
                    // Move on to the next step count.
                    self.settled_step = Some(job.steps);
                }
            }
            SynthesisOutcome::Unsatisfiable => {}
            SynthesisOutcome::Unknown => {
                self.budget_exhausted = true;
            }
        }
    }

    /// Candidate indices the procedure has decided never to solve since the
    /// last call (a parallel driver cancels their in-flight solves).
    pub fn drain_skipped(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.skipped)
    }

    /// `true` once [`ParetoMerge::next`] has returned [`MergeAction::Done`].
    pub fn is_done(&self) -> bool {
        self.termination.is_some()
    }

    /// Finish the merge and assemble the report.
    pub fn into_report(self) -> SynthesisReport {
        let termination = match self.termination {
            Some(reason) => reason,
            // Finalized early (e.g. a driver abandoning the search): classify
            // from the current state.
            None => {
                if self.cursor >= self.plan.jobs.len() {
                    self.exhausted_reason()
                } else {
                    TerminationReason::StepLimited
                }
            }
        };
        SynthesisReport {
            collective: self.plan.collective,
            topology_name: self.plan.topology_name,
            latency_lower_bound: self.plan.latency_lower_bound,
            bandwidth_lower_bound: self.plan.bandwidth_lower_bound,
            entries: self.entries,
            termination,
            hit_step_cap: termination == TerminationReason::StepLimited,
            budget_exhausted: self.budget_exhausted,
        }
    }
}

// ---------------------------------------------------------------------
// Combining-collective bracketing (§3.5)
// ---------------------------------------------------------------------

/// The non-combining search actually performed for a collective: Reduce and
/// ReduceScatter go through their inversion duals on the reversed topology,
/// Allreduce through Allgather (later composed), everything else directly.
#[derive(Clone, Debug)]
pub struct BaseProblem {
    /// Topology to synthesize on (reversed for inversion duals).
    pub topology: Topology,
    /// Non-combining collective to synthesize.
    pub collective: Collective,
    /// [`Topology::fixed_point_free_automorphisms`] of `topology`, searched
    /// once here for every candidate of the sweep to take its quotient
    /// under (see "Symmetry" in [`crate::encoding`]).
    automorphisms: Vec<Vec<usize>>,
}

/// Reduce a synthesis request to its underlying non-combining search.
pub fn base_problem(topology: &Topology, collective: Collective) -> BaseProblem {
    let (topology, collective) = match (collective.class(), collective.inversion_dual()) {
        (CollectiveClass::NonCombining, _) => (topology.clone(), collective),
        (CollectiveClass::Combining, Some(dual)) => (topology.reversed(), dual),
        (CollectiveClass::Combining, None) => {
            debug_assert_eq!(collective, Collective::Allreduce);
            (topology.clone(), Collective::Allgather)
        }
    };
    BaseProblem {
        automorphisms: topology.fixed_point_free_automorphisms(),
        topology,
        collective,
    }
}

/// Transform the report of the [`base_problem`] search back into a report
/// for the requested collective (inverting or composing every entry).
pub fn finalize_report(
    topology: &Topology,
    collective: Collective,
    mut base: SynthesisReport,
) -> SynthesisReport {
    match collective.class() {
        CollectiveClass::NonCombining => base,
        CollectiveClass::Combining => match collective.inversion_dual() {
            Some(_) => {
                // The dual ran on the reversed topology; invert every entry
                // so it runs forward on `topology`.
                for entry in &mut base.entries {
                    entry.algorithm = invert(&entry.algorithm, collective);
                    entry.algorithm.topology_name = topology.name().to_string();
                }
                base.collective = collective;
                base.topology_name = topology.name().to_string();
                base
            }
            None => {
                // Allreduce = ReduceScatter ∘ Allgather.
                debug_assert_eq!(collective, Collective::Allreduce);
                let p = topology.num_nodes();
                let entries = base
                    .entries
                    .into_iter()
                    .map(|e| {
                        let algorithm = compose_allreduce(&e.algorithm);
                        FrontierEntry {
                            chunks: e.chunks * p,
                            steps: e.steps * 2,
                            rounds: e.rounds * 2,
                            optimality: e.optimality,
                            synthesis_time: e.synthesis_time,
                            encoding: e.encoding,
                            algorithm,
                        }
                    })
                    .collect();
                SynthesisReport {
                    collective,
                    topology_name: topology.name().to_string(),
                    latency_lower_bound: base.latency_lower_bound * 2,
                    bandwidth_lower_bound: Rational::new(
                        2 * base.bandwidth_lower_bound.numerator(),
                        base.bandwidth_lower_bound.denominator() * p as u64,
                    ),
                    entries,
                    termination: base.termination,
                    hit_step_cap: base.hit_step_cap,
                    budget_exhausted: base.budget_exhausted,
                }
            }
        },
    }
}

// ---------------------------------------------------------------------
// The sequential driver
// ---------------------------------------------------------------------

/// Run Algorithm 1 for any collective (non-combining directly; Reduce and
/// ReduceScatter via their inversion duals on the reversed topology;
/// Allreduce as inverse-Allgather followed by Allgather), one fresh
/// [`synthesize`](crate::encoding::synthesize) per candidate and nothing
/// kept between them.
pub fn pareto_synthesize(
    topology: &Topology,
    collective: Collective,
    config: &SynthesisConfig,
) -> Result<SynthesisReport, SynthesisError> {
    let base = base_problem(topology, collective);
    let num_nodes = topology.num_nodes();
    warm_frontier(&base, topology, collective, config, |job| {
        synthesize_on(
            &base.topology,
            &base.automorphisms,
            &job.instance(base.collective, num_nodes),
            &config.encoding,
            config.solver.clone(),
            config.per_instance_limits.clone(),
        )
    })
}

// ---------------------------------------------------------------------
// Pools: what a long-lived driver keeps between candidates
// ---------------------------------------------------------------------

/// The decided candidates of a single `(base problem, chunk count)` pair:
/// a memo of `(S, R)` → the run that settled it, in front of
/// [`synthesize`](crate::encoding::synthesize).
///
/// A `ChunkPool` is the unit of check-out/check-in for the scheduler's
/// shared pool registry: a worker thread borrows exactly the chunk count
/// its candidate needs, solves, and returns the pool, so concurrent
/// workers on different chunk counts never serialize on one memo while
/// cross-request reuse (a second sweep over the same base problem — an
/// Allreduce after an Allgather — touches no solver at all) still
/// accumulates. The sequential drivers use the same type through
/// [`WarmPool`], which is simply a per-base-problem collection of chunk
/// pools.
///
/// Every candidate that is not a memo hit is one fresh `synthesize` — a
/// pure function of `(topology, instance, options, SolverConfig)` — so
/// the algorithm any driver reports for a candidate is the same bytes,
/// which is what makes cold, pooled, parallel and resumed frontiers
/// identical by construction. Equality holds verbatim for runs that
/// complete; under a wall-clock budget two runs may time out on different
/// candidates, exactly as on two different machines (`Unknown` outcomes
/// are never memoized).
pub struct ChunkPool {
    topology: Topology,
    automorphisms: Vec<Vec<usize>>,
    collective: Collective,
    config: SynthesisConfig,
    chunks: usize,
    /// Decided candidates: `(S, R)` → the run the sweep was supplied.
    /// Only settled verdicts (Sat/Unsat) are memoized.
    memo: HashMap<(usize, u64), SynthesisRun>,
    /// Accounting since the pool was created; see [`ChunkPool::stats`].
    stats: IncrementalStats,
}

impl ChunkPool {
    /// A pool for candidates of `chunks` chunks per node against `base`
    /// (reduce combining collectives with [`base_problem`] first).
    pub fn new(base: &BaseProblem, config: &SynthesisConfig, chunks: usize) -> Self {
        ChunkPool {
            topology: base.topology.clone(),
            automorphisms: base.automorphisms.clone(),
            collective: base.collective,
            config: config.clone(),
            chunks,
            memo: HashMap::new(),
            stats: IncrementalStats::default(),
        }
    }

    /// The chunk count this pool serves.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Decide one candidate: from the memo, or by one fresh
    /// [`synthesize`](crate::encoding::synthesize) under `limits`.
    pub fn solve(&mut self, job: &CandidateJob, limits: Limits) -> SynthesisRun {
        assert_eq!(
            job.chunks, self.chunks,
            "candidate chunk count does not match this pool"
        );
        let key = (job.steps, job.rounds);
        if let Some(run) = self.memo.get(&key) {
            self.stats.memo_hits += 1;
            return run.clone();
        }
        let start = Instant::now();
        let run = synthesize_on(
            &self.topology,
            &self.automorphisms,
            &job.instance(self.collective, self.topology.num_nodes()),
            &self.config.encoding,
            self.config.solver.clone(),
            limits,
        );
        self.stats.cold_solve_time += start.elapsed();
        // A candidate cancelled before it was encoded took no solver.
        self.stats.warm_candidates += u64::from(run.solves > 0);
        self.stats.solve_calls += run.solves;
        if !matches!(run.outcome, SynthesisOutcome::Unknown) {
            self.memo.insert(key, run.clone());
        }
        run
    }

    /// Number of candidates this pool has decided and memoized. A bounded
    /// pool store uses this to prefer the more valuable pool when several
    /// exist for one `(base problem, chunk count)` slot.
    pub fn decided(&self) -> usize {
        self.memo.len()
    }

    /// What the pool retains, in memo cells: one per decided candidate
    /// plus one per send of a memoized schedule. A bounded pool store
    /// weights its eviction by this, so its capacity bounds retained
    /// memory rather than pool count.
    pub fn memo_weight(&self) -> usize {
        self.memo
            .values()
            .map(|run| match &run.outcome {
                SynthesisOutcome::Satisfiable(algorithm) => 1 + algorithm.sends.len(),
                _ => 1,
            })
            .sum()
    }

    /// Cumulative accounting since the pool was created (see
    /// [`IncrementalStats::delta_since`] for per-candidate or per-request
    /// figures): solver-decided candidates, the solver runs they took, the
    /// wall clock of those fresh solves, and memo hits.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }
}

/// Drive the Pareto search for `collective` on `topology`, answering
/// every candidate through `solve`. `base` must be the request's
/// [`base_problem`] — computed once by the caller and passed through, so
/// neither this driver nor the pools re-derive the topology clone, the
/// dual reversal and the machine's symmetries. This is the one sequential
/// sweep loop: [`pareto_synthesize`], [`WarmPool::frontier`] and the
/// scheduler's registry-backed path differ only in what `solve` keeps
/// between candidates.
pub fn warm_frontier(
    base: &BaseProblem,
    topology: &Topology,
    collective: Collective,
    config: &SynthesisConfig,
    solve: impl FnMut(&CandidateJob) -> SynthesisRun,
) -> Result<SynthesisReport, SynthesisError> {
    warm_frontier_resumable(base, topology, collective, config, None, |_| {}, solve)
}

/// [`warm_frontier`] with crash-recovery hooks: an optional
/// [`SweepCheckpoint`] to resume the sweep from (already-decided
/// candidates are not re-solved — the merge re-enters at the checkpoint's
/// cursor with its partial frontier intact), and an `on_progress` callback
/// invoked with the merge after every supplied candidate *that leaves
/// another one to decide* (the caller calls [`ParetoMerge::checkpoint`] as
/// often as it wants to persist one, so progress that is never persisted
/// costs nothing). The candidate that finishes the sweep reports no
/// progress: the frontier is about to be returned, and a checkpoint of a
/// finished sweep would be a durable write that recovers nothing. A sweep
/// that supplies `k` candidates therefore calls back `k - 1` times, the
/// merge already advanced to the next needed candidate. A resumed sweep
/// reaches the byte-identical frontier an uninterrupted one would — see
/// [`SweepCheckpoint`] for the argument. A checkpoint that fails
/// validation (wrong version, different caps) is discarded and the sweep
/// restarts cold: a stale checkpoint must degrade to extra work, never to
/// a wrong frontier.
pub fn warm_frontier_resumable(
    base: &BaseProblem,
    topology: &Topology,
    collective: Collective,
    config: &SynthesisConfig,
    resume_from: Option<&SweepCheckpoint>,
    mut on_progress: impl FnMut(&ParetoMerge),
    mut solve: impl FnMut(&CandidateJob) -> SynthesisRun,
) -> Result<SynthesisReport, SynthesisError> {
    if topology.num_nodes() < 2 {
        return Err(SynthesisError::TooFewNodes);
    }
    let plan = enumerate_candidates(&base.topology, base.collective, config)?;
    let mut merge = match resume_from {
        // An invalid checkpoint (version skew, different caps) must not
        // poison the solve: fall back to a cold start of the sweep.
        Some(checkpoint) => {
            ParetoMerge::resume(plan.clone(), checkpoint).unwrap_or_else(|_| ParetoMerge::new(plan))
        }
        None => ParetoMerge::new(plan),
    };
    let mut action = merge.next();
    while let MergeAction::Need(index) = action {
        let job = merge.plan().jobs[index].clone();
        merge.supply(index, solve(&job));
        action = merge.next();
        if action != MergeAction::Done {
            on_progress(&merge);
        }
    }
    Ok(finalize_report(topology, collective, merge.into_report()))
}

/// A per-base-problem collection of [`ChunkPool`]s, for callers that keep
/// their memos private (the standalone sequential driver
/// [`pareto_synthesize_warm`] and tests). The scheduler shares chunk pools
/// across threads and requests through its own registry instead.
///
/// The pool is long-lived by design: decided candidates are memoized, so a
/// *second* sweep over the same base problem — e.g. an Allreduce request
/// after an Allgather request (both reduce to the same Allgather base), or
/// ReduceScatter on a symmetric topology — answers its probes without
/// touching a solver at all. This is reuse the report cache cannot see,
/// because the requests have different cache keys.
pub struct WarmPool {
    base: BaseProblem,
    config: SynthesisConfig,
    pools: HashMap<usize, ChunkPool>,
}

impl WarmPool {
    /// A pool for the given base problem (reduce combining collectives
    /// with [`base_problem`] first).
    pub fn new(base: &BaseProblem, config: &SynthesisConfig) -> Self {
        WarmPool {
            base: base.clone(),
            config: config.clone(),
            pools: HashMap::new(),
        }
    }

    /// Decide one candidate (see [`ChunkPool::solve`]).
    pub fn solve(&mut self, job: &CandidateJob, limits: Limits) -> SynthesisRun {
        let (base, config) = (&self.base, &self.config);
        self.pools
            .entry(job.chunks)
            .or_insert_with(|| ChunkPool::new(base, config, job.chunks))
            .solve(job, limits)
    }

    /// Run the full Pareto search for `collective` on `topology` through
    /// this pool. `base` is the request's already-computed
    /// [`base_problem`]; a real check (not a debug_assert) verifies it
    /// matches the base this pool was built for — probing a mismatched
    /// base in a release build would silently answer with the wrong
    /// machine's verdicts.
    pub fn frontier(
        &mut self,
        topology: &Topology,
        collective: Collective,
        base: &BaseProblem,
    ) -> Result<SynthesisReport, SynthesisError> {
        assert!(
            base.collective == self.base.collective && base.topology == self.base.topology,
            "pool was built for a different base problem \
             ({:?} on {}, asked for {:?} on {})",
            self.base.collective,
            self.base.topology.name(),
            base.collective,
            base.topology.name()
        );
        let own_base = self.base.clone();
        let config = self.config.clone();
        let limits = config.per_instance_limits.clone();
        warm_frontier(&own_base, topology, collective, &config, |job| {
            self.solve(job, limits.clone())
        })
    }

    /// Number of candidates decided and memoized across all chunk counts.
    pub fn decided(&self) -> usize {
        self.pools.values().map(ChunkPool::decided).sum()
    }

    /// Aggregated accounting across every chunk pool (cumulative since the
    /// pool was created; see [`IncrementalStats::delta_since`] for
    /// per-request figures).
    pub fn stats(&self) -> IncrementalStats {
        let mut stats = IncrementalStats::default();
        for pool in self.pools.values() {
            stats.absorb(&pool.stats());
        }
        stats
    }
}

/// A [`SynthesisReport`] produced through a [`WarmPool`], alongside the
/// sweep's accounting.
#[derive(Clone, Debug)]
pub struct WarmSynthesis {
    /// The frontier — byte-identical to [`pareto_synthesize`]'s.
    pub report: SynthesisReport,
    /// The sweep's accounting (candidates, solver runs, memo hits).
    pub incremental: IncrementalStats,
}

/// [`pareto_synthesize`] through a private [`WarmPool`], returning the
/// pool's accounting with the (identical) frontier.
pub fn pareto_synthesize_warm(
    topology: &Topology,
    collective: Collective,
    config: &SynthesisConfig,
) -> Result<WarmSynthesis, SynthesisError> {
    let base = base_problem(topology, collective);
    let mut pool = WarmPool::new(&base, config);
    let report = pool.frontier(topology, collective, &base)?;
    Ok(WarmSynthesis {
        report,
        incremental: pool.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combining::{allreduce_required, reducescatter_required, validate_combining};
    use crate::encoding::synthesize;
    use sccl_topology::builders;

    fn quick_config() -> SynthesisConfig {
        SynthesisConfig {
            max_steps: 8,
            max_chunks: 8,
            ..Default::default()
        }
    }

    #[test]
    fn ring4_allgather_frontier() {
        let topo = builders::ring(4, 1);
        let report =
            pareto_synthesize(&topo, Collective::Allgather, &quick_config()).expect("report");
        assert_eq!(report.latency_lower_bound, 2);
        assert_eq!(report.bandwidth_lower_bound, Rational::new(3, 2));
        assert!(!report.entries.is_empty());
        // The frontier starts at the latency bound and ends at the bandwidth
        // bound.
        assert!(report.latency_optimal().is_some());
        assert!(report.bandwidth_optimal().is_some());
        assert!(!report.hit_step_cap);
        assert_eq!(report.termination, TerminationReason::BandwidthOptimal);
        // Entries are strictly improving in bandwidth as steps grow.
        for pair in report.entries.windows(2) {
            assert!(pair[0].steps < pair[1].steps);
            assert!(pair[0].cost().bandwidth_cost() > pair[1].cost().bandwidth_cost());
        }
        // Every reported algorithm validates.
        for e in &report.entries {
            let spec = Collective::Allgather.spec(4, e.chunks);
            e.algorithm.validate(&topo, &spec).expect("valid");
        }
    }

    #[test]
    fn ring4_broadcast_frontier() {
        let topo = builders::ring(4, 1);
        let report = pareto_synthesize(&topo, Collective::Broadcast { root: 0 }, &quick_config())
            .expect("report");
        assert_eq!(report.latency_lower_bound, 2);
        assert_eq!(report.bandwidth_lower_bound, Rational::new(1, 2));
        // The frontier starts at the latency bound; the exact 1/2 bandwidth
        // bound needs a pipelined schedule with more chunks than this quick
        // configuration allows, so only check the latency end here.
        let first = report.latency_optimal().expect("latency-optimal entry");
        assert_eq!(first.steps, 2);
        for e in &report.entries {
            let spec = Collective::Broadcast { root: 0 }.spec(4, e.chunks);
            e.algorithm.validate(&topo, &spec).expect("valid");
        }
    }

    #[test]
    fn star_gather_frontier_single_point() {
        // On a star, Gather to the centre is latency- and bandwidth-optimal
        // at S = 1 only when every leaf can send directly; the frontier
        // should contain a Both entry at (C=1, S=?, R=?) with ratio 1.
        let topo = builders::star(5, 1);
        let report = pareto_synthesize(&topo, Collective::Gather { root: 0 }, &quick_config())
            .expect("report");
        assert_eq!(report.latency_lower_bound, 1);
        assert_eq!(report.bandwidth_lower_bound, Rational::from_integer(1));
        let first = &report.entries[0];
        assert_eq!(first.optimality, Optimality::Both);
        assert_eq!(first.steps, 1);
    }

    #[test]
    fn reducescatter_frontier_from_inverted_allgather() {
        let topo = builders::ring(4, 1);
        let report =
            pareto_synthesize(&topo, Collective::ReduceScatter, &quick_config()).expect("report");
        assert_eq!(report.collective, Collective::ReduceScatter);
        assert!(!report.entries.is_empty());
        for e in &report.entries {
            assert!(e.algorithm.is_combining());
            validate_combining(
                &e.algorithm,
                &topo,
                &reducescatter_required(e.algorithm.num_chunks, 4),
            )
            .expect("valid reduce-scatter");
        }
    }

    #[test]
    fn allreduce_frontier_composed() {
        let topo = builders::ring(4, 1);
        let report =
            pareto_synthesize(&topo, Collective::Allreduce, &quick_config()).expect("report");
        assert!(!report.entries.is_empty());
        for e in &report.entries {
            // Steps and rounds are doubled relative to the Allgather dual.
            assert_eq!(e.steps % 2, 0);
            assert_eq!(e.algorithm.num_steps(), e.steps);
            validate_combining(
                &e.algorithm,
                &topo,
                &allreduce_required(e.algorithm.num_chunks, 4),
            )
            .expect("valid allreduce");
        }
    }

    #[test]
    fn disconnected_topology_is_an_error() {
        let mut topo = sccl_topology::Topology::new("split", 4);
        topo.add_bidi_link(0, 1, 1);
        topo.add_bidi_link(2, 3, 1);
        let err = pareto_synthesize(&topo, Collective::Allgather, &quick_config()).unwrap_err();
        assert_eq!(err, SynthesisError::Disconnected);
    }

    #[test]
    fn single_node_is_an_error() {
        let topo = sccl_topology::Topology::new("solo", 1);
        let err = pareto_synthesize(&topo, Collective::Allgather, &quick_config()).unwrap_err();
        assert_eq!(err, SynthesisError::TooFewNodes);
    }

    #[test]
    fn step_cap_is_reported() {
        // Cap the search below the bandwidth-optimal step count, leaving
        // improvement possible: step-limited.
        let topo = builders::ring(4, 1);
        let config = SynthesisConfig {
            max_steps: 2,
            max_chunks: 4,
            ..Default::default()
        };
        let report = pareto_synthesize(&topo, Collective::Allgather, &config).expect("report");
        assert!(report.hit_step_cap);
        assert_eq!(report.termination, TerminationReason::StepLimited);
        assert!(report.bandwidth_optimal().is_none());
    }

    #[test]
    fn chunk_cap_is_distinguished_from_step_cap() {
        // Broadcast on a 4-ring has b_l = 1/2, unreachable with C ≤ 2: once
        // the plan is exhausted, step 9 would need ratio ≥ 9/2 — worse than
        // anything already found. That is a chunk-cap limitation and must
        // not be misreported as "raise --max-steps".
        let topo = builders::ring(4, 1);
        let config = SynthesisConfig {
            max_steps: 8,
            max_chunks: 2,
            ..Default::default()
        };
        let report =
            pareto_synthesize(&topo, Collective::Broadcast { root: 0 }, &config).expect("report");
        assert!(!report.entries.is_empty());
        assert!(report.bandwidth_optimal().is_none());
        assert_eq!(report.termination, TerminationReason::ChunkLimited);
        assert!(
            !report.hit_step_cap,
            "chunk-limited is not a step-cap condition"
        );
    }

    #[test]
    fn k_parameter_widens_candidates() {
        // With k = 1, the 4-ring Allgather admits the (C=2, S=3, R=4)
        // point: better bandwidth than (1,3,3)'s ratio 3 at the same step
        // count... the frontier with k=1 at S=2 can use R=3 over 2 chunks.
        let topo = builders::ring(4, 1);
        let config = SynthesisConfig {
            k: 1,
            max_steps: 8,
            max_chunks: 8,
            ..Default::default()
        };
        let report = pareto_synthesize(&topo, Collective::Allgather, &config).expect("report");
        let k0 = pareto_synthesize(&topo, Collective::Allgather, &quick_config()).expect("k0");
        // The k=1 frontier's first entry is at least as good in bandwidth at
        // the latency-optimal step count.
        let first_k1 = report.entries.first().expect("entry");
        let first_k0 = k0.entries.first().expect("entry");
        assert_eq!(first_k1.steps, first_k0.steps);
        assert!(first_k1.cost().bandwidth_cost() <= first_k0.cost().bandwidth_cost());
    }

    #[test]
    fn optimality_labels() {
        assert_eq!(Optimality::Latency.label(), "Latency");
        assert_eq!(Optimality::Bandwidth.label(), "Bandwidth");
        assert_eq!(Optimality::Both.label(), "Both");
        assert_eq!(Optimality::Intermediate.label(), "");
    }

    #[test]
    fn plan_enumerates_in_sequential_decision_order() {
        let topo = builders::ring(4, 1);
        let plan =
            enumerate_candidates(&topo, Collective::Allgather, &quick_config()).expect("plan");
        assert!(!plan.trivial);
        assert_eq!(plan.latency_lower_bound, 2);
        // Indices are dense and ordered.
        for (i, job) in plan.jobs.iter().enumerate() {
            assert_eq!(job.index, i);
            assert!(job.ratio() >= plan.bandwidth_lower_bound);
            assert!(job.steps >= plan.latency_lower_bound);
            assert!(job.steps <= plan.max_steps);
            assert!(job.chunks <= plan.max_chunks);
        }
        // Within a step count, candidates are cheapest-bandwidth first.
        for pair in plan.jobs.windows(2) {
            if pair[0].steps == pair[1].steps {
                assert!(pair[0].ratio() <= pair[1].ratio());
            } else {
                assert!(pair[0].steps < pair[1].steps);
            }
        }
    }

    #[test]
    fn merge_skips_dominated_candidates_and_reports_them() {
        let topo = builders::ring(4, 1);
        let plan =
            enumerate_candidates(&topo, Collective::Allgather, &quick_config()).expect("plan");
        let total = plan.jobs.len();
        let mut merge = ParetoMerge::new(plan);
        let config = quick_config();
        let mut solved = Vec::new();
        let mut skipped = Vec::new();
        while let MergeAction::Need(index) = merge.next() {
            skipped.extend(merge.drain_skipped());
            let instance = merge.plan().jobs[index].instance(Collective::Allgather, 4);
            let run = synthesize(
                &topo,
                &instance,
                &config.encoding,
                config.solver.clone(),
                Limits::none(),
            );
            solved.push(index);
            merge.supply(index, run);
        }
        skipped.extend(merge.drain_skipped());
        // Every candidate was either solved or explicitly skipped.
        let mut all: Vec<usize> = solved.iter().chain(skipped.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
        // And the assembled report matches the one-shot driver.
        let report = merge.into_report();
        let reference =
            pareto_synthesize(&topo, Collective::Allgather, &quick_config()).expect("reference");
        assert!(report.same_frontier(&reference));
    }

    #[test]
    fn chunk_cap_accounts_for_alltoall_chunk_granularity() {
        // Alltoall on 4 nodes only admits chunk counts that are multiples
        // of 4, so with max_chunks = 6 the largest usable count is 4, not
        // 6. A frontier whose best ratio is 1 is chunk-limited at
        // max_steps = 4 (the next step's cheapest feasible ratio is
        // 5/4 ≥ 1); judging by max_chunks = 6 would wrongly say 5/6 < 1,
        // i.e. step-limited.
        let plan = CandidatePlan {
            collective: Collective::Alltoall,
            topology_name: "synthetic".to_string(),
            latency_lower_bound: 2,
            bandwidth_lower_bound: Rational::new(1, 2),
            max_steps: 4,
            max_chunks: 6,
            chunk_step: 4,
            trivial: false,
            jobs: vec![CandidateJob {
                index: 0,
                steps: 4,
                rounds: 4,
                chunks: 4,
            }],
        };
        let mut merge = ParetoMerge::new(plan);
        let MergeAction::Need(0) = merge.next() else {
            panic!("expected the single candidate to be needed");
        };
        let algorithm = Algorithm {
            collective: Collective::Alltoall,
            topology_name: "synthetic".to_string(),
            num_nodes: 4,
            per_node_chunks: 4,
            num_chunks: 16,
            rounds_per_step: vec![1; 4],
            sends: Vec::new(),
        };
        merge.supply(
            0,
            SynthesisRun::unsolved(SynthesisOutcome::Satisfiable(algorithm)),
        );
        assert_eq!(merge.next(), MergeAction::Done);
        let report = merge.into_report();
        assert_eq!(report.termination, TerminationReason::ChunkLimited);
        assert!(!report.hit_step_cap);
    }

    #[test]
    fn chunk_cap_below_granularity_is_chunk_limited() {
        // Alltoall on 4 nodes needs C in multiples of 4; max_chunks = 2
        // admits no candidate at any step count, which is a chunk-cap
        // limitation (raising max_steps can never help).
        let topo = builders::ring(4, 1);
        let config = SynthesisConfig {
            max_steps: 4,
            max_chunks: 2,
            ..Default::default()
        };
        let report = pareto_synthesize(&topo, Collective::Alltoall, &config).expect("report");
        assert!(report.entries.is_empty());
        assert_eq!(report.termination, TerminationReason::ChunkLimited);
        assert!(!report.hit_step_cap);
    }

    #[test]
    fn warm_driver_matches_cold_frontier() {
        let topo = builders::ring(4, 1);
        for collective in [
            Collective::Allgather,
            Collective::Broadcast { root: 0 },
            Collective::Allreduce,
        ] {
            let cold = pareto_synthesize(&topo, collective, &quick_config()).expect("cold");
            let warm = pareto_synthesize_warm(&topo, collective, &quick_config()).expect("warm");
            assert!(
                warm.report.same_frontier(&cold),
                "{collective} warm frontier diverged from cold"
            );
            // Every candidate was a fresh solve, and the books say so.
            assert!(warm.incremental.warm_candidates > 0);
            assert!(warm.incremental.solve_calls >= warm.incremental.warm_candidates);
            assert!(warm.incremental.cold_solve_time > Duration::ZERO);
            assert_eq!(warm.incremental.warm_solve_time, Duration::ZERO);
            assert_eq!(warm.incremental.cold_fallbacks, 0);
        }
    }

    #[test]
    fn dgx1_sweep_costs_one_warm_solve_per_candidate() {
        // One solver run per decided candidate, a second only where the
        // quotient under the machine's symmetries was refuted (a model of
        // it settles the candidate; a refutation of it does not), and none
        // on a memo hit. The lexicographic decode of PR 3 issued ~70 runs
        // per satisfiable candidate: a blow-up must not come back silently.
        let topo = builders::dgx1();
        let config = SynthesisConfig {
            k: 2,
            max_steps: 3,
            max_chunks: 8,
            ..Default::default()
        };
        let base = base_problem(&topo, Collective::Allgather);
        let mut pool = WarmPool::new(&base, &config);
        let report = pool
            .frontier(&topo, Collective::Allgather, &base)
            .expect("sweep");
        let first = pool.stats();
        let (candidates, satisfiable) = (pool.decided() as u64, report.entries.len() as u64);
        assert!(satisfiable >= 2 && candidates > satisfiable, "a real sweep");
        assert_eq!(first.warm_candidates, candidates);
        assert!(first.solve_calls > candidates, "some quotient is refuted");
        assert!(first.solve_calls <= candidates + (candidates - satisfiable));
        assert_eq!(first.memo_hits, 0);
        let again = pool
            .frontier(&topo, Collective::Allgather, &base)
            .expect("memoized sweep");
        assert!(again.same_frontier(&report));
        let second = pool.stats().delta_since(&first);
        assert_eq!((second.solve_calls, second.warm_candidates), (0, 0));
        assert_eq!(second.memo_hits, candidates);
        assert_eq!(second.cold_solve_time, Duration::ZERO);
    }

    #[test]
    fn a_confirmation_out_of_budget_leaves_the_candidate_unknown() {
        // (The name is from when a warm verdict was confirmed by a fresh
        // solve; what it pins outlived that: out of budget is Unknown, is
        // not memoized, and leaves nothing behind that changes the bytes
        // the same pool reports once it is given the budget.)
        let topo = builders::dgx1();
        let base = base_problem(&topo, Collective::Allgather);
        let config = SynthesisConfig {
            k: 2,
            max_steps: 4,
            ..Default::default()
        };
        let mut pool = ChunkPool::new(&base, &config, 2);
        let job = CandidateJob {
            index: 0,
            steps: 3,
            rounds: 4,
            chunks: 2,
        };
        let starved = pool.solve(&job, Limits::conflicts(1));
        assert!(matches!(starved.outcome, SynthesisOutcome::Unknown));
        assert_eq!(starved.solves, 2, "quotient and full formula, one budget");
        assert_eq!(pool.decided(), 0, "Unknown is never memoized");
        let decided = pool.solve(&job, Limits::none());
        let fresh = synthesize(
            &topo,
            &job.instance(Collective::Allgather, 8),
            &config.encoding,
            config.solver.clone(),
            Limits::none(),
        );
        assert_eq!(
            decided.outcome.algorithm().expect("SAT"),
            fresh.outcome.algorithm().expect("SAT")
        );
        assert_eq!((pool.decided(), pool.stats().warm_candidates), (1, 2));
    }

    #[test]
    fn warm_driver_supports_the_clause_learning_ablation() {
        // The chronological-backtracking ablation goes through the pools
        // like any other configuration, with the identical frontier.
        let topo = builders::ring(4, 1);
        let config = SynthesisConfig {
            max_steps: 4,
            max_chunks: 2,
            solver: SolverConfig {
                clause_learning: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let cold = pareto_synthesize(&topo, Collective::Allgather, &config).expect("cold");
        let warm = pareto_synthesize_warm(&topo, Collective::Allgather, &config).expect("warm");
        assert!(warm.report.same_frontier(&cold));
    }

    #[test]
    fn warm_driver_propagates_errors_like_cold() {
        let solo = sccl_topology::Topology::new("solo", 1);
        assert_eq!(
            pareto_synthesize_warm(&solo, Collective::Allgather, &quick_config()).unwrap_err(),
            SynthesisError::TooFewNodes
        );
        let mut split = sccl_topology::Topology::new("split", 4);
        split.add_bidi_link(0, 1, 1);
        split.add_bidi_link(2, 3, 1);
        assert_eq!(
            pareto_synthesize_warm(&split, Collective::Allgather, &quick_config()).unwrap_err(),
            SynthesisError::Disconnected
        );
    }

    /// Solves and progress callbacks of one resumable sweep.
    fn sweep_counts(topo: &Topology, collective: Collective) -> (usize, usize) {
        let config = quick_config();
        let base = base_problem(topo, collective);
        let mut pool = WarmPool::new(&base, &config);
        let (mut solves, mut progress) = (0, 0);
        warm_frontier_resumable(
            &base,
            topo,
            collective,
            &config,
            None,
            |merge| {
                progress += 1;
                assert!(
                    merge.checkpoint().cursor < merge.plan().jobs.len(),
                    "progress is only reported while a candidate remains to decide"
                );
            },
            |job| {
                solves += 1;
                pool.solve(job, Limits::none())
            },
        )
        .expect("sweep");
        (solves, progress)
    }

    #[test]
    fn a_sweep_reports_progress_only_while_candidates_remain() {
        // The candidate that finishes a sweep is not progress worth
        // persisting: k supplied candidates, k - 1 callbacks.
        let (solves, progress) = sweep_counts(&builders::ring(4, 1), Collective::Allgather);
        assert!(solves > 1, "ring:4 allgather decides several candidates");
        assert_eq!(progress, solves - 1);
        // A sweep whose first candidate already meets the bandwidth bound
        // never calls back at all.
        let (solves, progress) =
            sweep_counts(&builders::fully_connected(3, 1), Collective::Allgather);
        assert_eq!((solves, progress), (1, 0));
    }

    #[test]
    fn termination_reason_descriptions_are_distinct() {
        let reasons = [
            TerminationReason::BandwidthOptimal,
            TerminationReason::ChunkLimited,
            TerminationReason::StepLimited,
            TerminationReason::Trivial,
        ];
        for (i, a) in reasons.iter().enumerate() {
            for b in &reasons[i + 1..] {
                assert_ne!(a.describe(), b.describe());
            }
        }
    }
}
