//! Assumption-based incremental layering of the synthesis encoding.
//!
//! **Out of production.** No sweep driver builds an
//! [`IncrementalEncoder`] any more: since the ingress cuts a long-lived
//! solver is no cheaper a refuter than a fresh formula, a model of one
//! depends on its history and had to be re-derived by a fresh solve
//! anyway, and the retained encoders were most of a daemon's memory.
//! Every candidate of every sweep is now one fresh
//! [`synthesize`](crate::encoding::synthesize) (see
//! [`BaseProblem::solve`](crate::pareto::BaseProblem::solve)). The encoder
//! stays as a library type for two users: the frozen benchmark ledger's
//! `core.incremental.*` replays construct it, and
//! `core/tests/proptest_synthesis.rs::encodings_agree` holds its verdicts
//! to the naive reference. It goes when a benchmark PR re-cuts those
//! metrics. [`IncrementalStats`], the accounting type the scheduler's
//! responses carry, lives here for the same reason.
//!
//! The Pareto search solves many SynColl instances that differ only in
//! their step/round budget `(S, R)`: for a fixed `(topology, collective,
//! C)` the chunk-arrival variables, the send Booleans and constraints
//! C1/C3/C4 are identical across every candidate, yet the cold
//! [`synthesize`](crate::encoding::synthesize) path rebuilds all of them
//! (and throws away every learnt clause) per query. This module splits the
//! encoding into two layers:
//!
//! * **Base layer** — emitted once per `(topology, collective, C)` into a
//!   long-lived [`sccl_solver::Solver`]: arrival-time integers `time(c, n)`
//!   with domain `0 ..= max_steps + 1` (the top value meaning "never"),
//!   send Booleans `snd(n, c, n')`, the receive-exactly-once constraint C3
//!   phrased against the `max_steps` horizon, and the ordering constraint
//!   C4. The Tseitin products used by the bandwidth constraint (`time = s`
//!   equality literals and per-send occupancy literals) are memoized here
//!   so later candidates reuse them.
//! * **Step layer** — built once per step count `S` a candidate touches:
//!   per-step round-count integers `r_s` with the *R-independent* domain
//!   `1 ..= k + 1` (every k-synchronous candidate obeys
//!   `R − (S − 1) ≤ k + 1`), a round-total integer `T_S` coupled by
//!   `Σ r_s = T_S` (plus redundant channeling clauses between each `r_s`
//!   and `T_S` so budget assumptions prune by unit propagation), and the
//!   bandwidth constraint C5 (`Σ occupancy ≤ b · r_s`) behind the layer's
//!   permanent *gate literal* via a big-M escape term: probes at other
//!   step counts leave the gate unassumed, so a retired layer costs their
//!   searches nothing, while the gate is never retired, so clauses learnt
//!   from C5 conflicts stay valid and reusable for every later candidate
//!   at this `S`. The ingress cuts (`encoding::add_ingress_cuts`: per
//!   node and step boundary, the post chunks still missing fit through
//!   the node's links in the layer's remaining rounds) are emitted here,
//!   by the same function the cold encoding calls, and sit behind the
//!   same gate for a stronger reason than economy: a cut is implied only
//!   together with the deadlines `time(c, n) ≤ S` of *this* step count,
//!   which a candidate assumes next to the gate and never without it.
//!   Ungated, a layer's cut would hold a longer candidate's arrivals to
//!   the shorter layer's rounds and refute satisfiable probes. Gated, a
//!   probe at another step count sets the gate false and the cut is
//!   vacuous, a probe at this one gets exactly the cold encoding's cut,
//!   and a failed core made of the gate and deadlines alone still refutes
//!   the whole row (`rounds_independent_unsat`).
//! * **Candidate activation** — per `(S, R)`: *no clauses at all*. The
//!   deadline constraint C2 and the round budget C6 are expressed purely
//!   as assumption literals over existing structure: the layer gate,
//!   `time(c, n) ≤ S` literals for every post pair (C2) and the unit
//!   interval `T_S = R` as `[T_S ≥ R] ∧ ¬[T_S ≥ R + 1]` (C6, whose upper
//!   half together with `r_s ≥ 1` also implies the per-step cap
//!   `r_s ≤ R − (S − 1)`).
//!
//! A candidate is decided by [`Solver::solve_under_assumptions`] with that
//! assumption set and needs no retiring: nothing candidate-specific is
//! ever asserted, so the next candidate simply assumes a different
//! interval. This is what makes the retained state valuable — every learnt
//! clause speaks only about permanent structure (arrival times, sends,
//! occupancy, round counts, layer gates), so conflicts derived while
//! refuting one `(S, R)` keep pruning the search for every later probe
//! against the same base problem: across the `R → R + 1` move directly,
//! and across the `S → S + 1` move through the shared base variables.
//!
//! Each activated candidate is equisatisfiable with the cold single-shot
//! encoding of the same `(S, R, C)` instance: a model of either maps to a
//! model of the other by sending non-arriving chunks to the respective
//! "never" value and dropping sends whose destination never arrives. A
//! warm sweep therefore reaches exactly the verdicts the cold sweep would.
//!
//! # Verdicts only
//!
//! A long-lived solver's model depends on everything it solved before, so
//! this module only promises verdicts: the schedule
//! [`IncrementalEncoder::solve_candidate`] returns is valid (and pruned
//! of dead sends) but *witness-dependent*, and nothing reports it.

#![allow(clippy::needless_range_loop)] // chunk x node grids read best with explicit indices

use crate::algorithm::Algorithm;
use crate::encoding::{
    add_budget, add_ingress_cuts, decode_schedule, node_ingress, EncodingOptions, EncodingStats,
    SynthesisOutcome, SynthesisRun,
};
use sccl_collectives::CollectiveSpec;
use sccl_solver::{IntVar, Limits, Lit, SolveResult, Solver, SolverConfig, SolverStats};
use sccl_topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Aggregated accounting of a synthesis sweep, surfaced through the
/// scheduler's responses and the benchmarks. The name and the fields that
/// now read zero are from when sweeps ran on warm [`IncrementalEncoder`]s;
/// the benchmark ledger reads them, so they stay.
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

    /// The per-request share of a cumulative accounting: everything in
    /// `self` that accrued after the `before` snapshot was taken.
    pub fn delta_since(&self, before: &IncrementalStats) -> IncrementalStats {
        IncrementalStats {
            encode_time: self.encode_time.saturating_sub(before.encode_time),
            warm_solve_time: self.warm_solve_time.saturating_sub(before.warm_solve_time),
            cold_solve_time: self.cold_solve_time.saturating_sub(before.cold_solve_time),
            warm_candidates: self.warm_candidates - before.warm_candidates,
            base_encodings: self.base_encodings - before.base_encodings,
            solve_calls: self.solve_calls - before.solve_calls,
            reused_clauses: self.reused_clauses - before.reused_clauses,
            canonical_probes: self.canonical_probes - before.canonical_probes,
            core_skips: self.core_skips - before.core_skips,
            memo_hits: self.memo_hits - before.memo_hits,
            cold_fallbacks: self.cold_fallbacks - before.cold_fallbacks,
            pool_checkins: self.pool_checkins - before.pool_checkins,
        }
    }
}

/// The per-step-count layer: round variables shared by every `(S, R)`
/// candidate with this `S`, plus the round total their sum is tied to.
struct StepLayer {
    /// Gates the layer's bandwidth constraints C5; assumed by every
    /// candidate with this step count and never retired. Keeping C5
    /// vacuous while *other* step counts are probed spares their searches
    /// the dead layer's propagation, while the clauses learnt from C5
    /// conflicts — which mention this permanent literal — stay valid and
    /// reusable for every later candidate at this `S`.
    gate: Lit,
    /// `r_s` for `s ∈ 1..=S`, domain `1 ..= k + 1`.
    round_vars: Vec<IntVar>,
    /// `T_S = Σ r_s`; a candidate `(S, R)` assumes the unit interval
    /// `T_S = R` over this variable's order encoding.
    total: IntVar,
}

/// One warm solver holding the base encoding of a `(topology, collective,
/// C)` problem and accepting `(S, R)` candidates against it.
pub struct IncrementalEncoder {
    solver: Solver,
    spec: CollectiveSpec,
    topology_name: String,
    per_node_chunks: usize,
    max_steps: usize,
    /// The k-synchronous slack: candidates must satisfy `R ≤ S + k`, which
    /// bounds every per-step round count by `k + 1`.
    max_extra_rounds: u64,
    constraints: Vec<(u64, Vec<(usize, usize)>)>,
    /// Per-round ingress of every node, for the step layers' ingress cuts.
    ingress: Vec<u64>,
    time_vars: Vec<Vec<IntVar>>,
    snd_vars: BTreeMap<(usize, usize, usize), Lit>,
    /// Memoized `time(c, dst) = arrival` literals, shared across layers.
    eq_lits: BTreeMap<(usize, usize, usize), Lit>,
    /// Memoized occupancy products `snd ∧ (time = arrival) → x`.
    occupy_lits: BTreeMap<(usize, usize, usize, usize), Lit>,
    /// Step layers built so far, keyed by step count.
    layers: BTreeMap<usize, StepLayer>,
    /// Step counts proven infeasible *independently of the round budget*:
    /// an UNSAT whose failed-assumption core contained no `T_S` literal
    /// refutes the deadline assumptions alone, so every `(S, R)` with that
    /// `S` is unsatisfiable and later probes are answered without solving.
    rounds_independent_unsat: std::collections::BTreeSet<usize>,
    encode_time: Duration,
    warm_solve_time: Duration,
    candidates: u64,
    /// Probes answered from `rounds_independent_unsat` without a solve.
    core_skips: u64,
}

impl IncrementalEncoder {
    /// Build the base layer for `spec` on `topology`, dimensioned for
    /// candidates of up to `max_steps` steps and at most `max_extra_rounds`
    /// rounds beyond the step count (the k-synchronous `k`).
    pub fn new(
        topology: &Topology,
        spec: CollectiveSpec,
        per_node_chunks: usize,
        max_steps: usize,
        max_extra_rounds: u64,
        options: &EncodingOptions,
        solver_config: SolverConfig,
    ) -> Self {
        let encode_start = Instant::now();
        let g = spec.num_chunks;
        let p = spec.num_nodes;
        assert_eq!(p, topology.num_nodes(), "spec/topology node count mismatch");
        assert!(max_steps >= 1, "a zero-step horizon admits no candidate");

        let mut solver = Solver::with_config(solver_config);
        let edges: Vec<(usize, usize)> = topology.links().into_iter().collect();
        let never = max_steps as i64 + 1;

        let dist_from = topology.distances();
        let chunk_dist = |c: usize, n: usize| -> Option<usize> {
            spec.pre
                .iter()
                .filter(|&&(pc, _)| pc == c)
                .filter_map(|&(_, src)| dist_from[src][n])
                .min()
        };

        // time(c, n) arrival times with C1 and optional distance pruning,
        // spanning the whole step horizon.
        let mut time_vars: Vec<Vec<IntVar>> = Vec::with_capacity(g);
        for c in 0..g {
            let mut row = Vec::with_capacity(p);
            for n in 0..p {
                let var = if spec.pre.contains(&(c, n)) {
                    IntVar::new(&mut solver, 0, 0) // C1: time = 0
                } else {
                    let lo = if options.distance_pruning {
                        match chunk_dist(c, n) {
                            Some(d) => d as i64,
                            None => never, // unreachable: can never arrive
                        }
                    } else {
                        1
                    };
                    IntVar::new(&mut solver, lo.min(never), never)
                };
                row.push(var);
            }
            time_vars.push(row);
        }

        // snd(n, c, n') Booleans; sends into pre-nodes are useless.
        let mut snd_vars: BTreeMap<(usize, usize, usize), Lit> = BTreeMap::new();
        for c in 0..g {
            for &(src, dst) in &edges {
                if spec.pre.contains(&(c, dst)) {
                    continue;
                }
                snd_vars.insert((c, src, dst), solver.new_var().positive());
            }
        }

        // C3 against the horizon: a chunk that arrives at all is received
        // exactly once. (The per-candidate deadline is layer C2's job.)
        for c in 0..g {
            for n in 0..p {
                if spec.pre.contains(&(c, n)) {
                    continue;
                }
                let incoming: Vec<Lit> = edges
                    .iter()
                    .filter(|&&(_, dst)| dst == n)
                    .filter_map(|&(src, dst)| snd_vars.get(&(c, src, dst)).copied())
                    .collect();
                let arrives = time_vars[c][n].le(&mut solver, max_steps as i64);
                solver.add_implies_clause(arrives, &incoming);
                if incoming.len() > 1 {
                    solver.add_at_most_one(&incoming);
                }
            }
        }

        // C4: the source must hold a chunk strictly before the destination.
        for (&(c, src, dst), &snd) in &snd_vars {
            IntVar::imply_less_than(&mut solver, snd, &time_vars[c][src], &time_vars[c][dst]);
        }

        // Bandwidth-constraint groups, restricted to usable edges once.
        let usable: std::collections::BTreeSet<(usize, usize)> = topology.links();
        let constraints: Vec<(u64, Vec<(usize, usize)>)> = topology
            .constraints()
            .iter()
            .filter(|con| con.chunks_per_round > 0)
            .map(|con| {
                (
                    con.chunks_per_round,
                    con.edges
                        .iter()
                        .copied()
                        .filter(|e| usable.contains(e))
                        .collect::<Vec<_>>(),
                )
            })
            .filter(|(_, edges)| !edges.is_empty())
            .collect();

        IncrementalEncoder {
            solver,
            topology_name: topology.name().to_string(),
            spec,
            per_node_chunks,
            max_steps,
            max_extra_rounds,
            constraints,
            ingress: node_ingress(topology),
            time_vars,
            snd_vars,
            eq_lits: BTreeMap::new(),
            occupy_lits: BTreeMap::new(),
            layers: BTreeMap::new(),
            rounds_independent_unsat: std::collections::BTreeSet::new(),
            encode_time: encode_start.elapsed(),
            warm_solve_time: Duration::ZERO,
            candidates: 0,
            core_skips: 0,
        }
    }

    /// The step horizon the base layer was dimensioned for.
    pub fn max_steps(&self) -> usize {
        self.max_steps
    }

    /// Candidates decided so far.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Probes answered from a cached failed-assumption core, without a
    /// solver call.
    pub fn core_skips(&self) -> u64 {
        self.core_skips
    }

    /// Cumulative encode time (base layer + candidate deltas).
    pub fn encode_time(&self) -> Duration {
        self.encode_time
    }

    /// Cumulative warm solve time.
    pub fn solve_time(&self) -> Duration {
        self.warm_solve_time
    }

    /// Statistics of the underlying warm solver.
    pub fn solver_stats(&self) -> &SolverStats {
        self.solver.stats()
    }

    /// Current formula size (cumulative across all layers pushed so far).
    pub fn encoding_stats(&self) -> EncodingStats {
        EncodingStats {
            num_vars: self.solver.num_vars(),
            num_clauses: self.solver.num_clauses(),
            num_pb_constraints: self.solver.num_pb_constraints(),
        }
    }

    /// Get or build the step layer for `num_steps`: shared round variables
    /// (domain `1 ..= k + 1`), the round total `T_S` coupled to their sum,
    /// and the bandwidth constraint C5 tying occupancy to them — all
    /// permanent.
    fn step_layer(&mut self, num_steps: usize) {
        if self.layers.contains_key(&num_steps) {
            return;
        }
        let gate = self.solver.new_var().positive();
        let hi = self.max_extra_rounds as i64 + 1;
        let round_vars: Vec<IntVar> = (0..num_steps)
            .map(|_| IntVar::new(&mut self.solver, 1, hi))
            .collect();

        // T_S = Σ r_s, as the usual pair of ≤ pseudo-Boolean constraints
        // over the order encodings.
        let total = IntVar::new(&mut self.solver, num_steps as i64, num_steps as i64 * hi);
        {
            // Σ r_s ≤ T:  Σ (r_s − 1) + (hi_T − T) ≤ hi_T − lo_T.
            let mut terms: Vec<(u64, Lit)> = Vec::new();
            for r in &round_vars {
                terms.extend(r.value_terms(1));
            }
            terms.extend(total.slack_terms(1));
            self.solver.add_pb_le(&terms, total.width());
            // T ≤ Σ r_s:  Σ (hi − r_s) + (T − lo_T) ≤ Σ (hi − 1).
            let mut terms: Vec<(u64, Lit)> = Vec::new();
            for r in &round_vars {
                terms.extend(r.slack_terms(1));
            }
            terms.extend(total.value_terms(1));
            let bound: u64 = round_vars.iter().map(|r| r.width()).sum();
            self.solver.add_pb_le(&terms, bound);
        }

        // Redundant channeling between each r_s and T_S, so the budget
        // assumptions prune by unit propagation with the same strength the
        // cold encoding gets from its R-dependent domains: every other
        // step contributes at least 1 (and at most k + 1), hence
        //   r_s ≥ v  →  T ≥ (S − 1) + v        (a tight budget caps r_s)
        //   T ≥ (S − 1)·(k + 1) + v  →  r_s ≥ v (a high total floors r_s)
        let others_hi = (num_steps as i64 - 1) * hi;
        for r in &round_vars {
            for v in 2..=hi {
                let r_ge = r.ge(&mut self.solver, v);
                let t_ge = total.ge(&mut self.solver, num_steps as i64 - 1 + v);
                self.solver.add_clause(&[!r_ge, t_ge]);
                let t_hi_ge = total.ge(&mut self.solver, others_hi + v);
                self.solver.add_clause(&[!t_hi_ge, r_ge]);
            }
        }

        // C5 (gated by the layer literal): per-step bandwidth, scaled by
        // the step's round count. Each budget gains a big-M escape term
        // over the gate, so probes at other step counts see the layer as
        // vacuous instead of dragging its occupancy accounting through
        // every propagation.
        let constraints = self.constraints.clone();
        for (b, constrained_edges) in &constraints {
            let b = *b;
            for (step_idx, r_var) in round_vars.iter().enumerate() {
                let arrival = step_idx + 1;
                let mut terms: Vec<(u64, Lit)> = Vec::new();
                for &(src, dst) in constrained_edges {
                    for c in 0..self.spec.num_chunks {
                        let Some(&snd) = self.snd_vars.get(&(c, src, dst)) else {
                            continue;
                        };
                        let t = &self.time_vars[c][dst];
                        if (arrival as i64) < t.lo() || (arrival as i64) > t.hi() {
                            continue;
                        }
                        let eq = match self.eq_lits.get(&(c, dst, arrival)) {
                            Some(&eq) => eq,
                            None => {
                                let eq =
                                    self.time_vars[c][dst].eq_lit(&mut self.solver, arrival as i64);
                                self.eq_lits.insert((c, dst, arrival), eq);
                                eq
                            }
                        };
                        let occ = match self.occupy_lits.get(&(c, src, dst, arrival)) {
                            Some(&occ) => occ,
                            None => {
                                let x = self.solver.new_var().positive();
                                // snd ∧ (time = s) → x; x may be true
                                // spuriously, which only tightens a ≤ bound.
                                self.solver.add_clause(&[!snd, !eq, x]);
                                self.occupy_lits.insert((c, src, dst, arrival), x);
                                x
                            }
                        };
                        terms.push((1, occ));
                    }
                }
                if terms.is_empty() {
                    continue;
                }
                // Σ occupancy ≤ b · r_s over the order encoding of r_s,
                // relaxed to vacuity unless the layer gate is assumed.
                terms.extend(r_var.slack_terms(b));
                add_budget(&mut self.solver, terms, b * r_var.hi() as u64, Some(gate));
            }
        }

        // The ingress cuts over this layer's rounds. They hold for a
        // candidate because it assumes the layer's deadlines (C2) next to
        // the gate, so like C5 they sit behind the gate: a probe at
        // another step count must not be held to this layer's rounds.
        add_ingress_cuts(
            &mut self.solver,
            &self.ingress,
            |_| true,
            &self.spec,
            &self.time_vars,
            &round_vars,
            Some(gate),
        );
        self.layers.insert(
            num_steps,
            StepLayer {
                gate,
                round_vars,
                total,
            },
        );
    }

    /// Decide one `(S, R)` candidate: ensure its step layer exists, then
    /// solve under the candidate's assumption set — the post-pair deadline
    /// literals `time(c, n) ≤ S` (C2) and the round-total interval
    /// `T_S = R` (C6). Nothing is asserted permanently, so no retiring is
    /// needed. The returned run's `encoding` reports the warm formula's
    /// cumulative size (not the cold per-instance size); its outcome and
    /// timings are the candidate's own. The verdict is history-independent;
    /// a satisfiable run's schedule is valid and pruned of dead sends but
    /// *witness-dependent* — it is this solver's current model, which
    /// varies with the candidates solved before (see the
    /// [module docs](crate::incremental)).
    pub fn solve_candidate(
        &mut self,
        num_steps: usize,
        num_rounds: u64,
        limits: Limits,
    ) -> SynthesisRun {
        let encode_start = Instant::now();
        // A step with zero rounds sends nothing: R < S is vacuously
        // infeasible (mirrors the cold path's up-front rejection).
        if (num_rounds as usize) < num_steps || num_steps == 0 {
            return SynthesisRun::unsolved(SynthesisOutcome::Unsatisfiable);
        }
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
        self.candidates += 1;

        // A previous probe at this step count failed on its deadline
        // assumptions alone: no round budget can rescue it.
        if self.rounds_independent_unsat.contains(&num_steps) {
            self.core_skips += 1;
            self.encode_time += encode_start.elapsed();
            return SynthesisRun {
                outcome: SynthesisOutcome::Unsatisfiable,
                encode_time: encode_start.elapsed(),
                solve_time: Duration::ZERO,
                encoding: self.encoding_stats(),
                solves: 0,
            };
        }

        self.step_layer(num_steps);
        let gate = self.layers[&num_steps].gate;
        let total = self.layers[&num_steps].total.clone();

        // The assumption set: the layer gate, the C2 deadlines and the C6
        // interval. Constant-true literals are dropped (each would only
        // open an empty decision level); constant-false ones are kept so
        // the solver reports the infeasibility through its usual
        // failed-assumption path.
        let true_lit = self.solver.true_lit();
        let mut assumptions: Vec<Lit> = vec![gate];
        let post = self.spec.post.clone();
        for &(c, n) in &post {
            let le = self.time_vars[c][n].le(&mut self.solver, num_steps as i64);
            if le != true_lit {
                assumptions.push(le);
            }
        }
        let mut budget_lits: Vec<Lit> = Vec::with_capacity(2);
        let ge_r = total.ge(&mut self.solver, num_rounds as i64);
        if ge_r != true_lit {
            budget_lits.push(ge_r);
        }
        let ge_r1 = total.ge(&mut self.solver, num_rounds as i64 + 1);
        if ge_r1 != !true_lit {
            budget_lits.push(!ge_r1);
        }
        assumptions.extend_from_slice(&budget_lits);

        let encode_time = encode_start.elapsed();
        self.encode_time += encode_time;

        let solve_start = Instant::now();
        let outcome = match self.solver.solve_under_assumptions(&assumptions, limits) {
            SolveResult::Unsat => {
                // If the failed-assumption core avoided every budget
                // literal, the deadline assumptions alone are refuted:
                // this step count is infeasible at *any* round count, and
                // later probes in the row can skip the solver entirely.
                let core = self.solver.failed_assumptions();
                if !core.is_empty() && !core.iter().any(|l| budget_lits.contains(l)) {
                    self.rounds_independent_unsat.insert(num_steps);
                }
                SynthesisOutcome::Unsatisfiable
            }
            SolveResult::Unknown => SynthesisOutcome::Unknown,
            SolveResult::Sat(model) => {
                let (rounds_per_step, sends) = decode_schedule(
                    &self.spec,
                    num_steps,
                    &self.time_vars,
                    self.snd_vars.iter().map(|(&send, &lit)| (send, lit)),
                    &self.layers[&num_steps].round_vars,
                    &model,
                );
                SynthesisOutcome::Satisfiable(Algorithm {
                    collective: self.spec.collective,
                    topology_name: self.topology_name.clone(),
                    num_nodes: self.spec.num_nodes,
                    per_node_chunks: self.per_node_chunks,
                    num_chunks: self.spec.num_chunks,
                    rounds_per_step,
                    sends,
                })
            }
        };
        let solve_time = solve_start.elapsed();
        self.warm_solve_time += solve_time;

        SynthesisRun {
            outcome,
            encode_time,
            solve_time,
            encoding: self.encoding_stats(),
            solves: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{synthesize, SynCollInstance};
    use sccl_collectives::Collective;
    use sccl_topology::builders;

    fn cold(
        topo: &Topology,
        collective: Collective,
        chunks: usize,
        steps: usize,
        rounds: u64,
    ) -> SynthesisRun {
        let inst = SynCollInstance {
            spec: collective.spec(topo.num_nodes(), chunks),
            per_node_chunks: chunks,
            num_steps: steps,
            num_rounds: rounds,
        };
        synthesize(
            topo,
            &inst,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        )
    }

    fn warm_encoder(topo: &Topology, collective: Collective, chunks: usize) -> IncrementalEncoder {
        IncrementalEncoder::new(
            topo,
            collective.spec(topo.num_nodes(), chunks),
            chunks,
            8,
            2,
            &EncodingOptions::default(),
            SolverConfig::default(),
        )
    }

    /// The warm sweep must reach the cold verdict on every candidate, in
    /// the order the Pareto search visits them.
    #[test]
    fn warm_verdicts_match_cold_across_the_candidate_lattice() {
        for (topo, collective) in [
            (builders::ring(4, 1), Collective::Allgather),
            (builders::ring(4, 1), Collective::Broadcast { root: 0 }),
            (builders::chain(4, 1), Collective::Allgather),
        ] {
            let mut enc = warm_encoder(&topo, collective, 1);
            for steps in 1..=4usize {
                for rounds in steps as u64..=(steps as u64 + 1) {
                    let warm = enc.solve_candidate(steps, rounds, Limits::none());
                    let cold = cold(&topo, collective, 1, steps, rounds);
                    assert_eq!(
                        warm.outcome.is_sat(),
                        cold.outcome.is_sat(),
                        "{collective} on {} at S={steps} R={rounds} diverged",
                        topo.name()
                    );
                }
            }
        }
    }

    /// Warm-decoded algorithms are valid schedules (witness-dependent, so
    /// only validity and cost are asserted, never bytes).
    #[test]
    fn warm_models_decode_to_valid_algorithms() {
        let topo = builders::ring(4, 1);
        let mut enc = warm_encoder(&topo, Collective::Allgather, 1);
        for (steps, rounds) in [(2usize, 2u64), (3, 3)] {
            let run = enc.solve_candidate(steps, rounds, Limits::none());
            let alg = run.outcome.algorithm().expect("SAT");
            let spec = Collective::Allgather.spec(4, 1);
            alg.validate(&topo, &spec).expect("valid warm schedule");
            assert_eq!(alg.num_steps(), steps);
            assert_eq!(alg.total_rounds(), rounds);
        }
    }

    #[test]
    fn infeasible_round_budget_rejected_without_touching_the_solver() {
        let topo = builders::ring(4, 1);
        let mut enc = warm_encoder(&topo, Collective::Allgather, 1);
        let run = enc.solve_candidate(3, 2, Limits::none());
        assert!(matches!(run.outcome, SynthesisOutcome::Unsatisfiable));
        assert_eq!(enc.candidates(), 0);
    }

    #[test]
    fn candidates_leave_the_solver_reusable() {
        let topo = builders::ring(4, 1);
        let mut enc = warm_encoder(&topo, Collective::Allgather, 1);
        // UNSAT, then SAT, then UNSAT again on the same solver. A 1-step
        // Allgather on a 4-ring is infeasible at any round count (the ring
        // diameter is 2), so the repeat probe must be answered from the
        // cached failed-assumption core without another solve.
        assert!(!enc.solve_candidate(1, 1, Limits::none()).outcome.is_sat());
        assert!(enc.solve_candidate(2, 2, Limits::none()).outcome.is_sat());
        assert!(!enc.solve_candidate(1, 1, Limits::none()).outcome.is_sat());
        assert_eq!(enc.candidates(), 3);
        // Exactly two candidate solves: decoding the SAT model touches the
        // solver no further.
        assert_eq!(enc.solver_stats().solve_calls, 2);
        assert_eq!(enc.core_skips(), 1);
    }

    #[test]
    fn budget_driven_unsat_does_not_poison_the_row() {
        // Broadcast of 3 chunks on a 4-chain, root 0: at S = 3 every hop
        // must forward all 3 chunks within a single step, so R = 3 (one
        // round per step) is infeasible but R = 9 (three rounds per step)
        // is not — the failed core must implicate the budget, and the later
        // probe at the same step count must still be solved (and found SAT)
        // rather than skipped.
        let topo = builders::chain(4, 1);
        let mut enc = IncrementalEncoder::new(
            &topo,
            Collective::Broadcast { root: 0 }.spec(4, 3),
            3,
            8,
            6,
            &EncodingOptions::default(),
            SolverConfig::default(),
        );
        assert!(!enc.solve_candidate(3, 3, Limits::none()).outcome.is_sat());
        let relaxed = enc.solve_candidate(3, 9, Limits::none());
        assert!(
            relaxed.outcome.is_sat(),
            "S=3 R=9 C=3 chain broadcast must be satisfiable"
        );
        assert_eq!(enc.core_skips(), 0);
    }

    #[test]
    fn ingress_bound_breakers_are_refuted_through_the_layer_gate() {
        // The same two rows the cold encoder refutes by constants: behind
        // the gate the s = 0 cut forces the gate itself false, so the probe
        // fails at assumption placement — and names no budget literal, which
        // settles the whole row.
        let topo = builders::dgx1();
        for c in [3usize, 4] {
            let mut enc = IncrementalEncoder::new(
                &topo,
                Collective::Allgather.spec(8, c),
                c,
                c,
                0,
                &EncodingOptions::default(),
                SolverConfig::default(),
            );
            let run = enc.solve_candidate(c, c as u64, Limits::conflicts(1));
            assert!(
                matches!(run.outcome, SynthesisOutcome::Unsatisfiable),
                "Allgather ({c},{c},{c}): {:?}",
                run.outcome
            );
            assert_eq!(enc.solver_stats().conflicts, 0);
            assert!(!enc
                .solve_candidate(c, c as u64, Limits::none())
                .outcome
                .is_sat());
            assert_eq!(enc.core_skips(), 1);
        }
    }

    #[test]
    fn unknown_on_tiny_budget_keeps_encoder_alive() {
        let topo = builders::dgx1();
        let mut enc = warm_encoder(&topo, Collective::Allgather, 2);
        let run = enc.solve_candidate(3, 4, Limits::conflicts(1));
        assert!(matches!(
            run.outcome,
            SynthesisOutcome::Unknown | SynthesisOutcome::Satisfiable(_)
        ));
        // The encoder still decides later candidates correctly (same
        // verdict as the cold path).
        let warm = enc.solve_candidate(2, 2, Limits::none());
        let reference = cold(&topo, Collective::Allgather, 2, 2, 2);
        assert_eq!(warm.outcome.is_sat(), reference.outcome.is_sat());
    }
}
