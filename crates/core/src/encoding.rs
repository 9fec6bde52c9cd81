//! The SMT encoding of the synthesis problem (§3.4, constraints C1–C6) and
//! its decoding back into an [`Algorithm`].
//!
//! Two encodings are provided:
//!
//! * [`synthesize`] — the paper's "careful combination of Boolean, integer,
//!   and pseudo-Boolean constraints": per-(chunk, node) arrival-time
//!   integers `time(c, n)`, per-(chunk, edge) send Booleans `snd(n, c, n')`
//!   and per-step round-count integers `r_s`.
//! * [`synthesize_naive`] — the direct encoding with one Boolean per tuple
//!   `(c, n, n', s)` plus per-step presence Booleans, which the paper
//!   reports does not scale (§5.4.3). Kept for the encoding-ablation bench
//!   and as the reference the property tests hold the other two encoders
//!   to: it has neither the symmetry nor the strengthenings below.
//!
//! # Symmetry
//!
//! The paper scales by "exploiting symmetries in topologies and
//! collectives". A *symmetry* of an instance is an automorphism `σ` of the
//! machine (a node permutation mapping the bandwidth relation onto
//! itself) with the chunk permutation `π` it induces such that `pre` and
//! `post` are mapped onto themselves. Acting on indices — `time(c, n) ↦
//! time(π c, σ n)`, `snd(c, n, n') ↦ snd(π c, σ n, σ n')`, step indices
//! untouched — it maps every constraint of the formula onto a constraint
//! of the formula: C1/C2 because `pre`/`post` are kept, C3/C4 because links
//! are, C5 and the ingress cuts because budgets are, the distance floors
//! because hop counts are.
//!
//! **What is merged.** [`synthesize`] first solves the formula's
//! *quotient* under a group `H` of symmetries: one `time` variable per
//! orbit of `(chunk, node)` pairs, one `snd` literal per orbit of `(chunk,
//! src, dst)` triples (likewise the `time = s` and occupancy literals
//! behind C5), which every other index of the orbit aliases, and each
//! constraint stated for its orbit's least member only. That is the
//! formula plus `x = h(x)` for every variable and every `h ∈ H`, at
//! `1/|H|` of the size: the DGX-1 Alltoall `(8,3,3)` is 8 705 variables,
//! its quotient under the machine's four rotations 2 177. There is one
//! emitter; the full formula is the quotient under the trivial group.
//!
//! **Why a satisfiable quotient is a model of the full formula.** The
//! aliases give every index of the full grids a value. A constraint of
//! the full formula is the image `h(K)` of a stated one; its variables
//! alias those of `K`, and `K` holds. The schedule is decoded from the
//! full grids by the same `decode_schedule` and checked by the same
//! validators as any other.
//!
//! **Why an unsatisfiable one is not a verdict.** The quotient's models
//! are exactly the `H`-invariant schedules. An instance may have schedules
//! and none that looks the same from every node of an orbit; so a refuted
//! quotient — and one that ran out of budget — proves nothing, and the
//! full formula is solved under what is left of the same [`Limits`]. The
//! quotient is never the source of an `Unsatisfiable`.
//!
//! **Why the group must act freely.** If some `h ≠ id` fixes a node `n`,
//! two different sends into `n` — `m → n` and `h(m) → n` — fall into one
//! orbit and share a literal; C3's at-most-one over the sends into `n`
//! then counts that literal twice and forbids it, and the quotient is
//! refuted at level 0 although the instance is fine. `H` is therefore
//! grown (`crate::symmetry`) as a group in which only the identity fixes
//! a node — the rotations of a ring, the translations of a hypercube —
//! out of the fixed-point-free automorphisms the topology finds
//! ([`Topology::fixed_point_free_automorphisms`], once per sweep). Every
//! orbit of nodes then has `|H|` members, and no two literals of one C3
//! or of one ingress cut are merged. Rooted collectives have no such
//! symmetry (every one fixes the root) and are solved as before.
//!
//! # Redundant strengthenings
//!
//! [`synthesize`] adds two families of constraints that C1–C6 already
//! imply, because stating them turns an argument the solver would have to
//! rediscover conflict by conflict into unit propagation. *Distance
//! pruning* ([`EncodingOptions::distance_pruning`]) floors `time(c, n)` at
//! the hop distance from the chunk's sources. The *ingress cuts*
//! (`add_ingress_cuts`) say, per node and per step boundary, that the
//! post chunks still missing at the node fit through its incoming links in
//! the rounds that remain. That is the node-level sum of C5 over the
//! node's links and the remaining steps — C2 makes the chunks arrive, C3
//! gives each arrival exactly one send, C5 caps the sends per link and
//! step — and at the first boundary it is the paper's §3.6 single-node
//! bandwidth bound, the same knowledge Algorithm 1 uses to pick its
//! candidates. Clause learning cannot shorten a counting argument (these
//! are pigeonhole instances), pseudo-Boolean slack counting does it in one
//! pass: the DGX-1 Allgather rows that break the bound by one round are
//! refuted before the first decision instead of after 60 000 or 300 000
//! conflicts, and the rows that meet it exactly are found satisfiable in a
//! few thousand. The cuts are always on — there is no option to tune — and
//! are written once, for this encoder and the layered one in
//! [`crate::incremental`] alike.

#![allow(clippy::needless_range_loop)] // chunk x node grids read best with explicit indices

use crate::algorithm::{Algorithm, Send};
use crate::symmetry::Group;
use sccl_collectives::CollectiveSpec;
use sccl_solver::{add_linear_eq, IntVar, Limits, Lit, Model, SolveResult, Solver, SolverConfig};
use sccl_topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Version of the SMT encoding. Bump this whenever the encoding changes in
/// a way that can alter synthesized algorithms (new constraints, different
/// variable ordering, changed decoding), so that persistent caches keyed on
/// it — see `sccl_sched::CacheKey` — invalidate entries produced by older
/// encoders instead of serving stale frontiers.
///
/// History: 2 — `Topology::reversed()` now returns edge-symmetric machines
/// unchanged, so the inversion duals of combining collectives encode
/// against the original constraint order (different variable ordering,
/// hence possibly different — equally valid — decoded models).
/// 3 — satisfiable instances decoded through a lexicographically minimal
/// schedule reconstruction (~70 assumption probes per candidate).
/// 4 — that reconstruction is gone: the reported algorithm is the fresh
/// solver's own model with dead sends pruned ([`synthesize`]), so cached
/// algorithms from older encoders no longer match.
/// 5 — both encoders state the per-node ingress cuts
/// (`add_ingress_cuts`): verdicts are unchanged (the cuts are implied),
/// but the search, and with it the model behind a satisfiable candidate,
/// is not.
/// 6 — a candidate whose instance has symmetries is decided on the
/// quotient formula first (see "Symmetry" in the module docs): the same
/// `(C, S, R)` points, symmetric schedules behind them.
pub const ENCODER_VERSION: u32 = 6;

/// One synthesis query: find a `(S, R)` k-synchronous schedule implementing
/// `spec` on `topology` (the SynColl instance of §3.2 with its parameters).
#[derive(Clone, Debug)]
pub struct SynCollInstance {
    /// The collective specification (pre/post relations, `G`, `P`).
    pub spec: CollectiveSpec,
    /// Per-node chunk count `C` (kept for cost accounting; `G` already
    /// reflects it).
    pub per_node_chunks: usize,
    /// Number of synchronous steps `S`.
    pub num_steps: usize,
    /// Total number of rounds `R`.
    pub num_rounds: u64,
}

/// Options controlling the encoding.
#[derive(Clone, Debug)]
pub struct EncodingOptions {
    /// Add the redundant (but sound) strengthening
    /// `time(c, n) ≥ shortest-path distance from c's sources to n`.
    /// Dramatically narrows the search; on by default.
    pub distance_pruning: bool,
}

impl Default for EncodingOptions {
    fn default() -> Self {
        EncodingOptions {
            distance_pruning: true,
        }
    }
}

/// Size of the generated formula.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodingStats {
    pub num_vars: usize,
    pub num_clauses: usize,
    pub num_pb_constraints: usize,
}

/// Result of one synthesis query.
#[derive(Clone, Debug)]
pub enum SynthesisOutcome {
    /// A valid schedule exists; here it is.
    Satisfiable(Algorithm),
    /// No `(S, R)` schedule exists for this instance.
    Unsatisfiable,
    /// The solver ran out of budget.
    Unknown,
}

impl SynthesisOutcome {
    pub fn is_sat(&self) -> bool {
        matches!(self, SynthesisOutcome::Satisfiable(_))
    }

    pub fn algorithm(self) -> Option<Algorithm> {
        match self {
            SynthesisOutcome::Satisfiable(a) => Some(a),
            _ => None,
        }
    }
}

/// Outcome plus timing and formula-size metadata (reported in Tables 4–5).
#[derive(Clone, Debug)]
pub struct SynthesisRun {
    pub outcome: SynthesisOutcome,
    pub encode_time: Duration,
    pub solve_time: Duration,
    /// Size of the last formula solved: the quotient's when its model
    /// settled the candidate, the full formula's otherwise.
    pub encoding: EncodingStats,
    /// Formulas handed to the solver: none for a candidate rejected or
    /// cancelled before encoding, two where the quotient settled nothing
    /// and the full formula was solved as well.
    pub solves: u64,
}

impl SynthesisRun {
    /// A run that handed the solver nothing: a candidate rejected before
    /// it was encoded (`Unsatisfiable`) or cancelled (`Unknown`).
    pub fn unsolved(outcome: SynthesisOutcome) -> Self {
        SynthesisRun {
            outcome,
            encode_time: Duration::ZERO,
            solve_time: Duration::ZERO,
            encoding: EncodingStats::default(),
            solves: 0,
        }
    }

    /// Total synthesis time ("Time includes both encoding and solving",
    /// Tables 4–5).
    pub fn total_time(&self) -> Duration {
        self.encode_time + self.solve_time
    }
}

/// Synthesize with the paper's scalable encoding: the quotient of the
/// formula under the machine's symmetries first, the full formula if that
/// settles nothing (see "Symmetry" in the [module docs](self)). A pure
/// function of its arguments: every driver that reports a schedule for a
/// candidate reports this one.
pub fn synthesize(
    topology: &Topology,
    instance: &SynCollInstance,
    options: &EncodingOptions,
    solver_config: SolverConfig,
    limits: Limits,
) -> SynthesisRun {
    let start = Instant::now();
    let automorphisms = topology.fixed_point_free_automorphisms();
    let searched = start.elapsed();
    let mut run = synthesize_on(
        topology,
        &automorphisms,
        instance,
        options,
        solver_config,
        limits,
    );
    run.encode_time += searched;
    run
}

/// [`synthesize`] for a sweep that searched its machine once:
/// `automorphisms` are `topology`'s
/// ([`Topology::fixed_point_free_automorphisms`]; any subset is sound,
/// anything else is not).
pub(crate) fn synthesize_on(
    topology: &Topology,
    automorphisms: &[Vec<usize>],
    instance: &SynCollInstance,
    options: &EncodingOptions,
    solver_config: SolverConfig,
    limits: Limits,
) -> SynthesisRun {
    let start = Instant::now();
    let spec = &instance.spec;
    assert_eq!(
        spec.num_nodes,
        topology.num_nodes(),
        "spec/topology node count mismatch"
    );
    debug_assert!(automorphisms.iter().all(|a| topology.is_automorphism(a)));

    // A step with zero rounds sends nothing, so R < S is vacuously
    // infeasible for any schedule that actually uses S steps.
    if (instance.num_rounds as usize) < instance.num_steps || instance.num_steps == 0 {
        return SynthesisRun::unsolved(SynthesisOutcome::Unsatisfiable);
    }

    // The quotient first. Only a model settles the candidate there: a
    // refuted quotient says that no schedule has the symmetry, one out of
    // budget says nothing — either way the full formula decides, on what
    // is left of the limits.
    let symmetries = Group::free(spec, automorphisms);
    let mut limits = limits;
    let (mut solve_time, mut solves) = (Duration::ZERO, 0);
    if symmetries.order() > 1 {
        let (run, conflicts) = solve_quotient(
            topology,
            instance,
            options,
            solver_config.clone(),
            &symmetries,
            limits.clone(),
        );
        if run.outcome.is_sat() {
            // Whatever was not solving — growing the group included — was
            // encoding.
            return SynthesisRun {
                encode_time: start.elapsed().saturating_sub(run.solve_time),
                ..run
            };
        }
        limits = limits.after(conflicts, run.solve_time);
        (solve_time, solves) = (run.solve_time, run.solves);
    }
    let full = Group::trivial(spec);
    let (run, _) = solve_quotient(topology, instance, options, solver_config, &full, limits);
    solve_time += run.solve_time;
    SynthesisRun {
        encode_time: start.elapsed().saturating_sub(solve_time),
        solve_time,
        solves: solves + run.solves,
        ..run
    }
}

/// Encode the quotient of `instance`'s formula under `group` — C1–C6, the
/// distance floors and the ingress cuts, every variable and constraint
/// once per orbit — and solve it within `limits`. Under the trivial group
/// this is the full formula. Returns the run and the conflicts it took. A
/// cancelled candidate builds no formula.
fn solve_quotient(
    topology: &Topology,
    instance: &SynCollInstance,
    options: &EncodingOptions,
    solver_config: SolverConfig,
    group: &Group,
    limits: Limits,
) -> (SynthesisRun, u64) {
    let encode_start = Instant::now();
    if limits.stop_requested() {
        return (SynthesisRun::unsolved(SynthesisOutcome::Unknown), 0);
    }
    let spec = &instance.spec;
    let g = spec.num_chunks;
    let p = spec.num_nodes;
    let s_steps = instance.num_steps;
    let r_rounds = instance.num_rounds;

    let mut solver = Solver::with_config(solver_config);
    let edges: Vec<(usize, usize)> = topology.links().into_iter().collect();
    let never = s_steps as i64 + 1; // arrival time meaning "not within S steps"

    // Distance pruning data: dist[c][n] = shortest hop count from any
    // pre-node of chunk c to node n.
    let dist_from: Vec<Vec<Option<usize>>> = (0..p).map(|n| topology.distances_from(n)).collect();
    let chunk_dist = |c: usize, n: usize| -> Option<usize> {
        spec.pre
            .iter()
            .filter(|&&(pc, _)| pc == c)
            .filter_map(|&(_, src)| dist_from[src][n])
            .min()
    };

    // r_s: rounds per step, each at least 1 (C6 ties their sum to R). No
    // symmetry moves a step, so these are their own orbits.
    let max_per_step = r_rounds as i64 - (s_steps as i64 - 1);
    let round_vars: Vec<IntVar> = (0..s_steps)
        .map(|_| IntVar::new(&mut solver, 1, max_per_step))
        .collect();
    {
        let refs: Vec<&IntVar> = round_vars.iter().collect();
        add_linear_eq(&mut solver, &refs, r_rounds as i64);
    }

    // time(c, n) arrival times with C1/C2 and optional distance pruning:
    // one variable per orbit, which every other pair of the orbit aliases
    // (its representative is the least pair, so it came first).
    let mut time_vars: Vec<Vec<IntVar>> = Vec::with_capacity(g);
    for c in 0..g {
        let mut row: Vec<IntVar> = Vec::with_capacity(p);
        for n in 0..p {
            let (rep_c, rep_n) = group.pair(c, n);
            if (rep_c, rep_n) != (c, n) {
                let rep_row = if rep_c == c { &row } else { &time_vars[rep_c] };
                let alias = rep_row[rep_n].clone();
                row.push(alias);
                continue;
            }
            let in_pre = spec.pre.contains(&(c, n));
            let var = if in_pre {
                IntVar::new(&mut solver, 0, 0) // C1: time = 0
            } else {
                let lo = if options.distance_pruning {
                    match chunk_dist(c, n) {
                        Some(d) => d as i64,
                        // Unreachable node: it can never receive the chunk.
                        None => never,
                    }
                } else {
                    1
                };
                IntVar::new(&mut solver, lo.min(never), never)
            };
            if spec.post.contains(&(c, n)) {
                var.assert_le(&mut solver, s_steps as i64); // C2
            }
            row.push(var);
        }
        time_vars.push(row);
    }

    // snd(n, c, n') Booleans, one per orbit. Sends into a chunk's pre-nodes
    // are useless and omitted (those nodes hold the chunk from time 0).
    let mut snd_vars: BTreeMap<(usize, usize, usize), Lit> = BTreeMap::new();
    for c in 0..g {
        for &(src, dst) in &edges {
            if spec.pre.contains(&(c, dst)) {
                continue;
            }
            let rep = group.triple(c, src, dst);
            let lit = match rep == (c, src, dst) {
                true => solver.new_var().positive(),
                false => snd_vars[&rep],
            };
            snd_vars.insert((c, src, dst), lit);
        }
    }

    // C3: a non-pre node that obtains a chunk receives it exactly once.
    for c in 0..g {
        for n in 0..p {
            if spec.pre.contains(&(c, n)) || group.pair(c, n) != (c, n) {
                continue;
            }
            let incoming: Vec<Lit> = edges
                .iter()
                .filter(|&&(_, dst)| dst == n)
                .filter_map(|&(src, dst)| snd_vars.get(&(c, src, dst)).copied())
                .collect();
            let arrives = time_vars[c][n].le(&mut solver, s_steps as i64);
            // arrives → at least one incoming send.
            solver.add_implies_clause(arrives, &incoming);
            // Never more than one incoming send (redundant receives are
            // pointless and excluded for optimality, as in the paper).
            if incoming.len() > 1 {
                solver.add_at_most_one(&incoming);
            }
        }
    }

    // C4: a chunk must be present at the source strictly before it becomes
    // available at the destination.
    for (&(c, src, dst), &snd) in &snd_vars {
        if group.triple(c, src, dst) == (c, src, dst) {
            IntVar::imply_less_than(&mut solver, snd, &time_vars[c][src], &time_vars[c][dst]);
        }
    }

    // C5: per-step bandwidth constraints, scaled by the step's round count,
    // for the constraint that leads its orbit. A send over edge (src, dst)
    // of chunk c "occupies" step s iff snd(c, src, dst) ∧ time(c, dst) = s;
    // the product is Tseitin-encoded once per orbit of (c, dst, s) arrival
    // literals and of (c, src, dst, s) tuples. Where a symmetry maps the
    // constraint onto itself two of its sends share a literal, which
    // `add_pb_le` merges into one term of twice the weight.
    let mut eq_lits: BTreeMap<(usize, usize, usize), Lit> = BTreeMap::new();
    let mut occupy_lits: BTreeMap<(usize, usize, usize, usize), Lit> = BTreeMap::new();
    let usable: std::collections::BTreeSet<(usize, usize)> = topology.links();
    for constraint in topology.constraints() {
        let b = constraint.chunks_per_round;
        if b == 0 || !group.leads(&constraint.edges) {
            continue;
        }
        let constrained_edges: Vec<(usize, usize)> = constraint
            .edges
            .iter()
            .copied()
            .filter(|e| usable.contains(e))
            .collect();
        if constrained_edges.is_empty() {
            continue;
        }
        for (step_idx, r_var) in round_vars.iter().enumerate() {
            let arrival_time = step_idx + 1; // time value s for sends of this step
            let mut terms: Vec<(u64, Lit)> = Vec::new();
            for &(src, dst) in &constrained_edges {
                for c in 0..g {
                    let Some(&snd) = snd_vars.get(&(c, src, dst)) else {
                        continue;
                    };
                    // Skip chunks that can never arrive at `dst` at this time.
                    let t = &time_vars[c][dst];
                    if (arrival_time as i64) < t.lo() || (arrival_time as i64) > t.hi() {
                        continue;
                    }
                    let (rep_c, rep_dst) = group.pair(c, dst);
                    let eq = *eq_lits
                        .entry((rep_c, rep_dst, arrival_time))
                        .or_insert_with(|| t.eq_lit(&mut solver, arrival_time as i64));
                    let (rep_c, rep_src, rep_dst) = group.triple(c, src, dst);
                    let occ = *occupy_lits
                        .entry((rep_c, rep_src, rep_dst, arrival_time))
                        .or_insert_with(|| {
                            let x = solver.new_var().positive();
                            // snd ∧ (time = s) → x ; the reverse directions are
                            // unnecessary for a ≤ bound (x may be true spuriously,
                            // which only tightens the constraint).
                            solver.add_clause(&[!snd, !eq, x]);
                            x
                        });
                    terms.push((1, occ));
                }
            }
            if terms.is_empty() {
                continue;
            }
            // Σ occupancy ≤ b · r_s, rewritten over the order encoding of r_s.
            terms.extend(round_vars[step_idx].slack_terms(b));
            solver.add_pb_le(&terms, b * r_var.hi() as u64);
        }
    }

    add_ingress_cuts(
        &mut solver,
        &node_ingress(topology),
        |n| group.node(n) == n,
        spec,
        &time_vars,
        &round_vars,
        None,
    );

    let encoding = EncodingStats {
        num_vars: solver.num_vars(),
        num_clauses: solver.num_clauses(),
        num_pb_constraints: solver.num_pb_constraints(),
    };
    let encode_time = encode_start.elapsed();

    let solve_start = Instant::now();
    let outcome = match solver.solve_limited(limits) {
        SolveResult::Unsat => SynthesisOutcome::Unsatisfiable,
        SolveResult::Unknown => SynthesisOutcome::Unknown,
        // The model assigns every orbit's variable, hence — through the
        // aliases — every index of the full grids: read as a model of the
        // full formula it satisfies each constraint, because each is the
        // image of one that was stated.
        SolveResult::Sat(model) => {
            let (rounds_per_step, sends) =
                decode_schedule(spec, s_steps, &time_vars, &snd_vars, &round_vars, &model);
            SynthesisOutcome::Satisfiable(Algorithm {
                collective: spec.collective,
                topology_name: topology.name().to_string(),
                num_nodes: p,
                per_node_chunks: instance.per_node_chunks,
                num_chunks: g,
                rounds_per_step,
                sends,
            })
        }
    };
    let run = SynthesisRun {
        outcome,
        encode_time,
        solve_time: solve_start.elapsed(),
        encoding,
        solves: 1,
    };
    (run, solver.stats().conflicts)
}

/// Per-round ingress of every node: the summed budgets of its incoming
/// links, the single-node cut of §3.6.
pub(crate) fn node_ingress(topology: &Topology) -> Vec<u64> {
    let mut ingress = vec![0; topology.num_nodes()];
    for (_, dst, budget) in topology.link_bandwidths() {
        ingress[dst] += budget;
    }
    ingress
}

/// Add `Σ terms ≤ bound`, or — for a constraint that belongs to a warm
/// step layer — `gate → Σ terms ≤ bound`: the gate enters with the
/// big-M coefficient that uses up exactly the slack a false gate leaves,
/// so the budget is real while the layer is assumed and vacuous
/// otherwise. A constraint whose coefficients cannot exceed its bound is
/// not added at all.
pub(crate) fn add_budget(
    solver: &mut Solver,
    mut terms: Vec<(u64, Lit)>,
    bound: u64,
    gate: Option<Lit>,
) {
    let total: u64 = terms.iter().map(|&(coef, _)| coef).sum();
    if total <= bound {
        return;
    }
    match gate {
        None => solver.add_pb_le(&terms, bound),
        Some(gate) => {
            let big_m = total - bound;
            terms.push((big_m, gate));
            solver.add_pb_le(&terms, bound + big_m)
        }
    };
}

/// The ingress cuts: for every node `n` and every step boundary
/// `s ∈ 0..S`, the post chunks that have not reached `n` after step `s`
/// must fit through `n`'s incoming links in the rounds that are left,
///
/// ```text
/// Σ_{c : (c,n) ∈ post∖pre} [time(c,n) > s]  ≤  ingress(n) · Σ_{i>s} r_i .
/// ```
///
/// The constraint is redundant — a post chunk arrives by step `S` (C2)
/// over exactly one incoming send (C3), that send occupies its link in
/// the step of the arrival, and C5 caps every link at its budget times
/// the step's rounds, so summing C5 over the links into `n` and the
/// steps after `s` gives the right-hand side — and therefore sound for
/// any topology and collective, like distance pruning. But it is a
/// *counting* consequence, the kind resolution can only reach by
/// enumerating cases: C5 speaks per link per step and nothing else ties
/// the arrivals at a node together. Stated once as a pseudo-Boolean sum
/// over the order encoding's own `[time ≥ s+1]` literals (the right side
/// over the round counts' slack terms, as in C5), slack counting does the
/// arithmetic: at `s = 0` this is the §3.6 single-node bandwidth bound,
/// so an instance that breaks it is refuted before the first decision,
/// and on a tight instance the cut forces "this many arrivals per step"
/// before any link is chosen.
///
/// `round_vars[i]` is the round count of step `i + 1`; `gate` is the
/// step layer's literal when the rounds belong to one (see
/// [`add_budget`]); `stated_for` picks the nodes to state the cut for —
/// one per orbit in a quotient, whose other nodes' cuts are its images.
/// One emitter, called by the fresh-formula encoding above and by
/// [`crate::incremental::IncrementalEncoder`]'s step layers.
pub(crate) fn add_ingress_cuts(
    solver: &mut Solver,
    ingress: &[u64],
    stated_for: impl Fn(usize) -> bool,
    spec: &CollectiveSpec,
    time_vars: &[Vec<IntVar>],
    round_vars: &[IntVar],
    gate: Option<Lit>,
) {
    for (n, &bw) in ingress.iter().enumerate() {
        let needed: Vec<usize> = spec
            .post
            .iter()
            .filter(|&&(c, node)| node == n && !spec.pre.contains(&(c, n)))
            .map(|&(c, _)| c)
            .collect();
        if needed.is_empty() || !stated_for(n) {
            continue;
        }
        for s in 0..round_vars.len() {
            let mut terms: Vec<(u64, Lit)> = needed
                .iter()
                .map(|&c| (1, time_vars[c][n].ge(solver, s as i64 + 1)))
                .collect();
            let mut bound = 0;
            for r in &round_vars[s..] {
                terms.extend(r.slack_terms(bw));
                bound += bw * r.hi() as u64;
            }
            add_budget(solver, terms, bound, gate);
        }
    }
}

/// Read a model out as `(rounds_per_step, sends)` through the variables
/// the encoding above and the layered one in
/// [`crate::incremental`] share — `time(c, n)` indexed `[chunk][node]`,
/// `snd(c, src, dst)` and the `S` per-step round counts: every true send
/// whose destination arrives within the `num_steps` deadline (later means
/// "never"), scheduled one step before the arrival, with the sends no post
/// pair depends on pruned (see [`prune_dead_sends`]). The result is a
/// function of the model, so it is only as deterministic as the solve that
/// produced it: a fresh solver is deterministic given `(topology,
/// instance, options, SolverConfig)`, a long-lived one depends on its
/// history.
pub(crate) fn decode_schedule(
    spec: &CollectiveSpec,
    num_steps: usize,
    time_vars: &[Vec<IntVar>],
    snd_vars: &BTreeMap<(usize, usize, usize), Lit>,
    round_vars: &[IntVar],
    model: &Model,
) -> (Vec<u64>, Vec<Send>) {
    let deadline = num_steps as i64;
    let raw = snd_vars
        .iter()
        .filter(|&(_, &lit)| model.lit_value(lit))
        .filter_map(|(&(c, src, dst), _)| {
            let arrival = time_vars[c][dst].value_in(model);
            (arrival <= deadline).then(|| Send::copy(c, src, dst, (arrival - 1) as usize))
        })
        .collect();
    let rounds_per_step = round_vars
        .iter()
        .map(|r| r.value_in(model) as u64)
        .collect();
    (rounds_per_step, prune_dead_sends(spec, raw))
}

/// Drop every send no post pair depends on, and sort the rest by `(step,
/// chunk, src, dst)`. A model may deliver chunks nobody asked for (Gather,
/// Scatter and Alltoall leave most `(chunk, node)` pairs out of the
/// post-condition, and nothing in C1–C6 forbids a spurious arrival); such
/// sends cost bandwidth at run time and buy nothing.
///
/// Requires at most one send per `(chunk, dst)` — constraint C3, which
/// every decoded model satisfies. Walks back from the post pairs through
/// each pair's unique incoming send, so the result is send-minimal for its
/// routing: removing any remaining send starves a post pair. Linear in
/// `sends.len() + G·P`.
fn prune_dead_sends(spec: &CollectiveSpec, sends: Vec<Send>) -> Vec<Send> {
    let p = spec.num_nodes;
    let mut incoming: Vec<Option<usize>> = vec![None; spec.num_chunks * p];
    for (i, send) in sends.iter().enumerate() {
        let slot = &mut incoming[send.chunk * p + send.dst];
        debug_assert!(slot.is_none(), "C3: one incoming send per (chunk, dst)");
        *slot = Some(i);
    }
    let mut live = vec![false; sends.len()];
    let mut pending: Vec<(usize, usize)> = spec.post.iter().copied().collect();
    while let Some((c, n)) = pending.pop() {
        // Pre pairs have no incoming send; a pair already walked has its
        // send marked.
        if let Some(i) = incoming[c * p + n].take() {
            live[i] = true;
            pending.push((c, sends[i].src));
        }
    }
    let mut kept: Vec<Send> = sends
        .into_iter()
        .zip(live)
        .filter_map(|(send, live)| live.then_some(send))
        .collect();
    kept.sort_by_key(|s| (s.step, s.chunk, s.src, s.dst));
    kept
}

/// Synthesize with the naive encoding: one Boolean per send tuple
/// `(c, n, n', s)` and one presence Boolean per `(c, n, s)`.
///
/// This is the "more direct encoding" of §5.4.3 that the paper reports
/// failing to solve the 24-chunk Alltoall within an hour; it is retained to
/// reproduce that ablation at smaller scales.
pub fn synthesize_naive(
    topology: &Topology,
    instance: &SynCollInstance,
    solver_config: SolverConfig,
    limits: Limits,
) -> SynthesisRun {
    let encode_start = Instant::now();
    let spec = &instance.spec;
    let g = spec.num_chunks;
    let p = spec.num_nodes;
    let s_steps = instance.num_steps;
    let r_rounds = instance.num_rounds;
    assert_eq!(p, topology.num_nodes());

    if (r_rounds as usize) < s_steps || s_steps == 0 {
        return SynthesisRun::unsolved(SynthesisOutcome::Unsatisfiable);
    }

    let mut solver = Solver::with_config(solver_config);
    let edges: Vec<(usize, usize)> = topology.links().into_iter().collect();

    let max_per_step = r_rounds as i64 - (s_steps as i64 - 1);
    let round_vars: Vec<IntVar> = (0..s_steps)
        .map(|_| IntVar::new(&mut solver, 1, max_per_step))
        .collect();
    {
        let refs: Vec<&IntVar> = round_vars.iter().collect();
        add_linear_eq(&mut solver, &refs, r_rounds as i64);
    }

    // present[c][n][t] for t in 0..=S.
    let present: Vec<Vec<Vec<Lit>>> = (0..g)
        .map(|_| {
            (0..p)
                .map(|_| (0..=s_steps).map(|_| solver.new_var().positive()).collect())
                .collect()
        })
        .collect();
    // send[c][(src,dst)][s] for s in 0..S.
    let mut send_vars: BTreeMap<(usize, usize, usize, usize), Lit> = BTreeMap::new();
    for c in 0..g {
        for &(src, dst) in &edges {
            for s in 0..s_steps {
                send_vars.insert((c, src, dst, s), solver.new_var().positive());
            }
        }
    }

    for c in 0..g {
        for n in 0..p {
            // Initial placement.
            if spec.pre.contains(&(c, n)) {
                solver.add_clause(&[present[c][n][0]]);
            } else {
                solver.add_clause(&[!present[c][n][0]]);
            }
            // Final placement must cover the post-condition.
            if spec.post.contains(&(c, n)) {
                solver.add_clause(&[present[c][n][s_steps]]);
            }
            for s in 0..s_steps {
                // Monotonicity: chunks are never dropped.
                solver.add_implies(present[c][n][s], present[c][n][s + 1]);
                // Frame axiom: appearing at s+1 requires having been there
                // or receiving a send during step s.
                let incoming: Vec<Lit> = edges
                    .iter()
                    .filter(|&&(_, dst)| dst == n)
                    .map(|&(src, dst)| send_vars[&(c, src, dst, s)])
                    .collect();
                let mut clause = vec![!present[c][n][s + 1], present[c][n][s]];
                clause.extend(incoming);
                solver.add_clause(&clause);
            }
        }
    }
    // A send requires the source to hold the chunk and delivers it.
    for (&(c, src, dst, s), &snd) in &send_vars {
        solver.add_implies(snd, present[c][src][s]);
        solver.add_implies(snd, present[c][dst][s + 1]);
    }
    // Bandwidth constraints per step.
    let usable: std::collections::BTreeSet<(usize, usize)> = topology.links();
    for constraint in topology.constraints() {
        let b = constraint.chunks_per_round;
        if b == 0 {
            continue;
        }
        let constrained_edges: Vec<(usize, usize)> = constraint
            .edges
            .iter()
            .copied()
            .filter(|e| usable.contains(e))
            .collect();
        for (s, r_var) in round_vars.iter().enumerate() {
            let mut terms: Vec<(u64, Lit)> = Vec::new();
            for &(src, dst) in &constrained_edges {
                for c in 0..g {
                    terms.push((1, send_vars[&(c, src, dst, s)]));
                }
            }
            if terms.is_empty() {
                continue;
            }
            terms.extend(round_vars[s].slack_terms(b));
            solver.add_pb_le(&terms, b * r_var.hi() as u64);
        }
    }

    let encoding = EncodingStats {
        num_vars: solver.num_vars(),
        num_clauses: solver.num_clauses(),
        num_pb_constraints: solver.num_pb_constraints(),
    };
    let encode_time = encode_start.elapsed();

    let solve_start = Instant::now();
    let result = solver.solve_limited(limits);
    let solve_time = solve_start.elapsed();

    let outcome = match result {
        SolveResult::Unsat => SynthesisOutcome::Unsatisfiable,
        SolveResult::Unknown => SynthesisOutcome::Unknown,
        SolveResult::Sat(model) => {
            let rounds_per_step: Vec<u64> = round_vars
                .iter()
                .map(|r| r.value_in(&model) as u64)
                .collect();
            let mut sends = Vec::new();
            for (&(c, src, dst, s), &snd) in &send_vars {
                if !model.lit_value(snd) {
                    continue;
                }
                // Keep only sends that are actually useful for the run: the
                // destination must not already hold the chunk.
                if model.lit_value(present[c][dst][s]) {
                    continue;
                }
                sends.push(Send::copy(c, src, dst, s));
            }
            sends.sort_by_key(|snd| (snd.step, snd.chunk, snd.src, snd.dst));
            SynthesisOutcome::Satisfiable(Algorithm {
                collective: spec.collective,
                topology_name: topology.name().to_string(),
                num_nodes: p,
                per_node_chunks: instance.per_node_chunks,
                num_chunks: g,
                rounds_per_step,
                sends,
            })
        }
    };

    SynthesisRun {
        outcome,
        encode_time,
        solve_time,
        encoding,
        solves: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sccl_collectives::Collective;
    use sccl_topology::builders;

    fn instance(
        collective: Collective,
        p: usize,
        c: usize,
        steps: usize,
        rounds: u64,
    ) -> SynCollInstance {
        SynCollInstance {
            spec: collective.spec(p, c),
            per_node_chunks: c,
            num_steps: steps,
            num_rounds: rounds,
        }
    }

    fn run_default(topology: &Topology, inst: &SynCollInstance) -> SynthesisRun {
        synthesize(
            topology,
            inst,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none(),
        )
    }

    #[test]
    fn ring4_allgather_three_steps_sat_and_valid() {
        let topo = builders::ring(4, 1);
        let inst = instance(Collective::Allgather, 4, 1, 3, 3);
        let run = run_default(&topo, &inst);
        let alg = run.outcome.algorithm().expect("SAT");
        alg.validate(&topo, &inst.spec).expect("valid");
        assert_eq!(alg.num_steps(), 3);
        assert_eq!(alg.total_rounds(), 3);
        assert!(run.encoding.num_vars > 0);
    }

    #[test]
    fn ring4_allgather_one_step_unsat() {
        // Diameter of a 4-ring is 2, so a single step cannot work.
        let topo = builders::ring(4, 1);
        let inst = instance(Collective::Allgather, 4, 1, 1, 1);
        let run = run_default(&topo, &inst);
        assert!(matches!(run.outcome, SynthesisOutcome::Unsatisfiable));
    }

    #[test]
    fn ring4_allgather_two_steps_feasible() {
        // Both the tight (S=2, R=2) schedule (send your own chunk both ways,
        // then forward the opposite node's chunk) and the 1-synchronous
        // recursive-doubling schedule of Figure 2 (S=2, R=3) must be found.
        let topo = builders::ring(4, 1);
        for rounds in [2u64, 3] {
            let inst = instance(Collective::Allgather, 4, 1, 2, rounds);
            let alg = run_default(&topo, &inst).outcome.algorithm().expect("SAT");
            alg.validate(&topo, &inst.spec).expect("valid");
            assert_eq!(alg.total_rounds(), rounds);
        }
    }

    #[test]
    fn fully_connected_broadcast_single_step() {
        let topo = builders::fully_connected(4, 1);
        let inst = instance(Collective::Broadcast { root: 0 }, 4, 1, 1, 1);
        let alg = run_default(&topo, &inst).outcome.algorithm().expect("SAT");
        alg.validate(&topo, &inst.spec).expect("valid");
        assert_eq!(alg.sends.len(), 3);
    }

    #[test]
    fn chain_broadcast_requires_eccentricity_steps() {
        let topo = builders::chain(4, 1);
        let too_short = instance(Collective::Broadcast { root: 0 }, 4, 1, 2, 2);
        assert!(matches!(
            run_default(&topo, &too_short).outcome,
            SynthesisOutcome::Unsatisfiable
        ));
        let inst = instance(Collective::Broadcast { root: 0 }, 4, 1, 3, 3);
        let alg = run_default(&topo, &inst).outcome.algorithm().expect("SAT");
        alg.validate(&topo, &inst.spec).expect("valid");
    }

    #[test]
    fn scatter_and_gather_on_star() {
        let topo = builders::star(4, 1);
        let scatter = instance(Collective::Scatter { root: 0 }, 4, 1, 3, 3);
        let alg = run_default(&topo, &scatter)
            .outcome
            .algorithm()
            .expect("SAT");
        alg.validate(&topo, &scatter.spec).expect("valid");

        let gather = instance(Collective::Gather { root: 0 }, 4, 1, 3, 3);
        let alg = run_default(&topo, &gather)
            .outcome
            .algorithm()
            .expect("SAT");
        alg.validate(&topo, &gather.spec).expect("valid");
    }

    #[test]
    fn alltoall_on_fully_connected_single_step() {
        let topo = builders::fully_connected(4, 1);
        let inst = instance(Collective::Alltoall, 4, 4, 1, 1);
        let alg = run_default(&topo, &inst).outcome.algorithm().expect("SAT");
        alg.validate(&topo, &inst.spec).expect("valid");
        // 4 nodes each send 3 distinct chunks to distinct destinations.
        assert_eq!(alg.sends.len(), 12);
    }

    #[test]
    fn dgx1_allgather_latency_optimal_two_steps() {
        // The headline §2.5 result: a 2-step Allgather exists on the DGX-1
        // with 1 chunk per node and 2 rounds.
        let topo = builders::dgx1();
        let inst = instance(Collective::Allgather, 8, 1, 2, 2);
        let run = run_default(&topo, &inst);
        let alg = run.outcome.algorithm().expect("SAT");
        alg.validate(&topo, &inst.spec).expect("valid");
        assert_eq!(alg.num_steps(), 2);
    }

    #[test]
    fn dgx1_allgather_single_step_unsat() {
        // The DGX-1 diameter is 2, so one step is impossible.
        let topo = builders::dgx1();
        let inst = instance(Collective::Allgather, 8, 1, 1, 1);
        assert!(matches!(
            run_default(&topo, &inst).outcome,
            SynthesisOutcome::Unsatisfiable
        ));
    }

    #[test]
    fn infeasible_round_budget_rejected_up_front() {
        let topo = builders::ring(4, 1);
        let inst = instance(Collective::Allgather, 4, 1, 3, 2); // R < S
        let run = run_default(&topo, &inst);
        assert!(matches!(run.outcome, SynthesisOutcome::Unsatisfiable));
        assert_eq!(run.encoding.num_vars, 0);
    }

    #[test]
    fn unknown_on_tiny_budget() {
        let topo = builders::dgx1();
        let inst = instance(Collective::Allgather, 8, 2, 3, 4);
        let run = synthesize(
            &topo,
            &inst,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::conflicts(1),
        );
        assert!(matches!(
            run.outcome,
            SynthesisOutcome::Unknown | SynthesisOutcome::Satisfiable(_)
        ));
    }

    #[test]
    fn ingress_bound_breakers_are_refuted_without_search() {
        // 7·C chunks into a DGX-1 node's 6 link-rounds per round: C = 3 in
        // R = 3 and C = 4 in R = 4 break the §3.6 bandwidth bound. Without
        // the ingress cut CDCL enumerates pigeonhole cases (59 370 conflicts
        // for the first, over 300 000 for the second); with it the s = 0
        // cut is violated by constants.
        let topo = builders::dgx1();
        for c in [3usize, 4] {
            let inst = instance(Collective::Allgather, 8, c, c, c as u64);
            let run = synthesize(
                &topo,
                &inst,
                &EncodingOptions::default(),
                SolverConfig::default(),
                Limits::conflicts(1),
            );
            assert!(
                matches!(run.outcome, SynthesisOutcome::Unsatisfiable),
                "Allgather ({c},{c},{c}): {:?}",
                run.outcome
            );
        }
    }

    /// The two formulas [`synthesize`] may solve for `inst`, each on its
    /// own and without limits: `(run, conflicts)` of the quotient under
    /// the machine's free group and of the full formula.
    fn both_formulas(topo: &Topology, inst: &SynCollInstance) -> [(SynthesisRun, u64); 2] {
        let symmetries = Group::free(&inst.spec, &topo.fixed_point_free_automorphisms());
        assert!(symmetries.order() > 1, "the instance has symmetries");
        [symmetries, Group::trivial(&inst.spec)].map(|group| {
            solve_quotient(
                topo,
                inst,
                &EncodingOptions::default(),
                SolverConfig::default(),
                &group,
                Limits::none(),
            )
        })
    }

    #[test]
    fn the_quotient_of_a_dgx1_alltoall_is_a_quarter_of_the_formula() {
        // Four rotations, acting freely on pairs and triples: every orbit
        // has four members, and only the constant-true variable is alone.
        let topo = builders::dgx1();
        let inst = instance(Collective::Alltoall, 8, 8, 3, 3);
        let [(quotient, _), (full, _)] = both_formulas(&topo, &inst);
        assert_eq!(quotient.encoding.num_vars, 2_177);
        assert_eq!(full.encoding.num_vars, 8_705);
        assert_eq!(4 * (2_177 - 1), 8_705 - 1);
        assert!(4 * quotient.encoding.num_clauses <= full.encoding.num_clauses + 4);
        // Both are satisfiable, both schedules valid; `synthesize` stops
        // at the quotient's.
        let symmetric = quotient.outcome.algorithm().expect("SAT");
        symmetric.validate(&topo, &inst.spec).expect("valid");
        let plain = full.outcome.algorithm().expect("SAT");
        plain.validate(&topo, &inst.spec).expect("valid");
        let run = run_default(&topo, &inst);
        assert_eq!((run.solves, run.encoding.num_vars), (1, 2_177));
        assert_eq!(run.outcome.algorithm().expect("SAT"), symmetric);
    }

    #[test]
    fn a_refuted_quotient_leaves_the_full_formula_what_is_left_of_the_limits() {
        // DGX-1 Allgather (3,2,4) has no schedule. Its quotient is refuted
        // first — which proves nothing — and the full formula after it.
        let topo = builders::dgx1();
        let inst = instance(Collective::Allgather, 8, 3, 2, 4);
        let [(quotient, q), (full, f)] = both_formulas(&topo, &inst);
        assert!(matches!(quotient.outcome, SynthesisOutcome::Unsatisfiable));
        assert!(matches!(full.outcome, SynthesisOutcome::Unsatisfiable));
        assert!(q > 0 && f > 0, "both took search: {q} + {f} conflicts");
        let under = |conflicts: u64| {
            synthesize(
                &topo,
                &inst,
                &EncodingOptions::default(),
                SolverConfig::default(),
                Limits::conflicts(conflicts),
            )
        };
        // The least budget the full formula is refuted under on its own
        // (budgets are checked between conflicts, so it can be under `f`).
        let need = (0..=f)
            .find(|&budget| {
                let (run, _) = solve_quotient(
                    &topo,
                    &inst,
                    &EncodingOptions::default(),
                    SolverConfig::default(),
                    &Group::trivial(&inst.spec),
                    Limits::conflicts(budget),
                );
                matches!(run.outcome, SynthesisOutcome::Unsatisfiable)
            })
            .expect("f conflicts refute it");
        assert!(need > 0);
        // One budget for both formulas: after the quotient's `q` conflicts
        // exactly `need` more decide the candidate, one fewer does not.
        let decided = under(q + need);
        assert!(matches!(decided.outcome, SynthesisOutcome::Unsatisfiable));
        assert_eq!(decided.solves, 2);
        assert_eq!(decided.encoding, full.encoding, "the formula that decided");
        let short = under(q + need - 1);
        assert!(matches!(short.outcome, SynthesisOutcome::Unknown));
        assert_eq!(short.solves, 2);
        // A quotient that runs out of budget is no verdict either.
        assert!(matches!(under(q - 1).outcome, SynthesisOutcome::Unknown));
        // Nor is a raised stop flag, which builds no formula at all.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let cancelled = synthesize(
            &topo,
            &inst,
            &EncodingOptions::default(),
            SolverConfig::default(),
            Limits::none().with_stop(stop),
        );
        assert!(matches!(cancelled.outcome, SynthesisOutcome::Unknown));
        assert_eq!((cancelled.solves, cancelled.encoding.num_vars), (0, 0));
    }

    #[test]
    fn a_schedule_without_the_symmetry_is_still_found() {
        // Two nodes on a half-duplex link: one chunk per round, whichever
        // way. Swapping the nodes is a free symmetry, and a schedule that
        // looks the same from both sends both chunks in one step — of two
        // rounds, which (1,2,2) with its one round per step does not have.
        // Taking turns is a schedule; the quotient cannot see it.
        let mut topo = Topology::new("half-duplex-pair", 2);
        topo.add_bidi_link(0, 1, 1);
        topo.add_shared_constraint([(0, 1), (1, 0)], 1);
        let inst = instance(Collective::Allgather, 2, 1, 2, 2);
        let [(quotient, _), (full, _)] = both_formulas(&topo, &inst);
        assert!(matches!(quotient.outcome, SynthesisOutcome::Unsatisfiable));
        assert!(full.outcome.is_sat());
        let run = run_default(&topo, &inst);
        assert_eq!(run.solves, 2);
        let alg = run.outcome.algorithm().expect("SAT");
        alg.validate(&topo, &inst.spec).expect("valid");
        assert_ne!(alg.sends[0].step, alg.sends[1].step);
        // With a second round in one step the symmetric schedule exists,
        // and the link's constraint — which the swap maps onto itself —
        // counts the one shared literal for both directions.
        let relaxed = instance(Collective::Allgather, 2, 1, 2, 3);
        let run = run_default(&topo, &relaxed);
        assert_eq!(run.solves, 1);
        let alg = run.outcome.algorithm().expect("SAT");
        alg.validate(&topo, &relaxed.spec).expect("valid");
        assert_eq!(alg.sends[0].step, alg.sends[1].step);
    }

    #[test]
    fn ingress_cuts_are_stated_only_where_they_can_bind() {
        // Gather to node 0 down the one-way chain 2 → 1 → 0 in two
        // one-round steps. Node 2 has no ingress and node 1 has some, but
        // neither is owed a chunk: no cut. The root is owed two chunks over
        // one link: at s = 0 two chunks fit the two rounds left (cannot
        // bind, not stated), at s = 1 only one of them may be outstanding.
        let mut topo = Topology::new("one-way-chain", 3);
        topo.add_link(2, 1, 1).add_link(1, 0, 1);
        assert_eq!(node_ingress(&topo), vec![1, 1, 0]);
        let inst = instance(Collective::Gather { root: 0 }, 3, 1, 2, 2);
        let mut solver = Solver::new();
        let time_vars: Vec<Vec<IntVar>> = (0..3)
            .map(|c| {
                (0..3)
                    .map(|n| match c == n {
                        true => IntVar::new(&mut solver, 0, 0),
                        false => IntVar::new(&mut solver, 1, 3),
                    })
                    .collect()
            })
            .collect();
        let round_vars = [
            IntVar::new(&mut solver, 1, 1),
            IntVar::new(&mut solver, 1, 1),
        ];
        add_ingress_cuts(
            &mut solver,
            &node_ingress(&topo),
            |_| true,
            &inst.spec,
            &time_vars,
            &round_vars,
            None,
        );
        assert_eq!(solver.num_pb_constraints(), 1);
        let late: Vec<Lit> = [1, 2]
            .iter()
            .map(|&c| time_vars[c][0].ge(&mut solver, 2))
            .collect();
        assert!(solver
            .solve_under_assumptions(&late, Limits::none())
            .is_unsat());
        assert!(solver
            .solve_under_assumptions(&late[..1], Limits::none())
            .is_sat());
        // The whole encoding agrees with the checker on this machine.
        let alg = run_default(&topo, &inst).outcome.algorithm().expect("SAT");
        alg.validate(&topo, &inst.spec).expect("valid");
    }

    #[test]
    fn disabling_distance_pruning_gives_same_answers() {
        let topo = builders::ring(4, 1);
        let opts = EncodingOptions {
            distance_pruning: false,
        };
        for (steps, rounds, expect_sat) in [(1usize, 1u64, false), (2, 2, true), (3, 3, true)] {
            let inst = instance(Collective::Allgather, 4, 1, steps, rounds);
            let run = synthesize(&topo, &inst, &opts, SolverConfig::default(), Limits::none());
            assert_eq!(run.outcome.is_sat(), expect_sat, "S={steps} R={rounds}");
            if let SynthesisOutcome::Satisfiable(alg) = run.outcome {
                alg.validate(&topo, &inst.spec).expect("valid");
            }
        }
    }

    #[test]
    fn naive_encoding_agrees_with_scalable_encoding() {
        let topo = builders::ring(4, 1);
        for (steps, rounds, expect_sat) in [(1usize, 1u64, false), (2, 3, true), (3, 3, true)] {
            let inst = instance(Collective::Allgather, 4, 1, steps, rounds);
            let run = synthesize_naive(&topo, &inst, SolverConfig::default(), Limits::none());
            assert_eq!(run.outcome.is_sat(), expect_sat, "S={steps} R={rounds}");
            if let SynthesisOutcome::Satisfiable(alg) = run.outcome {
                alg.validate(&topo, &inst.spec).expect("valid");
            }
        }
    }

    #[test]
    fn naive_encoding_is_larger() {
        let topo = builders::ring(4, 1);
        let inst = instance(Collective::Allgather, 4, 1, 3, 3);
        let careful = run_default(&topo, &inst);
        let naive = synthesize_naive(&topo, &inst, SolverConfig::default(), Limits::none());
        assert!(naive.encoding.num_vars > careful.encoding.num_vars);
    }

    #[test]
    fn prune_drops_exactly_the_sends_no_post_pair_depends_on() {
        // Gather to node 0 on the chain 0 - 1 - 2, one chunk per node.
        let spec = Collective::Gather { root: 0 }.spec(3, 1);
        let needed = [
            Send::copy(1, 1, 0, 0),
            Send::copy(2, 2, 1, 0),
            Send::copy(2, 1, 0, 1),
        ];
        let dead = [
            // Chunk 0 wanders down the chain and chunk 1 visits node 2:
            // legal under C1–C6, wanted by nobody.
            Send::copy(0, 0, 1, 0),
            Send::copy(0, 1, 2, 1),
            Send::copy(1, 1, 2, 0),
        ];
        let mut raw: Vec<Send> = dead.iter().chain(&needed).copied().collect();
        raw.reverse();
        assert_eq!(prune_dead_sends(&spec, raw), needed);
        // Nothing to prune when every pair is a post pair.
        let allgather = Collective::Allgather.spec(3, 1);
        let mut all: Vec<Send> = needed.iter().chain(&dead).copied().collect();
        all.sort_by_key(|s| (s.step, s.chunk, s.src, s.dst));
        assert_eq!(prune_dead_sends(&allgather, all.clone()), all);
    }

    /// A decoded schedule is send-minimal for its routing: it validates,
    /// and it stops validating when any one send is taken out.
    fn assert_send_minimal(topo: &Topology, spec: &CollectiveSpec, alg: &Algorithm) {
        alg.validate(topo, spec).expect("valid");
        for i in 0..alg.sends.len() {
            let mut without = alg.clone();
            let removed = without.sends.remove(i);
            assert!(
                without.validate(topo, spec).is_err(),
                "{} on {}: {removed:?} was dead weight",
                spec.collective,
                topo.name()
            );
        }
    }

    #[test]
    fn decoded_schedules_are_send_minimal() {
        let ring = builders::ring(4, 1);
        let cube = builders::hypercube(3, 1);
        for (topo, inst) in [
            (&ring, instance(Collective::Gather { root: 0 }, 4, 2, 4, 5)),
            (&ring, instance(Collective::Scatter { root: 1 }, 4, 2, 4, 5)),
            (&ring, instance(Collective::Alltoall, 4, 4, 3, 4)),
            (&cube, instance(Collective::Gather { root: 0 }, 8, 1, 4, 5)),
            (&cube, instance(Collective::Scatter { root: 0 }, 8, 2, 5, 6)),
        ] {
            let alg = run_default(topo, &inst).outcome.algorithm().expect("SAT");
            assert_send_minimal(topo, &inst.spec, &alg);
        }
        // Where every pair is a post pair there is nothing to prune: one
        // receive per pair that does not start with its chunk.
        for collective in [Collective::Allgather, Collective::Broadcast { root: 0 }] {
            let inst = instance(collective, 8, 2, 4, 5);
            let alg = run_default(&cube, &inst).outcome.algorithm().expect("SAT");
            assert_send_minimal(&cube, &inst.spec, &alg);
            assert_eq!(
                alg.sends.len(),
                inst.spec.num_chunks * 8 - inst.spec.pre.len()
            );
        }
    }

    #[test]
    fn bandwidth_constraint_respected_with_multi_round_steps() {
        // 2 chunks per node on a 4-ring in 3 steps requires 6 rounds spread
        // over the steps; validation re-checks the per-step budgets.
        let topo = builders::ring(4, 1);
        let inst = instance(Collective::Allgather, 4, 2, 4, 6);
        let alg = run_default(&topo, &inst).outcome.algorithm().expect("SAT");
        alg.validate(&topo, &inst.spec).expect("valid");
        assert_eq!(alg.total_rounds(), 6);
    }
}
