//! CDCL SAT solver with native pseudo-Boolean (linear `≤`) constraints.
//!
//! This is the decision procedure behind SCCL's synthesis encoding. The
//! paper discharges its constraint system (§3.4, C1–C6) to Z3; the encoding
//! only requires Booleans, bounded integers and linear sums of 0/1 terms, so
//! a conflict-driven clause-learning solver with counter-based
//! pseudo-Boolean propagation decides exactly the same problems.
//!
//! Features: two-watched-literal propagation, first-UIP clause learning,
//! VSIDS branching with phase saving, Luby restarts, LBD-based learnt-clause
//! database reduction, and pseudo-Boolean constraints propagated by slack
//! counting.
//!
//! The inner loops allocate nothing: clause literals live in one arena
//! ([`crate::clause`]), a watcher list is compacted in place while it is
//! scanned, a pseudo-Boolean propagation records only *which* constraint
//! fired and its explanation is rebuilt from the trail if conflict
//! analysis ever asks (see `Reason::Pb`), and analysis walks reason
//! clauses where they are stored. None of this is visible in the search:
//! `tests/pinned_search.rs` pins the conflict, propagation, decision and
//! restart counts of three formulas, and they did not move when the
//! per-clause vectors and stored explanations went away.
//!
//! # Incremental solving
//!
//! The solver is incremental: clauses, pseudo-Boolean constraints and fresh
//! variables may be added between solve calls, and
//! [`Solver::solve_under_assumptions`] decides the formula under a
//! conjunction of assumption literals without making them permanent.
//! Assumptions are placed as the first decisions of the search (one per
//! decision level, MiniSat-style), so everything the solver accumulates —
//! learnt clauses, VSIDS activities, saved phases — is implied by the
//! formula alone and carries over to later calls. When the formula is
//! unsatisfiable *under the assumptions* (but not inherently), the failed
//! subset is available from [`Solver::failed_assumptions`], and the solver
//! remains usable — either keep probing with different assumption sets, or
//! make a retraction permanent by adding the negated assumption as a unit
//! clause. This is the engine of SCCL's warm Pareto sweep, which encodes
//! the shared base problem once and activates one `(S, R)` candidate at a
//! time purely through assumptions.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::clause::{CRef, ClauseDb};
use crate::heap::VarHeap;
use crate::luby::luby;
use crate::model::Model;
use crate::stats::SolverStats;
use crate::types::{LBool, Lit, Var};

/// Outcome of a `solve` call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
    /// The search budget (conflicts or wall-clock time) was exhausted.
    Unknown,
}

impl SolveResult {
    /// `true` iff the result is [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// `true` iff the result is [`SolveResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }

    /// Extract the model if satisfiable.
    pub fn model(self) -> Option<Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Resource limits for a single `solve_limited` call.
#[derive(Clone, Debug, Default)]
pub struct Limits {
    /// Maximum number of conflicts before giving up.
    pub max_conflicts: Option<u64>,
    /// Maximum wall-clock duration before giving up.
    pub max_time: Option<Duration>,
    /// Cooperative cancellation: when another thread sets this flag, the
    /// search aborts with [`SolveResult::Unknown`] at the next budget check
    /// of the CDCL restart loop. Used by the parallel Pareto scheduler to
    /// stop in-flight solves whose instances have become dominated.
    pub stop: Option<Arc<AtomicBool>>,
    /// A request's wall-clock deadline: once the clock passes it, the
    /// search aborts with [`SolveResult::Unknown`] at the same budget
    /// checks that poll `stop`. Unlike `max_time`, it is an absolute
    /// instant that every solve of one request shares.
    pub deadline: Option<Instant>,
}

impl Limits {
    /// No limits: run to completion.
    pub fn none() -> Self {
        Limits::default()
    }

    /// Limit by conflict count only.
    pub fn conflicts(n: u64) -> Self {
        Limits {
            max_conflicts: Some(n),
            ..Limits::default()
        }
    }

    /// Limit by wall-clock time only.
    pub fn time(d: Duration) -> Self {
        Limits {
            max_time: Some(d),
            ..Limits::default()
        }
    }

    /// Attach a cooperative stop flag (builder style).
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Attach a wall-clock deadline (builder style).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// What is left of these limits after a solve that took `conflicts`
    /// conflicts and `elapsed` wall clock (saturating at zero, where the
    /// next budget check fires); the stop flag and the deadline are shared.
    /// Lets two solver runs for one query draw on one budget.
    pub fn after(mut self, conflicts: u64, elapsed: Duration) -> Limits {
        self.max_conflicts = self.max_conflicts.map(|c| c.saturating_sub(conflicts));
        self.max_time = self.max_time.map(|t| t.saturating_sub(elapsed));
        self
    }

    /// `true` once the stop flag (if any) has been raised or the deadline
    /// (if any) has passed. The clock is read only when a deadline is set.
    pub fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
            || self.deadline.is_some_and(|at| Instant::now() >= at)
    }
}

/// Tunable search parameters.
#[derive(Clone, Debug)]
pub struct SolverConfig {
    /// Variable activity decay factor (VSIDS).
    pub var_decay: f64,
    /// Clause activity decay factor.
    pub clause_decay: f64,
    /// Base interval (in conflicts) of the Luby restart sequence.
    pub restart_base: u64,
    /// Initial cap on retained learnt clauses before database reduction.
    pub learnt_limit_start: usize,
    /// Growth factor of the learnt-clause cap after each reduction.
    pub learnt_limit_growth: f64,
    /// Remember the last assigned polarity of each variable.
    pub phase_saving: bool,
    /// Polarity used for variables that have never been assigned. `false`
    /// works well for the SCCL encoding where most send/step indicator
    /// variables should stay off.
    pub default_polarity: bool,
    /// Enable clause learning. Disabling it degrades the solver to
    /// chronological backtracking (the property tests check both).
    pub clause_learning: bool,
    /// Enable VSIDS; when disabled variables are picked in index order.
    pub vsids: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.95,
            clause_decay: 0.999,
            restart_base: 128,
            learnt_limit_start: 4000,
            learnt_limit_growth: 1.3,
            phase_saving: true,
            default_polarity: false,
            clause_learning: true,
            vsids: true,
        }
    }
}

/// Why a variable is currently assigned.
#[derive(Clone, Copy, Debug, Default)]
enum Reason {
    /// Unassigned, a decision, or a level-0 fact.
    #[default]
    None,
    /// Propagated by a clause; the asserted literal is `lits[0]`.
    Clause(CRef),
    /// Propagated by the pseudo-Boolean constraint with this index. The
    /// reason clause is not stored: it is the asserted literal plus the
    /// negations of the constraint's literals that were true when it
    /// fired, and those are exactly the constraint's literals that are
    /// true *now* with a trail position below the asserted literal's —
    /// the trail only ever loses a suffix, so while the asserted literal
    /// is assigned everything that preceded it still is. Conflict
    /// analysis walks the constraint's terms with that filter (in term
    /// order, the order the stored slice used to have) on the rare
    /// occasion it needs the clause; most propagations are undone
    /// without anyone asking why they happened.
    Pb(u32),
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: CRef,
    blocker: Lit,
}

/// A linear pseudo-Boolean constraint `Σ coefᵢ·litᵢ ≤ bound` with
/// non-negative coefficients, propagated by slack counting.
#[derive(Clone, Debug)]
struct PbConstraint {
    terms: Vec<(u64, Lit)>,
    bound: u64,
    /// Sum of coefficients of literals currently assigned true.
    sum_true: u64,
    max_coef: u64,
}

/// Conflict discovered during propagation.
enum Conflict {
    Clause(CRef),
    /// All literals of this clause are false under the current assignment.
    Pb(Vec<Lit>),
}

/// The CDCL solver.
pub struct Solver {
    config: SolverConfig,
    clauses: ClauseDb,
    watches: Vec<Vec<Watcher>>,
    pbs: Vec<PbConstraint>,
    /// For each literal code, the PB constraints containing that literal and
    /// its coefficient there.
    pb_occ: Vec<Vec<(u32, u64)>>,

    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    level: Vec<u32>,
    /// Index into `trail` of each assigned variable's literal; what orders
    /// a lazily explained PB propagation against the constraint's other
    /// literals.
    trail_pos: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order_heap: VarHeap,
    seen: Vec<bool>,
    analyze_toclear: Vec<Lit>,
    /// Per decision level, the `lbd_epoch` of the last learnt clause that
    /// had a literal there: counting distinct levels without sorting them.
    level_stamp: Vec<u64>,
    lbd_epoch: u64,

    ok: bool,
    true_lit: Option<Lit>,
    stats: SolverStats,
    learnt_count: usize,
    learnt_limit: usize,
    /// Failed-assumption subset of the most recent
    /// `solve_under_assumptions` call that returned [`SolveResult::Unsat`]
    /// while the formula itself remained satisfiable.
    conflict_core: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Create a solver with default configuration.
    pub fn new() -> Self {
        Self::with_config(SolverConfig::default())
    }

    /// Create a solver with a custom configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        let learnt_limit = config.learnt_limit_start;
        Solver {
            config,
            clauses: ClauseDb::new(),
            watches: Vec::new(),
            pbs: Vec::new(),
            pb_occ: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            level: Vec::new(),
            trail_pos: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order_heap: VarHeap::new(),
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            level_stamp: Vec::new(),
            lbd_epoch: 0,
            ok: true,
            true_lit: None,
            stats: SolverStats::default(),
            learnt_count: 0,
            learnt_limit,
            conflict_core: Vec::new(),
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of user (non-learnt) clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.stats.original_clauses as usize
    }

    /// Number of pseudo-Boolean constraints retained.
    pub fn num_pb_constraints(&self) -> usize {
        self.pbs.len()
    }

    /// Search statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The configuration the solver was built with. Incremental callers use
    /// this to check capabilities before issuing assumption probes
    /// (`solve_under_assumptions` requires clause learning).
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// `false` once unsatisfiability has been established at level 0.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Create a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.polarity.push(self.config.default_polarity);
        self.level.push(0);
        self.trail_pos.push(0);
        self.reason.push(Reason::None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.pb_occ.push(Vec::new());
        self.pb_occ.push(Vec::new());
        self.order_heap.grow(self.assigns.len());
        self.order_heap.insert(v, &self.activity);
        v
    }

    /// Create `n` fresh variables, returned in creation order.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// A literal constrained true at level 0 (created lazily). Useful for
    /// encoding constants.
    pub fn true_lit(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = self.new_var().positive();
        self.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    /// A literal constrained false at level 0.
    pub fn false_lit(&mut self) -> Lit {
        !self.true_lit()
    }

    #[inline]
    fn value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index()].of_lit(lit)
    }

    /// Current truth value of a literal (for inspection between calls).
    pub fn lit_value(&self, lit: Lit) -> LBool {
        self.value(lit)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    // ------------------------------------------------------------------
    // Constraint input
    // ------------------------------------------------------------------

    /// Add a clause (disjunction of literals). Returns `false` if the
    /// formula is now known to be unsatisfiable.
    ///
    /// Must be called before `solve` (at decision level 0).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable();
        ls.dedup();
        // Tautology / satisfied / false-literal elimination at level 0.
        let mut out: Vec<Lit> = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: contains l and ¬l (adjacent after sort)
            }
            match self.value(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => out.push(l),
            }
        }
        self.stats.original_clauses += 1;
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(out[0], Reason::None);
                true
            }
            _ => {
                let cref = self.clauses.push(&out, false);
                self.attach_clause(cref);
                true
            }
        }
    }

    fn attach_clause(&mut self, cref: CRef) {
        let lits = self.clauses.lits(cref);
        let (l0, l1) = (lits[0], lits[1]);
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
    }

    /// Add the pseudo-Boolean constraint `Σ coefᵢ·litᵢ ≤ bound`.
    ///
    /// Coefficients must be positive (zero-coefficient terms are dropped).
    /// Returns `false` if the formula is now known unsatisfiable.
    pub fn add_pb_le(&mut self, terms: &[(u64, Lit)], bound: u64) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        self.stats.pb_constraints += 1;

        // Merge duplicate literals and cancel complementary pairs.
        let mut merged: Vec<(u64, Lit)> = Vec::with_capacity(terms.len());
        {
            let mut sorted: Vec<(u64, Lit)> =
                terms.iter().copied().filter(|&(c, _)| c > 0).collect();
            sorted.sort_unstable_by_key(|&(_, l)| l.code());
            for (c, l) in sorted {
                if let Some(last) = merged.last_mut() {
                    if last.1 == l {
                        last.0 += c;
                        continue;
                    }
                }
                merged.push((c, l));
            }
        }
        let mut bound = bound as i128;
        let mut reduced: Vec<(u64, Lit)> = Vec::with_capacity(merged.len());
        let mut i = 0;
        while i < merged.len() {
            let (c, l) = merged[i];
            if i + 1 < merged.len() && merged[i + 1].1 == !l {
                // a·l + b·¬l  =  min(a,b) + |a-b|·(the larger-coefficient literal)
                let (c2, l2) = merged[i + 1];
                let common = c.min(c2);
                bound -= common as i128;
                if c > c2 {
                    reduced.push((c - c2, l));
                } else if c2 > c {
                    reduced.push((c2 - c, l2));
                }
                i += 2;
            } else {
                reduced.push((c, l));
                i += 1;
            }
        }
        if bound < 0 {
            self.ok = false;
            return false;
        }
        // Remove literals already assigned at level 0.
        let mut kept: Vec<(u64, Lit)> = Vec::with_capacity(reduced.len());
        for (c, l) in reduced {
            match self.value(l) {
                LBool::True => bound -= c as i128,
                LBool::False => {}
                LBool::Undef => kept.push((c, l)),
            }
        }
        if bound < 0 {
            self.ok = false;
            return false;
        }
        let mut bound = bound as u64;
        // Force literals whose coefficient alone exceeds the bound, then
        // re-check; repeat until stable.
        loop {
            let mut changed = false;
            let mut next: Vec<(u64, Lit)> = Vec::with_capacity(kept.len());
            for (c, l) in kept.drain(..) {
                if c > bound {
                    match self.value(l) {
                        LBool::True => {
                            self.ok = false;
                            return false;
                        }
                        LBool::False => {}
                        LBool::Undef => {
                            self.unchecked_enqueue(!l, Reason::None);
                        }
                    }
                    changed = true;
                } else {
                    next.push((c, l));
                }
            }
            kept = next;
            if !changed {
                break;
            }
            // Literals may have become assigned by the forcing above.
            let mut next: Vec<(u64, Lit)> = Vec::with_capacity(kept.len());
            for (c, l) in kept.drain(..) {
                match self.value(l) {
                    LBool::True => {
                        if c > bound {
                            self.ok = false;
                            return false;
                        }
                        bound -= c;
                    }
                    LBool::False => {}
                    LBool::Undef => next.push((c, l)),
                }
            }
            kept = next;
        }
        let total: u64 = kept.iter().map(|&(c, _)| c).sum();
        if total <= bound {
            return true; // trivially satisfied
        }
        if kept.is_empty() {
            return self.ok;
        }
        let max_coef = kept.iter().map(|&(c, _)| c).max().unwrap_or(0);
        let idx = self.pbs.len() as u32;
        for &(c, l) in &kept {
            self.pb_occ[l.code()].push((idx, c));
        }
        self.pbs.push(PbConstraint {
            terms: kept,
            bound,
            sum_true: 0,
            max_coef,
        });
        true
    }

    /// At most one of `lits` is true.
    pub fn add_at_most_one(&mut self, lits: &[Lit]) -> bool {
        let terms: Vec<(u64, Lit)> = lits.iter().map(|&l| (1, l)).collect();
        self.add_pb_le(&terms, 1)
    }

    /// At least one of `lits` is true.
    pub fn add_at_least_one(&mut self, lits: &[Lit]) -> bool {
        self.add_clause(lits)
    }

    /// Exactly one of `lits` is true.
    pub fn add_exactly_one(&mut self, lits: &[Lit]) -> bool {
        self.add_at_least_one(lits) && self.add_at_most_one(lits)
    }

    /// `a → b`.
    pub fn add_implies(&mut self, a: Lit, b: Lit) -> bool {
        self.add_clause(&[!a, b])
    }

    /// `cond → (l₁ ∨ l₂ ∨ …)`.
    pub fn add_implies_clause(&mut self, cond: Lit, clause: &[Lit]) -> bool {
        let mut lits = Vec::with_capacity(clause.len() + 1);
        lits.push(!cond);
        lits.extend_from_slice(clause);
        self.add_clause(&lits)
    }

    // ------------------------------------------------------------------
    // Assignment & propagation
    // ------------------------------------------------------------------

    fn unchecked_enqueue(&mut self, lit: Lit, reason: Reason) {
        debug_assert!(self.value(lit).is_undef());
        let v = lit.var().index();
        self.assigns[v] = LBool::from_bool(lit.sign());
        self.level[v] = self.decision_level();
        self.trail_pos[v] = self.trail.len() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
        // Keep PB slack counters in sync with the assignment at enqueue time
        // (symmetric with the decrement in `cancel_until`), so counters stay
        // consistent even when propagation is cut short by a conflict.
        for &(ci, coef) in &self.pb_occ[lit.code()] {
            self.pbs[ci as usize].sum_true += coef;
        }
    }

    /// How many watcher / pseudo-Boolean-occurrence *visits* `propagate`
    /// performs between polls of the cooperative stop flag. Polling per
    /// trail literal is not enough: one literal with a very long watcher or
    /// PB-occurrence list is traversed in full before the next poll, so a
    /// dense formula could delay cancellation arbitrarily. Counting visits
    /// bounds the poll latency by work actually done, while keeping the
    /// atomic load off the hot path.
    const STOP_POLL_INTERVAL: u32 = 2048;

    fn propagate(&mut self, limits: &Limits) -> Option<Conflict> {
        let mut visits: u32 = 0;
        let mut stopped = false;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            if let Some(conflict) = self.propagate_clauses(p, limits, &mut visits, &mut stopped) {
                return Some(conflict);
            }
            if !stopped {
                if let Some(conflict) = self.propagate_pb(p, limits, &mut visits, &mut stopped) {
                    return Some(conflict);
                }
            }
            if stopped {
                // The flag is sticky (only ever raised), so cutting the pass
                // short here is safe: the restart loop's budget check sees
                // the same value and aborts before any decision is made on
                // the partially propagated trail. Rewind the queue head so
                // that, should the solver be reused after the aborted call,
                // `p` is re-processed from scratch — both the watcher scan
                // and the PB occurrence scan are idempotent, and skipping
                // the tail of either would lose forced propagations.
                self.qhead -= 1;
                return None;
            }
        }
        None
    }

    /// Process clause watchers of the newly true literal `p`. The list is
    /// compacted in place as it is scanned: a watcher that stays is copied
    /// down over the ones that moved to another literal's list, so a scan
    /// allocates nothing.
    fn propagate_clauses(
        &mut self,
        p: Lit,
        limits: &Limits,
        visits: &mut u32,
        stopped: &mut bool,
    ) -> Option<Conflict> {
        // No clause moves a watch onto `¬p`'s own list (a new watch is
        // never false), so the list can leave `self` for the scan.
        let mut watchers = std::mem::take(&mut self.watches[p.code()]);
        let false_lit = !p;
        let mut conflict = None;
        let (mut read, mut write) = (0, 0);
        while read < watchers.len() {
            *visits += 1;
            if *visits >= Self::STOP_POLL_INTERVAL {
                *visits = 0;
                if limits.stop_requested() {
                    // Abort mid-list: every unprocessed watcher is retained
                    // below, so the list stays complete for the re-scan.
                    *stopped = true;
                    break;
                }
            }
            let w = watchers[read];
            read += 1;
            if self.value(w.blocker).is_true() {
                watchers[write] = w;
                write += 1;
                continue;
            }
            if self.clauses.is_deleted(w.cref) {
                continue;
            }
            // One look-up of the clause; `value` reads `assigns` alone, so
            // the literals can stay mutably borrowed beside it.
            let assigns = &self.assigns;
            let value = |l: Lit| assigns[l.var().index()].of_lit(l);
            let lits = self.clauses.lits_mut(w.cref);
            // Make sure the false watched literal (¬p) is at position 1.
            if lits[0] == false_lit {
                lits.swap(0, 1);
            }
            debug_assert_eq!(lits[1], false_lit);
            let first = lits[0];
            let keep = Watcher {
                cref: w.cref,
                blocker: first,
            };
            if first != w.blocker && value(first).is_true() {
                watchers[write] = keep;
                write += 1;
                continue;
            }
            // Look for a new literal to watch.
            if let Some(off) = lits[2..].iter().position(|&l| !value(l).is_false()) {
                lits.swap(1, off + 2);
                self.watches[(!lits[1]).code()].push(keep);
                continue;
            }
            // Clause is unit or conflicting.
            watchers[write] = keep;
            write += 1;
            if self.value(first).is_false() {
                // Conflict: the unprocessed watchers are retained below.
                self.qhead = self.trail.len();
                conflict = Some(Conflict::Clause(w.cref));
                break;
            }
            self.unchecked_enqueue(first, Reason::Clause(w.cref));
        }
        watchers.copy_within(read.., write);
        watchers.truncate(write + watchers.len() - read);
        self.watches[p.code()] = watchers;
        conflict
    }

    /// Update slack counters of PB constraints containing the newly true
    /// literal `p`; detect conflicts and propagate forced literals.
    fn propagate_pb(
        &mut self,
        p: Lit,
        limits: &Limits,
        visits: &mut u32,
        stopped: &mut bool,
    ) -> Option<Conflict> {
        let n_occ = self.pb_occ[p.code()].len();
        for occ_idx in 0..n_occ {
            *visits += 1;
            if *visits >= Self::STOP_POLL_INTERVAL {
                *visits = 0;
                if limits.stop_requested() {
                    // Safe to abort mid-scan: the caller rewinds the queue
                    // head, so the whole occurrence list is re-visited if the
                    // solver is used again (the scan is idempotent).
                    *stopped = true;
                    return None;
                }
            }
            let (ci, _coef) = self.pb_occ[p.code()][occ_idx];
            let (sum_true, bound, max_coef) = {
                let c = &self.pbs[ci as usize];
                (c.sum_true, c.bound, c.max_coef)
            };
            if sum_true > bound {
                self.stats.pb_conflicts += 1;
                self.qhead = self.trail.len();
                let conflict_lits: Vec<Lit> = self.pbs[ci as usize]
                    .terms
                    .iter()
                    .filter(|&&(_, l)| self.value(l).is_true())
                    .map(|&(_, l)| !l)
                    .collect();
                return Some(Conflict::Pb(conflict_lits));
            }
            let slack = bound - sum_true;
            if slack < max_coef {
                // Every unassigned literal heavier than the slack is forced
                // false. A constraint mentions a variable once, so forcing
                // one of its literals changes neither its slack nor the
                // value of its other literals: the scan and the enqueues
                // can share one pass.
                for k in 0..self.pbs[ci as usize].terms.len() {
                    let (coef, l) = self.pbs[ci as usize].terms[k];
                    if coef > slack && self.value(l).is_undef() {
                        self.stats.pb_propagations += 1;
                        self.unchecked_enqueue(!l, Reason::Pb(ci));
                    }
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Conflict analysis
    // ------------------------------------------------------------------

    /// First-UIP conflict analysis. Reason clauses are walked where they
    /// live — arena positions for clauses, filtered constraint terms for
    /// pseudo-Boolean propagations — and never copied out.
    fn analyze(&mut self, conflict: Conflict) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for the asserting literal
        let mut path_count: u32 = 0;
        let mut index = self.trail.len();
        let current_level = self.decision_level();
        self.analyze_toclear.clear();

        match conflict {
            Conflict::Clause(cref) => {
                self.bump_clause_activity(cref);
                for at in self.clauses.span(cref) {
                    let q = self.clauses.lit_at(at);
                    self.analyze_lit(q, current_level, &mut path_count, &mut learnt);
                }
            }
            Conflict::Pb(lits) => {
                for q in lits {
                    self.analyze_lit(q, current_level, &mut path_count, &mut learnt);
                }
            }
        }

        loop {
            // Find the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let p = self.trail[index];
            self.seen[p.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = !p;
                break;
            }
            // The reason of `p`, minus `p` itself.
            match self.reason[p.var().index()] {
                Reason::Clause(cref) => {
                    self.bump_clause_activity(cref);
                    let span = self.clauses.span(cref);
                    debug_assert_eq!(self.clauses.lit_at(span.start), p);
                    for at in span.skip(1) {
                        let q = self.clauses.lit_at(at);
                        self.analyze_lit(q, current_level, &mut path_count, &mut learnt);
                    }
                }
                Reason::Pb(ci) => {
                    let before = self.trail_pos[p.var().index()];
                    for k in 0..self.pbs[ci as usize].terms.len() {
                        let (_, t) = self.pbs[ci as usize].terms[k];
                        if self.pb_explains(t, before) {
                            self.analyze_lit(!t, current_level, &mut path_count, &mut learnt);
                        }
                    }
                }
                Reason::None => unreachable!("resolved literal must have a reason"),
            }
        }

        // Clear the seen flags.
        for &l in &self.analyze_toclear {
            self.seen[l.var().index()] = false;
        }

        // Backtrack level: the second-highest decision level in the clause.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };

        // Literal block distance: the number of distinct decision levels,
        // counted by stamping each level with this clause's epoch.
        if self.level_stamp.len() <= current_level as usize {
            self.level_stamp.resize(current_level as usize + 1, 0);
        }
        self.lbd_epoch += 1;
        let mut lbd = 0;
        for l in &learnt {
            let stamp = &mut self.level_stamp[self.level[l.var().index()] as usize];
            if *stamp != self.lbd_epoch {
                *stamp = self.lbd_epoch;
                lbd += 1;
            }
        }

        (learnt, backtrack_level, lbd)
    }

    /// One literal of the conflict side under analysis: count it towards
    /// the current level's open paths or add it to the learnt clause.
    #[inline]
    fn analyze_lit(
        &mut self,
        q: Lit,
        current_level: u32,
        path_count: &mut u32,
        learnt: &mut Vec<Lit>,
    ) {
        let v = q.var();
        if !self.seen[v.index()] && self.level[v.index()] > 0 {
            self.seen[v.index()] = true;
            self.analyze_toclear.push(q);
            self.bump_var_activity(v);
            if self.level[v.index()] >= current_level {
                *path_count += 1;
            } else {
                learnt.push(q);
            }
        }
    }

    /// Does the constraint literal `t` belong to the explanation of a
    /// pseudo-Boolean propagation that sits at trail position `before`?
    /// (See [`Reason::Pb`].)
    #[inline]
    fn pb_explains(&self, t: Lit, before: u32) -> bool {
        self.value(t).is_true() && self.trail_pos[t.var().index()] < before
    }

    fn bump_var_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.config.vsids {
            self.order_heap.update(v, &self.activity);
        }
    }

    fn bump_clause_activity(&mut self, cref: CRef) {
        if !self.clauses.is_learnt(cref) {
            return;
        }
        let activity = self.clauses.activity_mut(cref);
        *activity += self.cla_inc;
        if *activity > 1e20 {
            self.clauses.rescale_learnt_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= self.config.clause_decay;
    }

    // ------------------------------------------------------------------
    // Backtracking & decisions
    // ------------------------------------------------------------------

    fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let keep = self.trail_lim[target_level as usize];
        for i in (keep..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            for &(ci, coef) in &self.pb_occ[lit.code()] {
                self.pbs[ci as usize].sum_true -= coef;
            }
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = Reason::None;
            if self.config.phase_saving {
                self.polarity[v.index()] = lit.sign();
            }
            self.order_heap.insert(v, &self.activity);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        if self.config.vsids {
            while let Some(v) = self.order_heap.pop_max(&self.activity) {
                if self.assigns[v.index()].is_undef() {
                    return Some(v);
                }
            }
            None
        } else {
            (0..self.num_vars())
                .map(Var::from_index)
                .find(|v| self.assigns[v.index()].is_undef())
        }
    }

    fn decide(&mut self, var: Var) {
        self.stats.decisions += 1;
        self.trail_lim.push(self.trail.len());
        let lit = Lit::new(var, self.polarity[var.index()]);
        self.unchecked_enqueue(lit, Reason::None);
    }

    /// Deterministic model completion: variables the search never had to
    /// assign (none in practice, since the search branches until every
    /// variable has a value, but kept total for safety) take the configured
    /// default polarity rather than their saved phase. Saved phases depend
    /// on the search history, so completing from them would make the model
    /// of one formula differ between a cold and a warm solver; the fixed
    /// polarity rule keeps decode-from-model reproducible.
    fn extract_model(&self) -> Model {
        let values: Vec<bool> = self
            .assigns
            .iter()
            .map(|v| match v {
                LBool::True => true,
                LBool::False => false,
                LBool::Undef => self.config.default_polarity,
            })
            .collect();
        Model::new(values)
    }

    /// Is the clause `cref` currently the reason of its first literal?
    fn is_reason_locked(&self, cref: CRef) -> bool {
        let first = self.clauses.lits(cref)[0];
        if !self.value(first).is_true() {
            return false;
        }
        matches!(self.reason[first.var().index()], Reason::Clause(r) if r == cref)
    }

    fn reduce_learnt_db(&mut self) {
        let mut candidates: Vec<(CRef, u32, f64)> = self
            .clauses
            .learnt_refs()
            .filter(|&r| !self.is_reason_locked(r))
            .map(|r| (r, self.clauses.lbd(r), self.clauses.activity(r)))
            .filter(|&(_, lbd, _)| lbd > 2)
            .collect();
        // Delete the worse half: high LBD first, low activity first.
        candidates.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
        });
        let to_delete = candidates.len() / 2;
        for &(r, _, _) in candidates.iter().take(to_delete) {
            self.clauses.delete(r);
            self.learnt_count -= 1;
            self.stats.removed_clauses += 1;
        }
        self.clauses.compact();
        self.learnt_limit = (self.learnt_limit as f64 * self.config.learnt_limit_growth) as usize;
    }

    // ------------------------------------------------------------------
    // Main search loop
    // ------------------------------------------------------------------

    /// Compute the failed-assumption subset once the assumption `p` is found
    /// false at placement time: walk the implication trail backwards from
    /// `¬p`'s reasons, collecting every *decision* encountered — at placement
    /// time all decisions are assumptions, so the result is the subset of
    /// assumptions that (together with `p`) the formula refutes.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                Reason::None => core.push(x),
                Reason::Clause(cref) => {
                    for &q in &self.clauses.lits(cref)[1..] {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
                Reason::Pb(ci) => {
                    let before = self.trail_pos[v];
                    for &(_, t) in &self.pbs[ci as usize].terms {
                        if self.level[t.var().index()] > 0 && self.pb_explains(t, before) {
                            self.seen[t.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var().index()] = false;
        core
    }

    /// The subset of assumptions under which the most recent
    /// [`Solver::solve_under_assumptions`] call proved unsatisfiability.
    /// Empty when the last call was satisfiable, ran out of budget, or
    /// established unsatisfiability of the formula itself (check
    /// [`Solver::is_ok`] to distinguish the latter).
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Solve with no resource limits.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_limited(Limits::none())
    }

    /// Solve within the given resource limits.
    pub fn solve_limited(&mut self, limits: Limits) -> SolveResult {
        self.solve_under_assumptions(&[], limits)
    }

    /// Solve under a conjunction of assumption literals within the given
    /// resource limits.
    ///
    /// Assumptions hold only for this call: they are placed as the first
    /// decisions of the search, so learnt clauses remain consequences of the
    /// formula alone and are retained afterwards (as are VSIDS activities
    /// and saved phases — the warm state incremental callers rely on).
    /// [`SolveResult::Unsat`] means unsatisfiable *under the assumptions*;
    /// when the formula itself is still satisfiable, [`Solver::is_ok`] stays
    /// `true` and [`Solver::failed_assumptions`] names the refuted subset.
    ///
    /// Requires clause learning (assumption semantics cannot be preserved by
    /// the chronological-backtracking ablation mode, which flips decisions).
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit], limits: Limits) -> SolveResult {
        assert!(
            self.config.clause_learning || assumptions.is_empty(),
            "solve_under_assumptions requires clause learning"
        );
        self.conflict_core.clear();
        self.stats.solve_calls += 1;
        self.stats.assumptions += assumptions.len() as u64;
        self.stats.reused_clauses += self.learnt_count as u64;
        if !self.ok {
            return SolveResult::Unsat;
        }
        let start = Instant::now();
        let start_conflicts = self.stats.conflicts;
        let mut restart_index: u64 = 0;
        let mut conflicts_since_restart: u64 = 0;
        let mut restart_threshold = luby(restart_index) * self.config.restart_base;

        loop {
            match self.propagate(&limits) {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    if self.config.clause_learning {
                        let (learnt, bt_level, lbd) = self.analyze(conflict);
                        self.cancel_until(bt_level);
                        if learnt.len() == 1 {
                            self.unchecked_enqueue(learnt[0], Reason::None);
                        } else {
                            let cref = self.clauses.push(&learnt, true);
                            self.clauses.set_lbd(cref, lbd);
                            self.attach_clause(cref);
                            self.bump_clause_activity(cref);
                            self.learnt_count += 1;
                            self.stats.learnt_clauses += 1;
                            self.unchecked_enqueue(learnt[0], Reason::Clause(cref));
                        }
                        self.decay_activities();
                    } else {
                        // Chronological backtracking: flip the last decision.
                        let lvl = self.decision_level() - 1;
                        let decision = self.trail[self.trail_lim[lvl as usize]];
                        self.cancel_until(lvl);
                        if self.value(decision).is_undef() {
                            self.unchecked_enqueue(!decision, Reason::None);
                        } else if self.value(decision).is_true() {
                            if lvl == 0 {
                                self.ok = false;
                                return SolveResult::Unsat;
                            }
                            // Both phases exhausted along this branch; give up
                            // one more level (rare, handled conservatively).
                            self.cancel_until(lvl.saturating_sub(1));
                        }
                    }
                }
                None => {
                    // Budget checks (only between conflicts to keep them cheap).
                    if limits.stop_requested() {
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                    if let Some(max_c) = limits.max_conflicts {
                        if self.stats.conflicts - start_conflicts >= max_c {
                            self.cancel_until(0);
                            return SolveResult::Unknown;
                        }
                    }
                    if let Some(max_t) = limits.max_time {
                        if start.elapsed() >= max_t {
                            self.cancel_until(0);
                            return SolveResult::Unknown;
                        }
                    }
                    if conflicts_since_restart >= restart_threshold {
                        self.stats.restarts += 1;
                        restart_index += 1;
                        conflicts_since_restart = 0;
                        restart_threshold = luby(restart_index) * self.config.restart_base;
                        self.cancel_until(0);
                        continue;
                    }
                    if self.learnt_count > self.learnt_limit {
                        self.reduce_learnt_db();
                    }
                    // Place the next pending assumption (one per decision
                    // level) before branching freely.
                    if (self.decision_level() as usize) < assumptions.len() {
                        let a = assumptions[self.decision_level() as usize];
                        match self.value(a) {
                            LBool::True => {
                                // Already implied: open an empty level so
                                // the level ↔ assumption indexing stays
                                // aligned.
                                self.trail_lim.push(self.trail.len());
                            }
                            LBool::False => {
                                self.conflict_core = self.analyze_final(a);
                                self.cancel_until(0);
                                return SolveResult::Unsat;
                            }
                            LBool::Undef => {
                                self.stats.decisions += 1;
                                self.trail_lim.push(self.trail.len());
                                self.unchecked_enqueue(a, Reason::None);
                            }
                        }
                        continue;
                    }
                    match self.pick_branch_var() {
                        None => {
                            let model = self.extract_model();
                            self.cancel_until(0);
                            return SolveResult::Sat(model);
                        }
                        Some(v) => self.decide(v),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // pigeonhole column loops read best with indices
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| solver.new_var().positive()).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn single_unit_clause() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        s.add_clause(&[a]);
        let m = s.solve().model().expect("sat");
        assert!(m.lit_value(a));
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        assert!(s.add_clause(&[a]));
        assert!(!s.add_clause(&[!a]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        for w in v.windows(2) {
            s.add_clause(&[!w[0], w[1]]);
        }
        s.add_clause(&[v[0]]);
        let m = s.solve().model().expect("sat");
        for &l in &v {
            assert!(m.lit_value(l));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: unsatisfiable. Exercises clause learning.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for hole in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[!p[i][hole], !p[j][hole]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5;
        let h = 4;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..h).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for hole in 0..h {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[!p[i][hole], !p[j][hole]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn xor_chain_sat() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x0 ⊕ x2 = 0 is satisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor = |s: &mut Solver, a: Lit, b: Lit, val: bool| {
            if val {
                s.add_clause(&[a, b]);
                s.add_clause(&[!a, !b]);
            } else {
                s.add_clause(&[!a, b]);
                s.add_clause(&[a, !b]);
            }
        };
        xor(&mut s, v[0], v[1], true);
        xor(&mut s, v[1], v[2], true);
        xor(&mut s, v[0], v[2], false);
        let m = s.solve().model().expect("sat");
        assert_ne!(m.lit_value(v[0]), m.lit_value(v[1]));
        assert_eq!(m.lit_value(v[0]), m.lit_value(v[2]));
    }

    #[test]
    fn xor_chain_unsat() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x0 ⊕ x2 = 1 is unsatisfiable (parity).
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            s.add_clause(&[v[a], v[b]]);
            s.add_clause(&[!v[a], !v[b]]);
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pb_at_most_one_propagates() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_at_most_one(&v);
        s.add_clause(&[v[2]]);
        let m = s.solve().model().expect("sat");
        assert!(m.lit_value(v[2]));
        assert!(!m.lit_value(v[0]));
        assert!(!m.lit_value(v[1]));
        assert!(!m.lit_value(v[3]));
    }

    #[test]
    fn pb_exactly_one() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        s.add_exactly_one(&v);
        let m = s.solve().model().expect("sat");
        assert_eq!(v.iter().filter(|&&l| m.lit_value(l)).count(), 1);
    }

    #[test]
    fn pb_cardinality_conflict() {
        // At most 2 of 5 true, but 3 forced true: unsat.
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        let terms: Vec<(u64, Lit)> = v.iter().map(|&l| (1, l)).collect();
        s.add_pb_le(&terms, 2);
        s.add_clause(&[v[0]]);
        s.add_clause(&[v[1]]);
        s.add_clause(&[v[2]]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pb_weighted_bound() {
        // 3a + 2b + 2c ≤ 5 with a forced true: b and c cannot both be true.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_pb_le(&[(3, v[0]), (2, v[1]), (2, v[2])], 5);
        s.add_clause(&[v[0]]);
        s.add_clause(&[v[1], v[2]]);
        let m = s.solve().model().expect("sat");
        assert!(m.lit_value(v[0]));
        assert!(m.lit_value(v[1]) ^ m.lit_value(v[2]));
    }

    #[test]
    fn pb_weighted_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_pb_le(&[(3, v[0]), (3, v[1]), (3, v[2])], 5);
        s.add_clause(&[v[0]]);
        s.add_clause(&[v[1]]);
        assert!(!s.is_ok() || s.solve().is_unsat());
    }

    #[test]
    fn pb_coefficient_exceeding_bound_forces_literal() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        // 5a + 1b ≤ 3 forces a = false immediately.
        s.add_pb_le(&[(5, v[0]), (1, v[1])], 3);
        let m = s.solve().model().expect("sat");
        assert!(!m.lit_value(v[0]));
    }

    #[test]
    fn pb_trivially_satisfied_is_dropped() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_pb_le(&[(1, v[0]), (1, v[1]), (1, v[2])], 3);
        assert_eq!(s.num_pb_constraints(), 0);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn pb_complementary_literals_normalized() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        // 2a + 3¬a + b ≤ 3  ≡  2 + (¬a) + b ≤ 3  ≡  ¬a + b ≤ 1.
        s.add_pb_le(&[(2, a), (3, !a), (1, b)], 3);
        s.add_clause(&[b]);
        let m = s.solve().model().expect("sat");
        assert!(m.lit_value(b));
        assert!(
            m.lit_value(a),
            "¬a must be false since b consumed the slack"
        );
    }

    #[test]
    fn true_and_false_lits() {
        let mut s = Solver::new();
        let t = s.true_lit();
        let f = s.false_lit();
        let m = s.solve().model().expect("sat");
        assert!(m.lit_value(t));
        assert!(!m.lit_value(f));
    }

    #[test]
    fn conflict_limit_returns_unknown() {
        // A hard pigeonhole instance with a tiny conflict budget.
        let n = 8;
        let h = 7;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..h).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for hole in 0..h {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[!p[i][hole], !p[j][hole]]);
                }
            }
        }
        let result = s.solve_limited(Limits::conflicts(5));
        assert_eq!(result, SolveResult::Unknown);
    }

    /// A hard pigeonhole instance (UNSAT, large search tree) used by the
    /// cancellation tests.
    fn hard_pigeonhole(n: usize) -> Solver {
        let h = n - 1;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..h).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for hole in 0..h {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[!p[i][hole], !p[j][hole]]);
                }
            }
        }
        s
    }

    #[test]
    fn limits_after_a_solve_keep_the_flags_and_what_is_left() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let limits = Limits::conflicts(10)
            .with_stop(std::sync::Arc::clone(&stop))
            .after(4, Duration::from_secs(1));
        assert_eq!((limits.max_conflicts, limits.max_time), (Some(6), None));
        let spent = limits.clone().after(7, Duration::ZERO);
        assert_eq!(spent.max_conflicts, Some(0), "saturating");
        // Nothing left: the first budget check gives up.
        assert_eq!(
            hard_pigeonhole(6).solve_limited(spent),
            SolveResult::Unknown
        );
        let timed = Limits::time(Duration::from_secs(3)).after(0, Duration::from_secs(2));
        assert_eq!(timed.max_time, Some(Duration::from_secs(1)));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(limits.stop_requested(), "the flag is shared, not copied");
    }

    #[test]
    fn pre_raised_stop_flag_aborts_immediately() {
        // A raised stop flag and a deadline already in the past abort alike.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        for limits in [
            Limits::none().with_stop(stop),
            Limits::none().with_deadline(Instant::now()),
        ] {
            let mut s = hard_pigeonhole(10);
            let start = Instant::now();
            assert_eq!(s.solve_limited(limits), SolveResult::Unknown);
            // The search must abort at the first budget check, long before
            // the instance could be decided.
            assert!(start.elapsed() < Duration::from_secs(5));
        }
    }

    #[test]
    fn stop_flag_interrupts_long_running_solve() {
        // A 12-pigeon instance takes far longer than the interrupt delay;
        // the solve must return Unknown shortly after the flag is raised,
        // or the deadline passes.
        let interrupted = |limits: Limits| {
            let mut solver = hard_pigeonhole(12);
            let start = Instant::now();
            assert_eq!(solver.solve_limited(limits), SolveResult::Unknown);
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "stop request was not honoured in time"
            );
            // The solver remains usable after an interrupted solve.
            assert!(solver.is_ok());
        };
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let interrupter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            flag.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        interrupted(Limits::none().with_stop(stop));
        interrupter.join().expect("interrupter thread");
        interrupted(Limits::none().with_deadline(Instant::now() + Duration::from_millis(50)));
        assert!(hard_pigeonhole(6).solve().is_unsat());
    }

    #[test]
    fn without_clause_learning_still_correct() {
        let config = SolverConfig {
            clause_learning: false,
            ..Default::default()
        };
        let mut s = Solver::with_config(config);
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for hole in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause(&[!p[i][hole], !p[j][hole]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn without_vsids_still_correct() {
        let config = SolverConfig {
            vsids: false,
            ..Default::default()
        };
        let mut s = Solver::with_config(config);
        let v: Vec<Lit> = (0..6).map(|_| s.new_var().positive()).collect();
        s.add_exactly_one(&v);
        s.add_clause(&[!v[0]]);
        s.add_clause(&[!v[1]]);
        let m = s.solve().model().expect("sat");
        assert_eq!(v.iter().filter(|&&l| m.lit_value(l)).count(), 1);
        assert!(!m.lit_value(v[0]) && !m.lit_value(v[1]));
    }

    #[test]
    fn tautological_clause_ignored() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        s.add_clause(&[a, !a]);
        assert_eq!(s.clauses.len(), 0);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn model_satisfies_all_clauses_random_3sat() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let n_vars = 20;
            let n_clauses = 60;
            let mut s = Solver::new();
            let vars: Vec<Lit> = (0..n_vars).map(|_| s.new_var().positive()).collect();
            let mut clauses = Vec::new();
            for _ in 0..n_clauses {
                let clause: Vec<Lit> = (0..3)
                    .map(|_| {
                        let l = vars[rng.gen_range(0..n_vars)];
                        if rng.gen_bool(0.5) {
                            l
                        } else {
                            !l
                        }
                    })
                    .collect();
                clauses.push(clause.clone());
                s.add_clause(&clause);
            }
            if let SolveResult::Sat(m) = s.solve() {
                for c in &clauses {
                    assert!(m.satisfies_clause(c), "model violates clause {c:?}");
                }
            }
        }
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let x = s.new_var().positive();
        let a1 = s.new_var().positive();
        let a2 = s.new_var().positive();
        s.add_implies(a1, x);
        s.add_implies(a2, !x);
        let m = s
            .solve_under_assumptions(&[a1], Limits::none())
            .model()
            .expect("sat under a1");
        assert!(m.lit_value(x));
        let m = s
            .solve_under_assumptions(&[a2], Limits::none())
            .model()
            .expect("sat under a2");
        assert!(!m.lit_value(x));
        // Contradictory only together; the formula itself stays consistent.
        let r = s.solve_under_assumptions(&[a1, a2], Limits::none());
        assert!(r.is_unsat());
        assert!(s.is_ok(), "assumption-unsat must not poison the solver");
        let mut core = s.failed_assumptions().to_vec();
        core.sort_unstable();
        let mut expected = vec![a1, a2];
        expected.sort_unstable();
        assert_eq!(core, expected);
        assert!(s.solve().is_sat());
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn assumption_contradicting_level0_fact_has_singleton_core() {
        let mut s = Solver::new();
        let x = s.new_var().positive();
        s.add_clause(&[!x]);
        let r = s.solve_under_assumptions(&[x], Limits::none());
        assert!(r.is_unsat());
        assert!(s.is_ok());
        assert_eq!(s.failed_assumptions(), &[x]);
    }

    #[test]
    fn already_true_assumption_is_a_no_op_level() {
        let mut s = Solver::new();
        let x = s.new_var().positive();
        let y = s.new_var().positive();
        s.add_clause(&[x]);
        s.add_clause(&[!x, y]);
        let m = s
            .solve_under_assumptions(&[x, y], Limits::none())
            .model()
            .expect("sat");
        assert!(m.lit_value(x) && m.lit_value(y));
    }

    #[test]
    fn retire_candidate_via_activation_literal() {
        // An activation-gated pigeonhole: UNSAT while assumed, harmless once
        // retired — the shape of the incremental Pareto sweep.
        let n = 4;
        let h = 3;
        let mut s = Solver::new();
        let act = s.new_var().positive();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..h).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            let mut clause = vec![!act];
            clause.extend_from_slice(row);
            s.add_clause(&clause);
        }
        for hole in 0..h {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[!act, !p[i][hole], !p[j][hole]]);
                }
            }
        }
        let r = s.solve_under_assumptions(&[act], Limits::none());
        assert!(r.is_unsat());
        assert!(s.is_ok());
        assert_eq!(s.failed_assumptions(), &[act]);
        // Retire the candidate and keep solving: the formula is now SAT.
        assert!(s.add_clause(&[!act]));
        let m = s.solve().model().expect("sat after retirement");
        assert!(!m.lit_value(act));
    }

    #[test]
    fn learnt_clauses_are_reused_across_calls() {
        let n = 5;
        let h = 4;
        let mut s = Solver::new();
        let act = s.new_var().positive();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..h).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            let mut clause = vec![!act];
            clause.extend_from_slice(row);
            s.add_clause(&clause);
        }
        for hole in 0..h {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause(&[!act, !p[i][hole], !p[j][hole]]);
                }
            }
        }
        assert!(s.solve_under_assumptions(&[act], Limits::none()).is_unsat());
        let learnt_after_first = s.stats().learnt_clauses;
        assert!(learnt_after_first > 0, "the pigeonhole must learn clauses");
        assert!(s.solve_under_assumptions(&[act], Limits::none()).is_unsat());
        assert_eq!(s.stats().solve_calls, 2);
        assert_eq!(s.stats().assumptions, 2);
        assert!(
            s.stats().reused_clauses > 0,
            "second call must start from retained learnt clauses"
        );
    }

    #[test]
    fn solve_under_assumptions_respects_budget() {
        let mut s = hard_pigeonhole(10);
        let a = s.new_var().positive();
        let r = s.solve_under_assumptions(&[a], Limits::conflicts(3));
        assert_eq!(r, SolveResult::Unknown);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn database_reduction_returns_the_literals_of_deleted_clauses() {
        let mut s = Solver::with_config(SolverConfig {
            learnt_limit_start: 40,
            ..SolverConfig::default()
        });
        let n = 7;
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row);
        }
        for hole in 0..n - 1 {
            let column: Vec<Lit> = p.iter().map(|row| row[hole]).collect();
            s.add_at_most_one(&column);
        }
        assert!(s.solve().is_unsat());
        assert!(s.stats().removed_clauses > 0, "reductions must have run");
        // Nothing deleted is still stored: the arena is exactly the live
        // clauses, and the counter agrees with a recount.
        assert_eq!(s.clauses.arena_len(), s.clauses.live_literals());
        let recount: usize = s.clauses.all_refs().map(|r| s.clauses.lits(r).len()).sum();
        assert_eq!(recount, s.clauses.live_literals());
        let retained = s.stats().learnt_clauses - s.stats().removed_clauses;
        assert_eq!(s.clauses.learnt_refs().count() as u64, retained);
    }

    #[test]
    fn stats_are_tracked() {
        let mut s = Solver::new();
        let v: Vec<Lit> = (0..4).map(|_| s.new_var().positive()).collect();
        s.add_exactly_one(&v);
        s.solve();
        assert!(s.stats().propagations > 0);
        assert_eq!(s.stats().pb_constraints, 1);
    }
}
