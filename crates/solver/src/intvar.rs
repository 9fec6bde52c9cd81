//! Bounded integer variables via the order encoding.
//!
//! An [`IntVar`] with domain `lo ..= hi` is represented by the Boolean
//! literals `[x ≥ v]` for `v ∈ lo+1 ..= hi`, chained by the channeling
//! clauses `[x ≥ v+1] → [x ≥ v]`. This is how the SCCL encoding represents
//! the `time(c, n)` chunk-availability variables and the per-step round
//! counts `r_s` (§3.4 of the paper) without a full SMT theory solver.

use crate::model::Model;
use crate::solver::Solver;
use crate::types::Lit;

/// A bounded integer variable `lo ≤ x ≤ hi`, order-encoded.
#[derive(Clone, Debug)]
pub struct IntVar {
    lo: i64,
    hi: i64,
    /// `ge_lits[i]` ⇔ `x ≥ lo + 1 + i`.
    ge_lits: Vec<Lit>,
}

impl IntVar {
    /// Create a new integer variable with inclusive domain `lo ..= hi`.
    pub fn new(solver: &mut Solver, lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty integer domain {lo}..={hi}");
        let n = (hi - lo) as usize;
        let ge_lits: Vec<Lit> = (0..n).map(|_| solver.new_var().positive()).collect();
        for w in ge_lits.windows(2) {
            // [x ≥ v+1] → [x ≥ v]
            solver.add_implies(w[1], w[0]);
        }
        IntVar { lo, hi, ge_lits }
    }

    /// Smallest domain value.
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// Largest domain value.
    pub fn hi(&self) -> i64 {
        self.hi
    }

    /// Literal equivalent to `x ≥ v` (constant literals outside the domain).
    pub fn ge(&self, solver: &mut Solver, v: i64) -> Lit {
        if v <= self.lo {
            solver.true_lit()
        } else if v > self.hi {
            solver.false_lit()
        } else {
            self.ge_lits[(v - self.lo - 1) as usize]
        }
    }

    /// Literal equivalent to `x ≤ v`.
    pub fn le(&self, solver: &mut Solver, v: i64) -> Lit {
        !self.ge(solver, v + 1)
    }

    /// Literal equivalent to `x > v`.
    pub fn gt(&self, solver: &mut Solver, v: i64) -> Lit {
        self.ge(solver, v + 1)
    }

    /// Literal equivalent to `x < v`.
    pub fn lt(&self, solver: &mut Solver, v: i64) -> Lit {
        !self.ge(solver, v)
    }

    /// Fresh literal `e` with `e ⇔ (x = v)`.
    pub fn eq_lit(&self, solver: &mut Solver, v: i64) -> Lit {
        if v < self.lo || v > self.hi {
            return solver.false_lit();
        }
        let ge_v = self.ge(solver, v);
        let ge_v1 = self.ge(solver, v + 1);
        let e = solver.new_var().positive();
        solver.add_clause(&[!e, ge_v]);
        solver.add_clause(&[!e, !ge_v1]);
        solver.add_clause(&[e, !ge_v, ge_v1]);
        e
    }

    /// Constrain `x ≤ v`.
    pub fn assert_le(&self, solver: &mut Solver, v: i64) -> bool {
        let l = self.le(solver, v);
        solver.add_clause(&[l])
    }

    /// Constrain `x ≥ v`.
    pub fn assert_ge(&self, solver: &mut Solver, v: i64) -> bool {
        let l = self.ge(solver, v);
        solver.add_clause(&[l])
    }

    /// Constrain `x = v`.
    pub fn assert_eq(&self, solver: &mut Solver, v: i64) -> bool {
        self.assert_ge(solver, v) && self.assert_le(solver, v)
    }

    /// Constrain `cond → (x < y)` (strict), the shape of constraint C4 in
    /// the SCCL encoding (`snd → time_src < time_dst`).
    pub fn imply_less_than(solver: &mut Solver, cond: Lit, x: &IntVar, y: &IntVar) -> bool {
        let lo = x.lo.min(y.lo);
        let hi = x.hi;
        let mut ok = true;
        for v in lo..=hi {
            // cond ∧ [x ≥ v] → [y ≥ v + 1]
            let x_ge = x.ge(solver, v);
            let y_gt = y.ge(solver, v + 1);
            ok &= solver.add_clause(&[!cond, !x_ge, y_gt]);
        }
        ok
    }

    /// Constrain `x ≤ y` unconditionally.
    pub fn assert_le_var(solver: &mut Solver, x: &IntVar, y: &IntVar) -> bool {
        let mut ok = true;
        for v in x.lo..=x.hi {
            let x_ge = x.ge(solver, v);
            let y_ge = y.ge(solver, v);
            ok &= solver.add_clause(&[!x_ge, y_ge]);
        }
        ok
    }

    /// Pseudo-Boolean terms summing to `coef · (hi − x)`.
    ///
    /// Used to move `−coef·x` to the left-hand side of a `≤` constraint:
    /// `hi − x = Σ_v ¬[x ≥ v]`.
    pub fn slack_terms(&self, coef: u64) -> Vec<(u64, Lit)> {
        self.ge_lits.iter().map(|&l| (coef, !l)).collect()
    }

    /// Extract the integer value from a model.
    pub fn value_in(&self, model: &Model) -> i64 {
        // The channeling clauses make the ge literals monotone in any model,
        // so counting the true ones gives the value.
        self.lo + self.ge_lits.iter().filter(|&&l| model.lit_value(l)).count() as i64
    }
}

/// Constrain `Σ xᵢ = total` over order-encoded integer variables.
pub fn add_linear_eq(solver: &mut Solver, vars: &[&IntVar], total: i64) -> bool {
    let lo_sum: i64 = vars.iter().map(|v| v.lo).sum();
    let hi_sum: i64 = vars.iter().map(|v| v.hi).sum();
    if total < lo_sum || total > hi_sum {
        // Unsatisfiable: force it through an empty clause.
        return solver.add_clause(&[]);
    }
    // Upper bound: Σ (xᵢ − loᵢ) ≤ total − lo_sum, where xᵢ − loᵢ is the
    // number of true `[xᵢ ≥ v]` literals.
    let mut up_terms: Vec<(u64, Lit)> = Vec::new();
    for v in vars {
        up_terms.extend(v.ge_lits.iter().map(|&l| (1, l)));
    }
    let ok1 = solver.add_pb_le(&up_terms, (total - lo_sum) as u64);
    // Lower bound: Σ (hiᵢ − xᵢ) ≤ hi_sum − total.
    let mut down_terms: Vec<(u64, Lit)> = Vec::new();
    for v in vars {
        down_terms.extend(v.slack_terms(1));
    }
    let ok2 = solver.add_pb_le(&down_terms, (hi_sum - total) as u64);
    ok1 && ok2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn domain_bounds_and_value() {
        let mut s = Solver::new();
        let x = IntVar::new(&mut s, 0, 5);
        x.assert_eq(&mut s, 3);
        let m = s.solve().model().expect("sat");
        assert_eq!(x.value_in(&m), 3);
    }

    #[test]
    fn out_of_domain_constants() {
        let mut s = Solver::new();
        let x = IntVar::new(&mut s, 2, 4);
        let always = x.ge(&mut s, 1);
        let never = x.ge(&mut s, 7);
        let m = s.solve().model().expect("sat");
        assert!(m.lit_value(always));
        assert!(!m.lit_value(never));
        let v = x.value_in(&m);
        assert!((2..=4).contains(&v));
    }

    #[test]
    fn eq_lit_is_exact() {
        let mut s = Solver::new();
        let x = IntVar::new(&mut s, 0, 4);
        let e2 = x.eq_lit(&mut s, 2);
        s.add_clause(&[e2]);
        let m = s.solve().model().expect("sat");
        assert_eq!(x.value_in(&m), 2);
    }

    #[test]
    fn eq_lit_negated_excludes_value() {
        let mut s = Solver::new();
        let x = IntVar::new(&mut s, 0, 2);
        let e0 = x.eq_lit(&mut s, 0);
        let e1 = x.eq_lit(&mut s, 1);
        s.add_clause(&[!e0]);
        s.add_clause(&[!e1]);
        let m = s.solve().model().expect("sat");
        assert_eq!(x.value_in(&m), 2);
    }

    #[test]
    fn eq_lit_out_of_domain_is_false() {
        let mut s = Solver::new();
        let x = IntVar::new(&mut s, 0, 2);
        let e = x.eq_lit(&mut s, 9);
        let m = s.solve().model().expect("sat");
        assert!(!m.lit_value(e));
    }

    #[test]
    fn conflicting_bounds_unsat() {
        let mut s = Solver::new();
        let x = IntVar::new(&mut s, 0, 3);
        x.assert_ge(&mut s, 3);
        x.assert_le(&mut s, 1);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn strict_less_than_conditional() {
        let mut s = Solver::new();
        let cond = s.new_var().positive();
        let x = IntVar::new(&mut s, 0, 3);
        let y = IntVar::new(&mut s, 0, 3);
        IntVar::imply_less_than(&mut s, cond, &x, &y);
        s.add_clause(&[cond]);
        x.assert_eq(&mut s, 2);
        let m = s.solve().model().expect("sat");
        assert_eq!(x.value_in(&m), 2);
        assert_eq!(y.value_in(&m), 3);
    }

    #[test]
    fn strict_less_than_unsat_when_no_room() {
        let mut s = Solver::new();
        let cond = s.new_var().positive();
        let x = IntVar::new(&mut s, 0, 3);
        let y = IntVar::new(&mut s, 0, 3);
        IntVar::imply_less_than(&mut s, cond, &x, &y);
        s.add_clause(&[cond]);
        x.assert_eq(&mut s, 3);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn strict_less_than_vacuous_when_condition_false() {
        let mut s = Solver::new();
        let cond = s.new_var().positive();
        let x = IntVar::new(&mut s, 0, 3);
        let y = IntVar::new(&mut s, 0, 3);
        IntVar::imply_less_than(&mut s, cond, &x, &y);
        s.add_clause(&[!cond]);
        x.assert_eq(&mut s, 3);
        y.assert_eq(&mut s, 0);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn le_var_ordering() {
        let mut s = Solver::new();
        let x = IntVar::new(&mut s, 0, 5);
        let y = IntVar::new(&mut s, 0, 5);
        IntVar::assert_le_var(&mut s, &x, &y);
        x.assert_ge(&mut s, 4);
        y.assert_le(&mut s, 4);
        let m = s.solve().model().expect("sat");
        assert_eq!(x.value_in(&m), 4);
        assert_eq!(y.value_in(&m), 4);
    }

    #[test]
    fn linear_eq_distributes_total() {
        let mut s = Solver::new();
        let xs: Vec<IntVar> = (0..3).map(|_| IntVar::new(&mut s, 0, 4)).collect();
        let refs: Vec<&IntVar> = xs.iter().collect();
        add_linear_eq(&mut s, &refs, 7);
        let m = s.solve().model().expect("sat");
        let total: i64 = xs.iter().map(|x| x.value_in(&m)).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn linear_eq_infeasible_total() {
        let mut s = Solver::new();
        let xs: Vec<IntVar> = (0..2).map(|_| IntVar::new(&mut s, 0, 3)).collect();
        let refs: Vec<&IntVar> = xs.iter().collect();
        add_linear_eq(&mut s, &refs, 9);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn singleton_domain() {
        let mut s = Solver::new();
        let x = IntVar::new(&mut s, 7, 7);
        let m = s.solve().model().expect("sat");
        assert_eq!(x.value_in(&m), 7);
        assert_eq!((x.lo(), x.hi()), (7, 7));
    }
}
