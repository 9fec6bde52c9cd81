//! Core identifier types shared across the solver: variables, literals and
//! the three-valued assignment domain.

use std::fmt;
use std::ops::Not;

/// A propositional variable.
///
/// Variables are dense indices handed out by [`crate::Solver::new_var`];
/// the `u32` representation keeps the trail and watch lists compact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Construct a variable from a raw index. Intended for tests and I/O
    /// code (DIMACS); normal clients should use `Solver::new_var`.
    #[inline]
    pub fn from_index(idx: usize) -> Self {
        Var(idx as u32)
    }

    /// The dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `2 * var + (1 - sign)` so that a literal and its negation
/// differ only in the lowest bit. `sign == true` means the positive
/// (non-negated) literal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// Build a literal from a variable and a polarity (`true` = positive).
    #[inline]
    pub fn new(var: Var, sign: bool) -> Self {
        Lit(var.0 << 1 | (!sign as u32))
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if this is the positive literal of its variable.
    #[inline]
    pub fn sign(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense code usable as an index into literal-indexed tables
    /// (watch lists, occurrence lists).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign() {
            write!(f, "v{}", self.var().0)
        } else {
            write!(f, "!v{}", self.var().0)
        }
    }
}

/// Three-valued truth assignment used during search.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    True,
    False,
    #[default]
    Undef,
}

impl LBool {
    /// Truth value of a literal given the truth value of its variable.
    #[inline]
    pub fn of_lit(self, lit: Lit) -> LBool {
        match (self, lit.sign()) {
            (LBool::Undef, _) => LBool::Undef,
            (LBool::True, true) | (LBool::False, false) => LBool::True,
            _ => LBool::False,
        }
    }

    /// Convert from a Boolean.
    #[inline]
    pub fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// `true` iff this is [`LBool::True`].
    #[inline]
    pub fn is_true(self) -> bool {
        self == LBool::True
    }

    /// `true` iff this is [`LBool::False`].
    #[inline]
    pub fn is_false(self) -> bool {
        self == LBool::False
    }

    /// `true` iff this is [`LBool::Undef`].
    #[inline]
    pub fn is_undef(self) -> bool {
        self == LBool::Undef
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lit_roundtrip_var_sign() {
        let v = Var::from_index(7);
        let p = Lit::new(v, true);
        let n = Lit::new(v, false);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.sign());
        assert!(!n.sign());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_ne!(p.code(), n.code());
    }

    #[test]
    fn lit_negation_is_involution() {
        for idx in 0..64 {
            for sign in [true, false] {
                let l = Lit::new(Var::from_index(idx), sign);
                assert_eq!(!!l, l);
            }
        }
    }

    #[test]
    fn var_positive_negative() {
        let v = Var::from_index(3);
        assert!(v.positive().sign());
        assert!(!v.negative().sign());
        assert_eq!(!v.positive(), v.negative());
    }

    #[test]
    fn lbool_of_lit() {
        let v = Var::from_index(0);
        assert_eq!(LBool::True.of_lit(v.positive()), LBool::True);
        assert_eq!(LBool::True.of_lit(v.negative()), LBool::False);
        assert_eq!(LBool::False.of_lit(v.positive()), LBool::False);
        assert_eq!(LBool::False.of_lit(v.negative()), LBool::True);
        assert_eq!(LBool::Undef.of_lit(v.positive()), LBool::Undef);
    }

    #[test]
    fn lit_code_roundtrip() {
        for code in 0..32 {
            assert_eq!(Lit::from_code(code).code(), code);
        }
    }
}
