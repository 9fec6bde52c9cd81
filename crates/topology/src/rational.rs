//! A small exact rational type.
//!
//! Bandwidth costs in the (α, β) model are ratios `R/C` of rounds to chunks
//! (§3.6 of the paper); comparing them exactly avoids floating-point ties
//! when ordering candidate algorithms along the Pareto frontier.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul};

/// An exact non-negative rational number `num / den` (always normalized,
/// `den > 0`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rational {
    num: u64,
    den: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Rational {
    /// Create `num / den`. Panics if `den == 0`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "rational with zero denominator");
        if num == 0 {
            return Rational { num: 0, den: 1 };
        }
        let g = gcd(num, den);
        Rational {
            num: num / g,
            den: den / g,
        }
    }

    /// The integer `n`.
    pub fn from_integer(n: u64) -> Self {
        Rational { num: n, den: 1 }
    }

    pub fn zero() -> Self {
        Rational { num: 0, den: 1 }
    }

    pub fn numerator(&self) -> u64 {
        self.num
    }

    pub fn denominator(&self) -> u64 {
        self.den
    }

    /// Value as an `f64` (for plotting / cost-model arithmetic).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Smallest integer ≥ this rational.
    pub fn ceil(&self) -> u64 {
        self.num.div_ceil(self.den)
    }

    /// Largest integer ≤ this rational.
    pub fn floor(&self) -> u64 {
        self.num / self.den
    }

    /// The maximum of two rationals.
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Cross-multiply in u128 to avoid overflow.
        let lhs = self.num as u128 * other.den as u128;
        let rhs = other.num as u128 * self.den as u128;
        lhs.cmp(&rhs)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, other: Rational) -> Rational {
        Rational::new(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, other: Rational) -> Rational {
        Rational::new(self.num * other.num, self.den * other.den)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(14, 12), Rational::new(7, 6));
        assert_eq!(Rational::new(0, 5), Rational::zero());
        assert_eq!(Rational::new(8, 4), Rational::from_integer(2));
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(7, 6) > Rational::from_integer(1));
        assert!(Rational::new(7, 6) < Rational::new(6, 5));
        assert_eq!(
            Rational::new(3, 2).max(Rational::new(7, 6)),
            Rational::new(3, 2)
        );
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            Rational::new(1, 2) + Rational::new(1, 3),
            Rational::new(5, 6)
        );
        assert_eq!(
            Rational::new(2, 3) * Rational::new(3, 4),
            Rational::new(1, 2)
        );
    }

    #[test]
    fn rounding() {
        assert_eq!(Rational::new(7, 6).ceil(), 2);
        assert_eq!(Rational::new(7, 6).floor(), 1);
        assert_eq!(Rational::from_integer(3).ceil(), 3);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(7, 6).to_string(), "7/6");
        assert_eq!(Rational::from_integer(4).to_string(), "4");
    }

    #[test]
    fn to_f64() {
        assert!((Rational::new(7, 6).to_f64() - 1.1666).abs() < 1e-3);
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }
}
