//! Exact rational arithmetic for FPCore numeric literals.
//!
//! FPCore literals such as `1.5`, `1e-3` or `4/3` denote exact real numbers. Chassis
//! keeps literals exact (rather than rounding them to `f64` at parse time) so that
//! ground-truth evaluation and constant folding do not silently lose accuracy.
//!
//! The representation is `num / den` with `num: i128`, `den: u128`, always reduced
//! and with `den > 0`. Overflowing operations saturate by rounding through `f64`;
//! the magnitudes appearing in benchmark literals are far below that point.

use std::cmp::Ordering;
use std::fmt;

/// An exact rational number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rational {
    num: i128,
    den: u128,
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

impl Rational {
    /// Creates a reduced rational. `den` must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: u128) -> Rational {
        assert!(den != 0, "rational denominator must be non-zero");
        let g = gcd(num.unsigned_abs(), den);
        Rational {
            num: num / g as i128,
            den: den / g,
        }
    }

    /// The integer `n`.
    pub fn integer(n: i128) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// Zero.
    pub fn zero() -> Rational {
        Rational::integer(0)
    }

    /// One.
    pub fn one() -> Rational {
        Rational::integer(1)
    }

    /// Numerator (signed).
    pub fn numerator(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denominator(&self) -> u128 {
        self.den
    }

    /// True if the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// True if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True if the value is negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// An `f64` near the value: `num as f64 / den as f64`.
    ///
    /// Correctly rounded when |num| and den are both at most 2^53 (the
    /// division is then the only rounding). Above that, each part is rounded
    /// before the division too: three roundings, each within 2^-53 relative,
    /// so the result can be about 3 ulps from the value rather than within
    /// one.
    /// That is acceptable for display and for sampling hints; ground-truth
    /// evaluation converts rationals through the big-float layer instead.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact conversion from a finite `f64`.
    ///
    /// Returns `None` for NaN or infinities.
    pub fn from_f64(x: f64) -> Option<Rational> {
        if !x.is_finite() {
            return None;
        }
        if x == 0.0 {
            return Some(Rational::zero());
        }
        let bits = x.to_bits();
        let sign = if bits >> 63 == 1 { -1i128 } else { 1i128 };
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mant, e) = if exp == 0 {
            (frac as i128, -1074i64)
        } else {
            ((frac | (1 << 52)) as i128, exp - 1075)
        };
        let mant = sign * mant;
        if e >= 0 {
            if e > 70 {
                // Magnitude too large for exact i128 representation; fall back to an
                // integer approximation (only reachable for astronomically large
                // literals, which the corpus does not contain).
                return Some(Rational::integer(x as i128));
            }
            Some(Rational::integer(mant << e))
        } else {
            let shift = (-e) as u32;
            if shift >= 127 {
                // Subnormal-range values: represent with the largest expressible
                // denominator; the error is below 2^-126.
                return Some(Rational::new(mant, 1u128 << 126));
            }
            Some(Rational::new(mant, 1u128 << shift))
        }
    }

    fn checked_add(&self, other: &Rational) -> Option<Rational> {
        let den = self.den.checked_mul(other.den)?;
        let a = self.num.checked_mul(other.den as i128)?;
        let b = other.num.checked_mul(self.den as i128)?;
        Some(Rational::new(a.checked_add(b)?, den))
    }

    fn checked_mul(&self, other: &Rational) -> Option<Rational> {
        let den = self.den.checked_mul(other.den)?;
        let num = self.num.checked_mul(other.num)?;
        Some(Rational::new(num, den))
    }

    /// Sum, falling back to an `f64` round trip on overflow.
    pub fn add(&self, other: &Rational) -> Rational {
        self.checked_add(other)
            .or_else(|| Rational::from_f64(self.to_f64() + other.to_f64()))
            .unwrap_or_else(Rational::zero)
    }

    /// Product, falling back to an `f64` round trip on overflow.
    pub fn mul(&self, other: &Rational) -> Rational {
        self.checked_mul(other)
            .or_else(|| Rational::from_f64(self.to_f64() * other.to_f64()))
            .unwrap_or_else(Rational::zero)
    }

    /// Negation.
    pub fn neg(&self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }

    /// Multiplicative inverse. Returns `None` for zero.
    pub fn recip(&self) -> Option<Rational> {
        if self.num == 0 {
            None
        } else {
            let sign = if self.num < 0 { -1 } else { 1 };
            Some(Rational::new(
                sign * self.den as i128,
                self.num.unsigned_abs(),
            ))
        }
    }

    /// Parses a decimal or rational literal: `3`, `-2.5`, `1e-3`, `1.5e+2`, `4/3`.
    pub fn parse(text: &str) -> Option<Rational> {
        let text = text.trim();
        if let Some((n, d)) = text.split_once('/') {
            let num: i128 = n.parse().ok()?;
            let den: u128 = d.parse().ok()?;
            if den == 0 {
                return None;
            }
            return Some(Rational::new(num, den));
        }
        let (mantissa, exp10) = match text.split_once(['e', 'E']) {
            Some((m, e)) => (m, e.parse::<i32>().ok()?),
            None => (text, 0),
        };
        let negative = mantissa.starts_with('-');
        let mantissa = mantissa.trim_start_matches(['+', '-']);
        let (int_part, frac_part) = match mantissa.split_once('.') {
            Some((i, f)) => (i, f),
            None => (mantissa, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return None;
        }
        let digits: String = format!("{int_part}{frac_part}");
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut num: i128 = digits.parse().ok()?;
        if negative {
            num = -num;
        }
        let exp = exp10 - frac_part.len() as i32;
        let mut value = Rational::integer(num);
        if exp > 0 {
            for _ in 0..exp {
                value = value.mul(&Rational::integer(10));
            }
        } else {
            for _ in 0..(-exp) {
                value = value.mul(&Rational::new(1, 10));
            }
        }
        Some(value)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b and c/d via a*d vs c*b when that cannot overflow, otherwise
        // through f64 (sufficient for ordering heuristics).
        let lhs = self.num.checked_mul(other.den as i128);
        let rhs = other.num.checked_mul(self.den as i128);
        match (lhs, rhs) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .unwrap_or(Ordering::Equal),
        }
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
    fn parses_integers_and_decimals() {
        assert_eq!(Rational::parse("3"), Some(Rational::integer(3)));
        assert_eq!(Rational::parse("-2.5"), Some(Rational::new(-5, 2)));
        assert_eq!(Rational::parse("0.125"), Some(Rational::new(1, 8)));
        assert_eq!(Rational::parse("1e-3"), Some(Rational::new(1, 1000)));
        assert_eq!(Rational::parse("1.5e2"), Some(Rational::integer(150)));
        assert_eq!(Rational::parse("4/3"), Some(Rational::new(4, 3)));
        assert_eq!(Rational::parse("abc"), None);
        assert_eq!(Rational::parse("1/0"), None);
    }

    #[test]
    fn reduction_and_equality() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-6, 3), Rational::integer(-2));
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a.add(&b), Rational::new(5, 6));
        assert_eq!(a.mul(&b), Rational::new(1, 6));
        assert_eq!(a.neg(), Rational::new(-1, 2));
        assert_eq!(a.recip(), Some(Rational::integer(2)));
        assert_eq!(Rational::zero().recip(), None);
    }

    #[test]
    fn f64_round_trip_exact_values() {
        for x in [0.0, 1.0, -1.5, 0.1, 3.25e10, -7.625e-3, 2.0_f64.powi(-60)] {
            let r = Rational::from_f64(x).unwrap();
            assert_eq!(r.to_f64(), x, "round trip failed for {x}");
        }
        assert!(Rational::from_f64(f64::NAN).is_none());
        assert!(Rational::from_f64(f64::INFINITY).is_none());
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::integer(-1) < Rational::zero());
        assert_eq!(
            Rational::new(2, 6).cmp(&Rational::new(1, 3)),
            Ordering::Equal
        );
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 4).to_string(), "3/4");
        assert_eq!(Rational::integer(7).to_string(), "7");
    }
}
