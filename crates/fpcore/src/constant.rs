//! Numeric and boolean literal constants.

use crate::rational::Rational;
use std::fmt;

/// A literal constant appearing in an FPCore expression.
///
/// Numeric literals are kept exact as [`Rational`]s; the mathematical constants
/// `PI` and `E` are kept symbolic so the ground-truth evaluator can compute them
/// to whatever precision it needs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Constant {
    /// An exact rational literal such as `1`, `-2.5`, or `1e-3`.
    Rational(Rational),
    /// The circle constant, π.
    Pi,
    /// Euler's number, e.
    E,
    /// Positive infinity.
    Infinity,
    /// Negative infinity.
    NegInfinity,
    /// Not-a-number.
    Nan,
    /// Boolean truth values (used in preconditions).
    Bool(bool),
}

impl Constant {
    /// An integer constant.
    pub fn integer(n: i128) -> Constant {
        Constant::Rational(Rational::integer(n))
    }

    /// Parses a constant token (`PI`, `E`, `INFINITY`, `NAN`, `TRUE`, `FALSE`,
    /// or a numeric literal).
    pub fn parse(token: &str) -> Option<Constant> {
        match token {
            "PI" => Some(Constant::Pi),
            "E" => Some(Constant::E),
            "INFINITY" => Some(Constant::Infinity),
            "NAN" => Some(Constant::Nan),
            "TRUE" => Some(Constant::Bool(true)),
            "FALSE" => Some(Constant::Bool(false)),
            _ => Rational::parse(token).map(Constant::Rational),
        }
    }

    /// Approximate `f64` value (for quick evaluation and sampling hints).
    pub fn to_f64(&self) -> f64 {
        match self {
            Constant::Rational(r) => r.to_f64(),
            Constant::Pi => std::f64::consts::PI,
            Constant::E => std::f64::consts::E,
            Constant::Infinity => f64::INFINITY,
            Constant::NegInfinity => f64::NEG_INFINITY,
            Constant::Nan => f64::NAN,
            Constant::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// True if this is the exact integer `n`.
    pub fn is_integer(&self, n: i128) -> bool {
        matches!(self, Constant::Rational(r) if *r == Rational::integer(n))
    }
}

// Constants participate in hash-consing inside the e-graph, so they need `Eq`
// and `Hash`. NaN never equals itself under `PartialEq` for floats, but our
// representation is symbolic, so structural equality is well-defined.
impl Eq for Constant {}

impl std::hash::Hash for Constant {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Constant::Rational(r) => {
                0u8.hash(state);
                r.hash(state);
            }
            Constant::Pi => 1u8.hash(state),
            Constant::E => 2u8.hash(state),
            Constant::Infinity => 3u8.hash(state),
            Constant::NegInfinity => 4u8.hash(state),
            Constant::Nan => 5u8.hash(state),
            Constant::Bool(b) => {
                6u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl Constant {
    fn order_key(&self) -> (u8, Rational, bool) {
        match self {
            Constant::Rational(r) => (0, *r, false),
            Constant::Pi => (1, Rational::zero(), false),
            Constant::E => (2, Rational::zero(), false),
            Constant::Infinity => (3, Rational::zero(), false),
            Constant::NegInfinity => (4, Rational::zero(), false),
            Constant::Nan => (5, Rational::zero(), false),
            Constant::Bool(b) => (6, Rational::zero(), *b),
        }
    }
}

// A total order is needed so constants can live inside e-nodes (which are sorted
// and deduplicated); the particular order is arbitrary but consistent with `Eq`.
impl PartialOrd for Constant {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Constant {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Rational(r) => write!(f, "{r}"),
            Constant::Pi => write!(f, "PI"),
            Constant::E => write!(f, "E"),
            Constant::Infinity => write!(f, "INFINITY"),
            Constant::NegInfinity => write!(f, "(- INFINITY)"),
            Constant::Nan => write!(f, "NAN"),
            Constant::Bool(true) => write!(f, "TRUE"),
            Constant::Bool(false) => write!(f, "FALSE"),
        }
    }
}

impl From<i128> for Constant {
    fn from(n: i128) -> Constant {
        Constant::integer(n)
    }
}

impl From<Rational> for Constant {
    fn from(r: Rational) -> Constant {
        Constant::Rational(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_named_constants() {
        assert_eq!(Constant::parse("PI"), Some(Constant::Pi));
        assert_eq!(Constant::parse("E"), Some(Constant::E));
        assert_eq!(Constant::parse("INFINITY"), Some(Constant::Infinity));
        assert_eq!(Constant::parse("NAN"), Some(Constant::Nan));
        assert_eq!(Constant::parse("TRUE"), Some(Constant::Bool(true)));
        assert_eq!(Constant::parse("nope"), None);
    }

    #[test]
    fn parse_numeric() {
        assert_eq!(Constant::parse("42"), Some(Constant::integer(42)));
        assert_eq!(
            Constant::parse("-0.5"),
            Some(Constant::Rational(Rational::new(-1, 2)))
        );
    }

    #[test]
    fn f64_values() {
        assert_eq!(Constant::Pi.to_f64(), std::f64::consts::PI);
        assert!(Constant::Nan.to_f64().is_nan());
        assert_eq!(Constant::integer(3).to_f64(), 3.0);
    }

    #[test]
    fn integer_check() {
        assert!(Constant::integer(1).is_integer(1));
        assert!(!Constant::integer(2).is_integer(1));
        assert!(!Constant::Pi.is_integer(1));
    }

    #[test]
    fn display() {
        assert_eq!(Constant::integer(2).to_string(), "2");
        assert_eq!(Constant::Pi.to_string(), "PI");
        assert_eq!(Constant::Bool(false).to_string(), "FALSE");
    }
}
