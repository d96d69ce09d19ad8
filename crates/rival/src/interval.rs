//! Outward-rounded interval arithmetic over [`BigFloat`]s.
//!
//! An [`Interval`] is a closed interval `[lo, hi]` whose endpoints are big-floats
//! rounded *outward* (lo toward −∞, hi toward +∞), so the true real value of the
//! expression being evaluated is always contained. Domain errors (log of a
//! negative number, division by an interval straddling zero, …) are signalled
//! through [`IntervalError`] and eventually become NaN or "unsamplable" results in
//! the evaluator.
//!
//! Transcendental functions are evaluated on both endpoints at the working
//! precision and widened by a fixed slop (the functions in [`crate::functions`]
//! are accurate to a couple of ulps), which keeps enclosures rigorous for the
//! narrow intervals produced when evaluating at exact floating-point points.
//!
//! No operation repeats work on operands of the same representation: the
//! same variant, sign, exponent and mantissa, which the numerically equal −0
//! and +0 do not share. A function is evaluated once when an interval's
//! endpoints are one value, and a binary operation evaluates each distinct
//! corner once. `mul`, `div` and `sqrt` compute each corner's exact (or
//! sticky) result once and round it both ways. Each operation returns the
//! endpoints the per-endpoint formula does, representation for
//! representation.

use crate::bigfloat::{BigFloat, RoundMode};
use crate::functions as fun;
use std::cmp::Ordering;

/// Number of ulps (at the working precision) by which transcendental results are
/// widened to account for approximation error in [`crate::functions`].
const FUNCTION_SLOP_ULPS: i64 = 8;

/// Why an interval operation could not produce an enclosure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IntervalError {
    /// The true result is a NaN for every point of the input interval
    /// (e.g. sqrt of a definitely-negative interval).
    Domain,
    /// The result cannot be bounded (e.g. division by an interval containing zero,
    /// or the input may or may not be in the function's domain).
    Unbounded,
}

/// A closed interval with big-float endpoints.
#[derive(Clone, Debug)]
pub struct Interval {
    /// Lower endpoint (rounded toward −∞).
    pub lo: BigFloat,
    /// Upper endpoint (rounded toward +∞).
    pub hi: BigFloat,
}

impl PartialEq for Interval {
    fn eq(&self, other: &Self) -> bool {
        self.lo.partial_cmp(&other.lo) == Some(Ordering::Equal)
            && self.hi.partial_cmp(&other.hi) == Some(Ordering::Equal)
    }
}

/// A three-valued boolean resulting from comparing intervals.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BoolInterval {
    /// The predicate may be true for some point.
    pub can_be_true: bool,
    /// The predicate may be false for some point.
    pub can_be_false: bool,
}

impl BoolInterval {
    /// A definite boolean.
    pub fn certain(value: bool) -> BoolInterval {
        BoolInterval {
            can_be_true: value,
            can_be_false: !value,
        }
    }

    /// The completely unknown boolean.
    pub fn unknown() -> BoolInterval {
        BoolInterval {
            can_be_true: true,
            can_be_false: true,
        }
    }

    /// Returns the definite value if there is one.
    pub fn definite(&self) -> Option<bool> {
        match (self.can_be_true, self.can_be_false) {
            (true, false) => Some(true),
            (false, true) => Some(false),
            _ => None,
        }
    }

    /// Logical and.
    pub fn and(&self, other: &BoolInterval) -> BoolInterval {
        BoolInterval {
            can_be_true: self.can_be_true && other.can_be_true,
            can_be_false: self.can_be_false || other.can_be_false,
        }
    }

    /// Logical or.
    pub fn or(&self, other: &BoolInterval) -> BoolInterval {
        BoolInterval {
            can_be_true: self.can_be_true || other.can_be_true,
            can_be_false: self.can_be_false && other.can_be_false,
        }
    }

    /// Logical not.
    pub fn not(&self) -> BoolInterval {
        BoolInterval {
            can_be_true: self.can_be_false,
            can_be_false: self.can_be_true,
        }
    }
}

type IResult = Result<Interval, IntervalError>;

impl Interval {
    /// The point interval for an exact `f64`.
    pub fn point_f64(x: f64) -> Interval {
        Interval {
            lo: BigFloat::from_f64(x),
            hi: BigFloat::from_f64(x),
        }
    }

    /// The point interval for an exact big-float.
    pub fn point(x: BigFloat) -> Interval {
        Interval {
            lo: x.clone(),
            hi: x,
        }
    }

    /// An interval from two endpoints (they must already be ordered).
    pub fn new(lo: BigFloat, hi: BigFloat) -> Interval {
        Interval { lo, hi }
    }

    /// True if either endpoint is NaN.
    pub fn has_nan(&self) -> bool {
        self.lo.is_nan() || self.hi.is_nan()
    }

    /// True if the interval is a single point (lo == hi numerically).
    pub fn is_point(&self) -> bool {
        self.lo.partial_cmp(&self.hi) == Some(Ordering::Equal)
    }

    /// True if the interval definitely contains zero in its interior or boundary.
    pub fn contains_zero(&self) -> bool {
        let zero = BigFloat::zero();
        self.lo.partial_cmp(&zero) != Some(Ordering::Greater)
            && self.hi.partial_cmp(&zero) != Some(Ordering::Less)
    }

    /// True if every point of the interval is strictly negative.
    pub fn is_strictly_negative(&self) -> bool {
        self.hi.partial_cmp(&BigFloat::zero()) == Some(Ordering::Less)
    }

    /// True if every point of the interval is strictly positive.
    pub fn is_strictly_positive(&self) -> bool {
        self.lo.partial_cmp(&BigFloat::zero()) == Some(Ordering::Greater)
    }

    /// Widens both endpoints outward by `ulps` units in the last place at
    /// precision `prec` (relative to each endpoint's own magnitude).
    fn widen(&self, ulps: i64, prec: u32) -> Interval {
        Interval {
            lo: nudge(&self.lo, -ulps, prec),
            hi: nudge(&self.hi, ulps, prec),
        }
    }

    /// Negation.
    pub fn neg(&self) -> Interval {
        Interval {
            lo: self.hi.neg(),
            hi: self.lo.neg(),
        }
    }

    /// Absolute value.
    pub fn fabs(&self) -> Interval {
        if self.is_strictly_negative() {
            self.neg()
        } else if self.contains_zero() {
            let hi_mag = max_bf(&self.lo.abs(), &self.hi.abs());
            Interval {
                lo: BigFloat::zero(),
                hi: hi_mag,
            }
        } else {
            self.clone()
        }
    }

    /// Addition.
    pub fn add(&self, other: &Interval, prec: u32) -> IResult {
        check_nan(self, other)?;
        Ok(Interval {
            lo: BigFloat::add(&self.lo, &other.lo, prec, RoundMode::Floor),
            hi: BigFloat::add(&self.hi, &other.hi, prec, RoundMode::Ceil),
        })
    }

    /// Subtraction.
    pub fn sub(&self, other: &Interval, prec: u32) -> IResult {
        self.add(&other.neg(), prec)
    }

    /// Multiplication (considers all endpoint products).
    pub fn mul(&self, other: &Interval, prec: u32) -> IResult {
        check_nan(self, other)?;
        let exact = distinct_corners(self, other, BigFloat::mul_exact);
        // 0 * inf produces NaN; treat such products as unbounded.
        if exact.iter().any(BigFloat::is_nan) {
            return Err(IntervalError::Unbounded);
        }
        Ok(round_outward(&exact, prec))
    }

    /// Division. Division by an interval containing zero is unbounded.
    pub fn div(&self, other: &Interval, prec: u32) -> IResult {
        check_nan(self, other)?;
        if other.contains_zero() {
            // The quotient is unbounded unless the numerator is exactly zero too
            // (in which case the true value is NaN: 0/0) — either way we cannot
            // produce a finite enclosure, so report accordingly.
            if other.is_point() {
                return Err(IntervalError::Domain); // definite division by zero
            }
            return Err(IntervalError::Unbounded);
        }
        let sticky = distinct_corners(self, other, |a, b| BigFloat::div_sticky(a, b, prec));
        if sticky.iter().any(BigFloat::is_nan) {
            return Err(IntervalError::Unbounded);
        }
        Ok(round_outward(&sticky, prec))
    }

    /// Square root. Definitely-negative inputs are a domain error; intervals that
    /// merely straddle zero are clamped at zero (the negative part would be NaN,
    /// which the evaluator accounts for separately through domain tracking).
    pub fn sqrt(&self, prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        if self.is_strictly_negative() {
            return Err(IntervalError::Domain);
        }
        let hi = BigFloat::sqrt_sticky(&self.hi, prec);
        let lo = if self.lo.is_negative() {
            BigFloat::zero()
        } else if self.lo.same_representation(&self.hi) {
            hi.round_to(prec, RoundMode::Floor)
        } else {
            BigFloat::sqrt(&self.lo, prec, RoundMode::Floor)
        };
        Ok(Interval {
            lo,
            hi: hi.round_to(prec, RoundMode::Ceil),
        })
    }

    /// Applies a monotonically increasing function to both endpoints and widens.
    fn monotone_increasing(&self, f: impl Fn(&BigFloat, u32) -> BigFloat, prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        let (lo, hi) = self.at_endpoints(|x| f(x, prec));
        if lo.is_nan() || hi.is_nan() {
            return Err(IntervalError::Domain);
        }
        Ok(Interval { lo, hi }.widen(FUNCTION_SLOP_ULPS, prec))
    }

    /// `f` at the lower and at the upper endpoint, evaluated once when the
    /// endpoints have the same representation.
    fn at_endpoints(&self, f: impl Fn(&BigFloat) -> BigFloat) -> (BigFloat, BigFloat) {
        let lo = f(&self.lo);
        let hi = if self.lo.same_representation(&self.hi) {
            lo.clone()
        } else {
            f(&self.hi)
        };
        (lo, hi)
    }

    /// Exponential.
    pub fn exp(&self, prec: u32) -> IResult {
        self.monotone_increasing(fun::exp, prec)
    }

    /// exp(x) − 1.
    pub fn expm1(&self, prec: u32) -> IResult {
        self.monotone_increasing(fun::expm1, prec)
    }

    /// 2^x.
    pub fn exp2(&self, prec: u32) -> IResult {
        self.monotone_increasing(fun::exp2, prec)
    }

    /// Natural logarithm: requires a strictly positive interval.
    pub fn log(&self, prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        if self.is_strictly_negative() || self.is_strictly_positive() {
            if self.is_strictly_negative() {
                return Err(IntervalError::Domain);
            }
            return self.monotone_increasing(fun::log, prec);
        }
        // The interval touches zero or spans it: log is unbounded below or the
        // domain is ambiguous; signal accordingly.
        if self.hi.partial_cmp(&BigFloat::zero()) == Some(Ordering::Equal) && self.is_point() {
            return Err(IntervalError::Domain);
        }
        Err(IntervalError::Unbounded)
    }

    /// log(1+x): requires the interval to stay above −1.
    pub fn log1p(&self, prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        let minus_one = BigFloat::from_i64(-1);
        if self.hi.partial_cmp(&minus_one) == Some(Ordering::Less) {
            return Err(IntervalError::Domain);
        }
        if self.lo.partial_cmp(&minus_one) != Some(Ordering::Greater) {
            return Err(IntervalError::Unbounded);
        }
        self.monotone_increasing(fun::log1p, prec)
    }

    /// Base-2 logarithm.
    pub fn log2(&self, prec: u32) -> IResult {
        let natural = self.log(prec)?;
        let scale = Interval::point(fun::ln2(prec + 16));
        natural.div(&scale, prec)
    }

    /// Base-10 logarithm.
    pub fn log10(&self, prec: u32) -> IResult {
        let natural = self.log(prec)?;
        let scale = Interval::point(fun::ln10(prec + 16));
        natural.div(&scale, prec)
    }

    /// Cube root (odd, monotone increasing, defined everywhere).
    pub fn cbrt(&self, prec: u32) -> IResult {
        self.monotone_increasing(fun::cbrt, prec)
    }

    /// Sine. Wide intervals fall back to the trivial enclosure [−1, 1].
    pub fn sin(&self, prec: u32) -> IResult {
        self.trig(fun::sin, prec)
    }

    /// Cosine.
    pub fn cos(&self, prec: u32) -> IResult {
        self.trig(fun::cos, prec)
    }

    fn trig(&self, f: impl Fn(&BigFloat, u32) -> BigFloat, prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        if self.lo.is_infinite() || self.hi.is_infinite() {
            return Err(IntervalError::Domain);
        }
        let (lo_v, hi_v) = self.at_endpoints(|x| f(x, prec));
        if lo_v.is_nan() || hi_v.is_nan() {
            return Err(IntervalError::Unbounded);
        }
        // For narrow intervals (the common case: the inputs are exact points) the
        // endpoint values bracket the range up to the quadratic term, which the
        // widening slop absorbs. For wide intervals use the trivial enclosure.
        if !narrow(self, prec) {
            return Ok(Interval {
                lo: BigFloat::from_i64(-1),
                hi: BigFloat::from_i64(1),
            });
        }
        Ok(Interval {
            lo: min_bf(&lo_v, &hi_v),
            hi: max_bf(&lo_v, &hi_v),
        }
        .widen(FUNCTION_SLOP_ULPS, prec))
    }

    /// Tangent (via sin/cos).
    pub fn tan(&self, prec: u32) -> IResult {
        let s = self.sin(prec)?;
        let c = self.cos(prec)?;
        s.div(&c, prec)
    }

    /// Arctangent.
    pub fn atan(&self, prec: u32) -> IResult {
        self.monotone_increasing(fun::atan, prec)
    }

    /// Arcsine (domain [−1, 1]).
    pub fn asin(&self, prec: u32) -> IResult {
        self.inverse_trig_domain()?;
        self.monotone_increasing(fun::asin, prec)
    }

    /// Arccosine (domain [−1, 1], decreasing).
    pub fn acos(&self, prec: u32) -> IResult {
        self.inverse_trig_domain()?;
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        let (hi, lo) = self.at_endpoints(|x| fun::acos(x, prec));
        if lo.is_nan() || hi.is_nan() {
            return Err(IntervalError::Unbounded);
        }
        Ok(Interval { lo, hi }.widen(FUNCTION_SLOP_ULPS, prec))
    }

    fn inverse_trig_domain(&self) -> Result<(), IntervalError> {
        let one = BigFloat::from_i64(1);
        let minus_one = BigFloat::from_i64(-1);
        if self.lo.partial_cmp(&one) == Some(Ordering::Greater)
            || self.hi.partial_cmp(&minus_one) == Some(Ordering::Less)
        {
            return Err(IntervalError::Domain);
        }
        if self.lo.partial_cmp(&minus_one) == Some(Ordering::Less)
            || self.hi.partial_cmp(&one) == Some(Ordering::Greater)
        {
            return Err(IntervalError::Unbounded);
        }
        Ok(())
    }

    /// atan2(y, x) where `self` is y.
    pub fn atan2(&self, x: &Interval, prec: u32) -> IResult {
        check_nan(self, x)?;
        // Restrict to the common case where x does not straddle zero (otherwise
        // the angle range can wrap around ±π and we give up for this precision).
        if x.contains_zero() && !(self.is_strictly_positive() || self.is_strictly_negative()) {
            return Err(IntervalError::Unbounded);
        }
        let corners = distinct_corners(self, x, |y, x| fun::atan2(y, x, prec));
        if corners.iter().any(BigFloat::is_nan) {
            return Err(IntervalError::Unbounded);
        }
        Ok(Interval {
            lo: min_of(&corners),
            hi: max_of(&corners),
        }
        .widen(FUNCTION_SLOP_ULPS, prec))
    }

    /// Hyperbolic sine.
    pub fn sinh(&self, prec: u32) -> IResult {
        self.monotone_increasing(fun::sinh, prec)
    }

    /// Hyperbolic cosine (monotone on each side of zero).
    pub fn cosh(&self, prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        let (lo_v, hi_v) = self.at_endpoints(|x| fun::cosh(x, prec));
        if lo_v.is_nan() || hi_v.is_nan() {
            return Err(IntervalError::Domain);
        }
        let (lo, hi) = if self.contains_zero() {
            (BigFloat::from_i64(1), max_bf(&lo_v, &hi_v))
        } else {
            (min_bf(&lo_v, &hi_v), max_bf(&lo_v, &hi_v))
        };
        Ok(Interval { lo, hi }.widen(FUNCTION_SLOP_ULPS, prec))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, prec: u32) -> IResult {
        self.monotone_increasing(fun::tanh, prec)
    }

    /// Inverse hyperbolic sine.
    pub fn asinh(&self, prec: u32) -> IResult {
        self.monotone_increasing(fun::asinh, prec)
    }

    /// Inverse hyperbolic cosine (domain [1, ∞)).
    pub fn acosh(&self, prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        let one = BigFloat::from_i64(1);
        if self.hi.partial_cmp(&one) == Some(Ordering::Less) {
            return Err(IntervalError::Domain);
        }
        if self.lo.partial_cmp(&one) == Some(Ordering::Less) {
            return Err(IntervalError::Unbounded);
        }
        self.monotone_increasing(fun::acosh, prec)
    }

    /// Inverse hyperbolic tangent (domain (−1, 1)).
    pub fn atanh(&self, prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        let one = BigFloat::from_i64(1);
        let minus_one = BigFloat::from_i64(-1);
        if self.lo.partial_cmp(&one) == Some(Ordering::Greater)
            || self.hi.partial_cmp(&minus_one) == Some(Ordering::Less)
        {
            return Err(IntervalError::Domain);
        }
        if self.lo.partial_cmp(&minus_one) != Some(Ordering::Greater)
            || self.hi.partial_cmp(&one) != Some(Ordering::Less)
        {
            return Err(IntervalError::Unbounded);
        }
        self.monotone_increasing(fun::atanh, prec)
    }

    /// Power x^y where `self` is the base.
    pub fn pow(&self, y: &Interval, prec: u32) -> IResult {
        check_nan(self, y)?;
        // Positive base: monotone in well-understood ways; evaluate the corners.
        if self.is_strictly_positive() {
            let corners = distinct_corners(self, y, |x, y| fun::pow(x, y, prec));
            if corners.iter().any(BigFloat::is_nan) {
                return Err(IntervalError::Unbounded);
            }
            return Ok(Interval {
                lo: min_of(&corners),
                hi: max_of(&corners),
            }
            .widen(FUNCTION_SLOP_ULPS, prec));
        }
        // Exact point cases (negative base with integer exponent, zero base).
        if self.is_point() && y.is_point() {
            let v = fun::pow(&self.lo, &y.lo, prec);
            if v.is_nan() {
                return Err(IntervalError::Domain);
            }
            return Ok(Interval::point(v).widen(FUNCTION_SLOP_ULPS, prec));
        }
        Err(IntervalError::Unbounded)
    }

    /// Hypotenuse sqrt(x² + y²).
    pub fn hypot(&self, other: &Interval, prec: u32) -> IResult {
        let a = self.fabs();
        let b = other.fabs();
        let lo = fun::hypot(&a.lo, &b.lo, prec);
        let hi = if a.lo.same_representation(&a.hi) && b.lo.same_representation(&b.hi) {
            lo.clone()
        } else {
            fun::hypot(&a.hi, &b.hi, prec)
        };
        if lo.is_nan() || hi.is_nan() {
            return Err(IntervalError::Unbounded);
        }
        Ok(Interval { lo, hi }.widen(FUNCTION_SLOP_ULPS, prec))
    }

    /// Fused multiply-add.
    pub fn fma(&self, b: &Interval, c: &Interval, prec: u32) -> IResult {
        self.mul(b, prec)?.add(c, prec)
    }

    /// Floating-point remainder (point inputs only; wide inputs are unbounded).
    pub fn fmod(&self, other: &Interval, prec: u32) -> IResult {
        check_nan(self, other)?;
        if !(self.is_point() && other.is_point()) {
            // fmod is discontinuous; evaluating on wide intervals is not useful
            // for ground-truth computation.
            return Err(IntervalError::Unbounded);
        }
        let v = fun::fmod(&self.lo, &other.lo, prec);
        if v.is_nan() {
            return Err(IntervalError::Domain);
        }
        Ok(Interval::point(v).widen(FUNCTION_SLOP_ULPS, prec))
    }

    /// Positive difference `max(x - y, 0)`.
    pub fn fdim(&self, other: &Interval, prec: u32) -> IResult {
        let diff = self.sub(other, prec)?;
        Ok(Interval {
            lo: max_bf(&diff.lo, &BigFloat::zero()),
            hi: max_bf(&diff.hi, &BigFloat::zero()),
        })
    }

    /// Minimum.
    pub fn fmin(&self, other: &Interval, _prec: u32) -> IResult {
        check_nan(self, other)?;
        Ok(Interval {
            lo: min_bf(&self.lo, &other.lo),
            hi: min_bf(&self.hi, &other.hi),
        })
    }

    /// Maximum.
    pub fn fmax(&self, other: &Interval, _prec: u32) -> IResult {
        check_nan(self, other)?;
        Ok(Interval {
            lo: max_bf(&self.lo, &other.lo),
            hi: max_bf(&self.hi, &other.hi),
        })
    }

    /// Copysign(x, y): |x| with the sign of y (point-sign intervals only).
    pub fn copysign(&self, sign: &Interval, _prec: u32) -> IResult {
        check_nan(self, sign)?;
        let mag = self.fabs();
        if sign.is_strictly_negative() {
            Ok(mag.neg())
        } else if sign.is_strictly_positive() || (sign.is_point() && !sign.lo.is_negative()) {
            Ok(mag)
        } else {
            Err(IntervalError::Unbounded)
        }
    }

    /// Floor function.
    pub fn floor(&self, _prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        Ok(Interval {
            lo: self.lo.floor_int(),
            hi: self.hi.floor_int(),
        })
    }

    /// Ceiling function.
    pub fn ceil(&self, _prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        Ok(Interval {
            lo: self.lo.ceil_int(),
            hi: self.hi.ceil_int(),
        })
    }

    /// Round-to-nearest (ties away from zero).
    pub fn round(&self, _prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        Ok(Interval {
            lo: self.lo.round_int(),
            hi: self.hi.round_int(),
        })
    }

    /// Truncation toward zero.
    pub fn trunc(&self, _prec: u32) -> IResult {
        if self.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        Ok(Interval {
            lo: self.lo.trunc(),
            hi: self.hi.trunc(),
        })
    }

    /// Three-valued `self < other`.
    pub fn lt(&self, other: &Interval) -> BoolInterval {
        compare(self, other, |o| o == Ordering::Less)
    }

    /// Three-valued `self > other`.
    pub fn gt(&self, other: &Interval) -> BoolInterval {
        compare(self, other, |o| o == Ordering::Greater)
    }

    /// Three-valued `self <= other`.
    pub fn le(&self, other: &Interval) -> BoolInterval {
        compare(self, other, |o| o != Ordering::Greater)
    }

    /// Three-valued `self >= other`.
    pub fn ge(&self, other: &Interval) -> BoolInterval {
        compare(self, other, |o| o != Ordering::Less)
    }

    /// Three-valued equality.
    pub fn eq_interval(&self, other: &Interval) -> BoolInterval {
        if self.has_nan() || other.has_nan() {
            return BoolInterval::unknown();
        }
        let definitely_disjoint = self.hi.partial_cmp(&other.lo) == Some(Ordering::Less)
            || other.hi.partial_cmp(&self.lo) == Some(Ordering::Less);
        if definitely_disjoint {
            return BoolInterval::certain(false);
        }
        if self.is_point()
            && other.is_point()
            && self.lo.partial_cmp(&other.lo) == Some(Ordering::Equal)
        {
            return BoolInterval::certain(true);
        }
        BoolInterval::unknown()
    }
}

fn check_nan(a: &Interval, b: &Interval) -> Result<(), IntervalError> {
    if a.has_nan() || b.has_nan() {
        Err(IntervalError::Unbounded)
    } else {
        Ok(())
    }
}

fn compare(a: &Interval, b: &Interval, pred: impl Fn(Ordering) -> bool) -> BoolInterval {
    if a.has_nan() || b.has_nan() {
        return BoolInterval::unknown();
    }
    // Compare the extreme cases: (a.lo vs b.hi) is the most "a < b" friendly,
    // (a.hi vs b.lo) the least.
    let most = a.lo.partial_cmp(&b.hi);
    let least = a.hi.partial_cmp(&b.lo);
    match (most, least) {
        (Some(m), Some(l)) => BoolInterval {
            can_be_true: pred(m),
            can_be_false: !pred(l),
        },
        _ => BoolInterval::unknown(),
    }
}

fn narrow(x: &Interval, prec: u32) -> bool {
    // An interval is "narrow" when its width is far below 1 in absolute terms or
    // far below the magnitude of its endpoints; this is the regime produced by
    // evaluating at exact points.
    if x.is_point() {
        return true;
    }
    let width = BigFloat::sub(&x.hi, &x.lo, prec, RoundMode::Ceil);
    match (width.magnitude(), x.hi.magnitude().or(x.lo.magnitude())) {
        (None, _) => true,
        (Some(w), Some(m)) => w < m - 20 || w < -20,
        (Some(w), None) => w < -20,
    }
}

fn nudge(x: &BigFloat, ulps: i64, prec: u32) -> BigFloat {
    if ulps == 0 || x.is_nan() || x.is_infinite() {
        return x.clone();
    }
    let mag = x.magnitude().unwrap_or(-(prec as i64));
    let step = crate::functions::mul_pow2(&BigFloat::from_i64(ulps), mag - prec as i64);
    let mode = if ulps > 0 {
        RoundMode::Ceil
    } else {
        RoundMode::Floor
    };
    BigFloat::add(x, &step, prec + 8, mode)
}

fn min_bf(a: &BigFloat, b: &BigFloat) -> BigFloat {
    match a.partial_cmp(b) {
        Some(Ordering::Greater) => b.clone(),
        _ => a.clone(),
    }
}

fn max_bf(a: &BigFloat, b: &BigFloat) -> BigFloat {
    match a.partial_cmp(b) {
        Some(Ordering::Less) => b.clone(),
        _ => a.clone(),
    }
}

/// `f` at each distinct corner of `a × b`, in the order (lo, lo), (lo, hi),
/// (hi, lo), (hi, hi). When an interval's endpoints have the same
/// representation, the corners through its upper endpoint repeat earlier
/// ones and are left out. A left-out corner never changes [`min_of`] or
/// [`max_of`]: each returns the first extreme element in order, and a repeat
/// comes after the identical corner it repeats.
fn distinct_corners(
    a: &Interval,
    b: &Interval,
    f: impl Fn(&BigFloat, &BigFloat) -> BigFloat,
) -> Vec<BigFloat> {
    let endpoints = |x: &Interval| {
        if x.lo.same_representation(&x.hi) {
            1
        } else {
            2
        }
    };
    let (xs, ys) = ([&a.lo, &a.hi], [&b.lo, &b.hi]);
    let (nx, ny) = (endpoints(a), endpoints(b));
    let mut out = Vec::with_capacity(nx * ny);
    for x in &xs[..nx] {
        for y in &ys[..ny] {
            out.push(f(x, y));
        }
    }
    out
}

/// The outward-rounded hull of unrounded corner values: the least corner
/// rounded down and the greatest rounded up, at `prec` bits.
fn round_outward(corners: &[BigFloat], prec: u32) -> Interval {
    let round =
        |mode| -> Vec<BigFloat> { corners.iter().map(|c| c.round_to(prec, mode)).collect() };
    Interval {
        lo: min_of(&round(RoundMode::Floor)),
        hi: max_of(&round(RoundMode::Ceil)),
    }
}

fn min_of(xs: &[BigFloat]) -> BigFloat {
    xs.iter()
        .skip(1)
        .fold(xs[0].clone(), |acc, x| min_bf(&acc, x))
}

fn max_of(xs: &[BigFloat]) -> BigFloat {
    xs.iter()
        .skip(1)
        .fold(xs[0].clone(), |acc, x| max_bf(&acc, x))
}

/// The per-endpoint formulas the corner and endpoint reuse replaced: every
/// corner and endpoint computed on its own, through the public rounded
/// `BigFloat` operations. The reuse must return what these return,
/// representation for representation.
#[cfg(test)]
mod per_endpoint {
    use super::*;

    fn rounded_corners(
        a: &Interval,
        b: &Interval,
        op: fn(&BigFloat, &BigFloat, u32, RoundMode) -> BigFloat,
        prec: u32,
    ) -> IResult {
        let at = |mode| {
            [
                op(&a.lo, &b.lo, prec, mode),
                op(&a.lo, &b.hi, prec, mode),
                op(&a.hi, &b.lo, prec, mode),
                op(&a.hi, &b.hi, prec, mode),
            ]
        };
        let (lo, hi) = (at(RoundMode::Floor), at(RoundMode::Ceil));
        if lo.iter().any(BigFloat::is_nan) || hi.iter().any(BigFloat::is_nan) {
            return Err(IntervalError::Unbounded);
        }
        Ok(Interval {
            lo: min_of(&lo),
            hi: max_of(&hi),
        })
    }

    pub(super) fn mul(a: &Interval, b: &Interval, prec: u32) -> IResult {
        check_nan(a, b)?;
        rounded_corners(a, b, BigFloat::mul, prec)
    }

    pub(super) fn div(a: &Interval, b: &Interval, prec: u32) -> IResult {
        check_nan(a, b)?;
        if b.contains_zero() {
            if b.is_point() {
                return Err(IntervalError::Domain);
            }
            return Err(IntervalError::Unbounded);
        }
        rounded_corners(a, b, BigFloat::div, prec)
    }

    pub(super) fn sqrt(x: &Interval, prec: u32) -> IResult {
        if x.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        if x.is_strictly_negative() {
            return Err(IntervalError::Domain);
        }
        let lo = if x.lo.is_negative() {
            BigFloat::zero()
        } else {
            BigFloat::sqrt(&x.lo, prec, RoundMode::Floor)
        };
        Ok(Interval {
            lo,
            hi: BigFloat::sqrt(&x.hi, prec, RoundMode::Ceil),
        })
    }

    fn monotone(x: &Interval, f: fn(&BigFloat, u32) -> BigFloat, prec: u32) -> IResult {
        if x.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        let lo = f(&x.lo, prec);
        let hi = f(&x.hi, prec);
        if lo.is_nan() || hi.is_nan() {
            return Err(IntervalError::Domain);
        }
        Ok(Interval { lo, hi }.widen(FUNCTION_SLOP_ULPS, prec))
    }

    fn log(x: &Interval, prec: u32) -> IResult {
        if x.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        if x.is_strictly_negative() {
            return Err(IntervalError::Domain);
        }
        if x.is_strictly_positive() {
            return monotone(x, fun::log, prec);
        }
        if x.hi.partial_cmp(&BigFloat::zero()) == Some(Ordering::Equal) && x.is_point() {
            return Err(IntervalError::Domain);
        }
        Err(IntervalError::Unbounded)
    }

    fn trig(x: &Interval, f: fn(&BigFloat, u32) -> BigFloat, prec: u32) -> IResult {
        if x.has_nan() {
            return Err(IntervalError::Unbounded);
        }
        if x.lo.is_infinite() || x.hi.is_infinite() {
            return Err(IntervalError::Domain);
        }
        let lo_v = f(&x.lo, prec);
        let hi_v = f(&x.hi, prec);
        if lo_v.is_nan() || hi_v.is_nan() {
            return Err(IntervalError::Unbounded);
        }
        if !narrow(x, prec) {
            return Ok(Interval {
                lo: BigFloat::from_i64(-1),
                hi: BigFloat::from_i64(1),
            });
        }
        Ok(Interval {
            lo: min_bf(&lo_v, &hi_v),
            hi: max_bf(&lo_v, &hi_v),
        }
        .widen(FUNCTION_SLOP_ULPS, prec))
    }

    /// Every one-argument operation whose endpoints are reused, by name.
    pub(super) fn unary(name: &str, x: &Interval, prec: u32) -> IResult {
        let one = BigFloat::from_i64(1);
        let minus_one = BigFloat::from_i64(-1);
        match name {
            "sqrt" => sqrt(x, prec),
            "exp" => monotone(x, fun::exp, prec),
            "expm1" => monotone(x, fun::expm1, prec),
            "exp2" => monotone(x, fun::exp2, prec),
            "log" => log(x, prec),
            "log2" => div(&log(x, prec)?, &Interval::point(fun::ln2(prec + 16)), prec),
            "log10" => div(&log(x, prec)?, &Interval::point(fun::ln10(prec + 16)), prec),
            "log1p" => {
                if x.has_nan() {
                    return Err(IntervalError::Unbounded);
                }
                if x.hi.partial_cmp(&minus_one) == Some(Ordering::Less) {
                    return Err(IntervalError::Domain);
                }
                if x.lo.partial_cmp(&minus_one) != Some(Ordering::Greater) {
                    return Err(IntervalError::Unbounded);
                }
                monotone(x, fun::log1p, prec)
            }
            "cbrt" => monotone(x, fun::cbrt, prec),
            "sin" => trig(x, fun::sin, prec),
            "cos" => trig(x, fun::cos, prec),
            "tan" => div(&trig(x, fun::sin, prec)?, &trig(x, fun::cos, prec)?, prec),
            "atan" => monotone(x, fun::atan, prec),
            "asin" => {
                x.inverse_trig_domain()?;
                monotone(x, fun::asin, prec)
            }
            "acos" => {
                x.inverse_trig_domain()?;
                if x.has_nan() {
                    return Err(IntervalError::Unbounded);
                }
                let lo = fun::acos(&x.hi, prec);
                let hi = fun::acos(&x.lo, prec);
                if lo.is_nan() || hi.is_nan() {
                    return Err(IntervalError::Unbounded);
                }
                Ok(Interval { lo, hi }.widen(FUNCTION_SLOP_ULPS, prec))
            }
            "sinh" => monotone(x, fun::sinh, prec),
            "cosh" => {
                if x.has_nan() {
                    return Err(IntervalError::Unbounded);
                }
                let lo_v = fun::cosh(&x.lo, prec);
                let hi_v = fun::cosh(&x.hi, prec);
                if lo_v.is_nan() || hi_v.is_nan() {
                    return Err(IntervalError::Domain);
                }
                let (lo, hi) = if x.contains_zero() {
                    (BigFloat::from_i64(1), max_bf(&lo_v, &hi_v))
                } else {
                    (min_bf(&lo_v, &hi_v), max_bf(&lo_v, &hi_v))
                };
                Ok(Interval { lo, hi }.widen(FUNCTION_SLOP_ULPS, prec))
            }
            "tanh" => monotone(x, fun::tanh, prec),
            "asinh" => monotone(x, fun::asinh, prec),
            "acosh" => {
                if x.has_nan() {
                    return Err(IntervalError::Unbounded);
                }
                if x.hi.partial_cmp(&one) == Some(Ordering::Less) {
                    return Err(IntervalError::Domain);
                }
                if x.lo.partial_cmp(&one) == Some(Ordering::Less) {
                    return Err(IntervalError::Unbounded);
                }
                monotone(x, fun::acosh, prec)
            }
            "atanh" => {
                if x.has_nan() {
                    return Err(IntervalError::Unbounded);
                }
                if x.lo.partial_cmp(&one) == Some(Ordering::Greater)
                    || x.hi.partial_cmp(&minus_one) == Some(Ordering::Less)
                {
                    return Err(IntervalError::Domain);
                }
                if x.lo.partial_cmp(&minus_one) != Some(Ordering::Greater)
                    || x.hi.partial_cmp(&one) != Some(Ordering::Less)
                {
                    return Err(IntervalError::Unbounded);
                }
                monotone(x, fun::atanh, prec)
            }
            _ => unreachable!("no unary operation {name}"),
        }
    }

    /// Every two-argument operation whose corners are reused, by name.
    pub(super) fn binary(name: &str, a: &Interval, b: &Interval, prec: u32) -> IResult {
        let corners = |f: fn(&BigFloat, &BigFloat, u32) -> BigFloat| {
            let c = [
                f(&a.lo, &b.lo, prec),
                f(&a.lo, &b.hi, prec),
                f(&a.hi, &b.lo, prec),
                f(&a.hi, &b.hi, prec),
            ];
            if c.iter().any(BigFloat::is_nan) {
                return Err(IntervalError::Unbounded);
            }
            Ok(Interval {
                lo: min_of(&c),
                hi: max_of(&c),
            }
            .widen(FUNCTION_SLOP_ULPS, prec))
        };
        match name {
            "mul" => mul(a, b, prec),
            "div" => div(a, b, prec),
            "pow" => {
                check_nan(a, b)?;
                if a.is_strictly_positive() {
                    return corners(fun::pow);
                }
                if a.is_point() && b.is_point() {
                    let v = fun::pow(&a.lo, &b.lo, prec);
                    if v.is_nan() {
                        return Err(IntervalError::Domain);
                    }
                    return Ok(Interval::point(v).widen(FUNCTION_SLOP_ULPS, prec));
                }
                Err(IntervalError::Unbounded)
            }
            "atan2" => {
                check_nan(a, b)?;
                if b.contains_zero() && !(a.is_strictly_positive() || a.is_strictly_negative()) {
                    return Err(IntervalError::Unbounded);
                }
                corners(fun::atan2)
            }
            "hypot" => {
                let (x, y) = (a.fabs(), b.fabs());
                let lo = fun::hypot(&x.lo, &y.lo, prec);
                let hi = fun::hypot(&x.hi, &y.hi, prec);
                if lo.is_nan() || hi.is_nan() {
                    return Err(IntervalError::Unbounded);
                }
                Ok(Interval { lo, hi }.widen(FUNCTION_SLOP_ULPS, prec))
            }
            _ => unreachable!("no binary operation {name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u32 = 96;

    fn pt(x: f64) -> Interval {
        Interval::point_f64(x)
    }

    fn contains(iv: &Interval, x: f64) -> bool {
        // `x` comes from the host libm, which may itself be a few ulps off; expand
        // the check by a small budget so we only catch genuine enclosure bugs.
        let lo = iv.lo.to_f64(RoundMode::Floor);
        let hi = iv.hi.to_f64(RoundMode::Ceil);
        let slack = 4.0 * (hi.abs().max(lo.abs()).max(1e-300) * f64::EPSILON);
        lo - slack <= x && x <= hi + slack
    }

    /// The operation under its public name.
    fn unary(name: &str, x: &Interval, prec: u32) -> IResult {
        match name {
            "sqrt" => x.sqrt(prec),
            "exp" => x.exp(prec),
            "expm1" => x.expm1(prec),
            "exp2" => x.exp2(prec),
            "log" => x.log(prec),
            "log2" => x.log2(prec),
            "log10" => x.log10(prec),
            "log1p" => x.log1p(prec),
            "cbrt" => x.cbrt(prec),
            "sin" => x.sin(prec),
            "cos" => x.cos(prec),
            "tan" => x.tan(prec),
            "atan" => x.atan(prec),
            "asin" => x.asin(prec),
            "acos" => x.acos(prec),
            "sinh" => x.sinh(prec),
            "cosh" => x.cosh(prec),
            "tanh" => x.tanh(prec),
            "asinh" => x.asinh(prec),
            "acosh" => x.acosh(prec),
            "atanh" => x.atanh(prec),
            _ => unreachable!("no unary operation {name}"),
        }
    }

    fn binary(name: &str, a: &Interval, b: &Interval, prec: u32) -> IResult {
        match name {
            "mul" => a.mul(b, prec),
            "div" => a.div(b, prec),
            "pow" => a.pow(b, prec),
            "atan2" => a.atan2(b, prec),
            "hypot" => a.hypot(b, prec),
            _ => unreachable!("no binary operation {name}"),
        }
    }

    const UNARY: &[&str] = &[
        "sqrt", "exp", "expm1", "exp2", "log", "log2", "log10", "log1p", "cbrt", "sin", "cos",
        "tan", "atan", "asin", "acos", "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
    ];
    const BINARY: &[&str] = &["mul", "div", "pow", "atan2", "hypot"];

    fn same(got: &IResult, want: &IResult) -> bool {
        match (got, want) {
            (Ok(g), Ok(w)) => g.lo.same_representation(&w.lo) && g.hi.same_representation(&w.hi),
            (Err(g), Err(w)) => g == w,
            _ => false,
        }
    }

    /// SplitMix64, for seeded endpoints.
    struct Seeded(u64);

    impl Seeded {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// An endpoint: a special value, a double of moderate magnitude, one
        /// wider than any rung (an exact product of two doubles), or a double
        /// written with a non-normalized mantissa.
        fn endpoint(&mut self) -> BigFloat {
            let double = |r: &mut Seeded| {
                let mant = (r.next() >> 11) as f64 / (1u64 << 53) as f64 + 0.5;
                let exp = r.below(40) as i32 - 20;
                let sign = if r.below(3) == 0 { -1.0 } else { 1.0 };
                BigFloat::from_f64(sign * mant * 2f64.powi(exp))
            };
            match self.below(12) {
                0 => BigFloat::Zero {
                    negative: self.below(2) == 0,
                },
                1 => BigFloat::infinity(self.below(2) == 0),
                2 => BigFloat::nan(),
                3 => BigFloat::from_i64(self.below(5) as i64 - 2),
                4 => BigFloat::mul_exact(&double(self), &double(self)),
                5 => match double(self) {
                    BigFloat::Finite {
                        negative,
                        exp,
                        mant,
                    } => BigFloat::Finite {
                        negative,
                        exp: exp - 3,
                        mant: mant.shl(3),
                    },
                    other => other,
                },
                _ => double(self),
            }
        }

        /// A point (one endpoint twice), a pair in numeric order, or a pair
        /// as drawn.
        fn interval(&mut self) -> Interval {
            let a = self.endpoint();
            match self.below(3) {
                0 => Interval::point(a),
                1 => {
                    let b = self.endpoint();
                    if a.partial_cmp(&b) == Some(Ordering::Greater) {
                        Interval::new(b, a)
                    } else {
                        Interval::new(a, b)
                    }
                }
                _ => Interval::new(a, self.endpoint()),
            }
        }
    }

    #[test]
    fn reused_corners_and_endpoints_match_the_per_endpoint_formulas() {
        let zero = |negative| BigFloat::Zero { negative };
        // Each signed zero, both mixed-sign zero intervals, one value in two
        // representations, and the specials, against a few fixed partners.
        let mut fixed = vec![
            Interval::new(zero(true), zero(false)),
            Interval::new(zero(false), zero(true)),
            Interval::point(zero(true)),
            Interval::point(zero(false)),
            Interval::new(
                BigFloat::from_i64(2),
                crate::functions::mul_pow2(&BigFloat::from_i64(1), 1),
            ),
            Interval::point(BigFloat::infinity(false)),
            Interval::new(BigFloat::infinity(true), BigFloat::from_f64(0.5)),
            Interval::point(BigFloat::nan()),
        ];
        fixed.extend([-2.5, -0.75, 0.5, 3.0].map(pt));
        let mut rng = Seeded(0x0c0f_fee5_eed5);
        let mut intervals = fixed.clone();
        intervals.extend((0..120).map(|_| rng.interval()));
        let mut pairs: Vec<(Interval, Interval)> = fixed
            .iter()
            .flat_map(|a| fixed.iter().map(move |b| (a.clone(), b.clone())))
            .collect();
        pairs.extend((0..120).map(|_| (rng.interval(), rng.interval())));
        let mut checked = 0;
        for prec in [96, 192, 384] {
            for x in &intervals {
                for name in UNARY {
                    let (got, want) = (unary(name, x, prec), per_endpoint::unary(name, x, prec));
                    assert!(
                        same(&got, &want),
                        "{name}({x:?}) at {prec}: {got:?} != {want:?}"
                    );
                    checked += 1;
                }
            }
            for (a, b) in &pairs {
                for name in BINARY {
                    let (got, want) = (
                        binary(name, a, b, prec),
                        per_endpoint::binary(name, a, b, prec),
                    );
                    assert!(
                        same(&got, &want),
                        "{name}({a:?}, {b:?}) at {prec}: {got:?} != {want:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 10_000, "{checked} cases");
    }

    #[test]
    fn arithmetic_encloses_true_values() {
        let third = pt(1.0).div(&pt(3.0), P).unwrap();
        assert!(contains(&third, 1.0 / 3.0));
        assert!(!third.is_point());
        let sum = pt(0.1).add(&pt(0.2), P).unwrap();
        assert!(contains(&sum, 0.1 + 0.2));
        let prod = pt(-3.0).mul(&pt(7.0), P).unwrap();
        assert!(contains(&prod, -21.0));
        let diff = pt(1e16).sub(&pt(1.0), P).unwrap();
        assert!(contains(&diff, 1e16 - 1.0));
    }

    #[test]
    fn division_by_zero_interval() {
        assert_eq!(pt(1.0).div(&pt(0.0), P), Err(IntervalError::Domain));
        let straddling = Interval::new(BigFloat::from_f64(-1.0), BigFloat::from_f64(1.0));
        assert_eq!(pt(1.0).div(&straddling, P), Err(IntervalError::Unbounded));
    }

    #[test]
    fn sqrt_and_log_domains() {
        assert!(pt(4.0).sqrt(P).is_ok());
        assert_eq!(pt(-4.0).sqrt(P), Err(IntervalError::Domain));
        assert_eq!(pt(-1.0).log(P), Err(IntervalError::Domain));
        assert!(pt(2.0).log(P).is_ok());
        assert_eq!(pt(-3.0).log1p(P), Err(IntervalError::Domain));
    }

    #[test]
    fn transcendental_enclosures() {
        for x in [-2.5, -0.1, 0.0, 0.7, 3.0, 50.0] {
            assert!(contains(&pt(x).exp(P).unwrap(), x.exp()), "exp({x})");
            assert!(contains(&pt(x).sin(P).unwrap(), x.sin()), "sin({x})");
            assert!(contains(&pt(x).cos(P).unwrap(), x.cos()), "cos({x})");
            assert!(contains(&pt(x).atan(P).unwrap(), x.atan()), "atan({x})");
            assert!(contains(&pt(x).sinh(P).unwrap(), x.sinh()), "sinh({x})");
            assert!(contains(&pt(x).tanh(P).unwrap(), x.tanh()), "tanh({x})");
            assert!(contains(&pt(x).cbrt(P).unwrap(), x.cbrt()), "cbrt({x})");
        }
        for x in [0.001, 1.0, 42.0] {
            assert!(contains(&pt(x).log(P).unwrap(), x.ln()), "log({x})");
        }
    }

    #[test]
    fn interval_widths_are_tight() {
        // The enclosure of exp(1) should be only a few ulps wide at 96 bits,
        // so converting both ends to f64 gives the same number.
        let e = pt(1.0).exp(P).unwrap();
        assert_eq!(
            e.lo.to_f64(RoundMode::Nearest),
            e.hi.to_f64(RoundMode::Nearest),
            "enclosure should collapse to one double"
        );
    }

    #[test]
    fn wide_trig_falls_back_to_unit_interval() {
        let wide = Interval::new(BigFloat::from_f64(0.0), BigFloat::from_f64(100.0));
        let s = wide.sin(P).unwrap();
        assert_eq!(s.lo.to_f64(RoundMode::Floor), -1.0);
        assert_eq!(s.hi.to_f64(RoundMode::Ceil), 1.0);
    }

    #[test]
    fn comparisons_are_three_valued() {
        assert_eq!(pt(1.0).lt(&pt(2.0)).definite(), Some(true));
        assert_eq!(pt(2.0).lt(&pt(1.0)).definite(), Some(false));
        let around_zero = Interval::new(BigFloat::from_f64(-1e-30), BigFloat::from_f64(1e-30));
        assert_eq!(around_zero.lt(&pt(0.0)).definite(), None);
        assert_eq!(pt(3.0).eq_interval(&pt(3.0)).definite(), Some(true));
        assert_eq!(pt(3.0).eq_interval(&pt(4.0)).definite(), Some(false));
    }

    #[test]
    fn bool_interval_logic() {
        let t = BoolInterval::certain(true);
        let f = BoolInterval::certain(false);
        let u = BoolInterval::unknown();
        assert_eq!(t.and(&f).definite(), Some(false));
        assert_eq!(t.or(&f).definite(), Some(true));
        assert_eq!(t.and(&u).definite(), None);
        assert_eq!(f.and(&u).definite(), Some(false));
        assert_eq!(t.not().definite(), Some(false));
    }

    #[test]
    fn min_max_abs_and_rounding() {
        assert!(contains(&pt(-3.0).fabs(), 3.0));
        assert!(contains(&pt(2.5).fmin(&pt(1.5), P).unwrap(), 1.5));
        assert!(contains(&pt(2.5).fmax(&pt(1.5), P).unwrap(), 2.5));
        assert!(contains(&pt(2.7).floor(P).unwrap(), 2.0));
        assert!(contains(&pt(2.2).ceil(P).unwrap(), 3.0));
        assert!(contains(&pt(-2.5).round(P).unwrap(), -3.0));
        assert!(contains(&pt(-2.7).trunc(P).unwrap(), -2.0));
        assert!(contains(&pt(5.0).fdim(&pt(3.0), P).unwrap(), 2.0));
        assert!(contains(&pt(3.0).fdim(&pt(5.0), P).unwrap(), 0.0));
        assert!(contains(&pt(3.0).copysign(&pt(-1.0), P).unwrap(), -3.0));
    }

    #[test]
    fn power_and_hypot() {
        assert!(contains(&pt(2.0).pow(&pt(10.0), P).unwrap(), 1024.0));
        assert!(contains(&pt(-2.0).pow(&pt(3.0), P).unwrap(), -8.0));
        assert_eq!(pt(-2.0).pow(&pt(0.5), P), Err(IntervalError::Domain));
        assert!(contains(&pt(3.0).hypot(&pt(4.0), P).unwrap(), 5.0));
        assert!(contains(&pt(7.5).fmod(&pt(2.0), P).unwrap(), 1.5));
        assert!(contains(&pt(2.0).fma(&pt(3.0), &pt(1.0), P).unwrap(), 7.0));
    }
}
