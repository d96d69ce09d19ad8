//! Arbitrary-precision binary floating-point numbers with directed rounding.
//!
//! A [`BigFloat`] represents `(-1)^sign * mant * 2^exp` with an arbitrary-precision
//! integer mantissa, plus the usual special values (signed zero, infinities, NaN).
//! All arithmetic takes an explicit target precision (in bits) and a [`RoundMode`],
//! which is what the interval layer needs to compute rigorous enclosures.
//!
//! The exponent range is `i64`, far wider than any IEEE format, so overflow and
//! underflow only appear when converting back to `f64`/`f32`.

use crate::bigint::BigUint;
use std::cmp::Ordering;

/// IEEE-style rounding directions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoundMode {
    /// Round to nearest, ties to even.
    Nearest,
    /// Round toward negative infinity.
    Floor,
    /// Round toward positive infinity.
    Ceil,
    /// Round toward zero.
    Zero,
}

impl RoundMode {
    /// The opposite direction (used when negating interval endpoints).
    pub fn flip(self) -> RoundMode {
        match self {
            RoundMode::Floor => RoundMode::Ceil,
            RoundMode::Ceil => RoundMode::Floor,
            other => other,
        }
    }
}

/// An arbitrary-precision binary floating-point number.
#[derive(Clone, Debug)]
pub enum BigFloat {
    /// A non-zero finite value `(-1)^negative * mant * 2^exp` with `mant != 0`.
    Finite {
        /// Sign bit.
        negative: bool,
        /// Power-of-two scale applied to the integer mantissa.
        exp: i64,
        /// The integer mantissa (non-zero).
        mant: BigUint,
    },
    /// Signed zero.
    Zero {
        /// Sign bit.
        negative: bool,
    },
    /// Signed infinity.
    Inf {
        /// Sign bit.
        negative: bool,
    },
    /// Not a number.
    NaN,
}

/// Rounds `mant` after dropping its low `drop` bits, in the given direction.
fn round_drop(mant: &BigUint, drop: u64, negative: bool, mode: RoundMode) -> BigUint {
    if drop == 0 {
        return mant.clone();
    }
    let kept = mant.shr(drop);
    let increment = match mode {
        RoundMode::Zero => false,
        RoundMode::Floor => negative && mant.any_bit_below(drop),
        RoundMode::Ceil => !negative && mant.any_bit_below(drop),
        RoundMode::Nearest => {
            let half = mant.bit(drop - 1);
            if !half {
                false
            } else if mant.any_bit_below(drop - 1) {
                true
            } else {
                // Ties to even.
                kept.bit(0)
            }
        }
    };
    if increment {
        kept.add_u64(1)
    } else {
        kept
    }
}

/// Computes 2^e as an `f64`, exactly for every representable power (including
/// subnormals); returns infinity / zero outside the representable range.
pub fn pow2_f64(e: i64) -> f64 {
    if e >= 1024 {
        f64::INFINITY
    } else if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e >= -1074 {
        f64::from_bits(1u64 << (e + 1074))
    } else {
        0.0
    }
}

impl BigFloat {
    /// Positive zero.
    pub fn zero() -> BigFloat {
        BigFloat::Zero { negative: false }
    }

    /// Not-a-number.
    pub fn nan() -> BigFloat {
        BigFloat::NaN
    }

    /// Signed infinity.
    pub fn infinity(negative: bool) -> BigFloat {
        BigFloat::Inf { negative }
    }

    /// An exact integer value.
    pub fn from_i64(x: i64) -> BigFloat {
        if x == 0 {
            return BigFloat::zero();
        }
        BigFloat::Finite {
            negative: x < 0,
            exp: 0,
            mant: BigUint::from_u128(x.unsigned_abs() as u128),
        }
    }

    /// Exact conversion from an `f64`.
    pub fn from_f64(x: f64) -> BigFloat {
        if x.is_nan() {
            return BigFloat::NaN;
        }
        if x.is_infinite() {
            return BigFloat::Inf {
                negative: x.is_sign_negative(),
            };
        }
        if x == 0.0 {
            return BigFloat::Zero {
                negative: x.is_sign_negative(),
            };
        }
        let bits = x.to_bits();
        let negative = bits >> 63 == 1;
        let biased = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mant, exp) = if biased == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), biased - 1075)
        };
        BigFloat::Finite {
            negative,
            exp,
            mant: BigUint::from_u64(mant),
        }
    }

    /// Converts a rational to a big-float rounded at `prec` bits.
    pub fn from_rational(num: i128, den: u128, prec: u32, mode: RoundMode) -> BigFloat {
        let negative = num < 0;
        let n = BigFloat::Finite {
            negative,
            exp: 0,
            mant: BigUint::from_u128(num.unsigned_abs()),
        };
        let n = if num == 0 { BigFloat::zero() } else { n };
        let d = BigFloat::Finite {
            negative: false,
            exp: 0,
            mant: BigUint::from_u128(den),
        };
        BigFloat::div(&n, &d, prec, mode)
    }

    /// True for NaN.
    pub fn is_nan(&self) -> bool {
        matches!(self, BigFloat::NaN)
    }

    /// True for ±∞.
    pub fn is_infinite(&self) -> bool {
        matches!(self, BigFloat::Inf { .. })
    }

    /// True for ±0.
    pub fn is_zero(&self) -> bool {
        matches!(self, BigFloat::Zero { .. })
    }

    /// True if the value is negative (negative zero counts as negative).
    pub fn is_negative(&self) -> bool {
        match self {
            BigFloat::Finite { negative, .. }
            | BigFloat::Zero { negative }
            | BigFloat::Inf { negative } => *negative,
            BigFloat::NaN => false,
        }
    }

    /// True if both have the same representation: variant, sign, exponent
    /// and mantissa. This is not numeric equality: `-0` and `+0` differ, and
    /// so do `2·2^0` and `1·2^1`. An operation given operands of the same
    /// representation returns a result of the same representation.
    pub(crate) fn same_representation(&self, other: &BigFloat) -> bool {
        use BigFloat::*;
        match (self, other) {
            (
                Finite {
                    negative: na,
                    exp: ea,
                    mant: ma,
                },
                Finite {
                    negative: nb,
                    exp: eb,
                    mant: mb,
                },
            ) => na == nb && ea == eb && ma == mb,
            (Zero { negative: a }, Zero { negative: b })
            | (Inf { negative: a }, Inf { negative: b }) => a == b,
            (NaN, NaN) => true,
            _ => false,
        }
    }

    /// Exponent of the most significant bit (`floor(log2 |x|)`), or `None` for
    /// zero, infinity and NaN.
    pub fn magnitude(&self) -> Option<i64> {
        match self {
            BigFloat::Finite { exp, mant, .. } => Some(exp + mant.bit_length() as i64 - 1),
            _ => None,
        }
    }

    /// Rounds to `prec` significant bits.
    pub fn round_to(&self, prec: u32, mode: RoundMode) -> BigFloat {
        match self {
            BigFloat::Finite {
                negative,
                exp,
                mant,
            } => {
                let len = mant.bit_length();
                if len <= prec as u64 {
                    return self.clone();
                }
                let drop = len - prec as u64;
                let rounded = round_drop(mant, drop, *negative, mode);
                if rounded.is_zero() {
                    return BigFloat::Zero {
                        negative: *negative,
                    };
                }
                BigFloat::Finite {
                    negative: *negative,
                    exp: exp + drop as i64,
                    mant: rounded,
                }
            }
            other => other.clone(),
        }
    }

    /// Negation.
    pub fn neg(&self) -> BigFloat {
        match self {
            BigFloat::Finite {
                negative,
                exp,
                mant,
            } => BigFloat::Finite {
                negative: !negative,
                exp: *exp,
                mant: mant.clone(),
            },
            BigFloat::Zero { negative } => BigFloat::Zero {
                negative: !negative,
            },
            BigFloat::Inf { negative } => BigFloat::Inf {
                negative: !negative,
            },
            BigFloat::NaN => BigFloat::NaN,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigFloat {
        if self.is_negative() {
            self.neg()
        } else {
            self.clone()
        }
    }

    /// Numeric comparison; `None` if either operand is NaN.
    pub fn partial_cmp(&self, other: &BigFloat) -> Option<Ordering> {
        use BigFloat::*;
        match (self, other) {
            (NaN, _) | (_, NaN) => None,
            (Zero { .. }, Zero { .. }) => Some(Ordering::Equal),
            (Inf { negative: a }, Inf { negative: b }) => match (a, b) {
                (true, true) | (false, false) => Some(Ordering::Equal),
                (true, false) => Some(Ordering::Less),
                (false, true) => Some(Ordering::Greater),
            },
            (Inf { negative }, _) => Some(if *negative {
                Ordering::Less
            } else {
                Ordering::Greater
            }),
            (_, Inf { negative }) => Some(if *negative {
                Ordering::Greater
            } else {
                Ordering::Less
            }),
            (Zero { .. }, Finite { negative, .. }) => Some(if *negative {
                Ordering::Greater
            } else {
                Ordering::Less
            }),
            (Finite { negative, .. }, Zero { .. }) => Some(if *negative {
                Ordering::Less
            } else {
                Ordering::Greater
            }),
            (
                Finite {
                    negative: na,
                    exp: ea,
                    mant: ma,
                },
                Finite {
                    negative: nb,
                    exp: eb,
                    mant: mb,
                },
            ) => {
                if na != nb {
                    return Some(if *na {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    });
                }
                let mag_a = ea + ma.bit_length() as i64;
                let mag_b = eb + mb.bit_length() as i64;
                let mag_ord = if mag_a != mag_b {
                    mag_a.cmp(&mag_b)
                } else {
                    // Same magnitude: align and compare mantissas.
                    let min_exp = (*ea).min(*eb);
                    let shift_a = (ea - min_exp) as u64;
                    let shift_b = (eb - min_exp) as u64;
                    ma.shl(shift_a).cmp_mag(&mb.shl(shift_b))
                };
                Some(if *na { mag_ord.reverse() } else { mag_ord })
            }
        }
    }

    /// Addition rounded to `prec` bits.
    pub fn add(a: &BigFloat, b: &BigFloat, prec: u32, mode: RoundMode) -> BigFloat {
        use BigFloat::*;
        match (a, b) {
            (NaN, _) | (_, NaN) => NaN,
            (Inf { negative: na }, Inf { negative: nb }) => {
                if na == nb {
                    Inf { negative: *na }
                } else {
                    NaN
                }
            }
            (Inf { negative }, _) | (_, Inf { negative }) => Inf {
                negative: *negative,
            },
            (Zero { negative: na }, Zero { negative: nb }) => Zero {
                negative: *na && *nb,
            },
            (Zero { .. }, x) | (x, Zero { .. }) => x.round_to(prec, mode),
            (
                Finite {
                    negative: na,
                    exp: ea,
                    mant: ma,
                },
                Finite {
                    negative: nb,
                    exp: eb,
                    mant: mb,
                },
            ) => {
                // Work with (sign, exp, mant) pairs; make `hi` the operand with the
                // larger exponent.
                let (hn, he, hm, ln, le, lm) = if ea >= eb {
                    (*na, *ea, ma, *nb, *eb, mb)
                } else {
                    (*nb, *eb, mb, *na, *ea, ma)
                };
                let mut gap = (he - le) as u64;
                let (lm_eff, le_eff);
                // The low operand can be replaced by a sticky bit only when it sits
                // entirely below the rounding point of the result, even after the
                // worst-case cancellation (one leading bit of the high operand).
                let cap = prec as u64 + hm.bit_length() + lm.bit_length() + 8;
                if gap > cap {
                    // The low operand only matters as a sticky bit: replace it with
                    // the smallest value that preserves its sign and direction.
                    gap = cap;
                    lm_eff = BigUint::one();
                    le_eff = he - gap as i64;
                } else {
                    lm_eff = lm.clone();
                    le_eff = le;
                }
                let hm_shifted = hm.shl(gap);
                let (negative, mant) = if hn == ln {
                    (hn, hm_shifted.add(&lm_eff))
                } else {
                    match hm_shifted.cmp_mag(&lm_eff) {
                        Ordering::Equal => {
                            return Zero {
                                negative: mode == RoundMode::Floor,
                            }
                        }
                        Ordering::Greater => (hn, hm_shifted.sub(&lm_eff)),
                        Ordering::Less => (ln, lm_eff.sub(&hm_shifted)),
                    }
                };
                if mant.is_zero() {
                    return Zero {
                        negative: mode == RoundMode::Floor,
                    };
                }
                Finite {
                    negative,
                    exp: le_eff,
                    mant,
                }
                .round_to(prec, mode)
            }
        }
    }

    /// Subtraction rounded to `prec` bits.
    pub fn sub(a: &BigFloat, b: &BigFloat, prec: u32, mode: RoundMode) -> BigFloat {
        BigFloat::add(a, &b.neg(), prec, mode)
    }

    /// Multiplication rounded to `prec` bits: the exact product, rounded
    /// once.
    pub fn mul(a: &BigFloat, b: &BigFloat, prec: u32, mode: RoundMode) -> BigFloat {
        BigFloat::mul_exact(a, b).round_to(prec, mode)
    }

    /// The exact product. Rounding it to `prec` bits in any mode gives
    /// [`BigFloat::mul`] in that mode, so one product serves both directions.
    pub(crate) fn mul_exact(a: &BigFloat, b: &BigFloat) -> BigFloat {
        use BigFloat::*;
        match (a, b) {
            (NaN, _) | (_, NaN) | (Inf { .. }, Zero { .. }) | (Zero { .. }, Inf { .. }) => NaN,
            (Inf { negative: na }, Inf { negative: nb })
            | (Inf { negative: na }, Finite { negative: nb, .. })
            | (Finite { negative: na, .. }, Inf { negative: nb }) => Inf { negative: na != nb },
            (Zero { negative: na }, Zero { negative: nb })
            | (Zero { negative: na }, Finite { negative: nb, .. })
            | (Finite { negative: na, .. }, Zero { negative: nb }) => Zero { negative: na != nb },
            (
                Finite {
                    negative: na,
                    exp: ea,
                    mant: ma,
                },
                Finite {
                    negative: nb,
                    exp: eb,
                    mant: mb,
                },
            ) => Finite {
                negative: na != nb,
                exp: ea + eb,
                mant: ma.mul(mb),
            },
        }
    }

    /// Division rounded to `prec` bits: a quotient carried to `prec + 2`
    /// bits and a sticky bit, rounded once.
    pub fn div(a: &BigFloat, b: &BigFloat, prec: u32, mode: RoundMode) -> BigFloat {
        BigFloat::div_sticky(a, b, prec).round_to(prec, mode)
    }

    /// The quotient to at least `prec + 2` bits, with one extra low bit set
    /// when the division is inexact. That sticky bit sits below every bit a
    /// rounding to `prec` bits reads, so rounding the result to `prec` bits
    /// in any mode gives [`BigFloat::div`] in that mode.
    pub(crate) fn div_sticky(a: &BigFloat, b: &BigFloat, prec: u32) -> BigFloat {
        use BigFloat::*;
        match (a, b) {
            (NaN, _) | (_, NaN) | (Inf { .. }, Inf { .. }) | (Zero { .. }, Zero { .. }) => NaN,
            (Inf { negative: na }, Zero { negative: nb })
            | (Inf { negative: na }, Finite { negative: nb, .. })
            | (Finite { negative: na, .. }, Zero { negative: nb }) => Inf { negative: na != nb },
            (Zero { negative: na }, Inf { negative: nb })
            | (Zero { negative: na }, Finite { negative: nb, .. })
            | (Finite { negative: na, .. }, Inf { negative: nb }) => Zero { negative: na != nb },
            (
                Finite {
                    negative: na,
                    exp: ea,
                    mant: ma,
                },
                Finite {
                    negative: nb,
                    exp: eb,
                    mant: mb,
                },
            ) => {
                let negative = na != nb;
                // Scale the dividend so the quotient carries at least prec+2 bits.
                let la = ma.bit_length() as i64;
                let lb = mb.bit_length() as i64;
                let shift = (prec as i64 + 2 + lb - la).max(0) as u64;
                let (q, r) = ma.shl(shift).div_rem(mb);
                let mut exp = ea - shift as i64 - eb;
                let mant = if r.is_zero() {
                    q
                } else {
                    // Encode stickiness as one extra low guard bit.
                    exp -= 1;
                    q.shl(1).add_u64(1)
                };
                if mant.is_zero() {
                    return Zero { negative };
                }
                Finite {
                    negative,
                    exp,
                    mant,
                }
            }
        }
    }

    /// Square root rounded to `prec` bits: a root carried to `prec + 2` bits
    /// and a sticky bit, rounded once. Negative inputs give NaN; `±0` gives
    /// itself.
    pub fn sqrt(a: &BigFloat, prec: u32, mode: RoundMode) -> BigFloat {
        BigFloat::sqrt_sticky(a, prec).round_to(prec, mode)
    }

    /// The square root to at least `prec + 2` bits, with one extra low bit
    /// set when it is inexact, so that rounding it to `prec` bits in any
    /// mode gives [`BigFloat::sqrt`] in that mode (as for
    /// [`BigFloat::div_sticky`]).
    pub(crate) fn sqrt_sticky(a: &BigFloat, prec: u32) -> BigFloat {
        use BigFloat::*;
        match a {
            NaN | Inf { negative: true } | Finite { negative: true, .. } => NaN,
            Zero { negative } => Zero {
                negative: *negative,
            },
            Inf { negative: false } => Inf { negative: false },
            Finite { exp, mant, .. } => {
                // Make the exponent even and the mantissa wide enough that the
                // integer square root carries at least prec+2 bits.
                let mut exp = *exp;
                let mut mant = mant.clone();
                if exp % 2 != 0 {
                    mant = mant.shl(1);
                    exp -= 1;
                }
                let needed = 2 * (prec as u64 + 2);
                let len = mant.bit_length();
                let mut extra = needed.saturating_sub(len);
                if extra % 2 != 0 {
                    extra += 1;
                }
                mant = mant.shl(extra);
                exp -= extra as i64;
                let root = mant.isqrt();
                let exact = root.mul(&root) == mant;
                let mut out_exp = exp / 2;
                let out_mant = if exact {
                    root
                } else {
                    out_exp -= 1;
                    root.shl(1).add_u64(1)
                };
                Finite {
                    negative: false,
                    exp: out_exp,
                    mant: out_mant,
                }
            }
        }
    }

    /// Converts to `f64`, rounding in the given direction (handles overflow to
    /// infinity and subnormal/underflow behaviour).
    pub fn to_f64(&self, mode: RoundMode) -> f64 {
        match self {
            BigFloat::NaN => f64::NAN,
            BigFloat::Inf { negative } => {
                if *negative {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            BigFloat::Zero { negative } => {
                if *negative {
                    -0.0
                } else {
                    0.0
                }
            }
            BigFloat::Finite {
                negative,
                exp,
                mant,
            } => {
                let e_top = exp + mant.bit_length() as i64 - 1;
                if e_top > 1100 {
                    // Far beyond the representable range.
                    return match (mode, negative) {
                        (RoundMode::Floor, false) | (RoundMode::Zero, false) => f64::MAX,
                        (RoundMode::Ceil, true) | (RoundMode::Zero, true) => f64::MIN,
                        (_, false) => f64::INFINITY,
                        (_, true) => f64::NEG_INFINITY,
                    };
                }
                if e_top < -1200 {
                    // Far below the subnormal range.
                    return match (mode, negative) {
                        (RoundMode::Ceil, false) => f64::from_bits(1),
                        (RoundMode::Floor, true) => -f64::from_bits(1),
                        (_, true) => -0.0,
                        (_, false) => 0.0,
                    };
                }
                let ulp_exp = (e_top - 52).max(-1074);
                let shift = ulp_exp - exp;
                let int_mant = if shift <= 0 {
                    mant.shl((-shift) as u64)
                } else {
                    round_drop(mant, shift as u64, *negative, mode)
                };
                // int_mant now has at most ~54 bits; convert exactly.
                let m = if int_mant.bit_length() <= 64 {
                    int_mant.to_u64_lossy() as f64
                } else {
                    // Rounding overflowed into an extra bit beyond 64 (cannot
                    // happen for sane inputs, but stay safe).
                    f64::INFINITY
                };
                let value = m * pow2_f64(ulp_exp);
                let signed = if *negative { -value } else { value };
                if signed.is_infinite() {
                    // Overflow at the boundary: respect the rounding direction.
                    return match (mode, negative) {
                        (RoundMode::Floor, false) | (RoundMode::Zero, false) => f64::MAX,
                        (RoundMode::Ceil, true) | (RoundMode::Zero, true) => f64::MIN,
                        _ => signed,
                    };
                }
                signed
            }
        }
    }

    /// Converts to `f32` by first rounding to `f64` in the same direction.
    pub fn to_f32(&self, mode: RoundMode) -> f32 {
        // A single rounding through f64 is safe here because f64 has more than
        // twice the precision of f32 ("double rounding" can only matter when the
        // intermediate precision is less than 2p+2 bits).
        let d = self.to_f64(mode);
        let direct = d as f32;
        match mode {
            RoundMode::Nearest => direct,
            RoundMode::Floor => {
                if (direct as f64) > d {
                    next_down_f32(direct)
                } else {
                    direct
                }
            }
            RoundMode::Ceil => {
                if (direct as f64) < d {
                    next_up_f32(direct)
                } else {
                    direct
                }
            }
            RoundMode::Zero => {
                if d > 0.0 && (direct as f64) > d {
                    next_down_f32(direct)
                } else if d < 0.0 && (direct as f64) < d {
                    next_up_f32(direct)
                } else {
                    direct
                }
            }
        }
    }

    /// The integer part (truncation toward zero), exactly.
    pub fn trunc(&self) -> BigFloat {
        match self {
            BigFloat::Finite {
                negative,
                exp,
                mant,
            } => {
                if *exp >= 0 {
                    return self.clone();
                }
                let drop = (-exp) as u64;
                let kept = mant.shr(drop);
                if kept.is_zero() {
                    BigFloat::Zero {
                        negative: *negative,
                    }
                } else {
                    BigFloat::Finite {
                        negative: *negative,
                        exp: 0,
                        mant: kept,
                    }
                }
            }
            other => other.clone(),
        }
    }

    /// Floor (largest integer not above the value), exactly.
    pub fn floor_int(&self) -> BigFloat {
        let t = self.trunc();
        if self.is_negative() && self.partial_cmp(&t) == Some(Ordering::Less) {
            BigFloat::sub(&t, &BigFloat::from_i64(1), 1 << 20, RoundMode::Nearest)
        } else {
            t
        }
    }

    /// Ceiling (smallest integer not below the value), exactly.
    pub fn ceil_int(&self) -> BigFloat {
        let t = self.trunc();
        if !self.is_negative() && self.partial_cmp(&t) == Some(Ordering::Greater) {
            BigFloat::add(&t, &BigFloat::from_i64(1), 1 << 20, RoundMode::Nearest)
        } else {
            t
        }
    }

    /// Rounds to the nearest integer, halfway cases away from zero (C `round`).
    pub fn round_int(&self) -> BigFloat {
        let half = BigFloat::from_rational(1, 2, 8, RoundMode::Nearest);
        if self.is_negative() {
            BigFloat::sub(self, &half, 1 << 20, RoundMode::Nearest).ceil_int()
        } else {
            BigFloat::add(self, &half, 1 << 20, RoundMode::Nearest).floor_int()
        }
    }

    /// True if the value is an exact (mathematical) integer.
    pub fn is_integer(&self) -> bool {
        match self {
            BigFloat::Zero { .. } => true,
            BigFloat::Finite { .. } => self.partial_cmp(&self.trunc()) == Some(Ordering::Equal),
            _ => false,
        }
    }
}

fn next_up_f32(x: f32) -> f32 {
    if x.is_nan() || x == f32::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f32::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f32::from_bits(bits + 1)
    } else {
        f32::from_bits(bits - 1)
    }
}

fn next_down_f32(x: f32) -> f32 {
    -next_up_f32(-x)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: u32 = 120;

    fn bf(x: f64) -> BigFloat {
        BigFloat::from_f64(x)
    }

    fn roundtrip(x: f64) -> f64 {
        bf(x).to_f64(RoundMode::Nearest)
    }

    #[test]
    fn f64_round_trip_is_exact() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            1e300,
            -1e-300,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324,
            std::f64::consts::PI,
        ] {
            assert_eq!(roundtrip(x).to_bits(), x.to_bits(), "round trip of {x}");
        }
        assert!(roundtrip(f64::NAN).is_nan());
        assert_eq!(roundtrip(f64::INFINITY), f64::INFINITY);
        assert_eq!(roundtrip(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn add_matches_f64_on_exact_cases() {
        let cases = [
            (1.0, 2.0),
            (0.5, 0.25),
            (1e16, 1.0),
            (-3.5, 3.5),
            (1.0, -0.25),
        ];
        for (a, b) in cases {
            let sum = BigFloat::add(&bf(a), &bf(b), P, RoundMode::Nearest);
            assert_eq!(sum.to_f64(RoundMode::Nearest), a + b, "{a} + {b}");
        }
    }

    #[test]
    fn mul_div_match_f64_on_exact_cases() {
        let cases = [(3.0, 4.0), (0.5, -8.0), (1.5, 1.5), (1e10, 1e-10)];
        for (a, b) in cases {
            let prod = BigFloat::mul(&bf(a), &bf(b), P, RoundMode::Nearest);
            assert_eq!(prod.to_f64(RoundMode::Nearest), a * b, "{a} * {b}");
            let quot = BigFloat::div(&bf(a), &bf(b), P, RoundMode::Nearest);
            assert_eq!(quot.to_f64(RoundMode::Nearest), a / b, "{a} / {b}");
        }
    }

    #[test]
    fn division_rounds_correctly() {
        // 1/3 is not representable; directed roundings must bracket it.
        let lo = BigFloat::div(&bf(1.0), &bf(3.0), 53, RoundMode::Floor).to_f64(RoundMode::Floor);
        let hi = BigFloat::div(&bf(1.0), &bf(3.0), 53, RoundMode::Ceil).to_f64(RoundMode::Ceil);
        assert!(lo < hi);
        assert!(lo <= 1.0 / 3.0 && 1.0 / 3.0 <= hi);
        assert_eq!(hi, next_up(lo));
        // Nearest must agree with the hardware.
        let near =
            BigFloat::div(&bf(1.0), &bf(3.0), 53, RoundMode::Nearest).to_f64(RoundMode::Nearest);
        assert_eq!(near, 1.0 / 3.0);
    }

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn sqrt_matches_f64() {
        for x in [
            0.0,
            1.0,
            2.0,
            4.0,
            0.25,
            10.0,
            1e300,
            1e-300,
            std::f64::consts::PI,
        ] {
            let s = BigFloat::sqrt(&bf(x), 53, RoundMode::Nearest).to_f64(RoundMode::Nearest);
            assert_eq!(s, x.sqrt(), "sqrt({x})");
        }
        assert!(BigFloat::sqrt(&bf(-1.0), 53, RoundMode::Nearest).is_nan());
    }

    #[test]
    fn sqrt_directed_rounding_brackets() {
        let x = bf(2.0);
        let lo = BigFloat::sqrt(&x, 53, RoundMode::Floor).to_f64(RoundMode::Floor);
        let hi = BigFloat::sqrt(&x, 53, RoundMode::Ceil).to_f64(RoundMode::Ceil);
        assert!(lo <= std::f64::consts::SQRT_2 && std::f64::consts::SQRT_2 <= hi);
        assert!(hi - lo <= f64::EPSILON);
    }

    #[test]
    fn huge_exponent_gap_addition() {
        // Adding a tiny value must act as a sticky bit, not hang or lose the sign
        // of the perturbation under directed rounding.
        let big = bf(1.0);
        let tiny = bf(1e-300);
        let up = BigFloat::add(&big, &tiny, 53, RoundMode::Ceil).to_f64(RoundMode::Ceil);
        let down = BigFloat::add(&big, &tiny, 53, RoundMode::Floor).to_f64(RoundMode::Floor);
        assert!(up > 1.0);
        assert_eq!(down, 1.0);
        let down2 = BigFloat::sub(&big, &tiny, 53, RoundMode::Floor).to_f64(RoundMode::Floor);
        assert!(down2 < 1.0);
    }

    #[test]
    fn comparisons() {
        assert_eq!(bf(1.0).partial_cmp(&bf(2.0)), Some(Ordering::Less));
        assert_eq!(bf(-1.0).partial_cmp(&bf(1.0)), Some(Ordering::Less));
        assert_eq!(bf(-1.0).partial_cmp(&bf(-2.0)), Some(Ordering::Greater));
        assert_eq!(bf(0.0).partial_cmp(&bf(-0.0)), Some(Ordering::Equal));
        assert_eq!(bf(3.5).partial_cmp(&bf(3.5)), Some(Ordering::Equal));
        assert_eq!(bf(1e300).partial_cmp(&bf(1e299)), Some(Ordering::Greater));
        assert!(bf(f64::NAN).partial_cmp(&bf(1.0)).is_none());
        assert_eq!(
            bf(f64::INFINITY).partial_cmp(&bf(1e308)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn integer_operations() {
        assert_eq!(bf(2.7).trunc().to_f64(RoundMode::Nearest), 2.0);
        assert_eq!(bf(-2.7).trunc().to_f64(RoundMode::Nearest), -2.0);
        assert_eq!(bf(2.7).floor_int().to_f64(RoundMode::Nearest), 2.0);
        assert_eq!(bf(-2.7).floor_int().to_f64(RoundMode::Nearest), -3.0);
        assert_eq!(bf(2.2).ceil_int().to_f64(RoundMode::Nearest), 3.0);
        assert_eq!(bf(-2.2).ceil_int().to_f64(RoundMode::Nearest), -2.0);
        assert_eq!(bf(2.5).round_int().to_f64(RoundMode::Nearest), 3.0);
        assert_eq!(bf(-2.5).round_int().to_f64(RoundMode::Nearest), -3.0);
        assert!(bf(4.0).is_integer());
        assert!(!bf(4.5).is_integer());
    }

    #[test]
    fn f32_conversion_rounds_outward() {
        let third = BigFloat::div(&bf(1.0), &bf(3.0), 80, RoundMode::Nearest);
        let lo = third.to_f32(RoundMode::Floor);
        let hi = third.to_f32(RoundMode::Ceil);
        assert!(lo < hi);
        assert!((lo as f64) < 1.0 / 3.0 && 1.0 / 3.0 < (hi as f64));
        assert_eq!(third.to_f32(RoundMode::Nearest), 1.0f32 / 3.0f32);
    }

    #[test]
    fn overflow_and_underflow_to_f64() {
        // 2^2000 overflows f64.
        let huge = BigFloat::Finite {
            negative: false,
            exp: 2000,
            mant: BigUint::one(),
        };
        assert_eq!(huge.to_f64(RoundMode::Nearest), f64::INFINITY);
        assert_eq!(huge.to_f64(RoundMode::Floor), f64::MAX);
        let tiny = BigFloat::Finite {
            negative: false,
            exp: -3000,
            mant: BigUint::one(),
        };
        assert_eq!(tiny.to_f64(RoundMode::Nearest), 0.0);
        assert!(tiny.to_f64(RoundMode::Ceil) > 0.0);
    }

    #[test]
    fn rational_conversion() {
        let half = BigFloat::from_rational(1, 2, P, RoundMode::Nearest);
        assert_eq!(half.to_f64(RoundMode::Nearest), 0.5);
        let tenth = BigFloat::from_rational(1, 10, 53, RoundMode::Nearest);
        assert_eq!(tenth.to_f64(RoundMode::Nearest), 0.1);
        let neg = BigFloat::from_rational(-7, 4, P, RoundMode::Nearest);
        assert_eq!(neg.to_f64(RoundMode::Nearest), -1.75);
        let zero = BigFloat::from_rational(0, 5, P, RoundMode::Nearest);
        assert!(zero.is_zero());
    }

    #[test]
    fn rounding_modes_on_ties() {
        // 2^53 + 1 is exactly halfway between representable doubles 2^53 and 2^53+2.
        let v = BigFloat::Finite {
            negative: false,
            exp: 0,
            mant: BigUint::from_u128((1u128 << 53) + 1),
        };
        assert_eq!(v.to_f64(RoundMode::Nearest), 9007199254740992.0); // ties to even
        assert_eq!(v.to_f64(RoundMode::Ceil), 9007199254740994.0);
        assert_eq!(v.to_f64(RoundMode::Floor), 9007199254740992.0);
    }
}
