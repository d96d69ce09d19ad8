//! # vecmath
//!
//! Portable, branch-free, block-wide kernels for the hot transcendental
//! functions of the evaluation pipeline: `exp`, `expm1`, `log`, `log1p`,
//! `log2`, `log10`, `sin`, `cos`, `tan`, `sinh`, `cosh`, `tanh`, `atan`,
//! plus `pow` and `hypot` built on top of them.
//!
//! ## The scalar / lane-sweep pairing rule
//!
//! Every kernel ships in two forms:
//!
//! * a **scalar** form (`exp(x)`), used by the tree-walk interpreter and the
//!   scalar bytecode engine via `fpcore::eval::apply_op1`/`apply_op2`;
//! * a **lane-sweep** form (`exp_sweep(out, a)`), used by the block engine to
//!   process a whole lane slice per instruction dispatch.
//!
//! The invariant that makes the whole system hang together is **bit
//! identity**: the sweep form executes the *identical* operation sequence per
//! lane as the scalar form, so the three evaluation engines agree bit for bit
//! at every block width. The rule for adding a kernel is therefore:
//!
//! 1. write a branch-free scalar core (`*_core`) — range reduction with
//!    integer exponent extraction or Cody–Waite splits, a Horner polynomial
//!    or rational body, and *mask blends* (the crate-internal `sel` helper)
//!    for special values; no data-dependent branches, no calls into libm on
//!    the main path;
//! 2. define the sweep form as a plain per-lane loop over that same core, so
//!    the compiler can auto-vectorize it and equality per lane holds by
//!    construction;
//! 3. if a slow path is unavoidable (e.g. `sin`/`cos`/`tan` beyond the
//!    Cody–Waite range fall back to libm argument reduction), the scalar form
//!    must branch on *exactly* the predicate the sweep form's fixup pass
//!    re-applies per lane, so the two forms still agree everywhere;
//! 4. register the kernel in [`KERNELS1`] / [`KERNELS2`] with its documented
//!    ULP bound — CI sweeps each kernel's domain (plus NaN, infinities,
//!    signed zeros, subnormals and near-branch-cut points) against the Rival
//!    ground truth and fails if the measured error exceeds the bound.
//!
//! ## Accuracy contract
//!
//! Each kernel documents a maximum error bound in units in the last place
//! (ULP) against the correctly rounded result; the property suite in
//! `tests/vecmath_ulp.rs` enforces it. The cores are Cephes-style rational
//! and polynomial approximations (the same family vdt and SLEEF descend
//! from), which keep every kernel within 4 ULP and the exponential /
//! logarithm family within ~1–2 ULP.
//!
//! This crate depends on nothing (not even `fpcore`): it is pure `f64`
//! math, safe to reuse from any layer.

// The Cephes-family coefficient tables and split constants are quoted
// verbatim from their derivations, with more decimal digits than a double
// resolves; trimming them would obscure the provenance.
#![allow(clippy::excessive_precision)]

mod exp;
mod hyper;
mod log;
mod pow;
mod trig;

pub use exp::{exp, exp_sweep, expm1, expm1_sweep};
pub use hyper::{cosh, cosh_sweep, sinh, sinh_sweep, tanh, tanh_sweep};
pub use log::{log, log10, log10_sweep, log1p, log1p_sweep, log2, log2_sweep, log_sweep};
pub use pow::{hypot, hypot_sweep, pow, pow_sweep};
pub use trig::{atan, atan_sweep, cos, cos_sweep, sin, sin_sweep, tan, tan_sweep};

/// Branch-free select: compiles to a conditional move / SIMD blend, not a
/// branch, inside the sweep loops.
#[inline(always)]
pub(crate) fn sel(c: bool, t: f64, e: f64) -> f64 {
    if c {
        t
    } else {
        e
    }
}

/// `1.5 * 2^52`: adding and subtracting this rounds a double to the nearest
/// integer (ties to even) without `round()`/`floor()` libm calls, and the low
/// 32 bits of the sum's mantissa hold the integer in two's complement for
/// |x| < 2^31 — the classic SSE trick.
pub(crate) const RINT_MAGIC: f64 = 6755399441055744.0;

/// Rounds to the nearest integer, returning it both as a double and as an
/// `i32`. Valid for |x| < 2^31; out-of-range and non-finite inputs produce
/// garbage-but-defined values that callers blend away.
#[inline(always)]
pub(crate) fn rint_i32(x: f64) -> (f64, i32) {
    let t = x + RINT_MAGIC;
    let k = t.to_bits() as i32;
    (t - RINT_MAGIC, k)
}

/// `x * 2^k` built from exponent bits, safe down to subnormal results (the
/// scale is applied in two halves so each factor stays a normal number).
/// `k` is clamped to a range where the arithmetic cannot overflow; callers
/// relying on clamped `k` always have a NaN/infinity flowing through the
/// float side, so the clamped result is blended away.
#[inline(always)]
pub(crate) fn scale2(x: f64, k: i32) -> f64 {
    let k = k.clamp(-2200, 2200);
    let k1 = k >> 1;
    x * pow2i(k1) * pow2i(k - k1)
}

/// `2^k` from bits; `k` must keep the biased exponent within `u64` shifting
/// range (guaranteed by [`scale2`]'s clamp).
#[inline(always)]
fn pow2i(k: i32) -> f64 {
    f64::from_bits(((k + 1023) as i64 as u64) << 52)
}

/// Horner evaluation with a compile-time-known coefficient count (the slice
/// is always a `const` array, so the loop unrolls fully).
#[inline(always)]
pub(crate) fn poly(x: f64, c: &[f64]) -> f64 {
    let mut r = c[0];
    for &k in &c[1..] {
        r = r * x + k;
    }
    r
}

/// Cached runtime check for AVX2. The sweep loops are compiled twice — once
/// with the build's baseline features and once as an
/// `#[target_feature(enable = "avx2")]` clone — and dispatched here, so a
/// baseline (SSE2) build still runs 4-wide on modern x86-64. Bit identity is
/// unaffected: the clone executes the same IEEE-754 operations per lane,
/// only in wider registers (FMA contraction is never enabled).
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn have_avx2() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0);
    match STATE.load(Ordering::Relaxed) {
        0 => {
            let yes = std::arch::is_x86_feature_detected!("avx2");
            STATE.store(if yes { 2 } else { 1 }, Ordering::Relaxed);
            yes
        }
        s => s == 2,
    }
}

/// Wraps a unary sweep body in the AVX2 runtime dispatch (see
/// [`have_avx2`]). `$body` must be an `#[inline(always)]` function so the
/// AVX2 clone recompiles the whole loop — scalar core included — with wider
/// vectors.
macro_rules! dispatch_sweep1 {
    ($(#[$doc:meta])* $name:ident, $body:path) => {
        $(#[$doc])*
        pub fn $name(out: &mut [f64], a: &[f64]) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2(out: &mut [f64], a: &[f64]) {
                    $body(out, a)
                }
                if crate::have_avx2() {
                    // SAFETY: AVX2 support was verified at runtime; the
                    // clone runs the identical per-lane IEEE operations.
                    unsafe {
                        return avx2(out, a);
                    }
                }
            }
            $body(out, a)
        }
    };
}

/// Generates the lane-sweep form of a kernel as a per-lane loop over its
/// scalar form — the pairing rule's step 2 — with the AVX2 dispatch.
macro_rules! sweep1 {
    ($(#[$doc:meta])* $name:ident, $scalar:path) => {
        $(#[$doc])*
        pub fn $name(out: &mut [f64], a: &[f64]) {
            #[inline(always)]
            fn body(out: &mut [f64], a: &[f64]) {
                for (o, &x) in out.iter_mut().zip(a) {
                    *o = $scalar(x);
                }
            }
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2(out: &mut [f64], a: &[f64]) {
                    body(out, a)
                }
                if crate::have_avx2() {
                    // SAFETY: AVX2 support was verified at runtime; the
                    // clone runs the identical per-lane IEEE operations.
                    unsafe {
                        return avx2(out, a);
                    }
                }
            }
            body(out, a)
        }
    };
}
macro_rules! sweep2 {
    ($(#[$doc:meta])* $name:ident, $scalar:path) => {
        $(#[$doc])*
        pub fn $name(out: &mut [f64], a: &[f64], b: &[f64]) {
            #[inline(always)]
            fn body(out: &mut [f64], a: &[f64], b: &[f64]) {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = $scalar(x, y);
                }
            }
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn avx2(out: &mut [f64], a: &[f64], b: &[f64]) {
                    body(out, a, b)
                }
                if crate::have_avx2() {
                    // SAFETY: see sweep1.
                    unsafe {
                        return avx2(out, a, b);
                    }
                }
            }
            body(out, a, b)
        }
    };
}
pub(crate) use {dispatch_sweep1, sweep1, sweep2};

/// A registered unary kernel: the scalar/sweep pair, the host-libm function
/// it replaces, and its documented accuracy bound (enforced against Rival by
/// the ULP property suite).
pub struct Kernel1 {
    /// Kernel name, matching the `RealOp` it implements (lowercase).
    pub name: &'static str,
    /// Scalar form (what `fpcore::eval::apply_op1` routes to).
    pub scalar: fn(f64) -> f64,
    /// Lane-sweep form (what the block engine dispatches to).
    pub sweep: fn(&mut [f64], &[f64]),
    /// The host libm operation this kernel replaces (the `libm-calls` path).
    pub reference: fn(f64) -> f64,
    /// Documented maximum error vs. the correctly rounded result, in ULP.
    pub max_ulp: f64,
}

/// A registered binary kernel (see [`Kernel1`]).
pub struct Kernel2 {
    pub name: &'static str,
    pub scalar: fn(f64, f64) -> f64,
    pub sweep: fn(&mut [f64], &[f64], &[f64]),
    pub reference: fn(f64, f64) -> f64,
    pub max_ulp: f64,
}

/// Every unary kernel, with its documented ULP bound.
pub const KERNELS1: &[Kernel1] = &[
    Kernel1 {
        name: "exp",
        scalar: exp,
        sweep: exp_sweep,
        reference: f64::exp,
        max_ulp: 2.0,
    },
    Kernel1 {
        name: "expm1",
        scalar: expm1,
        sweep: expm1_sweep,
        reference: f64::exp_m1,
        max_ulp: 4.0,
    },
    Kernel1 {
        name: "log",
        scalar: log,
        sweep: log_sweep,
        reference: f64::ln,
        max_ulp: 2.0,
    },
    Kernel1 {
        name: "log1p",
        scalar: log1p,
        sweep: log1p_sweep,
        reference: f64::ln_1p,
        max_ulp: 3.0,
    },
    Kernel1 {
        name: "log2",
        scalar: log2,
        sweep: log2_sweep,
        reference: f64::log2,
        max_ulp: 2.0,
    },
    Kernel1 {
        name: "log10",
        scalar: log10,
        sweep: log10_sweep,
        reference: f64::log10,
        max_ulp: 2.0,
    },
    Kernel1 {
        name: "sin",
        scalar: sin,
        sweep: sin_sweep,
        reference: f64::sin,
        max_ulp: 2.5,
    },
    Kernel1 {
        name: "cos",
        scalar: cos,
        sweep: cos_sweep,
        reference: f64::cos,
        max_ulp: 2.5,
    },
    Kernel1 {
        name: "tan",
        scalar: tan,
        sweep: tan_sweep,
        reference: f64::tan,
        max_ulp: 4.0,
    },
    Kernel1 {
        name: "sinh",
        scalar: sinh,
        sweep: sinh_sweep,
        reference: f64::sinh,
        max_ulp: 4.0,
    },
    Kernel1 {
        name: "cosh",
        scalar: cosh,
        sweep: cosh_sweep,
        reference: f64::cosh,
        max_ulp: 4.0,
    },
    Kernel1 {
        name: "tanh",
        scalar: tanh,
        sweep: tanh_sweep,
        reference: f64::tanh,
        max_ulp: 3.0,
    },
    Kernel1 {
        name: "atan",
        scalar: atan,
        sweep: atan_sweep,
        reference: f64::atan,
        max_ulp: 2.0,
    },
];

/// Every binary kernel, with its documented ULP bound.
pub const KERNELS2: &[Kernel2] = &[
    Kernel2 {
        name: "pow",
        scalar: pow,
        sweep: pow_sweep,
        reference: f64::powf,
        max_ulp: 4.0,
    },
    Kernel2 {
        name: "hypot",
        scalar: hypot,
        sweep: hypot_sweep,
        reference: f64::hypot,
        max_ulp: 3.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// ULP distance between two doubles of the same sign class (test helper).
    pub(crate) fn ulps(a: f64, b: f64) -> u64 {
        if a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()) {
            return 0;
        }
        if a.is_nan() || b.is_nan() {
            return u64::MAX;
        }
        // Monotone mapping of the float order onto u64 (±0 share a key).
        let key = |x: f64| {
            let b = x.to_bits();
            if b >> 63 == 0 {
                b + (1u64 << 63)
            } else {
                (1u64 << 63).wrapping_sub(b.wrapping_sub(1u64 << 63))
            }
        };
        key(a).abs_diff(key(b))
    }

    #[test]
    fn rint_magic_rounds_to_nearest() {
        for (x, want) in [
            (0.0, 0),
            (0.4, 0),
            (0.6, 1),
            (-0.6, -1),
            (2.5, 2), // ties to even
            (3.5, 4),
            (-2.5, -2),
            (1e6 + 0.25, 1_000_000),
            (-123456.75, -123457),
        ] {
            let (f, k) = rint_i32(x);
            assert_eq!(k, want, "rint_i32({x})");
            assert_eq!(f, want as f64, "rint_i32({x}) float part");
        }
    }

    #[test]
    fn scale2_reaches_subnormals_and_overflow() {
        assert_eq!(scale2(1.0, 0), 1.0);
        assert_eq!(scale2(1.0, -1074), 5e-324);
        assert_eq!(scale2(1.5, 1023), 1.5 * 2f64.powi(1023));
        assert_eq!(scale2(1.0, 1100), f64::INFINITY);
        assert_eq!(scale2(1.0, -1200), 0.0);
        assert!(scale2(f64::NAN, 12345678).is_nan());
    }

    #[test]
    fn every_kernel_scalar_and_sweep_agree_bitwise() {
        // The pairing rule, spot-checked over a mixed bag of inputs including
        // every special class. The integration suite does this corpus-wide.
        let inputs: Vec<f64> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            3.25e-3,
            7.5,
            -12.25,
            1e-300,
            -1e-300,
            5e-324,
            1e300,
            -1e300,
            708.5,
            -708.5,
            1e7,
            -1e7,
            1e16,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            std::f64::consts::PI,
            -std::f64::consts::FRAC_PI_2,
        ];
        let mut out = vec![0.0; inputs.len()];
        for k in KERNELS1 {
            (k.sweep)(&mut out, &inputs);
            for (&x, &got) in inputs.iter().zip(&out) {
                let want = (k.scalar)(x);
                assert_eq!(
                    want.to_bits(),
                    got.to_bits(),
                    "{}: sweep diverges from scalar at {x:e} ({want:e} vs {got:e})",
                    k.name
                );
            }
        }
        let b: Vec<f64> = inputs.iter().rev().copied().collect();
        for k in KERNELS2 {
            (k.sweep)(&mut out, &inputs, &b);
            for i in 0..inputs.len() {
                let want = (k.scalar)(inputs[i], b[i]);
                assert_eq!(
                    want.to_bits(),
                    out[i].to_bits(),
                    "{}: sweep diverges from scalar at ({:e}, {:e})",
                    k.name,
                    inputs[i],
                    b[i]
                );
            }
        }
    }

    #[test]
    fn kernels_track_libm_closely_on_benign_sweeps() {
        // Not the accuracy gate (that is the Rival ULP suite) — a coarse
        // guard that every coefficient table is right: vs. libm, which is
        // itself within ~1 ULP, every kernel must stay within a few ULP.
        for k in KERNELS1 {
            let domain: Vec<f64> = match k.name {
                "exp" | "expm1" => (-600..600).map(|i| i as f64 * 1.171).collect(),
                "log" | "log2" | "log10" => (1..1200)
                    .map(|i| (i as f64 * 0.37).exp2() * 1e-60)
                    .collect(),
                "log1p" => (-999..4000).map(|i| i as f64 * 1e-3).collect(),
                "sin" | "cos" | "tan" | "atan" => (-4000..4000).map(|i| i as f64 * 0.251).collect(),
                "sinh" | "cosh" => (-500..500).map(|i| i as f64 * 1.4).collect(),
                "tanh" => (-400..400).map(|i| i as f64 * 0.05).collect(),
                _ => unreachable!("unregistered kernel {}", k.name),
            };
            for &x in &domain {
                let got = (k.scalar)(x);
                let want = (k.reference)(x);
                assert!(
                    ulps(got, want) <= k.max_ulp as u64 + 2,
                    "{}({x:e}): kernel {got:e} vs libm {want:e} ({} ulps)",
                    k.name,
                    ulps(got, want)
                );
            }
        }
    }

    #[test]
    fn binary_kernels_track_libm() {
        for i in -60..60 {
            for j in -40..40 {
                let x = (i as f64 * 0.23).exp2();
                let y = j as f64 * 0.37;
                let (got, want) = (pow(x, y), x.powf(y));
                assert!(
                    ulps(got, want) <= 6,
                    "pow({x:e}, {y:e}): {got:e} vs {want:e} ({} ulps)",
                    ulps(got, want)
                );
                let h = i as f64 * 1.7e3;
                let (got, want) = (hypot(h, y * 100.0), h.hypot(y * 100.0));
                assert!(
                    ulps(got, want) <= 4,
                    "hypot({h:e}, {:e}): {got:e} vs {want:e}",
                    y * 100.0
                );
            }
        }
    }

    #[test]
    fn ieee_special_cases_match_libm_exactly() {
        // Special-value semantics (±0, ±inf, NaN, domain edges) must agree
        // with the host libm bit for bit: these are exactly specified by
        // IEEE 754 and the engines' NaN-handling depends on them.
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
        ];
        for k in KERNELS1 {
            for &x in &specials {
                let got = (k.scalar)(x);
                let want = (k.reference)(x);
                assert!(
                    got.to_bits() == want.to_bits() || super::tests::ulps(got, want) <= 4,
                    "{}({x:e}): {got:e} (bits {:#x}) vs libm {want:e} ({:#x})",
                    k.name,
                    got.to_bits(),
                    want.to_bits()
                );
            }
        }
        // pow's special-case zoo is fully specified by IEEE 754; require
        // exact agreement with the host implementation on a grid of specials.
        for &x in &specials {
            for &y in &specials {
                let (got, want) = (pow(x, y), x.powf(y));
                assert!(
                    got.to_bits() == want.to_bits()
                        || (got.is_nan() && want.is_nan())
                        || (!want.is_nan() && !got.is_nan() && super::tests::ulps(got, want) <= 4),
                    "pow({x:e}, {y:e}): {got:e} ({:#x}) vs libm {want:e} ({:#x})",
                    got.to_bits(),
                    want.to_bits()
                );
                let (got, want) = (hypot(x, y), x.hypot(y));
                assert!(
                    got.to_bits() == want.to_bits()
                        || (got.is_nan() && want.is_nan())
                        || (!want.is_nan() && !got.is_nan() && super::tests::ulps(got, want) <= 3),
                    "hypot({x:e}, {y:e}): {got:e} vs libm {want:e}"
                );
            }
        }
    }
}
