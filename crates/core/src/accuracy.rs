//! Accuracy measurement: ULP distance and bits of error against ground truth.
//!
//! Chassis (like Herbie) measures the error of a floating-point result against
//! the correctly rounded real result in *units in the last place* (ULPs), and
//! aggregates `log2(1 + ulps)` — "bits of error" — over the sample points. The
//! paper reports accuracy as `p − log2 ULP` where `p` is the output precision.

use crate::par;
use crate::sample::SampleSet;
use fpcore::{FpType, Symbol};
use targets::{Columns, FloatExpr, Target};

/// Maps a float to an ordered integer such that adjacent floats map to adjacent
/// integers (the standard "Bruce Dawson" trick), making ULP distance a simple
/// subtraction.
fn ordered_bits_f64(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    if bits < 0 {
        i64::MIN.wrapping_add(bits.wrapping_neg())
    } else {
        bits
    }
}

fn ordered_bits_f32(x: f32) -> i64 {
    let bits = x.to_bits() as i32 as i64;
    if bits < 0 {
        -(bits & 0x7fff_ffff)
    } else {
        bits
    }
}

/// ULP distance between two values in the given representation.
///
/// NaN compared with NaN is zero ULPs; NaN compared with a number is the maximum
/// error for the format.
pub fn ulps_between(a: f64, b: f64, ty: FpType) -> u64 {
    if a.is_nan() && b.is_nan() {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return max_ulps(ty);
    }
    match ty {
        FpType::Binary32 => {
            let (a, b) = (a as f32, b as f32);
            if a == b {
                return 0;
            }
            // The ordered-f32 line spans ~2^32 values, so a finite/finite
            // mismatch (e.g. -inf rounded vs +inf rounded) could otherwise
            // report *more* ULPs than the supposedly maximal NaN-vs-number
            // error; clamp so NaN stays the worst case.
            (ordered_bits_f32(a) - ordered_bits_f32(b))
                .unsigned_abs()
                .min(max_ulps(ty))
        }
        _ => {
            if a == b {
                return 0;
            }
            // Widen to i128 before subtracting: the ordered-f64 line spans
            // ~2^64 values, so an i64 difference of opposite-sign extremes
            // wraps (e.g. -inf vs +inf came out as 2^53) and would make a
            // sign-flipped catastrophic answer score *better* than a merely
            // wrong one. Clamp for the same reason as Binary32.
            let diff = (ordered_bits_f64(a) as i128 - ordered_bits_f64(b) as i128).unsigned_abs();
            diff.min(max_ulps(ty) as u128) as u64
        }
    }
}

/// The ULP distance treated as "maximal" for a format (spanning the whole range).
pub fn max_ulps(ty: FpType) -> u64 {
    match ty {
        FpType::Binary32 => 1 << 31,
        _ => 1 << 62,
    }
}

/// Bits of error: `log2(1 + ulps)`, clamped to the precision-dependent maximum
/// used by Herbie's reports (64 bits for binary64, 32 for binary32).
pub fn bits_of_error(actual: f64, truth: f64, ty: FpType) -> f64 {
    let ulps = ulps_between(actual, truth, ty);
    let bits = ((ulps as f64) + 1.0).log2();
    bits.min(max_bits(ty))
}

/// The maximum bits of error reported for a format.
pub fn max_bits(ty: FpType) -> f64 {
    match ty {
        FpType::Binary32 => 32.0,
        _ => 64.0,
    }
}

/// The bits of error of a program at every point of a columnar batch, in
/// point order.
///
/// The program is compiled to bytecode once and optimized
/// ([`targets::optimize()`], register compaction, which preserves bit
/// identity), and the immutable compiled form is shared by every worker;
/// points are then scored
/// in blocks ([`targets::block`]): each worker sweeps its contiguous share of
/// the batch against a per-worker columnar register file, one instruction
/// dispatch per block rather than per point, with zero allocation in the
/// steady state. The block engine is bit-identical to the scalar bytecode
/// engine and the tree-walk interpreter at every block width, so the error
/// vector is the same whatever the thread count or block width.
pub fn per_point_errors(
    target: &Target,
    expr: &FloatExpr,
    vars: &[Symbol],
    points: &Columns,
    truths: &[f64],
    ty: FpType,
) -> Vec<f64> {
    assert_eq!(
        points.len(),
        truths.len(),
        "each point needs a ground truth"
    );
    let (program, _) = targets::optimize(&targets::compile(target, expr));
    let columns = program.bind_columns(vars);
    let block = targets::block::block_width_for(points.len());
    par::par_map_blocks_with(
        points.len(),
        block,
        || program.new_block_regs(block),
        |regs, start, out| {
            program.eval_block(&columns, points, start, regs, out);
            for (l, slot) in out.iter_mut().enumerate() {
                *slot = bits_of_error(*slot, truths[start + l], ty);
            }
        },
    )
}

/// The mean bits of error of a program over points with known ground truth.
///
/// Evaluation runs on the block engine (see [`per_point_errors`]); the
/// per-point errors are always summed in point order, so the result is
/// bit-identical whatever the thread count or block width.
pub fn mean_bits_of_error(
    target: &Target,
    expr: &FloatExpr,
    vars: &[Symbol],
    points: &Columns,
    truths: &[f64],
    ty: FpType,
) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    let bits = per_point_errors(target, expr, vars, points, truths, ty);
    bits.iter().sum::<f64>() / points.len() as f64
}

/// Accuracy in the paper's reporting convention: `p − mean bits of error`,
/// clamped at zero.
pub fn accuracy_bits(mean_error_bits: f64, ty: FpType) -> f64 {
    let p = match ty {
        FpType::Binary32 => 24.0,
        _ => 53.0,
    };
    (p - mean_error_bits).max(0.0)
}

/// Evaluates a candidate on the training set, returning
/// `(mean bits of error, accuracy)`.
pub fn evaluate_on_train(target: &Target, expr: &FloatExpr, samples: &SampleSet) -> (f64, f64) {
    let err = mean_bits_of_error(
        target,
        expr,
        &samples.vars,
        &samples.train,
        &samples.train_truth,
        samples.output_type,
    );
    (err, accuracy_bits(err, samples.output_type))
}

/// Evaluates a candidate on the held-out test set.
pub fn evaluate_on_test(target: &Target, expr: &FloatExpr, samples: &SampleSet) -> (f64, f64) {
    let err = mean_bits_of_error(
        target,
        expr,
        &samples.vars,
        &samples.test,
        &samples.test_truth,
        samples.output_type,
    );
    (err, accuracy_bits(err, samples.output_type))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulps_between(1.0, 1.0, FpType::Binary64), 0);
        assert_eq!(
            ulps_between(1.0, f64::from_bits(1.0f64.to_bits() + 1), FpType::Binary64),
            1
        );
        assert_eq!(ulps_between(0.0, -0.0, FpType::Binary64), 0);
        // Crossing zero counts the representable values in between.
        let tiny = f64::from_bits(1);
        assert_eq!(ulps_between(tiny, -tiny, FpType::Binary64), 2);
        assert_eq!(ulps_between(f64::NAN, f64::NAN, FpType::Binary64), 0);
        assert_eq!(
            ulps_between(f64::NAN, 1.0, FpType::Binary64),
            max_ulps(FpType::Binary64)
        );
    }

    #[test]
    fn binary32_ulps_are_coarser() {
        let a = 1.0f64;
        let b = 1.0f64 + 1e-9;
        // Adjacent in f32 terms (identical, actually), far apart in f64 terms.
        assert_eq!(ulps_between(a, b, FpType::Binary32), 0);
        assert!(ulps_between(a, b, FpType::Binary64) > 1_000_000);
    }

    #[test]
    fn bits_of_error_scale() {
        assert_eq!(bits_of_error(1.0, 1.0, FpType::Binary64), 0.0);
        let one_ulp = f64::from_bits(1.0f64.to_bits() + 1);
        assert_eq!(bits_of_error(one_ulp, 1.0, FpType::Binary64), 1.0);
        let nan_err = bits_of_error(f64::NAN, 1.0, FpType::Binary64);
        assert!(
            (60.0..=64.0).contains(&nan_err),
            "NaN mismatch should be maximal, got {nan_err}"
        );
    }

    #[test]
    fn accuracy_reporting() {
        assert_eq!(accuracy_bits(0.0, FpType::Binary64), 53.0);
        assert_eq!(accuracy_bits(10.0, FpType::Binary64), 43.0);
        assert_eq!(accuracy_bits(60.0, FpType::Binary64), 0.0);
        assert_eq!(accuracy_bits(0.0, FpType::Binary32), 24.0);
    }

    #[test]
    fn finite_mismatch_never_exceeds_nan_error() {
        // -inf vs +inf (after rounding to f32) spans nearly the whole ordered
        // line; without clamping this reported more ULPs than NaN-vs-number.
        let worst = ulps_between(f64::NEG_INFINITY, f64::INFINITY, FpType::Binary32);
        assert_eq!(worst, max_ulps(FpType::Binary32));
        assert!(worst <= ulps_between(f64::NAN, 1.0, FpType::Binary32));
        assert_eq!(
            ulps_between(-f32::MAX as f64, f32::MAX as f64, FpType::Binary32),
            max_ulps(FpType::Binary32)
        );
        // Binary64: the i64 ordered-bit difference of opposite-sign extremes
        // used to wrap to 2^53, scoring a sign-flipped catastrophe as *less*
        // wrong than a modest error; the widened difference must clamp at the
        // maximum instead.
        assert_eq!(
            ulps_between(f64::NEG_INFINITY, f64::INFINITY, FpType::Binary64),
            max_ulps(FpType::Binary64)
        );
        assert_eq!(
            ulps_between(-f64::MAX, f64::MAX, FpType::Binary64),
            max_ulps(FpType::Binary64)
        );
        // Monotonicity across the wrap-prone region: -inf is farther from a
        // large positive truth than +1.0 is.
        assert!(
            ulps_between(1e308, f64::NEG_INFINITY, FpType::Binary64)
                > ulps_between(1e308, 1.0, FpType::Binary64)
        );
    }

    #[test]
    fn program_error_measurement() {
        use targets::builtin;
        let t = builtin::by_name("c99").unwrap();
        let sub = t.find_operator("-.f64").unwrap();
        let sqrt = t.find_operator("sqrt.f64").unwrap();
        let add = t.find_operator("+.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), FpType::Binary64);
        // The cancellation-prone sqrt(x+1) - sqrt(x).
        let naive = FloatExpr::Op(
            sub,
            vec![
                FloatExpr::Op(
                    sqrt,
                    vec![FloatExpr::Op(
                        add,
                        vec![x.clone(), FloatExpr::literal(1.0, FpType::Binary64)],
                    )],
                ),
                FloatExpr::Op(sqrt, vec![x.clone()]),
            ],
        );
        let vars = [Symbol::new("x")];
        let rows: Vec<Vec<f64>> = vec![vec![1e15], vec![4e15]];
        let truths: Vec<f64> = rows
            .iter()
            .map(|p| {
                let x = p[0];
                1.0 / ((x + 1.0).sqrt() + x.sqrt())
            })
            .collect();
        let points = Columns::from_rows(1, &rows);
        let err = mean_bits_of_error(&t, &naive, &vars, &points, &truths, FpType::Binary64);
        assert!(
            err > 10.0,
            "the naive form should lose many bits, got {err}"
        );
    }

    #[test]
    fn parallel_mean_error_is_bit_identical_to_serial() {
        use targets::builtin;
        let _guard = crate::par::test_lock();
        let t = builtin::by_name("c99").unwrap();
        let sub = t.find_operator("-.f64").unwrap();
        let sqrt = t.find_operator("sqrt.f64").unwrap();
        let add = t.find_operator("+.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), FpType::Binary64);
        let naive = FloatExpr::Op(
            sub,
            vec![
                FloatExpr::Op(
                    sqrt,
                    vec![FloatExpr::Op(
                        add,
                        vec![x.clone(), FloatExpr::literal(1.0, FpType::Binary64)],
                    )],
                ),
                FloatExpr::Op(sqrt, vec![x]),
            ],
        );
        let vars = [Symbol::new("x")];
        // A fixed, irregularly sized sample set spanning many magnitudes (not
        // a multiple of the block width, so the ragged tail is exercised).
        let rows: Vec<Vec<f64>> = (0..257)
            .map(|i| vec![10f64.powf((i % 31) as f64 / 2.0) * (1.0 + i as f64 * 1e-3)])
            .collect();
        let truths: Vec<f64> = rows
            .iter()
            .map(|p| {
                let x = p[0];
                1.0 / ((x + 1.0).sqrt() + x.sqrt())
            })
            .collect();
        let points = Columns::from_rows(1, &rows);
        crate::par::set_thread_count(1);
        let serial = mean_bits_of_error(&t, &naive, &vars, &points, &truths, FpType::Binary64);
        for threads in [2, 3, 8] {
            crate::par::set_thread_count(threads);
            let parallel =
                mean_bits_of_error(&t, &naive, &vars, &points, &truths, FpType::Binary64);
            assert_eq!(
                serial.to_bits(),
                parallel.to_bits(),
                "mean error differs at {threads} threads: {serial} vs {parallel}"
            );
        }
        crate::par::set_thread_count(0);
    }
}
