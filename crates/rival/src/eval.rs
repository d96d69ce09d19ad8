//! Ground-truth evaluation of real expressions by precision escalation.
//!
//! Given an FPCore expression and exact floating-point inputs, the evaluator
//! computes an interval enclosure of the true real value at increasing working
//! precisions until the enclosure rounds to a single value of the target format
//! (binary32 or binary64). This mirrors the Rival library used by Herbie and
//! Chassis: the returned value is the *correctly rounded* result, which is the
//! reference every accuracy measurement in the compiler compares against.

use crate::bigfloat::{BigFloat, RoundMode};
use crate::functions as fun;
use crate::interval::{BoolInterval, Interval, IntervalError};
use fpcore::{Constant, Expr, FpType, RealOp, Symbol};
use std::collections::HashMap;

/// The result of ground-truth evaluation at a point.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum GroundTruth {
    /// The correctly rounded value in the target format (widened to `f64` for
    /// binary32 targets).
    Value(f64),
    /// The true result is a domain error (NaN under the paper's semantics).
    Nan,
    /// The evaluator could not decide the rounding even at its highest precision
    /// (the point is discarded from sampling, as in Herbie).
    Unsamplable,
}

impl GroundTruth {
    /// The numeric value, treating NaN results as `f64::NAN` and unsamplable
    /// points as `None`.
    pub fn value(&self) -> Option<f64> {
        match self {
            GroundTruth::Value(v) => Some(*v),
            GroundTruth::Nan => Some(f64::NAN),
            GroundTruth::Unsamplable => None,
        }
    }
}

/// Ground truth failed as a *whole* — not one discarded point, but a sweep
/// whose every attempt ended [`GroundTruth::Unsamplable`]. Following the Reval
/// paper, non-convergence is a first-class outcome of precision escalation
/// (the ladder topped out, it did not crash); this type is how callers report
/// it as a typed, recoverable error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TruthError {
    /// The precision ladder reached its highest rung without the enclosure
    /// rounding to a single value, at every point attempted.
    NonConverged {
        /// How many points failed to converge.
        points: usize,
        /// The top rung of the ladder (bits of working precision).
        max_precision: u32,
    },
}

impl std::fmt::Display for TruthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruthError::NonConverged {
                points,
                max_precision,
            } => write!(
                f,
                "ground truth did not converge at {points} point(s) \
                 (precision ladder tops out at {max_precision} bits)"
            ),
        }
    }
}

impl std::error::Error for TruthError {}

/// Intermediate evaluation failures at a fixed precision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EvalError {
    /// Definitely a NaN regardless of precision.
    Domain,
    /// Needs more precision (or is genuinely unbounded).
    Unbounded,
}

impl From<IntervalError> for EvalError {
    fn from(e: IntervalError) -> EvalError {
        match e {
            IntervalError::Domain => EvalError::Domain,
            IntervalError::Unbounded => EvalError::Unbounded,
        }
    }
}

/// A reusable ground-truth evaluator with a configurable precision ladder.
#[derive(Clone, Debug)]
pub struct Evaluator {
    precisions: Vec<u32>,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator {
            precisions: vec![96, 192, 384, 768, 1536],
        }
    }
}

impl Evaluator {
    /// An evaluator with the default precision ladder (96 up to 1536 bits).
    pub fn new() -> Evaluator {
        Evaluator::default()
    }

    /// An evaluator with a custom precision ladder.
    ///
    /// # Panics
    ///
    /// Panics if the ladder is empty.
    pub fn with_precisions(precisions: Vec<u32>) -> Evaluator {
        assert!(!precisions.is_empty(), "precision ladder cannot be empty");
        Evaluator { precisions }
    }

    /// Computes the correctly rounded value of `expr` at the given point.
    pub fn eval(&self, expr: &Expr, env: &[(Symbol, f64)], ty: FpType) -> GroundTruth {
        self.eval_counted(expr, env, ty).0
    }

    /// [`Evaluator::eval`], also returning the work it took: the interval
    /// node evaluations summed over the precision rungs it tried.
    pub fn eval_counted(
        &self,
        expr: &Expr,
        env: &[(Symbol, f64)],
        ty: FpType,
    ) -> (GroundTruth, u64) {
        // Chaos harness: an armed abort forces the ladder's own
        // non-convergence outcome without running it.
        if fault::point("rival.eval") {
            return (GroundTruth::Unsamplable, 0);
        }
        let env: HashMap<Symbol, Interval> = env
            .iter()
            .map(|(s, v)| (*s, Interval::point_f64(*v)))
            .collect();
        let mut evals = 0;
        for &prec in &self.precisions {
            match eval_interval(expr, &env, prec, &mut evals) {
                Err(EvalError::Domain) => return (GroundTruth::Nan, evals),
                Err(EvalError::Unbounded) => continue,
                Ok(interval) => {
                    if interval.has_nan() {
                        continue;
                    }
                    let (lo, hi) = round_to_type(&interval, ty);
                    // Numeric equality (rather than bit equality) so that an
                    // enclosure collapsing to [−0.0, +0.0] counts as decided.
                    if lo == hi {
                        return (GroundTruth::Value(lo), evals);
                    }
                    // Not yet decided; escalate precision.
                }
            }
        }
        (GroundTruth::Unsamplable, evals)
    }

    /// Evaluates a boolean expression (e.g. a precondition) at a point, returning
    /// `None` when the truth value cannot be decided.
    pub fn eval_bool(&self, expr: &Expr, env: &[(Symbol, f64)]) -> Option<bool> {
        let env: HashMap<Symbol, Interval> = env
            .iter()
            .map(|(s, v)| (*s, Interval::point_f64(*v)))
            .collect();
        for &prec in &self.precisions {
            match eval_bool_interval(expr, &env, prec, &mut 0) {
                Err(EvalError::Domain) => return Some(false),
                Err(EvalError::Unbounded) => continue,
                Ok(b) => {
                    if let Some(v) = b.definite() {
                        return Some(v);
                    }
                }
            }
        }
        None
    }

    /// The precision ladder used by this evaluator.
    pub fn precisions(&self) -> &[u32] {
        &self.precisions
    }
}

fn round_to_type(interval: &Interval, ty: FpType) -> (f64, f64) {
    match ty {
        FpType::Binary64 => (
            interval.lo.to_f64(RoundMode::Nearest),
            interval.hi.to_f64(RoundMode::Nearest),
        ),
        FpType::Binary32 => (
            interval.lo.to_f32(RoundMode::Nearest) as f64,
            interval.hi.to_f32(RoundMode::Nearest) as f64,
        ),
        FpType::Bool => (
            interval.lo.to_f64(RoundMode::Nearest),
            interval.hi.to_f64(RoundMode::Nearest),
        ),
    }
}

fn constant_interval(c: &Constant, prec: u32) -> Result<Interval, EvalError> {
    match c {
        Constant::Rational(r) => {
            let lo =
                BigFloat::from_rational(r.numerator(), r.denominator(), prec, RoundMode::Floor);
            let hi = BigFloat::from_rational(r.numerator(), r.denominator(), prec, RoundMode::Ceil);
            Ok(Interval::new(lo, hi))
        }
        Constant::Pi => {
            let v = fun::pi(prec + 8);
            Ok(widen_point(v, prec))
        }
        Constant::E => {
            let v = fun::euler(prec + 8);
            Ok(widen_point(v, prec))
        }
        Constant::Infinity => Ok(Interval::point(BigFloat::infinity(false))),
        Constant::NegInfinity => Ok(Interval::point(BigFloat::infinity(true))),
        Constant::Nan => Err(EvalError::Domain),
        Constant::Bool(b) => Ok(Interval::point(BigFloat::from_i64(if *b { 1 } else { 0 }))),
    }
}

fn widen_point(v: BigFloat, prec: u32) -> Interval {
    // Constants computed by `functions` are accurate to a couple of ulps; widen by
    // rounding down/up one step at the target precision.
    let lo = v.round_to(prec, RoundMode::Floor);
    let hi = v.round_to(prec, RoundMode::Ceil);
    let step = fun::mul_pow2(
        &BigFloat::from_i64(4),
        v.magnitude().unwrap_or(0) - prec as i64,
    );
    Interval::new(
        BigFloat::sub(&lo, &step, prec + 8, RoundMode::Floor),
        BigFloat::add(&hi, &step, prec + 8, RoundMode::Ceil),
    )
}

/// Evaluates `expr` over intervals at working precision `prec`, adding one to
/// `evals` per numeric node evaluated.
fn eval_interval(
    expr: &Expr,
    env: &HashMap<Symbol, Interval>,
    prec: u32,
    evals: &mut u64,
) -> Result<Interval, EvalError> {
    *evals += 1;
    match expr {
        Expr::Num(c) => constant_interval(c, prec),
        Expr::Var(v) => env.get(v).cloned().ok_or(EvalError::Domain),
        Expr::If(cond, then_branch, else_branch) => {
            let c = eval_bool_interval(cond, env, prec, evals)?;
            match c.definite() {
                Some(true) => eval_interval(then_branch, env, prec, evals),
                Some(false) => eval_interval(else_branch, env, prec, evals),
                None => Err(EvalError::Unbounded),
            }
        }
        Expr::Op(op, args) => {
            if op.is_predicate() {
                // A bare predicate in numeric position: treat true as 1, false as 0.
                let b = eval_bool_interval(expr, env, prec, evals)?;
                return match b.definite() {
                    Some(v) => Ok(Interval::point(BigFloat::from_i64(if v { 1 } else { 0 }))),
                    None => Err(EvalError::Unbounded),
                };
            }
            let vals: Vec<Interval> = args
                .iter()
                .map(|a| eval_interval(a, env, prec, evals))
                .collect::<Result<_, _>>()?;
            apply_real_op(*op, &vals, prec)
        }
    }
}

fn apply_real_op(op: RealOp, args: &[Interval], prec: u32) -> Result<Interval, EvalError> {
    use RealOp::*;
    let a = &args[0];
    let out = match op {
        Add => a.add(&args[1], prec),
        Sub => a.sub(&args[1], prec),
        Mul => a.mul(&args[1], prec),
        Div => a.div(&args[1], prec),
        Neg => Ok(a.neg()),
        Fabs => Ok(a.fabs()),
        Sqrt => a.sqrt(prec),
        Cbrt => a.cbrt(prec),
        Fma => a.fma(&args[1], &args[2], prec),
        Hypot => a.hypot(&args[1], prec),
        Pow => a.pow(&args[1], prec),
        Fmod => a.fmod(&args[1], prec),
        Fdim => a.fdim(&args[1], prec),
        Copysign => a.copysign(&args[1], prec),
        Fmin => a.fmin(&args[1], prec),
        Fmax => a.fmax(&args[1], prec),
        Floor => a.floor(prec),
        Ceil => a.ceil(prec),
        Round => a.round(prec),
        Trunc => a.trunc(prec),
        Exp => a.exp(prec),
        Exp2 => a.exp2(prec),
        Expm1 => a.expm1(prec),
        Log => a.log(prec),
        Log2 => a.log2(prec),
        Log10 => a.log10(prec),
        Log1p => a.log1p(prec),
        Sin => a.sin(prec),
        Cos => a.cos(prec),
        Tan => a.tan(prec),
        Asin => a.asin(prec),
        Acos => a.acos(prec),
        Atan => a.atan(prec),
        Atan2 => a.atan2(&args[1], prec),
        Sinh => a.sinh(prec),
        Cosh => a.cosh(prec),
        Tanh => a.tanh(prec),
        Asinh => a.asinh(prec),
        Acosh => a.acosh(prec),
        Atanh => a.atanh(prec),
        RealOp::Lt
        | RealOp::Gt
        | RealOp::Le
        | RealOp::Ge
        | RealOp::Eq
        | RealOp::Ne
        | RealOp::And
        | RealOp::Or
        | RealOp::Not => {
            unreachable!("predicates handled by eval_bool_interval")
        }
    };
    out.map_err(EvalError::from)
}

fn eval_bool_interval(
    expr: &Expr,
    env: &HashMap<Symbol, Interval>,
    prec: u32,
    evals: &mut u64,
) -> Result<BoolInterval, EvalError> {
    match expr {
        Expr::Num(Constant::Bool(b)) => Ok(BoolInterval::certain(*b)),
        Expr::Op(op, args) if op.is_comparison() => {
            let lhs = eval_interval(&args[0], env, prec, evals)?;
            let rhs = eval_interval(&args[1], env, prec, evals)?;
            Ok(match op {
                RealOp::Lt => lhs.lt(&rhs),
                RealOp::Gt => lhs.gt(&rhs),
                RealOp::Le => lhs.le(&rhs),
                RealOp::Ge => lhs.ge(&rhs),
                RealOp::Eq => lhs.eq_interval(&rhs),
                RealOp::Ne => lhs.eq_interval(&rhs).not(),
                _ => unreachable!(),
            })
        }
        Expr::Op(RealOp::And, args) => Ok(eval_bool_interval(&args[0], env, prec, evals)?
            .and(&eval_bool_interval(&args[1], env, prec, evals)?)),
        Expr::Op(RealOp::Or, args) => Ok(eval_bool_interval(&args[0], env, prec, evals)?
            .or(&eval_bool_interval(&args[1], env, prec, evals)?)),
        Expr::Op(RealOp::Not, args) => Ok(eval_bool_interval(&args[0], env, prec, evals)?.not()),
        Expr::If(cond, t, e) => {
            let c = eval_bool_interval(cond, env, prec, evals)?;
            match c.definite() {
                Some(true) => eval_bool_interval(t, env, prec, evals),
                Some(false) => eval_bool_interval(e, env, prec, evals),
                None => Ok(BoolInterval::unknown()),
            }
        }
        // Any numeric expression in boolean position: nonzero means true.
        _ => {
            let v = eval_interval(expr, env, prec, evals)?;
            Ok(v.eq_interval(&Interval::point_f64(0.0)).not())
        }
    }
}

/// Computes the correctly rounded value of `expr` at `env` in format `ty` using
/// the default precision ladder.
pub fn ground_truth(expr: &Expr, env: &[(Symbol, f64)], ty: FpType) -> GroundTruth {
    Evaluator::new().eval(expr, env, ty)
}

/// Computes the correctly rounded value with a caller-provided evaluator
/// (e.g. one with a shorter precision ladder for speed).
pub fn ground_truth_with(
    evaluator: &Evaluator,
    expr: &Expr,
    env: &[(Symbol, f64)],
    ty: FpType,
) -> GroundTruth {
    evaluator.eval(expr, env, ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpcore::parse_expr;

    fn gt(src: &str, bindings: &[(&str, f64)]) -> GroundTruth {
        let expr = parse_expr(src).unwrap();
        let env: Vec<(Symbol, f64)> = bindings.iter().map(|(n, v)| (Symbol::new(n), *v)).collect();
        ground_truth(&expr, &env, FpType::Binary64)
    }

    fn value(src: &str, bindings: &[(&str, f64)]) -> f64 {
        match gt(src, bindings) {
            GroundTruth::Value(v) => v,
            other => panic!("expected a value for {src}, got {other:?}"),
        }
    }

    #[test]
    fn node_evaluations_are_counted_per_rung() {
        let ev = Evaluator::new();
        let x = [(Symbol::new("x"), 1.0)];
        let counted = |src: &str| ev.eval_counted(&parse_expr(src).unwrap(), &x, FpType::Binary64);
        // Three nodes, decided on the first rung.
        assert_eq!(counted("(+ x 1)"), (GroundTruth::Value(2.0), 3));
        // An `if` evaluates itself, its condition's operands and the taken
        // branch.
        assert_eq!(counted("(if (< x 0) (- x) (* x x))").1, 1 + 2 + 3);
        // 1 + 1e-30 is not representable in 96 bits, so the difference is
        // only decided on the second rung: five nodes, twice.
        assert_eq!(counted("(- (+ x 1e-30) x)").1, 2 * 5);
    }

    #[test]
    fn simple_arithmetic_matches_f64() {
        assert_eq!(value("(+ 1 2)", &[]), 3.0);
        assert_eq!(value("(/ 1 4)", &[]), 0.25);
        assert_eq!(value("(* x x)", &[("x", 3.0)]), 9.0);
        assert_eq!(value("(sqrt 2)", &[]), 2.0_f64.sqrt());
    }

    #[test]
    fn correctly_rounds_inexact_results() {
        // 1/3 must round to the nearest double.
        assert_eq!(value("(/ 1 3)", &[]), 1.0 / 3.0);
        // 0.1 + 0.2 over the *reals* is 0.3, whose nearest double differs from the
        // floating-point sum 0.1f64 + 0.2f64.
        assert_eq!(value("(+ 1/10 2/10)", &[]), 0.3);
        assert_ne!(value("(+ 1/10 2/10)", &[]), 0.1 + 0.2);
    }

    #[test]
    fn catastrophic_cancellation_is_resolved_exactly() {
        // sqrt(x+1) - sqrt(x) at large x: the naive double evaluation loses most
        // of its digits; ground truth must match the accurate reformulation
        // 1 / (sqrt(x+1) + sqrt(x)).
        let x = 1e15;
        let truth = value("(- (sqrt (+ x 1)) (sqrt x))", &[("x", x)]);
        let accurate = 1.0 / ((x + 1.0).sqrt() + x.sqrt());
        assert_eq!(truth, accurate);
        let naive = (x + 1.0).sqrt() - x.sqrt();
        assert_ne!(truth, naive);
    }

    #[test]
    fn transcendental_ground_truth() {
        assert_eq!(value("(exp 1)", &[]), std::f64::consts::E);
        assert_eq!(value("(log E)", &[]), 1.0);
        assert!(value("(sin PI)", &[]).abs() < 1e-15);
        assert_eq!(value("(atan INFINITY)", &[]), std::f64::consts::FRAC_PI_2);
        // expm1 of a tiny number: the ground truth keeps the low-order bits.
        assert_eq!(value("(expm1 x)", &[("x", 1e-20)]), 1e-20);
    }

    #[test]
    fn domain_errors_are_nan() {
        assert_eq!(gt("(sqrt -1)", &[]), GroundTruth::Nan);
        assert_eq!(gt("(log x)", &[("x", -2.0)]), GroundTruth::Nan);
        assert_eq!(gt("(/ 1 0)", &[]), GroundTruth::Nan);
        assert_eq!(gt("(asin 2)", &[]), GroundTruth::Nan);
        assert_eq!(gt("NAN", &[]), GroundTruth::Nan);
    }

    #[test]
    fn conditionals_follow_ground_truth_branch() {
        assert_eq!(value("(if (< x 0) (- x) x)", &[("x", -3.0)]), 3.0);
        assert_eq!(value("(if (< x 0) (- x) x)", &[("x", 3.0)]), 3.0);
        // The condition compares exactly-representable values, so even an equality
        // test is decidable.
        assert_eq!(value("(if (== x 1) 10 20)", &[("x", 1.0)]), 10.0);
        assert_eq!(value("(if (== x 1) 10 20)", &[("x", 1.5)]), 20.0);
    }

    #[test]
    fn binary32_rounding() {
        let expr = parse_expr("(/ 1 3)").unwrap();
        let out = ground_truth(&expr, &[], FpType::Binary32);
        assert_eq!(out, GroundTruth::Value((1.0f32 / 3.0f32) as f64));
    }

    #[test]
    fn precondition_evaluation() {
        let ev = Evaluator::new();
        let pre = parse_expr("(and (> x 0) (< x 1))").unwrap();
        assert_eq!(ev.eval_bool(&pre, &[(Symbol::new("x"), 0.5)]), Some(true));
        assert_eq!(ev.eval_bool(&pre, &[(Symbol::new("x"), 2.0)]), Some(false));
    }

    #[test]
    fn infinities_propagate() {
        assert_eq!(value("(exp x)", &[("x", 1e9)]), f64::INFINITY);
        assert_eq!(value("(exp x)", &[("x", -1e9)]), 0.0);
        assert_eq!(value("(/ 1 x)", &[("x", f64::INFINITY)]), 0.0);
    }

    #[test]
    fn unbound_variable_is_nan() {
        assert_eq!(gt("(+ zz_unbound 1)", &[]), GroundTruth::Nan);
    }

    #[test]
    fn custom_precision_ladder() {
        let ev = Evaluator::with_precisions(vec![64]);
        let expr = parse_expr("(+ x 1)").unwrap();
        assert_eq!(
            ev.eval(&expr, &[(Symbol::new("x"), 2.0)], FpType::Binary64),
            GroundTruth::Value(3.0)
        );
        assert_eq!(ev.precisions(), &[64]);
    }
}
