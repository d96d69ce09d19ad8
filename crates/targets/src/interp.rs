//! Interpreter for target-specific floating-point programs.
//!
//! The interpreter plays the role of the paper's dynamically linked operator
//! implementations: it executes every operator through its [`crate::Impl`] so the
//! accuracy consequences of approximate instructions (AVX `rcpps`, vdt `fast_*`)
//! are visible in the results, and it provides wall-clock measurement of a
//! program over a set of pre-sampled points (used for the cost-model validation
//! experiment, Figure 10).

use crate::block::Columns;
use crate::expr::FloatExpr;
use crate::operator::round_to_type;
use crate::target::Target;
use fpcore::eval::Bindings;
use fpcore::{RealOp, Symbol};
use std::time::{Duration, Instant};

/// A borrowed environment of parallel slices: `vars[i]` is bound to `vals[i]`.
///
/// Implements [`Bindings`], the shared environment abstraction also used by the
/// `fpcore` evaluator. The accuracy hot loop uses this instead of a per-point
/// `HashMap`: lookup is a linear scan, which beats hashing for the handful of
/// variables real expressions have, allocates nothing, and is trivially `Sync`.
#[derive(Clone, Copy, Debug)]
pub struct SliceEnv<'a> {
    vars: &'a [Symbol],
    vals: &'a [f64],
}

impl<'a> SliceEnv<'a> {
    /// Pairs `vars` with `vals` positionally (extra entries on either side are
    /// ignored, matching `zip` semantics).
    pub fn new(vars: &'a [Symbol], vals: &'a [f64]) -> SliceEnv<'a> {
        SliceEnv { vars, vals }
    }
}

impl Bindings for SliceEnv<'_> {
    fn value_of(&self, var: Symbol) -> Option<f64> {
        self.vars
            .iter()
            .position(|v| *v == var)
            .and_then(|i| self.vals.get(i).copied())
    }
}

/// Evaluates a program against a point given as a value slice parallel to
/// `vars` — the `Sync`-friendly entry point used by the accuracy hot loop.
pub fn eval_float_expr_indexed(
    target: &Target,
    expr: &FloatExpr,
    vars: &[Symbol],
    vals: &[f64],
) -> f64 {
    eval_float_expr_in(target, expr, &SliceEnv::new(vars, vals))
}

/// Evaluates a program against any [`Bindings`] implementation.
pub fn eval_float_expr_in<E: Bindings + ?Sized>(target: &Target, expr: &FloatExpr, env: &E) -> f64 {
    match expr {
        FloatExpr::Num(v, _) => *v,
        FloatExpr::Var(v, ty) => round_to_type(env.value_of(*v).unwrap_or(f64::NAN), *ty),
        FloatExpr::Op(id, args) => {
            let op = target.operator(*id);
            let vals: Vec<f64> = args
                .iter()
                .enumerate()
                .map(|(i, a)| {
                    let raw = eval_float_expr_in(target, a, env);
                    round_to_type(raw, op.arg_types[i])
                })
                .collect();
            op.execute(&vals)
        }
        FloatExpr::Cmp(op, a, b) => {
            let lhs = eval_float_expr_in(target, a, env);
            let rhs = eval_float_expr_in(target, b, env);
            let result = match op {
                RealOp::Lt => lhs < rhs,
                RealOp::Gt => lhs > rhs,
                RealOp::Le => lhs <= rhs,
                RealOp::Ge => lhs >= rhs,
                RealOp::Eq => lhs == rhs,
                RealOp::Ne => lhs != rhs,
                _ => panic!("{op} is not a comparison"),
            };
            if result {
                1.0
            } else {
                0.0
            }
        }
        FloatExpr::If(c, t, e) => {
            if eval_float_expr_in(target, c, env) != 0.0 {
                eval_float_expr_in(target, t, env)
            } else {
                eval_float_expr_in(target, e, env)
            }
        }
    }
}

/// Evaluates a program over a columnar batch of points without building
/// per-point environments.
///
/// Compiles the program to bytecode once ([`crate::compile::compile`]),
/// optimizes it ([`crate::analysis::optimize`]) and sweeps the batch in
/// blocks ([`crate::block`]), reusing one columnar register file throughout.
/// The results are bit-identical to calling [`eval_float_expr_indexed`] per
/// point.
pub fn eval_batch(
    target: &Target,
    expr: &FloatExpr,
    vars: &[Symbol],
    points: &Columns,
) -> Vec<f64> {
    let (program, _) = crate::analysis::optimize(&crate::compile::compile(target, expr));
    let columns = program.bind_columns(vars);
    let mut regs = program.new_block_regs(crate::block::block_width_for(points.len()));
    let mut out = vec![0.0; points.len()];
    program.eval_range(&columns, points, 0, &mut regs, &mut out);
    out
}

/// Measures the wall-clock time of evaluating `expr` over all `points`,
/// repeating the sweep `repeats` times and returning the fastest sweep (the
/// standard way to reduce scheduling noise).
///
/// The program is compiled to bytecode — and the columnar register file and
/// output buffer are allocated — once, outside the timed region: this
/// measures the steady-state per-point cost of the block engine, which is
/// what the cost-model validation (Figure 10) compares against.
pub fn measure_runtime(
    target: &Target,
    expr: &FloatExpr,
    vars: &[Symbol],
    points: &Columns,
    repeats: usize,
) -> Duration {
    // The optimized program is bit-identical by construction and occupies a
    // smaller register slab, so this is what production timing should see.
    let (program, _) = crate::analysis::optimize(&crate::compile::compile(target, expr));
    let columns = program.bind_columns(vars);
    let mut regs = program.new_block_regs(crate::block::block_width_for(points.len()));
    let mut out = vec![0.0; points.len()];
    let mut best = Duration::MAX;
    let mut sink = 0.0f64;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        program.eval_range(&columns, points, 0, &mut regs, &mut out);
        // Accumulate into a sink so the work cannot be optimized away.
        for &value in &out {
            sink += if value.is_finite() { value } else { 0.0 };
        }
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
        }
    }
    std::hint::black_box(sink);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::Operator;
    use fpcore::FpType::*;
    use std::collections::HashMap;

    fn target() -> Target {
        Target::new("t", "test").with_operators(vec![
            Operator::emulated("+.f64", &[Binary64, Binary64], Binary64, "(+ a0 a1)", 1.0),
            Operator::emulated("*.f64", &[Binary64, Binary64], Binary64, "(* a0 a1)", 1.0),
            Operator::emulated("exp.f64", &[Binary64], Binary64, "(exp a0)", 40.0),
            Operator::emulated("/.f32", &[Binary32, Binary32], Binary32, "(/ a0 a1)", 10.0),
        ])
    }

    fn env(bindings: &[(&str, f64)]) -> HashMap<Symbol, f64> {
        bindings.iter().map(|(n, v)| (Symbol::new(n), *v)).collect()
    }

    #[test]
    fn evaluates_operator_trees() {
        let t = target();
        let add = t.find_operator("+.f64").unwrap();
        let mul = t.find_operator("*.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), Binary64);
        // x*x + 1
        let prog = FloatExpr::Op(
            add,
            vec![
                FloatExpr::Op(mul, vec![x.clone(), x]),
                FloatExpr::literal(1.0, Binary64),
            ],
        );
        assert_eq!(eval_float_expr_in(&t, &prog, &env(&[("x", 3.0)])), 10.0);
        assert!(eval_float_expr_in(&t, &prog, &env(&[])).is_nan());
    }

    #[test]
    fn binary32_operators_round_operands_and_results() {
        let t = target();
        let div32 = t.find_operator("/.f32").unwrap();
        let prog = FloatExpr::Op(
            div32,
            vec![
                FloatExpr::Var(Symbol::new("x"), Binary32),
                FloatExpr::literal(3.0, Binary32),
            ],
        );
        let out = eval_float_expr_in(&t, &prog, &env(&[("x", 1.0)]));
        assert_eq!(out, (1.0f32 / 3.0f32) as f64);
    }

    #[test]
    fn conditionals_select_branch() {
        let t = target();
        let x = FloatExpr::Var(Symbol::new("x"), Binary64);
        let prog = FloatExpr::If(
            Box::new(FloatExpr::Cmp(
                RealOp::Lt,
                Box::new(x.clone()),
                Box::new(FloatExpr::literal(0.0, Binary64)),
            )),
            Box::new(FloatExpr::literal(-1.0, Binary64)),
            Box::new(FloatExpr::literal(1.0, Binary64)),
        );
        assert_eq!(eval_float_expr_in(&t, &prog, &env(&[("x", -2.0)])), -1.0);
        assert_eq!(eval_float_expr_in(&t, &prog, &env(&[("x", 2.0)])), 1.0);
    }

    #[test]
    fn batch_evaluation_matches_single() {
        let t = target();
        let exp = t.find_operator("exp.f64").unwrap();
        let prog = FloatExpr::Op(exp, vec![FloatExpr::Var(Symbol::new("x"), Binary64)]);
        let vars = [Symbol::new("x")];
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1]).collect();
        let points = Columns::from_rows(1, &rows);
        let batch = eval_batch(&t, &prog, &vars, &points);
        assert_eq!(batch.len(), 10);
        for (i, v) in batch.iter().enumerate() {
            assert_eq!(*v, (i as f64 * 0.1).exp());
        }
    }

    #[test]
    fn runtime_measurement_is_positive_and_scales() {
        let t = target();
        let exp = t.find_operator("exp.f64").unwrap();
        let add = t.find_operator("+.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), Binary64);
        let cheap = FloatExpr::Op(add, vec![x.clone(), x.clone()]);
        // A chain of exp calls is much more expensive than one addition.
        let mut costly = x.clone();
        for _ in 0..8 {
            costly = FloatExpr::Op(exp, vec![costly]);
        }
        let vars = [Symbol::new("x")];
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![(i as f64) * 1e-3]).collect();
        let points = Columns::from_rows(1, &rows);
        let cheap_time = measure_runtime(&t, &cheap, &vars, &points, 3);
        let costly_time = measure_runtime(&t, &costly, &vars, &points, 3);
        assert!(cheap_time > Duration::ZERO);
        assert!(costly_time > cheap_time);
    }
}
