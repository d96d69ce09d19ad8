//! Differential property tests: the bytecode evaluator vs. the tree-walk
//! interpreter.
//!
//! The compiled path ([`targets::compile`]) claims *bit identity* with the
//! reference semantics ([`targets::eval_float_expr_in`]) — that is what lets
//! the accuracy hot loops swap evaluators without perturbing a single search
//! decision. These tests generate random `FloatExpr`s over **every builtin
//! target** (random operators of both precisions, comparisons, conditionals)
//! and evaluate both paths on shared points that include NaN, both
//! infinities, signed zeros, and subnormals, asserting equality of the bit
//! patterns through [`semantic_bits`].
//!
//! `semantic_bits` canonicalizes NaNs (and nothing else) before comparing:
//! IEEE 754 §6.3 leaves the sign and payload of a NaN produced by an
//! arithmetic operation unspecified, and LLVM exploits that latitude — e.g.
//! commuting the operands of an auto-vectorized `fmul` changes *which* input
//! NaN x86 propagates, flipping the result's sign bit at exactly
//! vector-multiple block widths in release builds. Every numeric fact the
//! search consumes (costs, errors, regime decisions) is NaN-sign-blind, so
//! the engines' bit-identity contract is: identical bits for every non-NaN
//! value (signed zeros and subnormals included), any NaN matched by any NaN.
//!
//! Cases come from the workspace's deterministic RNG, so every run exercises
//! the same expressions and failures reproduce exactly.

use chassis::rng::Rng;
use fpcore::eval::semantic_bits;
use fpcore::{FpType, RealOp, Symbol};
use targets::{analysis, builtin, eval_float_expr_in, Columns, FloatExpr, SliceEnv, Target};

/// Input values that exercise every float class the evaluators can disagree
/// on, plus a couple of benign magnitudes.
const SPECIALS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -1.5,
    0.5,
    1e300,
    -1e300,
    1e-308, // subnormal after binary32 rounding, normal in binary64
    5e-324, // smallest positive subnormal
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    std::f64::consts::PI,
];

fn arb_value(rng: &mut Rng) -> f64 {
    if rng.below(2) == 0 {
        SPECIALS[rng.below(SPECIALS.len() as u64) as usize]
    } else {
        // A finite value spanning many magnitudes, either sign.
        let magnitude = 10f64.powf(rng.range_f64(-10.0, 10.0));
        if rng.below(2) == 0 {
            magnitude
        } else {
            -magnitude
        }
    }
}

/// A random program over `x` and `y` whose result has representation `ty`,
/// using only operators the target actually provides at that type.
fn arb_float_expr(rng: &mut Rng, target: &Target, ty: FpType, depth: usize) -> FloatExpr {
    let ops_at: Vec<_> = target
        .operator_ids()
        .filter(|id| target.operator(*id).ret_type == ty)
        .collect();
    if depth == 0 || ops_at.is_empty() || rng.below(4) == 0 {
        return match rng.below(3) {
            0 => FloatExpr::Var(Symbol::new("x"), ty),
            1 => FloatExpr::Var(Symbol::new("y"), ty),
            _ => FloatExpr::literal(arb_value(rng), ty),
        };
    }
    // Mostly operator applications, sometimes a comparison-guarded branch.
    if rng.below(6) == 0 {
        let cmp = [
            RealOp::Lt,
            RealOp::Gt,
            RealOp::Le,
            RealOp::Ge,
            RealOp::Eq,
            RealOp::Ne,
        ][rng.below(6) as usize];
        return FloatExpr::If(
            Box::new(FloatExpr::Cmp(
                cmp,
                Box::new(arb_float_expr(rng, target, ty, depth - 1)),
                Box::new(arb_float_expr(rng, target, ty, depth - 1)),
            )),
            Box::new(arb_float_expr(rng, target, ty, depth - 1)),
            Box::new(arb_float_expr(rng, target, ty, depth - 1)),
        );
    }
    let id = ops_at[rng.below(ops_at.len() as u64) as usize];
    let arg_types = target.operator(id).arg_types.clone();
    let args = arg_types
        .iter()
        .map(|arg_ty| arb_float_expr(rng, target, *arg_ty, depth - 1))
        .collect();
    FloatExpr::Op(id, args)
}

#[test]
fn bytecode_is_bit_identical_to_tree_walk_on_every_builtin_target() {
    let vars = [Symbol::new("x"), Symbol::new("y")];
    for target in builtin::all_targets() {
        let mut rng = Rng::new(0xB17E_C0DE_u64 ^ target.name.len() as u64);
        let mut checked = 0usize;
        for case in 0..60 {
            let ty = if rng.below(3) == 0 {
                FpType::Binary32
            } else {
                FpType::Binary64
            };
            let expr = arb_float_expr(&mut rng, &target, ty, 4);
            let program = targets::compile(&target, &expr);
            let columns = program.bind_columns(&vars);
            let mut regs = program.new_regs();
            for _ in 0..12 {
                let point = [arb_value(&mut rng), arb_value(&mut rng)];
                let tree = eval_float_expr_in(&target, &expr, &SliceEnv::new(&vars, &point));
                let byte = program.eval_point(&columns, &point, &mut regs);
                assert_eq!(
                    semantic_bits(tree),
                    semantic_bits(byte),
                    "target {}, case {case}, point {point:?}: tree walk {tree:?} \
                     vs bytecode {byte:?} for {}",
                    target.name,
                    expr.render(&target)
                );
                checked += 1;
            }
        }
        assert!(checked >= 700, "target {} exercised {checked}", target.name);
    }
}

#[test]
fn batch_and_single_point_entry_points_agree() {
    let target = builtin::by_name("vdt").unwrap();
    let mut rng = Rng::new(0xBA7C4);
    let vars = [Symbol::new("x"), Symbol::new("y")];
    for _ in 0..20 {
        let expr = arb_float_expr(&mut rng, &target, FpType::Binary64, 3);
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|_| vec![arb_value(&mut rng), arb_value(&mut rng)])
            .collect();
        let batch = targets::eval_batch(&target, &expr, &vars, &Columns::from_rows(2, &rows));
        for (point, batched) in rows.iter().zip(batch) {
            let single = eval_float_expr_in(&target, &expr, &SliceEnv::new(&vars, point));
            assert_eq!(semantic_bits(single), semantic_bits(batched));
        }
    }
}

/// The block engine claims bit identity with the scalar bytecode engine and
/// the tree walk at *every* block width. Exercise random programs over every
/// builtin target on a batch whose length (67) is a multiple of none of the
/// tested widths — so each width runs its ragged tail — with inputs that
/// include NaN, infinities, signed zeros, and subnormals. Each program runs
/// both as compiled and after `analysis::optimize`, the form production
/// evaluates: register compaction must stay bit-identical on programs with
/// selects, which no corpus benchmark contains.
#[test]
fn block_engine_is_bit_identical_at_every_block_size() {
    const BATCH: usize = 67;
    let vars = [Symbol::new("x"), Symbol::new("y")];
    for target in builtin::all_targets() {
        let mut rng = Rng::new(0x0B10_C0DE_u64 ^ target.name.len() as u64);
        for case in 0..20 {
            let ty = if rng.below(3) == 0 {
                FpType::Binary32
            } else {
                FpType::Binary64
            };
            let expr = arb_float_expr(&mut rng, &target, ty, 4);
            let rows: Vec<Vec<f64>> = (0..BATCH)
                .map(|_| vec![arb_value(&mut rng), arb_value(&mut rng)])
                .collect();
            let points = Columns::from_rows(2, &rows);
            let program = targets::compile(&target, &expr);
            let columns = program.bind_columns(&vars);
            // Reference: the tree walk and the scalar bytecode engine.
            let mut regs = program.new_regs();
            for (i, point) in rows.iter().enumerate() {
                let tree = eval_float_expr_in(&target, &expr, &SliceEnv::new(&vars, point));
                let scalar = program.eval_point(&columns, point, &mut regs);
                assert_eq!(
                    semantic_bits(tree),
                    semantic_bits(scalar),
                    "scalar bytecode diverges from tree walk on {} case {case} point {i}",
                    target.name
                );
            }
            let reference: Vec<u64> = rows
                .iter()
                .map(|point| {
                    semantic_bits(eval_float_expr_in(
                        &target,
                        &expr,
                        &SliceEnv::new(&vars, point),
                    ))
                })
                .collect();
            // Block mode at degenerate (1), odd (3), default (64), and
            // whole-batch widths, for the compiled and the optimized form.
            let (optimized, _) = analysis::optimize(&program);
            for (form, program) in [("compiled", &program), ("optimized", &optimized)] {
                let columns = program.bind_columns(&vars);
                for width in [1usize, 3, 64, BATCH] {
                    let mut block_regs = program.new_block_regs(width);
                    let mut out = vec![0.0; BATCH];
                    program.eval_range(&columns, &points, 0, &mut block_regs, &mut out);
                    for (i, (got, want)) in out.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            semantic_bits(*got),
                            *want,
                            "{form} program at block width {width} diverges on {} case \
                             {case} point {i} ({:?}) for {}",
                            target.name,
                            rows[i],
                            expr.render(&target)
                        );
                    }
                }
            }
        }
    }
}

/// The accuracy pipeline (`mean_bits_of_error`) runs on the compiled path;
/// recomputing it with the tree-walk interpreter must give the same bits.
#[test]
fn mean_error_on_compiled_path_matches_tree_walk_recomputation() {
    use chassis::accuracy::{bits_of_error, mean_bits_of_error};
    let vars = [Symbol::new("x"), Symbol::new("y")];
    for name in ["c99", "avx", "arith-fma"] {
        let target = builtin::by_name(name).unwrap();
        let mut rng = Rng::new(0xACC);
        for _ in 0..10 {
            let expr = arb_float_expr(&mut rng, &target, FpType::Binary64, 4);
            // A batch length that is not a multiple of the default block
            // width, so the mean runs through the ragged tail path too.
            let rows: Vec<Vec<f64>> = (0..97)
                .map(|_| vec![arb_value(&mut rng), arb_value(&mut rng)])
                .collect();
            // Ground truths do not need to be true values for this test — any
            // reference works, including specials.
            let truths: Vec<f64> = (0..97).map(|_| arb_value(&mut rng)).collect();
            let points = Columns::from_rows(2, &rows);
            let compiled =
                mean_bits_of_error(&target, &expr, &vars, &points, &truths, FpType::Binary64);
            let tree: f64 = rows
                .iter()
                .zip(&truths)
                .map(|(point, truth)| {
                    let out = eval_float_expr_in(&target, &expr, &SliceEnv::new(&vars, point));
                    bits_of_error(out, *truth, FpType::Binary64)
                })
                .sum::<f64>()
                / points.len() as f64;
            assert_eq!(
                semantic_bits(compiled),
                semantic_bits(tree),
                "accuracy diverges on {name} for {}",
                expr.render(&target)
            );
        }
    }
}
