//! Property-based tests of the core invariants, spanning crates:
//!
//! * the ground-truth evaluator agrees with plain `f64` evaluation on
//!   well-conditioned inputs,
//! * rewriting through the e-graph preserves the desugaring (real semantics),
//!   which is Chassis' central correctness property,
//! * ULP distance behaves like a metric on floats,
//! * the Pareto frontier never keeps a dominated point,
//! * Rival's ground truth over the corpus matches a pinned digest, directly
//!   and through the improve loop's ground-truth cache.
//!
//! Cases are generated from the workspace's own deterministic RNG
//! ([`chassis::rng::Rng`]) rather than proptest (unavailable offline), so every
//! run exercises the same cases and failures reproduce exactly.

use chassis::pareto::ParetoFrontier;
use chassis::rng::Rng;
use chassis::{Config, GroundTruthCache, Session};
use fpcore::eval::{env_from, eval_f64};
use fpcore::hash::ContentHasher;
use fpcore::{Expr, FpType, RealOp, Symbol};
use rival::{ground_truth, Evaluator, GroundTruth};
use std::collections::HashMap;
use targets::{builtin, eval_float_expr_in, Columns};

/// A small, well-conditioned arithmetic expression over `x` and `y`.
fn arb_expr(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        match rng.below(3) {
            0 => Expr::var("x"),
            1 => Expr::var("y"),
            _ => Expr::int(1 + rng.below(19) as i128),
        }
    } else {
        match rng.below(6) {
            0 => Expr::bin(
                RealOp::Add,
                arb_expr(rng, depth - 1),
                arb_expr(rng, depth - 1),
            ),
            1 => Expr::bin(
                RealOp::Sub,
                arb_expr(rng, depth - 1),
                arb_expr(rng, depth - 1),
            ),
            2 => Expr::bin(
                RealOp::Mul,
                arb_expr(rng, depth - 1),
                arb_expr(rng, depth - 1),
            ),
            3 => Expr::un(RealOp::Fabs, arb_expr(rng, depth - 1)),
            4 => Expr::un(RealOp::Neg, arb_expr(rng, depth - 1)),
            _ => Expr::un(
                RealOp::Sqrt,
                Expr::un(RealOp::Fabs, arb_expr(rng, depth - 1)),
            ),
        }
    }
}

/// A finite, normal (non-subnormal) f64 of either sign.
fn arb_normal(rng: &mut Rng) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if v.is_normal() {
            return v;
        }
    }
}

/// Ground truth and plain f64 evaluation agree to high relative accuracy on
/// small integer-valued inputs (where f64 rounding error stays tiny).
#[test]
fn ground_truth_matches_f64_on_benign_inputs() {
    let mut rng = Rng::new(0xC0FFEE);
    for _ in 0..24 {
        let expr = arb_expr(&mut rng, 3);
        let vars = [Symbol::new("x"), Symbol::new("y")];
        let values = [
            rng.range_f64(1.0, 8.0).round(),
            rng.range_f64(1.0, 8.0).round(),
        ];
        let env = env_from(&vars, &values);
        let direct = eval_f64(&expr, &env);
        let pairs: Vec<(Symbol, f64)> = vars.iter().copied().zip(values).collect();
        match ground_truth(&expr, &pairs, FpType::Binary64) {
            GroundTruth::Value(truth) => {
                let tol = 1e-9 * truth.abs().max(1.0);
                assert!(
                    (truth - direct).abs() <= tol,
                    "truth {truth} vs f64 {direct} for {expr}"
                );
            }
            GroundTruth::Nan => assert!(direct.is_nan() || direct.is_infinite()),
            GroundTruth::Unsamplable => {}
        }
    }
}

/// ULP distance is symmetric, zero only on equality, and positive on
/// inequality.
#[test]
fn ulp_distance_is_a_metric() {
    use chassis::accuracy::ulps_between;
    let mut rng = Rng::new(0xDECAF);
    for _ in 0..256 {
        let a = arb_normal(&mut rng);
        let b = arb_normal(&mut rng);
        let d_ab = ulps_between(a, b, FpType::Binary64);
        let d_ba = ulps_between(b, a, FpType::Binary64);
        assert_eq!(d_ab, d_ba, "asymmetric for {a} and {b}");
        assert_eq!(ulps_between(a, a, FpType::Binary64), 0);
        if a != b {
            assert!(d_ab > 0, "distinct values {a} and {b} at distance zero");
        }
    }
}

/// The Pareto frontier never retains a dominated point.
#[test]
fn pareto_frontier_has_no_dominated_points() {
    let mut rng = Rng::new(0xFACADE);
    for _ in 0..24 {
        let count = 1 + rng.below(39) as usize;
        let points: Vec<(f64, f64)> = (0..count)
            .map(|_| (rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)))
            .collect();
        let mut frontier = ParetoFrontier::new();
        for (i, (cost, error)) in points.iter().enumerate() {
            frontier.insert(*cost, *error, i);
        }
        let kept: Vec<(f64, f64)> = frontier.iter().map(|(c, e, _)| (c, e)).collect();
        for (i, a) in kept.iter().enumerate() {
            for (j, b) in kept.iter().enumerate() {
                if i != j {
                    let dominated = b.0 <= a.0 && b.1 <= a.1 && (b.0 < a.0 || b.1 < a.1);
                    assert!(!dominated, "{a:?} is dominated by {b:?}");
                }
            }
        }
    }
}

/// Desugaring preservation, the compiler's core guarantee: every program on
/// the output Pareto frontier evaluates (in floating point) close to the
/// ground-truth value of the *original* real expression, for expressions
/// where high accuracy is achievable.
#[test]
fn compiled_programs_preserve_the_desugaring() {
    let core =
        fpcore::parse_fpcore("(FPCore (x) :pre (and (> x 1) (< x 100)) (/ (- (* x x) 1) (+ x 1)))")
            .unwrap();
    let target = builtin::by_name("arith-fma").unwrap();
    let result = Session::new(Config::fast())
        .compile(&core, &target)
        .unwrap();
    let mut rng = Rng::new(0xBEEF);
    for _ in 0..6 {
        let x = rng.range_f64(2.0, 50.0);
        let env_pairs = vec![(Symbol::new("x"), x)];
        let GroundTruth::Value(truth) = ground_truth(&core.body, &env_pairs, FpType::Binary64)
        else {
            continue;
        };
        let env: HashMap<Symbol, f64> = env_pairs.into_iter().collect();
        for imp in &result.implementations {
            let out = eval_float_expr_in(&target, &imp.expr, &env);
            let rel = ((out - truth) / truth.abs().max(1e-300)).abs();
            assert!(rel < 1e-6, "{} gives {out}, truth {truth}", imp.rendered);
        }
    }
}

/// A point coordinate from the sampler's proposal mix: a quarter uniform over
/// finite bit patterns, a quarter in [-1e3, 1e3], half log-uniform in
/// magnitude over [1e-6, 1e6). A copy rather than a call, so that a sampler
/// change cannot move the digest below.
fn arb_coordinate(rng: &mut Rng, ty: FpType) -> f64 {
    let value = match rng.below(4) {
        0 => loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        },
        1 => rng.range_f64(-1e3, 1e3),
        _ => {
            let sign = if rng.below(4) == 0 { -1.0 } else { 1.0 };
            sign * 10f64.powf(rng.range_f64(-6.0, 6.0))
        }
    };
    match ty {
        FpType::Binary32 => f64::from(value as f32),
        _ => value,
    }
}

/// Rival's answers, pinned below the search: the correctly rounded body and
/// the decided `:pre` of every corpus benchmark at eight seeded points (drawn
/// without regard to the `:pre`), hashed into one digest. Integer division,
/// the big-float operations and the interval layer all feed it, so a kernel
/// change that alters any truth fails here before it reaches a frontier.
#[test]
fn corpus_ground_truth_digest_is_pinned() {
    const POINTS: u64 = 8;
    let evaluator = Evaluator::new();
    let mut hasher = ContentHasher::new();
    let mut tally = [0usize; 3];
    for (index, bench) in (0u64..).zip(benchsuite::all()) {
        let core = bench.fpcore();
        hasher.str(bench.name);
        for point in 0..POINTS {
            let mut rng = Rng::for_stream(0x6007_7207, index * POINTS + point);
            let env: Vec<(Symbol, f64)> = core
                .args
                .iter()
                .map(|&(name, ty)| (name, arb_coordinate(&mut rng, ty)))
                .collect();
            match evaluator.eval(&core.body, &env, core.precision) {
                GroundTruth::Value(v) => {
                    tally[0] += 1;
                    hasher.u64(0);
                    hasher.f64(v);
                }
                GroundTruth::Nan => {
                    tally[1] += 1;
                    hasher.u64(1);
                }
                GroundTruth::Unsamplable => {
                    tally[2] += 1;
                    hasher.u64(2);
                }
            }
            if let Some(pre) = &core.pre {
                hasher.u64(match evaluator.eval_bool(pre, &env) {
                    Some(false) => 0,
                    Some(true) => 1,
                    None => 2,
                });
            }
        }
    }
    assert_eq!(
        hasher.hex_digest(),
        "a953a9146dea1d882d10a81d4c43e016",
        "values/NaN/unsamplable: {tally:?}"
    );
}

/// Hashes one ground truth: a tag, then the value for a definite result.
fn hash_truth(hasher: &mut ContentHasher, truth: &GroundTruth) {
    match truth {
        GroundTruth::Value(v) => {
            hasher.u64(0);
            hasher.f64(*v);
        }
        GroundTruth::Nan => hasher.u64(1),
        GroundTruth::Unsamplable => hasher.u64(2),
    }
}

/// The improve loop's ground truths, pinned: for every corpus benchmark, a
/// [`GroundTruthCache`] over eight seeded points (drawn as in the digest
/// above) answers every subexpression of the body, in pre-order, at the
/// benchmark's precision. A 12-term alternating `+`/`-` chain of depth 13 is
/// added on its own cache. Every answer is hashed, so a change to how the
/// cache derives a truth on a miss, or to what it returns on a hit, fails here
/// before it reaches a frontier.
#[test]
fn ground_truth_cache_digest_is_pinned() {
    const POINTS: u64 = 8;
    let mut hasher = ContentHasher::new();
    let draw = |stream: u64, args: &[(Symbol, FpType)]| -> Columns {
        let rows: Vec<Vec<f64>> = (0..POINTS)
            .map(|point| {
                let mut rng = Rng::for_stream(0x6007_7207, stream * POINTS + point);
                args.iter()
                    .map(|&(_, ty)| arb_coordinate(&mut rng, ty))
                    .collect()
            })
            .collect();
        Columns::from_rows(args.len(), &rows)
    };
    let corpus = benchsuite::all();
    for (index, bench) in (0u64..).zip(corpus) {
        let core = bench.fpcore();
        hasher.str(bench.name);
        let cache = GroundTruthCache::new(core.arg_names(), draw(index, &core.args));
        for sub in core.body.subexpressions() {
            for truth in cache.ground_truths(sub, core.precision).iter() {
                hash_truth(&mut hasher, truth);
            }
        }
    }
    let mut chain = "(* x x)".to_string();
    for term in 1..12 {
        chain = if term % 2 == 1 {
            format!("(+ {chain} (/ x 3))")
        } else {
            format!("(- {chain} (* x x))")
        };
    }
    let chain = fpcore::parse_expr(&chain).unwrap();
    assert_eq!(chain.depth(), 13);
    let x = [(Symbol::new("x"), FpType::Binary64)];
    let cache = GroundTruthCache::new(vec![x[0].0], draw(corpus.len() as u64, &x));
    hasher.str("chain");
    for truth in cache.ground_truths(&chain, FpType::Binary64).iter() {
        hash_truth(&mut hasher, truth);
    }
    assert_eq!(hasher.hex_digest(), "2e08165dab92bf1c713e2da126e29c32");
}
