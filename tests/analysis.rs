//! Corpus-wide property tests for the `targets::analysis` passes.
//!
//! The optimizer (liveness-driven register compaction) claims *bit
//! identity*: for every program it may only shrink the register slab, never
//! change a computed value. These tests check that claim over the whole benchmark
//! corpus on every builtin target, across all three engines — tree walk,
//! scalar bytecode, SoA block execution — at block widths 1, 3, 64, and
//! whole-batch. No corpus benchmark contains an `if`, so these programs hold
//! no `Select`; `tests/bytecode.rs` runs optimized random programs with
//! selects on the block engine. Comparisons go through [`semantic_bits`]:
//! NaN sign/payload is unspecified by IEEE 754 and varies with vectorized
//! codegen, so any NaN matches any NaN (see `tests/bytecode.rs` for the full
//! rationale). They also exercise the verifier's two public jobs end to end:
//! accepting every corpus program (fresh and optimized) and rejecting every
//! seeded invariant-breaking mutant.

use chassis::lower_fpcore;
use chassis::rng::Rng;
use fpcore::eval::semantic_bits;
use targets::analysis::{self, Mode};
use targets::{builtin, eval_float_expr_indexed, Columns};

/// Deterministic per-variable sample points: log-uniform magnitudes with
/// random signs, the corpus input distribution of the throughput bench.
fn sample_rows(rng: &mut Rng, n_vars: usize, n_points: usize) -> Vec<Vec<f64>> {
    (0..n_points)
        .map(|_| {
            (0..n_vars)
                .map(|_| {
                    let magnitude = 10f64.powf(rng.range_f64(-6.0, 6.0));
                    if rng.below(2) == 0 {
                        magnitude
                    } else {
                        -magnitude
                    }
                })
                .collect()
        })
        .collect()
}

/// The corpus-wide bit-identity and verifier-acceptance sweep. One test
/// rather than one per target: the corpus × target product is the unit the
/// optimizer's claim quantifies over.
#[test]
fn optimized_programs_are_bit_identical_on_every_engine() {
    const POINTS: usize = 24;
    // Width 1 and 3 keep some blocks partial, 64 matches the production
    // default, 0 (whole batch) exercises the single-block path.
    const WIDTHS: &[usize] = &[1, 3, 64, 0];
    let mut rng = Rng::new(0xA11A_1751);
    let mut cases = 0usize;
    for target in &builtin::all_targets() {
        for benchmark in benchsuite::all() {
            let core = benchmark.fpcore();
            let Ok(expr) = lower_fpcore(&core, target) else {
                continue;
            };
            cases += 1;
            let program = targets::compile(target, &expr);
            assert!(
                analysis::verify_with_target(&program, target, Mode::Ssa).is_empty(),
                "{} on {}: fresh program failed verification",
                benchmark.name,
                target.name
            );
            let (optimized, stats) = analysis::optimize(&program);
            assert!(
                analysis::verify_with_target(&optimized, target, Mode::Executable).is_empty(),
                "{} on {}: optimized program failed verification",
                benchmark.name,
                target.name
            );
            assert!(
                stats.regs_after <= stats.regs_before,
                "compaction must never grow the slab"
            );

            let vars = expr.variables();
            let rows = sample_rows(&mut rng, vars.len(), POINTS);
            let points = Columns::from_rows(vars.len(), &rows);
            let opt_columns = optimized.bind_columns(&vars);
            let mut opt_regs = optimized.new_regs();
            for (i, point) in rows.iter().enumerate() {
                let want = semantic_bits(eval_float_expr_indexed(target, &expr, &vars, point));
                let got = semantic_bits(optimized.eval_point(&opt_columns, point, &mut opt_regs));
                assert_eq!(
                    got, want,
                    "{} on {}: optimized scalar bytecode diverged at point {i}",
                    benchmark.name, target.name
                );
            }
            let mut out = vec![0.0f64; POINTS];
            for &width in WIDTHS {
                let width = if width == 0 { POINTS } else { width };
                let mut block_regs = optimized.new_block_regs(width);
                optimized.eval_range(&opt_columns, &points, 0, &mut block_regs, &mut out);
                for (i, (&got, point)) in out.iter().zip(&rows).enumerate() {
                    let want = semantic_bits(eval_float_expr_indexed(target, &expr, &vars, point));
                    assert_eq!(
                        semantic_bits(got),
                        want,
                        "{} on {}: block engine (width {width}) diverged at point {i}",
                        benchmark.name,
                        target.name
                    );
                }
            }
        }
    }
    assert!(
        cases > 100,
        "the sweep must cover the corpus ({cases} cases)"
    );
}

/// Every seeded invariant-breaking mutant of a compiled corpus program must
/// be rejected by the verifier. (The exhaustive sweep — every benchmark,
/// every target, many seeds — is the `lint_ir` CI gate; this is the
/// in-`cargo-test` smoke slice over one transcendental benchmark per
/// target.)
#[test]
fn verifier_rejects_seeded_mutants_of_corpus_programs() {
    let mut mutants = 0usize;
    for target in &builtin::all_targets() {
        let benchmark = benchsuite::all()
            .iter()
            .find(|b| lower_fpcore(&b.fpcore(), target).is_ok())
            .expect("some benchmark lowers onto every builtin target");
        let expr = lower_fpcore(&benchmark.fpcore(), target).unwrap();
        let program = targets::compile(target, &expr);
        for seed in 0..4u64 {
            for mutant in analysis::seeded_mutants(&program, seed) {
                mutants += 1;
                assert!(
                    !analysis::verify(&mutant.program, Mode::Ssa).is_empty(),
                    "{} on {}: mutant survived ({:?}: {})",
                    benchmark.name,
                    target.name,
                    mutant.kind,
                    mutant.description
                );
            }
        }
    }
    assert!(
        mutants > 50,
        "expected a real mutant population ({mutants})"
    );
}
