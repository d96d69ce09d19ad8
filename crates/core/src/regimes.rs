//! Regime inference: combining candidates with branch conditions.
//!
//! The paper inherits Herbie's regime-inference step (Section 2: "the sampling
//! and regime steps are shared with prior work"): different candidates can be
//! best on different parts of the input domain, so Chassis stitches them together
//! with an `if` on a single variable against a threshold. This implementation
//! considers single-variable threshold splits between pairs of Pareto-optimal
//! candidates and keeps a split only when it reduces the training error of the
//! most accurate known program by a meaningful margin.

// On the `compile_many` call path: regime inference degrades (returns
// `None`), it never unwraps (docs/RESILIENCE.md).
#![deny(clippy::unwrap_used, clippy::expect_used)]
use crate::improve::Candidate;
use crate::par;
use crate::pareto::ParetoFrontier;
use crate::sample::SampleSet;
use crate::session::{Phase, Progress, SearchCtx};
use fpcore::RealOp;
use targets::{program_cost, FloatExpr, Target};

/// Minimum improvement (mean bits of error) required to keep a branch.
const MIN_IMPROVEMENT_BITS: f64 = 0.5;

/// Candidate split thresholds for a variable: quantiles of its training values
/// plus a few universal anchors.
fn candidate_thresholds(values: &mut Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values.dedup();
    let mut out = vec![0.0, 1.0, -1.0];
    for q in [0.25, 0.5, 0.75] {
        if !values.is_empty() {
            let idx = ((values.len() - 1) as f64 * q) as usize;
            out.push(values[idx]);
        }
    }
    out.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    out.dedup();
    out
}

/// Attempts to improve on the most accurate candidate by branching between two
/// frontier candidates on one variable. Returns the branched program and its
/// (cost, mean error bits) when a worthwhile split exists.
pub fn infer_regimes(
    target: &Target,
    frontier: &ParetoFrontier<Candidate>,
    samples: &SampleSet,
) -> Option<(FloatExpr, f64, f64)> {
    infer_regimes_with(target, frontier, samples, &SearchCtx::detached())
}

/// [`infer_regimes`] under a [`SearchCtx`]: the wall-clock budget is checked
/// once before the per-candidate error sweeps and again at the start of each
/// variable's threshold scan, so an exhausted budget returns the best split
/// found so far (or `None`) instead of finishing the scan. A fired
/// [`CancelToken`](crate::CancelToken) cuts at the same two points. With an
/// unlimited budget and no cancellation this is [`infer_regimes`] exactly.
///
/// Both expensive stages fan out over [`chassis::par`](crate::par):
///
/// 1. each candidate's per-point error sweep (one bytecode compilation plus a
///    pass over the training points) runs on its own worker, results in
///    candidate order;
/// 2. each variable's threshold scan runs on its own worker, and the
///    per-variable winners are folded **in variable order** with the same
///    strict `<` the serial scan uses, so the selected split (and its
///    tie-breaking) is bit-identical to the serial scan at any thread count.
pub fn infer_regimes_with(
    target: &Target,
    frontier: &ParetoFrontier<Candidate>,
    samples: &SampleSet,
    ctx: &SearchCtx,
) -> Option<(FloatExpr, f64, f64)> {
    if frontier.len() < 2 || samples.train.is_empty() || samples.vars.is_empty() {
        return None;
    }
    let candidates: Vec<&Candidate> = frontier.iter().map(|(_, _, c)| c).collect();
    if ctx.out_of_time() {
        ctx.emit(Progress::BudgetExhausted {
            phase: Phase::Regimes,
            iterations_completed: 0,
        });
        return None;
    }
    // Cache per-point training errors for every candidate (the expensive
    // part), one candidate per worker, each on the block engine.
    let errors: Vec<Vec<f64>> = par::par_map(&candidates, |c| {
        crate::accuracy::per_point_errors(
            target,
            &c.expr,
            &samples.vars,
            &samples.train,
            &samples.train_truth,
            samples.output_type,
        )
    });
    let baseline = frontier.most_accurate()?;
    let baseline_error = baseline.1;

    // One independent threshold scan per variable. Each scan returns the
    // variable's best split under the serial scan's order (first strictly
    // better in (threshold, low, high) order wins), plus whether it was
    // skipped entirely because the budget expired before it started.
    type VarScan = (Option<(FloatExpr, f64, f64)>, bool);
    let scans: Vec<VarScan> = par::par_map_range(samples.vars.len(), |var_idx| {
        if ctx.out_of_time() {
            return (None, true);
        }
        let var = &samples.vars[var_idx];
        // The columnar layout hands us the variable's training values as
        // one contiguous slice — both for the threshold quantiles and the
        // split scan below.
        let column = samples.train.col(var_idx);
        let mut values: Vec<f64> = column.to_vec();
        let mut best: Option<(FloatExpr, f64, f64)> = None;
        for threshold in candidate_thresholds(&mut values) {
            for (i, low_candidate) in candidates.iter().enumerate() {
                for (j, high_candidate) in candidates.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    // Mean error when using candidate i below the threshold and j above.
                    let mut total = 0.0;
                    for (k, &value) in column.iter().enumerate() {
                        let err = if value < threshold {
                            errors[i][k]
                        } else {
                            errors[j][k]
                        };
                        total += err;
                    }
                    let mean = total / samples.train.len() as f64;
                    if mean + MIN_IMPROVEMENT_BITS < baseline_error
                        && best.as_ref().is_none_or(|(_, _, e)| mean < *e)
                    {
                        let branched = FloatExpr::If(
                            Box::new(FloatExpr::Cmp(
                                RealOp::Lt,
                                Box::new(FloatExpr::Var(*var, samples.output_type)),
                                Box::new(FloatExpr::literal(threshold, samples.output_type)),
                            )),
                            Box::new(low_candidate.expr.clone()),
                            Box::new(high_candidate.expr.clone()),
                        );
                        let cost = program_cost(target, &branched);
                        best = Some((branched, cost, mean));
                    }
                }
            }
        }
        (best, false)
    });

    // Fold the per-variable winners in variable order with the same strict
    // comparison, reproducing the serial scan's tie-breaking exactly.
    let mut best: Option<(FloatExpr, f64, f64)> = None;
    let mut completed = 0usize;
    let mut cut_short = false;
    for (scan, skipped) in scans {
        if skipped {
            cut_short = true;
            continue;
        }
        completed += 1;
        if let Some((branched, cost, mean)) = scan {
            if best.as_ref().is_none_or(|(_, _, e)| mean < *e) {
                best = Some((branched, cost, mean));
            }
        }
    }
    if cut_short {
        ctx.emit(Progress::BudgetExhausted {
            phase: Phase::Regimes,
            iterations_completed: completed,
        });
    }
    best
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::accuracy;
    use crate::lower::DirectLowering;
    use crate::sample::Sampler;
    use fpcore::{parse_expr, parse_fpcore, FpType};
    use targets::builtin;

    #[test]
    fn no_split_when_one_candidate_dominates_everywhere() {
        let t = builtin::by_name("c99").unwrap();
        let core = parse_fpcore("(FPCore (x) (+ x 1))").unwrap();
        let lowering = DirectLowering::new(&t);
        let prog = lowering.lower(&core.body, FpType::Binary64).unwrap();
        let samples = Sampler::new(9).sample(&core, 8, 2).unwrap();
        let mut frontier = ParetoFrontier::new();
        let (err, _) = accuracy::evaluate_on_train(&t, &prog, &samples);
        frontier.insert(
            program_cost(&t, &prog),
            err,
            Candidate {
                expr: prog,
                cost: 0.0,
                error_bits: err,
            },
        );
        assert!(infer_regimes(&t, &frontier, &samples).is_none());
    }

    #[test]
    fn splits_between_complementary_candidates() {
        // On (-1, 1), `x` computes |x| exactly on the non-negative half and
        // `(- x)` on the negative half; each gets the sign wrong on the
        // other half, so the right program branches on the sign of x.
        let t = builtin::by_name("c99").unwrap();
        let core = parse_fpcore("(FPCore (x) :pre (and (> x -1) (< x 1)) (fabs x))").unwrap();
        let samples = Sampler::new(17).sample(&core, 16, 4).unwrap();
        let lowering = DirectLowering::new(&t);
        let lower = |src: &str| {
            lowering
                .lower(&parse_expr(src).unwrap(), FpType::Binary64)
                .unwrap()
        };
        let errors_of = |expr: &FloatExpr| {
            accuracy::per_point_errors(
                &t,
                expr,
                &samples.vars,
                &samples.train,
                &samples.train_truth,
                samples.output_type,
            )
        };
        let (pos, neg) = (lower("x"), lower("(- x)"));
        let (pos_err, _) = accuracy::evaluate_on_train(&t, &pos, &samples);
        let (neg_err, _) = accuracy::evaluate_on_train(&t, &neg, &samples);
        assert_ne!(pos_err, neg_err, "the sample should not split evenly");
        // Costs ordered opposite to errors, so neither candidate dominates
        // and both stay on the frontier.
        let mut frontier = ParetoFrontier::new();
        for (expr, err) in [(pos.clone(), pos_err), (neg.clone(), neg_err)] {
            let cost = if err < pos_err.max(neg_err) { 2.0 } else { 1.0 };
            let candidate = Candidate {
                expr,
                cost,
                error_bits: err,
            };
            assert!(frontier.insert(cost, err, candidate));
        }

        let (branched, _, train_error) =
            infer_regimes(&t, &frontier, &samples).expect("complementary candidates split");
        assert!(
            train_error < pos_err.min(neg_err),
            "split error {train_error} vs candidates {pos_err} and {neg_err}"
        );
        let FloatExpr::If(cond, low, high) = &branched else {
            panic!("a split is a conditional: {branched:?}");
        };
        let FloatExpr::Cmp(RealOp::Lt, _, threshold) = cond.as_ref() else {
            panic!("a split compares a variable against a threshold: {cond:?}");
        };
        let FloatExpr::Num(threshold, _) = **threshold else {
            panic!("the threshold is a literal: {threshold:?}");
        };
        let (low, high) = (low.as_ref(), high.as_ref());
        assert!(
            (low, high) == (&pos, &neg) || (low, high) == (&neg, &pos),
            "the arms are the two candidates"
        );
        // The branched program runs on the block engine as one Select; at
        // every training point its error must be exactly the error of the
        // candidate its branch picks there.
        let (branched_errors, low_errors, high_errors) =
            (errors_of(&branched), errors_of(low), errors_of(high));
        for (k, &x) in samples.train.col(0).iter().enumerate() {
            let picked = if x < threshold {
                &low_errors
            } else {
                &high_errors
            };
            assert_eq!(
                branched_errors[k].to_bits(),
                picked[k].to_bits(),
                "training point {k} (x = {x})"
            );
        }
    }
}
