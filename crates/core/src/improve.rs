//! The iterative improvement loop (paper Section 5.2).
//!
//! Each iteration picks Pareto-optimal candidates that have not yet been
//! explored, uses the local-error and cost-opportunity heuristics to choose a
//! small set of subexpressions, runs instruction selection modulo equivalence on
//! each, substitutes the extracted variants back into the candidate, and keeps
//! the Pareto-optimal results.

// On the `compile_many` call path: budget cuts and caught panics are the
// only ways out of the loop, never an unwrap (docs/RESILIENCE.md).
#![deny(clippy::unwrap_used, clippy::expect_used)]
use crate::accuracy;
use crate::cost_opportunity::cost_opportunities;
use crate::isel::{InstructionSelector, IselConfig, TargetRules};
use crate::local_error::{local_errors_cached, ScoredSubexpr};
use crate::par;
use crate::pareto::ParetoFrontier;
use crate::sample::{GroundTruthCache, SampleSet};
use crate::session::{Phase, Progress, SearchCtx};
use fpcore::{FpType, Symbol};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use targets::{program_cost, FloatExpr, Target};

/// Configuration of the improvement loop.
#[derive(Clone, Debug)]
pub struct ImproveConfig {
    /// Number of loop iterations (the paper runs a fixed number).
    pub iterations: usize,
    /// How many unexplored frontier candidates are expanded per iteration.
    pub candidates_per_iteration: usize,
    /// How many subexpressions are rewritten per candidate.
    pub subexprs_per_candidate: usize,
    /// Limits for each instruction-selection run.
    pub isel: IselConfig,
}

impl Default for ImproveConfig {
    fn default() -> Self {
        ImproveConfig {
            iterations: 3,
            candidates_per_iteration: 2,
            subexprs_per_candidate: 2,
            isel: IselConfig::default(),
        }
    }
}

/// A candidate program with its measured statistics.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The program.
    pub expr: FloatExpr,
    /// Estimated cost under the target cost model.
    pub cost: f64,
    /// Mean bits of error on the training points.
    pub error_bits: f64,
}

/// Replaces the first occurrence of `needle` in `expr` with `replacement`.
pub fn replace_subexpr(
    expr: &FloatExpr,
    needle: &FloatExpr,
    replacement: &FloatExpr,
) -> Option<FloatExpr> {
    if expr == needle {
        return Some(replacement.clone());
    }
    match expr {
        FloatExpr::Num(_, _) | FloatExpr::Var(_, _) => None,
        FloatExpr::Op(id, args) => {
            for (i, arg) in args.iter().enumerate() {
                if let Some(new_arg) = replace_subexpr(arg, needle, replacement) {
                    let mut new_args = args.clone();
                    new_args[i] = new_arg;
                    return Some(FloatExpr::Op(*id, new_args));
                }
            }
            None
        }
        FloatExpr::Cmp(op, a, b) => {
            if let Some(na) = replace_subexpr(a, needle, replacement) {
                return Some(FloatExpr::Cmp(*op, Box::new(na), b.clone()));
            }
            replace_subexpr(b, needle, replacement)
                .map(|nb| FloatExpr::Cmp(*op, a.clone(), Box::new(nb)))
        }
        FloatExpr::If(c, t, e) => {
            if let Some(nc) = replace_subexpr(c, needle, replacement) {
                return Some(FloatExpr::If(Box::new(nc), t.clone(), e.clone()));
            }
            if let Some(nt) = replace_subexpr(t, needle, replacement) {
                return Some(FloatExpr::If(c.clone(), Box::new(nt), e.clone()));
            }
            replace_subexpr(e, needle, replacement)
                .map(|ne| FloatExpr::If(c.clone(), t.clone(), Box::new(ne)))
        }
    }
}

/// Combines the local-error and cost-opportunity rankings into one list of
/// subexpressions worth rewriting (best first).
fn choose_subexpressions(
    errors: &[ScoredSubexpr],
    opportunities: &[ScoredSubexpr],
    how_many: usize,
) -> Vec<FloatExpr> {
    // Normalize each ranking to [0, 1] and sum the scores per subexpression.
    let mut combined: Vec<(FloatExpr, f64)> = Vec::new();
    let mut add = |list: &[ScoredSubexpr]| {
        let max = list
            .iter()
            .map(|s| s.score)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        for s in list {
            let normalized = s.score / max;
            match combined.iter_mut().find(|(e, _)| *e == s.expr) {
                Some((_, total)) => *total += normalized,
                None => combined.push((s.expr.clone(), normalized)),
            }
        }
    };
    add(errors);
    add(opportunities);
    combined.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    combined
        .into_iter()
        .filter(|(_, score)| *score > 0.0)
        .take(how_many)
        .map(|(e, _)| e)
        .collect()
}

/// Runs the iterative improvement loop starting from `initial`, returning the
/// final Pareto frontier of candidates (scored on the training points).
/// `rules` must have been built for `target`.
///
/// Silent and unbounded; see [`improve_with`] for the session entry point
/// with progress reporting and a budget.
pub fn improve(
    target: &Target,
    rules: &TargetRules,
    initial: FloatExpr,
    samples: &SampleSet,
    var_types: &HashMap<Symbol, FpType>,
    config: &ImproveConfig,
) -> ParetoFrontier<Candidate> {
    improve_with(
        target,
        rules,
        initial,
        samples,
        var_types,
        config,
        &SearchCtx::detached(),
    )
}

/// The improvement loop under a [`SearchCtx`]: every frontier admission and
/// iteration start is reported through the context's [`Progress`] observer,
/// the context's [`Budget`](crate::session::Budget) is checked before each
/// iteration and before each instruction-selection run (the expensive step),
/// and the session's shared ground-truth cache feeds the local-error
/// heuristic.
///
/// Within one iteration the two expensive stages fan out over
/// [`chassis::par`](crate::par):
///
/// 1. each expansion candidate's analysis (local error + cost opportunities)
///    and instruction-selection saturation runs on its own worker, producing
///    an ordered batch of rewritten programs;
/// 2. the batches are flattened **in candidate order** and every new program
///    is scored on the training points in parallel, again in order.
///
/// Admission to the frontier is then serial, in exactly the order the serial
/// loop would have produced — and scoring itself is bit-identical at every
/// thread count (the block engine guarantees this per program) — so with an
/// unlimited budget the resulting frontier is bit-identical to [`improve`]
/// whatever the thread count. A wall-clock budget is the one exception:
/// whether the mid-iteration cut fires depends on machine speed (as in the
/// serial loop), and under parallelism each candidate's worker observes the
/// deadline independently.
///
/// When the budget runs out the loop stops and returns the frontier found so
/// far — the initial program is inserted before the first iteration, so the
/// result is never empty. A fired [`CancelToken`](crate::CancelToken) cuts at
/// exactly the same points (it is folded into the context's `out_of_time`
/// check), so cancellation degrades identically — and, like the wall-clock
/// cut, trades determinism for latency only once it actually fires.
pub fn improve_with(
    target: &Target,
    rules: &TargetRules,
    initial: FloatExpr,
    samples: &SampleSet,
    var_types: &HashMap<Symbol, FpType>,
    config: &ImproveConfig,
    ctx: &SearchCtx,
) -> ParetoFrontier<Candidate> {
    let selector = InstructionSelector::new(target, rules, config.isel);
    let mut frontier: ParetoFrontier<Candidate> = ParetoFrontier::new();
    let mut explored: HashSet<String> = HashSet::new();
    let truths = ctx
        .truths()
        .cloned()
        .unwrap_or_else(|| GroundTruthCache::for_training(samples));

    let evaluate = |expr: &FloatExpr| -> Candidate {
        let cost = program_cost(target, expr);
        let (error_bits, _) = accuracy::evaluate_on_train(target, expr, samples);
        ctx.note_scored(1);
        Candidate {
            expr: expr.clone(),
            cost,
            error_bits,
        }
    };

    let admit = |frontier: &mut ParetoFrontier<Candidate>, candidate: Candidate| {
        let (cost, error_bits) = (candidate.cost, candidate.error_bits);
        if frontier.insert(cost, error_bits, candidate) {
            ctx.emit(Progress::FrontierPointAdmitted { cost, error_bits });
        }
    };

    admit(&mut frontier, evaluate(&initial));

    for iteration in 0..config.iterations {
        if ctx.iteration_barred(iteration) || ctx.out_of_time() {
            ctx.emit(Progress::BudgetExhausted {
                phase: Phase::Improve,
                iterations_completed: iteration,
            });
            break;
        }
        ctx.emit(Progress::ImproveIteration {
            iteration,
            frontier_size: frontier.len(),
        });
        // Pick unexplored candidates, preferring the most accurate and cheapest.
        let mut to_expand: Vec<Candidate> = Vec::new();
        for (_, _, candidate) in frontier.iter() {
            let key = candidate.expr.render(target);
            if !explored.contains(&key) {
                to_expand.push(candidate.clone());
            }
            if to_expand.len() >= config.candidates_per_iteration {
                break;
            }
        }
        if to_expand.is_empty() {
            break;
        }
        for candidate in &to_expand {
            explored.insert(candidate.expr.render(target));
        }

        // Stage 1: analyse and saturate each expansion candidate on its own
        // worker. Each worker produces its rewritten programs in the order the
        // serial loop would have (subexpression rank, then extraction order),
        // and `par_map` reassembles the batches in candidate order.
        let batches: Vec<(Vec<FloatExpr>, bool)> = par::par_map(&to_expand, |candidate| {
            let errors = local_errors_cached(target, &candidate.expr, samples, &truths);
            let opportunities = cost_opportunities(target, rules, &candidate.expr, var_types);
            let chosen =
                choose_subexpressions(&errors, &opportunities, config.subexprs_per_candidate);
            // Fall back to the whole program when no subexpression stands out.
            let chosen = if chosen.is_empty() {
                vec![candidate.expr.clone()]
            } else {
                chosen
            };
            let mut programs: Vec<FloatExpr> = Vec::new();
            let mut ran_out = false;
            for subexpr in chosen {
                // The budget's mid-iteration cut point: each saturation run is
                // the expensive step, so a long search degrades gracefully by
                // keeping what this iteration already produced.
                if ctx.out_of_time() {
                    ran_out = true;
                    break;
                }
                let ty = subexpr.result_type(target);
                let real = subexpr.desugar(target);
                let started = Instant::now();
                let result = selector.run(&real, var_types, ty);
                ctx.note_saturation(started.elapsed());
                for variant in result.candidates {
                    if variant == subexpr {
                        continue;
                    }
                    if let Some(new_program) = replace_subexpr(&candidate.expr, &subexpr, &variant)
                    {
                        programs.push(new_program);
                    }
                }
            }
            (programs, ran_out)
        });
        let ran_out = batches.iter().any(|(_, cut)| *cut);
        let new_programs: Vec<FloatExpr> = batches
            .into_iter()
            .flat_map(|(programs, _)| programs)
            .collect();

        // Stage 2: score every rewritten program in parallel (cost model +
        // training error on the block engine), then admit serially in the
        // deterministic flattened order.
        let new_candidates: Vec<Candidate> = par::par_map(&new_programs, |p| evaluate(p));
        for candidate in new_candidates {
            admit(&mut frontier, candidate);
        }
        if ran_out {
            ctx.emit(Progress::BudgetExhausted {
                phase: Phase::Improve,
                iterations_completed: iteration,
            });
            break;
        }
    }
    frontier
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::lower::{lower_fpcore, variable_types};
    use crate::sample::Sampler;
    use fpcore::parse_fpcore;
    use targets::builtin;

    fn small_config() -> ImproveConfig {
        ImproveConfig {
            iterations: 2,
            candidates_per_iteration: 1,
            subexprs_per_candidate: 2,
            isel: IselConfig {
                node_limit: 3_000,
                iter_limit: 4,
                max_candidates: 20,
            },
        }
    }

    #[test]
    fn replace_subexpr_replaces_first_occurrence() {
        let t = builtin::by_name("c99").unwrap();
        let core = parse_fpcore("(FPCore (x) (+ (sqrt x) (sqrt x)))").unwrap();
        let prog = lower_fpcore(&core, &t).unwrap();
        let sqrt_x = match &prog {
            FloatExpr::Op(_, args) => args[0].clone(),
            _ => panic!("unexpected lowering"),
        };
        let replacement = FloatExpr::Var(Symbol::new("x"), FpType::Binary64);
        let replaced = replace_subexpr(&prog, &sqrt_x, &replacement).unwrap();
        assert!(replaced.size() < prog.size());
        // A needle that does not occur anywhere is not replaced.
        let absent = FloatExpr::literal(42.0, FpType::Binary64);
        assert!(replace_subexpr(&prog, &absent, &replacement).is_none());
    }

    #[test]
    fn improves_accuracy_of_cancellation_prone_expression() {
        // sqrt(x+1) - sqrt(x) for large x: the loop should find a rewriting that
        // is substantially more accurate than the direct lowering.
        let t = builtin::by_name("c99").unwrap();
        let core = parse_fpcore(
            "(FPCore (x) :pre (and (> x 1e8) (< x 1e15)) (- (sqrt (+ x 1)) (sqrt x)))",
        )
        .unwrap();
        let initial = lower_fpcore(&core, &t).unwrap();
        let samples = Sampler::new(42).sample(&core, 10, 4).unwrap();
        let vars = variable_types(&core);
        let rules = TargetRules::new(&t).unwrap();
        let frontier = improve(
            &t,
            &rules,
            initial.clone(),
            &samples,
            &vars,
            &small_config(),
        );
        assert!(!frontier.is_empty());
        let initial_error = accuracy::evaluate_on_train(&t, &initial, &samples).0;
        let best_error = frontier.most_accurate().unwrap().1;
        assert!(
            best_error + 5.0 < initial_error,
            "expected a large accuracy win: initial {initial_error:.1} bits, best {best_error:.1} bits"
        );
    }

    #[test]
    fn finds_cheaper_programs_on_avx() {
        // 1/x in binary32 on AVX: the frontier should contain the cheap rcp form
        // in addition to the exact division.
        let t = builtin::by_name("avx").unwrap();
        let core = parse_fpcore(
            "(FPCore ((! :precision binary32 x)) :precision binary32 :pre (> x 1e-3) (/ 1 x))",
        )
        .unwrap();
        let initial = lower_fpcore(&core, &t).unwrap();
        let samples = Sampler::new(3).sample(&core, 8, 4).unwrap();
        let vars = variable_types(&core);
        let rules = TargetRules::new(&t).unwrap();
        let frontier = improve(
            &t,
            &rules,
            initial.clone(),
            &samples,
            &vars,
            &small_config(),
        );
        let initial_cost = program_cost(&t, &initial);
        let cheapest = frontier.cheapest().unwrap();
        assert!(
            cheapest.0 < initial_cost,
            "expected a cheaper candidate than the division ({} vs {initial_cost})",
            cheapest.0
        );
        assert!(cheapest.2.expr.render(&t).contains("rcp.f32"));
        // The frontier keeps the accurate option too.
        assert!(frontier.len() >= 2);
    }
}
