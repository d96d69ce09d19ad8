//! The cost-opportunity heuristic (paper Section 5.2, Figure 5).
//!
//! Cost opportunity predicts where rewriting could make a program *faster*: a
//! fast equality-saturation pass with only the simplifying rules (plus the
//! target's desugaring rules) computes the cheapest equivalent of every
//! subexpression; the opportunity of a node is the cost reduction of the node
//! minus the cost reductions already available to its children, so a node is not
//! credited for savings that belong to its arguments.

use crate::isel::TargetRules;
use crate::lang::{float_expr_to_rec, ChassisNode};
use crate::local_error::ScoredSubexpr;
use crate::typed_extract::TypedExtractor;
use egraph::{EGraph, Id, Runner, RunnerLimits};
use fpcore::{FpType, Symbol};
use std::collections::HashMap;
use targets::{program_cost, FloatExpr, Target};

/// E-node limit of the simplification pass's (small) e-graph.
const NODE_LIMIT: usize = 2_000;
/// Iteration limit of the simplification pass.
const ITER_LIMIT: usize = 4;

fn collect_op_subexprs<'a>(
    expr: &'a FloatExpr,
    out: &mut Vec<(&'a FloatExpr, Vec<&'a FloatExpr>)>,
) {
    match expr {
        FloatExpr::Num(_, _) | FloatExpr::Var(_, _) => {}
        FloatExpr::Op(_, args) => {
            for a in args {
                collect_op_subexprs(a, out);
            }
            let children: Vec<&FloatExpr> = args
                .iter()
                .filter(|a| matches!(a, FloatExpr::Op(_, _)))
                .collect();
            out.push((expr, children));
        }
        FloatExpr::Cmp(_, a, b) => {
            collect_op_subexprs(a, out);
            collect_op_subexprs(b, out);
        }
        FloatExpr::If(c, t, e) => {
            collect_op_subexprs(c, out);
            collect_op_subexprs(t, out);
            collect_op_subexprs(e, out);
        }
    }
}

/// Computes the cost opportunity of every operator subexpression of `candidate`,
/// saturating with [`TargetRules::simplification`] (built for `target`).
/// Entries are sorted by decreasing opportunity.
pub fn cost_opportunities(
    target: &Target,
    rules: &TargetRules,
    candidate: &FloatExpr,
    var_types: &HashMap<Symbol, FpType>,
) -> Vec<ScoredSubexpr> {
    // One e-graph seeded with every operator subexpression of the program, so the
    // simplification pass is shared across subexpressions.
    let mut subexprs: Vec<(&FloatExpr, Vec<&FloatExpr>)> = Vec::new();
    collect_op_subexprs(candidate, &mut subexprs);
    if subexprs.is_empty() {
        return Vec::new();
    }

    let mut egraph: EGraph<ChassisNode> = EGraph::default();
    let mut roots: Vec<Id> = Vec::with_capacity(subexprs.len());
    for (sub, _) in &subexprs {
        let rec = float_expr_to_rec(sub, target);
        roots.push(egraph.add_expr(&rec));
    }

    let limits = RunnerLimits {
        iter_limit: ITER_LIMIT,
        node_limit: NODE_LIMIT,
        ..RunnerLimits::default()
    };
    Runner::with_limits(limits).run(&mut egraph, rules.simplification());

    let extractor = TypedExtractor::new(&egraph, target, var_types);

    // cost_delta(e) = cost(e) - cost(simplified e)
    let mut deltas: HashMap<*const FloatExpr, f64> = HashMap::new();
    for ((sub, _), root) in subexprs.iter().zip(&roots) {
        let ty = sub.result_type(target);
        let original = program_cost(target, sub);
        let simplified = extractor.best_cost(*root, ty).unwrap_or(original);
        deltas.insert(*sub as *const FloatExpr, (original - simplified).max(0.0));
    }

    let mut scored: Vec<ScoredSubexpr> = subexprs
        .iter()
        .map(|(sub, children)| {
            let own = deltas
                .get(&(*sub as *const FloatExpr))
                .copied()
                .unwrap_or(0.0);
            let child_sum: f64 = children
                .iter()
                .map(|c| {
                    deltas
                        .get(&(*c as *const FloatExpr))
                        .copied()
                        .unwrap_or(0.0)
                })
                .sum();
            ScoredSubexpr {
                expr: (*sub).clone(),
                score: (own - child_sum).max(0.0),
            }
        })
        .collect();
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower_fpcore, variable_types};
    use fpcore::parse_fpcore;
    use targets::builtin;

    #[test]
    fn division_offers_the_opportunity_not_its_parent() {
        // The paper's running example adapted to sqrt(x/y) on AVX (binary32): the
        // division can become x * rcp(y), so the division carries the opportunity
        // while the enclosing square root — whose only savings come from that same
        // child rewrite — must not be credited for it.
        let t = builtin::by_name("avx").unwrap();
        let core = parse_fpcore(
            "(FPCore ((! :precision binary32 x) (! :precision binary32 y)) :precision binary32 (sqrt (/ x y)))",
        )
        .unwrap();
        let prog = lower_fpcore(&core, &t).unwrap();
        let vars = variable_types(&core);
        let rules = TargetRules::new(&t).unwrap();
        let scored = cost_opportunities(&t, &rules, &prog, &vars);
        assert_eq!(scored.len(), 2);
        let div = scored
            .iter()
            .find(|s| s.expr.render(&t).starts_with("(/.f32"))
            .expect("division is scored");
        let sqrt = scored
            .iter()
            .find(|s| s.expr.render(&t).starts_with("(sqrt.f32"))
            .expect("sqrt is scored");
        assert!(div.score > 0.0, "x/y can be strength-reduced to x*rcp(y)");
        assert!(
            sqrt.score <= div.score,
            "the sqrt must not be credited for the division's savings (sqrt {}, div {})",
            sqrt.score,
            div.score
        );
    }

    #[test]
    fn already_optimal_programs_have_no_opportunity() {
        let t = builtin::by_name("c99").unwrap();
        let core = parse_fpcore("(FPCore (x y) (+ x y))").unwrap();
        let prog = lower_fpcore(&core, &t).unwrap();
        let vars = variable_types(&core);
        let rules = TargetRules::new(&t).unwrap();
        let scored = cost_opportunities(&t, &rules, &prog, &vars);
        assert_eq!(scored.len(), 1);
        assert_eq!(scored[0].score, 0.0);
    }
}
