//! The mathematical-identity rewrite rule database.
//!
//! Rules are written as pairs of real-number expressions in FPCore syntax where
//! every free variable is a metavariable (e.g. `"(+ a b)" => "(+ b a)"`). They are
//! defined once over the *real* operators and therefore work for every target
//! (paper Section 5.1: "mathematical equivalences are defined once, and do not
//! have to be specialized to each target").
//!
//! Two rule sets are exposed:
//!
//! * [`full_rules`] — the complete database used by instruction selection modulo
//!   equivalence, and
//! * [`simplifying_rules`] — the subset of identities that do not grow the AST,
//!   used by the fast cost-opportunity analysis (Section 5.2).

use crate::lang::{ChassisNode, Children};
use egraph::{PatVar, Pattern, PatternNode, Rewrite};
use fpcore::{parse_expr, Expr};
use std::sync::OnceLock;

/// Builds an e-matching pattern from a real expression, treating every free
/// variable as a metavariable.
pub fn pattern_from_expr(expr: &Expr) -> Pattern<ChassisNode> {
    fn go(expr: &Expr, out: &mut Vec<PatternNode<ChassisNode>>) -> egraph::Id {
        let node = match expr {
            Expr::Num(c) => PatternNode::ENode(ChassisNode::Num(*c)),
            Expr::Var(v) => PatternNode::Var(PatVar::new(v.as_str())),
            Expr::Op(op, args) => {
                let children: Children = args.iter().map(|a| go(a, out)).collect();
                PatternNode::ENode(ChassisNode::Real(*op, children))
            }
            Expr::If(c, t, e) => {
                let c = go(c, out);
                let t = go(t, out);
                let e = go(e, out);
                PatternNode::ENode(ChassisNode::If([c, t, e]))
            }
        };
        out.push(node);
        egraph::Id::from(out.len() - 1)
    }
    let mut nodes = Vec::new();
    go(expr, &mut nodes);
    Pattern::from_nodes(nodes)
}

/// Builds a pattern from FPCore source.
///
/// # Panics
///
/// Panics if the source does not parse (rule tables are compiled in, so this is
/// a programming error).
pub fn pattern(src: &str) -> Pattern<ChassisNode> {
    pattern_from_expr(&parse_expr(src).unwrap_or_else(|e| panic!("bad rule pattern {src:?}: {e}")))
}

/// Builds a rewrite rule from FPCore source for both sides.
pub fn rule(name: &str, lhs: &str, rhs: &str) -> Rewrite<ChassisNode> {
    Rewrite::new(name, pattern(lhs), pattern(rhs))
}

/// `(name, lhs, rhs, simplifying)` rule table. `simplifying` marks identities
/// whose right-hand side is no larger than the left-hand side.
const RULE_TABLE: &[(&str, &str, &str, bool)] = &[
    // --- commutativity / associativity -------------------------------------
    ("add-commute", "(+ a b)", "(+ b a)", true),
    ("mul-commute", "(* a b)", "(* b a)", true),
    ("add-assoc-l", "(+ (+ a b) c)", "(+ a (+ b c))", true),
    ("add-assoc-r", "(+ a (+ b c))", "(+ (+ a b) c)", true),
    ("mul-assoc-l", "(* (* a b) c)", "(* a (* b c))", true),
    ("mul-assoc-r", "(* a (* b c))", "(* (* a b) c)", true),
    // --- identities ---------------------------------------------------------
    ("add-zero", "(+ a 0)", "a", true),
    ("sub-zero", "(- a 0)", "a", true),
    ("zero-sub", "(- 0 a)", "(- a)", true),
    ("mul-one", "(* a 1)", "a", true),
    ("div-one", "(/ a 1)", "a", true),
    ("mul-zero", "(* a 0)", "0", true),
    ("sub-self", "(- a a)", "0", true),
    ("div-self", "(/ a a)", "1", true),
    ("neg-neg", "(- (- a))", "a", true),
    ("neg-as-sub", "(- a)", "(- 0 a)", false),
    ("sub-as-neg", "(- 0 a)", "(- a)", true),
    ("neg-mul-1", "(- a)", "(* -1 a)", false),
    ("mul-neg-1", "(* -1 a)", "(- a)", true),
    ("add-self-double", "(+ a a)", "(* 2 a)", true),
    ("double-add-self", "(* 2 a)", "(+ a a)", true),
    // --- subtraction / negation --------------------------------------------
    ("sub-as-add-neg", "(- a b)", "(+ a (- b))", false),
    ("add-neg-as-sub", "(+ a (- b))", "(- a b)", true),
    ("neg-sub-flip", "(- (- a b))", "(- b a)", true),
    (
        "neg-distribute-add",
        "(- (+ a b))",
        "(+ (- a) (- b))",
        false,
    ),
    // --- distributivity ------------------------------------------------------
    (
        "distribute-l",
        "(* a (+ b c))",
        "(+ (* a b) (* a c))",
        false,
    ),
    (
        "distribute-r",
        "(* (+ a b) c)",
        "(+ (* a c) (* b c))",
        false,
    ),
    ("factor-l", "(+ (* a b) (* a c))", "(* a (+ b c))", true),
    ("factor-r", "(+ (* a c) (* b c))", "(* (+ a b) c)", true),
    ("distribute-neg", "(* (- a) b)", "(- (* a b))", true),
    (
        "sub-distribute",
        "(* a (- b c))",
        "(- (* a b) (* a c))",
        false,
    ),
    ("sub-factor", "(- (* a b) (* a c))", "(* a (- b c))", true),
    // --- fractions -----------------------------------------------------------
    ("div-as-mul-recip", "(/ a b)", "(* a (/ 1 b))", false),
    ("mul-recip-as-div", "(* a (/ 1 b))", "(/ a b)", true),
    ("recip-recip", "(/ 1 (/ 1 a))", "a", true),
    ("div-div-merge", "(/ (/ a b) c)", "(/ a (* b c))", true),
    ("div-div-lift", "(/ a (/ b c))", "(/ (* a c) b)", true),
    ("frac-add", "(+ (/ a c) (/ b c))", "(/ (+ a b) c)", true),
    ("frac-sub", "(- (/ a c) (/ b c))", "(/ (- a b) c)", true),
    (
        "frac-mul",
        "(* (/ a b) (/ c d))",
        "(/ (* a c) (* b d))",
        true,
    ),
    ("div-mul-cancel", "(/ (* a b) b)", "a", true),
    ("mul-div-cancel", "(* (/ a b) b)", "a", true),
    ("neg-div", "(/ (- a) b)", "(- (/ a b))", true),
    // --- squares and square roots -------------------------------------------
    ("sqr-as-mul", "(* a a)", "(pow a 2)", true),
    ("pow2-as-mul", "(pow a 2)", "(* a a)", true),
    ("sqrt-sqr", "(sqrt (* a a))", "(fabs a)", true),
    ("sqr-sqrt", "(* (sqrt a) (sqrt a))", "a", true),
    (
        "sqrt-prod",
        "(sqrt (* a b))",
        "(* (sqrt a) (sqrt b))",
        false,
    ),
    ("prod-sqrt", "(* (sqrt a) (sqrt b))", "(sqrt (* a b))", true),
    ("sqrt-div", "(sqrt (/ a b))", "(/ (sqrt a) (sqrt b))", false),
    ("sqrt-recip", "(/ 1 (sqrt a))", "(sqrt (/ 1 a))", true),
    ("recip-sqrt", "(sqrt (/ 1 a))", "(/ 1 (sqrt a))", false),
    ("cbrt-cube", "(cbrt (* a (* a a)))", "a", true),
    (
        "hypot-def",
        "(sqrt (+ (* a a) (* b b)))",
        "(hypot a b)",
        true,
    ),
    (
        "hypot-undef",
        "(hypot a b)",
        "(sqrt (+ (* a a) (* b b)))",
        false,
    ),
    // --- difference of squares / cancellation-avoiding forms ----------------
    (
        "diff-of-squares",
        "(- (* a a) (* b b))",
        "(* (+ a b) (- a b))",
        true,
    ),
    (
        "squares-of-diff",
        "(* (+ a b) (- a b))",
        "(- (* a a) (* b b))",
        true,
    ),
    (
        "flip-sum-of-roots",
        "(- (sqrt a) (sqrt b))",
        "(/ (- a b) (+ (sqrt a) (sqrt b)))",
        false,
    ),
    (
        "flip-diff",
        "(- a b)",
        "(/ (- (* a a) (* b b)) (+ a b))",
        false,
    ),
    // --- fused multiply-add shapes -------------------------------------------
    ("fma-def", "(+ (* a b) c)", "(fma a b c)", true),
    ("fma-undef", "(fma a b c)", "(+ (* a b) c)", false),
    ("fma-neg", "(- c (* a b))", "(fma (- a) b c)", false),
    ("fms-def", "(- (* a b) c)", "(fma a b (- c))", false),
    // --- exponentials and logarithms -----------------------------------------
    ("exp-0", "(exp 0)", "1", true),
    ("exp-1", "(exp 1)", "E", true),
    ("log-1", "(log 1)", "0", true),
    ("log-E", "(log E)", "1", true),
    ("exp-log", "(exp (log a))", "a", true),
    ("log-exp", "(log (exp a))", "a", true),
    ("exp-sum", "(exp (+ a b))", "(* (exp a) (exp b))", false),
    ("prod-exp", "(* (exp a) (exp b))", "(exp (+ a b))", true),
    ("exp-diff", "(exp (- a b))", "(/ (exp a) (exp b))", false),
    ("exp-neg", "(exp (- a))", "(/ 1 (exp a))", false),
    ("log-prod", "(log (* a b))", "(+ (log a) (log b))", false),
    ("sum-log", "(+ (log a) (log b))", "(log (* a b))", true),
    ("log-div", "(log (/ a b))", "(- (log a) (log b))", false),
    ("log-recip", "(log (/ 1 a))", "(- (log a))", true),
    ("log-pow", "(log (pow a b))", "(* b (log a))", true),
    ("pow-to-exp", "(pow a b)", "(exp (* b (log a)))", false),
    ("exp-to-pow", "(exp (* b (log a)))", "(pow a b)", true),
    ("expm1-def", "(- (exp a) 1)", "(expm1 a)", true),
    ("expm1-undef", "(expm1 a)", "(- (exp a) 1)", false),
    ("log1p-def", "(log (+ 1 a))", "(log1p a)", true),
    ("log1p-undef", "(log1p a)", "(log (+ 1 a))", false),
    ("log1p-expm1", "(log1p (expm1 a))", "a", true),
    ("expm1-log1p", "(expm1 (log1p a))", "a", true),
    ("exp2-def", "(exp2 a)", "(pow 2 a)", false),
    ("pow2-def", "(pow 2 a)", "(exp2 a)", true),
    ("log2-def", "(log2 a)", "(/ (log a) (log 2))", false),
    ("log10-def", "(log10 a)", "(/ (log a) (log 10))", false),
    // --- powers ---------------------------------------------------------------
    ("pow-0", "(pow a 0)", "1", true),
    ("pow-1", "(pow a 1)", "a", true),
    ("pow-half", "(pow a 1/2)", "(sqrt a)", true),
    ("sqrt-as-pow", "(sqrt a)", "(pow a 1/2)", false),
    ("pow-neg-1", "(pow a -1)", "(/ 1 a)", true),
    ("recip-as-pow", "(/ 1 a)", "(pow a -1)", true),
    (
        "pow-prod-base",
        "(* (pow a b) (pow a c))",
        "(pow a (+ b c))",
        true,
    ),
    ("pow-pow", "(pow (pow a b) c)", "(pow a (* b c))", true),
    ("pow-cbrt", "(pow a 1/3)", "(cbrt a)", true),
    ("cbrt-as-pow", "(cbrt a)", "(pow a 1/3)", false),
    // --- trigonometry ----------------------------------------------------------
    ("sin-0", "(sin 0)", "0", true),
    ("cos-0", "(cos 0)", "1", true),
    ("sin-neg", "(sin (- a))", "(- (sin a))", true),
    ("cos-neg", "(cos (- a))", "(cos a)", true),
    ("tan-neg", "(tan (- a))", "(- (tan a))", true),
    (
        "sin-cos-pythag",
        "(+ (* (sin a) (sin a)) (* (cos a) (cos a)))",
        "1",
        true,
    ),
    ("tan-def", "(tan a)", "(/ (sin a) (cos a))", false),
    ("sin-over-cos", "(/ (sin a) (cos a))", "(tan a)", true),
    (
        "sin-sum",
        "(sin (+ a b))",
        "(+ (* (sin a) (cos b)) (* (cos a) (sin b)))",
        false,
    ),
    (
        "cos-sum",
        "(cos (+ a b))",
        "(- (* (cos a) (cos b)) (* (sin a) (sin b)))",
        false,
    ),
    (
        "sin-double",
        "(sin (* 2 a))",
        "(* 2 (* (sin a) (cos a)))",
        false,
    ),
    (
        "cos-double",
        "(cos (* 2 a))",
        "(- 1 (* 2 (* (sin a) (sin a))))",
        false,
    ),
    ("asin-sin", "(sin (asin a))", "a", true),
    ("acos-cos", "(cos (acos a))", "a", true),
    ("atan-tan", "(tan (atan a))", "a", true),
    ("atan2-def", "(atan2 a b)", "(atan (/ a b))", false),
    // --- hyperbolics ------------------------------------------------------------
    (
        "sinh-def",
        "(sinh a)",
        "(/ (- (exp a) (exp (- a))) 2)",
        false,
    ),
    (
        "cosh-def",
        "(cosh a)",
        "(/ (+ (exp a) (exp (- a))) 2)",
        false,
    ),
    ("tanh-def", "(tanh a)", "(/ (sinh a) (cosh a))", false),
    ("sinh-over-cosh", "(/ (sinh a) (cosh a))", "(tanh a)", true),
    (
        "cosh-sinh-pythag",
        "(- (* (cosh a) (cosh a)) (* (sinh a) (sinh a)))",
        "1",
        true,
    ),
    ("sinh-neg", "(sinh (- a))", "(- (sinh a))", true),
    ("cosh-neg", "(cosh (- a))", "(cosh a)", true),
    (
        "asinh-def",
        "(asinh a)",
        "(log (+ a (sqrt (+ (* a a) 1))))",
        false,
    ),
    (
        "acosh-def",
        "(acosh a)",
        "(log (+ a (sqrt (- (* a a) 1))))",
        false,
    ),
    (
        "atanh-def",
        "(atanh a)",
        "(/ (log (/ (+ 1 a) (- 1 a))) 2)",
        false,
    ),
    (
        "atanh-log1p",
        "(atanh a)",
        "(/ (- (log1p a) (log1p (- a))) 2)",
        false,
    ),
    (
        "log1p-diff-atanh",
        "(- (log1p a) (log1p (- a)))",
        "(* 2 (atanh a))",
        true,
    ),
    (
        "sinh-expm1",
        "(sinh a)",
        "(/ (- (expm1 a) (expm1 (- a))) 2)",
        false,
    ),
    (
        "tanh-expm1",
        "(tanh a)",
        "(/ (expm1 (* 2 a)) (+ (expm1 (* 2 a)) 2))",
        false,
    ),
    // --- absolute value / min / max ----------------------------------------------
    ("fabs-neg", "(fabs (- a))", "(fabs a)", true),
    ("fabs-sqr", "(fabs (* a a))", "(* a a)", true),
    ("fabs-fabs", "(fabs (fabs a))", "(fabs a)", true),
    ("fmin-self", "(fmin a a)", "a", true),
    ("fmax-self", "(fmax a a)", "a", true),
    ("fmin-commute", "(fmin a b)", "(fmin b a)", true),
    ("fmax-commute", "(fmax a b)", "(fmax b a)", true),
];

/// `RULE_TABLE` compiled, with each rule's `simplifying` flag. Parsed once
/// per process; cloning a [`Rewrite`] only shares it.
fn compiled_table() -> &'static [(Rewrite<ChassisNode>, bool)] {
    static TABLE: OnceLock<Vec<(Rewrite<ChassisNode>, bool)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RULE_TABLE
            .iter()
            .map(|(name, lhs, rhs, simplifying)| (rule(name, lhs, rhs), *simplifying))
            .collect()
    })
}

/// The full rule database (used during instruction selection).
pub fn full_rules() -> Vec<Rewrite<ChassisNode>> {
    compiled_table().iter().map(|(r, _)| r.clone()).collect()
}

/// The simplifying subset (right-hand side no larger than the left), used by the
/// cost-opportunity heuristic.
pub fn simplifying_rules() -> Vec<Rewrite<ChassisNode>> {
    compiled_table()
        .iter()
        .filter(|(_, simplifying)| *simplifying)
        .map(|(r, _)| r.clone())
        .collect()
}

/// Number of rules in the full database.
pub fn rule_count() -> usize {
    RULE_TABLE.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::expr_to_rec;
    use egraph::{EGraph, Runner, RunnerLimits};
    use fpcore::parse_expr;

    fn saturate(src: &str, rules: &[Rewrite<ChassisNode>]) -> (EGraph<ChassisNode>, egraph::Id) {
        let expr = parse_expr(src).unwrap();
        let rec = expr_to_rec(&expr);
        let mut eg: EGraph<ChassisNode> = EGraph::default();
        let root = eg.add_expr(&rec);
        let limits = RunnerLimits {
            iter_limit: 6,
            node_limit: 5_000,
            ..RunnerLimits::default()
        };
        Runner::with_limits(limits).run(&mut eg, rules);
        (eg, root)
    }

    fn equivalent(src_a: &str, src_b: &str) -> bool {
        let rules = full_rules();
        let expr_b = parse_expr(src_b).unwrap();
        let rec_b = expr_to_rec(&expr_b);
        let (mut eg, root_a) = saturate(src_a, &rules);
        let root_b = eg.add_expr(&rec_b);
        // Adding b may enable more merges; a short follow-up run lets congruence
        // identify the two roots if they are joinable.
        Runner::with_limits(RunnerLimits {
            iter_limit: 4,
            node_limit: 6_000,
            ..RunnerLimits::default()
        })
        .run(&mut eg, &rules);
        eg.find(root_a) == eg.find(root_b)
    }

    #[test]
    fn rule_table_is_well_formed() {
        assert!(rule_count() > 100, "expected a substantial rule database");
        // Every rule must parse and have rhs variables bound by the lhs; this is
        // checked by construction.
        let rules = full_rules();
        assert_eq!(rules.len(), rule_count());
        assert!(simplifying_rules().len() < rules.len());
    }

    #[test]
    fn herbie_classic_sqrt_rewrite_is_reachable() {
        // sqrt(x+1) - sqrt(x) should join (x+1-x) / (sqrt(x+1)+sqrt(x)) ... the
        // classic cancellation-avoiding form, here checked in its factored shape.
        assert!(equivalent(
            "(- (sqrt (+ x 1)) (sqrt x))",
            "(/ (- (+ x 1) x) (+ (sqrt (+ x 1)) (sqrt x)))"
        ));
    }

    #[test]
    fn arithmetic_identities_join() {
        assert!(equivalent("(+ a 0)", "a"));
        assert!(equivalent("(* (+ a b) (- a b))", "(- (* a a) (* b b))"));
        assert!(equivalent("(/ a b)", "(* a (/ 1 b))"));
        assert!(equivalent("(+ (* a b) c)", "(fma a b c)"));
    }

    #[test]
    fn log_exp_identities_join() {
        assert!(equivalent("(log (exp a))", "a"));
        assert!(equivalent("(- (exp a) 1)", "(expm1 a)"));
        assert!(equivalent("(log (+ 1 a))", "(log1p a)"));
    }

    #[test]
    fn acoth_kernel_identity_joins() {
        // The overview example: log1p(x) - log1p(-x) = 2*atanh(x), which is what
        // lets Chassis select fdlibm's log1pmd operator.
        assert!(equivalent("(- (log1p x) (log1p (- x)))", "(* 2 (atanh x))"));
    }

    #[test]
    fn simplifying_rules_do_not_grow_terms() {
        for (name, lhs, rhs, simplifying) in super::RULE_TABLE {
            if *simplifying {
                let l = parse_expr(lhs).unwrap().size();
                let r = parse_expr(rhs).unwrap().size();
                assert!(r <= l, "simplifying rule {name} grows the AST ({l} -> {r})");
            }
        }
    }
}
