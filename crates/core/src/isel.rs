//! Instruction selection modulo equivalence (paper Section 5.1).
//!
//! Given a real expression and a target, Chassis builds an e-graph seeded with
//! the expression, then saturates it with
//!
//! 1. the target-independent mathematical identity rules ([`crate::rules`]), and
//! 2. *desugaring rules* derived from the target description: for every operator
//!    `op` with desugaring `D(a0, ..., an)`, the bidirectional rewrite
//!    `D(?a0, ..., ?an)  ⇌  op(?a0, ..., ?an)`.
//!
//! The resulting e-graph contains mixed real/float terms in which each e-class
//! denotes equivalence of real values; typed extraction then recovers well-typed
//! floating-point programs.

use crate::compiler::CompileError;
use crate::lang::{expr_to_rec, ChassisNode, Children};
use crate::rules;
use crate::typed_extract::TypedExtractor;
use egraph::{EGraph, Id, Pattern, PatternNode, Rewrite, RunReport, Runner, RunnerLimits};
use fpcore::{Expr, FpType, Symbol};
use std::collections::HashMap;
use std::sync::OnceLock;
use targets::operator::{arg_symbol, MAX_ARITY};
use targets::{FloatExpr, Target};

/// Resource limits for one instruction-selection run.
#[derive(Clone, Copy, Debug)]
pub struct IselConfig {
    /// E-graph node limit (the paper uses 8000).
    pub node_limit: usize,
    /// Saturation iteration limit.
    pub iter_limit: usize,
    /// Cap on candidates returned by multi-extraction (the paper reports ~40).
    pub max_candidates: usize,
}

impl Default for IselConfig {
    fn default() -> Self {
        IselConfig {
            node_limit: 8_000,
            iter_limit: 6,
            max_candidates: 40,
        }
    }
}

/// The outcome of an instruction-selection run on one (sub)expression.
#[derive(Clone, Debug)]
pub struct IselResult {
    /// The lowest-cost program for each floating-point type.
    pub best: HashMap<FpType, FloatExpr>,
    /// All candidate programs from multi-extraction at the requested type.
    pub candidates: Vec<FloatExpr>,
    /// Saturation statistics.
    pub report: RunReport,
}

/// The instruction selector for one target.
pub struct InstructionSelector<'a> {
    target: &'a Target,
    rules: &'a [Rewrite<ChassisNode>],
    config: IselConfig,
}

/// Builds the desugaring rewrites for every operator of a target.
///
/// # Errors
///
/// [`CompileError::Unsupported`] naming the first operator with more than
/// [`MAX_ARITY`] arguments, which an e-node cannot hold
/// (`targets::analysis::verify_target` reports it as `op-arity`).
pub fn desugaring_rules(target: &Target) -> Result<Vec<Rewrite<ChassisNode>>, CompileError> {
    let mut out = Vec::new();
    for id in target.operator_ids() {
        let op = target.operator(id);
        if op.arity() > MAX_ARITY {
            return Err(CompileError::Unsupported(format!(
                "operator {} takes {} arguments; instruction selection supports at most \
                 {MAX_ARITY}",
                op.name,
                op.arity()
            )));
        }
        let children: Children = (0..op.arity()).map(Id::from).collect();
        let lhs = rules::pattern_from_expr(&op.desugaring);
        // The float side: op applied to the desugaring's argument metavariables.
        let mut nodes: Vec<PatternNode<ChassisNode>> = (0..op.arity())
            .map(|i| PatternNode::Var(egraph::PatVar::new(arg_symbol(i).as_str())))
            .collect();
        nodes.push(PatternNode::ENode(ChassisNode::Float(id, children)));
        let rhs = Pattern::from_nodes(nodes);
        // Only emit the lowering direction when the desugaring actually mentions
        // every argument (otherwise the rhs would have unbound metavariables —
        // e.g. a hypothetical operator ignoring an argument).
        let lhs_vars = lhs.variables();
        let all_bound = (0..op.arity())
            .all(|i| lhs_vars.contains(&egraph::PatVar::new(arg_symbol(i).as_str())));
        if all_bound {
            out.push(Rewrite::new(
                format!("lower-{}", op.name),
                lhs.clone(),
                rhs.clone(),
            ));
        }
        // The desugaring direction is always valid.
        out.push(Rewrite::new(format!("desugar-{}", op.name), rhs, lhs));
    }
    Ok(out)
}

/// The rule sets one compile saturates with on one target.
///
/// A target's desugaring rules compile one pattern pair per operator (164
/// patterns on `c99`), so a [`Session`](crate::Session) builds them once per
/// target and every instruction-selection run and cost-opportunity pass of
/// every compile for that target shares them (cloning a [`Rewrite`] only
/// shares it).
#[derive(Clone, Debug)]
pub struct TargetRules {
    selection: Vec<Rewrite<ChassisNode>>,
    simplification: Vec<Rewrite<ChassisNode>>,
}

impl TargetRules {
    /// Builds both rule sets for `target`.
    ///
    /// # Errors
    ///
    /// The error of [`desugaring_rules`].
    pub fn new(target: &Target) -> Result<TargetRules, CompileError> {
        // Strength-reduction shapes whose real-number form grows slightly but
        // whose lowered form does not (the paper's running example:
        // x/y → x·rcp(y)).
        static DIV_AS_MUL_RECIP: OnceLock<Rewrite<ChassisNode>> = OnceLock::new();
        let desugaring = desugaring_rules(target)?;
        let mut selection = rules::full_rules();
        selection.extend(desugaring.iter().cloned());
        let mut simplification = rules::simplifying_rules();
        simplification.extend(desugaring);
        simplification.push(
            DIV_AS_MUL_RECIP
                .get_or_init(|| rules::rule("co-div-as-mul-recip", "(/ a b)", "(* a (/ 1 b))"))
                .clone(),
        );
        Ok(TargetRules {
            selection,
            simplification,
        })
    }

    /// Instruction selection's rules: the full mathematical rule set, then
    /// the desugaring rules.
    pub fn selection(&self) -> &[Rewrite<ChassisNode>] {
        &self.selection
    }

    /// The cost-opportunity pass's rules: the simplifying subset, the
    /// desugaring rules, then the division-as-reciprocal shape.
    pub fn simplification(&self) -> &[Rewrite<ChassisNode>] {
        &self.simplification
    }
}

impl<'a> InstructionSelector<'a> {
    /// Creates a selector for `target` that saturates with
    /// [`TargetRules::selection`] (built for the same target).
    pub fn new(target: &'a Target, rules: &'a TargetRules, config: IselConfig) -> Self {
        InstructionSelector {
            target,
            rules: rules.selection(),
            config,
        }
    }

    /// Runs instruction selection modulo equivalence on a real expression,
    /// extracting programs of the given output type.
    pub fn run(
        &self,
        expr: &Expr,
        var_types: &HashMap<Symbol, FpType>,
        output: FpType,
    ) -> IselResult {
        let rec = expr_to_rec(expr);
        let mut egraph: EGraph<ChassisNode> = EGraph::default();
        let root = egraph.add_expr(&rec);
        let limits = RunnerLimits {
            iter_limit: self.config.iter_limit,
            node_limit: self.config.node_limit,
            ..RunnerLimits::default()
        };
        let report = Runner::with_limits(limits).run(&mut egraph, self.rules);

        let extractor = TypedExtractor::new(&egraph, self.target, var_types);
        let mut best = HashMap::new();
        for ty in FpType::numeric() {
            if let Some(expr) = extractor.extract_best(root, ty) {
                best.insert(ty, expr);
            }
        }
        let mut candidates = extractor.extract_all(root, output);
        // Ensure the globally-cheapest program is always among the candidates.
        if let Some(b) = best.get(&output) {
            if !candidates.contains(b) {
                candidates.push(b.clone());
            }
        }
        candidates.truncate(self.config.max_candidates);
        IselResult {
            best,
            candidates,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpcore::parse_expr;
    use targets::builtin;
    use targets::program_cost;

    fn var_types(vars: &[&str]) -> HashMap<Symbol, FpType> {
        vars.iter()
            .map(|n| (Symbol::new(n), FpType::Binary64))
            .collect()
    }

    fn run_on(target_name: &str, src: &str, vars: &[&str]) -> (IselResult, targets::Target) {
        let target = builtin::by_name(target_name).unwrap();
        let rules = TargetRules::new(&target).unwrap();
        let selector = InstructionSelector::new(&target, &rules, IselConfig::default());
        let result = selector.run(
            &parse_expr(src).unwrap(),
            &var_types(vars),
            FpType::Binary64,
        );
        (result, target)
    }

    #[test]
    fn lowers_simple_arithmetic_on_every_target() {
        for name in ["arith", "c99", "python", "julia", "numpy", "fdlibm", "vdt"] {
            let (result, target) = run_on(name, "(+ (* x x) 1)", &["x"]);
            let best = result
                .best
                .get(&FpType::Binary64)
                .unwrap_or_else(|| panic!("no lowering on {name}"));
            // Whatever operators were chosen, the program must still compute x²+1.
            let env: std::collections::HashMap<Symbol, f64> =
                [(Symbol::new("x"), 3.0)].into_iter().collect();
            let out = targets::eval_float_expr_in(&target, best, &env);
            assert!(
                (out - 10.0).abs() < 1e-9,
                "{name}: {} gave {out}",
                best.render(&target)
            );
        }
    }

    #[test]
    fn selects_fma_when_available() {
        let (result, target) = run_on("arith-fma", "(+ (* x y) z)", &["x", "y", "z"]);
        let best = result.best.get(&FpType::Binary64).unwrap();
        assert!(
            best.render(&target).contains("fma.f64"),
            "expected an fma, got {}",
            best.render(&target)
        );
        // The plain mul+add version must also be among the candidates.
        assert!(result.candidates.len() >= 2);
    }

    #[test]
    fn avx_uses_rcp_for_reciprocals_in_single_precision() {
        let target = builtin::by_name("avx").unwrap();
        let rules = TargetRules::new(&target).unwrap();
        let selector = InstructionSelector::new(&target, &rules, IselConfig::default());
        let vars: HashMap<Symbol, FpType> =
            [(Symbol::new("x"), FpType::Binary32)].into_iter().collect();
        let result = selector.run(&parse_expr("(/ 1 x)").unwrap(), &vars, FpType::Binary32);
        let best = result.best.get(&FpType::Binary32).unwrap();
        assert!(
            best.render(&target).contains("rcp.f32"),
            "expected rcpps, got {}",
            best.render(&target)
        );
        let div_version = result
            .candidates
            .iter()
            .find(|c| c.render(&target).contains("/.f32"));
        assert!(
            div_version.is_some(),
            "the exact division must remain a candidate"
        );
        let rcp_cost = program_cost(&target, best);
        let div_cost = program_cost(&target, div_version.unwrap());
        assert!(rcp_cost < div_cost);
    }

    #[test]
    fn julia_selects_log1p_helper() {
        let (result, target) = run_on("julia", "(log (+ 1 x))", &["x"]);
        let best = result.best.get(&FpType::Binary64).unwrap();
        assert!(
            best.render(&target).contains("log1p.f64"),
            "expected log1p, got {}",
            best.render(&target)
        );
    }

    #[test]
    fn fdlibm_selects_log1pmd_for_the_acoth_kernel() {
        // The paper's overview example: log1p(x) - log1p(-x) should become a
        // single call to the library-internal log1pmd operator.
        let (result, target) = run_on("fdlibm", "(- (log1p x) (log1p (- x)))", &["x"]);
        let best = result.best.get(&FpType::Binary64).unwrap();
        assert!(
            best.render(&target).contains("log1pmd.f64"),
            "expected log1pmd, got {}",
            best.render(&target)
        );
    }

    #[test]
    fn desugaring_is_preserved_by_all_candidates() {
        let (result, target) = run_on("c99", "(- (sqrt (+ x 1)) (sqrt x))", &["x"]);
        assert!(!result.candidates.is_empty());
        // Every candidate must desugar to a real expression; spot-check that the
        // desugarings mention the input variable and are valid expressions.
        for candidate in &result.candidates {
            let desugared = candidate.desugar(&target);
            assert!(desugared.variables().contains(&Symbol::new("x")));
        }
    }

    #[test]
    fn respects_node_limit() {
        let target = builtin::by_name("c99").unwrap();
        let config = IselConfig {
            node_limit: 50,
            ..IselConfig::default()
        };
        let rules = TargetRules::new(&target).unwrap();
        let selector = InstructionSelector::new(&target, &rules, config);
        let result = selector.run(
            &parse_expr("(+ (* a b) (+ (* c d) (* e f)))").unwrap(),
            &var_types(&["a", "b", "c", "d", "e", "f"]),
            FpType::Binary64,
        );
        assert!(result.report.nodes <= 200, "node limit should bound growth");
    }

    #[test]
    fn desugaring_rules_cover_every_operator() {
        for name in ["avx", "julia", "vdt"] {
            let target = builtin::by_name(name).unwrap();
            let rules = desugaring_rules(&target).unwrap();
            // At least one rule per operator (the desugar direction always exists).
            assert!(rules.len() >= target.operators.len());
        }
    }
}
