//! Typed extraction (paper Section 5.1).
//!
//! After instruction selection modulo equivalence, the e-graph mixes real-number
//! e-nodes, floating-point e-nodes of several types, and ill-typed combinations.
//! Typed extraction computes, for every e-class and every floating-point type,
//! the lowest-cost *well-typed, fully floating-point* term of that type, ignoring
//! real-number e-nodes entirely. It also supports the multi-extraction used by
//! the iterative loop: every appropriately-typed e-node of a chosen e-class is
//! turned into a candidate, with its children filled in by the lowest-cost
//! representatives.

use crate::lang::ChassisNode;
use egraph::{EGraph, Id};
use fpcore::{FpType, Symbol};
use std::collections::HashMap;
use targets::{FloatExpr, Target};

/// Per-(e-class, type) best cost and representative node.
#[derive(Clone, Copy, Debug)]
struct Best<'a> {
    cost: f64,
    node: &'a ChassisNode,
}

/// One slot per [`FpType`], in declaration order.
const TYPES: usize = 3;

fn slot(ty: FpType) -> usize {
    match ty {
        FpType::Binary32 => 0,
        FpType::Binary64 => 1,
        FpType::Bool => 2,
    }
}

/// The types an e-node can be extracted at, with their total costs: at most
/// two, since only a literal has more than one.
type NodeCosts = std::iter::Take<std::array::IntoIter<(FpType, f64), 2>>;

/// The typed extractor.
pub struct TypedExtractor<'a> {
    egraph: &'a EGraph<ChassisNode>,
    target: &'a Target,
    var_types: &'a HashMap<Symbol, FpType>,
    /// Indexed by canonical class id, then by [`slot`]: a dense table, so
    /// the fixed-point passes neither hash nor allocate.
    best: Vec<[Option<Best<'a>>; TYPES]>,
}

impl<'a> TypedExtractor<'a> {
    /// Runs the fixed-point cost computation over the whole e-graph.
    ///
    /// `var_types` gives the representation of each free variable (from the
    /// FPCore argument list); a variable can be extracted at a different type
    /// only through an explicit cast operator of the target.
    pub fn new(
        egraph: &'a EGraph<ChassisNode>,
        target: &'a Target,
        var_types: &'a HashMap<Symbol, FpType>,
    ) -> Self {
        let ids = egraph
            .classes()
            .map(|c| c.id.index() + 1)
            .max()
            .unwrap_or(0);
        let mut extractor = TypedExtractor {
            egraph,
            target,
            var_types,
            best: vec![[None; TYPES]; ids],
        };
        extractor.compute();
        extractor
    }

    fn compute(&mut self) {
        let egraph = self.egraph;
        loop {
            let mut changed = false;
            for class in egraph.classes() {
                let id = egraph.find(class.id);
                for node in &class.nodes {
                    for (ty, cost) in self.node_costs(node) {
                        let best = &mut self.best[id.index()][slot(ty)];
                        if best.is_none_or(|b| cost < b.cost) {
                            *best = Some(Best { cost, node });
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// The best entry for the class of `id` at type `ty`.
    fn best(&self, id: Id, ty: FpType) -> Option<Best<'a>> {
        self.best[self.egraph.find(id).index()][slot(ty)]
    }

    /// The types at which this e-node can be extracted, with the corresponding
    /// total costs. Real operators and conditionals produce nothing.
    fn node_costs(&self, node: &ChassisNode) -> NodeCosts {
        const NONE: (FpType, f64) = (FpType::Binary64, 0.0);
        let (costs, len) = match node {
            ChassisNode::Num(_) => (
                FpType::numeric().map(|ty| (ty, self.target.literal_cost)),
                2,
            ),
            ChassisNode::Var(v) => match self.var_types.get(v) {
                Some(ty) => ([(*ty, self.target.variable_cost), NONE], 1),
                None => ([NONE; 2], 0),
            },
            ChassisNode::Float(op_id, children) => {
                let op = self.target.operator(*op_id);
                let mut total = op.cost;
                for (child, ty) in children.iter().zip(&op.arg_types) {
                    match self.best(*child, *ty) {
                        Some(b) => total += b.cost,
                        None => return [NONE; 2].into_iter().take(0),
                    }
                }
                ([(op.ret_type, total), NONE], 1)
            }
            ChassisNode::Real(_, _) | ChassisNode::If(_) => ([NONE; 2], 0),
        };
        costs.into_iter().take(len)
    }

    /// The lowest cost at which the class of `id` can be extracted at type `ty`.
    pub fn best_cost(&self, id: Id, ty: FpType) -> Option<f64> {
        self.best(id, ty).map(|b| b.cost)
    }

    /// Extracts the lowest-cost program of type `ty` from the class of `id`.
    pub fn extract_best(&self, id: Id, ty: FpType) -> Option<FloatExpr> {
        self.build(self.best(id, ty)?.node, ty)
    }

    /// Multi-extraction: one candidate per appropriately-typed e-node in the
    /// class of `id` (paper Section 5.2), children filled in with the lowest-cost
    /// representatives. The result is deduplicated.
    pub fn extract_all(&self, id: Id, ty: FpType) -> Vec<FloatExpr> {
        let id = self.egraph.find(id);
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for node in &self.egraph.class(id).nodes {
            let usable = self.node_costs(node).any(|(node_ty, _)| node_ty == ty);
            if !usable {
                continue;
            }
            if let Some(expr) = self.build(node, ty) {
                if !seen.contains(&expr) {
                    seen.push(expr.clone());
                    out.push(expr);
                }
            }
        }
        out
    }

    fn build(&self, node: &ChassisNode, ty: FpType) -> Option<FloatExpr> {
        match node {
            ChassisNode::Num(c) => Some(FloatExpr::literal(c.to_f64(), ty)),
            ChassisNode::Var(v) => {
                let declared = self.var_types.get(v)?;
                if *declared == ty {
                    Some(FloatExpr::Var(*v, ty))
                } else {
                    None
                }
            }
            ChassisNode::Float(op_id, children) => {
                let op = self.target.operator(*op_id);
                if op.ret_type != ty {
                    return None;
                }
                let mut args = Vec::with_capacity(children.len());
                for (child, arg_ty) in children.iter().zip(&op.arg_types) {
                    let best = self.best(*child, *arg_ty)?;
                    args.push(self.build(best.node, *arg_ty)?);
                }
                Some(FloatExpr::Op(*op_id, args))
            }
            ChassisNode::Real(_, _) | ChassisNode::If(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{expr_to_rec, ChassisNode};
    use fpcore::parse_expr;
    use targets::builtin;
    use targets::program_cost;

    type EG = EGraph<ChassisNode>;

    fn var_types(vars: &[(&str, FpType)]) -> HashMap<Symbol, FpType> {
        vars.iter().map(|(n, t)| (Symbol::new(n), *t)).collect()
    }

    #[test]
    fn real_only_graphs_extract_nothing() {
        let t = builtin::by_name("c99").unwrap();
        let mut eg = EG::default();
        let rec = expr_to_rec(&parse_expr("(+ x 1)").unwrap());
        let root = eg.add_expr(&rec);
        let vars = var_types(&[("x", FpType::Binary64)]);
        let ex = TypedExtractor::new(&eg, &t, &vars);
        assert_eq!(ex.best_cost(root, FpType::Binary64), None);
        assert!(ex.extract_best(root, FpType::Binary64).is_none());
    }

    #[test]
    fn float_nodes_extract_with_costs() {
        let t = builtin::by_name("c99").unwrap();
        let add = t.find_operator("+.f64").unwrap();
        let mut eg = EG::default();
        let x = eg.add(ChassisNode::Var(Symbol::new("x")));
        let one = eg.add(ChassisNode::Num(fpcore::Constant::integer(1)));
        let sum = eg.add(ChassisNode::Float(add, [x, one].into()));
        let vars = var_types(&[("x", FpType::Binary64)]);
        let ex = TypedExtractor::new(&eg, &t, &vars);
        let cost = ex.best_cost(sum, FpType::Binary64).unwrap();
        let expr = ex.extract_best(sum, FpType::Binary64).unwrap();
        assert_eq!(cost, program_cost(&t, &expr));
        assert_eq!(
            ex.best_cost(sum, FpType::Binary32),
            None,
            "no f32 lowering exists"
        );
    }

    #[test]
    fn chooses_cheaper_equivalent_operator() {
        // On AVX, 1/x can be the exact division or the cheap rcp instruction; the
        // extractor must pick rcp for binary32.
        let t = builtin::by_name("avx").unwrap();
        let div32 = t.find_operator("/.f32").unwrap();
        let rcp = t.find_operator("rcp.f32").unwrap();
        let mut eg = EG::default();
        let one = eg.add(ChassisNode::Num(fpcore::Constant::integer(1)));
        let x = eg.add(ChassisNode::Var(Symbol::new("x")));
        let division = eg.add(ChassisNode::Float(div32, [one, x].into()));
        let reciprocal = eg.add(ChassisNode::Float(rcp, [x].into()));
        eg.union(division, reciprocal);
        eg.rebuild();
        let vars = var_types(&[("x", FpType::Binary32)]);
        let ex = TypedExtractor::new(&eg, &t, &vars);
        let best = ex.extract_best(division, FpType::Binary32).unwrap();
        assert!(best.render(&t).contains("rcp.f32"));
        // Multi-extraction surfaces both choices.
        let all = ex.extract_all(division, FpType::Binary32);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn mixed_type_extraction_requires_casts() {
        // A binary64 variable used by a binary32 operator is only extractable when
        // the target has a cast; AVX does.
        let t = builtin::by_name("avx").unwrap();
        let cast32 = t.find_operator("cast32.f64").unwrap();
        let rcp = t.find_operator("rcp.f32").unwrap();
        let mut eg = EG::default();
        let x = eg.add(ChassisNode::Var(Symbol::new("x")));
        let xf32 = eg.add(ChassisNode::Float(cast32, [x].into()));
        let r = eg.add(ChassisNode::Float(rcp, [xf32].into()));
        let vars = var_types(&[("x", FpType::Binary64)]);
        let ex = TypedExtractor::new(&eg, &t, &vars);
        let best = ex.extract_best(r, FpType::Binary32).unwrap();
        assert!(best.render(&t).contains("cast32"));
        // Without the cast node, a direct use would be ill-typed.
        let mut eg2 = EG::default();
        let x2 = eg2.add(ChassisNode::Var(Symbol::new("x")));
        let r2 = eg2.add(ChassisNode::Float(rcp, [x2].into()));
        let ex2 = TypedExtractor::new(&eg2, &t, &vars);
        assert!(ex2.extract_best(r2, FpType::Binary32).is_none());
    }

    #[test]
    fn cycles_from_unions_are_handled() {
        let t = builtin::by_name("c99").unwrap();
        let add = t.find_operator("+.f64").unwrap();
        let mut eg = EG::default();
        let x = eg.add(ChassisNode::Var(Symbol::new("x")));
        let zero = eg.add(ChassisNode::Num(fpcore::Constant::integer(0)));
        let sum = eg.add(ChassisNode::Float(add, [x, zero].into()));
        eg.union(sum, x);
        eg.rebuild();
        let vars = var_types(&[("x", FpType::Binary64)]);
        let ex = TypedExtractor::new(&eg, &t, &vars);
        let best = ex.extract_best(sum, FpType::Binary64).unwrap();
        // The cheapest representative of the class is the bare variable.
        assert_eq!(best, FloatExpr::Var(Symbol::new("x"), FpType::Binary64));
    }
}
