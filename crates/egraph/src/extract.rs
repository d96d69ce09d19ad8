//! Cost-based extraction of concrete terms from an e-graph.

use crate::egraph::EGraph;
use crate::language::{Id, Language, RecExpr};
use std::collections::HashMap;

/// A cost model over e-nodes.
///
/// The cost of an e-node is computed from the operator and the costs of the
/// cheapest known representatives of its children e-classes.
pub trait CostFunction<L: Language> {
    /// The cost type (must admit comparison; typically `f64` or `usize`).
    type Cost: PartialOrd + Clone + std::fmt::Debug;

    /// Cost of `enode` given a function returning the best known cost of each
    /// child e-class.
    fn cost(&mut self, enode: &L, child_cost: &mut dyn FnMut(Id) -> Self::Cost) -> Self::Cost;
}

/// Counts the number of nodes in the extracted tree (the simplest useful cost).
#[derive(Clone, Copy, Default, Debug)]
pub struct TreeSize;

impl<L: Language> CostFunction<L> for TreeSize {
    type Cost = usize;

    fn cost(&mut self, enode: &L, child_cost: &mut dyn FnMut(Id) -> usize) -> usize {
        1 + enode
            .children()
            .iter()
            .map(|&c| child_cost(c))
            .sum::<usize>()
    }
}

/// A greedy extractor: computes the lowest-cost representative of every e-class by
/// fixed-point iteration, then reads terms out bottom-up.
pub struct Extractor<'a, L: Language, CF: CostFunction<L>> {
    egraph: &'a EGraph<L>,
    cost_fn: CF,
    best: HashMap<Id, (CF::Cost, L)>,
}

impl<'a, L: Language, CF: CostFunction<L>> Extractor<'a, L, CF> {
    /// Builds the extractor, running the fixed-point cost computation.
    pub fn new(egraph: &'a EGraph<L>, cost_fn: CF) -> Self {
        let mut extractor = Extractor {
            egraph,
            cost_fn,
            best: HashMap::new(),
        };
        extractor.compute_costs();
        extractor
    }

    fn compute_costs(&mut self) {
        // Iterate to a fixed point: a class's best cost can only decrease, and
        // each pass propagates information one level further up, so this
        // terminates in at most `depth` passes.
        loop {
            let mut changed = false;
            for class in self.egraph.classes() {
                let id = self.egraph.find(class.id);
                for node in &class.nodes {
                    if let Some(cost) = self.node_cost(node) {
                        let better = match self.best.get(&id) {
                            None => true,
                            Some((best, _)) => cost < *best,
                        };
                        if better {
                            self.best.insert(id, (cost, node.clone()));
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

    fn node_cost(&mut self, node: &L) -> Option<CF::Cost> {
        // All children must already have a known cost.
        for &c in node.children() {
            if !self.best.contains_key(&self.egraph.find(c)) {
                return None;
            }
        }
        let egraph = self.egraph;
        let best = &self.best;
        let mut child_cost = |id: Id| best[&egraph.find(id)].0.clone();
        Some(self.cost_fn.cost(node, &mut child_cost))
    }

    /// The best known cost of the class containing `id`, if any term is
    /// extractable from it.
    pub fn best_cost(&self, id: Id) -> Option<CF::Cost> {
        self.best.get(&self.egraph.find(id)).map(|(c, _)| c.clone())
    }

    /// Extracts the lowest-cost term rooted in the class of `id`.
    ///
    /// Returns `None` when the class contains no extractable term (possible when
    /// the cost function refuses some nodes, e.g. ill-typed ones).
    pub fn find_best(&self, id: Id) -> Option<(CF::Cost, RecExpr<L>)> {
        let id = self.egraph.find(id);
        let cost = self.best_cost(id)?;
        let mut expr = RecExpr::new();
        let mut cache: HashMap<Id, Id> = HashMap::new();
        let root = self.build(id, &mut expr, &mut cache)?;
        let _ = root;
        Some((cost, expr))
    }

    fn build(&self, id: Id, expr: &mut RecExpr<L>, cache: &mut HashMap<Id, Id>) -> Option<Id> {
        let id = self.egraph.find(id);
        if let Some(&done) = cache.get(&id) {
            return Some(done);
        }
        let (_, node) = self.best.get(&id)?;
        let mut child_ids = Vec::with_capacity(node.children().len());
        for &c in node.children() {
            child_ids.push(self.build(c, expr, cache)?);
        }
        let mut i = 0;
        let new_node = node.map_children(|_| {
            let mapped = child_ids[i];
            i += 1;
            mapped
        });
        let new_id = expr.add(new_node);
        cache.insert(id, new_id);
        Some(new_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::testlang::TestLang;

    type EG = EGraph<TestLang>;

    #[test]
    fn extracts_smaller_equivalent_term() {
        let mut eg = EG::default();
        // Represent x*2 and x+x in the same class; TreeSize prefers either (both
        // size 3), then union with just `x` and it should prefer `x`.
        let x = eg.add(TestLang::Var("x"));
        let two = eg.add(TestLang::Num(2));
        let mul = eg.add(TestLang::Mul([x, two]));
        let add = eg.add(TestLang::Add([x, x]));
        eg.union(mul, add);
        eg.rebuild();
        let ex = Extractor::new(&eg, TreeSize);
        let (cost, _) = ex.find_best(mul).unwrap();
        assert_eq!(cost, 3);
        eg.union(mul, x);
        eg.rebuild();
        let ex = Extractor::new(&eg, TreeSize);
        let (cost, term) = ex.find_best(mul).unwrap();
        assert_eq!(cost, 1);
        assert!(matches!(term.node(term.root()), TestLang::Var("x")));
    }

    #[test]
    fn extraction_handles_cycles() {
        // x = x + 0 introduces a cycle; extraction must still find the finite term.
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let zero = eg.add(TestLang::Num(0));
        let sum = eg.add(TestLang::Add([x, zero]));
        eg.union(sum, x);
        eg.rebuild();
        let ex = Extractor::new(&eg, TreeSize);
        let (cost, term) = ex.find_best(sum).unwrap();
        assert_eq!(cost, 1);
        assert_eq!(term.len(), 1);
    }

    /// A cost function that refuses multiplication nodes entirely.
    struct NoMul;
    impl CostFunction<TestLang> for NoMul {
        type Cost = f64;
        fn cost(&mut self, enode: &TestLang, child_cost: &mut dyn FnMut(Id) -> f64) -> f64 {
            let base = match enode {
                TestLang::Mul(_) => f64::INFINITY,
                _ => 1.0,
            };
            base + enode.children().iter().map(|&c| child_cost(c)).sum::<f64>()
        }
    }

    #[test]
    fn infinite_costs_are_avoided_when_alternatives_exist() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let two = eg.add(TestLang::Num(2));
        let mul = eg.add(TestLang::Mul([x, two]));
        let add = eg.add(TestLang::Add([x, x]));
        eg.union(mul, add);
        eg.rebuild();
        let ex = Extractor::new(&eg, NoMul);
        let (cost, term) = ex.find_best(mul).unwrap();
        assert!(cost.is_finite());
        assert!(matches!(term.node(term.root()), TestLang::Add(_)));
    }

    #[test]
    fn shared_subterms_are_reused_in_recexpr() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let sq = eg.add(TestLang::Mul([x, x]));
        let out = eg.add(TestLang::Add([sq, sq]));
        let ex = Extractor::new(&eg, TreeSize);
        let (_, term) = ex.find_best(out).unwrap();
        // The RecExpr shares the repeated subterm, so it stores 3 nodes even
        // though the unfolded tree has 7.
        assert_eq!(term.len(), 3);
        assert_eq!(term.tree_size(term.root()), 7);
    }
}
