//! Rewrite rules: a searcher pattern and an applier pattern.

use crate::egraph::EGraph;
use crate::language::{Id, Language};
use crate::pattern::{Matches, OpIndex, Pattern};
use std::fmt;
use std::sync::Arc;

/// A rewrite rule `lhs => rhs`.
///
/// Rules are applied *non-destructively*: the right-hand side is added to the
/// e-graph and unioned with the matched e-class, so the left-hand side remains
/// available (Section 3.3 of the paper).
///
/// Cloning a rule shares it, so a rule table is compiled once and handed to
/// any number of runners.
#[derive(Clone)]
pub struct Rewrite<L: Language> {
    rule: Arc<Rule<L>>,
}

struct Rule<L> {
    name: String,
    lhs: Pattern<L>,
    rhs: Pattern<L>,
    /// For each rhs slot, the lhs slot bound to the same variable.
    rhs_slots: Vec<usize>,
}

impl<L: Language> fmt::Debug for Rewrite<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rewrite")
            .field("name", &self.rule.name)
            .field("lhs", &self.rule.lhs)
            .field("rhs", &self.rule.rhs)
            .finish()
    }
}

impl<L: Language> Rewrite<L> {
    /// Creates a rewrite.
    ///
    /// # Panics
    ///
    /// Panics if the right-hand side uses a metavariable that the left-hand side
    /// does not bind.
    pub fn new(name: impl Into<String>, lhs: Pattern<L>, rhs: Pattern<L>) -> Rewrite<L> {
        let rhs_slots = rhs
            .variables()
            .iter()
            .map(|v| {
                lhs.variables()
                    .iter()
                    .position(|x| x == v)
                    .unwrap_or_else(|| panic!("rewrite rhs uses unbound metavariable {v}"))
            })
            .collect();
        Rewrite {
            rule: Arc::new(Rule {
                name: name.into(),
                lhs,
                rhs,
                rhs_slots,
            }),
        }
    }

    /// The rule name (for reporting).
    pub fn name(&self) -> &str {
        &self.rule.name
    }

    /// The left-hand-side pattern.
    pub fn lhs(&self) -> &Pattern<L> {
        &self.rule.lhs
    }

    /// The right-hand-side pattern.
    pub fn rhs(&self) -> &Pattern<L> {
        &self.rule.rhs
    }

    /// Finds the first `limit` matches of the left-hand side (see
    /// [`Pattern::search`]).
    pub fn search(&self, egraph: &EGraph<L>, index: &OpIndex<L>, limit: usize) -> Matches {
        self.rule.lhs.search(egraph, index, limit)
    }

    /// Applies the rule to matches of its left-hand side, in order. Returns
    /// the number of e-class unions that actually changed the e-graph.
    pub fn apply(&self, egraph: &mut EGraph<L>, matches: &Matches) -> usize {
        let rule = &*self.rule;
        let mut scratch: Vec<Id> = Vec::new();
        let mut applied = 0;
        for (class, subst) in matches.iter() {
            let new_id =
                rule.rhs
                    .instantiate_with(egraph, |slot| subst[rule.rhs_slots[slot]], &mut scratch);
            if egraph.union(class, new_id).1 {
                applied += 1;
            }
        }
        applied
    }

    /// Searches every match on a clean e-graph and applies them, returning
    /// the number of effective unions.
    pub fn run(&self, egraph: &mut EGraph<L>) -> usize {
        let matches = self.search(egraph, &OpIndex::new(egraph), usize::MAX);
        self.apply(egraph, &matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::testlang::TestLang;
    use crate::pattern::{PatVar, PatternNode};

    type EG = EGraph<TestLang>;
    type RW = Rewrite<TestLang>;

    fn commute_add() -> RW {
        // (+ ?a ?b) => (+ ?b ?a)
        let lhs = Pattern::from_nodes(vec![
            PatternNode::Var(PatVar::new("a")),
            PatternNode::Var(PatVar::new("b")),
            PatternNode::ENode(TestLang::Add([Id::from(0usize), Id::from(1usize)])),
        ]);
        let rhs = Pattern::from_nodes(vec![
            PatternNode::Var(PatVar::new("b")),
            PatternNode::Var(PatVar::new("a")),
            PatternNode::ENode(TestLang::Add([Id::from(0usize), Id::from(1usize)])),
        ]);
        Rewrite::new("commute-add", lhs, rhs)
    }

    #[test]
    fn commutativity_is_applied_nondestructively() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let xy = eg.add(TestLang::Add([x, y]));
        let rule = commute_add();
        let n = rule.run(&mut eg);
        eg.rebuild();
        assert!(n >= 1);
        // Both orientations are now present in the same class.
        let yx = eg.lookup(TestLang::Add([y, x])).expect("rewritten node");
        assert_eq!(eg.find(yx), eg.find(xy));
        // The original node is still there (non-destructive).
        assert!(eg.lookup(TestLang::Add([x, y])).is_some());
        // Re-running makes no further changes.
        let n2 = rule.run(&mut eg);
        eg.rebuild();
        assert_eq!(n2, 0);
    }

    #[test]
    #[should_panic(expected = "unbound metavariable")]
    fn rhs_variables_must_be_bound() {
        let lhs: Pattern<TestLang> = Pattern::variable("a");
        let rhs: Pattern<TestLang> = Pattern::variable("zzz");
        let _rw: RW = Rewrite::new("bad", lhs, rhs);
    }
}
