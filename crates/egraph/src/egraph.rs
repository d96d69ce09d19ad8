//! The e-graph data structure: hash-consed e-nodes grouped into e-classes.

use crate::hash::FxHashMap;
use crate::language::{Id, Language, RecExpr};
use crate::unionfind::UnionFind;
use std::collections::hash_map::Entry;

/// An equivalence class of e-nodes.
#[derive(Clone, Debug)]
pub struct EClass<L> {
    /// The canonical id of this class (at the time of the last rebuild).
    pub id: Id,
    /// The e-nodes belonging to this class. Children ids are canonical after a
    /// [`EGraph::rebuild`].
    pub nodes: Vec<L>,
}

impl<L> EClass<L> {
    /// Number of e-nodes in the class.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the class holds no e-nodes (never the case for reachable classes).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// An e-graph over language `L`.
///
/// See the crate-level documentation for an example.
#[derive(Clone, Debug)]
pub struct EGraph<L: Language> {
    unionfind: UnionFind,
    memo: FxHashMap<L, Id>,
    /// Indexed by id: `Some` for a canonical id, `None` once the class has
    /// been merged into another. Every id ever made has a slot, so walking
    /// the table visits classes in ascending id order.
    classes: Vec<Option<EClass<L>>>,
    node_count: usize,
    /// Set by `union`, cleared by `rebuild`. Searching a dirty e-graph is allowed
    /// but may miss congruent matches.
    dirty: bool,
    /// Total number of unions performed (used by the runner to detect saturation).
    union_count: usize,
}

impl<L: Language> Default for EGraph<L> {
    fn default() -> Self {
        EGraph {
            unionfind: UnionFind::new(),
            memo: FxHashMap::default(),
            classes: Vec::new(),
            node_count: 0,
            dirty: false,
            union_count: 0,
        }
    }
}

impl<L: Language> EGraph<L> {
    /// Creates an empty e-graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical representative of `id`.
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find(id)
    }

    /// Number of e-classes.
    pub fn number_of_classes(&self) -> usize {
        self.classes().count()
    }

    /// Total number of e-nodes across all classes.
    pub fn number_of_nodes(&self) -> usize {
        self.node_count
    }

    /// Total number of unions performed so far.
    pub fn union_count(&self) -> usize {
        self.union_count
    }

    /// True if unions have happened since the last [`rebuild`](Self::rebuild).
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Iterates over all e-classes in ascending id order.
    pub fn classes(&self) -> impl Iterator<Item = &EClass<L>> {
        self.classes.iter().flatten()
    }

    /// The e-class containing `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by this e-graph.
    pub fn class(&self, id: Id) -> &EClass<L> {
        self.classes[self.find(id).index()]
            .as_ref()
            .expect("canonical ids have a class")
    }

    /// Adds an e-node (canonicalizing its children), returning its e-class.
    /// Structurally identical e-nodes are deduplicated.
    pub fn add(&mut self, mut enode: L) -> Id {
        enode.update_children(|c| self.unionfind.find(c));
        if let Some(&id) = self.memo.get(&enode) {
            return self.find(id);
        }
        let id = self.unionfind.make_set();
        debug_assert_eq!(id.index(), self.classes.len());
        self.classes.push(Some(EClass {
            id,
            nodes: vec![enode.clone()],
        }));
        self.memo.insert(enode, id);
        self.node_count += 1;
        id
    }

    /// Adds every node of a [`RecExpr`], returning the e-class of its root.
    ///
    /// # Panics
    ///
    /// Panics if the expression is empty.
    pub fn add_expr(&mut self, expr: &RecExpr<L>) -> Id {
        assert!(!expr.is_empty(), "cannot add an empty expression");
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for node in expr.nodes() {
            let canonical = node.map_children(|c| ids[c.index()]);
            ids.push(self.add(canonical));
        }
        *ids.last().expect("nonempty expression")
    }

    /// Looks up the e-class of an e-node without inserting it.
    pub fn lookup(&self, mut enode: L) -> Option<Id> {
        enode.update_children(|c| self.unionfind.find(c));
        self.memo.get(&enode).map(|&id| self.find(id))
    }

    /// Merges the e-classes of `a` and `b`. Returns the surviving canonical id and
    /// whether anything changed. Call [`rebuild`](Self::rebuild) before searching
    /// again to restore congruence.
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        let a = self.find(a);
        let b = self.find(b);
        if a == b {
            return (a, false);
        }
        let winner = self.unionfind.union(a, b);
        let loser = if winner == a { b } else { a };
        let loser_class = self.classes[loser.index()]
            .take()
            .expect("loser class must exist");
        self.classes[winner.index()]
            .as_mut()
            .expect("winner class must exist")
            .nodes
            .extend(loser_class.nodes);
        self.dirty = true;
        self.union_count += 1;
        (winner, true)
    }

    /// Restores the e-graph invariants after unions: canonicalizes every e-node,
    /// re-establishes hash-consing and performs congruence-induced unions,
    /// repeating until a fixed point.
    ///
    /// Each pass sweeps the whole graph in ascending class id, so the order
    /// in which congruent pairs are found, and with it which class survives
    /// each union, is a function of the graph alone (see the crate docs).
    pub fn rebuild(&mut self) {
        while self.rebuild_classes() {}
        self.dirty = false;
    }

    /// One sweep; true if it performed a congruence union.
    fn rebuild_classes(&mut self) -> bool {
        let uf = &self.unionfind;
        let memo = &mut self.memo;
        memo.clear();
        let mut pending: Vec<(Id, Id)> = Vec::new();
        for class in self.classes.iter_mut().flatten() {
            for node in &mut class.nodes {
                node.update_children(|c| uf.find(c));
            }
            class.nodes.sort_unstable();
            let before = class.nodes.len();
            class.nodes.dedup();
            self.node_count -= before - class.nodes.len();
            for node in &class.nodes {
                match memo.entry(node.clone()) {
                    Entry::Occupied(e) => {
                        if *e.get() != class.id {
                            pending.push((*e.get(), class.id));
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(class.id);
                    }
                }
            }
        }
        let mut changed = false;
        for (a, b) in pending {
            changed |= self.union(a, b).1;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::testlang::TestLang;

    type EG = EGraph<TestLang>;

    #[test]
    fn hash_consing_deduplicates() {
        let mut eg = EG::default();
        let x1 = eg.add(TestLang::Var("x"));
        let x2 = eg.add(TestLang::Var("x"));
        assert_eq!(x1, x2);
        assert_eq!(eg.number_of_classes(), 1);
        let y = eg.add(TestLang::Var("y"));
        assert_ne!(x1, y);
        assert_eq!(eg.number_of_nodes(), 2);
    }

    #[test]
    fn union_merges_classes() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        assert!(!eg.is_dirty());
        let (_, changed) = eg.union(x, y);
        assert!(changed);
        assert!(eg.is_dirty());
        eg.rebuild();
        assert_eq!(eg.find(x), eg.find(y));
        assert_eq!(eg.number_of_classes(), 1);
        assert_eq!(eg.class(x).len(), 2);
        let (_, changed_again) = eg.union(x, y);
        assert!(!changed_again);
    }

    #[test]
    fn congruence_closure() {
        // If x = y then f(x) = f(y) after rebuilding.
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let fx = eg.add(TestLang::Neg([x]));
        let fy = eg.add(TestLang::Neg([y]));
        assert_ne!(eg.find(fx), eg.find(fy));
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(eg.find(fx), eg.find(fy));
    }

    #[test]
    fn congruence_cascades() {
        // x = y implies g(f(x)) = g(f(y)) through two levels.
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let fx = eg.add(TestLang::Neg([x]));
        let fy = eg.add(TestLang::Neg([y]));
        let gfx = eg.add(TestLang::Mul([fx, fx]));
        let gfy = eg.add(TestLang::Mul([fy, fy]));
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(eg.find(gfx), eg.find(gfy));
    }

    #[test]
    fn add_expr_adds_each_node() {
        let mut eg = EG::default();
        let mut expr = RecExpr::new();
        let x = expr.add(TestLang::Var("x"));
        let one = expr.add(TestLang::Num(1));
        let _sum = expr.add(TestLang::Add([x, one]));
        eg.add_expr(&expr);
        assert_eq!(eg.number_of_nodes(), 3);
    }

    #[test]
    fn lookup_respects_canonicalization() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let fx = eg.add(TestLang::Neg([x]));
        eg.union(x, y);
        eg.rebuild();
        // Looking up Neg(y) should find the same class as Neg(x).
        let found = eg.lookup(TestLang::Neg([y])).expect("congruent node");
        assert_eq!(found, eg.find(fx));
        assert_eq!(eg.lookup(TestLang::Var("zzz")), None);
    }

    #[test]
    fn self_cycle_via_union_is_handled() {
        // Create x + 0 and union it with x, producing a cyclic class; the
        // rebuild must still reach a fixed point.
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let zero = eg.add(TestLang::Num(0));
        let sum = eg.add(TestLang::Add([x, zero]));
        eg.union(sum, x);
        eg.rebuild();
        assert_eq!(eg.find(sum), eg.find(x));
    }
}
