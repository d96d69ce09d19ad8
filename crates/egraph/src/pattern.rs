//! Syntactic patterns over a [`Language`], compiled once into numbered
//! variable slots and operator keys, the operator index of an e-graph's
//! e-nodes, and the depth-first e-matcher that searches one with the other.

use crate::egraph::EGraph;
use crate::hash::FxHashMap;
use crate::language::{Id, Language};
use std::fmt;

/// A pattern variable (a metavariable such as `?a` in a rewrite rule).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PatVar(pub String);

impl PatVar {
    /// Creates a pattern variable from its name (without any leading `?`).
    pub fn new(name: &str) -> PatVar {
        PatVar(name.trim_start_matches('?').to_owned())
    }
}

impl fmt::Display for PatVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// One node of a pattern: either a metavariable or a concrete e-node whose
/// children refer to earlier pattern positions (like [`crate::RecExpr`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PatternNode<L> {
    /// A metavariable matching any e-class.
    Var(PatVar),
    /// A concrete operator whose children are pattern positions.
    ENode(L),
}

/// A compiled pattern node: variables are replaced by their slot, and each
/// e-node carries the number of its operator in [`Pattern::ops`].
#[derive(Clone, PartialEq, Eq, Debug)]
enum Node<L> {
    Slot(usize),
    ENode(L, usize),
}

/// A pattern: a flattened tree of nodes, root last, whose variables are
/// numbered into slots `0..variables().len()` in order of first position.
///
/// A substitution is a slice of e-class ids indexed by slot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pattern<L> {
    nodes: Vec<Node<L>>,
    vars: Vec<PatVar>,
    /// The distinct operators of the pattern's e-nodes as [`OpIndex`] keys
    /// (children zeroed), the root's first. A search looks each up once.
    ops: Vec<L>,
}

impl<L: Language> Pattern<L> {
    /// Builds a pattern from flattened nodes (children must reference earlier
    /// positions; the root is the last node).
    ///
    /// # Panics
    ///
    /// Panics if the node list is empty or contains a forward reference.
    pub fn from_nodes(nodes: Vec<PatternNode<L>>) -> Pattern<L> {
        assert!(!nodes.is_empty(), "a pattern needs at least one node");
        // Operators are numbered from the root down, so a search that finds
        // no e-node of the root's operator stops at its first lookup.
        let mut ops: Vec<L> = Vec::new();
        let mut op_of = vec![0; nodes.len()];
        for (i, node) in nodes.iter().enumerate().rev() {
            if let PatternNode::ENode(e) = node {
                let key = op_key(e);
                op_of[i] = ops.iter().position(|op| *op == key).unwrap_or_else(|| {
                    ops.push(key);
                    ops.len() - 1
                });
            }
        }
        let mut vars: Vec<PatVar> = Vec::new();
        let nodes: Vec<Node<L>> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, n)| match n {
                PatternNode::Var(v) => Node::Slot(match vars.iter().position(|x| *x == v) {
                    Some(slot) => slot,
                    None => {
                        vars.push(v);
                        vars.len() - 1
                    }
                }),
                PatternNode::ENode(e) => {
                    for c in e.children() {
                        assert!(
                            c.index() < i,
                            "pattern children must reference earlier nodes"
                        );
                    }
                    Node::ENode(e, op_of[i])
                }
            })
            .collect();
        Pattern { nodes, vars, ops }
    }

    /// A pattern consisting of a single metavariable.
    pub fn variable(name: &str) -> Pattern<L> {
        Pattern::from_nodes(vec![PatternNode::Var(PatVar::new(name))])
    }

    /// The metavariables, indexed by slot.
    pub fn variables(&self) -> &[PatVar] {
        &self.vars
    }

    /// Searches the e-graph for matches of the pattern, stopping after
    /// `limit` matches, which are then exactly the first `limit` of the
    /// unlimited search.
    ///
    /// Matches come in a fixed order: by root class in ascending id, then by
    /// e-node order within each class, then lexicographically by the e-node
    /// chosen at each nested pattern node, taken in pre-order. The runner's
    /// truncation at its match limit, and so every union it makes, rests on
    /// this order.
    ///
    /// Each pattern node reads only the e-nodes of its own operator from
    /// `index`, which must have been built from `egraph`: the root walks its
    /// operator's runs, a nested node finds the runs of its child class by
    /// binary search, and a variable root visits every class. The runs of
    /// each operator are looked up once; when one has none, as for most
    /// rules in most iterations, no match can exist and the search returns
    /// at once without allocating.
    pub fn search(&self, egraph: &EGraph<L>, index: &OpIndex<'_, L>, limit: usize) -> Matches {
        let none = || Matches::none(self.vars.len());
        if limit == 0 {
            return none();
        }
        let mut inline: [&[Run<'_, L>]; INLINE_OPS] = [&[]; INLINE_OPS];
        let mut spilled = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let runs = index.runs(op);
            if runs.is_empty() {
                return none();
            }
            match inline.get_mut(i) {
                Some(slot) => *slot = runs,
                None => {
                    if spilled.is_empty() {
                        spilled.extend_from_slice(&inline);
                    }
                    spilled.push(runs);
                }
            }
        }
        let runs = match self.ops.len() {
            n if n <= INLINE_OPS => &inline[..n],
            _ => &spilled[..],
        };
        let mut matcher = Matcher {
            pattern: self,
            egraph,
            runs,
            subst: vec![UNBOUND; self.vars.len()],
            pending: Vec::new(),
            matches: none(),
            limit,
            root: UNBOUND,
        };
        let root = self.nodes.len() - 1;
        match &self.nodes[root] {
            Node::ENode(pnode, op) => {
                for run in runs[*op] {
                    matcher.root = run.class;
                    if !matcher.visit_nodes(pnode, run.nodes) {
                        break;
                    }
                }
            }
            Node::Slot(_) => {
                for class in egraph.classes() {
                    matcher.root = class.id;
                    matcher.pending.push((root, class.id));
                    let more = matcher.visit();
                    matcher.pending.clear();
                    if !more {
                        break;
                    }
                }
            }
        }
        matcher.matches
    }

    /// Instantiates the pattern under `subst` (indexed by slot), adding the
    /// resulting term to the e-graph and returning its e-class.
    ///
    /// # Panics
    ///
    /// Panics if `subst` has fewer entries than the pattern has variables.
    pub fn instantiate(&self, egraph: &mut EGraph<L>, subst: &[Id]) -> Id {
        self.instantiate_with(egraph, |slot| subst[slot], &mut Vec::new())
    }

    /// Instantiates the pattern with `slot` giving each variable's class,
    /// using `ids` as scratch space.
    pub(crate) fn instantiate_with(
        &self,
        egraph: &mut EGraph<L>,
        slot: impl Fn(usize) -> Id,
        ids: &mut Vec<Id>,
    ) -> Id {
        ids.clear();
        for node in &self.nodes {
            let id = match node {
                Node::Slot(s) => slot(*s),
                Node::ENode(e, _) => egraph.add(e.map_children(|c| ids[c.index()])),
            };
            ids.push(id);
        }
        *ids.last().expect("patterns are nonempty")
    }
}

/// `node` with every child replaced by the same id: two e-nodes have the
/// same operator exactly when their keys are equal (see [`Language`]).
fn op_key<L: Language>(node: &L) -> L {
    node.map_children(|_| Id(0))
}

/// How many operators' runs a search keeps on the stack; a pattern with more
/// distinct operators keeps them all in a `Vec` instead.
const INLINE_OPS: usize = 4;

/// A placeholder id marking an unbound slot (never a real class).
const UNBOUND: Id = Id(u32::MAX);

/// The matches of one search, in match order: for each, the class the root
/// matched in and one class per variable slot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Matches {
    /// Ids per match: the root class, then the slots.
    width: usize,
    ids: Vec<Id>,
}

impl Matches {
    /// No matches of a pattern with `vars` variable slots.
    fn none(vars: usize) -> Matches {
        Matches {
            width: 1 + vars,
            ids: Vec::new(),
        }
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        self.ids.len() / self.width
    }

    /// True if nothing matched.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Each match's root class and substitution (indexed by slot).
    pub fn iter(&self) -> impl Iterator<Item = (Id, &[Id])> {
        self.ids.chunks_exact(self.width).map(|m| (m[0], &m[1..]))
    }
}

/// Consecutive e-nodes of one class that share an operator.
#[derive(Clone, Debug)]
pub(crate) struct Run<'a, L> {
    /// The class holding the e-nodes (canonical when the index was built).
    pub(crate) class: Id,
    /// The e-nodes, in their order within the class.
    pub(crate) nodes: &'a [L],
}

/// For each operator, the runs of consecutive e-nodes with that operator, in
/// ascending class id and then in node order within each class. Built once
/// per saturation iteration, so a search reads only the e-nodes its pattern
/// nodes can match.
///
/// A clean class is sorted, so each of its operators is one run; an unsorted
/// class (after a union, before the rebuild) adds a run per stretch, which
/// keeps its node order.
#[derive(Clone, Debug)]
pub struct OpIndex<'a, L> {
    runs: FxHashMap<L, Vec<Run<'a, L>>>,
}

impl<'a, L: Language> OpIndex<'a, L> {
    /// Indexes every e-node of `egraph`.
    pub fn new(egraph: &'a EGraph<L>) -> OpIndex<'a, L> {
        let mut runs: FxHashMap<L, Vec<Run<'a, L>>> = FxHashMap::default();
        for class in egraph.classes() {
            let mut rest = &class.nodes[..];
            while let Some(first) = rest.first() {
                let key = op_key(first);
                let len = 1 + rest[1..].iter().take_while(|n| op_key(*n) == key).count();
                let (nodes, tail) = rest.split_at(len);
                runs.entry(key).or_default().push(Run {
                    class: class.id,
                    nodes,
                });
                rest = tail;
            }
        }
        OpIndex { runs }
    }

    /// The runs of the e-nodes whose operator key is `key`.
    pub(crate) fn runs(&self, key: &L) -> &[Run<'a, L>] {
        self.runs.get(key).map_or(&[], Vec::as_slice)
    }
}

/// Depth-first matcher state for one pattern: one binding buffer and one
/// stack of pattern positions still to match, reused across every class.
struct Matcher<'a, L: Language> {
    pattern: &'a Pattern<L>,
    egraph: &'a EGraph<L>,
    /// The runs of each of the pattern's operators, indexed like its `ops`.
    runs: &'a [&'a [Run<'a, L>]],
    /// The class bound to each slot, or [`UNBOUND`].
    subst: Vec<Id>,
    /// `(pattern position, class)` pairs still to match; the top is next.
    pending: Vec<(usize, Id)>,
    matches: Matches,
    limit: usize,
    /// The class the current match started in.
    root: Id,
}

impl<L: Language> Matcher<'_, L> {
    /// Matches the pending positions, recording every completed match.
    /// Leaves `pending` and `subst` as it found them; returns false once
    /// `limit` matches have been recorded.
    fn visit(&mut self) -> bool {
        let Some((pos, class)) = self.pending.pop() else {
            self.matches.ids.push(self.root);
            self.matches.ids.extend_from_slice(&self.subst);
            return self.matches.len() < self.limit;
        };
        let (pattern, egraph) = (self.pattern, self.egraph);
        let class = egraph.find(class);
        let more = match &pattern.nodes[pos] {
            Node::Slot(slot) => {
                let bound = self.subst[*slot];
                if bound == UNBOUND {
                    self.subst[*slot] = class;
                    let more = self.visit();
                    self.subst[*slot] = UNBOUND;
                    more
                } else if egraph.find(bound) == class {
                    self.visit()
                } else {
                    true
                }
            }
            Node::ENode(pnode, op) => {
                let runs = self.runs[*op];
                let first = runs.partition_point(|run| run.class < class);
                let mut more = true;
                for run in runs[first..].iter().take_while(|run| run.class == class) {
                    more = self.visit_nodes(pnode, run.nodes);
                    if !more {
                        break;
                    }
                }
                more
            }
        };
        self.pending.push((pos, class));
        more
    }

    /// Matches `pnode`'s children against those of each of `enodes` in turn,
    /// which all have `pnode`'s operator; returns false once `limit` matches
    /// have been recorded.
    fn visit_nodes(&mut self, pnode: &L, enodes: &[L]) -> bool {
        for enode in enodes {
            let base = self.pending.len();
            // Reversed, so the first child is matched first.
            for (p, e) in pnode.children().iter().zip(enode.children()).rev() {
                self.pending.push((p.index(), *e));
            }
            let more = self.visit();
            self.pending.truncate(base);
            if !more {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::testlang::TestLang;

    type EG = EGraph<TestLang>;

    /// Pattern for `(+ ?a ?b)`.
    fn add_pattern() -> Pattern<TestLang> {
        Pattern::from_nodes(vec![
            PatternNode::Var(PatVar::new("a")),
            PatternNode::Var(PatVar::new("b")),
            PatternNode::ENode(TestLang::Add([Id::from(0usize), Id::from(1usize)])),
        ])
    }

    /// Pattern for `(+ ?a ?a)`.
    fn double_pattern() -> Pattern<TestLang> {
        Pattern::from_nodes(vec![
            PatternNode::Var(PatVar::new("a")),
            PatternNode::ENode(TestLang::Add([Id::from(0usize), Id::from(0usize)])),
        ])
    }

    /// Every match, through the operator index.
    fn search(pattern: &Pattern<TestLang>, eg: &EG) -> Vec<(Id, Vec<Id>)> {
        pattern
            .search(eg, &OpIndex::new(eg), usize::MAX)
            .iter()
            .map(|(class, subst)| (class, subst.to_vec()))
            .collect()
    }

    #[test]
    fn matches_simple_addition() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let sum = eg.add(TestLang::Add([x, y]));
        assert_eq!(search(&add_pattern(), &eg), vec![(sum, vec![x, y])]);
    }

    #[test]
    fn nonlinear_pattern_requires_equal_classes() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let _xy = eg.add(TestLang::Add([x, y]));
        let xx = eg.add(TestLang::Add([x, x]));
        assert_eq!(search(&double_pattern(), &eg), vec![(xx, vec![x])]);
        // After x = y, both additions match the non-linear pattern.
        eg.union(x, y);
        eg.rebuild();
        let matches = search(&double_pattern(), &eg);
        assert_eq!(matches.len(), 1, "x+y and x+x are now the same e-class");
    }

    #[test]
    fn instantiation_adds_term() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let id = add_pattern().instantiate(&mut eg, &[x, x]);
        assert_eq!(eg.lookup(TestLang::Add([x, x])), Some(eg.find(id)));
    }

    #[test]
    fn pattern_variables_listed() {
        assert_eq!(
            add_pattern().variables(),
            [PatVar::new("a"), PatVar::new("b")]
        );
        assert_eq!(double_pattern().variables(), [PatVar::new("a")]);
    }

    #[test]
    fn nested_pattern_matching() {
        // Pattern: (* ?a (+ ?b ?c))
        let pat = Pattern::from_nodes(vec![
            PatternNode::Var(PatVar::new("a")),
            PatternNode::Var(PatVar::new("b")),
            PatternNode::Var(PatVar::new("c")),
            PatternNode::ENode(TestLang::Add([Id::from(1usize), Id::from(2usize)])),
            PatternNode::ENode(TestLang::Mul([Id::from(0usize), Id::from(3usize)])),
        ]);
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let z = eg.add(TestLang::Var("z"));
        let sum = eg.add(TestLang::Add([y, z]));
        let prod = eg.add(TestLang::Mul([x, sum]));
        assert_eq!(search(&pat, &eg), vec![(prod, vec![x, y, z])]);
    }

    #[test]
    fn matches_multiply_represented_classes() {
        // When an e-class has several e-nodes matching the pattern with different
        // substitutions, all of them are reported, in node order.
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let xy = eg.add(TestLang::Add([x, y]));
        let yx = eg.add(TestLang::Add([y, x]));
        eg.union(xy, yx);
        eg.rebuild();
        assert_eq!(
            search(&add_pattern(), &eg),
            vec![(xy, vec![x, y]), (xy, vec![y, x])]
        );
    }

    #[test]
    fn variable_root_matches_every_class() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let one = eg.add(TestLang::Num(1));
        let pat: Pattern<TestLang> = Pattern::variable("a");
        assert_eq!(search(&pat, &eg), vec![(x, vec![x]), (one, vec![one])]);
        assert_eq!(pat.search(&eg, &OpIndex::new(&eg), 1).len(), 1);
        assert!(pat.search(&eg, &OpIndex::new(&eg), 0).is_empty());
    }
}
