//! The [`Language`] trait describing e-node shapes, e-class [`Id`]s, and the
//! [`RecExpr`] flattened term representation used for extraction results.

use std::fmt;

/// An e-class identifier.
///
/// Ids index into the e-graph's union-find; after unions, always canonicalize
/// through [`crate::EGraph::find`] before comparing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id(pub(crate) u32);

impl Id {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for Id {
    fn from(i: usize) -> Id {
        Id(u32::try_from(i).expect("e-class id overflow"))
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({})", self.0)
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An e-node language.
///
/// An e-node is an operator applied to e-class children. Implementations store
/// children as `Id`s and expose them through [`children`](Language::children) /
/// [`children_mut`](Language::children_mut). Equality and hashing must take the
/// operator *and* the children into account (derive them).
///
/// Two e-nodes have the same operator exactly when they are equal once every
/// child of both is replaced by the same id, and e-nodes with the same
/// operator have the same number of children. E-matching relies on this: the
/// [`crate::OpIndex`] files each e-node under its copy with children zeroed,
/// and a pattern node reads only the e-nodes filed under its own.
pub trait Language: Clone + Eq + std::hash::Hash + Ord + fmt::Debug {
    /// The children e-classes of this e-node.
    fn children(&self) -> &[Id];

    /// Mutable access to the children (used for canonicalization).
    fn children_mut(&mut self) -> &mut [Id];

    /// True for e-nodes without children.
    fn is_leaf(&self) -> bool {
        self.children().is_empty()
    }

    /// Applies `f` to each child id in place.
    fn update_children(&mut self, mut f: impl FnMut(Id) -> Id) {
        for c in self.children_mut() {
            *c = f(*c);
        }
    }

    /// Returns a copy with children mapped through `f`.
    fn map_children(&self, f: impl FnMut(Id) -> Id) -> Self {
        let mut node = self.clone();
        node.update_children(f);
        node
    }
}

/// A flattened term: a sequence of e-nodes whose children refer to *earlier*
/// positions in the sequence. The root is the last node.
///
/// This is the result type of extraction and the input type for bulk insertion.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecExpr<L> {
    nodes: Vec<L>,
}

impl<L> Default for RecExpr<L> {
    fn default() -> Self {
        RecExpr { nodes: Vec::new() }
    }
}

impl<L: Language> RecExpr<L> {
    /// Creates an empty term.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node whose children must reference earlier positions, returning
    /// its position as an [`Id`].
    ///
    /// # Panics
    ///
    /// Panics if a child id references this node or a later position.
    pub fn add(&mut self, node: L) -> Id {
        for child in node.children() {
            assert!(
                child.index() < self.nodes.len(),
                "RecExpr children must reference earlier nodes"
            );
        }
        self.nodes.push(node);
        Id::from(self.nodes.len() - 1)
    }

    /// The node stored at `id`.
    pub fn node(&self, id: Id) -> &L {
        &self.nodes[id.index()]
    }

    /// The root node (last added).
    ///
    /// # Panics
    ///
    /// Panics if the expression is empty.
    pub fn root(&self) -> Id {
        assert!(!self.nodes.is_empty(), "empty RecExpr has no root");
        Id::from(self.nodes.len() - 1)
    }

    /// All nodes in insertion order.
    pub fn nodes(&self) -> &[L] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes in the tree rooted at `id` (counting shared nodes each
    /// time they appear, i.e. the size of the unfolding).
    pub fn tree_size(&self, id: Id) -> usize {
        let node = self.node(id);
        1 + node
            .children()
            .iter()
            .map(|&c| self.tree_size(c))
            .sum::<usize>()
    }
}

impl<L: Language> FromIterator<L> for RecExpr<L> {
    fn from_iter<T: IntoIterator<Item = L>>(iter: T) -> Self {
        let mut expr = RecExpr::new();
        for node in iter {
            expr.add(node);
        }
        expr
    }
}

#[cfg(test)]
pub(crate) mod testlang {
    use super::*;

    /// A small arithmetic language used by the crate's unit tests.
    #[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
    pub enum TestLang {
        Num(i64),
        Var(&'static str),
        Add([Id; 2]),
        Mul([Id; 2]),
        Neg([Id; 1]),
    }

    impl Language for TestLang {
        fn children(&self) -> &[Id] {
            match self {
                TestLang::Num(_) | TestLang::Var(_) => &[],
                TestLang::Add(c) | TestLang::Mul(c) => c,
                TestLang::Neg(c) => c,
            }
        }

        fn children_mut(&mut self) -> &mut [Id] {
            match self {
                TestLang::Num(_) | TestLang::Var(_) => &mut [],
                TestLang::Add(c) | TestLang::Mul(c) => c,
                TestLang::Neg(c) => c,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testlang::TestLang;
    use super::*;

    #[test]
    fn recexpr_construction() {
        let mut e: RecExpr<TestLang> = RecExpr::new();
        assert!(e.is_empty());
        let x = e.add(TestLang::Var("x"));
        let one = e.add(TestLang::Num(1));
        let sum = e.add(TestLang::Add([x, one]));
        assert_eq!(e.len(), 3);
        assert_eq!(e.root(), sum);
        assert_eq!(e.tree_size(sum), 3);
        assert!(matches!(e.node(x), TestLang::Var("x")));
    }

    #[test]
    #[should_panic(expected = "earlier nodes")]
    fn recexpr_rejects_forward_references() {
        let mut e: RecExpr<TestLang> = RecExpr::new();
        e.add(TestLang::Add([Id::from(0usize), Id::from(1usize)]));
    }

    #[test]
    fn map_children() {
        let node = TestLang::Add([Id::from(0usize), Id::from(1usize)]);
        let mapped = node.map_children(|id| Id::from(id.index() + 10));
        assert_eq!(mapped.children(), &[Id::from(10usize), Id::from(11usize)]);
        assert!(!node.is_leaf());
        assert!(TestLang::Num(3).is_leaf());
    }

    #[test]
    fn tree_size_counts_unfolding() {
        let mut e: RecExpr<TestLang> = RecExpr::new();
        let x = e.add(TestLang::Var("x"));
        let sq = e.add(TestLang::Mul([x, x]));
        let out = e.add(TestLang::Add([sq, sq]));
        assert_eq!(e.tree_size(out), 7);
    }
}
