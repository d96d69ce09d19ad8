//! The mixed real/float e-graph language (paper Section 5.1).
//!
//! Chassis performs equality saturation over expressions that freely mix
//! real-number operators (whose e-classes denote equivalence of real values) and
//! target-specific floating-point operators (related to the real fragment through
//! their desugarings). [`ChassisNode`] is the e-node type; conversions to and from
//! [`fpcore::Expr`] and [`targets::FloatExpr`] live here too.

use egraph::{Id, Language, RecExpr};
use fpcore::{Constant, Expr, RealOp, Symbol};
use std::cmp::Ordering;
use std::fmt;
use targets::operator::MAX_ARITY;
use targets::{FloatExpr, OpId, Target};

/// The children of an operator e-node, stored inline: up to [`MAX_ARITY`]
/// ids and a length, with no heap allocation.
///
/// Every real operator and every operator a valid target declares has at
/// most [`MAX_ARITY`] arguments (`targets::analysis::verify_target` reports
/// a wider one as `op-arity`). Keeping the ids inline makes [`ChassisNode`]
/// `Copy`, so the e-graph's hash-consing, rebuild sweeps and operator index
/// copy e-nodes instead of allocating them.
///
/// Equality, order and `Debug` act on the live ids exactly as a `Vec<Id>`'s
/// do: comparison is lexicographic with a proper prefix first, and the
/// children print as `[Id(0), Id(1)]`. E-node order decides the order of
/// e-nodes within a class after a rebuild, and with it the match order, so
/// this is what keeps saturation bit-identical to the `Vec` it replaced.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Children {
    len: u8,
    /// The live ids, then padding that is always `Id(0)`, so the derived
    /// equality and hash see only the live ids.
    ids: [Id; MAX_ARITY],
}

impl Children {
    /// The live ids.
    pub fn as_slice(&self) -> &[Id] {
        &self.ids[..usize::from(self.len)]
    }

    /// The live ids, mutably (the length is fixed).
    pub fn as_mut_slice(&mut self) -> &mut [Id] {
        &mut self.ids[..usize::from(self.len)]
    }
}

impl std::ops::Deref for Children {
    type Target = [Id];

    fn deref(&self) -> &[Id] {
        self.as_slice()
    }
}

impl<const N: usize> From<[Id; N]> for Children {
    fn from(ids: [Id; N]) -> Children {
        const { assert!(N <= MAX_ARITY, "an e-node has at most MAX_ARITY children") };
        ids.into_iter().collect()
    }
}

/// Collects children from an iterator.
///
/// # Panics
///
/// Panics if the iterator yields more than [`MAX_ARITY`] ids.
impl FromIterator<Id> for Children {
    fn from_iter<I: IntoIterator<Item = Id>>(iter: I) -> Children {
        let mut children = Children {
            len: 0,
            ids: [Id::from(0usize); MAX_ARITY],
        };
        for id in iter {
            let slot = children
                .ids
                .get_mut(usize::from(children.len))
                .unwrap_or_else(|| panic!("an e-node has at most {MAX_ARITY} children"));
            *slot = id;
            children.len += 1;
        }
        children
    }
}

impl PartialOrd for Children {
    fn partial_cmp(&self, other: &Children) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Children {
    fn cmp(&self, other: &Children) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for Children {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// An e-node of the mixed real/float language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum ChassisNode {
    /// A real-number literal.
    Num(Constant),
    /// A free variable.
    Var(Symbol),
    /// A real-number operator applied to e-classes.
    Real(RealOp, Children),
    /// A target-specific floating-point operator applied to e-classes.
    Float(OpId, Children),
    /// A conditional (kept opaque during instruction selection).
    If([Id; 3]),
}

impl Language for ChassisNode {
    fn children(&self) -> &[Id] {
        match self {
            ChassisNode::Num(_) | ChassisNode::Var(_) => &[],
            ChassisNode::Real(_, c) | ChassisNode::Float(_, c) => c.as_slice(),
            ChassisNode::If(c) => c,
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            ChassisNode::Num(_) | ChassisNode::Var(_) => &mut [],
            ChassisNode::Real(_, c) | ChassisNode::Float(_, c) => c.as_mut_slice(),
            ChassisNode::If(c) => c,
        }
    }
}

/// Converts a real expression into a flattened [`RecExpr`] over [`ChassisNode`]s.
pub fn expr_to_rec(expr: &Expr) -> RecExpr<ChassisNode> {
    fn go(expr: &Expr, out: &mut RecExpr<ChassisNode>) -> Id {
        match expr {
            Expr::Num(c) => out.add(ChassisNode::Num(*c)),
            Expr::Var(v) => out.add(ChassisNode::Var(*v)),
            Expr::Op(op, args) => {
                let children: Children = args.iter().map(|a| go(a, out)).collect();
                out.add(ChassisNode::Real(*op, children))
            }
            Expr::If(c, t, e) => {
                let c = go(c, out);
                let t = go(t, out);
                let e = go(e, out);
                out.add(ChassisNode::If([c, t, e]))
            }
        }
    }
    let mut out = RecExpr::new();
    go(expr, &mut out);
    out
}

/// Converts a [`RecExpr`] back to a real expression.
///
/// # Panics
///
/// Panics if the term contains floating-point operators (use
/// [`rec_to_float_expr`] for those).
pub fn rec_to_expr(rec: &RecExpr<ChassisNode>, root: Id) -> Expr {
    match rec.node(root) {
        ChassisNode::Num(c) => Expr::Num(*c),
        ChassisNode::Var(v) => Expr::Var(*v),
        ChassisNode::Real(op, children) => {
            Expr::Op(*op, children.iter().map(|&c| rec_to_expr(rec, c)).collect())
        }
        ChassisNode::If([c, t, e]) => Expr::If(
            Box::new(rec_to_expr(rec, *c)),
            Box::new(rec_to_expr(rec, *t)),
            Box::new(rec_to_expr(rec, *e)),
        ),
        ChassisNode::Float(_, _) => panic!("rec_to_expr called on a floating-point term"),
    }
}

/// Converts a purely floating-point [`RecExpr`] into a target program.
///
/// Numeric literals and variables are given the type expected by their context
/// (`expected` for the root). Returns `None` if a real operator remains in the
/// term (i.e. the term is not a valid lowering).
pub fn rec_to_float_expr(
    rec: &RecExpr<ChassisNode>,
    root: Id,
    target: &Target,
    expected: fpcore::FpType,
) -> Option<FloatExpr> {
    match rec.node(root) {
        ChassisNode::Num(c) => Some(FloatExpr::literal(c.to_f64(), expected)),
        ChassisNode::Var(v) => Some(FloatExpr::Var(*v, expected)),
        ChassisNode::Float(op, children) => {
            let operator = target.operator(*op);
            let args: Option<Vec<FloatExpr>> = children
                .iter()
                .zip(&operator.arg_types)
                .map(|(&c, ty)| rec_to_float_expr(rec, c, target, *ty))
                .collect();
            Some(FloatExpr::Op(*op, args?))
        }
        ChassisNode::Real(_, _) | ChassisNode::If(_) => None,
    }
}

/// Converts a target program into a flattened mixed-language term (all nodes are
/// `Float`, `Num`, or `Var`).
pub fn float_expr_to_rec(expr: &FloatExpr, _target: &Target) -> RecExpr<ChassisNode> {
    fn go(expr: &FloatExpr, out: &mut RecExpr<ChassisNode>) -> Id {
        match expr {
            FloatExpr::Num(v, _) => {
                let c = fpcore::Rational::from_f64(*v).map_or(Constant::Nan, Constant::Rational);
                out.add(ChassisNode::Num(c))
            }
            FloatExpr::Var(v, _) => out.add(ChassisNode::Var(*v)),
            FloatExpr::Op(id, args) => {
                let children: Children = args.iter().map(|a| go(a, out)).collect();
                out.add(ChassisNode::Float(*id, children))
            }
            FloatExpr::Cmp(op, a, b) => {
                let a = go(a, out);
                let b = go(b, out);
                out.add(ChassisNode::Real(*op, Children::from([a, b])))
            }
            FloatExpr::If(c, t, e) => {
                let c = go(c, out);
                let t = go(t, out);
                let e = go(e, out);
                out.add(ChassisNode::If([c, t, e]))
            }
        }
    }
    let mut out = RecExpr::new();
    go(expr, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpcore::parse_expr;
    use fpcore::FpType::Binary64;
    use std::hash::BuildHasher;
    use targets::builtin;

    #[test]
    fn expr_round_trip() {
        for src in [
            "(+ x 1)",
            "(if (< x 0) (- x) x)",
            "(sqrt (* x x))",
            "(fma a b c)",
        ] {
            let e = parse_expr(src).unwrap();
            let rec = expr_to_rec(&e);
            assert_eq!(rec_to_expr(&rec, rec.root()), e, "round trip of {src}");
        }
    }

    #[test]
    fn matches_op_distinguishes_operators() {
        // The e-graph's operator key: the node with its children zeroed.
        let key = |node: ChassisNode| node.map_children(|_| Id::from(0usize));
        let ids = |a: usize, b: usize| Children::from([Id::from(a), Id::from(b)]);
        let a = ChassisNode::Real(RealOp::Add, ids(0, 1));
        let b = ChassisNode::Real(RealOp::Add, ids(2, 3));
        let c = ChassisNode::Real(RealOp::Mul, ids(0, 1));
        assert_eq!(key(a), key(b));
        assert_ne!(key(a), key(c));
        let f = ChassisNode::Float(OpId(0), Children::from([Id::from(0usize)]));
        let g = ChassisNode::Float(OpId(1), Children::from([Id::from(0usize)]));
        assert_ne!(key(f), key(g));
        assert_ne!(key(f), key(a));
        // The arity is part of the operator.
        let unary = ChassisNode::Real(RealOp::Sub, Children::from([Id::from(1usize)]));
        assert_ne!(key(unary), key(ChassisNode::Real(RealOp::Sub, ids(1, 2))));
        let if_a = ChassisNode::If([Id::from(0usize), Id::from(1usize), Id::from(2usize)]);
        let if_b = ChassisNode::If([Id::from(3usize), Id::from(4usize), Id::from(5usize)]);
        assert_eq!(key(if_a), key(if_b));
    }

    /// `ChassisNode` as it was with heap-allocated children: the reference
    /// for order, equality and `Debug`.
    #[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
    enum VecNode {
        Real(RealOp, Vec<Id>),
        Float(OpId, Vec<Id>),
    }

    #[test]
    fn inline_children_order_and_print_like_a_vec() {
        let mut rng = crate::rng::Rng::new(23);
        let mut random_node = || {
            // Few distinct ids and operators, so equal prefixes are common.
            let ids: Vec<Id> = (0..rng.below(4))
                .map(|_| Id::from(rng.below(3) as usize))
                .collect();
            let children: Children = ids.iter().copied().collect();
            if rng.below(2) == 0 {
                let op = RealOp::ALL[rng.below(3) as usize];
                (ChassisNode::Real(op, children), VecNode::Real(op, ids))
            } else {
                let op = OpId(rng.below(3) as u32);
                (ChassisNode::Float(op, children), VecNode::Float(op, ids))
            }
        };
        for _ in 0..5_000 {
            let (a, old_a) = random_node();
            let (b, old_b) = random_node();
            assert_eq!(a.cmp(&b), old_a.cmp(&old_b), "{a:?} vs {b:?}");
            assert_eq!(a == b, old_a == old_b, "{a:?} vs {b:?}");
            if a == b {
                let state = std::hash::RandomState::new();
                assert_eq!(state.hash_one(a), state.hash_one(b));
            }
            assert_eq!(format!("{a:?}"), format!("{old_a:?}"));
            assert_eq!(format!("{a:#?}"), format!("{old_a:#?}"));
        }
    }

    #[test]
    fn float_expr_round_trip_through_rec() {
        let t = builtin::by_name("c99").unwrap();
        let add = t.find_operator("+.f64").unwrap();
        let exp = t.find_operator("exp.f64").unwrap();
        let prog = FloatExpr::Op(
            add,
            vec![
                FloatExpr::Op(exp, vec![FloatExpr::Var(Symbol::new("x"), Binary64)]),
                FloatExpr::literal(1.0, Binary64),
            ],
        );
        let rec = float_expr_to_rec(&prog, &t);
        let back = rec_to_float_expr(&rec, rec.root(), &t, Binary64).unwrap();
        assert_eq!(back.desugar(&t), prog.desugar(&t));
    }

    #[test]
    fn mixed_terms_are_not_valid_lowerings() {
        let t = builtin::by_name("c99").unwrap();
        let e = parse_expr("(+ x 1)").unwrap();
        let rec = expr_to_rec(&e);
        assert!(rec_to_float_expr(&rec, rec.root(), &t, Binary64).is_none());
    }
}
