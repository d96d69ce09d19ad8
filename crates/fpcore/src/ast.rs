//! The FPCore expression tree and top-level benchmark form.

use crate::constant::Constant;
use crate::symbol::Symbol;
use crate::types::FpType;
use std::collections::BTreeSet;
use std::fmt;

/// A real-number operator.
///
/// These are the *mathematical* operators: they denote functions over the extended
/// reals, not any particular floating-point implementation. Targets relate their
/// floating-point operators back to expressions over this vocabulary (the
/// "desugaring" of the paper's Section 4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum RealOp {
    // Arithmetic
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Fabs,
    Sqrt,
    Cbrt,
    Fma,
    Hypot,
    Pow,
    Fmod,
    Fdim,
    Copysign,
    Fmin,
    Fmax,
    Floor,
    Ceil,
    Round,
    Trunc,
    // Exponential / logarithmic
    Exp,
    Exp2,
    Expm1,
    Log,
    Log2,
    Log10,
    Log1p,
    // Trigonometric
    Sin,
    Cos,
    Tan,
    Asin,
    Acos,
    Atan,
    Atan2,
    // Hyperbolic
    Sinh,
    Cosh,
    Tanh,
    Asinh,
    Acosh,
    Atanh,
    // Comparison (produce booleans)
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    // Boolean connectives
    And,
    Or,
    Not,
}

impl RealOp {
    /// Every operator, in a stable order.
    pub const ALL: &'static [RealOp] = &[
        RealOp::Add,
        RealOp::Sub,
        RealOp::Mul,
        RealOp::Div,
        RealOp::Neg,
        RealOp::Fabs,
        RealOp::Sqrt,
        RealOp::Cbrt,
        RealOp::Fma,
        RealOp::Hypot,
        RealOp::Pow,
        RealOp::Fmod,
        RealOp::Fdim,
        RealOp::Copysign,
        RealOp::Fmin,
        RealOp::Fmax,
        RealOp::Floor,
        RealOp::Ceil,
        RealOp::Round,
        RealOp::Trunc,
        RealOp::Exp,
        RealOp::Exp2,
        RealOp::Expm1,
        RealOp::Log,
        RealOp::Log2,
        RealOp::Log10,
        RealOp::Log1p,
        RealOp::Sin,
        RealOp::Cos,
        RealOp::Tan,
        RealOp::Asin,
        RealOp::Acos,
        RealOp::Atan,
        RealOp::Atan2,
        RealOp::Sinh,
        RealOp::Cosh,
        RealOp::Tanh,
        RealOp::Asinh,
        RealOp::Acosh,
        RealOp::Atanh,
        RealOp::Lt,
        RealOp::Gt,
        RealOp::Le,
        RealOp::Ge,
        RealOp::Eq,
        RealOp::Ne,
        RealOp::And,
        RealOp::Or,
        RealOp::Not,
    ];

    /// Number of arguments the operator takes.
    pub fn arity(self) -> usize {
        use RealOp::*;
        match self {
            Neg | Fabs | Sqrt | Cbrt | Floor | Ceil | Round | Trunc | Exp | Exp2 | Expm1 | Log
            | Log2 | Log10 | Log1p | Sin | Cos | Tan | Asin | Acos | Atan | Sinh | Cosh | Tanh
            | Asinh | Acosh | Atanh | Not => 1,
            Add | Sub | Mul | Div | Hypot | Pow | Fmod | Fdim | Copysign | Fmin | Fmax | Atan2
            | Lt | Gt | Le | Ge | Eq | Ne | And | Or => 2,
            Fma => 3,
        }
    }

    /// FPCore spelling of the operator.
    pub fn name(self) -> &'static str {
        use RealOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Neg => "neg",
            Fabs => "fabs",
            Sqrt => "sqrt",
            Cbrt => "cbrt",
            Fma => "fma",
            Hypot => "hypot",
            Pow => "pow",
            Fmod => "fmod",
            Fdim => "fdim",
            Copysign => "copysign",
            Fmin => "fmin",
            Fmax => "fmax",
            Floor => "floor",
            Ceil => "ceil",
            Round => "round",
            Trunc => "trunc",
            Exp => "exp",
            Exp2 => "exp2",
            Expm1 => "expm1",
            Log => "log",
            Log2 => "log2",
            Log10 => "log10",
            Log1p => "log1p",
            Sin => "sin",
            Cos => "cos",
            Tan => "tan",
            Asin => "asin",
            Acos => "acos",
            Atan => "atan",
            Atan2 => "atan2",
            Sinh => "sinh",
            Cosh => "cosh",
            Tanh => "tanh",
            Asinh => "asinh",
            Acosh => "acosh",
            Atanh => "atanh",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            And => "and",
            Or => "or",
            Not => "not",
        }
    }

    /// Parses the FPCore spelling of an operator.
    ///
    /// Note that `-` is ambiguous between negation and subtraction; the parser
    /// resolves it by arity, and this function returns [`RealOp::Sub`].
    pub fn from_name(name: &str) -> Option<RealOp> {
        RealOp::ALL.iter().copied().find(|op| op.name() == name)
    }

    /// True for operators that produce a boolean result.
    pub fn is_predicate(self) -> bool {
        use RealOp::*;
        matches!(self, Lt | Gt | Le | Ge | Eq | Ne | And | Or | Not)
    }

    /// True for the boolean connectives (which also consume booleans).
    pub fn is_boolean_connective(self) -> bool {
        matches!(self, RealOp::And | RealOp::Or | RealOp::Not)
    }

    /// True for comparison operators.
    pub fn is_comparison(self) -> bool {
        use RealOp::*;
        matches!(self, Lt | Gt | Le | Ge | Eq | Ne)
    }
}

impl fmt::Display for RealOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A real-number expression.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A literal constant.
    Num(Constant),
    /// A free variable (one of the FPCore arguments).
    Var(Symbol),
    /// An operator applied to arguments. The argument count always equals
    /// [`RealOp::arity`].
    Op(RealOp, Vec<Expr>),
    /// A conditional expression `(if cond then else)`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A numeric literal from an integer.
    pub fn int(n: i128) -> Expr {
        Expr::Num(Constant::integer(n))
    }

    /// A variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(Symbol::new(name))
    }

    /// Applies `op` to `args`.
    ///
    /// # Panics
    ///
    /// Panics if the number of arguments does not match the operator's arity.
    pub fn op(op: RealOp, args: Vec<Expr>) -> Expr {
        assert_eq!(
            args.len(),
            op.arity(),
            "operator {op} expects {} argument(s), got {}",
            op.arity(),
            args.len()
        );
        Expr::Op(op, args)
    }

    /// Binary helper: `lhs op rhs`.
    pub fn bin(op: RealOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::op(op, vec![lhs, rhs])
    }

    /// Unary helper: `op arg`.
    pub fn un(op: RealOp, arg: Expr) -> Expr {
        Expr::op(op, vec![arg])
    }

    /// Number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        1 + match self {
            Expr::Num(_) | Expr::Var(_) => 0,
            Expr::Op(_, args) => args.iter().map(Expr::size).sum(),
            Expr::If(c, t, e) => c.size() + t.size() + e.size(),
        }
    }

    /// Maximum depth of the expression tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + match self {
            Expr::Num(_) | Expr::Var(_) => 0,
            Expr::Op(_, args) => args.iter().map(Expr::depth).max().unwrap_or(0),
            Expr::If(c, t, e) => c.depth().max(t.depth()).max(e.depth()),
        }
    }

    /// The set of free variables, in sorted order.
    pub fn variables(&self) -> Vec<Symbol> {
        fn walk(e: &Expr, out: &mut BTreeSet<Symbol>) {
            match e {
                Expr::Num(_) => {}
                Expr::Var(v) => {
                    out.insert(*v);
                }
                Expr::Op(_, args) => args.iter().for_each(|a| walk(a, out)),
                Expr::If(c, t, el) => {
                    walk(c, out);
                    walk(t, out);
                    walk(el, out);
                }
            }
        }
        let mut set = BTreeSet::new();
        walk(self, &mut set);
        set.into_iter().collect()
    }

    /// All subexpressions, in pre-order (the expression itself first).
    pub fn subexpressions(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(e) = stack.pop() {
            out.push(e);
            match e {
                Expr::Num(_) | Expr::Var(_) => {}
                Expr::Op(_, args) => stack.extend(args.iter().rev()),
                Expr::If(c, t, el) => {
                    stack.push(el);
                    stack.push(t);
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Substitutes every free occurrence of `var` with `value`.
    pub fn substitute(&self, var: Symbol, value: &Expr) -> Expr {
        match self {
            Expr::Num(_) => self.clone(),
            Expr::Var(v) => {
                if *v == var {
                    value.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Op(op, args) => {
                Expr::Op(*op, args.iter().map(|a| a.substitute(var, value)).collect())
            }
            Expr::If(c, t, e) => Expr::If(
                Box::new(c.substitute(var, value)),
                Box::new(t.substitute(var, value)),
                Box::new(e.substitute(var, value)),
            ),
        }
    }

    /// Replaces the first subexpression structurally equal to `needle` with
    /// `replacement`, returning `None` if `needle` does not occur.
    pub fn replace_subexpr(&self, needle: &Expr, replacement: &Expr) -> Option<Expr> {
        if self == needle {
            return Some(replacement.clone());
        }
        match self {
            Expr::Num(_) | Expr::Var(_) => None,
            Expr::Op(op, args) => {
                for (i, arg) in args.iter().enumerate() {
                    if let Some(new_arg) = arg.replace_subexpr(needle, replacement) {
                        let mut new_args = args.clone();
                        new_args[i] = new_arg;
                        return Some(Expr::Op(*op, new_args));
                    }
                }
                None
            }
            Expr::If(c, t, e) => {
                if let Some(nc) = c.replace_subexpr(needle, replacement) {
                    return Some(Expr::If(Box::new(nc), t.clone(), e.clone()));
                }
                if let Some(nt) = t.replace_subexpr(needle, replacement) {
                    return Some(Expr::If(c.clone(), Box::new(nt), e.clone()));
                }
                if let Some(ne) = e.replace_subexpr(needle, replacement) {
                    return Some(Expr::If(c.clone(), t.clone(), Box::new(ne)));
                }
                None
            }
        }
    }

    /// True if the expression contains any conditional.
    pub fn has_if(&self) -> bool {
        match self {
            Expr::If(_, _, _) => true,
            Expr::Num(_) | Expr::Var(_) => false,
            Expr::Op(_, args) => args.iter().any(Expr::has_if),
        }
    }

    /// True if the expression is a boolean-valued expression (a comparison,
    /// connective, or boolean literal).
    pub fn is_boolean(&self) -> bool {
        match self {
            Expr::Num(Constant::Bool(_)) => true,
            Expr::Op(op, _) => op.is_predicate(),
            Expr::If(_, t, _) => t.is_boolean(),
            _ => false,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::to_sexpr(self))
    }
}

/// A top-level FPCore benchmark: arguments, metadata, precondition and body.
#[derive(Clone, PartialEq, Debug)]
pub struct FPCore {
    /// Optional benchmark name (`:name` property or identifier after `FPCore`).
    pub name: Option<String>,
    /// Formal arguments with their representation types.
    pub args: Vec<(Symbol, FpType)>,
    /// Optional precondition restricting valid inputs (`:pre`).
    pub pre: Option<Expr>,
    /// Output representation (`:precision`, defaults to binary64).
    pub precision: FpType,
    /// The real-number expression to implement.
    pub body: Expr,
}

impl FPCore {
    /// Creates an FPCore with the given argument names (all binary64) and body.
    pub fn new(args: &[&str], body: Expr) -> FPCore {
        FPCore {
            name: None,
            args: args
                .iter()
                .map(|a| (Symbol::new(a), FpType::Binary64))
                .collect(),
            pre: None,
            precision: FpType::Binary64,
            body,
        }
    }

    /// Sets the benchmark name (builder style).
    pub fn with_name(mut self, name: &str) -> FPCore {
        self.name = Some(name.to_owned());
        self
    }

    /// Sets the precondition (builder style).
    pub fn with_pre(mut self, pre: Expr) -> FPCore {
        self.pre = Some(pre);
        self
    }

    /// Sets the output precision (builder style).
    pub fn with_precision(mut self, precision: FpType) -> FPCore {
        self.precision = precision;
        self
    }

    /// The argument names in declaration order.
    pub fn arg_names(&self) -> Vec<Symbol> {
        self.args.iter().map(|(s, _)| *s).collect()
    }
}

impl fmt::Display for FPCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::fpcore_to_sexpr(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_expr() -> Expr {
        // (+ (* x x) (sqrt y))
        Expr::bin(
            RealOp::Add,
            Expr::bin(RealOp::Mul, Expr::var("x"), Expr::var("x")),
            Expr::un(RealOp::Sqrt, Expr::var("y")),
        )
    }

    #[test]
    fn arity_and_names_consistent() {
        for &op in RealOp::ALL {
            assert_eq!(RealOp::from_name(op.name()), Some(op), "op {op:?}");
            assert!(op.arity() >= 1 && op.arity() <= 3);
        }
        // `-` resolves to Sub (the parser handles unary minus separately).
        assert_eq!(RealOp::from_name("-"), Some(RealOp::Sub));
        assert_eq!(RealOp::from_name("frobnicate"), None);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn op_constructor_checks_arity() {
        let _ = Expr::op(RealOp::Add, vec![Expr::int(1)]);
    }

    #[test]
    fn size_depth_variables() {
        let e = sample_expr();
        assert_eq!(e.size(), 6);
        assert_eq!(e.depth(), 3);
        let vars = e.variables();
        assert_eq!(vars.len(), 2);
        assert!(vars.contains(&Symbol::new("x")));
        assert!(vars.contains(&Symbol::new("y")));
    }

    #[test]
    fn subexpressions_preorder() {
        let e = sample_expr();
        let subs = e.subexpressions();
        assert_eq!(subs.len(), 6);
        assert_eq!(subs[0], &e);
    }

    #[test]
    fn substitution() {
        let e = sample_expr();
        let replaced = e.substitute(Symbol::new("y"), &Expr::int(4));
        assert!(!replaced.variables().contains(&Symbol::new("y")));
        assert_eq!(replaced.size(), e.size());
    }

    #[test]
    fn replace_subexpr_first_occurrence() {
        let e = sample_expr();
        let needle = Expr::un(RealOp::Sqrt, Expr::var("y"));
        let out = e.replace_subexpr(&needle, &Expr::int(0)).unwrap();
        assert!(out.size() < e.size());
        assert!(e
            .replace_subexpr(&Expr::var("zzz"), &Expr::int(0))
            .is_none());
    }

    #[test]
    fn boolean_classification() {
        let cmp = Expr::bin(RealOp::Lt, Expr::var("x"), Expr::int(0));
        assert!(cmp.is_boolean());
        assert!(!sample_expr().is_boolean());
        let cond = Expr::If(
            Box::new(cmp.clone()),
            Box::new(Expr::int(1)),
            Box::new(Expr::int(2)),
        );
        assert!(cond.has_if());
        assert!(!sample_expr().has_if());
    }

    #[test]
    fn fpcore_builder() {
        let core = FPCore::new(&["x"], Expr::var("x"))
            .with_name("identity")
            .with_precision(FpType::Binary32);
        assert_eq!(core.name.as_deref(), Some("identity"));
        assert_eq!(core.precision, FpType::Binary32);
        assert_eq!(core.arg_names(), vec![Symbol::new("x")]);
    }
}
