//! Ground-truth evaluation of real expressions by precision escalation.
//!
//! Given an FPCore expression and exact floating-point inputs, the evaluator
//! computes an interval enclosure of the true real value at increasing working
//! precisions until the enclosure rounds to a single value of the target format
//! (binary32 or binary64). This mirrors the Rival library used by Herbie and
//! Chassis: the returned value is the *correctly rounded* result, which is the
//! reference every accuracy measurement in the compiler compares against.
//!
//! Every evaluation goes through a [`Memo`]: each distinct subexpression is
//! evaluated once per point and precision rung, however many expressions or
//! occurrences share it. [`Evaluator::eval`] uses a memo of its own per call;
//! a caller that asks about many related expressions over one point set
//! keeps one memo for all of them.

use crate::bigfloat::{BigFloat, RoundMode};
use crate::functions as fun;
use crate::interval::{BoolInterval, Interval, IntervalError};
use fpcore::{Constant, Expr, FpType, RealOp, Symbol};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The result of ground-truth evaluation at a point.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum GroundTruth {
    /// The correctly rounded value in the target format (widened to `f64` for
    /// binary32 targets).
    Value(f64),
    /// The true result is a domain error (NaN under the paper's semantics).
    Nan,
    /// The evaluator could not decide the rounding even at its highest precision
    /// (the point is discarded from sampling, as in Herbie).
    Unsamplable,
}

impl GroundTruth {
    /// The numeric value, treating NaN results as `f64::NAN` and unsamplable
    /// points as `None`.
    pub fn value(&self) -> Option<f64> {
        match self {
            GroundTruth::Value(v) => Some(*v),
            GroundTruth::Nan => Some(f64::NAN),
            GroundTruth::Unsamplable => None,
        }
    }
}

/// Ground truth failed as a *whole* — not one discarded point, but a sweep
/// whose every attempt ended [`GroundTruth::Unsamplable`]. Following the Reval
/// paper, non-convergence is a first-class outcome of precision escalation
/// (the ladder topped out, it did not crash); this type is how callers report
/// it as a typed, recoverable error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TruthError {
    /// The precision ladder reached its highest rung without the enclosure
    /// rounding to a single value, at every point attempted.
    NonConverged {
        /// How many points failed to converge.
        points: usize,
        /// The top rung of the ladder (bits of working precision).
        max_precision: u32,
    },
}

impl std::fmt::Display for TruthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruthError::NonConverged {
                points,
                max_precision,
            } => write!(
                f,
                "ground truth did not converge at {points} point(s) \
                 (precision ladder tops out at {max_precision} bits)"
            ),
        }
    }
}

impl std::error::Error for TruthError {}

/// Intermediate evaluation failures at a fixed precision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EvalError {
    /// Definitely a NaN regardless of precision.
    Domain,
    /// Needs more precision (or is genuinely unbounded).
    Unbounded,
}

impl From<IntervalError> for EvalError {
    fn from(e: IntervalError) -> EvalError {
        match e {
            IntervalError::Domain => EvalError::Domain,
            IntervalError::Unbounded => EvalError::Unbounded,
        }
    }
}

/// What a subexpression evaluates to at one point and precision. Errors are
/// values too: they are as deterministic as intervals.
type NodeValue = Result<Interval, EvalError>;

/// A reusable ground-truth evaluator with a configurable precision ladder.
#[derive(Clone, Debug)]
pub struct Evaluator {
    precisions: Vec<u32>,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator {
            precisions: vec![96, 192, 384, 768, 1536],
        }
    }
}

impl Evaluator {
    /// An evaluator with the default precision ladder (96 up to 1536 bits).
    pub fn new() -> Evaluator {
        Evaluator::default()
    }

    /// An evaluator with a custom precision ladder.
    ///
    /// # Panics
    ///
    /// Panics if the ladder is empty.
    pub fn with_precisions(precisions: Vec<u32>) -> Evaluator {
        assert!(!precisions.is_empty(), "precision ladder cannot be empty");
        Evaluator { precisions }
    }

    /// Computes the correctly rounded value of `expr` at the given point.
    pub fn eval(&self, expr: &Expr, env: &[(Symbol, f64)], ty: FpType) -> GroundTruth {
        self.eval_counted(expr, env, ty).0
    }

    /// [`Evaluator::eval`], also returning the work it took: the interval
    /// node evaluations it performed. Each distinct subexpression is
    /// evaluated at most once per precision rung tried: the call memoizes
    /// like a one-point [`Memo`] of its own (see [`Interned::eval_counted`]).
    pub fn eval_counted(
        &self,
        expr: &Expr,
        env: &[(Symbol, f64)],
        ty: FpType,
    ) -> (GroundTruth, u64) {
        Interned::alone(expr, &self.precisions).eval_counted(0, env, ty)
    }

    /// Evaluates a boolean expression (e.g. a precondition) at a point, returning
    /// `None` when the truth value cannot be decided.
    pub fn eval_bool(&self, expr: &Expr, env: &[(Symbol, f64)]) -> Option<bool> {
        Interned::alone(expr, &self.precisions).eval_bool(0, env)
    }

    /// The precision ladder used by this evaluator.
    pub fn precisions(&self) -> &[u32] {
        &self.precisions
    }
}

/// A memo of the intervals of real subexpressions: one entry per
/// (subexpression, point, precision rung), over a fixed number of points and
/// one evaluator's precision ladder.
///
/// Subexpressions are interned. Each distinct one gets an id, hash-consed on
/// its operator (or constant, or variable) and its children's ids, so a
/// lookup hashes one small node, two expressions that share a subtree share
/// its entries, and two different subexpressions never share one.
///
/// Each entry holds the subexpression's full result at that point and
/// precision, an error included, and is computed at most once, in its own
/// once-cell: a request that needs an entry another thread is computing
/// waits for that cell alone, and no other lock is held while an interval
/// operation runs. A computation that panics leaves its entry empty. So the
/// evaluations a set of requests performs, summed, do not depend on how
/// many threads make them or in what order.
///
/// The memo only grows; drop it to free its entries.
pub struct Memo {
    precisions: Vec<u32>,
    points: usize,
    /// Every interned subexpression, keyed on its shape with children as
    /// ids.
    nodes: Mutex<HashMap<Kind, Arc<Node>>>,
}

/// An interned subexpression and its entries.
struct Node {
    id: usize,
    /// One row per precision rung, allocated on first use, holding one
    /// entry per point.
    rows: Box<[OnceLock<Cells>]>,
}

/// A row of entries, each empty until computed.
type Cells = Box<[OnceLock<NodeValue>]>;

fn empty_cells(n: usize) -> Cells {
    (0..n).map(|_| OnceLock::new()).collect()
}

/// One empty, lazily allocated row of cells per rung.
fn empty_rows(rungs: usize) -> Box<[OnceLock<Cells>]> {
    (0..rungs).map(|_| OnceLock::new()).collect()
}

impl Memo {
    /// An empty memo for `points` points and `evaluator`'s precision ladder.
    pub fn new(evaluator: &Evaluator, points: usize) -> Memo {
        Memo {
            precisions: evaluator.precisions.clone(),
            points,
            nodes: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<Kind, Arc<Node>>> {
        // The table is only ever left consistent (an insert either happened
        // or did not), so a panic elsewhere while it was held is harmless.
        self.nodes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Interns every subexpression of `expr`, for evaluation at any of the
    /// memo's points. The table is locked once, for lookups only.
    pub fn intern(&self, expr: &Expr) -> Interned<'_> {
        let shapes = shapes(expr);
        let rungs = self.precisions.len();
        let mut ids = Vec::with_capacity(shapes.len());
        let mut table = self.lock();
        let nodes = shapes
            .iter()
            .map(|shape| {
                let next = table.len();
                let node = table
                    .entry(shape.with_children(|i| ids[i]))
                    .or_insert_with(|| {
                        Arc::new(Node {
                            id: next,
                            rows: empty_rows(rungs),
                        })
                    });
                ids.push(node.id);
                Arc::clone(node)
            })
            .collect();
        drop(table);
        Interned {
            precisions: &self.precisions,
            points: self.points,
            shapes,
            entries: Entries::Memo(nodes),
        }
    }
}

/// An expression ready to evaluate: its distinct subexpressions and where
/// their entries live, in a [`Memo`] or in the expression's own table.
pub struct Interned<'m> {
    precisions: &'m [u32],
    points: usize,
    /// The expression's distinct subexpressions, each after its children
    /// (which are positions in this list); the root is last.
    shapes: Vec<Kind>,
    entries: Entries,
}

/// Where an [`Interned`] expression's entries live.
enum Entries {
    /// Its own, at its one point: per rung, a row with one entry per
    /// subexpression.
    Alone(Box<[OnceLock<Cells>]>),
    /// A memo's, subexpression by subexpression.
    Memo(Vec<Arc<Node>>),
}

/// A subexpression's shape: its operator, constant or variable, and its
/// children (positions in an expression, or ids in a memo).
#[derive(Clone, PartialEq, Eq, Hash)]
enum Kind {
    Num(Constant),
    Var(Symbol),
    If([usize; 3]),
    Op(RealOp, Args),
}

/// The operands of an operator: inline up to the largest arity, boxed
/// beyond it (which a well-formed expression never needs).
#[derive(Clone, PartialEq, Eq, Hash)]
enum Args {
    Few([usize; 3], u8),
    Many(Box<[usize]>),
}

impl FromIterator<usize> for Args {
    fn from_iter<I: IntoIterator<Item = usize>>(ids: I) -> Args {
        let mut ids = ids.into_iter().fuse();
        let few = [ids.next(), ids.next(), ids.next()];
        match ids.next() {
            None => {
                let len = few.iter().flatten().count() as u8;
                Args::Few(few.map(|id| id.unwrap_or(0)), len)
            }
            Some(id) => Args::Many(few.into_iter().flatten().chain([id]).chain(ids).collect()),
        }
    }
}

impl Args {
    fn as_slice(&self) -> &[usize] {
        match self {
            Args::Few(ids, len) => &ids[..usize::from(*len)],
            Args::Many(ids) => ids,
        }
    }
}

impl Kind {
    /// The same shape with each child `i` replaced by `f(i)`.
    fn with_children(&self, f: impl Fn(usize) -> usize) -> Kind {
        match self {
            Kind::Num(_) | Kind::Var(_) => self.clone(),
            Kind::If(children) => Kind::If(children.map(f)),
            Kind::Op(op, args) => Kind::Op(*op, args.as_slice().iter().map(|&i| f(i)).collect()),
        }
    }
}

/// The distinct subexpressions of `expr`, hash-consed on their shapes, each
/// after its children; `expr` itself is last.
fn shapes(expr: &Expr) -> Vec<Kind> {
    fn add(expr: &Expr, shapes: &mut Vec<Kind>, seen: &mut HashMap<Kind, usize>) -> usize {
        let shape = match expr {
            Expr::Num(c) => Kind::Num(*c),
            Expr::Var(v) => Kind::Var(*v),
            Expr::If(c, t, e) => Kind::If([
                add(c, shapes, seen),
                add(t, shapes, seen),
                add(e, shapes, seen),
            ]),
            Expr::Op(op, args) => {
                Kind::Op(*op, args.iter().map(|a| add(a, shapes, seen)).collect())
            }
        };
        *seen.entry(shape).or_insert_with_key(|shape| {
            shapes.push(shape.clone());
            shapes.len() - 1
        })
    }
    let mut shapes = Vec::new();
    add(expr, &mut shapes, &mut HashMap::new());
    shapes
}

/// Where an evaluation happens: a point, its variable bindings, and a rung
/// of the precision ladder.
struct At<'e> {
    point: usize,
    env: &'e [(Symbol, f64)],
    rung: usize,
    prec: u32,
}

impl At<'_> {
    /// The point interval bound to `var`. The last binding of a name wins,
    /// and an unbound name is a domain error.
    fn var(&self, var: Symbol) -> NodeValue {
        self.env
            .iter()
            .rev()
            .find(|(s, _)| *s == var)
            .map(|&(_, v)| Interval::point_f64(v))
            .ok_or(EvalError::Domain)
    }
}

impl<'m> Interned<'m> {
    /// `expr` with entries of its own at one point, for a single request.
    fn alone(expr: &Expr, precisions: &'m [u32]) -> Interned<'m> {
        Interned {
            precisions,
            points: 1,
            shapes: shapes(expr),
            entries: Entries::Alone(empty_rows(precisions.len())),
        }
    }

    /// The entry of subexpression `i` at `at`.
    fn cell(&self, i: usize, at: &At<'_>) -> &OnceLock<NodeValue> {
        match &self.entries {
            Entries::Alone(rows) => {
                &rows[at.rung].get_or_init(|| empty_cells(self.shapes.len()))[i]
            }
            Entries::Memo(nodes) => {
                &nodes[i].rows[at.rung].get_or_init(|| empty_cells(self.points))[at.point]
            }
        }
    }

    /// The correctly rounded value of the expression at `point`, whose
    /// variable bindings are `env`, and the interval node evaluations this
    /// request performed: entries it computed, not entries it found.
    ///
    /// # Panics
    ///
    /// Panics if `point` is not below the memo's point count.
    pub fn eval_counted(
        &self,
        point: usize,
        env: &[(Symbol, f64)],
        ty: FpType,
    ) -> (GroundTruth, u64) {
        assert!(point < self.points, "point {point} of {}", self.points);
        // Chaos harness: an armed abort forces the ladder's own
        // non-convergence outcome without running it (and computes no entry).
        if fault::point("rival.eval") {
            return (GroundTruth::Unsamplable, 0);
        }
        let root = self.shapes.len() - 1;
        let mut evals = 0;
        for (rung, &prec) in self.precisions.iter().enumerate() {
            let at = At {
                point,
                env,
                rung,
                prec,
            };
            match self.value(root, &at, &mut evals) {
                Err(EvalError::Domain) => return (GroundTruth::Nan, evals),
                Err(EvalError::Unbounded) => {}
                Ok(interval) => {
                    if interval.has_nan() {
                        continue;
                    }
                    let (lo, hi) = round_to_type(interval, ty);
                    // Numeric equality (rather than bit equality) so that an
                    // enclosure collapsing to [−0.0, +0.0] counts as decided.
                    if lo == hi {
                        return (GroundTruth::Value(lo), evals);
                    }
                    // Not yet decided; escalate precision.
                }
            }
        }
        (GroundTruth::Unsamplable, evals)
    }

    /// The expression's truth value at `point` as a boolean (a precondition,
    /// say), or `None` when the ladder cannot decide it.
    ///
    /// # Panics
    ///
    /// Panics if `point` is not below the memo's point count.
    pub fn eval_bool(&self, point: usize, env: &[(Symbol, f64)]) -> Option<bool> {
        assert!(point < self.points, "point {point} of {}", self.points);
        let root = self.shapes.len() - 1;
        for (rung, &prec) in self.precisions.iter().enumerate() {
            let at = At {
                point,
                env,
                rung,
                prec,
            };
            match self.truth(root, &at, &mut 0) {
                Err(EvalError::Domain) => return Some(false),
                Err(EvalError::Unbounded) => {}
                Ok(b) => {
                    if let Some(v) = b.definite() {
                        return Some(v);
                    }
                }
            }
        }
        None
    }

    /// The entry of subexpression `i` at `at`, computed if the memo lacks
    /// it (adding one to `evals`). Arguments are evaluated left to right
    /// and the first error wins; an `if` evaluates only its taken branch.
    /// Everything a node reads is evaluated first, each in its own cell, so
    /// a cell is held only while its own node's operation runs.
    fn value(&self, i: usize, at: &At<'_>, evals: &mut u64) -> &NodeValue {
        let cell = self.cell(i, at);
        if let Some(value) = cell.get() {
            return value;
        }
        match &self.shapes[i] {
            Kind::Num(c) => init(cell, evals, || constant_interval(c, at.prec)),
            Kind::Var(v) => init(cell, evals, || at.var(*v)),
            Kind::If([c, t, e]) => {
                let taken = self.truth(*c, at, evals).and_then(|c| match c.definite() {
                    Some(true) => Ok(*t),
                    Some(false) => Ok(*e),
                    None => Err(EvalError::Unbounded),
                });
                match taken {
                    Ok(branch) => {
                        let value = self.value(branch, at, evals);
                        init(cell, evals, || value.clone())
                    }
                    Err(e) => init(cell, evals, || Err(e)),
                }
            }
            Kind::Op(op, _) if op.is_predicate() => {
                // A bare predicate in numeric position: true is 1, false 0.
                let b = self.truth(i, at, evals);
                init(cell, evals, || match b?.definite() {
                    Some(v) => Ok(Interval::point(BigFloat::from_i64(i64::from(v)))),
                    None => Err(EvalError::Unbounded),
                })
            }
            Kind::Op(op, args) => {
                let args = args.as_slice();
                let mut operands = Vec::with_capacity(args.len());
                for &arg in args {
                    match self.value(arg, at, evals) {
                        Ok(v) => operands.push(v),
                        Err(e) => return init(cell, evals, || Err(*e)),
                    }
                }
                init(cell, evals, || apply_real_op(*op, &operands, at.prec))
            }
        }
    }

    /// Subexpression `i` as a three-valued boolean at `at`. Numeric
    /// operands go through [`Interned::value`]; connectives and conditions
    /// are not memoized themselves.
    fn truth(&self, i: usize, at: &At<'_>, evals: &mut u64) -> Result<BoolInterval, EvalError> {
        match &self.shapes[i] {
            Kind::Num(Constant::Bool(b)) => Ok(BoolInterval::certain(*b)),
            Kind::Op(op, args) if op.is_comparison() => {
                let args = args.as_slice();
                let lhs = self.value(args[0], at, evals).as_ref().map_err(|e| *e)?;
                let rhs = self.value(args[1], at, evals).as_ref().map_err(|e| *e)?;
                Ok(compare(*op, lhs, rhs))
            }
            Kind::Op(RealOp::And, args) => {
                let args = args.as_slice();
                Ok(self
                    .truth(args[0], at, evals)?
                    .and(&self.truth(args[1], at, evals)?))
            }
            Kind::Op(RealOp::Or, args) => {
                let args = args.as_slice();
                Ok(self
                    .truth(args[0], at, evals)?
                    .or(&self.truth(args[1], at, evals)?))
            }
            Kind::Op(RealOp::Not, args) => Ok(self.truth(args.as_slice()[0], at, evals)?.not()),
            Kind::If([c, t, e]) => {
                let c = self.truth(*c, at, evals)?;
                match c.definite() {
                    Some(true) => self.truth(*t, at, evals),
                    Some(false) => self.truth(*e, at, evals),
                    None => Ok(BoolInterval::unknown()),
                }
            }
            // Any numeric expression in boolean position: nonzero means true.
            _ => {
                let v = self.value(i, at, evals).as_ref().map_err(|e| *e)?;
                Ok(v.eq_interval(&Interval::point_f64(0.0)).not())
            }
        }
    }
}

/// Fills `cell` with `f`'s value unless another thread got there first,
/// adding one to `evals` if this call computed it.
fn init<'c>(
    cell: &'c OnceLock<NodeValue>,
    evals: &mut u64,
    f: impl FnOnce() -> NodeValue,
) -> &'c NodeValue {
    cell.get_or_init(|| {
        *evals += 1;
        f()
    })
}

fn compare(op: RealOp, lhs: &Interval, rhs: &Interval) -> BoolInterval {
    match op {
        RealOp::Lt => lhs.lt(rhs),
        RealOp::Gt => lhs.gt(rhs),
        RealOp::Le => lhs.le(rhs),
        RealOp::Ge => lhs.ge(rhs),
        RealOp::Eq => lhs.eq_interval(rhs),
        RealOp::Ne => lhs.eq_interval(rhs).not(),
        _ => unreachable!("not a comparison: {op:?}"),
    }
}

fn round_to_type(interval: &Interval, ty: FpType) -> (f64, f64) {
    match ty {
        FpType::Binary64 => (
            interval.lo.to_f64(RoundMode::Nearest),
            interval.hi.to_f64(RoundMode::Nearest),
        ),
        FpType::Binary32 => (
            interval.lo.to_f32(RoundMode::Nearest) as f64,
            interval.hi.to_f32(RoundMode::Nearest) as f64,
        ),
        FpType::Bool => (
            interval.lo.to_f64(RoundMode::Nearest),
            interval.hi.to_f64(RoundMode::Nearest),
        ),
    }
}

fn constant_interval(c: &Constant, prec: u32) -> NodeValue {
    match c {
        Constant::Rational(r) => {
            let lo =
                BigFloat::from_rational(r.numerator(), r.denominator(), prec, RoundMode::Floor);
            let hi = BigFloat::from_rational(r.numerator(), r.denominator(), prec, RoundMode::Ceil);
            Ok(Interval::new(lo, hi))
        }
        Constant::Pi => {
            let v = fun::pi(prec + 8);
            Ok(widen_point(v, prec))
        }
        Constant::E => {
            let v = fun::euler(prec + 8);
            Ok(widen_point(v, prec))
        }
        Constant::Infinity => Ok(Interval::point(BigFloat::infinity(false))),
        Constant::NegInfinity => Ok(Interval::point(BigFloat::infinity(true))),
        Constant::Nan => Err(EvalError::Domain),
        Constant::Bool(b) => Ok(Interval::point(BigFloat::from_i64(if *b { 1 } else { 0 }))),
    }
}

fn widen_point(v: BigFloat, prec: u32) -> Interval {
    // Constants computed by `functions` are accurate to a couple of ulps; widen by
    // rounding down/up one step at the target precision.
    let lo = v.round_to(prec, RoundMode::Floor);
    let hi = v.round_to(prec, RoundMode::Ceil);
    let step = fun::mul_pow2(
        &BigFloat::from_i64(4),
        v.magnitude().unwrap_or(0) - prec as i64,
    );
    Interval::new(
        BigFloat::sub(&lo, &step, prec + 8, RoundMode::Floor),
        BigFloat::add(&hi, &step, prec + 8, RoundMode::Ceil),
    )
}

fn apply_real_op(op: RealOp, args: &[&Interval], prec: u32) -> NodeValue {
    use RealOp::*;
    let a = args[0];
    let out = match op {
        Add => a.add(args[1], prec),
        Sub => a.sub(args[1], prec),
        Mul => a.mul(args[1], prec),
        Div => a.div(args[1], prec),
        Neg => Ok(a.neg()),
        Fabs => Ok(a.fabs()),
        Sqrt => a.sqrt(prec),
        Cbrt => a.cbrt(prec),
        Fma => a.fma(args[1], args[2], prec),
        Hypot => a.hypot(args[1], prec),
        Pow => a.pow(args[1], prec),
        Fmod => a.fmod(args[1], prec),
        Fdim => a.fdim(args[1], prec),
        Copysign => a.copysign(args[1], prec),
        Fmin => a.fmin(args[1], prec),
        Fmax => a.fmax(args[1], prec),
        Floor => a.floor(prec),
        Ceil => a.ceil(prec),
        Round => a.round(prec),
        Trunc => a.trunc(prec),
        Exp => a.exp(prec),
        Exp2 => a.exp2(prec),
        Expm1 => a.expm1(prec),
        Log => a.log(prec),
        Log2 => a.log2(prec),
        Log10 => a.log10(prec),
        Log1p => a.log1p(prec),
        Sin => a.sin(prec),
        Cos => a.cos(prec),
        Tan => a.tan(prec),
        Asin => a.asin(prec),
        Acos => a.acos(prec),
        Atan => a.atan(prec),
        Atan2 => a.atan2(args[1], prec),
        Sinh => a.sinh(prec),
        Cosh => a.cosh(prec),
        Tanh => a.tanh(prec),
        Asinh => a.asinh(prec),
        Acosh => a.acosh(prec),
        Atanh => a.atanh(prec),
        RealOp::Lt
        | RealOp::Gt
        | RealOp::Le
        | RealOp::Ge
        | RealOp::Eq
        | RealOp::Ne
        | RealOp::And
        | RealOp::Or
        | RealOp::Not => {
            unreachable!("predicates are evaluated as booleans")
        }
    };
    out.map_err(EvalError::from)
}

/// Computes the correctly rounded value of `expr` at `env` in format `ty` using
/// the default precision ladder.
pub fn ground_truth(expr: &Expr, env: &[(Symbol, f64)], ty: FpType) -> GroundTruth {
    Evaluator::new().eval(expr, env, ty)
}

/// The tree walk the memoized evaluator replaced, kept as the reference it
/// is tested against: every node re-evaluated wherever it occurs.
#[cfg(test)]
mod reference {
    use super::*;

    /// [`Evaluator::eval_counted`] without a memo.
    pub(super) fn eval_counted(
        evaluator: &Evaluator,
        expr: &Expr,
        env: &[(Symbol, f64)],
        ty: FpType,
    ) -> (GroundTruth, u64) {
        let env: HashMap<Symbol, Interval> = env
            .iter()
            .map(|(s, v)| (*s, Interval::point_f64(*v)))
            .collect();
        let mut evals = 0;
        for &prec in evaluator.precisions() {
            match eval_interval(expr, &env, prec, &mut evals) {
                Err(EvalError::Domain) => return (GroundTruth::Nan, evals),
                Err(EvalError::Unbounded) => continue,
                Ok(interval) => {
                    if interval.has_nan() {
                        continue;
                    }
                    let (lo, hi) = round_to_type(&interval, ty);
                    if lo == hi {
                        return (GroundTruth::Value(lo), evals);
                    }
                }
            }
        }
        (GroundTruth::Unsamplable, evals)
    }

    /// [`Evaluator::eval_bool`] without a memo.
    pub(super) fn eval_bool(
        evaluator: &Evaluator,
        expr: &Expr,
        env: &[(Symbol, f64)],
    ) -> Option<bool> {
        let env: HashMap<Symbol, Interval> = env
            .iter()
            .map(|(s, v)| (*s, Interval::point_f64(*v)))
            .collect();
        for &prec in evaluator.precisions() {
            match eval_bool_interval(expr, &env, prec, &mut 0) {
                Err(EvalError::Domain) => return Some(false),
                Err(EvalError::Unbounded) => continue,
                Ok(b) => {
                    if let Some(v) = b.definite() {
                        return Some(v);
                    }
                }
            }
        }
        None
    }

    fn eval_interval(
        expr: &Expr,
        env: &HashMap<Symbol, Interval>,
        prec: u32,
        evals: &mut u64,
    ) -> NodeValue {
        *evals += 1;
        match expr {
            Expr::Num(c) => constant_interval(c, prec),
            Expr::Var(v) => env.get(v).cloned().ok_or(EvalError::Domain),
            Expr::If(cond, then_branch, else_branch) => {
                let c = eval_bool_interval(cond, env, prec, evals)?;
                match c.definite() {
                    Some(true) => eval_interval(then_branch, env, prec, evals),
                    Some(false) => eval_interval(else_branch, env, prec, evals),
                    None => Err(EvalError::Unbounded),
                }
            }
            Expr::Op(op, args) => {
                if op.is_predicate() {
                    let b = eval_bool_interval(expr, env, prec, evals)?;
                    return match b.definite() {
                        Some(v) => Ok(Interval::point(BigFloat::from_i64(if v { 1 } else { 0 }))),
                        None => Err(EvalError::Unbounded),
                    };
                }
                let vals: Vec<Interval> = args
                    .iter()
                    .map(|a| eval_interval(a, env, prec, evals))
                    .collect::<Result<_, _>>()?;
                let vals: Vec<&Interval> = vals.iter().collect();
                apply_real_op(*op, &vals, prec)
            }
        }
    }

    fn eval_bool_interval(
        expr: &Expr,
        env: &HashMap<Symbol, Interval>,
        prec: u32,
        evals: &mut u64,
    ) -> Result<BoolInterval, EvalError> {
        match expr {
            Expr::Num(Constant::Bool(b)) => Ok(BoolInterval::certain(*b)),
            Expr::Op(op, args) if op.is_comparison() => {
                let lhs = eval_interval(&args[0], env, prec, evals)?;
                let rhs = eval_interval(&args[1], env, prec, evals)?;
                Ok(compare(*op, &lhs, &rhs))
            }
            Expr::Op(RealOp::And, args) => Ok(eval_bool_interval(&args[0], env, prec, evals)?
                .and(&eval_bool_interval(&args[1], env, prec, evals)?)),
            Expr::Op(RealOp::Or, args) => Ok(eval_bool_interval(&args[0], env, prec, evals)?
                .or(&eval_bool_interval(&args[1], env, prec, evals)?)),
            Expr::Op(RealOp::Not, args) => {
                Ok(eval_bool_interval(&args[0], env, prec, evals)?.not())
            }
            Expr::If(cond, t, e) => {
                let c = eval_bool_interval(cond, env, prec, evals)?;
                match c.definite() {
                    Some(true) => eval_bool_interval(t, env, prec, evals),
                    Some(false) => eval_bool_interval(e, env, prec, evals),
                    None => Ok(BoolInterval::unknown()),
                }
            }
            _ => {
                let v = eval_interval(expr, env, prec, evals)?;
                Ok(v.eq_interval(&Interval::point_f64(0.0)).not())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpcore::parse_expr;

    fn gt(src: &str, bindings: &[(&str, f64)]) -> GroundTruth {
        let expr = parse_expr(src).unwrap();
        let env: Vec<(Symbol, f64)> = bindings.iter().map(|(n, v)| (Symbol::new(n), *v)).collect();
        ground_truth(&expr, &env, FpType::Binary64)
    }

    fn value(src: &str, bindings: &[(&str, f64)]) -> f64 {
        match gt(src, bindings) {
            GroundTruth::Value(v) => v,
            other => panic!("expected a value for {src}, got {other:?}"),
        }
    }

    #[test]
    fn node_evaluations_are_counted_per_rung() {
        let ev = Evaluator::new();
        let x = [(Symbol::new("x"), 1.0)];
        let counted = |src: &str| ev.eval_counted(&parse_expr(src).unwrap(), &x, FpType::Binary64);
        // Three nodes, decided on the first rung.
        assert_eq!(counted("(+ x 1)"), (GroundTruth::Value(2.0), 3));
        // An `if` evaluates itself, its condition's operands and the taken
        // branch; `x` is evaluated once however often it occurs.
        assert_eq!(counted("(if (< x 0) (- x) (* x x))").1, 1 + 2 + 1);
        // 1 + 1e-30 is not representable in 96 bits, so the difference is
        // only decided on the second rung: four distinct nodes, twice.
        assert_eq!(counted("(- (+ x 1e-30) x)").1, 2 * 4);
        // The unmemoized walk evaluates every occurrence.
        let walked = |src: &str| {
            reference::eval_counted(&ev, &parse_expr(src).unwrap(), &x, FpType::Binary64)
        };
        assert_eq!(walked("(if (< x 0) (- x) (* x x))").1, 1 + 2 + 3);
        assert_eq!(walked("(- (+ x 1e-30) x)").1, 2 * 5);
    }

    /// Expressions covering every evaluation rule: shared subtrees, errors
    /// in each argument position, `if` on decided and undecided conditions,
    /// predicates in numeric and boolean position, constants, unbound
    /// variables, and results that need the higher rungs.
    const SHAPES: &[&str] = &[
        "(+ x 1)",
        "(- (sqrt (+ x 1)) (sqrt x))",
        "(* (sqrt x) (sqrt x))",
        "(/ (- (exp x) 1) x)",
        "(- (+ x 1e-30) x)",
        "(+ (log x) (sqrt (- y)))",
        "(+ (sqrt (- y)) (log x))",
        "(fma x y (* x y))",
        "(if (< x y) (- y x) (- x y))",
        "(if (== (- x x) 0) (sin x) (cos x))",
        "(if (< (/ 1 (- x x)) 0) x y)",
        "(+ (< x y) (and (> x 0) (not (< y 0))))",
        "(pow (fabs x) (/ y 3))",
        "(atan2 (- y y) (- x))",
        "(+ (* PI x) (exp E))",
        "(- (* x x) (* y y))",
        "(+ zz_unbound x)",
        "(/ (- (sin x) x) (* x (* x x)))",
        "(hypot (cosh x) (acos (/ y (+ (fabs y) 1))))",
        "NAN",
    ];

    #[test]
    fn memoized_evaluation_matches_the_tree_walk() {
        let ev = Evaluator::new();
        let (x, y) = (Symbol::new("x"), Symbol::new("y"));
        let points = [
            (1.0, 2.0),
            (-0.0, 0.0),
            (1e-300, -3.5),
            (2.5, -0.0),
            (1e15, 1e-15),
            (f64::INFINITY, 1.0),
            (-7.25, f64::NEG_INFINITY),
        ];
        for src in SHAPES {
            let expr = parse_expr(src).unwrap();
            for &(a, b) in &points {
                let env = [(x, a), (y, b)];
                for ty in [FpType::Binary64, FpType::Binary32] {
                    let (memo, n) = ev.eval_counted(&expr, &env, ty);
                    let (walk, m) = reference::eval_counted(&ev, &expr, &env, ty);
                    assert_eq!(memo, walk, "{src} at {env:?} in {ty:?}");
                    assert!(n <= m, "{src}: {n} evaluations against {m}");
                }
                assert_eq!(
                    ev.eval_bool(&expr, &env),
                    reference::eval_bool(&ev, &expr, &env),
                    "{src} at {env:?} as a boolean"
                );
            }
        }
    }

    #[test]
    fn a_shared_memo_answers_like_fresh_ones_and_evaluates_each_entry_once() {
        let ev = Evaluator::new();
        let (x, y) = (Symbol::new("x"), Symbol::new("y"));
        let envs: Vec<[(Symbol, f64); 2]> = (0..5)
            .map(|i| [(x, 0.75 * f64::from(i) - 1.0), (y, 3.0 / f64::from(i + 1))])
            .collect();
        let exprs: Vec<Expr> = SHAPES.iter().map(|s| parse_expr(s).unwrap()).collect();
        let memo = Memo::new(&ev, envs.len());
        let sweep = |order: &mut dyn Iterator<Item = &Expr>| -> u64 {
            let mut evals = 0;
            for expr in order {
                let interned = memo.intern(expr);
                for (point, env) in envs.iter().enumerate() {
                    let (truth, n) = interned.eval_counted(point, env, FpType::Binary64);
                    assert_eq!(truth, ev.eval(expr, env, FpType::Binary64), "{expr:?}");
                    evals += n;
                }
            }
            evals
        };
        let first = sweep(&mut exprs.iter().rev());
        // Everything is in the memo now: asking again evaluates nothing.
        assert_eq!(sweep(&mut exprs.iter()), 0);
        // Each entry was computed once, and sharing saved work over the
        // fresh memo of each request.
        let ev = &ev;
        let fresh: u64 = exprs
            .iter()
            .flat_map(|e| {
                envs.iter()
                    .map(move |env| ev.eval_counted(e, env, FpType::Binary64).1)
            })
            .sum();
        assert!(first < fresh, "{first} shared evaluations against {fresh}");
    }

    #[test]
    fn subexpressions_are_hash_consed() {
        let memo = Memo::new(&Evaluator::new(), 1);
        let env = [(Symbol::new("x"), 1.5), (Symbol::new("y"), -2.0)];
        let evals = |src: &str| {
            let expr = parse_expr(src).unwrap();
            memo.intern(&expr).eval_counted(0, &env, FpType::Binary64).1
        };
        // x, (* x x) and the sum: the second (* x x) is the first.
        assert_eq!(evals("(+ (* x x) (* x x))"), 3);
        // `y`, `(* x y)` and the sum around them are new; `(* x x)` and `x`
        // are not. Operand order matters: `(* y x)` is a node of its own.
        assert_eq!(evals("(+ (* x x) (* x y))"), 3);
        assert_eq!(evals("(* y x)"), 1);
        // A constant is keyed on its exact value: 0.1 is 1/10.
        assert_eq!(evals("(+ 0.1 1/10)"), 2);
        assert_eq!(evals("(+ (* x x) (* x x))"), 0);
    }

    #[test]
    fn operators_with_extra_operands_evaluate_like_the_tree_walk() {
        // Not a well-formed expression, but a constructible one: every
        // operand is evaluated, left to right, and the first error wins.
        let ev = Evaluator::new();
        let x = Symbol::new("x");
        let over = |extra: &str| {
            Expr::Op(
                RealOp::Add,
                ["x", "(* x 2)", "(sqrt x)", extra]
                    .iter()
                    .map(|s| parse_expr(s).unwrap())
                    .collect(),
            )
        };
        for (extra, v) in [("(log x)", 4.0), ("(log x)", -1.0), ("(/ 1 x)", 2.0)] {
            let (expr, env) = (over(extra), [(x, v)]);
            let want = reference::eval_counted(&ev, &expr, &env, FpType::Binary64).0;
            assert_eq!(
                ev.eval(&expr, &env, FpType::Binary64),
                want,
                "{extra} at {v}"
            );
        }
        // Two operand lists that differ in their last operand are two nodes:
        // after the first sum, the second evaluates `1`, `(/ 1 x)` and
        // itself.
        let memo = Memo::new(&ev, 1);
        let env = [(x, 2.0)];
        let evals = |e: &Expr| memo.intern(e).eval_counted(0, &env, FpType::Binary64).1;
        assert_eq!(evals(&over("(log x)")), 6);
        assert_eq!(evals(&over("(/ 1 x)")), 3);
    }

    #[test]
    fn simple_arithmetic_matches_f64() {
        assert_eq!(value("(+ 1 2)", &[]), 3.0);
        assert_eq!(value("(/ 1 4)", &[]), 0.25);
        assert_eq!(value("(* x x)", &[("x", 3.0)]), 9.0);
        assert_eq!(value("(sqrt 2)", &[]), 2.0_f64.sqrt());
    }

    #[test]
    fn correctly_rounds_inexact_results() {
        // 1/3 must round to the nearest double.
        assert_eq!(value("(/ 1 3)", &[]), 1.0 / 3.0);
        // 0.1 + 0.2 over the *reals* is 0.3, whose nearest double differs from the
        // floating-point sum 0.1f64 + 0.2f64.
        assert_eq!(value("(+ 1/10 2/10)", &[]), 0.3);
        assert_ne!(value("(+ 1/10 2/10)", &[]), 0.1 + 0.2);
    }

    #[test]
    fn catastrophic_cancellation_is_resolved_exactly() {
        // sqrt(x+1) - sqrt(x) at large x: the naive double evaluation loses most
        // of its digits; ground truth must match the accurate reformulation
        // 1 / (sqrt(x+1) + sqrt(x)).
        let x = 1e15;
        let truth = value("(- (sqrt (+ x 1)) (sqrt x))", &[("x", x)]);
        let accurate = 1.0 / ((x + 1.0).sqrt() + x.sqrt());
        assert_eq!(truth, accurate);
        let naive = (x + 1.0).sqrt() - x.sqrt();
        assert_ne!(truth, naive);
    }

    #[test]
    fn transcendental_ground_truth() {
        assert_eq!(value("(exp 1)", &[]), std::f64::consts::E);
        assert_eq!(value("(log E)", &[]), 1.0);
        assert!(value("(sin PI)", &[]).abs() < 1e-15);
        assert_eq!(value("(atan INFINITY)", &[]), std::f64::consts::FRAC_PI_2);
        // expm1 of a tiny number: the ground truth keeps the low-order bits.
        assert_eq!(value("(expm1 x)", &[("x", 1e-20)]), 1e-20);
    }

    #[test]
    fn domain_errors_are_nan() {
        assert_eq!(gt("(sqrt -1)", &[]), GroundTruth::Nan);
        assert_eq!(gt("(log x)", &[("x", -2.0)]), GroundTruth::Nan);
        assert_eq!(gt("(/ 1 0)", &[]), GroundTruth::Nan);
        assert_eq!(gt("(asin 2)", &[]), GroundTruth::Nan);
        assert_eq!(gt("NAN", &[]), GroundTruth::Nan);
    }

    #[test]
    fn conditionals_follow_ground_truth_branch() {
        assert_eq!(value("(if (< x 0) (- x) x)", &[("x", -3.0)]), 3.0);
        assert_eq!(value("(if (< x 0) (- x) x)", &[("x", 3.0)]), 3.0);
        // The condition compares exactly-representable values, so even an equality
        // test is decidable.
        assert_eq!(value("(if (== x 1) 10 20)", &[("x", 1.0)]), 10.0);
        assert_eq!(value("(if (== x 1) 10 20)", &[("x", 1.5)]), 20.0);
    }

    #[test]
    fn binary32_rounding() {
        let expr = parse_expr("(/ 1 3)").unwrap();
        let out = ground_truth(&expr, &[], FpType::Binary32);
        assert_eq!(out, GroundTruth::Value((1.0f32 / 3.0f32) as f64));
    }

    #[test]
    fn precondition_evaluation() {
        let ev = Evaluator::new();
        let pre = parse_expr("(and (> x 0) (< x 1))").unwrap();
        assert_eq!(ev.eval_bool(&pre, &[(Symbol::new("x"), 0.5)]), Some(true));
        assert_eq!(ev.eval_bool(&pre, &[(Symbol::new("x"), 2.0)]), Some(false));
    }

    #[test]
    fn infinities_propagate() {
        assert_eq!(value("(exp x)", &[("x", 1e9)]), f64::INFINITY);
        assert_eq!(value("(exp x)", &[("x", -1e9)]), 0.0);
        assert_eq!(value("(/ 1 x)", &[("x", f64::INFINITY)]), 0.0);
    }

    #[test]
    fn unbound_variable_is_nan() {
        assert_eq!(gt("(+ zz_unbound 1)", &[]), GroundTruth::Nan);
    }

    #[test]
    fn custom_precision_ladder() {
        let ev = Evaluator::with_precisions(vec![64]);
        let expr = parse_expr("(+ x 1)").unwrap();
        assert_eq!(
            ev.eval(&expr, &[(Symbol::new("x"), 2.0)], FpType::Binary64),
            GroundTruth::Value(3.0)
        );
        assert_eq!(ev.precisions(), &[64]);
    }
}
