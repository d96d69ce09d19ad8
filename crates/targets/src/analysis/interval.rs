//! Forward interval/NaN analysis from sampler domains.
//!
//! Each register gets a [`ValueFact`]: a closed interval that is a *superset*
//! of every non-NaN value the register can hold, plus a `may_nan` flag. The
//! transfer functions are deliberately conservative — endpoints are widened
//! outward by several ULPs so that the few-ULP deviations of the `vecmath`
//! kernels (and host libm differences) can never make a fact wrong — and any
//! operator without a precise transfer falls back to ⊤ (`[-∞, +∞]`, may be
//! NaN).
//!
//! The analysis is **advisory only**. Its two products annotate, never
//! rewrite:
//!
//! * [`IntervalAnalysis::uniform_selects`] — select instructions whose
//!   condition provably takes one arm on the whole domain. Truthiness
//!   follows the engines (`c != 0.0`, so a NaN condition takes the *then*
//!   arm): a select always takes *then* iff its condition interval excludes
//!   zero (NaN is nonzero too), and always takes *else* iff the interval is
//!   exactly `[0, 0]` **and** the condition cannot be NaN.
//! * [`IntervalAnalysis::safe_calls`] — transcendental call sites whose
//!   argument facts prove every input stays on the matched `vecmath`
//!   kernel's special-case-free [`SafeRange`](vecmath::SafeRange), i.e. the
//!   kernel's special-case blend path is statically dead there. Kernels are
//!   matched by sweep-pointer identity first, then by the calling operator's
//!   base name (how the `c99`-style targets route through `fpcore::eval`);
//!   with the `libm-calls` feature the annotation still describes the
//!   vecmath kernel, not the libm path actually run.
//!
//! Evaluation semantics never depend on these annotations, so bit identity
//! across the three engines is untouched by anything this module computes.

use crate::analysis::dataflow::{solve, Analysis};
use crate::compile::{Instr, Program};
use crate::operator::Impl;
use crate::target::Target;
use fpcore::{Constant, Expr, RealOp, Symbol};

/// What is known about one register at one program point: a closed interval
/// covering every non-NaN value it can hold, and whether it can be NaN.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ValueFact {
    /// Lower interval endpoint (never NaN).
    pub lo: f64,
    /// Upper interval endpoint (never NaN).
    pub hi: f64,
    /// Whether the register can hold NaN.
    pub may_nan: bool,
}

impl ValueFact {
    /// The no-information fact.
    pub const TOP: ValueFact = ValueFact {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
        may_nan: true,
    };

    /// The fact for a known constant.
    pub fn exact(v: f64) -> ValueFact {
        if v.is_nan() {
            // An interval must have non-NaN endpoints; a NaN constant is
            // "no non-NaN values, may be NaN", which TOP safely covers.
            ValueFact::TOP
        } else {
            ValueFact {
                lo: v,
                hi: v,
                may_nan: false,
            }
        }
    }

    /// A NaN-free interval fact (sanitized: NaN endpoints become ⊤).
    pub fn range(lo: f64, hi: f64) -> ValueFact {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            ValueFact::TOP
        } else {
            ValueFact {
                lo,
                hi,
                may_nan: false,
            }
        }
    }

    /// True when the fact proves the register is always a non-NaN value
    /// inside `[lo, hi]`.
    pub fn within(&self, lo: f64, hi: f64) -> bool {
        !self.may_nan && lo <= self.lo && self.hi <= hi
    }

    /// The union of two facts (used for select results).
    fn hull(a: ValueFact, b: ValueFact) -> ValueFact {
        ValueFact {
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
            may_nan: a.may_nan || b.may_nan,
        }
    }

    fn contains_zero(&self) -> bool {
        self.lo <= 0.0 && 0.0 <= self.hi
    }

    fn has_inf(&self) -> bool {
        self.lo == f64::NEG_INFINITY || self.hi == f64::INFINITY
    }

    /// Truthiness of a condition register under the engines' `c != 0.0`
    /// test: `Some(true)` = always takes *then*, `Some(false)` = always
    /// takes *else*, `None` = unknown.
    pub fn uniform_truth(&self) -> Option<bool> {
        if !self.contains_zero() {
            // Every value (NaN included) is nonzero.
            Some(true)
        } else if self.lo == 0.0 && self.hi == 0.0 && !self.may_nan {
            Some(false)
        } else {
            None
        }
    }
}

/// Extra outward ULP steps applied to every inexact endpoint, absorbing the
/// few-ULP error of the vecmath kernels and host-libm variation.
const SLACK_ULPS: u32 = 8;

/// Widens `[lo, hi]` outward by [`SLACK_ULPS`]; NaN endpoints become ⊤.
fn widened(lo: f64, hi: f64, may_nan: bool) -> ValueFact {
    if lo.is_nan() || hi.is_nan() {
        return ValueFact::TOP;
    }
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..SLACK_ULPS {
        lo = lo.next_down();
        hi = hi.next_up();
    }
    ValueFact { lo, hi, may_nan }
}

/// A fact whose interval endpoints are exact (comparisons, min/max, floor).
fn precise(lo: f64, hi: f64, may_nan: bool) -> ValueFact {
    if lo.is_nan() || hi.is_nan() {
        ValueFact::TOP
    } else {
        ValueFact { lo, hi, may_nan }
    }
}

/// A monotone-increasing unary function applied to an interval.
fn monotone(f: fn(f64) -> f64, a: ValueFact, may_nan: bool) -> ValueFact {
    widened(f(a.lo), f(a.hi), may_nan)
}

fn boolean(can_false: bool, can_true: bool) -> ValueFact {
    precise(
        if can_false { 0.0 } else { 1.0 },
        if can_true { 1.0 } else { 0.0 },
        false,
    )
}

fn transfer_un(op: RealOp, a: ValueFact) -> ValueFact {
    match op {
        RealOp::Neg => precise(-a.hi, -a.lo, a.may_nan),
        RealOp::Fabs => {
            if a.lo >= 0.0 {
                a
            } else if a.hi <= 0.0 {
                precise(-a.hi, -a.lo, a.may_nan)
            } else {
                precise(0.0, (-a.lo).max(a.hi), a.may_nan)
            }
        }
        RealOp::Sqrt => widened(
            a.lo.max(0.0).sqrt(),
            a.hi.max(0.0).sqrt(),
            a.may_nan || a.lo < 0.0,
        ),
        RealOp::Cbrt => monotone(f64::cbrt, a, a.may_nan),
        RealOp::Floor => precise(a.lo.floor(), a.hi.floor(), a.may_nan),
        RealOp::Ceil => precise(a.lo.ceil(), a.hi.ceil(), a.may_nan),
        RealOp::Round => precise(a.lo.round(), a.hi.round(), a.may_nan),
        RealOp::Trunc => precise(a.lo.trunc(), a.hi.trunc(), a.may_nan),
        RealOp::Exp => monotone(f64::exp, a, a.may_nan),
        RealOp::Exp2 => monotone(f64::exp2, a, a.may_nan),
        RealOp::Expm1 => monotone(f64::exp_m1, a, a.may_nan),
        RealOp::Log => monotone(|x| x.max(0.0).ln(), a, a.may_nan || a.lo < 0.0),
        RealOp::Log2 => monotone(|x| x.max(0.0).log2(), a, a.may_nan || a.lo < 0.0),
        RealOp::Log10 => monotone(|x| x.max(0.0).log10(), a, a.may_nan || a.lo < 0.0),
        RealOp::Log1p => monotone(|x| x.max(-1.0).ln_1p(), a, a.may_nan || a.lo < -1.0),
        RealOp::Sin | RealOp::Cos => widened(-1.0, 1.0, a.may_nan || a.has_inf()),
        RealOp::Asin => widened(
            -std::f64::consts::FRAC_PI_2,
            std::f64::consts::FRAC_PI_2,
            a.may_nan || a.lo < -1.0 || a.hi > 1.0,
        ),
        RealOp::Acos => widened(
            0.0,
            std::f64::consts::PI,
            a.may_nan || a.lo < -1.0 || a.hi > 1.0,
        ),
        RealOp::Atan => monotone(f64::atan, a, a.may_nan),
        RealOp::Sinh => monotone(f64::sinh, a, a.may_nan),
        RealOp::Cosh => {
            // Symmetric, minimized at zero: cosh(|a|) over the magnitude range.
            let (minmag, maxmag) = if a.contains_zero() {
                (0.0, (-a.lo).max(a.hi))
            } else if a.lo > 0.0 {
                (a.lo, a.hi)
            } else {
                (-a.hi, -a.lo)
            };
            widened(minmag.cosh(), maxmag.cosh(), a.may_nan)
        }
        RealOp::Tanh => monotone(f64::tanh, a, a.may_nan),
        RealOp::Asinh => monotone(f64::asinh, a, a.may_nan),
        RealOp::Acosh => monotone(|x| x.max(1.0).acosh(), a, a.may_nan || a.lo < 1.0),
        RealOp::Atanh => monotone(
            |x| x.clamp(-1.0, 1.0).atanh(),
            a,
            a.may_nan || a.lo < -1.0 || a.hi > 1.0,
        ),
        RealOp::Not => boolean(
            !(a.lo == 0.0 && a.hi == 0.0) || a.may_nan, // can be nonzero → not → 0
            a.contains_zero(),                          // can be zero → not → 1
        ),
        _ => ValueFact::TOP,
    }
}

fn mul_fact(a: ValueFact, b: ValueFact) -> ValueFact {
    // 0 × ∞ is the only way multiplication invents a NaN.
    let zero_inf = (a.contains_zero() && b.has_inf()) || (b.contains_zero() && a.has_inf());
    if zero_inf {
        return ValueFact {
            may_nan: true,
            ..ValueFact::TOP
        };
    }
    let corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
    let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    widened(lo, hi, a.may_nan || b.may_nan)
}

fn add_fact(a: ValueFact, b: ValueFact) -> ValueFact {
    let inf_minus_inf = (a.hi == f64::INFINITY && b.lo == f64::NEG_INFINITY)
        || (a.lo == f64::NEG_INFINITY && b.hi == f64::INFINITY);
    if inf_minus_inf {
        return ValueFact {
            may_nan: true,
            ..ValueFact::TOP
        };
    }
    widened(a.lo + b.lo, a.hi + b.hi, a.may_nan || b.may_nan)
}

fn transfer_bin(op: RealOp, a: ValueFact, b: ValueFact) -> ValueFact {
    let nan = a.may_nan || b.may_nan;
    match op {
        RealOp::Add => add_fact(a, b),
        RealOp::Sub => add_fact(a, precise(-b.hi, -b.lo, b.may_nan)),
        RealOp::Mul => mul_fact(a, b),
        RealOp::Div => {
            if b.contains_zero() || (a.has_inf() && b.has_inf()) {
                ValueFact::TOP
            } else {
                let corners = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
                let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                widened(lo, hi, nan)
            }
        }
        // minNum semantics (`f64::min`/`f64::max`): NaN on one side yields
        // the other side's value, so the result can only be NaN when both
        // can — but the interval must then cover both sides.
        RealOp::Fmin => {
            if nan {
                ValueFact {
                    may_nan: a.may_nan && b.may_nan,
                    ..ValueFact::hull(a, b)
                }
            } else {
                precise(a.lo.min(b.lo), a.hi.min(b.hi), false)
            }
        }
        RealOp::Fmax => {
            if nan {
                ValueFact {
                    may_nan: a.may_nan && b.may_nan,
                    ..ValueFact::hull(a, b)
                }
            } else {
                precise(a.lo.max(b.lo), a.hi.max(b.hi), false)
            }
        }
        RealOp::Hypot => {
            let maxmag = (-a.lo).max(a.hi).hypot((-b.lo).max(b.hi));
            widened(0.0, maxmag, nan)
        }
        RealOp::Fdim => widened(0.0, (a.hi - b.lo).max(0.0), nan),
        RealOp::Copysign => {
            let maxmag = (-a.lo).max(a.hi).max(0.0);
            precise(-maxmag, maxmag, a.may_nan)
        }
        RealOp::Atan2 => widened(-std::f64::consts::PI, std::f64::consts::PI, nan),
        RealOp::Lt => boolean(a.hi >= b.lo || nan, a.lo < b.hi),
        RealOp::Gt => boolean(a.lo <= b.hi || nan, a.hi > b.lo),
        RealOp::Le => boolean(a.hi > b.lo || nan, a.lo <= b.hi),
        RealOp::Ge => boolean(a.lo < b.hi || nan, a.hi >= b.lo),
        RealOp::Eq => boolean(
            a.lo != a.hi || b.lo != b.hi || a.lo != b.lo || nan,
            a.lo <= b.hi && b.lo <= a.hi,
        ),
        RealOp::Ne => boolean(
            a.lo <= b.hi && b.lo <= a.hi,
            a.lo != a.hi || b.lo != b.hi || a.lo != b.lo || nan,
        ),
        RealOp::And => {
            let t = |x: ValueFact| !(x.lo == 0.0 && x.hi == 0.0) || x.may_nan;
            let f = |x: ValueFact| x.contains_zero();
            boolean(f(a) || f(b), t(a) && t(b))
        }
        RealOp::Or => {
            let t = |x: ValueFact| !(x.lo == 0.0 && x.hi == 0.0) || x.may_nan;
            let f = |x: ValueFact| x.contains_zero();
            boolean(f(a) && f(b), t(a) || t(b))
        }
        _ => ValueFact::TOP, // Pow, Fmod: special-case-rich; no precise transfer
    }
}

/// Rounds an interval outward through binary32 (the `Round32` instruction).
fn round32_fact(a: ValueFact) -> ValueFact {
    let down = |x: f64| {
        let v = x as f32;
        if f64::from(v) > x {
            f64::from(v.next_down())
        } else {
            f64::from(v)
        }
    };
    let up = |x: f64| {
        let v = x as f32;
        if f64::from(v) < x {
            f64::from(v.next_up())
        } else {
            f64::from(v)
        }
    };
    precise(down(a.lo), up(a.hi), a.may_nan)
}

struct IntervalDataflow<'a> {
    domains: &'a [(Symbol, (f64, f64))],
}

impl Analysis for IntervalDataflow<'_> {
    type Fact = Vec<ValueFact>;
    const BACKWARD: bool = false;

    fn boundary(&self, program: &Program) -> Vec<ValueFact> {
        let mut facts = vec![ValueFact::TOP; program.num_regs()];
        for &(reg, value) in &program.consts {
            facts[reg as usize] = ValueFact::exact(value);
        }
        for &(reg, sym) in &program.vars {
            if let Some(&(_, (lo, hi))) = self.domains.iter().find(|(s, _)| *s == sym) {
                facts[reg as usize] = ValueFact::range(lo, hi);
            }
        }
        facts
    }

    fn transfer(&self, program: &Program, idx: usize, before: &Vec<ValueFact>) -> Vec<ValueFact> {
        let mut after = before.clone();
        let g = |reg: u32| before[reg as usize];
        let instr = &program.instrs[idx];
        after[instr.dst() as usize] = match *instr {
            Instr::Un { op, a, .. } => transfer_un(op, g(a)),
            Instr::Bin { op, a, b, .. } => transfer_bin(op, g(a), g(b)),
            Instr::Tern { op, a, b, c, .. } => match op {
                RealOp::Fma => add_fact(mul_fact(g(a), g(b)), g(c)),
                _ => ValueFact::TOP,
            },
            Instr::Round32 { a, .. } => round32_fact(g(a)),
            Instr::Select { c, t, e, .. } => match g(c).uniform_truth() {
                Some(true) => g(t),
                Some(false) => g(e),
                None => ValueFact::hull(g(t), g(e)),
            },
            // Calls execute arbitrary target code; no transfer is attempted.
            Instr::Call { .. } | Instr::CallUn { .. } | Instr::CallBin { .. } => ValueFact::TOP,
        };
        after
    }
}

/// A select whose condition is provably uniform over the analyzed domain.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UniformSelect {
    /// Instruction index of the select.
    pub at: usize,
    /// `true` when the *then* arm is always taken.
    pub takes_then: bool,
}

/// A transcendental call site whose inputs provably stay on the matched
/// vecmath kernel's special-case-free range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SafeCall {
    /// Instruction index of the call.
    pub at: usize,
    /// The matched kernel's name (`"exp"`, `"pow"`, ...).
    pub kernel: &'static str,
}

/// The solved interval facts plus the two advisory annotations they support.
#[derive(Clone, Debug)]
pub struct IntervalAnalysis {
    /// `facts[i][r]` is the fact for register `r` before instruction `i`
    /// (`facts[n]` after the last instruction).
    pub facts: Vec<Vec<ValueFact>>,
    /// Selects with a provably-uniform condition.
    pub uniform_selects: Vec<UniformSelect>,
    /// Calls that can statically skip the kernel's special-case blend.
    pub safe_calls: Vec<SafeCall>,
}

/// The base of a target operator name: `exp.f64` → `exp`.
fn base_name(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Finds the vecmath kernel a unary call dispatches to, by sweep-pointer
/// identity or (for targets that route through `fpcore::eval`) by the
/// calling operator's base name.
fn kernel1_for_call(
    target: Option<&Target>,
    fun: fn(&[f64]) -> f64,
    sweep: fn(&mut [f64], &[f64]),
) -> Option<&'static vecmath::Kernel1> {
    vecmath::kernel1_for_sweep(sweep).or_else(|| {
        let target = target?;
        let op = target.operators.iter().find(
            |op| matches!(op.implementation, Impl::Native(f) if f as usize == fun as usize),
        )?;
        vecmath::kernel1_by_name(base_name(&op.name))
    })
}

fn kernel2_for_call(
    target: Option<&Target>,
    fun: fn(&[f64]) -> f64,
    sweep: fn(&mut [f64], &[f64], &[f64]),
) -> Option<&'static vecmath::Kernel2> {
    vecmath::kernel2_for_sweep(sweep).or_else(|| {
        let target = target?;
        let op = target.operators.iter().find(
            |op| matches!(op.implementation, Impl::Native(f) if f as usize == fun as usize),
        )?;
        vecmath::kernel2_by_name(base_name(&op.name))
    })
}

/// Runs the interval analysis over `program` with the given per-variable
/// sampler domains (`[(symbol, (lo, hi))]`; variables without a domain get
/// ⊤). `target` enables name-based kernel matching for [`SafeCall`]s.
pub fn interval_analysis(
    program: &Program,
    target: Option<&Target>,
    domains: &[(Symbol, (f64, f64))],
) -> IntervalAnalysis {
    let facts = solve(&IntervalDataflow { domains }, program);
    let mut uniform_selects = Vec::new();
    let mut safe_calls = Vec::new();
    for (i, instr) in program.instrs.iter().enumerate() {
        let g = |reg: u32| facts[i][reg as usize];
        match *instr {
            Instr::Select { c, .. } => {
                if let Some(takes_then) = g(c).uniform_truth() {
                    uniform_selects.push(UniformSelect { at: i, takes_then });
                }
            }
            Instr::CallUn { fun, sweep, a, .. } => {
                if let Some(k) = kernel1_for_call(target, fun, sweep) {
                    let fa = g(a);
                    if !fa.may_nan && k.safe.contains_interval(fa.lo, fa.hi) {
                        safe_calls.push(SafeCall {
                            at: i,
                            kernel: k.name,
                        });
                    }
                }
            }
            Instr::CallBin {
                fun, sweep, a, b, ..
            } => {
                if let Some(k) = kernel2_for_call(target, fun, sweep) {
                    let (fa, fb) = (g(a), g(b));
                    if !fa.may_nan
                        && !fb.may_nan
                        && k.safe_a.contains_interval(fa.lo, fa.hi)
                        && k.safe_b.contains_interval(fb.lo, fb.hi)
                    {
                        safe_calls.push(SafeCall {
                            at: i,
                            kernel: k.name,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    IntervalAnalysis {
        facts,
        uniform_selects,
        safe_calls,
    }
}

/// Extracts per-variable domains from an FPCore precondition — a conjunction
/// of binary comparisons between a variable and a constant, the shape the
/// benchmark corpus uses — in the `[(symbol, (lo, hi))]` form
/// [`interval_analysis`] takes. Anything else is ignored (the variable keeps
/// no domain, i.e. ⊤), which is always sound. Contradictory bounds are
/// dropped: a domain that never samples supports no claim.
///
/// Each range is a closed superset of the variable's `f64` values that
/// satisfy the precondition: no `f64` lies between a literal and the bound
/// it becomes, so an `f64` outside the range falsifies one top-level
/// conjunct over the reals. The sampler relies on this to reject such points
/// without asking Rival.
pub fn domains_from_pre(pre: Option<&Expr>) -> Vec<(Symbol, (f64, f64))> {
    let mut bounds: Vec<(Symbol, (f64, f64))> = Vec::new();
    fn tighten(bounds: &mut Vec<(Symbol, (f64, f64))>, var: Symbol, lo: f64, hi: f64) {
        match bounds.iter_mut().find(|(s, _)| *s == var) {
            Some((_, range)) => {
                range.0 = range.0.max(lo);
                range.1 = range.1.min(hi);
            }
            None => bounds.push((var, (lo, hi))),
        }
    }
    /// A lower and an upper bound for a literal, with no `f64` strictly
    /// between either and the literal. A correctly rounded conversion serves
    /// as both: `PI`, `E`, and a rational whose parts are at most 2^53. A
    /// larger part makes `to_f64` round three times, each within 2^-53
    /// relative, about 3 ulps in all; every ulp step is at least 2^-53
    /// relative, so 4 steps outward are past the literal.
    fn bracket(c: &Constant) -> (f64, f64) {
        let x = c.to_f64();
        match c {
            Constant::Rational(r)
                if r.numerator().unsigned_abs() > 1 << 53 || r.denominator() > 1 << 53 =>
            {
                let (mut lo, mut hi) = (x, x);
                for _ in 0..4 {
                    (lo, hi) = (lo.next_down(), hi.next_up());
                }
                (lo, hi)
            }
            _ => (x, x),
        }
    }
    fn walk(bounds: &mut Vec<(Symbol, (f64, f64))>, expr: &Expr) {
        match expr {
            Expr::Op(RealOp::And, args) => args.iter().for_each(|a| walk(bounds, a)),
            Expr::Op(op, args) if args.len() == 2 => {
                let inf = f64::INFINITY;
                // A closed superset interval is sound for strict comparisons.
                match (op, &args[0], &args[1]) {
                    (RealOp::Lt | RealOp::Le, Expr::Var(v), Expr::Num(c))
                    | (RealOp::Gt | RealOp::Ge, Expr::Num(c), Expr::Var(v)) => {
                        tighten(bounds, *v, -inf, bracket(c).1);
                    }
                    (RealOp::Gt | RealOp::Ge, Expr::Var(v), Expr::Num(c))
                    | (RealOp::Lt | RealOp::Le, Expr::Num(c), Expr::Var(v)) => {
                        tighten(bounds, *v, bracket(c).0, inf);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    if let Some(pre) = pre {
        walk(&mut bounds, pre);
    }
    bounds.retain(|(_, (lo, hi))| lo <= hi);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::expr::FloatExpr;
    use crate::operator::Operator;
    use fpcore::FpType::Binary64;

    fn target() -> Target {
        Target::new("t", "test").with_operators(vec![
            Operator::emulated("+.f64", &[Binary64, Binary64], Binary64, "(+ a0 a1)", 1.0),
            Operator::emulated("exp.f64", &[Binary64], Binary64, "(exp a0)", 40.0),
        ])
    }

    fn x() -> FloatExpr {
        FloatExpr::Var(Symbol::new("x"), Binary64)
    }

    #[test]
    fn constants_and_domains_propagate() {
        let t = target();
        let add = t.find_operator("+.f64").unwrap();
        let expr = FloatExpr::Op(add, vec![x(), FloatExpr::literal(2.0, Binary64)]);
        let p = compile(&t, &expr);
        let ia = interval_analysis(&p, Some(&t), &[(Symbol::new("x"), (1.0, 10.0))]);
        let result = ia.facts.last().unwrap()[p.instrs.last().unwrap().dst() as usize];
        assert!(!result.may_nan);
        assert!(result.lo <= 3.0 && result.lo > 2.9, "{result:?}");
        assert!(result.hi >= 12.0 && result.hi < 12.1, "{result:?}");
    }

    #[test]
    fn uniform_select_on_a_positive_domain() {
        let t = target();
        let exp = t.find_operator("exp.f64").unwrap();
        let add = t.find_operator("+.f64").unwrap();
        // if x < 0 { exp(x) } else { x + x } with x ∈ [1, 10]: always else.
        let expr = FloatExpr::If(
            Box::new(FloatExpr::Cmp(
                RealOp::Lt,
                Box::new(x()),
                Box::new(FloatExpr::literal(0.0, Binary64)),
            )),
            Box::new(FloatExpr::Op(exp, vec![x()])),
            Box::new(FloatExpr::Op(add, vec![x(), x()])),
        );
        let p = compile(&t, &expr);
        let ia = interval_analysis(&p, Some(&t), &[(Symbol::new("x"), (1.0, 10.0))]);
        assert_eq!(ia.uniform_selects.len(), 1, "{ia:?}");
        assert!(!ia.uniform_selects[0].takes_then);
        // With an unbounded domain nothing is provable.
        let ia = interval_analysis(&p, Some(&t), &[]);
        assert!(ia.uniform_selects.is_empty());
    }

    #[test]
    fn nan_blocks_uniformity_proofs() {
        // x/x has an unbounded, possibly-NaN fact even on a positive domain
        // … so use 0/0-capable division explicitly: the condition (x/x) < 2
        // cannot be proved uniform because x/x may be NaN at x = ±∞ … but we
        // test the fact-level primitive directly, which is what the select
        // check uses.
        let f = ValueFact {
            lo: 1.0,
            hi: 1.0,
            may_nan: true,
        };
        // NaN is truthy under `c != 0.0`, so a may-NaN [1,1] is still
        // provably-then; a may-NaN [0,0] proves nothing.
        assert_eq!(f.uniform_truth(), Some(true));
        let z = ValueFact {
            lo: 0.0,
            hi: 0.0,
            may_nan: true,
        };
        assert_eq!(z.uniform_truth(), None);
        assert_eq!(ValueFact::exact(0.0).uniform_truth(), Some(false));
    }

    #[test]
    fn comparison_facts_are_nan_sound() {
        // a < b with a ∈ [5,6], b ∈ [0,1]: always false even if NaN-capable.
        let a = ValueFact {
            lo: 5.0,
            hi: 6.0,
            may_nan: true,
        };
        let b = ValueFact::range(0.0, 1.0);
        assert_eq!(transfer_bin(RealOp::Lt, a, b), ValueFact::range(0.0, 0.0));
        // a > b can be proved true only when neither side can be NaN.
        assert_eq!(
            transfer_bin(RealOp::Gt, a, b),
            ValueFact::range(0.0, 1.0),
            "may-NaN operands block an always-true comparison"
        );
        let a2 = ValueFact::range(5.0, 6.0);
        assert_eq!(transfer_bin(RealOp::Gt, a2, b), ValueFact::range(1.0, 1.0));
    }

    #[test]
    fn fmin_fmax_follow_minnum_semantics() {
        let a = ValueFact {
            lo: 0.0,
            hi: 1.0,
            may_nan: true,
        };
        let b = ValueFact::range(10.0, 20.0);
        let f = transfer_bin(RealOp::Fmin, a, b);
        // NaN on one side yields the other side, so the result cannot be NaN
        // … but it can be any of b's values.
        assert!(!f.may_nan);
        assert!(f.lo <= 0.0 && f.hi >= 20.0, "{f:?}");
    }

    #[test]
    fn interval_transfers_are_outward_sound() {
        let a = ValueFact::range(1.0, 2.0);
        let e = transfer_un(RealOp::Exp, a);
        assert!(!e.may_nan);
        assert!(e.lo < 1.0f64.exp() && e.hi > 2.0f64.exp());
        let l = transfer_un(RealOp::Log, ValueFact::range(-1.0, 4.0));
        assert!(l.may_nan, "log of a possibly-negative value may be NaN");
        let d = transfer_bin(
            RealOp::Div,
            ValueFact::range(1.0, 2.0),
            ValueFact::range(-1.0, 1.0),
        );
        assert_eq!(d, ValueFact::TOP, "division by a zero-containing interval");
    }

    #[test]
    fn safe_calls_match_by_operator_name() {
        // A fake native exp routed like c99 would: the sweep is not a
        // vecmath pointer, so matching falls back to the operator name.
        fn fake_exp(args: &[f64]) -> f64 {
            args[0].exp()
        }
        fn fake_sweep(out: &mut [f64], a: &[f64]) {
            for (o, &x) in out.iter_mut().zip(a) {
                *o = x.exp();
            }
        }
        let t = Target::new("t", "test").with_operators(vec![Operator::native(
            "exp.f64",
            &[Binary64],
            Binary64,
            "(exp a0)",
            40.0,
            fake_exp,
        )
        .with_sweep(crate::operator::SweepImpl::Un(fake_sweep))]);
        let exp = t.find_operator("exp.f64").unwrap();
        let p = compile(&t, &FloatExpr::Op(exp, vec![x()]));
        let ia = interval_analysis(&p, Some(&t), &[(Symbol::new("x"), (-1.0, 1.0))]);
        assert_eq!(ia.safe_calls.len(), 1, "{ia:?}");
        assert_eq!(ia.safe_calls[0].kernel, "exp");
        // Out of the kernel's safe range: no annotation.
        let ia = interval_analysis(&p, Some(&t), &[(Symbol::new("x"), (-1.0e4, 1.0e4))]);
        assert!(ia.safe_calls.is_empty());
    }
}
