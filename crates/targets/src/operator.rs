//! Operator descriptors: the atomic instructions of Chassis' internal IR.
//!
//! Each operator has a name, a type signature, a *desugaring* (the real-number
//! expression it approximates, written over the positional argument symbols
//! returned by [`arg_symbol`]), a scalar cost, and an implementation used when
//! the interpreter executes programs on training points.

use fpcore::{parse_expr, Expr, FpType, Symbol};
use std::fmt;

/// The most arguments an operator may take.
///
/// Instruction selection keeps an e-node's children inline, in room for
/// this many ids, which covers every real operator (`fma` takes three).
/// [`crate::analysis::verify_target`] reports a wider operator as
/// `op-arity`, and a compile for such a target fails as unsupported.
pub const MAX_ARITY: usize = 3;

/// Index of an operator within its [`crate::Target`]'s operator table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct OpId(pub u32);

impl OpId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The positional argument symbol used in desugarings: `a0`, `a1`, `a2`, ...
///
/// The first few symbols are interned once and cached: this function runs for
/// every argument of every emulated operator the interpreter executes, and
/// formatting plus an interner-mutex round trip per call dominated operator
/// execution itself.
pub fn arg_symbol(i: usize) -> Symbol {
    const CACHED: usize = 8;
    static FIRST: std::sync::OnceLock<[Symbol; CACHED]> = std::sync::OnceLock::new();
    let first = FIRST.get_or_init(|| std::array::from_fn(|k| Symbol::new(&format!("a{k}"))));
    if i < CACHED {
        first[i]
    } else {
        Symbol::new(&format!("a{i}"))
    }
}

/// Zero-allocation [`Bindings`](fpcore::eval::Bindings) view binding `a0..aN`
/// positionally to an argument slice.
struct ArgBindings<'a>(&'a [f64]);

impl fpcore::eval::Bindings for ArgBindings<'_> {
    fn value_of(&self, var: Symbol) -> Option<f64> {
        (0..self.0.len())
            .find(|&i| arg_symbol(i) == var)
            .map(|i| self.0[i])
    }
}

/// How an operator is executed on concrete inputs.
#[derive(Clone, Copy)]
pub enum Impl {
    /// Emulated: the desugaring is evaluated with host double-precision
    /// arithmetic (and rounded to the operator's return type). This models the
    /// paper's "E" targets, whose operators are accurate library functions.
    Emulated,
    /// Linked: a native Rust function emulating the documented accuracy of the
    /// real instruction or library routine (e.g. AVX `rcpps`, vdt `fast_sin`).
    /// This models the paper's "L" targets.
    Native(fn(&[f64]) -> f64),
}

/// A block-wide (lane-sweep) form of a native operator, used by the block
/// evaluator to process a whole lane slice per instruction dispatch instead
/// of calling the scalar function once per lane.
///
/// **Contract:** the sweep must execute the *identical* per-lane operation
/// sequence as the operator's scalar [`Impl::Native`] function, so block
/// results stay bit-identical to the scalar engines at every block width
/// (the differential tests assert this corpus-wide). The easiest way to
/// honor the contract is to build both forms from the same
/// `fpcore::eval::apply_op*`/`sweep_op*` routing, which also keeps them in
/// lockstep across the `libm-calls` feature.
#[derive(Clone, Copy)]
pub enum SweepImpl {
    /// `out[i] = f(a[i])` for a unary operator.
    Un(fn(&mut [f64], &[f64])),
    /// `out[i] = f(a[i], b[i])` for a binary operator.
    Bin(fn(&mut [f64], &[f64], &[f64])),
}

impl fmt::Debug for SweepImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepImpl::Un(_) => write!(f, "SweepImpl::Un(..)"),
            SweepImpl::Bin(_) => write!(f, "SweepImpl::Bin(..)"),
        }
    }
}

impl fmt::Debug for Impl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Impl::Emulated => write!(f, "Emulated"),
            Impl::Native(_) => write!(f, "Native(..)"),
        }
    }
}

/// A floating-point operator available on a target.
#[derive(Clone, Debug)]
pub struct Operator {
    /// Target-specific name, e.g. `+.f64`, `rcp.f32`, `log1pmd.f64`.
    pub name: String,
    /// Argument representation types.
    pub arg_types: Vec<FpType>,
    /// Result representation type.
    pub ret_type: FpType,
    /// The real-number expression this operator approximates, over the symbols
    /// `a0`, `a1`, ... (one per argument).
    pub desugaring: Expr,
    /// Scalar cost used by the target cost model (relative units).
    pub cost: f64,
    /// How to execute the operator on concrete values.
    pub implementation: Impl,
    /// Optional block-wide form of a native implementation (see
    /// [`SweepImpl`]'s bit-identity contract). `None` means the block
    /// evaluator calls the scalar function once per lane.
    pub sweep: Option<SweepImpl>,
}

impl Operator {
    /// Creates an emulated operator from a desugaring written as an S-expression
    /// over `a0`, `a1`, ....
    ///
    /// # Panics
    ///
    /// Panics if the desugaring does not parse; this is a programming error in a
    /// target description.
    pub fn emulated(
        name: &str,
        arg_types: &[FpType],
        ret_type: FpType,
        desugaring: &str,
        cost: f64,
    ) -> Operator {
        Operator {
            name: name.to_owned(),
            arg_types: arg_types.to_vec(),
            ret_type,
            desugaring: parse_expr(desugaring)
                .unwrap_or_else(|e| panic!("bad desugaring for {name}: {e}")),
            cost,
            implementation: Impl::Emulated,
            sweep: None,
        }
    }

    /// Attaches a block-wide sweep form to a native operator. The sweep must
    /// honor the [`SweepImpl`] bit-identity contract with the operator's
    /// scalar implementation.
    pub fn with_sweep(mut self, sweep: SweepImpl) -> Operator {
        // Sweep forms pair with native scalar implementations; the rule is
        // enforced by `crate::analysis::verify_target` on the finished target.
        self.sweep = Some(sweep);
        self
    }

    /// Creates a linked (native) operator with an explicit implementation.
    ///
    /// # Panics
    ///
    /// Panics if the desugaring does not parse.
    pub fn native(
        name: &str,
        arg_types: &[FpType],
        ret_type: FpType,
        desugaring: &str,
        cost: f64,
        implementation: fn(&[f64]) -> f64,
    ) -> Operator {
        Operator {
            implementation: Impl::Native(implementation),
            ..Operator::emulated(name, arg_types, ret_type, desugaring, cost)
        }
    }

    /// Number of arguments.
    pub fn arity(&self) -> usize {
        self.arg_types.len()
    }

    /// True if the operator is "linked" (has a native implementation) rather than
    /// emulated — the L/E column of Figure 6.
    pub fn is_linked(&self) -> bool {
        matches!(self.implementation, Impl::Native(_))
    }

    /// Executes the operator on concrete arguments (already rounded to the
    /// operator's argument types), returning a value rounded to the return type.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match the operator's arity.
    pub fn execute(&self, args: &[f64]) -> f64 {
        assert_eq!(
            args.len(),
            self.arity(),
            "arity mismatch calling {}",
            self.name
        );
        let raw = match self.implementation {
            Impl::Native(f) => f(args),
            Impl::Emulated => fpcore::eval::eval_f64_in(&self.desugaring, &ArgBindings(args)),
        };
        round_to_type(raw, self.ret_type)
    }

    /// The desugaring with the positional argument symbols replaced by the given
    /// argument expressions.
    ///
    /// # Panics
    ///
    /// Panics if the argument count does not match the operator's arity.
    pub fn instantiate_desugaring(&self, args: &[Expr]) -> Expr {
        assert_eq!(args.len(), self.arity(), "arity mismatch for {}", self.name);
        let mut out = self.desugaring.clone();
        for (i, arg) in args.iter().enumerate() {
            out = out.substitute(arg_symbol(i), arg);
        }
        out
    }
}

/// Rounds a value to the given representation (the identity for binary64).
pub fn round_to_type(x: f64, ty: FpType) -> f64 {
    match ty {
        FpType::Binary64 | FpType::Bool => x,
        FpType::Binary32 => x as f32 as f64,
    }
}

/// Truncates the mantissa of `x`, keeping `bits` significant bits. Used to
/// emulate reduced-accuracy instructions (AVX `rcpps`, vdt `fast_*`).
pub fn truncate_mantissa(x: f64, bits: u32) -> f64 {
    if !x.is_finite() || x == 0.0 || bits >= 53 {
        return x;
    }
    let mask = !((1u64 << (52 - bits)) - 1);
    f64::from_bits(x.to_bits() & mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emulated_operator_executes_desugaring() {
        let op = Operator::emulated(
            "hypot.f64",
            &[FpType::Binary64, FpType::Binary64],
            FpType::Binary64,
            "(sqrt (+ (* a0 a0) (* a1 a1)))",
            12.0,
        );
        assert_eq!(op.arity(), 2);
        assert!(!op.is_linked());
        assert_eq!(op.execute(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn native_operator_uses_function() {
        fn rcp(args: &[f64]) -> f64 {
            truncate_mantissa(1.0 / args[0], 12)
        }
        let op = Operator::native(
            "rcp.f32",
            &[FpType::Binary32],
            FpType::Binary32,
            "(/ 1 a0)",
            4.0,
            rcp,
        );
        assert!(op.is_linked());
        let approx = op.execute(&[3.0]);
        assert!((approx - 1.0 / 3.0).abs() < 1e-3);
        assert_ne!(
            approx,
            (1.0f32 / 3.0f32) as f64,
            "rcp is deliberately inexact"
        );
    }

    #[test]
    fn binary32_results_are_rounded() {
        let op = Operator::emulated(
            "/.f32",
            &[FpType::Binary32, FpType::Binary32],
            FpType::Binary32,
            "(/ a0 a1)",
            10.0,
        );
        assert_eq!(op.execute(&[1.0, 3.0]), (1.0f32 / 3.0f32) as f64);
    }

    #[test]
    fn desugaring_instantiation() {
        let op = Operator::emulated(
            "log1p.f64",
            &[FpType::Binary64],
            FpType::Binary64,
            "(log (+ 1 a0))",
            30.0,
        );
        let inst = op.instantiate_desugaring(&[fpcore::parse_expr("(* x x)").unwrap()]);
        assert_eq!(inst, fpcore::parse_expr("(log (+ 1 (* x x)))").unwrap());
    }

    #[test]
    fn mantissa_truncation_controls_error() {
        let x = 1.0 / 3.0;
        let coarse = truncate_mantissa(x, 10);
        let fine = truncate_mantissa(x, 40);
        assert!((coarse - x).abs() > (fine - x).abs());
        assert!((coarse - x).abs() / x < 2.0_f64.powi(-10));
        assert_eq!(truncate_mantissa(0.0, 10), 0.0);
        assert_eq!(truncate_mantissa(f64::INFINITY, 10), f64::INFINITY);
        assert_eq!(truncate_mantissa(x, 53), x);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn execute_checks_arity() {
        let op = Operator::emulated(
            "neg.f64",
            &[FpType::Binary64],
            FpType::Binary64,
            "(- a0)",
            1.0,
        );
        op.execute(&[1.0, 2.0]);
    }
}
