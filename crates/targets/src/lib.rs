//! # targets
//!
//! Chassis' target description language (paper Section 4) and the nine built-in
//! targets used in the evaluation (Figure 6), together with everything needed to
//! *execute* and *cost* target-specific floating-point programs:
//!
//! * [`Operator`] — a floating-point instruction with a type signature, a
//!   real-number desugaring, a scalar cost and an implementation,
//! * [`Target`] — a named set of operators plus cost-model details
//!   (scalar/vector conditional style, literal costs); targets can import and
//!   extend one another,
//! * [`FloatExpr`] — target-specific floating-point programs (the compiler's
//!   output language),
//! * [`cost`](costmodel::program_cost) — the target cost model,
//! * [`interp`] — an interpreter for float programs (used to estimate accuracy
//!   and to measure wall-clock run time, standing in for the paper's dynamic
//!   linking of real instruction implementations),
//! * [`mod@compile`] — a bytecode compiler for float programs: one flat
//!   register-machine [`Program`] per candidate, bit-identical to the
//!   interpreter and reused across every sample point (the evaluation hot
//!   path),
//! * [`mod@block`] — structure-of-arrays block execution of compiled
//!   programs: columnar point batches ([`Columns`]) swept one instruction per
//!   *block* of points against a columnar register file, bit-identical to the
//!   scalar engine at every block width,
//! * [`autotune`] — the cost auto-tuner that times each operator in a hot loop,
//! * [`builtin`] — the nine target descriptions: Arith, Arith+FMA, AVX, C99,
//!   Python, Julia, NumPy, vdt, fdlibm,
//! * [`analysis`] — the static-analysis layer over compiled programs: the IR
//!   verifier (run after every compile in debug builds and corpus-wide in
//!   CI), liveness and the register compaction it drives, and the seeded
//!   mutation harness that tests the verifier itself.

pub mod analysis;
pub mod autotune;
pub mod block;
pub mod builtin;
pub mod compile;
pub mod costmodel;
pub mod expr;
pub mod interp;
pub mod operator;
pub mod target;

pub use analysis::optimize;
pub use block::{BlockRegs, Columns, DEFAULT_BLOCK};
pub use compile::{compile, Program};
pub use costmodel::program_cost;
pub use expr::FloatExpr;
pub use fpcore::eval::Bindings;
pub use interp::{
    eval_batch, eval_float_expr_in, eval_float_expr_indexed, measure_runtime, SliceEnv,
};
pub use operator::{Impl, OpId, Operator};
pub use target::{IfCostStyle, Target};
