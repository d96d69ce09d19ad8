//! # rival
//!
//! A reimplementation of the Rival interval-arithmetic approach used by Herbie and
//! Chassis to compute *correctly rounded* ("ground truth") results of real-number
//! expressions at IEEE binary32/binary64.
//!
//! The stack is:
//!
//! * [`BigUint`] — arbitrary-precision unsigned integers (mantissas),
//! * [`BigFloat`] — arbitrary-precision binary floating point with directed
//!   rounding ([`RoundMode`]),
//! * [`functions`] — elementary functions (exp, log, trig, hyperbolic, pow, ...)
//!   accurate to a few ulps at any requested precision,
//! * [`Interval`] — outward-rounded interval arithmetic over big-floats,
//! * [`eval`] — evaluation of [`fpcore`] expressions over intervals with
//!   *precision escalation*: evaluate at increasing precision until the interval
//!   rounds to a single IEEE value (or the point is declared unsamplable).
//!
//! # Example
//!
//! ```
//! use rival::{ground_truth, GroundTruth};
//! use fpcore::{parse_expr, Symbol, FpType};
//!
//! // The true value of sqrt(x+1) - sqrt(x) at x = 1e15, correctly rounded.
//! let expr = parse_expr("(- (sqrt (+ x 1)) (sqrt x))").unwrap();
//! let env = vec![(Symbol::new("x"), 1e15)];
//! match ground_truth(&expr, &env, FpType::Binary64) {
//!     GroundTruth::Value(v) => assert!((v - 1.5811388300841893e-8).abs() < 1e-22),
//!     other => panic!("unexpected result {other:?}"),
//! }
//! ```

pub mod bigfloat;
pub mod bigint;
pub mod eval;
pub mod functions;
pub mod interval;

pub use bigfloat::{pow2_f64, BigFloat, RoundMode};
pub use bigint::BigUint;
pub use eval::{ground_truth, Evaluator, GroundTruth, Interned, Memo, TruthError};
pub use interval::{BoolInterval, Interval};
