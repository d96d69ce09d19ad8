//! # chassis
//!
//! A target-aware numerical compiler: the primary contribution of *"Target-Aware
//! Implementation of Real Expressions"* (ASPLOS 2025), reimplemented in Rust.
//!
//! Chassis compiles a real-number expression (an [`fpcore::FPCore`]) and a
//! [`targets::Target`] description into a Pareto frontier of target-specific
//! floating-point programs trading off estimated cost against measured accuracy.
//!
//! The major pieces, following the paper's structure:
//!
//! * [`lang`] — the mixed real/float e-graph language (Section 5.1),
//! * [`rules`] — the target-independent mathematical identity database,
//! * [`isel`] — instruction selection modulo equivalence via equality saturation,
//! * [`typed_extract`] — the typed extraction algorithm,
//! * [`lower`] — naive direct lowering (initial programs, baselines, Herbie
//!   transcription),
//! * [`sample`] — input sampling against preconditions,
//! * [`accuracy`] — ULP/bits-of-error measurement against Rival ground truth,
//! * [`local_error`] / [`cost_opportunity`] — the heuristics guiding the loop
//!   (Section 5.2),
//! * [`pareto`] — Pareto frontier maintenance,
//! * [`improve`] — the iterative improvement loop,
//! * [`regimes`] — regime inference (branch splitting),
//! * [`session`] — the public [`Session`]/[`Prepared`] API: prepare a
//!   benchmark once (sampling + ground truth), compile it for many targets,
//!   observe the search ([`Progress`]) and bound it ([`Budget`]),
//! * [`compiler`] — configuration and result types,
//! * [`baseline`] — the Herbie-style and Clang-style baselines used in the
//!   evaluation.
//!
//! # Example
//!
//! The target-independent phases (input sampling, Rival ground truth) run once
//! per benchmark in [`Session::prepare`]; each [`Prepared::compile`] then runs
//! only the target-specific search:
//!
//! ```no_run
//! use chassis::{Config, Session};
//! use fpcore::parse_fpcore;
//! use targets::builtin;
//!
//! let core = parse_fpcore("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").unwrap();
//! let session = Session::new(Config::default());
//! let prepared = session.prepare(&core).unwrap();
//! for name in ["c99", "avx", "fdlibm"] {
//!     let target = builtin::by_name(name).unwrap();
//!     let result = prepared.compile(&target).unwrap();
//!     for imp in &result.implementations {
//!         println!(
//!             "{name}: cost {:8.1}  accuracy {:5.2} bits  {}",
//!             imp.cost, imp.accuracy_bits, imp.rendered
//!         );
//!     }
//! }
//! ```
//!
//! Whole-corpus runs go through [`Session::compile_many`], which prepares each
//! benchmark exactly once and fans the `(benchmark × target)` compile jobs out
//! over [`par`].

pub mod accuracy;
pub mod baseline;
pub mod compiler;
pub mod cost_opportunity;
pub mod improve;
pub mod isel;
pub mod lang;
pub mod local_error;
pub mod lower;
pub mod par;
pub mod pareto;
pub mod regimes;
pub mod rng;
pub mod rules;
pub mod sample;
pub mod session;
pub mod typed_extract;

pub use compiler::{
    CompilationResult, CompileError, Config, ErrorKind, Implementation, JobPanic, ResourceLimit,
};
pub use isel::{InstructionSelector, IselConfig, IselResult};
pub use lower::{lower_fpcore, DirectLowering, LowerError};
pub use pareto::ParetoFrontier;
pub use sample::{GroundTruthCache, SampleError, SampleSet, Sampler, TruthStats};
pub use session::{
    Budget, CancelToken, Phase, Prepared, Progress, ProgressFn, SearchControl, SearchCtx,
    SearchStats, Session,
};
