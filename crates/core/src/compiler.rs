//! The compiler configuration and result types.
//!
//! The pipeline itself — sampling, lowering, the improvement loop, regime
//! inference, final evaluation — lives in [`crate::session`]: a
//! [`Session`](crate::session::Session) prepares each benchmark once
//! (target-independent sampling + Rival ground truth) and compiles the
//! prepared state for any number of targets. The pre-session one-shot
//! `Chassis` entry point went through a deprecation release as a shim over
//! that API and has been removed; see the README's migration note.

use crate::improve::ImproveConfig;
use crate::isel::IselConfig;
use crate::sample::{SampleError, SampleSet};
use crate::session::SearchStats;
use targets::FloatExpr;

/// Chassis configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Training points used to guide the search.
    pub train_points: usize,
    /// Held-out test points used for the reported accuracy.
    pub test_points: usize,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Iterative-improvement settings.
    pub improve: ImproveConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            train_points: 24,
            test_points: 32,
            seed: 20250413,
            improve: ImproveConfig::default(),
        }
    }
}

impl Config {
    /// A faster configuration for large benchmark sweeps (fewer points, fewer
    /// iterations, smaller e-graphs).
    pub fn fast() -> Config {
        Config {
            train_points: 12,
            test_points: 16,
            improve: ImproveConfig {
                iterations: 2,
                candidates_per_iteration: 1,
                subexprs_per_candidate: 2,
                isel: IselConfig {
                    node_limit: 3_000,
                    iter_limit: 4,
                    max_candidates: 24,
                },
            },
            ..Config::default()
        }
    }

    /// Overrides the RNG seed (builder style) — what the bench binaries'
    /// `--seed` flag feeds.
    pub fn with_seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }

    /// A stable 128-bit fingerprint of every configuration field that can
    /// change a compilation *result*. The compilation service keys its
    /// content-addressed cache on this together with the benchmark's
    /// canonical text, the target fingerprint, and the seed.
    ///
    /// `seed` is deliberately excluded: it is its own key component (the
    /// service hashes it separately, and callers reason about "same request,
    /// different seed" directly).
    pub fn fingerprint(&self) -> u128 {
        let mut h = fpcore::hash::ContentHasher::new();
        h.u64(self.train_points as u64);
        h.u64(self.test_points as u64);
        h.u64(self.improve.iterations as u64);
        h.u64(self.improve.candidates_per_iteration as u64);
        h.u64(self.improve.subexprs_per_candidate as u64);
        h.u64(self.improve.isel.node_limit as u64);
        h.u64(self.improve.isel.iter_limit as u64);
        h.u64(self.improve.isel.max_candidates as u64);
        h.digest()
    }
}

/// The resource whose limit a [`CompileError::ResourceExhausted`] hit.
///
/// Resource exhaustion *inside* the search degrades gracefully — the
/// [`Budget`](crate::session::Budget) machinery returns the best frontier
/// found, saturation keeps the equalities discovered before the cap — so this
/// error only surfaces where there is nothing to degrade to: the limit fired
/// before any implementation existed at all.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ResourceLimit {
    /// The e-graph node cap (the paper's 8000-node limit).
    Nodes(usize),
}

impl std::fmt::Display for ResourceLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResourceLimit::Nodes(n) => write!(f, "{n} e-graph nodes"),
        }
    }
}

/// A panic captured at a job boundary and converted into a typed error.
///
/// [`Session::compile_many`](crate::session::Session::compile_many) wraps
/// every (benchmark × target) job in `catch_unwind`, so a panic anywhere in
/// one job — including inside a [`chassis::par`](crate::par) worker thread,
/// whose payload is transported back to the job — fails that job with
/// [`CompileError::Internal`] while the rest of the corpus completes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobPanic {
    message: String,
}

impl JobPanic {
    /// A panic record with the given message.
    pub fn new(message: impl Into<String>) -> JobPanic {
        JobPanic {
            message: message.into(),
        }
    }

    /// Extracts the human-readable message from a `catch_unwind` payload
    /// (`&str` and `String` payloads — everything `panic!` produces — are
    /// recovered verbatim; anything else is labelled opaque).
    pub fn from_payload(payload: &(dyn std::any::Any + Send)) -> JobPanic {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        JobPanic { message }
    }

    /// The panic message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// The coarse classification of a [`CompileError`], carried on
/// [`Progress::JobFailed`](crate::session::Progress) events (which must stay
/// `Copy`) and useful for aggregating failure counts over a corpus run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ErrorKind {
    /// [`CompileError::Sampling`].
    Sampling,
    /// [`CompileError::Unsupported`].
    Unsupported,
    /// [`CompileError::ResourceExhausted`].
    ResourceExhausted,
    /// [`CompileError::GroundTruth`].
    GroundTruth,
    /// [`CompileError::Internal`].
    Internal,
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorKind::Sampling => "sampling",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::ResourceExhausted => "resource-exhausted",
            ErrorKind::GroundTruth => "ground-truth",
            ErrorKind::Internal => "internal",
        })
    }
}

/// Why compilation failed.
///
/// Every failure of the pipeline surfaces as one of these variants — never a
/// panic escaping [`Session::compile_many`](crate::session::Session) — and
/// each carries its cause through [`std::error::Error::source`], so a caller
/// (or a service wrapping the compiler) can both classify and explain:
///
/// * [`Sampling`](CompileError::Sampling) / [`GroundTruth`](CompileError::GroundTruth)
///   — the benchmark's domain, not the target, is the problem (degenerate
///   `:pre`, NaN-everywhere bodies, non-converging ground truth);
/// * [`Unsupported`](CompileError::Unsupported) — the (benchmark, target)
///   pair is genuinely unimplementable;
/// * [`ResourceExhausted`](CompileError::ResourceExhausted) — a limit fired
///   before any implementation existed (limits firing later degrade to the
///   best frontier found instead of erroring);
/// * [`Internal`](CompileError::Internal) — a bug, captured at the job
///   boundary.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// Sampling could not find enough valid input points.
    Sampling(SampleError),
    /// The expression uses operators that cannot be implemented on the target,
    /// even after desugaring and instruction selection.
    Unsupported(String),
    /// A resource limit fired before any implementation existed, leaving
    /// nothing to degrade to.
    ResourceExhausted {
        /// The phase that hit the limit.
        phase: crate::session::Phase,
        /// Which limit fired.
        limit: ResourceLimit,
    },
    /// Ground truth never converged: every sampled point that satisfied the
    /// precondition topped out Rival's precision ladder undecided.
    GroundTruth(rival::TruthError),
    /// A panic inside one compilation job, captured at the job boundary.
    Internal(JobPanic),
}

impl CompileError {
    /// The coarse [`ErrorKind`] of this error.
    pub fn kind(&self) -> ErrorKind {
        match self {
            CompileError::Sampling(_) => ErrorKind::Sampling,
            CompileError::Unsupported(_) => ErrorKind::Unsupported,
            CompileError::ResourceExhausted { .. } => ErrorKind::ResourceExhausted,
            CompileError::GroundTruth(_) => ErrorKind::GroundTruth,
            CompileError::Internal(_) => ErrorKind::Internal,
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Sampling(e) => write!(f, "sampling failed: {e}"),
            CompileError::Unsupported(what) => write!(f, "cannot implement on this target: {what}"),
            CompileError::ResourceExhausted { phase, limit } => {
                write!(f, "{phase} exhausted its resource limit ({limit})")
            }
            CompileError::GroundTruth(e) => write!(f, "ground truth failed: {e}"),
            CompileError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Sampling(e) => Some(e),
            CompileError::GroundTruth(e) => Some(e),
            CompileError::Internal(e) => Some(e),
            CompileError::Unsupported(_) | CompileError::ResourceExhausted { .. } => None,
        }
    }
}

impl From<SampleError> for CompileError {
    fn from(e: SampleError) -> Self {
        match e {
            // A sample set that failed *because ground truth never converged*
            // is a ground-truth failure, not a domain problem.
            SampleError::GroundTruth(t) => CompileError::GroundTruth(t),
            other => CompileError::Sampling(other),
        }
    }
}

/// One output implementation (a point on the Pareto frontier).
#[derive(Clone, Debug)]
pub struct Implementation {
    /// The target-specific program.
    pub expr: FloatExpr,
    /// Human-readable rendering using the target's operator names.
    pub rendered: String,
    /// Estimated cost under the target cost model.
    pub cost: f64,
    /// Mean bits of error on the held-out test points.
    pub error_bits: f64,
    /// Accuracy in the paper's convention (`p −` mean bits of error).
    pub accuracy_bits: f64,
}

/// The result of compiling one FPCore on one target.
#[derive(Clone, Debug)]
pub struct CompilationResult {
    /// Pareto-optimal implementations, sorted by increasing cost.
    pub implementations: Vec<Implementation>,
    /// The naive direct lowering of the input (the "initial program" that
    /// speedups are measured against).
    pub initial: Implementation,
    /// The sampled points used during compilation.
    pub samples: SampleSet,
    /// Per-phase wall-clock durations and search work counters for this
    /// compile call.
    pub stats: SearchStats,
}

impl CompilationResult {
    /// The most accurate implementation.
    ///
    /// The frontier is non-empty in practice — the initial program is inserted
    /// before the search begins — but a frontier can end up empty when every
    /// candidate (including the initial program) scored non-finite, since the
    /// Pareto frontier rejects non-finite points. In that case the initial
    /// implementation is returned rather than panicking.
    pub fn most_accurate(&self) -> &Implementation {
        self.implementations
            .iter()
            .min_by(|a, b| {
                a.error_bits
                    .partial_cmp(&b.error_bits)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(&self.initial)
    }

    /// The cheapest implementation. Falls back to the initial implementation
    /// on an empty frontier (see [`CompilationResult::most_accurate`]).
    pub fn cheapest(&self) -> &Implementation {
        self.implementations
            .iter()
            .min_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(&self.initial)
    }

    /// Estimated speedup of the cheapest implementation over the initial program
    /// (cost ratio; the cost model is inversely related to speed).
    pub fn best_speedup(&self) -> f64 {
        self.initial.cost / self.cheapest().cost.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use fpcore::parse_fpcore;
    use targets::builtin;

    #[test]
    fn compiles_the_quickstart_example_end_to_end() {
        let core =
            parse_fpcore("(FPCore (x) :pre (and (> x 1) (< x 1e14)) (- (sqrt (+ x 1)) (sqrt x)))")
                .unwrap();
        let target = builtin::by_name("c99").unwrap();
        let result = Session::new(Config::fast())
            .compile(&core, &target)
            .unwrap();
        assert!(!result.implementations.is_empty());
        // The most accurate implementation should beat the naive lowering by a
        // wide margin on this classic cancellation example.
        assert!(
            result.most_accurate().error_bits + 5.0 < result.initial.error_bits,
            "expected accuracy improvement: best {:.1} vs initial {:.1}",
            result.most_accurate().error_bits,
            result.initial.error_bits
        );
        // Implementations are sorted by cost.
        let costs: Vec<f64> = result.implementations.iter().map(|i| i.cost).collect();
        let mut sorted = costs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(costs, sorted);
        // The result carries its search statistics: the improve phase did
        // run, and its scored-candidate count includes at least the initial
        // program.
        assert!(result.stats.candidates_scored >= 1);
        assert!(result.stats.improve > std::time::Duration::ZERO);
    }

    #[test]
    fn unsupported_expressions_are_reported() {
        // sin cannot be implemented on the bare Arith target.
        let core = parse_fpcore("(FPCore (x) (sin x))").unwrap();
        let target = builtin::by_name("arith").unwrap();
        let result = Session::new(Config::fast()).compile(&core, &target);
        assert!(matches!(result, Err(CompileError::Unsupported(_))));
    }

    #[test]
    fn impossible_preconditions_fail_sampling() {
        let core = parse_fpcore("(FPCore (x) :pre (< x (- x 1)) (+ x 1))").unwrap();
        let target = builtin::by_name("c99").unwrap();
        let result = Session::new(Config::fast()).compile(&core, &target);
        assert!(matches!(result, Err(CompileError::Sampling(_))));
    }

    #[test]
    fn config_fingerprints_track_result_relevant_fields_only() {
        let base = Config::default();
        assert_eq!(base.fingerprint(), Config::default().fingerprint());
        assert_ne!(base.fingerprint(), Config::fast().fingerprint());
        // The seed is keyed separately (see the method docs).
        assert_eq!(
            base.fingerprint(),
            Config::default().with_seed(999).fingerprint()
        );
        let mut fewer_iters = Config::default();
        fewer_iters.improve.iterations -= 1;
        assert_ne!(base.fingerprint(), fewer_iters.fingerprint());
    }

    #[test]
    fn frontier_accessors_fall_back_to_the_initial_on_an_empty_frontier() {
        // Manufacture the empty-frontier corner (every candidate scored
        // non-finite): the accessors must return the initial implementation
        // instead of panicking.
        let core = parse_fpcore("(FPCore (x) (+ x 1))").unwrap();
        let samples = crate::sample::Sampler::new(1).sample(&core, 4, 2).unwrap();
        let target = builtin::by_name("c99").unwrap();
        let expr = crate::lower::lower_fpcore(&core, &target).unwrap();
        let initial = Implementation {
            rendered: expr.render(&target),
            expr,
            cost: 3.0,
            error_bits: 0.5,
            accuracy_bits: 52.5,
        };
        let result = CompilationResult {
            implementations: Vec::new(),
            initial,
            samples,
            stats: SearchStats::default(),
        };
        assert_eq!(result.most_accurate().rendered, result.initial.rendered);
        assert_eq!(result.cheapest().cost, result.initial.cost);
        assert!((result.best_speedup() - 1.0).abs() < 1e-12);
    }
}
