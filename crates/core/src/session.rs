//! The session-based compilation API: prepare once, compile for many targets.
//!
//! The paper's whole point is that one real expression should be implemented
//! for *many* targets (its evaluation runs nine targets over one corpus), yet a
//! one-shot `compile(target, core)` entry point re-samples inputs and re-runs
//! the Rival ground-truth evaluator on every call — both target-independent,
//! and by far the most expensive non-search phases. This module separates the
//! two halves:
//!
//! * [`Session::new`] owns the configuration (and with it the RNG seed) plus a
//!   per-benchmark cache of prepared state;
//! * [`Session::prepare`] runs the target-independent phases — argument-type
//!   analysis, input sampling, Rival ground truth — exactly once per
//!   `(benchmark, seed)` and returns a cheaply cloneable [`Prepared`] handle;
//! * [`Prepared::compile`] runs the target-specific search (lowering, the
//!   improvement loop, regime inference) against the cached sample set;
//! * [`Session::compile_many`] fans `(benchmark × target)` jobs out over
//!   [`chassis::par`](crate::par), sharing prepared state per benchmark.
//!
//! Observability and control are threaded through the search with
//! [`SearchControl`]: a [`Progress`] callback receives structured events (phase
//! transitions, improve iterations, frontier admissions, regime inference) and
//! a [`Budget`] bounds the search by iterations and/or wall-clock time, in
//! which case the search degrades gracefully to the frontier found so far —
//! the frontier always contains at least the initial program.
//!
//! With the default (unlimited) budget every result is bit-identical to the
//! pre-session one-shot path at the same seed: preparation performs exactly
//! the sampling the old path performed inline, and the search itself is
//! deterministic given the samples.

// The corpus entry point must never die on one bad job: every failure is a
// typed `CompileError`, so ad-hoc unwraps are banned here (docs/RESILIENCE.md).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::compiler::{
    CompilationResult, CompileError, Config, ErrorKind, Implementation, JobPanic, ResourceLimit,
};
use crate::improve::{improve_with, Candidate};
use crate::isel::{InstructionSelector, TargetRules};
use crate::lower::{lower_fpcore, variable_types, LowerError};
use crate::par;
use crate::regimes::infer_regimes_with;
use crate::sample::{GroundTruthCache, SampleSet, Sampler, TruthStats, TruthTally};
use fpcore::{FPCore, FpType, Symbol};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use targets::{program_cost, FloatExpr, Target};

/// A shared, cheap cancellation signal for in-flight searches.
///
/// A token is an `Arc`'d atomic flag: clone it freely, hand one side to the
/// search via [`SearchControl::with_cancel`] and keep the other wherever the
/// cancel decision lives (a daemon watchdog, a ctrl-C handler, a dropped
/// client connection). Firing it is [`CancelToken::cancel`] — idempotent,
/// lock-free, callable from any thread.
///
/// The search checks the token at exactly the cut points the wall-clock
/// [`Budget`] already checks (improve iteration heads, per-candidate work
/// inside `par` workers, regime sweeps, the final-evaluation boundary), so a
/// cancelled search **degrades, never fails**: it returns the
/// initial-containing Pareto frontier found so far, exactly as an exhausted
/// budget does, and emits [`Progress::JobCancelled`] once on the way out. A
/// token that never fires is observationally inert — results are bit-identical
/// to a search run without one, at any thread count.
#[derive(Clone, Default, Debug)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token: every search holding it stops at its next cut point.
    /// Idempotent; callable from any thread.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }
}

/// The phases of one compilation, reported through [`Progress`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Target-independent preparation: sampling and ground truth.
    Prepare,
    /// Producing the initial program for a target.
    Lowering,
    /// The iterative improvement loop.
    Improve,
    /// Regime inference over the finished frontier.
    Regimes,
    /// Scoring the frontier on the held-out test points.
    FinalEvaluation,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Phase::Prepare => "prepare",
            Phase::Lowering => "lowering",
            Phase::Improve => "improve",
            Phase::Regimes => "regimes",
            Phase::FinalEvaluation => "final evaluation",
        };
        f.write_str(name)
    }
}

/// A structured observability event emitted during compilation.
///
/// Events are delivered synchronously, on the thread doing the work, to the
/// callback installed with [`SearchControl::with_progress`]; under
/// [`Session::compile_many`] events from concurrent jobs interleave, so a
/// callback that aggregates (counters, channels) works better than one that
/// prints.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Progress {
    /// A compilation phase began.
    PhaseStarted {
        /// Which phase.
        phase: Phase,
    },
    /// A compilation phase finished.
    PhaseFinished {
        /// Which phase.
        phase: Phase,
        /// Wall-clock time the phase took.
        duration: Duration,
    },
    /// The improvement loop started an iteration.
    ImproveIteration {
        /// Zero-based iteration index.
        iteration: usize,
        /// Frontier size entering the iteration.
        frontier_size: usize,
    },
    /// A candidate was admitted to the Pareto frontier.
    FrontierPointAdmitted {
        /// Estimated cost of the admitted candidate.
        cost: f64,
        /// Mean bits of error of the admitted candidate (training points).
        error_bits: f64,
    },
    /// Regime inference found a worthwhile branched program.
    RegimesInferred {
        /// Estimated cost of the branched program.
        cost: f64,
        /// Mean bits of error of the branched program (training points).
        error_bits: f64,
    },
    /// The [`Budget`] ran out; the search stopped early with the frontier
    /// found so far (which always contains the initial program).
    BudgetExhausted {
        /// The phase that was cut short.
        phase: Phase,
        /// Completed improve iterations at the time of the cut.
        iterations_completed: usize,
    },
    /// Every final implementation's compiled program passed IR verification
    /// (`targets::analysis`), including in release builds where the
    /// per-compile debug hook is off. The register totals report what
    /// liveness-driven compaction saves on this result's programs.
    ProgramsVerified {
        /// Programs verified (the frontier plus the initial program).
        programs: usize,
        /// Aggregate register-slab height of the fresh compiles.
        regs: usize,
        /// Aggregate slab height after register compaction.
        regs_compacted: usize,
    },
    /// One `(benchmark × target)` job under [`Session::compile_many`] failed
    /// with a typed error — including a panic caught and converted to
    /// [`CompileError::Internal`] — while the rest of the corpus continued.
    /// Emitted once per failed cell, after the fan-out completes; a benchmark
    /// whose *preparation* failed reports one event per target column.
    JobFailed {
        /// Index of the benchmark in the `cores` slice passed to
        /// `compile_many`.
        benchmark: usize,
        /// Index of the target in the `targets` slice.
        target: usize,
        /// Coarse classification of the failure (the full error lives in the
        /// returned grid).
        kind: ErrorKind,
    },
    /// The search's [`CancelToken`] fired: the search stopped at its next cut
    /// point and returned the initial-containing frontier found so far (the
    /// same degradation an exhausted [`Budget`] takes). Emitted once per
    /// cancelled `compile` call, just before it returns.
    JobCancelled,
}

/// Work and timing summary of one `compile` call, carried on
/// [`CompilationResult::stats`](crate::CompilationResult).
///
/// The per-phase durations are wall-clock times of the phases reported
/// through [`Progress::PhaseFinished`]; `saturation` and `candidates_scored`
/// aggregate the improve loop's inner work across all worker threads (so
/// under parallelism `saturation` can exceed `improve`); `truths` counts the
/// ground-truth requests this call made.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct SearchStats {
    /// Wall-clock time of the lowering phase.
    pub lowering: Duration,
    /// Wall-clock time of the improvement loop.
    pub improve: Duration,
    /// Wall-clock time of regime inference (zero when disabled).
    pub regimes: Duration,
    /// Wall-clock time of final evaluation plus verification.
    pub final_evaluation: Duration,
    /// Total time inside instruction-selection saturation runs, summed
    /// across workers.
    pub saturation: Duration,
    /// Candidate programs scored on the training points.
    pub candidates_scored: usize,
    /// Jobs that ended in a typed [`CompileError`]. Always zero on a single
    /// `compile` call's stats (a failed call returns `Err`, not stats);
    /// meaningful on the corpus-wide sum built by [`SearchStats::aggregate`].
    pub jobs_failed: usize,
    /// The ground-truth requests this call made: its hits, and its misses
    /// with the work of the sweeps it ran. Each request to a shared cache
    /// counts in exactly one call, so the calls' counts sum to the cache's
    /// totals however concurrent calls overlap.
    pub truths: crate::sample::TruthStats,
}

impl SearchStats {
    /// Sums this and another stats record field-wise.
    pub fn merged(&self, other: &SearchStats) -> SearchStats {
        SearchStats {
            lowering: self.lowering + other.lowering,
            improve: self.improve + other.improve,
            regimes: self.regimes + other.regimes,
            final_evaluation: self.final_evaluation + other.final_evaluation,
            saturation: self.saturation + other.saturation,
            candidates_scored: self.candidates_scored + other.candidates_scored,
            jobs_failed: self.jobs_failed + other.jobs_failed,
            truths: self.truths.merged(&other.truths),
        }
    }

    /// Corpus-wide summary of a [`Session::compile_many`] result grid: `Ok`
    /// cells contribute their per-job stats, `Err` cells count into
    /// [`jobs_failed`](SearchStats::jobs_failed).
    pub fn aggregate(grid: &[Vec<Result<CompilationResult, CompileError>>]) -> SearchStats {
        let mut total = SearchStats::default();
        for row in grid {
            for cell in row {
                match cell {
                    Ok(result) => total = total.merged(&result.stats),
                    Err(_) => total.jobs_failed += 1,
                }
            }
        }
        total
    }
}

/// A resource bound on one `compile` call.
///
/// The default budget is unlimited. A bounded search never fails: the
/// improvement loop and regime inference check the budget at their natural
/// cut points and return the best frontier found so far, which always
/// contains the initial program.
#[derive(Clone, Copy, Default, Debug)]
pub struct Budget {
    /// Cap on improve-loop iterations (`None` = the configured iteration
    /// count). `Some(0)` skips the loop entirely, keeping only the initial
    /// program.
    pub max_iterations: Option<usize>,
    /// Wall-clock cap for the whole `compile` call, measured from its start.
    pub max_duration: Option<Duration>,
}

impl Budget {
    /// No bound beyond the configured iteration count.
    pub const UNLIMITED: Budget = Budget {
        max_iterations: None,
        max_duration: None,
    };

    /// Caps the improvement loop at `n` iterations.
    pub fn iterations(n: usize) -> Budget {
        Budget {
            max_iterations: Some(n),
            ..Budget::UNLIMITED
        }
    }

    /// Caps the whole compilation at `d` of wall-clock time.
    ///
    /// Note that a wall-clock bound trades determinism for latency: whether
    /// the cut fires depends on machine speed, so two runs may return
    /// different (both valid) frontiers.
    pub fn wall_clock(d: Duration) -> Budget {
        Budget {
            max_duration: Some(d),
            ..Budget::UNLIMITED
        }
    }

    /// Adds an iteration cap to this budget.
    pub fn with_iterations(mut self, n: usize) -> Budget {
        self.max_iterations = Some(n);
        self
    }
}

/// The type of a [`Progress`] observer callback.
pub type ProgressFn<'a> = dyn Fn(&Progress) + Sync + 'a;

/// Per-call observability and control: an optional [`Progress`] observer plus
/// a [`Budget`]. The default is silent and unlimited — exactly the classic
/// search.
#[derive(Clone, Copy, Default)]
pub struct SearchControl<'a> {
    progress: Option<&'a ProgressFn<'a>>,
    budget: Budget,
    cancel: Option<&'a CancelToken>,
}

impl<'a> SearchControl<'a> {
    /// Silent, unlimited control (same as `Default`).
    pub fn new() -> SearchControl<'a> {
        SearchControl::default()
    }

    /// Installs a progress observer.
    pub fn with_progress(mut self, observer: &'a ProgressFn<'a>) -> SearchControl<'a> {
        self.progress = Some(observer);
        self
    }

    /// Installs a budget.
    pub fn with_budget(mut self, budget: Budget) -> SearchControl<'a> {
        self.budget = budget;
        self
    }

    /// Attaches a cancellation token: the search stops at its next budget cut
    /// point once the token fires and returns the frontier found so far. A
    /// token that never fires changes nothing — results stay bit-identical.
    pub fn with_cancel(mut self, token: &'a CancelToken) -> SearchControl<'a> {
        self.cancel = Some(token);
        self
    }

    /// The configured budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }
}

impl std::fmt::Debug for SearchControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchControl")
            .field("progress", &self.progress.map(|_| "<observer>"))
            .field("budget", &self.budget)
            .field("cancel", &self.cancel.map(CancelToken::is_cancelled))
            .finish()
    }
}

/// The live context of one `compile` call: the observer, the budget clock
/// (started when the call began), and the session's shared ground-truth cache.
///
/// [`improve_with`](crate::improve::improve_with()) and
/// [`infer_regimes_with`](crate::regimes::infer_regimes_with()) take this to
/// emit events and honour the budget; [`SearchCtx::detached`] provides the
/// silent unlimited context the classic entry points use.
pub struct SearchCtx<'a> {
    progress: Option<&'a ProgressFn<'a>>,
    deadline: Option<Instant>,
    cancel: Option<&'a CancelToken>,
    max_iterations: Option<usize>,
    truths: Option<GroundTruthCache>,
    /// This call's requests to `truths`.
    truth_tally: Arc<TruthTally>,
    /// Wall-clock nanoseconds spent inside instruction-selection saturation
    /// runs, summed across workers (hence atomic: the improve loop saturates
    /// candidate batches in parallel).
    saturation_nanos: AtomicU64,
    /// Candidate programs scored on the training points.
    candidates_scored: AtomicUsize,
}

impl<'a> SearchCtx<'a> {
    /// Starts the budget clock for one compile call.
    pub fn start(ctl: &SearchControl<'a>, truths: Option<GroundTruthCache>) -> SearchCtx<'a> {
        let truth_tally = Arc::new(TruthTally::default());
        SearchCtx {
            progress: ctl.progress,
            // A cap too large for the clock (e.g. Duration::MAX as
            // "effectively unlimited") is no deadline, not a panic.
            deadline: ctl
                .budget
                .max_duration
                .and_then(|d| Instant::now().checked_add(d)),
            cancel: ctl.cancel,
            max_iterations: ctl.budget.max_iterations,
            truths: truths.map(|cache| cache.attributed(Arc::clone(&truth_tally))),
            truth_tally,
            saturation_nanos: AtomicU64::new(0),
            candidates_scored: AtomicUsize::new(0),
        }
    }

    /// A silent, unlimited context with no shared ground-truth cache.
    pub fn detached() -> SearchCtx<'static> {
        SearchCtx {
            progress: None,
            deadline: None,
            cancel: None,
            max_iterations: None,
            truths: None,
            truth_tally: Arc::default(),
            saturation_nanos: AtomicU64::new(0),
            candidates_scored: AtomicUsize::new(0),
        }
    }

    /// Delivers one event to the observer, if any.
    pub fn emit(&self, event: Progress) {
        if let Some(observer) = self.progress {
            observer(&event);
        }
    }

    /// True once the wall-clock budget has run out *or* the attached
    /// [`CancelToken`] has fired. Every budget cut point in the search polls
    /// this, which is what gives cancellation the exact degradation semantics
    /// of budget exhaustion with no extra checks at the sites.
    pub fn out_of_time(&self) -> bool {
        self.cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// True once the attached [`CancelToken`] (if any) has fired.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// True when the budget forbids starting improve iteration `iteration`
    /// (zero-based).
    pub fn iteration_barred(&self, iteration: usize) -> bool {
        self.max_iterations.is_some_and(|m| iteration >= m)
    }

    /// The session-shared Rival ground-truth cache, if compiling under one.
    /// Its requests count toward [`SearchCtx::truth_stats`].
    pub fn truths(&self) -> Option<&GroundTruthCache> {
        self.truths.as_ref()
    }

    /// The ground-truth requests made through [`SearchCtx::truths`] so far.
    pub fn truth_stats(&self) -> TruthStats {
        self.truth_tally.stats()
    }

    /// Records wall-clock time spent in one instruction-selection saturation
    /// run (callable from any worker thread).
    pub fn note_saturation(&self, elapsed: Duration) {
        self.saturation_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records `n` candidate programs scored on the training points.
    pub fn note_scored(&self, n: usize) {
        self.candidates_scored.fetch_add(n, Ordering::Relaxed);
    }

    /// Total wall-clock time spent in saturation runs so far (summed across
    /// workers, so under parallelism this can exceed elapsed time).
    pub fn saturation_time(&self) -> Duration {
        Duration::from_nanos(self.saturation_nanos.load(Ordering::Relaxed))
    }

    /// Candidate programs scored on the training points so far.
    pub fn candidates_scored(&self) -> usize {
        self.candidates_scored.load(Ordering::Relaxed)
    }
}

struct PreparedInner {
    core: FPCore,
    config: Config,
    var_types: HashMap<Symbol, FpType>,
    samples: SampleSet,
    /// Rival ground truths of candidate subexpressions over the training
    /// points, shared by every target compiled from this preparation (the
    /// local-error heuristic re-requests the same real subexpressions for
    /// every target and every improve iteration).
    truths: GroundTruthCache,
    /// The session's rule sets, shared by every preparation it made.
    rules: Arc<RulesCache>,
}

/// Each target's rule sets, built once per session and keyed by
/// [`Target::fingerprint`]. A target whose rules cannot be built keeps its
/// error, so every compile for it fails the same way.
#[derive(Default)]
struct RulesCache(Mutex<HashMap<u128, Result<Arc<TargetRules>, CompileError>>>);

impl RulesCache {
    /// The rule sets for `target`, built on its first request.
    fn get(&self, target: &Target) -> Result<Arc<TargetRules>, CompileError> {
        let key = target.fingerprint();
        // Entries are inserted whole, so a poisoned lock guards a sound map.
        let entries = || {
            self.0
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        if let Some(hit) = entries().get(&key) {
            return hit.clone();
        }
        // Built outside the lock. Two racing builds for one target are
        // identical, and both callers get the one inserted first.
        let built = TargetRules::new(target).map(Arc::new);
        entries().entry(key).or_insert(built).clone()
    }
}

/// The target-independent state of one benchmark under one session: the parsed
/// analysis, the sampled points, and their Rival ground truths.
///
/// `Prepared` is a cheap (`Arc`) handle: clone it freely, share it across
/// threads, and call [`Prepared::compile`] once per target. Every compile
/// call reuses the same samples and ground truths — nothing target-independent
/// is recomputed.
#[derive(Clone)]
pub struct Prepared {
    inner: Arc<PreparedInner>,
}

impl Prepared {
    /// The benchmark this preparation belongs to.
    pub fn core(&self) -> &FPCore {
        &self.inner.core
    }

    /// The session configuration the preparation was made under.
    pub fn config(&self) -> &Config {
        &self.inner.config
    }

    /// The sampled train/test points with their ground truths.
    pub fn samples(&self) -> &SampleSet {
        &self.inner.samples
    }

    /// Compiles this prepared benchmark for one target with default controls.
    ///
    /// Bit-identical to the one-shot path at the same seed: given the same
    /// samples the search is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Unsupported`] when the expression cannot be
    /// expressed with the target's operators at all.
    pub fn compile(&self, target: &Target) -> Result<CompilationResult, CompileError> {
        self.compile_with(target, &SearchControl::default())
    }

    /// Compiles this prepared benchmark for one target, reporting [`Progress`]
    /// and honouring the [`Budget`] in `ctl`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Unsupported`] when the expression cannot be
    /// expressed with the target's operators at all, or when the target has
    /// an operator with more arguments than instruction selection represents
    /// (`op-arity` under `targets::analysis::verify_target`). An exhausted
    /// budget is not an error: the result holds the frontier found so far (at
    /// minimum the initial program).
    pub fn compile_with(
        &self,
        target: &Target,
        ctl: &SearchControl,
    ) -> Result<CompilationResult, CompileError> {
        let inner = &*self.inner;
        let mut ctx = SearchCtx::start(ctl, Some(inner.truths.clone()));
        // Chaos harness: an armed abort spends the job's wall-clock budget up
        // front, so the search degrades exactly as an exhausted `Budget` does
        // — the frontier keeps (at least) the initial program.
        if fault::point("session.compile") {
            ctx.deadline = Some(Instant::now());
        }
        let ctx = ctx;

        ctx.emit(Progress::PhaseStarted {
            phase: Phase::Lowering,
        });
        let phase_started = Instant::now();
        // Built once per session and target: every compile shares them.
        let rules = inner.rules.get(target)?;
        let initial = initial_program(target, &rules, &inner.core, &inner.config)?;
        let lowering_time = phase_started.elapsed();
        ctx.emit(Progress::PhaseFinished {
            phase: Phase::Lowering,
            duration: lowering_time,
        });

        ctx.emit(Progress::PhaseStarted {
            phase: Phase::Improve,
        });
        let phase_started = Instant::now();
        let mut frontier = improve_with(
            target,
            &rules,
            initial.clone(),
            &inner.samples,
            &inner.var_types,
            &inner.config.improve,
            &ctx,
        );
        let improve_time = phase_started.elapsed();
        ctx.emit(Progress::PhaseFinished {
            phase: Phase::Improve,
            duration: improve_time,
        });

        ctx.emit(Progress::PhaseStarted {
            phase: Phase::Regimes,
        });
        let phase_started = Instant::now();
        if let Some((branched, cost, err)) =
            infer_regimes_with(target, &frontier, &inner.samples, &ctx)
        {
            ctx.emit(Progress::RegimesInferred {
                cost,
                error_bits: err,
            });
            frontier.insert(
                cost,
                err,
                Candidate {
                    expr: branched,
                    cost,
                    error_bits: err,
                },
            );
        }
        let regimes_time = phase_started.elapsed();
        ctx.emit(Progress::PhaseFinished {
            phase: Phase::Regimes,
            duration: regimes_time,
        });

        // Final evaluation on the held-out test points, one frontier program
        // per worker (scoring compiles and sweeps the test batch; results are
        // bit-identical at any thread count).
        ctx.emit(Progress::PhaseStarted {
            phase: Phase::FinalEvaluation,
        });
        let phase_started = Instant::now();
        let initial_cost = program_cost(target, &initial);
        // The final-evaluation cut point: a search cancelled by this boundary
        // collapses the frontier to the initial program so only one scoring
        // pass stands between the cancel and the worker being free. (A plain
        // budget deadline does not cut here — final evaluation is what turns
        // a frontier into a result, and its cost is small next to the search.)
        let finals: Vec<(f64, FloatExpr)> = if ctx.cancelled() {
            vec![(initial_cost, initial.clone())]
        } else {
            frontier
                .into_sorted()
                .into_iter()
                .map(|(cost, _, candidate)| (cost, candidate.expr))
                .collect()
        };
        let implementations: Vec<Implementation> = par::par_map(&finals, |(cost, expr)| {
            describe(target, expr.clone(), *cost, &inner.samples)
        });
        let initial_impl = describe(target, initial, initial_cost, &inner.samples);

        // Verify every program this result hands out (the debug hook inside
        // `targets::compile` covers debug builds; this covers release too,
        // once per final implementation rather than per search candidate).
        let all: Vec<&Implementation> = implementations
            .iter()
            .chain(std::iter::once(&initial_impl))
            .collect();
        let slabs: Vec<Result<(usize, usize), CompileError>> = par::par_map(&all, |imp| {
            let program = targets::compile(target, &imp.expr);
            let violations = targets::analysis::verify_with_target(
                &program,
                target,
                targets::analysis::Mode::Ssa,
            );
            // A verifier violation is a compiler bug, not a property of
            // the input: report it as an internal error on this job so
            // the rest of a corpus run survives it.
            if !violations.is_empty() {
                return Err(CompileError::Internal(JobPanic::new(format!(
                    "compiled implementation failed IR verification on target {}:\n{}",
                    target.name,
                    targets::analysis::verify::render(&violations)
                ))));
            }
            let (_, stats) = targets::optimize(&program);
            Ok((stats.regs_before, stats.regs_after))
        });
        let mut verified = Vec::with_capacity(slabs.len());
        for slab in slabs {
            verified.push(slab?);
        }
        ctx.emit(Progress::ProgramsVerified {
            programs: verified.len(),
            regs: verified.iter().map(|(before, _)| before).sum(),
            regs_compacted: verified.iter().map(|(_, after)| after).sum(),
        });
        let final_time = phase_started.elapsed();
        ctx.emit(Progress::PhaseFinished {
            phase: Phase::FinalEvaluation,
            duration: final_time,
        });

        let stats = SearchStats {
            lowering: lowering_time,
            improve: improve_time,
            regimes: regimes_time,
            final_evaluation: final_time,
            saturation: ctx.saturation_time(),
            candidates_scored: ctx.candidates_scored(),
            jobs_failed: 0,
            truths: ctx.truth_stats(),
        };
        if ctx.cancelled() {
            ctx.emit(Progress::JobCancelled);
        }
        Ok(CompilationResult {
            implementations,
            initial: initial_impl,
            samples: inner.samples.clone(),
            stats,
        })
    }
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("core", &self.inner.core.name)
            .field("train", &self.inner.samples.train_len())
            .field("test", &self.inner.samples.test_len())
            .finish_non_exhaustive()
    }
}

/// Produces the initial program: the direct lowering when possible, otherwise
/// the cheapest program found by instruction selection on the whole body (this
/// is what makes expressions with, say, transcendental functions compilable to
/// targets that lack them only if an equivalent form exists).
fn initial_program(
    target: &Target,
    rules: &TargetRules,
    core: &FPCore,
    config: &Config,
) -> Result<FloatExpr, CompileError> {
    match lower_fpcore(core, target) {
        Ok(prog) => Ok(prog),
        Err(LowerError::UnsupportedOperator(op, ty)) => {
            let selector = InstructionSelector::new(target, rules, config.improve.isel);
            let vars = variable_types(core);
            let result = selector.run(&core.body, &vars, core.precision);
            if let Some(best) = result.best.get(&core.precision) {
                return Ok(best.clone());
            }
            // Distinguish "the search ran out of room" from "the target
            // genuinely cannot express this": a saturation run cut short by
            // its node cap might have found an equivalent form with a bigger
            // budget, so report the exhausted resource instead of a flat
            // `Unsupported`.
            match result.report.stop_reason {
                egraph::StopReason::NodeLimit => Err(CompileError::ResourceExhausted {
                    phase: Phase::Lowering,
                    limit: ResourceLimit::Nodes(config.improve.isel.node_limit),
                }),
                egraph::StopReason::Saturated | egraph::StopReason::IterLimit => {
                    Err(CompileError::Unsupported(format!("{op} at {ty}")))
                }
            }
        }
    }
}

/// Scores one output program on the held-out test points.
fn describe(target: &Target, expr: FloatExpr, cost: f64, samples: &SampleSet) -> Implementation {
    let (error_bits, accuracy_bits) = crate::accuracy::evaluate_on_test(target, &expr, samples);
    Implementation {
        rendered: expr.render(target),
        expr,
        cost,
        error_bits,
        accuracy_bits,
    }
}

/// A compilation session: one configuration (and RNG seed) plus a cache of
/// prepared benchmarks.
///
/// ```no_run
/// use chassis::{Config, Session};
/// use fpcore::parse_fpcore;
/// use targets::builtin;
///
/// let core = parse_fpcore("(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))").unwrap();
/// let session = Session::new(Config::default());
/// let prepared = session.prepare(&core).unwrap(); // samples + ground truth, once
/// for name in ["c99", "avx", "fdlibm"] {
///     let target = builtin::by_name(name).unwrap();
///     let result = prepared.compile(&target).unwrap(); // search only
///     println!("{name}: {} implementations", result.implementations.len());
/// }
/// ```
pub struct Session {
    config: Config,
    /// Prepared state per benchmark, keyed by the rendered FPCore (two
    /// textually identical benchmarks share one preparation).
    cache: Mutex<HashMap<String, Prepared>>,
    /// How many preparations actually ran (cache misses). Cache hits do not
    /// count — this is the number the "prepare once per benchmark" guarantee
    /// is stated (and tested) in terms of.
    prepares: AtomicUsize,
    /// Each target's rule sets, shared with every preparation.
    rules: Arc<RulesCache>,
}

impl Session {
    /// A session with the given configuration.
    pub fn new(config: Config) -> Session {
        Session {
            config,
            cache: Mutex::new(HashMap::new()),
            prepares: AtomicUsize::new(0),
            rules: Arc::default(),
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The RNG seed all sampling in this session derives from.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// Runs the target-independent phases for one benchmark — argument-type
    /// analysis, input sampling, Rival ground truth — or returns the cached
    /// preparation if this session has seen the benchmark before.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Sampling`] when no valid inputs exist. Failed
    /// preparations are not cached; a retry samples again.
    pub fn prepare(&self, core: &FPCore) -> Result<Prepared, CompileError> {
        let key = core.to_string();
        // A poisoned cache lock means some prepare panicked *between* map
        // operations; the map itself is never left mid-edit, so recovering
        // the guard is sound (see docs/RESILIENCE.md).
        if let Some(hit) = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&key)
        {
            return Ok(hit.clone());
        }
        // The lock is not held while sampling: preparing different benchmarks
        // in parallel is the point of `compile_many`. Two racing prepares of
        // the *same* benchmark both run, but produce identical state (same
        // seed), so either may win the final insert.
        self.prepares.fetch_add(1, Ordering::Relaxed);
        let samples = Sampler::new(self.config.seed).sample(
            core,
            self.config.train_points,
            self.config.test_points,
        )?;
        let truths = GroundTruthCache::for_training(&samples);
        let prepared = Prepared {
            inner: Arc::new(PreparedInner {
                core: core.clone(),
                config: self.config.clone(),
                var_types: variable_types(core),
                samples,
                truths,
                rules: Arc::clone(&self.rules),
            }),
        };
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(key, prepared.clone());
        Ok(prepared)
    }

    /// How many preparations this session has actually run (cache misses).
    ///
    /// After `compile_many` over N distinct benchmarks this is exactly N, no
    /// matter how many targets were compiled.
    pub fn prepare_count(&self) -> usize {
        self.prepares.load(Ordering::Relaxed)
    }

    /// Convenience: prepare (or fetch the cached preparation) and compile for
    /// one target.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from either phase.
    pub fn compile(
        &self,
        core: &FPCore,
        target: &Target,
    ) -> Result<CompilationResult, CompileError> {
        self.prepare(core)?.compile(target)
    }

    /// Compiles every benchmark for every target, preparing each benchmark
    /// exactly once, with default controls. See [`Session::compile_many_with`].
    pub fn compile_many(
        &self,
        cores: &[FPCore],
        targets: &[Target],
    ) -> Vec<Vec<Result<CompilationResult, CompileError>>> {
        self.compile_many_with(cores, targets, &SearchControl::default())
    }

    /// Compiles every benchmark for every target: the corpus entry point.
    ///
    /// Benchmarks are first prepared in parallel (once each — sampling and
    /// ground truth never run per target), then the `(benchmark × target)`
    /// compile jobs fan out over [`chassis::par`](crate::par) with the
    /// prepared state shared per benchmark. `ctl` applies to every job:
    /// the budget bounds each compile individually, and progress events from
    /// concurrent jobs interleave on the observer.
    ///
    /// Returns one row per benchmark (in input order), each with one result
    /// per target (in input order). A benchmark whose preparation failed
    /// yields its sampling error in every column.
    ///
    /// Every job — preparation and compilation alike — runs under a panic
    /// boundary: a panic in one job becomes [`CompileError::Internal`] in
    /// that job's cells while the rest of the corpus completes. Each failed
    /// cell additionally reports a [`Progress::JobFailed`] event to the
    /// observer, and [`SearchStats::aggregate`] sums the grid into a
    /// corpus-wide summary.
    pub fn compile_many_with(
        &self,
        cores: &[FPCore],
        targets: &[Target],
        ctl: &SearchControl,
    ) -> Vec<Vec<Result<CompilationResult, CompileError>>> {
        // Phase 1: target-independent preparation, parallel across benchmarks.
        let prepared: Vec<Result<Prepared, CompileError>> =
            par::par_map(cores, |core| catch_job(|| self.prepare(core)));

        // Phase 2: fan (benchmark, target) jobs out over the worker pool; the
        // Arc-shared prepared state costs nothing to hand to each job.
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        for (b, prep) in prepared.iter().enumerate() {
            if prep.is_ok() {
                for t in 0..targets.len() {
                    jobs.push((b, t));
                }
            }
        }
        let outcomes = par::par_map(&jobs, |&(b, t)| {
            catch_job(|| match prepared[b].as_ref() {
                Ok(prep) => prep.compile_with(&targets[t], ctl),
                // Unreachable: only prepared benchmarks are scheduled.
                Err(e) => Err(e.clone()),
            })
        });

        // Reassemble rows in (benchmark, target) order.
        let mut outcomes = outcomes.into_iter();
        let grid: Vec<Vec<Result<CompilationResult, CompileError>>> = prepared
            .into_iter()
            .map(|prep| match prep {
                Ok(_) => (0..targets.len())
                    .map(|_| {
                        outcomes.next().unwrap_or_else(|| {
                            // Unreachable: par_map returns one outcome per job.
                            Err(CompileError::Internal(JobPanic::new(
                                "corpus fan-out lost a job outcome",
                            )))
                        })
                    })
                    .collect(),
                Err(e) => targets.iter().map(|_| Err(e.clone())).collect(),
            })
            .collect();

        // Report each failed cell to the observer, after the fan-out so the
        // events arrive in deterministic (benchmark, target) order.
        if let Some(observer) = ctl.progress {
            for (b, row) in grid.iter().enumerate() {
                for (t, cell) in row.iter().enumerate() {
                    if let Err(e) = cell {
                        observer(&Progress::JobFailed {
                            benchmark: b,
                            target: t,
                            kind: e.kind(),
                        });
                    }
                }
            }
        }
        grid
    }
}

/// Runs one corpus job behind a panic boundary: an unwind becomes
/// [`CompileError::Internal`] carrying the panic payload's message, so one
/// crashing job cannot take down a corpus run.
fn catch_job<R>(job: impl FnOnce() -> Result<R, CompileError>) -> Result<R, CompileError> {
    // AssertUnwindSafe: on a panic the job's partial state is discarded
    // wholesale and the shared caches recover from lock poisoning (see
    // `GroundTruthCache` and `Session::prepare`), so no broken invariant
    // outlives the catch.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
        Ok(outcome) => outcome,
        Err(payload) => Err(CompileError::Internal(JobPanic::from_payload(
            payload.as_ref(),
        ))),
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("prepared", &self.prepare_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use fpcore::parse_fpcore;
    use std::sync::Barrier;
    use targets::{builtin, Operator};

    fn cancellation() -> FPCore {
        parse_fpcore("(FPCore (x) :pre (and (> x 1) (< x 1e14)) (- (sqrt (+ x 1)) (sqrt x)))")
            .unwrap()
    }

    #[test]
    fn overlapping_compiles_split_the_truth_work_between_them() {
        // Two targets of one preparation, compiled on two threads released
        // together, share one ground-truth cache and race for its entries.
        // Each request must count in exactly one result.
        let prepared = Session::new(Config::fast())
            .prepare(&cancellation())
            .unwrap();
        let targets = ["c99", "arith-fma"].map(|name| builtin::by_name(name).unwrap());
        let barrier = Barrier::new(targets.len());
        let results: Vec<CompilationResult> = std::thread::scope(|scope| {
            let jobs: Vec<_> = targets
                .iter()
                .map(|target| {
                    let (prepared, barrier) = (&prepared, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        prepared.compile(target).unwrap()
                    })
                })
                .collect();
            jobs.into_iter().map(|job| job.join().unwrap()).collect()
        });
        let summed = results[0].stats.truths.merged(&results[1].stats.truths);
        let totals = prepared.inner.truths.truth_stats();
        assert!(totals.misses > 0, "the compiles ran no ground truth");
        assert_eq!(summed, totals);
    }

    #[test]
    fn compiles_of_one_target_share_one_rule_set() {
        let session = Session::new(Config::fast());
        let first = session.prepare(&cancellation()).unwrap();
        let second = session
            .prepare(&parse_fpcore("(FPCore (x) :pre (and (> x 0) (< x 1)) (* x x))").unwrap())
            .unwrap();
        let target = builtin::by_name("c99").unwrap();
        first.compile(&target).unwrap();
        second.compile(&target).unwrap();
        // The compiles left one rule set in the session's cache, and both
        // preparations hand out that one.
        assert_eq!(session.rules.0.lock().unwrap().len(), 1);
        let rules = |prepared: &Prepared| prepared.inner.rules.get(&target).unwrap();
        assert!(Arc::ptr_eq(&rules(&first), &rules(&second)));
    }

    #[test]
    fn a_target_wider_than_an_e_node_is_unsupported_not_a_panic() {
        let mut target = builtin::by_name("arith").unwrap();
        target.add_operator(Operator::emulated(
            "sum4.f64",
            &[FpType::Binary64; 4],
            FpType::Binary64,
            "(+ (+ a0 a1) (+ a2 a3))",
            3.0,
        ));
        let violations = targets::analysis::verify_target(&target);
        assert!(
            violations.iter().any(|v| v.rule == "op-arity"),
            "{violations:?}"
        );
        let session = Session::new(Config::fast());
        let core = cancellation();
        let unsupported = |outcome: &Result<CompilationResult, CompileError>| match outcome {
            Err(CompileError::Unsupported(what)) => what.contains("sum4.f64"),
            _ => false,
        };
        assert!(unsupported(&session.compile(&core, &target)));
        let grid = session.compile_many(&[core], &[target]);
        assert!(unsupported(&grid[0][0]), "{:?}", grid[0][0].as_ref().err());
    }
}
