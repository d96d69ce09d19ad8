//! Input sampling (shared with Herbie; paper Section 2).
//!
//! Chassis samples training and test points from the expression's input domain:
//! values are drawn uniformly over the representable floats (plus a share of
//! moderate-magnitude values), filtered by the FPCore precondition, and kept only
//! when the ground-truth evaluator can produce a finite correctly rounded result
//! (points whose true value is NaN or undecidable are discarded, as in Herbie).

// On the `compile_many` call path: sampling failures are typed
// `SampleError`s and poisoned cache locks recover (docs/RESILIENCE.md).
#![deny(clippy::unwrap_used, clippy::expect_used)]
use crate::par;
use crate::rng::Rng;
use fpcore::{Constant, Expr, FPCore, FpType, RealOp, Symbol};
use rival::{Evaluator, GroundTruth, Memo};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use targets::Columns;

/// A set of sampled points with their ground-truth results.
///
/// Points are stored columnar ([`Columns`]): one contiguous `f64` column per
/// variable, the layout the block evaluator consumes directly — the sampled
/// batch is transposed once here and never re-shaped (or re-allocated
/// per point) by any downstream consumer.
#[derive(Clone, PartialEq, Debug)]
pub struct SampleSet {
    /// Variable order used by the point columns.
    pub vars: Vec<Symbol>,
    /// Output representation used for ground truth.
    pub output_type: FpType,
    /// Training points (used to guide the search), one column per variable.
    pub train: Columns,
    /// Correctly rounded value of the input expression at each training point.
    pub train_truth: Vec<f64>,
    /// Held-out test points (used for reporting), one column per variable.
    pub test: Columns,
    /// Correctly rounded value at each test point.
    pub test_truth: Vec<f64>,
}

impl SampleSet {
    /// Number of training points.
    pub fn train_len(&self) -> usize {
        self.train.len()
    }

    /// Number of test points.
    pub fn test_len(&self) -> usize {
        self.test.len()
    }
}

/// Why sampling failed.
///
/// The variants classify *why* the domain yielded too few points, so callers
/// can distinguish a benchmark whose precondition admits nothing
/// ([`EmptyDomain`](SampleError::EmptyDomain)) from one whose ground truth
/// never converges ([`GroundTruth`](SampleError::GroundTruth)) from plain
/// scarcity ([`NotEnoughPoints`](SampleError::NotEnoughPoints)).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SampleError {
    /// Too few valid points were found (precondition too tight, or the expression
    /// is NaN almost everywhere).
    NotEnoughPoints {
        /// How many valid points were found.
        found: usize,
        /// How many were requested.
        requested: usize,
    },
    /// Not a single candidate satisfied the precondition: the domain is empty
    /// (or a measure-zero point set, e.g. `:pre (== x 1)`).
    EmptyDomain {
        /// How many candidate points were tried.
        attempts: usize,
    },
    /// Points satisfied the precondition, but the dominant failure was
    /// Rival's precision ladder topping out undecided.
    GroundTruth(rival::TruthError),
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::NotEnoughPoints { found, requested } => write!(
                f,
                "could not sample enough valid points ({found} of {requested})"
            ),
            SampleError::EmptyDomain { attempts } => write!(
                f,
                "no candidate point satisfied the precondition ({attempts} attempts)"
            ),
            SampleError::GroundTruth(e) => write!(f, "ground truth failed while sampling: {e}"),
        }
    }
}

impl std::error::Error for SampleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SampleError::GroundTruth(e) => Some(e),
            SampleError::NotEnoughPoints { .. } | SampleError::EmptyDomain { .. } => None,
        }
    }
}

/// What became of one sampling attempt (see [`Sampler::attempt`]).
enum Attempt {
    /// The point satisfied the precondition and ground-truthed to a finite
    /// value.
    Accepted(Vec<f64>, f64),
    /// The precondition rejected the point (or could not be decided).
    PreFailed,
    /// The true result is NaN or infinite — a discarded point, as in Herbie.
    Invalid,
    /// The precision ladder topped out without deciding the rounding.
    NonConverged,
}

/// Extracts per-variable domains from an FPCore precondition — a conjunction
/// of binary comparisons between a variable and a constant, the shape the
/// benchmark corpus uses — as `[(symbol, (lo, hi))]`. Anything else is
/// ignored (the variable keeps no domain), which is always sound.
/// Contradictory bounds are dropped: a domain that never samples supports no
/// claim.
///
/// Each range is a closed superset of the variable's `f64` values that
/// satisfy the precondition: no `f64` lies between a literal and the bound
/// it becomes, so an `f64` outside the range falsifies one top-level
/// conjunct over the reals. The sampler relies on this to reject such points
/// without asking Rival.
fn domains_from_pre(pre: Option<&Expr>) -> Vec<(Symbol, (f64, f64))> {
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

/// One closed range per argument of `core`, from the top-level conjuncts of
/// its `:pre` (unbounded where the precondition gives none).
fn pre_ranges(core: &FPCore) -> Vec<(f64, f64)> {
    let vars = core.arg_names();
    let mut ranges = vec![(f64::NEG_INFINITY, f64::INFINITY); vars.len()];
    for (sym, range) in domains_from_pre(core.pre.as_ref()) {
        // Rival binds a repeated argument name to its last occurrence.
        if let Some(i) = vars.iter().rposition(|v| *v == sym) {
            ranges[i] = range;
        }
    }
    ranges
}

/// Whether every coordinate of `point` lies in its closed range.
fn within(point: &[f64], ranges: &[(f64, f64)]) -> bool {
    point
        .iter()
        .zip(ranges)
        .all(|(&v, &(lo, hi))| lo <= v && v <= hi)
}

/// Samples valid input points for an FPCore benchmark.
///
/// Each candidate attempt draws from its own RNG stream derived from
/// `(seed, attempt index)`, so the accepted point set depends only on the seed —
/// not on how attempts are batched across worker threads.
#[derive(Clone, Debug)]
pub struct Sampler {
    seed: u64,
    /// First unused attempt stream; advanced by every `sample` call so repeated
    /// calls on one sampler draw fresh points (matching the pre-parallel
    /// behavior where the RNG advanced between calls).
    next_stream: u64,
    evaluator: Evaluator,
}

impl Sampler {
    /// A sampler with the given RNG seed (results are deterministic per seed).
    pub fn new(seed: u64) -> Sampler {
        Sampler {
            seed,
            next_stream: 0,
            evaluator: Evaluator::with_precisions(vec![96, 192, 384, 768]),
        }
    }

    /// Draws one candidate value for a variable: a quarter of the time a uniformly
    /// random finite float (Herbie-style "sample the representation"), otherwise a
    /// moderate-magnitude value where most benchmark preconditions are satisfied
    /// (benchmark domains are overwhelmingly positive and within a few orders of
    /// magnitude of 1, so biasing the proposal distribution there keeps rejection
    /// sampling cheap without changing which points are *accepted*). A draw
    /// outside the precondition's variable ranges is still rejected — by
    /// `f64` comparisons rather than by Rival (see [`Sampler::sample`]).
    fn draw(rng: &mut Rng, ty: FpType) -> f64 {
        let value = match rng.below(4) {
            0 => loop {
                // Uniform over bit patterns, rejecting NaN and infinity.
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    break v;
                }
            },
            1 => rng.range_f64(-1e3, 1e3),
            _ => {
                // Log-uniform magnitude in [1e-6, 1e6), mostly positive.
                let exp = rng.range_f64(-6.0, 6.0);
                let sign = if rng.next_f64() < 0.75 { 1.0 } else { -1.0 };
                sign * 10f64.powf(exp)
            }
        };
        match ty {
            FpType::Binary32 => value as f32 as f64,
            _ => value,
        }
    }

    /// Draws, filters, and ground-truths one attempt from its own RNG stream.
    ///
    /// A point outside `ranges` (one closed range per variable, see
    /// [`Sampler::sample`]) is rejected in `f64` before Rival sees it; Rival
    /// decides the precondition for every point inside.
    fn attempt(
        &self,
        core: &FPCore,
        vars: &[Symbol],
        types: &[FpType],
        ranges: &[(f64, f64)],
        index: u64,
    ) -> Attempt {
        let mut rng = Rng::for_stream(self.seed, index);
        let point: Vec<f64> = types.iter().map(|ty| Self::draw(&mut rng, *ty)).collect();
        if !within(&point, ranges) {
            return Attempt::PreFailed;
        }
        let env: Vec<(Symbol, f64)> = vars.iter().copied().zip(point.iter().copied()).collect();
        if let Some(pre) = &core.pre {
            match self.evaluator.eval_bool(pre, &env) {
                Some(true) => {}
                _ => return Attempt::PreFailed,
            }
        }
        match self.evaluator.eval(&core.body, &env, core.precision) {
            GroundTruth::Value(v) if v.is_finite() => Attempt::Accepted(point, v),
            GroundTruth::Value(_) | GroundTruth::Nan => Attempt::Invalid,
            GroundTruth::Unsamplable => Attempt::NonConverged,
        }
    }

    /// Samples `train + test` valid points for `core`.
    ///
    /// Attempts are evaluated in parallel batches (ground-truthing a candidate
    /// point is the expensive step), then accepted in attempt order until the
    /// request is filled, which keeps the result independent of thread count.
    ///
    /// Before Rival decides the precondition, an attempt with a variable
    /// outside its closed range from `domains_from_pre` is rejected with
    /// `f64` comparisons. This never changes the outcome: the range
    /// bounds are literals rounded outward, so such a point falsifies a
    /// top-level conjunct of the `:pre` over the reals, and Rival could never
    /// have answered `Some(true)` for it. The accepted points and truths, the
    /// attempt count, and every [`SampleError`] are those of asking Rival
    /// about every attempt; only the cost of the rejections changes.
    ///
    /// # Errors
    ///
    /// Returns [`SampleError::NotEnoughPoints`] when fewer than a quarter of the
    /// requested points could be found within the attempt budget.
    pub fn sample(
        &mut self,
        core: &FPCore,
        train: usize,
        test: usize,
    ) -> Result<SampleSet, SampleError> {
        self.sample_within(core, train, test, &pre_ranges(core))
    }

    /// [`Sampler::sample`] with the per-variable pre-filter ranges given.
    fn sample_within(
        &mut self,
        core: &FPCore,
        train: usize,
        test: usize,
        ranges: &[(f64, f64)],
    ) -> Result<SampleSet, SampleError> {
        let vars = core.arg_names();
        let types: Vec<FpType> = core.args.iter().map(|(_, t)| *t).collect();
        let requested = train + test;
        let mut points: Vec<Vec<f64>> = Vec::with_capacity(requested);
        let mut truths: Vec<f64> = Vec::with_capacity(requested);
        let max_attempts = requested * 400 + 2_000;
        // Ground-truthing a candidate is the expensive step, so overshoot is
        // waste: start a little above the request (acceptance is often high)
        // and resize each batch from the observed acceptance rate. Because
        // candidates are accepted in attempt order, batching cannot change
        // *which* points are accepted — only how many attempts are evaluated.
        let mut batch_size = (requested + requested / 2).clamp(8, 1024);
        let base_stream = self.next_stream;
        let mut attempts = 0usize;
        let mut pre_passed = 0usize;
        let mut non_converged = 0usize;
        while points.len() < requested && attempts < max_attempts {
            // Chaos harness: an armed abort ends the attempt budget early —
            // the shortfall (if any) surfaces as a typed `SampleError` below.
            if fault::point("sample.points") {
                break;
            }
            let batch = batch_size.min(max_attempts - attempts);
            let candidates = par::par_map_range(batch, |i| {
                self.attempt(
                    core,
                    &vars,
                    &types,
                    ranges,
                    base_stream + (attempts + i) as u64,
                )
            });
            for outcome in candidates {
                match outcome {
                    Attempt::Accepted(point, truth) => {
                        pre_passed += 1;
                        if points.len() < requested {
                            points.push(point);
                            truths.push(truth);
                        }
                    }
                    Attempt::Invalid => pre_passed += 1,
                    Attempt::NonConverged => {
                        pre_passed += 1;
                        non_converged += 1;
                    }
                    Attempt::PreFailed => {}
                }
            }
            attempts += batch;
            let remaining = requested - points.len();
            if remaining > 0 {
                let rate = points.len() as f64 / attempts as f64;
                batch_size = if rate > 0.0 {
                    ((remaining as f64 / rate) * 1.25).ceil() as usize
                } else {
                    batch_size.saturating_mul(2)
                }
                .clamp(8, 1024);
            }
        }
        self.next_stream = base_stream + attempts as u64;
        if points.len() < (requested / 4).max(2) {
            // Classify the shortfall: an empty domain (nothing ever passed
            // the precondition), dominant ground-truth non-convergence, or
            // plain scarcity.
            if pre_passed == 0 {
                return Err(SampleError::EmptyDomain { attempts });
            }
            if non_converged > points.len() && non_converged * 2 >= pre_passed {
                let max_precision = self.evaluator.precisions().last().copied().unwrap_or(0);
                return Err(SampleError::GroundTruth(rival::TruthError::NonConverged {
                    points: non_converged,
                    max_precision,
                }));
            }
            return Err(SampleError::NotEnoughPoints {
                found: points.len(),
                requested,
            });
        }
        // Split into train / test, keeping the requested proportions when
        // short, and transpose the accepted rows into the columnar layout the
        // evaluation pipeline consumes.
        let train_len = ((points.len() * train) / requested).max(1);
        let test_truths = truths.split_off(train_len.min(truths.len()));
        let (train_points, test_points) =
            Columns::from_rows(vars.len(), &points).split_at(train_len);
        Ok(SampleSet {
            vars,
            output_type: core.precision,
            train: train_points,
            train_truth: truths,
            test: test_points,
            test_truth: test_truths,
        })
    }
}

/// Work counters for a [`GroundTruthCache`]: the observable effect of the
/// memo.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TruthStats {
    /// Requests answered from the memo.
    pub hits: usize,
    /// Requests that ran a Rival sweep.
    pub misses: usize,
    /// Interval node evaluations the sweeps performed: each is one entry of
    /// the cache's subexpression memo (a real subexpression at one point
    /// and precision rung), computed once. An entry a sweep found in the
    /// memo is not an evaluation, so this is the same at every thread count.
    pub node_evals: u64,
    /// Wall-clock spent inside Rival sweeps (summed across concurrent
    /// sweeps, so this can exceed elapsed time on multi-core).
    pub eval_time: Duration,
}

impl TruthStats {
    /// Sums this and another stats record field-wise (used for corpus-wide
    /// aggregation).
    #[must_use]
    pub fn merged(&self, other: &TruthStats) -> TruthStats {
        TruthStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            node_evals: self.node_evals + other.node_evals,
            eval_time: self.eval_time + other.eval_time,
        }
    }
}

/// A memo of Rival ground truths over **one fixed point set**, keyed by
/// `(real expression, output type)`.
///
/// The local-error heuristic ground-truths the same real subexpressions for
/// every candidate of every improve iteration — and, under a
/// [`Session`](crate::session::Session), for every *target* compiled from one
/// preparation (the desugared subexpressions of different targets largely
/// coincide as real expressions). Ground truth is target-independent, so one
/// cache per prepared benchmark serves them all; entries are computed in
/// parallel on first request and shared (`Arc`) afterwards.
///
/// The cache owns its point columns: it can only ever be asked about the
/// point set it was built for, so a memoized answer is always the answer the
/// uncached evaluation would have produced — bit for bit.
///
/// A miss runs Rival's precision ladder on the expression at every point,
/// through a second memo: a [`rival::Memo`] of every real subexpression's
/// interval per point and precision rung, shared by every request to the
/// cache. A sweep evaluates a subexpression only where no earlier request
/// (from any target or job using this cache) already has, so a miss on an
/// operator whose arguments were asked about before evaluates the operator
/// alone. Interval values do not depend on what else was evaluated, so
/// neither do the truths. Both memos live and die with the cache.
#[derive(Clone)]
pub struct GroundTruthCache {
    inner: Arc<GroundTruthCacheInner>,
    /// Where this handle also counts its own requests (see
    /// [`GroundTruthCache::attributed`]); `None` for the cache itself.
    requester: Option<Arc<TruthTally>>,
}

/// Atomic [`TruthStats`]: the counters one cache, or one job's requests to
/// it, accumulate.
#[derive(Default)]
pub(crate) struct TruthTally {
    hits: AtomicUsize,
    misses: AtomicUsize,
    node_evals: AtomicU64,
    eval_nanos: AtomicU64,
}

impl TruthTally {
    /// Counts one request: a hit, or a miss whose sweep made `node_evals`
    /// interval evaluations in `eval_nanos`.
    fn record(&self, miss: Option<(u64, u64)>) {
        match miss {
            Some((node_evals, eval_nanos)) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.node_evals.fetch_add(node_evals, Ordering::Relaxed);
                self.eval_nanos.fetch_add(eval_nanos, Ordering::Relaxed);
            }
            None => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The counters so far.
    pub(crate) fn stats(&self) -> TruthStats {
        TruthStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            node_evals: self.node_evals.load(Ordering::Relaxed),
            eval_time: Duration::from_nanos(self.eval_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// One memo slot: the first requester initializes it; concurrent requesters
/// for the same key block on the `OnceLock` instead of duplicating the sweep.
type TruthCell = Arc<std::sync::OnceLock<Arc<Vec<GroundTruth>>>>;

/// Memo table, keyed by expression first so the (overwhelmingly common) hit
/// path looks up with a borrowed `&Expr` — no AST clone per request.
type TruthMemo = HashMap<Expr, HashMap<FpType, TruthCell>>;

struct GroundTruthCacheInner {
    /// Every subexpression's interval per point and rung, on the same
    /// precision ladder the uncached local-error path used, so cached
    /// results (including which points are `Unsamplable`) are bit-identical.
    nodes: Memo,
    vars: Vec<Symbol>,
    points: Columns,
    memo: Mutex<TruthMemo>,
    /// Every request to the cache, from any handle.
    totals: TruthTally,
}

impl GroundTruthCache {
    /// A cache over an explicit point set.
    pub fn new(vars: Vec<Symbol>, points: Columns) -> GroundTruthCache {
        GroundTruthCache {
            inner: Arc::new(GroundTruthCacheInner {
                nodes: Memo::new(
                    &Evaluator::with_precisions(vec![96, 192, 384]),
                    points.len(),
                ),
                vars,
                points,
                memo: Mutex::new(HashMap::new()),
                totals: TruthTally::default(),
            }),
            requester: None,
        }
    }

    /// A handle on the same memo that also counts each of its requests (and
    /// its clones' requests) into `tally`.
    ///
    /// Each request is counted once, by the handle that made it: a miss and
    /// its sweep's work go to the requester that ran the sweep, and a
    /// request that waited for another requester's sweep is a hit. So when
    /// every request goes through such handles, their tallies sum to the
    /// cache's totals, however the requests overlap in time.
    pub(crate) fn attributed(&self, tally: Arc<TruthTally>) -> GroundTruthCache {
        GroundTruthCache {
            inner: Arc::clone(&self.inner),
            requester: Some(tally),
        }
    }

    /// A cache over the training points of a sample set (what the improve
    /// loop's heuristics evaluate on).
    pub fn for_training(samples: &SampleSet) -> GroundTruthCache {
        GroundTruthCache::new(samples.vars.clone(), samples.train.clone())
    }

    /// The point columns this cache answers for.
    pub fn points(&self) -> &Columns {
        &self.inner.points
    }

    /// Ground truth of `expr` in representation `ty` at every cached point, in
    /// point order. Computed (in parallel) on the first request for this
    /// `(expr, ty)`; shared on every later one. A request that races the first
    /// computation blocks until it is ready rather than repeating the sweep.
    pub fn ground_truths(&self, expr: &Expr, ty: FpType) -> Arc<Vec<GroundTruth>> {
        // Reserve (or find) the slot under the lock — cloning the expression
        // only when inserting a brand-new key — then compute outside it so
        // distinct expressions evaluate concurrently.
        let cell: TruthCell = {
            // A poisoned memo only means some writer panicked (e.g. an
            // injected fault); completed cells are still valid, so recover.
            let mut memo = self
                .inner
                .memo
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            match memo.get(expr).and_then(|per_ty| per_ty.get(&ty)) {
                Some(cell) => Arc::clone(cell),
                None => {
                    let cell = TruthCell::default();
                    memo.entry(expr.clone())
                        .or_default()
                        .insert(ty, Arc::clone(&cell));
                    cell
                }
            }
        };
        let mut miss = None;
        let truths = cell.get_or_init(|| {
            let (truths, work) = self.sweep(expr, ty);
            miss = Some(work);
            Arc::new(truths)
        });
        self.inner.totals.record(miss);
        if let Some(requester) = &self.requester {
            requester.record(miss);
        }
        Arc::clone(truths)
    }

    /// The precision-escalation sweep of `expr` over every cached point,
    /// with the interval node evaluations it made and its wall-clock
    /// nanoseconds.
    fn sweep(&self, expr: &Expr, ty: FpType) -> (Vec<GroundTruth>, (u64, u64)) {
        let inner = &*self.inner;
        let start = std::time::Instant::now();
        let interned = inner.nodes.intern(expr);
        let outcomes = par::par_map_range(inner.points.len(), |i| {
            let env: Vec<(Symbol, f64)> = inner
                .vars
                .iter()
                .enumerate()
                .map(|(v, sym)| (*sym, inner.points.value(i, v)))
                .collect();
            interned.eval_counted(i, &env, ty)
        });
        let evals = outcomes.iter().map(|&(_, evals)| evals).sum();
        #[allow(clippy::cast_possible_truncation)]
        let nanos = start.elapsed().as_nanos() as u64;
        let truths = outcomes.into_iter().map(|(truth, _)| truth).collect();
        (truths, (evals, nanos))
    }

    /// `(hits, misses)` so far — misses are actual Rival evaluations.
    pub fn stats(&self) -> (usize, usize) {
        let stats = self.truth_stats();
        (stats.hits, stats.misses)
    }

    /// Full work counters of every request to the cache, through any
    /// handle, including interval node evaluations and total in-sweep
    /// wall-clock.
    pub fn truth_stats(&self) -> TruthStats {
        self.inner.totals.stats()
    }
}

impl std::fmt::Debug for GroundTruthCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (hits, misses) = self.stats();
        f.debug_struct("GroundTruthCache")
            .field("points", &self.inner.points.len())
            .field("hits", &hits)
            .field("misses", &misses)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use fpcore::parse_fpcore;

    #[test]
    fn ground_truth_cache_memoizes_and_matches_direct_evaluation() {
        let core =
            parse_fpcore("(FPCore (x) :pre (and (> x 0.5) (< x 50)) (sqrt (+ x 1)))").unwrap();
        let samples = Sampler::new(21).sample(&core, 8, 2).unwrap();
        let cache = GroundTruthCache::for_training(&samples);
        let expr = fpcore::parse_expr("(sqrt (+ x 1))").unwrap();
        let first = cache.ground_truths(&expr, FpType::Binary64);
        let again = cache.ground_truths(&expr, FpType::Binary64);
        assert!(Arc::ptr_eq(&first, &again), "second request must be a hit");
        assert_eq!(cache.stats(), (1, 1));
        // The cached values, and the work counted for them, match an
        // independent evaluator with the same precision ladder.
        let evaluator = Evaluator::with_precisions(vec![96, 192, 384]);
        let mut evals = 0;
        for (i, truth) in first.iter().enumerate() {
            let env = vec![(Symbol::new("x"), samples.train.value(i, 0))];
            let (direct, n) = evaluator.eval_counted(&expr, &env, FpType::Binary64);
            assert_eq!(*truth, direct);
            evals += n;
        }
        // Every point evaluates the expression's four nodes at least once.
        assert!(evals >= 4 * samples.train.len() as u64);
        assert_eq!(cache.truth_stats().node_evals, evals);
        // A different output type is a distinct entry.
        let narrow = cache.ground_truths(&expr, FpType::Binary32);
        assert_eq!(narrow.len(), samples.train.len());
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn concurrent_cache_requests_return_identical_results() {
        let core = parse_fpcore("(FPCore (x) :pre (and (> x 0) (< x 100)) (sqrt x))").unwrap();
        let samples = Sampler::new(9).sample(&core, 16, 2).unwrap();
        let cache = GroundTruthCache::for_training(&samples);
        let exprs: Vec<Expr> = [
            "(sqrt x)",
            "(/ x (sqrt x))",
            "(exp (* 0.5 (log x)))",
            "(* (sqrt x) 1)",
        ]
        .iter()
        .map(|s| fpcore::parse_expr(s).unwrap())
        .collect();
        // Hammer the same cache from many threads, every thread asking for
        // every expression; all answers for one expression must be the same
        // Arc (computed once) and equal to a fresh reference cache's.
        let results: Vec<Vec<Arc<Vec<GroundTruth>>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let cache = cache.clone();
                    let exprs = &exprs;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        // Stagger request order per thread.
                        for i in 0..exprs.len() {
                            let e = &exprs[(i + t) % exprs.len()];
                            out.push(cache.ground_truths(e, FpType::Binary64));
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let reference = GroundTruthCache::for_training(&samples);
        for per_thread in &results {
            for truths in per_thread {
                let matching = exprs
                    .iter()
                    .find(|e| *reference.ground_truths(e, FpType::Binary64) == **truths);
                assert!(matching.is_some(), "a concurrent result matched no expr");
            }
        }
        let (hits, misses) = cache.stats();
        assert_eq!(misses, exprs.len(), "each expression swept exactly once");
        assert_eq!(hits + misses, 8 * exprs.len());
    }

    /// Six seeded points for `args`, drawn without regard to any `:pre`.
    fn drawn_points(stream: u64, args: &[(Symbol, FpType)]) -> Columns {
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|point| {
                let mut rng = Rng::for_stream(0x7e57_ed11, stream * 6 + point);
                args.iter()
                    .map(|&(_, ty)| Sampler::draw(&mut rng, ty))
                    .collect()
            })
            .collect();
        Columns::from_rows(args.len(), &rows)
    }

    #[test]
    fn the_subexpression_memo_answers_like_fresh_caches_in_any_order_and_thread_count() {
        let _guard = crate::par::test_lock();
        for (stream, bench) in (0u64..).zip(benchsuite::corpus::all()) {
            let core = bench.fpcore();
            let (vars, ty) = (core.arg_names(), core.precision);
            let points = drawn_points(stream, &core.args);
            let cache = || GroundTruthCache::new(vars.clone(), points.clone());
            let subs = core.body.subexpressions();
            crate::par::set_thread_count(1);
            // Each subexpression on a cache of its own: nothing shared.
            let fresh: Vec<Arc<Vec<GroundTruth>>> = subs
                .iter()
                .map(|sub| cache().ground_truths(sub, ty))
                .collect();
            // One cache asked parents first, one children first...
            let (forward, warmed) = (cache(), cache());
            for (sub, want) in subs.iter().zip(&fresh) {
                assert_eq!(forward.ground_truths(sub, ty), *want, "{}", bench.name);
            }
            for (sub, want) in subs.iter().zip(&fresh).rev() {
                assert_eq!(warmed.ground_truths(sub, ty), *want, "{}", bench.name);
            }
            // ...and one asked from four threads at once, each in its own
            // order, with the sweeps' fan-out on four workers too.
            crate::par::set_thread_count(4);
            let shared = cache();
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let (shared, start, subs, fresh) = (&shared, &start, &subs, &fresh);
                    scope.spawn(move || {
                        start.wait();
                        for k in 0..subs.len() {
                            let i = (k * (2 * t + 1) + t) % subs.len();
                            assert_eq!(shared.ground_truths(subs[i], ty), fresh[i]);
                        }
                    });
                }
            });
            // The same entries were computed, once each, whatever the order
            // and the thread count; and the truth memo's counts match.
            let (warm, many) = (warmed.truth_stats(), shared.truth_stats());
            assert_eq!(
                warm,
                TruthStats {
                    eval_time: warm.eval_time,
                    ..forward.truth_stats()
                }
            );
            assert_eq!(warm.node_evals, many.node_evals, "{}", bench.name);
            assert_eq!(warm.misses, many.misses, "{}", bench.name);
            assert_eq!(4 * (warm.hits + warm.misses), many.hits + many.misses);
            let unshared: u64 = subs
                .iter()
                .map(|sub| {
                    let alone = cache();
                    alone.ground_truths(sub, ty);
                    alone.truth_stats().node_evals
                })
                .sum();
            assert!(warm.node_evals <= unshared, "{}", bench.name);
        }
        crate::par::set_thread_count(0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let core = parse_fpcore("(FPCore (x) (+ x 1))").unwrap();
        let a = Sampler::new(7).sample(&core, 8, 4).unwrap();
        let b = Sampler::new(7).sample(&core, 8, 4).unwrap();
        let c = Sampler::new(8).sample(&core, 8, 4).unwrap();
        assert_eq!(a.train, b.train);
        assert_ne!(a.train, c.train);
        assert_eq!(a.train_len(), 8);
        assert_eq!(a.test_len(), 4);
    }

    #[test]
    fn repeated_sampling_draws_fresh_points() {
        let core = parse_fpcore("(FPCore (x) (+ x 1))").unwrap();
        let mut sampler = Sampler::new(7);
        let a = sampler.sample(&core, 8, 4).unwrap();
        let b = sampler.sample(&core, 8, 4).unwrap();
        assert_ne!(
            a.train, b.train,
            "a reused sampler must not silently repeat its point set"
        );
        // A fresh sampler with the same seed reproduces the first set.
        let c = Sampler::new(7).sample(&core, 8, 4).unwrap();
        assert_eq!(a.train, c.train);
    }

    #[test]
    fn sampling_is_identical_across_thread_counts() {
        let _guard = crate::par::test_lock();
        let core = parse_fpcore("(FPCore (x y) :pre (> x y) (- (sqrt x) (sqrt y)))").unwrap();
        crate::par::set_thread_count(1);
        let serial = Sampler::new(13).sample(&core, 16, 8).unwrap();
        for threads in [2, 5] {
            crate::par::set_thread_count(threads);
            let parallel = Sampler::new(13).sample(&core, 16, 8).unwrap();
            assert_eq!(serial.train, parallel.train, "{threads} threads");
            assert_eq!(
                serial.train_truth, parallel.train_truth,
                "{threads} threads"
            );
            assert_eq!(serial.test, parallel.test, "{threads} threads");
            assert_eq!(serial.test_truth, parallel.test_truth, "{threads} threads");
        }
        crate::par::set_thread_count(0);
    }

    #[test]
    fn preconditions_are_respected() {
        let core = parse_fpcore("(FPCore (x) :pre (and (> x 0) (< x 1)) (sqrt x))").unwrap();
        let set = Sampler::new(1).sample(&core, 12, 4).unwrap();
        for point in set.train.rows().chain(set.test.rows()) {
            assert!(
                point[0] > 0.0 && point[0] < 1.0,
                "point {point:?} violates the precondition"
            );
        }
    }

    #[test]
    fn truths_match_ground_truth() {
        let core = parse_fpcore("(FPCore (x) (* x x))").unwrap();
        let set = Sampler::new(3).sample(&core, 6, 2).unwrap();
        for (point, truth) in set.train.rows().zip(&set.train_truth) {
            // x*x rounded once: ground truth equals the double product here.
            assert_eq!(*truth, point[0] * point[0]);
        }
    }

    #[test]
    fn nan_regions_are_rejected() {
        // sqrt of a negative number is NaN; all sampled points must be >= 0.
        let core = parse_fpcore("(FPCore (x) (sqrt x))").unwrap();
        let set = Sampler::new(11).sample(&core, 10, 2).unwrap();
        for point in set.train.rows().chain(set.test.rows()) {
            assert!(point[0] >= 0.0);
        }
    }

    #[test]
    fn impossible_preconditions_error_out() {
        // `x < x - 1` is decidably false everywhere: every attempt fails the
        // precondition, which the taxonomy reports as an empty domain.
        let core = parse_fpcore("(FPCore (x) :pre (< x (- x 1)) x)").unwrap();
        let mut sampler = Sampler::new(5);
        assert!(matches!(
            sampler.sample(&core, 8, 4),
            Err(SampleError::EmptyDomain { .. })
        ));
    }

    /// A value inside the closed range `[lo, hi]`, away from its ends when
    /// they are finite.
    fn interior((lo, hi): (f64, f64)) -> f64 {
        match (lo.is_finite(), hi.is_finite()) {
            (true, true) => lo / 2.0 + hi / 2.0,
            (true, false) => lo + lo.abs() + 1.0,
            (false, true) => hi - hi.abs() - 1.0,
            (false, false) => 0.0,
        }
    }

    #[test]
    fn range_filter_rejects_only_points_rival_rejects() {
        // The sampler's own ladder: the filter must never reject a point for
        // which this evaluator would have decided the `:pre` true.
        let evaluator = Sampler::new(0).evaluator;
        let (mut with_pre, mut rejected) = (0, 0);
        for bench in benchsuite::corpus::all() {
            let core = bench.fpcore();
            let Some(pre) = &core.pre else { continue };
            with_pre += 1;
            let vars = core.arg_names();
            let ranges = pre_ranges(&core);
            let mut check = |point: Vec<f64>| {
                if within(&point, &ranges) {
                    return;
                }
                rejected += 1;
                let env: Vec<(Symbol, f64)> =
                    vars.iter().copied().zip(point.iter().copied()).collect();
                assert_ne!(
                    evaluator.eval_bool(pre, &env),
                    Some(true),
                    "{}: the filter rejected {point:?}, which satisfies the :pre",
                    bench.name
                );
            };
            // Points from the proposal distribution itself.
            for stream in 0..64 {
                let mut rng = Rng::for_stream(0x5eed, stream);
                check(
                    core.args
                        .iter()
                        .map(|(_, ty)| Sampler::draw(&mut rng, *ty))
                        .collect(),
                );
            }
            // Each finite bound and its ±1/±2-ulp neighbours (also rounded to
            // binary32), with every other variable well inside its range, so
            // the clause on this variable is the one that decides.
            let inside: Vec<f64> = ranges.iter().copied().map(interior).collect();
            for (i, &(lo, hi)) in ranges.iter().enumerate() {
                for bound in [lo, hi].into_iter().filter(|b| b.is_finite()) {
                    let near = [
                        bound.next_down().next_down(),
                        bound.next_down(),
                        bound,
                        bound.next_up(),
                        bound.next_up().next_up(),
                    ];
                    for v in near.into_iter().flat_map(|v| [v, f64::from(v as f32)]) {
                        let mut point = inside.clone();
                        point[i] = v;
                        check(point);
                    }
                }
            }
        }
        assert!(
            with_pre >= 70,
            "only {with_pre} corpus benchmarks have a :pre"
        );
        assert!(rejected > 4000, "only {rejected} points were rejected");
    }

    #[test]
    fn range_filter_leaves_samples_and_errors_unchanged() {
        let config = crate::Config::fast();
        // `pendulum-period` and `doppler-shift` fail sampling after the full
        // attempt budget; `triangle-area-heron` has clauses that are not
        // ranges, which only Rival decides.
        for name in [
            "pendulum-period",
            "triangle-area-heron",
            "sqrt-add-one-minus-sqrt",
            "doppler-shift",
        ] {
            let core = benchsuite::corpus::by_name(name).unwrap().fpcore();
            let unbounded = vec![(f64::NEG_INFINITY, f64::INFINITY); core.args.len()];
            let mut filtered = Sampler::new(config.seed);
            let mut reference = Sampler::new(config.seed);
            // Two calls each: the second starts where the first's attempts
            // ended, so the attempt counts must agree too.
            for _ in 0..2 {
                assert_eq!(
                    filtered.sample(&core, config.train_points, config.test_points),
                    reference.sample_within(
                        &core,
                        config.train_points,
                        config.test_points,
                        &unbounded
                    ),
                    "{name}"
                );
                assert_eq!(filtered.next_stream, reference.next_stream, "{name}");
            }
        }
        // One-sided bounds, a literal on the left, and binary32 points.
        let one_sided = parse_fpcore(
            "(FPCore ((! :precision binary32 x) y) \
             :pre (and (> x 1e-30) (<= 0.5 y)) (/ (sqrt x) y))",
        )
        .unwrap();
        assert_eq!(
            Sampler::new(4).sample(&one_sided, 12, 16),
            Sampler::new(4).sample_within(
                &one_sided,
                12,
                16,
                &[(f64::NEG_INFINITY, f64::INFINITY); 2]
            )
        );
    }

    #[test]
    fn binary32_cores_sample_binary32_values() {
        let core = parse_fpcore("(FPCore ((! :precision binary32 x)) :precision binary32 (+ x 1))")
            .unwrap();
        let set = Sampler::new(2).sample(&core, 6, 2).unwrap();
        for point in set.train.rows() {
            assert_eq!(point[0], point[0] as f32 as f64, "values must be binary32");
        }
        assert_eq!(set.output_type, FpType::Binary32);
    }

    /// `domains_from_pre` bounds must stay outside their literal even when the
    /// literal's numerator or denominator exceeds 2^53, where `Rational::to_f64`
    /// rounds each part before dividing and can land more than an ulp away. The
    /// sampler rejects points outside these ranges without asking Rival, so an
    /// `f64` just outside a bound must falsify its clause; Rival is the oracle.
    #[test]
    fn domains_from_pre_bounds_exclude_their_literals() {
        use fpcore::Rational;
        let evaluator = Evaluator::new();
        let x = Symbol::new("x");
        let mut rng = Rng::new(0x5EED_2053);
        let mut checked = 0;
        while checked < 300 {
            // Parts of 40 to 100 bits, at least one of them above 2^53.
            let mut part = || (u128::from(rng.next_u64()) << (rng.below(61) + 40) >> 64) | 1;
            let (num, den) = (part(), part());
            if num.max(den) <= 1 << 53 {
                continue;
            }
            let sign = if rng.below(2) == 0 { 1 } else { -1 };
            let literal = Expr::Num(Constant::Rational(Rational::new(sign * num as i128, den)));
            for op in [RealOp::Lt, RealOp::Le, RealOp::Gt, RealOp::Ge] {
                for var_first in [true, false] {
                    let args = if var_first {
                        vec![Expr::Var(x), literal.clone()]
                    } else {
                        vec![literal.clone(), Expr::Var(x)]
                    };
                    let clause = Expr::Op(op, args);
                    let domains = domains_from_pre(Some(&clause));
                    let [(sym, (lo, hi))] = domains[..] else {
                        panic!("{clause:?} gives one domain, got {domains:?}");
                    };
                    assert_eq!(sym, x);
                    let outside = if lo.is_finite() {
                        [lo.next_down(), lo.next_down().next_down()]
                    } else {
                        [hi.next_up(), hi.next_up().next_up()]
                    };
                    for v in outside {
                        assert_eq!(
                            evaluator.eval_bool(&clause, &[(x, v)]),
                            Some(false),
                            "{v:e} lies outside [{lo:e}, {hi:e}] but satisfies {clause:?}"
                        );
                    }
                }
            }
            checked += 1;
        }
    }
}
