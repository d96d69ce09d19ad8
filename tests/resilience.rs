//! Integration tests of the fault-isolation and error-taxonomy contract
//! (docs/RESILIENCE.md): adversarial benchmarks fail with *typed* errors,
//! never panics; an injected panic fails exactly one corpus job; and every
//! error renders a Display message and a `source()` chain.
//!
//! Every test here installs a [`fault::FaultPlan`] — an empty one when no
//! fault is needed — because `fault::install` is process-exclusive: holding
//! the guard serializes these tests, so one test's armed faults can never
//! leak into another's unarmed run.

use chassis::{
    CancelToken, CompilationResult, CompileError, Config, ErrorKind, GroundTruthCache, Phase,
    Progress, SampleError, SearchControl, SearchStats, Session,
};
use fpcore::parse_fpcore;
use std::sync::atomic::{AtomicUsize, Ordering};
use targets::builtin;

/// Renders an error's Display plus its whole `source()` chain (what a CLI
/// would print); also guards against cyclic chains.
fn render_chain(top: &dyn std::error::Error) -> String {
    let mut out = top.to_string();
    let mut source = top.source();
    let mut depth = 0;
    while let Some(cause) = source {
        out.push_str(": ");
        out.push_str(&cause.to_string());
        source = cause.source();
        depth += 1;
        assert!(depth <= 8, "cyclic error source chain: {out}");
    }
    out
}

#[test]
fn adversarial_cores_fail_with_typed_errors() {
    let _plan = fault::install(fault::FaultPlan::new());
    let session = Session::new(Config::fast());
    let c99 = builtin::by_name("c99").unwrap();
    let arith = builtin::by_name("arith").unwrap();

    // An everywhere-false precondition: the domain is empty.
    let empty = parse_fpcore("(FPCore (x) :pre (< x (- x 1)) (+ x 1))").unwrap();
    let err = session.compile(&empty, &c99).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Sampling);
    assert!(
        matches!(
            &err,
            CompileError::Sampling(SampleError::EmptyDomain { .. })
        ),
        "empty domain misclassified: {err:?}"
    );
    assert!(render_chain(&err).contains("precondition"));

    // A measure-zero point domain: uniform sampling never hits exactly 1.
    let point = parse_fpcore("(FPCore (x) :pre (== x 1) (+ x 1))").unwrap();
    let err = session.compile(&point, &c99).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Sampling, "point domain: {err:?}");

    // A NaN-only benchmark: sqrt of a value that is negative everywhere.
    // Points sample fine (no precondition) but every ground truth is NaN, so
    // the taxonomy reports scarcity, not an empty domain.
    let nan_only = parse_fpcore("(FPCore (x) (sqrt (- 0 (+ (* x x) 1))))").unwrap();
    let err = session.compile(&nan_only, &c99).unwrap_err();
    assert!(
        matches!(
            &err,
            CompileError::Sampling(SampleError::NotEnoughPoints { found: 0, .. })
        ),
        "NaN-only benchmark misclassified: {err:?}"
    );

    // An operator the target cannot express at all.
    let sine = parse_fpcore("(FPCore (x) (sin x))").unwrap();
    let err = session.compile(&sine, &arith).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Unsupported);
    assert!(render_chain(&err).contains("sin"));
}

#[test]
fn seeded_adversarial_corpus_never_panics() {
    // A property loop over seeded adversarial variants: every outcome must be
    // Ok or a typed CompileError that renders without panicking. The corpus
    // goes through `compile_many`, the path production uses, so a panic
    // anywhere would surface as `ErrorKind::Internal` — which this corpus
    // must never produce.
    let _plan = fault::install(fault::FaultPlan::new());
    let targets = [
        builtin::by_name("c99").unwrap(),
        builtin::by_name("arith").unwrap(),
    ];
    let mut config = Config::fast();
    config.train_points = 6;
    config.test_points = 6;

    for seed in 0..12u64 {
        let k = seed % 4;
        let c = 1 + seed;
        let sources = [
            // Domain shrinking toward (possibly reaching) emptiness.
            format!("(FPCore (x) :pre (and (> x {c}) (< x {c})) (+ x 1))"),
            // NaN almost everywhere, with a seed-dependent island.
            format!("(FPCore (x) (sqrt (- {k} (* x x))))"),
            // Unsupported-on-arith operators nested under arithmetic.
            format!("(FPCore (x) (+ (sin (* x {c})) (cos x)))"),
            // A well-behaved control case that must succeed on c99.
            format!(
                "(FPCore (x) :pre (and (> x 0.5) (< x {})) (sqrt (+ x {k})))",
                10 + c
            ),
        ];
        let cores: Vec<fpcore::FPCore> = sources
            .iter()
            .map(|s| parse_fpcore(s).unwrap_or_else(|e| panic!("{s}: {e}")))
            .collect();

        let session = Session::new(config.clone().with_seed(seed));
        let grid = session.compile_many(&cores, &targets);
        for (b, row) in grid.iter().enumerate() {
            for (t, cell) in row.iter().enumerate() {
                if let Err(e) = cell {
                    assert_ne!(
                        e.kind(),
                        ErrorKind::Internal,
                        "seed {seed}, benchmark {b}, target {t} panicked: {}",
                        render_chain(e)
                    );
                    assert!(!render_chain(e).is_empty());
                }
            }
        }
        // The control case stays compilable on c99 at every seed.
        assert!(
            grid[3][0].is_ok(),
            "seed {seed}: control benchmark failed: {:?}",
            grid[3][0].as_ref().err()
        );
    }
}

#[test]
fn forced_non_convergence_is_a_ground_truth_error() {
    // Arm the Rival fault point so every ground-truth evaluation tops out
    // undecided: sampling must classify the failure as `GroundTruth`, and the
    // `CompileError` chain must surface the non-convergence.
    let _plan =
        fault::install(fault::FaultPlan::new().arm("rival.eval", fault::FaultAction::Abort, 0));
    let core = parse_fpcore("(FPCore (x) (+ x 1))").unwrap();
    let err = chassis::Sampler::new(5)
        .sample(&core, 8, 4)
        .expect_err("no point can converge under the fault");
    assert!(matches!(err, SampleError::GroundTruth(_)), "got {err:?}");
    let compile_err = CompileError::from(err);
    assert!(matches!(
        compile_err,
        CompileError::GroundTruth(rival::TruthError::NonConverged { .. })
    ));
    assert!(render_chain(&compile_err).contains("did not converge"));
}

#[test]
fn a_truth_sweep_that_panics_midway_leaves_later_answers_exact() {
    // Arm Rival's fault point to panic from the fourth (expression, point)
    // request on, in the middle of a sweep over eight points, and catch the
    // panic. The points before it filled entries of the cache's subexpression
    // memo; the request that panicked filled none. Disarmed, the same cache
    // must answer every expression, the interrupted one included, exactly as
    // a fresh cache does.
    let x = fpcore::Symbol::new("x");
    let rows: Vec<Vec<f64>> = (1..=8).map(|i| vec![0.37 * f64::from(i)]).collect();
    let points = targets::Columns::from_rows(1, &rows);
    let cache = GroundTruthCache::new(vec![x], points.clone());
    let exprs: Vec<fpcore::Expr> = [
        "(- (sqrt (+ x 1)) (sqrt x))",
        "(sqrt (+ x 1))",
        "(+ x 1)",
        "(/ (exp x) (sqrt x))",
    ]
    .iter()
    .map(|src| fpcore::parse_expr(src).unwrap())
    .collect();
    {
        let _plan =
            fault::install(fault::FaultPlan::new().arm("rival.eval", fault::FaultAction::Panic, 3));
        let sweep = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.ground_truths(&exprs[0], fpcore::FpType::Binary64)
        }));
        assert!(sweep.is_err(), "the armed panic fires mid-sweep");
    }
    let _plan = fault::install(fault::FaultPlan::new());
    for expr in &exprs {
        let fresh = GroundTruthCache::new(vec![x], points.clone());
        assert_eq!(
            cache.ground_truths(expr, fpcore::FpType::Binary64),
            fresh.ground_truths(expr, fpcore::FpType::Binary64),
            "{expr:?}"
        );
    }
    // The interrupted request answered nothing, so its expression missed
    // again.
    assert_eq!(cache.stats(), (0, exprs.len()));
}

#[test]
fn cancellation_fired_at_any_phase_degrades_and_never_panics() {
    // Fire the cancel token from inside the search at each cut point in
    // turn: before anything ran, on the first improve iteration, at the
    // regimes boundary, and at final evaluation. Every outcome must be an
    // Ok initial-containing frontier with exactly one JobCancelled event —
    // cancellation is budget exhaustion, never an error path.
    let _plan = fault::install(fault::FaultPlan::new());
    let core =
        parse_fpcore("(FPCore (x) :pre (and (> x 1) (< x 1e14)) (- (sqrt (+ x 1)) (sqrt x)))")
            .unwrap();
    let target = builtin::by_name("c99").unwrap();
    let session = Session::new(Config::fast());
    let prepared = session.prepare(&core).unwrap();

    #[derive(Clone, Copy, Debug)]
    enum FireAt {
        Immediately,
        FirstImproveIteration,
        RegimesStart,
        FinalEvaluationStart,
    }
    for fire_at in [
        FireAt::Immediately,
        FireAt::FirstImproveIteration,
        FireAt::RegimesStart,
        FireAt::FinalEvaluationStart,
    ] {
        let token = CancelToken::new();
        if matches!(fire_at, FireAt::Immediately) {
            token.cancel();
        }
        let cancelled_events = AtomicUsize::new(0);
        let observer = |event: &Progress| {
            match (fire_at, event) {
                (FireAt::FirstImproveIteration, Progress::ImproveIteration { .. })
                | (
                    FireAt::RegimesStart,
                    Progress::PhaseStarted {
                        phase: Phase::Regimes,
                    },
                )
                | (
                    FireAt::FinalEvaluationStart,
                    Progress::PhaseStarted {
                        phase: Phase::FinalEvaluation,
                    },
                ) => token.cancel(),
                _ => {}
            }
            if matches!(event, Progress::JobCancelled) {
                cancelled_events.fetch_add(1, Ordering::Relaxed);
            }
        };
        let ctl = SearchControl::new()
            .with_cancel(&token)
            .with_progress(&observer);
        let result = prepared
            .compile_with(&target, &ctl)
            .unwrap_or_else(|e| panic!("{fire_at:?}: cancellation must not error: {e}"));
        assert!(
            result
                .implementations
                .iter()
                .any(|imp| imp.rendered == result.initial.rendered),
            "{fire_at:?}: the initial program must survive cancellation"
        );
        assert_eq!(
            cancelled_events.load(Ordering::Relaxed),
            1,
            "{fire_at:?}: exactly one JobCancelled per cancelled compile"
        );
        // Cancellation at final evaluation collapses the frontier to the
        // initial program (the cut point before per-candidate test scoring).
        if matches!(fire_at, FireAt::FinalEvaluationStart | FireAt::Immediately) {
            assert_eq!(result.implementations.len(), 1, "{fire_at:?}");
        }
    }
}

#[test]
fn corpus_compilation_under_a_fired_token_degrades_every_cell() {
    // The corpus path: a token cancelled before `compile_many_with` starts
    // degrades every grid cell to its initial-containing frontier — no
    // errors, no panics, and one JobCancelled per cell.
    let _plan = fault::install(fault::FaultPlan::new());
    let cores = [
        parse_fpcore("(FPCore (x) :pre (and (> x 1) (< x 1e6)) (- (sqrt (+ x 1)) (sqrt x)))")
            .unwrap(),
        parse_fpcore("(FPCore (x) :pre (and (> x 0.5) (< x 50)) (sqrt (+ x 1)))").unwrap(),
    ];
    let targets = [
        builtin::by_name("c99").unwrap(),
        builtin::by_name("arith-fma").unwrap(),
    ];
    let token = CancelToken::new();
    token.cancel();
    let cancelled_events = AtomicUsize::new(0);
    let observer = |event: &Progress| {
        if matches!(event, Progress::JobCancelled) {
            cancelled_events.fetch_add(1, Ordering::Relaxed);
        }
    };
    let ctl = SearchControl::new()
        .with_cancel(&token)
        .with_progress(&observer);
    let session = Session::new(Config::fast());
    let grid = session.compile_many_with(&cores, &targets, &ctl);
    for row in &grid {
        for cell in row {
            let result = cell.as_ref().expect("cancelled cells still compile");
            assert!(result
                .implementations
                .iter()
                .any(|imp| imp.rendered == result.initial.rendered));
        }
    }
    assert_eq!(cancelled_events.load(Ordering::Relaxed), 4);
}

#[test]
fn panic_in_one_job_fails_only_that_job() {
    // Arm the per-job fault point to panic from the third compile job on:
    // with 2 benchmarks x 2 targets, exactly two jobs complete and two become
    // `CompileError::Internal` — the corpus run itself survives, reports one
    // `JobFailed` event per lost cell, and the aggregate counts them.
    let _plan = fault::install(fault::FaultPlan::new().arm(
        "session.compile",
        fault::FaultAction::Panic,
        2,
    ));
    let cores = [
        parse_fpcore("(FPCore (x) :pre (and (> x 1) (< x 1e6)) (- (sqrt (+ x 1)) (sqrt x)))")
            .unwrap(),
        parse_fpcore("(FPCore (x) :pre (and (> x 0.5) (< x 50)) (sqrt (+ x 1)))").unwrap(),
    ];
    let targets = [
        builtin::by_name("c99").unwrap(),
        builtin::by_name("arith-fma").unwrap(),
    ];
    let failed_events = AtomicUsize::new(0);
    let observer = |event: &Progress| {
        if let Progress::JobFailed { kind, .. } = event {
            assert_eq!(*kind, ErrorKind::Internal);
            failed_events.fetch_add(1, Ordering::Relaxed);
        }
    };
    let ctl = SearchControl::new().with_progress(&observer);

    let session = Session::new(Config::fast());
    let grid = session.compile_many_with(&cores, &targets, &ctl);

    let mut ok = 0;
    let mut internal = 0;
    for cell in grid.iter().flatten() {
        match cell {
            Ok(_) => ok += 1,
            Err(e @ CompileError::Internal(panic)) => {
                internal += 1;
                assert!(
                    panic.message().contains("injected fault"),
                    "payload lost: {panic:?}"
                );
                assert!(render_chain(e).contains("session.compile"));
            }
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
    }
    assert_eq!((ok, internal), (2, 2), "exactly two jobs must survive");
    assert_eq!(failed_events.load(Ordering::Relaxed), 2);
    let aggregate = SearchStats::aggregate(&grid);
    assert_eq!(aggregate.jobs_failed, 2);
    assert!(
        aggregate.candidates_scored > 0,
        "the surviving jobs did work"
    );
}

/// One line per grid cell: every frontier program with its cost and error
/// bit patterns, or the error kind.
fn grid_lines(grid: &[Vec<Result<CompilationResult, CompileError>>]) -> Vec<String> {
    grid.iter()
        .flatten()
        .map(|cell| match cell {
            Ok(result) => result
                .implementations
                .iter()
                .map(|imp| {
                    format!(
                        "{} {:x} {:x}",
                        imp.rendered,
                        imp.cost.to_bits(),
                        imp.error_bits.to_bits()
                    )
                })
                .collect::<Vec<_>>()
                .join("; "),
            Err(e) => format!("error {:?}", e.kind()),
        })
        .collect()
}

#[test]
fn a_panicking_spawn_takes_the_serial_path() {
    // `par.spawn` fires on the calling thread before any worker exists, so an
    // armed panic there unwinds outside every job's isolation boundary. It
    // must act like a thread the OS refused: the serial path, with the grid
    // unchanged. Two workers are forced so the fan-out is reached on any
    // machine.
    let cores = [
        parse_fpcore("(FPCore (x) :pre (and (> x 1) (< x 1e6)) (- (sqrt (+ x 1)) (sqrt x)))")
            .unwrap(),
        parse_fpcore("(FPCore (x y) :pre (and (> x 0) (< x 1) (> y 0) (< y 1)) (+ (* x y) x))")
            .unwrap(),
    ];
    let targets = [
        builtin::by_name("c99").unwrap(),
        builtin::by_name("arith-fma").unwrap(),
    ];
    let run = |plan: fault::FaultPlan| {
        let armed = fault::install(plan);
        chassis::par::set_thread_count(2);
        let grid = Session::new(Config::fast()).compile_many(&cores, &targets);
        chassis::par::set_thread_count(0);
        (grid_lines(&grid), armed.fires())
    };
    let (unarmed, _) = run(fault::FaultPlan::new());
    let (armed, fires) =
        run(fault::FaultPlan::new().arm("par.spawn", fault::FaultAction::Panic, 0));
    assert!(fires > 0, "the armed spawn never fired");
    assert_eq!(armed, unarmed);
    assert!(unarmed.iter().all(|line| !line.starts_with("error")));
}

#[test]
fn a_slow_machine_cannot_change_a_result() {
    // Every saturation iteration sleeps 400 ms before it starts, as on a
    // badly overloaded machine. Saturation is bounded by work alone (nodes,
    // iterations, matches), so the slowed compile must return the unarmed
    // frontier bit for bit. One improve iteration keeps it to a few seconds.
    let core = benchsuite::by_name("log-one-plus-over-x").unwrap().fpcore();
    let target = builtin::by_name("c99").unwrap();
    let mut config = Config::fast();
    config.improve.iterations = 1;
    let run = |plan: fault::FaultPlan| {
        let armed = fault::install(plan);
        let result = Session::new(config.clone()).compile(&core, &target);
        (grid_lines(&[vec![result]]), armed.fires())
    };
    let (unarmed, _) = run(fault::FaultPlan::new());
    let (slowed, fires) =
        run(fault::FaultPlan::new().arm("egraph.saturate", fault::FaultAction::Delay(400), 0));
    assert!(fires > 0, "the armed delay never fired");
    assert_eq!(slowed, unarmed);
    assert!(!unarmed[0].starts_with("error"), "{unarmed:?}");
}
