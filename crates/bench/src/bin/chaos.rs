//! Chaos gate: the corpus must survive seeded fault injection.
//!
//! Runs a small corpus through [`Session::compile_many`] under hundreds of
//! seeded [`fault::FaultPlan`]s, each arming 1–3 named fault points
//! ([`fault::PIPELINE_SITES`]) with deterministic abort or panic actions.
//! The service-layer sites ([`fault::SERVICE_SITES`]) are exercised by the
//! daemon's own chaos tests in `tests/service.rs` instead. The gate
//! holds the resilience contract of docs/RESILIENCE.md:
//!
//! 1. **No process aborts.** Every injected panic is caught at a job
//!    boundary; an unwind escaping `compile_many` fails the gate.
//! 2. **Every cell is `Ok` or a typed error.** Each `Err` cell must render
//!    its `Display` and `source()` chain, and be classified by
//!    [`chassis::CompileError::kind`]; every failed cell must also have reported a
//!    [`Progress::JobFailed`] event.
//! 3. **The unarmed layer is free.** With an installed-but-empty plan the
//!    frontiers are bit-identical to a run with no plan at all.
//!
//! ```text
//! cargo run --release -p chassis-bench --bin chaos -- --plans 200 --limit 3
//! ```
//!
//! Exit status 1 on any violation; the run is deterministic per `--seed`.

use chassis::{Progress, SearchControl, Session};
use chassis_bench::{
    corpus_cores, flag_value, grid_mismatches, resolve_targets, HarnessOptions, ResultGrid,
};
use fpcore::FPCore;
use std::error::Error as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use targets::Target;

/// Targets every plan compiles for: one all-emulated and one partly native
/// (same pair as `search_throughput`).
const TARGETS: &[&str] = &["c99", "arith-fma"];

type Grid = ResultGrid;

/// One corpus run under a fresh session (sessions cache prepared state, so a
/// fresh one per run keeps every run independent and deterministic per seed).
fn run_corpus(
    cores: &[FPCore],
    target_list: &[Target],
    config: &chassis::Config,
    ctl: &SearchControl,
) -> Grid {
    Session::new(config.clone()).compile_many_with(cores, target_list, ctl)
}

/// Checks one fault-plan run's grid: every cell `Ok` or a *well-formed* typed
/// error. Returns the number of failed cells, or `Err` with a description of
/// the malformed cell.
fn check_grid(grid: &Grid) -> Result<usize, String> {
    let mut failed = 0;
    for (b, row) in grid.iter().enumerate() {
        for (t, cell) in row.iter().enumerate() {
            if let Err(e) = cell {
                failed += 1;
                // The whole taxonomy must render: Display, kind, and the
                // source() chain (a panic inside any of these is caught by
                // the per-plan boundary and fails the gate).
                let rendered = format!("{} [{}]", e, e.kind());
                if rendered.is_empty() {
                    return Err(format!("benchmark {b}, target {t}: empty error rendering"));
                }
                let mut source = e.source();
                let mut depth = 0;
                while let Some(cause) = source {
                    depth += 1;
                    if depth > 8 {
                        return Err(format!("benchmark {b}, target {t}: cyclic source chain"));
                    }
                    source = cause.source();
                }
            }
        }
    }
    Ok(failed)
}

fn main() {
    let (options, extra) = HarnessOptions::from_args_with(8, &["--plans"]);
    let n_plans: u64 = flag_value("--plans", extra[0].as_deref()).unwrap_or(200);

    // A micro search configuration: the gate exercises control flow, not
    // search quality, so a few points and one iteration per job keep hundreds
    // of corpus runs fast.
    let mut config = options.config();
    config.train_points = 8;
    config.test_points = 8;
    config.improve.iterations = 1;
    config.improve.isel.node_limit = 1_000;
    config.improve.isel.iter_limit = 3;
    let seed = config.seed;

    let benchmarks = {
        let limited = HarnessOptions {
            limit: options.limit.min(3),
            ..options
        };
        limited.benchmarks()
    };
    let cores: Vec<FPCore> = corpus_cores(&benchmarks);
    let target_list: Vec<Target> = resolve_targets(TARGETS);
    println!(
        "chaos: {} benchmarks x {} targets, {} fault plans, seed {seed}",
        cores.len(),
        target_list.len(),
        n_plans
    );

    // Gate 3: the unarmed fault layer is invisible. Run once with no plan,
    // once with an installed-but-empty plan (the slow path armed, nothing
    // firing), and require bit-identical grids.
    let ctl = SearchControl::new();
    let baseline = run_corpus(&cores, &target_list, &config, &ctl);
    let empty_run = {
        let _armed = fault::install(fault::FaultPlan::new());
        run_corpus(&cores, &target_list, &config, &ctl)
    };
    let drift = grid_mismatches(&baseline, &empty_run, true);
    if !drift.is_empty() {
        eprintln!("FAIL: an installed empty fault plan changed the corpus result:");
        for m in &drift {
            eprintln!("  {m}");
        }
        std::process::exit(1);
    }
    let baseline_failures = match check_grid(&baseline) {
        Ok(n) => n,
        Err(why) => {
            eprintln!("FAIL: baseline grid malformed: {why}");
            std::process::exit(1);
        }
    };
    println!(
        "baseline: {} cells, {baseline_failures} failed, empty plan bit-identical",
        baseline.len() * target_list.len()
    );

    // Injected panics are expected by the hundreds below: silence the default
    // "thread panicked" hook so real diagnostics stay readable. Escapes are
    // still detected — by the catch_unwind around each plan run.
    std::panic::set_hook(Box::new(|_| {}));

    let mut escaped = 0usize;
    let mut malformed = 0usize;
    let mut event_mismatches = 0usize;
    let mut total_fires = 0u64;
    let mut total_failed = 0usize;
    let mut plans_with_fires = 0u64;
    for p in 0..n_plans {
        // Seed over the pipeline subset only: the service sites (store.*,
        // service.accept) are unreachable from a bare corpus run, and a plan
        // arming only dead sites would water the gate down.
        let plan = fault::FaultPlan::seeded(seed.wrapping_add(p), fault::PIPELINE_SITES);
        let armed = fault::install(plan.clone());
        let job_failed_events = AtomicUsize::new(0);
        let observer = |event: &Progress| {
            if matches!(event, Progress::JobFailed { .. }) {
                job_failed_events.fetch_add(1, Ordering::Relaxed);
            }
        };
        let ctl = SearchControl::new().with_progress(&observer);
        // Gate 1: a panic escaping compile_many is a process-level failure.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_corpus(&cores, &target_list, &config, &ctl)
        }));
        let fires = armed.fires();
        drop(armed);
        total_fires += fires;
        if fires > 0 {
            plans_with_fires += 1;
        }
        match outcome {
            Ok(grid) => match check_grid(&grid) {
                // Gate 2: typed, well-formed errors only — and one JobFailed
                // event observed per failed cell.
                Ok(failed) => {
                    total_failed += failed;
                    let events = job_failed_events.load(Ordering::Relaxed);
                    if events != failed {
                        eprintln!(
                            "FAIL: plan {p} ({plan}): {failed} failed cells but \
                             {events} JobFailed events"
                        );
                        event_mismatches += 1;
                    }
                }
                Err(why) => {
                    eprintln!("FAIL: plan {p} ({plan}): {why}");
                    malformed += 1;
                }
            },
            Err(_) => {
                eprintln!("FAIL: plan {p} ({plan}): a panic escaped compile_many");
                escaped += 1;
            }
        }
    }
    let _ = std::panic::take_hook();

    println!(
        "{n_plans} plans: {total_fires} faults fired ({plans_with_fires} plans hit), \
         {total_failed} jobs failed with typed errors"
    );
    if escaped > 0 || malformed > 0 || event_mismatches > 0 {
        eprintln!(
            "FAIL: {escaped} escaped panic(s), {malformed} malformed grid(s), \
             {event_mismatches} event mismatch(es)"
        );
        std::process::exit(1);
    }
    if n_plans > 0 && total_fires == 0 {
        eprintln!("FAIL: no fault ever fired — the harness is not injecting");
        std::process::exit(1);
    }
    println!("chaos: OK (no aborts, every failure typed, unarmed layer invisible)");
}
