//! End-to-end search throughput: corpus compiles on one thread vs. on all
//! cores, with a corpus-wide frontier bit-identity check. This is the CI
//! perf gate for the search loop itself (the improve/regimes phases),
//! complementing `eval_throughput` (the per-point evaluation hot path) and
//! `par_speedup` (the accuracy-sweep primitive).
//!
//! Two configurations compile the same corpus at the same seed:
//!
//! 1. `serial` — one thread: the baseline;
//! 2. `parallel` — all cores: adds intra-compilation parallelism (candidate
//!    batches, scoring, regime sweeps) and the `compile_many` job fan-out.
//!
//! Both must produce **bit-identical frontiers** (same programs, same costs,
//! same error bits) on every `(benchmark, target)` cell — exit 1 otherwise.
//! Each configuration runs the corpus twice through one session: the *cold*
//! sweep pays sampling, ground truth, and search; the *warm* sweep replays
//! it against the session's prepared state and populated ground-truth
//! caches.
//!
//! Per-phase wall-clock (lowering/improve/regimes/final), saturation time,
//! candidates scored, and the ground-truth cache counters are aggregated from
//! each result's `SearchStats` and archived in `BENCH_search.json` (schema 2)
//! with a `history` array carrying prior runs forward.
//!
//! `--min-par-speedup X` gates the run: cold corpus wall-clock of `serial`
//! must be ≥ X × `parallel` (skipped on one core). Both sides are measured in
//! the same run on the same machine, so the floor is machine-relative by
//! construction.
//!
//! ```text
//! cargo run --release -p chassis-bench --bin search_throughput -- \
//!     --limit 8 --min-par-speedup 2 --out BENCH_search.json
//! ```

use chassis::{par, Config, SearchStats, Session};
use chassis_bench::{
    corpus_cores, flag_value, grid_mismatches, ms, prior_history, HarnessOptions, ResultGrid,
};
use fpcore::FPCore;
use std::time::{Duration, Instant};
use targets::Target;

/// Targets every sweep compiles for: one all-emulated (c99) and one
/// native-arithmetic (arith-fma) target.
const TARGETS: &[&str] = &["c99", "arith-fma"];

/// Aggregated outcome of one corpus sweep configuration.
struct Sweep {
    label: &'static str,
    cold: Duration,
    warm: Duration,
    lowering: Duration,
    improve: Duration,
    regimes: Duration,
    final_evaluation: Duration,
    saturation: Duration,
    candidates_scored: usize,
    jobs_failed: usize,
    gt_eval: Duration,
    gt_node_evals: u64,
    gt_hits: usize,
    gt_misses: usize,
    rows: ResultGrid,
}

fn run_sweep(
    label: &'static str,
    cores: &[FPCore],
    target_list: &[Target],
    config: Config,
) -> Sweep {
    let session = Session::new(config);
    let started = Instant::now();
    let rows = session.compile_many(cores, target_list);
    let cold = started.elapsed();
    let started = Instant::now();
    let _warm_rows = session.compile_many(cores, target_list);
    let warm = started.elapsed();

    // A failed cell is reported and skipped — the sweep keeps going and the
    // aggregate counts it, exactly like a corpus run in production would.
    for (b, row) in rows.iter().enumerate() {
        for (t, cell) in row.iter().enumerate() {
            if let Err(e) = cell {
                eprintln!(
                    "warning: {label}: benchmark {b}, target {t} failed ({}): {e}",
                    e.kind()
                );
            }
        }
    }
    let agg = SearchStats::aggregate(&rows);
    Sweep {
        label,
        cold,
        warm,
        lowering: agg.lowering,
        improve: agg.improve,
        regimes: agg.regimes,
        final_evaluation: agg.final_evaluation,
        saturation: agg.saturation,
        candidates_scored: agg.candidates_scored,
        jobs_failed: agg.jobs_failed,
        gt_eval: agg.truths.eval_time,
        gt_node_evals: agg.truths.node_evals,
        gt_hits: agg.truths.hits,
        gt_misses: agg.truths.misses,
        rows,
    }
}

/// Asserts two corpus sweeps produced bit-identical frontiers everywhere.
/// Error cells are matched loosely (`strict_errors = false`): the thread
/// count may legitimately change a failure's detail, but never Ok vs. Err.
fn assert_identical(reference: &Sweep, other: &Sweep) -> bool {
    let mismatches = grid_mismatches(&reference.rows, &other.rows, false);
    for m in &mismatches {
        eprintln!("error: {m} ({} vs {})", reference.label, other.label);
    }
    mismatches.is_empty()
}

fn sweep_json(s: &Sweep) -> String {
    format!(
        "{{\"cold_ms\": {:.1}, \"warm_ms\": {:.1}, \"lowering_ms\": {:.1}, \
         \"improve_ms\": {:.1}, \"regimes_ms\": {:.1}, \"final_ms\": {:.1}, \
         \"saturation_ms\": {:.1}, \"candidates_scored\": {}, \"jobs_failed\": {}, \
         \"gt_eval_ms\": {:.1}, \"gt_node_evals\": {}, \"gt_hits\": {}, \
         \"gt_misses\": {}}}",
        ms(s.cold),
        ms(s.warm),
        ms(s.lowering),
        ms(s.improve),
        ms(s.regimes),
        ms(s.final_evaluation),
        ms(s.saturation),
        s.candidates_scored,
        s.jobs_failed,
        ms(s.gt_eval),
        s.gt_node_evals,
        s.gt_hits,
        s.gt_misses,
    )
}

fn to_json(
    seed: u64,
    n_benchmarks: usize,
    cores_available: usize,
    sweeps: &[&Sweep],
    par_speedup: f64,
    history: &[String],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"benchmarks\": {n_benchmarks},\n"));
    let names: Vec<String> = TARGETS.iter().map(|t| format!("\"{t}\"")).collect();
    out.push_str(&format!("  \"targets\": [{}],\n", names.join(", ")));
    out.push_str(&format!("  \"cores\": {cores_available},\n"));
    out.push_str("  \"runs\": {\n");
    for (i, sweep) in sweeps.iter().enumerate() {
        let comma = if i + 1 < sweeps.len() { "," } else { "" };
        out.push_str(&format!(
            "    \"{}\": {}{comma}\n",
            sweep.label,
            sweep_json(sweep)
        ));
    }
    out.push_str("  },\n");
    out.push_str(&format!("  \"par_speedup\": {par_speedup:.2},\n"));
    out.push_str("  \"history\": [\n");
    for (i, entry) in history.iter().enumerate() {
        let comma = if i + 1 < history.len() { "," } else { "" };
        out.push_str(&format!("    {entry}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let (options, extra) = HarnessOptions::from_args_with(8, &["--min-par-speedup", "--out"]);
    // 0 = no gate.
    let min_par_speedup: f64 = flag_value("--min-par-speedup", extra[0].as_deref()).unwrap_or(0.0);
    let out = extra[1].as_deref().unwrap_or("BENCH_search.json");
    let cores_list = corpus_cores(&options.benchmarks());
    let target_list: Vec<Target> = chassis_bench::resolve_targets(TARGETS);
    let config: Config = options.config();
    let seed = config.seed;
    let cores_available = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "{} benchmarks x {} targets, seed {seed}, {cores_available} core(s) available\n",
        cores_list.len(),
        target_list.len()
    );

    par::set_thread_count(1);
    let serial = run_sweep("serial", &cores_list, &target_list, config.clone());
    par::set_thread_count(0);
    let workers = par::effective_threads(usize::MAX);
    let parallel = run_sweep("parallel", &cores_list, &target_list, config);

    let identical = assert_identical(&serial, &parallel);

    let sweeps = [&serial, &parallel];
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "run", "cold ms", "warm ms", "improve", "regimes", "gt ms", "gt evals"
    );
    for s in sweeps {
        println!(
            "{:<10} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>10}",
            s.label,
            ms(s.cold),
            ms(s.warm),
            ms(s.improve),
            ms(s.regimes),
            ms(s.gt_eval),
            s.gt_node_evals,
        );
    }

    let par_speedup = serial.cold.as_secs_f64() / parallel.cold.as_secs_f64().max(1e-12);
    println!("\nparallel speedup ({workers} workers): {par_speedup:.2}x");
    println!(
        "frontiers bit-identical across thread counts: {}",
        if identical { "yes" } else { "NO" }
    );

    let mut history = prior_history(out);
    history.push(format!(
        "{{\"schema_version\": 2, \"seed\": {seed}, \"benchmarks\": {}, \"cores\": {cores_available}, \
         \"serial_cold_ms\": {:.1}, \"parallel_cold_ms\": {:.1}, \"par_speedup\": {par_speedup:.2}}}",
        cores_list.len(),
        ms(serial.cold),
        ms(parallel.cold),
    ));
    let json = to_json(
        seed,
        cores_list.len(),
        cores_available,
        &sweeps,
        par_speedup,
        &history,
    );
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    if !identical {
        eprintln!("error: search results changed across thread counts");
        std::process::exit(1);
    }
    if min_par_speedup > 0.0 {
        if cores_available == 1 {
            println!("(single core: --min-par-speedup gate skipped)");
        } else if par_speedup < min_par_speedup {
            eprintln!(
                "error: parallel speedup {par_speedup:.2}x below the floor {min_par_speedup:.2}x"
            );
            std::process::exit(1);
        }
    }
}
