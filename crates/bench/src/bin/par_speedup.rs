//! Wall-clock comparison of the serial vs. parallel accuracy-evaluation path.
//!
//! Corpus-wide accuracy evaluation — `mean_bits_of_error` over every sampled
//! point of every benchmark — is the hot loop of the improve/Pareto search.
//! This binary prepares a fixed workload (one naive lowering plus a large
//! sample set per benchmark), evaluates it with the thread count pinned to 1,
//! then again with all cores, verifies the per-benchmark mean errors are
//! **bit-identical**, and reports the speedup.
//!
//! ```text
//! cargo run --release -p chassis-bench --bin par_speedup -- --limit 12 --min-speedup 2
//! ```
//!
//! On a multi-core machine the parallel sweep is expected to be >= 2x faster;
//! on a single core it reports ~1x (the parallel path degrades to one worker).
//!
//! `--min-speedup X` turns the report into a CI gate: exit 1 when the measured
//! speedup lands below the floor. The floor is machine-relative — it is capped
//! at 0.75 × the available cores, so requesting `--min-speedup 2` still gates
//! meaningfully on a dual-core runner (effective floor 1.5) and is skipped
//! entirely on one core, where no speedup is possible.

use chassis::accuracy::mean_bits_of_error;
use chassis::lower_fpcore;
use chassis::par;
use chassis::sample::{SampleSet, Sampler};
use chassis_bench::{flag_value, HarnessOptions};
use std::time::{Duration, Instant};
use targets::{builtin, FloatExpr, Target};

/// Points per benchmark: large enough that evaluation, not setup, dominates.
const POINTS: usize = 4_096;
/// Timed sweeps per configuration; the best is reported.
const SWEEPS: usize = 5;

struct Workload {
    name: &'static str,
    program: FloatExpr,
    samples: SampleSet,
}

fn prepare(target: &Target, options: &HarnessOptions) -> Vec<Workload> {
    let mut config = options.config();
    config.train_points = POINTS / 2;
    config.test_points = POINTS / 2;
    chassis_bench::run_corpus(&options.benchmarks(), |benchmark| {
        let core = benchmark.fpcore();
        let program = lower_fpcore(&core, target).ok()?;
        let samples = Sampler::new(config.seed)
            .sample(&core, config.train_points, config.test_points)
            .ok()?;
        Some(Workload {
            name: benchmark.name,
            program,
            samples,
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// One corpus-wide evaluation sweep: the mean error of every program on its
/// own train and test points.
fn sweep(target: &Target, workloads: &[Workload]) -> Vec<f64> {
    let mut errors = Vec::with_capacity(workloads.len() * 2);
    for w in workloads {
        let s = &w.samples;
        errors.push(mean_bits_of_error(
            target,
            &w.program,
            &s.vars,
            &s.train,
            &s.train_truth,
            s.output_type,
        ));
        errors.push(mean_bits_of_error(
            target,
            &w.program,
            &s.vars,
            &s.test,
            &s.test_truth,
            s.output_type,
        ));
    }
    errors
}

fn best_of(target: &Target, workloads: &[Workload]) -> (Duration, Vec<f64>) {
    let mut best = Duration::MAX;
    let mut errors = Vec::new();
    for _ in 0..SWEEPS {
        let start = Instant::now();
        let result = sweep(target, workloads);
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
        }
        errors = result;
    }
    (best, errors)
}

fn main() {
    let (options, extra) = HarnessOptions::from_args_with(8, &["--min-speedup"]);
    // 0 = no gate.
    let min_speedup: f64 = flag_value("--min-speedup", extra[0].as_deref()).unwrap_or(0.0);
    let target = builtin::by_name("c99").expect("c99 target");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    println!("Preparing workloads ({POINTS} points per benchmark)...");
    let workloads = prepare(&target, &options);
    let total_points: usize = workloads
        .iter()
        .map(|w| w.samples.train_len() + w.samples.test_len())
        .sum();
    println!(
        "{} benchmarks, {total_points} evaluation points total, {cores} core(s) available\n",
        workloads.len()
    );

    par::set_thread_count(1);
    let (serial_time, serial_errors) = best_of(&target, &workloads);
    par::set_thread_count(0); // all cores (or CHASSIS_THREADS)
    let workers = par::effective_threads(POINTS);
    let (parallel_time, parallel_errors) = best_of(&target, &workloads);

    let identical = serial_errors.len() == parallel_errors.len()
        && serial_errors
            .iter()
            .zip(&parallel_errors)
            .all(|(a, b)| a.to_bits() == b.to_bits());

    println!("{:<28} {:>14} {:>14}", "benchmark", "train err", "test err");
    for (w, errs) in workloads.iter().zip(parallel_errors.chunks(2)) {
        println!("{:<28} {:>14.3} {:>14.3}", w.name, errs[0], errs[1]);
    }
    println!(
        "\nserial   (1 thread):  {:>10.1} ms per corpus sweep",
        serial_time.as_secs_f64() * 1e3
    );
    println!(
        "parallel ({workers} workers): {:>10.1} ms per corpus sweep",
        parallel_time.as_secs_f64() * 1e3
    );
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64().max(1e-12);
    println!(
        "speedup: {speedup:.2}x   accuracy numbers bit-identical: {}",
        if identical { "yes" } else { "NO" }
    );
    if !identical {
        eprintln!("error: parallel evaluation changed the accuracy numbers");
        std::process::exit(1);
    }
    if cores == 1 {
        println!("(single-core machine: no speedup is expected here)");
        if min_speedup > 0.0 {
            println!("(--min-speedup gate skipped)");
        }
    } else if min_speedup > 0.0 {
        let floor = min_speedup.min(0.75 * cores as f64);
        if speedup < floor {
            eprintln!(
                "error: parallel speedup {speedup:.2}x below the floor {floor:.2}x \
                 (requested {min_speedup:.2}x, {cores} cores)"
            );
            std::process::exit(1);
        }
        println!("gate passed: {speedup:.2}x >= {floor:.2}x");
    }
}
