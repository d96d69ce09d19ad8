//! Shared harness code for the figure-regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the paper's
//! evaluation (Section 6). The heavy lifting — running Chassis, the Herbie-style
//! baseline and the Clang-style baseline over the benchmark corpus, and
//! aggregating per-benchmark Pareto frontiers into the paper's joint curves — is
//! shared here.

use benchsuite::Benchmark;
use chassis::baseline::herbie::transcribe;
use chassis::{CompilationResult, CompileError, Config, Prepared, Session};
use fpcore::FPCore;
use service::{client, Json};
use std::net::SocketAddr;
use std::time::Duration;
use targets::{builtin, program_cost, Target};

/// One implementation's aggregate-relevant statistics.
#[derive(Clone, Copy, Debug)]
pub struct PointStats {
    /// Estimated cost under the target's cost model.
    pub cost: f64,
    /// Accuracy in bits (`p −` mean bits of error on the test points).
    pub accuracy_bits: f64,
}

/// The outcome of running one compiler on one benchmark.
#[derive(Clone, Debug)]
pub struct BenchmarkOutcome {
    /// Benchmark name.
    pub name: String,
    /// The cost of the naive direct lowering (speedups are relative to this).
    pub initial: PointStats,
    /// The Pareto frontier produced by the compiler, sorted by increasing cost.
    pub frontier: Vec<PointStats>,
}

impl BenchmarkOutcome {
    /// Extracts the aggregate-relevant statistics from a compilation result.
    pub fn from_result(name: &str, result: &CompilationResult) -> BenchmarkOutcome {
        BenchmarkOutcome {
            name: name.to_owned(),
            initial: PointStats {
                cost: result.initial.cost,
                accuracy_bits: result.initial.accuracy_bits,
            },
            frontier: result
                .implementations
                .iter()
                .map(|imp| PointStats {
                    cost: imp.cost,
                    accuracy_bits: imp.accuracy_bits,
                })
                .collect(),
        }
    }

    /// Picks the frontier point at a fractional position `t ∈ [0, 1]` from the
    /// cheapest (0) to the most accurate (1).
    pub fn at_fraction(&self, t: f64) -> PointStats {
        if self.frontier.is_empty() {
            return self.initial;
        }
        let idx = ((self.frontier.len() - 1) as f64 * t).round() as usize;
        self.frontier[idx.min(self.frontier.len() - 1)]
    }

    /// The cheapest frontier point whose accuracy is at least `bits`; `None` when
    /// no point reaches that accuracy.
    pub fn cheapest_at_least(&self, bits: f64) -> Option<PointStats> {
        self.frontier
            .iter()
            .filter(|p| p.accuracy_bits >= bits)
            .min_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .copied()
    }
}

/// Harness-wide options parsed from the command line.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Maximum number of benchmarks to run (subsamples the corpus).
    pub limit: usize,
    /// Use the fast search configuration.
    pub fast: bool,
    /// RNG seed override (`--seed N`); `None` keeps the configuration default,
    /// so corpus runs are reproducible from the CLI without recompiling.
    pub seed: Option<u64>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            limit: 8,
            fast: true,
            seed: None,
        }
    }
}

impl HarnessOptions {
    /// Parses the harness flags — `--limit N`, `--full`, `--thorough` and
    /// `--seed N` — from `args`, the arguments after the program name, with
    /// [`parse_flags`]. `limit` is the calling binary's default benchmark
    /// count, kept when neither `--limit` nor `--full` is given. `extra`
    /// declares the flags the calling binary reads itself; each takes one
    /// value, returned in declaration order (`None` when absent).
    ///
    /// # Errors
    ///
    /// Any error of [`parse_flags`], `--full` with `--limit`, or a
    /// `--limit`/`--seed` value that does not parse.
    pub fn parse(
        args: &[String],
        limit: usize,
        extra: &[&str],
    ) -> Result<(HarnessOptions, Vec<Option<String>>), String> {
        const HARNESS: [&str; 2] = ["--limit", "--seed"];
        let valued: Vec<&str> = HARNESS.iter().chain(extra).copied().collect();
        let flags = parse_flags(args, &["--full", "--thorough"], &valued)?;
        let (full, thorough) = (flags.switches[0], flags.switches[1]);
        let (harness, extra) = flags.values.split_at(HARNESS.len());
        let mut options = HarnessOptions {
            limit,
            fast: !thorough,
            seed: None,
        };
        match (full, &harness[0]) {
            (true, Some(_)) => return Err("--full and --limit conflict".to_owned()),
            (true, None) => options.limit = usize::MAX,
            (false, Some(value)) => options.limit = parse_value("--limit", value)?,
            (false, None) => {}
        }
        if let Some(value) = &harness[1] {
            options.seed = Some(parse_value("--seed", value)?);
        }
        Ok((options, extra.to_vec()))
    }

    /// [`HarnessOptions::parse`] over the process arguments, for a binary
    /// that reads no flags of its own and runs 8 benchmarks by default.
    pub fn from_args() -> HarnessOptions {
        HarnessOptions::from_args_with(HarnessOptions::default().limit, &[]).0
    }

    /// [`HarnessOptions::parse`] over the process arguments. On an error it
    /// prints the error and a usage line, and exits with status 2.
    pub fn from_args_with(limit: usize, extra: &[&str]) -> (HarnessOptions, Vec<Option<String>>) {
        let mut args = std::env::args();
        let program = args.next().unwrap_or_default();
        let args: Vec<String> = args.collect();
        HarnessOptions::parse(&args, limit, extra).unwrap_or_else(|error| {
            let flags: String = extra.iter().map(|f| format!(" [{f} V]")).collect();
            eprintln!(
                "error: {error}\nusage: {program} [--limit N] [--full] [--thorough] [--seed N]{flags}"
            );
            std::process::exit(2)
        })
    }

    /// The search configuration implied by the options.
    pub fn config(&self) -> Config {
        let config = if self.fast {
            Config::fast()
        } else {
            Config::default()
        };
        match self.seed {
            Some(seed) => config.with_seed(seed),
            None => config,
        }
    }

    /// A session over the implied configuration.
    pub fn session(&self) -> Session {
        Session::new(self.config())
    }

    /// The benchmark subset implied by the options (spread across groups).
    pub fn benchmarks(&self) -> Vec<&'static Benchmark> {
        let all = benchsuite::all();
        if self.limit >= all.len() {
            return all.iter().collect();
        }
        // Take benchmarks round-robin across groups so small limits stay diverse.
        let groups = benchsuite::groups();
        let mut picked = Vec::new();
        let mut index = 0usize;
        while picked.len() < self.limit {
            let mut added = false;
            for group in &groups {
                let members = benchsuite::by_group(group);
                if let Some(b) = members.get(index) {
                    picked.push(*b);
                    added = true;
                    if picked.len() >= self.limit {
                        break;
                    }
                }
            }
            if !added {
                break;
            }
            index += 1;
        }
        picked
    }
}

/// The flags [`parse_flags`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flags {
    /// Whether each declared switch was given, in declaration order.
    pub switches: Vec<bool>,
    /// Each declared valued flag's value, in declaration order (`None` when
    /// absent).
    pub values: Vec<Option<String>>,
}

/// The strict flag loop every gate binary's parser runs: `args` (the
/// arguments after the program name) may hold only the declared `switches`,
/// which take no value, and the declared `valued` flags, which take one.
///
/// # Errors
///
/// An undeclared flag, a valued flag without its value, or a flag given
/// twice. Nothing falls back to a default or keeps only the last of two
/// values: a mistyped or repeated flag must not quietly change a gate.
pub fn parse_flags(args: &[String], switches: &[&str], valued: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags {
        switches: vec![false; switches.len()],
        values: vec![None; valued.len()],
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let seen = if let Some(slot) = switches.iter().position(|s| s == flag) {
            std::mem::replace(&mut flags.switches[slot], true)
        } else if let Some(slot) = valued.iter().position(|v| v == flag) {
            let value = args
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            flags.values[slot].replace(value.clone()).is_some()
        } else {
            return Err(format!("unknown flag {flag:?}"));
        };
        if seen {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(flags)
}

/// Parses one flag's value.
///
/// # Errors
///
/// A value that does not parse as `T`, naming the flag.
pub fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

/// Parses the value of a flag declared to [`HarnessOptions::from_args_with`]
/// (`None` when the flag was absent). On a bad value it prints the error and
/// exits with status 2.
pub fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> Option<T> {
    value.map(|value| {
        parse_value(flag, value).unwrap_or_else(|error| {
            eprintln!("error: {error}");
            std::process::exit(2)
        })
    })
}

/// Resolves builtin target names in order, warning on stderr and skipping any
/// name [`targets::builtin`] does not know. Every harness binary that takes a
/// target list goes through this, so a misnamed target degrades the sweep the
/// same way everywhere instead of aborting it.
pub fn resolve_targets(names: &[&str]) -> Vec<Target> {
    names
        .iter()
        .filter_map(|n| {
            let target = builtin::by_name(n);
            if target.is_none() {
                eprintln!("warning: unknown builtin target {n:?}, skipping");
            }
            target
        })
        .collect()
}

/// Parses a benchmark subset into `FPCore`s, preserving corpus order.
pub fn corpus_cores(benchmarks: &[&'static Benchmark]) -> Vec<FPCore> {
    benchmarks.iter().map(|b| b.fpcore()).collect()
}

/// The full corpus with names attached, for gates that sweep everything and
/// report per-case (`lint_ir` and friends).
pub fn named_corpus_cores() -> Vec<(String, FPCore)> {
    benchsuite::all()
        .iter()
        .map(|b| (b.name.to_string(), b.fpcore()))
        .collect()
}

/// A corpus compilation grid as produced by [`Session::compile_many`]: rows
/// are benchmarks, columns targets.
pub type ResultGrid = Vec<Vec<Result<CompilationResult, CompileError>>>;

/// Bit-level identity check between two corpus grids: frontier renderings,
/// cost and error bits, and the initial programs must match cell for cell.
/// With `strict_errors`, failed cells must carry *equal* typed errors (the
/// chaos gate's empty-plan invariant); without it, two failures match
/// regardless of message (cross-engine sweeps, where timing-dependent detail
/// may differ). Returns a human-readable description of every mismatch —
/// empty means identical.
pub fn grid_mismatches(a: &ResultGrid, b: &ResultGrid, strict_errors: bool) -> Vec<String> {
    let mut mismatches = Vec::new();
    if a.len() != b.len() {
        mismatches.push(format!(
            "grid shapes differ: {} vs {} rows",
            a.len(),
            b.len()
        ));
        return mismatches;
    }
    for (bench, (row_a, row_b)) in a.iter().zip(b).enumerate() {
        if row_a.len() != row_b.len() {
            mismatches.push(format!("benchmark {bench}: row widths differ"));
            continue;
        }
        for (t, (x, y)) in row_a.iter().zip(row_b).enumerate() {
            let cell = format!("benchmark {bench}, target {t}");
            match (x, y) {
                (Ok(x), Ok(y)) => {
                    if x.implementations.len() != y.implementations.len() {
                        mismatches.push(format!("{cell}: frontier sizes differ"));
                        continue;
                    }
                    if x.initial.rendered != y.initial.rendered
                        || x.initial.error_bits.to_bits() != y.initial.error_bits.to_bits()
                    {
                        mismatches.push(format!("{cell}: initial program differs"));
                    }
                    for (i, (p, q)) in x.implementations.iter().zip(&y.implementations).enumerate()
                    {
                        if p.rendered != q.rendered
                            || p.cost.to_bits() != q.cost.to_bits()
                            || p.error_bits.to_bits() != q.error_bits.to_bits()
                        {
                            mismatches.push(format!("{cell}: frontier point {i} differs"));
                        }
                    }
                }
                (Err(x), Err(y)) => {
                    if strict_errors && x != y {
                        mismatches.push(format!("{cell}: errors differ ({x} vs {y})"));
                    }
                }
                _ => mismatches.push(format!("{cell}: one run failed where the other succeeded")),
            }
        }
    }
    mismatches
}

/// Runs `run` over every benchmark of a corpus subset, fanning benchmarks out
/// across worker threads (see [`chassis::par`]) while preserving corpus order
/// in the result. Compiling one benchmark is independent of every other, so
/// this is the figure harness' outermost — and only — parallel axis: nested
/// `par_map` calls (each benchmark's accuracy evaluation and sampling) run
/// serially inside a corpus worker rather than oversubscribing the machine.
///
/// Serial when `chassis::par::set_thread_count(1)` / `CHASSIS_THREADS=1` is
/// in effect.
pub fn run_corpus<R, F>(benchmarks: &[&'static Benchmark], run: F) -> Vec<R>
where
    R: Send,
    F: Fn(&'static Benchmark) -> R + Sync,
{
    chassis::par::par_map(benchmarks, |benchmark| run(benchmark))
}

/// [`run_corpus`] over prepared benchmarks: the per-target half of a
/// multi-target sweep, parallel across benchmarks with the target-independent
/// state already in hand.
pub fn run_prepared_corpus<R, F>(prepared: &[PreparedBenchmark], run: F) -> Vec<R>
where
    R: Send,
    F: Fn(&PreparedBenchmark) -> R + Sync,
{
    chassis::par::par_map(prepared, run)
}

/// The `history` entries of an existing `BENCH_*.json` file at `path`, one
/// JSON object per line, to carry forward into the file a gate run rewrites.
/// A missing file, or one without a `history` array, has none.
pub fn prior_history(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Some(start) = text.find("\"history\": [") else {
        return Vec::new();
    };
    let rest = &text[start + "\"history\": [".len()..];
    let Some(end) = rest.find(']') else {
        return Vec::new();
    };
    rest[..end]
        .lines()
        .map(|line| line.trim().trim_end_matches(',').to_owned())
        .filter(|line| line.starts_with('{'))
        .collect()
}

/// A duration in milliseconds, the unit every gate prints and archives.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `p` quantile (0 to 1) of ascending `sorted` latencies, by nearest
/// rank; zero when there are none.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One counter from the daemon's `GET /stats` at `addr`. A gate cannot judge
/// a run without it, so a failed request, a non-JSON body or a missing field
/// exits 1.
pub fn stat(addr: SocketAddr, field: &str) -> u64 {
    let response = client::get(addr, "/stats").unwrap_or_else(|e| {
        eprintln!("error: /stats failed: {e}");
        std::process::exit(1);
    });
    let doc = Json::parse(&response.body).unwrap_or_else(|e| {
        eprintln!("error: /stats is not JSON: {e}");
        std::process::exit(1);
    });
    doc.get(field).and_then(Json::as_u64).unwrap_or_else(|| {
        eprintln!("error: /stats missing {field}: {}", response.body);
        std::process::exit(1);
    })
}

/// Runs the full Chassis pipeline and returns the raw result (used by the case
/// studies, which need the rendered programs).
pub fn run_chassis_full(
    session: &Session,
    target: &Target,
    core: &FPCore,
) -> Option<CompilationResult> {
    session.compile(core, target).ok()
}

/// One benchmark's target-independent state, computed once and shared by every
/// target: the Chassis preparation (samples + ground truth) and, optionally,
/// the Herbie baseline's target-agnostic result.
pub struct PreparedBenchmark {
    /// The corpus benchmark.
    pub benchmark: &'static Benchmark,
    /// Chassis' prepared state (compile it per target).
    pub prepared: Prepared,
    /// The Herbie-style baseline's output (transcribe it per target), when
    /// requested and successful.
    pub herbie: Option<CompilationResult>,
}

/// Prepares a corpus subset once for a multi-target sweep: per benchmark, one
/// sampling + ground-truth pass (through the session cache) and — when
/// `with_herbie` — one run of the target-agnostic Herbie baseline. The Herbie
/// baseline compiles *from the shared preparation* (its search is just the
/// Chassis loop on the abstract Herbie target, and preparation is
/// target-independent), so requesting it adds zero sampling passes.
/// Benchmarks whose preparation fails are dropped. Parallel across benchmarks.
pub fn prepare_corpus(
    session: &Session,
    benchmarks: &[&'static Benchmark],
    with_herbie: bool,
) -> Vec<PreparedBenchmark> {
    let herbie_target = chassis::baseline::herbie::herbie_target();
    run_corpus(benchmarks, |benchmark| {
        let core = benchmark.fpcore();
        let prepared = session.prepare(&core).ok()?;
        let herbie_result = if with_herbie {
            prepared.compile(&herbie_target).ok()
        } else {
            None
        };
        Some(PreparedBenchmark {
            benchmark,
            prepared,
            herbie: herbie_result,
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Transcribes a prepared benchmark's Herbie-baseline output onto a concrete
/// target (Section 6.3). Programs using unavailable operators are discarded,
/// as in the paper; returns `None` when nothing survives (the benchmark is
/// then dropped from the comparison for both systems).
pub fn herbie_transcribed_outcome(
    target: &Target,
    prepared: &PreparedBenchmark,
) -> Option<BenchmarkOutcome> {
    let result = prepared.herbie.as_ref()?;
    let core = prepared.prepared.core();
    let herbie_target = chassis::baseline::herbie::herbie_target();
    let samples = &result.samples;
    let mut frontier: Vec<PointStats> = Vec::new();
    for imp in &result.implementations {
        let Some(ported) = transcribe(&imp.expr, &herbie_target, target, core.precision) else {
            continue;
        };
        let (_, acc) = chassis::accuracy::evaluate_on_test(target, &ported, samples);
        frontier.push(PointStats {
            cost: program_cost(target, &ported),
            accuracy_bits: acc,
        });
    }
    if frontier.is_empty() {
        return None;
    }
    frontier.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // The initial program: the direct lowering of the original expression on the
    // concrete target (same reference as Chassis uses).
    let initial_expr = chassis::lower_fpcore(core, target).ok();
    let initial = match initial_expr {
        Some(expr) => {
            let (_, acc) = chassis::accuracy::evaluate_on_test(target, &expr, samples);
            PointStats {
                cost: program_cost(target, &expr),
                accuracy_bits: acc,
            }
        }
        None => frontier[0],
    };
    Some(BenchmarkOutcome {
        name: prepared.benchmark.name.to_owned(),
        initial,
        frontier,
    })
}

/// Geometric mean of a set of strictly positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// One point of a joint (aggregate) Pareto curve.
#[derive(Clone, Copy, Debug)]
pub struct JointPoint {
    /// Geometric-mean speedup over each benchmark's initial program.
    pub speedup: f64,
    /// Sum of accuracies across benchmarks (the paper's vertical axis).
    pub total_accuracy: f64,
}

/// Aggregates per-benchmark frontiers into a joint Pareto curve by sweeping the
/// frontier fraction from cheapest to most accurate (paper Figures 7 and 8).
pub fn joint_curve(outcomes: &[BenchmarkOutcome], steps: usize) -> Vec<JointPoint> {
    (0..=steps)
        .map(|i| {
            let t = i as f64 / steps as f64;
            let speedups: Vec<f64> = outcomes
                .iter()
                .map(|o| {
                    let p = o.at_fraction(t);
                    o.initial.cost / p.cost.max(1e-9)
                })
                .collect();
            let total_accuracy: f64 = outcomes
                .iter()
                .map(|o| o.at_fraction(t).accuracy_bits)
                .sum();
            JointPoint {
                speedup: geometric_mean(&speedups),
                total_accuracy,
            }
        })
        .collect()
}

/// Pearson correlation coefficient between two equally long slices.
pub fn pearson_correlation(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mean_x: f64 = xs.iter().sum::<f64>() / n;
    let mean_y: f64 = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mean_x) * (y - mean_y);
        var_x += (x - mean_x) * (x - mean_x);
        var_y += (y - mean_y) * (y - mean_y);
    }
    if var_x == 0.0 || var_y == 0.0 {
        return 0.0;
    }
    cov / (var_x * var_y).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_and_correlation() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 1.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.1, 5.9, 8.2];
        assert!(pearson_correlation(&xs, &ys) > 0.99);
        let zs = [5.0, 1.0, 4.0, 0.0];
        assert!(pearson_correlation(&xs, &zs).abs() < 0.9);
    }

    #[test]
    fn joint_curve_interpolates_frontier() {
        let outcome = BenchmarkOutcome {
            name: "synthetic".into(),
            initial: PointStats {
                cost: 100.0,
                accuracy_bits: 20.0,
            },
            frontier: vec![
                PointStats {
                    cost: 10.0,
                    accuracy_bits: 20.0,
                },
                PointStats {
                    cost: 50.0,
                    accuracy_bits: 50.0,
                },
            ],
        };
        let curve = joint_curve(&[outcome], 4);
        assert_eq!(curve.len(), 5);
        assert!(curve[0].speedup > curve[4].speedup);
        assert!(curve[0].total_accuracy < curve[4].total_accuracy);
    }

    #[test]
    fn target_resolution_skips_unknown_names() {
        let resolved = resolve_targets(&["c99", "no-such-target", "arith-fma"]);
        let names: Vec<&str> = resolved.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["c99", "arith-fma"]);
        assert!(resolve_targets(&[]).is_empty());
    }

    #[test]
    fn corpus_loaders_preserve_order_and_names() {
        let all = benchsuite::all();
        let cores = corpus_cores(&all.iter().collect::<Vec<_>>());
        assert_eq!(cores.len(), all.len());
        let named = named_corpus_cores();
        assert_eq!(named.len(), all.len());
        assert!(named.iter().zip(all).all(|((name, _), b)| name == b.name));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn harness_flags_parse_with_declared_extras() {
        let (options, extra) = HarnessOptions::parse(
            &args(&[
                "--limit",
                "3",
                "--thorough",
                "--min-speedup",
                "2",
                "--seed",
                "7",
            ]),
            8,
            &["--plans", "--min-speedup"],
        )
        .unwrap();
        assert_eq!(
            (options.limit, options.fast, options.seed),
            (3, false, Some(7))
        );
        assert_eq!(extra, vec![None, Some("2".to_owned())]);
        let (options, extra) = HarnessOptions::parse(&args(&["--full"]), 8, &[]).unwrap();
        assert_eq!(
            (options.limit, options.fast, options.seed),
            (usize::MAX, true, None)
        );
        assert!(extra.is_empty());
    }

    #[test]
    fn harness_limit_defaults_to_the_callers() {
        let extras = ["--workers", "--out"];
        let (options, extra) =
            HarnessOptions::parse(&args(&["--workers", "3", "--seed", "5"]), 6, &extras).unwrap();
        assert_eq!(
            (options.limit, options.fast, options.seed),
            (6, true, Some(5))
        );
        assert_eq!(extra, vec![Some("3".to_owned()), None]);
        let (options, _) =
            HarnessOptions::parse(&args(&["--limit", "4", "--out", "o.json"]), 2, &extras).unwrap();
        assert_eq!(options.limit, 4, "--limit overrides the caller's default");
        let (options, _) = HarnessOptions::parse(&args(&["--full"]), 2, &extras).unwrap();
        assert_eq!(options.limit, usize::MAX);
        assert!(HarnessOptions::parse(&args(&["--worker", "3"]), 6, &extras).is_err());
    }

    #[test]
    fn unknown_harness_flags_are_errors() {
        let error = HarnessOptions::parse(&args(&["--min-speedpu", "2"]), 8, &["--min-speedup"])
            .unwrap_err();
        assert!(error.contains("--min-speedpu"), "{error}");
        // A flag another binary declares is unknown to one that does not.
        assert!(HarnessOptions::parse(&args(&["--min-speedup", "2"]), 8, &[]).is_err());
    }

    #[test]
    fn bad_harness_values_are_errors() {
        let error = HarnessOptions::parse(&args(&["--limit", "abc"]), 8, &[]).unwrap_err();
        assert!(
            error.contains("--limit") && error.contains("abc"),
            "{error}"
        );
        assert!(HarnessOptions::parse(&args(&["--seed", "-1"]), 8, &[]).is_err());
        assert!(HarnessOptions::parse(&args(&["--seed"]), 8, &[]).is_err());
        assert!(HarnessOptions::parse(&args(&["--plans"]), 8, &["--plans"]).is_err());
    }

    #[test]
    fn repeated_and_conflicting_flags_are_errors() {
        let twice = ["--plans", "1", "--plans", "2"];
        let error = HarnessOptions::parse(&args(&twice), 8, &["--plans"]).unwrap_err();
        assert!(error.contains("--plans given twice"), "{error}");
        assert!(HarnessOptions::parse(&args(&["--full", "--full"]), 8, &[]).is_err());
        assert!(HarnessOptions::parse(&args(&["--seed", "1", "--seed", "1"]), 8, &[]).is_err());
        assert!(HarnessOptions::parse(&args(&["--full", "--limit", "2"]), 8, &[]).is_err());
    }

    #[test]
    fn flag_loop_returns_switches_and_values_in_declaration_order() {
        let flags = parse_flags(&args(&["--b", "x", "--on"]), &["--on"], &["--a", "--b"]).unwrap();
        assert_eq!(flags.switches, vec![true]);
        assert_eq!(flags.values, vec![None, Some("x".to_owned())]);
        assert!(parse_flags(&args(&["--on", "x"]), &["--on"], &[]).is_err());
    }

    #[test]
    fn harness_subsampling_is_diverse() {
        let options = HarnessOptions {
            limit: 6,
            fast: true,
            seed: None,
        };
        let picked = options.benchmarks();
        assert_eq!(picked.len(), 6);
        let groups: std::collections::HashSet<&str> = picked.iter().map(|b| b.group).collect();
        assert!(groups.len() >= 5, "subsample should cover many groups");
    }
}
