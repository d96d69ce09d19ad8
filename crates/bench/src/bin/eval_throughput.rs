//! Throughput comparison of the three evaluation engines — tree-walk
//! interpreter, scalar bytecode, and structure-of-arrays block execution —
//! with a corpus-wide bit-identity check. This is the CI perf gate for the
//! evaluation hot path.
//!
//! For every corpus benchmark × a spread of builtin targets, this binary
//! lowers the benchmark directly onto the target, generates a deterministic
//! set of sample points, and
//!
//! 1. **verifies and optimizes**: every compiled program must pass the IR
//!    verifier ([`targets::analysis`]) in SSA mode, and its optimized form
//!    (liveness-driven register compaction — the program the timed engines
//!    actually run) must pass in executable mode;
//! 2. **asserts bit-identity**: the scalar bytecode engine (fresh *and*
//!    optimized program) and the block engine (optimized program, at *every*
//!    swept block size) must reproduce the tree-walk interpreter's output
//!    exactly, on every point (exit code 1 otherwise) — this is the
//!    corpus-wide proof that the optimizer preserves semantics;
//! 3. **measures throughput**: best-of-N sweeps over all points for each
//!    engine — block mode once per `--block-sizes` entry — reported as
//!    points/second;
//! 4. **measures the math kernels**: a per-operator table of lane-sweep
//!    throughput, vecmath kernels vs. per-lane host-libm loops, over the
//!    corpus input distribution;
//! 5. **records the trajectory**: writes `BENCH_eval.json` (schema 5:
//!    per-mode, per-block-size and per-target throughput, the per-operator
//!    kernel table, an `ir` object with the register-slab rows compaction
//!    saves, and a `history` array carrying every previous run's totals
//!    forward so successive runs stay comparable);
//! 6. **gates**: `--min-speedup X` requires corpus-wide scalar-bytecode ≥ X ×
//!    tree-walk; `--min-block-speedup Y` requires corpus-wide block mode (at
//!    its best swept size) ≥ Y × scalar bytecode; `--min-target-rel name=R,...`
//!    requires named targets' block aggregate ≥ R × the geometric mean of the
//!    *same run's* per-operator host-libm kernel throughput — a
//!    machine-relative floor that holds across hardware, unlike the absolute
//!    `--min-target-pps name=PPS,...` floor (still supported for pinned-rig
//!    use).
//!
//! ```text
//! cargo run --release -p chassis-bench --bin eval_throughput -- \
//!     --points 2048 --repeats 5 --block-sizes 8,64,256,0 \
//!     --min-speedup 3 --min-block-speedup 1 \
//!     --min-target-rel c99=1.4,vdt=1.4 --out BENCH_eval.json
//! ```
//!
//! A block size of `0` means "one block spanning the whole batch".

use chassis::lower_fpcore;
use chassis::rng::Rng;
use chassis_bench::{parse_flags, parse_value, prior_history};
use fpcore::eval::semantic_bits;
use std::time::{Duration, Instant};
use targets::analysis::{self, Mode};
use targets::{eval_float_expr_indexed, Columns, FloatExpr, Target};

/// Targets the sweep covers: an all-emulated target (c99), two with native
/// approximate operators (vdt, avx), and a minimal arithmetic one (arith-fma).
const TARGETS: &[&str] = &["c99", "vdt", "avx", "arith-fma"];

/// Default RNG seed (overridable with `--seed`): the point sets — and
/// therefore the bit-identity check — are reproducible across runs and
/// machines.
const SEED: u64 = 0x5EED_E7A1;

struct Options {
    points: usize,
    repeats: usize,
    seed: u64,
    /// Block sizes to sweep; `0` means one block spanning the whole batch.
    block_sizes: Vec<usize>,
    /// Floor on scalar-bytecode / tree-walk aggregate throughput.
    min_speedup: f64,
    /// Floor on block / scalar-bytecode aggregate throughput.
    min_block_speedup: f64,
    /// Absolute block-aggregate floors per target: `(name, points/sec)`.
    min_target_pps: Vec<(String, f64)>,
    /// Relative floors per target: `(name, ratio)` — block aggregate must be
    /// at least `ratio` × the same run's libm kernel-sweep geometric mean.
    min_target_rel: Vec<(String, f64)>,
    out: String,
}

/// The flags [`Options::parse`] declares, each taking one value.
const FLAGS: [&str; 9] = [
    "--points",
    "--repeats",
    "--seed",
    "--block-sizes",
    "--min-speedup",
    "--min-block-speedup",
    "--min-target-pps",
    "--min-target-rel",
    "--out",
];

impl Options {
    /// Parses the arguments after the program name through the shared strict
    /// loop ([`parse_flags`]): this binary *is* a CI gate, so an unknown flag
    /// (the harness's `--limit`, `--full` and `--thorough` included), a
    /// repeated one, or a missing or unparsable value is an error rather than
    /// a silent default that could leave the gate disabled.
    fn parse(args: &[String]) -> Result<Options, String> {
        /// The value given for `flag`, one of [`FLAGS`].
        fn get<'a>(values: &'a [Option<String>], flag: &str) -> Option<&'a str> {
            let slot = FLAGS
                .iter()
                .position(|f| *f == flag)
                .expect("a declared flag");
            values[slot].as_deref()
        }
        /// The parsed value of `flag`, or `default` when it is absent.
        fn or<T: std::str::FromStr>(
            values: &[Option<String>],
            flag: &str,
            default: T,
        ) -> Result<T, String> {
            get(values, flag).map_or(Ok(default), |v| parse_value(flag, v))
        }
        /// The `name=value` entries of a comma-separated per-target floor list.
        fn floors(values: &[Option<String>], flag: &str) -> Result<Vec<(String, f64)>, String> {
            let Some(list) = get(values, flag) else {
                return Ok(Vec::new());
            };
            list.split(',')
                .map(|entry| {
                    let (name, value) = entry
                        .split_once('=')
                        .ok_or_else(|| format!("bad {flag} entry {entry:?}"))?;
                    Ok((name.trim().to_owned(), parse_value(flag, value.trim())?))
                })
                .collect()
        }
        let values = parse_flags(args, &[], &FLAGS)?.values;
        let block_sizes = match get(&values, "--block-sizes") {
            Some(list) => list
                .split(',')
                .map(|size| parse_value("--block-sizes", size.trim()))
                .collect::<Result<_, _>>()?,
            None => vec![8, 64, 256, 0],
        };
        Ok(Options {
            points: or(&values, "--points", 2048)?,
            repeats: or(&values, "--repeats", 5)?,
            seed: or(&values, "--seed", SEED)?,
            block_sizes,
            min_speedup: or(&values, "--min-speedup", 0.0)?,
            min_block_speedup: or(&values, "--min-block-speedup", 0.0)?,
            min_target_pps: floors(&values, "--min-target-pps")?,
            min_target_rel: floors(&values, "--min-target-rel")?,
            out: get(&values, "--out")
                .unwrap_or("BENCH_eval.json")
                .to_owned(),
        })
    }

    /// [`Options::parse`] over the process arguments; on an error it prints
    /// the error and a usage line, and exits with status 2.
    fn from_args() -> Options {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Options::parse(&args).unwrap_or_else(|error| {
            let flags: String = FLAGS.iter().map(|f| format!(" [{f} V]")).collect();
            eprintln!("error: {error}\nusage: eval_throughput{flags}");
            std::process::exit(2)
        })
    }

    /// The width a swept size denotes for a batch of `points` (0 = whole batch).
    fn width_of(&self, size: usize) -> usize {
        if size == 0 {
            self.points
        } else {
            size
        }
    }
}

/// One (benchmark, target) measurement.
struct Case {
    benchmark: &'static str,
    target: &'static str,
    /// Operator-tree nodes in the lowered program.
    tree_size: usize,
    /// Instructions in the compiled program (smaller when CSE shared work).
    instrs: usize,
    /// Register-slab height of the fresh program.
    regs: usize,
    /// Register-slab height after liveness-driven compaction.
    regs_opt: usize,
    interp_best: Duration,
    bytecode_best: Duration,
    /// Best sweep per swept block size, parallel to `Options::block_sizes`.
    block_best: Vec<Duration>,
}

/// Deterministic sample points: per variable, a log-uniform magnitude in
/// `[1e-6, 1e6]` with random sign. Preconditions are irrelevant here — the
/// engines must agree on *every* input, including ones that produce NaN — so
/// no filtering is done.
fn generate_points(rng: &mut Rng, n_vars: usize, n_points: usize) -> Vec<Vec<f64>> {
    (0..n_points)
        .map(|_| {
            (0..n_vars)
                .map(|_| {
                    let magnitude = 10f64.powf(rng.range_f64(-6.0, 6.0));
                    if rng.below(2) == 0 {
                        magnitude
                    } else {
                        -magnitude
                    }
                })
                .collect()
        })
        .collect()
}

/// Best-of-N sweep time for one evaluation closure over all points.
fn best_sweep(repeats: usize, mut sweep: impl FnMut() -> f64) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        std::hint::black_box(sweep());
        let elapsed = start.elapsed();
        if elapsed < best {
            best = elapsed;
        }
    }
    best.max(Duration::from_nanos(1))
}

/// Returns the case's measurements plus its bit-identity mismatch count.
fn measure(
    target: &Target,
    target_name: &'static str,
    benchmark: &'static str,
    expr: &FloatExpr,
    options: &Options,
    stream: u64,
) -> (Case, usize) {
    let mut mismatches = 0usize;
    let mismatches = &mut mismatches;
    let vars = expr.variables();
    let mut rng = Rng::for_stream(options.seed, stream);
    let rows = generate_points(&mut rng, vars.len(), options.points);
    let points = Columns::from_rows(vars.len(), &rows);

    // Compile, verify, optimize, verify again. A diagnostic here is a
    // compiler or optimizer bug, so it is fatal rather than a gate failure.
    let program = targets::compile(target, expr);
    let violations = analysis::verify_with_target(&program, target, Mode::Ssa);
    assert!(
        violations.is_empty(),
        "{benchmark} on {target_name}: fresh program failed IR verification:\n{}",
        analysis::verify::render(&violations)
    );
    let (optimized, stats) = analysis::optimize(&program);
    let violations = analysis::verify_with_target(&optimized, target, Mode::Executable);
    assert!(
        violations.is_empty(),
        "{benchmark} on {target_name}: optimized program failed IR verification:\n{}",
        analysis::verify::render(&violations)
    );

    let columns = program.bind_columns(&vars);
    let mut regs = program.new_regs();
    let opt_columns = optimized.bind_columns(&vars);
    let mut opt_regs = optimized.new_regs();

    // Bit-identity first. The tree walk is the reference; the scalar bytecode
    // engine — on both the fresh and the optimized program — and the block
    // engine at every swept size must match it exactly (through
    // `semantic_bits`: NaN sign/payload is codegen-dependent and exempt).
    let reference: Vec<u64> = rows
        .iter()
        .map(|point| semantic_bits(eval_float_expr_indexed(target, expr, &vars, point)))
        .collect();
    for (point, &want) in rows.iter().zip(&reference) {
        let byte = program.eval_point(&columns, point, &mut regs);
        if semantic_bits(byte) != want {
            *mismatches += 1;
            eprintln!(
                "BIT MISMATCH (scalar bytecode): {benchmark} on {target_name} at {point:?}: \
                 tree walk {:#018x}, bytecode {:#018x}",
                want,
                byte.to_bits()
            );
        }
        let opt = optimized.eval_point(&opt_columns, point, &mut opt_regs);
        if semantic_bits(opt) != want {
            *mismatches += 1;
            eprintln!(
                "BIT MISMATCH (optimized bytecode): {benchmark} on {target_name} at {point:?}: \
                 tree walk {:#018x}, optimized {:#018x}",
                want,
                opt.to_bits()
            );
        }
    }
    let mut block_out = vec![0.0f64; options.points];
    for &size in &options.block_sizes {
        let width = options.width_of(size);
        let mut block_regs = optimized.new_block_regs(width);
        optimized.eval_range(&opt_columns, &points, 0, &mut block_regs, &mut block_out);
        for (i, (got, &want)) in block_out.iter().zip(&reference).enumerate() {
            if semantic_bits(*got) != want {
                *mismatches += 1;
                eprintln!(
                    "BIT MISMATCH (block {width}): {benchmark} on {target_name} at {:?}: \
                     tree walk {:#018x}, block {:#018x}",
                    rows[i],
                    want,
                    got.to_bits()
                );
            }
        }
    }

    let interp_best = best_sweep(options.repeats, || {
        let mut sink = 0.0;
        for point in &rows {
            let v = eval_float_expr_indexed(target, expr, &vars, point);
            sink += if v.is_finite() { v } else { 0.0 };
        }
        sink
    });
    // The timed bytecode and block runs use the optimized program — the one
    // production evaluation paths execute (`targets::optimize`).
    let bytecode_best = best_sweep(options.repeats, || {
        let mut sink = 0.0;
        for point in &rows {
            let v = optimized.eval_point(&opt_columns, point, &mut opt_regs);
            sink += if v.is_finite() { v } else { 0.0 };
        }
        sink
    });
    let block_best: Vec<Duration> = options
        .block_sizes
        .iter()
        .map(|&size| {
            let width = options.width_of(size);
            let mut block_regs = optimized.new_block_regs(width);
            best_sweep(options.repeats, || {
                optimized.eval_range(&opt_columns, &points, 0, &mut block_regs, &mut block_out);
                let mut sink = 0.0;
                for &v in &block_out {
                    sink += if v.is_finite() { v } else { 0.0 };
                }
                sink
            })
        })
        .collect();

    let case = Case {
        benchmark,
        target: target_name,
        tree_size: expr.size(),
        instrs: program.num_instrs(),
        regs: stats.regs_before,
        regs_opt: stats.regs_after,
        interp_best,
        bytecode_best,
        block_best,
    };
    (case, *mismatches)
}

/// Corpus-wide aggregates: points/sec per mode plus the chosen block size.
struct Totals {
    interp_pps: f64,
    bytecode_pps: f64,
    /// Aggregate points/sec per swept block size, parallel to the sweep list.
    block_pps: Vec<f64>,
    /// Index (into the sweep list) of the block size with the best aggregate.
    chosen: usize,
}

impl Totals {
    fn compute(options: &Options, cases: &[Case]) -> Totals {
        let total_points = (cases.len() * options.points) as f64;
        let interp: f64 = cases.iter().map(|c| c.interp_best.as_secs_f64()).sum();
        let bytecode: f64 = cases.iter().map(|c| c.bytecode_best.as_secs_f64()).sum();
        let block_pps: Vec<f64> = (0..options.block_sizes.len())
            .map(|s| {
                let secs: f64 = cases.iter().map(|c| c.block_best[s].as_secs_f64()).sum();
                total_points / secs
            })
            .collect();
        let chosen = block_pps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i);
        Totals {
            interp_pps: total_points / interp,
            bytecode_pps: total_points / bytecode,
            block_pps,
            chosen,
        }
    }

    /// Scalar bytecode vs. tree walk.
    fn bytecode_speedup(&self) -> f64 {
        self.bytecode_pps / self.interp_pps
    }

    /// Block mode (at the chosen size) vs. scalar bytecode.
    fn block_speedup(&self) -> f64 {
        self.block_pps[self.chosen] / self.bytecode_pps
    }
}

/// Per-target aggregate block throughput (points/sec at the corpus-chosen
/// block size), in `TARGETS` order.
fn per_target_block_pps(options: &Options, cases: &[Case], totals: &Totals) -> Vec<(String, f64)> {
    TARGETS
        .iter()
        .filter_map(|target_name| {
            let subset: Vec<&Case> = cases.iter().filter(|c| c.target == *target_name).collect();
            if subset.is_empty() {
                return None;
            }
            let pts = (subset.len() * options.points) as f64;
            let secs: f64 = subset
                .iter()
                .map(|c| c.block_best[totals.chosen].as_secs_f64())
                .sum();
            Some((target_name.to_string(), pts / secs))
        })
        .collect()
}

/// One row of the per-operator kernel throughput table (schema 3).
struct OpKernel {
    name: &'static str,
    arity: u32,
    vecmath_pps: f64,
    libm_pps: f64,
}

/// Measures each registered vecmath kernel's lane-sweep throughput against a
/// per-lane host-libm loop, over the same log-uniform input distribution as
/// the corpus sweep (log-magnitude in [1e-6, 1e6], both signs; the log
/// family takes magnitudes so most lanes stay in-domain).
fn bench_op_kernels(options: &Options) -> Vec<OpKernel> {
    const LANES: usize = 4096;
    const SWEEPS: usize = 16;
    let mut rng = Rng::for_stream(options.seed, 0x0FED);
    let signed: Vec<f64> = (0..LANES)
        .map(|_| {
            let magnitude = 10f64.powf(rng.range_f64(-6.0, 6.0));
            if rng.below(2) == 0 {
                magnitude
            } else {
                -magnitude
            }
        })
        .collect();
    let magnitudes: Vec<f64> = signed.iter().map(|x| x.abs()).collect();
    let mut out = vec![0.0; LANES];
    let mut time = |f: &mut dyn FnMut(&mut [f64])| -> f64 {
        f(&mut out); // warmup
        let mut best = Duration::MAX;
        for _ in 0..options.repeats.max(1) {
            let start = Instant::now();
            for _ in 0..SWEEPS {
                f(&mut out);
            }
            best = best.min(start.elapsed());
        }
        std::hint::black_box(&out);
        (LANES * SWEEPS) as f64 / best.max(Duration::from_nanos(1)).as_secs_f64()
    };
    let mut table = Vec::new();
    for kernel in vecmath::KERNELS1 {
        let input = if matches!(kernel.name, "log" | "log2" | "log10" | "log1p") {
            &magnitudes
        } else {
            &signed
        };
        let vecmath_pps = time(&mut |out| (kernel.sweep)(out, input));
        let libm_pps = time(&mut |out| {
            for (o, &x) in out.iter_mut().zip(input) {
                *o = (kernel.reference)(x);
            }
        });
        table.push(OpKernel {
            name: kernel.name,
            arity: 1,
            vecmath_pps,
            libm_pps,
        });
    }
    for kernel in vecmath::KERNELS2 {
        let a = if kernel.name == "pow" {
            &magnitudes
        } else {
            &signed
        };
        let vecmath_pps = time(&mut |out| (kernel.sweep)(out, a, &signed));
        let libm_pps = time(&mut |out| {
            for ((o, &x), &y) in out.iter_mut().zip(a).zip(&signed) {
                *o = (kernel.reference)(x, y);
            }
        });
        table.push(OpKernel {
            name: kernel.name,
            arity: 2,
            vecmath_pps,
            libm_pps,
        });
    }
    table
}

/// Geometric mean of the per-operator host-libm sweep throughput — the
/// machine-speed yardstick the `--min-target-rel` gate divides by. Measured
/// in the same run, so the ratio is stable across hardware generations in a
/// way an absolute points/sec floor is not.
fn libm_geomean_pps(op_kernels: &[OpKernel]) -> f64 {
    let logs: f64 = op_kernels.iter().map(|k| k.libm_pps.ln()).sum();
    (logs / op_kernels.len().max(1) as f64).exp()
}

/// This run's headline numbers as a one-line JSON history entry.
fn history_entry(
    options: &Options,
    n_cases: usize,
    totals: &Totals,
    per_target: &[(String, f64)],
) -> String {
    let targets: Vec<String> = per_target
        .iter()
        .map(|(name, pps)| format!("\"{name}\": {pps:.1}"))
        .collect();
    format!(
        "{{\"schema_version\": 5, \"seed\": {}, \"points_per_case\": {}, \"cases\": {}, \
         \"interp_points_per_sec\": {:.1}, \"bytecode_points_per_sec\": {:.1}, \
         \"block_points_per_sec\": {:.1}, \"per_target_block_points_per_sec\": {{{}}}}}",
        options.seed,
        options.points,
        n_cases,
        totals.interp_pps,
        totals.bytecode_pps,
        totals.block_pps[totals.chosen],
        targets.join(", ")
    )
}

/// Renders the results as JSON (hand-rolled: the workspace has no registry
/// access, hence no serde).
fn to_json(
    options: &Options,
    cases: &[Case],
    totals: &Totals,
    per_target: &[(String, f64)],
    op_kernels: &[OpKernel],
    history: &[String],
) -> String {
    let pps = |d: Duration| options.points as f64 / d.as_secs_f64();
    let sizes_json = |values: &[f64]| {
        let entries: Vec<String> = options
            .block_sizes
            .iter()
            .zip(values)
            .map(|(size, v)| format!("\"{size}\": {v:.1}"))
            .collect();
        format!("{{{}}}", entries.join(", "))
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"eval_throughput\",\n");
    out.push_str("  \"schema_version\": 5,\n");
    out.push_str(&format!("  \"points_per_case\": {},\n", options.points));
    out.push_str(&format!("  \"repeats\": {},\n", options.repeats));
    out.push_str(&format!("  \"seed\": {},\n", options.seed));
    let sizes: Vec<String> = options.block_sizes.iter().map(usize::to_string).collect();
    out.push_str(&format!("  \"block_sizes\": [{}],\n", sizes.join(", ")));
    out.push_str("  \"total\": {\n");
    out.push_str(&format!(
        "    \"interp_points_per_sec\": {:.1},\n",
        totals.interp_pps
    ));
    out.push_str(&format!(
        "    \"bytecode_points_per_sec\": {:.1},\n",
        totals.bytecode_pps
    ));
    out.push_str(&format!(
        "    \"block_points_per_sec\": {},\n",
        sizes_json(&totals.block_pps)
    ));
    out.push_str(&format!(
        "    \"chosen_block_size\": {},\n",
        options.block_sizes[totals.chosen]
    ));
    let targets: Vec<String> = per_target
        .iter()
        .map(|(name, pps)| format!("\"{name}\": {pps:.1}"))
        .collect();
    out.push_str(&format!(
        "    \"per_target_block_points_per_sec\": {{{}}},\n",
        targets.join(", ")
    ));
    out.push_str(&format!(
        "    \"bytecode_speedup\": {:.3},\n",
        totals.bytecode_speedup()
    ));
    out.push_str(&format!(
        "    \"block_speedup_vs_bytecode\": {:.3},\n",
        totals.block_speedup()
    ));
    out.push_str(&format!(
        "    \"block_speedup_vs_interp\": {:.3}\n",
        totals.block_pps[totals.chosen] / totals.interp_pps
    ));
    out.push_str("  },\n");
    // Aggregate optimizer statistics (schema 5): the register-slab rows are
    // what liveness-driven compaction saves the block engine per worker.
    let sum = |f: fn(&Case) -> usize| -> usize { cases.iter().map(f).sum() };
    out.push_str("  \"ir\": {\n");
    out.push_str(&format!(
        "    \"register_slab_rows_before\": {},\n    \"register_slab_rows_after\": {},\n",
        sum(|c| c.regs),
        sum(|c| c.regs_opt)
    ));
    out.push_str(&format!(
        "    \"libm_kernel_geomean_points_per_sec\": {:.1}\n",
        libm_geomean_pps(op_kernels)
    ));
    out.push_str("  },\n");
    out.push_str("  \"op_kernels\": [\n");
    for (i, k) in op_kernels.iter().enumerate() {
        let comma = if i + 1 < op_kernels.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"arity\": {}, \"vecmath_points_per_sec\": {:.1}, \
             \"libm_points_per_sec\": {:.1}, \"speedup\": {:.3}}}{comma}\n",
            k.name,
            k.arity,
            k.vecmath_pps,
            k.libm_pps,
            k.vecmath_pps / k.libm_pps
        ));
    }
    out.push_str("  ],\n");
    // One entry per recorded run, oldest first: the bench trajectory.
    out.push_str("  \"history\": [\n");
    for (i, entry) in history.iter().enumerate() {
        let comma = if i + 1 < history.len() { "," } else { "" };
        out.push_str(&format!("    {entry}{comma}\n"));
    }
    out.push_str("  ],\n");
    out.push_str("  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let block: Vec<f64> = case.block_best.iter().map(|&d| pps(d)).collect();
        out.push_str(&format!(
            "    {{\"benchmark\": \"{}\", \"target\": \"{}\", \"tree_size\": {}, \
             \"instrs\": {}, \"regs\": {}, \"regs_opt\": {}, \
             \"interp_points_per_sec\": {:.1}, \
             \"bytecode_points_per_sec\": {:.1}, \"block_points_per_sec\": {}, \
             \"speedup\": {:.3}}}{comma}\n",
            case.benchmark,
            case.target,
            case.tree_size,
            case.instrs,
            case.regs,
            case.regs_opt,
            pps(case.interp_best),
            pps(case.bytecode_best),
            sizes_json(&block),
            pps(case.bytecode_best) / pps(case.interp_best),
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let options = Options::from_args();
    let mut cases: Vec<Case> = Vec::new();
    let mut mismatches = 0usize;
    let mut stream = 0u64;

    // A misnamed target is reported (by `resolve_targets`) and skipped — the
    // rest of the corpus still measures.
    let resolved = chassis_bench::resolve_targets(TARGETS);
    for target_name in TARGETS {
        let Some(target) = resolved.iter().find(|t| t.name == *target_name) else {
            continue;
        };
        for benchmark in benchsuite::all() {
            stream += 1;
            let core = benchmark.fpcore();
            // Benchmarks using operators the target lacks are skipped, like
            // everywhere else in the harness.
            let Ok(program) = lower_fpcore(&core, target) else {
                continue;
            };
            let (case, diverged) = measure(
                target,
                target_name,
                benchmark.name,
                &program,
                &options,
                stream,
            );
            mismatches += diverged;
            cases.push(case);
        }
    }

    if cases.is_empty() {
        eprintln!("error: no benchmark lowered onto any target");
        std::process::exit(1);
    }
    let totals = Totals::compute(&options, &cases);
    let per_target = per_target_block_pps(&options, &cases, &totals);
    let op_kernels = bench_op_kernels(&options);
    let mut history = prior_history(&options.out);
    history.push(history_entry(&options, cases.len(), &totals, &per_target));

    println!(
        "eval_throughput: {} cases ({} benchmarks x {} targets reachable), {} points each",
        cases.len(),
        benchsuite::all().len(),
        TARGETS.len(),
        options.points
    );
    for target_name in TARGETS {
        let subset: Vec<&Case> = cases.iter().filter(|c| c.target == *target_name).collect();
        if subset.is_empty() {
            continue;
        }
        let pts = (subset.len() * options.points) as f64;
        let interp: f64 = subset.iter().map(|c| c.interp_best.as_secs_f64()).sum();
        let byte: f64 = subset.iter().map(|c| c.bytecode_best.as_secs_f64()).sum();
        let block: f64 = subset
            .iter()
            .map(|c| c.block_best[totals.chosen].as_secs_f64())
            .sum();
        println!(
            "  {target_name:>10}: tree-walk {:>12.0} pts/s | bytecode {:>12.0} pts/s | \
             block {:>12.0} pts/s | {:>5.2}x / {:>5.2}x ({} cases)",
            pts / interp,
            pts / byte,
            pts / block,
            interp / byte,
            pts / block / (pts / interp),
            subset.len()
        );
    }
    println!("  block-size sweep (corpus aggregate):");
    for (size, pps) in options.block_sizes.iter().zip(&totals.block_pps) {
        let label = if *size == 0 {
            "whole-batch".to_owned()
        } else {
            size.to_string()
        };
        let chosen = if options.block_sizes[totals.chosen] == *size {
            "  <- chosen"
        } else {
            ""
        };
        println!("  {label:>12}: {pps:>12.0} pts/s{chosen}");
    }
    println!(
        "  {:>10}: tree-walk {:>12.0} pts/s | bytecode {:>12.0} pts/s | block {:>12.0} pts/s",
        "TOTAL", totals.interp_pps, totals.bytecode_pps, totals.block_pps[totals.chosen]
    );
    println!(
        "  speedups: bytecode/tree-walk {:.2}x | block/bytecode {:.2}x | block/tree-walk {:.2}x",
        totals.bytecode_speedup(),
        totals.block_speedup(),
        totals.block_pps[totals.chosen] / totals.interp_pps
    );
    let sum = |f: fn(&Case) -> usize| -> usize { cases.iter().map(f).sum() };
    println!(
        "  ir: {} -> {} register-slab rows (compaction)",
        sum(|c| c.regs),
        sum(|c| c.regs_opt)
    );
    println!("  math-kernel sweeps (corpus input distribution, per operator):");
    for k in &op_kernels {
        println!(
            "  {:>10}: vecmath {:>12.0} pts/s | libm {:>12.0} pts/s | {:>5.2}x",
            k.name,
            k.vecmath_pps,
            k.libm_pps,
            k.vecmath_pps / k.libm_pps
        );
    }

    let json = to_json(
        &options,
        &cases,
        &totals,
        &per_target,
        &op_kernels,
        &history,
    );
    if let Err(e) = std::fs::write(&options.out, &json) {
        eprintln!("error: cannot write {}: {e}", options.out);
        std::process::exit(1);
    }
    println!("wrote {}", options.out);

    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} point(s) diverged across the engines");
        std::process::exit(1);
    }
    println!("bit-identity: OK (every point, every case, every engine and block size)");

    if options.min_speedup > 0.0 && totals.bytecode_speedup() < options.min_speedup {
        eprintln!(
            "FAIL: corpus-wide bytecode speedup {:.2}x is below the gate ({:.2}x)",
            totals.bytecode_speedup(),
            options.min_speedup
        );
        std::process::exit(1);
    }
    if options.min_block_speedup > 0.0 && totals.block_speedup() < options.min_block_speedup {
        eprintln!(
            "FAIL: corpus-wide block/bytecode speedup {:.2}x is below the gate ({:.2}x)",
            totals.block_speedup(),
            options.min_block_speedup
        );
        std::process::exit(1);
    }
    for (name, floor) in &options.min_target_pps {
        let Some((_, pps)) = per_target.iter().find(|(n, _)| n == name) else {
            eprintln!("FAIL: --min-target-pps names unknown target {name:?}");
            std::process::exit(2);
        };
        if pps < floor {
            eprintln!(
                "FAIL: {name} block aggregate {pps:.0} pts/s is below the floor ({floor:.0})"
            );
            std::process::exit(1);
        }
    }
    if !options.min_target_rel.is_empty() {
        let yardstick = libm_geomean_pps(&op_kernels);
        println!(
            "  relative gate yardstick: libm kernel-sweep geomean {yardstick:.0} pts/s (same run)"
        );
        for (name, ratio) in &options.min_target_rel {
            let Some((_, pps)) = per_target.iter().find(|(n, _)| n == name) else {
                eprintln!("FAIL: --min-target-rel names unknown target {name:?}");
                std::process::exit(2);
            };
            let achieved = pps / yardstick;
            if achieved < *ratio {
                eprintln!(
                    "FAIL: {name} block aggregate {pps:.0} pts/s is {achieved:.2}x the libm \
                     kernel geomean, below the relative floor ({ratio:.2}x)"
                );
                std::process::exit(1);
            }
            println!("  {name}: {achieved:.2}x the libm kernel geomean (floor {ratio:.2}x) OK");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = list.iter().map(|s| (*s).to_owned()).collect();
        Options::parse(&args)
    }

    #[test]
    fn ci_flags_parse() {
        let options = parse(&[
            "--points",
            "2048",
            "--repeats",
            "5",
            "--block-sizes",
            "8,64,256,0",
            "--min-speedup",
            "3.0",
            "--min-block-speedup",
            "1.0",
            "--min-target-rel",
            "c99=1.7,vdt=1.7",
            "--out",
            "out.json",
        ])
        .unwrap();
        assert_eq!((options.points, options.repeats), (2048, 5));
        assert_eq!(options.block_sizes, vec![8, 64, 256, 0]);
        assert_eq!((options.min_speedup, options.min_block_speedup), (3.0, 1.0));
        let rel = vec![("c99".to_owned(), 1.7), ("vdt".to_owned(), 1.7)];
        assert_eq!(options.min_target_rel, rel);
        assert!(options.min_target_pps.is_empty());
        assert_eq!(options.out, "out.json");
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.seed, defaults.min_speedup), (SEED, 0.0));
    }

    #[test]
    fn bad_flags_are_errors() {
        for bad in [
            &["--min-speedpu", "3"][..],
            &["--min-speedup"],
            &["--min-speedup", "fast"],
            &["--block-sizes", "8,x"],
            &["--min-target-rel", "c99"],
            &["--min-target-rel", "c99=high"],
            // Harness flags this binary does not take.
            &["--limit", "4"],
            &["--full"],
            &["--thorough"],
            // A repeated floor must not silently keep only its last value.
            &["--min-target-rel", "c99=1.7", "--min-target-rel", "vdt=1.7"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
