//! `lint_ir` — the corpus-wide IR lint gate.
//!
//! Exercises the `targets::analysis` verifier over every (benchmark ×
//! builtin target) pair that lowers, plus a per-target sweep of every native
//! operator, and exits nonzero on **any** diagnostic:
//!
//! 1. every builtin target description must verify
//!    ([`analysis::verify_target`]);
//! 2. every compiled program must verify in SSA mode (with the
//!    target-pairing rules), and its optimized form (register compaction)
//!    must verify in executable mode;
//! 3. every seeded invariant-breaking mutant of every compiled program must
//!    be *rejected* by the verifier — one surviving mutant is a verifier
//!    hole — and every [`MutationKind`] must fire somewhere in the suite;
//! 4. as a by-product, prints the register-slab height compaction saved.
//!
//! The suite is the benchmark corpus, a few branch-heavy synthetic cases
//! (no corpus benchmark contains an `if`, so without them no `Select` would
//! reach the verifier or the mutation harness), and one single-call program
//! per native operator of every target (which exercises the sweep/scalar
//! pairing rules and the plain-call instruction form that direct lowering
//! never emits).
//!
//! Usage: `lint_ir [--seed N]` (the seed only scatters mutation sites; any
//! seed must produce only rejected mutants, so CI failures reproduce locally
//! with the seed printed in the report).
//!
//! Run in release: the per-compile debug verify hook would turn corpus
//! violations into panics instead of collected diagnostics.

use chassis::lower_fpcore;
use fpcore::Symbol;
use std::collections::HashSet;
use targets::analysis::{self, Mode, MutationKind};
use targets::{builtin, FloatExpr, OpId, Program, Target};

/// Branch-heavy synthetic cases that complement the corpus: the corpus
/// benchmarks are straight-line (their preconditions carry the branching),
/// so without these no `Select` would be verified or mutated.
const SYNTHETIC: &[(&str, &str)] = &[
    (
        "branchy-exp",
        "(FPCore (x) :pre (and (> x -10) (< x 10)) (if (< x 0) (exp x) (* x x)))",
    ),
    (
        "nested-branches",
        "(FPCore (x y) (if (< x y) (if (< x 0) (- y x) (+ x y)) (sqrt (- x y))))",
    ),
    (
        "guarded-log",
        "(FPCore (x) :pre (> x 1e-6) (if (< x 1) (log1p x) (log x)))",
    ),
    (
        "pow-or-hypot",
        "(FPCore (x y) (if (> x 0) (pow x y) (hypot x y)))",
    ),
];

#[derive(Default)]
struct Lint {
    seed: u64,
    diagnostics: usize,
    cases: usize,
    regs_before: usize,
    regs_after: usize,
    mutants_total: usize,
    mutants_killed: usize,
    kinds_killed: HashSet<MutationKind>,
}

impl Lint {
    fn report(&mut self, context: &str, violations: &[analysis::Violation]) {
        if !violations.is_empty() {
            self.diagnostics += violations.len();
            eprintln!("FAIL {context}:");
            for v in violations {
                eprintln!("  {v}");
            }
        }
    }

    /// Verifies one compiled program in both modes, accumulates compaction
    /// statistics, and runs the mutation kill-check on it.
    fn check_program(&mut self, case: &str, target: &Target, program: &Program) {
        self.cases += 1;
        self.report(
            &format!("{case} (fresh compile, SSA mode)"),
            &analysis::verify_with_target(program, target, Mode::Ssa),
        );
        let (optimized, stats) = analysis::optimize(program);
        self.report(
            &format!("{case} (optimized, executable mode)"),
            &analysis::verify_with_target(&optimized, target, Mode::Executable),
        );
        self.regs_before += stats.regs_before;
        self.regs_after += stats.regs_after;

        // The mutation kill-check: every invariant-breaking mutant must be
        // rejected. The per-case seed is derived so failures name it.
        let case_seed = self
            .seed
            .wrapping_add((self.cases as u64).wrapping_mul(0x9e3779b97f4a7c15));
        for mutant in analysis::seeded_mutants(program, case_seed) {
            self.mutants_total += 1;
            if analysis::verify(&mutant.program, Mode::Ssa).is_empty() {
                self.diagnostics += 1;
                eprintln!(
                    "FAIL {case}: mutant {:?} survived verification (seed {case_seed}: {})",
                    mutant.kind, mutant.description
                );
            } else {
                self.mutants_killed += 1;
                self.kinds_killed.insert(mutant.kind);
            }
        }
    }
}

fn main() {
    let mut lint = Lint {
        seed: 0x1a2b3c4d5e6f7788,
        ..Lint::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let value = it.next().unwrap_or_else(|| {
                    eprintln!("lint_ir: --seed needs a value");
                    std::process::exit(2);
                });
                lint.seed = value.parse().unwrap_or_else(|_| {
                    eprintln!("lint_ir: bad seed {value:?}");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("lint_ir: unknown argument {other:?} (usage: lint_ir [--seed N])");
                std::process::exit(2);
            }
        }
    }

    let targets = builtin::all_targets();
    for target in &targets {
        let violations = analysis::verify_target(target);
        lint.report(&format!("target description {}", target.name), &violations);
    }

    let mut suite: Vec<(String, fpcore::FPCore)> = chassis_bench::named_corpus_cores();
    for (name, source) in SYNTHETIC {
        // A broken synthetic case is a diagnostic like any other lint
        // failure: report it and keep linting the rest of the suite.
        match fpcore::parse_fpcore(source) {
            Ok(core) => suite.push((format!("synthetic:{name}"), core)),
            Err(e) => {
                eprintln!("FAIL synthetic case {name} does not parse: {e}");
                lint.diagnostics += 1;
            }
        }
    }

    for target in &targets {
        for (name, core) in &suite {
            // Benchmarks using operators the target lacks are skipped, like
            // everywhere else in the harness.
            let Ok(expr) = lower_fpcore(core, target) else {
                continue;
            };
            let case = format!("{name} on {}", target.name);
            let program = targets::compile(target, &expr);
            lint.check_program(&case, target, &program);
        }

        // One single-call program per native operator: exercises the
        // sweep/scalar pairing rules and the plain-call instruction form,
        // which direct lowering of the corpus never emits (those operators
        // are only reachable through instruction selection).
        for (index, op) in target.operators.iter().enumerate() {
            if !op.is_linked() {
                continue;
            }
            let args: Vec<FloatExpr> = op
                .arg_types
                .iter()
                .enumerate()
                .map(|(i, &ty)| FloatExpr::Var(Symbol::new(&format!("v{i}")), ty))
                .collect();
            let expr = FloatExpr::Op(OpId(index as u32), args);
            let case = format!("operator {} on {}", op.name, target.name);
            let program = targets::compile(target, &expr);
            lint.check_program(&case, target, &program);
        }
    }

    for kind in MutationKind::ALL {
        if !lint.kinds_killed.contains(kind) {
            eprintln!("FAIL mutation kind {kind:?} never applied to any suite program");
            lint.diagnostics += 1;
        }
    }

    println!(
        "lint_ir: {} programs verified over {} targets, seed {:#x}",
        lint.cases,
        targets.len(),
        lint.seed
    );
    println!(
        "  optimize: {} -> {} register-slab rows (compaction)",
        lint.regs_before, lint.regs_after
    );
    println!(
        "  mutation: {}/{} mutants rejected, {}/{} kinds exercised",
        lint.mutants_killed,
        lint.mutants_total,
        lint.kinds_killed.len(),
        MutationKind::ALL.len()
    );
    if lint.diagnostics > 0 {
        eprintln!("lint_ir: {} diagnostics", lint.diagnostics);
        std::process::exit(1);
    }
    println!("lint_ir: clean");
}
