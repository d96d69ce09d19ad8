//! Static analysis over compiled [`Program`]s: verification, liveness, and
//! a bit-identity-preserving rewrite.
//!
//! The whole evaluation pipeline rests on one artifact — the flat
//! register-machine [`Program`] — executed by three engines that must agree
//! bit for bit (tree walk, scalar bytecode, SoA block engine). This module is
//! the corresponding correctness backbone:
//!
//! * [`verify`](mod@verify) — a total check of every IR invariant (register
//!   discipline, bounds, sweep/scalar pairing), run
//!   automatically after every [`crate::compile()`] in debug builds, on every
//!   final implementation a compile hands out, and over the full benchmark
//!   corpus in CI (`lint_ir`);
//! * [`liveness`](mod@liveness) — backward live-register analysis, one sweep
//!   over the jump-free program;
//! * [`compact`] — liveness-driven register renumbering that shrinks the
//!   register slab (the block engine's working set) while preserving the
//!   `dst > operands` discipline the slab split depends on;
//! * [`mutate`] — a seeded invariant-breaking mutation harness that tests
//!   the *verifier's* power: every mutant must be rejected.
//!
//! [`compact`] is a pure renaming that preserves value flow (see its proof
//! sketch), so the optimized program is bit-identical to the compiled one.
//! The `tests/analysis.rs` suite asserts this corpus-wide across all three
//! engines at several block widths.
//!
//! The documented IR grammar and the full invariant list live in
//! `docs/PROGRAM_IR.md`.

pub mod compact;
pub mod liveness;
pub mod mutate;
pub mod verify;

pub use compact::{compact_registers, CompactStats};
pub use liveness::{liveness, Liveness};
pub use mutate::{seeded_mutants, Mutant, MutationKind};
pub use verify::{verify, verify_target, verify_with_target, Mode, Violation};

use crate::compile::Program;

/// The optimization pipeline: liveness-driven register compaction, with the
/// verifier re-run in debug builds.
///
/// The result is bit-identical to the input program on every input
/// (including NaN) — compaction only renames registers — but occupies a
/// smaller register slab, which is the block engine's per-worker working
/// set.
pub fn optimize(program: &Program) -> (Program, CompactStats) {
    let (compacted, stats) = compact_registers(program);
    debug_assert!(
        verify(&compacted, Mode::Executable).is_empty(),
        "register compaction broke an IR invariant:\n{}",
        verify::render(&verify(&compacted, Mode::Executable)),
    );
    (compacted, stats)
}
