//! Seeded invariant-breaking mutations — the test harness for the
//! [verifier](mod@crate::analysis::verify)'s rejection power.
//!
//! Each [`MutationKind`] applies one minimal, targeted edit that genuinely
//! breaks a specific IR invariant (never an edit that could accidentally
//! produce another valid program): the contract is that
//! [`verify`](crate::analysis::verify::verify) under
//! [`Mode::Ssa`](crate::analysis::verify::Mode::Ssa) must reject **every** mutant this
//! module produces. A mutation kind that does not apply to a given program
//! (no calls to corrupt, no constants to overwrite) produces no mutant for
//! it; the corpus-wide lint (`lint_ir`) additionally asserts that every kind
//! fires on *some* program of its suite, so no rule goes untested.
//!
//! Mutation sites are chosen with a seeded [SplitMix64] generator so runs
//! are reproducible and CI failures can be replayed locally from the
//! reported seed.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use crate::compile::{Instr, Program};

/// The invariant-breaking edits the harness knows, each matched to the
/// verifier rule expected to reject it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MutationKind {
    /// An instruction reads its own destination (`operand-order`).
    OperandSelfRead,
    /// An operand register beyond `n_regs` (`operand-bounds`).
    OperandOutOfBounds,
    /// An operand referencing a later instruction's destination
    /// (`use-before-def`).
    ForwardOperand,
    /// Two instructions writing the same register (`write-once`).
    DuplicateDst,
    /// An instruction overwriting a constant slot (`const-written`).
    DstIntoConst,
    /// An instruction overwriting a variable slot (`var-written`).
    DstIntoVar,
    /// A result register beyond `n_regs` (`result-bounds`).
    ResultOutOfBounds,
    /// A constant slot beyond `n_regs` (`const-bounds`).
    ConstRegOutOfBounds,
    /// A variable slot beyond `n_regs` (`var-bounds`).
    VarRegOutOfBounds,
    /// A variable sharing a constant's register (`slot-overlap`).
    VarAliasesConst,
    /// An argument-pool entry beyond `n_regs` (`operand-bounds`).
    ArgPoolRegOutOfBounds,
    /// A call's argument range overrunning the pool (`call-pool`).
    CallRangeOverrun,
    /// A call arity beyond the evaluator maximum (`call-arity`).
    CallArityOverflow,
}

impl MutationKind {
    /// Every kind, for coverage accounting.
    pub const ALL: &'static [MutationKind] = &[
        MutationKind::OperandSelfRead,
        MutationKind::OperandOutOfBounds,
        MutationKind::ForwardOperand,
        MutationKind::DuplicateDst,
        MutationKind::DstIntoConst,
        MutationKind::DstIntoVar,
        MutationKind::ResultOutOfBounds,
        MutationKind::ConstRegOutOfBounds,
        MutationKind::VarRegOutOfBounds,
        MutationKind::VarAliasesConst,
        MutationKind::ArgPoolRegOutOfBounds,
        MutationKind::CallRangeOverrun,
        MutationKind::CallArityOverflow,
    ];
}

/// One mutated program and the edit that produced it.
#[derive(Clone, Debug)]
pub struct Mutant {
    /// The invariant-breaking edit applied.
    pub kind: MutationKind,
    /// The mutated program (the input is never modified).
    pub program: Program,
    /// What exactly was edited, for failure reports.
    pub description: String,
}

/// SplitMix64: tiny, seedable, and good enough to scatter mutation sites.
/// Local on purpose — `targets` sits below the crates that own shared RNG
/// utilities, and the harness only needs site selection.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish index into `0..n` (`n > 0`).
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Sets the first operand-like register of `instr` (for plain calls: its
/// first pool entry) to `reg`. Returns a short description of the edit.
fn corrupt_first_operand(instr: &mut Instr, arg_pool: &mut [u32], reg: u32) -> String {
    match instr {
        Instr::Un { a, .. }
        | Instr::Round32 { a, .. }
        | Instr::CallUn { a, .. }
        | Instr::Bin { a, .. }
        | Instr::CallBin { a, .. }
        | Instr::Tern { a, .. } => {
            let was = *a;
            *a = reg;
            format!("operand a: r{was} -> r{reg}")
        }
        Instr::Select { c, .. } => {
            let was = *c;
            *c = reg;
            format!("select condition: r{was} -> r{reg}")
        }
        Instr::Call { first, .. } => {
            let was = arg_pool[*first as usize];
            arg_pool[*first as usize] = reg;
            format!("arg_pool[{first}]: r{was} -> r{reg}")
        }
    }
}

/// Overwrites the destination field of `instr`.
fn set_dst(instr: &mut Instr, reg: u32) {
    match instr {
        Instr::Un { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Tern { dst, .. }
        | Instr::Round32 { dst, .. }
        | Instr::Select { dst, .. }
        | Instr::Call { dst, .. }
        | Instr::CallUn { dst, .. }
        | Instr::CallBin { dst, .. } => *dst = reg,
    }
}

/// Produces one mutant per applicable [`MutationKind`], choosing mutation
/// sites with the seeded generator. Every returned program violates at least
/// one invariant; the verifier must reject them all.
pub fn seeded_mutants(program: &Program, seed: u64) -> Vec<Mutant> {
    let mut rng = SplitMix64(seed);
    let mut out = Vec::new();
    let n = program.instrs.len();
    let n_regs = program.n_regs as u32;
    let mut emit = |kind: MutationKind, edit: &dyn Fn(&mut Program) -> String| {
        let mut p = program.clone();
        let description = edit(&mut p);
        out.push(Mutant {
            kind,
            program: p,
            description,
        });
    };

    if n > 0 {
        let i = rng.pick(n);
        emit(MutationKind::OperandSelfRead, &|p: &mut Program| {
            let dst = p.instrs[i].dst();
            let (instrs, pool) = (&mut p.instrs, &mut p.arg_pool);
            format!(
                "instr {i}: {}",
                corrupt_first_operand(&mut instrs[i], pool, dst)
            )
        });
        let i = rng.pick(n);
        emit(MutationKind::OperandOutOfBounds, &|p: &mut Program| {
            let (instrs, pool) = (&mut p.instrs, &mut p.arg_pool);
            format!(
                "instr {i}: {}",
                corrupt_first_operand(&mut instrs[i], pool, n_regs + 7)
            )
        });
    }
    if n >= 2 {
        let i = rng.pick(n - 1);
        emit(MutationKind::ForwardOperand, &|p: &mut Program| {
            let later = p.instrs[n - 1].dst();
            let (instrs, pool) = (&mut p.instrs, &mut p.arg_pool);
            format!(
                "instr {i}: {}",
                corrupt_first_operand(&mut instrs[i], pool, later)
            )
        });
        let i = 1 + rng.pick(n - 1);
        emit(MutationKind::DuplicateDst, &|p: &mut Program| {
            let prev = p.instrs[i - 1].dst();
            set_dst(&mut p.instrs[i], prev);
            format!("instr {i}: dst -> r{prev} (same as instr {})", i - 1)
        });
    }
    if n > 0 && !program.consts.is_empty() {
        let i = rng.pick(n);
        let c = rng.pick(program.consts.len());
        emit(MutationKind::DstIntoConst, &|p: &mut Program| {
            let reg = p.consts[c].0;
            set_dst(&mut p.instrs[i], reg);
            format!("instr {i}: dst -> constant slot r{reg}")
        });
    }
    if n > 0 && !program.vars.is_empty() {
        let i = rng.pick(n);
        let v = rng.pick(program.vars.len());
        emit(MutationKind::DstIntoVar, &|p: &mut Program| {
            let reg = p.vars[v].0;
            set_dst(&mut p.instrs[i], reg);
            format!("instr {i}: dst -> variable slot r{reg}")
        });
    }
    emit(MutationKind::ResultOutOfBounds, &|p: &mut Program| {
        p.result = n_regs + 1;
        format!("result -> r{} (out of bounds)", n_regs + 1)
    });
    if !program.consts.is_empty() {
        let c = rng.pick(program.consts.len());
        emit(MutationKind::ConstRegOutOfBounds, &|p: &mut Program| {
            p.consts[c].0 = n_regs + 2;
            format!("constant {c} slot -> r{} (out of bounds)", n_regs + 2)
        });
    }
    if !program.vars.is_empty() {
        let v = rng.pick(program.vars.len());
        emit(MutationKind::VarRegOutOfBounds, &|p: &mut Program| {
            p.vars[v].0 = n_regs + 3;
            format!("variable {v} slot -> r{} (out of bounds)", n_regs + 3)
        });
        if !program.consts.is_empty() {
            let c = rng.pick(program.consts.len());
            emit(MutationKind::VarAliasesConst, &|p: &mut Program| {
                let reg = p.consts[c].0;
                p.vars[v].0 = reg;
                format!("variable {v} slot -> r{reg} (aliases constant {c})")
            });
        }
    }
    let calls: Vec<usize> = program
        .instrs
        .iter()
        .enumerate()
        .filter(|(_, instr)| matches!(instr, Instr::Call { .. }))
        .map(|(i, _)| i)
        .collect();
    if !calls.is_empty() {
        let i = calls[rng.pick(calls.len())];
        emit(MutationKind::ArgPoolRegOutOfBounds, &|p: &mut Program| {
            let Instr::Call { first, .. } = p.instrs[i] else {
                unreachable!()
            };
            p.arg_pool[first as usize] = n_regs + 4;
            format!("arg_pool[{first}] -> r{} (out of bounds)", n_regs + 4)
        });
        let i = calls[rng.pick(calls.len())];
        emit(MutationKind::CallRangeOverrun, &|p: &mut Program| {
            let pool_len = p.arg_pool.len() as u32;
            let Instr::Call { first, .. } = &mut p.instrs[i] else {
                unreachable!()
            };
            *first = pool_len;
            format!("instr {i}: call first -> {pool_len} (overruns the pool)")
        });
        let i = calls[rng.pick(calls.len())];
        emit(MutationKind::CallArityOverflow, &|p: &mut Program| {
            let Instr::Call { arity, .. } = &mut p.instrs[i] else {
                unreachable!()
            };
            *arity = crate::compile::MAX_CALL_ARITY as u32 + 1;
            format!("instr {i}: call arity -> {} (over the maximum)", *arity)
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::verify::{verify, Mode};
    use crate::expr::FloatExpr;
    use crate::operator::Operator;
    use crate::target::Target;
    use fpcore::FpType::Binary64;
    use fpcore::{RealOp, Symbol};
    use std::collections::HashSet;

    /// A program with a select, calls, constants, and several instructions
    /// — applicable to most mutation kinds.
    fn rich_program() -> Program {
        fn host_exp(args: &[f64]) -> f64 {
            args[0].exp()
        }
        let t = Target::new("t", "test").with_operators(vec![
            Operator::emulated("+.f64", &[Binary64, Binary64], Binary64, "(+ a0 a1)", 1.0),
            Operator::native("exp.f64", &[Binary64], Binary64, "(exp a0)", 40.0, host_exp),
        ]);
        let add = t.find_operator("+.f64").unwrap();
        let exp = t.find_operator("exp.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), Binary64);
        let expr = FloatExpr::If(
            Box::new(FloatExpr::Cmp(
                RealOp::Lt,
                Box::new(x.clone()),
                Box::new(FloatExpr::literal(0.0, Binary64)),
            )),
            Box::new(FloatExpr::Op(exp, vec![x.clone()])),
            Box::new(FloatExpr::Op(add, vec![x.clone(), x])),
        );
        crate::compile::compile(&t, &expr)
    }

    #[test]
    fn every_mutant_is_rejected() {
        let p = rich_program();
        for seed in 0..16 {
            for mutant in seeded_mutants(&p, seed) {
                let violations = verify(&mutant.program, Mode::Ssa);
                assert!(
                    !violations.is_empty(),
                    "seed {seed}: {:?} survived ({})",
                    mutant.kind,
                    mutant.description
                );
            }
        }
    }

    #[test]
    fn rich_programs_exercise_most_kinds() {
        let p = rich_program();
        let kinds: HashSet<MutationKind> =
            seeded_mutants(&p, 7).into_iter().map(|m| m.kind).collect();
        assert!(
            kinds.len() >= 10,
            "only {} kinds applied: {kinds:?}",
            kinds.len()
        );
    }

    #[test]
    fn mutants_are_reproducible() {
        let p = rich_program();
        let a: Vec<String> = seeded_mutants(&p, 42)
            .into_iter()
            .map(|m| m.description)
            .collect();
        let b: Vec<String> = seeded_mutants(&p, 42)
            .into_iter()
            .map(|m| m.description)
            .collect();
        assert_eq!(a, b);
    }
}
