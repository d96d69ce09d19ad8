//! The IR verifier: a total check of every [`Program`] invariant.
//!
//! The verifier is the single source of truth for what a well-formed program
//! is (the scattered `debug_assert`s it replaced are gone). It is *total* —
//! it never panics on malformed input, it reports — and designed for **no
//! false negatives**: every invariant an engine depends on corresponds to a
//! rule here, and the seeded mutation harness
//! ([`crate::analysis::mutate`]) asserts that breaking any of them is
//! caught. The full invariant list, with rationale, is specified in
//! `docs/PROGRAM_IR.md`.
//!
//! Two modes cover the IR's two lifecycle stages:
//!
//! * [`Mode::Ssa`] — fresh compiles: write-once registers and strictly
//!   increasing destinations, on top of everything executable mode checks;
//! * [`Mode::Executable`] — what every engine actually requires, without
//!   assuming write-once: defined-before-use, `dst` strictly above operands
//!   (the block engine's slab split), constants never overwritten, bounds.
//!   Compacted programs verify in this mode (see
//!   [`crate::analysis::compact`]).
//!
//! [`verify_with_target`] adds the sweep/scalar pairing rules (a program's
//! call instructions must agree with the target's registered operators), and
//! [`verify_target`] checks a target description itself.

use crate::compile::{Instr, Program, MAX_CALL_ARITY};
use crate::operator::{arg_symbol, Impl, SweepImpl, MAX_ARITY};
use crate::target::Target;
use fpcore::Expr;
use std::fmt;

/// Which invariant family to check (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Write-once SSA (fresh compiles).
    Ssa,
    /// What the engines require, allowing register reuse (post-compaction).
    Executable,
}

/// One broken invariant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Stable rule identifier (kebab-case), e.g. `operand-order`.
    pub rule: &'static str,
    /// Instruction index the violation anchors to, when applicable.
    pub at: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(i) => write!(f, "[{}] at instr {}: {}", self.rule, i, self.message),
            None => write!(f, "[{}] {}", self.rule, self.message),
        }
    }
}

/// Renders a violation list one per line (for panics and lint output).
pub fn render(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(std::string::ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

struct Check<'p> {
    program: &'p Program,
    mode: Mode,
    out: Vec<Violation>,
}

impl<'p> Check<'p> {
    fn push(&mut self, rule: &'static str, at: Option<usize>, message: String) {
        self.out.push(Violation { rule, at, message });
    }

    fn n_regs(&self) -> u32 {
        self.program.n_regs as u32
    }

    /// Register-table rules: constant/variable slots in bounds, all slots
    /// pairwise distinct (a register is a constant, a variable, or an
    /// instruction output — never two of those).
    fn check_slots(&mut self) {
        let mut seen: Vec<(u32, &'static str)> = Vec::new();
        for &(reg, value) in &self.program.consts {
            if reg >= self.n_regs() {
                self.push(
                    "const-bounds",
                    None,
                    format!("constant {value} uses register {reg} >= n_regs"),
                );
            }
            seen.push((reg, "constant"));
        }
        for &(reg, sym) in &self.program.vars {
            if reg >= self.n_regs() {
                self.push(
                    "var-bounds",
                    None,
                    format!("variable {sym} uses register {reg} >= n_regs"),
                );
            }
            seen.push((reg, "variable"));
        }
        seen.sort_unstable();
        for pair in seen.windows(2) {
            if pair[0].0 == pair[1].0 {
                self.push(
                    "slot-overlap",
                    None,
                    format!(
                        "register {} is both a {} and a {} slot",
                        pair[0].0, pair[0].1, pair[1].1
                    ),
                );
            }
        }
    }

    /// Per-instruction register discipline: operand/destination bounds,
    /// defined-before-use, `dst` strictly above every operand, constants
    /// (and, in SSA mode, variables and earlier destinations) never
    /// overwritten, call pool ranges and arities well-formed.
    fn check_instrs(&mut self) {
        let n_regs = self.n_regs();
        let mut defined = vec![false; self.program.n_regs];
        let mut is_const = vec![false; self.program.n_regs];
        let mut is_var = vec![false; self.program.n_regs];
        for &(reg, _) in &self.program.consts {
            if let Some(slot) = defined.get_mut(reg as usize) {
                *slot = true;
                is_const[reg as usize] = true;
            }
        }
        for &(reg, _) in &self.program.vars {
            if let Some(slot) = defined.get_mut(reg as usize) {
                *slot = true;
                is_var[reg as usize] = true;
            }
        }
        let mut written = vec![false; self.program.n_regs];
        let mut prev_dst: Option<u32> = None;
        for (i, instr) in self.program.instrs.iter().enumerate() {
            let dst = instr.dst();
            if let Instr::Call { first, arity, .. } = *instr {
                if arity as usize > MAX_CALL_ARITY {
                    self.push(
                        "call-arity",
                        Some(i),
                        format!(
                            "call arity {arity} exceeds the evaluator maximum {MAX_CALL_ARITY}"
                        ),
                    );
                }
                if (first as usize) > self.program.arg_pool.len()
                    || (first as usize) + (arity as usize) > self.program.arg_pool.len()
                {
                    self.push(
                        "call-pool",
                        Some(i),
                        format!(
                            "call argument range {first}..{} overruns the pool (len {})",
                            first + arity,
                            self.program.arg_pool.len()
                        ),
                    );
                    // The operand checks below would index out of the pool.
                    continue;
                }
            }
            let mut reads: Vec<u32> = Vec::new();
            instr.for_each_read(&self.program.arg_pool, |reg| reads.push(reg));
            for &reg in &reads {
                if reg >= n_regs {
                    self.push(
                        "operand-bounds",
                        Some(i),
                        format!("reads register {reg} >= n_regs ({n_regs})"),
                    );
                } else if !defined[reg as usize] {
                    self.push(
                        "use-before-def",
                        Some(i),
                        format!("reads register {reg} before any definition"),
                    );
                }
                if reg >= dst {
                    self.push(
                        "operand-order",
                        Some(i),
                        format!(
                            "reads register {reg} not strictly below its destination {dst} \
                             (the block engine's slab split requires dst > operands)"
                        ),
                    );
                }
            }
            if dst >= n_regs {
                self.push(
                    "dst-bounds",
                    Some(i),
                    format!("writes register {dst} >= n_regs ({n_regs})"),
                );
                continue;
            }
            if is_const[dst as usize] {
                self.push(
                    "const-written",
                    Some(i),
                    format!("writes constant-pool register {dst} (constants are broadcast once and never rewritten)"),
                );
            }
            if self.mode == Mode::Ssa {
                if is_var[dst as usize] {
                    self.push(
                        "var-written",
                        Some(i),
                        format!("writes variable register {dst} (SSA programs write only fresh registers)"),
                    );
                }
                if written[dst as usize] {
                    self.push(
                        "write-once",
                        Some(i),
                        format!("register {dst} is written more than once"),
                    );
                }
                if let Some(prev) = prev_dst {
                    if dst <= prev {
                        self.push(
                            "dst-monotone",
                            Some(i),
                            format!("destination {dst} does not increase over the previous {prev}"),
                        );
                    }
                }
            }
            written[dst as usize] = true;
            defined[dst as usize] = true;
            prev_dst = Some(prev_dst.map_or(dst, |p: u32| p.max(dst)));
        }
        if self.program.result >= n_regs {
            self.push(
                "result-bounds",
                None,
                format!(
                    "result register {} >= n_regs ({n_regs})",
                    self.program.result
                ),
            );
        } else if !defined[self.program.result as usize] {
            self.push(
                "result-defined",
                None,
                format!("result register {} is never defined", self.program.result),
            );
        }
    }
}

/// Verifies every program invariant under `mode`, returning all violations
/// (empty means the program is well-formed). Never panics on malformed
/// input.
pub fn verify(program: &Program, mode: Mode) -> Vec<Violation> {
    let mut check = Check {
        program,
        mode,
        out: Vec::new(),
    };
    check.check_slots();
    check.check_instrs();
    check.out
}

/// [`verify`] plus the sweep/scalar pairing rules against `target`: every
/// call instruction must carry the function (and sweep form) of an operator
/// the target registered, and operators with a registered sweep must not
/// compile to plain calls at the matching arity.
pub fn verify_with_target(program: &Program, target: &Target, mode: Mode) -> Vec<Violation> {
    /// A registered native operator: `(name, scalar fn, arity, sweep form)`.
    type NativeRow<'a> = (&'a str, fn(&[f64]) -> f64, usize, Option<SweepImpl>);
    let mut out = verify(program, mode);
    let natives: Vec<NativeRow> = target
        .operators
        .iter()
        .filter_map(|op| match op.implementation {
            Impl::Native(f) => Some((op.name.as_str(), f, op.arity(), op.sweep)),
            Impl::Emulated => None,
        })
        .collect();
    for (i, instr) in program.instrs.iter().enumerate() {
        match *instr {
            Instr::Call { fun, arity, .. } => {
                let matched = natives
                    .iter()
                    .find(|(_, f, a, _)| *f as usize == fun as usize && *a == arity as usize);
                match matched {
                    None => out.push(Violation {
                        rule: "call-pairing",
                        at: Some(i),
                        message: format!(
                            "call does not match any native operator of target {} at arity {arity}",
                            target.name
                        ),
                    }),
                    Some((name, _, _, Some(sweep))) => {
                        let has_matching_form = matches!(
                            (sweep, arity),
                            (SweepImpl::Un(_), 1) | (SweepImpl::Bin(_), 2)
                        );
                        if has_matching_form {
                            out.push(Violation {
                                rule: "call-missing-sweep",
                                at: Some(i),
                                message: format!(
                                    "native operator {name} has a registered sweep form but \
                                     compiled to a plain call (the block engine would run it \
                                     lane by lane)"
                                ),
                            });
                        }
                    }
                    Some(_) => {}
                }
            }
            Instr::CallUn { fun, sweep, .. } => {
                let ok = natives.iter().any(|(_, f, a, sw)| {
                    *f as usize == fun as usize
                        && *a == 1
                        && matches!(sw, Some(SweepImpl::Un(s)) if *s as usize == sweep as usize)
                });
                if !ok {
                    out.push(Violation {
                        rule: "sweep-pairing",
                        at: Some(i),
                        message: format!(
                            "unary sweep call does not match any registered (scalar, sweep) \
                             pair of target {}",
                            target.name
                        ),
                    });
                }
            }
            Instr::CallBin { fun, sweep, .. } => {
                let ok = natives.iter().any(|(_, f, a, sw)| {
                    *f as usize == fun as usize
                        && *a == 2
                        && matches!(sw, Some(SweepImpl::Bin(s)) if *s as usize == sweep as usize)
                });
                if !ok {
                    out.push(Violation {
                        rule: "sweep-pairing",
                        at: Some(i),
                        message: format!(
                            "binary sweep call does not match any registered (scalar, sweep) \
                             pair of target {}",
                            target.name
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// Collects the free variables of a desugaring expression.
fn free_vars(expr: &Expr, out: &mut Vec<fpcore::Symbol>) {
    match expr {
        Expr::Num(_) => {}
        Expr::Var(v) => {
            if !out.contains(v) {
                out.push(*v);
            }
        }
        Expr::Op(_, args) => {
            for a in args {
                free_vars(a, out);
            }
        }
        Expr::If(c, t, e) => {
            free_vars(c, out);
            free_vars(t, out);
            free_vars(e, out);
        }
    }
}

// The arity rule below is the only bound on native calls' width.
const _: () = assert!(MAX_ARITY <= MAX_CALL_ARITY);

/// Verifies a target description: unique operator names, sweep forms only on
/// native operators and matching their arity, arities within [`MAX_ARITY`]
/// (the e-node width of instruction selection, which also keeps native calls
/// within the evaluator's limit), and desugarings referencing only the positional
/// argument symbols (`a0..a{arity-1}`) — any other free symbol would load
/// NaN at every point, which is invariably a typo in a target description.
pub fn verify_target(target: &Target) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut push = |rule: &'static str, message: String| {
        out.push(Violation {
            rule,
            at: None,
            message,
        });
    };
    for (k, op) in target.operators.iter().enumerate() {
        if target.operators[..k].iter().any(|o| o.name == op.name) {
            push(
                "op-duplicate",
                format!("duplicate operator {} in target {}", op.name, target.name),
            );
        }
        match (&op.implementation, &op.sweep) {
            (Impl::Emulated, Some(_)) => push(
                "sweep-on-emulated",
                format!(
                    "operator {} of target {} registers a sweep form but is emulated \
                     (sweep forms pair with native scalar implementations)",
                    op.name, target.name
                ),
            ),
            (Impl::Native(_), Some(sweep)) => {
                let form_arity = match sweep {
                    SweepImpl::Un(_) => 1,
                    SweepImpl::Bin(_) => 2,
                };
                if form_arity != op.arity() {
                    push(
                        "sweep-arity",
                        format!(
                            "operator {} of target {} has arity {} but a {}-ary sweep form",
                            op.name,
                            target.name,
                            op.arity(),
                            form_arity
                        ),
                    );
                }
            }
            _ => {}
        }
        if op.arity() > MAX_ARITY {
            push(
                "op-arity",
                format!(
                    "operator {} of target {} has arity {} > {MAX_ARITY}",
                    op.name,
                    target.name,
                    op.arity()
                ),
            );
        }
        let mut vars = Vec::new();
        free_vars(&op.desugaring, &mut vars);
        let args: Vec<_> = (0..op.arity()).map(arg_symbol).collect();
        for v in vars {
            if !args.contains(&v) {
                push(
                    "desugaring-args",
                    format!(
                        "desugaring of {} in target {} references {v}, which is not one of \
                         its {} positional arguments (it would load NaN at every point)",
                        op.name,
                        target.name,
                        op.arity()
                    ),
                );
            }
        }
    }
    out
}

/// Panics with a rendered violation list when the program fails
/// verification — the debug-build hook run after every compile.
#[track_caller]
pub fn assert_valid(program: &Program, target: Option<&Target>, mode: Mode) {
    let violations = match target {
        Some(t) => verify_with_target(program, t, mode),
        None => verify(program, mode),
    };
    assert!(
        violations.is_empty(),
        "compiled program failed IR verification:\n{}",
        render(&violations)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::expr::FloatExpr;
    use crate::operator::Operator;
    use fpcore::FpType::Binary64;
    use fpcore::{RealOp, Symbol};

    fn target() -> Target {
        Target::new("t", "test").with_operators(vec![
            Operator::emulated("+.f64", &[Binary64, Binary64], Binary64, "(+ a0 a1)", 1.0),
            Operator::emulated("exp.f64", &[Binary64], Binary64, "(exp a0)", 40.0),
        ])
    }

    fn sample_program() -> Program {
        let t = target();
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
        compile(&t, &expr)
    }

    #[test]
    fn clean_programs_verify_in_both_modes() {
        let p = sample_program();
        assert!(
            verify(&p, Mode::Ssa).is_empty(),
            "{}",
            render(&verify(&p, Mode::Ssa))
        );
        assert!(verify(&p, Mode::Executable).is_empty());
        assert!(verify_with_target(&p, &target(), Mode::Ssa).is_empty());
    }

    #[test]
    fn operand_order_violations_are_caught() {
        let mut p = sample_program();
        let dst = p.instrs[0].dst();
        if let Instr::Bin { a, .. } = &mut p.instrs[0] {
            *a = dst;
        } else if let Instr::Un { a, .. } = &mut p.instrs[0] {
            *a = dst;
        }
        let violations = verify(&p, Mode::Ssa);
        assert!(
            violations.iter().any(|v| v.rule == "operand-order"),
            "{violations:?}"
        );
    }

    #[test]
    fn duplicate_operators_are_a_target_violation() {
        let mut t = target();
        t.operators.push(t.operators[0].clone());
        let violations = verify_target(&t);
        assert!(
            violations.iter().any(|v| v.rule == "op-duplicate"),
            "{violations:?}"
        );
    }

    #[test]
    fn emulated_sweep_is_a_target_violation() {
        let mut t = target();
        t.operators[0].sweep = Some(SweepImpl::Bin(|_, _, _| {}));
        let violations = verify_target(&t);
        assert!(violations.iter().any(|v| v.rule == "sweep-on-emulated"));
    }

    #[test]
    fn desugaring_typos_are_a_target_violation() {
        let mut t = target();
        t.operators.push(Operator::emulated(
            "typo.f64",
            &[Binary64],
            Binary64,
            "(+ a0 a1)", // a1 does not exist on a unary operator
            1.0,
        ));
        let violations = verify_target(&t);
        assert!(violations.iter().any(|v| v.rule == "desugaring-args"));
    }

    #[test]
    fn operators_wider_than_an_e_node_are_a_target_violation() {
        let mut t = target();
        t.operators.push(Operator::emulated(
            "sum4.f64",
            &[Binary64; 4],
            Binary64,
            "(+ (+ a0 a1) (+ a2 a3))",
            3.0,
        ));
        let violations = verify_target(&t);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].rule, "op-arity");
        assert!(violations[0].message.contains("sum4.f64"));
    }

    #[test]
    fn builtin_targets_verify() {
        for t in crate::builtin::all_targets() {
            let violations = verify_target(&t);
            assert!(
                violations.is_empty(),
                "{}:\n{}",
                t.name,
                render(&violations)
            );
        }
    }
}
