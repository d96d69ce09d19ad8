//! Liveness-driven register compaction: renumbers registers so the program
//! occupies the smallest slab the allocation discipline allows.
//!
//! The register slab is the block engine's per-worker working set — `n_regs ×
//! block_width` doubles ([`crate::BlockRegs`]) — so slab height directly
//! controls cache footprint. Fresh compiles use one register per value (SSA);
//! once a value's last read has executed, its register can be reused.
//!
//! The allocator assigns, in order:
//!
//! * constants → registers `0..C` (original order). Constant registers are
//!   **pinned**: the engines broadcast constants once per register file and
//!   never rewrite them, so a constant's slot may never be reused;
//! * variables → registers `C..C+V`. Variable rows are reloaded per
//!   block/point by every engine, so a variable's register returns to the
//!   free pool after the variable's last read;
//! * each instruction destination → the **smallest free register strictly
//!   greater than every (renamed) operand**, or a fresh register if none is
//!   free. The strict inequality preserves the `dst > operands` discipline
//!   the block engine's slab split (`split_at_mut(dst * width)`) depends on.
//!   Operand registers that die at the instruction are freed only *after*
//!   its destination is chosen, so a destination never aliases an operand.
//!
//! **Bit-identity sketch.** The rewrite is a pure renaming: instruction
//! order, operations, and value flow are unchanged, and liveness guarantees
//! no register is reused while its old value can still be read — including
//! reads by a select's untaken arm operand, because a select reads both arms
//! on every lane (see [`crate::analysis::liveness`](mod@crate::analysis::liveness)).
//! The corpus-wide differential suite asserts identity across all three
//! engines at several block widths.
//!
//! The output is no longer write-once (registers are deliberately reused),
//! so it verifies under [`Mode::Executable`](crate::analysis::verify::Mode),
//! not `Mode::Ssa`.

use crate::analysis::liveness::{liveness, RegSet};
use crate::compile::{Instr, Program};
use std::collections::BTreeSet;
use std::ops::Bound;

/// Size accounting for [`compact_registers`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompactStats {
    /// Register-slab height before compaction.
    pub regs_before: usize,
    /// Register-slab height after compaction.
    pub regs_after: usize,
}

/// Renumbers registers to minimize slab height (see the module docs for the
/// allocation discipline and the bit-identity argument).
pub fn compact_registers(program: &Program) -> (Program, CompactStats) {
    let lv = liveness(program);
    const UNMAPPED: u32 = u32::MAX;
    let mut map = vec![UNMAPPED; program.num_regs()];
    let mut next: u32 = 0;
    let mut consts = Vec::with_capacity(program.consts.len());
    let mut vars = Vec::with_capacity(program.vars.len());
    let mut const_regs = RegSet::new(program.num_regs());
    for &(reg, value) in &program.consts {
        map[reg as usize] = next;
        const_regs.insert(reg);
        consts.push((next, value));
        next += 1;
    }
    let mut free: BTreeSet<u32> = BTreeSet::new();
    for &(reg, sym) in &program.vars {
        map[reg as usize] = next;
        vars.push((next, sym));
        // A variable nothing reads frees its slot immediately: the engines
        // still load the variable row, but any instruction may overwrite it.
        if !lv.live[0].contains(reg) {
            free.insert(next);
        }
        next += 1;
    }

    let mut instrs = Vec::with_capacity(program.instrs.len());
    let mut arg_pool = vec![0u32; program.arg_pool.len()];
    for (i, instr) in program.instrs.iter().enumerate() {
        // Rename the operands (their defining registers are already mapped:
        // SSA defined-before-use) and find the allocation floor.
        let mut max_read: Option<u32> = None;
        let mut renamed = *instr;
        {
            let mut rd = |reg: &mut u32| {
                let new = map[*reg as usize];
                debug_assert_ne!(new, UNMAPPED, "operand read before definition");
                max_read = Some(max_read.map_or(new, |m| m.max(new)));
                *reg = new;
            };
            match &mut renamed {
                Instr::Un { a, .. } | Instr::Round32 { a, .. } | Instr::CallUn { a, .. } => rd(a),
                Instr::Bin { a, b, .. } | Instr::CallBin { a, b, .. } => {
                    rd(a);
                    rd(b);
                }
                Instr::Tern { a, b, c, .. } => {
                    rd(a);
                    rd(b);
                    rd(c);
                }
                Instr::Select { c, t, e, .. } => {
                    rd(c);
                    rd(t);
                    rd(e);
                }
                Instr::Call { first, arity, .. } => {
                    let range = *first as usize..(*first + *arity) as usize;
                    for (slot, &orig) in arg_pool[range.clone()]
                        .iter_mut()
                        .zip(&program.arg_pool[range])
                    {
                        let mut reg = orig;
                        rd(&mut reg);
                        *slot = reg;
                    }
                }
            }
        }
        // Smallest free register strictly above every operand, else fresh.
        let floor = match max_read {
            Some(m) => Bound::Excluded(m),
            None => Bound::Unbounded,
        };
        let dst = match free.range((floor, Bound::Unbounded)).next().copied() {
            Some(reg) => {
                free.remove(&reg);
                reg
            }
            None => {
                let reg = next;
                next += 1;
                reg
            }
        };
        let old_dst = instr.dst();
        map[old_dst as usize] = dst;
        match &mut renamed {
            Instr::Un { dst: d, .. }
            | Instr::Bin { dst: d, .. }
            | Instr::Tern { dst: d, .. }
            | Instr::Round32 { dst: d, .. }
            | Instr::Select { dst: d, .. }
            | Instr::Call { dst: d, .. }
            | Instr::CallUn { dst: d, .. }
            | Instr::CallBin { dst: d, .. } => *d = dst,
        }
        instrs.push(renamed);
        // Free registers whose last read was this instruction (they are in
        // `live` before it but not after), plus the destination itself when
        // the instruction is dead. Constants stay pinned.
        for reg in lv.live[i].iter() {
            if !lv.live[i + 1].contains(reg) && !const_regs.contains(reg) {
                free.insert(map[reg as usize]);
            }
        }
        if !lv.live[i + 1].contains(old_dst) {
            free.insert(dst);
        }
    }

    let compacted = Program {
        n_regs: next as usize,
        consts,
        vars,
        instrs,
        arg_pool,
        result: map[program.result as usize],
    };
    let stats = CompactStats {
        regs_before: program.num_regs(),
        regs_after: compacted.num_regs(),
    };
    (compacted, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::verify::{verify, Mode};
    use crate::interp::SliceEnv;
    use fpcore::{RealOp, Symbol};

    /// Two independent chains joined at the top, hand-compiled in SSA:
    /// `(x+c)*(x+c') ... ` shaped so the second chain can reuse the first
    /// chain's retired registers.
    ///
    /// `r2 = x+c; r3 = r2*r2; r4 = x-c; r5 = r4*r4; r6 = r3+r5`.
    fn diamond() -> Program {
        Program {
            n_regs: 7,
            consts: vec![(0, 1.5)],
            vars: vec![(1, Symbol::new("x"))],
            instrs: vec![
                Instr::Bin {
                    op: RealOp::Add,
                    a: 1,
                    b: 0,
                    dst: 2,
                },
                Instr::Bin {
                    op: RealOp::Mul,
                    a: 2,
                    b: 2,
                    dst: 3,
                },
                Instr::Bin {
                    op: RealOp::Sub,
                    a: 1,
                    b: 0,
                    dst: 4,
                },
                Instr::Bin {
                    op: RealOp::Mul,
                    a: 4,
                    b: 4,
                    dst: 5,
                },
                Instr::Bin {
                    op: RealOp::Add,
                    a: 3,
                    b: 5,
                    dst: 6,
                },
            ],
            arg_pool: vec![],
            result: 6,
        }
    }

    #[test]
    fn independent_subtrees_share_registers() {
        let p = diamond();
        let (q, stats) = compact_registers(&p);
        assert_eq!(stats.regs_before, 7);
        // The second chain's temporary reuses the first chain's retired slot
        // (a dependency chain itself cannot shrink: every destination must
        // stay strictly above the operand it consumes).
        assert!(stats.regs_after < stats.regs_before, "{stats:?}");
        assert!(
            verify(&q, Mode::Executable).is_empty(),
            "{:?}",
            verify(&q, Mode::Executable)
        );
        let syms = [Symbol::new("x")];
        for x in [0.0, 1.0, -3.5, f64::NAN, f64::INFINITY] {
            let vals = [x];
            let env = SliceEnv::new(&syms, &vals);
            assert_eq!(p.eval_in(&env).to_bits(), q.eval_in(&env).to_bits());
        }
    }

    #[test]
    fn destinations_stay_strictly_above_operands() {
        let (q, _) = compact_registers(&diamond());
        for instr in &q.instrs {
            assert!(instr.reads_below(instr.dst(), &q.arg_pool));
        }
    }

    #[test]
    fn constants_are_never_reused() {
        let (q, _) = compact_registers(&diamond());
        let const_reg = q.consts[0].0;
        for instr in &q.instrs {
            assert_ne!(instr.dst(), const_reg, "constant slot was overwritten");
        }
    }

    #[test]
    fn compaction_is_idempotent() {
        let (q, first) = compact_registers(&diamond());
        let (_, second) = compact_registers(&q);
        assert_eq!(first.regs_after, second.regs_after);
    }
}
