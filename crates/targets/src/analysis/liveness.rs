//! Backward liveness analysis over the linear program.
//!
//! A register is *live* at a program point when its current value may still
//! be read at or after that point. Reads are the instruction operands, the
//! program result (live at exit), and — crucially for the block engine — the
//! condition register of every skip range at the range's *start*: the block
//! evaluator tests the condition lanes when it reaches `skip.start`, before
//! executing (or skipping) the range, so the condition must survive at least
//! that long even if no instruction reads it there.
//!
//! Liveness is computed on the *linear* instruction stream, dead select arms
//! included. That is deliberate: a select reads both of its arm registers on
//! every lane (the dead lanes are discarded, not unread), so any register a
//! dead arm feeds stays allocated until the select. This is exactly the
//! property that makes liveness-driven [compaction](crate::analysis::compact)
//! sound in the presence of skip ranges.

use crate::analysis::dataflow::{solve, Analysis, RegSet};
use crate::compile::Program;

/// The solved liveness facts: `live[i]` is the set of registers live
/// *before* instruction `i`, and `live[n]` the set live at exit.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Live-in set per program point (`num_instrs() + 1` entries).
    pub live: Vec<RegSet>,
}

struct LivenessAnalysis;

impl Analysis for LivenessAnalysis {
    type Fact = RegSet;

    fn boundary(&self, program: &Program) -> RegSet {
        let mut exit = RegSet::new(program.num_regs());
        exit.insert(program.result);
        exit
    }

    fn transfer(&self, program: &Program, idx: usize, after: &RegSet) -> RegSet {
        let mut before = after.clone();
        let instr = &program.instrs[idx];
        before.remove(instr.dst());
        instr.for_each_read(&program.arg_pool, |reg| before.insert(reg));
        // The block engine reads each skip condition when it reaches the
        // range start: an extra use at `skip.start`.
        for skip in &program.skips {
            if skip.start as usize == idx {
                before.insert(skip.cond);
            }
        }
        before
    }
}

/// Computes liveness for `program`.
pub fn liveness(program: &Program) -> Liveness {
    Liveness {
        live: solve(&LivenessAnalysis, program),
    }
}

/// The index of the last instruction that reads a register, per program
/// point of use. `num_instrs()` means the register is read by the program
/// result (or a skip condition at the very end); `None` means it is never
/// read at all.
pub fn last_use_table(program: &Program) -> Vec<Option<usize>> {
    let n = program.num_instrs();
    let mut last: Vec<Option<usize>> = vec![None; program.num_regs()];
    let mut mark = |reg: u32, at: usize| {
        let slot = &mut last[reg as usize];
        *slot = Some(slot.map_or(at, |prev| prev.max(at)));
    };
    for (i, instr) in program.instrs.iter().enumerate() {
        instr.for_each_read(&program.arg_pool, |reg| mark(reg, i));
    }
    for skip in &program.skips {
        mark(skip.cond, skip.start as usize);
    }
    mark(program.result, n);
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{Instr, Program, SkipRange};
    use fpcore::RealOp;

    /// `r2 = r0 + r1; r3 = r2 * r2; result = r3`, with r0 a constant and r1
    /// a variable.
    fn straight_line() -> Program {
        Program {
            n_regs: 4,
            consts: vec![(0, 1.0)],
            vars: vec![(1, fpcore::Symbol::new("x"))],
            instrs: vec![
                Instr::Bin {
                    op: RealOp::Add,
                    a: 0,
                    b: 1,
                    dst: 2,
                },
                Instr::Bin {
                    op: RealOp::Mul,
                    a: 2,
                    b: 2,
                    dst: 3,
                },
            ],
            arg_pool: vec![],
            skips: vec![],
            result: 3,
        }
    }

    #[test]
    fn live_ranges_end_at_last_use() {
        let p = straight_line();
        let lv = liveness(&p);
        // Before the add: its operands are live, its result is not yet.
        assert!(lv.live[0].contains(0) && lv.live[0].contains(1));
        assert!(!lv.live[0].contains(2));
        // Between the two instructions only r2 is live.
        assert_eq!(lv.live[1].iter().collect::<Vec<_>>(), vec![2]);
        // At exit only the result is live.
        assert_eq!(lv.live[2].iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn last_use_table_matches() {
        let p = straight_line();
        let last = last_use_table(&p);
        assert_eq!(last[0], Some(0));
        assert_eq!(last[1], Some(0));
        assert_eq!(last[2], Some(1));
        assert_eq!(last[3], Some(2), "the result is read at exit");
    }

    #[test]
    fn skip_conditions_are_used_at_range_start() {
        // r1 = x < 0 (pretend: r1 cmp), r2 = exp(x) [skippable arm],
        // r3 = select(r1, r2, r0).
        let p = Program {
            n_regs: 4,
            consts: vec![(0, 1.0)],
            vars: vec![(1, fpcore::Symbol::new("x"))],
            instrs: vec![
                Instr::Un {
                    op: RealOp::Neg,
                    a: 1,
                    dst: 2,
                },
                Instr::Select {
                    c: 1,
                    t: 2,
                    e: 0,
                    dst: 3,
                },
            ],
            arg_pool: vec![],
            skips: vec![SkipRange {
                start: 0,
                end: 1,
                cond: 1,
                dead_when: false,
            }],
            result: 3,
        };
        let lv = liveness(&p);
        // The condition (r1, also the select's c) is live before the arm.
        assert!(lv.live[0].contains(1));
        let last = last_use_table(&p);
        // r1's last use is the select itself (index 1 ≥ the skip-start use).
        assert_eq!(last[1], Some(1));
    }
}
