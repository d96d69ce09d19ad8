//! Backward liveness analysis over the linear program.
//!
//! A register is *live* at a program point when its current value may still
//! be read at or after that point. Reads are the instruction operands and the
//! program result (live at exit).
//!
//! A compiled program has no jumps — conditionals are selects — so its
//! control-flow graph is a single straight line, and liveness is one backward
//! sweep from exit to entry. A select reads both of its arm registers on
//! every lane (the untaken lanes are discarded, not unread), so any register
//! an arm feeds stays allocated until the select. This is what makes
//! liveness-driven [compaction](crate::analysis::compact) sound for programs
//! with conditionals.

use crate::compile::Program;

/// A dense bitset over register numbers — the fact type of [`liveness`] and
/// the workhorse set of register compaction.
#[derive(Clone, Debug, Default)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// An empty set sized for `n_regs` registers.
    pub fn new(n_regs: usize) -> RegSet {
        RegSet {
            words: vec![0; n_regs.div_ceil(64)],
        }
    }

    /// Inserts `reg`; the set grows if needed.
    pub fn insert(&mut self, reg: u32) {
        let (word, bit) = (reg as usize / 64, reg as usize % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << bit;
    }

    /// Removes `reg` if present.
    pub fn remove(&mut self, reg: u32) {
        let (word, bit) = (reg as usize / 64, reg as usize % 64);
        if word < self.words.len() {
            self.words[word] &= !(1 << bit);
        }
    }

    /// True when `reg` is in the set.
    pub fn contains(&self, reg: u32) -> bool {
        let (word, bit) = (reg as usize / 64, reg as usize % 64);
        word < self.words.len() && self.words[word] & (1 << bit) != 0
    }

    /// Number of registers in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no register is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates the set in increasing register order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |bit| w & (1 << bit) != 0)
                .map(move |bit| (wi * 64 + bit) as u32)
        })
    }
}

/// The liveness facts: `live[i]` is the set of registers live *before*
/// instruction `i`, and `live[n]` the set live at exit.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Live-in set per program point (`num_instrs() + 1` entries).
    pub live: Vec<RegSet>,
}

/// Computes liveness for `program` in one backward sweep: an instruction
/// kills its destination and makes its operands live.
pub fn liveness(program: &Program) -> Liveness {
    let n = program.num_instrs();
    let mut live = vec![RegSet::default(); n + 1];
    live[n] = RegSet::new(program.num_regs());
    live[n].insert(program.result);
    for (i, instr) in program.instrs.iter().enumerate().rev() {
        let mut before = live[i + 1].clone();
        before.remove(instr.dst());
        instr.for_each_read(&program.arg_pool, |reg| before.insert(reg));
        live[i] = before;
    }
    Liveness { live }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{Instr, Program};
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
    fn regset_basics() {
        let mut s = RegSet::new(10);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(64);
        s.insert(200); // grows past the initial sizing
        assert!(s.contains(3) && s.contains(64) && s.contains(200));
        assert!(!s.contains(4) && !s.contains(199));
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 200]);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 200]);
        s.remove(3);
        s.remove(200);
        assert!(s.is_empty(), "removals leave spare capacity, not members");
    }
}
