//! The dataflow framework: a backward worklist solver over the linear
//! instruction stream of a [`Program`].
//!
//! A compiled program has no jumps — conditionals are selects — so its
//! control-flow graph is a single straight line with one program point
//! before every instruction plus one after the last. An [`Analysis`] gives
//! the boundary fact at exit and a per-instruction transfer function;
//! [`solve`] propagates facts from exit to entry with a worklist until they
//! stabilize. On a straight-line program the worklist converges in a single
//! sweep, but the solver does not assume so: transfer functions only need to
//! be deterministic, and a fact is re-propagated whenever it changes.

use crate::compile::Program;
use std::collections::VecDeque;

/// A backward dataflow analysis over the linear program.
pub trait Analysis {
    /// The per-program-point fact.
    type Fact: Clone + PartialEq;
    /// The boundary fact at exit (after the last instruction).
    fn boundary(&self, program: &Program) -> Self::Fact;
    /// The transfer function for instruction `idx`: maps the fact after the
    /// instruction to the fact before it.
    fn transfer(&self, program: &Program, idx: usize, input: &Self::Fact) -> Self::Fact;
}

/// Runs `analysis` to a fixed point and returns the fact at every program
/// point: `facts[i]` holds before instruction `i`, and `facts[n]` after the
/// last instruction (`n = program.num_instrs()`).
pub fn solve<A: Analysis>(analysis: &A, program: &Program) -> Vec<A::Fact> {
    let n = program.num_instrs();
    let mut facts: Vec<Option<A::Fact>> = vec![None; n + 1];
    let mut worklist: VecDeque<usize> = VecDeque::new();
    facts[n] = Some(analysis.boundary(program));
    if n > 0 {
        worklist.push_back(n - 1);
    }
    while let Some(i) = worklist.pop_front() {
        let input = facts[i + 1].clone().expect("successor fact is computed");
        let out = analysis.transfer(program, i, &input);
        if facts[i].as_ref() != Some(&out) {
            facts[i] = Some(out);
            if i > 0 {
                worklist.push_back(i - 1);
            }
        }
    }
    facts
        .into_iter()
        .map(|f| f.expect("every point of a linear program is reached"))
        .collect()
}

/// A dense bitset over register numbers — the fact type of
/// [`liveness`](crate::analysis::liveness::liveness) and the workhorse set
/// of the rewrites.
#[derive(Clone, Debug, Default)]
pub struct RegSet {
    words: Vec<u64>,
}

/// Equality is by contents: trailing zero words (spare capacity from sizing
/// or removals) are ignored, so sets built through different insertion
/// histories compare equal — which the worklist solver's convergence test
/// relies on.
impl PartialEq for RegSet {
    fn eq(&self, other: &Self) -> bool {
        let common = self.words.len().min(other.words.len());
        self.words[..common] == other.words[..common]
            && self.words[common..].iter().all(|&w| w == 0)
            && other.words[common..].iter().all(|&w| w == 0)
    }
}

impl Eq for RegSet {}

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

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut t = RegSet::new(0);
        t.insert(3);
        t.insert(200);
        assert_eq!(s, t, "equality ignores capacity differences");
        t.insert(64);
        assert_ne!(s, t);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 200]);
        assert_eq!(RegSet::new(500), RegSet::new(0), "empty sets are equal");
    }
}
