//! Structure-of-arrays block execution for compiled float programs.
//!
//! The scalar bytecode engine ([`mod@crate::compile`]) already amortizes
//! compilation across a batch, but it still dispatches one instruction per
//! *point*: the `match` over [`Instr`] runs
//! `instrs × points` times, and every point arrives as its own heap-allocated
//! `Vec<f64>` row. This module turns both costs columnar:
//!
//! * [`Columns`] stores a batch of points as one contiguous `f64` column per
//!   variable (structure of arrays, no per-point `Vec`s), so a block of a
//!   variable's values is a single slice;
//! * [`BlockRegs`] is a columnar register file — one lane per point in the
//!   block, `width` lanes per register, all in one flat slab — with the
//!   constant pool broadcast across the lanes once at construction;
//! * [`Program::eval_block`] executes each instruction over the *whole block*
//!   before moving to the next: instruction dispatch runs `instrs ×
//!   ceil(points / width)` times, and every operation becomes a tight
//!   per-lane loop over contiguous slices that the compiler can
//!   auto-vectorize. Ragged block ends (a batch that is not a multiple of the
//!   block width) run the same loops at reduced width, degenerating to the
//!   scalar schedule at width 1.
//!
//! Bit identity is preserved by construction: every lane applies the *same*
//! host operation as the scalar engine ([`fpcore::eval::apply_op1`] and
//! friends; the specialised arithmetic loops compute the identical `a + b`
//! expressions), [`Instr::Select`] stays a pure per-lane select, and lanes
//! never interact — so block results are bit-identical to
//! [`Program::eval_point`] and to the tree walk at *any* block width, which
//! the differential tests and the `eval_throughput` CI gate both assert.
//!
//! One carve-out: **NaN sign and payload**. IEEE 754 §6.3 leaves both
//! unspecified for the NaN an arithmetic operation produces, and optimizing
//! codegen exploits that — LLVM may commute the operands of an
//! auto-vectorized `fmul`, changing which input NaN x86 propagates, so a
//! release build can flip a propagated NaN's sign bit at exactly
//! vector-multiple widths. The identity contract is therefore *semantic*
//! bits: exact bit equality for every non-NaN value (signed zeros and
//! subnormals included), any NaN equal to any NaN
//! ([`fpcore::eval::semantic_bits`]). Nothing downstream can see the
//! difference: every consumer of these engines (error bits, costs, regime
//! decisions) treats all NaNs alike.
//!
//! The slab layout leans on the program's register discipline: an
//! instruction's destination register is always strictly above its operands
//! (the verifier's `operand-order` rule — see `docs/PROGRAM_IR.md`), so
//! `split_at_mut(dst * width)` separates the write row from every row the
//! instruction reads, with no per-instruction bounds gymnastics. The slab is
//! `Program::num_regs` rows of `width` lanes — the per-worker working set
//! that liveness-driven register compaction
//! ([`crate::analysis::compact`]) shrinks, which is why production paths run
//! [`crate::analysis::optimize`]d programs here.

use crate::compile::{Instr, Program};
use crate::operator::round_to_type;
use fpcore::eval::{apply_op3, sweep_op1, sweep_op2};
use fpcore::{FpType, RealOp, Symbol};

/// Default lanes per block: big enough to amortize instruction dispatch and
/// fill SIMD lanes, small enough that the rows an instruction touches stay
/// cache-resident for realistic register counts. The `eval_throughput`
/// `--block-sizes` sweep picked this over 8/64/whole-batch on the builtin
/// corpus (256 was ~10% faster than 64 and within noise of whole-batch, and
/// it keeps the parallel work grain and scratch slab bounded).
pub const DEFAULT_BLOCK: usize = 256;

/// The block width a sweep over `len` points should use: the default block,
/// clamped so a short batch gets a single (non-empty) block. Every caller
/// that sizes a [`BlockRegs`] for a whole batch goes through this, so the
/// sizing policy lives in one place.
pub fn block_width_for(len: usize) -> usize {
    DEFAULT_BLOCK.min(len.max(1))
}

/// Largest native-operator arity the block evaluator's gather buffer supports
/// (mirrors the scalar engine's stack buffer).
const MAX_CALL_ARITY: usize = 8;

/// A batch of sample points in columnar (structure-of-arrays) layout: one
/// contiguous `f64` column per variable.
///
/// `col(v)[i]` is variable `v` of point `i`. The columnar layout is what the
/// block evaluator consumes directly — loading a block of a variable is a
/// `copy_from_slice`, not a strided gather over per-point `Vec`s.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Columns {
    n_vars: usize,
    n_points: usize,
    /// Column-major backing store: `data[var * n_points + point]`.
    data: Vec<f64>,
}

impl Columns {
    /// An empty batch over `n_vars` variables.
    pub fn new(n_vars: usize) -> Columns {
        Columns {
            n_vars,
            n_points: 0,
            data: Vec::new(),
        }
    }

    /// Transposes row-major points (`rows[i][v]` = variable `v` of point `i`)
    /// into columns. Rows shorter than `n_vars` are padded with NaN, matching
    /// the scalar engine's out-of-range variable load.
    pub fn from_rows(n_vars: usize, rows: &[Vec<f64>]) -> Columns {
        let n_points = rows.len();
        let mut data = vec![f64::NAN; n_vars * n_points];
        for (i, row) in rows.iter().enumerate() {
            for (v, &value) in row.iter().take(n_vars).enumerate() {
                data[v * n_points + i] = value;
            }
        }
        Columns {
            n_vars,
            n_points,
            data,
        }
    }

    /// Number of points in the batch.
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// True when the batch holds no points.
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// Number of variables (columns) per point.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// The contiguous column of variable `var` across all points.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n_vars`.
    pub fn col(&self, var: usize) -> &[f64] {
        &self.data[var * self.n_points..(var + 1) * self.n_points]
    }

    /// Variable `var` of point `point`; NaN when `var` is out of range (the
    /// unbound-variable semantics shared with the scalar engine).
    ///
    /// # Panics
    ///
    /// Panics if `point >= len` (an out-of-range point would otherwise read
    /// another variable's column silently).
    pub fn value(&self, point: usize, var: usize) -> f64 {
        assert!(point < self.n_points, "point {point} out of range");
        if var < self.n_vars {
            self.data[var * self.n_points + point]
        } else {
            f64::NAN
        }
    }

    /// Point `point` as a freshly allocated row (diagnostics and tests; the
    /// hot paths never materialize rows).
    pub fn row(&self, point: usize) -> Vec<f64> {
        (0..self.n_vars).map(|v| self.value(point, v)).collect()
    }

    /// Iterates the batch as rows (allocating one `Vec` per point — for
    /// reporting and tests, not for evaluation loops).
    pub fn rows(&self) -> impl Iterator<Item = Vec<f64>> + '_ {
        (0..self.n_points).map(|i| self.row(i))
    }

    /// Splits the batch in two at point index `at` (`at` is clamped to the
    /// batch length): the first part keeps points `0..at`, the second gets
    /// `at..len`. Used to carve a sample into train and test sets.
    pub fn split_at(self, at: usize) -> (Columns, Columns) {
        let at = at.min(self.n_points);
        let mut head = Columns {
            n_vars: self.n_vars,
            n_points: at,
            data: Vec::with_capacity(self.n_vars * at),
        };
        let mut tail = Columns {
            n_vars: self.n_vars,
            n_points: self.n_points - at,
            data: Vec::with_capacity(self.n_vars * (self.n_points - at)),
        };
        for v in 0..self.n_vars {
            let col = &self.data[v * self.n_points..(v + 1) * self.n_points];
            head.data.extend_from_slice(&col[..at]);
            tail.data.extend_from_slice(&col[at..]);
        }
        (head, tail)
    }
}

/// A columnar register file: `width` lanes per register in one flat slab,
/// with the program's constant pool broadcast across the lanes of its
/// registers. Built by [`Program::new_block_regs`], reused across every block
/// of a sweep (and across sweeps) — the steady state allocates nothing.
#[derive(Clone, Debug)]
pub struct BlockRegs {
    width: usize,
    /// `slab[reg * width + lane]`; constant rows are never overwritten.
    slab: Vec<f64>,
}

impl BlockRegs {
    /// Lanes per block this register file supports.
    pub fn width(&self) -> usize {
        self.width
    }
}

impl Program {
    /// A columnar register file for blocks of up to `width` points, with the
    /// constant pool broadcast into its rows. Reuse it for every block: like
    /// the scalar register file, constants keep their rows and everything
    /// else is rewritten per block.
    pub fn new_block_regs(&self, width: usize) -> BlockRegs {
        let width = width.max(1);
        let mut slab = vec![0.0; self.n_regs * width];
        for &(reg, value) in &self.consts {
            slab[reg as usize * width..(reg as usize + 1) * width].fill(value);
        }
        BlockRegs { width, slab }
    }

    /// Evaluates points `start..start + out.len()` of `points` in one block,
    /// writing each point's result to the corresponding slot of `out`.
    ///
    /// `columns` comes from [`Program::bind_columns`] against the batch's
    /// variable layout. `out` must not be longer than the register file's
    /// width; shorter is fine (the ragged tail of a sweep runs the same code
    /// at reduced width). Results are bit-identical to calling
    /// [`Program::eval_point`] per point.
    ///
    /// # Panics
    ///
    /// Panics if `out` is wider than `regs` or the point range overruns the
    /// batch.
    pub fn eval_block(
        &self,
        columns: &[usize],
        points: &Columns,
        start: usize,
        regs: &mut BlockRegs,
        out: &mut [f64],
    ) {
        let w = out.len();
        assert!(w <= regs.width, "block of {w} exceeds register width");
        assert!(start + w <= points.len(), "block overruns the batch");
        let width = regs.width;

        // Load a block of every variable column into its register row.
        for (&(reg, _), &col) in self.vars.iter().zip(columns) {
            let row = &mut regs.slab[reg as usize * width..reg as usize * width + w];
            if col < points.n_vars() {
                row.copy_from_slice(&points.col(col)[start..start + w]);
            } else {
                row.fill(f64::NAN);
            }
        }

        for instr in &self.instrs {
            let dst = instr.dst() as usize;
            // SSA: operands were allocated before `dst`, so they all live in
            // the lower half of this split.
            let (lo, hi) = regs.slab.split_at_mut(dst * width);
            let d = &mut hi[..w];
            let row = |r: u32| &lo[r as usize * width..r as usize * width + w];
            match *instr {
                Instr::Un { op, a, .. } => {
                    let a = row(a);
                    match op {
                        RealOp::Neg => {
                            for (d, &a) in d.iter_mut().zip(a) {
                                *d = -a;
                            }
                        }
                        RealOp::Fabs => {
                            for (d, &a) in d.iter_mut().zip(a) {
                                *d = a.abs();
                            }
                        }
                        RealOp::Sqrt => {
                            for (d, &a) in d.iter_mut().zip(a) {
                                *d = a.sqrt();
                            }
                        }
                        _ => {
                            // Transcendentals and everything else: the
                            // block-wide sweep (vecmath kernels where
                            // available, a per-lane loop otherwise) —
                            // bit-identical to per-lane apply_op1 by the
                            // pairing rule.
                            sweep_op1(op, d, a);
                        }
                    }
                }
                Instr::Bin { op, a, b, .. } => {
                    let (a, b) = (row(a), row(b));
                    match op {
                        RealOp::Add => {
                            for ((d, &a), &b) in d.iter_mut().zip(a).zip(b) {
                                *d = a + b;
                            }
                        }
                        RealOp::Sub => {
                            for ((d, &a), &b) in d.iter_mut().zip(a).zip(b) {
                                *d = a - b;
                            }
                        }
                        RealOp::Mul => {
                            for ((d, &a), &b) in d.iter_mut().zip(a).zip(b) {
                                *d = a * b;
                            }
                        }
                        RealOp::Div => {
                            for ((d, &a), &b) in d.iter_mut().zip(a).zip(b) {
                                *d = a / b;
                            }
                        }
                        RealOp::Fmin => {
                            for ((d, &a), &b) in d.iter_mut().zip(a).zip(b) {
                                *d = a.min(b);
                            }
                        }
                        RealOp::Fmax => {
                            for ((d, &a), &b) in d.iter_mut().zip(a).zip(b) {
                                *d = a.max(b);
                            }
                        }
                        _ => {
                            sweep_op2(op, d, a, b);
                        }
                    }
                }
                Instr::Tern { op, a, b, c, .. } => {
                    let (a, b, c) = (row(a), row(b), row(c));
                    match op {
                        RealOp::Fma => {
                            for (((d, &a), &b), &c) in d.iter_mut().zip(a).zip(b).zip(c) {
                                *d = a.mul_add(b, c);
                            }
                        }
                        _ => {
                            for (((d, &a), &b), &c) in d.iter_mut().zip(a).zip(b).zip(c) {
                                *d = apply_op3(op, a, b, c);
                            }
                        }
                    }
                }
                Instr::Round32 { a, .. } => {
                    for (d, &a) in d.iter_mut().zip(row(a)) {
                        *d = round_to_type(a, FpType::Binary32);
                    }
                }
                Instr::Select { c, t, e, .. } => {
                    // A pure per-lane select: both branches were computed for
                    // every lane, exactly like the scalar engine, so the block
                    // schedule cannot change any result.
                    let (c, t, e) = (row(c), row(t), row(e));
                    for (((d, &c), &t), &e) in d.iter_mut().zip(c).zip(t).zip(e) {
                        *d = if c != 0.0 { t } else { e };
                    }
                }
                Instr::Call {
                    fun, first, arity, ..
                } => {
                    let args = &self.arg_pool[first as usize..(first + arity) as usize];
                    let mut buf = [0.0f64; MAX_CALL_ARITY];
                    for (lane, d) in d.iter_mut().enumerate() {
                        for (slot, &reg) in buf.iter_mut().zip(args) {
                            *slot = lo[reg as usize * width + lane];
                        }
                        *d = fun(&buf[..arity as usize]);
                    }
                }
                Instr::CallUn { sweep, a, .. } => {
                    // A native operator with a block-wide form: one dispatch
                    // sweeps the whole lane slice (bit-identical to calling
                    // the scalar function per lane, per the sweep contract).
                    sweep(d, row(a));
                }
                Instr::CallBin { sweep, a, b, .. } => {
                    sweep(d, row(a), row(b));
                }
            }
        }

        let result = self.result as usize;
        out.copy_from_slice(&regs.slab[result * width..result * width + w]);
    }

    /// Evaluates points `start..start + out.len()` by sweeping blocks of the
    /// register file's width, with the ragged tail running at reduced width.
    /// This is the batch hot loop's entry point: zero allocation, one
    /// instruction dispatch per block rather than per point.
    pub fn eval_range(
        &self,
        columns: &[usize],
        points: &Columns,
        start: usize,
        regs: &mut BlockRegs,
        out: &mut [f64],
    ) {
        let width = regs.width;
        for (i, block) in out.chunks_mut(width).enumerate() {
            self.eval_block(columns, points, start + i * width, regs, block);
        }
    }

    /// Evaluates the program over a whole columnar batch (the convenience
    /// entry point — resolves columns, sizes a register file, sweeps).
    pub fn eval_columns(&self, vars: &[Symbol], points: &Columns) -> Vec<f64> {
        let columns = self.bind_columns(vars);
        let mut regs = self.new_block_regs(block_width_for(points.len()));
        let mut out = vec![0.0; points.len()];
        self.eval_range(&columns, points, 0, &mut regs, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::expr::FloatExpr;

    #[test]
    fn columns_round_trip_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let cols = Columns::from_rows(2, &rows);
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.n_vars(), 2);
        assert_eq!(cols.col(0), &[1.0, 3.0, 5.0]);
        assert_eq!(cols.col(1), &[2.0, 4.0, 6.0]);
        assert_eq!(cols.row(1), vec![3.0, 4.0]);
        assert_eq!(cols.rows().collect::<Vec<_>>(), rows);
        // Out-of-range variables read NaN, like the scalar engine.
        assert!(cols.value(0, 7).is_nan());
    }

    #[test]
    fn short_rows_pad_with_nan() {
        let cols = Columns::from_rows(2, &[vec![1.0]]);
        assert_eq!(cols.value(0, 0), 1.0);
        assert!(cols.value(0, 1).is_nan());
    }

    #[test]
    fn split_at_preserves_columns() {
        let rows: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64, 10.0 + i as f64]).collect();
        let (head, tail) = Columns::from_rows(2, &rows).split_at(3);
        assert_eq!(head.col(0), &[0.0, 1.0, 2.0]);
        assert_eq!(head.col(1), &[10.0, 11.0, 12.0]);
        assert_eq!(tail.col(0), &[3.0, 4.0]);
        assert_eq!(tail.col(1), &[13.0, 14.0]);
        // Degenerate splits keep every point on one side.
        let (all, none) = Columns::from_rows(2, &rows).split_at(99);
        assert_eq!(all.len(), 5);
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn block_results_match_scalar_engine_at_every_width() {
        let target = builtin::by_name("c99").unwrap();
        let sub = target.find_operator("-.f64").unwrap();
        let sqrt = target.find_operator("sqrt.f64").unwrap();
        let add = target.find_operator("+.f64").unwrap();
        let exp = target.find_operator("exp.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), FpType::Binary64);
        let difference = FloatExpr::Op(
            sub,
            vec![
                FloatExpr::Op(
                    sqrt,
                    vec![FloatExpr::Op(
                        add,
                        vec![x.clone(), FloatExpr::literal(1.0, FpType::Binary64)],
                    )],
                ),
                FloatExpr::Op(sqrt, vec![x.clone()]),
            ],
        );
        // Both arms CSE to one register, so the select reads it through
        // whichever operand the lane's condition picks.
        let identical_arms = FloatExpr::If(
            Box::new(FloatExpr::Cmp(
                RealOp::Lt,
                Box::new(x.clone()),
                Box::new(FloatExpr::literal(0.0, FpType::Binary64)),
            )),
            Box::new(FloatExpr::Op(exp, vec![x.clone()])),
            Box::new(FloatExpr::Op(exp, vec![x])),
        );
        let vars = [Symbol::new("x")];
        let rows: Vec<Vec<f64>> = (0..37)
            .map(|i| vec![10f64.powf(i as f64 / 3.0) - 2.0])
            .collect();
        let points = Columns::from_rows(1, &rows);
        for expr in [difference, identical_arms] {
            let program = crate::compile(&target, &expr);
            let columns = program.bind_columns(&vars);
            let mut scalar_regs = program.new_regs();
            let scalar: Vec<u64> = rows
                .iter()
                .map(|p| program.eval_point(&columns, p, &mut scalar_regs).to_bits())
                .collect();
            for width in [1, 2, 3, 16, 37, 64] {
                let mut regs = program.new_block_regs(width);
                let mut out = vec![0.0; points.len()];
                program.eval_range(&columns, &points, 0, &mut regs, &mut out);
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(scalar, got, "width {width} diverged from the scalar engine");
            }
        }
    }

    #[test]
    fn unbound_variables_load_nan_in_blocks() {
        let target = builtin::by_name("c99").unwrap();
        let add = target.find_operator("+.f64").unwrap();
        let expr = FloatExpr::Op(
            add,
            vec![
                FloatExpr::Var(Symbol::new("zz"), FpType::Binary64),
                FloatExpr::literal(1.0, FpType::Binary64),
            ],
        );
        let program = crate::compile(&target, &expr);
        let points = Columns::from_rows(1, &[vec![2.0], vec![3.0]]);
        let out = program.eval_columns(&[Symbol::new("x")], &points);
        assert!(out.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn block_register_file_reuse_is_sound() {
        let target = builtin::by_name("c99").unwrap();
        let exp = target.find_operator("exp.f64").unwrap();
        let expr = FloatExpr::Op(
            exp,
            vec![FloatExpr::Var(Symbol::new("x"), FpType::Binary64)],
        );
        let program = crate::compile(&target, &expr);
        let vars = [Symbol::new("x")];
        let columns = program.bind_columns(&vars);
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1]).collect();
        let points = Columns::from_rows(1, &rows);
        let mut regs = program.new_block_regs(4);
        let mut first = vec![0.0; points.len()];
        program.eval_range(&columns, &points, 0, &mut regs, &mut first);
        let mut second = vec![0.0; points.len()];
        program.eval_range(&columns, &points, 0, &mut regs, &mut second);
        let (a, b): (Vec<u64>, Vec<u64>) = (
            first.iter().map(|v| v.to_bits()).collect(),
            second.iter().map(|v| v.to_bits()).collect(),
        );
        assert_eq!(a, b);
    }
}
