//! Bytecode compilation of float programs: compile once, evaluate many times.
//!
//! The tree-walk interpreter ([`crate::interp::eval_float_expr_in`]) re-walks
//! the `FloatExpr` — and, for every emulated operator, the operator's
//! real-number desugaring — at every sample point, allocating an argument
//! vector per operator node and scanning symbol bindings per variable
//! reference. The search loop evaluates each candidate over thousands of
//! points, so that walk is the system's hottest path.
//!
//! [`compile`] lowers a `FloatExpr` into a flat register-machine [`Program`]:
//!
//! * emulated operators are **inlined** — their fpcore desugarings are spliced
//!   into the instruction stream at compile time, with the positional argument
//!   symbols resolved to registers, so no symbol lookup or tree walk remains at
//!   run time;
//! * repeated subtrees are **shared** — instructions are hash-consed (common
//!   subexpression elimination), turning the expression tree into a dag whose
//!   shared nodes are computed once per point (cf. *Balancing expression
//!   dags*);
//! * constants live in a pool preloaded into low registers, and variables are
//!   resolved to point columns once per batch, not once per point.
//!
//! Evaluation is a tight match-loop over [`Instr`] against a reusable register
//! file. Every instruction applies the *same* host operation as the tree walk
//! ([`fpcore::eval::apply_op1`] and friends, [`round_to_type`], the operator's
//! native function), in dataflow order, so the compiled path is bit-identical
//! to [`crate::interp::eval_float_expr_in`] — a property the differential test
//! suite and the `eval_throughput` CI gate both assert.

use crate::expr::FloatExpr;
use crate::operator::{arg_symbol, round_to_type, Impl};
use crate::target::Target;
use fpcore::eval::{apply_op1, apply_op2, apply_op3, Bindings};
use fpcore::{Expr, FpType, RealOp, Symbol};
use std::collections::HashMap;

/// Largest native-operator arity the evaluator's stack buffer supports.
pub(crate) const MAX_CALL_ARITY: usize = 8;

/// One register-machine instruction. Input and output registers are indices
/// into the program's register file; every instruction writes exactly one
/// fresh register (`dst`), so the program is in SSA form and instructions only
/// ever read registers written earlier (or constant/variable slots).
#[derive(Clone, Copy, Debug)]
pub enum Instr {
    /// `dst = op(a)` for a unary real operator.
    Un { op: RealOp, a: u32, dst: u32 },
    /// `dst = op(a, b)` for a binary real operator (comparisons produce
    /// `1.0` / `0.0`, matching the tree walk).
    Bin {
        op: RealOp,
        a: u32,
        b: u32,
        dst: u32,
    },
    /// `dst = op(a, b, c)` for a ternary real operator (`fma`).
    Tern {
        op: RealOp,
        a: u32,
        b: u32,
        c: u32,
        dst: u32,
    },
    /// `dst = round_to_type(a, Binary32)` — the only non-identity rounding.
    Round32 { a: u32, dst: u32 },
    /// `dst = if c != 0.0 { t } else { e }` — conditionals compile to a
    /// select over both (pure) branches rather than a jump.
    Select { c: u32, t: u32, e: u32, dst: u32 },
    /// `dst = fun(args)` for a linked (native) operator implementation; the
    /// argument registers live in the program's argument pool at
    /// `first..first + arity`.
    Call {
        fun: fn(&[f64]) -> f64,
        first: u32,
        arity: u32,
        dst: u32,
    },
    /// `dst = fun([a])` for a unary native operator with a registered
    /// block-wide sweep form ([`crate::operator::SweepImpl`]): the scalar
    /// engine calls `fun` per point, the block engine calls `sweep` over the
    /// whole lane slice — bit-identical by the sweep contract.
    CallUn {
        fun: fn(&[f64]) -> f64,
        sweep: fn(&mut [f64], &[f64]),
        a: u32,
        dst: u32,
    },
    /// `dst = fun([a, b])` for a binary native operator with a block-wide
    /// sweep form (see [`Instr::CallUn`]).
    CallBin {
        fun: fn(&[f64]) -> f64,
        sweep: fn(&mut [f64], &[f64], &[f64]),
        a: u32,
        b: u32,
        dst: u32,
    },
}

impl Instr {
    pub(crate) fn dst(&self) -> u32 {
        match *self {
            Instr::Un { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Tern { dst, .. }
            | Instr::Round32 { dst, .. }
            | Instr::Select { dst, .. }
            | Instr::Call { dst, .. }
            | Instr::CallUn { dst, .. }
            | Instr::CallBin { dst, .. } => dst,
        }
    }

    /// Calls `f` with every register the instruction reads.
    pub(crate) fn for_each_read(&self, arg_pool: &[u32], mut f: impl FnMut(u32)) {
        match *self {
            Instr::Un { a, .. } | Instr::Round32 { a, .. } | Instr::CallUn { a, .. } => f(a),
            Instr::Bin { a, b, .. } | Instr::CallBin { a, b, .. } => {
                f(a);
                f(b);
            }
            Instr::Tern { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
            Instr::Select { c, t, e, .. } => {
                f(c);
                f(t);
                f(e);
            }
            Instr::Call { first, arity, .. } => {
                for &reg in &arg_pool[first as usize..(first + arity) as usize] {
                    f(reg);
                }
            }
        }
    }

    /// True when every register the instruction reads is below `limit` — the
    /// SSA property (operands allocated before the destination) that lets the
    /// block evaluator split its flat slab at the destination row. Checked in
    /// production by the verifier's `operand-order` rule; this helper remains
    /// for direct assertions in tests.
    #[cfg(test)]
    pub(crate) fn reads_below(&self, limit: u32, arg_pool: &[u32]) -> bool {
        let mut ok = true;
        self.for_each_read(arg_pool, |reg| ok &= reg < limit);
        ok
    }
}

/// A compiled float program: a constant pool, a variable table, and a flat
/// instruction sequence, all addressing one shared register file.
///
/// A `Program` is immutable after compilation and contains only plain data, so
/// parallel evaluation workers can share one `&Program` and bring their own
/// scratch [register file](Program::new_regs).
#[derive(Clone, Debug)]
pub struct Program {
    /// Total register count (constants + variables + instruction outputs).
    pub(crate) n_regs: usize,
    /// Constant pool: `(register, value)`, preloaded by [`Program::new_regs`].
    pub(crate) consts: Vec<(u32, f64)>,
    /// Variables read by the program: `(register, symbol)`. The register holds
    /// the *raw* point value (per-occurrence rounding is a separate
    /// [`Instr::Round32`]); unbound variables load NaN, like the tree walk.
    pub(crate) vars: Vec<(u32, Symbol)>,
    /// The instruction stream, in dataflow order. SSA guarantees every
    /// instruction's operand registers are smaller than its destination (the
    /// block engine's slab split depends on this; [`Compiler::emit`] asserts
    /// it).
    pub(crate) instrs: Vec<Instr>,
    /// Argument registers for [`Instr::Call`], stored out of line so `Instr`
    /// stays `Copy` and small.
    pub(crate) arg_pool: Vec<u32>,
    /// The register holding the program result.
    pub(crate) result: u32,
}

impl Program {
    /// Number of instructions executed per point (a proxy for compiled size;
    /// smaller than the tree's operation count whenever CSE shared subtrees).
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// Height of the register slab the program needs (the block evaluator
    /// allocates `num_regs × block_width` doubles per worker).
    pub fn num_regs(&self) -> usize {
        self.n_regs
    }

    /// The distinct variables the program reads, in first-use order.
    pub fn variables(&self) -> Vec<Symbol> {
        self.vars.iter().map(|(_, v)| *v).collect()
    }

    /// A fresh register file with the constant pool preloaded. Reuse it across
    /// [`Program::eval_point`] calls: constants keep their slots (instructions
    /// never overwrite them), variables and instruction outputs are rewritten
    /// on every evaluation.
    pub fn new_regs(&self) -> Vec<f64> {
        let mut regs = vec![0.0; self.n_regs];
        for &(reg, value) in &self.consts {
            regs[reg as usize] = value;
        }
        regs
    }

    /// Resolves the program's variables against a caller point layout: entry
    /// `i` is the column of `vars` (the order of every point vector) holding
    /// the program's `i`-th variable, or `usize::MAX` when the point layout
    /// does not bind it (it then loads NaN, exactly like the tree walk). Do
    /// this once per batch, not once per point.
    pub fn bind_columns(&self, vars: &[Symbol]) -> Vec<usize> {
        self.vars
            .iter()
            .map(|(_, sym)| vars.iter().position(|v| v == sym).unwrap_or(usize::MAX))
            .collect()
    }

    /// Evaluates the program at one point given pre-resolved columns (from
    /// [`Program::bind_columns`]) and a scratch register file (from
    /// [`Program::new_regs`]). This is the accuracy hot loop's entry point:
    /// zero allocation, zero symbol lookups.
    pub fn eval_point(&self, columns: &[usize], point: &[f64], regs: &mut [f64]) -> f64 {
        for (&(reg, _), &col) in self.vars.iter().zip(columns) {
            regs[reg as usize] = point.get(col).copied().unwrap_or(f64::NAN);
        }
        self.run(regs)
    }

    /// Evaluates the program against any [`Bindings`] environment (the
    /// convenience entry point for one-off evaluations).
    pub fn eval_in<B: Bindings + ?Sized>(&self, env: &B) -> f64 {
        let mut regs = self.new_regs();
        for &(reg, sym) in &self.vars {
            regs[reg as usize] = env.value_of(sym).unwrap_or(f64::NAN);
        }
        self.run(&mut regs)
    }

    /// Evaluates the program over a batch of points sharing one variable
    /// layout, reusing a single register file for the whole sweep.
    pub fn eval_batch(&self, vars: &[Symbol], points: &[Vec<f64>]) -> Vec<f64> {
        let columns = self.bind_columns(vars);
        let mut regs = self.new_regs();
        points
            .iter()
            .map(|point| self.eval_point(&columns, point, &mut regs))
            .collect()
    }

    /// The instruction loop: variables and constants are already in `regs`.
    fn run(&self, regs: &mut [f64]) -> f64 {
        for instr in &self.instrs {
            let value = match *instr {
                Instr::Un { op, a, .. } => apply_op1(op, regs[a as usize]),
                Instr::Bin { op, a, b, .. } => apply_op2(op, regs[a as usize], regs[b as usize]),
                Instr::Tern { op, a, b, c, .. } => {
                    apply_op3(op, regs[a as usize], regs[b as usize], regs[c as usize])
                }
                Instr::Round32 { a, .. } => round_to_type(regs[a as usize], FpType::Binary32),
                Instr::Select { c, t, e, .. } => {
                    if regs[c as usize] != 0.0 {
                        regs[t as usize]
                    } else {
                        regs[e as usize]
                    }
                }
                Instr::Call {
                    fun, first, arity, ..
                } => {
                    let mut buf = [0.0f64; MAX_CALL_ARITY];
                    let args = &self.arg_pool[first as usize..(first + arity) as usize];
                    for (slot, &reg) in buf.iter_mut().zip(args) {
                        *slot = regs[reg as usize];
                    }
                    fun(&buf[..arity as usize])
                }
                Instr::CallUn { fun, a, .. } => fun(&[regs[a as usize]]),
                Instr::CallBin { fun, a, b, .. } => fun(&[regs[a as usize], regs[b as usize]]),
            };
            regs[instr.dst() as usize] = value;
        }
        regs[self.result as usize]
    }
}

/// Hash-consing key: two instructions with the same key compute the same value
/// (every instruction is pure), so the second is replaced by the first's
/// output register.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum CseKey {
    /// Constants keyed by bit pattern, so `0.0` / `-0.0` / NaN stay distinct.
    Const(u64),
    Var(Symbol),
    Un(RealOp, u32),
    Bin(RealOp, u32, u32),
    Tern(RealOp, u32, u32, u32),
    Round32(u32),
    Select(u32, u32, u32),
    /// Native calls keyed by function pointer identity plus argument registers.
    Call(usize, Vec<u32>),
}

struct Compiler<'t> {
    target: &'t Target,
    consts: Vec<(u32, f64)>,
    vars: Vec<(u32, Symbol)>,
    instrs: Vec<Instr>,
    arg_pool: Vec<u32>,
    cse: HashMap<CseKey, u32>,
    n_regs: u32,
}

impl<'t> Compiler<'t> {
    fn new(target: &'t Target) -> Compiler<'t> {
        Compiler {
            target,
            consts: Vec::new(),
            vars: Vec::new(),
            instrs: Vec::new(),
            arg_pool: Vec::new(),
            cse: HashMap::new(),
            n_regs: 0,
        }
    }

    fn fresh_reg(&mut self) -> u32 {
        let reg = self.n_regs;
        self.n_regs += 1;
        reg
    }

    fn const_reg(&mut self, value: f64) -> u32 {
        let key = CseKey::Const(value.to_bits());
        if let Some(&reg) = self.cse.get(&key) {
            return reg;
        }
        let reg = self.fresh_reg();
        self.consts.push((reg, value));
        self.cse.insert(key, reg);
        reg
    }

    fn var_reg(&mut self, var: Symbol) -> u32 {
        let key = CseKey::Var(var);
        if let Some(&reg) = self.cse.get(&key) {
            return reg;
        }
        let reg = self.fresh_reg();
        self.vars.push((reg, var));
        self.cse.insert(key, reg);
        reg
    }

    /// Emits `instr(dst)` unless an identical instruction already exists.
    fn emit(&mut self, key: CseKey, build: impl FnOnce(u32) -> Instr) -> u32 {
        if let Some(&reg) = self.cse.get(&key) {
            return reg;
        }
        // Register discipline (dst fresh and strictly above every operand) is
        // checked by the IR verifier after compilation rather than asserted
        // per-emit; see `crate::analysis::verify`.
        let dst = self.fresh_reg();
        let instr = build(dst);
        self.instrs.push(instr);
        self.cse.insert(key, dst);
        dst
    }

    /// Rounds `reg` to `ty`; binary64 and bool rounding is the identity and
    /// emits nothing.
    fn round(&mut self, reg: u32, ty: FpType) -> u32 {
        match ty {
            FpType::Binary64 | FpType::Bool => reg,
            FpType::Binary32 => {
                self.emit(CseKey::Round32(reg), |dst| Instr::Round32 { a: reg, dst })
            }
        }
    }

    fn select(&mut self, c: u32, t: u32, e: u32) -> u32 {
        self.emit(CseKey::Select(c, t, e), |dst| Instr::Select {
            c,
            t,
            e,
            dst,
        })
    }

    /// Emits a real-operator application over already-compiled registers.
    fn real_op(&mut self, op: RealOp, args: &[u32]) -> u32 {
        match *args {
            [a] => self.emit(CseKey::Un(op, a), |dst| Instr::Un { op, a, dst }),
            [a, b] => self.emit(CseKey::Bin(op, a, b), |dst| Instr::Bin { op, a, b, dst }),
            [a, b, c] => self.emit(CseKey::Tern(op, a, b, c), |dst| Instr::Tern {
                op,
                a,
                b,
                c,
                dst,
            }),
            _ => panic!("{op} has unsupported arity {}", args.len()),
        }
    }

    /// Compiles a float expression, returning the register holding its value.
    fn compile_float(&mut self, expr: &FloatExpr) -> u32 {
        match expr {
            FloatExpr::Num(v, _) => self.const_reg(*v),
            FloatExpr::Var(v, ty) => {
                let raw = self.var_reg(*v);
                self.round(raw, *ty)
            }
            FloatExpr::Op(id, args) => {
                let op = self.target.operator(*id);
                assert_eq!(args.len(), op.arity(), "arity mismatch calling {}", op.name);
                // Mirror the tree walk: evaluate each argument, round it to
                // the operator's argument type, run the implementation, round
                // the result to the return type.
                let mut arg_regs = Vec::with_capacity(args.len());
                for (arg, ty) in args.iter().zip(&op.arg_types) {
                    let raw = self.compile_float(arg);
                    arg_regs.push(self.round(raw, *ty));
                }
                let raw = match op.implementation {
                    Impl::Native(fun) => self.call(fun, op.sweep, &arg_regs, &op.name),
                    Impl::Emulated => self.inline_real(&op.desugaring, &arg_regs),
                };
                self.round(raw, op.ret_type)
            }
            FloatExpr::Cmp(op, a, b) => {
                let lhs = self.compile_float(a);
                let rhs = self.compile_float(b);
                assert!(
                    matches!(
                        op,
                        RealOp::Lt | RealOp::Gt | RealOp::Le | RealOp::Ge | RealOp::Eq | RealOp::Ne
                    ),
                    "{op} is not a comparison"
                );
                self.real_op(*op, &[lhs, rhs])
            }
            FloatExpr::If(c, t, e) => {
                let cond = self.compile_float(c);
                let then = self.compile_float(t);
                let els = self.compile_float(e);
                self.select(cond, then, els)
            }
        }
    }

    fn call(
        &mut self,
        fun: fn(&[f64]) -> f64,
        sweep: Option<crate::operator::SweepImpl>,
        arg_regs: &[u32],
        name: &str,
    ) -> u32 {
        use crate::operator::SweepImpl;
        assert!(
            arg_regs.len() <= MAX_CALL_ARITY,
            "native operator {name} has arity {} > {MAX_CALL_ARITY}",
            arg_regs.len()
        );
        let key = CseKey::Call(fun as usize, arg_regs.to_vec());
        if let Some(&reg) = self.cse.get(&key) {
            return reg;
        }
        // Operators with a block-wide sweep form compile to the dedicated
        // call instruction the block engine can dispatch a whole lane slice
        // through (the scalar engines still call `fun` per point).
        match (sweep, arg_regs) {
            (Some(SweepImpl::Un(sweep)), &[a]) => {
                return self.emit(key, |dst| Instr::CallUn { fun, sweep, a, dst });
            }
            (Some(SweepImpl::Bin(sweep)), &[a, b]) => {
                return self.emit(key, |dst| Instr::CallBin {
                    fun,
                    sweep,
                    a,
                    b,
                    dst,
                });
            }
            (Some(_), _) => panic!("sweep form of {name} does not match its arity"),
            (None, _) => {}
        }
        let first = self.arg_pool.len() as u32;
        self.arg_pool.extend_from_slice(arg_regs);
        let arity = arg_regs.len() as u32;
        self.emit(key, |dst| Instr::Call {
            fun,
            first,
            arity,
            dst,
        })
    }

    /// Inlines an emulated operator's real-number desugaring: the positional
    /// argument symbols `a0..aN` resolve to the (already rounded) argument
    /// registers; any other free symbol loads NaN, matching the tree walk's
    /// `ArgBindings` semantics.
    fn inline_real(&mut self, expr: &Expr, arg_regs: &[u32]) -> u32 {
        match expr {
            Expr::Num(c) => self.const_reg(c.to_f64()),
            Expr::Var(v) => (0..arg_regs.len())
                .find(|&i| arg_symbol(i) == *v)
                .map_or_else(|| self.const_reg(f64::NAN), |i| arg_regs[i]),
            Expr::Op(op, args) => {
                let regs: Vec<u32> = args.iter().map(|a| self.inline_real(a, arg_regs)).collect();
                self.real_op(*op, &regs)
            }
            Expr::If(c, t, e) => {
                let cond = self.inline_real(c, arg_regs);
                let then = self.inline_real(t, arg_regs);
                let els = self.inline_real(e, arg_regs);
                self.select(cond, then, els)
            }
        }
    }

    fn finish(self, result: u32) -> Program {
        Program {
            n_regs: self.n_regs as usize,
            consts: self.consts,
            vars: self.vars,
            instrs: self.instrs,
            arg_pool: self.arg_pool,
            result,
        }
    }
}

/// Compiles a float program for batch evaluation on `target`.
///
/// The compiled [`Program`] is bit-identical to
/// [`crate::interp::eval_float_expr_in`] on every input (including NaN and
/// infinities): it performs the same host operations in dataflow order, and
/// every instruction is pure, so sharing subtrees (CSE) and evaluating both
/// sides of a conditional (select) cannot change any result.
///
/// Compilation is linear in the program size (after inlining) and is meant to
/// be amortized: compile once per candidate, evaluate over every sample point.
///
/// # Panics
///
/// Panics on arity mismatches in the program or its desugarings (programming
/// errors in a target description, exactly as the tree walk would).
pub fn compile(target: &Target, expr: &FloatExpr) -> Program {
    let mut compiler = Compiler::new(target);
    let result = compiler.compile_float(expr);
    let program = compiler.finish(result);
    #[cfg(debug_assertions)]
    crate::analysis::verify::assert_valid(
        &program,
        Some(target),
        crate::analysis::verify::Mode::Ssa,
    );
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{eval_float_expr_in, SliceEnv};
    use crate::operator::Operator;
    use fpcore::FpType::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn target() -> Target {
        Target::new("t", "test").with_operators(vec![
            Operator::emulated("+.f64", &[Binary64, Binary64], Binary64, "(+ a0 a1)", 1.0),
            Operator::emulated("*.f64", &[Binary64, Binary64], Binary64, "(* a0 a1)", 1.0),
            Operator::emulated("exp.f64", &[Binary64], Binary64, "(exp a0)", 40.0),
            Operator::emulated("log1p.f64", &[Binary64], Binary64, "(log (+ 1 a0))", 20.0),
            Operator::emulated("/.f32", &[Binary32, Binary32], Binary32, "(/ a0 a1)", 10.0),
        ])
    }

    fn check_against_tree_walk(t: &Target, expr: &FloatExpr, vars: &[Symbol], points: &[Vec<f64>]) {
        let program = compile(t, expr);
        let compiled = program.eval_batch(vars, points);
        for (point, got) in points.iter().zip(compiled) {
            let want = eval_float_expr_in(t, expr, &SliceEnv::new(vars, point));
            assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "compiled diverges at {point:?}: tree walk {want}, bytecode {got}"
            );
        }
    }

    #[test]
    fn straight_line_programs_match_tree_walk() {
        let t = target();
        let add = t.find_operator("+.f64").unwrap();
        let mul = t.find_operator("*.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), Binary64);
        let prog = FloatExpr::Op(
            add,
            vec![
                FloatExpr::Op(mul, vec![x.clone(), x]),
                FloatExpr::literal(1.0, Binary64),
            ],
        );
        let vars = [Symbol::new("x")];
        let points: Vec<Vec<f64>> = vec![
            vec![3.0],
            vec![-0.0],
            vec![f64::NAN],
            vec![f64::INFINITY],
            vec![f64::NEG_INFINITY],
            vec![1e-308],
        ];
        check_against_tree_walk(&t, &prog, &vars, &points);
        assert_eq!(
            compile(&t, &prog).eval_in(&SliceEnv::new(&vars, &[3.0])),
            10.0
        );
    }

    #[test]
    fn unbound_variables_load_nan() {
        let t = target();
        let add = t.find_operator("+.f64").unwrap();
        let prog = FloatExpr::Op(
            add,
            vec![
                FloatExpr::Var(Symbol::new("zz"), Binary64),
                FloatExpr::literal(1.0, Binary64),
            ],
        );
        let program = compile(&t, &prog);
        let out = program.eval_batch(&[Symbol::new("x")], &[vec![2.0]]);
        assert!(out[0].is_nan());
    }

    #[test]
    fn binary32_rounding_is_preserved() {
        let t = target();
        let div32 = t.find_operator("/.f32").unwrap();
        let prog = FloatExpr::Op(
            div32,
            vec![
                FloatExpr::Var(Symbol::new("x"), Binary32),
                FloatExpr::literal(3.0, Binary32),
            ],
        );
        let vars = [Symbol::new("x")];
        let program = compile(&t, &prog);
        let out = program.eval_batch(&vars, &[vec![1.0]]);
        assert_eq!(out[0], (1.0f32 / 3.0f32) as f64);
        check_against_tree_walk(&t, &prog, &vars, &[vec![1.0], vec![0.1], vec![f64::NAN]]);
    }

    #[test]
    fn conditionals_select_the_taken_branch() {
        let t = target();
        let exp = t.find_operator("exp.f64").unwrap();
        let mul = t.find_operator("*.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), Binary64);
        let cond = FloatExpr::Cmp(
            RealOp::Lt,
            Box::new(x.clone()),
            Box::new(FloatExpr::literal(0.0, Binary64)),
        );
        let prog = FloatExpr::If(
            Box::new(cond.clone()),
            Box::new(FloatExpr::literal(-1.0, Binary64)),
            Box::new(FloatExpr::literal(1.0, Binary64)),
        );
        // CSE shares the then-arm's exp(x) with a consumer outside the
        // select, which reads it whichever way the branch goes.
        let shared = FloatExpr::Op(exp, vec![x.clone()]);
        let leaky = FloatExpr::Op(
            mul,
            vec![
                FloatExpr::If(
                    Box::new(cond),
                    Box::new(shared.clone()),
                    Box::new(FloatExpr::literal(1.0, Binary64)),
                ),
                shared,
            ],
        );
        let vars = [Symbol::new("x")];
        let points: Vec<Vec<f64>> = vec![vec![-2.0], vec![2.0], vec![f64::NAN]];
        check_against_tree_walk(&t, &prog, &vars, &points);
        check_against_tree_walk(&t, &leaky, &vars, &points);
    }

    #[test]
    fn desugarings_are_inlined_not_called() {
        let t = target();
        let log1p = t.find_operator("log1p.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), Binary64);
        let prog = FloatExpr::Op(log1p, vec![x]);
        let program = compile(&t, &prog);
        // log1p desugars to (log (+ 1 a0)): one add, one log, zero calls.
        assert_eq!(program.num_instrs(), 2);
        check_against_tree_walk(&t, &prog, &[Symbol::new("x")], &[vec![0.5], vec![-2.0]]);
    }

    /// A native operator with an observable execution count, to prove shared
    /// subtrees run once in the compiled form (and twice in the tree walk).
    fn counted_sqrt(args: &[f64]) -> f64 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        args[0].sqrt()
    }
    static CALLS: AtomicUsize = AtomicUsize::new(0);

    #[test]
    fn cse_evaluates_shared_subtrees_once() {
        let t = Target::new("t", "test").with_operators(vec![
            Operator::emulated("+.f64", &[Binary64, Binary64], Binary64, "(+ a0 a1)", 1.0),
            Operator::native(
                "sqrt.f64",
                &[Binary64],
                Binary64,
                "(sqrt a0)",
                2.0,
                counted_sqrt,
            ),
        ]);
        let add = t.find_operator("+.f64").unwrap();
        let sqrt = t.find_operator("sqrt.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), Binary64);
        // sqrt(x) + sqrt(x): the tree has two sqrt nodes, the dag has one.
        let shared = FloatExpr::Op(sqrt, vec![x]);
        let prog = FloatExpr::Op(add, vec![shared.clone(), shared]);
        let vars = [Symbol::new("x")];

        let program = compile(&t, &prog);
        assert_eq!(program.num_instrs(), 2, "one sqrt call and one add");

        CALLS.store(0, Ordering::Relaxed);
        let out = program.eval_batch(&vars, &[vec![9.0]]);
        assert_eq!(out[0], 6.0);
        assert_eq!(
            CALLS.load(Ordering::Relaxed),
            1,
            "the compiled dag evaluates the shared sqrt once"
        );

        CALLS.store(0, Ordering::Relaxed);
        let tree = eval_float_expr_in(&t, &prog, &SliceEnv::new(&vars, &[9.0]));
        assert_eq!(tree, 6.0);
        assert_eq!(
            CALLS.load(Ordering::Relaxed),
            2,
            "the tree walk re-evaluates the shared sqrt"
        );
    }

    #[test]
    fn cse_dedups_constants_and_variables() {
        let t = target();
        let add = t.find_operator("+.f64").unwrap();
        let mul = t.find_operator("*.f64").unwrap();
        let x = FloatExpr::Var(Symbol::new("x"), Binary64);
        // (x + 2) * (x + 2)
        let sum = FloatExpr::Op(add, vec![x.clone(), FloatExpr::literal(2.0, Binary64)]);
        let prog = FloatExpr::Op(mul, vec![sum.clone(), sum]);
        let program = compile(&t, &prog);
        assert_eq!(program.num_instrs(), 2, "one add (shared) and one mul");
        assert_eq!(program.variables(), vec![Symbol::new("x")]);
        check_against_tree_walk(&t, &prog, &[Symbol::new("x")], &[vec![3.0], vec![-1.5]]);
    }

    #[test]
    fn register_file_reuse_is_sound() {
        let t = target();
        let exp = t.find_operator("exp.f64").unwrap();
        let prog = FloatExpr::Op(exp, vec![FloatExpr::Var(Symbol::new("x"), Binary64)]);
        let program = compile(&t, &prog);
        let vars = [Symbol::new("x")];
        let columns = program.bind_columns(&vars);
        let mut regs = program.new_regs();
        // Sweeping twice over the same register file must give the same bits.
        let first: Vec<u64> = (0..10)
            .map(|i| {
                program
                    .eval_point(&columns, &[i as f64 * 0.1], &mut regs)
                    .to_bits()
            })
            .collect();
        let second: Vec<u64> = (0..10)
            .map(|i| {
                program
                    .eval_point(&columns, &[i as f64 * 0.1], &mut regs)
                    .to_bits()
            })
            .collect();
        assert_eq!(first, second);
    }
}
