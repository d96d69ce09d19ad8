//! S-expression parser for FPCore benchmarks and bare expressions.
//!
//! The grammar is the subset of FPCore 1.2 used by the Herbie benchmark suite:
//!
//! ```text
//! fpcore ::= ( FPCore symbol? ( arg* ) property* expr )
//! arg    ::= symbol | ( ! :precision prec symbol )
//! expr   ::= number | constant | symbol
//!          | ( op expr+ ) | ( if expr expr expr ) | ( let ( (sym expr)* ) expr )
//! property ::= :name string | :pre expr | :precision prec | :<other> datum
//! ```
//!
//! `let` bindings are eliminated by substitution at parse time, since the rest of
//! the compiler works on pure expression trees.
//!
//! Input deeper than [`MAX_DEPTH`] is a [`ParseError`], so no untrusted text can
//! drive this parser, or any recursive pass after it, into a stack overflow; a
//! `let` substitution larger than [`MAX_NODES`] is one too, so no short text
//! can expand into an exponentially large tree.

use crate::ast::{Expr, FPCore, RealOp};
use crate::constant::Constant;
use crate::symbol::Symbol;
use crate::types::FpType;
use std::collections::HashMap;
use std::fmt;

/// The deepest nesting the parser accepts: lists inside lists in the text
/// (the `(FPCore ...)` form itself is depth 1), and the depth of any
/// expression tree a `let` substitution or a variadic fold such as
/// `(+ a b c ...)` produces.
///
/// Parsing, canonicalization, hashing, lowering, Rival, the e-graph and the
/// printer all recurse over the expression tree, and a stack overflow aborts
/// the process rather than unwinding. The threads compile work runs on get
/// [`THREAD_STACK_BYTES`]. With Rust's 2 MiB default for spawned threads, an
/// unoptimized build overflowed a daemon connection thread between 256 and
/// 512 levels, so this limit leaves a factor of two even there. The deepest
/// benchmark in the corpus nests 8 levels.
pub const MAX_DEPTH: usize = 128;

/// The stack size, in bytes, of the threads compile work runs on:
/// `chassis::par`'s helpers, and the compile daemon's connection and pool
/// worker threads (replacements included).
///
/// Whether an item of a `chassis::par` fan-out runs on the calling thread or
/// on a helper depends on timing, so a helper gets the main thread's usual
/// stack (8 MiB on Linux) rather than Rust's 2 MiB default for spawned
/// threads: an input within [`MAX_DEPTH`] then overflows no helper where it
/// would not overflow the main thread. The daemon's threads parse, hash and
/// compile the same inputs, so they get the same stack.
pub const THREAD_STACK_BYTES: usize = 8 << 20;

/// The most nodes a `let` substitution may produce.
///
/// Substitution copies a binding's value into every place its name occurs, so
/// a `let*` chain whose bindings each name the previous one twice,
/// `(a1 (+ a0 a0)) (a2 (+ a1 a1)) ...`, doubles the tree with each binding
/// while its depth stays small: 22 such bindings, under 400 bytes of text,
/// would expand to 8.4 million nodes, and a few more would exhaust memory.
/// The parser computes an expansion's size before building it. The largest
/// benchmark in the corpus has 79 nodes, `:pre` included.
pub const MAX_NODES: usize = 10_000;

/// An error produced while parsing FPCore text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed S-expression datum.
#[derive(Clone, PartialEq, Debug)]
enum Sexpr {
    Atom(String),
    Str(String),
    List(Vec<Sexpr>),
}

struct Lexer<'a> {
    text: &'a [u8],
    pos: usize,
    /// How many lists enclose the datum being parsed.
    depth: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Lexer<'a> {
        Lexer {
            text: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_trivia(&mut self) {
        while self.pos < self.text.len() {
            let b = self.text[self.pos];
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b';' {
                while self.pos < self.text.len() && self.text[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_trivia();
        self.text.get(self.pos).copied()
    }

    fn parse_datum(&mut self) -> Result<Sexpr, ParseError> {
        match self.peek() {
            None => Err(ParseError::new("unexpected end of input")),
            Some(b'(') | Some(b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(depth_error());
                }
                let close = if self.text[self.pos] == b'(' {
                    b')'
                } else {
                    b']'
                };
                self.pos += 1;
                self.depth += 1;
                let mut items = Vec::new();
                loop {
                    match self.peek() {
                        None => return Err(ParseError::new("unterminated list")),
                        Some(b) if b == close => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Sexpr::List(items));
                        }
                        Some(b')') | Some(b']') => {
                            return Err(ParseError::new("mismatched bracket"))
                        }
                        Some(_) => items.push(self.parse_datum()?),
                    }
                }
            }
            Some(b')') | Some(b']') => Err(ParseError::new("unexpected closing bracket")),
            Some(b'"') => {
                self.pos += 1;
                let start = self.pos;
                while self.pos < self.text.len() && self.text[self.pos] != b'"' {
                    self.pos += 1;
                }
                if self.pos >= self.text.len() {
                    return Err(ParseError::new("unterminated string"));
                }
                let s = String::from_utf8_lossy(&self.text[start..self.pos]).into_owned();
                self.pos += 1;
                Ok(Sexpr::Str(s))
            }
            Some(_) => {
                let start = self.pos;
                while self.pos < self.text.len() {
                    let b = self.text[self.pos];
                    if b.is_ascii_whitespace() || b == b'(' || b == b')' || b == b'[' || b == b']' {
                        break;
                    }
                    self.pos += 1;
                }
                let s = String::from_utf8_lossy(&self.text[start..self.pos]).into_owned();
                Ok(Sexpr::Atom(s))
            }
        }
    }

    fn at_end(&mut self) -> bool {
        self.peek().is_none()
    }
}

fn depth_error() -> ParseError {
    ParseError::new(format!("nesting deeper than {MAX_DEPTH} levels"))
}

/// The body of a `let*` with every bound name replaced by its value, built in
/// one walk: a name resolves to the latest binding before the place it
/// occurs (for a name in a binding's value, before that binding), and a name
/// no such binding has stays free. This is the tree that substituting the
/// bindings into the body one at a time, innermost first, would give.
///
/// The expansion is refused before it is built if it would have more than
/// [`MAX_NODES`] nodes or be deeper than [`MAX_DEPTH`]. Substituting one
/// binding at a time never shrinks the tree, so the final size and depth
/// decide; when both are over, the node cap is reported. A body that names no
/// binding is returned as it is, and a value nothing uses is never built.
/// The body and every value must already be within [`MAX_DEPTH`].
fn expand_let(bindings: &[(Symbol, Expr)], body: Expr) -> Result<Expr, ParseError> {
    let env = LetEnv::new(bindings);
    let scope = bindings.len();
    let (size, depth, names_a_binding) = env.measure(&body, scope);
    if !names_a_binding {
        return Ok(body);
    }
    if size > MAX_NODES {
        return Err(ParseError::new(format!(
            "let substitution larger than {MAX_NODES} nodes"
        )));
    }
    if depth > MAX_DEPTH {
        return Err(depth_error());
    }
    Ok(env.build(&body, scope))
}

/// The bindings of one `let*`, indexed for [`expand_let`].
struct LetEnv<'a> {
    bindings: &'a [(Symbol, Expr)],
    /// For each bound name, the indices of its bindings, ascending.
    by_name: HashMap<Symbol, Vec<usize>>,
    /// For each binding, the size and depth its value expands to
    /// (saturating, so a value nothing uses may be far over the caps).
    measures: Vec<(usize, usize)>,
    /// For each binding, the binding its value ends at once a value that is
    /// just a bound name is followed to that name's binding, and so on.
    targets: Vec<usize>,
}

impl<'a> LetEnv<'a> {
    fn new(bindings: &'a [(Symbol, Expr)]) -> LetEnv<'a> {
        let mut by_name: HashMap<Symbol, Vec<usize>> = HashMap::new();
        for (i, (name, _)) in bindings.iter().enumerate() {
            by_name.entry(*name).or_default().push(i);
        }
        let mut env = LetEnv {
            bindings,
            by_name,
            measures: Vec::with_capacity(bindings.len()),
            targets: Vec::with_capacity(bindings.len()),
        };
        // In binding order, so each value reads the measures and targets of
        // the bindings before it.
        for (i, (_, value)) in bindings.iter().enumerate() {
            let (size, depth, _) = env.measure(value, i);
            env.measures.push((size, depth));
            let target = match value {
                Expr::Var(v) => env.lookup(*v, i).map_or(i, |k| env.targets[k]),
                _ => i,
            };
            env.targets.push(target);
        }
        env
    }

    /// The binding `name` refers to among the first `scope` bindings.
    fn lookup(&self, name: Symbol, scope: usize) -> Option<usize> {
        let indices = self.by_name.get(&name)?;
        let before = indices.partition_point(|&i| i < scope);
        before.checked_sub(1).map(|k| indices[k])
    }

    /// The size and depth `expr` expands to with its names resolved among
    /// the first `scope` bindings, and whether it names any of them.
    fn measure(&self, expr: &Expr, scope: usize) -> (usize, usize, bool) {
        match expr {
            Expr::Num(_) => (1, 1, false),
            Expr::Var(v) => match self.lookup(*v, scope) {
                Some(k) => (self.measures[k].0, self.measures[k].1, true),
                None => (1, 1, false),
            },
            Expr::Op(_, args) => self.measure_node(args.iter(), scope),
            Expr::If(c, t, e) => self.measure_node([&**c, &**t, &**e].into_iter(), scope),
        }
    }

    /// [`measure`](Self::measure) of a node with the given children.
    fn measure_node<'e>(
        &self,
        children: impl Iterator<Item = &'e Expr>,
        scope: usize,
    ) -> (usize, usize, bool) {
        children.map(|child| self.measure(child, scope)).fold(
            (1, 1, false),
            |(size, depth, names), (s, d, n)| {
                (size.saturating_add(s), depth.max(d + 1), names || n)
            },
        )
    }

    /// `expr` with its names resolved among the first `scope` bindings.
    fn build(&self, expr: &Expr, scope: usize) -> Expr {
        match expr {
            Expr::Num(_) => expr.clone(),
            Expr::Var(v) => match self.lookup(*v, scope) {
                Some(k) => {
                    let target = self.targets[k];
                    self.build(&self.bindings[target].1, target)
                }
                None => expr.clone(),
            },
            Expr::Op(op, args) => {
                Expr::Op(*op, args.iter().map(|a| self.build(a, scope)).collect())
            }
            Expr::If(c, t, e) => Expr::If(
                Box::new(self.build(c, scope)),
                Box::new(self.build(t, scope)),
                Box::new(self.build(e, scope)),
            ),
        }
    }
}

fn expr_from_sexpr(sexpr: &Sexpr) -> Result<Expr, ParseError> {
    match sexpr {
        Sexpr::Str(s) => Err(ParseError::new(format!("unexpected string {s:?}"))),
        Sexpr::Atom(tok) => {
            if let Some(c) = Constant::parse(tok) {
                Ok(Expr::Num(c))
            } else if tok.starts_with(|c: char| c.is_ascii_digit()) {
                Err(ParseError::new(format!("malformed number {tok:?}")))
            } else {
                Ok(Expr::Var(Symbol::new(tok)))
            }
        }
        Sexpr::List(items) => {
            let (head, rest) = items
                .split_first()
                .ok_or_else(|| ParseError::new("empty application"))?;
            let head = match head {
                Sexpr::Atom(a) => a.as_str(),
                _ => return Err(ParseError::new("application head must be a symbol")),
            };
            match head {
                "if" => {
                    if rest.len() != 3 {
                        return Err(ParseError::new("if expects 3 arguments"));
                    }
                    Ok(Expr::If(
                        Box::new(expr_from_sexpr(&rest[0])?),
                        Box::new(expr_from_sexpr(&rest[1])?),
                        Box::new(expr_from_sexpr(&rest[2])?),
                    ))
                }
                "let" | "let*" => {
                    if rest.len() != 2 {
                        return Err(ParseError::new("let expects bindings and a body"));
                    }
                    let Sexpr::List(bindings) = &rest[0] else {
                        return Err(ParseError::new("let bindings must be a list"));
                    };
                    let mut parsed: Vec<(Symbol, Expr)> = Vec::new();
                    for b in bindings {
                        match b {
                            Sexpr::List(pair) if pair.len() == 2 => {
                                let name = match &pair[0] {
                                    Sexpr::Atom(a) => Symbol::new(a),
                                    _ => {
                                        return Err(ParseError::new(
                                            "let binding name must be a symbol",
                                        ))
                                    }
                                };
                                parsed.push((name, expr_from_sexpr(&pair[1])?));
                            }
                            _ => return Err(ParseError::new("malformed let binding")),
                        }
                    }
                    // let* semantics, a superset of let for the corpus: a
                    // binding's value may name earlier bindings, and names it
                    // takes from outside the `let` are never bound by them.
                    expand_let(&parsed, expr_from_sexpr(&rest[1])?)
                }
                "-" if rest.len() == 1 => Ok(Expr::un(RealOp::Neg, expr_from_sexpr(&rest[0])?)),
                "+" | "*" | "and" | "or" if rest.len() > 2 => {
                    // Fold variadic forms left-associatively.
                    let op = RealOp::from_name(head).expect("known variadic operator");
                    let mut iter = rest.iter();
                    let mut acc = expr_from_sexpr(iter.next().expect("nonempty"))?;
                    // Each step nests the accumulator one level deeper, so a
                    // long flat list would fold into a tree as deep as it is
                    // long; track the depth and stop at the cap.
                    let mut depth = acc.depth();
                    for arg in iter {
                        let arg = expr_from_sexpr(arg)?;
                        depth = depth.max(arg.depth()) + 1;
                        if depth > MAX_DEPTH {
                            return Err(depth_error());
                        }
                        acc = Expr::bin(op, acc, arg);
                    }
                    Ok(acc)
                }
                _ => {
                    let op = RealOp::from_name(head)
                        .ok_or_else(|| ParseError::new(format!("unknown operator {head:?}")))?;
                    if rest.len() != op.arity() {
                        return Err(ParseError::new(format!(
                            "operator {head} expects {} argument(s), got {}",
                            op.arity(),
                            rest.len()
                        )));
                    }
                    let args = rest
                        .iter()
                        .map(expr_from_sexpr)
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(Expr::Op(op, args))
                }
            }
        }
    }
}

fn fpcore_from_sexpr(sexpr: &Sexpr) -> Result<FPCore, ParseError> {
    let Sexpr::List(items) = sexpr else {
        return Err(ParseError::new("FPCore must be a list"));
    };
    let mut iter = items.iter();
    match iter.next() {
        Some(Sexpr::Atom(a)) if a == "FPCore" => {}
        _ => return Err(ParseError::new("expected (FPCore ...)")),
    }
    let mut rest: Vec<&Sexpr> = iter.collect();
    if rest.is_empty() {
        return Err(ParseError::new("FPCore missing argument list and body"));
    }

    // Optional identifier before the argument list.
    let mut name: Option<String> = None;
    if let Sexpr::Atom(a) = rest[0] {
        name = Some(a.clone());
        rest.remove(0);
    }

    let args_sexpr = rest
        .first()
        .ok_or_else(|| ParseError::new("FPCore missing argument list"))?;
    let Sexpr::List(args_list) = args_sexpr else {
        return Err(ParseError::new("FPCore arguments must be a list"));
    };
    let mut args = Vec::new();
    for a in args_list {
        match a {
            Sexpr::Atom(sym) => args.push((Symbol::new(sym), FpType::Binary64)),
            Sexpr::List(ann) => {
                // (! :precision binary32 x)
                let mut arg_ty = FpType::Binary64;
                let mut arg_name = None;
                let mut i = 0;
                while i < ann.len() {
                    match &ann[i] {
                        Sexpr::Atom(t) if t == "!" => i += 1,
                        Sexpr::Atom(t) if t == ":precision" => {
                            if let Some(Sexpr::Atom(p)) = ann.get(i + 1) {
                                arg_ty = FpType::from_name(p).ok_or_else(|| {
                                    ParseError::new(format!("unknown precision {p:?}"))
                                })?;
                            }
                            i += 2;
                        }
                        Sexpr::Atom(t) if t.starts_with(':') => i += 2,
                        Sexpr::Atom(sym) => {
                            arg_name = Some(Symbol::new(sym));
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                let sym =
                    arg_name.ok_or_else(|| ParseError::new("annotated argument missing name"))?;
                args.push((sym, arg_ty));
            }
            Sexpr::Str(_) => return Err(ParseError::new("argument cannot be a string")),
        }
    }
    rest.remove(0);

    // Properties come in (:key datum) pairs; the final datum is the body.
    let body_sexpr = rest
        .pop()
        .ok_or_else(|| ParseError::new("FPCore missing body"))?;
    let mut pre = None;
    let mut precision = FpType::Binary64;
    let mut i = 0;
    while i < rest.len() {
        let key = match rest[i] {
            Sexpr::Atom(a) if a.starts_with(':') => a.as_str(),
            other => {
                return Err(ParseError::new(format!(
                    "expected property keyword, got {other:?}"
                )))
            }
        };
        let value = rest
            .get(i + 1)
            .ok_or_else(|| ParseError::new(format!("property {key} missing value")))?;
        match key {
            ":name" => {
                if let Sexpr::Str(s) | Sexpr::Atom(s) = value {
                    name = Some(s.clone());
                }
            }
            ":pre" => pre = Some(expr_from_sexpr(value)?),
            ":precision" => {
                if let Sexpr::Atom(p) = value {
                    precision = FpType::from_name(p)
                        .ok_or_else(|| ParseError::new(format!("unknown precision {p:?}")))?;
                }
            }
            // Other properties (:spec, :cite, :herbie-target, ...) are ignored.
            _ => {}
        }
        i += 2;
    }

    Ok(FPCore {
        name,
        args,
        pre,
        precision,
        body: expr_from_sexpr(body_sexpr)?,
    })
}

/// Parses a bare expression, e.g. `(+ x 1)`.
pub fn parse_expr(text: &str) -> Result<Expr, ParseError> {
    let mut lexer = Lexer::new(text);
    let datum = lexer.parse_datum()?;
    if !lexer.at_end() {
        return Err(ParseError::new("trailing input after expression"));
    }
    expr_from_sexpr(&datum)
}

/// Parses a single `(FPCore ...)` form.
pub fn parse_fpcore(text: &str) -> Result<FPCore, ParseError> {
    let mut lexer = Lexer::new(text);
    let datum = lexer.parse_datum()?;
    if !lexer.at_end() {
        return Err(ParseError::new("trailing input after FPCore"));
    }
    fpcore_from_sexpr(&datum)
}

/// Parses a file containing any number of `(FPCore ...)` forms.
pub fn parse_fpcores(text: &str) -> Result<Vec<FPCore>, ParseError> {
    let mut lexer = Lexer::new(text);
    let mut out = Vec::new();
    while !lexer.at_end() {
        let datum = lexer.parse_datum()?;
        out.push(fpcore_from_sexpr(&datum)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_expression() {
        let e = parse_expr("(+ (* x x) 1)").unwrap();
        assert_eq!(e.size(), 5);
        assert_eq!(e.variables().len(), 1);
    }

    #[test]
    fn parses_unary_minus_and_variadic_plus() {
        let e = parse_expr("(- x)").unwrap();
        assert!(matches!(e, Expr::Op(RealOp::Neg, _)));
        let e = parse_expr("(+ a b c d)").unwrap();
        assert_eq!(e.variables().len(), 4);
    }

    #[test]
    fn parses_constants() {
        let e = parse_expr("(* PI 2)").unwrap();
        assert_eq!(e.size(), 3);
        let e = parse_expr("-1.5e3").unwrap();
        assert!(matches!(e, Expr::Num(_)));
    }

    #[test]
    fn parses_if_and_comparison() {
        let e = parse_expr("(if (< x 0) (- x) x)").unwrap();
        assert!(e.has_if());
    }

    #[test]
    fn let_is_substituted() {
        let e = parse_expr("(let ((t (+ x 1))) (* t t))").unwrap();
        assert_eq!(e, parse_expr("(* (+ x 1) (+ x 1))").unwrap());
        let e = parse_expr("(let* ((a (+ x 1)) (b (* a 2))) b)").unwrap();
        assert_eq!(e, parse_expr("(* (+ x 1) 2)").unwrap());
    }

    #[test]
    fn let_star_values_keep_outer_names() {
        // `z` in `x`'s value is the outer `z`, not the binding after it.
        let e = parse_expr("(let* ((x (+ z 1)) (z 5) (w (* x z))) w)").unwrap();
        assert_eq!(e, parse_expr("(* (+ z 1) 5)").unwrap());
    }

    #[test]
    fn let_star_later_bindings_shadow_earlier_ones() {
        let e = parse_expr("(let* ((x 1) (x (+ x 2))) (* x x))").unwrap();
        assert_eq!(e, parse_expr("(* (+ 1 2) (+ 1 2))").unwrap());
        let e = parse_expr("(let* ((a 1) (b a) (a 2)) (+ a b))").unwrap();
        assert_eq!(e, parse_expr("(+ 2 1)").unwrap());
        // A value naming its own binding names the outer variable.
        let e = parse_expr("(let ((x (+ x 1))) (* x 2))").unwrap();
        assert_eq!(e, parse_expr("(* (+ x 1) 2)").unwrap());
    }

    #[test]
    fn let_star_values_naming_later_bindings_keep_them_free() {
        let e = parse_expr("(let* ((a (+ b 1)) (b 7) (c (* a b))) (- c a))").unwrap();
        assert_eq!(e, parse_expr("(- (* (+ b 1) 7) (+ b 1))").unwrap());
    }

    #[test]
    fn unused_let_values_are_neither_built_nor_refused() {
        // a60 would expand to 2^61 - 1 nodes, but nothing names it.
        let doubling: String = (1..=60)
            .map(|i| format!("(a{i} (+ a{0} a{0}))", i - 1))
            .collect();
        let e = parse_expr(&format!("(let* ({doubling}) (- a0))")).unwrap();
        assert_eq!(e, parse_expr("(- a0)").unwrap());
        let e = parse_expr(&format!("(let* ({doubling}) a3)")).unwrap();
        assert_eq!(e.size(), 15);
    }

    #[test]
    fn long_let_alias_chains_expand_without_deep_recursion() {
        // `(let* ((a1 a0) (a2 a1) ... (an a(n-1))) (+ an an))`.
        let n = 50_000;
        let aliases: String = (1..=n).map(|i| format!("(a{i} a{})", i - 1)).collect();
        let e = parse_expr(&format!("(let* ({aliases}) (+ a{n} a{n}))")).unwrap();
        assert_eq!(e, parse_expr("(+ a0 a0)").unwrap());
    }

    /// Xorshift64 drawing small `let*` forms over the names `a b c x`.
    struct Forms(u64);

    impl Forms {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn name(&mut self) -> &'static str {
            ["a", "b", "c", "x"][self.below(4)]
        }

        /// A small literal, a name, or a sum of two names.
        fn term(&mut self) -> String {
            match self.below(4) {
                0 => self.below(3).to_string(),
                1 => self.name().to_owned(),
                _ => format!("(+ {} {})", self.name(), self.name()),
            }
        }
    }

    #[test]
    fn let_expansion_equals_substituting_one_binding_at_a_time() {
        let mut forms = Forms(0x2545_f491_4f6c_dd1d);
        for case in 0..500 {
            let bindings: Vec<(&str, String)> = (0..forms.below(5))
                .map(|_| (forms.name(), forms.term()))
                .collect();
            let body = format!("(* {} {})", forms.term(), forms.term());
            let listed: String = bindings
                .iter()
                .map(|(name, value)| format!("({name} {value})"))
                .collect();
            let text = format!("(let* ({listed}) {body})");
            // The old expansion as the reference: one substitution per
            // binding, innermost first.
            let expected = bindings
                .iter()
                .rev()
                .fold(parse_expr(&body).unwrap(), |e, (name, value)| {
                    e.substitute(Symbol::new(name), &parse_expr(value).unwrap())
                });
            assert_eq!(parse_expr(&text).unwrap(), expected, "case {case}: {text}");
        }
    }

    #[test]
    fn let_substitution_is_capped_at_max_nodes() {
        // `(let* ((a1 (+ a0 a0)) ... (an (+ a(n-1) a(n-1)))) an)` expands to
        // 2^(n+1) - 1 nodes.
        let bindings = |n: usize| -> String {
            (1..=n)
                .map(|i| format!("(a{i} (+ a{0} a{0}))", i - 1))
                .collect()
        };
        let doubling = |n: usize| format!("(FPCore (a0) (let* ({}) a{n}))", bindings(n));
        let largest = (MAX_NODES + 1).ilog2() as usize - 1;
        let core = parse_fpcore(&doubling(largest)).unwrap();
        assert_eq!(core.body.size(), (1 << (largest + 1)) - 1);
        for n in [largest + 1, 22, 30, 60] {
            let err = parse_fpcore(&doubling(n)).unwrap_err();
            assert!(err.to_string().contains("larger than"), "{err}");
        }
        // The cap holds wherever the copies land: four uses of the largest
        // chain's value are over it.
        let a = format!("a{largest}");
        let text = format!("(let* ({}) (+ (+ {a} {a}) (+ {a} {a})))", bindings(largest));
        let err = parse_expr(&text).unwrap_err();
        assert!(err.to_string().contains("larger than"), "{err}");
    }

    #[test]
    fn parses_full_fpcore() {
        let src = r#"
            (FPCore (a b c)
              :name "quadratic formula"
              :pre (and (> a 0) (> (* b b) (* 4 (* a c))))
              (/ (+ (- b) (sqrt (- (* b b) (* 4 (* a c))))) (* 2 a)))
        "#;
        let core = parse_fpcore(src).unwrap();
        assert_eq!(core.name.as_deref(), Some("quadratic formula"));
        assert_eq!(core.args.len(), 3);
        assert!(core.pre.is_some());
        assert_eq!(core.precision, FpType::Binary64);
    }

    #[test]
    fn parses_annotated_argument_precision() {
        let core =
            parse_fpcore("(FPCore ((! :precision binary32 x) y) :precision binary32 (+ x y))")
                .unwrap();
        assert_eq!(core.args[0].1, FpType::Binary32);
        assert_eq!(core.args[1].1, FpType::Binary64);
        assert_eq!(core.precision, FpType::Binary32);
    }

    #[test]
    fn parses_multiple_cores_and_comments() {
        let src = "; a comment\n(FPCore (x) x)\n(FPCore (y) (exp y))";
        let cores = parse_fpcores(src).unwrap();
        assert_eq!(cores.len(), 2);
    }

    #[test]
    fn reports_errors() {
        assert!(parse_expr("(+ x").is_err());
        assert!(parse_expr("(unknown x)").is_err());
        assert!(parse_expr("(sqrt x y)").is_err());
        assert!(parse_fpcore("(NotFPCore (x) x)").is_err());
        assert!(parse_expr("(+ x 1) junk").is_err());
    }

    /// `(FPCore (x) (+ x (+ x ... x)))` with `lists` levels of list nesting.
    fn nested_core(lists: usize) -> String {
        let adds = lists - 1;
        format!("(FPCore (x) {}x{})", "(+ x ".repeat(adds), ")".repeat(adds))
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let core = parse_fpcore(&nested_core(MAX_DEPTH)).unwrap();
        assert_eq!(core.body.depth(), MAX_DEPTH);
        for lists in [MAX_DEPTH + 1, 5_000, 1_000_000] {
            let err = parse_fpcore(&nested_core(lists)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper"), "{err}");
        }
        assert!(parse_expr(&"(".repeat(1_000_000)).is_err());
        // A chain of shallow `let*` bindings substitutes into a deep tree.
        let chain = |n: usize| {
            let bindings: String = (1..=n)
                .map(|i| format!("(a{i} (+ a{} 1))", i - 1))
                .collect();
            format!("(FPCore (a0) (let* ({bindings}) a{n}))")
        };
        let core = parse_fpcore(&chain(MAX_DEPTH - 1)).unwrap();
        assert_eq!(core.body.depth(), MAX_DEPTH);
        let err = parse_fpcore(&chain(MAX_DEPTH)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");
        // The deepest occurrence counts, wherever it is: `a` is 30 levels
        // down in one operand and right below the root in the other.
        let value = format!("{}x{}", "(+ x ".repeat(99), ")".repeat(99));
        let text = format!(
            "(let ((a {value})) (+ {}a{} a))",
            "(- ".repeat(30),
            ")".repeat(30)
        );
        let err = parse_expr(&text).unwrap_err();
        assert!(err.to_string().contains("nesting deeper"), "{err}");

        // So does a flat variadic form: `(+ x ... x)` with n arguments folds
        // into a tree n deep.
        let sum = |n: usize| format!("(FPCore (x) (+{}))", " x".repeat(n));
        let pre = |n: usize| format!("(FPCore (x) :pre (and{}) x)", " (< x 1)".repeat(n));
        let core = parse_fpcore(&sum(MAX_DEPTH)).unwrap();
        assert_eq!(core.body.depth(), MAX_DEPTH);
        let core = parse_fpcore(&pre(MAX_DEPTH - 1)).unwrap();
        assert_eq!(core.pre.unwrap().depth(), MAX_DEPTH);
        for n in [MAX_DEPTH + 1, 5_000] {
            for text in [sum(n), pre(n)] {
                let err = parse_fpcore(&text).unwrap_err();
                assert!(err.to_string().contains("nesting deeper"), "{err}");
            }
        }
    }

    #[test]
    fn round_trip_through_printer() {
        let src = "(/ (- (exp x) 1) x)";
        let e = parse_expr(src).unwrap();
        let printed = crate::printer::to_sexpr(&e);
        let reparsed = parse_expr(&printed).unwrap();
        assert_eq!(e, reparsed);
    }
}
