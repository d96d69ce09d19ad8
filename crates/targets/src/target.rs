//! Target descriptions: a named collection of operators plus cost-model details.

use crate::operator::{OpId, Operator};
use fpcore::FpType;
use std::fmt;

/// How the cost model accounts for conditionals (paper Section 4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IfCostStyle {
    /// Scalar execution: pay for the predicate plus the *more expensive* branch.
    Scalar,
    /// Vector/masked execution (AVX blend, `numpy.where`): pay for the predicate
    /// plus *both* branches.
    Vector,
}

/// A compilation target: the set of available floating-point operators and the
/// information needed to rank programs by estimated speed.
#[derive(Clone, Debug)]
pub struct Target {
    /// Target name (e.g. `avx`, `julia`).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Available operators.
    pub operators: Vec<Operator>,
    /// Conditional cost style.
    pub if_cost_style: IfCostStyle,
    /// Fixed overhead added for each conditional.
    pub if_base_cost: f64,
    /// Cost of materializing a literal.
    pub literal_cost: f64,
    /// Cost of referencing a variable.
    pub variable_cost: f64,
    /// Where the cost numbers come from (e.g. `auto-tune`, `Fog [20]`).
    pub cost_source: String,
}

impl Target {
    /// Creates an empty target with scalar conditionals and unit literal costs.
    pub fn new(name: &str, description: &str) -> Target {
        Target {
            name: name.to_owned(),
            description: description.to_owned(),
            operators: Vec::new(),
            if_cost_style: IfCostStyle::Scalar,
            if_base_cost: 1.0,
            literal_cost: 1.0,
            variable_cost: 1.0,
            cost_source: "auto-tune".to_owned(),
        }
    }

    /// Sets the conditional cost style (builder style).
    pub fn with_if_style(mut self, style: IfCostStyle, base_cost: f64) -> Target {
        self.if_cost_style = style;
        self.if_base_cost = base_cost;
        self
    }

    /// Sets literal/variable costs (builder style).
    pub fn with_leaf_costs(mut self, literal: f64, variable: f64) -> Target {
        self.literal_cost = literal;
        self.variable_cost = variable;
        self
    }

    /// Records the provenance of the cost model (builder style).
    pub fn with_cost_source(mut self, source: &str) -> Target {
        self.cost_source = source.to_owned();
        self
    }

    /// Adds an operator, returning its id. Name uniqueness (and the other
    /// target description rules) are checked by
    /// [`crate::analysis::verify_target`] rather than asserted here, so
    /// builders can be checked once when finished.
    pub fn add_operator(&mut self, op: Operator) -> OpId {
        self.operators.push(op);
        OpId(self.operators.len() as u32 - 1)
    }

    /// Adds several operators (builder style).
    pub fn with_operators(mut self, ops: Vec<Operator>) -> Target {
        for op in ops {
            self.add_operator(op);
        }
        self
    }

    /// Imports every operator of another target (paper: "targets can import,
    /// combine, or modify other targets"). Operators with the same name are
    /// replaced by the imported version.
    pub fn import(&mut self, other: &Target) {
        for op in &other.operators {
            match self.find_operator(&op.name) {
                Some(id) => self.operators[id.index()] = op.clone(),
                None => {
                    self.operators.push(op.clone());
                }
            }
        }
    }

    /// The operator with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids are only valid for the target that
    /// produced them).
    pub fn operator(&self, id: OpId) -> &Operator {
        &self.operators[id.index()]
    }

    /// Looks up an operator by name.
    pub fn find_operator(&self, name: &str) -> Option<OpId> {
        self.operators
            .iter()
            .position(|op| op.name == name)
            .map(|i| OpId(i as u32))
    }

    /// A stable 128-bit fingerprint of everything about this target that can
    /// influence a compilation result: the name, every operator (name,
    /// signature, desugaring, cost, native/emulated), and the cost-model
    /// scalars. Two targets with equal fingerprints compile every expression
    /// identically, so the compilation service keys its content-addressed
    /// result cache on this (together with the benchmark, seed, and config —
    /// see `docs/SERVICE.md`).
    ///
    /// Native function *pointers* cannot be hashed portably; a linked
    /// operator is identified by its name plus a `native` tag, which is sound
    /// because operator names name fixed documented semantics (the
    /// sweep/scalar pairing rule already depends on that).
    pub fn fingerprint(&self) -> u128 {
        let mut h = fpcore::hash::ContentHasher::new();
        h.str(&self.name);
        h.u64(self.operators.len() as u64);
        for op in &self.operators {
            h.str(&op.name);
            h.u64(op.arg_types.len() as u64);
            for ty in &op.arg_types {
                h.str(ty.name());
            }
            h.str(op.ret_type.name());
            h.str(&fpcore::to_sexpr(&op.desugaring));
            h.f64(op.cost);
            h.str(if op.is_linked() { "native" } else { "emulated" });
        }
        h.str(match self.if_cost_style {
            IfCostStyle::Scalar => "scalar",
            IfCostStyle::Vector => "vector",
        });
        h.f64(self.if_base_cost);
        h.f64(self.literal_cost);
        h.f64(self.variable_cost);
        h.digest()
    }

    /// All operator ids.
    pub fn operator_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.operators.len()).map(|i| OpId(i as u32))
    }

    /// The numeric types this target supports (those appearing as a return type).
    pub fn supported_types(&self) -> Vec<FpType> {
        let mut tys: Vec<FpType> = self
            .operators
            .iter()
            .map(|o| o.ret_type)
            .filter(|t| t.is_numeric())
            .collect();
        tys.sort();
        tys.dedup();
        tys
    }

    /// Number of operators whose implementation is linked (native) vs emulated.
    pub fn linked_emulated_counts(&self) -> (usize, usize) {
        let linked = self.operators.iter().filter(|o| o.is_linked()).count();
        (linked, self.operators.len() - linked)
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (linked, emulated) = self.linked_emulated_counts();
        write!(
            f,
            "{}: {} operators ({} linked, {} emulated), {:?} conditionals, costs from {}",
            self.name,
            self.operators.len(),
            linked,
            emulated,
            self.if_cost_style,
            self.cost_source
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpcore::FpType::*;

    fn tiny_target() -> Target {
        Target::new("tiny", "test target").with_operators(vec![
            Operator::emulated("+.f64", &[Binary64, Binary64], Binary64, "(+ a0 a1)", 1.0),
            Operator::emulated("*.f64", &[Binary64, Binary64], Binary64, "(* a0 a1)", 1.0),
            Operator::emulated("/.f64", &[Binary64, Binary64], Binary64, "(/ a0 a1)", 4.0),
        ])
    }

    #[test]
    fn lookup_and_ids() {
        let t = tiny_target();
        let div = t.find_operator("/.f64").unwrap();
        assert_eq!(t.operator(div).cost, 4.0);
        assert!(t.find_operator("sin.f64").is_none());
        assert_eq!(t.operator_ids().count(), 3);
        assert_eq!(t.supported_types(), vec![Binary64]);
    }

    #[test]
    fn import_extends_and_overrides() {
        let mut fancy = Target::new("fancy", "extended");
        fancy.import(&tiny_target());
        assert_eq!(fancy.operators.len(), 3);
        // Override division with a cheaper one and add a new operator.
        let cheaper =
            Operator::emulated("/.f64", &[Binary64, Binary64], Binary64, "(/ a0 a1)", 2.0);
        let mut patch = Target::new("patch", "");
        patch.add_operator(cheaper);
        patch.add_operator(Operator::emulated(
            "sqrt.f64",
            &[Binary64],
            Binary64,
            "(sqrt a0)",
            5.0,
        ));
        fancy.import(&patch);
        assert_eq!(fancy.operators.len(), 4);
        assert_eq!(
            fancy.operator(fancy.find_operator("/.f64").unwrap()).cost,
            2.0
        );
    }

    #[test]
    fn builder_options() {
        let t = Target::new("v", "vector target")
            .with_if_style(IfCostStyle::Vector, 2.0)
            .with_leaf_costs(0.5, 0.25)
            .with_cost_source("Fog [20]");
        assert_eq!(t.if_cost_style, IfCostStyle::Vector);
        assert_eq!(t.if_base_cost, 2.0);
        assert_eq!(t.literal_cost, 0.5);
        assert_eq!(t.variable_cost, 0.25);
        assert_eq!(t.cost_source, "Fog [20]");
    }

    #[test]
    fn display_summarizes() {
        let display = tiny_target().to_string();
        assert!(display.contains("tiny"));
        assert!(display.contains("3 operators"));
    }

    #[test]
    fn fingerprints_separate_semantic_changes() {
        let base = tiny_target();
        assert_eq!(base.fingerprint(), tiny_target().fingerprint());
        // The description is cosmetic; the cost model is not.
        let mut cosmetic = tiny_target();
        cosmetic.description = "renamed description".to_owned();
        assert_eq!(base.fingerprint(), cosmetic.fingerprint());
        let mut costlier = tiny_target();
        costlier.literal_cost = 3.5;
        assert_ne!(base.fingerprint(), costlier.fingerprint());
        let mut fewer_ops = tiny_target();
        fewer_ops.operators.pop();
        assert_ne!(base.fingerprint(), fewer_ops.fingerprint());
    }
}
