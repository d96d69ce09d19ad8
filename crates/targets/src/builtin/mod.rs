//! The nine built-in target descriptions evaluated in the paper (Figure 6):
//! three hardware ISAs (Arith, Arith+FMA, AVX), three programming languages
//! (C99, Python, Julia), and three libraries (NumPy, vdt, fdlibm).

pub mod arith;
pub mod arith_fma;
pub mod avx;
pub mod c99;
pub mod fdlibm;
pub mod julia;
pub mod numpy;
pub mod python;
pub mod vdt;

use crate::operator::Operator;
use crate::target::Target;
use fpcore::FpType;
use std::sync::OnceLock;

/// Every built-in target, in the order of Figure 6.
pub fn all_targets() -> Vec<Target> {
    vec![
        arith::target(),
        arith_fma::target(),
        avx::target(),
        c99::target(),
        python::target(),
        julia::target(),
        numpy::target(),
        vdt::target(),
        fdlibm::target(),
    ]
}

/// Looks up a built-in target by name.
///
/// The nine targets are built once per process and the match is cloned: the
/// compile daemon looks a target up for every request, and building all nine
/// costs far more than cloning one.
pub fn by_name(name: &str) -> Option<Target> {
    static ALL: OnceLock<Vec<Target>> = OnceLock::new();
    ALL.get_or_init(all_targets)
        .iter()
        .find(|t| t.name == name)
        .cloned()
}

fn suffix(ty: FpType) -> &'static str {
    match ty {
        FpType::Binary32 => "f32",
        FpType::Binary64 => "f64",
        FpType::Bool => "bool",
    }
}

/// Per-operator costs for the basic arithmetic group.
#[derive(Clone, Copy, Debug)]
pub struct ArithCosts {
    /// Cost of `+`, `-`, `*`, negation and `fabs`.
    pub simple: f64,
    /// Cost of division.
    pub div: f64,
    /// Cost of square root.
    pub sqrt: f64,
}

/// The basic arithmetic operators (`+ - * / neg fabs sqrt`) at a given type.
pub(crate) fn basic_arith_ops(ty: FpType, costs: ArithCosts, include_neg: bool) -> Vec<Operator> {
    let s = suffix(ty);
    let bb = [ty, ty];
    let b = [ty];
    let mut ops = vec![
        Operator::emulated(&format!("+.{s}"), &bb, ty, "(+ a0 a1)", costs.simple),
        Operator::emulated(&format!("-.{s}"), &bb, ty, "(- a0 a1)", costs.simple),
        Operator::emulated(&format!("*.{s}"), &bb, ty, "(* a0 a1)", costs.simple),
        Operator::emulated(&format!("/.{s}"), &bb, ty, "(/ a0 a1)", costs.div),
        Operator::emulated(&format!("fabs.{s}"), &b, ty, "(fabs a0)", costs.simple),
        Operator::emulated(&format!("sqrt.{s}"), &b, ty, "(sqrt a0)", costs.sqrt),
    ];
    if include_neg {
        ops.push(Operator::emulated(
            &format!("neg.{s}"),
            &b,
            ty,
            "(- a0)",
            costs.simple,
        ));
    }
    ops
}

/// The C `math.h`-style library functions at a given type. `base` is added to
/// every cost and `scale` multiplies the per-function relative weights, which
/// lets targets with large interpretation overheads (Python, NumPy) flatten the
/// cost distribution, as observed in the paper.
pub(crate) fn libm_ops(ty: FpType, base: f64, scale: f64, include_fma: bool) -> Vec<Operator> {
    let s = suffix(ty);
    let b = [ty];
    let bb = [ty, ty];
    let bbb = [ty, ty, ty];
    let c = |w: f64| base + w * scale;
    let mut ops = vec![
        Operator::emulated(&format!("exp.{s}"), &b, ty, "(exp a0)", c(40.0)),
        Operator::emulated(&format!("exp2.{s}"), &b, ty, "(exp2 a0)", c(40.0)),
        Operator::emulated(&format!("expm1.{s}"), &b, ty, "(expm1 a0)", c(40.0)),
        Operator::emulated(&format!("log.{s}"), &b, ty, "(log a0)", c(35.0)),
        Operator::emulated(&format!("log2.{s}"), &b, ty, "(log2 a0)", c(35.0)),
        Operator::emulated(&format!("log10.{s}"), &b, ty, "(log10 a0)", c(35.0)),
        Operator::emulated(&format!("log1p.{s}"), &b, ty, "(log1p a0)", c(40.0)),
        Operator::emulated(&format!("pow.{s}"), &bb, ty, "(pow a0 a1)", c(80.0)),
        Operator::emulated(&format!("sin.{s}"), &b, ty, "(sin a0)", c(45.0)),
        Operator::emulated(&format!("cos.{s}"), &b, ty, "(cos a0)", c(45.0)),
        Operator::emulated(&format!("tan.{s}"), &b, ty, "(tan a0)", c(55.0)),
        Operator::emulated(&format!("asin.{s}"), &b, ty, "(asin a0)", c(50.0)),
        Operator::emulated(&format!("acos.{s}"), &b, ty, "(acos a0)", c(50.0)),
        Operator::emulated(&format!("atan.{s}"), &b, ty, "(atan a0)", c(55.0)),
        Operator::emulated(&format!("atan2.{s}"), &bb, ty, "(atan2 a0 a1)", c(70.0)),
        Operator::emulated(&format!("sinh.{s}"), &b, ty, "(sinh a0)", c(55.0)),
        Operator::emulated(&format!("cosh.{s}"), &b, ty, "(cosh a0)", c(55.0)),
        Operator::emulated(&format!("tanh.{s}"), &b, ty, "(tanh a0)", c(55.0)),
        Operator::emulated(&format!("asinh.{s}"), &b, ty, "(asinh a0)", c(60.0)),
        Operator::emulated(&format!("acosh.{s}"), &b, ty, "(acosh a0)", c(60.0)),
        Operator::emulated(&format!("atanh.{s}"), &b, ty, "(atanh a0)", c(60.0)),
        Operator::emulated(&format!("cbrt.{s}"), &b, ty, "(cbrt a0)", c(50.0)),
        Operator::emulated(&format!("hypot.{s}"), &bb, ty, "(hypot a0 a1)", c(60.0)),
        Operator::emulated(&format!("fmin.{s}"), &bb, ty, "(fmin a0 a1)", c(2.0)),
        Operator::emulated(&format!("fmax.{s}"), &bb, ty, "(fmax a0 a1)", c(2.0)),
        Operator::emulated(&format!("fmod.{s}"), &bb, ty, "(fmod a0 a1)", c(20.0)),
        Operator::emulated(&format!("fdim.{s}"), &bb, ty, "(fdim a0 a1)", c(3.0)),
        Operator::emulated(
            &format!("copysign.{s}"),
            &bb,
            ty,
            "(copysign a0 a1)",
            c(2.0),
        ),
        Operator::emulated(&format!("floor.{s}"), &b, ty, "(floor a0)", c(2.0)),
        Operator::emulated(&format!("ceil.{s}"), &b, ty, "(ceil a0)", c(2.0)),
        Operator::emulated(&format!("round.{s}"), &b, ty, "(round a0)", c(3.0)),
        Operator::emulated(&format!("trunc.{s}"), &b, ty, "(trunc a0)", c(2.0)),
    ];
    if include_fma {
        ops.push(Operator::emulated(
            &format!("fma.{s}"),
            &bbb,
            ty,
            "(fma a0 a1 a2)",
            c(1.0),
        ));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::IfCostStyle;

    #[test]
    fn all_nine_targets_exist() {
        let targets = all_targets();
        assert_eq!(targets.len(), 9);
        let names: Vec<&str> = targets.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "arith",
                "arith-fma",
                "avx",
                "c99",
                "python",
                "julia",
                "numpy",
                "vdt",
                "fdlibm"
            ]
        );
        for t in &targets {
            assert!(
                !t.operators.is_empty(),
                "target {} has no operators",
                t.name
            );
            assert!(!t.description.is_empty());
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("avx").is_some());
        assert!(by_name("julia").is_some());
        assert!(by_name("riscv").is_none());
    }

    #[test]
    fn by_name_returns_what_each_constructor_builds() {
        let constructors: [fn() -> Target; 9] = [
            arith::target,
            arith_fma::target,
            avx::target,
            c99::target,
            python::target,
            julia::target,
            numpy::target,
            vdt::target,
            fdlibm::target,
        ];
        for constructor in constructors {
            let built = constructor();
            let found = by_name(&built.name).unwrap();
            assert_eq!(found.name, built.name);
            assert_eq!(found.fingerprint(), built.fingerprint(), "{}", built.name);
        }
    }

    #[test]
    fn figure6_scalar_vector_split_matches_paper() {
        // AVX and NumPy are vector-style; everything else is scalar-style.
        for t in all_targets() {
            let expected = if t.name == "avx" || t.name == "numpy" {
                IfCostStyle::Vector
            } else {
                IfCostStyle::Scalar
            };
            assert_eq!(t.if_cost_style, expected, "target {}", t.name);
        }
    }

    #[test]
    fn figure6_linked_vs_emulated_matches_paper() {
        // AVX and vdt link against (emulations of) real approximate instructions;
        // the language targets only use accurate library functions and are
        // emulated. fdlibm links its internal subroutine implementations.
        for t in all_targets() {
            let (linked, _) = t.linked_emulated_counts();
            match t.name.as_str() {
                "avx" | "vdt" | "fdlibm" | "c99" => {
                    assert!(linked > 0, "target {} should have linked operators", t.name);
                }
                _ => assert_eq!(linked, 0, "target {} should be fully emulated", t.name),
            }
        }
    }

    #[test]
    fn hardware_targets_lack_transcendentals() {
        for name in ["arith", "arith-fma", "avx"] {
            let t = by_name(name).unwrap();
            assert!(
                t.operators
                    .iter()
                    .all(|o| !o.name.starts_with("exp.") && !o.name.starts_with("sin.")),
                "{name} must not offer transcendental functions"
            );
        }
        for name in ["c99", "python", "julia", "numpy", "vdt", "fdlibm"] {
            let t = by_name(name).unwrap();
            assert!(
                t.operators.iter().any(|o| o.name.starts_with("exp.")),
                "{name} must offer transcendental functions"
            );
        }
    }

    #[test]
    fn only_c_and_avx_offer_binary32() {
        use fpcore::FpType;
        for t in all_targets() {
            let has32 = t.supported_types().contains(&FpType::Binary32);
            let expected = matches!(t.name.as_str(), "avx" | "c99" | "vdt");
            assert_eq!(has32, expected, "target {}", t.name);
        }
    }

    #[test]
    fn python_lacks_fma_but_julia_has_it() {
        assert!(by_name("python")
            .unwrap()
            .find_operator("fma.f64")
            .is_none());
        assert!(by_name("julia").unwrap().find_operator("fma.f64").is_some());
    }

    #[test]
    fn every_operator_executes_on_benign_input() {
        for t in all_targets() {
            for op in &t.operators {
                let args: Vec<f64> = (0..op.arity()).map(|i| 0.5 + i as f64 * 0.25).collect();
                let out = op.execute(&args);
                assert!(
                    out.is_finite() || out.is_nan(),
                    "operator {} of {} produced a strange value",
                    op.name,
                    t.name
                );
            }
        }
    }

    #[test]
    fn every_operator_cost_is_positive() {
        for t in all_targets() {
            for op in &t.operators {
                assert!(
                    op.cost > 0.0,
                    "operator {} of {} has non-positive cost",
                    op.name,
                    t.name
                );
            }
        }
    }
}
