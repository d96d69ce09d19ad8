//! E-graph saturation pinned below the search.
//!
//! Three digests over every corpus benchmark:
//!
//! * the instruction selector under `Config::fast` on `c99` and `arith-fma`:
//!   its run report and its ordered candidate list;
//! * the same selector digest on all nine built-in targets, the targets the
//!   retargeting workload compiles for; and
//! * a deliberately truncating run (`match_limit` = 8) over the math and
//!   desugaring rules, on `c99` and `arith-fma`: its union count and every
//!   class, id and nodes, in iteration order.
//!
//! The truncating digest depends on which matches each rule finds first, so
//! a change to the matcher's order (class order, node order within a class,
//! pre-order child choice), to the union sequence or to class numbering
//! fails here before it reaches a frontier. The runner's limits all count
//! work, so no digest depends on machine speed.

use chassis::isel::{InstructionSelector, TargetRules};
use chassis::lang::expr_to_rec;
use chassis::lower::variable_types;
use chassis::Config;
use egraph::{EGraph, Runner, RunnerLimits};
use fpcore::hash::ContentHasher;
use targets::{builtin, Target};

const TARGETS: [&str; 2] = ["c99", "arith-fma"];

/// The selector's run report and ordered candidates for every corpus
/// benchmark on each of `targets`, hashed in corpus order.
fn selector_digest(targets: &[Target]) -> String {
    let config = Config::fast().improve.isel;
    let rules: Vec<TargetRules> = targets
        .iter()
        .map(|target| TargetRules::new(target).unwrap())
        .collect();
    let selectors: Vec<InstructionSelector> = targets
        .iter()
        .zip(&rules)
        .map(|(target, rules)| InstructionSelector::new(target, rules, config))
        .collect();
    let mut hasher = ContentHasher::new();
    for bench in benchsuite::all() {
        let core = bench.fpcore();
        for (target, selector) in targets.iter().zip(&selectors) {
            let result = selector.run(&core.body, &variable_types(&core), core.precision);
            let report = &result.report;
            hasher.u64(report.iterations as u64);
            hasher.str(&format!("{:?}", report.stop_reason));
            hasher.u64(report.nodes as u64);
            hasher.u64(report.classes as u64);
            hasher.u64(report.applied as u64);
            for candidate in &result.candidates {
                hasher.str(&candidate.render(target));
            }
        }
    }
    hasher.hex_digest()
}

#[test]
fn selector_digest_is_pinned() {
    let targets = TARGETS.map(|name| builtin::by_name(name).unwrap());
    assert_eq!(
        selector_digest(&targets),
        "d1eb6ae47cd366488339b25d79f69732"
    );
}

#[test]
fn selector_digest_on_every_builtin_target_is_pinned() {
    assert_eq!(
        selector_digest(&builtin::all_targets()),
        "3caa371b55d41776071121fb555deb68"
    );
}

#[test]
fn truncating_saturation_digest_is_pinned() {
    let limits = RunnerLimits {
        iter_limit: 3,
        node_limit: 3_000,
        match_limit: 8,
    };
    let rule_sets = TARGETS.map(|name| {
        let rules = TargetRules::new(&builtin::by_name(name).unwrap()).unwrap();
        rules.selection().to_vec()
    });
    let mut hasher = ContentHasher::new();
    for bench in benchsuite::all() {
        let core = bench.fpcore();
        for rule_set in &rule_sets {
            let mut egraph = EGraph::default();
            egraph.add_expr(&expr_to_rec(&core.body));
            let report = Runner::with_limits(limits).run(&mut egraph, rule_set);
            hasher.u64(report.applied as u64);
            for class in egraph.classes() {
                hasher.u64(class.id.index() as u64);
                hasher.str(&format!("{:?}", class.nodes));
            }
        }
    }
    assert_eq!(hasher.hex_digest(), "6bc877cb6b7386e3f5a63de8f1a52025");
}
