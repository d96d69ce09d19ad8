//! The equality-saturation runner: repeatedly applies a rule set until
//! saturation or until resource limits are hit.
//!
//! Every limit counts work (iterations, e-nodes, matches) and the runner
//! reads no clock, so a run's result does not depend on machine speed. A
//! caller that needs a time bound enforces it between runs.

use crate::egraph::EGraph;
use crate::language::Language;
use crate::pattern::{Matches, OpIndex};
use crate::rewrite::Rewrite;

/// Resource limits for a saturation run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunnerLimits {
    /// Maximum number of rule-application iterations.
    pub iter_limit: usize,
    /// Stop once the e-graph holds this many e-nodes (the paper uses 8000).
    pub node_limit: usize,
    /// Cap on matches applied per rule per iteration (guards against explosive
    /// rules such as associativity). A rule's search stops at this many
    /// matches, which are the first ones in match order.
    pub match_limit: usize,
}

impl Default for RunnerLimits {
    fn default() -> Self {
        RunnerLimits {
            iter_limit: 8,
            node_limit: 8_000,
            match_limit: 2_500,
        }
    }
}

/// Why a saturation run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// No rule produced any new equality.
    Saturated,
    /// The iteration limit was reached.
    IterLimit,
    /// The node limit was reached.
    NodeLimit,
}

/// Statistics about a completed run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// E-nodes in the final e-graph.
    pub nodes: usize,
    /// E-classes in the final e-graph.
    pub classes: usize,
    /// Total unions applied by rewrites.
    pub applied: usize,
}

/// Drives equality saturation over an e-graph.
#[derive(Clone, Debug, Default)]
pub struct Runner {
    limits: RunnerLimits,
}

impl Runner {
    /// A runner with default limits.
    pub fn new() -> Runner {
        Runner::default()
    }

    /// A runner with the given limits.
    pub fn with_limits(limits: RunnerLimits) -> Runner {
        Runner { limits }
    }

    /// The limits this runner enforces.
    pub fn limits(&self) -> RunnerLimits {
        self.limits
    }

    /// Runs the rules until saturation or a limit is reached. The e-graph is
    /// rebuilt after every iteration, so it is clean when this returns.
    pub fn run<L: Language>(&self, egraph: &mut EGraph<L>, rules: &[Rewrite<L>]) -> RunReport {
        let mut iterations = 0;
        let mut total_applied = 0;
        let stop_reason = loop {
            if iterations >= self.limits.iter_limit {
                break StopReason::IterLimit;
            }
            // Chaos harness: an armed abort behaves exactly like hitting the
            // node cap — the run stops with whatever equalities exist so far.
            if fault::point("egraph.saturate") {
                break StopReason::NodeLimit;
            }
            if egraph.number_of_nodes() >= self.limits.node_limit {
                break StopReason::NodeLimit;
            }

            // Search all rules against the current (clean) e-graph, then apply.
            // Searching before applying keeps one iteration's matches independent
            // of the order rules are listed in.
            let mut iteration_applied = 0;
            let index = OpIndex::new(egraph);
            let all_matches: Vec<Matches> = rules
                .iter()
                .map(|rule| rule.search(egraph, &index, self.limits.match_limit))
                .collect();
            for (rule, matches) in rules.iter().zip(&all_matches) {
                iteration_applied += rule.apply(egraph, matches);
                if egraph.number_of_nodes() >= self.limits.node_limit {
                    break;
                }
            }
            egraph.rebuild();
            iterations += 1;
            total_applied += iteration_applied;

            if iteration_applied == 0 {
                break StopReason::Saturated;
            }
        };
        // Make sure the e-graph is clean even if we stopped mid-iteration.
        if egraph.is_dirty() {
            egraph.rebuild();
        }
        RunReport {
            iterations,
            stop_reason,
            nodes: egraph.number_of_nodes(),
            classes: egraph.number_of_classes(),
            applied: total_applied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::testlang::TestLang;
    use crate::language::Id;
    use crate::pattern::{PatVar, Pattern, PatternNode};

    type EG = EGraph<TestLang>;
    type RW = Rewrite<TestLang>;

    fn binary_pattern(make: fn([Id; 2]) -> TestLang, a: &str, b: &str) -> Pattern<TestLang> {
        Pattern::from_nodes(vec![
            PatternNode::Var(PatVar::new(a)),
            PatternNode::Var(PatVar::new(b)),
            PatternNode::ENode(make([Id::from(0usize), Id::from(1usize)])),
        ])
    }

    fn rules() -> Vec<RW> {
        vec![
            Rewrite::new(
                "commute-add",
                binary_pattern(TestLang::Add, "a", "b"),
                binary_pattern(TestLang::Add, "b", "a"),
            ),
            Rewrite::new(
                "commute-mul",
                binary_pattern(TestLang::Mul, "a", "b"),
                binary_pattern(TestLang::Mul, "b", "a"),
            ),
        ]
    }

    #[test]
    fn saturates_on_commutativity() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let xy = eg.add(TestLang::Add([x, y]));
        let report = Runner::new().run(&mut eg, &rules());
        assert_eq!(report.stop_reason, StopReason::Saturated);
        assert!(report.iterations <= 3);
        let yx = eg.lookup(TestLang::Add([y, x])).unwrap();
        assert_eq!(eg.find(yx), eg.find(xy));
    }

    #[test]
    fn respects_iteration_limit() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let _ = eg.add(TestLang::Add([x, y]));
        let limits = RunnerLimits {
            iter_limit: 0,
            ..RunnerLimits::default()
        };
        let report = Runner::with_limits(limits).run(&mut eg, &rules());
        assert_eq!(report.stop_reason, StopReason::IterLimit);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn respects_node_limit() {
        let mut eg = EG::default();
        let mut prev = eg.add(TestLang::Var("x"));
        for i in 0..20 {
            let n = eg.add(TestLang::Num(i));
            let sum = eg.add(TestLang::Add([prev, n]));
            prev = sum;
        }
        let limits = RunnerLimits {
            node_limit: 10,
            ..RunnerLimits::default()
        };
        let report = Runner::with_limits(limits).run(&mut eg, &rules());
        assert_eq!(report.stop_reason, StopReason::NodeLimit);
    }

    #[test]
    fn report_counts_are_consistent() {
        let mut eg = EG::default();
        let x = eg.add(TestLang::Var("x"));
        let y = eg.add(TestLang::Var("y"));
        let _ = eg.add(TestLang::Mul([x, y]));
        let report = Runner::new().run(&mut eg, &rules());
        assert_eq!(report.nodes, eg.number_of_nodes());
        assert_eq!(report.classes, eg.number_of_classes());
        assert!(report.applied >= 1);
    }
}
