//! Seeded property tests of the engine over random e-graphs.
//!
//! Each case replays a SplitMix64-driven sequence of `add`, `union` and
//! `rebuild` calls over [`TestLang`], so a failure reproduces from its seed.

use crate::language::testlang::TestLang;
use crate::{EGraph, Id, Language, OpIndex, PatVar, Pattern, PatternNode, Rewrite};

/// SplitMix64 (Steele et al.), the workspace's seed expander.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const SEEDS: u64 = 40;
const STEPS: usize = 150;

/// Builds a random e-graph, calling `check` after every operation.
fn random_egraph(seed: u64, mut check: impl FnMut(&EGraph<TestLang>)) -> EGraph<TestLang> {
    let mut rng = SplitMix64(seed);
    let mut eg = EGraph::default();
    let mut ids: Vec<Id> = Vec::new();
    for _ in 0..STEPS {
        let pick = |rng: &mut SplitMix64, ids: &[Id]| ids[rng.below(ids.len())];
        match rng.below(10) {
            _ if ids.len() < 2 => ids.push(eg.add(TestLang::Var("x"))),
            0..=5 => {
                let node = match rng.below(5) {
                    0 => TestLang::Num(rng.below(3) as i64),
                    1 => TestLang::Var(["x", "y", "z"][rng.below(3)]),
                    2 => TestLang::Add([pick(&mut rng, &ids), pick(&mut rng, &ids)]),
                    3 => TestLang::Mul([pick(&mut rng, &ids), pick(&mut rng, &ids)]),
                    _ => TestLang::Neg([pick(&mut rng, &ids)]),
                };
                ids.push(eg.add(node));
            }
            6 | 7 => {
                eg.union(pick(&mut rng, &ids), pick(&mut rng, &ids));
            }
            _ => eg.rebuild(),
        }
        check(&eg);
    }
    eg
}

fn var(name: &str) -> PatternNode<TestLang> {
    PatternNode::Var(PatVar::new(name))
}

fn at(i: usize) -> Id {
    Id::from(i)
}

/// Linear, non-linear, nested and leaf patterns, as raw node lists.
fn pattern_nodes() -> Vec<Vec<PatternNode<TestLang>>> {
    use PatternNode::ENode;
    use TestLang::{Add, Mul, Neg, Num};
    vec![
        // (+ a b)
        vec![var("a"), var("b"), ENode(Add([at(0), at(1)]))],
        // (+ a a)
        vec![var("a"), var("a"), ENode(Add([at(0), at(1)]))],
        // (* a (+ b c))
        vec![
            var("a"),
            var("b"),
            var("c"),
            ENode(Add([at(1), at(2)])),
            ENode(Mul([at(0), at(3)])),
        ],
        // (* (+ a b) (+ b a))
        vec![
            var("a"),
            var("b"),
            ENode(Add([at(0), at(1)])),
            var("b"),
            var("a"),
            ENode(Add([at(3), at(4)])),
            ENode(Mul([at(2), at(5)])),
        ],
        // (- (- a))
        vec![var("a"), ENode(Neg([at(0)])), ENode(Neg([at(1)]))],
        // (* 1 a)
        vec![ENode(Num(1)), var("a"), ENode(Mul([at(0), at(1)]))],
        // (+ a 5): `random_egraph` makes no 5, so this never matches.
        vec![var("a"), ENode(Num(5)), ENode(Add([at(0), at(1)]))],
        // (+ (* 0 a) (- (* 1 2))): more distinct operators than a search
        // keeps on the stack.
        vec![
            ENode(Num(0)),
            var("a"),
            ENode(Mul([at(0), at(1)])),
            ENode(Num(1)),
            ENode(Num(2)),
            ENode(Mul([at(3), at(4)])),
            ENode(Neg([at(5)])),
            ENode(Add([at(2), at(6)])),
        ],
        // a
        vec![var("a")],
        // 2
        vec![ENode(Num(2))],
    ]
}

/// True when `a` and `b` are the same operator, ignoring children: the
/// reference's own comparison, independent of the operator index.
fn same_op(a: &TestLang, b: &TestLang) -> bool {
    use TestLang::{Add, Mul, Neg, Num, Var};
    match (a, b) {
        (Num(x), Num(y)) => x == y,
        (Var(x), Var(y)) => x == y,
        (Add(_), Add(_)) | (Mul(_), Mul(_)) | (Neg(_), Neg(_)) => true,
        _ => false,
    }
}

/// The specification of match order, written the way the engine's first
/// matcher worked: every e-node of a class is scanned for the operator, and
/// children are matched breadth-first, each extending a list of partial
/// substitutions, which therefore come out ordered by class, then e-node,
/// then the choice at each nested pattern node in pre-order.
fn reference_matches(
    nodes: &[PatternNode<TestLang>],
    eg: &EGraph<TestLang>,
    pos: usize,
    class: Id,
    subst: Vec<(PatVar, Id)>,
) -> Vec<Vec<(PatVar, Id)>> {
    let class = eg.find(class);
    match &nodes[pos] {
        PatternNode::Var(v) => match subst.iter().find(|(w, _)| w == v) {
            Some(&(_, bound)) if eg.find(bound) != class => vec![],
            Some(_) => vec![subst],
            None => {
                let mut subst = subst;
                subst.push((v.clone(), class));
                vec![subst]
            }
        },
        PatternNode::ENode(pnode) => {
            let mut out = Vec::new();
            for enode in &eg.class(class).nodes {
                if !same_op(enode, pnode) {
                    continue;
                }
                let mut partial = vec![subst.clone()];
                for (pc, ec) in pnode.children().iter().zip(enode.children()) {
                    partial = partial
                        .into_iter()
                        .flat_map(|s| reference_matches(nodes, eg, pc.index(), *ec, s))
                        .collect();
                }
                out.extend(partial);
            }
            out
        }
    }
}

/// Every match of `nodes` over every class, as `(class, slots)` in
/// reference order.
fn reference_search(nodes: &[PatternNode<TestLang>], eg: &EGraph<TestLang>) -> Vec<(Id, Vec<Id>)> {
    let slots = Pattern::from_nodes(nodes.to_vec()).variables().to_vec();
    let mut out = Vec::new();
    for class in eg.classes() {
        for subst in reference_matches(nodes, eg, nodes.len() - 1, class.id, Vec::new()) {
            let ids = slots
                .iter()
                .map(|v| subst.iter().find(|(w, _)| w == v).expect("bound").1)
                .collect();
            out.push((class.id, ids));
        }
    }
    out
}

fn listed(matches: &crate::Matches) -> Vec<(Id, Vec<Id>)> {
    matches.iter().map(|(c, s)| (c, s.to_vec())).collect()
}

#[test]
fn node_counter_matches_a_recount_after_every_operation() {
    for seed in 0..SEEDS {
        random_egraph(seed, |eg| {
            let nodes: usize = eg.classes().map(|c| c.nodes.len()).sum();
            assert_eq!(eg.number_of_nodes(), nodes, "seed {seed}");
        });
    }
}

#[test]
fn classes_iterate_in_ascending_id() {
    for seed in 0..SEEDS {
        random_egraph(seed, |eg| {
            let ids: Vec<Id> = eg.classes().map(|c| c.id).collect();
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "seed {seed}: {ids:?}");
            assert!(ids.iter().all(|&id| eg.find(id) == id), "seed {seed}");
        });
    }
}

/// True if some class holds e-nodes of one operator in two separate runs,
/// as a union leaves them before the rebuild sorts the class.
fn has_split_run(eg: &EGraph<TestLang>) -> bool {
    eg.classes().any(|class| {
        let starts = class
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, node)| i == 0 || !same_op(&class.nodes[i - 1], node));
        let mut ops: Vec<&TestLang> = starts.map(|(_, node)| node).collect();
        let runs = ops.len();
        ops.sort();
        ops.dedup_by(|a, b| same_op(a, b));
        ops.len() < runs
    })
}

#[test]
fn indexed_search_equals_a_search_of_every_class_in_reference_order() {
    let patterns: Vec<_> = pattern_nodes()
        .into_iter()
        .map(|nodes| (Pattern::from_nodes(nodes.clone()), nodes))
        .collect();
    let mut split_runs = 0;
    for seed in 0..SEEDS {
        random_egraph(seed, |eg| {
            split_runs += usize::from(has_split_run(eg));
            let index = OpIndex::new(eg);
            for (pattern, nodes) in &patterns {
                let indexed = pattern.search(eg, &index, usize::MAX);
                assert_eq!(
                    listed(&indexed),
                    reference_search(nodes, eg),
                    "seed {seed}, {nodes:?}"
                );
            }
        });
    }
    assert!(split_runs > 0, "no case holds an operator in two runs");
}

#[test]
fn a_limited_search_returns_the_first_matches_of_the_unlimited_one() {
    for seed in 0..SEEDS {
        let mut eg = random_egraph(seed, |_| {});
        eg.rebuild();
        let index = OpIndex::new(&eg);
        for nodes in pattern_nodes() {
            let pattern = Pattern::from_nodes(nodes);
            let all = listed(&pattern.search(&eg, &index, usize::MAX));
            for k in 0..=all.len() + 1 {
                let limited = listed(&pattern.search(&eg, &index, k));
                assert_eq!(limited, all[..k.min(all.len())], "seed {seed}, k {k}");
            }
        }
    }
}

#[test]
fn rewrite_maps_rhs_slots_to_the_lhs_slots_of_the_same_variable() {
    use PatternNode::ENode;
    use TestLang::{Add, Mul};
    // (+ a b) => (+ b a)
    let commute = Rewrite::new(
        "commute",
        Pattern::from_nodes(vec![var("a"), var("b"), ENode(Add([at(0), at(1)]))]),
        Pattern::from_nodes(vec![var("b"), var("a"), ENode(Add([at(0), at(1)]))]),
    );
    // (* a (+ b c)) => (+ c (* b a)): rhs slots are c, b, a.
    let shuffle = Rewrite::new(
        "shuffle",
        Pattern::from_nodes(vec![
            var("a"),
            var("b"),
            var("c"),
            ENode(Add([at(1), at(2)])),
            ENode(Mul([at(0), at(3)])),
        ]),
        Pattern::from_nodes(vec![
            var("c"),
            var("b"),
            var("a"),
            ENode(Mul([at(1), at(2)])),
            ENode(Add([at(0), at(3)])),
        ]),
    );
    let mut eg = EGraph::default();
    let x = eg.add(TestLang::Var("x"));
    let y = eg.add(TestLang::Var("y"));
    let z = eg.add(TestLang::Var("z"));
    let xy = eg.add(Add([x, y]));
    let yz = eg.add(Add([y, z]));
    let product = eg.add(Mul([x, yz]));
    commute.run(&mut eg);
    shuffle.run(&mut eg);
    eg.rebuild();
    assert_eq!(eg.lookup(Add([y, x])), Some(eg.find(xy)));
    let yx = eg.lookup(Mul([y, x])).expect("(* y x) instantiated");
    assert_eq!(eg.lookup(Add([z, yx])), Some(eg.find(product)));
}
