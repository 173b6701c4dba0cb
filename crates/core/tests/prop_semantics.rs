//! Property-based tests tying the whole §4.1 stack together on random
//! graphs and random expressions: exact counting, naive counting,
//! enumeration and uniform generation must all agree, and the
//! deterministic product must accept exactly what the NFA product does.

use kgq_core::automata::Nfa;
use kgq_core::count::{count_paths_naive, ExactCounter};
use kgq_core::enumerate::enumerate_paths_governed;
use kgq_core::expr::{PathExpr, Test};
use kgq_core::gen::UniformSampler;
use kgq_core::model::{LabeledView, PathGraph};
use kgq_core::product::Product;
use kgq_graph::{LabeledGraph, NodeId};
use proptest::prelude::*;

/// `enumerate_paths_governed` under an unlimited governor.
fn enumerate_paths<G: PathGraph>(g: &G, expr: &PathExpr, k: usize) -> Vec<kgq_core::Path> {
    let res = enumerate_paths_governed(g, expr, k, &kgq_core::Governor::unlimited()).unwrap();
    assert!(!res.is_partial());
    res.value.paths
}

const NODE_LABELS: [&str; 2] = ["a", "b"];
const EDGE_LABELS: [&str; 2] = ["p", "q"];

#[derive(Clone, Debug)]
struct GraphSpec {
    node_labels: Vec<usize>,
    edges: Vec<(usize, usize, usize)>,
}

fn graph_strategy() -> impl Strategy<Value = GraphSpec> {
    (2usize..7).prop_flat_map(|n| {
        (
            proptest::collection::vec(0..NODE_LABELS.len(), n),
            proptest::collection::vec((0..n, 0..n, 0..EDGE_LABELS.len()), 1..12),
        )
            .prop_map(|(node_labels, edges)| GraphSpec { node_labels, edges })
    })
}

fn build(spec: &GraphSpec) -> LabeledGraph {
    let mut g = LabeledGraph::new();
    // Intern every label up front so strategies can reference them even
    // when a random graph does not use one.
    for l in NODE_LABELS.iter().chain(EDGE_LABELS.iter()) {
        g.intern(l);
    }
    let nodes: Vec<NodeId> = spec
        .node_labels
        .iter()
        .enumerate()
        .map(|(i, &l)| g.add_node(&format!("n{i}"), NODE_LABELS[l]).unwrap())
        .collect();
    for (i, &(s, d, l)) in spec.edges.iter().enumerate() {
        g.add_edge(&format!("e{i}"), nodes[s], nodes[d], EDGE_LABELS[l])
            .unwrap();
    }
    g
}

/// Random star-free-or-starred expression of bounded depth.
fn expr_strategy(g: &LabeledGraph) -> impl Strategy<Value = PathExpr> {
    let nl: Vec<_> = NODE_LABELS.iter().map(|l| g.sym(l).unwrap()).collect();
    let el: Vec<_> = EDGE_LABELS.iter().map(|l| g.sym(l).unwrap()).collect();
    let leaf = prop_oneof![
        (0..nl.len()).prop_map({
            let nl = nl.clone();
            move |i| PathExpr::NodeTest(Test::Label(nl[i]))
        }),
        (0..el.len()).prop_map({
            let el = el.clone();
            move |i| PathExpr::Forward(Test::Label(el[i]))
        }),
        (0..el.len()).prop_map({
            let el = el.clone();
            move |i| PathExpr::Backward(Test::Label(el[i]))
        }),
        (0..el.len()).prop_map({
            let el = el.clone();
            move |i| PathExpr::Forward(Test::Label(el[i]).not())
        }),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.concat(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.alt(b)),
            inner.prop_map(|a| a.star()),
        ]
    })
}

fn graph_and_expr() -> impl Strategy<Value = (GraphSpec, PathExpr)> {
    graph_strategy().prop_flat_map(|spec| {
        let g = build(&spec);
        let e = expr_strategy(&g);
        (Just(spec), e)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counting_enumeration_generation_agree((spec, expr) in graph_and_expr()) {
        let g = build(&spec);
        let view = LabeledView::new(&g);
        let counter = ExactCounter::new(&view, &expr);
        for k in 0..=3usize {
            let exact = counter.count(k).unwrap();
            let naive = count_paths_naive(&view, &expr, k);
            prop_assert_eq!(exact, naive, "k={}", k);
            let enumerated = enumerate_paths(&view, &expr, k);
            prop_assert_eq!(enumerated.len() as u128, exact, "k={}", k);
            // Pairwise distinct and lexicographically ordered.
            for w in enumerated.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            let sampler = UniformSampler::new(&view, &expr, k).unwrap();
            prop_assert_eq!(sampler.total(), exact, "k={}", k);
        }
    }

    #[test]
    fn enumerated_paths_are_exactly_the_accepted_words((spec, expr) in graph_and_expr()) {
        let g = build(&spec);
        let view = LabeledView::new(&g);
        let nfa = Nfa::compile(&expr);
        let prod = Product::build(&view, &nfa);
        let k = 2;
        let enumerated = enumerate_paths(&view, &expr, k);
        for p in &enumerated {
            prop_assert!(prod.accepts(p.start, &p.edges));
        }
        // Conversely: every accepted walk of length k is enumerated.
        for start in g.base().nodes() {
            let mut stack = vec![(start, Vec::<kgq_graph::EdgeId>::new())];
            while let Some((cur, word)) = stack.pop() {
                if word.len() == k {
                    if prod.accepts(start, &word) {
                        let path = kgq_core::Path { start, edges: word.clone() };
                        prop_assert!(enumerated.contains(&path), "missing {:?}", path);
                    }
                    continue;
                }
                let mut steps: Vec<(kgq_graph::EdgeId, NodeId)> = view
                    .out(cur)
                    .iter()
                    .chain(view.inc(cur).iter())
                    .copied()
                    .collect();
                steps.sort_unstable_by_key(|&(e, _)| e.0);
                steps.dedup_by_key(|&mut (e, _)| e.0);
                for (e, m) in steps {
                    let mut w = word.clone();
                    w.push(e);
                    stack.push((m, w));
                }
            }
        }
    }

    #[test]
    fn display_round_trips_semantics((spec, expr) in graph_and_expr()) {
        // Display produces parser syntax; the reparsed expression has the
        // same answers (trees may differ in associativity only).
        let mut g = build(&spec);
        let text = format!("{}", expr.display(g.consts()));
        let reparsed = kgq_core::parse_expr(&text, g.consts_mut())
            .unwrap_or_else(|e| panic!("`{text}` failed to reparse: {e}"));
        let view = LabeledView::new(&g);
        for k in 0..=2usize {
            let a = enumerate_paths(&view, &expr, k);
            let b = enumerate_paths(&view, &reparsed, k);
            prop_assert_eq!(a, b, "text = {}", text);
        }
    }

    #[test]
    fn simplify_preserves_semantics((spec, expr) in graph_and_expr()) {
        let g = build(&spec);
        let simplified = kgq_core::simplify(&expr);
        prop_assert!(simplified.atom_count() <= expr.atom_count());
        let view = LabeledView::new(&g);
        for k in 0..=3usize {
            let a = enumerate_paths(&view, &expr, k);
            let b = enumerate_paths(&view, &simplified, k);
            prop_assert_eq!(a, b, "k={}", k);
        }
    }

    #[test]
    fn samples_are_valid_and_of_right_length((spec, expr) in graph_and_expr()) {
        use rand::SeedableRng;
        let g = build(&spec);
        let view = LabeledView::new(&g);
        let k = 2;
        let sampler = UniformSampler::new(&view, &expr, k).unwrap();
        let nfa = Nfa::compile(&expr);
        let prod = Product::build(&view, &nfa);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..10 {
            match sampler.sample(&mut rng) {
                Some(p) => {
                    prop_assert_eq!(p.len(), k);
                    prop_assert!(prod.accepts(p.start, &p.edges));
                }
                None => prop_assert_eq!(sampler.total(), 0),
            }
        }
    }
}
