//! Property-based equivalence: the relational-algebra RPQ baseline and
//! the product-automaton engine compute the same pair semantics on
//! arbitrary graphs and expressions.

use kgq_core::eval::Evaluator;
use kgq_core::expr::{PathExpr, Test};
use kgq_core::govern::Governor;
use kgq_core::model::LabeledView;
use kgq_graph::{LabeledGraph, NodeId};
use kgq_relbase::rpq_join_pairs;
use proptest::prelude::*;

const NODE_LABELS: [&str; 2] = ["a", "b"];
const EDGE_LABELS: [&str; 2] = ["p", "q"];

#[derive(Clone, Debug)]
struct GraphSpec {
    node_labels: Vec<usize>,
    edges: Vec<(usize, usize, usize)>,
}

fn graph_strategy() -> impl Strategy<Value = GraphSpec> {
    (2usize..8).prop_flat_map(|n| {
        (
            proptest::collection::vec(0..NODE_LABELS.len(), n),
            proptest::collection::vec((0..n, 0..n, 0..EDGE_LABELS.len()), 1..14),
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
    ];
    leaf.prop_recursive(3, 10, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.concat(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.alt(b)),
            inner.prop_map(|a| a.star()),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn joins_equal_product_pairs(
        (spec, expr) in graph_strategy().prop_flat_map(|spec| {
            let g = build(&spec);
            let e = expr_strategy(&g);
            (Just(spec), e)
        })
    ) {
        let g = build(&spec);
        let view = LabeledView::new(&g);
        let from_joins = rpq_join_pairs(&view, &expr).unwrap();
        let mut from_product = Evaluator::new_governed(&view, &expr, &Governor::unlimited())
            .unwrap()
            .pairs_governed(&Governor::unlimited())
            .unwrap()
            .value;
        from_product.sort_unstable();
        prop_assert_eq!(from_joins, from_product);
    }
}
