//! Property-based soundness tests for automaton minimization: on random
//! graphs and random path expressions, evaluating through the minimized
//! DFA must be indistinguishable from evaluating through the raw
//! Thompson NFA — same pairs, same starts, same point answers — because
//! path-match semantics is a function of the automaton's *language* over
//! the extended alphabet, and Hopcroft minimization preserves it.

use kgq_core::automata::Nfa;
use kgq_core::eval::Evaluator;
use kgq_core::expr::{PathExpr, Test};
use kgq_core::model::LabeledView;
use kgq_core::product::Product;
use kgq_graph::{LabeledGraph, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

/// Compiles `expr` over `g` under an unlimited governor.
fn compile<G: kgq_core::model::PathGraph>(g: &G, expr: &kgq_core::PathExpr) -> kgq_core::Evaluator {
    kgq_core::Evaluator::new_governed(g, expr, &kgq_core::Governor::unlimited()).unwrap()
}

/// `pairs_governed` under an unlimited governor.
fn pairs(ev: &kgq_core::Evaluator) -> Vec<(kgq_graph::NodeId, kgq_graph::NodeId)> {
    let res = ev.pairs_governed(&kgq_core::Governor::unlimited()).unwrap();
    assert!(!res.is_partial());
    res.value
}

/// `matching_starts_governed` under an unlimited governor.
fn starts(ev: &kgq_core::Evaluator) -> Vec<kgq_graph::NodeId> {
    let res = ev
        .matching_starts_governed(&kgq_core::Governor::unlimited())
        .unwrap();
    assert!(!res.is_partial());
    res.value
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

/// Random expression over labels, inverses, node tests, negated tests.
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
    fn minimized_evaluation_equals_raw_nfa_evaluation((spec, expr) in graph_and_expr()) {
        let g = build(&spec);
        let view = LabeledView::new(&g);
        let raw = Evaluator::from_product(Arc::new(Product::build(&view, &Nfa::compile(&expr))));
        let min = Nfa::compile_min(&expr);
        let minimized =
            Evaluator::from_product(Arc::new(Product::build(&view, &min.nfa)));
        prop_assert_eq!(raw.pairs_sequential(), minimized.pairs_sequential());
        prop_assert_eq!(
            raw.matching_starts_sequential(),
            minimized.matching_starts_sequential()
        );
        // Kernel paths on the minimized product agree with the raw
        // product's sequential reference as well.
        prop_assert_eq!(raw.pairs_sequential(), pairs(&minimized));
        prop_assert_eq!(raw.matching_starts_sequential(), starts(&minimized));
        for a in g.base().nodes() {
            for b in g.base().nodes() {
                prop_assert_eq!(
                    raw.ends_from(a).binary_search(&b).is_ok(),
                    minimized.check(a, b),
                    "{:?} -> {:?}", a, b
                );
            }
        }
    }

    #[test]
    fn compile_min_is_deterministic((spec, expr) in graph_and_expr()) {
        // The spec is irrelevant here but keeps the strategy shared.
        let _ = spec;
        let a = Nfa::compile_min(&expr);
        let b = Nfa::compile_min(&expr);
        prop_assert_eq!(&a.signature, &b.signature);
        prop_assert_eq!(a.minimized, b.minimized);
    }

    #[test]
    fn signatures_collapse_distributivity((spec, expr) in graph_and_expr()) {
        let _ = spec;
        // r/(p+q) and r/p + r/q recognize the same language, so their
        // minimal automata must carry the same canonical signature.
        let (p, q) = (expr.clone().star(), expr.clone());
        let lhs = expr.clone().concat(p.clone().alt(q.clone()));
        let rhs = (expr.clone().concat(p)).alt(expr.concat(q));
        let a = Nfa::compile_min(&lhs);
        let b = Nfa::compile_min(&rhs);
        if a.minimized && b.minimized {
            prop_assert_eq!(&a.signature, &b.signature);
        }
    }

    #[test]
    fn shortest_witness_agrees_with_sequential((spec, expr) in graph_and_expr()) {
        let g = build(&spec);
        let view = LabeledView::new(&g);
        let ev = compile(&view, &expr);
        for a in g.base().nodes() {
            for b in g.base().nodes() {
                let bidi = ev.shortest_witness(a, b);
                let seq = ev.shortest_witness_sequential(a, b);
                // Both must agree on existence and on minimal length
                // (several distinct shortest paths may exist, so the
                // witnesses themselves are allowed to differ).
                prop_assert_eq!(
                    bidi.as_ref().map(|p| p.edges.len()),
                    seq.as_ref().map(|p| p.edges.len()),
                    "{:?} -> {:?}", a, b
                );
                if let Some(p) = &bidi {
                    prop_assert_eq!(p.start, a);
                    prop_assert_eq!(p.end(&view), Some(b));
                }
            }
        }
    }
}
