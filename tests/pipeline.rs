//! End-to-end integration: every engine in the workspace answers the
//! same questions about the same graphs.

use kgq::analytics::{bc_r_exact, betweenness};
use kgq::core::{
    count_paths_governed, count_paths_naive, enumerate_paths_governed, parse_expr, Budget,
    CancelToken, CountOutcome, EvalError, Evaluator, Governor, LabeledView, Nfa, Path, PathExpr,
    PathGraph, Product, UniformSampler,
};
use kgq::gnn::builder::{psi_network, PSI_VOCAB};
use kgq::gnn::AcGnn;
use kgq::graph::generate::{contact_network, gnm_labeled, ContactParams};
use kgq::graph::NodeId;
use kgq::logic::{compile_fo2, eval_bounded, eval_naive, Var};
use kgq::relbase::rpq_join_pairs;

/// `Count(G, r, k)` through the governed entry point, with no budget.
fn count_exact<G: PathGraph + Sync>(g: &G, expr: &PathExpr, k: usize) -> Result<u128, EvalError> {
    match count_paths_governed(g, expr, k, &Budget::unlimited(), CancelToken::new())?.value {
        CountOutcome::Exact(c) => Ok(c),
        other => panic!("unlimited count degraded to {other}"),
    }
}

/// All length-`k` answers through the governed entry point, with no
/// budget.
fn enumerate_all<G: PathGraph>(g: &G, expr: &PathExpr, k: usize) -> Vec<Path> {
    let res = enumerate_paths_governed(g, expr, k, &Governor::unlimited()).unwrap();
    assert!(!res.is_partial());
    res.value.paths
}

/// Nodes starting a matching path, through the governed entry point,
/// with no budget.
fn starts_of<G: PathGraph>(g: &G, expr: &PathExpr) -> Vec<NodeId> {
    let gov = Governor::unlimited();
    let ev = Evaluator::new_governed(g, expr, &gov).unwrap();
    ev.matching_starts_governed(&gov).unwrap().value
}

#[test]
fn counting_stack_is_internally_consistent() {
    for seed in [3u64, 14] {
        let mut g = gnm_labeled(10, 24, &["a", "b"], &["p", "q"], seed);
        for text in ["(p+q)*", "?a/(p)*/?b", "p/q^-/p"] {
            let expr = parse_expr(text, g.consts_mut()).unwrap();
            let view = LabeledView::new(&g);
            for k in 0..=4usize {
                let exact = count_exact(&view, &expr, k).unwrap();
                assert_eq!(exact, count_paths_naive(&view, &expr, k), "{text} k={k}");
                let enumerated = enumerate_all(&view, &expr, k);
                assert_eq!(enumerated.len() as u128, exact, "{text} k={k}");
                let sampler = UniformSampler::new(&view, &expr, k).unwrap();
                assert_eq!(sampler.total(), exact, "{text} k={k}");
                // Every enumerated path is accepted by the raw product.
                let nfa = Nfa::compile(&expr);
                let prod = Product::build(&view, &nfa);
                for p in &enumerated {
                    assert!(prod.accepts(p.start, &p.edges));
                    assert_eq!(p.len(), k);
                }
            }
        }
    }
}

#[test]
fn four_engines_agree_on_node_extraction() {
    for seed in [5u64, 9] {
        let pg = contact_network(&ContactParams {
            people: 35,
            buses: 4,
            infected_fraction: 0.15,
            seed,
            ..ContactParams::default()
        });
        let mut g = pg.into_labeled();
        let expr = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();

        // 1. RPQ product engine.
        let view = LabeledView::new(&g);
        let rpq = starts_of(&view, &expr);

        // 2. FO² pipeline + naive evaluation.
        let psi = compile_fo2(&expr).unwrap();
        assert_eq!(eval_bounded(&g, &psi, Var(0)), rpq);
        assert_eq!(eval_naive(&g, &psi, Var(0)), rpq);

        // 3. Relational joins (starts of pairs).
        let mut join_starts: Vec<_> = rpq_join_pairs(&view, &expr)
            .unwrap()
            .into_iter()
            .map(|(a, _)| a)
            .collect();
        join_starts.sort_unstable();
        join_starts.dedup();
        assert_eq!(join_starts, rpq);

        // 4. Hand-built AC-GNN.
        let gnn = psi_network();
        let feats = AcGnn::one_hot_features(&g, &PSI_VOCAB);
        let cls = gnn.classify(&g, &feats);
        let gnn_starts: Vec<_> = g.base().nodes().filter(|n| cls[n.index()]).collect();
        assert_eq!(gnn_starts, rpq, "seed {seed}");
    }
}

#[test]
fn unconstrained_bcr_equals_brandes_on_simple_graphs() {
    // On a *simple* graph, shortest paths and shortest edge sequences
    // coincide, so bc_r with an unconstrained forward regex equals
    // Brandes betweenness. (On multigraphs they legitimately differ:
    // parallel edges are distinct paths under the paper's definition.)
    let raw = gnm_labeled(8, 18, &["v"], &["p"], 21);
    let mut g = kgq::graph::LabeledGraph::new();
    let mut seen = std::collections::HashSet::new();
    for n in raw.base().nodes() {
        g.add_node(raw.node_name(n), "v").unwrap();
    }
    for e in raw.base().edges() {
        let (s, d) = raw.base().endpoints(e);
        if s != d && seen.insert((s, d)) {
            g.add_edge(raw.edge_name(e), s, d, "p").unwrap();
        }
    }
    let expr = parse_expr("(p)*", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let bcr = bc_r_exact(&view, &expr);
    let bc = betweenness(&g);
    for (a, b) in bcr.iter().zip(bc.iter()) {
        assert!((a - b).abs() < 1e-9, "bc_r={a} bc={b}");
    }
}

#[test]
fn parallel_edges_multiply_paths_not_brandes() {
    // Documents the semantic difference: with two parallel a→x edges and
    // one x→b edge, the paper's S_{a,b} has two shortest paths, both
    // through x, so bc_r(x) = 1 (fraction 2/2) — same as Brandes here —
    // but Count sees 2 paths.
    let mut g = kgq::graph::LabeledGraph::new();
    let a = g.add_node("a", "v").unwrap();
    let x = g.add_node("x", "v").unwrap();
    let b = g.add_node("b", "v").unwrap();
    g.add_edge("e1", a, x, "p").unwrap();
    g.add_edge("e2", a, x, "p").unwrap();
    g.add_edge("e3", x, b, "p").unwrap();
    let expr = parse_expr("p/p", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    assert_eq!(count_exact(&view, &expr, 2).unwrap(), 2);
    let star = parse_expr("(p)*", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let bcr = bc_r_exact(&view, &star);
    assert!((bcr[x.index()] - 1.0).abs() < 1e-9);
}

#[test]
fn witnesses_are_shortest_and_valid() {
    let pg = contact_network(&ContactParams {
        people: 25,
        seed: 8,
        ..ContactParams::default()
    });
    let mut g = pg.into_labeled();
    let expr = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let gov = Governor::unlimited();
    let ev = Evaluator::new_governed(&view, &expr, &gov).unwrap();
    for (a, b) in ev.pairs_governed(&gov).unwrap().value {
        let w = ev.shortest_witness(a, b).expect("pair implies witness");
        assert_eq!(w.start, a);
        assert_eq!(w.end(&view), Some(b));
        assert!(ev.product().accepts(w.start, &w.edges));
        // The expression is 2 edges long with no star: every witness has
        // length exactly 2.
        assert_eq!(w.len(), 2);
    }
}
