//! Declarative vs procedural node extraction (§4.3): the same query as
//! a regular expression, a two-variable formula, and a hand-built graph
//! neural network — all returning the same nodes.
//!
//! ```sh
//! cargo run --example gnn_vs_logic
//! ```

use kgq::core::{parse_expr, Evaluator, Governor, LabeledView, PathExpr};
use kgq::gnn::builder::{psi_network, PSI_VOCAB};
use kgq::gnn::{wl_colors, AcGnn};
use kgq::graph::generate::{contact_network, ContactParams};
use kgq::graph::NodeId;
use kgq::logic::{compile_fo2, eval_bounded, Var};

/// Nodes starting a path matching `expr`, with no budget.
fn starts_of(view: &LabeledView, expr: &PathExpr) -> Vec<NodeId> {
    let gov = Governor::unlimited();
    let ev = Evaluator::new_governed(view, expr, &gov).expect("compiles");
    ev.matching_starts_governed(&gov)
        .expect("no budget to exhaust")
        .value
}

fn main() {
    let pg = contact_network(&ContactParams {
        people: 30,
        buses: 3,
        infected_fraction: 0.2,
        seed: 77,
        ..ContactParams::default()
    });
    let mut g = pg.into_labeled();
    println!("graph: {} nodes, {} edges", g.node_count(), g.edge_count());

    // 1. Declarative: the regular path query.
    let expr = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let from_rpq = starts_of(&view, &expr);

    // 2. Logical: compile to the two-variable formula ψ(x) and evaluate
    //    with binary tables only.
    let psi = compile_fo2(&expr).unwrap();
    println!(
        "ψ(x) uses {} variables and {} quantifiers",
        psi.width(),
        psi.quantifier_count()
    );
    let from_logic = eval_bounded(&g, &psi, Var(0));

    // 3. Procedural: a four-layer AC-GNN with hand-set weights.
    let gnn = psi_network();
    let feats = AcGnn::one_hot_features(&g, &PSI_VOCAB);
    let cls = gnn.classify(&g, &feats);
    let from_gnn: Vec<_> = g.base().nodes().filter(|n| cls[n.index()]).collect();

    println!("\nanswers (RPQ = FO² = GNN):");
    for n in &from_rpq {
        println!("  {}", g.node_name(*n));
    }
    assert_eq!(from_rpq, from_logic);
    assert_eq!(from_rpq, from_gnn);
    println!("\nall three formalisms agree on {} nodes ✓", from_rpq.len());

    // The expressiveness boundary: the GNN cannot distinguish nodes that
    // Weisfeiler–Lehman cannot.
    let wl = wl_colors(&g, gnn.depth());
    println!(
        "1-WL refinement: {} classes after {} rounds (GNN outputs are a \
         function of these classes)",
        wl.color_count, wl.rounds
    );
}
