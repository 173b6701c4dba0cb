//! Cross-model integration: the three data models and the RDF
//! correspondence answer equivalent queries identically.

use kgq::core::{
    parse_expr, Evaluator, Governor, LabeledView, PathExpr, PathGraph, PropertyView, VectorView,
};
use kgq::graph::convert::{property_to_vector, vector_to_property};
use kgq::graph::figures::{figure2_labeled, figure2_property, figure2_vector};
use kgq::graph::generate::{contact_network, ContactParams};
use kgq::graph::io::{read_property, write_property};
use kgq::graph::NodeId;
use kgq::rdf::{labeled_to_rdf, parse_ntriples, rdf_to_labeled, write_ntriples};

/// All `(start, end)` pairs through the governed entry point, with no
/// budget.
fn pairs_of<G: PathGraph>(g: &G, expr: &PathExpr) -> Vec<(NodeId, NodeId)> {
    let gov = Governor::unlimited();
    let ev = Evaluator::new_governed(g, expr, &gov).unwrap();
    ev.pairs_governed(&gov).unwrap().value
}

#[test]
fn label_queries_agree_across_all_three_models() {
    let mut lg = figure2_labeled();
    let mut pg = figure2_property();
    let mut vg = figure2_vector();
    for text in [
        "?person/rides/?bus/rides^-/?infected",
        "(contact)*",
        "?person/(lives + contact)/?infected",
        "rides/{!rides & !lives}^-",
    ] {
        let e1 = parse_expr(text, lg.consts_mut()).unwrap();
        let e2 = parse_expr(text, pg.labeled_mut().consts_mut()).unwrap();
        let e3 = parse_expr(text, vg.consts_mut()).unwrap();
        let a = pairs_of(&LabeledView::new(&lg), &e1);
        let b = pairs_of(&PropertyView::new(&pg), &e2);
        let c = pairs_of(&VectorView::new(&vg), &e3);
        assert_eq!(a, b, "{text}: labeled vs property");
        assert_eq!(a, c, "{text}: labeled vs vector (f1 fallback)");
    }
}

#[test]
fn property_and_feature_tests_agree_after_vectorization() {
    let mut pg = figure2_property();
    let e_prop = parse_expr(
        "?person/{contact & [date='3/4/21']}/?infected",
        pg.labeled_mut().consts_mut(),
    )
    .unwrap();
    let prop_answers = pairs_of(&PropertyView::new(&pg), &e_prop);

    let mut vg = property_to_vector(&pg).unwrap();
    let date_col = vg.feature_names().iter().position(|n| n == "date").unwrap() + 1;
    let text = format!("?[#1=person]/{{[#1=contact] & [#{date_col}='3/4/21']}}/?[#1=infected]");
    let e_feat = parse_expr(&text, vg.consts_mut()).unwrap();
    let feat_answers = pairs_of(&VectorView::new(&vg), &e_feat);
    assert_eq!(prop_answers, feat_answers);
    assert!(!prop_answers.is_empty(), "expression (3) has an answer");
}

#[test]
fn full_round_trip_text_vector_rdf() {
    let pg = contact_network(&ContactParams {
        people: 20,
        seed: 6,
        ..ContactParams::default()
    });
    // Text format round trip.
    let text = write_property(&pg);
    let back = read_property(&text).unwrap();
    assert_eq!(back.node_count(), pg.node_count());
    assert_eq!(back.edge_count(), pg.edge_count());

    // Vector round trip preserves σ.
    let vg = property_to_vector(&pg).unwrap();
    let back2 = vector_to_property(&vg).unwrap();
    for n in pg.labeled().base().nodes() {
        for prop in ["name", "age", "zip"] {
            assert_eq!(back2.node_prop_str(n, prop), pg.node_prop_str(n, prop));
        }
    }

    // RDF round trip preserves query answers on the labeled projection.
    let mut lg = pg.into_labeled();
    let st = labeled_to_rdf(&lg);
    let nt = write_ntriples(&st);
    let st2 = parse_ntriples(&nt).unwrap();
    let mut lg2 = rdf_to_labeled(&st2).unwrap();
    let e1 = parse_expr("?person/rides/?bus/rides^-/?infected", lg.consts_mut()).unwrap();
    let e2 = parse_expr("?person/rides/?bus/rides^-/?infected", lg2.consts_mut()).unwrap();
    let a1: Vec<String> = pairs_of(&LabeledView::new(&lg), &e1)
        .into_iter()
        .map(|(s, t)| format!("{}->{}", lg.node_name(s), lg.node_name(t)))
        .collect();
    let mut a2: Vec<String> = pairs_of(&LabeledView::new(&lg2), &e2)
        .into_iter()
        .map(|(s, t)| format!("{}->{}", lg2.node_name(s), lg2.node_name(t)))
        .collect();
    let mut a1 = a1;
    a1.sort();
    a2.sort();
    // RDF collapses parallel same-label edges, but pair-level answers to
    // this expression survive (deduplicated semantics).
    assert_eq!(a1, a2);
}
