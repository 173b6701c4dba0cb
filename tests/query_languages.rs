//! Cross-language integration: the same questions asked in the path
//! language (RPQ), SPARQL-style BGPs, Cypher-style MATCH, first-order
//! logic and relational algebra all agree.

use kgq::core::{
    parse_expr, Evaluator, Governor, LabeledView, PathExpr, PathGraph, PropertyView, QueryCache,
};
use kgq::cypher::{execute_governed, parse_query, Query, Row};
use kgq::graph::generate::{contact_network, ContactParams};
use kgq::graph::{NodeId, PropertyGraph};
use kgq::rdf::{labeled_to_rdf, lftj, Bgp, Binding, TripleStore, RDF_TYPE};
use kgq::relbase::rpq_join_pairs;

/// All `(start, end)` pairs through the governed entry point, with no
/// budget.
fn pairs_of<G: PathGraph>(g: &G, expr: &PathExpr) -> Vec<(NodeId, NodeId)> {
    let gov = Governor::unlimited();
    let ev = Evaluator::new_governed(g, expr, &gov).unwrap();
    ev.pairs_governed(&gov).unwrap().value
}

/// Cypher rows through the governed entry point, with no budget.
fn cypher_rows(g: &PropertyGraph, q: &Query) -> Vec<Row> {
    let res = execute_governed(g, q, &QueryCache::new(), &Governor::unlimited()).unwrap();
    res.value
}

/// BGP bindings by the leapfrog triejoin, with no budget.
fn bgp_bindings(bgp: &Bgp, st: &TripleStore) -> Vec<Binding> {
    let plan = lftj::plan(st, bgp);
    let res = lftj::solve_planned_governed(st, bgp, &plan, 1, &Governor::unlimited()).unwrap();
    res.value.bindings()
}

#[test]
fn exposure_query_in_four_languages() {
    let pg = contact_network(&ContactParams {
        people: 30,
        buses: 3,
        infected_fraction: 0.2,
        seed: 33,
        ..ContactParams::default()
    });

    // 1. RPQ over the property graph.
    let mut g = pg.clone();
    let expr = parse_expr(
        "?person/rides/?bus/rides^-/?infected",
        g.labeled_mut().consts_mut(),
    )
    .unwrap();
    let view = PropertyView::new(&g);
    let mut rpq: Vec<(String, String)> = pairs_of(&view, &expr)
        .into_iter()
        .map(|(a, b)| {
            (
                g.labeled().node_name(a).to_owned(),
                g.labeled().node_name(b).to_owned(),
            )
        })
        .collect();
    rpq.sort();
    rpq.dedup();

    // 2. Cypher-style MATCH over the property graph.
    let q =
        parse_query("MATCH (p:person)-[:rides]->(b:bus), (i:infected)-[:rides]->(b) RETURN p, i")
            .unwrap();
    let mut cypher: Vec<(String, String)> = cypher_rows(&pg, &q)
        .into_iter()
        .map(|row| (row[0].clone(), row[1].clone()))
        .collect();
    cypher.sort();
    cypher.dedup();

    // 3. SPARQL-style BGP over the RDF projection.
    let mut st = labeled_to_rdf(pg.labeled());
    let mut bgp = Bgp::new();
    bgp.add(&mut st, "?p", RDF_TYPE, "person");
    bgp.add(&mut st, "?i", RDF_TYPE, "infected");
    bgp.add(&mut st, "?b", RDF_TYPE, "bus");
    bgp.add(&mut st, "?p", "rides", "?b");
    bgp.add(&mut st, "?i", "rides", "?b");
    let mut sparql: Vec<(String, String)> = bgp_bindings(&bgp, &st)
        .into_iter()
        .map(|b| {
            (
                st.term_str(b["p"]).to_owned(),
                st.term_str(b["i"]).to_owned(),
            )
        })
        .collect();
    sparql.sort();
    sparql.dedup();

    // 4. Relational algebra over the labeled view.
    let mut joins: Vec<(String, String)> = rpq_join_pairs(&view, &expr)
        .unwrap()
        .into_iter()
        .map(|(a, b)| {
            (
                g.labeled().node_name(a).to_owned(),
                g.labeled().node_name(b).to_owned(),
            )
        })
        .collect();
    joins.sort();
    joins.dedup();

    assert!(!rpq.is_empty(), "want a non-trivial instance");
    assert_eq!(rpq, cypher, "RPQ vs Cypher");
    assert_eq!(rpq, sparql, "RPQ vs BGP");
    assert_eq!(rpq, joins, "RPQ vs relational");
}

#[test]
fn property_conditions_agree_between_cypher_and_rpq() {
    let pg = kgq::graph::figures::figure2_property();
    // Dated contact: expression (3) vs MATCH/WHERE.
    let mut g = pg.clone();
    let expr = parse_expr(
        "?person/{contact & [date='3/4/21']}/?infected",
        g.labeled_mut().consts_mut(),
    )
    .unwrap();
    let view = PropertyView::new(&g);
    let mut rpq: Vec<(String, String)> = pairs_of(&view, &expr)
        .into_iter()
        .map(|(a, b)| {
            (
                g.labeled().node_name(a).to_owned(),
                g.labeled().node_name(b).to_owned(),
            )
        })
        .collect();
    rpq.sort();

    let q = parse_query(
        "MATCH (p:person)-[c:contact]->(i:infected) WHERE c.date = '3/4/21' RETURN p, i",
    )
    .unwrap();
    let mut cypher: Vec<(String, String)> = cypher_rows(&pg, &q)
        .into_iter()
        .map(|row| (row[0].clone(), row[1].clone()))
        .collect();
    cypher.sort();

    assert_eq!(rpq, vec![("n4".to_owned(), "n6".to_owned())]);
    assert_eq!(rpq, cypher);
}

#[test]
fn labeled_view_also_supports_rpq_against_cypher() {
    let pg = kgq::graph::figures::figure2_property();
    let mut lg = pg.labeled().clone();
    let expr = parse_expr("?company/owns/?bus", lg.consts_mut()).unwrap();
    let view = LabeledView::new(&lg);
    let rpq = pairs_of(&view, &expr);
    assert_eq!(rpq.len(), 1);

    let q = parse_query("MATCH (c:company)-[:owns]->(b:bus) RETURN c, b").unwrap();
    let rows = cypher_rows(&pg, &q);
    assert_eq!(rows, vec![vec!["n7".to_owned(), "n3".to_owned()]]);
}
