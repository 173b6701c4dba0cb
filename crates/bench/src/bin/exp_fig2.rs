//! Experiment `exp_fig2` — the running example of Figure 2 in all three
//! data models, with the paper's expressions (2) and (3) evaluated on
//! each model.

use kgq_bench::{fmt_duration, print_table, timed, unlimited_bindings, unlimited_pairs};
use kgq_core::{parse_expr, Governor, LabeledView, PropertyView, QueryCache, VectorView};
use kgq_cypher::{execute_governed, parse_query};
use kgq_graph::figures::{figure2_labeled, figure2_property, figure2_vector};
use kgq_graph::generate::{contact_network, ContactParams};
use kgq_graph::Sym;
use kgq_rdf::{labeled_to_rdf, Bgp, RDF_TYPE};
use kgq_relbase::rpq_join_pairs;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // (a) labeled graph
    let mut lg = figure2_labeled();
    println!(
        "Figure 2(a) labeled graph: {} nodes, {} edges",
        lg.node_count(),
        lg.edge_count()
    );
    let rows: Vec<Vec<String>> = lg
        .base()
        .nodes()
        .map(|n| {
            vec![
                lg.node_name(n).to_owned(),
                lg.label_name(lg.node_label(n)).to_owned(),
            ]
        })
        .collect();
    print_table("nodes", &["id", "λ"], &rows);

    let expr = parse_expr("?person/rides/?bus/rides^-/?infected", lg.consts_mut()).unwrap();
    let view = LabeledView::new(&lg);
    let pairs = unlimited_pairs(&view, &expr)?;
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .map(|&(a, b)| vec![lg.node_name(a).to_owned(), lg.node_name(b).to_owned()])
        .collect();
    print_table(
        "expression (2): ?person/rides/?bus/rides^- /?infected",
        &["start", "end"],
        &rows,
    );

    // (b) property graph with the dated expression (3)
    let mut pg = figure2_property();
    let expr3 = parse_expr(
        "?person/{contact & [date='3/4/21']}/?infected",
        pg.labeled_mut().consts_mut(),
    )
    .unwrap();
    let pview = PropertyView::new(&pg);
    let pairs3 = unlimited_pairs(&pview, &expr3)?;
    let lgr = pg.labeled();
    let rows: Vec<Vec<String>> = pairs3
        .iter()
        .map(|&(a, b)| vec![lgr.node_name(a).to_owned(), lgr.node_name(b).to_owned()])
        .collect();
    print_table(
        "expression (3): ?person/(contact ∧ date=3/4/21)/?infected",
        &["start", "end"],
        &rows,
    );

    // (c) vector-labeled graph with the feature rewriting
    let vg = figure2_vector();
    println!(
        "\nFigure 2(c) vector-labeled graph: d = {}, rows = {:?}",
        vg.dim(),
        vg.feature_names()
    );
    let rows: Vec<Vec<String>> = vg
        .base()
        .nodes()
        .map(|n| {
            let mut row = vec![vg.node_name(n).to_owned()];
            for i in 0..vg.dim() {
                let f = vg.node_feature(n, i);
                row.push(if f == Sym::BOTTOM {
                    "⊥".to_owned()
                } else {
                    vg.consts().resolve(f).to_owned()
                });
            }
            row
        })
        .collect();
    let mut headers = vec!["id"];
    let names: Vec<&str> = vg.feature_names().iter().map(|s| s.as_str()).collect();
    headers.extend(names.iter());
    print_table("node feature vectors", &headers, &rows);

    // The date column is feature #3 (1-based) in the sorted schema
    // [label, age, date, name, zip]; the paper writes it as f5 in its own
    // ordering — the rewriting is the same.
    let date_idx = vg
        .feature_names()
        .iter()
        .position(|n| n == "date")
        .expect("date feature")
        + 1;
    let mut vg = vg;
    let rewritten =
        format!("?[#1=person]/{{[#1=contact] & [#{date_idx}='3/4/21']}}/?[#1=infected]");
    let expr_v = parse_expr(&rewritten, vg.consts_mut()).unwrap();
    let vview = VectorView::new(&vg);
    let pairs_v = unlimited_pairs(&vview, &expr_v)?;
    println!(
        "\nvector rewriting {rewritten}: {} answers (matches (3): {})",
        pairs_v.len(),
        pairs_v.len() == pairs3.len()
    );
    assert_eq!(pairs_v.len(), pairs3.len(), "models must agree");
    println!("\nall three models agree ✓");

    co_rider_formalisms()
}

/// Expression (2)'s co-rider question on a scaled contact network,
/// timed in the four query formalisms of the workspace: the RPQ
/// product, a Cypher MATCH, a SPARQL BGP over the RDF view, and
/// relational self-joins.
fn co_rider_formalisms() -> Result<(), Box<dyn Error>> {
    let pg = contact_network(&ContactParams {
        people: 80,
        buses: 6,
        infected_fraction: 0.15,
        ..ContactParams::default()
    });
    let mut g = pg.clone();
    let text = "?person/rides/?bus/rides^-/?infected";
    let expr = parse_expr(text, g.labeled_mut().consts_mut())?;
    let view = PropertyView::new(&g);
    let cypher = "MATCH (p:person)-[:rides]->(b:bus), (i:infected)-[:rides]->(b) RETURN p, i";
    let cypher = parse_query(cypher)?;
    let mut st = labeled_to_rdf(pg.labeled());
    let mut bgp = Bgp::new();
    for (s, p, o) in [
        ("?p", RDF_TYPE, "person"),
        ("?i", RDF_TYPE, "infected"),
        ("?b", RDF_TYPE, "bus"),
        ("?p", "rides", "?b"),
        ("?i", "rides", "?b"),
    ] {
        bgp.add(&mut st, s, p, o);
    }
    let cache = QueryCache::new();
    let gov = Governor::unlimited;
    let best = |f: &dyn Fn() -> usize| (0..20).map(|_| timed(f)).min_by_key(|r| r.1);
    let cases = [
        (
            "rpq product",
            best(&|| unlimited_pairs(&view, &expr).map_or(0, |p| p.len())),
        ),
        (
            "cypher match",
            best(&|| execute_governed(&pg, &cypher, &cache, &gov()).map_or(0, |r| r.value.len())),
        ),
        (
            "sparql bgp",
            best(&|| unlimited_bindings(&st, &bgp).map_or(0, |b| b.len())),
        ),
        (
            "relational joins",
            best(&|| rpq_join_pairs(&view, &expr).map_or(0, |p| p.len())),
        ),
    ];
    let mut rows = Vec::new();
    for (name, timing) in cases {
        let (answers, t) = timing.ok_or("no reps")?;
        rows.push(vec![name.to_owned(), answers.to_string(), fmt_duration(t)]);
    }
    print_table(
        "co-rider query, contact network (80 people, 6 buses), best of 20",
        &["formalism", "answers", "time"],
        &rows,
    );
    Ok(())
}
