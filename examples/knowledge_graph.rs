//! A small knowledge graph: RDF triples, pattern matching, and path
//! queries through the labeled-graph correspondence (§3).
//!
//! ```sh
//! cargo run --example knowledge_graph
//! ```

use kgq::core::{parse_expr, Evaluator, Governor, LabeledView};
use kgq::embed::{evaluate, train_store, TrainConfig};
use kgq::rdf::{
    lftj, materialize_rdfs, parse_ntriples, rdf_to_labeled, write_ntriples, Bgp, Binding,
    TripleStore, RDFS_SUBCLASS, RDFS_SUBPROPERTY, RDF_TYPE,
};

/// Solves a BGP with the leapfrog triejoin, with no budget.
fn solve(q: &Bgp, st: &TripleStore) -> Vec<Binding> {
    let plan = lftj::plan(st, q);
    let res = lftj::solve_planned_governed(st, q, &plan, 1, &Governor::unlimited());
    res.expect("no budget to exhaust").value.bindings()
}

fn main() {
    // Load a tiny knowledge graph from N-Triples.
    let data = r#"
<marie_curie> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Scientist> .
<pierre_curie> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Scientist> .
<irene_joliot_curie> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Scientist> .
<nobel_physics_1903> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Prize> .
<nobel_chemistry_1911> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Prize> .
<nobel_chemistry_1935> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <Prize> .
<marie_curie> <won> <nobel_physics_1903> .
<marie_curie> <won> <nobel_chemistry_1911> .
<pierre_curie> <won> <nobel_physics_1903> .
<irene_joliot_curie> <won> <nobel_chemistry_1935> .
<marie_curie> <spouse> <pierre_curie> .
<marie_curie> <child> <irene_joliot_curie> .
<marie_curie> <name> "Marie Curie" .
"#;
    let mut st = parse_ntriples(data).expect("valid N-Triples");
    println!("loaded {} triples", st.len());

    // BGP: scientists who share a prize (SPARQL-style conjunctive query).
    let mut q = Bgp::new();
    q.add(&mut st, "?a", "won", "?prize");
    q.add(&mut st, "?b", "won", "?prize");
    q.add(&mut st, "?a", RDF_TYPE, "Scientist");
    q.add(&mut st, "?b", RDF_TYPE, "Scientist");
    println!("\nscientists sharing a prize:");
    for binding in solve(&q, &st) {
        let a = st.term_str(binding["a"]);
        let b = st.term_str(binding["b"]);
        if a < b {
            println!("  {a} and {b} ({})", st.term_str(binding["prize"]));
        }
    }

    // Path query via the labeled-graph view: laureates connected to
    // Marie Curie by family links.
    let mut g = rdf_to_labeled(&st).expect("convertible");
    let expr = parse_expr(
        "?Scientist/(spouse + spouse^- + child + child^-)*/won/?Prize",
        g.consts_mut(),
    )
    .unwrap();
    let view = LabeledView::new(&g);
    let gov = Governor::unlimited();
    let ev = Evaluator::new_governed(&view, &expr, &gov).expect("compiles");
    let family_laureates = ev.matching_starts_governed(&gov).expect("no budget").value;
    println!("\nscientists in a laureate family network:");
    for n in family_laureates {
        println!("  {}", g.node_name(n));
    }

    // Produce new knowledge (§2.3): RDFS schema + forward chaining.
    st.insert_strs("Scientist", RDFS_SUBCLASS, "Person");
    st.insert_strs("spouse", RDFS_SUBPROPERTY, "relatedTo");
    st.insert_strs("child", RDFS_SUBPROPERTY, "relatedTo");
    let before = st.len();
    let stats = materialize_rdfs(&mut st);
    println!(
        "\nRDFS inference: {} → {} triples ({} derived in {} rounds)",
        before,
        st.len(),
        stats.inferred,
        stats.rounds
    );
    let mut q = Bgp::new();
    q.add(&mut st, "?x", "relatedTo", "?y");
    println!("derived relatedTo facts: {}", solve(&q, &st).len());

    // Complete the graph (§2.3): TransE link prediction suggests who
    // else might be connected.
    let report = train_store(
        &st,
        &TrainConfig {
            dim: 16,
            epochs: 150,
            ..TrainConfig::default()
        },
    );
    let lp = evaluate(&report.model, &report.triples, &report.triples);
    println!(
        "TransE fit on the KG: mean rank {:.1} over {} entities (1.0 = perfect memorization)",
        lp.mean_rank,
        report.model.entity_count()
    );
    if let (Some(h), Some(r)) = (report.entity_id("marie_curie"), report.relation_id("won")) {
        let suggestions = report.model.predict_tails(h, r, 3);
        println!("completion: top candidates for (marie_curie, won, ?):");
        for (t, score) in suggestions {
            println!("  {} (score {:.2})", report.entities[t], score);
        }
    }

    // Round-trip the store.
    let out = write_ntriples(&st);
    let again = parse_ntriples(&out).expect("round trip");
    assert_eq!(again.len(), st.len());
    println!(
        "\nround-tripped {} triples through N-Triples ✓",
        again.len()
    );
}
