//! Quickstart: build a graph, query it three ways.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use kgq::analytics::{bc_r_exact, betweenness_undirected};
use kgq::core::{
    count_paths_governed, enumerate_paths_governed, parse_expr, Budget, CancelToken, Evaluator,
    Governor, LabeledView, QueryCache,
};
use kgq::graph::figures::{figure2_labeled, figure2_property, figure2_vector};

fn main() {
    // 1. The paper's Figure 2 scenario as a labeled graph.
    let mut g = figure2_labeled();
    println!(
        "Figure 2: {} nodes, {} edges, labels {:?}",
        g.node_count(),
        g.edge_count(),
        g.node_label_alphabet()
            .iter()
            .map(|&l| g.label_name(l))
            .collect::<Vec<_>>()
    );

    // 2. Who might be infected? People sharing a bus with an infected
    //    person — the paper's expression from §4.3.
    let expr = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut())
        .expect("valid expression");
    let view = LabeledView::new(&g);
    // Every query runs under a governor; with no budget, an unlimited one.
    let gov = Governor::unlimited();
    let ev = Evaluator::new_governed(&view, &expr, &gov).expect("compiles");
    println!("\npossibly exposed riders:");
    for n in ev
        .matching_starts_governed(&gov)
        .expect("no budget to exhaust")
        .value
    {
        println!("  {}", g.node_name(n));
    }

    // 3. A concrete witness path, and all answers of length 2.
    let n1 = g.node_named("n1").unwrap();
    let n2 = g.node_named("n2").unwrap();
    let witness = ev.shortest_witness(n1, n2).expect("a path exists");
    println!("\nwitness: {}", witness.render(&g));
    let paths = enumerate_paths_governed(&view, &expr, 2, &gov)
        .expect("no budget to exhaust")
        .value
        .paths;
    println!("all {} exposure paths:", paths.len());
    for p in &paths {
        println!("  {}", p.render(&g));
    }
    let count = count_paths_governed(&view, &expr, 2, &Budget::unlimited(), CancelToken::new());
    assert_eq!(count.unwrap().value.to_string(), paths.len().to_string());

    // 4. Which node is the critical transport hub?
    let transport = parse_expr("?person/rides/?bus/rides^-/?person", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let bc = betweenness_undirected(&g);
    let bcr = bc_r_exact(&view, &transport);
    println!("\ncentrality (bc = label-blind, bc_r = transport-only):");
    for n in g.base().nodes() {
        if bc[n.index()] > 0.0 || bcr[n.index()] > 0.0 {
            println!(
                "  {:3}  bc = {:5.1}   bc_r = {:5.1}",
                g.node_name(n),
                bc[n.index()],
                bcr[n.index()]
            );
        }
    }

    // 5. The same question in Cypher-style MATCH syntax (§3 cites Cypher
    //    as the practical query language for property graphs).
    let pg = figure2_property();
    let q = kgq::cypher::parse_query(
        "MATCH (p:person)-[:rides]->(b:bus), (i:infected)-[:rides]->(b) RETURN p.name, b",
    )
    .expect("valid query");
    println!("\nCypher MATCH answers:");
    let rows = kgq::cypher::execute_governed(&pg, &q, &QueryCache::new(), &gov);
    for row in rows.expect("no budget to exhaust").value {
        println!("  {} rides the exposed bus {}", row[0], row[1]);
    }

    // 6. The same data in the other two models.
    let julia = pg.labeled().node_named("n1").unwrap();
    println!(
        "\nproperty model: n1 is {} (age {})",
        pg.node_prop_str(julia, "name").unwrap(),
        pg.node_prop_str(julia, "age").unwrap()
    );
    let vg = figure2_vector();
    println!(
        "vector model: d = {}, λ(n1) = {:?}",
        vg.dim(),
        vg.node_vector(julia)
            .iter()
            .map(|&s| vg.consts().resolve(s))
            .collect::<Vec<_>>()
    );
}
