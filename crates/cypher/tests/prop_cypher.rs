//! Property-based equivalence tests for the Cypher-style matcher on
//! arbitrary property graphs.

use kgq_core::{Governor, QueryCache};
use kgq_cypher::{execute_governed, parse_query, Query, Row};
use kgq_graph::{NodeId, PropertyGraph};
use proptest::prelude::*;

/// `execute_governed` with a fresh cache and no budget.
fn execute(g: &PropertyGraph, q: &Query) -> Vec<Row> {
    let res = execute_governed(g, q, &QueryCache::new(), &Governor::unlimited()).unwrap();
    assert!(!res.is_partial());
    res.value
}

const LABELS: [&str; 2] = ["person", "bus"];
const EDGE_LABELS: [&str; 2] = ["rides", "contact"];

#[derive(Clone, Debug)]
struct Spec {
    node_labels: Vec<usize>,
    edges: Vec<(usize, usize, usize)>,
}

fn spec() -> impl Strategy<Value = Spec> {
    (1usize..8).prop_flat_map(|n| {
        (
            proptest::collection::vec(0..LABELS.len(), n),
            proptest::collection::vec((0..n, 0..n, 0..EDGE_LABELS.len()), 0..14),
        )
            .prop_map(|(node_labels, edges)| Spec { node_labels, edges })
    })
}

fn build(s: &Spec) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let nodes: Vec<NodeId> = s
        .node_labels
        .iter()
        .enumerate()
        .map(|(i, &l)| g.add_node(&format!("n{i}"), LABELS[l]).unwrap())
        .collect();
    for (i, &(a, b, l)) in s.edges.iter().enumerate() {
        g.add_edge(&format!("e{i}"), nodes[a], nodes[b], EDGE_LABELS[l])
            .unwrap();
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_edge_pattern_matches_raw_edges(s in spec()) {
        let g = build(&s);
        let q = parse_query("MATCH (a:person)-[:rides]->(b) RETURN a, b").unwrap();
        let mut got: Vec<(String, String)> = execute(&g, &q)
            .into_iter()
            .map(|r| (r[0].clone(), r[1].clone()))
            .collect();
        got.sort();
        // Ground truth directly from the graph (per-edge, so parallel
        // edges yield duplicate pairs — matching does too).
        let lg = g.labeled();
        let person = lg.sym("person");
        let rides = lg.sym("rides");
        let mut expected: Vec<(String, String)> = lg
            .base()
            .edges()
            .filter(|&e| Some(lg.edge_label(e)) == rides)
            .filter(|&e| Some(lg.node_label(lg.base().source(e))) == person)
            .map(|e| {
                let (a, b) = lg.base().endpoints(e);
                (lg.node_name(a).to_owned(), lg.node_name(b).to_owned())
            })
            .collect();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn direction_reversal_is_an_involution(s in spec()) {
        let g = build(&s);
        let fwd = parse_query("MATCH (a)-[:contact]->(b) RETURN a, b").unwrap();
        let bwd = parse_query("MATCH (b)<-[:contact]-(a) RETURN a, b").unwrap();
        let mut f: Vec<_> = execute(&g, &fwd);
        let mut b: Vec<_> = execute(&g, &bwd);
        f.sort();
        b.sort();
        prop_assert_eq!(f, b);
    }

    #[test]
    fn two_hop_respects_edge_uniqueness(s in spec()) {
        let g = build(&s);
        let q = parse_query("MATCH (a)-[r:rides]->(b)<-[t:rides]-(c) RETURN r, t").unwrap();
        for row in execute(&g, &q) {
            prop_assert_ne!(&row[0], &row[1], "edge reused within one match");
        }
    }
}
