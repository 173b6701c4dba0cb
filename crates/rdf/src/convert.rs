//! RDF ⇄ labeled graph correspondence.
//!
//! The paper treats RDF as a class of labeled graphs: a triple
//! `(s, p, o)` "represents an edge from `s` to `o` with label `p`". The
//! converse direction uses `rdf:type` triples for node labels. With this
//! correspondence every algorithm of `kgq-core` (path queries, counting,
//! generation, enumeration) runs on RDF data.

use crate::store::TripleStore;
use kgq_graph::{GraphError, LabeledGraph};
use std::collections::HashMap;

/// The predicate used for node labels.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

/// Default label for nodes without an `rdf:type` triple.
pub const UNTYPED: &str = "Resource";

/// Converts an RDF graph to a labeled graph.
///
/// * every term occurring as a subject or object becomes a node;
/// * `(s, rdf:type, C)` sets the label of `s` to `C` (the first such
///   triple in term order wins; `C` itself also becomes a node labeled
///   `Class` if it appears only in type position);
/// * every other triple `(s, p, o)` becomes an edge labeled `p` with a
///   synthesized identifier.
pub fn rdf_to_labeled(st: &TripleStore) -> Result<LabeledGraph, GraphError> {
    let type_term = st.get_term(RDF_TYPE);
    // First pass: choose labels.
    let mut labels: HashMap<&str, &str> = HashMap::new();
    let mut is_class: HashMap<&str, bool> = HashMap::new();
    for t in st.iter() {
        if Some(t.p) == type_term {
            let s = st.term_str(t.s);
            let c = st.term_str(t.o);
            labels.entry(s).or_insert(c);
            is_class.insert(c, true);
        }
    }
    let mut g = LabeledGraph::new();
    let ensure_node =
        |g: &mut LabeledGraph,
         name: &str,
         labels: &HashMap<&str, &str>,
         is_class: &HashMap<&str, bool>|
         -> Result<kgq_graph::NodeId, GraphError> {
            if let Some(n) = g.node_named(name) {
                return Ok(n);
            }
            let label = labels.get(name).copied().unwrap_or(
                if is_class.get(name).copied().unwrap_or(false) {
                    "Class"
                } else {
                    UNTYPED
                },
            );
            g.add_node(name, label)
        };
    let mut eid = 0usize;
    for t in st.iter() {
        if Some(t.p) == type_term {
            // Represented as the node label; classes referenced elsewhere
            // still materialize below if they occur in other triples.
            continue;
        }
        let s = st.term_str(t.s).to_owned();
        let o = st.term_str(t.o).to_owned();
        let p = st.term_str(t.p).to_owned();
        let sn = ensure_node(&mut g, &s, &labels, &is_class)?;
        let on = ensure_node(&mut g, &o, &labels, &is_class)?;
        g.add_edge(&format!("t{eid}"), sn, on, &p)?;
        eid += 1;
    }
    // Materialize isolated typed subjects (only appear in type triples).
    for t in st.iter() {
        if Some(t.p) == type_term {
            let s = st.term_str(t.s).to_owned();
            ensure_node(&mut g, &s, &labels, &is_class)?;
        }
    }
    Ok(g)
}

/// Converts a labeled graph to RDF: edges become triples, node labels
/// become `rdf:type` triples. Edge identifiers are dropped — parallel
/// edges with the same label collapse (RDF graphs are triple *sets*, as
/// the paper notes when contrasting the models).
pub fn labeled_to_rdf(g: &LabeledGraph) -> TripleStore {
    let mut st = TripleStore::new();
    let ty = st.term(RDF_TYPE);
    let mut batch = Vec::new();
    for n in g.base().nodes() {
        let name = g.node_name(n).to_owned();
        let label = g.label_name(g.node_label(n)).to_owned();
        batch.push(crate::store::Triple {
            s: st.term(&name),
            p: ty,
            o: st.term(&label),
        });
    }
    for e in g.base().edges() {
        let (s, o) = g.base().endpoints(e);
        let sv = g.node_name(s).to_owned();
        let ov = g.node_name(o).to_owned();
        let pv = g.label_name(g.edge_label(e)).to_owned();
        batch.push(crate::store::Triple {
            s: st.term(&sv),
            p: st.term(&pv),
            o: st.term(&ov),
        });
    }
    st.extend(batch);
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgq_core::eval::Evaluator;
    use kgq_core::govern::Governor;
    use kgq_core::model::LabeledView;
    use kgq_core::parser::parse_expr;
    use kgq_graph::figures::figure2_labeled;

    /// Nodes starting a path matching `e`, under an unlimited governor.
    fn starts_of(view: &LabeledView, e: &kgq_core::PathExpr) -> Vec<kgq_graph::NodeId> {
        let gov = Governor::unlimited();
        let ev = Evaluator::new_governed(view, e, &gov).unwrap();
        ev.matching_starts_governed(&gov).unwrap().value
    }

    fn sample_store() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert_strs("alice", RDF_TYPE, "person");
        st.insert_strs("pedro", RDF_TYPE, "infected");
        st.insert_strs("b7", RDF_TYPE, "bus");
        st.insert_strs("alice", "rides", "b7");
        st.insert_strs("pedro", "rides", "b7");
        st
    }

    #[test]
    fn rdf_to_labeled_basic() {
        let st = sample_store();
        let g = rdf_to_labeled(&st).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let alice = g.node_named("alice").unwrap();
        assert_eq!(g.label_name(g.node_label(alice)), "person");
    }

    #[test]
    fn path_queries_run_on_rdf() {
        let st = sample_store();
        let mut g = rdf_to_labeled(&st).unwrap();
        let e = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let starts = starts_of(&view, &e);
        assert_eq!(starts.len(), 1);
        assert_eq!(g.node_name(starts[0]), "alice");
    }

    #[test]
    fn labeled_round_trip_preserves_queries() {
        let g0 = figure2_labeled();
        let st = labeled_to_rdf(&g0);
        let mut g1 = rdf_to_labeled(&st).unwrap();
        // Parallel-free figure: edge and node counts survive.
        assert_eq!(g1.node_count(), g0.node_count());
        assert_eq!(g1.edge_count(), g0.edge_count());
        let e = parse_expr("?person/rides/?bus/rides^-/?infected", g1.consts_mut()).unwrap();
        let view = LabeledView::new(&g1);
        let names: Vec<&str> = starts_of(&view, &e)
            .into_iter()
            .map(|n| g1.node_name(n))
            .collect();
        assert_eq!(names, vec!["n1", "n4"]);
    }

    #[test]
    fn untyped_nodes_get_default_label() {
        let mut st = TripleStore::new();
        st.insert_strs("a", "p", "b");
        let g = rdf_to_labeled(&st).unwrap();
        let a = g.node_named("a").unwrap();
        assert_eq!(g.label_name(g.node_label(a)), UNTYPED);
    }

    #[test]
    fn isolated_typed_subject_materializes() {
        let mut st = TripleStore::new();
        st.insert_strs("lonely", RDF_TYPE, "person");
        let g = rdf_to_labeled(&st).unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn parallel_edges_collapse_in_rdf() {
        let mut g = kgq_graph::LabeledGraph::new();
        let a = g.add_node("a", "x").unwrap();
        let b = g.add_node("b", "x").unwrap();
        g.add_edge("e1", a, b, "p").unwrap();
        g.add_edge("e2", a, b, "p").unwrap();
        let st = labeled_to_rdf(&g);
        // 2 type triples + 1 collapsed edge triple.
        assert_eq!(st.len(), 3);
    }
}
