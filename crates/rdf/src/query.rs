//! Property paths over RDF: evaluate the §4 path language directly on a
//! triple store (SPARQL 1.1 property paths \[8, 38, 44\] are the practical
//! face of this feature). The store is viewed as a labeled graph
//! (predicates = edge labels, `rdf:type` = node labels) and handed to
//! the `kgq-core` product engine.

use crate::convert::rdf_to_labeled;
use crate::store::TripleStore;
use kgq_core::analyze::analyze_expr;
use kgq_core::eval::Evaluator;
use kgq_core::govern::{EvalError, Governed, Governor};
use kgq_core::model::LabeledView;
use kgq_core::parser::{parse_expr, ParseError};
use kgq_graph::{GraphError, SchemaSummary};
use std::fmt;

/// Errors from RDF path queries.
#[derive(Clone, Debug)]
pub enum RpqError {
    /// The expression text failed to parse.
    Parse(ParseError),
    /// The store could not be viewed as a labeled graph.
    Graph(GraphError),
    /// Evaluation failed (a worker panic or an overflow).
    Eval(EvalError),
}

impl fmt::Display for RpqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpqError::Parse(e) => write!(f, "path expression: {e}"),
            RpqError::Graph(e) => write!(f, "store conversion: {e}"),
            RpqError::Eval(e) => write!(f, "evaluation: {e}"),
        }
    }
}

impl std::error::Error for RpqError {}

impl From<ParseError> for RpqError {
    fn from(e: ParseError) -> Self {
        RpqError::Parse(e)
    }
}

impl From<GraphError> for RpqError {
    fn from(e: GraphError) -> Self {
        RpqError::Graph(e)
    }
}

impl From<EvalError> for RpqError {
    fn from(e: EvalError) -> Self {
        RpqError::Eval(e)
    }
}

/// All `(start, end)` term pairs connected by a path matching
/// `expr_text`, as term strings, sorted. The static analyzer runs first:
/// a provably empty language (e.g. a predicate missing from the store
/// vocabulary) short-circuits to the empty answer before evaluation.
/// Evaluation runs under `gov`; a partial answer is the sorted prefix the
/// budget allowed.
pub fn rpq_pairs(
    st: &TripleStore,
    expr_text: &str,
    gov: &Governor,
) -> Result<Governed<Vec<(String, String)>>, RpqError> {
    let mut g = rdf_to_labeled(st)?;
    let expr = parse_expr(expr_text, g.consts_mut())?;
    let schema = SchemaSummary::from_labeled(&g);
    if analyze_expr(&expr, &schema, Some((expr_text, g.consts()))).provably_empty {
        return Ok(Governed::complete(Vec::new()));
    }
    let ev = match Evaluator::new_governed(&LabeledView::new(&g), &expr, gov) {
        Ok(ev) => ev,
        Err(why) => return Ok(Governed::partial(Vec::new(), why)),
    };
    let name = |n| g.node_name(n).to_owned();
    let res = ev.pairs_governed(gov)?;
    Ok(res.map(|pairs| sorted(pairs.into_iter().map(|(a, b)| (name(a), name(b))))))
}

/// All terms starting a matching path, as term strings, sorted. Consults
/// the static analyzer first and runs under `gov`, like [`rpq_pairs`].
pub fn rpq_starts(
    st: &TripleStore,
    expr_text: &str,
    gov: &Governor,
) -> Result<Governed<Vec<String>>, RpqError> {
    let mut g = rdf_to_labeled(st)?;
    let expr = parse_expr(expr_text, g.consts_mut())?;
    let schema = SchemaSummary::from_labeled(&g);
    if analyze_expr(&expr, &schema, Some((expr_text, g.consts()))).provably_empty {
        return Ok(Governed::complete(Vec::new()));
    }
    let ev = match Evaluator::new_governed(&LabeledView::new(&g), &expr, gov) {
        Ok(ev) => ev,
        Err(why) => return Ok(Governed::partial(Vec::new(), why)),
    };
    let res = ev.matching_starts_governed(gov)?;
    Ok(res.map(|starts| sorted(starts.into_iter().map(|n| g.node_name(n).to_owned()))))
}

/// Collects and sorts, for a deterministic row surface.
fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut v: Vec<T> = items.collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::RDF_TYPE;
    use crate::reason::{materialize_rdfs, RDFS_SUBPROPERTY};

    fn family() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert_strs("ana", RDF_TYPE, "person");
        st.insert_strs("ben", RDF_TYPE, "person");
        st.insert_strs("cal", RDF_TYPE, "person");
        st.insert_strs("ana", "parentOf", "ben");
        st.insert_strs("ben", "parentOf", "cal");
        st
    }

    #[test]
    fn transitive_property_path() {
        let st = family();
        let pairs = rpq_pairs(&st, "parentOf/(parentOf)*", &Governor::unlimited())
            .unwrap()
            .value;
        assert_eq!(
            pairs,
            vec![
                ("ana".to_owned(), "ben".to_owned()),
                ("ana".to_owned(), "cal".to_owned()),
                ("ben".to_owned(), "cal".to_owned()),
            ]
        );
    }

    #[test]
    fn inverse_and_node_tests() {
        let st = family();
        let starts = rpq_starts(&st, "?person/parentOf^-/?person", &Governor::unlimited())
            .unwrap()
            .value;
        assert_eq!(starts, vec!["ben".to_owned(), "cal".to_owned()]);
    }

    #[test]
    fn inference_feeds_property_paths() {
        let mut st = family();
        st.insert_strs("parentOf", RDFS_SUBPROPERTY, "ancestorOf");
        materialize_rdfs(&mut st);
        let pairs = rpq_pairs(&st, "(ancestorOf)*", &Governor::unlimited())
            .unwrap()
            .value;
        // Reflexive pairs for every node + the two derived edges + chain.
        assert!(pairs.contains(&("ana".to_owned(), "cal".to_owned())));
    }

    #[test]
    fn parse_errors_surface() {
        let st = family();
        let err = rpq_pairs(&st, "parentOf/", &Governor::unlimited()).unwrap_err();
        assert!(matches!(err, RpqError::Parse(_)));
        assert!(err.to_string().contains("path expression"));
    }
}
