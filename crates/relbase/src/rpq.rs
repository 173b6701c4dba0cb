//! Regular path queries by relational algebra over the edge table.
//!
//! The §2.2 baseline: store the graph as relations (one binary relation
//! per edge label), and evaluate a path expression bottom-up into a
//! binary `(start, end)` relation:
//!
//! * `?test`     → σ over the node table, as an identity relation;
//! * `test`      → the union of matching edge relations;
//! * `test⁻`     → the swapped projection;
//! * `r / r`     → join on the middle attribute + projection;
//! * `r + r`     → union;
//! * `r*`        → semi-naive transitive closure ∪ identity.
//!
//! The pair semantics matches `kgq_core::Evaluator::pairs`, which the
//! tests verify; the benches measure the cost gap the paper alludes to.

use crate::relation::Relation;
use kgq_core::expr::{PathExpr, Test};
use kgq_core::model::PathGraph;
use kgq_graph::{EdgeId, NodeId};
use std::fmt;

/// Expressions the relational baseline cannot evaluate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnsupportedExpr {
    /// Currently nothing is unsupported; kept for API stability.
    Never,
}

impl fmt::Display for UnsupportedExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unsupported expression")
    }
}

impl std::error::Error for UnsupportedExpr {}

/// Identity relation over nodes satisfying a test.
fn node_rel<G: PathGraph>(g: &G, t: &Test) -> Relation {
    Relation::from_rows(
        2,
        (0..g.node_count() as u32)
            .map(NodeId)
            .filter(|&n| g.node_test(n, t))
            .map(|n| vec![u64::from(n.0), u64::from(n.0)]),
    )
}

/// Binary relation of edges satisfying a test, forward orientation.
fn edge_rel<G: PathGraph>(g: &G, t: &Test, forward: bool) -> Relation {
    Relation::from_rows(
        2,
        (0..g.edge_count() as u32)
            .map(EdgeId)
            .filter(|&e| g.edge_test(e, t))
            .map(|e| {
                let (s, d) = g.endpoints(e);
                if forward {
                    vec![u64::from(s.0), u64::from(d.0)]
                } else {
                    vec![u64::from(d.0), u64::from(s.0)]
                }
            }),
    )
}

/// Compose two binary relations: `R(x,y) ⋈ S(y,z) → π_{x,z}`.
fn compose(a: &Relation, b: &Relation) -> Relation {
    a.join(b, &[(1, 0)]).project(&[0, 2])
}

/// Semi-naive transitive-reflexive closure of a binary relation over the
/// node universe `0..n`.
fn star(r: &Relation, n: usize) -> Relation {
    let mut closure = Relation::from_rows(2, (0..n as u64).map(|v| vec![v, v]));
    let mut delta = r.clone().difference(&closure);
    closure = closure.union(&delta);
    while !delta.is_empty() {
        let next = compose(&delta, r);
        delta = next.difference(&closure);
        closure = closure.union(&delta);
    }
    closure
}

fn eval<G: PathGraph>(g: &G, expr: &PathExpr) -> Relation {
    match expr {
        PathExpr::NodeTest(t) => node_rel(g, t),
        PathExpr::Forward(t) => edge_rel(g, t, true),
        PathExpr::Backward(t) => edge_rel(g, t, false),
        PathExpr::Concat(a, b) => compose(&eval(g, a), &eval(g, b)),
        PathExpr::Alt(a, b) => eval(g, a).union(&eval(g, b)),
        PathExpr::Star(inner) => star(&eval(g, inner), g.node_count()),
    }
}

/// Evaluates `expr` over `g` by relational algebra, returning all
/// `(start, end)` pairs connected by a conforming path, sorted.
pub fn rpq_join_pairs<G: PathGraph>(
    g: &G,
    expr: &PathExpr,
) -> Result<Vec<(NodeId, NodeId)>, UnsupportedExpr> {
    let rel = eval(g, expr);
    let mut pairs: Vec<(NodeId, NodeId)> = rel
        .iter()
        .map(|row| (NodeId(row[0] as u32), NodeId(row[1] as u32)))
        .collect();
    pairs.sort_unstable();
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgq_core::eval::Evaluator;
    use kgq_core::govern::Governor;
    use kgq_core::model::LabeledView;
    use kgq_core::parser::parse_expr;
    use kgq_graph::figures::figure2_labeled;
    use kgq_graph::generate::{cycle_graph, gnm_labeled, path_graph};

    fn compare(g: &mut kgq_graph::LabeledGraph, text: &str) {
        let e = parse_expr(text, g.consts_mut()).unwrap();
        let view = LabeledView::new(g);
        let from_joins = rpq_join_pairs(&view, &e).unwrap();
        let mut from_product = Evaluator::new_governed(&view, &e, &Governor::unlimited())
            .unwrap()
            .pairs_governed(&Governor::unlimited())
            .unwrap()
            .value;
        from_product.sort_unstable();
        assert_eq!(from_joins, from_product, "expr={text}");
    }

    #[test]
    fn agrees_with_product_on_figure2() {
        for text in [
            "?person/rides/?bus/rides^-/?infected",
            "rides/rides^-",
            "(contact)*",
            "?person/(lives + contact)/?infected",
            "{!rides & !lives}^-",
            "?infected/rides/?bus/rides^-/(?person/(lives+contact))*/?person",
        ] {
            let mut g = figure2_labeled();
            compare(&mut g, text);
        }
    }

    #[test]
    fn agrees_with_product_on_random_graphs() {
        for seed in 0..4 {
            let mut g = gnm_labeled(12, 30, &["a", "b"], &["p", "q"], seed);
            for text in ["(p)*", "p/q^-", "(p+q)*", "?a/p/?b", "p/p/p"] {
                compare(&mut g, text);
            }
        }
    }

    #[test]
    fn star_closure_on_cycle_is_complete() {
        let mut g = cycle_graph(5, "v", "next");
        let e = parse_expr("(next)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let pairs = rpq_join_pairs(&view, &e).unwrap();
        assert_eq!(pairs.len(), 25);
    }

    #[test]
    fn star_on_path_is_upper_triangle() {
        let mut g = path_graph(4, "v", "next");
        let e = parse_expr("(next)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let pairs = rpq_join_pairs(&view, &e).unwrap();
        // (i, j) with i <= j: 4+3+2+1.
        assert_eq!(pairs.len(), 10);
    }

    #[test]
    fn property_tests_evaluate_via_the_view() {
        // Property tests work because the *view* interprets them — the
        // relational baseline is model-generic like the product engine.
        let pg = kgq_graph::figures::figure2_property();
        let mut consts_holder = pg.clone();
        let e = parse_expr(
            "?person/{contact & [date='3/4/21']}/?infected",
            consts_holder.labeled_mut().consts_mut(),
        )
        .unwrap();
        let view = kgq_core::model::PropertyView::new(&consts_holder);
        let pairs = rpq_join_pairs(&view, &e).unwrap();
        assert_eq!(pairs.len(), 1);
    }
}
