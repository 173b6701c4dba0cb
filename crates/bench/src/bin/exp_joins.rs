//! Experiment `exp_joins` (E9) — "joins are expensive" (§2.2).
//!
//! Evaluates fixed-length path queries `p/p/…/p` and the closure `(p)*`
//! on the same graphs two ways: successive relational self-joins over
//! the edge table (the graphs-in-an-RDBMS baseline) and the native
//! product-automaton reachability of `kgq-core`. Both return identical
//! `(start, end)` pair sets; the join pipeline materializes every
//! intermediate pair set, which is where its cost explodes.

use kgq_bench::{fmt_duration, print_table, timed, unlimited_pairs};
use kgq_core::{parse_expr, EvalError, LabeledView};
use kgq_graph::generate::gnm_labeled;
use kgq_relbase::rpq_join_pairs;

fn main() -> Result<(), EvalError> {
    let mut g = gnm_labeled(300, 1500, &["v"], &["p", "q"], 17);
    println!(
        "G({}, {}), uniform labels p/q",
        g.node_count(),
        g.edge_count()
    );
    let mut rows = Vec::new();
    for len in 1..=6usize {
        let text = vec!["p"; len].join("/");
        let expr = parse_expr(&text, g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let (joined, t_join) = timed(|| rpq_join_pairs(&view, &expr).unwrap());
        let (native, t_native) = timed(|| {
            let mut pairs = unlimited_pairs(&view, &expr)?;
            pairs.sort_unstable();
            Ok::<_, EvalError>(pairs)
        });
        let native = native?;
        assert_eq!(joined, native, "len={len}");
        rows.push(vec![
            text,
            joined.len().to_string(),
            fmt_duration(t_join),
            fmt_duration(t_native),
            format!(
                "{:.1}x",
                t_join.as_secs_f64() / t_native.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    // Transitive closure.
    let expr = parse_expr("(p)*", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let (joined, t_join) = timed(|| rpq_join_pairs(&view, &expr).unwrap());
    let (native, t_native) = timed(|| {
        let mut pairs = unlimited_pairs(&view, &expr)?;
        pairs.sort_unstable();
        Ok::<_, EvalError>(pairs)
    });
    let native = native?;
    assert_eq!(joined, native);
    rows.push(vec![
        "(p)*".to_owned(),
        joined.len().to_string(),
        fmt_duration(t_join),
        fmt_duration(t_native),
        format!(
            "{:.1}x",
            t_join.as_secs_f64() / t_native.as_secs_f64().max(1e-9)
        ),
    ]);
    print_table(
        "path queries: relational joins vs product-automaton traversal",
        &["query", "pairs", "joins", "native", "joins/native"],
        &rows,
    );
    println!(
        "\nexpected shape: identical answers; the join pipeline's cost \
         grows with every materialized intermediate pair set, the native \
         engine's with the product size — the §2.2 motivation for graph \
         databases."
    );
    Ok(())
}
