//! Experiment `exp_logic` (E8) — bounded-variable evaluation (§4.3).
//!
//! Evaluates the infection query on growing contact networks four ways:
//! the two-variable formula ψ with the relational pipeline, ψ with naive
//! assignment enumeration, the wide (fresh-variable) formula φ with
//! naive enumeration, and the RPQ product engine. All agree on answers;
//! the table shows the cost separation that motivates variable reuse —
//! naive evaluation scales with `n^{quantifiers}`, the pipeline with the
//! sizes of binary relations.

use kgq_bench::{fmt_duration, print_table, timed, unlimited_starts};
use kgq_core::{parse_expr, EvalError, LabeledView};
use kgq_graph::generate::{contact_network, ContactParams};
use kgq_logic::eval::eval_bounded_stats;
use kgq_logic::{compile_fo2, compile_wide, eval_naive, Var};

fn main() -> Result<(), EvalError> {
    let expr_text = "?person/rides/?bus/rides^-/?infected";
    println!("query: {expr_text}");
    let mut rows = Vec::new();
    for people in [50usize, 100, 200, 400] {
        let pg = contact_network(&ContactParams {
            people,
            buses: people / 10,
            addresses: people / 3,
            rides_per_person: 2,
            contacts_per_person: 2,
            infected_fraction: 0.1,
            seed: 2,
        });
        let mut g = pg.into_labeled();
        let expr = parse_expr(expr_text, g.consts_mut()).unwrap();
        let psi = compile_fo2(&expr).unwrap();
        let phi = compile_wide(&expr).unwrap();

        let ((psi_answers, stats), t_pipeline) = timed(|| eval_bounded_stats(&g, &psi, Var(0)));
        let (naive_psi, t_naive_psi) = timed(|| eval_naive(&g, &psi, Var(0)));
        let (naive_phi, t_naive_phi) = timed(|| eval_naive(&g, &phi, Var(0)));
        let view = LabeledView::new(&g);
        let (rpq, t_rpq) = timed(|| unlimited_starts(&view, &expr));
        let rpq = rpq?;

        assert_eq!(psi_answers, naive_psi);
        assert_eq!(psi_answers, naive_phi);
        assert_eq!(psi_answers, rpq);
        assert!(stats.max_arity <= 2, "pipeline must stay binary");

        rows.push(vec![
            g.node_count().to_string(),
            psi_answers.len().to_string(),
            fmt_duration(t_pipeline),
            fmt_duration(t_naive_psi),
            fmt_duration(t_naive_phi),
            fmt_duration(t_rpq),
        ]);
    }
    print_table(
        "node extraction: ψ pipeline (FO², binary tables) vs naive vs RPQ engine",
        &[
            "nodes",
            "answers",
            "ψ pipeline",
            "ψ naive",
            "φ naive (3 vars)",
            "RPQ product",
        ],
        &rows,
    );
    println!(
        "\nexpected shape: naive evaluation blows up with n (it loops over \
         all nodes per quantifier); the binary-table pipeline and the \
         product-automaton engine stay near-linear — the §4.3 argument for \
         bounded-variable logics."
    );
    Ok(())
}
