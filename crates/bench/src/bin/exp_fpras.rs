//! Experiment `exp_fpras` (E4) — accuracy of the approximate counter.
//!
//! Fixes `(G, r, k)` with a known exact count and sweeps the target
//! error ε, reporting the observed relative error distribution over many
//! seeds and the build time. The paper's claim: relative error ≤ ε with
//! very high probability, in time polynomial in `1/ε`.

use kgq_bench::{fmt_duration, mean, percentile, print_table, timed};
use kgq_core::{approx_count, parse_expr, ApproxParams, ExactCounter, LabeledView};
use kgq_graph::generate::gnm_labeled;

fn main() {
    let mut g = gnm_labeled(14, 36, &["a", "b"], &["p", "q"], 3);
    let expr = parse_expr("(p + p/p)*", g.consts_mut()).unwrap();
    println!("G(14, 36), r = (p + p/p)* (ambiguous: every run of p-edges parses many ways)");
    let view = LabeledView::new(&g);
    let k = 5;
    let exact = ExactCounter::new(&view, &expr).count(k).unwrap();
    println!("k = {k}, exact Count = {exact}");

    let trials_per_eps: u32 = 24;
    let mut rows = Vec::new();
    for eps in [0.5, 0.3, 0.2, 0.1] {
        let mut errors = Vec::new();
        let mut total_time = std::time::Duration::ZERO;
        for seed in 0..u64::from(trials_per_eps) {
            let params = ApproxParams {
                epsilon: eps,
                seed,
                ..ApproxParams::default()
            };
            let (est, t) = timed(|| approx_count(&view, &expr, k, &params));
            total_time += t;
            errors.push((est - exact as f64).abs() / exact as f64);
        }
        let within = errors.iter().filter(|&&e| e <= eps).count();
        rows.push(vec![
            format!("{eps:.2}"),
            format!("{:.3}", mean(&errors)),
            format!("{:.3}", percentile(&errors, 95.0)),
            format!("{within}/{trials_per_eps}"),
            fmt_duration(total_time / trials_per_eps),
        ]);
    }
    print_table(
        "FPRAS relative error vs ε (24 independent seeds each)",
        &["ε", "mean err", "p95 err", "within ε", "avg time"],
        &rows,
    );
    println!(
        "\nexpected shape: mean error falls with ε, time grows ~1/ε² \
         (trials per layer), nearly all runs within ε."
    );
}
