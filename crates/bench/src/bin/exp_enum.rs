//! Experiment `exp_enum` (E6) — polynomial-delay enumeration.
//!
//! Measures the inter-answer delay of the pruned-DFS enumerator across
//! answer-set sizes: the *maximum* delay should stay flat (bounded by a
//! polynomial in the instance, not by the number of answers), and the
//! time-to-first-answer should be far below materializing everything.

use kgq_bench::{fmt_duration, print_table, timed};
use kgq_core::{parse_expr, ExactCounter, LabeledView, PathEnumerator};
use kgq_graph::generate::gnm_labeled;
use std::time::{Duration, Instant};

fn main() {
    let mut rows = Vec::new();
    for (n, m, k) in [
        (10usize, 20usize, 3usize),
        (20, 60, 4),
        (40, 160, 5),
        (60, 300, 5),
    ] {
        let mut g = gnm_labeled(n, m, &["a"], &["p", "q"], 11);
        let expr = parse_expr("(p+q)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let total = ExactCounter::new(&view, &expr).count(k).unwrap();

        let (mut it, prep) = timed(|| PathEnumerator::new(&view, &expr, k));
        // Time to first answer.
        let t0 = Instant::now();
        let first = it.next();
        let ttfa = t0.elapsed();
        assert!(first.is_some());
        // Delays between consecutive answers.
        let mut delays: Vec<Duration> = Vec::new();
        let mut count = 1u128;
        loop {
            let t = Instant::now();
            match it.next() {
                Some(_) => {
                    delays.push(t.elapsed());
                    count += 1;
                }
                None => break,
            }
        }
        assert_eq!(count, total, "enumerator must be complete");
        let max_delay = delays.iter().max().copied().unwrap_or_default();
        let p999 = {
            let mut d = delays.clone();
            d.sort_unstable();
            d.get((d.len() as f64 * 0.999) as usize)
                .or_else(|| d.last())
                .copied()
                .unwrap_or_default()
        };
        let mean_delay = if delays.is_empty() {
            Duration::ZERO
        } else {
            delays.iter().sum::<Duration>() / delays.len() as u32
        };
        // Baseline: materialize everything, then look at the first.
        let (all, t_material) = timed(|| PathEnumerator::new(&view, &expr, k).collect::<Vec<_>>());
        assert_eq!(all.len() as u128, total);
        rows.push(vec![
            format!("G({n},{m}) k={k}"),
            total.to_string(),
            fmt_duration(prep),
            fmt_duration(ttfa),
            fmt_duration(mean_delay),
            fmt_duration(p999),
            fmt_duration(max_delay),
            fmt_duration(t_material),
        ]);
    }
    print_table(
        "Polynomial-delay enumeration of ⟦(p+q)*⟧ answers of length k",
        &[
            "instance",
            "answers",
            "preprocess",
            "first answer",
            "mean delay",
            "p99.9 delay",
            "max delay",
            "materialize-all",
        ],
        &rows,
    );
    println!(
        "\nexpected shape: answers grow by orders of magnitude while the \
         max inter-answer delay stays roughly flat, and the first answer \
         arrives ~immediately vs. materializing the full set."
    );
}
