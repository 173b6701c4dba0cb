//! Experiment `exp_govern` — the cost of live budget checks on the one
//! governed query path (target: <3% slowdown), emitted as JSON.
//!
//! Workload: the Figure 1 corpus (simulated DBLP, ~10.9k publications)
//! recast as a graph query. Publications and keywords become nodes of a
//! bipartite labeled graph with a `mentions` edge wherever a title
//! contains a keyword, so `?pub/mentions/?kw` *pairs* is exactly the
//! publication–keyword incidence that `figure1_series` counts — the
//! cross-check below asserts the two totals agree, and the governed
//! answers are checked against the sequential and brute-force oracles.
//! Each operation (pairs, matching_starts, exact count) is then timed
//! under an unlimited governor (what a call with no flags runs) and
//! under a budget whose every limit is live but never reached (deadline,
//! steps, results, memory); with batched tickers (one shared
//! consultation per 1024 local work units) the two should be
//! indistinguishable.

use kgq_bench::timed;
use kgq_biblio::analysis::title_contains;
use kgq_biblio::{figure1_series, generate_corpus, CorpusParams, KEYWORDS};
use kgq_core::{
    count_paths_governed, count_paths_naive, parse_expr, Budget, CancelToken, CountOutcome,
    EvalError, Evaluator, Governor, LabeledView,
};
use kgq_graph::LabeledGraph;
use std::time::Duration;

/// Best-of-`reps` wall time: the minimum is the standard noise-resistant
/// statistic for same-work/same-input timing comparisons.
fn best_secs<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let mut times: Vec<Duration> = (0..reps).map(|_| timed(&mut f).1).collect();
    times.sort();
    times[0].as_secs_f64()
}

fn overhead_pct(unlimited: f64, budgeted: f64) -> f64 {
    (budgeted - unlimited) / unlimited * 100.0
}

fn main() -> Result<(), EvalError> {
    let params = CorpusParams::default();
    let corpus = generate_corpus(&params);
    let fig = figure1_series(&corpus);
    let incidence: usize = fig.series.iter().map(|s| s.iter().sum::<usize>()).sum();

    // Bipartite publication–keyword graph: `mentions` edges reproduce
    // the Figure 1 counting as a reachability query.
    let mut g = LabeledGraph::new();
    let kw_nodes: Vec<_> = KEYWORDS
        .iter()
        .enumerate()
        .map(|(i, _)| g.add_node(&format!("k{i}"), "kw").unwrap())
        .collect();
    let mut edges = 0usize;
    for (pi, publication) in corpus.iter().enumerate() {
        let p = g.add_node(&format!("p{pi}"), "pub").unwrap();
        for (ki, kw) in KEYWORDS.iter().enumerate() {
            if title_contains(&publication.title, kw) {
                g.add_edge(&format!("e{edges}"), p, kw_nodes[ki], "mentions")
                    .unwrap();
                edges += 1;
            }
        }
    }
    let expr = parse_expr("?pub/mentions/?kw", g.consts_mut()).unwrap();
    // Counting workload: co-mentions (pub →kw→ pub, length-2 paths),
    // a heavier DP than the 1-edge incidence expression.
    let co_expr = parse_expr("mentions/mentions^-", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let ev = Evaluator::new_governed(&view, &expr, &Governor::unlimited())?;

    // Every limit live, none reached: an hour, and caps far above what
    // the workload needs.
    let budget = Budget::unlimited()
        .with_deadline(Duration::from_secs(3600))
        .with_max_steps(1 << 50)
        .with_max_results(1 << 40)
        .with_max_memory(1 << 40);

    // The graph query really is the Figure 1 recount, and the governed
    // answers match the oracles under either governor.
    let pairs = ev.pairs_governed(&Governor::unlimited())?;
    assert!(!pairs.is_partial());
    assert_eq!(
        pairs.value.len(),
        incidence,
        "pairs must equal the Figure 1 keyword–publication incidence"
    );
    assert_eq!(pairs.value, ev.pairs_sequential(), "kernel diverged");
    let budgeted = ev.pairs_governed(&Governor::new(&budget))?;
    assert!(!budgeted.is_partial());
    assert_eq!(
        budgeted.value, pairs.value,
        "a live budget changed the answer"
    );
    let starts = ev.matching_starts_governed(&Governor::new(&budget))?;
    assert_eq!(starts.value, ev.matching_starts_sequential());

    let k = 2;
    let count = |b: &Budget| count_paths_governed(&view, &co_expr, k, b, CancelToken::new());
    let exact = match count(&Budget::unlimited())?.value {
        CountOutcome::Exact(c) => c,
        other => panic!("unlimited count degraded to {other}"),
    };
    assert_eq!(
        exact,
        count_paths_naive(&view, &co_expr, k),
        "exact count diverged from the brute-force oracle"
    );
    assert_eq!(count(&budget)?.value, CountOutcome::Exact(exact));

    let reps = 9;
    let mut rows = Vec::new();

    let time_pairs = |b: &Budget| {
        best_secs(
            || {
                let res = ev.pairs_governed(&Governor::new(b));
                std::hint::black_box(res.map_or(0, |r| r.value.len()));
            },
            reps,
        )
    };
    rows.push((
        "pairs",
        time_pairs(&Budget::unlimited()),
        time_pairs(&budget),
    ));

    let time_starts = |b: &Budget| {
        best_secs(
            || {
                let res = ev.matching_starts_governed(&Governor::new(b));
                std::hint::black_box(res.map_or(0, |r| r.value.len()));
            },
            reps,
        )
    };
    rows.push((
        "matching_starts",
        time_starts(&Budget::unlimited()),
        time_starts(&budget),
    ));

    // A single count runs in single-digit milliseconds — batch it above
    // the timer noise floor.
    let batch = 10;
    let time_count = |b: &Budget| {
        best_secs(
            || {
                for _ in 0..batch {
                    std::hint::black_box(count(b).map(|r| r.value).ok());
                }
            },
            reps,
        )
    };
    rows.push((
        "count_exact",
        time_count(&Budget::unlimited()),
        time_count(&budget),
    ));

    println!("{{");
    println!(
        "  \"workload\": {{\"corpus\": \"figure1\", \"publications\": {}, \"nodes\": {}, \"mentions_edges\": {}, \"incidence_pairs\": {incidence}, \"comention_count_k{k}\": {exact}}},",
        corpus.len(),
        g.node_count(),
        edges
    );
    println!("  \"expr\": \"?pub/mentions/?kw\",");
    println!("  \"count_expr\": \"mentions/mentions^-\",");
    println!("  \"results\": [");
    let lines: Vec<String> = rows
        .iter()
        .map(|(op, t0, t1)| {
            format!(
                "    {{\"op\": \"{op}\", \"unlimited_seconds\": {t0:.6}, \"budgeted_seconds\": {t1:.6}, \"overhead_pct\": {:.2}}}",
                overhead_pct(*t0, *t1)
            )
        })
        .collect();
    println!("{}", lines.join(",\n"));
    println!("  ]");
    println!("}}");
    Ok(())
}
