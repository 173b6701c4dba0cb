//! Experiment `exp_parallel` — multi-source `pairs()` speedup vs thread
//! count on a ~100k-edge Barabási–Albert graph, emitted as JSON.
//!
//! The parallel scan splits the source-node range into contiguous
//! per-thread chunks and concatenates results in index order, so the
//! output is identical at every thread count (asserted below). Speedups
//! are relative to the sequential reference implementation and bounded
//! by the machine's core count — on a single-core machine every ratio
//! is honestly ~1.0. The same graph and query also time the compiled-query
//! cache: a cold miss (NFA compile + product build) against a warm hit.

use kgq_bench::timed;
use kgq_core::parallel::set_threads;
use kgq_core::{parse_expr, EvalError, Governor, LabeledView, QueryCache};
use kgq_graph::generate::barabasi_albert;
use std::time::Duration;

fn median_secs<F: FnMut() -> usize>(mut f: F, reps: usize) -> f64 {
    let mut times: Vec<Duration> = (0..reps).map(|_| timed(&mut f).1).collect();
    times.sort();
    times[times.len() / 2].as_secs_f64()
}

fn main() -> Result<(), EvalError> {
    let mut g = barabasi_albert(25_004, 4, "v", "link", 7);
    let expr = parse_expr("link/link", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let cache = QueryCache::new();
    let ev = cache
        .get_or_compile_governed(&view, 0, &expr, &Governor::unlimited())?
        .evaluator();
    let reference = ev.pairs_sequential();
    let reps = 3;
    let t_seq = median_secs(|| ev.pairs_sequential().len(), reps);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut entries = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        set_threads(threads);
        let pairs = || ev.pairs_governed(&Governor::unlimited()).map(|r| r.value);
        assert_eq!(pairs()?, reference, "thread count changed the answer");
        let t_par = median_secs(|| pairs().map_or(0, |p| p.len()), reps);
        entries.push(format!(
            "    {{\"threads\": {threads}, \"seconds\": {t_par:.6}, \"speedup\": {:.3}}}",
            t_seq / t_par
        ));
    }
    set_threads(1);

    // Compiled-query cache: a fresh cache compiles on every lookup, a
    // warm one answers every lookup from its single entry.
    let lookup = |cache: &QueryCache| {
        cache
            .get_or_compile_governed(&view, 0, &expr, &Governor::unlimited())
            .map_or(0, |c| c.product().state_count())
    };
    let t_cold = median_secs(|| lookup(&QueryCache::new()), reps);
    let t_warm = median_secs(|| lookup(&cache), reps);
    assert_eq!(cache.misses(), 1, "warm lookups must all hit");

    println!("{{");
    println!(
        "  \"graph\": {{\"model\": \"barabasi_albert\", \"nodes\": {}, \"edges\": {}}},",
        g.node_count(),
        g.edge_count()
    );
    println!("  \"expr\": \"link/link\",");
    println!("  \"pairs\": {},", reference.len());
    println!("  \"machine_cores\": {cores},");
    println!("  \"sequential_seconds\": {t_seq:.6},");
    println!(
        "  \"cache\": {{\"cold_compile_seconds\": {t_cold:.6}, \"warm_hit_seconds\": {t_warm:.6}}},"
    );
    println!("  \"results\": [");
    println!("{}", entries.join(",\n"));
    println!("  ]");
    println!("}}");
    Ok(())
}
