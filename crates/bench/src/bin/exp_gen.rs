//! Experiment `exp_gen` (E5) — uniform generation of paths.
//!
//! Demonstrates the preprocessing/generation split of §4.1: one-time
//! data-structure construction, then cheap repeated sampling; validates
//! uniformity with a chi-square statistic against the fully enumerated
//! answer set, for both the exact sampler and the pool-based approximate
//! sampler.

use kgq_bench::{fmt_duration, print_table, timed};
use kgq_core::{
    parse_expr, ApproxCounter, ApproxParams, LabeledView, Path, PathEnumerator, UniformSampler,
};
use kgq_graph::generate::gnm_labeled;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn chi_square(freq: &HashMap<Path, usize>, categories: usize, draws: usize) -> f64 {
    let expected = draws as f64 / categories as f64;
    let observed_sum: f64 = freq
        .values()
        .map(|&o| {
            let d = o as f64 - expected;
            d * d / expected
        })
        .sum();
    // Categories never drawn still contribute (0 - e)² / e.
    let missing = categories - freq.len();
    observed_sum + missing as f64 * expected
}

fn main() {
    let mut g = gnm_labeled(12, 26, &["a", "b"], &["p", "q"], 9);
    let expr = parse_expr("(p+q)*", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let k = 3;
    let answers: Vec<Path> = PathEnumerator::new(&view, &expr, k).collect();
    let c = answers.len();
    println!("G(12,26), r=(p+q)*, k={k}: {c} answers");
    let draws = 300 * c;

    let mut rows = Vec::new();

    // Exact sampler.
    let (sampler, prep) = timed(|| UniformSampler::new(&view, &expr, k).unwrap());
    let mut rng = StdRng::seed_from_u64(1);
    let mut freq: HashMap<Path, usize> = HashMap::new();
    let (_, gen_time) = timed(|| {
        for _ in 0..draws {
            let p = sampler.sample(&mut rng).expect("non-empty");
            *freq.entry(p).or_insert(0) += 1;
        }
    });
    for p in freq.keys() {
        assert!(answers.contains(p), "invalid sample");
    }
    let chi2 = chi_square(&freq, c, draws);
    rows.push(vec![
        "exact (DFA-DP)".to_owned(),
        fmt_duration(prep),
        fmt_duration(gen_time / draws as u32),
        format!("{}/{}", freq.len(), c),
        format!("{chi2:.1}"),
        format!("{:.1}", c as f64 - 1.0),
    ]);

    // Approximate sampler (pool-based, no determinization).
    let params = ApproxParams {
        epsilon: 0.2,
        seed: 5,
        pool_cap: 512,
        ..ApproxParams::default()
    };
    let (counter, prep) = timed(|| ApproxCounter::build(&view, &expr, k, &params));
    let mut rng = StdRng::seed_from_u64(2);
    let mut freq: HashMap<Path, usize> = HashMap::new();
    let (_, gen_time) = timed(|| {
        for _ in 0..draws {
            if let Some(p) = counter.sample(&mut rng) {
                *freq.entry(p).or_insert(0) += 1;
            }
        }
    });
    for p in freq.keys() {
        assert!(answers.contains(p), "invalid approx sample");
    }
    let chi2 = chi_square(&freq, c, draws);
    rows.push(vec![
        "approx (ACJR pools)".to_owned(),
        fmt_duration(prep),
        fmt_duration(gen_time / draws as u32),
        format!("{}/{}", freq.len(), c),
        format!("{chi2:.1}"),
        format!("{:.1}", c as f64 - 1.0),
    ]);

    print_table(
        &format!("Gen(G, r, k): preprocessing + {draws} draws"),
        &[
            "sampler",
            "preprocess",
            "per-sample",
            "coverage",
            "χ²",
            "E[χ²] if uniform",
        ],
        &rows,
    );
    println!(
        "\nexact sampler χ² should sit near its expectation; the approximate \
         sampler trades uniformity (bounded by pool bias) for avoiding \
         determinization."
    );
}
