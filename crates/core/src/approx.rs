//! FPRAS-style approximate counting and approximately-uniform generation
//! of paths (§4.1, results of Arenas–Croquevielle–Jayaram–Riveros \[9, 10\]).
//!
//! The paper presents a randomized algorithm `𝒜(G, r, k, ε)` whose output
//! is, with very high probability, within relative error `ε` of
//! `Count(G, r, k)`, running in time polynomial in `|G|`, `|r|`, `k` and
//! `1/ε` — crucially *without* the exponential determinization that exact
//! counting pays.
//!
//! This module implements the layered sample-pool scheme in the spirit of
//! that construction. Let `L_i(s)` be the set of words (paths) of length
//! `i` whose NFA-product run reaches state `s`. Then
//!
//! ```text
//! L_i(s') = ⋃ { L_{i-1}(s) · e  :  (s, e) a predecessor of s' }
//! ```
//!
//! Each layer's set sizes are estimated with the Karp–Luby union
//! estimator: sample a predecessor `(s, e)` with probability proportional
//! to the estimate `N̂(s, i-1)`, draw a word from the sample *pool* of
//! `(s, i-1)`, extend it with `e`, and accept iff the chosen predecessor
//! is the *canonical* (first) one containing the word — membership being
//! decidable by running the product. Accepted samples are (approximately)
//! uniform over `L_i(s')` and seed the next layer's pools; the acceptance
//! rate converts the sum of predecessor estimates into a union estimate.
//! The final answer applies the same estimator to the union of `L_k` over
//! accepting states.
//!
//! The constants (trial counts, pool sizes) follow practical rather than
//! worst-case theory values; accuracy is validated against the exact
//! counter in the tests and in experiment E4.

use crate::automata::Nfa;
use crate::expr::PathExpr;
use crate::govern::{fault_point, EvalError, Governor, Ticker};
use crate::model::PathGraph;
use crate::path::Path;
use crate::product::{PState, Product};
use kgq_graph::{EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning parameters for the approximation scheme.
#[derive(Clone, Debug)]
pub struct ApproxParams {
    /// Target relative error `ε ∈ (0, 1)`.
    pub epsilon: f64,
    /// Karp–Luby trials per (state, layer); default `⌈48 / ε²⌉`, clamped
    /// to `[256, 40_000]`.
    pub trials: Option<usize>,
    /// Maximum number of samples kept per (state, layer) pool.
    pub pool_cap: usize,
    /// RNG seed (the algorithm is deterministic given the seed).
    pub seed: u64,
}

impl Default for ApproxParams {
    fn default() -> Self {
        ApproxParams {
            epsilon: 0.2,
            trials: None,
            pool_cap: 192,
            seed: 0xAC78,
        }
    }
}

impl ApproxParams {
    fn effective_trials(&self) -> usize {
        match self.trials {
            Some(t) => t.max(16),
            None => ((48.0 / (self.epsilon * self.epsilon)).ceil() as usize).clamp(256, 40_000),
        }
    }
}

#[derive(Clone, Debug)]
struct Sample {
    word: Path,
    /// δ̂(word): all product states reached by the word, sorted.
    reached: Vec<PState>,
}

/// Preprocessed approximate counter + sampler for `(G, r, k)`.
pub struct ApproxCounter {
    product: Product,
    k: usize,
    /// `est[i][s] ≈ |L_i(s)|`.
    est: Vec<Vec<f64>>,
    /// Sample pools per layer and state.
    pools: Vec<Vec<Vec<Sample>>>,
    estimate: f64,
    trials: usize,
}

fn step_reached(product: &Product, reached: &[PState], e: EdgeId) -> Vec<PState> {
    let mut next: Vec<PState> = Vec::new();
    for &s in reached {
        let list = product.out(s);
        let lo = list.partition_point(|&(ee, _)| ee.0 < e.0);
        for &(ee, s2) in &list[lo..] {
            if ee != e {
                break;
            }
            next.push(s2);
        }
    }
    next.sort_unstable();
    next.dedup();
    next
}

fn weighted_pick<R: Rng>(rng: &mut R, weights: &[f64], total: f64) -> usize {
    let mut t = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if t < w {
            return i;
        }
        t -= w;
    }
    weights.len() - 1
}

impl ApproxCounter {
    /// Runs the preprocessing phase (the whole layered estimation).
    pub fn build<G: PathGraph>(
        g: &G,
        expr: &PathExpr,
        k: usize,
        params: &ApproxParams,
    ) -> ApproxCounter {
        match ApproxCounter::build_inner(g, expr, k, params, None) {
            Ok(c) => c,
            Err(e) => unreachable!("ungoverned approx build failed: {e}"),
        }
    }

    /// Governed [`ApproxCounter::build`]: each Karp–Luby trial charges a
    /// step and the sample pools charge memory, so the preprocessing
    /// phase respects deadlines and budgets like every other algorithm.
    pub fn build_governed<G: PathGraph>(
        g: &G,
        expr: &PathExpr,
        k: usize,
        params: &ApproxParams,
        gov: &Governor,
    ) -> Result<ApproxCounter, EvalError> {
        ApproxCounter::build_inner(g, expr, k, params, Some(gov))
    }

    fn build_inner<G: PathGraph>(
        g: &G,
        expr: &PathExpr,
        k: usize,
        params: &ApproxParams,
        gov: Option<&Governor>,
    ) -> Result<ApproxCounter, EvalError> {
        assert!(
            params.epsilon > 0.0 && params.epsilon < 1.0,
            "epsilon must be in (0,1)"
        );
        fault_point!("approx::build");
        let mut ticker = Ticker::maybe(gov);
        let nfa = Nfa::compile(expr);
        let product = match gov {
            Some(gov) => Product::build_governed(g, &nfa, gov)?,
            None => Product::build(g, &nfa),
        };
        let m = product.state_count();
        let trials = params.effective_trials();
        let mut rng = StdRng::seed_from_u64(params.seed);

        let mut est: Vec<Vec<f64>> = Vec::with_capacity(k + 1);
        let mut pools: Vec<Vec<Vec<Sample>>> = Vec::with_capacity(k + 1);

        // Layer 0: L_0((n, q)) = {[n]} for initial states.
        let mut e0 = vec![0.0; m];
        let mut p0: Vec<Vec<Sample>> = vec![Vec::new(); m];
        for v in 0..product.node_count() {
            let list = product.initial(NodeId(v as u32));
            if list.is_empty() {
                continue;
            }
            let mut reached = list.to_vec();
            reached.sort_unstable();
            for &s in list {
                e0[s as usize] = 1.0;
                p0[s as usize].push(Sample {
                    word: Path::trivial(NodeId(v as u32)),
                    reached: reached.clone(),
                });
            }
        }
        est.push(e0);
        pools.push(p0);

        for i in 1..=k {
            let prev_est = &est[i - 1];
            let prev_pools = &pools[i - 1];
            let mut cur_est = vec![0.0; m];
            let mut cur_pools: Vec<Vec<Sample>> = vec![Vec::new(); m];
            if let Some(gov) = gov {
                // One estimate row plus pool headers per layer; samples
                // are charged as they are accepted below.
                gov.charge_memory(32 * m as u64)?;
            }
            for s_prime in 0..m {
                let preds = product.preds(s_prime as PState);
                if preds.is_empty() {
                    continue;
                }
                let weights: Vec<f64> = preds.iter().map(|&(s, _)| prev_est[s as usize]).collect();
                let total: f64 = weights.iter().sum();
                if total <= 0.0 {
                    continue;
                }
                let mut accepted = 0usize;
                for _ in 0..trials {
                    ticker.tick()?;
                    let j = weighted_pick(&mut rng, &weights, total);
                    let (s, e) = preds[j];
                    let pool = &prev_pools[s as usize];
                    if pool.is_empty() {
                        continue; // failed trial
                    }
                    let sample = &pool[rng.gen_range(0..pool.len())];
                    // Canonical predecessor: first (s_c, e_c) with
                    // e_c == e and s_c ∈ δ̂(word).
                    let canonical = preds
                        .iter()
                        .position(|&(sc, ec)| ec == e && sample.reached.binary_search(&sc).is_ok());
                    if canonical != Some(j) {
                        continue;
                    }
                    accepted += 1;
                    if cur_pools[s_prime].len() < params.pool_cap {
                        let mut word = sample.word.clone();
                        word.edges.push(e);
                        let reached = step_reached(&product, &sample.reached, e);
                        debug_assert!(reached.binary_search(&(s_prime as PState)).is_ok());
                        if let Some(gov) = gov {
                            gov.charge_memory(32 + 8 * (word.edges.len() + reached.len()) as u64)?;
                        }
                        cur_pools[s_prime].push(Sample { word, reached });
                    }
                }
                cur_est[s_prime] = total * accepted as f64 / trials as f64;
            }
            est.push(cur_est);
            pools.push(cur_pools);
        }

        // Final union over accepting states at layer k.
        let accepting: Vec<usize> = (0..m)
            .filter(|&s| product.is_accepting(s as PState))
            .collect();
        let weights: Vec<f64> = accepting.iter().map(|&s| est[k][s]).collect();
        let total: f64 = weights.iter().sum();
        let estimate = if total <= 0.0 {
            0.0
        } else {
            let mut accepted = 0usize;
            for _ in 0..trials {
                ticker.tick()?;
                let j = weighted_pick(&mut rng, &weights, total);
                let s = accepting[j];
                let pool = &pools[k][s];
                if pool.is_empty() {
                    continue;
                }
                let sample = &pool[rng.gen_range(0..pool.len())];
                let canonical = accepting
                    .iter()
                    .position(|&sc| sample.reached.binary_search(&(sc as PState)).is_ok());
                if canonical == Some(j) {
                    accepted += 1;
                }
            }
            total * accepted as f64 / trials as f64
        };

        ticker.flush()?;
        Ok(ApproxCounter {
            product,
            k,
            est,
            pools,
            estimate,
            trials,
        })
    }

    /// The estimate `𝒜(G, r, k, ε) ≈ Count(G, r, k)`.
    pub fn estimate(&self) -> f64 {
        self.estimate
    }

    /// Number of Karp–Luby trials used per estimate.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The underlying product automaton.
    pub fn product(&self) -> &Product {
        &self.product
    }

    /// Generation phase: draws an approximately-uniform answer of length
    /// `k` from the preprocessed pools. Returns `None` if the answer set
    /// is (estimated) empty or rejection sampling fails repeatedly.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<Path> {
        let m = self.product.state_count();
        let accepting: Vec<usize> = (0..m)
            .filter(|&s| self.product.is_accepting(s as PState))
            .collect();
        let weights: Vec<f64> = accepting.iter().map(|&s| self.est[self.k][s]).collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        for _ in 0..512 {
            let j = weighted_pick(rng, &weights, total);
            let s = accepting[j];
            let pool = &self.pools[self.k][s];
            if pool.is_empty() {
                continue;
            }
            let sample = &pool[rng.gen_range(0..pool.len())];
            let canonical = accepting
                .iter()
                .position(|&sc| sample.reached.binary_search(&(sc as PState)).is_ok());
            if canonical == Some(j) {
                return Some(sample.word.clone());
            }
        }
        None
    }
}

/// One-shot `𝒜(G, r, k, ε)` — see [`ApproxCounter`].
pub fn approx_count<G: PathGraph>(g: &G, expr: &PathExpr, k: usize, params: &ApproxParams) -> f64 {
    ApproxCounter::build(g, expr, k, params).estimate()
}

/// Governed one-shot estimate with default parameters — the fallback
/// rung used by [`crate::count::count_paths_governed`].
pub fn approx_count_governed<G: PathGraph>(
    g: &G,
    expr: &PathExpr,
    k: usize,
    gov: &Governor,
) -> Result<f64, EvalError> {
    approx_count_governed_with(g, expr, k, &ApproxParams::default(), gov)
}

/// [`approx_count_governed`] with explicit estimator parameters.
pub fn approx_count_governed_with<G: PathGraph>(
    g: &G,
    expr: &PathExpr,
    k: usize,
    params: &ApproxParams,
    gov: &Governor,
) -> Result<f64, EvalError> {
    Ok(ApproxCounter::build_governed(g, expr, k, params, gov)?.estimate())
}

/// Median-of-`rounds` amplification of [`approx_count`].
///
/// The paper states the estimate is within `ε` "with probability at
/// least `1 − (1/2)^100`" — that confidence comes from repeating a
/// constant-confidence estimator independently and taking the median:
/// if each round lands within `ε` with probability `> 1/2 + δ`, the
/// median fails only when half the rounds fail, which decays
/// exponentially in `rounds` (Chernoff). Rounds use seeds
/// `params.seed, params.seed + 1, …` and are therefore independent: they
/// run in parallel when threads are available, and since each round is
/// deterministic in its seed the median never depends on thread count.
pub fn approx_count_amplified<G: PathGraph + Sync>(
    g: &G,
    expr: &PathExpr,
    k: usize,
    params: &ApproxParams,
    rounds: usize,
) -> f64 {
    assert!(rounds >= 1);
    let one_round = |i: usize| {
        let p = ApproxParams {
            seed: params.seed.wrapping_add(i as u64),
            ..params.clone()
        };
        ApproxCounter::build(g, expr, k, &p).estimate()
    };
    let mut estimates: Vec<f64> = if crate::parallel::effective_threads() > 1 && rounds >= 2 {
        use rayon::prelude::*;
        (0..rounds).into_par_iter().map(one_round).collect()
    } else {
        (0..rounds).map(one_round).collect()
    };
    estimates.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = estimates.len() / 2;
    if estimates.len() % 2 == 1 {
        estimates[mid]
    } else {
        (estimates[mid - 1] + estimates[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::ExactCounter;
    use crate::enumerate::PathEnumerator;
    use crate::model::LabeledView;
    use crate::parser::parse_expr;
    use kgq_graph::figures::figure2_labeled;
    use kgq_graph::generate::{gnm_labeled, path_graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn relative_error(est: f64, exact: u128) -> f64 {
        if exact == 0 {
            est.abs()
        } else {
            (est - exact as f64).abs() / exact as f64
        }
    }

    #[test]
    fn estimate_tracks_exact_count_on_random_graphs() {
        let params = ApproxParams {
            epsilon: 0.2,
            seed: 11,
            ..ApproxParams::default()
        };
        for seed in [1u64, 2, 3] {
            let mut g = gnm_labeled(10, 24, &["a", "b"], &["p", "q"], seed);
            let e = parse_expr("(p+q)*", g.consts_mut()).unwrap();
            let view = LabeledView::new(&g);
            for k in [1usize, 3, 5] {
                let exact = ExactCounter::new(&view, &e).count(k).unwrap();
                let est = approx_count(&view, &e, k, &params);
                let err = relative_error(est, exact);
                assert!(
                    err < 0.5,
                    "seed={seed} k={k}: est={est:.1} exact={exact} err={err:.2}"
                );
            }
        }
    }

    #[test]
    fn exact_zero_is_estimated_zero() {
        let mut g = figure2_labeled();
        let e = parse_expr("ghost", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let est = approx_count(&view, &e, 3, &ApproxParams::default());
        assert_eq!(est, 0.0);
    }

    #[test]
    fn unambiguous_case_is_near_exact() {
        // On a simple path with (next)*, every union has a single
        // predecessor, so the estimator is exact up to sampling noise of
        // the acceptance rate (which is 1).
        let mut g = path_graph(8, "v", "next");
        let e = parse_expr("(next)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        for k in 0..=5 {
            let exact = ExactCounter::new(&view, &e).count(k).unwrap() as f64;
            let est = approx_count(&view, &e, k, &ApproxParams::default());
            assert!((est - exact).abs() < 1e-9, "k={k}: est={est} exact={exact}");
        }
    }

    #[test]
    fn ambiguous_expression_not_overcounted() {
        // (a + a)* is maximally ambiguous; the run-counting estimate
        // would be off by 2^k, the union estimator must not be.
        let mut g = path_graph(6, "v", "a");
        let e = parse_expr("(a + a)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let k = 3;
        let exact = ExactCounter::new(&view, &e).count(k).unwrap();
        assert_eq!(exact, 3); // three length-3 subpaths of a 5-edge path
        let est = approx_count(&view, &e, k, &ApproxParams::default());
        assert!(relative_error(est, exact) < 0.35, "est={est}");
    }

    #[test]
    fn samples_are_valid_length_k_answers() {
        let mut g = figure2_labeled();
        let e = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let counter = ApproxCounter::build(&view, &e, 2, &ApproxParams::default());
        let answers = PathEnumerator::new(&view, &e, 2).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..60 {
            let p = counter.sample(&mut rng).expect("non-empty answer set");
            assert!(answers.contains(&p));
            seen.insert(p);
        }
        // Both answers should show up across 60 draws.
        assert_eq!(seen.len(), answers.len());
    }

    #[test]
    fn amplification_beats_worst_single_round() {
        let mut g = path_graph(6, "v", "a");
        let e = parse_expr("(a + a/a)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let k = 4;
        let exact = ExactCounter::new(&view, &e).count(k).unwrap();
        let params = ApproxParams {
            trials: Some(128), // deliberately noisy single rounds
            seed: 100,
            ..ApproxParams::default()
        };
        let singles: Vec<f64> = (0..9u64)
            .map(|i| {
                let p = ApproxParams {
                    seed: params.seed + i,
                    ..params.clone()
                };
                approx_count(&view, &e, k, &p)
            })
            .collect();
        let worst_single = singles
            .iter()
            .map(|est| relative_error(*est, exact))
            .fold(0.0, f64::max);
        let amplified = approx_count_amplified(&view, &e, k, &params, 9);
        let amp_err = relative_error(amplified, exact);
        assert!(
            amp_err <= worst_single + 1e-12,
            "median {amp_err} worse than worst single {worst_single}"
        );
        // Median of 9 equals the middle sorted estimate.
        let mut sorted = singles.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((amplified - sorted[4]).abs() < 1e-12);
    }

    #[test]
    fn more_trials_reduce_error() {
        let mut g = gnm_labeled(10, 26, &["a"], &["p", "q"], 4);
        let e = parse_expr("(p+q/q^-)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let k = 4;
        let exact = ExactCounter::new(&view, &e).count(k).unwrap();
        let mut errs = Vec::new();
        for trials in [64usize, 4096] {
            // Average error over a few seeds for stability.
            let mut total_err = 0.0;
            for seed in 0..5u64 {
                let params = ApproxParams {
                    trials: Some(trials),
                    seed,
                    ..ApproxParams::default()
                };
                total_err += relative_error(approx_count(&view, &e, k, &params), exact);
            }
            errs.push(total_err / 5.0);
        }
        assert!(errs[1] <= errs[0] + 0.05, "error did not shrink: {errs:?}");
    }
}
