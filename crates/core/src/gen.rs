//! Uniform generation of paths — the problem `Gen(G, r, k)` of §4.1.
//!
//! "The algorithm constructs … a data structure, which can be repeatedly
//! used in the generation phase to produce paths `p ∈ ⟦r⟧` of length `k`
//! with uniform distribution."
//!
//! [`UniformSampler`] is the *exact* realization of that interface: the
//! preprocessing phase determinizes the product and tabulates
//! `f[j][s] = #` accepting completions of length `j` from det state `s`;
//! the generation phase walks the automaton sampling each transition with
//! probability proportional to the number of completions behind it. The
//! resulting distribution over answers is exactly uniform. (Preprocessing
//! inherits the worst-case exponential determinization; the polynomial
//! alternative with approximate uniformity is [`crate::approx`].)

use crate::automata::Nfa;
use crate::count::CountError;
use crate::expr::PathExpr;
use crate::model::PathGraph;
use crate::path::Path;
use crate::product::DetProduct;
use kgq_graph::NodeId;
use rand::Rng;

/// Exact uniform sampler over the answers of `(G, r, k)`.
pub struct UniformSampler {
    det: DetProduct,
    k: usize,
    /// `f[j][s]` — number of accepting words completing from `s` with
    /// exactly `j` more edge symbols.
    completions: Vec<Vec<u128>>,
    /// Initial (node, det state, f[k]) triples with nonzero completions.
    roots: Vec<(NodeId, u32, u128)>,
    total: u128,
}

impl UniformSampler {
    /// Preprocessing phase: builds the det product and the completion
    /// table for answers of length exactly `k`.
    pub fn new<G: PathGraph>(g: &G, expr: &PathExpr, k: usize) -> Result<Self, CountError> {
        let nfa = Nfa::compile(expr);
        let det = DetProduct::build(g, &nfa);
        Self::from_det(det, k)
    }

    /// Preprocessing from an existing det product.
    pub fn from_det(det: DetProduct, k: usize) -> Result<Self, CountError> {
        let m = det.state_count();
        let mut completions = vec![vec![0u128; m]; k + 1];
        for s in 0..m {
            completions[0][s] = u128::from(det.is_accepting(s as u32));
        }
        for j in 1..=k {
            for s in 0..m {
                let mut sum: u128 = 0;
                for &(_, s2) in det.out(s as u32) {
                    sum = sum
                        .checked_add(completions[j - 1][s2 as usize])
                        .ok_or(CountError::Overflow)?;
                }
                completions[j][s] = sum;
            }
        }
        let mut roots = Vec::new();
        let mut total: u128 = 0;
        for (v, slot) in det.initial_slots().iter().enumerate() {
            if let Some(s) = slot {
                let f = completions[k][*s as usize];
                if f > 0 {
                    roots.push((NodeId(v as u32), *s, f));
                    total = total.checked_add(f).ok_or(CountError::Overflow)?;
                }
            }
        }
        Ok(UniformSampler {
            det,
            k,
            completions,
            roots,
            total,
        })
    }

    /// Total number of answers (`Count(G, r, k)` — free byproduct).
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Generation phase: draws one path uniformly at random among all
    /// answers. Returns `None` when the answer set is empty.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<Path> {
        if self.total == 0 {
            return None;
        }
        // Choose a root proportionally to its completion count.
        let mut ticket = rng.gen_range(0..self.total);
        let (start, mut state) = {
            let mut chosen = None;
            for &(v, s, f) in &self.roots {
                if ticket < f {
                    chosen = Some((v, s));
                    break;
                }
                ticket -= f;
            }
            chosen.expect("total is the sum of root weights")
        };
        let mut edges = Vec::with_capacity(self.k);
        for j in (1..=self.k).rev() {
            let transitions = self.det.out(state);
            let weight_of = |s2: u32| -> u128 { self.completions[j - 1][s2 as usize] };
            let total_here: u128 = transitions.iter().map(|&(_, s2)| weight_of(s2)).sum();
            debug_assert!(total_here > 0);
            let mut t = rng.gen_range(0..total_here);
            let mut chosen = None;
            for &(e, s2) in transitions {
                let w = weight_of(s2);
                if t < w {
                    chosen = Some((e, s2));
                    break;
                }
                t -= w;
            }
            let (e, s2) = chosen.expect("weights sum to total_here");
            edges.push(e);
            state = s2;
        }
        Some(Path { start, edges })
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
    use kgq_graph::generate::gnm_labeled;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn total_matches_exact_count() {
        let mut g = gnm_labeled(12, 30, &["a", "b"], &["p", "q"], 5);
        let e = parse_expr("(p+q)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        for k in 0..=4 {
            let sampler = UniformSampler::new(&view, &e, k).unwrap();
            assert_eq!(
                sampler.total(),
                ExactCounter::new(&view, &e).count(k).unwrap()
            );
        }
    }

    #[test]
    fn samples_are_valid_answers() {
        let mut g = figure2_labeled();
        let e = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let sampler = UniformSampler::new(&view, &e, 2).unwrap();
        let answers = PathEnumerator::new(&view, &e, 2).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let p = sampler.sample(&mut rng).unwrap();
            assert!(answers.contains(&p));
        }
    }

    #[test]
    fn empty_answer_set_yields_none() {
        let mut g = figure2_labeled();
        let e = parse_expr("ghost_label", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let sampler = UniformSampler::new(&view, &e, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(sampler.sample(&mut rng).is_none());
        assert_eq!(sampler.total(), 0);
    }

    #[test]
    fn distribution_is_uniform_chi_square() {
        // Draw many samples and check a chi-square statistic against the
        // uniform hypothesis. With c answer categories the statistic has
        // (c-1) degrees of freedom; we use a loose 5x-mean bound that a
        // correct sampler passes with overwhelming probability.
        let mut g = gnm_labeled(10, 22, &["a", "b"], &["p", "q"], 9);
        let e = parse_expr("(p+q)*", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let k = 3;
        let answers = PathEnumerator::new(&view, &e, k).collect::<Vec<_>>();
        let c = answers.len();
        assert!(c >= 5, "want a few categories, got {c}");
        let sampler = UniformSampler::new(&view, &e, k).unwrap();
        let draws = 200 * c;
        let mut rng = StdRng::seed_from_u64(7);
        let mut freq: HashMap<crate::path::Path, usize> = HashMap::new();
        for _ in 0..draws {
            let p = sampler.sample(&mut rng).unwrap();
            *freq.entry(p).or_insert(0) += 1;
        }
        // Every answer must appear (coverage).
        assert_eq!(freq.len(), c, "some answers never sampled");
        let expected = draws as f64 / c as f64;
        let chi2: f64 = freq
            .values()
            .map(|&o| {
                let d = o as f64 - expected;
                d * d / expected
            })
            .sum();
        // E[chi2] = c - 1; allow a wide margin.
        assert!(
            chi2 < 5.0 * (c as f64 - 1.0),
            "chi2 = {chi2:.1} too large for {c} categories"
        );
    }

    #[test]
    fn zero_length_sampling_picks_matching_nodes_uniformly() {
        let mut g = figure2_labeled();
        let e = parse_expr("?person", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let sampler = UniformSampler::new(&view, &e, 0).unwrap();
        assert_eq!(sampler.total(), 3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let p = sampler.sample(&mut rng).unwrap();
            assert!(p.is_empty());
            seen.insert(p.start);
        }
        assert_eq!(seen.len(), 3);
    }
}
