//! Property-based determinism tests for the parallel evaluation paths:
//! on random ER and BA graphs, every parallel scan must return exactly
//! the result of its sequential reference implementation — byte for
//! byte, at every thread count — and a warm query-cache hit must be
//! indistinguishable from a cold evaluation.

use kgq_core::cache::QueryCache;
use kgq_core::count::{count_paths_naive, ExactCounter};
use kgq_core::govern::Governor;
use kgq_core::model::LabeledView;
use kgq_core::parallel::set_threads;
use kgq_core::parser::parse_expr;
use kgq_graph::generate::{barabasi_albert, gnm_labeled};
use kgq_graph::LabeledGraph;
use proptest::prelude::*;

/// Compiles `expr` over `g` under an unlimited governor.
fn compile<G: kgq_core::model::PathGraph>(g: &G, expr: &kgq_core::PathExpr) -> kgq_core::Evaluator {
    kgq_core::Evaluator::new_governed(g, expr, &kgq_core::Governor::unlimited()).unwrap()
}

/// `pairs_governed` under an unlimited governor.
fn pairs(ev: &kgq_core::Evaluator) -> Vec<(kgq_graph::NodeId, kgq_graph::NodeId)> {
    let res = ev.pairs_governed(&kgq_core::Governor::unlimited()).unwrap();
    assert!(!res.is_partial());
    res.value
}

/// `matching_starts_governed` under an unlimited governor.
fn starts(ev: &kgq_core::Evaluator) -> Vec<kgq_graph::NodeId> {
    let res = ev
        .matching_starts_governed(&kgq_core::Governor::unlimited())
        .unwrap();
    assert!(!res.is_partial());
    res.value
}

const ER_EXPRS: [&str; 4] = ["(p+q)*", "p/q^-", "?a/(p)*", "(p/q)*+q^-"];
const BA_EXPRS: [&str; 3] = ["(link)*", "link/link^-", "?v/(link+link^-)*"];

#[derive(Clone, Debug)]
enum Spec {
    Er {
        n: usize,
        m: usize,
        seed: u64,
        expr: usize,
    },
    Ba {
        n: usize,
        seed: u64,
        expr: usize,
    },
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    prop_oneof![
        (3usize..14, 2usize..30, 0u64..1000, 0..ER_EXPRS.len())
            .prop_map(|(n, m, seed, expr)| Spec::Er { n, m, seed, expr }),
        (4usize..14, 0u64..1000, 0..BA_EXPRS.len()).prop_map(|(n, seed, expr)| Spec::Ba {
            n,
            seed,
            expr
        }),
    ]
}

fn build(spec: &Spec) -> (LabeledGraph, kgq_core::PathExpr) {
    match *spec {
        Spec::Er { n, m, seed, expr } => {
            let mut g = gnm_labeled(n, m, &["a", "b"], &["p", "q"], seed);
            let e = parse_expr(ER_EXPRS[expr], g.consts_mut()).unwrap();
            (g, e)
        }
        Spec::Ba { n, seed, expr } => {
            let mut g = barabasi_albert(n, 2, "v", "link", seed);
            let e = parse_expr(BA_EXPRS[expr], g.consts_mut()).unwrap();
            (g, e)
        }
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_pairs_equal_sequential_at_every_thread_count(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let ev = compile(&view, &expr);
        let reference = ev.pairs_sequential();
        for &t in &THREAD_COUNTS {
            set_threads(t);
            prop_assert_eq!(&pairs(&ev), &reference, "threads={}", t);
        }
    }

    #[test]
    fn parallel_matching_starts_equal_sequential(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let ev = compile(&view, &expr);
        let reference = ev.matching_starts_sequential();
        for &t in &THREAD_COUNTS {
            set_threads(t);
            prop_assert_eq!(&starts(&ev), &reference, "threads={}", t);
        }
    }

    #[test]
    fn naive_count_is_thread_count_invariant(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let k = 3;
        let exact = ExactCounter::new(&view, &expr).count(k).unwrap();
        for &t in &THREAD_COUNTS {
            set_threads(t);
            prop_assert_eq!(count_paths_naive(&view, &expr, k), exact, "threads={}", t);
        }
    }

    #[test]
    fn bidirectional_check_equals_forward_reference_at_every_thread_count(
        spec in spec_strategy(),
    ) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let ev = compile(&view, &expr);
        for &t in &THREAD_COUNTS {
            set_threads(t);
            for a in g.base().nodes() {
                let reachable = ev.ends_from(a);
                for b in g.base().nodes() {
                    prop_assert_eq!(
                        ev.check(a, b),
                        reachable.binary_search(&b).is_ok(),
                        "threads={} {:?}->{:?}", t, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn bidirectional_witness_length_matches_sequential(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let ev = compile(&view, &expr);
        for &t in &THREAD_COUNTS {
            set_threads(t);
            for a in g.base().nodes() {
                for b in g.base().nodes() {
                    let bidi = ev.shortest_witness(a, b);
                    let seq = ev.shortest_witness_sequential(a, b);
                    // Several shortest paths may exist, so compare
                    // existence and minimal length, not the hops.
                    prop_assert_eq!(
                        bidi.as_ref().map(|p| p.edges.len()),
                        seq.as_ref().map(|p| p.edges.len()),
                        "threads={} {:?}->{:?}", t, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn cache_hit_is_byte_identical_to_cold_evaluation(spec in spec_strategy()) {
        let (g, expr) = build(&spec);
        let view = LabeledView::new(&g);
        let cold = compile(&view, &expr);
        let (cold_pairs, cold_starts) = (cold.pairs_sequential(), cold.matching_starts_sequential());
        let cache = QueryCache::new();
        let unlimited = Governor::unlimited();
        cache.get_or_compile_governed(&view, 0, &expr, &unlimited).unwrap();
        let warm = cache.get_or_compile_governed(&view, 0, &expr, &unlimited).unwrap();
        prop_assert_eq!(cache.hits(), 1);
        prop_assert_eq!(pairs(&warm.evaluator()), cold_pairs);
        prop_assert_eq!(starts(&warm.evaluator()), cold_starts);
    }
}
