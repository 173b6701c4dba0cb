//! Property-based tests for the scale path (`kgq_core::scale`): on
//! arbitrary random graphs and label-only expressions, the sharded
//! 64-lane sweep must return byte-identical output over raw and packed
//! adjacency at every chunk count, and agree (as a set) with the
//! product-automaton evaluator.

use kgq_core::eval::Evaluator;
use kgq_core::govern::Governor;
use kgq_core::model::LabeledView;
use kgq_core::parser::parse_expr;
use kgq_core::scale::{LabelDfa, PackedAdjacency, RawAdjacency, ScaleEvaluator};
use kgq_graph::{LabelIndex, LabeledGraph, NodeId, PackedLabelIndex};
use proptest::prelude::*;

const EDGE_LABELS: [&str; 3] = ["a", "b", "c"];

/// Label-only expressions over the three-letter alphabet, covering
/// concatenation, alternation, star and the inverse step.
const EXPRS: [&str; 6] = ["a", "a/b", "(a+b)*/c", "a/b^-", "c*", "(a+b^-)/c*"];

#[derive(Clone, Debug)]
struct Spec {
    n: usize,
    edges: Vec<(usize, usize, usize)>,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (2usize..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0..EDGE_LABELS.len()), 0..100)
            .prop_map(move |edges| Spec { n, edges })
    })
}

fn build(spec: &Spec) -> LabeledGraph {
    let mut g = LabeledGraph::new();
    let nodes: Vec<NodeId> = (0..spec.n)
        .map(|i| g.add_node(&format!("n{i}"), "v").unwrap())
        .collect();
    for (i, &(s, d, l)) in spec.edges.iter().enumerate() {
        g.add_edge(&format!("e{i}"), nodes[s], nodes[d], EDGE_LABELS[l])
            .unwrap();
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Raw and packed adjacency produce byte-identical `pairs()` and
    /// `matching_starts()` at chunk counts 1, 2 and 4, and the pair
    /// set equals the product-automaton oracle.
    #[test]
    fn scale_sweep_is_deterministic_and_correct(
        spec in spec_strategy(),
        expr_i in 0usize..EXPRS.len(),
    ) {
        let mut g = build(&spec);
        let idx = LabelIndex::build(&g);
        let packed = PackedLabelIndex::from_labeled(&g).unwrap();
        let n = spec.n as u32;
        let src = EXPRS[expr_i];
        let expr = parse_expr(src, g.consts_mut()).unwrap();
        let dfa = LabelDfa::compile(&expr, |s| idx.dense_id(s)).unwrap();

        let raw = RawAdjacency(&idx);
        let pview = packed.view();
        let pk = PackedAdjacency(pview);
        let ev_raw = ScaleEvaluator::new(&raw, dfa.clone());
        let ev_pk = ScaleEvaluator::new(&pk, dfa);

        let base_pairs = ev_raw.pairs(0..n, 1);
        let base_starts = ev_raw.matching_starts(0..n, 1);
        for chunks in [1usize, 2, 4] {
            prop_assert_eq!(
                &base_pairs, &ev_raw.pairs(0..n, chunks),
                "raw pairs chunks={} expr={}", chunks, src);
            prop_assert_eq!(
                &base_pairs, &ev_pk.pairs(0..n, chunks),
                "packed pairs chunks={} expr={}", chunks, src);
            prop_assert_eq!(
                &base_starts, &ev_raw.matching_starts(0..n, chunks),
                "raw starts chunks={} expr={}", chunks, src);
            prop_assert_eq!(
                &base_starts, &ev_pk.matching_starts(0..n, chunks),
                "packed starts chunks={} expr={}", chunks, src);
        }

        // Oracle: the product-automaton evaluator over the same graph.
        let view = LabeledView::new(&g);
        let mut oracle: Vec<(u32, u32)> = Evaluator::new_governed(&view, &expr, &Governor::unlimited())
            .unwrap()
            .pairs_sequential()
            .into_iter()
            .map(|(s, t)| (s.0, t.0))
            .collect();
        oracle.sort_unstable();
        oracle.dedup();
        let mut got = base_pairs.clone();
        got.sort_unstable();
        got.dedup();
        prop_assert_eq!(got, oracle, "oracle parity on {}", src);

        // matching_starts is the pair sources, deduped — and sorted,
        // because batches ascend and lanes ascend within a batch.
        let mut starts_from_pairs: Vec<u32> =
            base_pairs.iter().map(|&(s, _)| s).collect();
        starts_from_pairs.sort_unstable();
        starts_from_pairs.dedup();
        prop_assert_eq!(base_starts, starts_from_pairs, "starts vs pairs on {}", src);
    }

    /// A partial window of sources equals the matching slice of the
    /// full scan: sharding never changes per-source answers.
    #[test]
    fn source_windows_agree_with_full_scans(
        spec in spec_strategy(),
        expr_i in 0usize..EXPRS.len(),
        lo in 0u32..20,
        span in 1u32..20,
    ) {
        let mut g = build(&spec);
        let idx = LabelIndex::build(&g);
        let n = spec.n as u32;
        let expr = parse_expr(EXPRS[expr_i], g.consts_mut()).unwrap();
        let dfa = LabelDfa::compile(&expr, |s| idx.dense_id(s)).unwrap();
        let raw = RawAdjacency(&idx);
        let ev = ScaleEvaluator::new(&raw, dfa);
        let lo = lo.min(n);
        let hi = lo.saturating_add(span).min(n);
        let window = ev.pairs(lo..hi, 2);
        let full = ev.pairs(0..n, 1);
        let expect: Vec<(u32, u32)> = full
            .into_iter()
            .filter(|&(s, _)| s >= lo && s < hi)
            .collect();
        prop_assert_eq!(window, expect);
    }
}
