//! Hand-constructed AC-GNNs realizing first-order formulas.
//!
//! Barceló et al. \[16\] prove that every FO² (graded modal logic) node
//! query is computed by some AC-GNN with truncated-ReLU activations.
//! [`psi_network`] makes that constructive for the paper's running query
//!
//! ```text
//! ψ(x) = person(x) ∧ ∃y (rides(x,y) ∧ bus(y) ∧ ∃x (rides(x,y) ∧ infected(x)))
//! ```
//!
//! Input features are one-hot over `[person, infected, bus]`. Layers 1–2
//! compute, at every node, the indicator "I am a bus with at least one
//! infected in-rider" (count, then clamped conjunction); layers 3–4
//! compute "I am a person who out-rides such a bus". The classifier
//! reads the final indicator.

use crate::model::{AcGnn, Dir, Layer, Mat};

/// The input feature vocabulary of [`psi_network`], in order: one-hot
/// over these node labels (use with [`AcGnn::one_hot_features`]).
pub const PSI_VOCAB: [&str; 3] = ["person", "infected", "bus"];

/// Builds the four-layer network computing ψ(x). Use
/// [`AcGnn::one_hot_features`] with [`PSI_VOCAB`] to produce its input.
///
/// The construction alternates *count* layers (truncate an aggregated
/// sum to a 0/1 indicator) and *conjunction* layers (`σ(a + b − 1)`),
/// because a raw sum can overwhelm a conjunction — e.g. a non-person
/// riding two "hot" buses would otherwise classify positive.
pub fn psi_network() -> AcGnn {
    // Input features: [person, infected, bus].
    // Layer 1 (3→4): [person, infected, bus, infrid]
    //   infrid = σ(Σ_{rides,in} infected)   — "some infected rider", clamped.
    let mut w_self1 = Mat::zeros(4, 3);
    w_self1.set(0, 0, 1.0);
    w_self1.set(1, 1, 1.0);
    w_self1.set(2, 2, 1.0);
    let mut w_in1 = Mat::zeros(4, 3);
    w_in1.set(3, 1, 1.0);
    let layer1 = Layer {
        w_self: w_self1,
        w_rel: vec![("rides".to_owned(), Dir::In, w_in1)],
        bias: vec![0.0, 0.0, 0.0, 0.0],
    };

    // Layer 2 (4→2): [person, hot]
    //   hot = σ(bus + infrid − 1)           — conjunction of indicators.
    let mut w_self2 = Mat::zeros(2, 4);
    w_self2.set(0, 0, 1.0); // carry person
    w_self2.set(1, 2, 1.0); // bus
    w_self2.set(1, 3, 1.0); // infrid
    let layer2 = Layer {
        w_self: w_self2,
        w_rel: Vec::new(),
        bias: vec![0.0, -1.0],
    };

    // Layer 3 (2→2): [person, hashot]
    //   hashot = σ(Σ_{rides,out} hot)       — "rides some hot bus", clamped.
    let mut w_self3 = Mat::zeros(2, 2);
    w_self3.set(0, 0, 1.0);
    let mut w_out3 = Mat::zeros(2, 2);
    w_out3.set(1, 1, 1.0);
    let layer3 = Layer {
        w_self: w_self3,
        w_rel: vec![("rides".to_owned(), Dir::Out, w_out3)],
        bias: vec![0.0, 0.0],
    };

    // Layer 4 (2→1): answer = σ(person + hashot − 1).
    let mut w_self4 = Mat::zeros(1, 2);
    w_self4.set(0, 0, 1.0);
    w_self4.set(0, 1, 1.0);
    let layer4 = Layer {
        w_self: w_self4,
        w_rel: Vec::new(),
        bias: vec![-1.0],
    };

    AcGnn {
        layers: vec![layer1, layer2, layer3, layer4],
        cls_weights: vec![1.0],
        cls_bias: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AcGnn;
    use kgq_core::eval::Evaluator;
    use kgq_core::govern::Governor;
    use kgq_core::model::LabeledView;
    use kgq_core::parser::parse_expr;
    use kgq_graph::figures::figure2_labeled;
    use kgq_graph::generate::{contact_network, ContactParams};
    use kgq_graph::LabeledGraph;

    /// Nodes starting a path matching `e`, under an unlimited governor.
    fn starts_of<G: kgq_core::PathGraph>(g: &G, e: &kgq_core::PathExpr) -> Vec<kgq_graph::NodeId> {
        let gov = Governor::unlimited();
        let ev = Evaluator::new_governed(g, e, &gov).unwrap();
        ev.matching_starts_governed(&gov).unwrap().value
    }

    fn run_psi(g: &LabeledGraph) -> Vec<bool> {
        let gnn = psi_network();
        let feats = AcGnn::one_hot_features(g, &PSI_VOCAB);
        gnn.classify(g, &feats)
    }

    #[test]
    fn psi_network_matches_rpq_on_figure2() {
        let mut g = figure2_labeled();
        let cls = run_psi(&g);
        let e = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let expected = starts_of(&view, &e);
        let got: Vec<_> = (0..g.node_count())
            .filter(|&i| cls[i])
            .map(|i| kgq_graph::NodeId(i as u32))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn psi_network_matches_rpq_on_contact_networks() {
        for seed in [1u64, 7, 42] {
            let pg = contact_network(&ContactParams {
                people: 40,
                buses: 4,
                infected_fraction: 0.15,
                seed,
                ..ContactParams::default()
            });
            let mut g = pg.into_labeled();
            let cls = run_psi(&g);
            let e = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
            let view = LabeledView::new(&g);
            let expected: std::collections::HashSet<usize> = starts_of(&view, &e)
                .into_iter()
                .map(|n| n.index())
                .collect();
            for i in 0..g.node_count() {
                assert_eq!(
                    cls[i],
                    expected.contains(&i),
                    "seed={seed} node {}",
                    g.node_name(kgq_graph::NodeId(i as u32))
                );
            }
        }
    }

    #[test]
    fn counting_threshold_is_at_least_one() {
        // A person riding two hot buses still classifies true (truncation
        // keeps the indicator boolean).
        let mut g = LabeledGraph::new();
        let p = g.add_node("p", "person").unwrap();
        let i1 = g.add_node("i1", "infected").unwrap();
        let i2 = g.add_node("i2", "infected").unwrap();
        let b1 = g.add_node("b1", "bus").unwrap();
        let b2 = g.add_node("b2", "bus").unwrap();
        g.add_edge("r1", p, b1, "rides").unwrap();
        g.add_edge("r2", p, b2, "rides").unwrap();
        g.add_edge("r3", i1, b1, "rides").unwrap();
        g.add_edge("r4", i2, b2, "rides").unwrap();
        let cls = run_psi(&g);
        assert!(cls[p.index()]);
        assert!(!cls[b1.index()]);
        assert!(!cls[i1.index()]);
    }
}
