//! Product automata: graph × NFA and its determinization.
//!
//! A path `p = n₀ e₁ … e_k n_k` is encoded as the *word* `n₀ e₁ … e_k`
//! over the alphabet `N ∪ E` (the start node followed by the edge
//! sequence; see [`crate::path`]). The [`Product`] automaton accepts
//! exactly the words encoding paths in `⟦r⟧`:
//!
//! * product states are pairs `(graph node, NFA state)`;
//! * reading the first symbol `n₀` enters `(n₀, q)` for every `q` in the
//!   *guarded ε-closure* of the NFA start state at `n₀` (ε-transitions
//!   plus `Node(test)` transitions whose test `n₀` passes);
//! * reading an edge symbol `e` from `(n, q)` follows a consuming NFA
//!   transition whose test `e` passes in the matching direction, then
//!   closes again at the new node.
//!
//! Transitions are stored in a flat CSR layout (one offset array plus one
//! contiguous target array per direction, mirroring `kgq_graph::csr`):
//! `out(s)` and `preds(s)` are slices into shared backing vectors instead
//! of per-state heap allocations. The DP passes in [`crate::count`],
//! [`crate::approx`] and [`crate::gen`] stream over these slices, so the
//! layout keeps them cache-friendly and makes the product cheap to share
//! across threads ([`crate::eval::Evaluator::pairs_governed`]).
//!
//! Because several NFA runs can accept the same word, counting accepting
//! runs of the product over-counts *paths*. [`DetProduct`] applies the
//! subset construction — states `(node, set of NFA states)` — after which
//! each word has exactly one run, making dynamic-programming counts exact.
//! Determinization is worst-case exponential in the NFA size, consistent
//! with the SpanL-hardness of exact counting cited by the paper (§4.1);
//! the FPRAS ([`crate::approx`]) works on the nondeterministic [`Product`]
//! and stays polynomial.

use crate::automata::{Nfa, Trans};
use crate::govern::{fault_point, Governor, Interrupt, MemMeter, Ticker};
use crate::model::PathGraph;
use kgq_graph::{EdgeId, NodeId};
use std::collections::HashMap;

/// Coarse per-product-state memory charge: the `(node, q)` pair, the
/// interning map entry, and CSR slot overhead.
const STATE_BYTES: u64 = 48;
/// Coarse per-transition charge: one forward and one reverse CSR entry.
const TRANS_BYTES: u64 = 16;

/// Index of a product state.
pub type PState = u32;

/// Flattens per-index lists into a CSR (offsets, flat items) pair.
fn flatten<T: Copy>(lists: &[Vec<T>]) -> (Vec<u32>, Vec<T>) {
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut off = Vec::with_capacity(lists.len() + 1);
    let mut flat = Vec::with_capacity(total);
    off.push(0u32);
    for list in lists {
        flat.extend_from_slice(list);
        off.push(flat.len() as u32);
    }
    (off, flat)
}

/// The nondeterministic product of a graph and an NFA.
///
/// Stored in flat CSR form: all per-state adjacency lives in two shared
/// vectors per direction, addressed through offset arrays.
#[derive(Clone, Debug)]
pub struct Product {
    /// `(graph node, NFA state)` per product state.
    states: Vec<(NodeId, u32)>,
    /// CSR offsets into `out_tr`: state `s` owns `out_tr[out_off[s]..out_off[s+1]]`.
    out_off: Vec<u32>,
    /// Consuming transitions `(edge, successor)`, sorted and deduplicated
    /// per state.
    out_tr: Vec<(EdgeId, PState)>,
    /// CSR offsets into `pred_tr`.
    pred_off: Vec<u32>,
    /// Reverse transitions `(predecessor, edge)`, sorted per state.
    pred_tr: Vec<(PState, EdgeId)>,
    /// Accepting product states.
    accepting: Vec<bool>,
    /// CSR offsets into `init_states`, one slot per graph node.
    init_off: Vec<u32>,
    /// Product states entered on reading each node symbol.
    init_states: Vec<PState>,
}

/// Guarded ε-closure of `seed` NFA states at graph node `n`.
fn closure<G: PathGraph>(g: &G, nfa: &Nfa, n: NodeId, seed: &[u32]) -> Vec<u32> {
    let mut seen = vec![false; nfa.state_count()];
    let mut stack: Vec<u32> = Vec::new();
    for &q in seed {
        if !seen[q as usize] {
            seen[q as usize] = true;
            stack.push(q);
        }
    }
    let mut result = stack.clone();
    while let Some(q) = stack.pop() {
        for &(label, to) in &nfa.edges[q as usize] {
            let pass = match label {
                Trans::Eps => true,
                Trans::Node(t) => g.node_test(n, &nfa.tests[t as usize]),
                Trans::Fwd(_) | Trans::Bwd(_) => false,
            };
            if pass && !seen[to as usize] {
                seen[to as usize] = true;
                stack.push(to);
                result.push(to);
            }
        }
    }
    result.sort_unstable();
    result
}

impl Product {
    /// Builds the product reachable from every graph node as a source.
    pub fn build<G: PathGraph>(g: &G, nfa: &Nfa) -> Product {
        let all: Vec<NodeId> = (0..g.node_count() as u32).map(NodeId).collect();
        Product::build_from(g, nfa, &all)
    }

    /// Builds the product reachable from the given source nodes.
    pub fn build_from<G: PathGraph>(g: &G, nfa: &Nfa, sources: &[NodeId]) -> Product {
        match Product::build_from_governed(g, nfa, sources, None) {
            Ok(p) => p,
            // Unreachable: without a governor nothing interrupts the build.
            Err(i) => unreachable!("ungoverned product build interrupted: {i}"),
        }
    }

    /// Builds the full product under `gov`'s budget; interning work is
    /// charged as steps and the growing CSR as memory.
    pub fn build_governed<G: PathGraph>(
        g: &G,
        nfa: &Nfa,
        gov: &Governor,
    ) -> Result<Product, Interrupt> {
        let all: Vec<NodeId> = (0..g.node_count() as u32).map(NodeId).collect();
        Product::build_from_governed(g, nfa, &all, Some(gov))
    }

    /// Governed worklist interning loop shared by the public builders.
    fn build_from_governed<G: PathGraph>(
        g: &G,
        nfa: &Nfa,
        sources: &[NodeId],
        gov: Option<&Governor>,
    ) -> Result<Product, Interrupt> {
        fault_point!("product::build");
        let mut ticker = Ticker::maybe(gov);
        let mut mem = MemMeter::maybe(gov);
        let mut states: Vec<(NodeId, u32)> = Vec::new();
        let mut index: HashMap<(u32, u32), PState> = HashMap::new();
        let mut out: Vec<Vec<(EdgeId, PState)>> = Vec::new();
        let mut initial: Vec<Vec<PState>> = vec![Vec::new(); g.node_count()];
        let mut worklist: Vec<PState> = Vec::new();

        let mut intern = |n: NodeId,
                          q: u32,
                          states: &mut Vec<(NodeId, u32)>,
                          out: &mut Vec<Vec<(EdgeId, PState)>>,
                          worklist: &mut Vec<PState>|
         -> PState {
            *index.entry((n.0, q)).or_insert_with(|| {
                let s = states.len() as PState;
                states.push((n, q));
                out.push(Vec::new());
                worklist.push(s);
                s
            })
        };

        for &src in sources {
            ticker.tick()?;
            let closed = closure(g, nfa, src, &[nfa.start]);
            for q in closed {
                let s = intern(src, q, &mut states, &mut out, &mut worklist);
                if !initial[src.index()].contains(&s) {
                    initial[src.index()].push(s);
                }
            }
        }

        while let Some(s) = worklist.pop() {
            ticker.tick()?;
            mem.charge(STATE_BYTES)?;
            let (n, q) = states[s as usize];
            let mut succs: Vec<(EdgeId, PState)> = Vec::new();
            for &(label, q_mid) in &nfa.edges[q as usize] {
                let steps: Vec<(EdgeId, NodeId)> = match label {
                    Trans::Fwd(t) => g
                        .out(n)
                        .iter()
                        .copied()
                        .filter(|&(e, _)| g.edge_test(e, &nfa.tests[t as usize]))
                        .collect(),
                    Trans::Bwd(t) => g
                        .inc(n)
                        .iter()
                        .copied()
                        .filter(|&(e, _)| g.edge_test(e, &nfa.tests[t as usize]))
                        .collect(),
                    _ => continue,
                };
                for (e, m) in steps {
                    for q2 in closure(g, nfa, m, &[q_mid]) {
                        ticker.tick()?;
                        let s2 = intern(m, q2, &mut states, &mut out, &mut worklist);
                        succs.push((e, s2));
                    }
                }
            }
            succs.sort_unstable_by_key(|&(e, s2)| (e.0, s2));
            succs.dedup();
            mem.charge(TRANS_BYTES * succs.len() as u64)?;
            out[s as usize] = succs;
        }
        ticker.flush()?;
        mem.flush()?;

        let accepting: Vec<bool> = states.iter().map(|&(_, q)| q == nfa.accept).collect();
        let mut preds: Vec<Vec<(PState, EdgeId)>> = vec![Vec::new(); states.len()];
        for (s, list) in out.iter().enumerate() {
            for &(e, s2) in list {
                preds[s2 as usize].push((s as PState, e));
            }
        }
        for p in &mut preds {
            p.sort_unstable_by_key(|&(s, e)| (s, e.0));
        }

        let (out_off, out_tr) = flatten(&out);
        let (pred_off, pred_tr) = flatten(&preds);
        let (init_off, init_states) = flatten(&initial);

        Ok(Product {
            states,
            out_off,
            out_tr,
            pred_off,
            pred_tr,
            accepting,
            init_off,
            init_states,
        })
    }

    /// Number of product states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of consuming transitions across all states.
    pub fn transition_count(&self) -> usize {
        self.out_tr.len()
    }

    /// Number of graph nodes the product was built over.
    pub fn node_count(&self) -> usize {
        self.init_off.len() - 1
    }

    /// The graph node of product state `s`.
    pub fn node_of(&self, s: PState) -> NodeId {
        self.states[s as usize].0
    }

    /// The NFA state of product state `s`.
    pub fn nfa_state_of(&self, s: PState) -> u32 {
        self.states[s as usize].1
    }

    /// Consuming transitions of `s`: `(edge, successor)` pairs sorted by
    /// `(edge, successor)` and deduplicated.
    #[inline]
    pub fn out(&self, s: PState) -> &[(EdgeId, PState)] {
        let s = s as usize;
        &self.out_tr[self.out_off[s] as usize..self.out_off[s + 1] as usize]
    }

    /// Reverse transitions of `s`: `(predecessor, edge)` pairs sorted by
    /// `(predecessor, edge)`.
    #[inline]
    pub fn preds(&self, s: PState) -> &[(PState, EdgeId)] {
        let s = s as usize;
        &self.pred_tr[self.pred_off[s] as usize..self.pred_off[s + 1] as usize]
    }

    /// Whether product state `s` is accepting.
    #[inline]
    pub fn is_accepting(&self, s: PState) -> bool {
        self.accepting[s as usize]
    }

    /// Product states entered on reading node symbol `v` (empty if `v`
    /// was not among the built sources).
    #[inline]
    pub fn initial(&self, v: NodeId) -> &[PState] {
        let v = v.index();
        &self.init_states[self.init_off[v] as usize..self.init_off[v + 1] as usize]
    }

    /// Runs the product on a word `(start, edges)`, returning the set of
    /// product states reached (sorted). Empty if the word is not a valid
    /// traversal or matches nothing.
    pub fn run(&self, start: NodeId, edges: &[EdgeId]) -> Vec<PState> {
        let mut cur: Vec<PState> = self.initial(start).to_vec();
        for &e in edges {
            let mut next: Vec<PState> = Vec::new();
            for &s in &cur {
                for &(te, s2) in self.out(s) {
                    if te == e {
                        next.push(s2);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            cur = next;
            if cur.is_empty() {
                break;
            }
        }
        cur
    }

    /// True if the word `(start, edges)` encodes a path in `⟦r⟧`.
    pub fn accepts(&self, start: NodeId, edges: &[EdgeId]) -> bool {
        self.run(start, edges).iter().any(|&s| self.is_accepting(s))
    }
}

/// The determinized product (subset construction on the NFA component).
///
/// Each word has exactly one run, so dynamic programming over
/// `DetProduct` counts *distinct paths* exactly. Transitions use the same
/// flat CSR layout as [`Product`].
#[derive(Clone, Debug)]
pub struct DetProduct {
    /// `(graph node, sorted set of NFA states)` per det state.
    states: Vec<(NodeId, Vec<u32>)>,
    /// CSR offsets into `out_tr`.
    out_off: Vec<u32>,
    /// Deterministic transitions: at most one successor per edge symbol,
    /// sorted by edge id.
    out_tr: Vec<(EdgeId, u32)>,
    /// Whether the state set contains the NFA accept state.
    accepting: Vec<bool>,
    /// Per graph node, the det state entered on reading that node symbol.
    initial: Vec<Option<u32>>,
}

impl DetProduct {
    /// Builds the determinized product from every node as a source.
    pub fn build<G: PathGraph>(g: &G, nfa: &Nfa) -> DetProduct {
        let all: Vec<NodeId> = (0..g.node_count() as u32).map(NodeId).collect();
        DetProduct::build_from(g, nfa, &all)
    }

    /// Builds the determinized product from the given sources.
    pub fn build_from<G: PathGraph>(g: &G, nfa: &Nfa, sources: &[NodeId]) -> DetProduct {
        match DetProduct::build_from_governed(g, nfa, sources, None) {
            Ok(d) => d,
            Err(i) => unreachable!("ungoverned det build interrupted: {i}"),
        }
    }

    /// Builds the full determinized product under `gov`'s budget. The
    /// subset construction is where the worst-case exponential blow-up
    /// lives, so this is the most important build to bound.
    pub fn build_governed<G: PathGraph>(
        g: &G,
        nfa: &Nfa,
        gov: &Governor,
    ) -> Result<DetProduct, Interrupt> {
        let all: Vec<NodeId> = (0..g.node_count() as u32).map(NodeId).collect();
        DetProduct::build_from_governed(g, nfa, &all, Some(gov))
    }

    /// Governed subset-construction loop shared by the public builders.
    fn build_from_governed<G: PathGraph>(
        g: &G,
        nfa: &Nfa,
        sources: &[NodeId],
        gov: Option<&Governor>,
    ) -> Result<DetProduct, Interrupt> {
        fault_point!("det::build");
        let mut ticker = Ticker::maybe(gov);
        let mut mem = MemMeter::maybe(gov);
        let mut states: Vec<(NodeId, Vec<u32>)> = Vec::new();
        let mut index: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
        let mut out: Vec<Vec<(EdgeId, u32)>> = Vec::new();
        let mut initial: Vec<Option<u32>> = vec![None; g.node_count()];
        let mut worklist: Vec<u32> = Vec::new();

        let mut intern = |n: NodeId,
                          set: Vec<u32>,
                          states: &mut Vec<(NodeId, Vec<u32>)>,
                          out: &mut Vec<Vec<(EdgeId, u32)>>,
                          worklist: &mut Vec<u32>|
         -> u32 {
            *index.entry((n.0, set.clone())).or_insert_with(|| {
                let s = states.len() as u32;
                states.push((n, set));
                out.push(Vec::new());
                worklist.push(s);
                s
            })
        };

        for &src in sources {
            ticker.tick()?;
            let closed = closure(g, nfa, src, &[nfa.start]);
            if initial[src.index()].is_none() {
                let s = intern(src, closed, &mut states, &mut out, &mut worklist);
                initial[src.index()] = Some(s);
            }
        }

        while let Some(s) = worklist.pop() {
            ticker.tick()?;
            let (n, set) = states[s as usize].clone();
            // Det states own their NFA-state set; charge it too.
            mem.charge(STATE_BYTES + 4 * set.len() as u64)?;
            // Group successor NFA states by edge.
            let mut by_edge: HashMap<EdgeId, (NodeId, Vec<u32>)> = HashMap::new();
            for &q in &set {
                for &(label, q_mid) in &nfa.edges[q as usize] {
                    let steps: Vec<(EdgeId, NodeId)> = match label {
                        Trans::Fwd(t) => g
                            .out(n)
                            .iter()
                            .copied()
                            .filter(|&(e, _)| g.edge_test(e, &nfa.tests[t as usize]))
                            .collect(),
                        Trans::Bwd(t) => g
                            .inc(n)
                            .iter()
                            .copied()
                            .filter(|&(e, _)| g.edge_test(e, &nfa.tests[t as usize]))
                            .collect(),
                        _ => continue,
                    };
                    for (e, m) in steps {
                        ticker.tick()?;
                        let entry = by_edge.entry(e).or_insert_with(|| (m, Vec::new()));
                        debug_assert_eq!(entry.0, m, "edge target must be unique");
                        for q2 in closure(g, nfa, m, &[q_mid]) {
                            if !entry.1.contains(&q2) {
                                entry.1.push(q2);
                            }
                        }
                    }
                }
            }
            let mut succs: Vec<(EdgeId, u32)> = Vec::with_capacity(by_edge.len());
            for (e, (m, mut qset)) in by_edge {
                qset.sort_unstable();
                let s2 = intern(m, qset, &mut states, &mut out, &mut worklist);
                succs.push((e, s2));
            }
            succs.sort_unstable_by_key(|&(e, _)| e.0);
            mem.charge(TRANS_BYTES * succs.len() as u64)?;
            out[s as usize] = succs;
        }
        ticker.flush()?;
        mem.flush()?;

        let accepting: Vec<bool> = states
            .iter()
            .map(|(_, set)| set.binary_search(&nfa.accept).is_ok())
            .collect();

        let (out_off, out_tr) = flatten(&out);

        Ok(DetProduct {
            states,
            out_off,
            out_tr,
            accepting,
            initial,
        })
    }

    /// Number of det states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The graph node of det state `s`.
    pub fn node_of(&self, s: u32) -> NodeId {
        self.states[s as usize].0
    }

    /// Deterministic transitions of `s`, sorted by edge id.
    #[inline]
    pub fn out(&self, s: u32) -> &[(EdgeId, u32)] {
        let s = s as usize;
        &self.out_tr[self.out_off[s] as usize..self.out_off[s + 1] as usize]
    }

    /// Whether det state `s` contains the NFA accept state.
    #[inline]
    pub fn is_accepting(&self, s: u32) -> bool {
        self.accepting[s as usize]
    }

    /// The det state entered on reading node symbol `v`, if any.
    #[inline]
    pub fn initial(&self, v: NodeId) -> Option<u32> {
        self.initial.get(v.index()).copied().flatten()
    }

    /// The per-node initial slots (index = node id), for whole-graph scans.
    #[inline]
    pub fn initial_slots(&self) -> &[Option<u32>] {
        &self.initial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LabeledView;
    use crate::parser::parse_expr;
    use kgq_graph::figures::figure2_labeled;
    use kgq_graph::LabeledGraph;

    fn setup(expr: &str) -> (LabeledGraph, Nfa) {
        let mut g = figure2_labeled();
        let e = {
            let consts = g.consts_mut();
            parse_expr(expr, consts).unwrap()
        };
        (g, Nfa::compile(&e))
    }

    #[test]
    fn product_accepts_the_paper_path() {
        let (g, nfa) = setup("?person/rides/?bus/rides^-/?infected");
        let view = LabeledView::new(&g);
        let prod = Product::build(&view, &nfa);
        let n1 = g.node_named("n1").unwrap();
        let e1 = g.edge_named("e1").unwrap(); // n1 -> bus
        let e2 = g.edge_named("e2").unwrap(); // infected n2 -> bus
        assert!(prod.accepts(n1, &[e1, e2]));
        // Wrong order does not traverse.
        assert!(!prod.accepts(n1, &[e2, e1]));
        // A single rides edge is not a full match.
        assert!(!prod.accepts(n1, &[e1]));
    }

    #[test]
    fn zero_length_node_test_accepts() {
        let (g, nfa) = setup("?bus");
        let view = LabeledView::new(&g);
        let prod = Product::build(&view, &nfa);
        let n3 = g.node_named("n3").unwrap();
        let n1 = g.node_named("n1").unwrap();
        assert!(prod.accepts(n3, &[]));
        assert!(!prod.accepts(n1, &[]));
    }

    #[test]
    fn star_accepts_all_iteration_counts() {
        let (g, nfa) = setup("(contact)*");
        let view = LabeledView::new(&g);
        let prod = Product::build(&view, &nfa);
        let n1 = g.node_named("n1").unwrap();
        let e4 = g.edge_named("e4").unwrap(); // n1 -contact-> n4
        let e5 = g.edge_named("e5").unwrap(); // n4 -contact-> n6
        assert!(prod.accepts(n1, &[]));
        assert!(prod.accepts(n1, &[e4]));
        assert!(prod.accepts(n1, &[e4, e5]));
        let e1 = g.edge_named("e1").unwrap(); // rides edge: label mismatch
        assert!(!prod.accepts(n1, &[e1]));
    }

    #[test]
    fn negated_edge_test_from_the_paper() {
        // (¬rides ∧ ¬lives)⁻ from bus n3: only `owns` arrives at n3, so the
        // backward step from n3 along a non-rides/non-lives edge is e8.
        let (g, nfa) = setup("{!rides & !lives}^-");
        let view = LabeledView::new(&g);
        let prod = Product::build(&view, &nfa);
        let n3 = g.node_named("n3").unwrap();
        let e8 = g.edge_named("e8").unwrap(); // n7 -owns-> n3
        let e1 = g.edge_named("e1").unwrap();
        assert!(prod.accepts(n3, &[e8]));
        assert!(!prod.accepts(n3, &[e1]));
    }

    #[test]
    fn det_product_is_deterministic_per_edge() {
        let (g, nfa) = setup("(rides + rides/rides^-)*");
        let view = LabeledView::new(&g);
        let det = DetProduct::build(&view, &nfa);
        for s in 0..det.state_count() {
            let list = det.out(s as u32);
            for w in list.windows(2) {
                assert!(w[0].0 < w[1].0, "duplicate edge symbol in det state");
            }
        }
    }

    #[test]
    fn csr_slices_partition_the_transition_list() {
        let (g, nfa) = setup("?person/(contact + rides/rides^-)*/?infected");
        let view = LabeledView::new(&g);
        let prod = Product::build(&view, &nfa);
        let total: usize = (0..prod.state_count())
            .map(|s| prod.out(s as u32).len())
            .sum();
        assert_eq!(total, prod.transition_count());
        // Every forward transition has a matching reverse transition.
        let rev_total: usize = (0..prod.state_count())
            .map(|s| prod.preds(s as u32).len())
            .sum();
        assert_eq!(rev_total, prod.transition_count());
        for s in 0..prod.state_count() as u32 {
            for &(e, s2) in prod.out(s) {
                assert!(prod.preds(s2).contains(&(s, e)), "missing reverse edge");
            }
        }
        // Initial slots cover every graph node.
        assert_eq!(prod.node_count(), g.node_count());
    }

    #[test]
    fn det_and_nfa_agree_on_acceptance() {
        let (g, nfa) = setup("?person/(contact + rides/rides^-)*/?infected");
        let view = LabeledView::new(&g);
        let prod = Product::build(&view, &nfa);
        let det = DetProduct::build(&view, &nfa);
        // Walk every word of length <= 3 and compare acceptance.
        let mut agreements = 0;
        for n in g.base().nodes() {
            let words = enumerate_words(&view, n, 3);
            for w in words {
                let nfa_acc = prod.accepts(n, &w);
                let det_acc = det_accepts(&det, n, &w);
                assert_eq!(nfa_acc, det_acc, "disagree on {w:?} from {n:?}");
                agreements += 1;
            }
        }
        assert!(agreements > 50);
    }

    fn det_accepts(det: &DetProduct, start: NodeId, edges: &[EdgeId]) -> bool {
        let mut cur = match det.initial(start) {
            Some(s) => s,
            None => return false,
        };
        for &e in edges {
            match det.out(cur).binary_search_by_key(&e.0, |&(ee, _)| ee.0) {
                Ok(i) => cur = det.out(cur)[i].1,
                Err(_) => return false,
            }
        }
        det.is_accepting(cur)
    }

    /// All traversable words of length <= k from n (graph walks).
    fn enumerate_words(view: &LabeledView<'_>, n: NodeId, k: usize) -> Vec<Vec<EdgeId>> {
        let mut all = vec![vec![]];
        let mut frontier: Vec<(NodeId, Vec<EdgeId>)> = vec![(n, vec![])];
        for _ in 0..k {
            let mut next = Vec::new();
            for (cur, w) in frontier {
                let mut steps: Vec<(EdgeId, NodeId)> = view
                    .out(cur)
                    .iter()
                    .chain(view.inc(cur).iter())
                    .copied()
                    .collect();
                steps.sort_unstable_by_key(|&(e, _)| e.0);
                steps.dedup_by_key(|&mut (e, _)| e.0);
                for (e, m) in steps {
                    let mut w2 = w.clone();
                    w2.push(e);
                    all.push(w2.clone());
                    next.push((m, w2));
                }
            }
            frontier = next;
        }
        all
    }
}
