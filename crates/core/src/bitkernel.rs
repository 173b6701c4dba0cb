//! Bit-parallel multi-source reachability kernels over the product.
//!
//! The all-pairs and node-extraction evaluators ([`crate::eval`]) need the
//! accepting states reachable from *every* graph node's initial states.
//! Running one BFS per source touches the product CSR `n` times; this
//! module instead sweeps **64 sources per pass** (the machine word width,
//! in the style of multi-source BFS): the visited set is a bit-matrix
//! `Vec<u64>` with one word per product state, bit `j` meaning "reachable
//! from the batch's `j`-th source", and successor expansion is a single
//! `|=` that advances all 64 frontiers at once.
//!
//! Propagation is sparse: a worklist holds only states with undelivered
//! bits (`pending`), so each pass does work proportional to the number of
//! *newly set* bits, not to `states × rounds`. One pass over the product
//! therefore replaces up to 64 whole BFS traversals, which is where the
//! order-of-magnitude win on the hot path comes from — no threads needed
//! (and composing with them: batches are independent, so passes fan out
//! across the pool like per-source scans did).
//!
//! Determinism: within a batch, bits are delivered in whatever order the
//! worklist pops, but the *final* visited matrix is the unique reachability
//! fixpoint, and result extraction ([`ReachKernel::batch_ends`]) walks
//! accepting states in order and sorts per source — so kernel output is a
//! pure function of the product, independent of thread count and batch
//! scheduling. [`crate::eval`] exploits that to stay byte-identical to its
//! sequential reference implementations.
//!
//! The kernel also carries the deduplicated successor/predecessor CSRs
//! (edge ids dropped, targets deduped) used by the bidirectional
//! meet-in-the-middle search behind [`crate::eval::Evaluator::check`] and
//! `shortest_witness`: reachability only needs *whether* a neighbouring
//! state is reachable, and collapsing parallel edges shrinks the scanned
//! lists.

use crate::govern::{Governor, Interrupt, Ticker};
use crate::product::{PState, Product};
use kgq_graph::NodeId;

/// Sources swept per pass: one per bit of the frontier word.
pub const BATCH: usize = 64;

/// Per-state bytes charged to the governor for one sweep's bit-matrix
/// (`visited` + `pending`, one `u64` each).
const SWEEP_BYTES_PER_STATE: u64 = 16;

/// Precomputed reachability view of a [`Product`]: deduplicated
/// successor/predecessor adjacency (edge identities dropped) plus the
/// accepting-state list, in flat CSR form.
pub struct ReachKernel {
    /// CSR offsets into `succ`.
    succ_off: Vec<u32>,
    /// Distinct successor states, sorted per state.
    succ: Vec<PState>,
    /// CSR offsets into `pred`.
    pred_off: Vec<u32>,
    /// Distinct predecessor states, sorted per state.
    pred: Vec<PState>,
    /// All accepting product states, ascending.
    accepting: Vec<PState>,
    /// Accepting states with their graph nodes, sorted by node — lets
    /// [`ReachKernel::batch_ends`] emit each source's ends already
    /// sorted, with no per-source sort.
    accepting_by_node: Vec<(NodeId, PState)>,
    /// Distinct nodes among the accepting states: an upper bound on any
    /// source's end count, used to pre-size extraction buckets.
    accepting_nodes: usize,
}

impl ReachKernel {
    /// Builds the kernel's masks from a product. `O(transitions)`.
    pub fn build(p: &Product) -> ReachKernel {
        let n = p.state_count();
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ = Vec::new();
        succ_off.push(0u32);
        for s in 0..n as PState {
            let mut targets: Vec<PState> = p.out(s).iter().map(|&(_, s2)| s2).collect();
            targets.sort_unstable();
            targets.dedup();
            succ.extend(targets);
            succ_off.push(succ.len() as u32);
        }
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut pred = Vec::new();
        pred_off.push(0u32);
        for s in 0..n as PState {
            let mut sources: Vec<PState> = p.preds(s).iter().map(|&(s2, _)| s2).collect();
            sources.sort_unstable();
            sources.dedup();
            pred.extend(sources);
            pred_off.push(pred.len() as u32);
        }
        let accepting: Vec<PState> = (0..n as PState).filter(|&s| p.is_accepting(s)).collect();
        let mut accepting_by_node: Vec<(NodeId, PState)> =
            accepting.iter().map(|&s| (p.node_of(s), s)).collect();
        accepting_by_node.sort_unstable();
        let accepting_nodes = accepting_by_node
            .windows(2)
            .filter(|w| w[0].0 != w[1].0)
            .count()
            + usize::from(!accepting_by_node.is_empty());
        ReachKernel {
            succ_off,
            succ,
            pred_off,
            pred,
            accepting,
            accepting_by_node,
            accepting_nodes,
        }
    }

    /// Number of product states covered.
    pub fn state_count(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Distinct successors of `s`.
    #[inline]
    fn succ(&self, s: PState) -> &[PState] {
        let s = s as usize;
        &self.succ[self.succ_off[s] as usize..self.succ_off[s + 1] as usize]
    }

    /// Distinct predecessors of `s`.
    #[inline]
    fn pred(&self, s: PState) -> &[PState] {
        let s = s as usize;
        &self.pred[self.pred_off[s] as usize..self.pred_off[s + 1] as usize]
    }

    /// One bit-parallel pass: the reachability bit-matrix for up to
    /// [`BATCH`] sources (bit `j` of word `s` ⇔ product state `s` is
    /// reachable from `sources[j]`'s initial states). Charges the
    /// bit-matrix to the memory budget (caller releases via
    /// [`ReachKernel::release_sweep`]) and one step per successor-mask
    /// merge, charged at the end of each frontier round.
    pub fn sweep_governed(
        &self,
        p: &Product,
        sources: &[NodeId],
        gov: &Governor,
    ) -> Result<Vec<u64>, Interrupt> {
        gov.charge_memory(SWEEP_BYTES_PER_STATE * self.state_count() as u64)?;
        debug_assert!(sources.len() <= BATCH, "more than {BATCH} sources");
        let n = self.state_count();
        let mut ticker = Ticker::new(gov);
        let mut visited = vec![0u64; n];
        // Bits set but not yet propagated; a state is on the frontier iff
        // its pending word is non-zero. Propagation is round-synchronized
        // (level BFS): all 64 frontiers advance together, so a state
        // accumulates every bit arriving in a round *before* its
        // successors are scanned — one expansion then delivers the whole
        // merged mask, which is where the 64-way sharing pays off. (A
        // LIFO worklist would trickle bits one at a time and do
        // per-source work again.)
        let mut pending = vec![0u64; n];
        let mut frontier: Vec<PState> = Vec::new();
        let mut next: Vec<PState> = Vec::new();
        for (j, &v) in sources.iter().enumerate() {
            let bit = 1u64 << j;
            for &s in p.initial(v) {
                if visited[s as usize] & bit == 0 {
                    visited[s as usize] |= bit;
                    if pending[s as usize] == 0 {
                        frontier.push(s);
                    }
                    pending[s as usize] |= bit;
                }
            }
        }
        let mut merges: u64 = 0;
        while !frontier.is_empty() {
            for idx in 0..frontier.len() {
                let s = frontier[idx];
                let bits = pending[s as usize];
                pending[s as usize] = 0;
                if bits == 0 {
                    continue;
                }
                let succ = self.succ(s);
                merges += succ.len() as u64;
                for &s2 in succ {
                    let add = bits & !visited[s2 as usize];
                    if add != 0 {
                        visited[s2 as usize] |= add;
                        if pending[s2 as usize] == 0 {
                            next.push(s2);
                        }
                        pending[s2 as usize] |= add;
                    }
                }
            }
            // Charge the round's merges at its end: a per-state (let alone
            // per-edge) tick costs measurable time on small products, and
            // a budget trip drops the whole batch anyway.
            ticker.tick_n(u32::try_from(merges).unwrap_or(u32::MAX))?;
            merges = 0;
            frontier.clear();
            std::mem::swap(&mut frontier, &mut next);
            // States fed new bits by a same-round neighbour after they
            // were expanded land on `next`; states fed bits *before*
            // their expansion already delivered them, and their zeroed
            // pending word makes the `next` entry a no-op.
        }
        ticker.flush()?;
        Ok(visited)
    }

    /// Returns the memory charged by [`ReachKernel::sweep_governed`].
    pub fn release_sweep(&self, gov: &Governor) {
        gov.release_memory(SWEEP_BYTES_PER_STATE * self.state_count() as u64);
    }

    /// Per-source end nodes from a sweep's bit-matrix: for each batch
    /// source, the sorted, deduplicated nodes of reachable accepting
    /// states — exactly [`crate::eval::Evaluator::ends_from`] of that
    /// source.
    pub fn batch_ends(
        &self,
        _p: &Product,
        sources: &[NodeId],
        visited: &[u64],
    ) -> Vec<Vec<NodeId>> {
        let mut per: Vec<Vec<NodeId>> = vec![Vec::new(); sources.len()];
        // Walking accepting states in node order keeps each source's list
        // sorted as it is built; duplicate nodes (several accepting
        // states at one node) are adjacent, so a last-element check
        // dedups without a sort.
        for &(node, s) in &self.accepting_by_node {
            let mut bits = visited[s as usize];
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if per[j].last() != Some(&node) {
                    per[j].push(node);
                }
            }
        }
        per
    }

    /// Fused pair extraction: appends `(source, end)` tuples for the
    /// whole batch to `out`, grouped by source in batch order with each
    /// group sorted — exactly the concatenation of
    /// [`ReachKernel::batch_ends`], minus the intermediate allocations.
    /// `scratch` is reused across batches (cleared here); bucket
    /// capacity survives the clear, so a long-lived scratch settles into
    /// allocation-free steady state.
    pub fn append_batch_pairs(
        &self,
        sources: &[NodeId],
        visited: &[u64],
        scratch: &mut Vec<Vec<NodeId>>,
        out: &mut Vec<(NodeId, NodeId)>,
    ) {
        // Upper bound on this batch's pair count (duplicates included).
        let set_bits: usize = self
            .accepting
            .iter()
            .map(|&s| visited[s as usize].count_ones() as usize)
            .sum();
        out.reserve(set_bits);
        if set_bits * 4 >= sources.len() * self.accepting_by_node.len() {
            // Dense batch: fold the accepting states' visited words into
            // one mask per node (OR-merging handles nodes with several
            // accepting states, so no dedup test remains), then scan
            // source-major and append straight to the output — one tight
            // pass over a ~node-count array that stays cache-resident
            // across the 64 scans. No buckets, no copy.
            let mut masks: Vec<(NodeId, u64)> = Vec::with_capacity(self.accepting_nodes);
            for &(node, s) in &self.accepting_by_node {
                let w = visited[s as usize];
                match masks.last_mut() {
                    Some(m) if m.0 == node => m.1 |= w,
                    _ => masks.push((node, w)),
                }
            }
            for (j, &v) in sources.iter().enumerate() {
                for &(node, w) in &masks {
                    if w >> j & 1 == 1 {
                        out.push((v, node));
                    }
                }
            }
            return;
        }
        // Sparse batch: node-major bit iteration touches only set bits;
        // reusable buckets regroup by source. Capacity grows amortized
        // and survives `clear`, so a reused scratch never reallocates
        // past its first batches, while a fresh one (governed or
        // parallel callers) allocates only what its batch needs instead
        // of the worst-case accepting-node count per bucket.
        scratch.resize_with(sources.len().max(scratch.len()), Vec::new);
        for bucket in scratch.iter_mut() {
            bucket.clear();
        }
        for &(node, s) in &self.accepting_by_node {
            let mut bits = visited[s as usize];
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if scratch[j].last() != Some(&node) {
                    scratch[j].push(node);
                }
            }
        }
        for (j, &v) in sources.iter().enumerate() {
            out.extend(scratch[j].iter().map(|&b| (v, b)));
        }
    }

    /// Which batch sources reach any accepting state: bit `j` set ⇔
    /// `sources[j]` starts a matching path.
    pub fn batch_matches(&self, visited: &[u64]) -> u64 {
        let mut matched = 0u64;
        for &s in &self.accepting {
            matched |= visited[s as usize];
        }
        matched
    }

    /// Bidirectional meet-in-the-middle reachability: true iff some
    /// accepting state at node `b` is reachable from `a`'s initial
    /// states. Expands whichever frontier is cheaper (by total degree)
    /// each round, so highly asymmetric searches do sublinear work
    /// compared to a full forward BFS.
    pub fn check(&self, p: &Product, a: NodeId, b: NodeId) -> bool {
        let inits = p.initial(a);
        if inits.is_empty() {
            return false;
        }
        let targets: Vec<PState> = self
            .accepting
            .iter()
            .copied()
            .filter(|&s| p.node_of(s) == b)
            .collect();
        if targets.is_empty() {
            return false;
        }
        let n = self.state_count();
        let mut fseen = vec![false; n];
        let mut bseen = vec![false; n];
        let mut ffr: Vec<PState> = Vec::new();
        let mut bfr: Vec<PState> = Vec::new();
        for &s in &targets {
            bseen[s as usize] = true;
            bfr.push(s);
        }
        for &s in inits {
            if !fseen[s as usize] {
                fseen[s as usize] = true;
                if bseen[s as usize] {
                    return true; // zero-edge match
                }
                ffr.push(s);
            }
        }
        while !ffr.is_empty() && !bfr.is_empty() {
            let fcost: usize = ffr.iter().map(|&s| self.succ(s).len()).sum();
            let bcost: usize = bfr.iter().map(|&s| self.pred(s).len()).sum();
            if fcost <= bcost {
                let mut next = Vec::new();
                for &s in &ffr {
                    for &s2 in self.succ(s) {
                        if !fseen[s2 as usize] {
                            fseen[s2 as usize] = true;
                            if bseen[s2 as usize] {
                                return true;
                            }
                            next.push(s2);
                        }
                    }
                }
                ffr = next;
            } else {
                let mut next = Vec::new();
                for &s in &bfr {
                    for &s2 in self.pred(s) {
                        if !bseen[s2 as usize] {
                            bseen[s2 as usize] = true;
                            if fseen[s2 as usize] {
                                return true;
                            }
                            next.push(s2);
                        }
                    }
                }
                bfr = next;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::test_support::compile;
    use crate::eval::Evaluator;
    use crate::model::LabeledView;
    use crate::parser::parse_expr;
    use kgq_graph::figures::figure2_labeled;

    /// [`ReachKernel::sweep_governed`] under an unlimited governor.
    fn sweep(kernel: &ReachKernel, p: &Product, sources: &[NodeId]) -> Vec<u64> {
        kernel
            .sweep_governed(p, sources, &Governor::unlimited())
            .unwrap()
    }

    fn eval(expr: &str) -> (Evaluator, usize) {
        let mut g = figure2_labeled();
        let e = parse_expr(expr, g.consts_mut()).unwrap();
        let n = g.node_count();
        let view = LabeledView::new(&g);
        (compile(&view, &e), n)
    }

    #[test]
    fn sweep_matches_per_source_bfs() {
        for expr in [
            "rides/rides^-",
            "(contact)*",
            "?person/rides/?bus/rides^-/?infected",
        ] {
            let (ev, n) = eval(expr);
            let kernel = ReachKernel::build(ev.product());
            let sources: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            let visited = sweep(&kernel, ev.product(), &sources);
            let ends = kernel.batch_ends(ev.product(), &sources, &visited);
            for (j, &v) in sources.iter().enumerate() {
                assert_eq!(ends[j], ev.ends_from(v), "expr {expr} source {v:?}");
            }
        }
    }

    #[test]
    fn batch_matches_flags_exactly_the_matching_starts() {
        let (ev, n) = eval("?person/rides/?bus/rides^-/?infected");
        let kernel = ReachKernel::build(ev.product());
        let sources: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let visited = sweep(&kernel, ev.product(), &sources);
        let matched = kernel.batch_matches(&visited);
        let expect = ev.matching_starts_sequential();
        for (j, &v) in sources.iter().enumerate() {
            assert_eq!(matched >> j & 1 == 1, expect.contains(&v));
        }
    }

    #[test]
    fn bidirectional_check_agrees_with_forward_bfs() {
        for expr in ["(contact)*", "rides/rides^-", "{!rides & !lives}^-"] {
            let (ev, n) = eval(expr);
            let kernel = ReachKernel::build(ev.product());
            for a in 0..n as u32 {
                let ends = ev.ends_from(NodeId(a));
                for b in 0..n as u32 {
                    assert_eq!(
                        kernel.check(ev.product(), NodeId(a), NodeId(b)),
                        ends.binary_search(&NodeId(b)).is_ok(),
                        "expr {expr} {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_memory_is_charged_and_released() {
        let (ev, n) = eval("(contact + rides/rides^-)*");
        let kernel = ReachKernel::build(ev.product());
        let sources: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let gov = Governor::unlimited();
        let visited = kernel.sweep_governed(ev.product(), &sources, &gov).unwrap();
        assert_eq!(visited, sweep(&kernel, ev.product(), &sources));
        assert!(gov.memory_used() > 0);
        kernel.release_sweep(&gov);
        assert_eq!(gov.memory_used(), 0);
    }
}
