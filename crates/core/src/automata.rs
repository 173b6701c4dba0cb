//! Nondeterministic finite automata for path expressions.
//!
//! A [`PathExpr`] compiles (Thompson construction) into an [`Nfa`] whose
//! transitions are of three kinds:
//!
//! * `Eps` — structural ε-transitions from the construction,
//! * `Node(test)` — *guarded* ε-transitions: consume no edge, but require
//!   the current graph node to satisfy `test` (these implement the `?test`
//!   atoms of the paper's grammar),
//! * `Fwd(test)` / `Bwd(test)` — consuming transitions: follow one edge
//!   forward/backward whose label (or properties/features) satisfies
//!   `test`.
//!
//! The automaton has a single start and a single accept state. Evaluation,
//! counting, generation and enumeration all work on the product of the
//! graph with this NFA ([`crate::product`]).
//!
//! ## Minimization
//!
//! A path matches iff some *extended word* over the alphabet
//! `{Node(t), Fwd(t), Bwd(t)}` is accepted whose edge-letter projection is
//! the path's edge sequence and whose node-letter guards all pass at their
//! positions. The product semantics is therefore a function of the
//! automaton's language over that extended alphabet alone, so any
//! language-preserving transformation of the NFA is sound. [`Nfa::compile_min`]
//! exploits this: it determinizes the Thompson NFA over the extended
//! alphabet (ε-closure on the structural ε only), minimizes the result with
//! Hopcroft partition refinement, and normalizes state numbering by a BFS
//! over canonically ordered symbols. Minimal DFAs are canonical for their
//! language, so the normalized automaton doubles as a cache key
//! ([`NfaSignature`]) under which distinct spellings of one query collapse
//! — e.g. `a/(b+c)` and `a/b + a/c` compile to the same entry. Products
//! built from the minimized automaton have (usually far) fewer states,
//! which is where the evaluation time goes.

use crate::expr::{PathExpr, Test};
use std::collections::HashMap;

/// A transition label.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trans {
    /// Structural ε.
    Eps,
    /// Guarded ε: current node must satisfy test `t` (index into
    /// [`Nfa::tests`]).
    Node(u32),
    /// Consume one forward edge satisfying test `t`.
    Fwd(u32),
    /// Consume one backward edge satisfying test `t`.
    Bwd(u32),
}

/// An ε-NFA compiled from a path expression.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// Adjacency: `edges[q]` lists `(label, target)` transitions.
    pub edges: Vec<Vec<(Trans, u32)>>,
    /// Test arena referenced by transition labels.
    pub tests: Vec<Test>,
    /// The unique start state.
    pub start: u32,
    /// The unique accepting state.
    pub accept: u32,
}

impl Nfa {
    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.edges.len()
    }

    /// Compiles `expr` with the Thompson construction.
    ///
    /// The number of states is linear in the size of the expression.
    pub fn compile(expr: &PathExpr) -> Nfa {
        let mut b = Builder {
            edges: Vec::new(),
            tests: Vec::new(),
        };
        let (s, a) = b.frag(expr);
        Nfa {
            edges: b.edges,
            tests: b.tests,
            start: s,
            accept: a,
        }
    }

    /// The test referenced by a transition label, if any.
    pub fn test_of(&self, t: Trans) -> Option<&Test> {
        match t {
            Trans::Eps => None,
            Trans::Node(i) | Trans::Fwd(i) | Trans::Bwd(i) => Some(&self.tests[i as usize]),
        }
    }

    /// Compiles `expr` and minimizes the result: determinization over the
    /// extended alphabet followed by Hopcroft partition refinement. See
    /// [`Nfa::minimize`] for the guarantees.
    pub fn compile_min(expr: &PathExpr) -> MinimizedNfa {
        Nfa::compile(expr).minimize()
    }

    /// Minimizes this automaton while preserving its language over the
    /// extended alphabet `{Node(t), Fwd(t), Bwd(t)}` — and hence, exactly,
    /// the set of paths every product built from it matches.
    ///
    /// Pipeline: dedupe tests into a canonically ordered arena, determinize
    /// with the subset construction (ε-closure over structural ε only),
    /// minimize with Hopcroft partition refinement against an explicit dead
    /// state, and renumber states by BFS over symbols in canonical order.
    /// The result is the unique minimal DFA of the language, so its
    /// [`NfaSignature`] is a canonical cache key: distinct spellings of one
    /// query (beyond what [`crate::simplify`] rewrites) collapse to the
    /// same signature.
    ///
    /// If the subset construction would exceed [`MAX_DFA_STATES`] the
    /// original automaton is returned unchanged (`minimized: false`) with a
    /// structural signature — minimization is an optimization, never a
    /// requirement.
    pub fn minimize(&self) -> MinimizedNfa {
        match try_minimize(self) {
            Some(m) => m,
            None => MinimizedNfa {
                nfa: self.clone(),
                signature: raw_signature(self),
                minimized: false,
            },
        }
    }
}

/// Cap on the subset-construction size; expressions whose symbolic DFA
/// would exceed it fall back to the raw Thompson NFA.
pub const MAX_DFA_STATES: usize = 4096;

const KIND_NODE: u8 = 0;
const KIND_FWD: u8 = 1;
const KIND_BWD: u8 = 2;
/// Only appears in fallback (non-minimized) signatures.
const KIND_EPS: u8 = 3;

/// A minimized (or fallback) automaton plus its canonical signature.
#[derive(Clone, Debug)]
pub struct MinimizedNfa {
    /// The automaton to build products from.
    pub nfa: Nfa,
    /// Canonical cache key: equal for every expression spelling with the
    /// same extended-alphabet language (when `minimized` is true).
    pub signature: NfaSignature,
    /// False when the subset construction hit [`MAX_DFA_STATES`] and the
    /// raw Thompson automaton was kept.
    pub minimized: bool,
}

impl MinimizedNfa {
    /// True iff this automaton provably recognizes the empty language.
    ///
    /// Only a minimized signature can certify emptiness; on a fallback
    /// (non-minimized) automaton this conservatively returns false.
    pub fn is_empty_language(&self) -> bool {
        self.minimized && self.signature.is_empty_language()
    }
}

/// A hashable structural fingerprint of an automaton.
///
/// For a minimized automaton this is canonical for the language: states
/// are BFS-numbered over canonically ordered symbols, tests are deduped
/// and sorted by a spelling-independent encoding, and transitions are
/// listed in `(from, kind, test, to)` order.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NfaSignature {
    states: u32,
    start: u32,
    accepting: Vec<u32>,
    trans: Vec<(u32, u8, u32, u32)>,
    tests: Vec<Test>,
}

impl NfaSignature {
    /// Number of states fingerprinted.
    pub fn state_count(&self) -> usize {
        self.states as usize
    }

    /// True iff the fingerprinted automaton recognizes the empty language:
    /// no transitions at all and a non-accepting start state. Minimization
    /// collapses every empty-language automaton to exactly this shape, so
    /// on a minimized signature this is a complete emptiness test.
    pub fn is_empty_language(&self) -> bool {
        self.trans.is_empty() && !self.accepting.contains(&self.start)
    }
}

/// Canonical integer encoding of a test: a total order independent of
/// source spelling and arena numbering (syms are interner indices, which
/// are stable for one graph).
fn test_key(t: &Test, out: &mut Vec<u32>) {
    match t {
        Test::Label(s) => out.extend([0, s.0]),
        Test::Prop(p, v) => out.extend([1, p.0, v.0]),
        Test::Feature(i, v) => out.extend([2, *i as u32, v.0]),
        Test::Not(a) => {
            out.push(3);
            test_key(a, out);
        }
        Test::And(a, b) => {
            out.push(4);
            test_key(a, out);
            test_key(b, out);
        }
        Test::Or(a, b) => {
            out.push(5);
            test_key(a, out);
            test_key(b, out);
        }
    }
}

/// Structural signature of an unminimized automaton (fallback key):
/// deterministic per compiled expression, but not canonical across
/// spellings.
fn raw_signature(nfa: &Nfa) -> NfaSignature {
    let mut trans: Vec<(u32, u8, u32, u32)> = Vec::new();
    for (q, list) in nfa.edges.iter().enumerate() {
        for &(l, to) in list {
            let (kind, t) = match l {
                Trans::Eps => (KIND_EPS, 0),
                Trans::Node(t) => (KIND_NODE, t),
                Trans::Fwd(t) => (KIND_FWD, t),
                Trans::Bwd(t) => (KIND_BWD, t),
            };
            trans.push((q as u32, kind, t, to));
        }
    }
    trans.sort_unstable();
    NfaSignature {
        states: nfa.state_count() as u32,
        start: nfa.start,
        accepting: vec![nfa.accept],
        trans,
        tests: nfa.tests.clone(),
    }
}

/// The (start=0, accept=1, no transitions) automaton of the empty
/// language. Unreachable for compiled expressions (every `PathExpr`
/// denotes at least one extended word), kept as a defensive fallback.
fn empty_language() -> MinimizedNfa {
    MinimizedNfa {
        nfa: Nfa {
            edges: vec![Vec::new(), Vec::new()],
            tests: Vec::new(),
            start: 0,
            accept: 1,
        },
        signature: NfaSignature {
            states: 2,
            start: 0,
            accepting: vec![1],
            trans: Vec::new(),
            tests: Vec::new(),
        },
        minimized: true,
    }
}

fn try_minimize(nfa: &Nfa) -> Option<MinimizedNfa> {
    // Canonically ordered, deduplicated test arena.
    let mut keyed: Vec<(Vec<u32>, usize)> = nfa
        .tests
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut k = Vec::new();
            test_key(t, &mut k);
            (k, i)
        })
        .collect();
    keyed.sort();
    let mut canon_tests: Vec<Test> = Vec::new();
    let mut canon_keys: Vec<Vec<u32>> = Vec::new();
    let mut canon_of: Vec<u32> = vec![0; nfa.tests.len()];
    for (k, i) in keyed {
        if canon_keys.last() != Some(&k) {
            canon_keys.push(k);
            canon_tests.push(nfa.tests[i].clone());
        }
        canon_of[i] = (canon_tests.len() - 1) as u32;
    }

    // Symbol table over (kind, canonical test), canonically ordered.
    let sym_of = |l: Trans| -> Option<(u8, u32)> {
        match l {
            Trans::Eps => None,
            Trans::Node(t) => Some((KIND_NODE, canon_of[t as usize])),
            Trans::Fwd(t) => Some((KIND_FWD, canon_of[t as usize])),
            Trans::Bwd(t) => Some((KIND_BWD, canon_of[t as usize])),
        }
    };
    let mut symbols: Vec<(u8, u32)> = nfa
        .edges
        .iter()
        .flatten()
        .filter_map(|&(l, _)| sym_of(l))
        .collect();
    symbols.sort_unstable();
    symbols.dedup();
    let nsym = symbols.len();
    let sym_id: HashMap<(u8, u32), u32> = symbols
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();

    // Subset construction: ε-closure over structural ε only; `Node`
    // guards are consuming letters of the extended alphabet here.
    let closure = |seed: Vec<u32>| -> Vec<u32> {
        let mut seen = vec![false; nfa.state_count()];
        let mut stack = seed;
        for &q in &stack {
            seen[q as usize] = true;
        }
        let mut out = stack.clone();
        while let Some(q) = stack.pop() {
            for &(l, to) in &nfa.edges[q as usize] {
                if l == Trans::Eps && !seen[to as usize] {
                    seen[to as usize] = true;
                    stack.push(to);
                    out.push(to);
                }
            }
        }
        out.sort_unstable();
        out
    };

    let mut index: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut subsets: Vec<Vec<u32>> = Vec::new();
    let mut delta: Vec<u32> = Vec::new(); // row-major [state][symbol], MAX = missing
    let start_set = closure(vec![nfa.start]);
    index.insert(start_set.clone(), 0);
    subsets.push(start_set);
    let mut next_row = 0usize;
    while next_row < subsets.len() {
        let members = subsets[next_row].clone();
        next_row += 1;
        let mut per_sym: Vec<Vec<u32>> = vec![Vec::new(); nsym];
        for &q in &members {
            for &(l, to) in &nfa.edges[q as usize] {
                if let Some(s) = sym_of(l) {
                    per_sym[sym_id[&s] as usize].push(to);
                }
            }
        }
        let base = delta.len();
        delta.resize(base + nsym, u32::MAX);
        for (a, mut targets) in per_sym.into_iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            targets.sort_unstable();
            targets.dedup();
            let closed = closure(targets);
            let next_id = match index.get(&closed) {
                Some(&id) => id,
                None => {
                    if subsets.len() >= MAX_DFA_STATES {
                        return None;
                    }
                    let id = subsets.len() as u32;
                    index.insert(closed.clone(), id);
                    subsets.push(closed);
                    id
                }
            };
            delta[base + a] = next_id;
        }
    }

    // Complete the DFA with an explicit dead state, then refine.
    let nd = subsets.len();
    let n_all = nd + 1;
    let mut delta_all: Vec<u32> = Vec::with_capacity(n_all * nsym);
    for s in 0..nd {
        for a in 0..nsym {
            let t = delta[s * nsym + a];
            delta_all.push(if t == u32::MAX { nd as u32 } else { t });
        }
    }
    delta_all.extend(std::iter::repeat_n(nd as u32, nsym));
    let mut acc_all: Vec<bool> = subsets
        .iter()
        .map(|s| s.binary_search(&nfa.accept).is_ok())
        .collect();
    acc_all.push(false);
    let (blocks, block_of) = hopcroft(n_all, nsym, &delta_all, &acc_all);

    let dead_block = block_of[nd];
    let start_block = block_of[0];
    if start_block == dead_block {
        return Some(empty_language());
    }

    // Normalize: BFS over blocks from the start block, symbols in
    // canonical order, skipping the dead class. Block stability makes any
    // member a valid transition representative.
    let mut new_id: HashMap<u32, u32> = HashMap::new();
    let mut order: Vec<u32> = vec![start_block];
    new_id.insert(start_block, 0);
    let mut trans_rows: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut qi = 0;
    while qi < order.len() {
        let b = order[qi];
        qi += 1;
        let rep = blocks[b as usize][0] as usize;
        let mut row: Vec<(u32, u32)> = Vec::new();
        for a in 0..nsym {
            let tb = block_of[delta_all[rep * nsym + a] as usize];
            if tb == dead_block {
                continue;
            }
            row.push((a as u32, tb));
            if let std::collections::hash_map::Entry::Vacant(e) = new_id.entry(tb) {
                e.insert(order.len() as u32);
                order.push(tb);
            }
        }
        trans_rows.push(row);
    }

    let k = order.len();
    let accepting_new: Vec<u32> = order
        .iter()
        .enumerate()
        .filter(|&(_, &b)| acc_all[blocks[b as usize][0] as usize])
        .map(|(i, _)| i as u32)
        .collect();
    if accepting_new.is_empty() {
        return Some(empty_language());
    }

    // Trim the test arena to the surviving transitions, preserving the
    // canonical order (the used alphabet is determined by the language).
    let mut used: Vec<u32> = trans_rows
        .iter()
        .flatten()
        .map(|&(a, _)| symbols[a as usize].1)
        .collect();
    used.sort_unstable();
    used.dedup();
    let test_remap: HashMap<u32, u32> = used
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as u32))
        .collect();
    let tests: Vec<Test> = used
        .iter()
        .map(|&t| canon_tests[t as usize].clone())
        .collect();

    let mut edges: Vec<Vec<(Trans, u32)>> = vec![Vec::new(); k];
    let mut sig_trans: Vec<(u32, u8, u32, u32)> = Vec::new();
    for (i, row) in trans_rows.iter().enumerate() {
        for &(a, tb) in row {
            let (kind, ctest) = symbols[a as usize];
            let tid = test_remap[&ctest];
            let to = new_id[&tb];
            let label = match kind {
                KIND_NODE => Trans::Node(tid),
                KIND_FWD => Trans::Fwd(tid),
                _ => Trans::Bwd(tid),
            };
            edges[i].push((label, to));
            sig_trans.push((i as u32, kind, tid, to));
        }
    }
    sig_trans.sort_unstable();

    let signature = NfaSignature {
        states: k as u32,
        start: 0,
        accepting: accepting_new.clone(),
        trans: sig_trans,
        tests: tests.clone(),
    };

    // The `Nfa` interface wants a single accept state: reuse the unique
    // accepting class when there is one, otherwise collect the accepting
    // classes into a fresh state via ε.
    let accept = if accepting_new.len() == 1 {
        accepting_new[0]
    } else {
        let acc = k as u32;
        edges.push(Vec::new());
        for &s in &accepting_new {
            edges[s as usize].push((Trans::Eps, acc));
        }
        acc
    };

    Some(MinimizedNfa {
        nfa: Nfa {
            edges,
            tests,
            start: 0,
            accept,
        },
        signature,
        minimized: true,
    })
}

/// Hopcroft partition refinement over a complete DFA (`delta` is
/// row-major `[state][symbol]`). Returns the final blocks and each
/// state's block id.
fn hopcroft(n: usize, nsym: usize, delta: &[u32], accepting: &[bool]) -> (Vec<Vec<u32>>, Vec<u32>) {
    // Per-(target, symbol) predecessor lists.
    let mut inv: Vec<Vec<u32>> = vec![Vec::new(); n * nsym];
    for s in 0..n {
        for a in 0..nsym {
            inv[delta[s * nsym + a] as usize * nsym + a].push(s as u32);
        }
    }
    let acc: Vec<u32> = (0..n as u32).filter(|&s| accepting[s as usize]).collect();
    let rej: Vec<u32> = (0..n as u32).filter(|&s| !accepting[s as usize]).collect();
    let mut blocks: Vec<Vec<u32>> = [acc, rej].into_iter().filter(|b| !b.is_empty()).collect();
    let mut block_of: Vec<u32> = vec![0; n];
    for (bi, b) in blocks.iter().enumerate() {
        for &s in b {
            block_of[s as usize] = bi as u32;
        }
    }
    // Seed the worklist with every (block, symbol) splitter; over-full is
    // sound, and these automata are tiny.
    let mut work: Vec<(u32, u32)> = Vec::new();
    let mut in_work: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for bi in 0..blocks.len() as u32 {
        for a in 0..nsym as u32 {
            work.push((bi, a));
            in_work.insert((bi, a));
        }
    }
    let mut xmark = vec![false; n];
    while let Some((bi, a)) = work.pop() {
        in_work.remove(&(bi, a));
        // X: states stepping into the splitter block on symbol `a`.
        let splitter = blocks[bi as usize].clone();
        let mut xs: Vec<u32> = Vec::new();
        for &t in &splitter {
            for &s in &inv[t as usize * nsym + a as usize] {
                if !xmark[s as usize] {
                    xmark[s as usize] = true;
                    xs.push(s);
                }
            }
        }
        let mut touched: Vec<u32> = xs.iter().map(|&s| block_of[s as usize]).collect();
        touched.sort_unstable();
        touched.dedup();
        for bj in touched {
            let members = &blocks[bj as usize];
            let inx: Vec<u32> = members
                .iter()
                .copied()
                .filter(|&s| xmark[s as usize])
                .collect();
            if inx.len() == members.len() {
                continue;
            }
            let outx: Vec<u32> = members
                .iter()
                .copied()
                .filter(|&s| !xmark[s as usize])
                .collect();
            let nk = blocks.len() as u32;
            blocks[bj as usize] = inx;
            for &s in &outx {
                block_of[s as usize] = nk;
            }
            blocks.push(outx);
            // Hopcroft's worklist rule: a pending splitter splits with
            // its block; otherwise refining against the smaller half
            // suffices.
            for sym in 0..nsym as u32 {
                let key = if in_work.contains(&(bj, sym)) {
                    (nk, sym)
                } else if blocks[bj as usize].len() <= blocks[nk as usize].len() {
                    (bj, sym)
                } else {
                    (nk, sym)
                };
                if in_work.insert(key) {
                    work.push(key);
                }
            }
        }
        for s in xs {
            xmark[s as usize] = false;
        }
    }
    (blocks, block_of)
}

struct Builder {
    edges: Vec<Vec<(Trans, u32)>>,
    tests: Vec<Test>,
}

impl Builder {
    fn state(&mut self) -> u32 {
        self.edges.push(Vec::new());
        (self.edges.len() - 1) as u32
    }

    fn add(&mut self, from: u32, label: Trans, to: u32) {
        self.edges[from as usize].push((label, to));
    }

    fn test(&mut self, t: &Test) -> u32 {
        self.tests.push(t.clone());
        (self.tests.len() - 1) as u32
    }

    /// Returns the (start, accept) pair of the compiled fragment.
    fn frag(&mut self, e: &PathExpr) -> (u32, u32) {
        match e {
            PathExpr::NodeTest(t) => {
                let s = self.state();
                let a = self.state();
                let ti = self.test(t);
                self.add(s, Trans::Node(ti), a);
                (s, a)
            }
            PathExpr::Forward(t) => {
                let s = self.state();
                let a = self.state();
                let ti = self.test(t);
                self.add(s, Trans::Fwd(ti), a);
                (s, a)
            }
            PathExpr::Backward(t) => {
                let s = self.state();
                let a = self.state();
                let ti = self.test(t);
                self.add(s, Trans::Bwd(ti), a);
                (s, a)
            }
            PathExpr::Alt(l, r) => {
                let (ls, la) = self.frag(l);
                let (rs, ra) = self.frag(r);
                let s = self.state();
                let a = self.state();
                self.add(s, Trans::Eps, ls);
                self.add(s, Trans::Eps, rs);
                self.add(la, Trans::Eps, a);
                self.add(ra, Trans::Eps, a);
                (s, a)
            }
            PathExpr::Concat(l, r) => {
                let (ls, la) = self.frag(l);
                let (rs, ra) = self.frag(r);
                self.add(la, Trans::Eps, rs);
                (ls, ra)
            }
            PathExpr::Star(inner) => {
                let (is, ia) = self.frag(inner);
                let s = self.state();
                let a = self.state();
                self.add(s, Trans::Eps, is);
                self.add(s, Trans::Eps, a);
                self.add(ia, Trans::Eps, is);
                self.add(ia, Trans::Eps, a);
                (s, a)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use kgq_graph::Interner;

    fn compile(s: &str) -> Nfa {
        let mut it = Interner::new();
        let e = parse_expr(s, &mut it).unwrap();
        Nfa::compile(&e)
    }

    #[test]
    fn single_atom_has_two_states() {
        let nfa = compile("rides");
        assert_eq!(nfa.state_count(), 2);
        assert_eq!(nfa.edges[nfa.start as usize].len(), 1);
        let (label, to) = nfa.edges[nfa.start as usize][0];
        assert!(matches!(label, Trans::Fwd(_)));
        assert_eq!(to, nfa.accept);
    }

    #[test]
    fn backward_atom_uses_bwd() {
        let nfa = compile("rides^-");
        let (label, _) = nfa.edges[nfa.start as usize][0];
        assert!(matches!(label, Trans::Bwd(_)));
    }

    #[test]
    fn node_test_is_guarded_eps() {
        let nfa = compile("?person");
        let (label, _) = nfa.edges[nfa.start as usize][0];
        assert!(matches!(label, Trans::Node(_)));
    }

    #[test]
    fn state_count_is_linear() {
        let nfa = compile("?person/rides/?bus/rides^-/?infected");
        // Thompson: 2 states per atom, concat adds none.
        assert_eq!(nfa.state_count(), 10);
        let nfa = compile("(a+b)*");
        assert_eq!(nfa.state_count(), 8); // 4 atoms' states + 2 alt + 2 star
    }

    #[test]
    fn star_allows_skipping() {
        let nfa = compile("a*");
        // start must reach accept via ε only.
        let mut seen = vec![false; nfa.state_count()];
        let mut stack = vec![nfa.start];
        seen[nfa.start as usize] = true;
        while let Some(q) = stack.pop() {
            for &(l, t) in &nfa.edges[q as usize] {
                if l == Trans::Eps && !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t);
                }
            }
        }
        assert!(seen[nfa.accept as usize]);
    }

    #[test]
    fn tests_are_shared_in_arena() {
        let nfa = compile("{contact & [date='3/4/21']}");
        assert_eq!(nfa.tests.len(), 1);
        let (label, _) = nfa.edges[nfa.start as usize][0];
        let t = nfa.test_of(label).unwrap();
        assert!(matches!(t, Test::And(_, _)));
        assert!(nfa.test_of(Trans::Eps).is_none());
    }

    fn compile_min(s: &str) -> MinimizedNfa {
        let mut it = Interner::new();
        let e = parse_expr(s, &mut it).unwrap();
        Nfa::compile_min(&e)
    }

    #[test]
    fn minimize_collapses_kleene_star_to_one_state() {
        // `(a+b)*` over single labels is the universal language over
        // {a, b}: its minimal DFA is one accepting state with self-loops.
        let m = compile_min("(a+b)*");
        assert!(m.minimized);
        assert_eq!(m.nfa.state_count(), 1);
        assert_eq!(m.nfa.start, m.nfa.accept);
        assert_eq!(m.signature.state_count(), 1);
        // Raw Thompson needs 8 states for the same expression.
        assert_eq!(compile("(a+b)*").state_count(), 8);
    }

    #[test]
    fn minimize_is_canonical_across_spellings() {
        // One interner, so syms are comparable across expressions.
        let mut it = Interner::new();
        let mut min = |s: &str| Nfa::compile_min(&parse_expr(s, &mut it).unwrap());
        // Distribution: a/(b+c) and a/b + a/c denote the same language,
        // and so must produce identical signatures...
        let left = min("a/(b+c)");
        let right = min("a/b + a/c");
        assert!(left.minimized && right.minimized);
        assert_eq!(left.signature, right.signature);
        // ...while a different language yields a different one.
        let other = min("a/b + a/d");
        assert_ne!(left.signature, other.signature);
    }

    #[test]
    fn minimize_handles_inverse_and_node_tests() {
        // Minimization treats Fwd/Bwd/Node as distinct letters: no
        // cross-kind merging even over the same underlying test.
        let fwd = compile_min("rides");
        let bwd = compile_min("rides^-");
        assert_ne!(fwd.signature, bwd.signature);
        let guarded = compile_min("?person/rides");
        assert!(guarded.minimized);
        // ?person/rides is Node(person)·Fwd(rides): 3 live classes.
        assert_eq!(guarded.signature.state_count(), 3);
    }

    #[test]
    fn minimize_never_changes_acceptance_on_figure2() {
        use crate::eval::test_support::all_pairs;
        use crate::eval::Evaluator;
        use crate::model::LabeledView;
        use crate::product::Product;
        use kgq_graph::figures::figure2_labeled;
        use std::sync::Arc;
        let mut g = figure2_labeled();
        let exprs: Vec<PathExpr> = [
            "rides/rides^-",
            "(rides/rides^-)*",
            "?infected/(rides/rides^-)*",
        ]
        .iter()
        .map(|src| parse_expr(src, g.consts_mut()).unwrap())
        .collect();
        let view = LabeledView::new(&g);
        for e in &exprs {
            let raw = Evaluator::from_product(Arc::new(Product::build(&view, &Nfa::compile(e))));
            let min =
                Evaluator::from_product(Arc::new(Product::build(&view, &Nfa::compile_min(e).nfa)));
            assert_eq!(all_pairs(&raw), all_pairs(&min), "expr {e:?}");
        }
    }

    #[test]
    fn minimize_is_deterministic() {
        let a = compile_min("(rides/rides^-)* + ?infected");
        let b = compile_min("(rides/rides^-)* + ?infected");
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.nfa.edges, b.nfa.edges);
        assert_eq!(a.nfa.tests, b.nfa.tests);
    }
}
