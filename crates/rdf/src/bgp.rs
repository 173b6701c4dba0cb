//! Basic graph pattern matching — the conjunctive core of SPARQL \[38\].
//!
//! A [`Bgp`] is a set of triple patterns whose positions are constants or
//! variables; an answer is a binding of variables to terms under which
//! every pattern is a triple of the store ("pattern matching … usually
//! approached with logical methods", paper §2.1). Evaluation is
//! backtracking search with a greedy join order: at each step the
//! pattern with the most bound positions (fewest expected matches) runs
//! next, using the store's index-selected scans.

use crate::store::{Triple, TripleStore};
use kgq_graph::Sym;
use std::collections::HashMap;

/// A variable name (e.g. `"x"` for `?x`).
pub type VarName = String;

/// A position in a triple pattern: constant term or variable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TermPattern {
    /// A fixed term.
    Const(Sym),
    /// A variable to bind.
    Var(VarName),
}

impl TermPattern {
    fn as_const(&self, env: &Binding) -> Option<Sym> {
        match self {
            TermPattern::Const(s) => Some(*s),
            TermPattern::Var(v) => env.get(v).copied(),
        }
    }
}

/// One triple pattern.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TriplePattern {
    /// Subject position.
    pub s: TermPattern,
    /// Predicate position.
    pub p: TermPattern,
    /// Object position.
    pub o: TermPattern,
}

impl TriplePattern {
    fn bound_count(&self, env: &Binding) -> usize {
        [&self.s, &self.p, &self.o]
            .iter()
            .filter(|t| t.as_const(env).is_some())
            .count()
    }

    fn matches_into(&self, t: Triple, env: &mut Binding) -> bool {
        // Bind or check each position; record which vars we bound so the
        // caller can undo. We instead clone-on-write at the call site.
        for (pat, val) in [(&self.s, t.s), (&self.p, t.p), (&self.o, t.o)] {
            match pat {
                TermPattern::Const(c) => {
                    if *c != val {
                        return false;
                    }
                }
                TermPattern::Var(v) => match env.get(v) {
                    Some(&bound) => {
                        if bound != val {
                            return false;
                        }
                    }
                    None => {
                        env.insert(v.clone(), val);
                    }
                },
            }
        }
        true
    }
}

/// A variable binding.
pub type Binding = HashMap<VarName, Sym>;

/// A basic graph pattern: a conjunction of triple patterns.
#[derive(Clone, Debug, Default)]
pub struct Bgp {
    /// The patterns (order does not affect semantics).
    pub patterns: Vec<TriplePattern>,
}

impl Bgp {
    /// Creates an empty pattern.
    pub fn new() -> Bgp {
        Bgp::default()
    }

    /// Adds a pattern; positions starting with `?` are variables, other
    /// strings are interned as constants.
    pub fn add(&mut self, st: &mut TripleStore, s: &str, p: &str, o: &str) -> &mut Self {
        let mk = |st: &mut TripleStore, t: &str| -> TermPattern {
            match t.strip_prefix('?') {
                Some(v) => TermPattern::Var(v.to_owned()),
                None => TermPattern::Const(st.term(t)),
            }
        };
        let pat = TriplePattern {
            s: mk(st, s),
            p: mk(st, p),
            o: mk(st, o),
        };
        self.patterns.push(pat);
        self
    }

    /// The original backtracking matcher (greedy most-bound-first pattern
    /// order). Kept as the oracle baseline: the proptests assert it
    /// agrees with [`crate::lftj::solve_planned_governed`] as a multiset,
    /// and `exp_bgp` measures the speedup against it.
    pub fn solve_baseline(&self, st: &TripleStore) -> Vec<Binding> {
        let mut results = Vec::new();
        let mut remaining: Vec<&TriplePattern> = self.patterns.iter().collect();
        let mut env = Binding::new();
        backtrack(st, &mut remaining, &mut env, &mut results);
        results
    }
}

fn backtrack(
    st: &TripleStore,
    remaining: &mut Vec<&TriplePattern>,
    env: &mut Binding,
    out: &mut Vec<Binding>,
) {
    if remaining.is_empty() {
        out.push(env.clone());
        return;
    }
    // Greedy: most-bound pattern next.
    let (idx, _) = remaining
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| p.bound_count(env))
        .expect("non-empty");
    let pattern = remaining.remove(idx);
    let s = pattern.s.as_const(env);
    let p = pattern.p.as_const(env);
    let o = pattern.o.as_const(env);
    // Collect matches first (the scan borrows the store immutably; env
    // mutation happens per candidate).
    let candidates: Vec<Triple> = st.scan(s, p, o).collect();
    for t in candidates {
        let mut child = env.clone();
        if pattern.matches_into(t, &mut child) {
            let mut env2 = child;
            backtrack(st, remaining, &mut env2, out);
        }
    }
    remaining.insert(idx, pattern);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgq_core::govern::Governor;

    /// Solves `q` with the leapfrog triejoin under an unlimited governor.
    fn solve_all(q: &Bgp, st: &TripleStore) -> Vec<Binding> {
        let plan = crate::lftj::plan(st, q);
        let res = crate::lftj::solve_planned_governed(st, q, &plan, 1, &Governor::unlimited());
        res.unwrap().value.bindings()
    }

    fn sample() -> TripleStore {
        let mut st = TripleStore::new();
        st.insert_strs("alice", "knows", "bob");
        st.insert_strs("bob", "knows", "carol");
        st.insert_strs("carol", "knows", "alice");
        st.insert_strs("alice", "type", "Person");
        st.insert_strs("bob", "type", "Person");
        st.insert_strs("carol", "type", "Robot");
        st
    }

    #[test]
    fn single_pattern_binds_all_matches() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        let res = solve_all(&q, &st);
        assert_eq!(res.len(), 3);
        for b in &res {
            assert!(b.contains_key("x") && b.contains_key("y"));
        }
    }

    #[test]
    fn join_across_patterns() {
        // ?x knows ?y . ?y type Person — knowers of persons.
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?y");
        q.add(&mut st, "?y", "type", "Person");
        let res = solve_all(&q, &st);
        let mut xs: Vec<&str> = res.iter().map(|b| st.term_str(b["x"])).collect();
        xs.sort_unstable();
        assert_eq!(xs, vec!["alice", "carol"]);
    }

    #[test]
    fn shared_variable_within_one_pattern() {
        let mut st = sample();
        st.insert_strs("n", "knows", "n"); // self-knower
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "knows", "?x");
        let res = solve_all(&q, &st);
        assert_eq!(res.len(), 1);
        assert_eq!(st.term_str(res[0]["x"]), "n");
    }

    #[test]
    fn triangle_pattern() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?a", "knows", "?b");
        q.add(&mut st, "?b", "knows", "?c");
        q.add(&mut st, "?c", "knows", "?a");
        let res = solve_all(&q, &st);
        // The 3-cycle matches in 3 rotations.
        assert_eq!(res.len(), 3);
    }

    #[test]
    fn unsatisfiable_pattern_is_empty() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "?x", "likes", "?y");
        assert!(solve_all(&q, &st).is_empty());
    }

    #[test]
    fn constant_only_pattern_checks_membership() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "alice", "knows", "bob");
        assert_eq!(solve_all(&q, &st).len(), 1);
        let mut q2 = Bgp::new();
        q2.add(&mut st, "alice", "knows", "carol");
        assert!(solve_all(&q2, &st).is_empty());
    }

    #[test]
    fn variable_predicate() {
        let mut st = sample();
        let mut q = Bgp::new();
        q.add(&mut st, "alice", "?p", "?o");
        let res = solve_all(&q, &st);
        assert_eq!(res.len(), 2); // knows bob, type Person
    }
}
