//! Static analysis of Horn-rule programs, mirroring the BGP and RPQ
//! analyzers: typed [`Diagnostic`]s on the shared severity ladder plus a
//! termination-bound verdict the governed fixpoint consults before
//! spending budget.
//!
//! Checks:
//!
//! * `unsafe-rule` (deny) — a head variable does not occur in the body.
//!   [`crate::rules::Rule::new`] already rejects this, but the fields of
//!   [`Rule`] are public, so the analyzer re-derives safety for rules
//!   built directly.
//! * `dead-rule` (warn) — a body pattern names a constant predicate that
//!   is neither in the store vocabulary nor derivable by any live rule,
//!   so the rule can never fire. Computed to a fixpoint: rules that only
//!   feed dead rules die with them.
//! * `recursive-program` (note) — the predicate dependency graph has a
//!   cycle; the fixpoint must iterate rather than finish in one stratum.
//! * `subsumed-rule` / `duplicate-rule` (note) — θ-subsumption: some
//!   other rule derives everything this rule derives (a substitution
//!   maps its head onto this head and its body into this body), so the
//!   rule is redundant.
//!
//! The verdict part: a predicate stratification (informational — Horn
//! programs without negation always stratify), and a derivation bound —
//! the maximum number of triples the program can ever derive (product of
//! active-domain sizes over non-constant head positions, summed over
//! rules), from which the round bound `derivations + 1` follows because
//! every productive round derives at least one new triple.

use crate::rules::Rule;
use kgq_core::analyze::{Diagnostic, Severity};
use kgq_graph::Sym;
use kgq_rdf::bgp::{TermPattern, TriplePattern};
use kgq_rdf::store::TripleStore;

/// The static verdict for one rule program against one store.
#[derive(Clone, Debug, Default)]
pub struct ProgramReport {
    /// Findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// Indices of rules that can never fire on this store (their body
    /// mentions an underivable predicate). The fixpoint skips them.
    pub dead_rules: Vec<usize>,
    /// True when the predicate dependency graph is cyclic.
    pub recursive: bool,
    /// Derived predicates with their stratum (1-based; a predicate's
    /// stratum exceeds every predicate it depends on, cycles share one).
    pub strata: Vec<(String, usize)>,
    /// Upper bound on the number of triples the program can derive.
    pub derivation_bound: u64,
    /// Upper bound on fixpoint rounds (`derivation_bound + 1`: every
    /// productive round derives at least one new triple, plus the final
    /// empty round). The governed fixpoint consults this to pre-size its
    /// iteration budget.
    pub round_bound: u64,
}

impl ProgramReport {
    /// True when any finding is [`Severity::Deny`].
    pub fn denied(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }

    /// Renders diagnostics and verdict — the `kgq analyze rules` and
    /// `ANALYZE` surface.
    pub fn render(&self) -> String {
        let mut out = String::from("== diagnostics ==\n");
        if self.diagnostics.is_empty() {
            out.push_str("(none)\n");
        } else {
            for d in &self.diagnostics {
                out.push_str(&format!("{d}\n"));
            }
        }
        out.push_str("== verdict ==\n");
        out.push_str(&format!(
            "dead rules: {}\n",
            if self.dead_rules.is_empty() {
                "(none)".to_owned()
            } else {
                format!("{:?}", self.dead_rules)
            }
        ));
        out.push_str(&format!(
            "recursive: {}\n",
            if self.recursive { "yes" } else { "no" }
        ));
        if self.strata.is_empty() {
            out.push_str("strata: (none)\n");
        } else {
            let parts: Vec<String> = self
                .strata
                .iter()
                .map(|(p, s)| format!("{p}={s}"))
                .collect();
            out.push_str(&format!("strata: {}\n", parts.join(" ")));
        }
        out.push_str(&format!(
            "derivation bound: {} triples\nround bound: {}\n",
            self.derivation_bound, self.round_bound
        ));
        out
    }
}

fn body_var_names(rule: &Rule) -> Vec<&str> {
    let mut vars = Vec::new();
    for pat in &rule.body.patterns {
        for t in [&pat.s, &pat.p, &pat.o] {
            if let TermPattern::Var(v) = t {
                if !vars.contains(&v.as_str()) {
                    vars.push(v.as_str());
                }
            }
        }
    }
    vars
}

fn const_pred(p: &TriplePattern) -> Option<Sym> {
    match p.p {
        TermPattern::Const(c) => Some(c),
        TermPattern::Var(_) => None,
    }
}

/// θ-subsumption term match: `a`'s variables map to arbitrary terms of
/// `b`, consistently across the whole rule.
fn match_term<'a>(
    a: &'a TermPattern,
    b: &TermPattern,
    theta: &mut Vec<(&'a str, TermPattern)>,
) -> bool {
    match a {
        TermPattern::Const(x) => matches!(b, TermPattern::Const(y) if x == y),
        TermPattern::Var(v) => match theta.iter().find(|(u, _)| u == v) {
            Some((_, t)) => t == b,
            None => {
                theta.push((v.as_str(), b.clone()));
                true
            }
        },
    }
}

fn match_pattern<'a>(
    a: &'a TriplePattern,
    b: &TriplePattern,
    theta: &mut Vec<(&'a str, TermPattern)>,
) -> bool {
    match_term(&a.s, &b.s, theta) && match_term(&a.p, &b.p, theta) && match_term(&a.o, &b.o, theta)
}

fn match_body<'a>(
    av: &'a [TriplePattern],
    bv: &[TriplePattern],
    theta: &mut Vec<(&'a str, TermPattern)>,
) -> bool {
    let Some(first) = av.first() else {
        return true;
    };
    for bp in bv {
        let mut attempt = theta.clone();
        if match_pattern(first, bp, &mut attempt) && match_body(&av[1..], bv, &mut attempt) {
            *theta = attempt;
            return true;
        }
    }
    false
}

/// True when `a` θ-subsumes `b`: a substitution maps `a`'s head onto
/// `b`'s head and `a`'s body into `b`'s body, so every triple `b`
/// derives, `a` derives too.
fn subsumes(a: &Rule, b: &Rule) -> bool {
    let mut theta: Vec<(&str, TermPattern)> = Vec::new();
    match_pattern(&a.head, &b.head, &mut theta)
        && match_body(&a.body.patterns, &b.body.patterns, &mut theta)
}

/// Analyzes a rule program against a store: safety, dead rules,
/// recursion/strata, redundancy, and the termination bound.
/// [`crate::rules::fixpoint_governed`] consults the result before
/// executing.
pub fn analyze_program(st: &TripleStore, rules: &[Rule]) -> ProgramReport {
    let mut report = ProgramReport::default();

    // Safety (range restriction), re-derived for directly-built rules.
    for (i, rule) in rules.iter().enumerate() {
        let vars = body_var_names(rule);
        for t in [&rule.head.s, &rule.head.p, &rule.head.o] {
            if let TermPattern::Var(v) = t {
                if !vars.contains(&v.as_str()) {
                    report.diagnostics.push(Diagnostic {
                        severity: Severity::Deny,
                        code: "unsafe-rule",
                        message: format!(
                            "rule {i}: head variable ?{v} does not occur in the body; derived triples would not be ground"
                        ),
                        span: None,
                    });
                }
            }
        }
    }

    // Predicate dependency graph over constant predicates. A variable
    // head predicate makes the derivable set unknowable, so dead-rule
    // detection is skipped conservatively in that case.
    let any_var_head = rules
        .iter()
        .any(|r| matches!(r.head.p, TermPattern::Var(_)));
    let mut preds: Vec<Sym> = Vec::new();
    let add_pred = |preds: &mut Vec<Sym>, s: Sym| {
        if !preds.contains(&s) {
            preds.push(s);
        }
    };
    for rule in rules {
        if let Some(h) = const_pred(&rule.head) {
            add_pred(&mut preds, h);
        }
        for pat in &rule.body.patterns {
            if let Some(b) = const_pred(pat) {
                add_pred(&mut preds, b);
            }
        }
    }
    // depends[i][j]: predicate i's derivation reads predicate j.
    let np = preds.len();
    let mut depends = vec![vec![false; np]; np];
    for rule in rules {
        let Some(h) = const_pred(&rule.head) else {
            continue;
        };
        let Some(hi) = preds.iter().position(|&p| p == h) else {
            continue;
        };
        for pat in &rule.body.patterns {
            if let Some(b) = const_pred(pat) {
                if let Some(bi) = preds.iter().position(|&p| p == b) {
                    depends[hi][bi] = true;
                }
            }
        }
    }
    // Transitive closure (programs are tiny).
    for k in 0..np {
        for i in 0..np {
            if depends[i][k] {
                for j in 0..np {
                    if depends[k][j] {
                        depends[i][j] = true;
                    }
                }
            }
        }
    }
    let recursive_preds: Vec<Sym> = (0..np)
        .filter(|&i| depends[i][i])
        .map(|i| preds[i])
        .collect();
    // A rule whose body reads its own (variable-predicate-free) head
    // counts, and so does a variable head predicate joined with a
    // variable body predicate — conservatively recursive.
    report.recursive = !recursive_preds.is_empty()
        || (any_var_head
            && rules
                .iter()
                .any(|r| r.body.patterns.iter().any(|p| const_pred(p).is_none())));
    if !recursive_preds.is_empty() {
        let names: Vec<&str> = recursive_preds.iter().map(|&p| st.term_str(p)).collect();
        report.diagnostics.push(Diagnostic {
            severity: Severity::Note,
            code: "recursive-program",
            message: format!(
                "predicate dependency cycle through {{{}}}; the fixpoint iterates up to the round bound",
                names.join(", ")
            ),
            span: None,
        });
    }

    // Dead rules, to a fixpoint: start from vocabulary + every head, keep
    // removing heads whose rules cannot fire.
    if !any_var_head {
        let mut dead: Vec<usize> = Vec::new();
        loop {
            let mut derivable: Vec<Sym> = preds
                .iter()
                .copied()
                .filter(|&p| st.count(None, Some(p), None) > 0)
                .collect();
            for (i, rule) in rules.iter().enumerate() {
                if dead.contains(&i) {
                    continue;
                }
                if let Some(h) = const_pred(&rule.head) {
                    if !derivable.contains(&h) {
                        derivable.push(h);
                    }
                }
            }
            let next_dead: Vec<usize> = rules
                .iter()
                .enumerate()
                .filter(|(_, rule)| {
                    rule.body
                        .patterns
                        .iter()
                        .any(|pat| const_pred(pat).is_some_and(|b| !derivable.contains(&b)))
                })
                .map(|(i, _)| i)
                .collect();
            if next_dead == dead {
                break;
            }
            dead = next_dead;
        }
        for &i in &dead {
            report.diagnostics.push(Diagnostic {
                severity: Severity::Warn,
                code: "dead-rule",
                message: format!(
                    "rule {i} can never fire: its body reads a predicate that is neither in the store vocabulary nor derivable"
                ),
                span: None,
            });
        }
        report.dead_rules = dead;
    }

    // Stratification: every derived predicate one stratum above the
    // derived predicates it reads, cycle members sharing a stratum.
    let derived: Vec<usize> = (0..np)
        .filter(|&i| rules.iter().any(|r| const_pred(&r.head) == Some(preds[i])))
        .collect();
    let mut stratum = vec![1usize; np];
    for _ in 0..=np {
        for &hi in &derived {
            for &bi in &derived {
                if hi != bi && depends[hi][bi] && !(depends[bi][hi]) {
                    stratum[hi] = stratum[hi].max(stratum[bi] + 1);
                }
                // Cycle members share the maximum stratum of the cycle.
                if hi != bi && depends[hi][bi] && depends[bi][hi] {
                    let m = stratum[hi].max(stratum[bi]);
                    stratum[hi] = m;
                    stratum[bi] = m;
                }
            }
        }
    }
    report.strata = derived
        .iter()
        .map(|&i| (st.term_str(preds[i]).to_owned(), stratum[i]))
        .collect();

    // Redundancy: θ-subsumption between rule pairs. Flag the subsumed
    // rule; for mutually-subsuming (renaming-equivalent) pairs flag the
    // later one only.
    for i in 0..rules.len() {
        for j in 0..rules.len() {
            if i == j {
                continue;
            }
            if subsumes(&rules[i], &rules[j]) && (i < j || !subsumes(&rules[j], &rules[i])) {
                let equal = rules[i].head == rules[j].head
                    && rules[i].body.patterns == rules[j].body.patterns;
                report.diagnostics.push(Diagnostic {
                    severity: Severity::Note,
                    code: if equal {
                        "duplicate-rule"
                    } else {
                        "subsumed-rule"
                    },
                    message: format!(
                        "rule {j} is {} rule {i}; it derives nothing rule {i} does not",
                        if equal {
                            "a duplicate of"
                        } else {
                            "subsumed by"
                        }
                    ),
                    span: None,
                });
            }
        }
    }

    // Termination bound: per rule, the product over head positions of 1
    // (constant) or the active-domain size (variable); summed, saturating.
    let adom = st.terms().len() as u64;
    let mut bound = 0u64;
    for rule in rules {
        let mut per_rule = 1u64;
        for t in [&rule.head.s, &rule.head.p, &rule.head.o] {
            per_rule = per_rule.saturating_mul(match t {
                TermPattern::Const(_) => 1,
                TermPattern::Var(_) => adom.max(1),
            });
        }
        bound = bound.saturating_add(per_rule);
    }
    report.derivation_bound = bound;
    report.round_bound = bound.saturating_add(1);

    report
        .diagnostics
        .sort_by_key(|d| std::cmp::Reverse(d.severity));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgq_rdf::bgp::Bgp;

    fn chain_store(n: usize) -> TripleStore {
        let mut st = TripleStore::new();
        for i in 0..n {
            st.insert_strs(&format!("n{i}"), "edge", &format!("n{}", i + 1));
        }
        st
    }

    fn closure_rules(st: &mut TripleStore) -> Vec<Rule> {
        vec![
            Rule::parse(st, ("?x", "path", "?y"), &[("?x", "edge", "?y")]).unwrap(),
            Rule::parse(
                st,
                ("?x", "path", "?z"),
                &[("?x", "path", "?y"), ("?y", "edge", "?z")],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn closure_program_is_recursive_and_clean() {
        let mut st = chain_store(4);
        let rules = closure_rules(&mut st);
        let rep = analyze_program(&st, &rules);
        assert!(rep.recursive);
        assert!(!rep.denied());
        assert!(rep.dead_rules.is_empty());
        assert!(rep
            .diagnostics
            .iter()
            .any(|d| d.code == "recursive-program"));
        // path depends on edge (base) and itself; single derived pred.
        assert_eq!(rep.strata, vec![("path".to_owned(), 1)]);
        assert!(rep.render().contains("recursive: yes"));
    }

    #[test]
    fn empty_program_has_zero_bound() {
        let st = chain_store(2);
        let rep = analyze_program(&st, &[]);
        assert!(!rep.recursive);
        assert_eq!(rep.derivation_bound, 0);
        assert_eq!(rep.round_bound, 1);
        assert!(rep.diagnostics.is_empty());
    }

    #[test]
    fn dead_rule_is_detected_transitively() {
        let mut st = chain_store(2);
        // ghost is neither stored nor derived; the wraith rule only feeds
        // on ghost, so it is dead too — transitively.
        let rules = vec![
            Rule::parse(&mut st, ("?x", "haunt", "?y"), &[("?x", "ghost", "?y")]).unwrap(),
            Rule::parse(&mut st, ("?x", "wraith", "?y"), &[("?x", "haunt", "?y")]).unwrap(),
            Rule::parse(&mut st, ("?x", "hop", "?y"), &[("?x", "edge", "?y")]).unwrap(),
        ];
        let rep = analyze_program(&st, &rules);
        assert_eq!(rep.dead_rules, vec![0, 1]);
        assert_eq!(
            rep.diagnostics
                .iter()
                .filter(|d| d.code == "dead-rule")
                .count(),
            2
        );
    }

    #[test]
    fn unsafe_directly_built_rule_is_denied() {
        let mut st = chain_store(2);
        let mut body = Bgp::new();
        body.add(&mut st, "?x", "edge", "?y");
        let mut head_holder = Bgp::new();
        head_holder.add(&mut st, "?x", "edge", "?ghost");
        // Bypasses Rule::new on purpose: fields are public.
        let rule = Rule {
            head: head_holder.patterns.remove(0),
            body,
        };
        let rep = analyze_program(&st, &[rule]);
        assert!(rep.denied());
        assert!(rep
            .diagnostics
            .iter()
            .any(|d| d.code == "unsafe-rule" && d.message.contains("?ghost")));
    }

    #[test]
    fn renamed_rule_is_flagged_once_as_duplicate() {
        let mut st = chain_store(2);
        let rules = vec![
            Rule::parse(&mut st, ("?x", "hop", "?y"), &[("?x", "edge", "?y")]).unwrap(),
            Rule::parse(&mut st, ("?a", "hop", "?b"), &[("?a", "edge", "?b")]).unwrap(),
        ];
        let rep = analyze_program(&st, &rules);
        let notes: Vec<_> = rep
            .diagnostics
            .iter()
            .filter(|d| d.code == "subsumed-rule" || d.code == "duplicate-rule")
            .collect();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].message.contains("rule 1"));
    }

    #[test]
    fn more_general_rule_subsumes_specialized_one() {
        let mut st = chain_store(2);
        st.insert_strs("n0", "tag", "special");
        let rules = vec![
            Rule::parse(&mut st, ("?x", "hop", "?y"), &[("?x", "edge", "?y")]).unwrap(),
            // Same head shape, stricter body: subsumed by rule 0.
            Rule::parse(
                &mut st,
                ("?x", "hop", "?y"),
                &[("?x", "edge", "?y"), ("?x", "tag", "special")],
            )
            .unwrap(),
        ];
        let rep = analyze_program(&st, &rules);
        assert!(rep
            .diagnostics
            .iter()
            .any(|d| d.code == "subsumed-rule" && d.message.contains("rule 1")));
    }

    #[test]
    fn strata_order_layered_programs() {
        let mut st = chain_store(3);
        let rules = vec![
            Rule::parse(&mut st, ("?x", "hop", "?y"), &[("?x", "edge", "?y")]).unwrap(),
            Rule::parse(
                &mut st,
                ("?x", "skip", "?z"),
                &[("?x", "hop", "?y"), ("?y", "hop", "?z")],
            )
            .unwrap(),
        ];
        let rep = analyze_program(&st, &rules);
        assert!(!rep.recursive);
        let hop = rep.strata.iter().find(|(p, _)| p == "hop").unwrap().1;
        let skip = rep.strata.iter().find(|(p, _)| p == "skip").unwrap().1;
        assert!(skip > hop, "skip={skip} hop={hop}");
    }

    #[test]
    fn termination_bound_dominates_actual_derivations() {
        let mut st = chain_store(4);
        let rules = closure_rules(&mut st);
        let rep = analyze_program(&st, &rules);
        let gov = kgq_core::Governor::unlimited();
        let res = crate::rules::fixpoint_governed(&mut st, &rules, &gov).unwrap();
        assert!(!res.is_partial());
        let stats = res.value;
        assert!(rep.derivation_bound >= stats.derived as u64);
        assert!(rep.round_bound >= stats.rounds as u64);
    }
}
