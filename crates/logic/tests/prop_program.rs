//! Property-based tests for Horn-rule program analysis: on random base
//! stores and random (always-safe) rule programs, the analyzer's
//! verdicts must agree with materialization — the round bound never
//! truncates a fixpoint, rules proven dead really derive nothing, the
//! termination bound dominates actual derivations, and the governed
//! evaluator with an unlimited budget matches naive iteration over the
//! backtracking matcher.

use kgq_core::govern::{Budget, Completion, Governor};
use kgq_logic::{analyze_program, fixpoint_governed, parse_program, FixpointStats, Rule};
use kgq_rdf::{lftj, TermPattern, Triple, TripleStore};
use proptest::prelude::*;

/// [`fixpoint_governed`] with no budget; always complete.
fn fixpoint(st: &mut TripleStore, rules: &[Rule]) -> FixpointStats {
    let res = fixpoint_governed(st, rules, &Governor::unlimited()).unwrap();
    assert!(matches!(res.completion, Completion::Complete));
    res.value
}

/// Reference fixpoint: naive rounds over the backtracking matcher
/// (`Bgp::solve_baseline`), with no analysis and no governor. Returns
/// the number of derived triples.
fn naive_fixpoint(st: &mut TripleStore, rules: &[Rule]) -> usize {
    let mut derived = 0;
    loop {
        let mut fresh = Vec::new();
        for r in rules {
            for b in r.body.solve_baseline(st) {
                let term = |t: &TermPattern| match t {
                    TermPattern::Const(c) => Some(*c),
                    TermPattern::Var(v) => b.get(v).copied(),
                };
                if let (Some(s), Some(p), Some(o)) =
                    (term(&r.head.s), term(&r.head.p), term(&r.head.o))
                {
                    fresh.push(Triple { s, p, o });
                }
            }
        }
        let added = st.extend(fresh);
        derived += added;
        if added == 0 {
            return derived;
        }
    }
}

const TERMS: usize = 5;
const PREDS: usize = 4;
const VARS: usize = 3;

/// Subject/object slot of a generated atom.
#[derive(Clone, Debug)]
enum Term {
    Var(usize),
    Const(usize),
}

fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => (0..VARS).prop_map(Term::Var),
        1 => (0..TERMS).prop_map(Term::Const),
    ]
}

/// A random body atom: constant predicate, random subject/object.
fn atom() -> impl Strategy<Value = (usize, Term, Term)> {
    (0..PREDS, term(), term())
}

/// A random rule spec: body atoms plus head slot picks. Head variables
/// are chosen by index into the body's variable list at build time, so
/// every generated rule is range-restricted by construction.
#[derive(Clone, Debug)]
struct RuleSpec {
    body: Vec<(usize, Term, Term)>,
    head_pred: usize,
    head_s: Term,
    head_o: Term,
}

fn rule_spec() -> impl Strategy<Value = RuleSpec> {
    (
        proptest::collection::vec(atom(), 1..3),
        0..PREDS,
        term(),
        term(),
    )
        .prop_map(|(body, head_pred, head_s, head_o)| RuleSpec {
            body,
            head_pred,
            head_s,
            head_o,
        })
}

fn spell(t: &Term) -> String {
    match t {
        Term::Var(v) => format!("?v{v}"),
        Term::Const(c) => format!("t{c}"),
    }
}

/// A head slot: reuse the drawn variable when the body binds it,
/// otherwise degrade to a constant so the rule stays safe.
fn spell_head(t: &Term, body_vars: &[usize]) -> String {
    match t {
        Term::Var(v) if body_vars.contains(v) => format!("?v{v}"),
        Term::Var(v) => format!("t{}", v % TERMS),
        Term::Const(c) => format!("t{c}"),
    }
}

/// Renders specs as a textual program for [`parse_program`].
fn program_text(specs: &[RuleSpec]) -> String {
    let mut out = String::new();
    for spec in specs {
        let mut body_vars: Vec<usize> = Vec::new();
        for (_, s, o) in &spec.body {
            for t in [s, o] {
                if let Term::Var(v) = t {
                    if !body_vars.contains(v) {
                        body_vars.push(*v);
                    }
                }
            }
        }
        let head = format!(
            "{} p{} {}",
            spell_head(&spec.head_s, &body_vars),
            spec.head_pred,
            spell_head(&spec.head_o, &body_vars)
        );
        let body: Vec<String> = spec
            .body
            .iter()
            .map(|(p, s, o)| format!("{} p{} {}", spell(s), *p, spell(o)))
            .collect();
        out.push_str(&format!("{head} :- {} .\n", body.join(", ")));
    }
    out
}

fn base_store(triples: &[(usize, usize, usize)]) -> TripleStore {
    let mut st = TripleStore::new();
    for &(s, p, o) in triples {
        st.insert_strs(&format!("t{s}"), &format!("p{p}"), &format!("t{o}"));
    }
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The analyzer's round bound never truncates materialization: after
    /// one [`fixpoint`] run, a second run derives nothing — the store
    /// really is saturated. And the termination bound dominates the
    /// triples actually derived.
    #[test]
    fn fixpoint_saturates_within_the_analyzed_bounds(
        triples in proptest::collection::vec((0..TERMS, 0..PREDS, 0..TERMS), 0..25),
        specs in proptest::collection::vec(rule_spec(), 1..5),
    ) {
        let mut st = base_store(&triples);
        let rules = parse_program(&mut st, &program_text(&specs))
            .expect("generated programs are well-formed and safe");
        let analysis = analyze_program(&st, &rules);
        prop_assert!(!analysis.denied(), "generated rules are safe by construction");

        let first = fixpoint(&mut st, &rules);
        prop_assert!(
            (first.derived as u64) <= analysis.derivation_bound,
            "derived {} triples but the analyzer bounded derivations at {}",
            first.derived,
            analysis.derivation_bound
        );
        let second = fixpoint(&mut st, &rules);
        prop_assert_eq!(
            second.derived, 0,
            "a second run derived more: the round bound truncated the first"
        );
    }

    /// Rules the analyzer proves dead agree with execution: after full
    /// saturation their bodies still match nothing, so skipping them
    /// changed no answers.
    #[test]
    fn dead_rules_never_fire(
        triples in proptest::collection::vec((0..TERMS, 0..PREDS, 0..TERMS), 0..25),
        specs in proptest::collection::vec(rule_spec(), 1..5),
    ) {
        let mut st = base_store(&triples);
        let rules = parse_program(&mut st, &program_text(&specs))
            .expect("generated programs are well-formed and safe");
        let analysis = analyze_program(&st, &rules);
        fixpoint(&mut st, &rules);
        for &i in &analysis.dead_rules {
            let body = &rules[i].body;
            let plan = lftj::plan(&st, body);
            let matches = lftj::solve_planned_governed(&st, body, &plan, 1, &Governor::unlimited())
                .unwrap()
                .value;
            prop_assert!(
                matches.rows.is_empty(),
                "rule {} was declared dead but its body matches {} binding(s) \
                 after saturation",
                i,
                matches.rows.len()
            );
        }
    }

    /// The governed fixpoint under an unlimited budget completes with
    /// the same derivation count and the same final store size as naive
    /// iteration over the backtracking matcher — the analysis gate (Deny
    /// refusal, dead-rule skipping, round cap) perturbs nothing on safe
    /// programs.
    #[test]
    fn unlimited_governed_fixpoint_matches_naive_iteration(
        triples in proptest::collection::vec((0..TERMS, 0..PREDS, 0..TERMS), 0..25),
        specs in proptest::collection::vec(rule_spec(), 1..4),
    ) {
        let mut plain = base_store(&triples);
        let rules = parse_program(&mut plain, &program_text(&specs))
            .expect("generated programs are well-formed and safe");
        let derived = naive_fixpoint(&mut plain, &rules);

        let mut governed_st = base_store(&triples);
        let rules2 = parse_program(&mut governed_st, &program_text(&specs))
            .expect("same text parses the same way");
        let gov = Governor::new(&Budget::unlimited());
        let got = fixpoint_governed(&mut governed_st, &rules2, &gov)
            .expect("safe programs are never refused");
        prop_assert!(matches!(got.completion, Completion::Complete));
        prop_assert_eq!(got.value.derived, derived);
        prop_assert_eq!(
            governed_st.count(None, None, None),
            plain.count(None, None, None)
        );
    }
}
