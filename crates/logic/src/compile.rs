//! Regex → first-order logic compilation (§4.3).
//!
//! For star-free path expressions, node extraction ("which nodes start a
//! matching path?") is first-order expressible. [`compile_fo2`] produces
//! the paper's ψ-style formula that *reuses two variables* by swapping
//! the roles of `x` and `y` at every edge step — "values of variables can
//! be forgotten, allowing them to be reused". [`compile_wide`] produces
//! the naive φ-style formula with a fresh variable per step, used by the
//! experiments to contrast evaluation costs at different widths.
//!
//! Limitations (returned as [`CompileError`]):
//!
//! * Kleene star is not first-order expressible (transitive closure);
//! * property/feature tests are outside the label signature;
//! * negated or conjunctive *edge* tests cannot be translated faithfully
//!   on multigraphs (¬ℓ(x,y) says "no ℓ-edge from x to y", not "some
//!   non-ℓ edge"), so edge tests must be positive disjunctions of labels.

use crate::formula::{Formula, Var};
use kgq_core::expr::{PathExpr, Test};
use std::fmt;

/// Why an expression could not be compiled to first-order logic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The expression contains `*` (not FO-expressible).
    Star,
    /// A property or feature test appears (outside the label signature).
    NonLabelTest,
    /// An edge test uses negation/conjunction (ambiguous on multigraphs).
    EdgeTestNotPositive,
    /// More than 255 variables would be needed.
    WidthOverflow,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Star => write!(f, "Kleene star is not first-order expressible"),
            CompileError::NonLabelTest => {
                write!(
                    f,
                    "property/feature tests are outside the FO label signature"
                )
            }
            CompileError::EdgeTestNotPositive => write!(
                f,
                "edge tests must be positive disjunctions of labels for FO translation"
            ),
            CompileError::WidthOverflow => write!(f, "too many variables required"),
        }
    }
}

impl std::error::Error for CompileError {}

fn node_test_formula(t: &Test, v: Var) -> Result<Formula, CompileError> {
    match t {
        Test::Label(l) => Ok(Formula::Unary(*l, v)),
        Test::Prop(..) | Test::Feature(..) => Err(CompileError::NonLabelTest),
        Test::Not(inner) => Ok(node_test_formula(inner, v)?.not()),
        Test::And(a, b) => Ok(node_test_formula(a, v)?.and(node_test_formula(b, v)?)),
        Test::Or(a, b) => Ok(node_test_formula(a, v)?.or(node_test_formula(b, v)?)),
    }
}

/// Edge tests must be positive label disjunctions; produces
/// `ℓ₁(a,b) ∨ ℓ₂(a,b) ∨ …`.
fn edge_test_formula(t: &Test, a: Var, b: Var) -> Result<Formula, CompileError> {
    match t {
        Test::Label(l) => Ok(Formula::Binary(*l, a, b)),
        Test::Or(x, y) => Ok(edge_test_formula(x, a, b)?.or(edge_test_formula(y, a, b)?)),
        Test::Prop(..) | Test::Feature(..) => Err(CompileError::NonLabelTest),
        Test::Not(_) | Test::And(_, _) => Err(CompileError::EdgeTestNotPositive),
    }
}

/// Flattened step sequence of a star-free expression.
enum Step<'a> {
    Node(&'a Test),
    Fwd(&'a Test),
    Bwd(&'a Test),
    Branch(&'a PathExpr, &'a PathExpr),
}

fn flatten<'a>(e: &'a PathExpr, out: &mut Vec<Step<'a>>) -> Result<(), CompileError> {
    match e {
        PathExpr::NodeTest(t) => out.push(Step::Node(t)),
        PathExpr::Forward(t) => out.push(Step::Fwd(t)),
        PathExpr::Backward(t) => out.push(Step::Bwd(t)),
        PathExpr::Concat(a, b) => {
            flatten(a, out)?;
            flatten(b, out)?;
        }
        PathExpr::Alt(a, b) => out.push(Step::Branch(a, b)),
        PathExpr::Star(_) => return Err(CompileError::Star),
    }
    Ok(())
}

/// Variable allocation strategy.
trait VarAlloc {
    /// Variable to use after stepping away from `cur`.
    fn next(&mut self, cur: Var) -> Result<Var, CompileError>;
}

/// Two-variable reuse: always "the other one" of {0, 1}.
struct TwoVars;
impl VarAlloc for TwoVars {
    fn next(&mut self, cur: Var) -> Result<Var, CompileError> {
        Ok(if cur == Var(0) { Var(1) } else { Var(0) })
    }
}

/// Fresh variable per step.
struct FreshVars {
    counter: u8,
}
impl VarAlloc for FreshVars {
    fn next(&mut self, _cur: Var) -> Result<Var, CompileError> {
        if self.counter == u8::MAX {
            return Err(CompileError::WidthOverflow);
        }
        self.counter += 1;
        Ok(Var(self.counter))
    }
}

fn compile_steps(
    steps: &[Step<'_>],
    cur: Var,
    alloc: &mut dyn VarAlloc,
) -> Result<Formula, CompileError> {
    match steps.split_first() {
        None => Ok(Formula::Eq(cur, cur)), // ⊤ with free var cur
        Some((step, rest)) => match step {
            Step::Node(t) => Ok(node_test_formula(t, cur)?.and(compile_steps(rest, cur, alloc)?)),
            Step::Fwd(t) => {
                let nv = alloc.next(cur)?;
                let edge = edge_test_formula(t, cur, nv)?;
                Ok(edge.and(compile_steps(rest, nv, alloc)?).exists(nv))
            }
            Step::Bwd(t) => {
                let nv = alloc.next(cur)?;
                let edge = edge_test_formula(t, nv, cur)?;
                Ok(edge.and(compile_steps(rest, nv, alloc)?).exists(nv))
            }
            Step::Branch(a, b) => {
                let mut left = Vec::new();
                flatten(a, &mut left)?;
                let mut lsteps = left;
                lsteps.extend(flatten_rest(rest));
                let mut right = Vec::new();
                flatten(b, &mut right)?;
                let mut rsteps = right;
                rsteps.extend(flatten_rest(rest));
                Ok(compile_steps(&lsteps, cur, alloc)?.or(compile_steps(&rsteps, cur, alloc)?))
            }
        },
    }
}

fn flatten_rest<'a>(rest: &[Step<'a>]) -> Vec<Step<'a>> {
    rest.iter()
        .map(|s| match s {
            Step::Node(t) => Step::Node(t),
            Step::Fwd(t) => Step::Fwd(t),
            Step::Bwd(t) => Step::Bwd(t),
            Step::Branch(a, b) => Step::Branch(a, b),
        })
        .collect()
}

/// Compiles a star-free expression to the two-variable formula ψ(x):
/// "some path matching `expr` starts at `x`". Free variable: `Var(0)`.
pub fn compile_fo2(expr: &PathExpr) -> Result<Formula, CompileError> {
    let mut steps = Vec::new();
    flatten(expr, &mut steps)?;
    compile_steps(&steps, Var(0), &mut TwoVars)
}

/// Compiles with a fresh variable per step — the φ-style wide formula
/// with the same answers as [`compile_fo2`] but width `O(|expr|)`.
pub fn compile_wide(expr: &PathExpr) -> Result<Formula, CompileError> {
    let mut steps = Vec::new();
    flatten(expr, &mut steps)?;
    compile_steps(&steps, Var(0), &mut FreshVars { counter: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_bounded, eval_bounded_stats, eval_naive};
    use kgq_core::eval::Evaluator;
    use kgq_core::govern::Governor;
    use kgq_core::model::LabeledView;
    use kgq_core::parser::parse_expr;
    use kgq_graph::figures::figure2_labeled;
    use kgq_graph::generate::gnm_labeled;

    /// Nodes starting a path matching `e`, under an unlimited governor.
    fn starts_of<G: kgq_core::PathGraph>(g: &G, e: &kgq_core::PathExpr) -> Vec<kgq_graph::NodeId> {
        let gov = Governor::unlimited();
        let ev = Evaluator::new_governed(g, e, &gov).unwrap();
        ev.matching_starts_governed(&gov).unwrap().value
    }

    #[test]
    fn paper_expression_compiles_to_width_two() {
        let mut g = figure2_labeled();
        let e = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
        let psi = compile_fo2(&e).unwrap();
        assert_eq!(psi.width(), 2);
        let phi = compile_wide(&e).unwrap();
        assert_eq!(phi.width(), 3); // x plus two edge steps
    }

    #[test]
    fn compiled_formula_agrees_with_rpq_engine() {
        let mut g = figure2_labeled();
        let e = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
        let psi = compile_fo2(&e).unwrap();
        let from_logic = eval_bounded(&g, &psi, Var(0));
        let view = LabeledView::new(&g);
        let from_rpq = starts_of(&view, &e);
        assert_eq!(from_logic, from_rpq);
        let phi = compile_wide(&e).unwrap();
        assert_eq!(eval_naive(&g, &phi, Var(0)), from_rpq);
    }

    #[test]
    fn fo2_evaluation_stays_binary() {
        let mut g = figure2_labeled();
        let e = parse_expr(
            "?person/rides/?bus/rides^-/?person/contact/?infected",
            g.consts_mut(),
        )
        .unwrap();
        let psi = compile_fo2(&e).unwrap();
        assert_eq!(psi.width(), 2);
        let (_, stats) = eval_bounded_stats(&g, &psi, Var(0));
        assert!(stats.max_arity <= 2);
    }

    #[test]
    fn random_star_free_expressions_agree() {
        for seed in 0..3 {
            let mut g = gnm_labeled(10, 28, &["a", "b"], &["p", "q"], seed);
            for text in [
                "p/q",
                "?a/p/?b",
                "p^-/q",
                "(p + q)/?a",
                "?a/(p + q^-)/?b",
                "{p | q}/?a",
            ] {
                let e = parse_expr(text, g.consts_mut()).unwrap();
                let psi = compile_fo2(&e).unwrap();
                let from_logic = eval_bounded(&g, &psi, Var(0));
                let view = LabeledView::new(&g);
                let from_rpq = starts_of(&view, &e);
                assert_eq!(from_logic, from_rpq, "seed={seed} expr={text}");
            }
        }
    }

    #[test]
    fn star_is_rejected() {
        let mut g = figure2_labeled();
        let e = parse_expr("(contact)*", g.consts_mut()).unwrap();
        assert_eq!(compile_fo2(&e), Err(CompileError::Star));
    }

    #[test]
    fn property_tests_are_rejected() {
        let mut g = figure2_labeled();
        let e = parse_expr("[date='3/4/21']", g.consts_mut()).unwrap();
        assert_eq!(compile_fo2(&e), Err(CompileError::NonLabelTest));
        let e = parse_expr("?[age=33]", g.consts_mut()).unwrap();
        assert_eq!(compile_fo2(&e), Err(CompileError::NonLabelTest));
    }

    #[test]
    fn negated_edge_tests_are_rejected() {
        let mut g = figure2_labeled();
        let e = parse_expr("{!rides}", g.consts_mut()).unwrap();
        assert_eq!(compile_fo2(&e), Err(CompileError::EdgeTestNotPositive));
        // Negated *node* tests are fine.
        let e = parse_expr("?{!bus}/rides", g.consts_mut()).unwrap();
        assert!(compile_fo2(&e).is_ok());
    }
}
