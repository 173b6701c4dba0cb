//! # kgq-logic — bounded-variable first-order logic over graphs
//!
//! Section 4.3 of the reproduced paper evaluates regular expressions by
//! translating them into first-order logic over the graph signature —
//! node labels as unary predicates, edge labels as binary predicates —
//! and observes that expressions like
//!
//! ```text
//! φ(x) = person(x) ∧ ∃y ∃z (rides(x,y) ∧ bus(y) ∧ rides(z,y) ∧ infected(z))
//! ```
//!
//! can be rewritten to *reuse* variables:
//!
//! ```text
//! ψ(x) = person(x) ∧ ∃y (rides(x,y) ∧ bus(y) ∧ ∃x (rides(x,y) ∧ infected(x)))
//! ```
//!
//! so that evaluation only ever manipulates binary tables (Vardi \[68\]:
//! FO with a bounded number of variables is tractable). This crate
//! implements:
//!
//! * [`formula`] — the FO fragment (unary/binary atoms, boolean
//!   connectives, equality, ∃) with named variables;
//! * [`eval`] — two evaluators: [`eval::eval_naive`], which enumerates
//!   assignments (`O(n^{quantifier depth})`), and [`eval::eval_bounded`],
//!   the bottom-up relational pipeline whose intermediate relations have
//!   arity at most the number of *distinct* variables;
//! * [`compile`] — the regex → FO² translation for star-free node
//!   extraction, producing exactly ψ-style reuse of two variables;
//! * [`rules`] — Horn rules over triple stores whose bodies are matched
//!   by `kgq-rdf`'s worst-case optimal leapfrog triejoin, run to a
//!   governed fixpoint;
//! * [`analyze`] — static analysis of rule programs (safety, dead
//!   rules, recursion/strata, θ-subsumption, termination bounds) that
//!   the fixpoint consults before executing.

// Several hot loops index multiple parallel arrays at once; the
// iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]
pub mod analyze;
pub mod compile;
pub mod eval;
pub mod formula;
pub mod rules;

pub use analyze::{analyze_program, ProgramReport};
pub use compile::{compile_fo2, compile_wide, CompileError};
pub use eval::{eval_bounded, eval_naive, GraphStructure};
pub use formula::{Formula, Var};
pub use rules::{fixpoint_governed, parse_program, FixpointStats, Rule, RuleError, RuleParseError};
