//! # chronolog-core
//!
//! A DatalogMTL reasoning engine: Datalog with Metric Temporal Logic
//! operators over the rational timeline, stratified negation, temporal
//! aggregation, and arithmetic built-ins — the open-source substrate needed
//! to execute the declarative smart-derivative programs of
//! *“Smart Derivative Contracts in DatalogMTL”* (EDBT 2023).
//!
//! ## Quickstart
//!
//! ```
//! use chronolog_core::{parse_source, Database, Reasoner, ReasonerConfig, Value};
//!
//! // Rule 2 of the paper: an account stays open until a withdrawal.
//! let (program, facts) = parse_source(
//!     "isOpen(A) :- tranM(A, M).\n\
//!      isOpen(A) :- boxminus isOpen(A), not withdraw(A).\n\
//!      tranM(acc1, 20.0)@3.\n\
//!      withdraw(acc1)@8.",
//! )
//! .unwrap();
//!
//! let mut db = Database::new();
//! db.extend_facts(&facts).unwrap();
//!
//! let reasoner = Reasoner::new(program, ReasonerConfig::default().with_horizon(0, 20)).unwrap();
//! let out = reasoner.materialize(&db).unwrap();
//!
//! assert!(out.database.holds_at("isOpen", &[Value::sym("acc1")], 7));
//! assert!(!out.database.holds_at("isOpen", &[Value::sym("acc1")], 9));
//! ```
//!
//! ## Architecture
//!
//! * [`ast`] — terms, metric atoms, rules, programs (§2.1 of the paper).
//! * [`parser`] — the concrete syntax (`boxminus`, `diamondminus`, …).
//! * [`analysis`] — safety, dependency graph (Figure 1), stratification.
//! * [`engine`] — semi-naive temporal materialization, and derivation
//!   trees rebuilt from the model ([`Reasoner::explain`]).
//! * [`rewrite`] — magic-sets demand transformation for goal-driven
//!   point queries ([`Reasoner::query`]).
//! * [`naive`] — a brute-force discrete-time evaluator used as a test
//!   oracle for the engine.

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod database;
pub mod engine;
pub mod error;
mod hash;
mod intern;
pub mod lexer;
pub mod naive;
pub mod parser;
pub mod rewrite;
mod symbol;
mod value;

pub use analysis::{DependencyGraph, EdgeKind, Stratification};
pub use ast::{
    AggFn, Atom, CmpOp, Expr, Fact, Head, HeadOp, Literal, MetricAtom, Program, Rule, Term,
};
pub use database::{Database, Relation, TupleRef};
pub use engine::{
    BaseEvent, Explanation, MagicStats, Materialization, PlanExplain, PlanStepExplain,
    QueryOutcome, Reasoner, ReasonerConfig, RepairPath, RepairReport, RepairStats, RuleStats,
    RunStats, Session, StratumStats,
};
pub use error::{Error, Result};
pub use parser::{parse_facts, parse_program, parse_rule, parse_source};
pub use rewrite::{parse_query, MagicCounters, MagicRewrite, Query};
pub use symbol::Symbol;
pub use value::{OrdF64, Tuple, Value};

// Re-export the temporal substrate for downstream crates.
pub use mtl_temporal::{Interval, IntervalSet, MetricInterval, Rational, TimeBound};
