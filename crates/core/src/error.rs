//! Error types for parsing, program analysis, and reasoning.

use std::fmt;

/// Any error produced by the chronolog core.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Syntax error with line/column and message.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// What went wrong.
        msg: String,
    },
    /// The program is not safe (a variable escapes its positive bindings).
    Unsafe(String),
    /// The program has no stratification (negation/aggregation in a cycle).
    NotStratifiable(String),
    /// A predicate is used with inconsistent arities.
    ArityMismatch(String),
    /// Runtime evaluation error (type error in a built-in, bad time capture…).
    Eval(String),
    /// A resource budget was exceeded (facts, iterations).
    BudgetExceeded(String),
    /// Temporal endpoint arithmetic overflowed the rational timeline
    /// (an operator window shifted an interval past the `i64` range).
    TimeOverflow(String),
    /// A session fact does not start strictly after the watermark. Use
    /// `Session::submit_late` / `Session::retract` for corrections below
    /// the watermark.
    Watermark {
        /// Predicate of the offending fact.
        pred: String,
        /// The fact's validity interval, rendered.
        interval: String,
        /// The session watermark the fact collided with.
        watermark: String,
    },
    /// A derivation window collapsed to the empty interval
    /// (`lo > hi` after clipping) where a non-empty one was required.
    EmptyWindow(String),
    /// A retraction named a fact that is not part of the session's
    /// surviving base-fact set (never submitted, or already retracted).
    UnknownFact(String),
    /// The value interner ran out of dense `u32` ids for distinct constants
    /// (columnar storage interns every constant; more than ~4 billion
    /// distinct constants exhausts the id space).
    InternerOverflow(String),
}

impl Error {
    pub(crate) fn parse(line: usize, col: usize, msg: impl Into<String>) -> Error {
        Error::Parse {
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { line, col, msg } => write!(f, "parse error at {line}:{col}: {msg}"),
            Error::Unsafe(m) => write!(f, "unsafe rule: {m}"),
            Error::NotStratifiable(m) => write!(f, "program is not stratifiable: {m}"),
            Error::ArityMismatch(m) => write!(f, "arity mismatch: {m}"),
            Error::Eval(m) => write!(f, "evaluation error: {m}"),
            Error::BudgetExceeded(m) => write!(f, "budget exceeded: {m}"),
            Error::TimeOverflow(m) => write!(f, "temporal overflow: {m}"),
            Error::Watermark {
                pred,
                interval,
                watermark,
            } => write!(
                f,
                "watermark violation: fact {pred}@{interval} does not start strictly \
                 after the watermark {watermark} (use submit_late/retract to correct \
                 history at or below it)"
            ),
            Error::EmptyWindow(m) => write!(f, "empty window: {m}"),
            Error::UnknownFact(m) => write!(f, "unknown fact: {m}"),
            Error::InternerOverflow(m) => write!(f, "interner overflow: {m}"),
        }
    }
}

impl From<mtl_temporal::TimeOverflow> for Error {
    fn from(e: mtl_temporal::TimeOverflow) -> Error {
        Error::TimeOverflow(e.to_string())
    }
}

impl std::error::Error for Error {}

/// Result alias for chronolog operations.
pub type Result<T> = std::result::Result<T, Error>;
