//! # chronolog-obs
//!
//! The observability substrate of the chronolog workspace: a hierarchical
//! span recorder (the engine's one timeline); a hand-rolled JSON value
//! type with a writer and parser; and a small deterministic RNG.
//!
//! Everything here is dependency-free by design: the workspace builds in
//! fully offline environments, so this crate supplies the pieces that
//! would otherwise come from `serde_json`, `rand`, or a tracing crate.
//!
//! * [`json`] — [`Json`] value, compact/pretty writers, a strict parser.
//! * [`span`] — [`SpanRecorder`], hierarchical timing with per-thread
//!   lanes, Chrome `trace_event` and folded-flamegraph export.
//! * [`rng`] — [`SmallRng`], a seeded SplitMix64 generator.

#![warn(missing_docs)]

pub mod json;
pub mod rng;
pub mod span;

pub use json::{Json, JsonError};
pub use rng::SmallRng;
pub use span::{spans_started, SpanGuard, SpanRecord, SpanRecorder};
