//! # mtl-temporal
//!
//! The timeline substrate for the `chronolog` DatalogMTL engine: exact
//! rational time points, intervals over ℚ ∪ {±∞} with independently
//! open/closed endpoints, and fully-coalesced interval sets with the
//! Metric Temporal Logic operator transforms
//! (`◇⁻ρ`, `⊟ρ`, `◇⁺ρ`, `⊞ρ`, `S_ρ`, `U_ρ`).
//!
//! This crate is deliberately free of any Datalog notions — it is pure
//! interval algebra, reusable by any temporal reasoner.
//!
//! ## Quick tour
//!
//! ```
//! use mtl_temporal::{Interval, IntervalSet, MetricInterval, Rational};
//!
//! // A fact holding on [0,10] and again on [20,30].
//! let holds = IntervalSet::from_intervals([
//!     Interval::closed_int(0, 10),
//!     Interval::closed_int(20, 30),
//! ]);
//!
//! // ◇⁻[1,2]: "held at some point between 1 and 2 time units ago". Every
//! // transform errs when a shifted endpoint leaves the timeline.
//! let dm = holds.checked_diamond_minus(&MetricInterval::closed_int(1, 2))?;
//! assert!(dm.contains(Rational::integer(12)));
//!
//! // ⊟[0,5]: "held continuously over the last 5 units".
//! let bm = holds.checked_box_minus(&MetricInterval::closed_int(0, 5))?;
//! assert!(bm.contains(Rational::integer(10)));
//! assert!(!bm.contains(Rational::integer(21)));
//! # Ok::<(), mtl_temporal::TimeOverflow>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interval;
mod rational;
mod set;

pub use interval::{Interval, MetricInterval, TimeBound, TimeOverflow};
pub use rational::{ParseRationalError, Rational};
pub use set::IntervalSet;
