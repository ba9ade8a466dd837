//! # chronolog-market
//!
//! Synthetic market activity for the ETH-PERP reproduction: a GBM price
//! oracle and a scenario generator that fabricates valid trader event
//! streams matching the aggregate statistics of the paper's Figure 3
//! (events / trades / initial skew per 2-hour window).
//!
//! This crate substitutes for the Optimism-Mainnet traces the paper
//! replays; see DESIGN.md for why the substitution preserves the
//! experiments' meaning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod price;
pub mod scenario;
pub mod stats;

pub use price::GbmPrice;
pub use scenario::{generate, paper_intervals, ScenarioConfig};
pub use stats::TraceStats;
