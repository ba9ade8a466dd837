//! # chronolog-perp
//!
//! The ETH-PERP perpetual future of the Kwenta/Synthetix platform, encoded
//! as a DatalogMTL program (the paper's contribution), together with a
//! procedural reference engine (the Solidity/Subgraph stand-in) and the
//! validation harness that regenerates the paper's Figures 4 and 5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod extract;
pub mod fixed;
pub mod harness;
pub mod monitor;
pub mod multi;
pub mod params;
pub mod program;
pub mod reference;
pub mod types;

pub use fixed::Fixed18;
pub use monitor::{build_monitored_program, MonitorParams};
pub use multi::{run_multi_market, MarketSpec};
pub use params::MarketParams;
pub use reference::{Arith, ReferenceEngine};
pub use types::{AccountId, Event, MarketRun, Method, Trace, TradeSettlement};
