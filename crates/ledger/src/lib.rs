//! # chronolog-ledger
//!
//! An append-only, hash-chained event ledger with JSON persistence and a
//! Subgraph-like query index — the stand-ins for the Optimism chain and the
//! Mainnet Subgraph in the paper's validation pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod log;
pub mod persist;
pub mod subgraph;

pub use chain::{Block, Chain};
pub use log::{Ledger, LedgerRecord, MethodRecord};
pub use persist::{from_json, load_ledger, save_ledger, to_json, PersistError};
pub use subgraph::SubgraphIndex;
