//! The repository's end-to-end and per-layer benchmark.
//!
//! Four workloads (`fig3_batch`, `fig3_live`, `burst_ops`,
//! `netting_batch`) drive the engine from outside, through its public
//! functions only, and report what a user of the system would see —
//! materialization time, ingest/query/correction latency, memory — plus,
//! from a separate traced pass, where that time goes layer by layer. See
//! `README.md` for why each workload exists and how the metrics interact.

#![warn(missing_docs)]

pub mod cli;
pub mod compare;
pub mod env;
pub mod gen;
pub mod metrics;
pub mod perp;
pub mod probe;
pub mod replay;
pub mod report;
pub mod stats;
pub mod workloads;

/// Where traces and results files go: `benchmark/out/`.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
