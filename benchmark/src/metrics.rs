//! The metric catalogue — every name the benchmark reports, with unit,
//! direction and regression bound — and the [`Outcome`] a workload run
//! fills in.
//!
//! Three families:
//!
//! * [`END_TO_END`]: measured on every workload with tracing off. These are
//!   the `end_to_end` metrics of `BENCHMARK.json`.
//! * [`OPERATIONS`]: client-visible figures tied to one kind of operation
//!   (ingest, point query, correction, multi-threaded batch), plus the
//!   resident-set peak and the failure share. Measured with tracing off
//!   too, but only some workloads perform each operation; a workload that
//!   does not reports 0. `BENCHMARK.json` lists them under
//!   `per_layer` (its `end_to_end` metrics must exist, non-zero, on every
//!   workload), while `compare` applies their bounds on the workloads that
//!   have them.
//! * [`LAYERS`]: per-module counts (exact at a fixed seed and one thread)
//!   and span times from the traced pass.

use crate::probe::SelfTime;
use chronolog_obs::Json;
use std::collections::BTreeMap;

/// The workload names, in running order.
pub const WORKLOADS: [&str; 4] = ["fig3_batch", "fig3_live", "burst_ops", "netting_batch"];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before `compare` reports a regression (`None`: not gated).
    pub bound: Option<f64>,
    /// Values below this are too small to judge relatively; `compare`
    /// never calls a change smaller than this a regression.
    pub floor: f64,
    /// Workloads that exercise the metric (empty: all of them).
    pub workloads: &'static [&'static str],
    /// A count that must repeat exactly at a fixed seed and one thread.
    pub exact: bool,
}

impl Spec {
    /// Whether `workload` exercises this metric.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
    workloads: &'static [&'static str],
) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
        floor,
        workloads,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
        floor: 0.0,
        workloads: &[],
        exact,
    }
}

const ALL: &[&str] = &[];
const LIVE: &[&str] = &["fig3_live", "burst_ops"];
const QUERYING: &[&str] = &["burst_ops", "netting_batch"];
const BURST: &[&str] = &["burst_ops"];
const NETTING: &[&str] = &["netting_batch"];

use Better::{Higher, Lower};

/// Metrics every workload has, measured with tracing off.
pub const END_TO_END: &[Spec] = &[
    gated("setup_s", "s", Lower, 0.25, 0.005, ALL),
    gated("batch_s", "s", Lower, 0.25, 0.005, ALL),
    gated("state_mb", "MB", Lower, 0.05, 0.0, ALL),
];

/// Client-visible metrics of one kind of operation, on the workloads that
/// perform it.
pub const OPERATIONS: &[Spec] = &[
    // Every workload has a resident-set peak, but on `burst_ops` it is the
    // transient footprint of repairs and moves by ±15 % between two runs of
    // the same binary at the same seed — too much for the driver's gate.
    gated("peak_rss_mb", "MB", Lower, 0.25, 1.0, ALL),
    gated("batch_mt_s", "s", Lower, 0.25, 0.005, NETTING),
    gated("events_per_s", "1/s", Higher, 0.20, 0.0, LIVE),
    // The floors of the latency metrics are scheduler jitter: the
    // sub-millisecond netting queries move by 0.2 ms in the tail from one
    // run of the same binary to the next.
    gated("ingest_p50_ms", "ms", Lower, 0.20, 0.1, LIVE),
    gated("ingest_p95_ms", "ms", Lower, 0.25, 0.25, LIVE),
    gated("query_p50_ms", "ms", Lower, 0.20, 0.1, QUERYING),
    gated("query_p90_ms", "ms", Lower, 0.25, 0.25, QUERYING),
    gated("correct_p50_ms", "ms", Lower, 0.20, 0.1, BURST),
    gated("correct_p90_ms", "ms", Lower, 0.25, 0.25, BURST),
    Spec {
        name: "failed_share",
        unit: "ratio",
        better: Lower,
        bound: Some(0.0),
        floor: 0.0,
        workloads: ALL,
        exact: false,
    },
];

/// Per-layer metrics, named by module.
pub const LAYERS: &[Spec] = &[
    // Everything that happens before the first timed operation.
    layer("market.generate_us", "us", Lower, false),
    layer("perp.program.build_us", "us", Lower, false),
    layer("perp.encode.encode_us", "us", Lower, false),
    layer("perp.extract.extract_us", "us", Lower, false),
    layer("perp.reference.run_us", "us", Lower, false),
    layer("core.parser.program_us", "us", Lower, false),
    layer("core.parser.query_us", "us", Lower, false),
    layer("core.analysis.reasoner_new_us", "us", Lower, false),
    layer("core.database.load_us_per_fact", "us", Lower, false),
    // The fixpoint loop.
    layer("core.engine.materialize_s", "s", Lower, false),
    layer("core.engine.iterations", "count", Lower, true),
    layer("core.engine.us_per_iteration", "us", Lower, false),
    layer("core.engine.rule_evaluations", "count", Lower, true),
    layer("core.engine.derivations", "count", Lower, true),
    layer("core.engine.components_emitted", "count", Lower, true),
    layer("core.engine.components_added", "count", Lower, true),
    layer("core.engine.merge_yield", "ratio", Higher, true),
    // Access paths and the planner.
    layer("core.engine.index_probes", "count", Lower, true),
    layer("core.engine.full_scans", "count", Lower, true),
    layer("core.engine.scanned_tuples", "count", Lower, true),
    layer("core.engine.probed_tuples", "count", Lower, true),
    layer("core.engine.time_index_probes", "count", Lower, true),
    layer("core.engine.plans_built", "count", Lower, true),
    layer("core.engine.replans", "count", Lower, true),
    layer("core.engine.estimate_error", "ratio", Lower, true),
    // The worker pool (multi-threaded passes only).
    layer("core.engine.pool.busy_share", "ratio", Higher, false),
    layer("core.engine.pool.reuses", "count", Higher, false),
    layer("core.engine.pool.respawns", "count", Lower, false),
    layer("core.engine.pool.mt_speedup", "ratio", Higher, false),
    // Live sessions.
    layer("core.engine.session.boot_us", "us", Lower, false),
    layer("core.engine.session.submit_us", "us", Lower, false),
    layer("core.engine.session.advance_fixed_ms", "ms", Lower, false),
    layer(
        "core.engine.session.advance_us_per_gap_s",
        "us",
        Lower,
        false,
    ),
    layer("core.engine.session.gap_share", "ratio", Lower, false),
    layer("core.engine.session.advance_growth", "ratio", Lower, false),
    layer(
        "core.engine.session.repair_incremental_share",
        "ratio",
        Higher,
        true,
    ),
    layer(
        "core.engine.session.cone_tuples_per_repair",
        "count",
        Lower,
        true,
    ),
    layer(
        "core.engine.session.overdeleted_components_per_repair",
        "count",
        Lower,
        true,
    ),
    // Goal-driven queries.
    layer("core.rewrite.rewrite_us", "us", Lower, false),
    layer("core.rewrite.guarded_share", "ratio", Higher, true),
    layer("core.rewrite.demanded_share", "ratio", Lower, true),
    // Storage, replayed over the workload's final state.
    layer("core.database.clone_ms", "ms", Lower, false),
    layer("core.database.probe_ns", "ns", Lower, false),
    layer("core.database.probe_time_ns", "ns", Lower, false),
    layer("core.database.merge_ns_per_component", "ns", Lower, false),
    layer("core.database.facts_text_ms", "ms", Lower, false),
    layer("core.database.bytes_per_component", "B", Lower, true),
    layer("core.database.arena_reuse_share", "ratio", Higher, true),
    // Interval algebra, replayed over the workload's final interval sets.
    layer("temporal.insert_ns_per_component", "ns", Lower, false),
    layer("temporal.shift_ns_per_component", "ns", Lower, false),
    layer("temporal.intersect_ns_per_component", "ns", Lower, false),
    layer("temporal.difference_ns_per_component", "ns", Lower, false),
    layer("temporal.components_per_tuple", "ratio", Lower, true),
    // The benchmark's own tracing.
    layer("obs.span_overhead_pct", "%", Lower, false),
    layer("obs.self_time_cover", "ratio", Higher, false),
];

/// Looks a metric up in all three families.
pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END
        .iter()
        .chain(OPERATIONS)
        .chain(LAYERS)
        .find(|s| s.name == name)
}

/// A measured value with the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// The value, in the unit of its [`Spec`].
    pub value: f64,
    /// Passes or operations the value is a statistic of (1 for a count
    /// or a single reading).
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: client operations plus oracle checks.
    pub attempted: u64,
    /// Operations that returned an error or failed their oracle check.
    pub failed: u64,
    /// The first few failures, for the human reading the output.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, Measured>,
    /// Self-time table of the traced pass (empty with tracing off).
    pub self_time: Vec<SelfTime>,
    /// The advance-cost fit of each replayed trace (live workloads, traced
    /// pass): rows that have no place in the flat catalogue.
    pub advance_fit: Vec<Json>,
}

impl Outcome {
    /// Records a metric; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            spec(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, Measured { value, samples });
    }

    /// Counts one attempted operation or check, failed when `result` is
    /// an error.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// A recorded value (0 when the workload does not exercise it).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |m| m.value)
    }

    /// The `metrics` object of the result line: every metric of the given
    /// families, 0 for those this workload does not exercise.
    pub fn metrics_json(&self, families: &[&[Spec]]) -> Json {
        let mut out = Json::object();
        for s in families.iter().flat_map(|f| f.iter()) {
            let mut m = Json::object();
            m.set("value", self.value(s.name));
            m.set("unit", s.unit);
            out.set(s.name, m);
        }
        out
    }

    /// Everything measured, with sample counts, for the results file.
    pub fn detail_json(&self, workload: &str) -> Json {
        let mut metrics = Json::object();
        for s in END_TO_END.iter().chain(OPERATIONS).chain(LAYERS) {
            let Some(m) = self.values.get(s.name) else {
                continue;
            };
            let mut o = Json::object();
            o.set("value", m.value);
            o.set("unit", s.unit);
            o.set("samples", m.samples);
            metrics.set(s.name, o);
        }
        let mut out = Json::object();
        out.set("workload", workload);
        out.set("attempted", self.attempted);
        out.set("failed", self.failed);
        out.set(
            "failures",
            Json::Arr(
                self.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        );
        out.set("metrics", metrics);
        if !self.self_time.is_empty() {
            let rows = self
                .self_time
                .iter()
                .map(|r| {
                    let mut o = Json::object();
                    o.set("span", r.name.as_str());
                    o.set("count", r.count);
                    o.set("self_us", r.self_us);
                    o
                })
                .collect();
            out.set("self_time", Json::Arr(rows));
        }
        if !self.advance_fit.is_empty() {
            out.set("advance_fit", Json::Arr(self.advance_fit.clone()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for s in END_TO_END.iter().chain(OPERATIONS).chain(LAYERS) {
            assert!(seen.insert(s.name), "duplicate metric {}", s.name);
            assert!(s.name.len() <= 64 && s.unit.len() <= 16, "{}", s.name);
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(OPERATIONS.len() + LAYERS.len() <= 128);
        assert!(END_TO_END.iter().any(|s| s.name == "setup_s"));
    }

    #[test]
    fn unexercised_metrics_read_zero_in_the_result_line() {
        let mut o = Outcome::default();
        o.set("batch_s", 1.5, 2);
        let line = o.metrics_json(&[END_TO_END]);
        assert_eq!(
            line.get("batch_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.5)
        );
        assert_eq!(
            line.get("state_mb").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert_eq!(line.as_object().unwrap().len(), END_TO_END.len());
    }
}
