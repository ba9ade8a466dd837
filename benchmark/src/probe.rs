//! The benchmark's measuring instrument. Every call into a layer of the
//! engine goes through [`Probe::layer`], every client-visible operation
//! through [`Probe::op`]. With tracing off (`Probe::off`, the timed passes)
//! `layer` is a direct call and `op` is two clock reads; with tracing on
//! each call is wrapped in a span of a [`SpanRecorder`] held in memory, and
//! its nanosecond duration is kept for the per-layer time metrics.
//!
//! Spans nest: the root span carries the workload's name, operations are
//! its children, layer calls are children of their operation. A layer's
//! self time is its span's duration minus the part its children cover.

use chronolog_obs::{SpanRecord, SpanRecorder};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Span recorder plus per-name duration samples; see the module docs.
pub struct Probe {
    recorder: Option<SpanRecorder>,
    samples_ns: RefCell<BTreeMap<&'static str, Vec<f64>>>,
    /// Time spent opening, closing and recording spans rather than in the
    /// calls they wrap.
    bookkeeping: Cell<Duration>,
}

impl Probe {
    /// Tracing off: the instrument of every timed pass.
    pub fn off() -> Probe {
        Probe {
            recorder: None,
            samples_ns: RefCell::default(),
            bookkeeping: Cell::default(),
        }
    }

    /// Tracing on: spans are kept in memory until [`Probe::recorder`] is
    /// exported.
    pub fn tracing() -> Probe {
        Probe {
            recorder: Some(SpanRecorder::new()),
            samples_ns: RefCell::default(),
            bookkeeping: Cell::default(),
        }
    }

    /// The recorder of a tracing probe.
    pub fn recorder(&self) -> Option<&SpanRecorder> {
        self.recorder.as_ref()
    }

    /// Runs a call into one layer, as a span when tracing.
    pub fn layer<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let Some(recorder) = &self.recorder else {
            return call();
        };
        let opening = Instant::now();
        let span = recorder.span(name);
        let start = Instant::now();
        let out = call();
        let inner = start.elapsed();
        self.samples_ns
            .borrow_mut()
            .entry(name)
            .or_default()
            .push(inner.as_nanos() as f64);
        drop(span);
        self.bookkeeping
            .set(self.bookkeeping.get() + (opening.elapsed() - inner));
        out
    }

    /// Runs one client operation and returns its latency; a span (the
    /// parent of the layer calls inside it) when tracing.
    pub fn op<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> (T, Duration) {
        let opening = Instant::now();
        let span = self.recorder.as_ref().map(|r| r.span(name));
        let start = Instant::now();
        let out = call();
        let latency = start.elapsed();
        if span.is_some() {
            drop(span);
            self.bookkeeping
                .set(self.bookkeeping.get() + (opening.elapsed() - latency));
        }
        (out, latency)
    }

    /// Time this probe has spent on its own spans rather than in the calls
    /// they wrap: the direct cost of tracing (zero with tracing off).
    pub fn bookkeeping(&self) -> Duration {
        self.bookkeeping.get()
    }

    /// Nanosecond durations of every traced call named `name`.
    pub fn samples_ns(&self, name: &str) -> Vec<f64> {
        self.samples_ns
            .borrow()
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Median duration of the traced calls named `name`, in nanoseconds
    /// (0 when the workload never makes that call).
    pub fn median_ns(&self, name: &str) -> f64 {
        crate::stats::median(&self.samples_ns(name))
    }
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: String,
    /// Spans of that name.
    pub count: u64,
    /// Summed duration minus summed child cover, microseconds.
    pub self_us: u64,
}

/// Per-name self time over one lane's finished spans: each span's
/// duration minus the durations of its direct children. Rows are sorted by
/// name; their `self_us` sum equals the summed duration of the depth-0
/// spans, because every microsecond of a root is either a child's or its
/// own.
pub fn self_times(records: &[SpanRecord]) -> Vec<SelfTime> {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    // Start order, parents before the children that start with them.
    sorted.sort_by(|a, b| {
        a.start_us
            .cmp(&b.start_us)
            .then(a.depth.cmp(&b.depth))
            .then(b.dur_us.cmp(&a.dur_us))
    });
    let mut rows: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    // (name, duration, child cover) of the open ancestors.
    let mut stack: Vec<(&str, u64, u64)> = Vec::new();
    let close = |stack: &mut Vec<(&str, u64, u64)>, rows: &mut BTreeMap<String, (u64, u64)>| {
        let (name, dur, cover) = stack.pop().expect("close on a non-empty stack");
        let row = rows.entry(name.to_string()).or_default();
        row.0 += 1;
        row.1 += dur.saturating_sub(cover);
        if let Some(parent) = stack.last_mut() {
            parent.2 += dur;
        }
    };
    for r in sorted {
        while stack.len() > r.depth {
            close(&mut stack, &mut rows);
        }
        stack.push((&r.name, r.dur_us, 0));
    }
    while !stack.is_empty() {
        close(&mut stack, &mut rows);
    }
    rows.into_iter()
        .map(|(name, (count, self_us))| SelfTime {
            name,
            count,
            self_us,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, dur_us: u64, depth: usize) -> SpanRecord {
        SpanRecord {
            lane: 0,
            name: name.to_string(),
            start_us,
            dur_us,
            depth,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // root [0,100): op [10,60) holding two layer calls, op [60,90).
        // Records arrive in end order, as the recorder stores them.
        let records = vec![
            span("layer.a", 15, 20, 2),
            span("layer.b", 40, 10, 2),
            span("op", 10, 50, 1),
            span("op", 60, 30, 1),
            span("root", 0, 100, 0),
        ];
        let rows = self_times(&records);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("layer.a").self_us, 20);
        assert_eq!(get("layer.b").self_us, 10);
        assert_eq!(get("op").count, 2);
        assert_eq!(get("op").self_us, (50 - 30) + 30);
        assert_eq!(get("root").self_us, 100 - 80);
        assert_eq!(rows.iter().map(|r| r.self_us).sum::<u64>(), 100);
    }

    #[test]
    fn untraced_probe_records_nothing() {
        let probe = Probe::off();
        assert_eq!(probe.layer("x", || 7), 7);
        let (v, _) = probe.op("y", || 8);
        assert_eq!(v, 8);
        assert!(probe.samples_ns("x").is_empty());
        assert!(probe.recorder().is_none());
    }

    #[test]
    fn traced_probe_nests_layers_under_operations() {
        let probe = Probe::tracing();
        probe.op("op", || {
            probe.layer("layer", || std::hint::black_box(1 + 1))
        });
        assert_eq!(probe.samples_ns("layer").len(), 1);
        let lanes = probe.recorder().unwrap().lanes();
        let records = &lanes[0].1;
        let depth_of = |n: &str| records.iter().find(|r| r.name == n).unwrap().depth;
        assert_eq!(depth_of("op"), 0);
        assert_eq!(depth_of("layer"), 1);
    }
}
