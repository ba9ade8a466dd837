//! Hierarchical span profiling: wall-clock timed scopes with per-thread
//! lanes, exported as Chrome `trace_event` JSON (Perfetto) or folded
//! flamegraph stacks.
//!
//! A [`SpanRecorder`] is a cheap cloneable handle (an `Arc`). Opening a
//! span returns an RAII [`SpanGuard`] that records the scope's duration on
//! drop; nesting is tracked per thread, so concurrent workers each get
//! their own *lane* (one track per thread in the Chrome trace). A named
//! thread reuses the lane that already carries its name, so the engine's
//! scoped `worker-<slot>` threads, spawned afresh on every dispatch, land
//! on one track per slot. That is sound because a dispatch joins its
//! workers before the next one starts: two live threads never share a
//! name, so spans on one lane never overlap except by nesting. When no
//! recorder is installed the engine pays one `Option` check per site and
//! performs **zero** span allocations — the global [`spans_started`]
//! counter makes that property testable.
//!
//! Spans must start and end on the same thread (the guard is deliberately
//! `!Send`); that is true of every engine instrumentation site, because
//! each worker opens and drops its guards inside its own task closure.

use crate::json::Json;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Process-wide count of spans ever started, across all recorders. The
/// overhead-guard tests assert this does not move during an unprofiled
/// run: with no recorder installed, no span is allocated anywhere.
static SPANS_STARTED: AtomicU64 = AtomicU64::new(0);

/// Monotonic source of recorder identities. Lane lookups are keyed by this
/// id rather than the `Arc` address, which the allocator may recycle.
static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

/// Total spans started process-wide (all recorders, all threads).
pub fn spans_started() -> u64 {
    SPANS_STARTED.load(Ordering::Relaxed)
}

/// One finished span: a named scope on one lane with microsecond
/// timestamps relative to recorder creation.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Lane (thread track) index within the recorder.
    pub lane: usize,
    /// Scope name, e.g. `"stratum 0"` or `"rule funding"`.
    pub name: String,
    /// Start offset in microseconds since the recorder was created.
    pub start_us: u64,
    /// Duration in microseconds (`end_us - start_us`, both truncated).
    pub dur_us: u64,
    /// Nesting depth on this lane when the span opened (0 = top level).
    pub depth: usize,
    /// Counters attached via [`SpanGuard::add`].
    pub counters: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
struct LaneInfo {
    name: String,
    records: Arc<Mutex<Vec<SpanRecord>>>,
}

#[derive(Debug)]
struct Inner {
    id: u64,
    start: Instant,
    /// Per-lane record cap: spans finished past it are dropped (and
    /// counted) — profiling must never OOM the process it profiles.
    capacity: usize,
    lanes: Mutex<Vec<LaneInfo>>,
    dropped: AtomicU64,
}

/// A thread-safe hierarchical span recorder with per-thread lanes.
#[derive(Clone, Debug)]
pub struct SpanRecorder(Arc<Inner>);

struct TlsLane {
    recorder_id: u64,
    lane: usize,
    records: Arc<Mutex<Vec<SpanRecord>>>,
    /// Open spans of this recorder on this thread.
    depth: usize,
}

thread_local! {
    /// Lane registrations of this thread, one per recorder it has served.
    /// Bounded: idle entries are evicted once the list grows past a handful,
    /// so a long-lived thread serving many short-lived recorders (a caller
    /// that profiles run after run) does not accumulate state.
    static TLS_LANES: RefCell<Vec<TlsLane>> = const { RefCell::new(Vec::new()) };
}

/// Idle TLS entries beyond this count are evicted (oldest first).
const TLS_MAX_ENTRIES: usize = 8;

fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicking profiled thread must not cascade into every other
    // thread's profiling: recover the data, which is valid (pushes are
    // single-statement appends).
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SpanRecorder {
    /// Default per-lane record capacity.
    pub const DEFAULT_CAPACITY: usize = 262_144;

    /// A recorder keeping at most `capacity` spans per lane.
    pub fn with_capacity(capacity: usize) -> SpanRecorder {
        SpanRecorder(Arc::new(Inner {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            capacity: capacity.max(1),
            lanes: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }))
    }

    /// A recorder with the default capacity.
    pub fn new() -> SpanRecorder {
        SpanRecorder::with_capacity(SpanRecorder::DEFAULT_CAPACITY)
    }

    /// Opens a span; the returned guard records it when dropped. The lane
    /// is this thread's, registered on first use and named after the
    /// thread; a named thread joins the lane that already has its name.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        SPANS_STARTED.fetch_add(1, Ordering::Relaxed);
        let start_us = self.0.start.elapsed().as_micros() as u64;
        let (lane, records, depth) = TLS_LANES.with(|tls| {
            let mut entries = tls.borrow_mut();
            if let Some(e) = entries.iter_mut().find(|e| e.recorder_id == self.0.id) {
                let depth = e.depth;
                e.depth += 1;
                return (e.lane, Arc::clone(&e.records), depth);
            }
            // First span of this recorder on this thread: join the lane
            // named after the thread, or register a new one.
            let thread = std::thread::current();
            let mut lanes = lock_recovering(&self.0.lanes);
            let named = thread
                .name()
                .and_then(|name| lanes.iter().position(|l| l.name == name));
            let lane = named.unwrap_or(lanes.len());
            if named.is_none() {
                let name = thread
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("lane-{lane}"));
                lanes.push(LaneInfo {
                    name,
                    records: Arc::new(Mutex::new(Vec::new())),
                });
            }
            let records = Arc::clone(&lanes[lane].records);
            drop(lanes);
            if entries.len() >= TLS_MAX_ENTRIES {
                // Only idle entries are evictable: an entry with open spans
                // still owes depth decrements.
                if let Some(pos) = entries.iter().position(|e| e.depth == 0) {
                    entries.remove(pos);
                }
            }
            entries.push(TlsLane {
                recorder_id: self.0.id,
                lane,
                records: Arc::clone(&records),
                depth: 1,
            });
            (lane, records, 0)
        });
        SpanGuard {
            recorder: self.clone(),
            records,
            lane,
            name: name.into(),
            start_us,
            depth,
            counters: Vec::new(),
            _not_send: std::marker::PhantomData,
        }
    }

    /// Number of spans recorded so far, across all lanes.
    pub fn spans_recorded(&self) -> usize {
        lock_recovering(&self.0.lanes)
            .iter()
            .map(|l| lock_recovering(&l.records).len())
            .sum()
    }

    /// Spans dropped because a lane hit its record capacity.
    pub fn dropped(&self) -> u64 {
        self.0.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of every lane: `(lane name, finished spans)` in lane
    /// registration order. Records appear in *end* order (a child span
    /// ends before its parent), each carrying its start offset and depth.
    pub fn lanes(&self) -> Vec<(String, Vec<SpanRecord>)> {
        lock_recovering(&self.0.lanes)
            .iter()
            .map(|l| (l.name.clone(), lock_recovering(&l.records).clone()))
            .collect()
    }

    /// The profile as Chrome `trace_event` JSON (the object form with a
    /// `traceEvents` array), loadable in Perfetto or `chrome://tracing`.
    /// Every span becomes a complete (`"ph": "X"`) event with microsecond
    /// `ts`/`dur`; each lane becomes its own `tid` with a `thread_name`
    /// metadata record, so worker lanes render as separate tracks.
    pub fn to_chrome_trace(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        for (tid, (lane_name, records)) in self.lanes().into_iter().enumerate() {
            let mut meta = Json::object();
            meta.set("name", "thread_name");
            meta.set("ph", "M");
            meta.set("pid", 1u64);
            meta.set("tid", tid as u64);
            meta.set("args", Json::from_pairs([("name", Json::from(lane_name))]));
            events.push(meta);
            for r in records {
                let mut args = Json::object();
                args.set("depth", r.depth as u64);
                for (k, v) in &r.counters {
                    args.set(k, *v);
                }
                let mut ev = Json::object();
                ev.set("name", r.name);
                ev.set("ph", "X");
                ev.set("ts", r.start_us);
                ev.set("dur", r.dur_us);
                ev.set("pid", 1u64);
                ev.set("tid", tid as u64);
                ev.set("args", args);
                events.push(ev);
            }
        }
        let mut out = Json::object();
        out.set("traceEvents", Json::Arr(events));
        out.set("displayTimeUnit", "ms");
        if self.dropped() > 0 {
            out.set("chronologDroppedSpans", self.dropped());
        }
        out
    }

    /// The profile as folded flamegraph stacks: one
    /// `lane;frame;...;frame <self-µs>` line per distinct stack, sorted,
    /// with self time = span duration minus its children's durations.
    pub fn to_folded(&self) -> String {
        use std::collections::BTreeMap;
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for (lane_name, mut records) in self.lanes() {
            // Records are stored in end order; re-sort into start order
            // with parents (lower depth) before children at equal starts,
            // then replay through a stack to rebuild the call tree.
            records.sort_by(|a, b| {
                a.start_us
                    .cmp(&b.start_us)
                    .then(a.depth.cmp(&b.depth))
                    .then(b.dur_us.cmp(&a.dur_us))
            });
            // (frame name, duration, accumulated child duration)
            let mut stack: Vec<(String, u64, u64)> = Vec::new();
            let lane_frame = lane_name.replace(';', ":");
            let pop = |stack: &mut Vec<(String, u64, u64)>, agg: &mut BTreeMap<String, u64>| {
                let (name, dur, child_sum) = stack.pop().expect("pop on non-empty stack");
                let self_us = dur.saturating_sub(child_sum);
                let mut path = String::with_capacity(64);
                path.push_str(&lane_frame);
                for (frame, _, _) in stack.iter() {
                    path.push(';');
                    path.push_str(frame);
                }
                path.push(';');
                path.push_str(&name);
                *agg.entry(path).or_insert(0) += self_us;
                if let Some(parent) = stack.last_mut() {
                    parent.2 += dur;
                }
            };
            for r in records {
                // Frames deeper than or at this record's depth have ended.
                while stack.len() > r.depth {
                    pop(&mut stack, &mut agg);
                }
                stack.push((r.name.replace(';', ":"), r.dur_us, 0));
            }
            while !stack.is_empty() {
                pop(&mut stack, &mut agg);
            }
        }
        let mut out = String::new();
        for (path, self_us) in agg {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&self_us.to_string());
            out.push('\n');
        }
        out
    }
}

impl Default for SpanRecorder {
    fn default() -> SpanRecorder {
        SpanRecorder::new()
    }
}

/// An open span; records itself into its lane when dropped.
#[must_use = "a span measures the scope that holds its guard"]
pub struct SpanGuard {
    recorder: SpanRecorder,
    records: Arc<Mutex<Vec<SpanRecord>>>,
    lane: usize,
    name: String,
    start_us: u64,
    depth: usize,
    counters: Vec<(&'static str, u64)>,
    /// Spans end on the thread that started them (lane depth is TLS).
    _not_send: std::marker::PhantomData<*const ()>,
}

impl SpanGuard {
    /// Attaches (or accumulates into) a named counter on this span.
    pub fn add(&mut self, key: &'static str, value: u64) {
        match self.counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += value,
            None => self.counters.push((key, value)),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_us = self.recorder.0.start.elapsed().as_micros() as u64;
        let dur_us = end_us.saturating_sub(self.start_us);
        TLS_LANES.with(|tls| {
            if let Some(e) = tls
                .borrow_mut()
                .iter_mut()
                .find(|e| e.recorder_id == self.recorder.0.id)
            {
                e.depth = e.depth.saturating_sub(1);
            }
        });
        let mut records = lock_recovering(&self.records);
        if records.len() >= self.recorder.0.capacity {
            self.recorder.0.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        records.push(SpanRecord {
            lane: self.lane,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            dur_us,
            depth: self.depth,
            counters: std::mem::take(&mut self.counters),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_depth() {
        let rec = SpanRecorder::new();
        {
            let _outer = rec.span("outer");
            {
                let mut inner = rec.span("inner");
                inner.add("rows", 3);
                inner.add("rows", 4);
            }
        }
        let lanes = rec.lanes();
        assert_eq!(lanes.len(), 1);
        let records = &lanes[0].1;
        assert_eq!(records.len(), 2);
        // End order: inner first.
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[0].depth, 1);
        assert_eq!(records[0].counters, vec![("rows", 7)]);
        assert_eq!(records[1].name, "outer");
        assert_eq!(records[1].depth, 0);
        // Containment: the child fits inside the parent.
        assert!(records[0].start_us >= records[1].start_us);
        assert!(records[0].start_us + records[0].dur_us <= records[1].start_us + records[1].dur_us);
    }

    #[test]
    fn threads_get_separate_lanes() {
        let rec = SpanRecorder::new();
        let _main = rec.span("main-work");
        let rec2 = rec.clone();
        std::thread::Builder::new()
            .name("helper".into())
            .spawn(move || {
                let _s = rec2.span("thread-work");
            })
            .unwrap()
            .join()
            .unwrap();
        drop(_main);
        let lanes = rec.lanes();
        assert_eq!(lanes.len(), 2);
        let names: Vec<&str> = lanes.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"helper"), "{names:?}");
        for (_, records) in &lanes {
            assert_eq!(records.len(), 1);
            assert_eq!(records[0].depth, 0);
        }
    }

    #[test]
    fn global_counter_tracks_span_starts() {
        let before = spans_started();
        let rec = SpanRecorder::new();
        drop(rec.span("a"));
        drop(rec.span("b"));
        assert!(spans_started() >= before + 2);
    }

    #[test]
    fn capacity_bounds_recorded_spans() {
        let rec = SpanRecorder::with_capacity(2);
        for i in 0..5 {
            drop(rec.span(format!("s{i}")));
        }
        assert_eq!(rec.spans_recorded(), 2);
        assert_eq!(rec.dropped(), 3);
        assert!(rec.to_chrome_trace().get("chronologDroppedSpans").is_some());
    }

    #[test]
    fn chrome_trace_has_thread_metadata_and_complete_events() {
        let rec = SpanRecorder::new();
        {
            let _a = rec.span("phase");
            let _b = rec.span("step");
        }
        let trace = rec.to_chrome_trace();
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        let phs: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(phs.iter().filter(|p| **p == "M").count(), 1);
        assert_eq!(phs.iter().filter(|p| **p == "X").count(), 2);
        for e in events {
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            if e.get("ph").and_then(Json::as_str) == Some("X") {
                assert!(e.get("ts").and_then(Json::as_u64).is_some());
                assert!(e.get("dur").and_then(Json::as_u64).is_some());
            }
        }
        // Round-trips through the strict parser.
        let text = trace.to_pretty();
        Json::parse(&text).expect("chrome trace parses back");
    }

    #[test]
    fn folded_stacks_aggregate_self_time() {
        let rec = SpanRecorder::new();
        {
            let _outer = rec.span("outer");
            for _ in 0..2 {
                let _inner = rec.span("inner");
                std::hint::black_box(0);
            }
        }
        let folded = rec.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2, "{folded}");
        assert!(
            lines.iter().any(|l| l.contains(";outer;inner ")),
            "{folded}"
        );
        assert!(
            lines
                .iter()
                .any(|l| l.contains(";outer ") && !l.contains("inner")),
            "{folded}"
        );
        for line in lines {
            let (_, count) = line.rsplit_once(' ').expect("space-separated count");
            count.parse::<u64>().expect("numeric self time");
        }
    }

    #[test]
    fn one_thread_can_serve_multiple_recorders() {
        let a = SpanRecorder::new();
        let b = SpanRecorder::new();
        {
            let _sa = a.span("on-a");
            let _sb = b.span("on-b");
        }
        assert_eq!(a.spans_recorded(), 1);
        assert_eq!(b.spans_recorded(), 1);
        assert_eq!(a.lanes().len(), 1);
        assert_eq!(b.lanes().len(), 1);
    }
}
