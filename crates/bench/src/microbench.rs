//! Minimal self-contained micro-benchmark harness.
//!
//! Covers the small Criterion subset the benches in `benches/` use —
//! groups, `bench_function`, `iter`, `iter_batched`, per-group sample
//! sizes — with zero external dependencies. Each benchmark is calibrated
//! so one sample takes a few milliseconds, then timed over `sample_size`
//! samples; min/median/mean per iteration are printed as the run goes.
//!
//! Pass `--json PATH` after `--` to also write the collected results as a
//! schema-versioned JSON report (see [`BENCH_SCHEMA_VERSION`]); the file
//! is written when the harness is dropped at the end of `main`. Results
//! accumulate across groups, so one report covers the whole bench binary.
//!
//! Wall-clock numbers from this harness are indicative, not
//! statistically rigorous: there is no outlier rejection and no
//! regression tracking. They are good enough for the relative
//! comparisons the benches make (indexed vs scanned joins, warm vs cold
//! sessions, goal-driven vs full queries).

use chronolog_obs::Json;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Schema version of the `--json` report. v1: `{schema_version, command,
/// benches: [{name, median_ns, min_ns, mean_ns, iters, samples}]}`.
/// v2 added the `environment` section (`cpus` — the parallelism available
/// to the run, so multi-core baselines are labeled as such).
/// v3 added memory-footprint reporting: caller-supplied `environment`
/// fields (see [`Bench::set_env`]; the engine benches record the ABI
/// sizes of `Value` and `Interval` there) and an optional per-bench
/// `bytes_per_tuple` field (see [`Bench::annotate_bytes_per_tuple`]) for
/// benches that measure storage footprint alongside wall time.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// One finished benchmark's timing summary (per-iteration durations).
struct BenchResult {
    name: String,
    min: Duration,
    median: Duration,
    mean: Duration,
    iters: u64,
    samples: usize,
    /// Storage bytes per stored tuple, for benches that also measure a
    /// memory footprint (`None` keeps the field out of the report).
    bytes_per_tuple: Option<f64>,
}

/// Top-level harness; hand out groups or run stand-alone benchmarks.
pub struct Bench {
    filter: Option<String>,
    json_path: Option<String>,
    results: Vec<BenchResult>,
    env: Vec<(String, u64)>,
}

impl Bench {
    /// Builds a harness from the command line: an optional substring
    /// filter (`cargo bench --bench engine_micro -- parse` runs only
    /// benchmarks whose full name contains "parse") and an optional
    /// `--json PATH` for the machine-readable report.
    pub fn from_env() -> Bench {
        let mut filter = None;
        let mut json_path = None;
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--json" {
                json_path = args.next();
            } else if !arg.starts_with('-') && filter.is_none() {
                filter = Some(arg);
            }
        }
        Bench {
            filter,
            json_path,
            results: Vec::new(),
            env: Vec::new(),
        }
    }

    /// Records an extra `environment` field in the JSON report (schema
    /// v3): machine- or build-level facts that contextualize the numbers,
    /// e.g. struct sizes behind a `bytes_per_tuple` figure.
    pub fn set_env(&mut self, key: &str, value: u64) {
        if let Some(e) = self.env.iter_mut().find(|(k, _)| k == key) {
            e.1 = value;
        } else {
            self.env.push((key.to_string(), value));
        }
    }

    /// Attaches a measured storage footprint (bytes per stored tuple) to
    /// the named benchmark's report entry. A no-op when the benchmark was
    /// filtered out of this run.
    pub fn annotate_bytes_per_tuple(&mut self, name: &str, bytes_per_tuple: f64) {
        if let Some(r) = self.results.iter_mut().find(|r| r.name == name) {
            r.bytes_per_tuple = Some(bytes_per_tuple);
        }
    }

    /// Starts a named group; benchmark names are prefixed `group/name`.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            bench: self,
            prefix: name.to_string(),
            sample_size: 20,
        }
    }

    /// Runs a stand-alone benchmark with the default sample size.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        self.run_one(name, 20, f);
    }

    fn run_one(&mut self, name: &str, samples: usize, f: impl FnMut(&mut Bencher)) {
        if let Some(filt) = &self.filter {
            if !name.contains(filt.as_str()) {
                return;
            }
        }
        if let Some(result) = run_one(name, samples, f) {
            self.results.push(result);
        }
    }

    /// Renders the collected results as the schema-versioned JSON report.
    pub fn report_json(&self) -> Json {
        let mut report = Json::object();
        report.set("schema_version", BENCH_SCHEMA_VERSION);
        report.set(
            "command",
            std::env::args().next().unwrap_or_default().as_str(),
        );
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        let mut environment = Json::object();
        environment.set("cpus", cpus);
        for (k, v) in &self.env {
            environment.set(k, *v);
        }
        report.set("environment", environment);
        report.set(
            "benches",
            Json::Arr(
                self.results
                    .iter()
                    .map(|r| {
                        let mut j = Json::from_pairs([
                            ("name", Json::from(r.name.as_str())),
                            ("median_ns", Json::from(r.median.as_nanos() as u64)),
                            ("min_ns", Json::from(r.min.as_nanos() as u64)),
                            ("mean_ns", Json::from(r.mean.as_nanos() as u64)),
                            ("iters", Json::from(r.iters)),
                            ("samples", Json::from(r.samples as u64)),
                        ]);
                        if let Some(bpt) = r.bytes_per_tuple {
                            j.set("bytes_per_tuple", bpt);
                        }
                        j
                    })
                    .collect(),
            ),
        );
        report
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        if let Some(path) = &self.json_path {
            match std::fs::write(path, self.report_json().to_pretty()) {
                Ok(()) => println!("wrote {} results to {path}", self.results.len()),
                Err(e) => eprintln!("cannot write bench report {path}: {e}"),
            }
        }
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct Group<'a> {
    bench: &'a mut Bench,
    prefix: String,
    sample_size: usize,
}

impl Group<'_> {
    /// Sets how many timed samples each benchmark in this group takes.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function(&mut self, name: impl AsRef<str>, f: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.prefix, name.as_ref());
        let samples = self.sample_size;
        self.bench.run_one(&full, samples, f);
    }

    /// Ends the group. (Groups report as they go; this is a no-op kept for
    /// call-site symmetry.)
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; runs and times the routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `f` over the calibrated iteration count.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` only; `setup` runs outside the timed region each
    /// iteration (for routines that consume their input).
    pub fn iter_batched<S, T>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> T,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = total;
    }
}

fn run_one(name: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) -> Option<BenchResult> {
    // Warmup doubles as calibration: size each sample to take ~5ms so
    // Instant resolution noise stays below a percent.
    let mut warm = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut warm);
    let per_iter = warm.elapsed.max(Duration::from_nanos(1));
    let iters =
        (Duration::from_millis(5).as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;

    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        times.push(b.elapsed / iters as u32);
    }
    times.sort();
    let min = times[0];
    let median = times[times.len() / 2];
    let mean = times.iter().sum::<Duration>() / times.len() as u32;
    println!(
        "{name:<45} min {:>12}  median {:>12}  mean {:>12}  ({iters} iters x {samples} samples)",
        fmt_duration(min),
        fmt_duration(median),
        fmt_duration(mean),
    );
    Some(BenchResult {
        name: name.to_string(),
        min,
        median,
        mean,
        iters,
        samples,
        bytes_per_tuple: None,
    })
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare(filter: Option<&str>) -> Bench {
        Bench {
            filter: filter.map(str::to_string),
            json_path: None,
            results: Vec::new(),
            env: Vec::new(),
        }
    }

    #[test]
    fn calibrates_and_runs() {
        let mut b = bare(None);
        let mut group = b.group("t");
        group.sample_size(3);
        let mut ran = 0u64;
        group.bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            ran += 1;
        });
        group.finish();
        assert!(ran >= 3, "warmup + samples should all run, got {ran}");
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut b = bare(Some("other"));
        let mut ran = false;
        b.bench_function("this_one", |b| {
            b.iter(|| ());
            ran = true;
        });
        assert!(!ran);
    }

    #[test]
    fn json_report_carries_all_results() {
        let mut b = bare(None);
        let mut group = b.group("g");
        group.sample_size(2);
        group.bench_function("one", |b| b.iter(|| 1 + 1));
        group.bench_function("two", |b| b.iter(|| 2 + 2));
        group.finish();
        let report = b.report_json();
        assert_eq!(
            report.get("schema_version").and_then(Json::as_u64),
            Some(BENCH_SCHEMA_VERSION)
        );
        let benches = report.get("benches").and_then(Json::as_array).unwrap();
        assert_eq!(benches.len(), 2);
        assert_eq!(benches[0].get("name").and_then(Json::as_str), Some("g/one"));
        assert!(benches[0].get("median_ns").and_then(Json::as_u64).is_some());
        let cpus = report
            .get("environment")
            .and_then(|e| e.get("cpus"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(cpus >= 1, "runner parallelism must be recorded");
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }
}
