//! The command line.
//!
//! ```text
//! chronolog-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload in this process; the last line of standard output is
//!     the result object the benchmark driver reads
//! chronolog-benchmark run [--seed N] [--runs K] [--seconds S] [--smoke] [--out FILE]
//!     all four workloads, each run in a child process of its own, into
//!     one results file
//! chronolog-benchmark trace [--seed N] [--smoke]
//!     the traced pass of each workload only
//! chronolog-benchmark compare A.json B.json
//! chronolog-benchmark report FILE
//! ```

use crate::compare::compare;
use crate::metrics::{Outcome, Spec, END_TO_END, LAYERS, OPERATIONS, WORKLOADS};
use crate::stats::{median, relative_spread};
use crate::workloads::{self, Ctx};
use crate::{env, report};
use chronolog_obs::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Measured seconds per invocation unless `--seconds` says otherwise
/// (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 16.0;
/// Timed runs per workload of `run` unless `--runs` says otherwise.
const DEFAULT_RUNS: usize = 3;

const USAGE: &str = "usage:
  chronolog-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--detail FILE]
  chronolog-benchmark run [--seed N] [--runs K] [--seconds S] [--smoke] [--out FILE]
  chronolog-benchmark trace [--seed N] [--smoke]
  chronolog-benchmark compare A.json B.json
  chronolog-benchmark report FILE
workloads: fig3_batch fig3_live burst_ops netting_batch";

/// Parsed options shared by the measuring commands.
struct Options {
    workload: Option<String>,
    ctx: Ctx,
    runs: usize,
    out: Option<PathBuf>,
    detail: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        ctx: Ctx {
            seed: 0,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        },
        runs: DEFAULT_RUNS,
        out: None,
        detail: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad value `{v}` for {flag}"))
        }
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => o.ctx.seed = num("--seed", value("--seed")?)?,
            "--seconds" => o.ctx.seconds = num("--seconds", value("--seconds")?)?,
            "--runs" => o.runs = num::<usize>("--runs", value("--runs")?)?.max(1),
            "--trace" => {
                o.ctx.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => o.ctx.smoke = true,
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--detail" => o.detail = Some(PathBuf::from(value("--detail")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    if !o.ctx.seconds.is_finite() || o.ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(o)
}

/// Entry point; returns the process exit code (0 success, 1 failure or
/// regression, 2 usage).
pub fn main(args: Vec<String>) -> i32 {
    let command = args.first().map(String::as_str);
    let rest = match command {
        Some("run" | "trace" | "compare" | "report") => &args[1..],
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return if command.is_none() { 2 } else { 0 };
        }
        _ => &args[..],
    };
    let options = match parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let result = match command {
        Some("run") => run_all(&options, false),
        Some("trace") => run_all(&options, true),
        Some("compare") => compare_files(&options.positional),
        Some("report") => report_file(&options.positional),
        _ => run_one(&options),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// A debug build's timings are meaningless; only `--smoke`, whose numbers
/// nobody keeps, may run in one.
fn refuse_debug(ctx: &Ctx) -> Result<(), String> {
    if env::is_release() || ctx.smoke {
        Ok(())
    } else {
        Err("this is a debug build; measure with `cargo run --release` (or pass --smoke)".into())
    }
}

/// The families of the result line: the end-to-end metrics with tracing
/// off, every other metric with tracing on.
fn line_families(trace: bool) -> &'static [&'static [Spec]] {
    if trace {
        &[OPERATIONS, LAYERS]
    } else {
        &[END_TO_END]
    }
}

fn print_metrics(out: &Outcome) {
    for s in END_TO_END.iter().chain(OPERATIONS).chain(LAYERS) {
        if let Some(m) = out.values.get(s.name) {
            println!(
                "{:<56} {:>16.6} {:<6} (n={})",
                s.name, m.value, s.unit, m.samples
            );
        }
    }
    if !out.self_time.is_empty() {
        println!("self time of the traced pass:");
        for r in &out.self_time {
            println!(
                "  {:<40} {:>8} calls {:>12.3} ms",
                r.name,
                r.count,
                r.self_us as f64 / 1e3
            );
        }
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
}

/// One workload, in this process. The last line printed is the result
/// object of the benchmark contract.
fn run_one(o: &Options) -> Result<i32, String> {
    let workload = o.workload.as_deref().ok_or("--workload is required")?;
    refuse_debug(&o.ctx)?;
    let out = workloads::run(workload, &o.ctx)?;
    print_metrics(&out);
    if let Some(path) = &o.detail {
        write(path, &out.detail_json(workload))?;
    }
    let mut line = Json::object();
    line.set("correct", out.failed == 0);
    line.set("attempted", out.attempted);
    line.set("failed", out.failed);
    line.set("metrics", out.metrics_json(line_families(o.ctx.trace)));
    println!("{}", line.to_compact());
    Ok(0)
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Runs one workload in a child process of its own — so `peak_rss_mb` is
/// that workload's alone and the process-global interner starts empty —
/// and returns the detail it wrote.
fn child(workload: &str, ctx: &Ctx) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let detail = crate::out_dir().join(format!("detail-{workload}-{}.json", std::process::id()));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if ctx.trace { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail)
        .stdout(std::process::Stdio::null());
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} exited with {status}"));
    }
    let doc = read(&detail.to_string_lossy())?;
    std::fs::remove_file(&detail).ok();
    Ok(doc)
}

/// `run` (timed runs plus the traced pass) and `trace` (traced pass
/// only): every workload in child processes, merged into one results
/// file.
fn run_all(o: &Options, trace_only: bool) -> Result<i32, String> {
    refuse_debug(&o.ctx)?;
    let mut workloads_doc = Json::object();
    let (mut attempted, mut failed) = (0, 0);
    for workload in WORKLOADS {
        let mut details = Vec::new();
        if !trace_only {
            for run in 0..o.runs {
                eprintln!("{workload}: timed run {} of {}", run + 1, o.runs);
                details.push(child(
                    workload,
                    &Ctx {
                        trace: false,
                        ..o.ctx
                    },
                )?);
            }
        }
        eprintln!("{workload}: traced run");
        let traced = child(
            workload,
            &Ctx {
                trace: true,
                ..o.ctx
            },
        )?;
        let entry = merge(workload, &details, &traced);
        attempted += entry.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += entry.get("failed").and_then(Json::as_u64).unwrap_or(0);
        workloads_doc.set(workload, entry);
    }
    let mut doc = Json::object();
    doc.set("schema", 1u64);
    doc.set("environment", env::describe());
    doc.set("seed", o.ctx.seed);
    doc.set("seconds", o.ctx.seconds);
    doc.set("runs", if trace_only { 0 } else { o.runs });
    doc.set("smoke", o.ctx.smoke);
    doc.set("workloads", workloads_doc);
    let path = o.out.clone().unwrap_or_else(|| {
        crate::out_dir().join(if trace_only {
            "trace.json"
        } else {
            "results.json"
        })
    });
    write(&path, &doc)?;
    println!("{}", report::render(&doc));
    println!(
        "{attempted} operations attempted, {failed} failed; results in {}",
        path.display()
    );
    Ok(i32::from(failed > 0))
}

/// Merges the details of a workload's timed runs and of its traced run:
/// end-to-end and operation metrics take one value per timed run (the
/// traced run's own untraced pass when there are none), per-layer metrics
/// the traced run's value.
fn merge(workload: &str, timed: &[Json], traced: &Json) -> Json {
    let sum = |key: &str| -> u64 {
        timed
            .iter()
            .chain([traced])
            .filter_map(|d| d.get(key).and_then(Json::as_u64))
            .sum()
    };
    let mut metrics = Json::object();
    let families: [(&[Spec], bool); 3] = [(END_TO_END, true), (OPERATIONS, true), (LAYERS, false)];
    for (family, from_timed) in families {
        for s in family {
            let sources: Vec<&Json> = if from_timed && !timed.is_empty() {
                timed.iter().collect()
            } else {
                vec![traced]
            };
            let found: Vec<&Json> = sources
                .iter()
                .filter_map(|d| d.get("metrics")?.get(s.name))
                .collect();
            if found.is_empty() || !s.applies_to(workload) {
                continue;
            }
            let values: Vec<f64> = found
                .iter()
                .filter_map(|m| m.get("value").and_then(Json::as_f64))
                .collect();
            let mut m = Json::object();
            m.set("unit", s.unit);
            m.set("median", median(&values));
            m.set("spread", relative_spread(&values));
            m.set(
                "values",
                Json::Arr(values.into_iter().map(Json::from).collect()),
            );
            m.set(
                "samples",
                found[0].get("samples").and_then(Json::as_u64).unwrap_or(0),
            );
            metrics.set(s.name, m);
        }
    }
    let mut entry = Json::object();
    entry.set("attempted", sum("attempted"));
    entry.set("failed", sum("failed"));
    let failures: Vec<Json> = timed
        .iter()
        .chain([traced])
        .filter_map(|d| d.get("failures").and_then(Json::as_array))
        .flatten()
        .cloned()
        .collect();
    entry.set("failures", Json::Arr(failures));
    entry.set("metrics", metrics);
    for key in ["advance_fit", "self_time"] {
        if let Some(v) = traced.get(key) {
            entry.set(key, v.clone());
        }
    }
    entry
}

fn compare_files(paths: &[String]) -> Result<i32, String> {
    let [a, b] = paths else {
        return Err(format!("compare takes two results files\n{USAGE}"));
    };
    let comparison = compare(&read(a)?, &read(b)?)?;
    println!("A (parent) = {a}\nB (change) = {b}\n");
    print!("{}", comparison.render());
    Ok(i32::from(comparison.regressed()))
}

fn report_file(paths: &[String]) -> Result<i32, String> {
    let [path] = paths else {
        return Err(format!("report takes one results file\n{USAGE}"));
    };
    print!("{}", report::render(&read(path)?));
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let o = parse(&args(
            "--workload burst_ops --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("burst_ops"));
        assert_eq!(o.ctx.seed, 7);
        assert_eq!(o.ctx.seconds, 20.0);
        assert!(o.ctx.trace && !o.ctx.smoke);
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for bad in [
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--workload",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
        assert_eq!(main(args("--seed")), 2);
        assert_eq!(main(args("compare only-one.json")), 1);
    }

    #[test]
    fn result_line_families_split_on_trace() {
        let names = |trace| -> Vec<&str> {
            line_families(trace)
                .iter()
                .flat_map(|f| f.iter().map(|s| s.name))
                .collect()
        };
        assert_eq!(names(false), ["setup_s", "batch_s", "state_mb"]);
        assert!(names(true).contains(&"ingest_p95_ms"));
        assert!(names(true).contains(&"temporal.components_per_tuple"));
        assert!(!names(true).contains(&"batch_s"));
    }
}
