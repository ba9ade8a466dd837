//! Schema checks: `BENCHMARK.json` agrees with the metric catalogue, and
//! what the binary writes — the results file of a smoke `run`, and the
//! result line of a single workload — names exactly the workloads and
//! metrics `BENCHMARK.json` declares.

use chronolog_benchmark::metrics::{Spec, END_TO_END, LAYERS, OPERATIONS, WORKLOADS};
use chronolog_obs::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Stdio};

const EXE: &str = env!("CARGO_BIN_EXE_chronolog-benchmark");

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn names(list: &[Json]) -> BTreeSet<String> {
    list.iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn assert_same_specs(listed: &[Json], catalogue: &[&Spec], bounded: bool) {
    assert_eq!(listed.len(), catalogue.len());
    for (entry, spec) in listed.iter().zip(catalogue) {
        let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or("");
        assert_eq!(field("name"), spec.name);
        assert_eq!(field("unit"), spec.unit, "{}", spec.name);
        assert_eq!(field("better"), spec.better.as_str(), "{}", spec.name);
        let keys = entry.as_object().expect("metric object").len();
        if bounded {
            assert_eq!(entry.get("bound").and_then(Json::as_f64), spec.bound);
            assert!(spec.bound.is_some_and(|b| b <= 0.25), "{}", spec.name);
            assert_eq!(keys, 4, "{}", spec.name);
        } else {
            assert_eq!(keys, 3, "{}", spec.name);
        }
    }
}

#[test]
fn manifest_agrees_with_the_catalogue() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads = entries(&m, "workloads");
    assert_eq!(
        names(workloads),
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    );
    for w in workloads {
        let why = w.get("why").and_then(Json::as_str).expect("why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    let end_to_end: Vec<&Spec> = END_TO_END.iter().collect();
    assert_same_specs(entries(&m, "end_to_end"), &end_to_end, true);
    let per_layer: Vec<&Spec> = OPERATIONS.iter().chain(LAYERS).collect();
    assert_same_specs(entries(&m, "per_layer"), &per_layer, false);
    assert_eq!(
        m.get("paths").and_then(Json::as_array).map(<[Json]>::len),
        Some(1)
    );
}

#[test]
fn smoke_results_file_names_what_the_manifest_declares() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-results.json");
    let status = Command::new(EXE)
        .args(["run", "--smoke", "--runs", "1", "--out"])
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("the benchmark binary runs");
    assert!(status.success(), "smoke run failed: {status}");
    let results = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();

    let m = manifest();
    let end_to_end = names(entries(&m, "end_to_end"));
    let declared: BTreeSet<String> = end_to_end
        .union(&names(entries(&m, "per_layer")))
        .cloned()
        .collect();
    let workloads = results.get("workloads").and_then(Json::as_object).unwrap();
    let ran: Vec<&str> = workloads.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(ran, WORKLOADS);
    for (name, w) in workloads {
        assert_eq!(w.get("failed").and_then(Json::as_u64), Some(0), "{name}");
        assert!(w.get("attempted").and_then(Json::as_u64).unwrap() > 0);
        let metrics = w.get("metrics").and_then(Json::as_object).unwrap();
        for (metric, value) in metrics {
            assert!(
                declared.contains(metric),
                "{name} reports undeclared {metric}"
            );
            let spec = chronolog_benchmark::metrics::spec(metric).unwrap();
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert!(spec.applies_to(name), "{name} reports {metric}");
        }
        // Every end-to-end metric exists, and is never 0, on every workload.
        for metric in &end_to_end {
            let median = w
                .get("metrics")
                .and_then(|ms| ms.get(metric))
                .and_then(|v| v.get("median"))
                .and_then(Json::as_f64);
            assert!(
                median.is_some_and(|v| v > 0.0),
                "{name} {metric}: {median:?}"
            );
        }
        assert!(w.get("self_time").and_then(Json::as_array).is_some());
    }
    let env = results.get("environment").unwrap();
    assert!(env.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
}

fn result_line(trace: &str) -> Json {
    let output = Command::new(EXE)
        .args(["--workload", "netting_batch", "--smoke", "--seed", "3"])
        .args(["--seconds", "1", "--trace", trace])
        .stderr(Stdio::null())
        .output()
        .expect("the benchmark binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn result_line_has_exactly_the_contract_keys_and_metrics() {
    let m = manifest();
    for (trace, family) in [("0", "end_to_end"), ("1", "per_layer")] {
        let line = result_line(trace);
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
        let reported: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(reported, names(entries(&m, family)), "--trace {trace}");
        for (name, metric) in metrics {
            assert!(
                metric.get("value").and_then(Json::as_f64).is_some(),
                "{name}"
            );
            assert!(
                metric.get("unit").and_then(Json::as_str).is_some(),
                "{name}"
            );
        }
    }
}

#[test]
fn unknown_workloads_and_missing_arguments_fail_without_a_result() {
    for args in [&["--workload", "nope", "--smoke"][..], &["--seed", "1"][..]] {
        let output = Command::new(EXE).args(args).output().unwrap();
        assert!(!output.status.success());
        assert!(!String::from_utf8_lossy(&output.stdout).contains("\"metrics\""));
    }
}
