//! `report FILE`: renders a results file as the Markdown tables of the
//! committed baseline, so that no figure is ever typed by hand.

use crate::metrics::{Spec, END_TO_END, LAYERS, OPERATIONS, WORKLOADS};
use crate::stats::{highest_supported_percentile, median};
use chronolog_obs::Json;

fn number(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.3e}")
    }
}

/// The percentile a metric's name promises (`…_p95_ms` → 95).
fn named_percentile(name: &str) -> Option<f64> {
    let tail = name.split("_p").nth(1)?;
    tail.split('_').next()?.parse().ok()
}

fn metric_rows(workload: &Json, specs: &[Spec], out: &mut String) {
    out.push_str(
        "| metric | unit | median | runs | IQR ÷ median | samples per run |\n|---|---|---|---|---|---|\n",
    );
    let Some(metrics) = workload.get("metrics") else {
        return;
    };
    for s in specs {
        let Some(m) = metrics.get(s.name) else {
            continue;
        };
        let values: Vec<f64> = m
            .get("values")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        let samples = m.get("samples").and_then(Json::as_u64).unwrap_or(0);
        // A tail is reported only where ten samples lie beyond it.
        let unsupported = named_percentile(s.name).is_some_and(|p| {
            highest_supported_percentile(samples as usize).is_none_or(|best| best < p)
        });
        let spread = m.get("spread").and_then(Json::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "| `{}` | {} | {}{} | {} | {:.1} % | {} |\n",
            s.name,
            s.unit,
            number(median(&values)),
            if unsupported { " †" } else { "" },
            values.len(),
            100.0 * spread,
            samples
        ));
    }
}

/// Renders the whole file.
pub fn render(results: &Json) -> String {
    let mut out = String::from("# Benchmark results\n\n");
    if let Some(env) = results.get("environment").and_then(Json::as_object) {
        let fields: Vec<String> = env.iter().map(|(k, v)| format!("{k} = {v}")).collect();
        out.push_str(&format!("Environment: {}.\n", fields.join(", ")));
    }
    for key in ["seed", "seconds", "runs", "smoke"] {
        if let Some(v) = results.get(key) {
            out.push_str(&format!("{key} = {v}. "));
        }
    }
    out.push_str(
        "\n\nEnd-to-end and operation metrics are medians over the timed runs (tracing off); \
         per-layer metrics come from the one traced run. † marks a percentile with fewer than \
         ten samples beyond it.\n",
    );
    for name in WORKLOADS {
        let Some(w) = results.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        out.push_str(&format!("\n## {name}\n\n"));
        let count = |k: &str| w.get(k).and_then(Json::as_u64).unwrap_or(0);
        out.push_str(&format!(
            "{} operations attempted, {} failed.\n\n### End to end\n\n",
            count("attempted"),
            count("failed")
        ));
        let gated: Vec<Spec> = END_TO_END
            .iter()
            .chain(OPERATIONS)
            .filter(|s| s.applies_to(name))
            .copied()
            .collect();
        metric_rows(w, &gated, &mut out);
        out.push_str("\n### Per layer\n\n");
        metric_rows(w, LAYERS, &mut out);
        if let Some(rows) = w.get("advance_fit").and_then(Json::as_array) {
            out.push_str(
                "\n### Advance cost per trace\n\n| trace | events | median gap s | ingest p50 ms \
                 | fixed ms | µs per gap s | gap share | growth |\n|---|---|---|---|---|---|---|---|\n",
            );
            for r in rows {
                let f = |k: &str| number(r.get(k).and_then(Json::as_f64).unwrap_or(0.0));
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {} |\n",
                    r.get("trace").and_then(Json::as_str).unwrap_or("?"),
                    f("events"),
                    f("median_gap_s"),
                    f("ingest_p50_ms"),
                    f("advance_fixed_ms"),
                    f("advance_us_per_gap_s"),
                    f("gap_share"),
                    f("advance_growth"),
                ));
            }
        }
        if let Some(rows) = w.get("self_time").and_then(Json::as_array) {
            let total: f64 = rows
                .iter()
                .filter_map(|r| r.get("self_us").and_then(Json::as_f64))
                .sum();
            out.push_str(
                "\n### Self time of the traced pass\n\n| span | calls | self ms | share |\n|---|---|---|---|\n",
            );
            for r in rows {
                let self_us = r.get("self_us").and_then(Json::as_f64).unwrap_or(0.0);
                out.push_str(&format!(
                    "| `{}` | {} | {:.3} | {:.2} % |\n",
                    r.get("span").and_then(Json::as_str).unwrap_or("?"),
                    r.get("count").and_then(Json::as_u64).unwrap_or(0),
                    self_us / 1e3,
                    100.0 * self_us / total.max(1.0)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_read_from_metric_names() {
        assert_eq!(named_percentile("ingest_p95_ms"), Some(95.0));
        assert_eq!(named_percentile("query_p50_ms"), Some(50.0));
        assert_eq!(named_percentile("batch_s"), None);
        assert_eq!(named_percentile("peak_rss_mb"), None);
    }

    #[test]
    fn numbers_keep_their_significant_digits() {
        assert_eq!(number(0.0), "0");
        assert_eq!(number(29160.0), "29160");
        assert_eq!(number(15.1543), "15.154");
        assert_eq!(number(0.00030472), "3.047e-4");
        assert_eq!(number(182.756), "182.8");
    }
}
