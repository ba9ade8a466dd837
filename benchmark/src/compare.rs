//! `compare A.json B.json`: the gate later changes are judged with. One
//! row per workload × gated metric, with the parent's median (A), the
//! change's median (B), their ratio stated with its base, and a verdict
//! from the bounds in the metric catalogue.

use crate::metrics::{Better, Spec, END_TO_END, LAYERS, OPERATIONS, WORKLOADS};
use crate::stats::{median, quartiles};
use chronolog_obs::Json;

/// What a metric did between the parent and the change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread of one side is wider than the bound, and the
    /// two sides' runs overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

/// Judges one metric on one workload from the two sides' runs.
///
/// The tolerance is the bound as a share of the parent's median, but at
/// least the metric's absolute floor (5 ms / 1 MB), so tiny values are not
/// judged on noise. When either side's interquartile range exceeds the
/// tolerance the verdict is `Unresolved`, unless every run of the change
/// is better (or every run worse, by more than the tolerance) than every
/// run of the parent.
pub fn judge(spec: &Spec, parent: &[f64], change: &[f64]) -> Verdict {
    let (p, c) = (median(parent), median(change));
    // Positive = the change is worse.
    let worse_by = |p: f64, c: f64| match spec.better {
        Better::Lower => c - p,
        Better::Higher => p - c,
    };
    let worse = worse_by(p, c);
    let tolerance = (spec.bound.unwrap_or(0.0) * p.abs()).max(spec.floor);
    if iqr(parent).max(iqr(change)) > tolerance {
        let every_pair = |pred: &dyn Fn(f64) -> bool| {
            parent
                .iter()
                .all(|&a| change.iter().all(|&b| pred(worse_by(a, b))))
        };
        return if every_pair(&|w| w < 0.0) {
            Verdict::Improved
        } else if worse > tolerance && every_pair(&|w| w > 0.0) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > tolerance {
        Verdict::Regressed
    } else if -worse > tolerance {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row of the comparison table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// The metric.
    pub spec: &'static Spec,
    /// Median over the parent's runs.
    pub parent: f64,
    /// Median over the change's runs.
    pub change: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The outcome of comparing two results files.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One row per workload × gated metric the workload exercises.
    pub rows: Vec<Row>,
    /// Exact-count layer metrics whose values differ, as
    /// `workload metric: parent vs change`.
    pub count_differences: Vec<String>,
    /// Exact-count layer metrics compared.
    pub counts_compared: usize,
}

impl Comparison {
    /// Whether the change must be refused: any regression (a higher
    /// `failed_share` is one, its bound being 0).
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// The table as text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "workload       metric           unit   parent(A)      change(B)      B/A      bound   verdict\n",
        );
        for r in &self.rows {
            let ratio = if r.parent != 0.0 {
                format!("{:.4}", r.change / r.parent)
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "{:<14} {:<16} {:<6} {:<14.6} {:<14.6} {:<8} {:<7} {}\n",
                r.workload,
                r.spec.name,
                r.spec.unit,
                r.parent,
                r.change,
                ratio,
                format!("{:.0}%", r.spec.bound.unwrap_or(0.0) * 100.0),
                r.verdict.as_str()
            ));
        }
        out.push_str(&format!(
            "\nexact-count layer metrics: {} compared, {} differ\n",
            self.counts_compared,
            self.count_differences.len()
        ));
        for d in &self.count_differences {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }
}

fn values_of(results: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values = results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_array()?;
    let values: Vec<f64> = values.iter().filter_map(Json::as_f64).collect();
    (!values.is_empty()).then_some(values)
}

/// Compares two results files written by `run` (A the parent, B the
/// change).
pub fn compare(parent: &Json, change: &Json) -> Result<Comparison, String> {
    let mut out = Comparison::default();
    for workload in WORKLOADS {
        for spec in END_TO_END.iter().chain(OPERATIONS) {
            if !spec.applies_to(workload) {
                continue;
            }
            let side = |results: &Json, which: &str| {
                values_of(results, workload, spec.name)
                    .ok_or_else(|| format!("{which} has no {workload} {}", spec.name))
            };
            let (a, b) = (side(parent, "A")?, side(change, "B")?);
            out.rows.push(Row {
                workload,
                spec,
                parent: median(&a),
                change: median(&b),
                verdict: judge(spec, &a, &b),
            });
        }
        for spec in LAYERS.iter().filter(|s| s.exact) {
            let (Some(a), Some(b)) = (
                values_of(parent, workload, spec.name),
                values_of(change, workload, spec.name),
            ) else {
                continue;
            };
            out.counts_compared += 1;
            if a != b {
                out.count_differences
                    .push(format!("{workload} {}: {a:?} vs {b:?}", spec.name));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-made metric: 10 % bound, 5 ms floor.
    fn seconds(better: Better) -> Spec {
        Spec {
            name: "test_s",
            unit: "s",
            better,
            bound: Some(0.10),
            floor: 0.005,
            workloads: &[],
            exact: false,
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let s = seconds(Better::Lower);
        let parent = [10.0, 10.1, 9.9];
        assert_eq!(judge(&s, &parent, &[10.5, 10.6, 10.4]), Verdict::Unchanged);
        assert_eq!(judge(&s, &parent, &[11.5, 11.6, 11.4]), Verdict::Regressed);
        assert_eq!(judge(&s, &parent, &[8.5, 8.6, 8.4]), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_runs_separate() {
        let s = seconds(Better::Lower);
        // IQR of the parent is 4.0 > 10 % of 10.
        let noisy = [8.0, 10.0, 12.0];
        assert_eq!(judge(&s, &noisy, &[8.5, 10.5, 12.5]), Verdict::Unresolved);
        // Every run of the change beats every run of the parent.
        assert_eq!(judge(&s, &noisy, &[5.0, 6.0, 7.0]), Verdict::Improved);
        // Every run of the change loses to every run of the parent.
        assert_eq!(judge(&s, &noisy, &[14.0, 15.0, 16.0]), Verdict::Regressed);
    }

    #[test]
    fn higher_is_better_metrics_flip_the_sign() {
        let s = seconds(Better::Higher);
        assert_eq!(judge(&s, &[100.0], &[80.0]), Verdict::Regressed);
        assert_eq!(judge(&s, &[100.0], &[120.0]), Verdict::Improved);
        assert_eq!(judge(&s, &[100.0], &[95.0]), Verdict::Unchanged);
    }

    #[test]
    fn tiny_values_are_judged_against_the_absolute_floor() {
        // 0.3 ms → 0.6 ms doubles, but stays under the 5 ms floor.
        let s = seconds(Better::Lower);
        assert_eq!(judge(&s, &[0.0003], &[0.0006]), Verdict::Unchanged);
        assert_eq!(judge(&s, &[0.0003], &[0.0103]), Verdict::Regressed);
    }

    #[test]
    fn any_rise_of_failed_share_is_a_regression() {
        let failed = crate::metrics::spec("failed_share").unwrap();
        assert_eq!(judge(failed, &[0.0], &[0.0]), Verdict::Unchanged);
        assert_eq!(judge(failed, &[0.0], &[0.001]), Verdict::Regressed);
    }

    fn results(batch_s: &[f64], iterations: f64) -> Json {
        let metric = |values: &[f64]| {
            let mut m = Json::object();
            m.set(
                "values",
                Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
            );
            m
        };
        let mut workloads = Json::object();
        for w in WORKLOADS {
            let mut metrics = Json::object();
            for s in END_TO_END.iter().chain(OPERATIONS) {
                if s.applies_to(w) {
                    let v = if s.name == "batch_s" {
                        batch_s
                    } else {
                        &[1.0][..]
                    };
                    metrics.set(s.name, metric(v));
                }
            }
            metrics.set("core.engine.iterations", metric(&[iterations]));
            let mut entry = Json::object();
            entry.set("metrics", metrics);
            workloads.set(w, entry);
        }
        let mut doc = Json::object();
        doc.set("workloads", workloads);
        doc
    }

    #[test]
    fn comparing_files_gates_on_regressions_and_lists_count_changes() {
        let a = results(&[10.0, 10.1], 100.0);
        let same = compare(&a, &a).unwrap();
        assert!(!same.regressed());
        assert!(same.rows.iter().all(|r| r.verdict == Verdict::Unchanged));
        assert_eq!(same.counts_compared, 4);
        assert!(same.count_differences.is_empty());
        // The three end-to-end metrics, peak_rss_mb and failed_share on
        // every workload, plus each workload's own operations.
        assert_eq!(same.rows.len(), 4 * 5 + 1 + 3 + 3 + 2 + 2 + 2);

        let b = results(&[14.0, 14.1], 50.0);
        let worse = compare(&a, &b).unwrap();
        assert!(worse.regressed());
        assert_eq!(worse.count_differences.len(), 4);
        assert!(worse.render().contains("regressed"));
        assert!(compare(&a, &Json::object()).is_err());
    }
}
