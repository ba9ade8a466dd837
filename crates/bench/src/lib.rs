//! Shared reporting helpers for the reproduction harness and examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use chronolog_market::{paper_intervals, ScenarioConfig};
use chronolog_perp::Trace;

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:>w$} |", w = w));
        }
        line
    };
    let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers, &widths));
    out.push('\n');
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// The three Figure-3 scenarios with their generated traces.
pub fn paper_traces() -> Vec<(ScenarioConfig, Trace)> {
    paper_intervals()
        .into_iter()
        .map(|c| {
            let t = chronolog_market::generate(&c);
            (c, t)
        })
        .collect()
}

/// Formats a float in the paper's scientific style (e.g. `3.545513e-15`).
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.6e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["Date", "# events"],
            &[
                vec!["2022-09-27".into(), "267".into()],
                vec!["2022-10-07".into(), "108".into()],
            ],
        );
        assert!(t.contains("| 2022-09-27 |"));
        assert!(t.contains("267"));
        let widths: Vec<usize> = t.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{t}");
    }

    #[test]
    fn sci_format() {
        assert_eq!(sci(0.0), "0");
        assert!(sci(3.545513e-15).starts_with("3.545513e-15"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn paper_traces_generate() {
        let traces = paper_traces();
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].1.event_count(), 267);
    }
}
