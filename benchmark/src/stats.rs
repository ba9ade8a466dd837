//! Order statistics and the least-squares line the metrics are built from.

/// Median of a sample (mean of the two middle values for even sizes).
/// Returns 0 for an empty sample so an unexercised metric reads as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest rank (1-based) of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at 9 990, not 9 991.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The reporting rule for tails: the highest of the usual percentiles
/// that still has at least ten samples beyond it, if any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// First and third quartile, with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)` so spreads agree with the driver's.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn relative_spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Ordinary least squares `y = intercept + slope * x`. A degenerate
/// sample (fewer than two points, or constant `x`) puts everything in the
/// intercept.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let slope = sxy / sxx;
    (my - slope * mx, slope)
}

/// Median of the last tenth over median of the first tenth of a series:
/// how much an operation's cost grows with accumulated state.
pub fn decile_growth(series: &[f64]) -> f64 {
    let k = series.len() / 10;
    if k == 0 {
        return 0.0;
    }
    let first = median(&series[..k]);
    if first == 0.0 {
        return 0.0;
    }
    median(&series[series.len() - k..]) / first
}

/// `num / den`, or 0 when the denominator is 0 (an unexercised ratio).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples leave exactly 10 beyond p90 and only 5 beyond p95.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_recovers_a_line() {
        // advance time = 2.5 ms fixed + 0.4 ms per second of gap.
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 30.0, 45.0, 67.0]
            .iter()
            .map(|&gap| (gap, 2.5 + 0.4 * gap))
            .collect();
        let (fixed, per_gap) = fit_line(&pts);
        assert!((fixed - 2.5).abs() < 1e-9 && (per_gap - 0.4).abs() < 1e-9);
        assert_eq!(fit_line(&[(2.0, 5.0), (2.0, 7.0)]), (6.0, 0.0));
        assert_eq!(fit_line(&[]), (0.0, 0.0));
    }

    #[test]
    fn growth_compares_last_and_first_decile() {
        let series: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 3.0 }).collect();
        assert_eq!(decile_growth(&series), 3.0);
        assert_eq!(decile_growth(&[1.0; 5]), 0.0);
    }
}
