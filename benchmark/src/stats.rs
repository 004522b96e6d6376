//! Order statistics: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (the rule the
//! acceptance driver uses for run-to-run spread), and the tail-percentile
//! rule of the choosing-metrics guide.

use mca_analysis::Summary;

/// Sorted copy of `xs`. Timings and counts are never NaN; a NaN would be a
/// bug in the caller, so it panics rather than sorting arbitrarily.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    v
}

/// Smallest sample (0 for an empty slice).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Linear-interpolated percentile `p ∈ [0, 100]` of unsorted samples
/// (`mca_analysis::Summary`'s rule); 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        Summary::of(xs).percentile(p.clamp(0.0, 100.0))
    }
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// `(q1, median, q3)` by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`: cut point `i` sits at rank
/// `i·(n+1)/4` (1-based), clamped into the data. A single sample is its
/// own quartiles; an empty slice gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Run-to-run spread: the interquartile distance as a share of the
/// median (0 when the median is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

/// The percentiles a timing may be reported at, ascending.
const TAIL_CANDIDATES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile that still has at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer (n < 20).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|p| samples_beyond(n, *p) >= 10)
}

/// How many of `n` samples lie beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // Integer arithmetic in tenths of a percent keeps 200 · 5% = 10 exact.
    let tenths = (p * 10.0).round() as usize;
    n * (1000 - tenths.min(1000)) / 1000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(min(&xs), 1.0);
        assert_eq!(min(&[]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        // 200 slots: p95 has exactly ten beyond it, p99 only two.
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(samples_beyond(100, 90.0), 10);
    }
}
