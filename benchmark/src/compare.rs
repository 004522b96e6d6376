//! `compare A.json B.json`: applies each end-to-end metric's bound to
//! every (metric, workload) pairing of two run files — `A` the parent,
//! `B` the change — one row per pairing, and exits non-zero on a
//! regression.

use crate::report::RunFile;
use crate::spec::{self, Better, MetricSpec};
use crate::stats;

/// What the two sides' values say about one pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or identical, for an exact metric).
    Ok,
    /// The spread is wider than the bound, but every run of the change
    /// reads better than every run of the parent. (Claiming a gain takes
    /// the ten-pair rule of the choosing-metrics guide, not this tool.)
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// bound (or an exact metric moved at all).
    Regression,
    /// The run-to-run spread is wider than the bound, so the pairing can
    /// be called neither unchanged nor regressed.
    Unresolved,
    /// One side has no value for the pairing.
    Missing,
}

impl Verdict {
    /// The word printed in the row.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better), in the metric's direction.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Judges one pairing from the parent's values `a` and the change's `b`.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let Some(bound) = spec.bound else {
        return Verdict::Ok;
    };
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    if bound == 0.0 {
        // Exact metrics are counts of a deterministic program: any
        // movement, in either direction, is a changed simulation.
        let first = a[0];
        let same = a.iter().chain(b).all(|v| *v == first);
        return if same {
            Verdict::Ok
        } else {
            Verdict::Regression
        };
    }
    let better_than = |x: f64, y: f64| match spec.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better_than(y, x)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| better_than(x, y)));
    let worse_by = worsening(spec.better, stats::median(a), stats::median(b));
    if stats::spread(a).max(stats::spread(b)) > bound {
        return if all_b_better {
            Verdict::Improved
        } else if all_b_worse && worse_by > bound {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// One printed row.
#[derive(Debug, Clone)]
pub struct Row {
    /// The verdict.
    pub verdict: Verdict,
    /// The formatted line.
    pub text: String,
}

fn quartile_cell(xs: &[f64]) -> String {
    if xs.is_empty() {
        return "-".to_string();
    }
    let (q1, med, q3) = stats::quartiles(xs);
    format!("{med:.6} [{q1:.6}, {q3:.6}] n={}", xs.len())
}

/// Every (end-to-end metric, workload) pairing of the two files.
pub fn rows(a: &RunFile, b: &RunFile) -> Vec<Row> {
    let mut out = Vec::new();
    for w in &spec::WORKLOADS {
        for s in spec::END_TO_END.iter().filter(|s| s.applies_to(w.name)) {
            let (va, vb) = (a.values(w.name, s.name), b.values(w.name, s.name));
            let verdict = judge(s, &va, &vb);
            let change = match (va.is_empty(), vb.is_empty()) {
                (false, false) => format!(
                    "{:+.2}%",
                    worsening(s.better, stats::median(&va), stats::median(&vb)) * 100.0
                ),
                _ => "-".to_string(),
            };
            let bound = match s.bound {
                Some(0.0) => "exact".to_string(),
                Some(b) => format!("{:.0}%", b * 100.0),
                None => "-".to_string(),
            };
            out.push(Row {
                verdict,
                text: format!(
                    "{:<15} {:<14} {:<6} A {:<44} B {:<44} worse by {:>8} bound {:<6} {}",
                    w.name,
                    s.name,
                    s.unit,
                    quartile_cell(&va),
                    quartile_cell(&vb),
                    change,
                    bound,
                    verdict.word()
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_of(name: &str) -> &'static MetricSpec {
        spec::metric(name).unwrap()
    }

    #[test]
    fn bounded_metrics_compare_medians_in_their_direction() {
        let wall = spec_of("wall_s"); // lower is better, 25%
        assert_eq!(
            judge(wall, &[2.0, 2.02, 1.98], &[2.4, 2.42, 2.38]),
            Verdict::Ok
        );
        assert_eq!(
            judge(wall, &[2.0, 2.02, 1.98], &[2.6, 2.62, 2.58]),
            Verdict::Regression
        );
        assert_eq!(
            judge(wall, &[2.0, 2.02, 1.98], &[1.5, 1.52, 1.48]),
            Verdict::Ok
        );
        let rate = spec_of("trials_per_s"); // higher is better, 25%
        assert_eq!(judge(rate, &[1000.0], &[700.0]), Verdict::Regression);
        assert_eq!(judge(rate, &[1000.0], &[800.0]), Verdict::Ok);
        assert_eq!(judge(rate, &[1000.0], &[1500.0]), Verdict::Ok);
        assert_eq!(judge(rate, &[], &[1.0]), Verdict::Missing);
        assert!((worsening(Better::Higher, 1000.0, 850.0) - 0.15).abs() < 1e-12);
        assert!((worsening(Better::Lower, 2.0, 2.3) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_separate() {
        let wall = spec_of("wall_s");
        let noisy = [2.0, 2.6, 2.1, 2.9, 2.2];
        assert!(stats::spread(&noisy) > 0.25);
        assert_eq!(
            judge(wall, &noisy, &[2.3, 2.4, 2.5, 2.2, 2.8]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(wall, &noisy, &[1.0, 1.1, 1.2, 1.3, 1.4]),
            Verdict::Improved
        );
        assert_eq!(
            judge(wall, &noisy, &[4.0, 4.1, 4.2, 4.3, 4.4]),
            Verdict::Regression
        );
    }

    #[test]
    fn exact_metrics_must_repeat_in_both_directions() {
        let slots = spec_of("sim_slots");
        assert_eq!(judge(slots, &[960_000.0; 3], &[960_000.0; 3]), Verdict::Ok);
        assert_eq!(
            judge(slots, &[960_000.0; 3], &[960_001.0; 3]),
            Verdict::Regression
        );
        assert_eq!(
            judge(slots, &[960_000.0; 3], &[959_999.0; 3]),
            Verdict::Regression
        );
        let failed = spec_of("failed_share");
        assert_eq!(judge(failed, &[0.0, 0.0], &[0.0, 0.0]), Verdict::Ok);
        assert_eq!(
            judge(failed, &[0.0, 0.0], &[0.0, 0.001]),
            Verdict::Regression
        );
        // Per-layer metrics carry no bound and are never gated.
        assert_eq!(judge(spec_of("pool.steals"), &[1.0], &[100.0]), Verdict::Ok);
    }
}
