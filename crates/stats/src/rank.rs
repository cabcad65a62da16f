//! Rank-based (nonparametric) tests.
//!
//! The paper's Appendix B concedes that Welch's t-test "expects that the
//! data is sampled from normally distributed populations … the lack of
//! normality in the samples could be considered a limitation of the
//! statistical tests." The Mann–Whitney U test needs no normality
//! assumption, so the reproduction uses it as a robustness check: if a
//! Table 1 star survives the rank test, the paper's conclusion did not
//! hinge on the normality assumption.

use crate::correlate::ranks_of;
use crate::special::normal_cdf;

/// Result of a two-sided Mann–Whitney U test (normal approximation with
/// tie correction — our samples are far larger than the exact-table
/// regime).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitney {
    /// The U statistic of the first sample.
    pub u: f64,
    /// Standardized statistic.
    pub z: f64,
    /// Two-sided p-value.
    pub p: f64,
}

impl MannWhitney {
    /// Significance at the paper's threshold.
    pub fn significant(&self) -> bool {
        self.p < 0.05
    }
}

/// Runs the two-sided Mann–Whitney U test.
///
/// Returns all-`NaN` when either sample is empty or every value is tied.
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> MannWhitney {
    let nan = MannWhitney { u: f64::NAN, z: f64::NAN, p: f64::NAN };
    let (n1, n2) = (a.len() as f64, b.len() as f64);
    if a.is_empty() || b.is_empty() {
        return nan;
    }
    // Joint mid-ranks.
    let mut all: Vec<f64> = Vec::with_capacity(a.len() + b.len());
    all.extend_from_slice(a);
    all.extend_from_slice(b);
    let r = ranks_of(&all);
    let r1: f64 = r[..a.len()].iter().sum();
    let u1 = r1 - n1 * (n1 + 1.0) / 2.0;

    // Tie correction for the variance.
    let mut sorted = all.clone();
    sorted.sort_by(f64::total_cmp);
    let n = n1 + n2;
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j + 1 < sorted.len() && sorted[j + 1] == sorted[i] {
            j += 1;
        }
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        i = j + 1;
    }
    let var = n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if var <= 0.0 {
        return nan;
    }
    let mean = n1 * n2 / 2.0;
    // Continuity correction, applied as a shrink towards zero so the
    // statistic stays exactly antisymmetric under argument swap.
    let d = u1 - mean;
    let z = d.signum() * (d.abs() - 0.5).max(0.0) / var.sqrt();
    let p = 2.0 * normal_cdf(-z.abs());
    MannWhitney { u: u1, z, p: p.min(1.0) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_not_significant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let r = mann_whitney_u(&a, &a);
        assert!(!r.significant(), "p = {}", r.p);
        assert!(r.p > 0.9);
    }

    #[test]
    fn clearly_shifted_samples_are_significant() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 + 200.0).collect();
        let r = mann_whitney_u(&a, &b);
        assert!(r.significant());
        assert!(r.p < 1e-20, "p = {}", r.p);
        // U of the lower sample is 0 when completely separated.
        assert_eq!(r.u, 0.0);
    }

    #[test]
    fn symmetric_in_arguments() {
        let a = [1.0, 3.0, 5.0, 9.0, 11.0];
        let b = [2.0, 4.0, 6.0, 8.0, 10.0];
        let r1 = mann_whitney_u(&a, &b);
        let r2 = mann_whitney_u(&b, &a);
        assert!((r1.p - r2.p).abs() < 1e-9);
        assert!((r1.z + r2.z).abs() < 1e-9);
    }

    #[test]
    fn robust_to_one_huge_outlier() {
        // The rank test should barely move when one value explodes — the
        // property that makes it the right robustness check for skewed NDT
        // metrics.
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut b: Vec<f64> = (0..50).map(|i| i as f64 + 5.0).collect();
        let base = mann_whitney_u(&a, &b).p;
        b[0] = 1e9;
        let with_outlier = mann_whitney_u(&a, &b).p;
        assert!((base.ln() - with_outlier.ln()).abs() < 1.0, "{base} vs {with_outlier}");
    }

    #[test]
    fn matches_scipy_reference() {
        // scipy.stats.mannwhitneyu([1,2,3,4,5], [6,7,8,9,10],
        // alternative='two-sided', method='asymptotic') → U=0, p≈0.0122
        // (with continuity correction).
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [6.0, 7.0, 8.0, 9.0, 10.0];
        let r = mann_whitney_u(&a, &b);
        assert_eq!(r.u, 0.0);
        assert!((r.p - 0.0122).abs() < 0.002, "p = {}", r.p);
    }

    #[test]
    fn degenerate_inputs_are_nan() {
        assert!(mann_whitney_u(&[], &[1.0]).p.is_nan());
        assert!(mann_whitney_u(&[2.0, 2.0], &[2.0, 2.0]).p.is_nan());
    }
}
