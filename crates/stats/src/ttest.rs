//! Welch's unequal-variances t-test.
//!
//! The paper justifies Welch's test explicitly (Appendix B): the prewar and
//! wartime samples have unequal variances, so Student's pooled test would be
//! invalid. Every starred cell in Tables 1, 3 and 6 comes from this routine.

use crate::describe::Summary;
use crate::special::student_t_cdf;

/// Result of a two-sided Welch's t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchTTest {
    /// The t statistic `(mean_a - mean_b) / sqrt(s_a²/n_a + s_b²/n_b)`.
    pub t: f64,
    /// Welch–Satterthwaite effective degrees of freedom (fractional).
    pub df: f64,
    /// Two-sided p-value.
    pub p: f64,
}

impl WelchTTest {
    /// Whether the difference is statistically significant at the paper's
    /// threshold (`p < 0.05`), i.e. whether the cell gets a `*`.
    pub fn significant(&self) -> bool {
        self.p < 0.05
    }

    /// Renders the p-value the way the paper's tables do (`2.6E-60`), with a
    /// `*` prefix when significant.
    pub fn starred(&self) -> String {
        if self.p.is_nan() {
            return "n/a".to_string();
        }
        let star = if self.significant() { "*" } else { "" };
        format!("{star}{:.1E}", self.p)
    }
}

/// Runs Welch's t-test on two samples.
///
/// Returns `WelchTTest { t: NaN, df: NaN, p: NaN }` when either sample has
/// fewer than two finite observations or both variances are zero — the same
/// cases where scipy returns `nan`, and which the paper sidesteps by only
/// testing cities/ASes with enough tests.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> WelchTTest {
    let sa = Summary::of(a);
    let sb = Summary::of(b);
    welch_from_summaries(&sa, &sb)
}

/// Welch's t-test from precomputed summaries, so period aggregates built with
/// [`Summary::merge`] can be tested without keeping raw samples around.
pub fn welch_from_summaries(sa: &Summary, sb: &Summary) -> WelchTTest {
    let nan = WelchTTest { t: f64::NAN, df: f64::NAN, p: f64::NAN };
    if sa.count() < 2 || sb.count() < 2 {
        return nan;
    }
    let na = sa.count() as f64;
    let nb = sb.count() as f64;
    let va = sa.variance() / na;
    let vb = sb.variance() / nb;
    let denom = (va + vb).sqrt();
    if denom == 0.0 || !denom.is_finite() {
        return nan;
    }
    let t = (sa.mean() - sb.mean()) / denom;
    // Welch–Satterthwaite.
    let df = (va + vb).powi(2) / (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
    let p = 2.0 * student_t_cdf(-t.abs(), df);
    WelchTTest { t, df, p }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_not_significant() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = welch_t_test(&a, &a);
        assert!((r.t).abs() < 1e-12);
        assert!((r.p - 1.0).abs() < 1e-12);
        assert!(!r.significant());
    }

    #[test]
    fn matches_scipy_reference() {
        // Analytically: mean_a = 3, s²_a = 2.5; mean_b = 6, s²_b = 10.
        // t = -3/√(2.5/5 + 10/5) = -1.897366596…, df = 6.25/1.0625 = 5.882352…
        // p cross-checked by independent numerical integration of the t pdf.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 4.0, 6.0, 8.0, 10.0];
        let r = welch_t_test(&a, &b);
        assert!((r.t - (-1.897_366_596_101_027_5)).abs() < 1e-12, "t = {}", r.t);
        assert!((r.df - 5.882_352_941_176_471).abs() < 1e-9, "df = {}", r.df);
        assert!((r.p - 0.107_531_192_9).abs() < 1e-7, "p = {}", r.p);
    }

    #[test]
    fn clearly_different_samples_are_significant() {
        let a: Vec<f64> = (0..200).map(|i| 10.0 + (i % 7) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..200).map(|i| 20.0 + (i % 5) as f64 * 0.1).collect();
        let r = welch_t_test(&a, &b);
        assert!(r.significant());
        assert!(r.p < 1e-50, "p = {}", r.p);
        assert!(r.t < 0.0);
    }

    #[test]
    fn tiny_samples_yield_nan() {
        let r = welch_t_test(&[1.0], &[2.0, 3.0]);
        assert!(r.p.is_nan());
        assert!(!r.significant());
        assert_eq!(r.starred(), "n/a");
    }

    #[test]
    fn zero_variance_both_sides_yields_nan() {
        let r = welch_t_test(&[5.0, 5.0, 5.0], &[5.0, 5.0]);
        assert!(r.p.is_nan());
    }

    #[test]
    fn starred_formatting() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| i as f64 + 500.0).collect();
        let r = welch_t_test(&a, &b);
        let s = r.starred();
        assert!(s.starts_with('*'), "starred = {s}");
        assert!(s.contains('E'), "starred = {s}");
    }

    #[test]
    fn symmetric_in_sign() {
        let a = [1.0, 2.0, 3.0, 7.0];
        let b = [4.0, 6.0, 8.0, 9.0];
        let r1 = welch_t_test(&a, &b);
        let r2 = welch_t_test(&b, &a);
        assert!((r1.t + r2.t).abs() < 1e-12);
        assert!((r1.p - r2.p).abs() < 1e-12);
        assert!((r1.df - r2.df).abs() < 1e-12);
    }
}
