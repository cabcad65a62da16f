//! Two-sample Kolmogorov–Smirnov test.
//!
//! Figures 7 and 8 of the paper show the prewar and wartime metric
//! distributions side by side and let the reader eyeball the shift. The
//! two-sample KS statistic quantifies it: the maximum distance between the
//! two empirical CDFs, with the classical asymptotic p-value (the
//! Kolmogorov distribution tail series).

/// Result of a two-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// Supremum distance between the empirical CDFs, in `[0, 1]`.
    pub d: f64,
    /// Asymptotic two-sided p-value.
    pub p: f64,
}

impl KsTest {
    /// Whether the distributions differ at 5%.
    pub fn significant(&self) -> bool {
        self.p < 0.05
    }
}

/// Runs the two-sample KS test. All-`NaN` if either sample is empty.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> KsTest {
    if a.is_empty() || b.is_empty() {
        return KsTest { d: f64::NAN, p: f64::NAN };
    }
    let mut xa: Vec<f64> = a.to_vec();
    let mut xb: Vec<f64> = b.to_vec();
    // total_cmp keeps the sort lawful even if a caller passes NaN-bearing
    // samples (degraded-data pipelines filter first, but must never panic).
    xa.sort_by(f64::total_cmp);
    xb.sort_by(f64::total_cmp);
    let (na, nb) = (xa.len(), xb.len());
    let mut i = 0usize;
    let mut j = 0usize;
    let mut d: f64 = 0.0;
    while i < na && j < nb {
        let x = xa[i].min(xb[j]);
        while i < na && xa[i] <= x {
            i += 1;
        }
        while j < nb && xb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / na as f64;
        let fb = j as f64 / nb as f64;
        d = d.max((fa - fb).abs());
    }
    // Asymptotic p: Q_KS(sqrt(n_e) * d) with the small-sample correction of
    // Stephens; n_e = na*nb/(na+nb).
    let ne = (na as f64 * nb as f64) / (na + nb) as f64;
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    KsTest { d, p: kolmogorov_q(lambda) }
}

/// Kolmogorov distribution tail `Q(λ) = 2 Σ_{k≥1} (-1)^{k-1} e^{-2k²λ²}`.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{Normal, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw(mean: f64, sd: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = Normal::new(mean, sd);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn same_distribution_not_significant() {
        let a = draw(0.0, 1.0, 800, 1);
        let b = draw(0.0, 1.0, 800, 2);
        let r = ks_two_sample(&a, &b);
        assert!(!r.significant(), "d = {}, p = {}", r.d, r.p);
        assert!(r.d < 0.08);
    }

    #[test]
    fn shifted_distribution_detected() {
        let a = draw(0.0, 1.0, 500, 3);
        let b = draw(0.7, 1.0, 500, 4);
        let r = ks_two_sample(&a, &b);
        assert!(r.significant(), "p = {}", r.p);
        // D for a 0.7σ shift ≈ 2Φ(0.35) − 1 ≈ 0.27.
        assert!((r.d - 0.27).abs() < 0.07, "d = {}", r.d);
    }

    #[test]
    fn disjoint_supports_give_d_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0, 12.0];
        let r = ks_two_sample(&a, &b);
        assert_eq!(r.d, 1.0);
    }

    #[test]
    fn scale_change_detected_even_with_equal_means() {
        // KS sees shape changes the t-test cannot.
        let a = draw(0.0, 1.0, 1_500, 5);
        let b = draw(0.0, 3.0, 1_500, 6);
        let r = ks_two_sample(&a, &b);
        assert!(r.significant(), "p = {}", r.p);
    }

    #[test]
    fn symmetric_and_bounded() {
        let a = draw(0.0, 1.0, 200, 7);
        let b = draw(0.4, 1.5, 300, 8);
        let r1 = ks_two_sample(&a, &b);
        let r2 = ks_two_sample(&b, &a);
        assert!((r1.d - r2.d).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&r1.d));
        assert!((0.0..=1.0).contains(&r1.p));
    }

    #[test]
    fn empty_input_is_nan() {
        assert!(ks_two_sample(&[], &[1.0]).d.is_nan());
    }
}
