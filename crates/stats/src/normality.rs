//! Normality diagnostics.
//!
//! The paper's Appendix B inspects the metric distributions (Figures 7/8)
//! visually: "Minimum RTT appears to be normally distributed (aside for the
//! spike near 0), but the other metrics are slightly skewed." These
//! functions make the inspection quantitative: sample skewness, excess
//! kurtosis, and the Jarque–Bera omnibus test, whose statistic is
//! asymptotically χ²(2) under normality (giving `p = exp(-JB/2)` exactly
//! for two degrees of freedom).

/// Sample skewness (adjusted Fisher–Pearson, g1 form). `NaN` for fewer
/// than three values or zero variance.
pub fn skewness(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if values.len() < 3 {
        return f64::NAN;
    }
    let mean = values.iter().sum::<f64>() / n;
    let m2 = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let m3 = values.iter().map(|v| (v - mean).powi(3)).sum::<f64>() / n;
    if m2 == 0.0 {
        return f64::NAN;
    }
    m3 / m2.powf(1.5)
}

/// Sample excess kurtosis (g2 form: kurtosis − 3). `NaN` for fewer than
/// four values or zero variance.
pub fn excess_kurtosis(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    if values.len() < 4 {
        return f64::NAN;
    }
    let mean = values.iter().sum::<f64>() / n;
    let m2 = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let m4 = values.iter().map(|v| (v - mean).powi(4)).sum::<f64>() / n;
    if m2 == 0.0 {
        return f64::NAN;
    }
    m4 / (m2 * m2) - 3.0
}

/// Result of the Jarque–Bera normality test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JarqueBera {
    pub skewness: f64,
    pub excess_kurtosis: f64,
    /// The JB statistic `n/6 (S² + K²/4)`.
    pub jb: f64,
    /// Asymptotic p-value under χ²(2): `exp(-jb/2)`.
    pub p: f64,
}

impl JarqueBera {
    /// Whether normality is rejected at 5%.
    pub fn non_normal(&self) -> bool {
        self.p < 0.05
    }
}

/// Runs the Jarque–Bera test. All-`NaN` for degenerate input.
pub fn jarque_bera(values: &[f64]) -> JarqueBera {
    let s = skewness(values);
    let k = excess_kurtosis(values);
    if !s.is_finite() || !k.is_finite() {
        return JarqueBera { skewness: s, excess_kurtosis: k, jb: f64::NAN, p: f64::NAN };
    }
    let n = values.len() as f64;
    let jb = n / 6.0 * (s * s + k * k / 4.0);
    JarqueBera { skewness: s, excess_kurtosis: k, jb, p: (-jb / 2.0).exp() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{LogNormal, Normal, Sampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw<S: Sampler>(s: &S, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| s.sample(&mut rng)).collect()
    }

    #[test]
    fn symmetric_data_has_zero_skew() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(skewness(&v).abs() < 1e-12);
    }

    #[test]
    fn right_tail_is_positive_skew() {
        let v = [1.0, 1.0, 1.0, 1.0, 10.0];
        assert!(skewness(&v) > 1.0);
        let w = [-10.0, 1.0, 1.0, 1.0, 1.0];
        assert!(skewness(&w) < -1.0);
    }

    #[test]
    fn normal_sample_passes_jb() {
        let v = draw(&Normal::new(5.0, 2.0), 5_000, 1);
        let jb = jarque_bera(&v);
        assert!(!jb.non_normal(), "JB = {}, p = {}", jb.jb, jb.p);
        assert!(jb.skewness.abs() < 0.1);
        assert!(jb.excess_kurtosis.abs() < 0.2);
    }

    #[test]
    fn lognormal_sample_fails_jb() {
        let v = draw(&LogNormal::new(0.0, 0.8), 5_000, 2);
        let jb = jarque_bera(&v);
        assert!(jb.non_normal(), "p = {}", jb.p);
        assert!(jb.skewness > 1.0, "skew = {}", jb.skewness);
    }

    #[test]
    fn uniform_sample_has_negative_excess_kurtosis() {
        let mut rng = StdRng::seed_from_u64(3);
        use rand::RngExt as _;
        let v: Vec<f64> = (0..5_000).map(|_| rng.random::<f64>()).collect();
        let k = excess_kurtosis(&v);
        assert!((k + 1.2).abs() < 0.1, "kurtosis = {k}");
    }

    #[test]
    fn degenerate_inputs() {
        assert!(skewness(&[1.0, 2.0]).is_nan());
        assert!(excess_kurtosis(&[1.0, 1.0, 1.0]).is_nan());
        assert!(jarque_bera(&[5.0; 10]).p.is_nan());
    }
}
