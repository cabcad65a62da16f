//! Descriptive statistics: streaming summaries, medians and quantiles.
//!
//! The paper reports per-period means, medians and standard deviations for
//! each NDT metric (Tables 1, 4 and 5). [`Summary`] accumulates those in a
//! single pass using Welford's online algorithm, which stays numerically
//! stable for the small-variance loss-rate columns.

/// One-pass moment accumulator (Welford's algorithm).
///
/// Tracks count, mean, unbiased sample variance, minimum and maximum.
/// Merging two summaries is supported so datasets can be aggregated per-day
/// and then combined per-period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's `M2`).
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Builds a summary from a slice in one pass.
    pub fn of(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation. Non-finite values are ignored, mirroring how the
    /// paper's pipeline drops malformed NDT rows rather than poisoning a
    /// period aggregate.
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.n += 1;
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another summary into this one (Chan et al. parallel update).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of (finite) observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n - 1` denominator); `NaN` for `n < 2`.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Unbiased sample standard deviation; `NaN` for `n < 2`.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `NaN` when empty.
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation; `NaN` when empty.
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// Mean of a slice; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    Summary::of(values).mean()
}

/// Unbiased sample standard deviation of a slice; `NaN` for fewer than two
/// values.
pub fn std_dev(values: &[f64]) -> f64 {
    Summary::of(values).std_dev()
}

/// Median via [`quantile`] at `q = 0.5`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile (type-7, the default used by R and by
/// pandas — and therefore by the paper's analysis scripts).
///
/// Non-finite inputs are dropped first. Returns `NaN` on an empty input.
///
/// # Panics
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile fraction must be in [0, 1], got {q}");
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let h = (v.len() as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        v[lo] + (h - lo as f64) * (v[hi] - v[lo])
    }
}

/// Multiplicative ratio `after / before`, the `×` quantity in Table 3's loss
/// column. Returns `NaN` if `before` is zero or either input is non-finite.
pub fn ratio(before: f64, after: f64) -> f64 {
    if before == 0.0 || !before.is_finite() || !after.is_finite() {
        f64::NAN
    } else {
        after / before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = Summary::of(&xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Two-pass unbiased variance: sum((x-5)^2)/7 = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_nan() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert!(s.min().is_nan());
    }

    #[test]
    fn single_value_has_nan_variance() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert!(s.variance().is_nan());
    }

    #[test]
    fn non_finite_values_are_skipped() {
        let s = Summary::of(&[1.0, f64::NAN, 2.0, f64::INFINITY, 3.0]);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_combined_pass() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0];
        let mut left = Summary::of(&a);
        let right = Summary::of(&b);
        left.merge(&right);
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let whole = Summary::of(&all);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::of(&[1.0, 2.0]);
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_endpoints_and_interior() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        // Type-7: h = 3*0.25 = 0.75 → 10 + 0.75*10 = 17.5.
        assert!((quantile(&v, 0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_empty_is_nan() {
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    #[should_panic(expected = "quantile fraction")]
    fn quantile_out_of_range_panics() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn ratio_of_changes() {
        assert!((ratio(2.0, 5.0) - 2.5).abs() < 1e-12);
        assert!(ratio(0.0, 5.0).is_nan());
    }
}
