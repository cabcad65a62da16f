//! Fixed-width histograms for the metric-distribution figures.
//!
//! Figures 7 and 8 of the paper show the sample distributions of minimum
//! RTT, mean download speed and loss rate for the prewar and wartime
//! periods (to discuss the normality assumption behind Welch's test).
//! [`Histogram`] bins a metric over a fixed range with overflow/underflow
//! buckets, and can report normalized densities for plotting.

/// Equal-width histogram over `[lo, hi)` with explicit under/overflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width buckets spanning
    /// `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range [{lo}, {hi})");
        Self { lo, hi, bins: vec![0; bins], underflow: 0, overflow: 0, total: 0 }
    }

    /// Adds one observation. Non-finite values are ignored.
    pub fn push(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.total += 1;
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let i = (((v - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[i] += 1;
        }
    }

    /// Fills from a slice.
    pub fn extend(&mut self, values: &[f64]) {
        for &v in values {
            self.push(v);
        }
    }

    /// Raw in-range bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Observations below `lo` / at-or-above `hi`.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total finite observations pushed (including out-of-range).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Inclusive-exclusive edges of bin `i`.
    pub fn bin_edges(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }

    /// Bin centers, handy for plotting.
    pub fn centers(&self) -> Vec<f64> {
        (0..self.bins.len())
            .map(|i| {
                let (a, b) = self.bin_edges(i);
                0.5 * (a + b)
            })
            .collect()
    }

    /// Fraction of **all finite pushes** landing in each in-range bin.
    ///
    /// The denominator is [`total`](Self::total) — it *includes* underflow
    /// and overflow observations, so the returned values sum to the
    /// in-range share (≤ 1.0), not to 1.0. This is what the figure-7/8
    /// plots want: out-of-range mass shows up as a visibly deflated curve
    /// rather than being silently renormalized away.
    ///
    /// An empty histogram (no finite pushes yet) returns all zeros rather
    /// than dividing by zero into a `NaN` vector.
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|&c| c as f64 / self.total as f64).collect()
    }

    /// Index of the most populated in-range bin (ties broken low); `None`
    /// when empty.
    pub fn mode_bin(&self) -> Option<usize> {
        if self.bins.iter().all(|&c| c == 0) {
            return None;
        }
        let mut best = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            if c > self.bins[best] {
                best = i;
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.extend(&[0.0, 1.9, 2.0, 4.5, 9.999]);
        assert_eq!(h.counts(), &[2, 1, 1, 0, 1]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn out_of_range_is_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.extend(&[-0.5, 0.25, 1.0, 2.0]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2); // 1.0 is exclusive upper bound
        assert_eq!(h.counts(), &[1, 0]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn non_finite_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.extend(&[f64::NAN, f64::INFINITY, 0.5]);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn fractions_sum_to_in_range_share() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        h.extend(&[0.5, 1.5, 2.5, 3.5, 99.0]);
        let f = h.fractions();
        let s: f64 = f.iter().sum();
        assert!((s - 0.8).abs() < 1e-12); // 4 of 5 in range
    }

    #[test]
    fn fractions_of_empty_histogram_are_zero_not_nan() {
        let h = Histogram::new(0.0, 4.0, 4);
        assert_eq!(h.fractions(), vec![0.0; 4]);
    }

    #[test]
    fn fractions_with_all_mass_out_of_range_are_zero_not_nan() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.extend(&[-3.0, 5.0, 7.0]);
        assert_eq!(h.total(), 3);
        assert_eq!(h.fractions(), vec![0.0; 2]);
    }

    #[test]
    fn edges_and_centers() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_edges(0), (0.0, 2.0));
        assert_eq!(h.bin_edges(4), (8.0, 10.0));
        assert_eq!(h.centers(), vec![1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn mode_bin() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        assert_eq!(h.mode_bin(), None);
        h.extend(&[0.5, 1.5, 1.6, 2.5]);
        assert_eq!(h.mode_bin(), Some(1));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }
}
