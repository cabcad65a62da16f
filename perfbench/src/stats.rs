//! Order statistics over measured samples.

/// Sorts a copy of `v` (total order; NaN never occurs in measured times).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 1]; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest nearest-rank sample that still leaves `beyond` samples
/// above it: p99 once there are 100 × `beyond` samples, a lower
/// percentile on shorter runs, the minimum on runs of `beyond` or fewer.
pub fn tail(v: &[f64], beyond: usize) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let p99_rank = ((0.99 * s.len() as f64).ceil() as usize).max(1);
    let rank = p99_rank.min(s.len().saturating_sub(beyond)).max(1);
    s[rank - 1]
}

/// Smallest sample; 0 when empty.
pub fn fastest(v: &[f64]) -> f64 {
    sorted(v).first().copied().unwrap_or(0.0)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// SplitMix64: the benchmark's own seeded stream (stage mixes), so the
/// inputs depend on `--seed` alone.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(median(&v), 500.5);
        assert_eq!(percentile(&v, 0.99), 990.0);
        // p99 of 1000 samples leaves exactly ten above it.
        assert_eq!(tail(&v, 10), 990.0);
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&short, 10), 90.0);
    }
}
