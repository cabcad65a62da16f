//! Correlation and simple regression.
//!
//! Figure 9 of the paper relates the change in per-connection path counts to
//! changes in throughput and loss ("mild correlation"); Figure 6 relates
//! AS6663's weekly loss to the ingress share through Hurricane Electric.
//! Pearson's r quantifies the linear trend, Spearman's ρ the monotone one,
//! and [`linear_fit`] produces the trend line drawn through the scatter.

/// Pearson product-moment correlation coefficient.
///
/// Returns `NaN` when the slices differ in length, have fewer than two
/// points, or either side has zero variance.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    if x.len() != y.len() || x.len() < 2 {
        return f64::NAN;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx * syy).sqrt()
}

/// Spearman rank correlation: Pearson on mid-ranks (ties averaged).
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    if x.len() != y.len() || x.len() < 2 {
        return f64::NAN;
    }
    let rx = ranks_of(x);
    let ry = ranks_of(y);
    pearson(&rx, &ry)
}

/// Mid-ranks of a slice (1-based; ties share the average rank).
pub fn ranks_of(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    let mut out = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        // Average of 1-based ranks i+1 ..= j+1.
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Ordinary least-squares line `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    pub slope: f64,
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
}

/// Fits a least-squares line through `(x, y)` pairs.
///
/// Returns all-`NaN` when inputs are mismatched, shorter than two points, or
/// `x` has zero variance.
pub fn linear_fit(x: &[f64], y: &[f64]) -> LinearFit {
    let nan = LinearFit { slope: f64::NAN, intercept: f64::NAN, r_squared: f64::NAN };
    if x.len() != y.len() || x.len() < 2 {
        return nan;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        sxy += (xi - mx) * (yi - my);
        sxx += (xi - mx) * (xi - mx);
        syy += (yi - my) * (yi - my);
    }
    if sxx == 0.0 {
        return nan;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r_squared = if syy == 0.0 { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    LinearFit { slope, intercept, r_squared }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_line() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let yneg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &yneg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_uncorrelated_orthogonal() {
        let x = [-1.0, 0.0, 1.0];
        let y = [1.0, -2.0, 1.0]; // symmetric in x → zero linear correlation
        assert!(pearson(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert!(pearson(&[1.0], &[2.0]).is_nan());
        assert!(pearson(&[1.0, 2.0], &[3.0]).is_nan());
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_nan());
    }

    #[test]
    fn spearman_monotone_nonlinear_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0]; // x³: monotone, nonlinear
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [10.0, 20.0, 20.0, 30.0];
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks_of(&[10.0, 20.0, 20.0, 5.0]), vec![2.0, 3.5, 3.5, 1.0]);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 3.0 * v - 7.0).collect();
        let f = linear_fit(&x, &y);
        assert!((f.slope - 3.0).abs() < 1e-10);
        assert!((f.intercept + 7.0).abs() < 1e-9);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate() {
        assert!(linear_fit(&[1.0, 1.0], &[2.0, 3.0]).slope.is_nan());
        assert!(linear_fit(&[], &[]).slope.is_nan());
    }
}
