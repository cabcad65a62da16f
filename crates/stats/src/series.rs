//! Day-indexed time series with daily and weekly aggregation.
//!
//! Figure 2 plots the *daily mean* of each metric over the 108-day study
//! window; Figure 4 plots daily test counts for Kharkiv and Mariupol; and
//! Figure 6 plots *weekly medians* of loss and RTT through AS6663. This
//! module aggregates per-test observations keyed by an integer day index
//! (days since an epoch chosen by the caller — the analysis crates use days
//! since 2021-01-01).

use crate::describe::{median, Summary};
use std::collections::BTreeMap;

/// Observations grouped by day index.
///
/// Internally a `BTreeMap<i64, Vec<f64>>` so iteration is chronological.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DailySeries {
    days: BTreeMap<i64, Vec<f64>>,
}

/// One point of a weekly aggregate (as plotted in Figure 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeeklyPoint {
    /// Day index of the first day of the week bucket.
    pub week_start: i64,
    /// Number of observations in the bucket.
    pub count: usize,
    /// Aggregate value (mean or median depending on the accessor used).
    pub value: f64,
}

impl DailySeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation on `day`. Non-finite values are dropped.
    pub fn push(&mut self, day: i64, value: f64) {
        if value.is_finite() {
            self.days.entry(day).or_default().push(value);
        }
    }

    /// Total observations across all days.
    pub fn len(&self) -> usize {
        self.days.values().map(Vec::len).sum()
    }

    /// Whether the series holds no observations.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// Chronological `(day, daily mean)` pairs — the Figure 2 series.
    pub fn daily_means(&self) -> Vec<(i64, f64)> {
        self.days.iter().map(|(&d, v)| (d, Summary::of(v).mean())).collect()
    }

    /// Weekly medians with weeks anchored at `anchor_day` (buckets of 7 days
    /// starting there) — Figure 6's aggregation.
    pub fn weekly_medians(&self, anchor_day: i64) -> Vec<WeeklyPoint> {
        self.weekly(anchor_day, median)
    }

    fn weekly(&self, anchor_day: i64, agg: impl Fn(&[f64]) -> f64) -> Vec<WeeklyPoint> {
        let mut buckets: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
        for (&d, vals) in &self.days {
            let week = (d - anchor_day).div_euclid(7);
            buckets.entry(anchor_day + week * 7).or_default().extend_from_slice(vals);
        }
        buckets
            .into_iter()
            .map(|(week_start, vals)| WeeklyPoint { week_start, count: vals.len(), value: agg(&vals) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DailySeries {
        let mut s = DailySeries::new();
        s.push(0, 1.0);
        s.push(0, 3.0);
        s.push(1, 10.0);
        s.push(8, 7.0);
        s.push(8, 9.0);
        s
    }

    #[test]
    fn daily_means_and_counts() {
        let s = sample();
        assert_eq!(s.daily_means(), vec![(0, 2.0), (1, 10.0), (8, 8.0)]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn non_finite_dropped() {
        let mut s = DailySeries::new();
        s.push(0, f64::NAN);
        s.push(0, f64::INFINITY);
        assert!(s.is_empty());
    }

    #[test]
    fn weekly_buckets_anchor_correctly() {
        let s = sample();
        let w = s.weekly_medians(0);
        // Days 0 and 1 fall in week starting 0; day 8 in week starting 7.
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].week_start, 0);
        assert_eq!(w[0].count, 3);
        assert_eq!(w[0].value, 3.0); // median of [1, 3, 10]
        assert_eq!(w[1].week_start, 7);
        assert_eq!(w[1].value, 8.0);
    }

    #[test]
    fn weekly_handles_negative_days() {
        let mut s = DailySeries::new();
        s.push(-1, 5.0); // one day before the anchor → previous week bucket
        s.push(0, 7.0);
        let w = s.weekly_medians(0);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].week_start, -7);
        assert_eq!(w[1].week_start, 0);
    }
}
