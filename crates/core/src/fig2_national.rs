//! Figure 2: daily national means of the four NDT metrics, 2022 study
//! window against the 2021 baseline.
//!
//! The paper: "After the invasion began on February 24, there is a sharp
//! increase in the average connection loss rate (2d) as well as minimum RTT
//! (2b) … Mean download speed (2c) sees a 50% decrease with a corresponding
//! spike in test counts (2a) near March 10."

use crate::coverage::{Coverage, DropReason};
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::csv;
use ndt_conflict::calendar::Date;
use ndt_stats::DailySeries;

/// One day of the national series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayPoint {
    /// Day index since 2021-01-01.
    pub day: i64,
    pub tests: usize,
    pub mean_min_rtt_ms: f64,
    pub mean_tput_mbps: f64,
    pub mean_loss: f64,
}

/// The four panels of Figure 2, for one year's 108-day window.
#[derive(Debug, Clone, PartialEq)]
pub struct YearSeries {
    pub year: i32,
    pub days: Vec<DayPoint>,
}

/// Figure 2: both windows.
#[derive(Debug, Clone, PartialEq)]
pub struct NationalTimeline {
    pub y2022: YearSeries,
    pub y2021: YearSeries,
    /// Degradation accounting across both windows.
    pub coverage: Coverage,
}

/// Computes the figure from all NDT download tests originating in Ukraine
/// (the paper's national aggregate uses every row, located or not).
pub fn compute(data: &StudyData) -> Result<NationalTimeline, AnalysisError> {
    let mut cov = Coverage::new();
    let y2022 = year_series(data, 2022, &mut cov)?;
    let y2021 = year_series(data, 2021, &mut cov)?;
    // The daily timeline owns whole-day accounting: days lost upstream
    // (e.g. a quarantined store shard) surface here and merge into the
    // report's closing coverage section.
    for &(lo, hi) in &data.day_gaps {
        cov.note_missing_days(lo, hi);
    }
    Ok(NationalTimeline { y2022, y2021, coverage: cov })
}

fn year_series(
    data: &StudyData,
    year: i32,
    cov: &mut Coverage,
) -> Result<YearSeries, AnalysisError> {
    let start = Date::new(year, 1, 1).day_index();
    let end = start + 108;
    let q = data.unified.query().filter_int_range("day", start, end);
    let mut rtt = DailySeries::new();
    let mut tput = DailySeries::new();
    let mut loss = DailySeries::new();
    let days_col = q.try_ints("day")?;
    let rtt_col = q.try_floats("min_rtt")?;
    let tput_col = q.try_floats("tput")?;
    let loss_col = q.try_floats("loss")?;
    cov.see(days_col.len());
    let mut counts: std::collections::BTreeMap<i64, usize> = Default::default();
    for (((d, r), t), l) in days_col.iter().zip(&rtt_col).zip(&tput_col).zip(&loss_col) {
        // Every test counts toward the day's volume (panel 2a), but only
        // clean metric values feed the mean panels: corrupt cells would
        // otherwise poison a whole day's average.
        *counts.entry(*d).or_default() += 1;
        for (series, v, nonneg) in
            [(&mut rtt, *r, true), (&mut tput, *t, true), (&mut loss, *l, true)]
        {
            if !v.is_finite() {
                cov.drop_rows(DropReason::NonFinite, 1);
            } else if nonneg && v < 0.0 {
                cov.drop_rows(DropReason::Negative, 1);
            } else {
                series.push(*d, v);
            }
        }
    }
    let rtt_means: std::collections::BTreeMap<i64, f64> = rtt.daily_means().into_iter().collect();
    let tput_means: std::collections::BTreeMap<i64, f64> = tput.daily_means().into_iter().collect();
    let loss_means: std::collections::BTreeMap<i64, f64> = loss.daily_means().into_iter().collect();
    let mut days = Vec::new();
    for d in start..end {
        let Some(&tests) = counts.get(&d) else { continue };
        let (r, t, l) =
            (rtt_means.get(&d).copied(), tput_means.get(&d).copied(), loss_means.get(&d).copied());
        let (Some(r), Some(t), Some(l)) = (r, t, l) else {
            // All of the day's values for some metric were corrupt; the
            // point is omitted and the day flagged rather than plotted as a
            // hole-ridden average.
            cov.note_sample(format!("{year}/day {d}"), 0);
            continue;
        };
        days.push(DayPoint {
            day: d,
            tests,
            mean_min_rtt_ms: r,
            mean_tput_mbps: t,
            mean_loss: l,
        });
    }
    Ok(YearSeries { year, days })
}

impl NationalTimeline {
    /// CSV of both series (one row per day with a year column), matching
    /// the four panels of the figure.
    pub fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for series in [&self.y2021, &self.y2022] {
            for p in &series.days {
                rows.push(vec![
                    series.year.to_string(),
                    Date::from_day_index(p.day).to_string(),
                    p.tests.to_string(),
                    format!("{:.3}", p.mean_min_rtt_ms),
                    format!("{:.3}", p.mean_tput_mbps),
                    format!("{:.5}", p.mean_loss),
                ]);
            }
        }
        csv(&["year", "date", "tests", "mean_min_rtt_ms", "mean_tput_mbps", "mean_loss"], &rows)
    }

    /// Mean of a metric over a day-index range of the 2022 series (helper
    /// for the report's before/after comparison).
    pub fn mean_2022(&self, lo: i64, hi: i64, metric: impl Fn(&DayPoint) -> f64) -> f64 {
        let pts: Vec<f64> =
            self.y2022.days.iter().filter(|p| (lo..hi).contains(&p.day)).map(metric).collect();
        pts.iter().sum::<f64>() / pts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_small;
    use ndt_conflict::calendar::dates;

    #[test]
    fn wartime_degradation_visible_in_series() {
        let fig = compute(shared_small()).expect("clean corpus computes");
        let invasion = dates::INVASION.day_index();
        let pre_loss = fig.mean_2022(invasion - 30, invasion, |p| p.mean_loss);
        let war_loss = fig.mean_2022(invasion + 5, invasion + 40, |p| p.mean_loss);
        assert!(war_loss > 1.5 * pre_loss, "loss: {pre_loss} → {war_loss}");
        let pre_rtt = fig.mean_2022(invasion - 30, invasion, |p| p.mean_min_rtt_ms);
        let war_rtt = fig.mean_2022(invasion + 5, invasion + 40, |p| p.mean_min_rtt_ms);
        assert!(war_rtt > 1.2 * pre_rtt, "rtt: {pre_rtt} → {war_rtt}");
        let pre_tput = fig.mean_2022(invasion - 30, invasion, |p| p.mean_tput_mbps);
        let war_tput = fig.mean_2022(invasion + 5, invasion + 40, |p| p.mean_tput_mbps);
        assert!(war_tput < 0.95 * pre_tput, "tput: {pre_tput} → {war_tput}");
    }

    #[test]
    fn baseline_2021_shows_no_invasion_effect() {
        let fig = compute(shared_small()).expect("clean corpus computes");
        // Compare the same calendar offsets in 2021.
        let split = 54; // 2021-02-24 offset within the window
        let s = &fig.y2021.days;
        let mean = |lo: i64, hi: i64, f: fn(&DayPoint) -> f64| {
            let v: Vec<f64> = s.iter().filter(|p| (lo..hi).contains(&p.day)).map(f).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let a = mean(20, split, |p| p.mean_loss);
        let b = mean(split + 5, 94, |p| p.mean_loss);
        assert!((b / a - 1.0).abs() < 0.3, "2021 loss drift: {a} vs {b}");
    }

    #[test]
    fn march_10_test_count_spike() {
        let fig = compute(shared_small()).expect("clean corpus computes");
        let mar10 = dates::NATIONAL_OUTAGES.day_index();
        let spike = fig.y2022.days.iter().find(|p| p.day == mar10).unwrap().tests as f64;
        let around: Vec<f64> = fig
            .y2022
            .days
            .iter()
            .filter(|p| (mar10 - 6..mar10 - 1).contains(&p.day))
            .map(|p| p.tests as f64)
            .collect();
        let typical = around.iter().sum::<f64>() / around.len() as f64;
        assert!(spike > 1.2 * typical, "spike {spike} vs typical {typical}");
    }

    #[test]
    fn csv_has_both_years() {
        let fig = compute(shared_small()).expect("clean corpus computes");
        let c = fig.to_csv();
        assert!(c.starts_with("year,date,"));
        assert!(c.contains("\n2021,2021-01-01,"));
        assert!(c.contains("\n2022,2022-02-24,"));
        // Roughly one row per day per year.
        assert!((200..=217).contains(&c.lines().count()), "lines = {}", c.lines().count());
    }
}
