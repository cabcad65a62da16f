//! Extension: date-level change-point analysis.
//!
//! The paper's §4 notes "We investigate potential causal events
//! corresponding to dates where we observe significant metric changes, but
//! largely leave date-level analysis to future work." This extension does
//! that date-level pass: it scans the national daily series for level
//! shifts (two-window Welch statistic, local-maximum picking) and for
//! single-day test-count spikes, then aligns detections with the §2 event
//! timeline.

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::fig2_national;
use crate::render::text_table;
use ndt_conflict::calendar::Date;
use ndt_conflict::events::{key_events, Event};
use ndt_stats::{quantile, welch_t_test};

/// A detected level shift in a daily series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangePoint {
    /// Day index of the first day of the new level.
    pub day: i64,
    /// Welch t statistic of the post-window vs the pre-window.
    pub t: f64,
    /// Whether the level moved up.
    pub upward: bool,
}

/// Detects level shifts in a `(day, value)` series.
///
/// For each day with `window` observations on both sides, computes Welch's
/// t between the two windows; days where `|t|` exceeds `threshold` and is
/// a local maximum within ±`window/2` days become change points.
///
/// # Panics
/// Panics if `window < 2`.
pub fn change_points(series: &[(i64, f64)], window: usize, threshold: f64) -> Vec<ChangePoint> {
    assert!(window >= 2, "window must hold at least two observations");
    if series.len() < 2 * window {
        return Vec::new();
    }
    let mut scores: Vec<(i64, f64)> = Vec::new();
    for i in window..series.len() - window + 1 {
        let before: Vec<f64> = series[i - window..i].iter().map(|p| p.1).collect();
        let after: Vec<f64> = series[i..i + window].iter().map(|p| p.1).collect();
        let t = welch_t_test(&before, &after).t;
        if t.is_finite() {
            scores.push((series[i].0, -t)); // positive = upward shift
        }
    }
    let half = (window / 2).max(1) as i64;
    let mut out = Vec::new();
    for (k, &(day, t)) in scores.iter().enumerate() {
        if t.abs() < threshold {
            continue;
        }
        let is_peak = scores
            .iter()
            .enumerate()
            .filter(|(j, (d, _))| *j != k && (d - day).abs() <= half)
            .all(|(_, (_, other))| t.abs() >= other.abs());
        if is_peak {
            out.push(ChangePoint { day, t, upward: t > 0.0 });
        }
    }
    out
}

/// A detected single-day spike in a count series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spike {
    pub day: i64,
    /// Value as a multiple of the trailing-window mean.
    pub magnitude: f64,
}

/// Detects days whose count exceeds `k` median-absolute-deviations above
/// the trailing `window`-day median. The robust location/scale pair keeps
/// the detector sensitive through the wartime count ramps, which inflate a
/// mean/σ detector's scale estimate.
pub fn spikes(series: &[(i64, f64)], window: usize, k: f64) -> Vec<Spike> {
    let mut out = Vec::new();
    for i in window..series.len() {
        let trailing: Vec<f64> = series[i - window..i].iter().map(|p| p.1).collect();
        let med = quantile(&trailing, 0.5);
        let deviations: Vec<f64> = trailing.iter().map(|v| (v - med).abs()).collect();
        let mad = quantile(&deviations, 0.5).max(med.abs() * 0.01).max(1e-9);
        if series[i].1 > med + k * mad {
            out.push(Spike { day: series[i].0, magnitude: series[i].1 / med.max(1e-9) });
        }
    }
    out
}

/// One timeline event with its nearest detection, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct EventMatch {
    pub event: Event,
    /// Day of the nearest loss/RTT change point or count spike within the
    /// tolerance, if one was detected.
    pub detected_day: Option<i64>,
}

/// The full date-level study.
#[derive(Debug, Clone, PartialEq)]
pub struct EventStudy {
    pub loss_changes: Vec<ChangePoint>,
    pub rtt_changes: Vec<ChangePoint>,
    pub count_spikes: Vec<Spike>,
    pub matches: Vec<EventMatch>,
    /// Degradation accounting inherited from the underlying Figure 2 pass
    /// (corrupt rows excluded from the scanned series).
    pub coverage: Coverage,
}

/// Runs the date-level analysis over the 2022 national series.
pub fn compute(data: &StudyData) -> Result<EventStudy, AnalysisError> {
    let fig2 = fig2_national::compute(data)?;
    let loss: Vec<(i64, f64)> = fig2.y2022.days.iter().map(|p| (p.day, p.mean_loss)).collect();
    let rtt: Vec<(i64, f64)> =
        fig2.y2022.days.iter().map(|p| (p.day, p.mean_min_rtt_ms)).collect();
    let counts: Vec<(i64, f64)> =
        fig2.y2022.days.iter().map(|p| (p.day, p.tests as f64)).collect();

    let loss_changes = change_points(&loss, 7, 6.0);
    let rtt_changes = change_points(&rtt, 7, 6.0);
    let count_spikes = spikes(&counts, 14, 4.0);

    // Align the §2 timeline with detections (±3 days tolerance).
    let tol = 3i64;
    let matches = key_events()
        .into_iter()
        .map(|event| {
            let day = event.date.day_index();
            let nearest = loss_changes
                .iter()
                .map(|c| c.day)
                .chain(rtt_changes.iter().map(|c| c.day))
                .chain(count_spikes.iter().map(|s| s.day))
                .filter(|d| (d - day).abs() <= tol)
                .min_by_key(|d| (d - day).abs());
            EventMatch { event, detected_day: nearest }
        })
        .collect();

    Ok(EventStudy { loss_changes, rtt_changes, count_spikes, matches, coverage: fig2.coverage })
}

impl EventStudy {
    /// Aligned text rendering of the event alignment.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .matches
            .iter()
            .map(|m| {
                vec![
                    m.event.date.to_string(),
                    format!("{:?}", m.event.kind),
                    m.event.description.chars().take(48).collect(),
                    match m.detected_day {
                        Some(d) => format!("detected @ {}", Date::from_day_index(d)),
                        None => "—".to_string(),
                    },
                ]
            })
            .collect();
        text_table(&["date", "kind", "event", "detection"], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;
    use ndt_conflict::calendar::dates;
    use std::sync::OnceLock;

    fn study() -> &'static EventStudy {
        static S: OnceLock<EventStudy> = OnceLock::new();
        S.get_or_init(|| compute(shared_medium()).expect("clean corpus computes"))
    }

    #[test]
    fn synthetic_step_is_detected_exactly() {
        let series: Vec<(i64, f64)> = (0..60)
            .map(|d| (d, if d < 30 { 1.0 + 0.01 * (d % 3) as f64 } else { 2.0 + 0.01 * (d % 3) as f64 }))
            .collect();
        let cps = change_points(&series, 7, 6.0);
        assert_eq!(cps.len(), 1, "{cps:?}");
        assert_eq!(cps[0].day, 30);
        assert!(cps[0].upward);
    }

    #[test]
    fn flat_series_has_no_change_points() {
        let series: Vec<(i64, f64)> = (0..60).map(|d| (d, 5.0 + 0.05 * ((d * 7) % 5) as f64)).collect();
        assert!(change_points(&series, 7, 6.0).is_empty());
    }

    #[test]
    fn synthetic_spike_is_detected() {
        let mut series: Vec<(i64, f64)> = (0..40).map(|d| (d, 100.0 + (d % 4) as f64)).collect();
        series[25].1 = 180.0;
        let sp = spikes(&series, 14, 4.0);
        assert_eq!(sp.len(), 1, "{sp:?}");
        assert_eq!(sp[0].day, 25);
        assert!(sp[0].magnitude > 1.5);
    }

    #[test]
    fn invasion_is_a_detected_change_point() {
        let s = study();
        let invasion = dates::INVASION.day_index();
        let near = |cps: &[ChangePoint]| cps.iter().any(|c| (c.day - invasion).abs() <= 3 && c.upward);
        assert!(
            near(&s.loss_changes) || near(&s.rtt_changes),
            "no upward loss/RTT shift near Feb 24: loss {:?}, rtt {:?}",
            s.loss_changes,
            s.rtt_changes
        );
    }

    #[test]
    fn march_10_outage_is_a_count_spike() {
        let s = study();
        let mar10 = dates::NATIONAL_OUTAGES.day_index();
        assert!(
            s.count_spikes.iter().any(|sp| (sp.day - mar10).abs() <= 1),
            "no count spike near Mar 10: {:?}",
            s.count_spikes
        );
    }

    #[test]
    fn timeline_alignment_matches_major_events() {
        let s = study();
        let matched = s.matches.iter().filter(|m| m.detected_day.is_some()).count();
        assert!(matched >= 2, "only {matched} events matched:\n{}", s.render());
        // The invasion itself must be among them.
        assert!(s
            .matches
            .iter()
            .any(|m| m.event.date == dates::INVASION && m.detected_day.is_some()));
    }

    #[test]
    fn renders() {
        let out = study().render();
        assert!(out.contains("2022-02-24"));
        assert!(out.contains("detection") && out.contains("Invasion"));
    }
}
