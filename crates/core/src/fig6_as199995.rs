//! Figure 6: the AS199995 case study — ingress share shifts to Hurricane
//! Electric as AS6663 degrades.
//!
//! §5.2: "as AS 6663's loss rate increases, a much larger proportion of
//! connections going through AS 199995 arrive from AS 6939, whose
//! connections have far better performance."

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::csv;
use ndt_conflict::calendar::Date;
use ndt_stats::DailySeries;
use ndt_topology::asn::well_known as wk;
use ndt_topology::Asn;
use std::collections::BTreeMap;

/// One week of the case study.
#[derive(Debug, Clone, PartialEq)]
pub struct WeekPoint {
    /// Day index of the week start.
    pub week_start: i64,
    /// Tests entering AS199995 per foreign ingress AS.
    pub ingress_counts: BTreeMap<Asn, usize>,
    /// Weekly median loss rate of tests through AS6663 (None if no tests).
    pub median_loss_6663: Option<f64>,
    /// Weekly median min-RTT of tests through AS6663 (None if no tests).
    pub median_rtt_6663: Option<f64>,
}

impl WeekPoint {
    /// Share of AS199995's ingress arriving via `asn` that week.
    pub fn share(&self, asn: Asn) -> f64 {
        let total: usize = self.ingress_counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        *self.ingress_counts.get(&asn).unwrap_or(&0) as f64 / total as f64
    }
}

/// The full Figure 6 series over the 2022 window.
#[derive(Debug, Clone, PartialEq)]
pub struct As199995CaseStudy {
    pub weeks: Vec<WeekPoint>,
    /// Degradation accounting: weeks resting on a trickle of traces are
    /// daggered in the CSV consumers.
    pub coverage: Coverage,
}

/// Computes the case study from traceroutes whose border crossing lands in
/// AS199995.
pub fn compute(data: &StudyData) -> Result<As199995CaseStudy, AnalysisError> {
    let start = Date::new(2022, 1, 1).day_index();
    let end = start + 108;
    let mut ingress: BTreeMap<i64, BTreeMap<Asn, usize>> = BTreeMap::new();
    let mut loss_6663 = DailySeries::new();
    let mut rtt_6663 = DailySeries::new();
    let t = &data.traces;
    for i in data.trace_days(start, end) {
        let Some((border, ua)) = t.border[i] else { continue };
        if ua != wk::AS199995 {
            continue;
        }
        let day = t.day[i];
        let week = start + (day - start).div_euclid(7) * 7;
        *ingress.entry(week).or_default().entry(border).or_default() += 1;
        if border == wk::AS6663 {
            loss_6663.push(day, t.loss[i]);
            rtt_6663.push(day, t.min_rtt[i]);
        }
    }
    let loss_by_week: BTreeMap<i64, f64> =
        loss_6663.weekly_medians(start).into_iter().map(|w| (w.week_start, w.value)).collect();
    let rtt_by_week: BTreeMap<i64, f64> =
        rtt_6663.weekly_medians(start).into_iter().map(|w| (w.week_start, w.value)).collect();
    let weeks: Vec<WeekPoint> = ingress
        .into_iter()
        .map(|(week_start, ingress_counts)| WeekPoint {
            week_start,
            ingress_counts,
            median_loss_6663: loss_by_week.get(&week_start).copied(),
            median_rtt_6663: rtt_by_week.get(&week_start).copied(),
        })
        .collect();
    let mut cov = Coverage::new();
    for w in &weeks {
        let n: usize = w.ingress_counts.values().sum();
        cov.see(n);
        cov.note_sample(format!("week {}", Date::from_day_index(w.week_start)), n);
    }
    Ok(As199995CaseStudy { weeks, coverage: cov })
}

impl As199995CaseStudy {
    /// Mean ingress share of `asn` over weeks in `[lo, hi)`.
    pub fn mean_share(&self, asn: Asn, lo: i64, hi: i64) -> f64 {
        let v: Vec<f64> = self
            .weeks
            .iter()
            .filter(|w| (lo..hi).contains(&w.week_start))
            .map(|w| w.share(asn))
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    /// CSV: one row per week with the three ingress shares and the AS6663
    /// health series.
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .weeks
            .iter()
            .map(|w| {
                vec![
                    Date::from_day_index(w.week_start).to_string(),
                    format!("{:.4}", w.share(wk::AS6663)),
                    format!("{:.4}", w.share(wk::HURRICANE_ELECTRIC)),
                    format!("{:.4}", w.share(wk::RETN)),
                    w.median_loss_6663.map(|v| format!("{v:.5}")).unwrap_or_default(),
                    w.median_rtt_6663.map(|v| format!("{v:.3}")).unwrap_or_default(),
                ]
            })
            .collect();
        csv(
            &["week", "share_as6663", "share_as6939", "share_as9002", "median_loss_6663", "median_rtt_6663"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_small;
    use ndt_conflict::calendar::dates;
    use std::sync::OnceLock;

    fn study() -> &'static As199995CaseStudy {
        static S: OnceLock<As199995CaseStudy> = OnceLock::new();
        S.get_or_init(|| compute(shared_small()).expect("clean corpus computes"))
    }

    #[test]
    fn three_foreign_ingresses_appear() {
        let s = study();
        let mut seen: std::collections::BTreeSet<Asn> = Default::default();
        for w in &s.weeks {
            seen.extend(w.ingress_counts.keys().copied());
        }
        assert!(seen.contains(&wk::AS6663));
        assert!(seen.contains(&wk::HURRICANE_ELECTRIC));
        assert_eq!(seen.len(), 3, "ingresses: {seen:?}");
    }

    #[test]
    fn ingress_share_shifts_from_6663_to_hurricane_electric() {
        let s = study();
        let invasion = dates::INVASION.day_index();
        let pre_6663 = s.mean_share(wk::AS6663, invasion - 54, invasion);
        let late_6663 = s.mean_share(wk::AS6663, invasion + 21, invasion + 54);
        let pre_he = s.mean_share(wk::HURRICANE_ELECTRIC, invasion - 54, invasion);
        let late_he = s.mean_share(wk::HURRICANE_ELECTRIC, invasion + 21, invasion + 54);
        assert!(pre_6663 > 0.5, "AS6663 should dominate prewar: {pre_6663}");
        assert!(late_6663 < pre_6663 - 0.1, "no shift away from 6663: {pre_6663} → {late_6663}");
        assert!(late_he > pre_he + 0.1, "HE share must rise: {pre_he} → {late_he}");
    }

    #[test]
    fn as6663_health_deteriorates() {
        let s = study();
        let invasion = dates::INVASION.day_index();
        let mean_opt = |lo: i64, hi: i64, f: fn(&WeekPoint) -> Option<f64>| {
            let v: Vec<f64> =
                s.weeks.iter().filter(|w| (lo..hi).contains(&w.week_start)).filter_map(f).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let pre_loss = mean_opt(invasion - 54, invasion, |w| w.median_loss_6663);
        let war_loss = mean_opt(invasion + 14, invasion + 54, |w| w.median_loss_6663);
        assert!(war_loss > 2.0 * pre_loss, "6663 loss: {pre_loss} → {war_loss}");
        let pre_rtt = mean_opt(invasion - 54, invasion, |w| w.median_rtt_6663);
        let war_rtt = mean_opt(invasion + 14, invasion + 54, |w| w.median_rtt_6663);
        assert!(war_rtt > pre_rtt, "6663 rtt: {pre_rtt} → {war_rtt}");
    }

    #[test]
    fn csv_renders_weeks() {
        let c = study().to_csv();
        assert!(c.starts_with("week,share_as6663"));
        assert!(c.lines().count() >= 14, "weeks: {}", c.lines().count());
    }
}
