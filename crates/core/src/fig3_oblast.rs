//! Figure 3: per-oblast percentage changes, wartime vs prewar, for test
//! counts, min RTT, mean download speed and loss rate.
//!
//! The paper: "oblasts in the North and Southeast are directly correlated
//! with worsening metrics — the same regions with active conflict."

use crate::coverage::{mean_or_nan, metric_samples, oblast_slices, Coverage};
use crate::dataset::{Metric, Selection, StudyData};
use crate::error::AnalysisError;
use crate::render::{csv, pct};
use ndt_conflict::Period;
use ndt_geo::{Front, Oblast};

/// One oblast's panel values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OblastChange {
    pub oblast: Oblast,
    pub front: Front,
    /// Relative changes, wartime vs prewar (e.g. +0.5 = +50%).
    pub d_tests: f64,
    pub d_min_rtt: f64,
    pub d_tput: f64,
    pub d_loss: f64,
}

/// Figure 3: all regions.
#[derive(Debug, Clone, PartialEq)]
pub struct OblastChanges {
    pub rows: Vec<OblastChange>,
    /// Degradation accounting; regions skipped for having no usable rows in
    /// a period are flagged as low-sample cells.
    pub coverage: Coverage,
}

/// Computes the per-oblast relative changes from region-labeled rows.
pub fn compute(data: &StudyData) -> Result<OblastChanges, AnalysisError> {
    let mut cov = Coverage::new();
    let [pre, war] =
        [Period::Prewar2022, Period::Wartime2022].map(|p| oblast_slices(data, p, &mut cov));
    let mut rows = Vec::new();
    for (oblast, (pre, war)) in Oblast::all().zip(pre.iter().zip(&war)) {
        if pre.is_empty() || war.is_empty() {
            cov.note_sample(oblast.name(), pre.count().min(war.count()));
            continue;
        }
        let m = |q: &Selection<'_>, metric, cov: &mut Coverage| {
            mean_or_nan(&metric_samples(q, metric, true, cov))
        };
        let rel = |a: f64, b: f64| (b - a) / a;
        let row = OblastChange {
            oblast,
            front: oblast.front(),
            d_tests: rel(pre.count() as f64, war.count() as f64),
            d_min_rtt: rel(m(pre, Metric::MinRtt, &mut cov), m(war, Metric::MinRtt, &mut cov)),
            d_tput: rel(m(pre, Metric::Tput, &mut cov), m(war, Metric::Tput, &mut cov)),
            d_loss: rel(m(pre, Metric::Loss, &mut cov), m(war, Metric::Loss, &mut cov)),
        };
        // A region whose every metric value in a period was corrupt cannot
        // report a change; flag it instead of emitting NaN panels.
        if ![row.d_min_rtt, row.d_tput, row.d_loss].iter().all(|v| v.is_finite()) {
            cov.note_sample(oblast.name(), 0);
            continue;
        }
        cov.note_sample(oblast.name(), pre.count().min(war.count()));
        rows.push(row);
    }
    Ok(OblastChanges { rows, coverage: cov })
}

impl OblastChanges {
    /// Mean loss change over the oblasts of one front.
    pub fn mean_loss_change(&self, front: Front) -> f64 {
        let v: Vec<f64> =
            self.rows.iter().filter(|r| r.front == front).map(|r| r.d_loss).collect();
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// CSV matching the four panels.
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.oblast.name().to_string(),
                    format!("{:?}", r.front),
                    pct(r.d_tests),
                    pct(r.d_min_rtt),
                    pct(r.d_tput),
                    pct(r.d_loss),
                ]
            })
            .collect();
        csv(&["oblast", "front", "d_tests", "d_min_rtt", "d_tput", "d_loss"], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_small;

    #[test]
    fn covers_most_regions() {
        let fig = compute(shared_small()).expect("clean corpus computes");
        assert!(fig.rows.len() >= 25, "only {} regions present", fig.rows.len());
    }

    #[test]
    fn conflict_fronts_degrade_more_than_the_west() {
        // Directional expectations derived from the paper's own Table 4:
        // the Southern and Northern fronts dominate the loss deterioration
        // (Zaporizhzhya 6x, Kherson 4.1x, Sumy 4.6x, Kyiv Oblast 4x), the
        // West stays mildest. (The East's *relative* loss change is modest
        // in the paper too — its prewar baseline was already poor.)
        let fig = compute(shared_small()).expect("clean corpus computes");
        let south = fig.mean_loss_change(Front::South);
        let north = fig.mean_loss_change(Front::North);
        let west = fig.mean_loss_change(Front::West);
        let center = fig.mean_loss_change(Front::Center);
        assert!(south > west, "south {south} vs west {west}");
        assert!(north > west, "north {north} vs west {west}");
        assert!(south > center, "south {south} vs center {center}");
        // Active fronts at least double their loss on average.
        assert!(south > 1.0 && north > 1.0);
    }

    #[test]
    fn rtt_rises_broadly() {
        let fig = compute(shared_small()).expect("clean corpus computes");
        let rising = fig.rows.iter().filter(|r| r.d_min_rtt > 0.0).count();
        assert!(rising as f64 > 0.7 * fig.rows.len() as f64, "{rising}/{} rising", fig.rows.len());
    }

    #[test]
    fn csv_includes_fronts() {
        let fig = compute(shared_small()).expect("clean corpus computes");
        let c = fig.to_csv();
        assert!(c.contains("Kiev City,North"));
        assert!(c.contains("L'viv,West"));
    }
}
