//! Coverage accounting for degraded-data runs.
//!
//! Real NDT corpora are lossy: geolocation fails, sidecar traceroutes go
//! missing, rows arrive corrupt, whole site-days disappear. The paper
//! handles this by annotating low-sample cells (its daggered table entries)
//! rather than silently averaging over noise. Every result struct in this
//! crate carries a [`Coverage`] that does the same bookkeeping: how many
//! rows the computation saw, how many it had to drop and why, and which
//! rendered cells rest on too few samples to trust.

use crate::dataset::{Metric, Selection, StudyData};
use ndt_conflict::Period;

/// Sample-size floor below which a cell is flagged, mirroring the paper's
/// low-n daggers.
pub const LOW_SAMPLE_N: usize = 30;

/// Marker appended to rendered cells that rest on fewer than
/// [`LOW_SAMPLE_N`] samples.
pub const DAGGER: &str = "\u{2020}";

/// Why a row was excluded from a computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// Geolocation failed: the row's oblast/city is null, so it cannot be
    /// attributed to a region.
    Unlocated,
    /// A metric cell held NaN or an infinity.
    NonFinite,
    /// A nonnegative metric (throughput, loss rate) held a negative value.
    Negative,
}

impl DropReason {
    /// Short label for footers.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Unlocated => "unlocated",
            DropReason::NonFinite => "non-finite",
            DropReason::Negative => "negative",
        }
    }
}

/// Row accounting for one computed table or figure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Coverage {
    /// Rows that entered the computation (before any drops).
    pub rows_seen: usize,
    /// Rows excluded, tallied by reason.
    pub dropped: Vec<(DropReason, usize)>,
    /// Names of cells resting on fewer than [`LOW_SAMPLE_N`] samples.
    pub low_sample_cells: Vec<String>,
    /// Whole day ranges absent from the input, as inclusive
    /// `(first_day, last_day)` study-day indices — e.g. a quarantined
    /// store shard removes all of its days at once. Kept sorted and
    /// coalesced; see [`Coverage::note_missing_days`].
    pub missing_day_ranges: Vec<(i64, i64)>,
}

impl Coverage {
    /// Fresh, clean coverage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` rows entering the computation.
    pub fn see(&mut self, n: usize) {
        self.rows_seen += n;
    }

    /// Records `n` rows dropped for `reason` (no-op when `n == 0`).
    pub fn drop_rows(&mut self, reason: DropReason, n: usize) {
        if n == 0 {
            return;
        }
        match self.dropped.iter_mut().find(|(r, _)| *r == reason) {
            Some((_, c)) => *c += n,
            None => {
                self.dropped.push((reason, n));
                self.dropped.sort_by_key(|(r, _)| *r);
            }
        }
    }

    /// Flags `cell` if it rests on fewer than [`LOW_SAMPLE_N`] samples.
    /// Returns whether it was flagged.
    pub fn note_sample(&mut self, cell: impl Into<String>, n: usize) -> bool {
        if n >= LOW_SAMPLE_N {
            return false;
        }
        let cell = cell.into();
        if !self.low_sample_cells.contains(&cell) {
            self.low_sample_cells.push(cell);
        }
        true
    }

    /// Dagger marker for a named cell: [`DAGGER`] when flagged, `""`
    /// otherwise.
    pub fn dagger(&self, cell: &str) -> &'static str {
        if self.low_sample_cells.iter().any(|c| c == cell) {
            DAGGER
        } else {
            ""
        }
    }

    /// Records the inclusive day range `lo..=hi` as absent from the
    /// input. Ranges are normalized: kept sorted by start and coalesced
    /// with overlapping or adjacent ranges, so repeated / out-of-order
    /// reporting (shards arrive in directory order, not day order)
    /// converges to one canonical list. Empty ranges (`hi < lo`) are
    /// ignored.
    pub fn note_missing_days(&mut self, lo: i64, hi: i64) {
        if hi < lo {
            return;
        }
        self.missing_day_ranges.push((lo, hi));
        self.missing_day_ranges.sort_unstable();
        let mut merged: Vec<(i64, i64)> = Vec::with_capacity(self.missing_day_ranges.len());
        for &(lo, hi) in &self.missing_day_ranges {
            match merged.last_mut() {
                Some((_, prev_hi)) if lo <= prev_hi.saturating_add(1) => {
                    *prev_hi = (*prev_hi).max(hi);
                }
                _ => merged.push((lo, hi)),
            }
        }
        self.missing_day_ranges = merged;
    }

    /// Total days covered by [`Coverage::missing_day_ranges`].
    pub fn missing_days_total(&self) -> i64 {
        self.missing_day_ranges.iter().map(|&(lo, hi)| hi - lo + 1).sum()
    }

    /// Total rows dropped across all reasons.
    pub fn dropped_total(&self) -> usize {
        self.dropped.iter().map(|(_, n)| n).sum()
    }

    /// Whether anything was dropped, flagged, or missing.
    pub fn is_degraded(&self) -> bool {
        self.dropped_total() > 0
            || !self.low_sample_cells.is_empty()
            || !self.missing_day_ranges.is_empty()
    }

    /// Folds another coverage into this one (cell names are unioned).
    pub fn merge(&mut self, other: &Coverage) {
        self.rows_seen += other.rows_seen;
        for &(reason, n) in &other.dropped {
            self.drop_rows(reason, n);
        }
        for cell in &other.low_sample_cells {
            if !self.low_sample_cells.contains(cell) {
                self.low_sample_cells.push(cell.clone());
            }
        }
        for &(lo, hi) in &other.missing_day_ranges {
            self.note_missing_days(lo, hi);
        }
    }

    /// One-line footer for renderers; empty when the run was clean.
    pub fn footer(&self) -> String {
        if !self.is_degraded() {
            return String::new();
        }
        let mut parts = Vec::new();
        if self.dropped_total() > 0 {
            let detail: Vec<String> = self
                .dropped
                .iter()
                .map(|(r, n)| format!("{n} {}", r.label()))
                .collect();
            parts.push(format!(
                "{} of {} rows dropped ({})",
                self.dropped_total(),
                self.rows_seen,
                detail.join(", ")
            ));
        }
        if !self.low_sample_cells.is_empty() {
            parts.push(format!(
                "{DAGGER} {} low-sample cell(s): {}",
                self.low_sample_cells.len(),
                self.low_sample_cells.join(", ")
            ));
        }
        if !self.missing_day_ranges.is_empty() {
            let ranges: Vec<String> = self
                .missing_day_ranges
                .iter()
                .map(|&(lo, hi)| {
                    if lo == hi {
                        format!("day {lo}")
                    } else {
                        format!("days {lo}..{hi}")
                    }
                })
                .collect();
            parts.push(format!(
                "{} day(s) missing from input ({})",
                self.missing_days_total(),
                ranges.join(", ")
            ));
        }
        format!("[coverage] {}\n", parts.join("; "))
    }
}

/// Reads a metric over a selection for analysis, in row order, dropping
/// (and accounting for) unusable values: non-finite values always,
/// negative values when the metric is nonnegative by construction
/// (throughput, loss rate).
pub fn metric_samples(
    q: &Selection<'_>,
    metric: Metric,
    nonneg: bool,
    cov: &mut Coverage,
) -> Vec<f64> {
    let (mut non_finite, mut negative) = (0usize, 0usize);
    let clean: Vec<f64> = q
        .values(metric)
        .into_iter()
        .filter(|v| {
            if !v.is_finite() {
                non_finite += 1;
                false
            } else if nonneg && *v < 0.0 {
                negative += 1;
                false
            } else {
                true
            }
        })
        .collect();
    cov.drop_rows(DropReason::NonFinite, non_finite);
    cov.drop_rows(DropReason::Negative, negative);
    clean
}

/// The rows of period `p` split by oblast ([`Selection::by_oblast`]), for
/// the per-oblast stages: every row of the period is seen, and the rows
/// located to no oblast are dropped as [`DropReason::Unlocated`].
pub(crate) fn oblast_slices<'a>(
    data: &'a StudyData,
    p: Period,
    cov: &mut Coverage,
) -> Vec<Selection<'a>> {
    let all = data.period(p);
    let slices = all.by_oblast();
    cov.see(all.count());
    let unlocated = all.count() - all.with_oblast().count();
    cov.drop_rows(DropReason::Unlocated, unlocated);
    slices
}

/// Mean of already-cleaned samples; `NaN` marks an empty cell (renderers
/// show it as missing, never feed it onward unchecked).
pub fn mean_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Renders a numeric cell, using an em-dash for the `NaN` empty marker.
pub fn num_cell(x: f64, precision: usize) -> String {
    if x.is_finite() {
        format!("{x:.precision$}")
    } else {
        "\u{2014}".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_coverage_has_empty_footer() {
        let mut c = Coverage::new();
        c.see(100);
        assert!(!c.is_degraded());
        assert_eq!(c.footer(), "");
    }

    #[test]
    fn drops_accumulate_by_reason() {
        let mut c = Coverage::new();
        c.see(10);
        c.drop_rows(DropReason::NonFinite, 2);
        c.drop_rows(DropReason::NonFinite, 1);
        c.drop_rows(DropReason::Unlocated, 4);
        c.drop_rows(DropReason::Negative, 0);
        assert_eq!(c.dropped_total(), 7);
        assert_eq!(c.dropped.len(), 2);
        let f = c.footer();
        assert!(f.contains("3 non-finite"), "{f}");
        assert!(f.contains("4 unlocated"), "{f}");
    }

    #[test]
    fn low_sample_cells_get_daggers() {
        let mut c = Coverage::new();
        assert!(c.note_sample("Mariupol/war", 3));
        assert!(!c.note_sample("Kyiv/war", LOW_SAMPLE_N));
        assert_eq!(c.dagger("Mariupol/war"), DAGGER);
        assert_eq!(c.dagger("Kyiv/war"), "");
        assert!(c.footer().contains("Mariupol/war"));
    }

    #[test]
    fn merge_unions_everything() {
        let mut a = Coverage::new();
        a.see(5);
        a.drop_rows(DropReason::Negative, 1);
        a.note_sample("x", 0);
        let mut b = Coverage::new();
        b.see(7);
        b.drop_rows(DropReason::Negative, 2);
        b.note_sample("x", 0);
        b.note_sample("y", 1);
        a.merge(&b);
        assert_eq!(a.rows_seen, 12);
        assert_eq!(a.dropped_total(), 3);
        assert_eq!(a.low_sample_cells, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn missing_day_ranges_normalize_and_render() {
        let mut c = Coverage::new();
        c.note_missing_days(40, 45);
        c.note_missing_days(10, 12);
        c.note_missing_days(13, 15); // adjacent: coalesces with 10..12
        c.note_missing_days(44, 50); // overlapping: extends 40..45
        c.note_missing_days(99, 98); // empty: ignored
        c.note_missing_days(7, 7);
        assert_eq!(c.missing_day_ranges, vec![(7, 7), (10, 15), (40, 50)]);
        assert_eq!(c.missing_days_total(), 1 + 6 + 11);
        assert!(c.is_degraded());
        let f = c.footer();
        assert!(f.contains("18 day(s) missing"), "{f}");
        assert!(f.contains("day 7"), "{f}");
        assert!(f.contains("days 10..15"), "{f}");
        // Merging folds ranges through the same normalizer.
        let mut base = Coverage::new();
        base.note_missing_days(16, 20);
        base.merge(&c);
        assert_eq!(base.missing_day_ranges, vec![(7, 7), (10, 20), (40, 50)]);
    }

    #[test]
    fn metric_samples_filters_and_accounts() {
        use ndt_mlab::UnifiedDownloadRow;
        use ndt_topology::{Asn, Ipv4Addr};
        let mut ds = ndt_mlab::Dataset::default();
        for v in [1.0, f64::NAN, -2.0, 3.0, f64::INFINITY] {
            ds.ndt.push(&UnifiedDownloadRow {
                day: 0,
                client_ip: Ipv4Addr(1),
                server_ip: Ipv4Addr(2),
                client_asn: Asn(3),
                oblast: None,
                city: None,
                mean_tput_mbps: v,
                min_rtt_ms: 10.0,
                loss_rate: 0.0,
            });
        }
        let data = crate::StudyData::from_dataset(ds);
        let q = data.rows();
        let mut cov = Coverage::new();
        let clean = metric_samples(&q, Metric::Tput, true, &mut cov);
        assert_eq!(clean, vec![1.0, 3.0]);
        assert_eq!(cov.dropped_total(), 3);
        let mut cov2 = Coverage::new();
        let signed = metric_samples(&q, Metric::Tput, false, &mut cov2);
        assert_eq!(signed, vec![1.0, -2.0, 3.0]);
        assert_eq!(cov2.dropped_total(), 2);
    }

    #[test]
    fn empty_cells_render_as_dashes() {
        assert_eq!(num_cell(f64::NAN, 2), "\u{2014}");
        assert_eq!(num_cell(1.5, 2), "1.50");
        assert!(mean_or_nan(&[]).is_nan());
        assert_eq!(mean_or_nan(&[2.0, 4.0]), 3.0);
    }
}
