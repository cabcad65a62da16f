//! Tables 5 & 6 (Appendix): AS-level mean/median/std detail and the
//! p-values behind Table 3's stars — a rendering of the samples and Welch
//! tests [`table3_as`] keeps on its rows.

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::text_table;
use crate::table3_as::{self, AsTable};
use ndt_conflict::Period;
use ndt_stats::{median, Summary};
use ndt_topology::Asn;

/// Mean/median/std triple for one metric (a Table 5 cell group).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub mean: f64,
    pub median: f64,
    pub std: f64,
}

impl Spread {
    fn of(v: &[f64]) -> Spread {
        let s = Summary::of(v);
        Spread { mean: s.mean(), median: median(v), std: s.std_dev() }
    }
}

/// One (AS, period) half-row of Table 5.
#[derive(Debug, Clone, PartialEq)]
pub struct AsPeriodDetail {
    pub asn: Asn,
    pub period: Period,
    pub tput: Spread,
    pub min_rtt: Spread,
    pub loss: Spread,
    pub count: usize,
}

/// One Table 6 row: the p-values per metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsPValues {
    pub asn: Asn,
    pub p_tput: f64,
    pub p_rtt: f64,
    pub p_loss: f64,
}

/// Tables 5 and 6 together: a rendering of Table 3's samples and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct AsDetail {
    pub detail: Vec<AsPeriodDetail>,
    pub p_values: Vec<AsPValues>,
    /// Degradation accounting (inherits Table 3's, plus thin half-rows).
    pub coverage: Coverage,
}

/// Computes the appendix tables for the same top-`n` ASes as Table 3, from
/// the samples and Welch tests of its rows.
pub fn compute(data: &StudyData, n: usize) -> Result<AsDetail, AnalysisError> {
    let AsTable { rows, coverage: mut cov, .. } = table3_as::compute(data, n)?;
    let mut detail = Vec::new();
    let mut p_values = Vec::new();
    for row in &rows {
        for (period, s) in [(Period::Prewar2022, &row.prewar), (Period::Wartime2022, &row.wartime)]
        {
            cov.note_sample(format!("AS{}/{:?}", row.asn.0, period), s.tput.len());
            detail.push(AsPeriodDetail {
                asn: row.asn,
                period,
                tput: Spread::of(&s.tput),
                min_rtt: Spread::of(&s.min_rtt),
                loss: Spread::of(&s.loss),
                count: s.tput.len(),
            });
        }
        p_values.push(AsPValues {
            asn: row.asn,
            p_tput: row.tput_test.p,
            p_rtt: row.rtt_test.p,
            p_loss: row.loss_test.p,
        });
    }
    Ok(AsDetail { detail, p_values, coverage: cov })
}

impl AsDetail {
    /// Detail row lookup.
    pub fn detail_of(&self, asn: Asn, period: Period) -> Option<&AsPeriodDetail> {
        self.detail.iter().find(|d| d.asn == asn && d.period == period)
    }

    /// Table 5 rendering.
    pub fn render_table5(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .detail
            .iter()
            .map(|d| {
                vec![
                    d.asn.0.to_string(),
                    match d.period {
                        Period::Prewar2022 => "Prewar".to_string(),
                        Period::Wartime2022 => "Wartime".to_string(),
                        p => p.label().to_string(),
                    },
                    format!("{:.3}", d.tput.mean),
                    format!("{:.3}", d.tput.median),
                    format!("{:.3}", d.tput.std),
                    format!("{:.3}", d.min_rtt.mean),
                    format!("{:.3}", d.min_rtt.median),
                    format!("{:.3}", d.min_rtt.std),
                    format!("{:.4}", d.loss.mean),
                    format!("{:.4}", d.loss.median),
                    format!("{:.4}", d.loss.std),
                    d.count.to_string(),
                ]
            })
            .collect();
        let mut out = text_table(
            &[
                "ASN", "Period", "TputMean", "TputMed", "TputStd", "RTTMean", "RTTMed", "RTTStd",
                "LossMean", "LossMed", "LossStd", "Count",
            ],
            &rows,
        );
        out.push_str(&self.coverage.footer());
        out
    }

    /// Table 6 rendering.
    pub fn render_table6(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .p_values
            .iter()
            .map(|p| {
                vec![
                    p.asn.0.to_string(),
                    format!("{:.3e}", p.p_tput),
                    format!("{:.3e}", p.p_rtt),
                    format!("{:.3e}", p.p_loss),
                ]
            })
            .collect();
        text_table(&["ASN", "MeanTput p", "MinRTT p", "LossRate p"], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;
    use ndt_topology::asn::well_known as wk;
    use std::sync::OnceLock;

    fn detail() -> &'static AsDetail {
        static D: OnceLock<AsDetail> = OnceLock::new();
        D.get_or_init(|| compute(shared_medium(), 10).expect("clean corpus computes"))
    }

    #[test]
    fn two_period_rows_per_as() {
        let d = detail();
        assert_eq!(d.detail.len(), 20);
        assert_eq!(d.p_values.len(), 10);
    }

    #[test]
    fn spreads_are_internally_consistent() {
        let d = detail();
        for row in &d.detail {
            assert!(row.count > 0, "{} {:?} empty", row.asn, row.period);
            assert!(row.tput.std >= 0.0);
            assert!(row.loss.mean >= 0.0 && row.loss.mean <= 1.0);
            // Right-skewed metrics: means sit above medians for throughput.
            assert!(row.tput.mean >= row.tput.median * 0.5);
        }
    }

    #[test]
    fn p_values_match_table3_stars() {
        // Table 6 is Table 3's tests and Table 5 counts its samples: equal
        // bit for bit, not merely within a tolerance.
        let d = detail();
        let t3 = crate::table3_as::compute(shared_medium(), 10).expect("clean corpus computes");
        assert_eq!(d.p_values.len(), t3.rows.len());
        for (p, row) in d.p_values.iter().zip(&t3.rows) {
            assert_eq!(p.asn, row.asn);
            assert_eq!(p.p_tput.to_bits(), row.tput_test.p.to_bits(), "{} tput", p.asn);
            assert_eq!(p.p_rtt.to_bits(), row.rtt_test.p.to_bits(), "{} rtt", p.asn);
            assert_eq!(p.p_loss.to_bits(), row.loss_test.p.to_bits(), "{} loss", p.asn);
            for (period, tests) in
                [(Period::Prewar2022, row.tests_prewar), (Period::Wartime2022, row.tests_wartime)]
            {
                let half = d.detail_of(row.asn, period).expect("half-row per period");
                assert_eq!(half.count, tests, "{} {period:?}", row.asn);
            }
        }
    }

    #[test]
    fn kyivstar_wartime_loss_spread_widens() {
        let d = detail();
        let pre = d.detail_of(wk::KYIVSTAR, Period::Prewar2022).unwrap();
        let war = d.detail_of(wk::KYIVSTAR, Period::Wartime2022).unwrap();
        assert!(war.loss.mean > pre.loss.mean);
        assert!(war.loss.std > pre.loss.std, "paper Table 5: loss std widens in wartime");
    }

    #[test]
    fn renders() {
        let d = detail();
        assert!(d.render_table5().contains("TputMean"));
        assert!(d.render_table6().contains("LossRate p"));
    }
}
