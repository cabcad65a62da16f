//! Tables 5 & 6 (Appendix): AS-level mean/median/std detail and the
//! p-values behind Table 3's stars.

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::text_table;
use crate::table3_as;
use ndt_conflict::Period;
use ndt_stats::{median, welch_t_test, Summary};
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

/// Tables 5 and 6 together (they share the same sample extraction).
#[derive(Debug, Clone, PartialEq)]
pub struct AsDetail {
    pub detail: Vec<AsPeriodDetail>,
    pub p_values: Vec<AsPValues>,
    /// Degradation accounting (inherits Table 3's, plus thin half-rows).
    pub coverage: Coverage,
}

/// Computes the appendix tables for the same top-`n` ASes as Table 3.
pub fn compute(data: &StudyData, n: usize) -> Result<AsDetail, AnalysisError> {
    let table3 = table3_as::compute(data, n)?;
    let mut cov = table3.coverage.clone();
    let mut detail = Vec::new();
    let mut p_values = Vec::new();
    for row in &table3.rows {
        /// (throughputs, min RTTs, loss rates) of one period's tests.
        type MetricSamples = (Vec<f64>, Vec<f64>, Vec<f64>);
        let mut samples: std::collections::HashMap<Period, MetricSamples> = Default::default();
        for period in [Period::Prewar2022, Period::Wartime2022] {
            let (tput, rtt, loss) = samples.entry(period).or_default();
            for r in data.traces_in(period).filter(|r| r.as_path.contains(&row.asn)) {
                tput.push(r.mean_tput_mbps);
                rtt.push(r.min_rtt_ms);
                loss.push(r.loss_rate);
            }
        }
        for period in [Period::Prewar2022, Period::Wartime2022] {
            let (tput, rtt, loss) = &samples[&period];
            cov.note_sample(format!("AS{}/{:?}", row.asn.0, period), tput.len());
            detail.push(AsPeriodDetail {
                asn: row.asn,
                period,
                tput: Spread::of(tput),
                min_rtt: Spread::of(rtt),
                loss: Spread::of(loss),
                count: tput.len(),
            });
        }
        let pre = &samples[&Period::Prewar2022];
        let war = &samples[&Period::Wartime2022];
        p_values.push(AsPValues {
            asn: row.asn,
            p_tput: welch_t_test(&pre.0, &war.0).p,
            p_rtt: welch_t_test(&pre.1, &war.1).p,
            p_loss: welch_t_test(&pre.2, &war.2).p,
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
        let d = detail();
        let t3 = crate::table3_as::compute(shared_medium(), 10).expect("clean corpus computes");
        for p in &d.p_values {
            let row = t3.row(p.asn).unwrap();
            assert_eq!(p.p_loss < 0.05, row.loss_test.significant(), "{}", p.asn);
            assert!((p.p_loss - row.loss_test.p).abs() < 1e-9);
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
