//! Extension: nonparametric robustness check of Table 1's stars.
//!
//! Appendix B of the paper justifies Welch's t-test but concedes that the
//! metric samples are "slightly skewed", so "the lack of normality in the
//! samples could be considered a limitation of the statistical tests."
//! This extension quantifies that limitation: every Table 1 comparison is
//! re-run with the Mann–Whitney U test, which assumes no distribution at
//! all. Where the two tests agree, the paper's conclusion did not hinge on
//! normality.

use crate::coverage::{metric_samples, Coverage};
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::text_table;
use ndt_bq::Query;
use ndt_conflict::Period;
use ndt_geo::city::KEY_CITIES;
use ndt_stats::{jarque_bera, mann_whitney_u, welch_t_test, JarqueBera, MannWhitney, WelchTTest};

/// One metric's pair of tests plus the normality diagnostic that motivates
/// running both.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestPair {
    pub welch: WelchTTest,
    pub mann_whitney: MannWhitney,
    /// Jarque–Bera on the pooled prewar+wartime sample (Appendix B asks
    /// whether the metric is normal at all).
    pub normality: JarqueBera,
}

impl TestPair {
    /// Whether both tests land on the same side of the 0.05 threshold.
    pub fn agree(&self) -> bool {
        self.welch.significant() == self.mann_whitney.significant()
    }
}

/// One city's (or the national) row.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    pub name: String,
    pub min_rtt: TestPair,
    pub tput: TestPair,
    pub loss: TestPair,
}

/// The robustness table.
#[derive(Debug, Clone, PartialEq)]
pub struct Robustness {
    pub rows: Vec<RobustnessRow>,
    /// Degradation accounting: corrupt metric values are excluded from both
    /// tests' samples and tallied here.
    pub coverage: Coverage,
}

fn pair(
    pre: &Query<'_>,
    war: &Query<'_>,
    col: &str,
    cov: &mut Coverage,
) -> Result<TestPair, AnalysisError> {
    let a = metric_samples(pre, col, true, cov)?;
    let b = metric_samples(war, col, true, cov)?;
    let mut pooled = a.clone();
    pooled.extend_from_slice(&b);
    Ok(TestPair {
        welch: welch_t_test(&a, &b),
        mann_whitney: mann_whitney_u(&a, &b),
        normality: jarque_bera(&pooled),
    })
}

/// Runs both tests on every Table 1 slice.
pub fn compute(data: &StudyData) -> Result<Robustness, AnalysisError> {
    let mut cov = Coverage::new();
    let mut rows = Vec::new();
    let mut push = |name: &str, pre: Query<'_>, war: Query<'_>, cov: &mut Coverage| {
        cov.see(pre.count() + war.count());
        cov.note_sample(name, pre.count().min(war.count()));
        rows.push(RobustnessRow {
            name: name.to_string(),
            min_rtt: pair(&pre, &war, "min_rtt", cov)?,
            tput: pair(&pre, &war, "tput", cov)?,
            loss: pair(&pre, &war, "loss", cov)?,
        });
        Ok::<(), AnalysisError>(())
    };
    for city in KEY_CITIES {
        push(
            city,
            data.city_period(city, Period::Prewar2022),
            data.city_period(city, Period::Wartime2022),
            &mut cov,
        )?;
    }
    push("National", data.period(Period::Prewar2022), data.period(Period::Wartime2022), &mut cov)?;
    Ok(Robustness { rows, coverage: cov })
}

impl Robustness {
    /// Row by name.
    pub fn row(&self, name: &str) -> Option<&RobustnessRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Fraction of metric cells where the two tests agree.
    pub fn agreement(&self) -> f64 {
        let cells: Vec<bool> = self
            .rows
            .iter()
            .flat_map(|r| [r.min_rtt.agree(), r.tput.agree(), r.loss.agree()])
            .collect();
        cells.iter().filter(|&&a| a).count() as f64 / cells.len() as f64
    }

    /// Aligned text rendering.
    pub fn render(&self) -> String {
        let star = |sig: bool| if sig { "*" } else { "ns" };
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.name.clone(),
                    format!("{}/{}", star(r.min_rtt.welch.significant()), star(r.min_rtt.mann_whitney.significant())),
                    format!("{}/{}", star(r.tput.welch.significant()), star(r.tput.mann_whitney.significant())),
                    format!("{}/{}", star(r.loss.welch.significant()), star(r.loss.mann_whitney.significant())),
                    format!("{:+.2}", r.tput.normality.skewness),
                    format!("{:+.2}", r.loss.normality.skewness),
                ]
            })
            .collect();
        let mut out =
            text_table(&["", "RTT W/MW", "Tput W/MW", "Loss W/MW", "TputSkew", "LossSkew"], &rows);
        out.push_str(&format!("\nagreement: {:.0}%\n", self.agreement() * 100.0));
        out.push_str(&self.coverage.footer());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;
    use std::sync::OnceLock;

    fn rb() -> &'static Robustness {
        static R: OnceLock<Robustness> = OnceLock::new();
        R.get_or_init(|| compute(shared_medium()).expect("clean corpus computes"))
    }

    #[test]
    fn welch_stars_survive_the_rank_test() {
        // The headline cells must not hinge on normality.
        let r = rb();
        let national = r.row("National").unwrap();
        assert!(national.loss.welch.significant() && national.loss.mann_whitney.significant());
        assert!(national.min_rtt.welch.significant() && national.min_rtt.mann_whitney.significant());
        let kyiv = r.row("Kyiv").unwrap();
        assert!(kyiv.loss.mann_whitney.significant());
    }

    #[test]
    fn overall_agreement_is_high() {
        let a = rb().agreement();
        assert!(a >= 0.8, "agreement = {a}");
    }

    #[test]
    fn metrics_are_skewed_as_appendix_b_observes() {
        // "the other metrics are slightly skewed": throughput and loss are
        // right-skewed and fail the normality test at national scale —
        // which is exactly why the rank-test robustness check matters.
        let national = rb().row("National").unwrap();
        assert!(national.tput.normality.skewness > 0.3, "tput skew = {}", national.tput.normality.skewness);
        assert!(national.loss.normality.skewness > 0.5, "loss skew = {}", national.loss.normality.skewness);
        assert!(national.loss.normality.non_normal());
    }

    #[test]
    fn renders_with_both_verdicts() {
        let s = rb().render();
        assert!(s.contains("W/MW"));
        assert!(s.contains("agreement:"));
    }
}
