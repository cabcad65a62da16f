//! Figures 7 & 8: sample distributions of each key metric in the prewar and
//! wartime periods.
//!
//! Appendix B uses these to discuss the normality assumption behind Welch's
//! t-test: "Minimum RTT appears to be normally distributed (aside for the
//! spike near 0), but the other metrics are slightly skewed."

use crate::coverage::{metric_samples, Coverage};
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::csv;
use ndt_conflict::Period;
use ndt_stats::{ks_two_sample, Histogram, KsTest};

/// Histograms for the three metrics of one period.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDistributions {
    pub period: Period,
    pub min_rtt: Histogram,
    pub tput: Histogram,
    pub loss: Histogram,
}

/// Figures 7 (prewar) and 8 (wartime), with the KS quantification of the
/// shift the paper shows visually.
#[derive(Debug, Clone, PartialEq)]
pub struct Distributions {
    pub prewar: MetricDistributions,
    pub wartime: MetricDistributions,
    /// Two-sample KS tests prewar-vs-wartime per metric.
    pub ks_min_rtt: KsTest,
    pub ks_tput: KsTest,
    pub ks_loss: KsTest,
    /// Degradation accounting: corrupt metric values are excluded from both
    /// the histograms and the KS samples.
    pub coverage: Coverage,
}

fn distributions(
    data: &StudyData,
    period: Period,
    cov: &mut Coverage,
) -> Result<(MetricDistributions, [Vec<f64>; 3]), AnalysisError> {
    let q = data.period(period);
    cov.see(q.count());
    let mut min_rtt = Histogram::new(0.0, 100.0, 50);
    let mut tput = Histogram::new(0.0, 200.0, 50);
    let mut loss = Histogram::new(0.0, 0.25, 50);
    let rtt_v = metric_samples(&q, "min_rtt", true, cov)?;
    let tput_v = metric_samples(&q, "tput", true, cov)?;
    let loss_v = metric_samples(&q, "loss", true, cov)?;
    min_rtt.extend(&rtt_v);
    tput.extend(&tput_v);
    loss.extend(&loss_v);
    let label = match period {
        Period::Prewar2022 => "prewar",
        _ => "wartime",
    };
    cov.note_sample(label, rtt_v.len().min(tput_v.len()).min(loss_v.len()));
    Ok((MetricDistributions { period, min_rtt, tput, loss }, [rtt_v, tput_v, loss_v]))
}

/// Computes both periods' distributions and the per-metric KS shift.
pub fn compute(data: &StudyData) -> Result<Distributions, AnalysisError> {
    let mut cov = Coverage::new();
    let (prewar, [pre_rtt, pre_tput, pre_loss]) =
        distributions(data, Period::Prewar2022, &mut cov)?;
    let (wartime, [war_rtt, war_tput, war_loss]) =
        distributions(data, Period::Wartime2022, &mut cov)?;
    Ok(Distributions {
        prewar,
        wartime,
        ks_min_rtt: ks_two_sample(&pre_rtt, &war_rtt),
        ks_tput: ks_two_sample(&pre_tput, &war_tput),
        ks_loss: ks_two_sample(&pre_loss, &war_loss),
        coverage: cov,
    })
}

impl Distributions {
    /// CSV: one row per bin per metric per period (long format).
    pub fn to_csv(&self) -> String {
        let mut rows = Vec::new();
        for (label, d) in [("prewar", &self.prewar), ("wartime", &self.wartime)] {
            for (metric, h) in
                [("min_rtt", &d.min_rtt), ("tput", &d.tput), ("loss", &d.loss)]
            {
                for (center, frac) in h.centers().iter().zip(h.fractions()) {
                    rows.push(vec![
                        label.to_string(),
                        metric.to_string(),
                        format!("{center:.5}"),
                        format!("{frac:.6}"),
                    ]);
                }
            }
        }
        csv(&["period", "metric", "bin_center", "fraction"], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_small;
    use std::sync::OnceLock;

    fn dist() -> &'static Distributions {
        static D: OnceLock<Distributions> = OnceLock::new();
        D.get_or_init(|| compute(shared_small()).expect("clean corpus computes"))
    }

    #[test]
    fn histograms_are_populated() {
        let d = dist();
        assert!(d.prewar.min_rtt.total() > 1_000);
        assert!(d.wartime.min_rtt.total() > 1_000);
    }

    #[test]
    fn wartime_loss_shifts_right() {
        let d = dist();
        // Compare the mass above 3% loss.
        let above = |h: &ndt_stats::Histogram| {
            let fr = h.fractions();
            let cutoff_bin = (0.03 / 0.25 * 50.0) as usize;
            fr[cutoff_bin..].iter().sum::<f64>() + h.overflow() as f64 / h.total() as f64
        };
        let pre = above(&d.prewar.loss);
        let war = above(&d.wartime.loss);
        assert!(war > 1.5 * pre, "tail mass: prewar {pre} vs wartime {war}");
    }

    #[test]
    fn wartime_rtt_mode_moves_up() {
        let d = dist();
        let pre_mode = d.prewar.min_rtt.mode_bin().unwrap();
        let war_mean_bin = {
            // Weighted mean bin index as a robust shift indicator.
            let fr = d.wartime.min_rtt.fractions();
            fr.iter().enumerate().map(|(i, f)| i as f64 * f).sum::<f64>()
                / fr.iter().sum::<f64>().max(1e-9)
        };
        let pre_mean_bin = {
            let fr = d.prewar.min_rtt.fractions();
            fr.iter().enumerate().map(|(i, f)| i as f64 * f).sum::<f64>()
                / fr.iter().sum::<f64>().max(1e-9)
        };
        assert!(war_mean_bin > pre_mean_bin, "rtt mass: {pre_mean_bin} vs {war_mean_bin}");
        let _ = pre_mode;
    }

    #[test]
    fn ks_detects_the_wartime_shift_in_every_metric() {
        let d = dist();
        for (name, ks) in
            [("min_rtt", d.ks_min_rtt), ("tput", d.ks_tput), ("loss", d.ks_loss)]
        {
            assert!(ks.significant(), "{name}: d = {}, p = {}", ks.d, ks.p);
            assert!(ks.d > 0.05, "{name}: d = {}", ks.d);
        }
        // RTT moves hardest (the paper's Figure 2b shows the cleanest jump).
        assert!(d.ks_min_rtt.d > d.ks_tput.d);
    }

    #[test]
    fn metrics_are_skewed_like_the_paper() {
        // Throughput is right-skewed: mean > median within the prewar data.
        let q = shared_small().period(Period::Prewar2022);
        let mean = q.mean("tput");
        let median = q.median("tput");
        assert!(mean > median, "tput mean {mean} <= median {median}");
    }

    #[test]
    fn csv_long_format() {
        let c = dist().to_csv();
        assert_eq!(c.lines().count(), 1 + 2 * 3 * 50);
        assert!(c.contains("wartime,loss,"));
    }
}
