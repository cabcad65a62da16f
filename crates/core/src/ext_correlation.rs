//! Extension: quantifying "degradation correlates with military activity".
//!
//! §4.2's claim — "oblasts in the North and Southeast are directly
//! correlated with worsening metrics — the same regions with active
//! conflict" — is made by visual comparison of Figure 3 against the
//! Figure 1 map. This extension computes the correlation: Spearman's ρ
//! between each oblast's mean wartime conflict intensity and its metric
//! changes.

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::fig3_oblast;
use crate::render::text_table;
use ndt_conflict::intensity::wartime_mean_intensity;
use ndt_stats::spearman;

/// The correlation summary.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensityCorrelation {
    /// Oblasts included (those with data in both periods).
    pub n: usize,
    /// Spearman ρ of intensity vs Δloss (expected strongly positive).
    pub rho_loss: f64,
    /// Spearman ρ of intensity vs Δthroughput (expected negative).
    pub rho_tput: f64,
    /// Spearman ρ of intensity vs ΔminRTT (expected positive).
    pub rho_rtt: f64,
    /// Spearman ρ of intensity vs Δtest-counts (expected negative:
    /// displacement empties the hot regions).
    pub rho_counts: f64,
    /// Degradation accounting inherited from the underlying Figure 3 pass.
    pub coverage: Coverage,
}

/// Computes the correlations from Figure 3's per-oblast changes.
pub fn compute(data: &StudyData) -> Result<IntensityCorrelation, AnalysisError> {
    let fig3 = fig3_oblast::compute(data)?;
    let intensity: Vec<f64> =
        fig3.rows.iter().map(|r| wartime_mean_intensity(r.oblast)).collect();
    let pick = |f: fn(&fig3_oblast::OblastChange) -> f64| -> Vec<f64> {
        fig3.rows.iter().map(f).collect()
    };
    Ok(IntensityCorrelation {
        n: fig3.rows.len(),
        rho_loss: spearman(&intensity, &pick(|r| r.d_loss)),
        rho_tput: spearman(&intensity, &pick(|r| r.d_tput)),
        rho_rtt: spearman(&intensity, &pick(|r| r.d_min_rtt)),
        rho_counts: spearman(&intensity, &pick(|r| r.d_tests)),
        coverage: fig3.coverage,
    })
}

impl IntensityCorrelation {
    /// Aligned text rendering.
    pub fn render(&self) -> String {
        let rows = vec![
            vec!["loss rate".to_string(), format!("{:+.3}", self.rho_loss), "positive".into()],
            vec!["throughput".to_string(), format!("{:+.3}", self.rho_tput), "negative".into()],
            vec!["min RTT".to_string(), format!("{:+.3}", self.rho_rtt), "positive".into()],
            vec!["test counts".to_string(), format!("{:+.3}", self.rho_counts), "negative".into()],
        ];
        let mut out = text_table(&["metric change", "Spearman rho vs intensity", "expected sign"], &rows);
        out.push_str(&format!("\n({} oblasts)\n", self.n));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;
    use std::sync::OnceLock;

    fn corr() -> &'static IntensityCorrelation {
        static C: OnceLock<IntensityCorrelation> = OnceLock::new();
        C.get_or_init(|| compute(shared_medium()).expect("clean corpus computes"))
    }

    #[test]
    fn degradation_correlates_with_military_activity() {
        let c = corr();
        assert!(c.n >= 25);
        // §4.2's claim, quantified: losses track the fronts...
        assert!(c.rho_loss > 0.3, "rho_loss = {}", c.rho_loss);
        // ...and displacement empties them.
        assert!(c.rho_counts < -0.2, "rho_counts = {}", c.rho_counts);
    }

    #[test]
    fn correlations_are_valid() {
        let c = corr();
        for rho in [c.rho_loss, c.rho_tput, c.rho_rtt, c.rho_counts] {
            assert!((-1.0..=1.0).contains(&rho));
        }
    }

    #[test]
    fn renders() {
        assert!(corr().render().contains("Spearman"));
    }
}
