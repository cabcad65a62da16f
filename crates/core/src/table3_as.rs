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
use crate::hash::FastMap;
use crate::render::{pct, text_table, times};
use ndt_conflict::Period;
use ndt_stats::{welch_t_test, WelchTTest};
use ndt_topology::Asn;

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
    /// The prewar and wartime samples behind the row — Table 5's spreads.
    pub prewar: Samples,
    pub wartime: Samples,
}

/// One period's metrics over the traces whose path crosses one AS, in
/// trace order: one entry per trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    pub tput: Vec<f64>,
    pub min_rtt: Vec<f64>,
    pub loss: Vec<f64>,
}

/// The four changes of a Table 3 row; as the table's last row, the
/// worst-case 2021 fluctuations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineFluctuation {
    pub d_counts: f64,
    pub d_tput: f64,
    pub d_rtt: f64,
    pub loss_ratio: f64,
}

/// Table 3, whose rows keep the samples and tests Tables 5 and 6 render.
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

/// Walks `period`'s traces once: the samples of each AS of `top` — a
/// trace counts once per AS on its path — and the period's trace count.
fn samples_through(data: &StudyData, period: Period, top: &[Asn]) -> (Vec<Samples>, usize) {
    let mut samples = vec![Samples::default(); top.len()];
    let (t, rows) = (&data.traces, data.traces_in(period));
    let traces = rows.len();
    for i in rows {
        let path = t.as_path(i);
        for (asn, s) in top.iter().zip(&mut samples) {
            if path.contains(asn) {
                s.tput.push(t.tput[i]);
                s.min_rtt.push(t.min_rtt[i]);
                s.loss.push(t.loss[i]);
            }
        }
    }
    (samples, traces)
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
    let mut eyeballs: FastMap<Asn, usize> = FastMap::default();
    let t = &data.traces;
    for i in data.traces_in(Period::Prewar2022).chain(data.traces_in(Period::Wartime2022)) {
        if let Some(last) = t.as_path(i).last() {
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

/// The changes from `pre` to `war`: an AS row's, or one AS's 2021
/// baseline fluctuation.
fn changes(pre: &Samples, war: &Samples) -> BaselineFluctuation {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (n_pre, n_war) = (pre.tput.len() as f64, war.tput.len() as f64);
    let (tput, rtt) = (mean(&pre.tput), mean(&pre.min_rtt));
    BaselineFluctuation {
        d_counts: (n_war - n_pre) / n_pre.max(1.0),
        d_tput: (mean(&war.tput) - tput) / tput,
        d_rtt: (mean(&war.min_rtt) - rtt) / rtt,
        loss_ratio: mean(&war.loss) / mean(&pre.loss),
    }
}

/// Computes the table. `n` is 10 in the paper.
pub fn compute(data: &StudyData, n: usize) -> Result<AsTable, AnalysisError> {
    let mut cov = Coverage::new();
    let top = top_ases(data, n);
    if top.len() < n {
        cov.note_sample(format!("top-{n} ranking ({} found)", top.len()), top.len());
    }
    let (prewar, prewar_traces) = samples_through(data, Period::Prewar2022, &top);
    let (wartime, wartime_traces) = samples_through(data, Period::Wartime2022, &top);
    let rows: Vec<AsChangeRow> = top
        .iter()
        .zip(prewar.into_iter().zip(wartime))
        .map(|(&asn, (prewar, wartime))| {
            let c = changes(&prewar, &wartime);
            AsChangeRow {
                asn,
                name: data.name_of(asn).unwrap_or_else(|| asn.to_string()),
                tests_prewar: prewar.tput.len(),
                tests_wartime: wartime.tput.len(),
                d_counts: c.d_counts,
                d_tput: c.d_tput,
                tput_test: welch_t_test(&prewar.tput, &wartime.tput),
                d_rtt: c.d_rtt,
                rtt_test: welch_t_test(&prewar.min_rtt, &wartime.min_rtt),
                loss_ratio: c.loss_ratio,
                loss_test: welch_t_test(&prewar.loss, &wartime.loss),
                prewar,
                wartime,
            }
        })
        .collect();
    for r in &rows {
        cov.note_sample(format!("AS{}", r.asn.0), r.tests_prewar.min(r.tests_wartime));
    }

    // Baseline fluctuations: the same computation over the two 2021
    // baselines; the paper keeps the worst (most extreme) value per metric,
    // the one farthest from no change (0, or 1 for the loss ratio).
    let mut baseline =
        BaselineFluctuation { d_counts: 0.0, d_tput: 0.0, d_rtt: 0.0, loss_ratio: 1.0 };
    let worst = |kept: &mut f64, new: f64, none: f64| {
        if (new - none).abs() > (*kept - none).abs() {
            *kept = new;
        }
    };
    let (pre21, _) = samples_through(data, Period::BaselineJanFeb2021, &top);
    let (war21, _) = samples_through(data, Period::BaselineFebApr2021, &top);
    for (pre, war) in pre21.iter().zip(&war21) {
        if pre.tput.len() >= 20 && war.tput.len() >= 20 {
            let c = changes(pre, war);
            worst(&mut baseline.d_counts, c.d_counts, 0.0);
            worst(&mut baseline.d_tput, c.d_tput, 0.0);
            worst(&mut baseline.d_rtt, c.d_rtt, 0.0);
            worst(&mut baseline.loss_ratio, c.loss_ratio, 1.0);
        }
    }

    // Top-10 share of all 2022 tests.
    let total = prewar_traces + wartime_traces;
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
    fn kept_samples_are_the_traces_through_each_as_in_order() {
        // Brute-force reference: one filter per (AS, period) over the
        // period's traces.
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for row in &table().rows {
            for (period, kept, tests) in [
                (Period::Prewar2022, &row.prewar, row.tests_prewar),
                (Period::Wartime2022, &row.wartime, row.tests_wartime),
            ] {
                let data = shared_medium();
                let through: Vec<ndt_mlab::Scamper1Row> = data
                    .traces_in(period)
                    .map(|i| data.traces.row(i))
                    .filter(|r| r.as_path.contains(&row.asn))
                    .collect();
                let metric = |f: fn(&ndt_mlab::Scamper1Row) -> f64| {
                    through.iter().map(|r| f(r).to_bits()).collect::<Vec<_>>()
                };
                let tag = format!("{} {period:?}", row.asn);
                assert_eq!(tests, through.len(), "{tag}");
                assert_eq!(bits(&kept.tput), metric(|r| r.mean_tput_mbps), "{tag}");
                assert_eq!(bits(&kept.min_rtt), metric(|r| r.min_rtt_ms), "{tag}");
                assert_eq!(bits(&kept.loss), metric(|r| r.loss_rate), "{tag}");
            }
        }
    }

    #[test]
    fn render_includes_baseline_row() {
        let s = table().render();
        assert!(s.contains("Baseline Fluctuations"));
        assert!(s.contains("Kyivstar"));
    }
}
