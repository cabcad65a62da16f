//! End-to-end integration: simulate the full study window at reduced scale
//! and assert the paper's qualitative findings hold across the whole
//! pipeline (topology → conflict → platform → analysis).

use std::sync::OnceLock;
use ukraine_ndt::analysis::{
    fig2_national, fig3_oblast, fig5_border, fig6_as199995, fig9_path_perf, table1_cities,
    table2_paths, table3_as,
};
use ukraine_ndt::prelude::*;
use ukraine_ndt::topology::asn::well_known as wk;

fn data() -> &'static StudyData {
    static DATA: OnceLock<StudyData> = OnceLock::new();
    DATA.get_or_init(|| {
        StudyData::generate(SimConfig { scale: 0.2, seed: 20_220_224, ..SimConfig::default() })
    })
}

#[test]
fn finding_1_performance_degrades_after_the_invasion() {
    // §4.1: higher loss, higher RTT, lower throughput after February 24,
    // none of which appears in the 2021 baseline.
    let fig2 = fig2_national::compute(data()).expect("clean corpus computes");
    let invasion = Date::new(2022, 2, 24).day_index();
    let pre = |f: fn(&fig2_national::DayPoint) -> f64| fig2.mean_2022(invasion - 54, invasion, f);
    let war = |f: fn(&fig2_national::DayPoint) -> f64| fig2.mean_2022(invasion, invasion + 54, f);
    assert!(war(|p| p.mean_loss) > 1.6 * pre(|p| p.mean_loss));
    assert!(war(|p| p.mean_min_rtt_ms) > 1.4 * pre(|p| p.mean_min_rtt_ms));
    assert!(war(|p| p.mean_tput_mbps) < 0.9 * pre(|p| p.mean_tput_mbps));
    // Baseline 2021: the same split shows no comparable jump.
    let b = &fig2.y2021.days;
    let mean = |lo: i64, hi: i64| {
        let v: Vec<f64> =
            b.iter().filter(|p| (lo..hi).contains(&p.day)).map(|p| p.mean_loss).collect();
        v.iter().sum::<f64>() / v.len() as f64
    };
    let drift = mean(54, 108) / mean(0, 54);
    assert!(drift < 1.25, "2021 baseline loss drifts by {drift}");
}

#[test]
fn finding_2_degradation_correlates_with_military_activity() {
    // §4.2/§4.3: the assaulted fronts degrade hardest; the paper's loss
    // champions (Zaporizhzhya, Kherson, Sumy) show multi-x loss increases
    // while the far west stays mild.
    let fig3 = fig3_oblast::compute(data()).expect("clean corpus computes");
    let loss_of = |o: Oblast| fig3.rows.iter().find(|r| r.oblast == o).map(|r| r.d_loss).unwrap();
    for hot in [Oblast::Zaporizhzhya, Oblast::Kherson, Oblast::Sumy] {
        assert!(loss_of(hot) > 1.5, "{hot}: loss change {}", loss_of(hot));
    }
    for calm in [Oblast::Chernivtsi, Oblast::Transcarpathia] {
        assert!(loss_of(calm) < 1.5, "{calm}: loss change {}", loss_of(calm));
    }
}

#[test]
fn finding_3_test_counts_stay_roughly_stable_nationally() {
    // §3 Limitations: "test counts are relatively stable, and we see at
    // most a 2% decrease … indicating that this form of bias is limited."
    // (The paper's Table 1 actually shows a 6.6% *increase*.)
    let t1 = table1_cities::compute(data()).expect("clean corpus computes");
    let n = t1.row("National").unwrap();
    let drift = n.tests_wartime as f64 / n.tests_prewar as f64;
    assert!((0.9..1.2).contains(&drift), "national count drift = {drift}");
}

#[test]
fn finding_4_path_diversity_rises_only_in_wartime() {
    // §5.1/Table 2: "the level of path diversity greatly increased after
    // the start of the war, while during our baseline period in 2021,
    // there was no corresponding change."
    let t2 = table2_paths::compute(data(), 1000).expect("clean corpus computes");
    let b1 = t2.row(Period::BaselineJanFeb2021).paths_per_conn;
    let b2 = t2.row(Period::BaselineFebApr2021).paths_per_conn;
    let pw = t2.row(Period::Prewar2022).paths_per_conn;
    let wt = t2.row(Period::Wartime2022).paths_per_conn;
    assert!((b1 - b2).abs() < 0.25 * b1, "baselines diverge: {b1} vs {b2}");
    assert!(wt > pw + 0.4, "no wartime diversity jump: {pw} → {wt}");
    assert!(wt > b1 && wt > b2);
}

#[test]
fn finding_5_as_damage_is_heterogeneous() {
    // §5.2/Table 3: some ASes are crushed, others — serving the same city —
    // ride it out near baseline.
    let t3 = table3_as::compute(data(), 10).expect("clean corpus computes");
    let kyivstar = t3.row(wk::KYIVSTAR).expect("Kyivstar in top-10");
    let skif = t3.row(wk::SKIF).expect("SKIF in top-10");
    // Both serve Kyiv; only one degrades.
    assert!(kyivstar.d_tput < -0.2 && kyivstar.tput_test.significant());
    assert!(skif.d_tput > -0.05);
    assert!(kyivstar.loss_ratio > 1.3 && skif.loss_ratio < 1.2);
    // The top-10 carry only a minority of tests.
    assert!(t3.top10_share < 0.75, "top-10 share = {}", t3.top10_share);
}

#[test]
fn finding_6_ingress_shifts_toward_hurricane_electric() {
    // §5.2/Figures 5–6.
    let fig5 = fig5_border::compute(data()).expect("clean corpus computes");
    assert!(fig5.row_change(wk::HURRICANE_ELECTRIC) > 0);
    assert!(fig5.row_change(wk::COGENT) < 0);
    let fig6 = fig6_as199995::compute(data()).expect("clean corpus computes");
    let invasion = Date::new(2022, 2, 24).day_index();
    let he_pre = fig6.mean_share(wk::HURRICANE_ELECTRIC, invasion - 54, invasion);
    let he_late = fig6.mean_share(wk::HURRICANE_ELECTRIC, invasion + 21, invasion + 54);
    assert!(he_late > he_pre + 0.15, "HE ingress share: {he_pre} → {he_late}");
}

#[test]
fn finding_7_path_churn_correlates_mildly_with_degradation() {
    // Appendix D / Figure 9: negative for throughput, positive for loss,
    // mild in magnitude ("only a mild correlation of route updates with
    // performance degradation").
    let fig9 = fig9_path_perf::compute(data(), 10).expect("clean corpus computes");
    assert!(fig9.corr_tput < -0.02, "corr tput = {}", fig9.corr_tput);
    assert!(fig9.corr_loss > 0.05, "corr loss = {}", fig9.corr_loss);
    assert!(fig9.corr_tput > -0.6 && fig9.corr_loss < 0.6, "correlation should stay mild");
}

#[test]
fn dataset_is_deterministic_end_to_end() {
    let cfg = SimConfig { scale: 0.03, seed: 5, ..SimConfig::default() };
    let a = Simulator::new(cfg).run();
    let b = Simulator::new(cfg).run();
    assert_eq!(a.ndt.len(), b.ndt.len());
    assert_eq!(a.traces.len(), b.traces.len());
    assert_eq!(a.ndt[..200.min(a.ndt.len())], b.ndt[..200.min(b.ndt.len())]);
}
