//! The paper's published values, as typed constants.
//!
//! These are the reference column of every paper-vs-measured comparison:
//! Table 1 (city metrics and significance stars), Table 2 (path diversity)
//! and Table 3 (top-10 AS deltas) transcribed verbatim; Table 4 lives in
//! `ndt-geo` (it doubles as the calibration source) and Table 3's ratios in
//! `ndt-conflict::damage` (likewise). Keeping the transcriptions in one
//! place lets tests, the `EXPERIMENTS.md` generator and downstream users
//! compare against the same numbers.

// The paper's Kyiv wartime loss rate happens to be 3.14% — that is a
// transcription, not a sloppy π.
#![allow(clippy::approx_constant)]

use ndt_conflict::Period;

/// One Table 1 row as printed in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperCityRow {
    pub city: &'static str,
    pub tests_prewar: u32,
    pub tests_wartime: u32,
    pub min_rtt_prewar: f64,
    pub min_rtt_wartime: f64,
    /// Whether the RTT change is starred (p < 0.05).
    pub rtt_significant: bool,
    pub tput_prewar: f64,
    pub tput_wartime: f64,
    pub tput_significant: bool,
    /// Loss rates in percent, as printed.
    pub loss_prewar_pct: f64,
    pub loss_wartime_pct: f64,
    pub loss_significant: bool,
}

/// Table 1, verbatim (Kyiv, Kharkiv, Mariupol, Lviv, National).
pub const TABLE1: [PaperCityRow; 5] = [
    PaperCityRow { city: "Kyiv", tests_prewar: 10023, tests_wartime: 8513, min_rtt_prewar: 11.340, min_rtt_wartime: 26.613, rtt_significant: true, tput_prewar: 64.02, tput_wartime: 50.86, tput_significant: true, loss_prewar_pct: 1.37, loss_wartime_pct: 3.14, loss_significant: true },
    PaperCityRow { city: "Kharkiv", tests_prewar: 1839, tests_wartime: 1215, min_rtt_prewar: 23.099, min_rtt_wartime: 31.669, rtt_significant: true, tput_prewar: 45.45, tput_wartime: 52.70, tput_significant: true, loss_prewar_pct: 2.34, loss_wartime_pct: 3.32, loss_significant: true },
    PaperCityRow { city: "Mariupol", tests_prewar: 296, tests_wartime: 26, min_rtt_prewar: 17.668, min_rtt_wartime: 17.103, rtt_significant: false, tput_prewar: 32.88, tput_wartime: 18.80, tput_significant: true, loss_prewar_pct: 2.79, loss_wartime_pct: 6.84, loss_significant: true },
    PaperCityRow { city: "Lviv", tests_prewar: 1315, tests_wartime: 1857, min_rtt_prewar: 5.563, min_rtt_wartime: 11.942, rtt_significant: true, tput_prewar: 39.37, tput_wartime: 41.85, tput_significant: false, loss_prewar_pct: 1.73, loss_wartime_pct: 3.29, loss_significant: true },
    PaperCityRow { city: "National", tests_prewar: 35488, tests_wartime: 37815, min_rtt_prewar: 13.807, min_rtt_wartime: 21.734, rtt_significant: true, tput_prewar: 45.06, tput_wartime: 37.34, tput_significant: true, loss_prewar_pct: 1.97, loss_wartime_pct: 4.14, loss_significant: true },
];

/// One Table 2 row as printed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperPathRow {
    pub period: Period,
    pub paths_per_conn: f64,
    pub tests_per_conn: f64,
}

/// Table 2, verbatim.
pub const TABLE2: [PaperPathRow; 4] = [
    PaperPathRow { period: Period::BaselineJanFeb2021, paths_per_conn: 2.175, tests_per_conn: 83.579 },
    PaperPathRow { period: Period::BaselineFebApr2021, paths_per_conn: 2.172, tests_per_conn: 63.019 },
    PaperPathRow { period: Period::Prewar2022, paths_per_conn: 3.281, tests_per_conn: 210.910 },
    PaperPathRow { period: Period::Wartime2022, paths_per_conn: 4.284, tests_per_conn: 192.058 },
];

/// One Table 3 row as printed (deltas relative, loss multiplicative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperAsRow {
    pub asn: u32,
    pub name: &'static str,
    pub d_counts: f64,
    pub d_tput: f64,
    pub d_rtt: f64,
    pub loss_ratio: f64,
}

/// Table 3, verbatim (top-10 rows).
pub const TABLE3: [PaperAsRow; 10] = [
    PaperAsRow { asn: 15895, name: "Kyivstar", d_counts: 0.1645, d_tput: -0.3662, d_rtt: 0.1020, loss_ratio: 1.58 },
    PaperAsRow { asn: 3255, name: "UARNet", d_counts: 0.3759, d_tput: -0.0599, d_rtt: 1.340, loss_ratio: 1.59 },
    PaperAsRow { asn: 25229, name: "Kyiv Telecom", d_counts: 0.3118, d_tput: -0.0493, d_rtt: 1.764, loss_ratio: 2.20 },
    PaperAsRow { asn: 35297, name: "Dataline", d_counts: 0.7194, d_tput: -0.3443, d_rtt: 0.8601, loss_ratio: 2.81 },
    PaperAsRow { asn: 21488, name: "Emplot LTd.", d_counts: -0.8673, d_tput: 0.0031, d_rtt: 5.546, loss_ratio: 3.73 },
    PaperAsRow { asn: 21497, name: "Vodafone UKr", d_counts: 0.1582, d_tput: -0.1967, d_rtt: 2.028, loss_ratio: 0.98 },
    PaperAsRow { asn: 6876, name: "TeNeT", d_counts: -0.3472, d_tput: 0.0555, d_rtt: -0.07, loss_ratio: 0.60 },
    PaperAsRow { asn: 50581, name: "Ukr Telecom", d_counts: 2.828, d_tput: -0.2241, d_rtt: 1.167, loss_ratio: 4.92 },
    PaperAsRow { asn: 39608, name: "Lanet", d_counts: -0.4441, d_tput: -0.2193, d_rtt: 1.187, loss_ratio: 2.80 },
    PaperAsRow { asn: 13307, name: "SKIF ISP Ltd.", d_counts: -0.1318, d_tput: 0.0975, d_rtt: -0.4689, loss_ratio: 0.82 },
];

/// Table 3's "Baseline Fluctuations" row.
pub const TABLE3_BASELINE: PaperAsRow = PaperAsRow {
    asn: 0,
    name: "Baseline Fluctuations",
    d_counts: -0.3685,
    d_tput: -0.2506,
    d_rtt: 1.0971,
    loss_ratio: 1.72,
};

/// §5.2: share of the 852,738 considered tests routed through the top-10.
pub const TOP10_TEST_SHARE: f64 = 0.256;

/// §3: NDT tests in the 108-day 2022 window (`unified_download`).
pub const UNIFIED_TESTS_2022: u32 = 78_539;

/// §3: tests without geodata among them.
pub const UNLABELED_TESTS_2022: u32 = 9_200;

/// §5.2: raw tests considered by the traceroute analyses.
pub const RAW_TESTS_2022: u32 = 852_738;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_internal_consistency() {
        // The national row dominates every city row's counts.
        let national = TABLE1[4];
        for row in &TABLE1[..4] {
            assert!(row.tests_prewar < national.tests_prewar);
            assert!(row.tests_wartime < national.tests_wartime);
        }
        // The paper's 11.7% unlabeled figure reproduces from its counts.
        let frac = UNLABELED_TESTS_2022 as f64 / UNIFIED_TESTS_2022 as f64;
        assert!((frac - 0.117).abs() < 0.001, "unlabeled fraction = {frac}");
    }

    #[test]
    fn table2_shape() {
        // Baselines equal; wartime adds ≈1 path over prewar.
        assert!((TABLE2[0].paths_per_conn - TABLE2[1].paths_per_conn).abs() < 0.01);
        assert!((TABLE2[3].paths_per_conn - TABLE2[2].paths_per_conn - 1.0).abs() < 0.01);
    }

    #[test]
    fn table3_claims_from_the_text() {
        // "half of the top 10 ASes experienced over a 100% increase in
        // RTT" — by the printed values it is actually six (the text rounds
        // down); either way, at least half.
        let big_rtt = TABLE3.iter().filter(|r| r.d_rtt > 1.0).count();
        assert!(big_rtt >= 5, "big_rtt = {big_rtt}");
        // "the average loss rate more than doubled for another set of 5 ASes".
        let big_loss = TABLE3.iter().filter(|r| r.loss_ratio > 2.0).count();
        assert_eq!(big_loss, 5);
    }
}
