//! Extension: the Figure 6 analysis, generalized.
//!
//! The paper picks AS199995 for its case study because it "is the most
//! commonly occurring AS in the data which interacts with multiple foreign
//! ASes". This extension runs the same ingress-share-shift computation for
//! *every* Ukrainian AS with multiple foreign ingresses and ranks them —
//! establishing that the case study is discoverable from the data by the
//! paper's own criterion rather than cherry-picked, and surfacing any other
//! ASes whose ingress mix moved.

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::text_table;
use ndt_conflict::Period;
use ndt_topology::Asn;
use std::collections::{BTreeMap, BTreeSet};

/// Ingress statistics for one Ukrainian AS.
#[derive(Debug, Clone, PartialEq)]
pub struct IngressShift {
    /// The Ukrainian AS receiving the traffic.
    pub ua_asn: Asn,
    /// Foreign ingress ASes seen across 2022.
    pub ingresses: Vec<Asn>,
    /// Tests crossing into this AS (prewar + wartime).
    pub tests: usize,
    /// Total variation distance between the prewar and wartime ingress
    /// share distributions (0 = unchanged mix, 1 = complete swap).
    pub shift: f64,
    /// The ingress that gained the most share, with its gain.
    pub biggest_gainer: (Asn, f64),
}

/// The scan across all multi-ingress Ukrainian ASes.
#[derive(Debug, Clone, PartialEq)]
pub struct IngressScan {
    /// Ranked by tests (the paper's "most commonly occurring" criterion),
    /// restricted to ASes with ≥ 2 foreign ingresses.
    pub rows: Vec<IngressShift>,
    /// Degradation accounting: thinly-observed ASes are daggered.
    pub coverage: Coverage,
}

/// Computes the scan over the 2022 window.
pub fn compute(data: &StudyData) -> Result<IngressScan, AnalysisError> {
    // (ua_asn) → (border_asn → (prewar count, wartime count))
    let mut counts: BTreeMap<Asn, BTreeMap<Asn, (usize, usize)>> = BTreeMap::new();
    for (period, war) in [(Period::Prewar2022, false), (Period::Wartime2022, true)] {
        for &crossing in &data.traces.border[data.traces_in(period)] {
            let Some((border, ua)) = crossing else { continue };
            let slot = counts.entry(ua).or_default().entry(border).or_default();
            if war {
                slot.1 += 1;
            } else {
                slot.0 += 1;
            }
        }
    }
    let mut rows: Vec<IngressShift> = counts
        .into_iter()
        .filter(|(_, by_border)| by_border.len() >= 2)
        .map(|(ua_asn, by_border)| {
            let ingresses: BTreeSet<Asn> = by_border.keys().copied().collect();
            let pre_total: usize = by_border.values().map(|c| c.0).sum();
            let war_total: usize = by_border.values().map(|c| c.1).sum();
            let mut shift = 0.0;
            let mut biggest_gainer = (Asn(0), f64::NEG_INFINITY);
            for (border, (pre, war)) in &by_border {
                let sp = *pre as f64 / pre_total.max(1) as f64;
                let sw = *war as f64 / war_total.max(1) as f64;
                shift += (sw - sp).abs();
                if sw - sp > biggest_gainer.1 {
                    biggest_gainer = (*border, sw - sp);
                }
            }
            IngressShift {
                ua_asn,
                ingresses: ingresses.into_iter().collect(),
                tests: pre_total + war_total,
                shift: shift / 2.0, // total variation distance
                biggest_gainer,
            }
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.tests));
    let mut cov = Coverage::new();
    for r in &rows {
        cov.see(r.tests);
        cov.note_sample(r.ua_asn.to_string(), r.tests);
    }
    Ok(IngressScan { rows, coverage: cov })
}

impl IngressScan {
    /// Row by AS.
    pub fn row(&self, ua: Asn) -> Option<&IngressShift> {
        self.rows.iter().find(|r| r.ua_asn == ua)
    }

    /// Aligned text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.ua_asn.to_string(),
                    r.ingresses.len().to_string(),
                    r.tests.to_string(),
                    format!("{:.3}", r.shift),
                    format!("{} ({:+.1}%)", r.biggest_gainer.0, r.biggest_gainer.1 * 100.0),
                ]
            })
            .collect();
        let mut out = text_table(&["UA AS", "#ingresses", "tests", "TV shift", "biggest gainer"], &rows);
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

    fn scan() -> &'static IngressScan {
        static S: OnceLock<IngressScan> = OnceLock::new();
        S.get_or_init(|| compute(shared_medium()).expect("clean corpus computes"))
    }

    #[test]
    fn multi_ingress_ases_exist() {
        let s = scan();
        assert!(s.rows.len() >= 3, "rows: {}", s.rows.len());
        assert!(s.rows.iter().all(|r| r.ingresses.len() >= 2));
        // Ranked by volume.
        assert!(s.rows.windows(2).all(|w| w[0].tests >= w[1].tests));
    }

    #[test]
    fn as199995_shift_is_discoverable_and_he_gains_broadly() {
        // The case study is discoverable from the data: AS199995 shows a
        // substantial ingress shift with Hurricane Electric as the gainer.
        // It is not necessarily the *largest* shifter — Ukrtelecom's mix
        // also moves hard as Cogent fades (that is Figure 5's row story) —
        // but it ranks among the top shifters of well-observed ASes.
        let s = scan();
        let r199995 = s.row(wk::AS199995).expect("AS199995 observed");
        assert!(r199995.shift > 0.12, "shift = {}", r199995.shift);
        assert_eq!(r199995.biggest_gainer.0, wk::HURRICANE_ELECTRIC);
        let big: Vec<&IngressShift> = s.rows.iter().filter(|r| r.tests > 1_000).collect();
        // Every well-observed multi-ingress AS shifted substantially in
        // wartime (the Cogent fade + AS6663 decay reshuffled everyone)...
        assert!(big.iter().all(|r| r.shift > 0.1), "{}", s.render());
        // ...and Hurricane Electric is the dominant gainer across them
        // (Figure 5's headline), with RETN picking up the rest.
        let he_gainers =
            big.iter().filter(|r| r.biggest_gainer.0 == wk::HURRICANE_ELECTRIC).count();
        assert!(
            he_gainers * 2 >= big.len(),
            "HE gains in only {he_gainers}/{} shifted ASes",
            big.len()
        );
    }

    #[test]
    fn shifts_are_valid_tv_distances() {
        for r in &scan().rows {
            assert!((0.0..=1.0).contains(&r.shift), "{}: {}", r.ua_asn, r.shift);
        }
    }

    #[test]
    fn renders() {
        let out = scan().render();
        assert!(out.contains("TV shift"));
        assert!(out.contains("AS199995"));
    }
}
