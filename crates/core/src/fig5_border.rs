//! Figure 5: how connectivity from foreign "border ASes" into Ukrainian
//! ASes changes after the invasion.
//!
//! §5.2: "we look at the hops in the traceroutes where one endpoint is a
//! non-Ukrainian 'border AS' and the other is Ukrainian … The change in
//! occurrence is the difference in the number of tests traversing the AS
//! pair between the wartime period and prewar period." The paper's
//! headline: Hurricane Electric gains, Cogent loses.

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::text_table;
use ndt_conflict::Period;
use ndt_topology::Asn;
use std::collections::{BTreeMap, BTreeSet};

/// One heat-map cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BorderCell {
    pub prewar: usize,
    pub wartime: usize,
}

impl BorderCell {
    /// Wartime − prewar test counts (the figure's colour scale).
    pub fn change(&self) -> i64 {
        self.wartime as i64 - self.prewar as i64
    }
}

/// Figure 5: the full matrix. Missing cells are the figure's black squares
/// ("no routes are seen between the two ASes").
#[derive(Debug, Clone, PartialEq)]
pub struct BorderMatrix {
    /// (border AS, Ukrainian AS) → cell. BTreeMap keeps rendering stable.
    pub cells: BTreeMap<(Asn, Asn), BorderCell>,
    /// Degradation accounting: thin cells (sidecar loss starves the heat
    /// map) are daggered.
    pub coverage: Coverage,
}

/// Computes the matrix from the border crossing of every 2022 traceroute.
pub fn compute(data: &StudyData) -> Result<BorderMatrix, AnalysisError> {
    let mut cov = Coverage::new();
    let mut cells: BTreeMap<(Asn, Asn), BorderCell> = BTreeMap::new();
    for (period, wartime) in [(Period::Prewar2022, false), (Period::Wartime2022, true)] {
        let rows = data.traces_in(period);
        cov.see(rows.len());
        for &border in &data.traces.border[rows] {
            if let Some(pair) = border {
                let cell = cells.entry(pair).or_insert(BorderCell { prewar: 0, wartime: 0 });
                if wartime {
                    cell.wartime += 1;
                } else {
                    cell.prewar += 1;
                }
            }
        }
    }
    for ((b, u), c) in &cells {
        cov.note_sample(format!("AS{}->AS{}", b.0, u.0), c.prewar + c.wartime);
    }
    Ok(BorderMatrix { cells, coverage: cov })
}

impl BorderMatrix {
    /// Net change across all Ukrainian ASes for one border AS (row sum).
    pub fn row_change(&self, border: Asn) -> i64 {
        self.cells.iter().filter(|((b, _), _)| *b == border).map(|(_, c)| c.change()).sum()
    }

    /// Total prewar tests for one border AS.
    pub fn row_prewar(&self, border: Asn) -> usize {
        self.cells.iter().filter(|((b, _), _)| *b == border).map(|(_, c)| c.prewar).sum()
    }

    /// Distinct border ASes (rows).
    pub fn border_ases(&self) -> Vec<Asn> {
        self.cells.keys().map(|(b, _)| *b).collect::<BTreeSet<_>>().into_iter().collect()
    }

    /// Distinct Ukrainian ASes (columns).
    pub fn ukrainian_ases(&self) -> Vec<Asn> {
        self.cells.keys().map(|(_, u)| *u).collect::<BTreeSet<_>>().into_iter().collect()
    }

    /// Text heat map: rows = border ASes, columns = Ukrainian ASes, cells =
    /// change in occurrence ("." for the figure's black no-route squares).
    pub fn render(&self) -> String {
        let uas = self.ukrainian_ases();
        let borders = self.border_ases();
        let mut header: Vec<String> = vec!["border\\ua".to_string()];
        header.extend(uas.iter().map(|u| u.0.to_string()));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = borders
            .iter()
            .map(|b| {
                let mut row = vec![b.0.to_string()];
                for u in &uas {
                    row.push(match self.cells.get(&(*b, *u)) {
                        Some(c) => format!("{:+}", c.change()),
                        None => ".".to_string(),
                    });
                }
                row
            })
            .collect();
        let mut out = text_table(&header_refs, &rows);
        out.push_str(&self.coverage.footer());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_small;
    use ndt_topology::asn::well_known as wk;
    use std::sync::OnceLock;

    fn matrix() -> &'static BorderMatrix {
        static M: OnceLock<BorderMatrix> = OnceLock::new();
        M.get_or_init(|| compute(shared_small()).expect("clean corpus computes"))
    }

    #[test]
    fn hurricane_electric_gains_cogent_loses() {
        let m = matrix();
        let he = m.row_change(wk::HURRICANE_ELECTRIC);
        let cogent = m.row_change(wk::COGENT);
        assert!(he > 0, "Hurricane Electric change = {he}");
        assert!(cogent < 0, "Cogent change = {cogent}");
        // Relative magnitude: Cogent loses a solid share of its prewar
        // volume.
        let cogent_pre = m.row_prewar(wk::COGENT) as f64;
        assert!((cogent.abs() as f64) > 0.15 * cogent_pre, "Cogent fade too small");
    }

    #[test]
    fn matrix_covers_multiple_borders_and_columns() {
        let m = matrix();
        assert!(m.border_ases().len() >= 5, "borders: {:?}", m.border_ases());
        assert!(m.ukrainian_ases().len() >= 5, "UA columns: {:?}", m.ukrainian_ases().len());
        // Black squares exist: not every pair has routes.
        let possible = m.border_ases().len() * m.ukrainian_ases().len();
        assert!(m.cells.len() < possible, "no black squares in the heat map");
    }

    #[test]
    fn ukrainian_side_is_ukrainian() {
        // All column ASes should be the UA side of a crossing: transits or
        // directly-bordered eyeballs.
        let m = matrix();
        for ua in m.ukrainian_ases() {
            assert!(
                ua == wk::UKRTELECOM_TRANSIT
                    || ua == wk::TRIOLAN
                    || ua == wk::DATAGROUP
                    || ua == wk::AS199995
                    || ua == wk::KYIVSTAR
                    || ua == wk::VODAFONE_UKR
                    || ua == wk::UARNET
                    || ua == wk::UKR_TELECOM,
                "unexpected UA-side AS {ua}"
            );
        }
    }

    #[test]
    fn render_marks_missing_pairs() {
        let s = matrix().render();
        assert!(s.contains('.'), "expected black squares");
        assert!(s.contains("6939"));
    }
}
