//! Table 2: average path and test counts for the top-1000 connections.
//!
//! §5.1: a *connection* is a (source, destination) IP pair; a *path* is the
//! traceroute IP sequence serving it. "In each of the periods under
//! consideration, we take the 1000 connections with the greatest number of
//! tests, and determine the average number of unique paths utilized during
//! the period." The paper finds diversity jumps only in wartime (2.17 →
//! 2.17 baselines; 3.28 prewar → 4.28 wartime).

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::text_table;
use ndt_conflict::Period;
use std::collections::{HashMap, HashSet};

/// One period's row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathDiversityRow {
    pub period: Period,
    /// Average distinct IP-level paths per top connection.
    pub paths_per_conn: f64,
    /// Average tests per top connection.
    pub tests_per_conn: f64,
    /// How many connections qualified (≤ 1000).
    pub connections: usize,
}

/// Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDiversity {
    pub rows: Vec<PathDiversityRow>,
    /// Degradation accounting: a period left with too few qualifying
    /// connections (e.g. wholesale sidecar loss) is flagged.
    pub coverage: Coverage,
}

/// Computes the table over the scamper corpus. `top_n` is 1000 in the
/// paper; reduced corpora may use fewer.
pub fn compute(data: &StudyData, top_n: usize) -> Result<PathDiversity, AnalysisError> {
    let mut cov = Coverage::new();
    let rows = Period::ALL
        .iter()
        .map(|&period| {
            // connection → (test count, distinct fingerprints)
            let mut conns: HashMap<(u32, u32), (usize, HashSet<u64>)> = HashMap::new();
            let (t, rows) = (&data.traces, data.traces_in(period));
            cov.see(rows.len());
            for i in rows {
                let e = conns.entry((t.client_ip[i], t.server_ip[i])).or_default();
                e.0 += 1;
                e.1.insert(t.path_fp[i]);
            }
            // Ties at the top-N cutoff are broken by connection identity,
            // never by HashMap iteration order — the selection (and the
            // float accumulation below) must be bit-for-bit reproducible.
            let mut by_tests: Vec<(usize, (u32, u32), usize)> =
                conns.iter().map(|(conn, (n, fps))| (*n, *conn, fps.len())).collect();
            by_tests.sort_by_key(|&(n, conn, _)| (std::cmp::Reverse(n), conn));
            by_tests.truncate(top_n);
            let connections = by_tests.len();
            // `0.0 +` normalizes the empty sum, which is -0.0 and would
            // render a starved period as "-0.000".
            let tests_per_conn = 0.0
                + by_tests.iter().map(|(n, _, _)| *n as f64).sum::<f64>()
                    / connections.max(1) as f64;
            let paths_per_conn = 0.0
                + by_tests.iter().map(|(_, _, p)| *p as f64).sum::<f64>()
                    / connections.max(1) as f64;
            cov.note_sample(period.label(), connections);
            PathDiversityRow { period, paths_per_conn, tests_per_conn, connections }
        })
        .collect();
    Ok(PathDiversity { rows, coverage: cov })
}

impl PathDiversity {
    /// Row for a period.
    pub fn row(&self, p: Period) -> &PathDiversityRow {
        self.rows.iter().find(|r| r.period == p).expect("all periods computed")
    }

    /// Aligned text rendering in the paper's layout.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}{}", r.period.label(), self.coverage.dagger(r.period.label())),
                    format!("{:.3}", r.paths_per_conn),
                    format!("{:.3}", r.tests_per_conn),
                ]
            })
            .collect();
        let mut out = text_table(&["Period", "# Paths/Conn.", "# Tests/Conn."], &rows);
        out.push_str(&self.coverage.footer());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;

    fn table() -> PathDiversity {
        compute(shared_medium(), 1000).expect("clean corpus computes")
    }

    #[test]
    fn wartime_has_the_most_path_diversity() {
        let t = table();
        let wt = t.row(Period::Wartime2022).paths_per_conn;
        let pw = t.row(Period::Prewar2022).paths_per_conn;
        let b1 = t.row(Period::BaselineJanFeb2021).paths_per_conn;
        let b2 = t.row(Period::BaselineFebApr2021).paths_per_conn;
        assert!(wt > pw, "wartime {wt} vs prewar {pw}");
        assert!(wt > b1 && wt > b2);
        // Roughly one extra path per connection, as in the paper.
        assert!(wt - pw > 0.3, "wartime bump too small: {pw} → {wt}");
    }

    #[test]
    fn baselines_match_each_other() {
        let t = table();
        let b1 = t.row(Period::BaselineJanFeb2021).paths_per_conn;
        let b2 = t.row(Period::BaselineFebApr2021).paths_per_conn;
        assert!((b1 - b2).abs() / b1 < 0.15, "baseline drift: {b1} vs {b2}");
    }

    #[test]
    fn tests_per_conn_scale_with_year_volume() {
        let t = table();
        let b = t.row(Period::BaselineJanFeb2021).tests_per_conn;
        let p = t.row(Period::Prewar2022).tests_per_conn;
        assert!(p > 1.5 * b, "2022 volume should dominate: {b} vs {p}");
    }

    #[test]
    fn renders_all_periods() {
        let s = table().render();
        for p in Period::ALL {
            assert!(s.contains(p.label()), "missing {p:?}");
        }
    }
}
