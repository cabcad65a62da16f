//! Extension: Table 2 under router alias resolution.
//!
//! The paper's §5.1 counts distinct *IP-level* traceroute paths per
//! connection and flags its own limitation: "Additional work on router
//! alias resolution may also prove to be more precise than IP-level
//! measurement." This extension implements that future-work item: it
//! recomputes the paths-per-connection statistic at router granularity —
//! both against the simulator's ground truth and through an imperfect
//! Ally-style resolver — and reports how much the IP-level number
//! overstates real forwarding-path diversity.

use crate::coverage::{num_cell, Coverage};
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::text_table;
use ndt_conflict::Period;
use std::collections::{HashMap, HashSet};

/// Paths-per-connection at the three granularities for one period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AliasRow {
    pub period: Period,
    /// §5.1's number: distinct interface-level paths.
    pub ip_level: f64,
    /// What an imperfect (70%-recall) Ally-style resolver recovers.
    pub resolved_level: f64,
    /// Ground truth: distinct router-level paths.
    pub router_level: f64,
    /// The overcount factor `ip_level / router_level`.
    pub overcount: f64,
    pub connections: usize,
}

/// The extension's result table.
#[derive(Debug, Clone, PartialEq)]
pub struct AliasComparison {
    pub rows: Vec<AliasRow>,
    /// Degradation accounting: periods whose connection pool runs thin are
    /// daggered.
    pub coverage: Coverage,
}

/// Computes the comparison over the top-`top_n` connections per period
/// (same selection as Table 2).
pub fn compute(data: &StudyData, top_n: usize) -> Result<AliasComparison, AnalysisError> {
    let mut cov = Coverage::new();
    let rows: Vec<AliasRow> = Period::ALL
        .iter()
        .map(|&period| {
            /// Per-connection aggregate: test count, interface-level,
            /// resolver-level and router-level path sets.
            type ConnPaths = (usize, HashSet<u64>, HashSet<u64>, HashSet<u64>);
            let mut conns: HashMap<(u32, u32), ConnPaths> = HashMap::new();
            let t = &data.traces;
            for i in data.traces_in(period) {
                let e = conns.entry((t.client_ip[i], t.server_ip[i])).or_default();
                e.0 += 1;
                e.1.insert(t.path_fp[i]);
                e.2.insert(t.resolved_fp[i]);
                e.3.insert(t.router_fp[i]);
            }
            // Deterministic top-N: break test-count ties by connection
            // identity so the selection never depends on HashMap order.
            /// Deterministically sortable summary: test count, connection
            /// identity, then the three path-set sizes.
            type ConnSummary = (usize, (u32, u32), usize, usize, usize);
            let mut by_tests: Vec<ConnSummary> = conns
                .iter()
                .map(|(conn, (n, ip, res, router))| {
                    (*n, *conn, ip.len(), res.len(), router.len())
                })
                .collect();
            by_tests.sort_by_key(|&(n, conn, ..)| (std::cmp::Reverse(n), conn));
            by_tests.truncate(top_n);
            let n = by_tests.len().max(1) as f64;
            // `0.0 +` normalizes the empty sum, which is -0.0 and would
            // render a starved period as "-0.000".
            let ip_level = 0.0 + by_tests.iter().map(|(_, _, p, _, _)| *p as f64).sum::<f64>() / n;
            let resolved_level =
                0.0 + by_tests.iter().map(|(_, _, _, r, _)| *r as f64).sum::<f64>() / n;
            let router_level =
                0.0 + by_tests.iter().map(|(_, _, _, _, r)| *r as f64).sum::<f64>() / n;
            AliasRow {
                period,
                ip_level,
                resolved_level,
                router_level,
                overcount: ip_level / router_level,
                connections: by_tests.len(),
            }
        })
        .collect();
    for r in &rows {
        cov.see(r.connections);
        cov.note_sample(r.period.label(), r.connections);
    }
    Ok(AliasComparison { rows, coverage: cov })
}

impl AliasComparison {
    /// Row for a period.
    pub fn row(&self, p: Period) -> &AliasRow {
        self.rows.iter().find(|r| r.period == p).expect("all periods computed")
    }

    /// Aligned text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.period.label().to_string(),
                    num_cell(r.ip_level, 3),
                    num_cell(r.resolved_level, 3),
                    num_cell(r.router_level, 3),
                    // 0/0 connections (total sidecar loss) has no overcount.
                    num_cell(r.overcount, 3),
                ]
            })
            .collect();
        let mut out = text_table(
            &["Period", "IP-level paths/conn", "Resolved (70% recall)", "Router-level", "Overcount"],
            &rows,
        );
        out.push_str(&self.coverage.footer());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;
    use std::sync::OnceLock;

    fn cmp() -> &'static AliasComparison {
        static C: OnceLock<AliasComparison> = OnceLock::new();
        C.get_or_init(|| compute(shared_medium(), 1000).expect("clean corpus computes"))
    }

    #[test]
    fn granularities_are_ordered() {
        // Interface-level ≥ resolver-level ≥ router-level: resolution can
        // only merge paths, and an imperfect resolver merges fewer than the
        // oracle.
        for r in &cmp().rows {
            assert!(r.ip_level >= r.resolved_level - 1e-9, "{:?}", r.period);
            assert!(r.resolved_level >= r.router_level - 1e-9, "{:?}", r.period);
            assert!(r.overcount >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn imperfect_resolver_lands_between_the_extremes() {
        // With the wartime corpus (where parallel circuits actually get
        // exercised), the 70%-recall resolver removes a real share of the
        // IP-level overcount.
        let r = cmp().row(Period::Wartime2022);
        assert!(
            r.resolved_level < r.ip_level || (r.ip_level - r.router_level) < 0.05,
            "resolver removed nothing: {r:?}"
        );
    }

    #[test]
    fn wartime_diversity_jump_survives_alias_resolution() {
        // The paper's core §5.1 finding is not an aliasing artifact: the
        // wartime increase holds at router granularity too.
        let c = cmp();
        let wt = c.row(Period::Wartime2022).router_level;
        let pw = c.row(Period::Prewar2022).router_level;
        assert!(wt > pw + 0.3, "router-level jump missing: {pw} → {wt}");
    }

    #[test]
    fn overcount_is_modest_but_real() {
        let c = cmp();
        let over = c.row(Period::Wartime2022).overcount;
        assert!(over > 1.0, "parallel interconnects should inflate IP-level counts");
        assert!(over < 2.0, "overcount should stay modest, got {over}");
    }

    #[test]
    fn renders() {
        let s = cmp().render();
        assert!(s.contains("Overcount"));
        assert!(s.contains("Wartime, 2022"));
    }
}
