//! Figure 9 (Appendix D): performance changes as a function of the change
//! in the number of unique paths per connection.
//!
//! "As the number of paths a connection uses increases, we see
//! corresponding, statistically significant decreases in throughput and
//! increases in loss rates … we only consider connections that had at least
//! ten tests both prewar and during wartime."

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::render::csv;
use ndt_conflict::Period;
use ndt_stats::{pearson, welch_t_test, WelchTTest};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Per-connection measurements across the two 2022 periods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnDelta {
    /// Wartime unique paths − prewar unique paths.
    pub d_paths: i64,
    /// Relative throughput change.
    pub d_tput: f64,
    /// Absolute loss-rate change.
    pub d_loss: f64,
}

/// One bucket of the figure (connections grouped by Δpaths).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathBucket {
    pub d_paths: i64,
    pub connections: usize,
    pub mean_d_tput: f64,
    pub mean_d_loss: f64,
}

/// Figure 9.
#[derive(Debug, Clone, PartialEq)]
pub struct PathPerformance {
    pub connections: Vec<ConnDelta>,
    pub buckets: Vec<PathBucket>,
    /// Pearson correlation of Δpaths vs Δtput (expected negative, mild).
    pub corr_tput: f64,
    /// Pearson correlation of Δpaths vs Δloss (expected positive, mild).
    pub corr_loss: f64,
    /// Welch's test between the Δtput of stable (Δpaths ≤ 0) and churned
    /// (Δpaths ≥ 2) connections.
    pub stable_vs_churned_tput: WelchTTest,
    /// Degradation accounting: thin Δpaths buckets are daggered.
    pub coverage: Coverage,
}

#[derive(Default)]
struct ConnAgg {
    tests: usize,
    paths: HashSet<u64>,
    tput_sum: f64,
    loss_sum: f64,
}

fn aggregate(data: &StudyData, period: Period) -> HashMap<(u32, u32), ConnAgg> {
    let mut map: HashMap<(u32, u32), ConnAgg> = HashMap::new();
    for r in data.traces_in(period) {
        let e = map.entry((r.client_ip.0, r.server_ip.0)).or_default();
        e.tests += 1;
        e.paths.insert(r.path_fingerprint);
        e.tput_sum += r.mean_tput_mbps;
        e.loss_sum += r.loss_rate;
    }
    map
}

/// Computes the figure. `min_tests` is 10 in the paper.
pub fn compute(data: &StudyData, min_tests: usize) -> Result<PathPerformance, AnalysisError> {
    let mut cov = Coverage::new();
    let pre = aggregate(data, Period::Prewar2022);
    let war = aggregate(data, Period::Wartime2022);
    let mut connections = Vec::new();
    // Walk connections in identity order: the float accumulations below
    // (means, correlations) must not inherit HashMap iteration order.
    let mut conn_keys: Vec<(u32, u32)> = pre.keys().copied().collect();
    conn_keys.sort_unstable();
    for conn in conn_keys {
        let p = &pre[&conn];
        let Some(w) = war.get(&conn) else { continue };
        if p.tests < min_tests || w.tests < min_tests {
            continue;
        }
        let p_tput = p.tput_sum / p.tests as f64;
        let w_tput = w.tput_sum / w.tests as f64;
        connections.push(ConnDelta {
            d_paths: w.paths.len() as i64 - p.paths.len() as i64,
            d_tput: (w_tput - p_tput) / p_tput,
            d_loss: w.loss_sum / w.tests as f64 - p.loss_sum / p.tests as f64,
        });
    }
    // Buckets by Δpaths (clamped to a readable range).
    let mut grouped: BTreeMap<i64, Vec<&ConnDelta>> = BTreeMap::new();
    for c in &connections {
        grouped.entry(c.d_paths.clamp(-3, 5)).or_default().push(c);
    }
    let buckets: Vec<PathBucket> = grouped
        .into_iter()
        .map(|(d_paths, v)| PathBucket {
            d_paths,
            connections: v.len(),
            mean_d_tput: v.iter().map(|c| c.d_tput).sum::<f64>() / v.len() as f64,
            mean_d_loss: v.iter().map(|c| c.d_loss).sum::<f64>() / v.len() as f64,
        })
        .collect();
    cov.see(connections.len());
    for b in &buckets {
        cov.note_sample(format!("Δpaths {:+}", b.d_paths), b.connections);
    }
    let xs: Vec<f64> = connections.iter().map(|c| c.d_paths as f64).collect();
    let tputs: Vec<f64> = connections.iter().map(|c| c.d_tput).collect();
    let losses: Vec<f64> = connections.iter().map(|c| c.d_loss).collect();
    let stable: Vec<f64> =
        connections.iter().filter(|c| c.d_paths <= 0).map(|c| c.d_tput).collect();
    let churned: Vec<f64> =
        connections.iter().filter(|c| c.d_paths >= 2).map(|c| c.d_tput).collect();
    Ok(PathPerformance {
        corr_tput: pearson(&xs, &tputs),
        corr_loss: pearson(&xs, &losses),
        stable_vs_churned_tput: welch_t_test(&stable, &churned),
        connections,
        buckets,
        coverage: cov,
    })
}

impl PathPerformance {
    /// CSV of the bucketed panel.
    pub fn to_csv(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .buckets
            .iter()
            .map(|b| {
                vec![
                    b.d_paths.to_string(),
                    b.connections.to_string(),
                    format!("{:.4}", b.mean_d_tput),
                    format!("{:.5}", b.mean_d_loss),
                ]
            })
            .collect();
        csv(&["d_paths", "connections", "mean_d_tput", "mean_d_loss"], &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;
    use std::sync::OnceLock;

    fn fig() -> &'static PathPerformance {
        static F: OnceLock<PathPerformance> = OnceLock::new();
        F.get_or_init(|| compute(shared_medium(), 10).expect("clean corpus computes"))
    }

    #[test]
    fn persistent_connections_exist() {
        let f = fig();
        assert!(f.connections.len() > 100, "only {} persistent connections", f.connections.len());
        assert!(f.buckets.len() >= 3);
    }

    #[test]
    fn more_paths_means_worse_performance() {
        let f = fig();
        // The paper's "mild correlation": negative for throughput, positive
        // for loss.
        assert!(f.corr_tput < 0.0, "corr(Δpaths, Δtput) = {}", f.corr_tput);
        assert!(f.corr_loss > 0.0, "corr(Δpaths, Δloss) = {}", f.corr_loss);
        // Mild, not dominant — matching the paper's takeaway that most
        // degradation lives at the edge.
        assert!(f.corr_tput.abs() < 0.9 && f.corr_loss.abs() < 0.9);
    }

    #[test]
    fn churned_connections_suffer_more_loss() {
        // The loss panel of Figure 9 is the strong coupling (our diag runs
        // show it monotone across buckets); throughput's bucket contrast is
        // noisier, so it is asserted through the correlation sign instead
        // (`more_paths_means_worse_performance`).
        let f = fig();
        let stable: Vec<&ConnDelta> = f.connections.iter().filter(|c| c.d_paths <= 0).collect();
        let churned: Vec<&ConnDelta> = f.connections.iter().filter(|c| c.d_paths >= 2).collect();
        assert!(stable.len() >= 10 && churned.len() >= 10, "degenerate buckets");
        let m = |v: &[&ConnDelta]| v.iter().map(|c| c.d_loss).sum::<f64>() / v.len() as f64;
        assert!(
            m(&churned) > m(&stable),
            "churned loss {} vs stable loss {}",
            m(&churned),
            m(&stable)
        );
    }

    #[test]
    fn csv_is_ordered_by_d_paths() {
        let c = fig().to_csv();
        let ds: Vec<i64> = c
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap().parse().unwrap())
            .collect();
        assert!(ds.windows(2).all(|w| w[0] < w[1]));
    }
}
