//! The metric catalogue and the result line.
//!
//! Every run prints the complete set of one catalogue: all end-to-end
//! metrics with `--trace 0`, all per-layer metrics with `--trace 1`. A
//! layer a workload never calls reports 0 (it did no work there).

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("store_bytes_per_raw", "ratio"),
];

/// Per-layer metrics other than the 18 `analysis.<stage>_ms` rows, which
/// [`per_layer`] inserts in registry order after `analysis.share`.
const LAYERS_HEAD: &[(&str, &str)] = &[
    ("topology.build_ms", "ms"),
    ("mlab.setup_ms", "ms"),
    ("mlab.sim_ns_per_test", "ns"),
    ("mlab.sim_share", "ratio"),
    ("mlab.shard_ms_max", "ms"),
    ("mlab.shard_skew", "ratio"),
    ("mlab.tests", "count"),
    ("mlab.rows", "count"),
    ("mlab.traces", "count"),
    ("store.encode_ns_per_row", "ns"),
    ("store.bytes_encoded", "bytes"),
    ("runner.write_ms", "ms"),
    ("store.scan_ns_per_row", "ns"),
    ("store.pages_read", "count"),
    ("bq.ingest_vectorized_ns_per_row", "ns"),
    ("bq.ingest_rows_ns_per_row", "ns"),
    ("analysis.assemble_ms", "ms"),
    ("analysis.share", "ratio"),
];

const LAYERS_TAIL: &[(&str, &str)] = &[
    ("serve.start_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.net_ms", "ms"),
    ("serve.inproc_p50_ms", "ms"),
    ("serve.inproc_p99_ms", "ms"),
    ("serve.net_p50_ms", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.accepted", "count"),
    ("serve.executed", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.queue_depth_peak", "count"),
    ("wall_s", "s"),
    ("unattributed_s", "s"),
    ("fail_frac", "ratio"),
    ("trace_overhead_pct", "%"),
];

/// Metric name of one analysis stage's traced time.
pub fn stage_metric(stage: &str) -> String {
    format!("analysis.{stage}_ms")
}

/// `(name, unit)` of every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = LAYERS_HEAD
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    v.extend(
        ndt_analysis::ANALYSIS_STAGES
            .iter()
            .map(|s| (stage_metric(s.name), "ms")),
    );
    v.extend(LAYERS_TAIL.iter().map(|(n, u)| (n.to_string(), *u)));
    v
}

/// Measured values of one run, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (shard records, stage records or requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// End-to-end metrics (untraced run).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run).
    pub layers: Metrics,
    /// Rows of the layer breakdown: `(layer, seconds)`; with
    /// `unattributed` they add up to `wall_s`.
    pub breakdown: Vec<(String, f64)>,
    /// Host-speed samples of the untraced run.
    pub host: crate::host::HostSpeed,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The catalogue a run prints, with each value (0 when not measured).
pub fn selected(outcome: &Outcome, trace: bool) -> Vec<(String, &'static str, f64)> {
    if trace {
        per_layer()
            .into_iter()
            .map(|(n, u)| {
                let v = outcome.layers.get(&n).unwrap_or(0.0);
                (n, u, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u, outcome.e2e.get(n).unwrap_or(0.0)))
            .collect()
    }
}

/// The last line of a run's standard output.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = selected(outcome, trace)
        .into_iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Human-readable table of the printed metrics plus, for a traced run,
/// the layer breakdown that sums to the wall time.
pub fn table(outcome: &Outcome, trace: bool) -> String {
    let mut s = String::new();
    for (n, u, v) in selected(outcome, trace) {
        s.push_str(&format!("  {n:<34} {v:>16.4} {u}\n"));
    }
    if trace && !outcome.breakdown.is_empty() {
        let wall = outcome.layers.get("wall_s").unwrap_or(0.0);
        s.push_str("  breakdown (seconds, share of wall):\n");
        let unattributed = outcome.layers.get("unattributed_s").unwrap_or(0.0);
        let rows = outcome.breakdown.iter().map(|(n, v)| (n.as_str(), *v));
        for (name, secs) in rows.chain([("unattributed", unattributed), ("= wall", wall)]) {
            let share = if wall > 0.0 { 100.0 * secs / wall } else { 0.0 };
            s.push_str(&format!("    {name:<32} {secs:>10.4} s {share:>7.1} %\n"));
        }
    }
    s
}
