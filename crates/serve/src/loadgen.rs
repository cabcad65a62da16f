//! Synthetic load generator for the serve front.
//!
//! `ukraine-ndt loadgen` drives the TCP front with many concurrent
//! clients, each issuing a deterministic round-robin mix of stage
//! requests — repeats of the same stage exercise the cache-hit path,
//! distinct stages the miss path, and (when the server is started with
//! its stall/panic test hooks) tight-deadline and panicking requests.
//! The stage *schedule* is deterministic (client index and request index
//! pick the stage); the measured latencies of course are not.
//!
//! The output is a [`LoadReport`]: outcome counts by rejection type,
//! client-side p50/p99 latency over successful requests, throughput and
//! shed rate — rendered as a small JSON object that CI prints and
//! asserts on.

use std::time::{Duration, Instant};

use crate::net::{fetch, Reply, Request};
use crate::server::ServeError;

/// What one request came back as, with its client-observed latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Response delivered; latency in nanoseconds.
    Ok(u64),
    /// Typed shed (queue full).
    Shed,
    /// Typed drain rejection.
    Draining,
    /// Deadline rejection.
    Deadline,
    /// Contained stage panic.
    Panicked,
    /// Stage-level failure.
    Failed,
    /// Unknown-stage rejection.
    Unknown,
    /// Transport error (connect/read/write failed).
    IoError,
}

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued by each client.
    pub requests_per_client: usize,
    /// Stage mix, consumed round-robin (offset per client so clients
    /// start on different stages).
    pub stages: Vec<String>,
    /// Per-request deadline sent on the wire; `None` uses the server
    /// default.
    pub deadline_ms: Option<u64>,
    /// Client socket timeout (transport bound, not the request deadline).
    pub socket_timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            clients: 8,
            requests_per_client: 16,
            stages: vec!["fig2".to_string()],
            deadline_ms: None,
            socket_timeout: Duration::from_secs(30),
        }
    }
}

/// Aggregated result of one load run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Requests issued in total.
    pub total: u64,
    /// Responses delivered.
    pub ok: u64,
    /// Queue-full sheds.
    pub shed: u64,
    /// Drain rejections.
    pub draining: u64,
    /// Deadline rejections.
    pub deadline: u64,
    /// Contained panics.
    pub panicked: u64,
    /// Stage failures.
    pub failed: u64,
    /// Unknown-stage rejections.
    pub unknown: u64,
    /// Transport errors.
    pub io_errors: u64,
    /// Client-side p50 latency over successful requests, milliseconds.
    pub p50_ms: f64,
    /// Client-side p99 latency over successful requests, milliseconds.
    pub p99_ms: f64,
    /// Successful responses per wall-clock second.
    pub throughput_rps: f64,
    /// `shed / total`.
    pub shed_rate: f64,
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: u64,
}

/// Nearest-rank percentile over a sorted sample set.
fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl LoadReport {
    /// Folds raw per-request outcomes into a report.
    pub fn from_outcomes(outcomes: &[Outcome], wall: Duration) -> LoadReport {
        let mut r = LoadReport { total: outcomes.len() as u64, ..LoadReport::default() };
        let mut latencies: Vec<u64> = Vec::new();
        for o in outcomes {
            match o {
                Outcome::Ok(nanos) => {
                    r.ok += 1;
                    latencies.push(*nanos);
                }
                Outcome::Shed => r.shed += 1,
                Outcome::Draining => r.draining += 1,
                Outcome::Deadline => r.deadline += 1,
                Outcome::Panicked => r.panicked += 1,
                Outcome::Failed => r.failed += 1,
                Outcome::Unknown => r.unknown += 1,
                Outcome::IoError => r.io_errors += 1,
            }
        }
        latencies.sort_unstable();
        r.p50_ms = percentile_sorted(&latencies, 0.50) as f64 / 1e6;
        r.p99_ms = percentile_sorted(&latencies, 0.99) as f64 / 1e6;
        r.wall_ms = wall.as_millis() as u64;
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            r.throughput_rps = r.ok as f64 / secs;
        }
        if r.total > 0 {
            r.shed_rate = r.shed as f64 / r.total as f64;
        }
        r
    }

    /// Renders the report as a single JSON object (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"total\": {},\n",
                "  \"ok\": {},\n",
                "  \"shed\": {},\n",
                "  \"draining\": {},\n",
                "  \"deadline\": {},\n",
                "  \"panicked\": {},\n",
                "  \"failed\": {},\n",
                "  \"unknown\": {},\n",
                "  \"io_errors\": {},\n",
                "  \"p50_ms\": {:.3},\n",
                "  \"p99_ms\": {:.3},\n",
                "  \"throughput_rps\": {:.1},\n",
                "  \"shed_rate\": {:.4},\n",
                "  \"wall_ms\": {}\n",
                "}}"
            ),
            self.total,
            self.ok,
            self.shed,
            self.draining,
            self.deadline,
            self.panicked,
            self.failed,
            self.unknown,
            self.io_errors,
            self.p50_ms,
            self.p99_ms,
            self.throughput_rps,
            self.shed_rate,
            self.wall_ms,
        )
    }
}

fn classify(reply: Reply, latency: Duration) -> Outcome {
    match reply {
        Reply::Ok(_) => Outcome::Ok(latency.as_nanos() as u64),
        Reply::Err(ServeError::Overloaded { .. }) => Outcome::Shed,
        Reply::Err(ServeError::Draining) => Outcome::Draining,
        Reply::Err(ServeError::DeadlineExceeded) => Outcome::Deadline,
        Reply::Err(ServeError::Panicked(_)) => Outcome::Panicked,
        Reply::Err(ServeError::Failed(_)) => Outcome::Failed,
        Reply::Err(ServeError::UnknownStage(_)) => Outcome::Unknown,
    }
}

/// Runs the load: `clients` threads, each issuing
/// `requests_per_client` requests round-robin over `stages`, and folds
/// every outcome into one [`LoadReport`].
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    let started = Instant::now();
    let workers: Vec<_> = (0..cfg.clients.max(1))
        .map(|c| {
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name(format!("loadgen-{c}"))
                .spawn(move || {
                    let mut outcomes = Vec::with_capacity(cfg.requests_per_client);
                    for i in 0..cfg.requests_per_client {
                        let stage =
                            &cfg.stages[(c * cfg.requests_per_client + i) % cfg.stages.len()];
                        let req = Request {
                            stage: stage.clone(),
                            deadline_ms: cfg.deadline_ms,
                        };
                        let t0 = Instant::now();
                        let outcome = match fetch(&cfg.addr, &req, cfg.socket_timeout) {
                            Ok(reply) => classify(reply, t0.elapsed()),
                            Err(_) => Outcome::IoError,
                        };
                        outcomes.push(outcome);
                    }
                    outcomes
                })
                .expect("spawn loadgen client")
        })
        .collect();
    let mut all = Vec::new();
    for w in workers {
        // A panicking client thread would be a loadgen bug; surface it.
        all.extend(w.join().expect("loadgen client panicked"));
    }
    LoadReport::from_outcomes(&all, started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates_outcomes() {
        let outcomes = [
            Outcome::Ok(1_000_000),  // 1ms
            Outcome::Ok(2_000_000),  // 2ms
            Outcome::Ok(10_000_000), // 10ms
            Outcome::Shed,
            Outcome::Panicked,
            Outcome::Deadline,
        ];
        let r = LoadReport::from_outcomes(&outcomes, Duration::from_secs(2));
        assert_eq!(r.total, 6);
        assert_eq!(r.ok, 3);
        assert_eq!(r.shed, 1);
        assert_eq!(r.panicked, 1);
        assert_eq!(r.deadline, 1);
        assert!((r.p50_ms - 2.0).abs() < 1e-9, "{}", r.p50_ms);
        assert!((r.p99_ms - 10.0).abs() < 1e-9, "{}", r.p99_ms);
        assert!((r.throughput_rps - 1.5).abs() < 1e-9, "{}", r.throughput_rps);
        assert!((r.shed_rate - 1.0 / 6.0).abs() < 1e-9, "{}", r.shed_rate);
        assert_eq!(r.wall_ms, 2000);
    }

    #[test]
    fn empty_run_reports_zeroes_without_dividing() {
        let r = LoadReport::from_outcomes(&[], Duration::ZERO);
        assert_eq!(r, LoadReport::default());
    }

    #[test]
    fn json_has_the_expected_keys() {
        let r = LoadReport::from_outcomes(&[Outcome::Ok(5_000_000)], Duration::from_millis(100));
        let json = r.to_json();
        for key in [
            "\"total\"", "\"ok\"", "\"shed\"", "\"p50_ms\"", "\"p99_ms\"",
            "\"throughput_rps\"", "\"shed_rate\"", "\"wall_ms\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }
}
