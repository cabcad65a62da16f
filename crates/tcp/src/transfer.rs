//! One simulated NDT download and its `TCP_INFO`-style statistics.

use crate::model::{bbr_rate_mbps, cubic_rate_mbps, CongestionControl};
use ndt_stats::{LogNormal, Normal, Sampler};
use rand::{Rng, RngExt as _};

/// End-to-end characteristics of the path a transfer runs over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathCharacteristics {
    /// Base round-trip time in milliseconds (propagation, no queueing).
    pub base_rtt_ms: f64,
    /// Bottleneck bandwidth in Mbps (usually the client's access link).
    pub bottleneck_mbps: f64,
    /// End-to-end packet-loss probability.
    pub loss: f64,
}

impl PathCharacteristics {
    /// Creates path characteristics.
    ///
    /// # Panics
    /// Panics on non-positive RTT/bandwidth or loss outside `[0, 1)`.
    pub fn new(base_rtt_ms: f64, bottleneck_mbps: f64, loss: f64) -> Self {
        assert!(base_rtt_ms > 0.0, "RTT must be positive, got {base_rtt_ms}");
        assert!(bottleneck_mbps > 0.0, "bandwidth must be positive, got {bottleneck_mbps}");
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1), got {loss}");
        Self { base_rtt_ms, bottleneck_mbps, loss }
    }
}

/// Transfer parameters (NDT7 defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferConfig {
    pub cca: CongestionControl,
    /// Nominal test duration in seconds (NDT runs ~10 s).
    pub duration_s: f64,
    /// Log-normal sigma of run-to-run throughput variability (cross-traffic,
    /// scheduling, radio conditions).
    pub tput_sigma: f64,
}

impl Default for TransferConfig {
    fn default() -> Self {
        Self { cca: CongestionControl::Bbr, duration_s: 10.0, tput_sigma: 0.35 }
    }
}

/// The statistics NDT publishes from `TCP_INFO` after a download
/// (the three columns of the paper's Tables 1 and 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpInfoStats {
    /// Mean goodput over the transfer, Mbps.
    pub mean_tput_mbps: f64,
    /// Minimum observed RTT, milliseconds.
    pub min_rtt_ms: f64,
    /// Fraction of segments retransmitted.
    pub loss_rate: f64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Wall-clock duration, seconds.
    pub duration_s: f64,
}

/// Simulator for one NDT bulk download.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BulkTransfer {
    config: TransferConfig,
}

impl Default for BulkTransfer {
    fn default() -> Self {
        Self::new(TransferConfig::default())
    }
}

impl BulkTransfer {
    /// Creates a transfer simulator.
    ///
    /// # Panics
    /// Panics on non-positive duration or negative sigma.
    pub fn new(config: TransferConfig) -> Self {
        assert!(config.duration_s > 0.0, "duration must be positive");
        assert!(config.tput_sigma >= 0.0, "sigma must be non-negative");
        Self { config }
    }

    /// Transfer parameters.
    pub fn config(&self) -> &TransferConfig {
        &self.config
    }

    /// Runs one download over `path` and reports `TCP_INFO` statistics.
    pub fn run<R: Rng + ?Sized>(&self, path: &PathCharacteristics, rng: &mut R) -> TcpInfoStats {
        // Effective loss the controller sees: path loss floored at a tiny
        // residual so the loss-based response functions stay defined.
        let p = path.loss.max(1e-6);
        let cca_rate = match self.config.cca {
            CongestionControl::Bbr => bbr_rate_mbps(path.bottleneck_mbps, p),
            CongestionControl::Cubic => cubic_rate_mbps(path.base_rtt_ms, p).min(path.bottleneck_mbps),
        };
        // Slow-start ramp: the first ~log2(BDP) RTTs deliver little. With a
        // 10 s test this discounts high-BDP paths by a few percent.
        let bdp_pkts = (cca_rate * 1e6 / 8.0 / 1448.0) * (path.base_rtt_ms / 1e3);
        let ramp_rtts = bdp_pkts.max(1.0).log2().max(1.0);
        let ramp_s = ramp_rtts * path.base_rtt_ms / 1e3;
        let ramp_discount = (1.0 - 0.5 * ramp_s / self.config.duration_s).clamp(0.3, 1.0);
        // Run-to-run variability.
        let noise = LogNormal::new(0.0, self.config.tput_sigma).sample(rng);
        let mean_tput = (cca_rate * ramp_discount * noise).min(path.bottleneck_mbps);
        // Min RTT: base plus residual queueing that even the minimum sample
        // carries (small, positively skewed).
        let min_rtt = path.base_rtt_ms * (1.0 + 0.02 * rng.random::<f64>())
            + Normal::new(0.15, 0.05).sample(rng).max(0.0);
        // Reported loss: per-test sample around path loss. NDT counts
        // retransmitted segments over ~thousands of packets; approximate the
        // binomial with a clamped normal.
        let pkts = (mean_tput.max(0.05) * 1e6 / 8.0 / 1448.0 * self.config.duration_s).max(50.0);
        let loss_sd = (path.loss * (1.0 - path.loss) / pkts).sqrt();
        let loss = Normal::new(path.loss, loss_sd).sample(rng).clamp(0.0, 1.0);
        let bytes = (mean_tput * 1e6 / 8.0 * self.config.duration_s) as u64;
        TcpInfoStats {
            mean_tput_mbps: mean_tput,
            min_rtt_ms: min_rtt,
            loss_rate: loss,
            bytes,
            duration_s: self.config.duration_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndt_stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_many(path: PathCharacteristics, cca: CongestionControl, n: usize, seed: u64) -> Vec<TcpInfoStats> {
        let t = BulkTransfer::new(TransferConfig { cca, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| t.run(&path, &mut rng)).collect()
    }

    #[test]
    fn healthy_path_delivers_near_bottleneck() {
        let path = PathCharacteristics::new(20.0, 50.0, 0.002);
        let stats = run_many(path, CongestionControl::Bbr, 3_000, 1);
        let mean = Summary::of(&stats.iter().map(|s| s.mean_tput_mbps).collect::<Vec<_>>()).mean();
        // Log-normal noise has mean exp(σ²/2) ≈ 1.063; expect within ~25%
        // of bottleneck after ramp discount, never above it.
        assert!((30.0..=50.0).contains(&mean), "mean tput = {mean}");
        assert!(stats.iter().all(|s| s.mean_tput_mbps <= 50.0 + 1e-9));
    }

    #[test]
    fn min_rtt_tracks_base_rtt() {
        let path = PathCharacteristics::new(30.0, 100.0, 0.001);
        let stats = run_many(path, CongestionControl::Bbr, 1_000, 2);
        for s in &stats {
            assert!(s.min_rtt_ms >= 30.0, "min rtt {}", s.min_rtt_ms);
            assert!(s.min_rtt_ms <= 32.0, "min rtt {}", s.min_rtt_ms);
        }
    }

    #[test]
    fn reported_loss_scatters_around_path_loss() {
        let path = PathCharacteristics::new(20.0, 50.0, 0.03);
        let stats = run_many(path, CongestionControl::Bbr, 3_000, 3);
        let mean = Summary::of(&stats.iter().map(|s| s.loss_rate).collect::<Vec<_>>()).mean();
        assert!((mean - 0.03).abs() < 0.004, "mean loss = {mean}");
        assert!(stats.iter().all(|s| (0.0..=1.0).contains(&s.loss_rate)));
    }

    #[test]
    fn wartime_loss_crushes_throughput() {
        let healthy = PathCharacteristics::new(20.0, 50.0, 0.002);
        let damaged = PathCharacteristics::new(40.0, 50.0, 0.25);
        let h = run_many(healthy, CongestionControl::Bbr, 1_000, 4);
        let d = run_many(damaged, CongestionControl::Bbr, 1_000, 4);
        let hm = Summary::of(&h.iter().map(|s| s.mean_tput_mbps).collect::<Vec<_>>()).mean();
        let dm = Summary::of(&d.iter().map(|s| s.mean_tput_mbps).collect::<Vec<_>>()).mean();
        assert!(dm < hm / 3.0, "healthy {hm}, damaged {dm}");
    }

    #[test]
    fn bbr_outperforms_cubic_under_loss() {
        // The NDT7/BBR vs NDT5/CUBIC ablation: random loss hurts CUBIC more.
        let path = PathCharacteristics::new(30.0, 100.0, 0.02);
        let bbr = run_many(path, CongestionControl::Bbr, 1_000, 5);
        let cubic = run_many(path, CongestionControl::Cubic, 1_000, 5);
        let bm = Summary::of(&bbr.iter().map(|s| s.mean_tput_mbps).collect::<Vec<_>>()).mean();
        let cm = Summary::of(&cubic.iter().map(|s| s.mean_tput_mbps).collect::<Vec<_>>()).mean();
        assert!(bm > 2.0 * cm, "bbr {bm} vs cubic {cm}");
    }

    #[test]
    fn deterministic_under_seed() {
        let path = PathCharacteristics::new(15.0, 80.0, 0.01);
        let a = run_many(path, CongestionControl::Bbr, 20, 42);
        let b = run_many(path, CongestionControl::Bbr, 20, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn bytes_consistent_with_rate_and_duration() {
        let path = PathCharacteristics::new(15.0, 80.0, 0.005);
        let t = BulkTransfer::default();
        let mut rng = StdRng::seed_from_u64(7);
        let s = t.run(&path, &mut rng);
        let expected = s.mean_tput_mbps * 1e6 / 8.0 * s.duration_s;
        assert!((s.bytes as f64 - expected).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn rejects_invalid_path() {
        PathCharacteristics::new(10.0, 100.0, 1.0);
    }
}
