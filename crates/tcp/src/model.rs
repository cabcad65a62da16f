//! Steady-state congestion-control response functions.

/// Which congestion controller the NDT server runs.
///
/// The paper (§3): "Earlier versions of NDT (e.g. NDT5) used TCP Reno or
/// Cubic with the current version (NDT7) using BBR if available", and the
/// algorithm was stable over 2021–2022. The simulator pins BBR to match the
/// studied window; CUBIC is kept for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionControl {
    Bbr,
    Cubic,
}

/// Packet size used by the response functions, in bytes.
pub const MSS_BYTES: f64 = 1448.0;

/// Mathis et al. steady-state Reno rate in Mbps.
///
/// `rate = (MSS / RTT) * sqrt(3/2) / sqrt(p)`.
///
/// # Panics
/// Panics if `rtt_ms <= 0` or `loss` is outside `(0, 1]`.
pub fn mathis_reno_rate_mbps(rtt_ms: f64, loss: f64) -> f64 {
    assert!(rtt_ms > 0.0, "RTT must be positive, got {rtt_ms}");
    assert!(loss > 0.0 && loss <= 1.0, "loss must be in (0, 1], got {loss}");
    let rtt_s = rtt_ms / 1_000.0;
    let pkts_per_s = (1.0 / rtt_s) * (1.5f64).sqrt() / loss.sqrt();
    pkts_per_s * MSS_BYTES * 8.0 / 1e6
}

/// RFC 8312 CUBIC response function in Mbps, with the Reno floor.
///
/// CUBIC's average window is `1.054 · (RTT/p)^{3/4}` segments (C = 0.4,
/// β = 0.7), i.e. `rate = 1.054 · MSS · RTT^{-1/4} · p^{-3/4}`. In the
/// AIMD-friendly region (short RTT / high loss) CUBIC behaves like Reno, so
/// the returned rate is the max of both expressions.
///
/// # Panics
/// Panics if `rtt_ms <= 0` or `loss` is outside `(0, 1]`.
pub fn cubic_rate_mbps(rtt_ms: f64, loss: f64) -> f64 {
    assert!(rtt_ms > 0.0, "RTT must be positive, got {rtt_ms}");
    assert!(loss > 0.0 && loss <= 1.0, "loss must be in (0, 1], got {loss}");
    let rtt_s = rtt_ms / 1_000.0;
    let w_cubic = 1.054 * (rtt_s / loss).powf(0.75); // segments
    let cubic = w_cubic * MSS_BYTES * 8.0 / rtt_s / 1e6;
    cubic.max(mathis_reno_rate_mbps(rtt_ms, loss))
}

/// Loss probability at which the BBR model's delivery starts collapsing.
/// BBRv1 sustains its estimated bandwidth under random loss up to roughly
/// its pacing-gain headroom (~20%); we use a conservative knee.
pub const BBR_LOSS_KNEE: f64 = 0.15;

/// BBR model: delivers the bottleneck bandwidth, discounted by loss
/// retransmissions below the knee and collapsing smoothly above it.
///
/// # Panics
/// Panics if `bottleneck_mbps <= 0` or `loss` is outside `[0, 1]`.
pub fn bbr_rate_mbps(bottleneck_mbps: f64, loss: f64) -> f64 {
    assert!(bottleneck_mbps > 0.0, "bottleneck must be positive");
    assert!((0.0..=1.0).contains(&loss), "loss must be in [0, 1], got {loss}");
    // Goodput lost to retransmissions.
    let goodput = bottleneck_mbps * (1.0 - loss);
    if loss <= BBR_LOSS_KNEE {
        goodput
    } else {
        // Beyond the knee the bandwidth estimator starves: exponential
        // collapse with the excess loss.
        let excess = loss - BBR_LOSS_KNEE;
        goodput * (-20.0 * excess).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mathis_known_value() {
        // MSS 1448 B, RTT 100 ms, p = 0.01:
        // rate = 10 pkt/s-units: (1/0.1)*1.2247/0.1 = 122.47 pkt/s
        // = 122.47 * 1448 * 8 / 1e6 ≈ 1.419 Mbps.
        let r = mathis_reno_rate_mbps(100.0, 0.01);
        assert!((r - 1.419).abs() < 0.01, "r = {r}");
    }

    #[test]
    fn cubic_beats_reno_on_long_fat_paths() {
        // High BDP: CUBIC should exceed the Reno floor.
        let cubic = cubic_rate_mbps(100.0, 1e-4);
        let reno = mathis_reno_rate_mbps(100.0, 1e-4);
        assert!(cubic > reno, "cubic {cubic} <= reno {reno}");
    }

    #[test]
    fn cubic_falls_back_to_reno_when_aimd_friendly() {
        // Short RTT, heavy loss → Reno region.
        let cubic = cubic_rate_mbps(5.0, 0.05);
        let reno = mathis_reno_rate_mbps(5.0, 0.05);
        assert!((cubic - reno).abs() < 1e-9, "cubic {cubic} != reno {reno}");
    }

    #[test]
    fn loss_monotonicity() {
        for &(rtt, p1, p2) in &[(20.0, 0.001, 0.01), (50.0, 0.005, 0.05), (10.0, 0.0001, 0.3)] {
            assert!(cubic_rate_mbps(rtt, p1) > cubic_rate_mbps(rtt, p2));
            assert!(mathis_reno_rate_mbps(rtt, p1) > mathis_reno_rate_mbps(rtt, p2));
        }
        assert!(bbr_rate_mbps(100.0, 0.01) > bbr_rate_mbps(100.0, 0.2));
    }

    #[test]
    fn rtt_monotonicity_for_loss_based() {
        assert!(cubic_rate_mbps(10.0, 0.01) > cubic_rate_mbps(100.0, 0.01));
        assert!(mathis_reno_rate_mbps(10.0, 0.01) > mathis_reno_rate_mbps(100.0, 0.01));
    }

    #[test]
    fn bbr_is_loss_tolerant_below_knee() {
        let clean = bbr_rate_mbps(100.0, 0.0);
        let lossy = bbr_rate_mbps(100.0, 0.05);
        assert_eq!(clean, 100.0);
        // Only the retransmission discount applies below the knee.
        assert!((lossy - 95.0).abs() < 1e-9, "lossy = {lossy}");
        // CUBIC at the same operating point is crushed.
        assert!(cubic_rate_mbps(30.0, 0.05) < lossy);
    }

    #[test]
    fn bbr_collapses_beyond_knee() {
        let at_knee = bbr_rate_mbps(100.0, BBR_LOSS_KNEE);
        let beyond = bbr_rate_mbps(100.0, 0.30);
        assert!(beyond < at_knee / 5.0, "at_knee {at_knee}, beyond {beyond}");
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn rejects_zero_loss_for_loss_based() {
        mathis_reno_rate_mbps(10.0, 0.0);
    }
}
