//! Per-RTT fluid simulation of a bulk transfer.
//!
//! The platform simulator uses closed-form steady-state response functions
//! ([`crate::model`]) because it runs a million transfers. This module is
//! the *validation* of that substitution (see `DESIGN.md`): a round-by-
//! round fluid model of the actual congestion-control dynamics — slow
//! start, loss events, CUBIC's cubic window growth, BBR's bandwidth-probe
//! cruise — whose long-run throughput the response functions must agree
//! with. The agreement tests live at the bottom of this file; an ablation
//! bench compares their costs.

use crate::model::{CongestionControl, BBR_LOSS_KNEE, MSS_BYTES};
use rand::{Rng, RngExt as _};

/// Outcome of a fluid-simulated transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidOutcome {
    /// Goodput over the whole transfer, Mbps.
    pub mean_tput_mbps: f64,
    /// Number of congestion-window reductions experienced.
    pub loss_events: u32,
    /// Number of RTT rounds simulated.
    pub rounds: u32,
}

/// Per-RTT fluid simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidSim {
    pub cca: CongestionControl,
    /// Transfer duration in seconds.
    pub duration_s: f64,
}

impl FluidSim {
    /// Creates a simulator.
    ///
    /// # Panics
    /// Panics on a non-positive duration.
    pub fn new(cca: CongestionControl, duration_s: f64) -> Self {
        assert!(duration_s > 0.0, "duration must be positive");
        Self { cca, duration_s }
    }

    /// Simulates one transfer over a path with base RTT `rtt_ms`,
    /// bottleneck `bottleneck_mbps` and random per-packet loss `p`.
    ///
    /// # Panics
    /// Panics on non-positive RTT/bandwidth or `p` outside `[0, 1)`.
    pub fn run<R: Rng + ?Sized>(
        &self,
        rtt_ms: f64,
        bottleneck_mbps: f64,
        p: f64,
        rng: &mut R,
    ) -> FluidOutcome {
        assert!(rtt_ms > 0.0 && bottleneck_mbps > 0.0, "path parameters must be positive");
        assert!((0.0..1.0).contains(&p), "loss must be in [0, 1), got {p}");
        let rtt_s = rtt_ms / 1e3;
        let bdp_pkts = (bottleneck_mbps * 1e6 / 8.0 / MSS_BYTES) * rtt_s;

        let mut t = 0.0f64;
        let mut delivered_pkts = 0.0f64;
        let mut rounds = 0u32;
        let mut loss_events = 0u32;

        // Common state.
        let mut cwnd = 10.0f64; // IW10
        let mut in_slow_start = true;
        // CUBIC state.
        let mut w_max = 0.0f64;
        let mut epoch_start = f64::NAN;
        const C: f64 = 0.4;
        const BETA: f64 = 0.7;

        while t < self.duration_s {
            rounds += 1;
            // Queueing delay once cwnd exceeds the BDP (single bottleneck
            // queue, fluid approximation).
            let queue_pkts = (cwnd - bdp_pkts).max(0.0);
            let rtt_now = rtt_s + queue_pkts * MSS_BYTES * 8.0 / (bottleneck_mbps * 1e6);
            // Deliverable this round: limited by both cwnd and the pipe.
            let sendable = cwnd.min(bdp_pkts.max(1.0) * rtt_now / rtt_s);
            delivered_pkts += sendable * (1.0 - p);
            // Loss event this round?
            let p_event = 1.0 - (1.0 - p).powf(sendable.max(1.0));
            let lost = p > 0.0 && rng.random::<f64>() < p_event;

            match self.cca {
                CongestionControl::Cubic => {
                    if lost {
                        loss_events += 1;
                        w_max = cwnd;
                        cwnd = (cwnd * BETA).max(2.0);
                        epoch_start = t;
                        in_slow_start = false;
                    } else if in_slow_start {
                        cwnd *= 2.0;
                        if cwnd >= bdp_pkts.max(16.0) {
                            in_slow_start = false;
                            w_max = cwnd;
                            epoch_start = t;
                        }
                    } else {
                        // W(t) = C (t - K)^3 + w_max, K = cbrt(w_max β' / C).
                        let k = (w_max * (1.0 - BETA) / C).cbrt();
                        let te = t - epoch_start + rtt_now;
                        cwnd = (C * (te - k).powi(3) + w_max).max(2.0);
                    }
                }
                CongestionControl::Bbr => {
                    if in_slow_start {
                        // Startup: double until the bandwidth estimate stops
                        // growing (we reach the pipe).
                        cwnd *= 2.0;
                        if cwnd >= 2.0 * bdp_pkts.max(4.0) {
                            in_slow_start = false;
                        }
                    } else {
                        // ProbeBW cruise: cwnd pinned near 2 BDP; random
                        // loss does not reduce it below the knee, above the
                        // knee the bandwidth samples starve and the
                        // estimator collapses.
                        cwnd = 2.0 * bdp_pkts.max(4.0);
                        if p > BBR_LOSS_KNEE && lost {
                            loss_events += 1;
                            cwnd = (cwnd * 0.5).max(4.0);
                        }
                    }
                }
            }
            t += rtt_now;
        }
        FluidOutcome {
            mean_tput_mbps: delivered_pkts * MSS_BYTES * 8.0 / 1e6 / self.duration_s,
            loss_events,
            rounds,
        }
    }

    /// Mean throughput over `n` seeded runs (validation helper).
    pub fn mean_tput<R: Rng + ?Sized>(
        &self,
        rtt_ms: f64,
        bottleneck_mbps: f64,
        p: f64,
        n: usize,
        rng: &mut R,
    ) -> f64 {
        (0..n).map(|_| self.run(rtt_ms, bottleneck_mbps, p, rng).mean_tput_mbps).sum::<f64>()
            / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{bbr_rate_mbps, cubic_rate_mbps};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lossless_transfer_fills_the_pipe() {
        let sim = FluidSim::new(CongestionControl::Bbr, 10.0);
        let mut rng = StdRng::seed_from_u64(1);
        let out = sim.run(20.0, 50.0, 0.0, &mut rng);
        assert!(out.mean_tput_mbps > 40.0, "tput = {}", out.mean_tput_mbps);
        assert!(out.mean_tput_mbps <= 50.0 * 1.05);
        assert_eq!(out.loss_events, 0);
        assert!(out.rounds > 100);
    }

    /// The DESIGN.md substitution check: the closed-form response functions
    /// the platform uses agree with the dynamic fluid model across the
    /// operating grid the simulator visits.
    #[test]
    fn response_functions_agree_with_fluid_dynamics() {
        let mut rng = StdRng::seed_from_u64(2);
        for &(rtt, bw, p) in &[
            (15.0, 40.0, 0.002),
            (30.0, 60.0, 0.01),
            (40.0, 30.0, 0.03),
            (60.0, 100.0, 0.005),
        ] {
            // BBR: fluid vs bottleneck*(1-p).
            let fluid_bbr =
                FluidSim::new(CongestionControl::Bbr, 10.0).mean_tput(rtt, bw, p, 30, &mut rng);
            let model_bbr = bbr_rate_mbps(bw, p);
            let ratio = fluid_bbr / model_bbr;
            assert!((0.6..1.4).contains(&ratio), "BBR rtt={rtt} bw={bw} p={p}: fluid {fluid_bbr} vs model {model_bbr}");

            // CUBIC: fluid vs RFC 8312 response (capped by the pipe).
            let fluid_cubic =
                FluidSim::new(CongestionControl::Cubic, 10.0).mean_tput(rtt, bw, p, 30, &mut rng);
            let model_cubic = cubic_rate_mbps(rtt, p).min(bw);
            let ratio = fluid_cubic / model_cubic;
            assert!(
                (0.4..2.0).contains(&ratio),
                "CUBIC rtt={rtt} bw={bw} p={p}: fluid {fluid_cubic} vs model {model_cubic}"
            );
        }
    }

    #[test]
    fn fluid_bbr_is_loss_tolerant_fluid_cubic_is_not() {
        let mut rng = StdRng::seed_from_u64(3);
        let bbr = FluidSim::new(CongestionControl::Bbr, 10.0).mean_tput(30.0, 80.0, 0.02, 30, &mut rng);
        let cubic =
            FluidSim::new(CongestionControl::Cubic, 10.0).mean_tput(30.0, 80.0, 0.02, 30, &mut rng);
        assert!(bbr > 2.0 * cubic, "bbr {bbr} vs cubic {cubic}");
    }

    #[test]
    fn cubic_registers_loss_events() {
        let mut rng = StdRng::seed_from_u64(4);
        let out = FluidSim::new(CongestionControl::Cubic, 10.0).run(20.0, 50.0, 0.02, &mut rng);
        assert!(out.loss_events > 3, "loss events = {}", out.loss_events);
    }

    #[test]
    fn more_loss_never_helps() {
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        let lo = FluidSim::new(CongestionControl::Cubic, 10.0).mean_tput(25.0, 60.0, 0.005, 40, &mut r1);
        let hi = FluidSim::new(CongestionControl::Cubic, 10.0).mean_tput(25.0, 60.0, 0.05, 40, &mut r2);
        assert!(lo > hi, "lo {lo} vs hi {hi}");
    }

    #[test]
    fn deterministic_under_seed() {
        let sim = FluidSim::new(CongestionControl::Bbr, 5.0);
        let a = sim.run(20.0, 50.0, 0.01, &mut StdRng::seed_from_u64(6));
        let b = sim.run(20.0, 50.0, 0.01, &mut StdRng::seed_from_u64(6));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn rejects_bad_loss() {
        let mut rng = StdRng::seed_from_u64(7);
        FluidSim::new(CongestionControl::Bbr, 1.0).run(10.0, 10.0, 1.0, &mut rng);
    }
}
