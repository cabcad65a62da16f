//! The simulated NDT client population.
//!
//! Clients are the paper's hidden actors: each has a persistent address
//! (so (client, server) connections persist across periods — required by
//! Table 2 and Figure 9), a home city and access AS, per-client last-mile
//! characteristics calibrated against the paper's Table 4 prewar values,
//! and a test rate. Rates are two-class:
//!
//! * a small **heavy** class (Google-search-integrated frequent testers)
//!   whose members run several tests per day — these become the paper's
//!   top-1000 connections with ~200 tests per 54-day period;
//! * a **casual** majority with a Pareto-tailed low rate.
//!
//! Class rates are normalized so the expected national daily raw-test
//! volume matches the configured target (the paper's §5.2 corpus:
//! 852,738 tests over 108 days ≈ 7,900/day).

use ndt_geo::city::{cities_of, CityId};
use ndt_geo::Oblast;
use ndt_stats::{LogNormal, Pareto, Sampler};
use ndt_topology::{Asn, BuiltTopology, Ipv4Addr};
use rand::{Rng, RngExt as _};
use std::collections::HashMap;

/// One NDT client.
#[derive(Debug, Clone, PartialEq)]
pub struct Client {
    pub ip: Ipv4Addr,
    pub city: CityId,
    pub oblast: Oblast,
    pub asn: Asn,
    /// Expected tests per day at full (2022) volume, before modulation.
    pub daily_rate: f64,
    /// Whether this client belongs to the heavy-tester class.
    pub heavy: bool,
    /// Last-mile access capacity, Mbps.
    pub access_mbps: f64,
    /// Last-mile base RTT contribution, milliseconds.
    pub edge_rtt_ms: f64,
    /// Last-mile base loss probability.
    pub edge_loss: f64,
    /// How strongly wartime damage hits this client's neighbourhood
    /// (log-normal, mean 1). High-exposure clients both degrade more and
    /// reroute more — the within-AS heterogeneity behind Figure 9.
    pub war_exposure: f64,
}

/// Population-generation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientPoolConfig {
    /// Total number of clients at scale 1.
    pub n_clients: usize,
    /// Fraction of clients in the heavy-tester class.
    pub heavy_fraction: f64,
    /// Target expected national raw tests per day (2022 volume).
    pub daily_raw_tests: f64,
}

impl Default for ClientPoolConfig {
    fn default() -> Self {
        Self { n_clients: 24_000, heavy_fraction: 0.058, daily_raw_tests: 7_900.0 }
    }
}

/// The full client population.
#[derive(Debug, Clone, Default)]
pub struct ClientPool {
    clients: Vec<Client>,
}

impl ClientPool {
    /// Generates the population deterministically from `rng`.
    pub fn generate<R: Rng + ?Sized>(bt: &BuiltTopology, config: &ClientPoolConfig, rng: &mut R) -> Self {
        assert!(config.n_clients > 0, "population must be non-empty");
        assert!((0.0..1.0).contains(&config.heavy_fraction), "heavy_fraction must be in [0,1)");
        let total_weight: f64 = Oblast::all().map(|o| o.prewar_weight()).sum();
        let mut clients = Vec::with_capacity(config.n_clients);
        let mut ip_counter: HashMap<Asn, u32> = HashMap::new();

        let heavy_rate = LogNormal::with_median(3.3, 0.5);
        let casual_rate = Pareto::new(0.02, 1.2);

        for oblast in Oblast::all() {
            let oblast_frac = oblast.prewar_weight() / total_weight;
            let prewar = oblast.info().paper_prewar;
            for (city_id, city) in cities_of(oblast) {
                for (asn, share) in &bt.market_shares[&oblast] {
                    let expect = config.n_clients as f64 * oblast_frac * city.weight * share;
                    // Probabilistic rounding keeps cell totals unbiased.
                    let n = expect.floor() as usize
                        + usize::from(rng.random::<f64>() < expect.fract());
                    for _ in 0..n {
                        let idx = ip_counter.entry(*asn).or_insert(0);
                        let ip = bt.client_ip(*asn, *idx);
                        *idx += 1;
                        let heavy = rng.random::<f64>() < config.heavy_fraction;
                        let daily_rate = if heavy {
                            heavy_rate.sample(rng).min(8.0)
                        } else {
                            casual_rate.sample(rng).min(1.0)
                        };
                        // Heavy testers dominate per-region means (they
                        // contribute most rows); give them the narrower
                        // access-speed dispersion of engaged broadband
                        // users so small regions' means stay estimable.
                        let access_sigma = if heavy { 0.25 } else { 0.45 };
                        clients.push(Client {
                            ip,
                            city: city_id,
                            oblast,
                            asn: *asn,
                            daily_rate,
                            heavy,
                            access_mbps: LogNormal::with_median(prewar.tput_mbps, access_sigma)
                                .sample(rng)
                                .clamp(1.0, 1_000.0),
                            edge_rtt_ms: LogNormal::with_median((prewar.min_rtt_ms * 0.6).max(0.8), 0.5)
                                .sample(rng)
                                .min(120.0),
                            edge_loss: LogNormal::with_median((prewar.loss_pct / 100.0) * 0.8, 0.6)
                                .sample(rng)
                                .clamp(1e-4, 0.2),
                            war_exposure: LogNormal::new(-0.18, 0.6).sample(rng).clamp(0.2, 4.0),
                        });
                    }
                }
            }
        }

        // Normalize rates so the expected national volume hits the target.
        let sum: f64 = clients.iter().map(|c| c.daily_rate).sum();
        if sum > 0.0 {
            let k = config.daily_raw_tests / sum;
            for c in &mut clients {
                c.daily_rate *= k;
            }
        }
        Self { clients }
    }

    /// All clients.
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// Population size.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndt_topology::{build_topology, TopologyConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool(seed: u64) -> (BuiltTopology, ClientPool) {
        let bt = build_topology(&TopologyConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = ClientPool::generate(&bt, &ClientPoolConfig::default(), &mut rng);
        (bt, pool)
    }

    #[test]
    fn population_size_and_volume() {
        let (_, p) = pool(1);
        let n = p.len() as f64;
        assert!((n - 24_000.0).abs() / 24_000.0 < 0.05, "n = {n}");
        let daily: f64 = p.clients().iter().map(|c| c.daily_rate).sum();
        assert!((daily - 7_900.0).abs() < 1.0, "daily = {daily}");
    }

    #[test]
    fn heavy_class_dominates_top_rates() {
        let (_, p) = pool(2);
        let mut rates: Vec<(f64, bool)> = p.clients().iter().map(|c| (c.daily_rate, c.heavy)).collect();
        rates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let top_1000_heavy = rates[..1000].iter().filter(|(_, h)| *h).count();
        assert!(top_1000_heavy > 900, "only {top_1000_heavy} of top-1000 are heavy");
        // Top-1000 should produce on the order of 200 tests per 54-day
        // period (Table 2's tests/connection for 2022).
        let top_mean: f64 = rates[..1000].iter().map(|(r, _)| r * 54.0).sum::<f64>() / 1000.0;
        assert!((140.0..280.0).contains(&top_mean), "top-1000 tests/period = {top_mean}");
    }

    #[test]
    fn oblast_shares_follow_table4_weights() {
        let (_, p) = pool(3);
        let kyiv = p.clients().iter().filter(|c| c.oblast == Oblast::KyivCity).count() as f64;
        let share = kyiv / p.len() as f64;
        // Table 4: Kyiv City is 11216/35488 ≈ 31.6% of prewar tests.
        assert!((share - 0.316).abs() < 0.03, "Kyiv share = {share}");
        let sevastopol = p.clients().iter().filter(|c| c.oblast == Oblast::Sevastopol).count();
        assert!(sevastopol > 0, "even the smallest region has clients");
    }

    #[test]
    fn client_ips_are_unique_and_resolve() {
        let (bt, p) = pool(4);
        let mut ips: Vec<u32> = p.clients().iter().map(|c| c.ip.0).collect();
        ips.sort_unstable();
        let before = ips.len();
        ips.dedup();
        assert_eq!(ips.len(), before, "duplicate client IPs");
        for c in p.clients().iter().take(50) {
            assert_eq!(bt.topology.prefixes.lookup(c.ip), Some(c.asn));
        }
    }

    #[test]
    fn edge_characteristics_track_oblast_baselines() {
        let (_, p) = pool(5);
        let mean_access = |o: Oblast| {
            let v: Vec<f64> =
                p.clients().iter().filter(|c| c.oblast == o).map(|c| c.access_mbps).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        // Kyiv City prewar tput 61.71 vs Luhansk 13.87: access capacities
        // should preserve the ordering with a clear gap.
        assert!(mean_access(Oblast::KyivCity) > 1.8 * mean_access(Oblast::Luhansk));
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, a) = pool(42);
        let (_, b) = pool(42);
        assert_eq!(a.clients()[..100], b.clients()[..100]);
        assert_eq!(a.len(), b.len());
    }
}
