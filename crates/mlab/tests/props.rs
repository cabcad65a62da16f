//! Property-based tests for the platform simulator.

use ndt_mlab::client::{ClientPool, ClientPoolConfig};
use ndt_mlab::{LoadBalancer, SimConfig, Simulator};
use ndt_topology::{build_topology, TopologyConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn built() -> &'static ndt_topology::BuiltTopology {
    static B: OnceLock<ndt_topology::BuiltTopology> = OnceLock::new();
    B.get_or_init(|| build_topology(&TopologyConfig::default()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any client population is structurally valid: unique IPs that resolve
    /// to the client's AS, positive rates, edge characteristics in range.
    #[test]
    fn client_pools_are_valid(seed in 0u64..500, n in 500usize..3_000) {
        let bt = built();
        let cfg = ClientPoolConfig { n_clients: n, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = ClientPool::generate(bt, &cfg, &mut rng);
        prop_assert!(!pool.is_empty());
        let mut ips: Vec<u32> = pool.clients().iter().map(|c| c.ip.0).collect();
        ips.sort_unstable();
        let len = ips.len();
        ips.dedup();
        prop_assert_eq!(ips.len(), len, "duplicate IPs");
        for c in pool.clients().iter().take(200) {
            prop_assert_eq!(bt.topology.prefixes.lookup(c.ip), Some(c.asn));
            prop_assert!(c.daily_rate > 0.0);
            prop_assert!(c.access_mbps >= 1.0 && c.access_mbps <= 1_000.0);
            prop_assert!(c.edge_loss > 0.0 && c.edge_loss < 0.5);
            prop_assert!(c.war_exposure >= 0.2 && c.war_exposure <= 4.0);
            prop_assert_eq!(c.city.get().oblast, c.oblast);
        }
        // Total expected volume matches the config target.
        let daily: f64 = pool.clients().iter().map(|c| c.daily_rate).sum();
        prop_assert!((daily - cfg.daily_raw_tests).abs() < 1.0);
    }

    /// The load balancer always dispatches Ukrainian cities to nearby
    /// non-UA/non-RU sites, deterministically per client.
    #[test]
    fn load_balancer_invariants(city_idx in 0usize..33, ip in 0u32..100_000) {
        let lb = LoadBalancer::new(built());
        let (cid, city) = ndt_geo::city::all_cities().nth(city_idx).expect("city");
        let ip = ndt_topology::Ipv4Addr(ip);
        let s1 = lb.site_for_city(cid, ip);
        let s2 = lb.site_for_city(cid, ip);
        prop_assert_eq!(s1.id, s2.id);
        prop_assert!(s1.country != "UA" && s1.country != "RU");
        prop_assert!(ndt_geo::haversine_km(s1.loc, city.loc) < 1_500.0, "site {} too far", s1.metro);
    }
}

/// Tiny-scale end-to-end run: every published row is internally consistent.
#[test]
fn simulated_rows_are_consistent() {
    let mut sim = Simulator::new(SimConfig { scale: 0.01, seed: 31, ..SimConfig::default() });
    let bt_catalog_is_ua = {
        let catalog = sim.built().catalog().clone();
        move |asn| catalog.is_ukrainian(asn)
    };
    let ds = sim.run();
    assert!(!ds.traces.is_empty());
    for r in (0..ds.traces.rows()).map(|i| ds.traces.row(i)) {
        assert!(r.as_path.len() >= 2, "degenerate AS path");
        // Path ends in Ukraine, starts abroad.
        assert!(bt_catalog_is_ua(*r.as_path.last().unwrap()));
        assert!(!bt_catalog_is_ua(r.as_path[0]));
        // Border pair is on the path and correctly oriented.
        let (b, u) = r.border.expect("border crossing");
        assert!(!bt_catalog_is_ua(b) && bt_catalog_is_ua(u));
        assert!(r.as_path.windows(2).any(|w| w[0] == b && w[1] == u));
        assert!(r.min_rtt_ms > 0.0 && r.min_rtt_ms < 1_000.0);
        assert!(r.mean_tput_mbps > 0.0 && r.mean_tput_mbps <= 1_000.0);
    }
    for r in (0..ds.ndt.rows()).map(|i| ds.ndt.row(i)) {
        // Unified rows' ASN annotation matches the address plan.
        assert_eq!(sim.built().topology.prefixes.lookup(r.client_ip), Some(r.client_asn));
        if r.city.is_some() {
            assert!(r.oblast.is_some(), "city label implies region label");
        }
    }
}

proptest! {
    /// Truncated sidecar traces are strict, loop-free hop prefixes: the
    /// fault layer can shorten an AS path but can never fabricate a loop
    /// or reorder hops.
    #[test]
    fn truncated_traces_are_loop_free_prefixes(
        path_len in 2usize..12,
        seed in 0u64..200,
        client_ip in 0u32..50_000,
        day in 0i64..108,
        test_index in 0u64..40,
    ) {
        use ndt_mlab::fault::{truncate_as_path, FaultPlan};
        use ndt_topology::Asn;

        // A loop-free path: strictly increasing ASNs.
        let path: Vec<Asn> = (0..path_len as u32).map(|i| Asn(64_000 + i)).collect();
        let plan = FaultPlan { fault_seed: seed, sidecar_truncation: 1.0, ..FaultPlan::NONE };
        let keep = plan
            .sidecar_truncated_len(client_ip, day, test_index, path.len())
            .expect("probability 1 must truncate");
        prop_assert!((1..path.len()).contains(&keep), "keep = {keep} of {}", path.len());
        let truncated = truncate_as_path(&path, keep);
        prop_assert_eq!(&truncated[..], &path[..keep], "not a prefix");
        let mut seen = std::collections::HashSet::new();
        prop_assert!(truncated.iter().all(|a| seen.insert(a.0)), "loop fabricated");
        // Determinism: the same key always truncates at the same hop.
        prop_assert_eq!(
            plan.sidecar_truncated_len(client_ip, day, test_index, path.len()),
            Some(keep)
        );
    }
}
