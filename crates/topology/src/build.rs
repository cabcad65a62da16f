//! Constructs the full network model: foreign transit mesh, M-Lab host
//! networks, Ukrainian transit and eyeball ASes, and the border links whose
//! behaviour the paper analyses in Figures 5 and 6.
//!
//! The AS-level structure is calibrated against the paper:
//!
//! * the top-10 Ukrainian ASes of Table 3 exist with footprints (market
//!   share per oblast) tuned so their simulated prewar test counts land near
//!   the paper's Table 5 counts;
//! * every border AS in Figure 5's vertical axis exists with plausible
//!   interconnects into Ukrainian transit;
//! * AS199995 receives ingress from exactly three foreign ASes — AS6663
//!   (primary, cheapest), Hurricane Electric AS6939 and RETN AS9002 — the
//!   configuration behind the Figure 6 case study;
//! * a long tail of synthetic regional ISPs carries the remaining ~60% of
//!   tests, so the top-10 stay a minority as in §5.2.

use crate::asn::{well_known as wk, AsCatalog, AsInfo, AsKind, Asn};
use crate::graph::{Relationship, RouterId, Topology};
use crate::ip::{Ipv4Addr, Prefix};
use ndt_geo::{haversine_km, LatLon, Oblast, WORLD_CITIES};
use std::collections::HashMap;

/// First ASN of the synthetic regional-ISP range. ASes at or above this
/// number stand in for the long tail of small real-world ISPs; analyses
/// that reproduce the paper's *named* top-10 exclude them from rankings.
pub const SYNTHETIC_ASN_BASE: u32 = 60_000;

/// Builder knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyConfig {
    /// Number of synthetic regional ISPs per oblast (beyond the top-10).
    pub synthetic_isps_per_oblast: usize,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self { synthetic_isps_per_oblast: 3 }
    }
}

/// An M-Lab hosting network at one metro.
#[derive(Debug, Clone, PartialEq)]
pub struct MLabHost {
    pub metro: &'static str,
    pub country: &'static str,
    pub loc: LatLon,
    pub asn: Asn,
    pub router: RouterId,
    /// Number of M-Lab sites this metro hosts (from the world catalogue).
    pub sites: u8,
}

/// The constructed model plus the side tables the platform simulator needs.
#[derive(Debug, Clone)]
pub struct BuiltTopology {
    pub topology: Topology,
    /// Home oblast of each Ukrainian router that can suffer wartime
    /// infrastructure damage: transit-core routers *and* eyeball edge
    /// routers. The damage process flaps links incident to these routers at
    /// a rate scaled by the oblast's conflict intensity, which is what
    /// couples path churn to regional damage (Table 2, Figure 9).
    pub transit_router_oblast: HashMap<RouterId, Oblast>,
    /// One hosting network per metro in the world catalogue.
    pub mlab_hosts: Vec<MLabHost>,
    /// Per-oblast eyeball market shares; each oblast's shares sum to 1.
    pub market_shares: HashMap<Oblast, Vec<(Asn, f64)>>,
    /// Eyeball edge router serving each (AS, oblast) footprint entry.
    pub edge_routers: HashMap<(Asn, Oblast), RouterId>,
    /// Address block of every AS (clients draw addresses from their
    /// eyeball's block).
    pub prefixes_by_as: HashMap<Asn, Prefix>,
    /// Ukrainian transit ASes.
    pub ua_transits: Vec<Asn>,
    /// Foreign border ASes (Figure 5 vertical axis).
    pub border_as: Vec<Asn>,
    /// The paper's top-10 Ukrainian ASes (Table 3 order).
    pub top10: Vec<Asn>,
}

impl BuiltTopology {
    /// Allocates the `i`-th client address inside an AS's block. Client
    /// space starts above the router space.
    ///
    /// # Panics
    /// Panics if the AS is unknown or the index exhausts the block.
    pub fn client_ip(&self, asn: Asn, i: u32) -> Ipv4Addr {
        let prefix = self.prefixes_by_as.get(&asn).unwrap_or_else(|| panic!("unknown {asn}"));
        prefix.nth(4096 + i as u64)
    }

    /// Catalogue shortcut.
    pub fn catalog(&self) -> &AsCatalog {
        &self.topology.catalog
    }
}

/// One-way link latency between two points: ~200 km/ms in fibre with 20%
/// route stretch, plus fixed equipment delay.
fn lat_ms(a: LatLon, b: LatLon) -> f64 {
    haversine_km(a, b) / 200.0 * 1.2 + 0.8
}

fn metro_loc(name: &str) -> LatLon {
    WORLD_CITIES.iter().find(|c| c.name == name).unwrap_or_else(|| panic!("unknown metro {name}")).loc
}

fn oblast_loc(o: Oblast) -> LatLon {
    o.center()
}

/// Sequential /16 allocator out of 10.0.0.0/8 and 11.0.0.0/8.
struct PrefixAlloc {
    next: u32,
}

impl PrefixAlloc {
    fn new() -> Self {
        Self { next: 0 }
    }

    fn alloc(&mut self) -> Prefix {
        let i = self.next;
        self.next += 1;
        assert!(i < 512, "address plan exhausted");
        let base = if i < 256 {
            u32::from_be_bytes([10, i as u8, 0, 0])
        } else {
            u32::from_be_bytes([11, (i - 256) as u8, 0, 0])
        };
        Prefix::new(Ipv4Addr(base), 16)
    }
}

struct Builder {
    topo: Topology,
    alloc: PrefixAlloc,
    prefixes_by_as: HashMap<Asn, Prefix>,
    /// Routers of each AS with their geographic placement.
    placed: HashMap<Asn, Vec<(RouterId, LatLon)>>,
    router_count: HashMap<Asn, u32>,
}

impl Builder {
    fn new() -> Self {
        Self {
            topo: Topology::new(),
            alloc: PrefixAlloc::new(),
            prefixes_by_as: HashMap::new(),
            placed: HashMap::new(),
            router_count: HashMap::new(),
        }
    }

    fn add_as(&mut self, asn: Asn, name: &str, country: &'static str, kind: AsKind, footprint: Vec<(Oblast, f64)>) {
        let prefix = self.alloc.alloc();
        self.prefixes_by_as.insert(asn, prefix);
        self.topo.add_as(AsInfo { asn, name: name.to_string(), country, kind, footprint }, prefix);
    }

    fn add_router(&mut self, asn: Asn, loc: LatLon, label: String) -> RouterId {
        let n = self.router_count.entry(asn).or_insert(0);
        let ip = self.prefixes_by_as[&asn].nth(1 + *n as u64);
        *n += 1;
        let id = self.topo.add_router(asn, ip, label);
        self.placed.entry(asn).or_default().push((id, loc));
        id
    }

    /// Nearest router of `asn` to a location.
    fn nearest_router(&self, asn: Asn, to: LatLon) -> (RouterId, LatLon) {
        *self
            .placed
            .get(&asn)
            .and_then(|rs| {
                rs.iter().min_by(|a, b| {
                    haversine_km(a.1, to).total_cmp(&haversine_km(b.1, to))
                })
            })
            .unwrap_or_else(|| panic!("{asn} has no routers"))
    }

    /// Links `a`'s router nearest to `b` with `b`'s router nearest to `a`.
    fn connect(&mut self, a: Asn, b: Asn, rel: Relationship, capacity: f64, loss: f64) {
        // Use each side's overall nearest pairing.
        let (ra, la) = {
            let rb_loc = self.placed[&b][0].1;
            self.nearest_router(a, rb_loc)
        };
        let (rb, lb) = self.nearest_router(b, la);
        let latency = lat_ms(la, lb);
        self.topo.add_link(ra, rb, rel, latency, capacity, loss);
    }

    /// Links two specific routers.
    fn connect_routers(&mut self, ra: (RouterId, LatLon), rb: (RouterId, LatLon), rel: Relationship, capacity: f64, loss: f64) {
        self.topo.add_link(ra.0, rb.0, rel, lat_ms(ra.1, rb.1), capacity, loss);
    }
}

/// Builds the full model.
///
/// Observability: the whole build runs under a `topology.build` span, and
/// the finished model's size is published as `topology.ases`,
/// `topology.routers` and `topology.links` gauges — the first sanity
/// check when a metrics artifact from a bad run lands on someone's desk.
pub fn build_topology(config: &TopologyConfig) -> BuiltTopology {
    let _span = ndt_obs::span("topology.build");
    let mut b = Builder::new();

    // ------------------------------------------------------------------
    // 1. Foreign transit / border ASes with multi-metro backbones.
    // ------------------------------------------------------------------
    let foreign: &[(Asn, &str, &'static str, &[&str])] = &[
        (wk::COGENT, "Cogent Networks", "US", &["Frankfurt", "Warsaw", "Amsterdam", "London", "New York"]),
        (wk::ARELION, "Arelion (Telia)", "SE", &["Stockholm", "Frankfurt", "Amsterdam", "New York"]),
        (wk::LUMEN, "Lumen (Level3)", "US", &["London", "Frankfurt", "New York"]),
        (wk::GTT, "GTT Communications", "US", &["Frankfurt", "London", "Amsterdam"]),
        (wk::HURRICANE_ELECTRIC, "Hurricane Electric", "US", &["Frankfurt", "Warsaw", "Vienna", "Amsterdam"]),
        (wk::RETN, "RETN", "GB", &["Warsaw", "Frankfurt", "Vilnius"]),
        (wk::AS6663, "Euroweb Romania", "RO", &["Bucharest", "Vienna"]),
        (wk::VODAFONE_CARRIER, "Vodafone Carrier", "GB", &["London", "Frankfurt"]),
    ];
    for (asn, name, cc, metros) in foreign {
        b.add_as(*asn, name, cc, AsKind::Border, vec![]);
        for m in *metros {
            b.add_router(*asn, metro_loc(m), format!("{name} {m}"));
        }
    }
    // Full settlement-free mesh among foreign transits.
    for i in 0..foreign.len() {
        for j in i + 1..foreign.len() {
            b.connect(foreign[i].0, foreign[j].0, Relationship::PeerToPeer, 200_000.0, 0.0001);
        }
    }

    // ------------------------------------------------------------------
    // 2. M-Lab hosting networks, one AS per metro, dual-homed to the two
    //    nearest foreign backbones.
    // ------------------------------------------------------------------
    let mut mlab_hosts = Vec::new();
    for (i, metro) in WORLD_CITIES.iter().enumerate() {
        let asn = Asn(64_500 + i as u32);
        b.add_as(asn, &format!("MLab Host {}", metro.name), metro.country, AsKind::MLabHost, vec![]);
        let router = b.add_router(asn, metro.loc, format!("mlab {}", metro.name));
        // Two nearest distinct foreign ASes.
        let mut by_dist: Vec<(Asn, f64)> = foreign
            .iter()
            .map(|(fa, ..)| (*fa, haversine_km(b.nearest_router(*fa, metro.loc).1, metro.loc)))
            .collect();
        by_dist.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (fa, _) in by_dist.iter().take(2) {
            b.connect(asn, *fa, Relationship::CustomerToProvider, 20_000.0, 0.0001);
        }
        mlab_hosts.push(MLabHost {
            metro: metro.name,
            country: metro.country,
            loc: metro.loc,
            asn,
            router,
            sites: metro.sites,
        });
    }

    // ------------------------------------------------------------------
    // 3. Ukrainian transit networks.
    // ------------------------------------------------------------------
    let kyiv = Oblast::KyivCity.center();
    let lviv = Oblast::Lviv.center();
    let odessa = Oblast::Odessa.center();
    let kharkiv = Oblast::Kharkiv.center();

    let ua_transits =
        vec![wk::UKRTELECOM_TRANSIT, wk::TRIOLAN, wk::DATAGROUP, wk::AS199995];
    let mut transit_router_oblast: HashMap<RouterId, Oblast> = HashMap::new();
    let metro_oblast = [
        (Oblast::KyivCity, kyiv),
        (Oblast::Lviv, lviv),
        (Oblast::Kharkiv, kharkiv),
        (Oblast::Odessa, odessa),
    ];
    let oblast_of = |loc: LatLon| {
        metro_oblast
            .iter()
            .find(|(_, l)| l.lat == loc.lat && l.lon == loc.lon)
            .map(|(o, _)| *o)
            .expect("transit routers live in catalogued metros")
    };
    b.add_as(wk::UKRTELECOM_TRANSIT, "Ukrtelecom", "UA", AsKind::UkrTransit, vec![]);
    for (loc, name) in [(kyiv, "Kyiv"), (lviv, "Lviv"), (kharkiv, "Kharkiv"), (odessa, "Odessa")] {
        let r = b.add_router(wk::UKRTELECOM_TRANSIT, loc, format!("Ukrtelecom {name}"));
        transit_router_oblast.insert(r, oblast_of(loc));
    }
    b.add_as(wk::TRIOLAN, "Triolan", "UA", AsKind::UkrTransit, vec![]);
    for (loc, name) in [(kharkiv, "Kharkiv"), (kyiv, "Kyiv")] {
        let r = b.add_router(wk::TRIOLAN, loc, format!("Triolan {name}"));
        transit_router_oblast.insert(r, oblast_of(loc));
    }
    b.add_as(wk::DATAGROUP, "Datagroup", "UA", AsKind::UkrTransit, vec![]);
    for (loc, name) in [(kyiv, "Kyiv"), (lviv, "Lviv"), (odessa, "Odessa")] {
        let r = b.add_router(wk::DATAGROUP, loc, format!("Datagroup {name}"));
        transit_router_oblast.insert(r, oblast_of(loc));
    }
    b.add_as(wk::AS199995, "Southern Crossing (AS199995)", "UA", AsKind::UkrTransit, vec![]);
    let r199995 = b.add_router(wk::AS199995, odessa, "AS199995 Odessa".to_string());
    transit_router_oblast.insert(r199995, Oblast::Odessa);

    // Border interconnects (customer→provider from the Ukrainian side).
    let border_pairs: &[(Asn, Asn, usize)] = &[
        // (ua transit, border AS, parallel link count)
        (wk::UKRTELECOM_TRANSIT, wk::HURRICANE_ELECTRIC, 3),
        (wk::UKRTELECOM_TRANSIT, wk::COGENT, 1),
        (wk::UKRTELECOM_TRANSIT, wk::RETN, 3),
        (wk::UKRTELECOM_TRANSIT, wk::LUMEN, 1),
        (wk::TRIOLAN, wk::HURRICANE_ELECTRIC, 1),
        (wk::TRIOLAN, wk::RETN, 1),
        (wk::DATAGROUP, wk::HURRICANE_ELECTRIC, 1),
        (wk::DATAGROUP, wk::COGENT, 1),
        (wk::DATAGROUP, wk::GTT, 1),
        // Figure 6: AS199995's three foreign ingresses; AS6663 is primary.
        (wk::AS199995, wk::AS6663, 1),
        (wk::AS199995, wk::HURRICANE_ELECTRIC, 1),
        (wk::AS199995, wk::RETN, 1),
    ];
    for (ua, border, parallels) in border_pairs {
        let ua_routers: Vec<(RouterId, LatLon)> = b.placed[ua].clone();
        for k in 0..*parallels {
            // The first two parallels spread across the transit's domestic
            // routers (geographic redundancy); further parallels repeat the
            // first PoP pair — multiple physical circuits between the same
            // routers, i.e. the interface aliasing that IP-level path
            // counting overstates and alias resolution undoes.
            let ua_side = ua_routers[k % ua_routers.len().min(2)];
            let border_side = b.nearest_router(*border, ua_side.1);
            b.connect_routers(ua_side, border_side, Relationship::CustomerToProvider, 100_000.0, 0.0002);
        }
    }
    // Make AS6663 the clearly cheapest path into AS199995 (short
    // Bucharest–Odessa hop already gives it the lowest latency).

    // ------------------------------------------------------------------
    // 4. Top-10 eyeball ASes (Table 3), with paper-calibrated footprints.
    // ------------------------------------------------------------------
    use Oblast::*;
    let national: Vec<(Oblast, f64)> = Oblast::all().map(|o| (o, 1.0)).collect();
    let scale = |fp: &[(Oblast, f64)], s: f64| fp.iter().map(|&(o, w)| (o, w * s)).collect::<Vec<_>>();

    struct EyeballSpec {
        asn: Asn,
        name: &'static str,
        footprint: Vec<(Oblast, f64)>,
        /// Providers: Ukrainian transit and/or direct border uplinks.
        providers: Vec<Asn>,
        /// Headquarters oblast: uplinks attach at this footprint router, so
        /// wartime damage to the home region shakes the AS's routing.
        home: Oblast,
    }
    let top10 = vec![
        EyeballSpec {
            asn: wk::KYIVSTAR,
            name: "Kyivstar",
            footprint: scale(&national, 0.095),
            providers: vec![wk::COGENT, wk::RETN, wk::ARELION],
            home: Oblast::KyivCity,
        },
        EyeballSpec {
            asn: wk::UARNET,
            name: "UARNet",
            // The academic network spans the western universities plus a
            // Kyiv presence; shares are calibrated so its national test
            // count lands near Table 5's 1,934 prewar tests without letting
            // it dominate any single city's mean.
            footprint: vec![
                (Lviv, 0.35),
                (IvanoFrankivsk, 0.25),
                (Ternopil, 0.25),
                (Volyn, 0.20),
                (Rivne, 0.20),
                (Khmelnytskyy, 0.15),
                (KyivCity, 0.05),
            ],
            providers: vec![wk::UKRTELECOM_TRANSIT, wk::RETN],
            home: Oblast::Lviv,
        },
        EyeballSpec {
            asn: wk::KYIV_TELECOM,
            name: "Kyiv Telecom",
            footprint: vec![(KyivCity, 0.138)],
            providers: vec![wk::UKRTELECOM_TRANSIT, wk::DATAGROUP],
            home: Oblast::KyivCity,
        },
        EyeballSpec {
            asn: wk::DATALINE,
            name: "Dataline",
            footprint: vec![(KyivCity, 0.073)],
            providers: vec![wk::UKRTELECOM_TRANSIT, wk::DATAGROUP],
            home: Oblast::KyivCity,
        },
        EyeballSpec {
            asn: wk::EMPLOT,
            name: "Emplot LTd.",
            footprint: vec![(KyivCity, 0.161)],
            providers: vec![wk::DATAGROUP, wk::TRIOLAN],
            home: Oblast::KyivCity,
        },
        EyeballSpec {
            asn: wk::VODAFONE_UKR,
            name: "Vodafone UKr",
            footprint: scale(&national, 0.026),
            providers: vec![wk::VODAFONE_CARRIER, wk::UKRTELECOM_TRANSIT],
            home: Oblast::KyivCity,
        },
        EyeballSpec {
            asn: wk::TENET,
            name: "TeNeT",
            footprint: vec![(Odessa, 0.51)],
            providers: vec![wk::AS199995, wk::DATAGROUP],
            home: Oblast::Odessa,
        },
        EyeballSpec {
            asn: wk::UKR_TELECOM,
            name: "Ukr Telecom",
            footprint: scale(&national, 0.010),
            providers: vec![wk::GTT, wk::UKRTELECOM_TRANSIT],
            home: Oblast::KyivCity,
        },
        EyeballSpec {
            asn: wk::LANET,
            name: "Lanet",
            footprint: vec![(KyivCity, 0.070), (Chernihiv, 0.20)],
            providers: vec![wk::UKRTELECOM_TRANSIT, wk::TRIOLAN],
            home: Oblast::KyivCity,
        },
        EyeballSpec {
            asn: wk::SKIF,
            name: "SKIF ISP Ltd.",
            footprint: vec![(KyivCity, 0.069)],
            providers: vec![wk::DATAGROUP, wk::UKRTELECOM_TRANSIT],
            home: Oblast::KyivCity,
        },
    ];

    let mut market_shares: HashMap<Oblast, Vec<(Asn, f64)>> = HashMap::new();
    let mut edge_routers: HashMap<(Asn, Oblast), RouterId> = HashMap::new();
    let top10_asns: Vec<Asn> = top10.iter().map(|e| e.asn).collect();

    for spec in &top10 {
        b.add_as(spec.asn, spec.name, "UA", AsKind::UkrEyeball, spec.footprint.clone());
        // One edge router per footprint oblast; the home oblast hosts the
        // uplink router.
        for (oblast, share) in &spec.footprint {
            let r = b.add_router(spec.asn, oblast_loc(*oblast), format!("{} {}", spec.name, oblast.name()));
            edge_routers.insert((spec.asn, *oblast), r);
            transit_router_oblast.insert(r, *oblast);
            market_shares.entry(*oblast).or_default().push((spec.asn, *share));
        }
        let home_router = edge_routers[&(spec.asn, spec.home)];
        let home_loc = oblast_loc(spec.home);
        for provider in &spec.providers {
            let provider_side = b.nearest_router(*provider, home_loc);
            b.connect_routers(
                (home_router, home_loc),
                provider_side,
                Relationship::CustomerToProvider,
                40_000.0,
                0.0005,
            );
        }
    }

    // ------------------------------------------------------------------
    // 5. Synthetic regional ISPs filling each oblast's remaining share.
    // ------------------------------------------------------------------
    let mut next_synthetic = SYNTHETIC_ASN_BASE;
    for oblast in Oblast::all() {
        let assigned: f64 = market_shares.get(&oblast).map(|v| v.iter().map(|e| e.1).sum()).unwrap_or(0.0);
        let remainder = (1.0 - assigned).max(0.0);
        let n = config.synthetic_isps_per_oblast.max(1);
        // Split the remainder 60/40 (or evenly for n > 2).
        let splits: Vec<f64> = match n {
            1 => vec![1.0],
            2 => vec![0.6, 0.4],
            3 => vec![0.45, 0.33, 0.22],
            _ => vec![1.0 / n as f64; n],
        };
        let transits: Vec<Asn> = match oblast.front() {
            ndt_geo::Front::South | ndt_geo::Front::Occupied => vec![wk::AS199995, wk::DATAGROUP],
            ndt_geo::Front::East => vec![wk::TRIOLAN, wk::UKRTELECOM_TRANSIT],
            _ => vec![wk::UKRTELECOM_TRANSIT, wk::DATAGROUP],
        };
        for (k, frac) in splits.iter().enumerate() {
            let asn = Asn(next_synthetic);
            next_synthetic += 1;
            let share = remainder * frac;
            let name = format!("{} ISP {}", oblast.name(), k + 1);
            b.add_as(asn, &name, "UA", AsKind::UkrEyeball, vec![(oblast, share)]);
            let r = b.add_router(asn, oblast_loc(oblast), name.clone());
            edge_routers.insert((asn, oblast), r);
            transit_router_oblast.insert(r, oblast);
            market_shares.entry(oblast).or_default().push((asn, share));
            for t in &transits {
                b.connect(asn, *t, Relationship::CustomerToProvider, 40_000.0, 0.0005);
            }
        }
    }

    // Normalize market shares defensively (they are constructed to sum to 1).
    for shares in market_shares.values_mut() {
        let total: f64 = shares.iter().map(|e| e.1).sum();
        if total > 0.0 {
            for e in shares.iter_mut() {
                e.1 /= total;
            }
        }
    }

    ndt_obs::set_gauge("topology.ases", b.topo.catalog.len() as u64);
    ndt_obs::set_gauge("topology.routers", b.topo.routers().len() as u64);
    ndt_obs::set_gauge("topology.links", b.topo.links().len() as u64);

    BuiltTopology {
        topology: b.topo,
        transit_router_oblast,
        mlab_hosts,
        market_shares,
        edge_routers,
        prefixes_by_as: b.prefixes_by_as,
        ua_transits,
        border_as: foreign.iter().map(|(a, ..)| *a).collect(),
        top10: top10_asns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{RoutingConfig, RoutingEngine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn built() -> BuiltTopology {
        build_topology(&TopologyConfig::default())
    }

    #[test]
    fn catalogue_contains_paper_ases() {
        let bt = built();
        for asn in [wk::KYIVSTAR, wk::TENET, wk::SKIF, wk::HURRICANE_ELECTRIC, wk::AS6663, wk::AS199995] {
            assert!(bt.catalog().get(asn).is_some(), "{asn} missing");
        }
        assert_eq!(bt.top10.len(), 10);
        assert_eq!(bt.border_as.len(), 8);
        assert_eq!(bt.mlab_hosts.len(), 54);
        let total_sites: u32 = bt.mlab_hosts.iter().map(|h| h.sites as u32).sum();
        assert_eq!(total_sites, 210);
    }

    #[test]
    fn market_shares_sum_to_one() {
        let bt = built();
        for oblast in Oblast::all() {
            let shares = &bt.market_shares[&oblast];
            let sum: f64 = shares.iter().map(|e| e.1).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{oblast}: {sum}");
            assert!(shares.iter().all(|e| e.1 >= 0.0));
        }
    }

    #[test]
    fn every_eyeball_is_reachable_from_every_host() {
        let bt = built();
        let mut eng = RoutingEngine::new();
        let mut rng = StdRng::seed_from_u64(1);
        let eyeballs: Vec<Asn> =
            bt.catalog().of_kind(AsKind::UkrEyeball).map(|e| e.asn).collect();
        assert!(eyeballs.len() > 30);
        // Check a representative host (Warsaw) against all eyeballs, and all
        // hosts against one eyeball.
        let warsaw = bt.mlab_hosts.iter().find(|h| h.metro == "Warsaw").unwrap().asn;
        for &e in &eyeballs {
            assert!(
                eng.select_path(&bt.topology, warsaw, e, &mut rng).is_some(),
                "unreachable eyeball {e}"
            );
        }
        for h in &bt.mlab_hosts {
            assert!(
                eng.select_path(&bt.topology, h.asn, wk::KYIVSTAR, &mut rng).is_some(),
                "Kyivstar unreachable from {}",
                h.metro
            );
        }
    }

    #[test]
    fn as199995_has_exactly_three_foreign_ingresses() {
        let bt = built();
        let mut foreign: Vec<Asn> = bt
            .topology
            .links_of(wk::AS199995)
            .filter(|l| !bt.catalog().is_ukrainian(l.peer_of(wk::AS199995)))
            .map(|l| l.peer_of(wk::AS199995))
            .collect();
        foreign.sort_unstable();
        foreign.dedup();
        assert_eq!(foreign.len(), 3, "foreign ingresses: {foreign:?}");
        assert!(foreign.contains(&wk::AS6663));
        assert!(foreign.contains(&wk::HURRICANE_ELECTRIC));
        assert!(foreign.contains(&wk::RETN));
    }

    #[test]
    fn as6663_is_cheapest_ingress_into_as199995() {
        let bt = built();
        let links: Vec<_> = bt
            .topology
            .links_of(wk::AS199995)
            .filter(|l| !bt.catalog().is_ukrainian(l.peer_of(wk::AS199995)))
            .collect();
        let cheapest = links
            .iter()
            .min_by(|a, b| a.latency_ms.partial_cmp(&b.latency_ms).unwrap())
            .unwrap();
        assert_eq!(cheapest.peer_of(wk::AS199995), wk::AS6663);
    }

    #[test]
    fn paths_to_tenet_prefer_as199995_primary() {
        // TeNeT sits behind AS199995; with full bias the selected route must
        // descend through it (or Datagroup) and cross the border exactly once.
        let bt = built();
        let cfg = RoutingConfig { primary_bias: 1.0, parallel_primary_bias: 1.0, ..Default::default() };
        let mut eng = RoutingEngine::with_config(cfg);
        let mut rng = StdRng::seed_from_u64(2);
        let bucharest = bt.mlab_hosts.iter().find(|h| h.metro == "Bucharest").unwrap().asn;
        let p = eng.select_path(&bt.topology, bucharest, wk::TENET, &mut rng).unwrap();
        let crossing = p.border_crossing(bt.catalog()).expect("must cross the border");
        assert!(bt.border_as.contains(&crossing.0), "crossing {crossing:?}");
        assert!(bt.catalog().is_ukrainian(crossing.1));
    }

    #[test]
    fn prewar_weighted_market_matches_table5_order() {
        // Kyivstar must have the largest expected national test share among
        // the top-10 (Table 5: 3367 prewar tests, the most).
        let bt = built();
        let national_share = |asn: Asn| -> f64 {
            Oblast::all()
                .map(|o| {
                    let w = o.prewar_weight();
                    bt.market_shares[&o]
                        .iter()
                        .find(|e| e.0 == asn)
                        .map(|e| e.1 * w)
                        .unwrap_or(0.0)
                })
                .sum()
        };
        let kyivstar = national_share(wk::KYIVSTAR);
        for &other in &bt.top10 {
            if other != wk::KYIVSTAR {
                assert!(
                    kyivstar >= national_share(other),
                    "{other} outweighs Kyivstar"
                );
            }
        }
    }

    #[test]
    fn client_ips_resolve_to_their_as() {
        let bt = built();
        let ip = bt.client_ip(wk::TENET, 7);
        assert_eq!(bt.topology.prefixes.lookup(ip), Some(wk::TENET));
    }
}
