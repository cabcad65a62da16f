//! M-Lab sites and the geographic load balancer.

use ndt_geo::{haversine_km, CityId, LatLon};
use ndt_topology::{Asn, BuiltTopology, Ipv4Addr};

/// Index of a site in the platform's site list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteId(pub u16);

/// One M-Lab site: a measurement server inside a hosting AS at a metro.
#[derive(Debug, Clone, PartialEq)]
pub struct Site {
    pub id: SiteId,
    /// Site name: metro slug + index, e.g. "warsaw02".
    pub name: String,
    pub metro: &'static str,
    pub country: &'static str,
    pub loc: LatLon,
    pub host_asn: Asn,
    pub server_ip: Ipv4Addr,
}

/// The platform's site list plus nearest-metro dispatch.
///
/// §3: "a load balancing service directs each client to a measurement site
/// that is geographically nearest to them". Within the nearest metro a
/// client is *pinned* to one of the metro's sites by a stable hash of its
/// address, so repeated tests form a stable (client, server) connection —
/// the unit of the paper's path-diversity analysis.
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    sites: Vec<Site>,
    /// Site indices grouped by metro, in site order — the dispatch set a
    /// client is pinned into once its nearest metro is known. Built once so
    /// `site_for` never allocates.
    metro_groups: Vec<(&'static str, Vec<u16>)>,
}

impl LoadBalancer {
    /// Instantiates all 210 sites from the built topology's hosting metros.
    pub fn new(bt: &BuiltTopology) -> Self {
        let mut sites = Vec::new();
        for host in &bt.mlab_hosts {
            for k in 0..host.sites {
                let id = SiteId(sites.len() as u16);
                let prefix = bt.prefixes_by_as[&host.asn];
                sites.push(Site {
                    id,
                    name: format!("{}{:02}", metro_slug(host.metro), k + 1),
                    metro: host.metro,
                    country: host.country,
                    loc: host.loc,
                    host_asn: host.asn,
                    // Server addresses sit above the router space.
                    server_ip: prefix.nth(100 + k as u64),
                });
            }
        }
        let mut metro_groups: Vec<(&'static str, Vec<u16>)> = Vec::new();
        for (i, s) in sites.iter().enumerate() {
            match metro_groups.iter_mut().find(|(m, _)| *m == s.metro) {
                Some((_, group)) => group.push(i as u16),
                None => metro_groups.push((s.metro, vec![i as u16])),
            }
        }
        Self { sites, metro_groups }
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// The site a client at `loc` with address `client_ip` is dispatched to.
    pub fn site_for(&self, loc: LatLon, client_ip: Ipv4Addr) -> &Site {
        // Single pass, one haversine per site. `<=` keeps the *last* minimum,
        // matching `Iterator::min_by`'s tie-break (co-located sites tie).
        let mut nearest_metro = "";
        let mut best = f64::INFINITY;
        for s in &self.sites {
            let d = haversine_km(s.loc, loc);
            if d <= best {
                best = d;
                nearest_metro = s.metro;
            }
        }
        let (_, metro_sites) = self
            .metro_groups
            .iter()
            .find(|(m, _)| *m == nearest_metro)
            .expect("platform has sites");
        // Stable per-client pinning within the metro.
        let h = (client_ip.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.sites[metro_sites[(h % metro_sites.len() as u64) as usize] as usize]
    }

    /// Dispatch for a client in a catalogue city.
    pub fn site_for_city(&self, city: CityId, client_ip: Ipv4Addr) -> &Site {
        self.site_for(city.get().loc, client_ip)
    }
}

/// Lowercased metro slug ("Sao Paulo" → "saopaulo") — unique per metro,
/// unlike airport-style three-letter codes (Chisinau/Chicago collide).
fn metro_slug(metro: &str) -> String {
    metro.chars().filter(|c| c.is_ascii_alphabetic()).collect::<String>().to_ascii_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndt_geo::city::city_by_name;
    use ndt_topology::{build_topology, TopologyConfig};

    fn lb() -> LoadBalancer {
        LoadBalancer::new(&build_topology(&TopologyConfig::default()))
    }

    #[test]
    fn instantiates_210_sites() {
        let lb = lb();
        assert_eq!(lb.sites().len(), 210);
        // Names unique.
        let mut names: Vec<&str> = lb.sites().iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 210);
    }

    #[test]
    fn ukrainian_clients_go_to_nearby_europe() {
        let lb = lb();
        let (kyiv, info) = city_by_name("Kyiv").unwrap();
        let site = lb.site_for_city(kyiv, Ipv4Addr(12345));
        assert!(
            haversine_km(site.loc, info.loc) < 900.0,
            "Kyiv dispatched to {} ({} km away)",
            site.metro,
            haversine_km(site.loc, info.loc)
        );
        assert_ne!(site.country, "UA");
        assert_ne!(site.country, "RU");
    }

    #[test]
    fn pinning_is_stable_per_client() {
        let lb = lb();
        let (lviv, _) = city_by_name("Lviv").unwrap();
        let a1 = lb.site_for_city(lviv, Ipv4Addr(1)).id;
        let a2 = lb.site_for_city(lviv, Ipv4Addr(1)).id;
        assert_eq!(a1, a2);
        // Different clients in a multi-site metro spread across sites.
        let distinct: std::collections::HashSet<_> =
            (0..64u32).map(|i| lb.site_for_city(lviv, Ipv4Addr(i)).id).collect();
        assert!(distinct.len() > 1, "no spreading across metro sites");
        // But all within one metro.
        let metros: std::collections::HashSet<_> =
            (0..64u32).map(|i| lb.site_for_city(lviv, Ipv4Addr(i)).metro).collect();
        assert_eq!(metros.len(), 1);
    }

    #[test]
    fn server_ips_belong_to_host_as() {
        let bt = build_topology(&TopologyConfig::default());
        let lb = LoadBalancer::new(&bt);
        for s in lb.sites().iter().take(20) {
            assert_eq!(bt.topology.prefixes.lookup(s.server_ip), Some(s.host_asn));
        }
    }
}
