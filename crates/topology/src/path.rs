//! A concrete forwarding path and its end-to-end characteristics.

use crate::asn::{AsCatalog, Asn};
use crate::graph::{LinkId, RouterId, Topology};
use crate::ip::Ipv4Addr;

/// A server→client forwarding path: an ordered sequence of inter-AS links,
/// with derived AS sequence, router sequence and end-to-end metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// AS sequence from the M-Lab host AS down to the client's access AS.
    pub as_seq: Vec<Asn>,
    /// The traversed inter-AS links, in order.
    pub link_seq: Vec<LinkId>,
    /// Router interfaces in traversal order (egress/ingress of each link).
    pub router_seq: Vec<RouterId>,
    /// One-way propagation latency along the path in milliseconds
    /// (including damage multipliers at traversal time).
    pub oneway_latency_ms: f64,
    /// Minimum link capacity along the path in Mbps.
    pub bottleneck_mbps: f64,
    /// End-to-end loss probability of the core path (excludes the client's
    /// last-mile, which the platform simulator adds separately).
    pub core_loss: f64,
}

impl Path {
    /// Assembles a path from an ordered link sequence starting at `src_asn`.
    ///
    /// # Panics
    /// Panics if the links do not form a chain starting at `src_asn`, or if
    /// any link is down.
    pub fn from_links(topo: &Topology, src_asn: Asn, links: &[LinkId]) -> Self {
        let mut as_seq = vec![src_asn];
        let mut router_seq = Vec::with_capacity(links.len() * 2);
        let mut latency = 0.0;
        let mut bottleneck = f64::INFINITY;
        let mut pass = 1.0;
        let mut cur = src_asn;
        for &lid in links {
            let link = topo.link(lid);
            assert!(link.state.up, "path traverses a down link {lid:?}");
            let next = link.peer_of(cur);
            // Orient the link: egress router in `cur`, ingress in `next`.
            let (egress, ingress) =
                if link.a_asn == cur { (link.a, link.b) } else { (link.b, link.a) };
            router_seq.push(egress);
            router_seq.push(ingress);
            latency += link.latency();
            bottleneck = bottleneck.min(link.capacity_mbps);
            pass *= 1.0 - link.loss();
            as_seq.push(next);
            cur = next;
        }
        Path {
            as_seq,
            link_seq: links.to_vec(),
            router_seq,
            oneway_latency_ms: latency,
            bottleneck_mbps: bottleneck,
            core_loss: 1.0 - pass,
        }
    }

    /// Interface addresses observed along the path, in traversal order
    /// (egress then ingress interface of every link) — what a traceroute
    /// actually records.
    pub fn ips(&self, topo: &Topology) -> Vec<Ipv4Addr> {
        let mut out = Vec::with_capacity(self.link_seq.len() * 2);
        self.for_each_ip(topo, |ip| out.push(ip));
        out
    }

    /// Visits the interface addresses along the path in traversal order —
    /// the streaming form of [`Path::ips`] for hot paths that only need to
    /// fold over the addresses (e.g. fingerprinting) without allocating.
    pub fn for_each_ip(&self, topo: &Topology, mut f: impl FnMut(Ipv4Addr)) {
        let mut cur = *self.as_seq.first().expect("path has a source AS");
        for &lid in &self.link_seq {
            let link = topo.link(lid);
            let (egress, ingress) =
                if link.a_asn == cur { (link.a_if, link.b_if) } else { (link.b_if, link.a_if) };
            f(egress);
            f(ingress);
            cur = link.peer_of(cur);
        }
    }

    /// Stable fingerprint of the *IP-level* path — FNV-1a over the link
    /// (interface-pair) sequence. This is the unit of the paper's §5.1
    /// distinct-path counting: traceroutes see interfaces, so two
    /// traversals of the same routers over different interconnects count
    /// as different paths.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for l in &self.link_seq {
            h ^= l.0 as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// Fingerprint of the *router-level* path — FNV-1a over the router
    /// sequence. Two interface-level paths that traverse the same routers
    /// collapse to one router-level path; the alias-resolution extension
    /// (paper §5.1 future work) measures how much §5.1's IP-level counting
    /// overstates diversity relative to this ground truth.
    pub fn router_fingerprint(&self) -> u64 {
        let mut h: u64 = 0x84222325_cbf29ce4;
        for r in &self.router_seq {
            h ^= r.0 as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    /// The border crossing: the first link whose upstream side is foreign
    /// and downstream side is Ukrainian, as `(border_asn, ukrainian_asn)` —
    /// the axis pair of the paper's Figure 5 heat map.
    pub fn border_crossing(&self, catalog: &AsCatalog) -> Option<(Asn, Asn)> {
        self.as_seq.windows(2).find_map(|w| {
            let (from, to) = (w[0], w[1]);
            if !catalog.is_ukrainian(from) && catalog.is_ukrainian(to) {
                Some((from, to))
            } else {
                None
            }
        })
    }

    /// Whether the path traverses a given AS.
    pub fn traverses(&self, asn: Asn) -> bool {
        self.as_seq.contains(&asn)
    }

    /// Number of AS-level hops.
    pub fn as_hops(&self) -> usize {
        self.as_seq.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsInfo, AsKind};
    use crate::graph::Relationship;
    use crate::ip::Prefix;

    /// host(1) -- border(2) -- ua transit(3) -- ua eyeball(4)
    fn chain() -> (Topology, Vec<LinkId>) {
        let mut t = Topology::new();
        let specs = [
            (1u32, "Host", "DE", AsKind::MLabHost),
            (2, "Border", "US", AsKind::Border),
            (3, "UaTransit", "UA", AsKind::UkrTransit),
            (4, "UaEyeball", "UA", AsKind::UkrEyeball),
        ];
        let mut routers = Vec::new();
        for (i, (asn, name, cc, kind)) in specs.into_iter().enumerate() {
            t.add_as(
                AsInfo { asn: Asn(asn), name: name.into(), country: cc, kind, footprint: vec![] },
                Prefix::new(Ipv4Addr::from_octets(10, i as u8 + 1, 0, 0), 16),
            );
            let r = t.add_router(Asn(asn), Ipv4Addr::from_octets(10, i as u8 + 1, 0, 1), name);
            routers.push(r);
        }
        let l1 = t.add_link(routers[0], routers[1], Relationship::CustomerToProvider, 10.0, 10_000.0, 0.001);
        let l2 = t.add_link(routers[1], routers[2], Relationship::ProviderToCustomer, 15.0, 5_000.0, 0.002);
        let l3 = t.add_link(routers[2], routers[3], Relationship::ProviderToCustomer, 5.0, 1_000.0, 0.003);
        (t, vec![l1, l2, l3])
    }

    #[test]
    fn metrics_accumulate() {
        let (t, links) = chain();
        let p = Path::from_links(&t, Asn(1), &links);
        assert_eq!(p.as_seq, vec![Asn(1), Asn(2), Asn(3), Asn(4)]);
        assert_eq!(p.as_hops(), 3);
        assert!((p.oneway_latency_ms - 30.0).abs() < 1e-12);
        assert_eq!(p.bottleneck_mbps, 1_000.0);
        let expected_loss = 1.0 - 0.999 * 0.998 * 0.997;
        assert!((p.core_loss - expected_loss).abs() < 1e-12);
        assert_eq!(p.router_seq.len(), 6);
    }

    #[test]
    fn border_crossing_detected() {
        let (t, links) = chain();
        let p = Path::from_links(&t, Asn(1), &links);
        assert_eq!(p.border_crossing(&t.catalog), Some((Asn(2), Asn(3))));
        assert!(p.traverses(Asn(3)));
        assert!(!p.traverses(Asn(99)));
    }

    #[test]
    fn fingerprint_distinguishes_paths() {
        let (t, links) = chain();
        let full = Path::from_links(&t, Asn(1), &links);
        let partial = Path::from_links(&t, Asn(1), &links[..2]);
        assert_ne!(full.fingerprint(), partial.fingerprint());
        assert_eq!(full.fingerprint(), Path::from_links(&t, Asn(1), &links).fingerprint());
        assert_ne!(full.router_fingerprint(), partial.router_fingerprint());
    }

    #[test]
    fn parallel_links_same_routers_differ_only_at_ip_level() {
        // Two parallel links between the *same* router pair: distinct
        // interface-level paths, identical router-level paths.
        let (mut t, links) = chain();
        let l1 = links[0];
        let (ra, rb) = (t.link(l1).a, t.link(l1).b);
        let l1b = t.add_link(ra, rb, Relationship::CustomerToProvider, 11.0, 10_000.0, 0.001);
        let p1 = Path::from_links(&t, Asn(1), &[l1, links[1], links[2]]);
        let p2 = Path::from_links(&t, Asn(1), &[l1b, links[1], links[2]]);
        assert_ne!(p1.fingerprint(), p2.fingerprint(), "interfaces differ");
        assert_eq!(p1.router_fingerprint(), p2.router_fingerprint(), "routers identical");
        assert_ne!(p1.ips(&t)[0], p2.ips(&t)[0]);
    }

    #[test]
    #[should_panic(expected = "down link")]
    fn down_link_rejected() {
        let (mut t, links) = chain();
        t.set_link_up(links[1], false);
        Path::from_links(&t, Asn(1), &links);
    }

    #[test]
    fn damage_reflected_in_metrics() {
        let (mut t, links) = chain();
        t.degrade_link(links[2], 0.1, 3.0);
        let p = Path::from_links(&t, Asn(1), &links);
        assert!((p.oneway_latency_ms - (10.0 + 15.0 + 15.0)).abs() < 1e-12);
        assert!(p.core_loss > 0.1);
    }
}
