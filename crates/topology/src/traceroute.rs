//! Scamper-style traceroute rendering.
//!
//! M-Lab runs a scamper sidecar that traceroutes *toward the client* for
//! every NDT test (§3). The reproduction renders a selected [`Path`] as the
//! hop list scamper would record: one hop per router interface crossed,
//! with cumulative round-trip times, terminated by the client address.

use crate::asn::Asn;
use crate::graph::Topology;
use crate::ip::Ipv4Addr;
use crate::path::Path;
use rand::{Rng, RngExt as _};

/// One traceroute hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracerouteHop {
    pub ip: Ipv4Addr,
    /// Origin AS of the hop address (from the prefix table).
    pub asn: Option<Asn>,
    /// Round-trip time to this hop in milliseconds.
    pub rtt_ms: f64,
}

/// A complete traceroute from an M-Lab server toward a client.
#[derive(Debug, Clone, PartialEq)]
pub struct Traceroute {
    pub hops: Vec<TracerouteHop>,
}

impl Traceroute {
    /// Runs a traceroute along `path`, appending the client's last-mile hop.
    ///
    /// `edge_extra_ms` is the one-way latency of the client's access segment
    /// (backbone tail + last mile), added before the final client hop.
    /// Per-hop RTTs get small positive queueing jitter.
    pub fn run<R: Rng + ?Sized>(
        topo: &Topology,
        path: &Path,
        client_ip: Ipv4Addr,
        edge_extra_ms: f64,
        rng: &mut R,
    ) -> Self {
        let mut hops = Vec::with_capacity(path.router_seq.len() + 1);
        let mut cum_oneway = 0.0;
        let mut cur_asn = *path.as_seq.first().expect("path has a source AS");
        let mut link_iter = path.link_seq.iter();
        for pair in path.router_seq.chunks(2) {
            let lid = *link_iter.next().expect("one link per router pair");
            let link = topo.link(lid);
            let (egress_if, ingress_if) = if link.a_asn == cur_asn {
                (link.a_if, link.b_if)
            } else {
                (link.b_if, link.a_if)
            };
            // The egress interface responds before the link is crossed; the
            // ingress interface after.
            hops.push(TracerouteHop {
                ip: egress_if,
                asn: topo.prefixes.lookup(egress_if),
                rtt_ms: 2.0 * cum_oneway + jitter(rng),
            });
            cum_oneway += link.latency();
            hops.push(TracerouteHop {
                ip: ingress_if,
                asn: topo.prefixes.lookup(ingress_if),
                rtt_ms: 2.0 * cum_oneway + jitter(rng),
            });
            let _ = pair;
            cur_asn = link.peer_of(cur_asn);
        }
        cum_oneway += edge_extra_ms;
        hops.push(TracerouteHop {
            ip: client_ip,
            asn: topo.prefixes.lookup(client_ip),
            rtt_ms: 2.0 * cum_oneway + jitter(rng),
        });
        Traceroute { hops }
    }

    /// Number of hops recorded.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the traceroute recorded no hops.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

/// Small positive queueing jitter (sub-millisecond scale).
fn jitter<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    rng.random::<f64>() * 0.4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsInfo, AsKind};
    use crate::graph::Relationship;
    use crate::ip::Prefix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_hop() -> (Topology, Path, Ipv4Addr) {
        let mut t = Topology::new();
        for (i, (asn, cc)) in [(1u32, "DE"), (2, "UA")].into_iter().enumerate() {
            t.add_as(
                AsInfo {
                    asn: Asn(asn),
                    name: format!("AS{asn}"),
                    country: cc,
                    kind: if cc == "UA" { AsKind::UkrEyeball } else { AsKind::MLabHost },
                    footprint: vec![],
                },
                Prefix::new(Ipv4Addr::from_octets(10, i as u8 + 1, 0, 0), 16),
            );
        }
        let r1 = t.add_router(Asn(1), Ipv4Addr::from_octets(10, 1, 0, 1), "site");
        let r2 = t.add_router(Asn(2), Ipv4Addr::from_octets(10, 2, 0, 1), "edge");
        let l = t.add_link(r1, r2, Relationship::CustomerToProvider, 12.0, 10_000.0, 0.001);
        let p = Path::from_links(&t, Asn(1), &[l]);
        (t, p, Ipv4Addr::from_octets(10, 2, 16, 5))
    }

    #[test]
    fn hops_are_ordered_and_annotated() {
        let (t, p, client) = two_hop();
        let mut rng = StdRng::seed_from_u64(1);
        let tr = Traceroute::run(&t, &p, client, 3.0, &mut rng);
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.hops[0].asn, Some(Asn(1)));
        assert_eq!(tr.hops[1].asn, Some(Asn(2)));
        assert_eq!(tr.hops[2].ip, client);
        assert_eq!(tr.hops[2].asn, Some(Asn(2)));
        // RTTs are non-decreasing up to jitter and reflect latency.
        assert!(tr.hops[2].rtt_ms >= 2.0 * (12.0 + 3.0) - 1e-9);
        assert!(tr.hops[0].rtt_ms < tr.hops[2].rtt_ms);
    }
}
