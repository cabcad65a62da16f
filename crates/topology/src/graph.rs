//! The network graph: ASes, their routers, and inter-AS links.
//!
//! Routing in the reproduction is two-level, mirroring how the paper reasons
//! about its traceroutes: an AS-level path (the unit of §5.2's analysis) is
//! selected first, then expanded to the specific routers pinned to each
//! inter-AS link (the IP-level unit of §5.1's path-diversity analysis).
//! Parallel links between the same AS pair model distinct physical
//! interconnects; they are what gives one AS-level route several IP-level
//! realizations.
//!
//! Links carry latency, capacity and loss, plus two kinds of mutable state:
//!
//! * **up/down** — failing a link bumps the topology [`version`]
//!   (invalidating cached routes, like a BGP reconvergence);
//! * **degradation** — added loss and a latency multiplier, which do *not*
//!   re-route traffic (BGP is performance-oblivious; this is exactly the
//!   mechanism behind Figure 6, where traffic keeps flowing through a
//!   degrading ingress until availability, not quality, changes).
//!
//! [`version`]: Topology::version

use crate::asn::{AsCatalog, AsInfo, Asn};
use crate::ip::{Ipv4Addr, Prefix, PrefixTable};
use std::collections::HashMap;

/// Index of a router in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId(pub u32);

/// Index of an inter-AS link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// A router interface participating in inter-AS links.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    pub id: RouterId,
    pub asn: Asn,
    pub ip: Ipv4Addr,
    /// Human-readable placement, e.g. "Kyiv core 1" or "Frankfurt".
    pub label: String,
}

/// BGP relationship of link side `a` towards side `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// `a` buys transit from `b` (`b` is `a`'s provider).
    CustomerToProvider,
    /// `a` sells transit to `b`.
    ProviderToCustomer,
    /// Settlement-free peering.
    PeerToPeer,
}

impl Relationship {
    /// The same relationship viewed from the other side.
    pub fn reversed(self) -> Self {
        match self {
            Relationship::CustomerToProvider => Relationship::ProviderToCustomer,
            Relationship::ProviderToCustomer => Relationship::CustomerToProvider,
            Relationship::PeerToPeer => Relationship::PeerToPeer,
        }
    }
}

/// Mutable state of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkState {
    pub up: bool,
    /// Additive extra loss probability from damage (0 when healthy).
    pub loss_add: f64,
    /// Multiplier on base latency from damage/congestion (1 when healthy).
    pub latency_mult: f64,
}

impl Default for LinkState {
    fn default() -> Self {
        Self { up: true, loss_add: 0.0, latency_mult: 1.0 }
    }
}

/// An inter-AS link pinned to one router on each side.
///
/// Each side exposes a distinct *interface address* (`a_if`/`b_if`):
/// traceroutes record interfaces, not routers, which is why IP-level path
/// counting can overcount — the alias-resolution extension (paper §5.1
/// future work) exists to undo exactly this.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    pub id: LinkId,
    pub a: RouterId,
    pub b: RouterId,
    pub a_if: Ipv4Addr,
    pub b_if: Ipv4Addr,
    pub a_asn: Asn,
    pub b_asn: Asn,
    /// Relationship of `a_asn` towards `b_asn`.
    pub rel: Relationship,
    /// One-way propagation latency in milliseconds when healthy.
    pub latency_ms: f64,
    /// Capacity in Mbps.
    pub capacity_mbps: f64,
    /// Baseline loss probability when healthy.
    pub base_loss: f64,
    pub state: LinkState,
}

impl Link {
    /// Effective one-way latency including damage.
    pub fn latency(&self) -> f64 {
        self.latency_ms * self.state.latency_mult
    }

    /// Effective loss probability including damage, capped below 1.
    pub fn loss(&self) -> f64 {
        (self.base_loss + self.state.loss_add).min(0.95)
    }

    /// The other endpoint's AS, given one side.
    ///
    /// # Panics
    /// Panics if `asn` is neither endpoint.
    pub fn peer_of(&self, asn: Asn) -> Asn {
        if asn == self.a_asn {
            self.b_asn
        } else if asn == self.b_asn {
            self.a_asn
        } else {
            panic!("{asn} is not an endpoint of link {:?}", self.id)
        }
    }

    /// Relationship as seen from `asn` towards the peer.
    ///
    /// # Panics
    /// Panics if `asn` is neither endpoint.
    pub fn rel_from(&self, asn: Asn) -> Relationship {
        if asn == self.a_asn {
            self.rel
        } else if asn == self.b_asn {
            self.rel.reversed()
        } else {
            panic!("{asn} is not an endpoint of link {:?}", self.id)
        }
    }
}

/// The links from one AS to one neighbour under one relationship (as seen
/// from that AS), in route-preference order: by base latency, with equal
/// latencies in the order the links were added. Route computation takes
/// the first link of a group that is up; base latency never changes after
/// [`Topology::add_link`], so the order is fixed at build time.
#[derive(Debug, Clone)]
pub(crate) struct LinkGroup {
    /// Dense index of the neighbour AS (see `Topology::as_index`).
    pub(crate) peer: usize,
    pub(crate) rel: Relationship,
    pub(crate) links: Vec<LinkId>,
}

/// One registered AS.
#[derive(Debug, Clone)]
struct AsNode {
    asn: Asn,
    /// Address block (interface addresses are carved from it).
    prefix: Prefix,
    /// Next interface host index (interfaces live above the router and
    /// server blocks, from host 2048).
    next_iface: u64,
    /// Incident link ids (up or down), in the order they were added.
    links: Vec<LinkId>,
    /// The same links grouped per (neighbour, relationship).
    groups: Vec<LinkGroup>,
}

/// The complete network model.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    pub catalog: AsCatalog,
    routers: Vec<Router>,
    links: Vec<Link>,
    /// Registered ASes, densely indexed in registration order.
    nodes: Vec<AsNode>,
    /// ASN → index into `nodes`.
    node_of: HashMap<Asn, usize>,
    pub prefixes: PrefixTable,
    version: u64,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an AS (catalogue + prefix).
    ///
    /// # Panics
    /// Panics if the ASN is already registered.
    pub fn add_as(&mut self, info: AsInfo, prefix: Prefix) {
        let asn = info.asn;
        self.catalog.add(info);
        self.prefixes.insert(prefix, asn);
        self.node_of.insert(asn, self.nodes.len());
        self.nodes.push(AsNode {
            asn,
            prefix,
            next_iface: 2_048,
            links: Vec::new(),
            groups: Vec::new(),
        });
    }

    /// Adds a router belonging to `asn` with address `ip`.
    pub fn add_router(&mut self, asn: Asn, ip: Ipv4Addr, label: impl Into<String>) -> RouterId {
        let id = RouterId(self.routers.len() as u32);
        self.routers.push(Router { id, asn, ip, label: label.into() });
        id
    }

    /// Adds an inter-AS link between two routers.
    ///
    /// # Panics
    /// Panics if either router is unknown, the routers share an AS, or the
    /// parameters are non-positive.
    #[allow(clippy::too_many_arguments)]
    pub fn add_link(
        &mut self,
        a: RouterId,
        b: RouterId,
        rel: Relationship,
        latency_ms: f64,
        capacity_mbps: f64,
        base_loss: f64,
    ) -> LinkId {
        let a_asn = self.router(a).asn;
        let b_asn = self.router(b).asn;
        assert_ne!(a_asn, b_asn, "inter-AS link must cross AS boundary");
        assert!(latency_ms > 0.0 && capacity_mbps > 0.0, "link parameters must be positive");
        assert!((0.0..1.0).contains(&base_loss), "base_loss must be in [0, 1)");
        let id = LinkId(self.links.len() as u32);
        let a_if = self.alloc_interface(a_asn);
        let b_if = self.alloc_interface(b_asn);
        self.links.push(Link {
            id,
            a,
            b,
            a_if,
            b_if,
            a_asn,
            b_asn,
            rel,
            latency_ms,
            capacity_mbps,
            base_loss,
            state: LinkState::default(),
        });
        let (a_node, b_node) = (self.node_index(a_asn), self.node_index(b_asn));
        self.attach(a_node, b_node, rel, id);
        self.attach(b_node, a_node, rel.reversed(), id);
        id
    }

    /// Index of a registered AS.
    ///
    /// # Panics
    /// Panics on an unregistered ASN.
    fn node_index(&self, asn: Asn) -> usize {
        self.as_index(asn).unwrap_or_else(|| panic!("unknown {asn}"))
    }

    /// Records link `id` on AS `node`'s side: appended to its adjacency,
    /// and inserted into its (`peer`, `rel`) group after every link of no
    /// greater latency, which keeps the group stably sorted by latency.
    fn attach(&mut self, node: usize, peer: usize, rel: Relationship, id: LinkId) {
        let links = &self.links;
        let latency = links[id.0 as usize].latency_ms;
        let node = &mut self.nodes[node];
        node.links.push(id);
        let i = match node.groups.iter().position(|g| g.peer == peer && g.rel == rel) {
            Some(i) => i,
            None => {
                node.groups.push(LinkGroup { peer, rel, links: Vec::new() });
                node.groups.len() - 1
            }
        };
        let group = &mut node.groups[i];
        let at = group
            .links
            .partition_point(|l| links[l.0 as usize].latency_ms.total_cmp(&latency).is_le());
        group.links.insert(at, id);
    }

    /// Allocates the next interface address inside an AS's block.
    fn alloc_interface(&mut self, asn: Asn) -> Ipv4Addr {
        let node = self.node_index(asn);
        let node = &mut self.nodes[node];
        let ip = node.prefix.nth(node.next_iface);
        node.next_iface += 1;
        ip
    }

    /// The router that owns an interface address, if any (ground truth for
    /// evaluating alias resolution).
    pub fn owner_of_interface(&self, ip: Ipv4Addr) -> Option<RouterId> {
        self.links.iter().find_map(|l| {
            if l.a_if == ip {
                Some(l.a)
            } else if l.b_if == ip {
                Some(l.b)
            } else {
                None
            }
        })
    }

    /// Router by id.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.0 as usize]
    }

    /// Link by id.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// All routers.
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Links incident to an AS (up or down), in the order they were added.
    pub fn links_of(&self, asn: Asn) -> impl Iterator<Item = &Link> {
        self.as_index(asn).into_iter().flat_map(|i| &self.nodes[i].links).map(|id| self.link(*id))
    }

    /// Links between a specific AS pair (either orientation).
    pub fn links_between(&self, a: Asn, b: Asn) -> Vec<LinkId> {
        self.links_of(a).filter(|l| l.peer_of(a) == b).map(|l| l.id).collect()
    }

    /// Dense index of a registered AS, in registration order.
    pub(crate) fn as_index(&self, asn: Asn) -> Option<usize> {
        self.node_of.get(&asn).copied()
    }

    /// Number of registered ASes (the dense indices are `0..as_count()`).
    pub(crate) fn as_count(&self) -> usize {
        self.nodes.len()
    }

    /// The ASN at a dense index.
    pub(crate) fn asn_at(&self, index: usize) -> Asn {
        self.nodes[index].asn
    }

    /// The link groups of the AS at a dense index.
    pub(crate) fn link_groups(&self, index: usize) -> &[LinkGroup] {
        &self.nodes[index].groups
    }

    /// Monotone counter bumped whenever reachability-relevant state changes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Brings a link up or down. Changing reachability bumps the version.
    pub fn set_link_up(&mut self, id: LinkId, up: bool) {
        let link = &mut self.links[id.0 as usize];
        if link.state.up != up {
            link.state.up = up;
            self.version += 1;
        }
    }

    /// Applies (or clears) performance damage to a link without affecting
    /// route selection.
    pub fn degrade_link(&mut self, id: LinkId, loss_add: f64, latency_mult: f64) {
        assert!(loss_add >= 0.0 && latency_mult >= 1.0, "degradation cannot improve a link");
        let link = &mut self.links[id.0 as usize];
        link.state.loss_add = loss_add;
        link.state.latency_mult = latency_mult;
    }

    /// Clears all damage and brings every link up; bumps the version if any
    /// reachability changed.
    pub fn heal_all(&mut self) {
        let mut changed = false;
        for link in &mut self.links {
            if !link.state.up {
                changed = true;
            }
            link.state = LinkState::default();
        }
        if changed {
            self.version += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::AsKind;

    fn tiny() -> (Topology, RouterId, RouterId, LinkId) {
        let mut t = Topology::new();
        for (i, asn) in [100u32, 200].into_iter().enumerate() {
            t.add_as(
                AsInfo { asn: Asn(asn), name: format!("AS{asn}"), country: "UA", kind: AsKind::UkrTransit, footprint: vec![] },
                Prefix::new(Ipv4Addr::from_octets(10, i as u8 + 1, 0, 0), 16),
            );
        }
        let r1 = t.add_router(Asn(100), Ipv4Addr::from_octets(10, 1, 0, 1), "a");
        let r2 = t.add_router(Asn(200), Ipv4Addr::from_octets(10, 2, 0, 1), "b");
        let l = t.add_link(r1, r2, Relationship::PeerToPeer, 5.0, 1000.0, 0.001);
        (t, r1, r2, l)
    }

    #[test]
    fn build_and_query() {
        let (t, r1, _r2, l) = tiny();
        assert_eq!(t.router(r1).asn, Asn(100));
        assert_eq!(t.link(l).peer_of(Asn(100)), Asn(200));
        assert_eq!(t.links_between(Asn(100), Asn(200)), vec![l]);
        assert_eq!(t.links_of(Asn(200)).count(), 1);
        assert_eq!(t.prefixes.lookup(Ipv4Addr::from_octets(10, 1, 5, 5)), Some(Asn(100)));
    }

    #[test]
    fn version_bumps_only_on_reachability_change() {
        let (mut t, _, _, l) = tiny();
        let v0 = t.version();
        t.degrade_link(l, 0.05, 2.0);
        assert_eq!(t.version(), v0, "degradation must not trigger rerouting");
        t.set_link_up(l, false);
        assert_eq!(t.version(), v0 + 1);
        t.set_link_up(l, false); // idempotent
        assert_eq!(t.version(), v0 + 1);
        t.set_link_up(l, true);
        assert_eq!(t.version(), v0 + 2);
    }

    #[test]
    fn damage_affects_effective_metrics() {
        let (mut t, _, _, l) = tiny();
        t.degrade_link(l, 0.05, 2.0);
        let link = t.link(l);
        assert!((link.latency() - 10.0).abs() < 1e-12);
        assert!((link.loss() - 0.051).abs() < 1e-12);
    }

    #[test]
    fn heal_all_restores_defaults() {
        let (mut t, _, _, l) = tiny();
        t.set_link_up(l, false);
        t.degrade_link(l, 0.2, 3.0);
        let v = t.version();
        t.heal_all();
        assert!(t.link(l).state.up);
        assert_eq!(t.link(l).state, LinkState::default());
        assert_eq!(t.version(), v + 1);
    }

    #[test]
    fn relationship_reversal() {
        let (t, _, _, l) = tiny();
        assert_eq!(t.link(l).rel_from(Asn(100)), Relationship::PeerToPeer);
        let rel = Relationship::CustomerToProvider;
        assert_eq!(rel.reversed(), Relationship::ProviderToCustomer);
        assert_eq!(rel.reversed().reversed(), rel);
    }

    #[test]
    #[should_panic(expected = "cross AS boundary")]
    fn intra_as_link_rejected() {
        let (mut t, r1, _, _) = tiny();
        let r3 = t.add_router(Asn(100), Ipv4Addr::from_octets(10, 1, 0, 2), "c");
        t.add_link(r1, r3, Relationship::PeerToPeer, 1.0, 100.0, 0.0);
    }
}
