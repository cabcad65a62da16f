//! Policy-aware route computation and per-test path selection.
//!
//! Route selection follows Gao–Rexford: paths are **valley-free** (climb
//! customer→provider links, cross at most one peering, then descend
//! provider→customer), preferring cheap relationships and low latency. On
//! top of the single best route, the engine enumerates up to `k` loopless
//! alternatives (link-exclusion deviations of the best path) and lets each
//! test pick among them with a strong primary bias — BGP is mostly stable,
//! but load-balanced and backup routes do appear, which is precisely the
//! path diversity the paper measures per connection in Table 2.
//!
//! Candidates are cached per (src, dst), tagged with the topology version
//! they were computed at; failing a link bumps the version, so wartime
//! damage transparently forces the re-convergence (and the new-path usage)
//! that §5.1 observes.
//!
//! A cache miss runs a valley-free Dijkstra for the best path and one more
//! per AS pair on it, each over dense (AS index, phase) arrays and the
//! link groups [`Topology::add_link`] maintains. Route cost reads only
//! base latencies, which never change after the build; damage lives in
//! each link's [`LinkState`](crate::LinkState), and of that a miss reads
//! only up/down, the state that bumps the version.

use crate::asn::Asn;
use crate::graph::{LinkId, Relationship, Topology};
use crate::path::Path;
use rand::{Rng, RngExt as _};
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// Identifies a (client, server) connection for deterministic tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(pub u64);

/// Valley-free phase of a partial path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Phase {
    /// Still climbing customer→provider links.
    Up,
    /// Crossed one peering link.
    Across,
    /// Descending provider→customer links.
    Down,
}

impl Phase {
    /// Phase after traversing a link with relationship `rel` (as seen from
    /// the current AS), or `None` if the move violates valley-freeness.
    fn step(self, rel: Relationship) -> Option<Phase> {
        match (self, rel) {
            (Phase::Up, Relationship::CustomerToProvider) => Some(Phase::Up),
            (Phase::Up, Relationship::PeerToPeer) => Some(Phase::Across),
            (_, Relationship::ProviderToCustomer) => Some(Phase::Down),
            _ => None,
        }
    }
}

/// Index of the (AS, phase) state in the dense Dijkstra arrays.
fn state(node: usize, phase: Phase) -> usize {
    node * 3 + phase as usize
}

/// Tunables for route computation and per-test selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutingConfig {
    /// Maximum number of alternative routes kept per (src, dst).
    pub k_alternatives: usize,
    /// Probability that a test uses the best route; the remainder is spread
    /// geometrically over the alternatives. Calibrated so that top
    /// connections show the paper's ~2–3 distinct paths per connection over
    /// a 54-day period in peacetime.
    pub primary_bias: f64,
    /// Probability that a test crossing an AS pair with parallel links uses
    /// the primary (lowest-latency) interconnect.
    pub parallel_primary_bias: f64,
    /// Additive weight for climbing a provider link (route cost units, ms).
    pub penalty_provider: f64,
    /// Additive weight for crossing a peering link.
    pub penalty_peer: f64,
    /// Additive weight per AS hop (prefers shorter AS paths).
    pub penalty_hop: f64,
}

impl Default for RoutingConfig {
    fn default() -> Self {
        Self {
            k_alternatives: 4,
            primary_bias: 0.93,
            parallel_primary_bias: 0.93,
            penalty_provider: 8.0,
            penalty_peer: 3.0,
            penalty_hop: 2.0,
        }
    }
}

/// An AS-level route candidate (representative link per AS pair).
#[derive(Debug, Clone, PartialEq)]
struct Candidate {
    links: Vec<LinkId>,
    cost: f64,
    /// Per hop of `links`: the up links between that hop's AS pair, sorted
    /// by latency. Parallels are a pure function of (AS pair, topology
    /// version) — the same key the cache is under — so they are resolved
    /// once here instead of rescanning the pair's links on every test.
    hop_parallels: Vec<Vec<LinkId>>,
}

/// Route-cache work an engine counted since its last flush.
#[derive(Debug, Clone, Copy, Default)]
struct RouteCounters {
    misses: u64,
    dijkstras: u64,
    miss_nanos: u64,
}

/// The routing engine with its per-version route cache.
#[derive(Debug, Clone, Default)]
pub struct RoutingEngine {
    config: RoutingConfig,
    /// Candidates per (src, dst) and the topology version they were
    /// computed at; a stale entry is recomputed in place.
    cache: HashMap<(Asn, Asn), (u64, Vec<Candidate>)>,
    counters: RouteCounters,
}

impl RoutingEngine {
    /// Creates an engine with default tunables.
    pub fn new() -> Self {
        Self::with_config(RoutingConfig::default())
    }

    /// Creates an engine with explicit tunables.
    pub fn with_config(config: RoutingConfig) -> Self {
        Self { config, cache: HashMap::new(), counters: RouteCounters::default() }
    }

    /// Current tunables.
    pub fn config(&self) -> &RoutingConfig {
        &self.config
    }

    /// Publishes the cache work since the last flush as the
    /// `route.misses`, `route.dijkstras` and `route.miss_us` process
    /// counters, and starts counting afresh. They stay out of the
    /// deterministic counters: every engine has its own cache, so the
    /// misses depend on how a run splits its clients over engines.
    pub fn flush_counters(&mut self) {
        let c = std::mem::take(&mut self.counters);
        ndt_obs::incr_process("route.misses", c.misses);
        ndt_obs::incr_process("route.dijkstras", c.dijkstras);
        ndt_obs::incr_process("route.miss_us", c.miss_nanos / 1_000);
    }

    /// Selects a concrete path for one test from `src` (M-Lab host AS) to
    /// `dst` (client access AS). Returns `None` when the destination is
    /// unreachable under current link state.
    pub fn select_path<R: Rng + ?Sized>(
        &mut self,
        topo: &Topology,
        src: Asn,
        dst: Asn,
        rng: &mut R,
    ) -> Option<Path> {
        let bias = self.config.primary_bias;
        self.select_path_with_bias(topo, src, dst, bias, rng)
    }

    /// Like [`RoutingEngine::select_path`] but with an explicit primary
    /// bias for this one selection. The platform simulator lowers the bias
    /// for clients whose damaged edge infrastructure forces local
    /// rerouting — the per-connection path churn behind the paper's §5.1.
    pub fn select_path_with_bias<R: Rng + ?Sized>(
        &mut self,
        topo: &Topology,
        src: Asn,
        dst: Asn,
        bias: f64,
        rng: &mut R,
    ) -> Option<Path> {
        let parallel_bias = self.config.parallel_primary_bias;
        let candidates = self.candidates(topo, src, dst);
        pick_path(topo, src, candidates, bias, parallel_bias, rng)
    }

    /// Returns (computing and caching if needed) the candidate routes for a
    /// src/dst pair at the topology's current version.
    fn candidates(&mut self, topo: &Topology, src: Asn, dst: Asn) -> &[Candidate] {
        let version = topo.version();
        if self.cache.get(&(src, dst)).is_none_or(|(v, _)| *v != version) {
            let start = Instant::now();
            let (cands, dijkstras) = self.compute_candidates(topo, src, dst);
            self.counters.misses += 1;
            self.counters.dijkstras += dijkstras;
            self.counters.miss_nanos += start.elapsed().as_nanos() as u64;
            self.cache.insert((src, dst), (version, cands));
        }
        &self.cache[&(src, dst)].1
    }

    /// Best path plus link-exclusion deviations, deduplicated, sorted by
    /// cost, truncated to `k_alternatives`; also returns how many Dijkstra
    /// runs that took.
    fn compute_candidates(&self, topo: &Topology, src: Asn, dst: Asn) -> (Vec<Candidate>, u64) {
        let Some(best) = self.dijkstra(topo, src, dst, None) else {
            return (Vec::new(), 1);
        };
        // Deviations: exclude each AS-pair edge of the best path in turn.
        let mut excluded_pairs = Vec::with_capacity(best.links.len());
        let mut cur = src;
        for &lid in &best.links {
            let next = topo.link(lid).peer_of(cur);
            excluded_pairs.push((cur, next));
            cur = next;
        }
        let dijkstras = 1 + excluded_pairs.len() as u64;
        let mut out = vec![best];
        for pair in excluded_pairs {
            if let Some(alt) = self.dijkstra(topo, src, dst, Some(pair)) {
                if out.iter().all(|c| c.links != alt.links) {
                    out.push(alt);
                }
            }
        }
        out.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        out.truncate(self.config.k_alternatives.max(1));
        for cand in &mut out {
            cand.hop_parallels = resolve_parallels(topo, src, &cand.links);
        }
        (out, dijkstras)
    }

    /// Valley-free Dijkstra over (AS, phase) states, ignoring links that are
    /// down and every link between the AS pair `banned` (either way). The
    /// representative link per (neighbour, relationship) is the first up
    /// link of its group: the lowest base latency, and on equal latency the
    /// first link in adjacency order.
    fn dijkstra(
        &self,
        topo: &Topology,
        src: Asn,
        dst: Asn,
        banned: Option<(Asn, Asn)>,
    ) -> Option<Candidate> {
        #[derive(PartialEq)]
        struct Entry {
            cost: f64,
            asn: Asn,
            node: usize,
            phase: Phase,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Min-heap on cost; ties break on ASN, not dense index, then
                // phase. total_cmp keeps Ord lawful even if a cost goes NaN.
                other
                    .cost
                    .total_cmp(&self.cost)
                    .then_with(|| self.asn.cmp(&other.asn))
                    .then_with(|| self.phase.cmp(&other.phase))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        // The empty route, found by the first pop whether or not the AS is
        // registered.
        if src == dst {
            return Some(Candidate { links: Vec::new(), cost: 0.0, hop_parallels: Vec::new() });
        }
        let (Some(from), Some(to)) = (topo.as_index(src), topo.as_index(dst)) else {
            return None;
        };
        // An unregistered AS has no links to ban.
        let banned = banned.and_then(|(a, b)| Some((topo.as_index(a)?, topo.as_index(b)?)));
        let states = topo.as_count() * 3;
        let mut dist: Vec<Option<f64>> = vec![None; states];
        let mut prev: Vec<Option<(usize, LinkId)>> = vec![None; states];
        let mut heap = BinaryHeap::new();
        dist[state(from, Phase::Up)] = Some(0.0);
        heap.push(Entry { cost: 0.0, asn: src, node: from, phase: Phase::Up });

        while let Some(Entry { cost, node, phase, .. }) = heap.pop() {
            let at = state(node, phase);
            if node == to {
                let mut links = Vec::new();
                let mut cur = at;
                while let Some((p, lid)) = prev[cur] {
                    links.push(lid);
                    cur = p;
                }
                links.reverse();
                return Some(Candidate { links, cost, hop_parallels: Vec::new() });
            }
            if dist[at].is_some_and(|d| cost > d) {
                continue;
            }
            for group in topo.link_groups(node) {
                let Some(next_phase) = phase.step(group.rel) else { continue };
                if banned.is_some_and(|(a, b)| {
                    (a, b) == (node, group.peer) || (b, a) == (node, group.peer)
                }) {
                    continue;
                }
                let Some(link) = group.links.iter().map(|&id| topo.link(id)).find(|l| l.state.up)
                else {
                    continue;
                };
                let penalty = match group.rel {
                    Relationship::CustomerToProvider => self.config.penalty_provider,
                    Relationship::PeerToPeer => self.config.penalty_peer,
                    Relationship::ProviderToCustomer => 0.0,
                };
                let ncost = cost + link.latency_ms + penalty + self.config.penalty_hop;
                let next = state(group.peer, next_phase);
                if dist[next].is_none_or(|d| ncost < d) {
                    dist[next] = Some(ncost);
                    prev[next] = Some((at, link.id));
                    heap.push(Entry {
                        cost: ncost,
                        asn: topo.asn_at(group.peer),
                        node: group.peer,
                        phase: next_phase,
                    });
                }
            }
        }
        None
    }
}

/// Per hop of `links` from `src`: the up links between that hop's AS pair,
/// in adjacency order, stably sorted by base latency.
fn resolve_parallels(topo: &Topology, src: Asn, links: &[LinkId]) -> Vec<Vec<LinkId>> {
    let mut cur = src;
    let mut per_hop = Vec::with_capacity(links.len());
    for &lid in links {
        let next = topo.link(lid).peer_of(cur);
        let mut parallels: Vec<LinkId> = topo
            .links_between(cur, next)
            .into_iter()
            .filter(|id| topo.link(*id).state.up)
            .collect();
        // total_cmp: a NaN latency (degraded link metadata) must not
        // panic the sort — it just ranks last.
        parallels.sort_by(|a, b| topo.link(*a).latency_ms.total_cmp(&topo.link(*b).latency_ms));
        per_hop.push(parallels);
        cur = next;
    }
    per_hop
}

/// Draws one test's concrete path from a pair's candidates, or `None` when
/// there are none (the destination is unreachable).
fn pick_path<R: Rng + ?Sized>(
    topo: &Topology,
    src: Asn,
    candidates: &[Candidate],
    bias: f64,
    parallel_bias: f64,
    rng: &mut R,
) -> Option<Path> {
    if candidates.is_empty() {
        return None;
    }
    // Geometric preference over candidates.
    let idx = pick_biased(candidates.len(), bias, rng);
    let cand = &candidates[idx];
    // Re-draw parallel interconnects per AS pair from the precomputed
    // per-hop lists. Draw count depends only on each list's length, so
    // the RNG stream is identical to recomputing the lists per test.
    let mut concrete = Vec::with_capacity(cand.links.len());
    for (hop, &lid) in cand.links.iter().enumerate() {
        let parallels = &cand.hop_parallels[hop];
        let pick = if parallels.len() <= 1 {
            lid
        } else {
            parallels[pick_biased(parallels.len(), parallel_bias, rng)]
        };
        concrete.push(pick);
    }
    Some(Path::from_links(topo, src, &concrete))
}

/// Picks an index in `0..n` with probability `bias` for index 0 and a
/// geometric tail over the rest.
fn pick_biased<R: Rng + ?Sized>(n: usize, bias: f64, rng: &mut R) -> usize {
    debug_assert!(n >= 1);
    if n == 1 || rng.random::<f64>() < bias {
        return 0;
    }
    // Geometric over 1..n with ratio 1/3, renormalized by rejection.
    let mut i = 1;
    while i + 1 < n && rng.random::<f64>() < 1.0 / 3.0 {
        i += 1;
    }
    i
}

/// The hash-map route computation the dense one replaced, kept as the
/// oracle the property tests below compare it against.
#[cfg(test)]
mod reference {
    use super::{Candidate, Phase, RoutingConfig};
    use crate::asn::Asn;
    use crate::graph::{LinkId, Relationship, Topology};
    use std::collections::{BinaryHeap, HashMap, HashSet};

    /// Best path plus link-exclusion deviations, deduplicated, sorted by
    /// cost, truncated to `k_alternatives`.
    pub(super) fn compute_candidates(
        config: &RoutingConfig,
        topo: &Topology,
        src: Asn,
        dst: Asn,
    ) -> Vec<Candidate> {
        let Some(best) = dijkstra(config, topo, src, dst, &HashSet::new()) else {
            return Vec::new();
        };
        let resolve_parallels = |links: &[LinkId]| -> Vec<Vec<LinkId>> {
            let mut cur = src;
            let mut per_hop = Vec::with_capacity(links.len());
            for &lid in links {
                let next = topo.link(lid).peer_of(cur);
                let mut parallels: Vec<LinkId> = topo
                    .links_between(cur, next)
                    .into_iter()
                    .filter(|id| topo.link(*id).state.up)
                    .collect();
                parallels.sort_by(|a, b| {
                    topo.link(*a).latency_ms.total_cmp(&topo.link(*b).latency_ms)
                });
                per_hop.push(parallels);
                cur = next;
            }
            per_hop
        };
        let mut seen: HashSet<Vec<LinkId>> = HashSet::new();
        let mut out = vec![];
        seen.insert(best.links.clone());
        // Deviations: exclude each AS-pair edge of the best path in turn.
        let mut excluded_pairs: Vec<(Asn, Asn)> = Vec::new();
        {
            let mut cur = src;
            for &lid in &best.links {
                let next = topo.link(lid).peer_of(cur);
                excluded_pairs.push((cur, next));
                cur = next;
            }
        }
        out.push(best);
        for pair in excluded_pairs {
            let mut banned = HashSet::new();
            for lid in topo.links_between(pair.0, pair.1) {
                banned.insert(lid);
            }
            if let Some(alt) = dijkstra(config, topo, src, dst, &banned) {
                if seen.insert(alt.links.clone()) {
                    out.push(alt);
                }
            }
        }
        out.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        out.truncate(config.k_alternatives.max(1));
        for cand in &mut out {
            cand.hop_parallels = resolve_parallels(&cand.links);
        }
        out
    }

    /// Valley-free Dijkstra over (AS, phase) states, ignoring links in
    /// `banned` and links that are down. Uses the lowest-latency up link
    /// per AS pair as representative.
    fn dijkstra(
        config: &RoutingConfig,
        topo: &Topology,
        src: Asn,
        dst: Asn,
        banned: &HashSet<LinkId>,
    ) -> Option<Candidate> {
        #[derive(PartialEq)]
        struct Entry {
            cost: f64,
            asn: Asn,
            phase: Phase,
        }
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other
                    .cost
                    .total_cmp(&self.cost)
                    .then_with(|| self.asn.cmp(&other.asn))
                    .then_with(|| self.phase.cmp(&other.phase))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let mut dist: HashMap<(Asn, Phase), f64> = HashMap::new();
        let mut prev: HashMap<(Asn, Phase), (Asn, Phase, LinkId)> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert((src, Phase::Up), 0.0);
        heap.push(Entry { cost: 0.0, asn: src, phase: Phase::Up });

        while let Some(Entry { cost, asn, phase }) = heap.pop() {
            if asn == dst {
                let mut links = Vec::new();
                let mut cur = (asn, phase);
                while let Some(&(pasn, pphase, lid)) = prev.get(&cur) {
                    links.push(lid);
                    cur = (pasn, pphase);
                }
                links.reverse();
                return Some(Candidate { links, cost, hop_parallels: Vec::new() });
            }
            if dist.get(&(asn, phase)).is_some_and(|&d| cost > d) {
                continue;
            }
            let mut best_link: HashMap<(Asn, Relationship), LinkId> = HashMap::new();
            for link in topo.links_of(asn) {
                if !link.state.up || banned.contains(&link.id) {
                    continue;
                }
                let peer = link.peer_of(asn);
                let rel = link.rel_from(asn);
                let slot = best_link.entry((peer, rel)).or_insert(link.id);
                if topo.link(*slot).latency_ms > link.latency_ms {
                    *slot = link.id;
                }
            }
            for ((peer, rel), lid) in best_link {
                let Some(next_phase) = phase.step(rel) else { continue };
                let link = topo.link(lid);
                let penalty = match rel {
                    Relationship::CustomerToProvider => config.penalty_provider,
                    Relationship::PeerToPeer => config.penalty_peer,
                    Relationship::ProviderToCustomer => 0.0,
                };
                let ncost = cost + link.latency_ms + penalty + config.penalty_hop;
                let key = (peer, next_phase);
                if dist.get(&key).is_none_or(|&d| ncost < d) {
                    dist.insert(key, ncost);
                    prev.insert(key, (asn, phase, lid));
                    heap.push(Entry { cost: ncost, asn: peer, phase: next_phase });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asn::{AsInfo, AsKind};
    use crate::ip::{Ipv4Addr, Prefix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Diamond: src(1) climbs to providers 2 and 3, both provide to dst(4).
    /// Direct peer link 1–4 would be valley-free too (Up→Across ends at 4).
    fn diamond() -> Topology {
        let mut t = Topology::new();
        for (i, asn) in [1u32, 2, 3, 4].into_iter().enumerate() {
            t.add_as(
                AsInfo {
                    asn: Asn(asn),
                    name: format!("AS{asn}"),
                    country: if asn == 4 { "UA" } else { "US" },
                    kind: if asn == 4 { AsKind::UkrEyeball } else { AsKind::ForeignTransit },
                    footprint: vec![],
                },
                Prefix::new(Ipv4Addr::from_octets(10, i as u8 + 1, 0, 0), 16),
            );
        }
        let r = |t: &mut Topology, asn: u32, host: u8| {
            t.add_router(Asn(asn), Ipv4Addr::from_octets(10, asn as u8, 0, host), format!("r{asn}-{host}"))
        };
        let r1 = r(&mut t, 1, 1);
        let r2 = r(&mut t, 2, 1);
        let r3 = r(&mut t, 3, 1);
        let r4a = r(&mut t, 4, 1);
        let r4b = r(&mut t, 4, 2);
        t.add_link(r1, r2, Relationship::CustomerToProvider, 5.0, 10_000.0, 0.001); // cheap
        t.add_link(r1, r3, Relationship::CustomerToProvider, 20.0, 10_000.0, 0.001); // dear
        t.add_link(r2, r4a, Relationship::ProviderToCustomer, 5.0, 1_000.0, 0.001);
        t.add_link(r3, r4b, Relationship::ProviderToCustomer, 5.0, 1_000.0, 0.001);
        t
    }

    #[test]
    fn best_path_prefers_low_cost() {
        let t = diamond();
        let mut rng = StdRng::seed_from_u64(1);
        // Force the primary route by setting both biases to 1.
        let cfg =
            RoutingConfig { primary_bias: 1.0, parallel_primary_bias: 1.0, ..Default::default() };
        let mut eng = RoutingEngine::with_config(cfg);
        let p = eng.select_path(&t, Asn(1), Asn(4), &mut rng).expect("reachable");
        assert_eq!(p.as_seq, vec![Asn(1), Asn(2), Asn(4)]);
    }

    #[test]
    fn failure_forces_alternative_and_recovery_restores() {
        let mut t = diamond();
        let cfg = RoutingConfig { primary_bias: 1.0, parallel_primary_bias: 1.0, ..Default::default() };
        let mut eng = RoutingEngine::with_config(cfg);
        let mut rng = StdRng::seed_from_u64(2);
        let via2 = eng.select_path(&t, Asn(1), Asn(4), &mut rng).unwrap();
        assert!(via2.traverses(Asn(2)));
        // Kill the 1–2 uplink.
        let l12 = t.links_between(Asn(1), Asn(2))[0];
        t.set_link_up(l12, false);
        let via3 = eng.select_path(&t, Asn(1), Asn(4), &mut rng).unwrap();
        assert!(via3.traverses(Asn(3)), "rerouted path = {:?}", via3.as_seq);
        t.set_link_up(l12, true);
        let back = eng.select_path(&t, Asn(1), Asn(4), &mut rng).unwrap();
        assert!(back.traverses(Asn(2)));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut t = diamond();
        for lid in t.links_between(Asn(1), Asn(2)) {
            t.set_link_up(lid, false);
        }
        for lid in t.links_between(Asn(1), Asn(3)) {
            t.set_link_up(lid, false);
        }
        let mut eng = RoutingEngine::new();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(eng.select_path(&t, Asn(1), Asn(4), &mut rng).is_none());
    }

    #[test]
    fn valley_free_rejects_customer_valley() {
        // src(1) is a *provider* of 2; 2 is a *provider* of 4: path 1→2→4
        // would be Down then Down — legal. But 1→2 via customer→provider at
        // 2's side... Build an actual valley: 1 sells to 2, 4 sells to 2;
        // route 1→2→4 requires climbing 2→4 after descending 1→2: illegal.
        let mut t = Topology::new();
        for (i, asn) in [1u32, 2, 4].into_iter().enumerate() {
            t.add_as(
                AsInfo { asn: Asn(asn), name: format!("AS{asn}"), country: "US", kind: AsKind::ForeignTransit, footprint: vec![] },
                Prefix::new(Ipv4Addr::from_octets(10, i as u8 + 1, 0, 0), 16),
            );
        }
        let r1 = t.add_router(Asn(1), Ipv4Addr::from_octets(10, 1, 0, 1), "r1");
        let r2 = t.add_router(Asn(2), Ipv4Addr::from_octets(10, 2, 0, 1), "r2");
        let r4 = t.add_router(Asn(4), Ipv4Addr::from_octets(10, 3, 0, 1), "r4");
        // 1 is provider of 2 (so 1→2 is ProviderToCustomer = Down).
        t.add_link(r1, r2, Relationship::ProviderToCustomer, 5.0, 1_000.0, 0.0);
        // 4 is provider of 2 (so 2→4 is CustomerToProvider = Up). Valley!
        t.add_link(r2, r4, Relationship::CustomerToProvider, 5.0, 1_000.0, 0.0);
        let mut eng = RoutingEngine::new();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(
            eng.select_path(&t, Asn(1), Asn(4), &mut rng).is_none(),
            "customer valley must be rejected"
        );
    }

    #[test]
    fn multiple_tests_reveal_multiple_paths() {
        let t = diamond();
        let mut eng = RoutingEngine::with_config(RoutingConfig {
            primary_bias: 0.7,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(5);
        let mut fps = std::collections::HashSet::new();
        for _ in 0..200 {
            let p = eng.select_path(&t, Asn(1), Asn(4), &mut rng).unwrap();
            fps.insert(p.fingerprint());
        }
        assert!(fps.len() >= 2, "expected path diversity, got {}", fps.len());
    }

    #[test]
    fn selection_is_deterministic_under_seed() {
        let t = diamond();
        let run = |seed: u64| {
            let mut eng = RoutingEngine::new();
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|_| eng.select_path(&t, Asn(1), Asn(4), &mut rng).unwrap().fingerprint())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    /// A uniform draw from `0..n`.
    fn below(rng: &mut StdRng, n: usize) -> usize {
        (rng.random::<u64>() % n as u64) as usize
    }

    /// A random small topology: 3–15 ASes registered in random ASN order
    /// (so dense indices do not follow ASNs), random relationships, up to
    /// three parallel links per AS pair with base latencies from {1, 2, 3}
    /// (integer costs, so ties are common), and about a quarter of the
    /// links down.
    fn random_topology(rng: &mut StdRng) -> Topology {
        let n = 3 + below(rng, 13);
        let mut asns: Vec<u32> = Vec::new();
        while asns.len() < n {
            let asn = 64_500 + below(rng, 40) as u32;
            if !asns.contains(&asn) {
                asns.push(asn);
            }
        }
        let mut t = Topology::new();
        let mut routers = Vec::new();
        for (i, &asn) in asns.iter().enumerate() {
            t.add_as(
                AsInfo {
                    asn: Asn(asn),
                    name: format!("AS{asn}"),
                    country: "UA",
                    kind: AsKind::UkrTransit,
                    footprint: vec![],
                },
                Prefix::new(Ipv4Addr::from_octets(10, i as u8 + 1, 0, 0), 16),
            );
            routers.push(t.add_router(Asn(asn), Ipv4Addr::from_octets(10, i as u8 + 1, 0, 1), "r"));
        }
        let rels = [
            Relationship::CustomerToProvider,
            Relationship::ProviderToCustomer,
            Relationship::PeerToPeer,
        ];
        for _ in 0..below(rng, 3 * n) + n {
            let a = below(rng, n);
            let b = below(rng, n);
            if a == b {
                continue;
            }
            for _ in 0..1 + below(rng, 3) {
                let rel = rels[below(rng, 3)];
                let latency = 1.0 + below(rng, 3) as f64;
                let id = t.add_link(routers[a], routers[b], rel, latency, 1_000.0, 0.0);
                if below(rng, 4) == 0 {
                    t.set_link_up(id, false);
                }
            }
        }
        t
    }

    /// Candidate lists are equal link for link, cost bit for bit, and
    /// parallel list for parallel list.
    fn same_candidates(a: &[Candidate], b: &[Candidate]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.links == y.links
                    && x.cost.to_bits() == y.cost.to_bits()
                    && x.hop_parallels == y.hop_parallels
            })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// For every (src, dst) pair of a random topology — `src == dst`
        /// and unreachable pairs included — the dense computation yields
        /// the reference's candidates.
        #[test]
        fn dense_candidates_match_the_reference(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = random_topology(&mut rng);
            let eng = RoutingEngine::new();
            let asns: Vec<Asn> = t.catalog.iter().map(|e| e.asn).collect();
            for &src in &asns {
                for &dst in &asns {
                    let (got, _) = eng.compute_candidates(&t, src, dst);
                    let want = reference::compute_candidates(eng.config(), &t, src, dst);
                    proptest::prop_assert!(
                        same_candidates(&got, &want),
                        "{src}->{dst}: {got:?} != {want:?}"
                    );
                }
            }
        }

        /// A cached engine and the reference, recomputed on every test,
        /// draw the same path fingerprints from the same seeded stream
        /// while links fail and recover (each change bumps the version).
        #[test]
        fn cached_selection_matches_the_reference_across_version_bumps(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = random_topology(&mut rng);
            let asns: Vec<Asn> = t.catalog.iter().map(|e| e.asn).collect();
            let mut eng = RoutingEngine::with_config(RoutingConfig {
                primary_bias: 0.6,
                parallel_primary_bias: 0.6,
                ..Default::default()
            });
            let cfg = *eng.config();
            let (mut draws_a, mut draws_b) =
                (StdRng::seed_from_u64(seed ^ 1), StdRng::seed_from_u64(seed ^ 1));
            for step in 0..120 {
                if step % 15 == 14 && !t.links().is_empty() {
                    let id = t.links()[below(&mut rng, t.links().len())].id;
                    let up = t.link(id).state.up;
                    t.set_link_up(id, !up);
                }
                let src = asns[below(&mut rng, asns.len())];
                let dst = asns[below(&mut rng, asns.len())];
                let got = eng.select_path(&t, src, dst, &mut draws_a).map(|p| p.fingerprint());
                let cands = reference::compute_candidates(&cfg, &t, src, dst);
                let (bias, parallel_bias) = (cfg.primary_bias, cfg.parallel_primary_bias);
                let want = pick_path(&t, src, &cands, bias, parallel_bias, &mut draws_b)
                    .map(|p| p.fingerprint());
                proptest::prop_assert_eq!(got, want, "step {}: {}->{}", step, src, dst);
            }
        }
    }

    #[test]
    fn counters_tally_misses_and_dijkstra_runs() {
        let mut t = diamond();
        let mut eng = RoutingEngine::new();
        let mut rng = StdRng::seed_from_u64(8);
        // Best path 1→2→4 (two AS pairs): 1 + 2 Dijkstra runs.
        eng.select_path(&t, Asn(1), Asn(4), &mut rng);
        eng.select_path(&t, Asn(1), Asn(4), &mut rng);
        assert_eq!((eng.counters.misses, eng.counters.dijkstras), (1, 3));
        // A version bump makes the next call miss again.
        let l12 = t.links_between(Asn(1), Asn(2))[0];
        t.set_link_up(l12, false);
        eng.select_path(&t, Asn(1), Asn(4), &mut rng);
        assert_eq!((eng.counters.misses, eng.counters.dijkstras), (2, 6));
        assert_eq!(eng.cache.len(), 1, "the stale entry was overwritten");
    }
}
