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
//! Candidates are cached per `(src, dst, topology version)`; failing a link
//! bumps the version, so wartime damage transparently forces the
//! re-convergence (and the new-path usage) that §5.1 observes.

use crate::asn::Asn;
use crate::graph::{LinkId, Relationship, Topology};
use crate::path::Path;
use rand::{Rng, RngExt as _};
use std::collections::{BinaryHeap, HashMap, HashSet};

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

/// The routing engine with its per-version route cache.
#[derive(Debug, Clone, Default)]
pub struct RoutingEngine {
    config: RoutingConfig,
    cache: HashMap<(Asn, Asn, u64), Vec<Candidate>>,
}

impl RoutingEngine {
    /// Creates an engine with default tunables.
    pub fn new() -> Self {
        Self::with_config(RoutingConfig::default())
    }

    /// Creates an engine with explicit tunables.
    pub fn with_config(config: RoutingConfig) -> Self {
        Self { config, cache: HashMap::new() }
    }

    /// Current tunables.
    pub fn config(&self) -> &RoutingConfig {
        &self.config
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

    /// Returns (computing and caching if needed) the candidate routes for a
    /// src/dst pair at the topology's current version.
    fn candidates(&mut self, topo: &Topology, src: Asn, dst: Asn) -> &[Candidate] {
        let key = (src, dst, topo.version());
        if !self.cache.contains_key(&key) {
            let cands = self.compute_candidates(topo, src, dst);
            // Drop stale entries for this pair to bound memory across many
            // failure-driven version bumps.
            self.cache.retain(|(s, d, v), _| !(*s == src && *d == dst && *v != topo.version()));
            self.cache.insert(key, cands);
        }
        self.cache.get(&key).expect("just inserted")
    }

    /// Best path plus link-exclusion deviations, deduplicated, sorted by
    /// cost, truncated to `k_alternatives`.
    fn compute_candidates(&self, topo: &Topology, src: Asn, dst: Asn) -> Vec<Candidate> {
        let Some(best) = self.dijkstra(topo, src, dst, &HashSet::new()) else {
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
                // total_cmp: a NaN latency (degraded link metadata) must not
                // panic the sort — it just ranks last.
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
            if let Some(alt) = self.dijkstra(topo, src, dst, &banned) {
                if seen.insert(alt.links.clone()) {
                    out.push(alt);
                }
            }
        }
        out.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        out.truncate(self.config.k_alternatives.max(1));
        for cand in &mut out {
            cand.hop_parallels = resolve_parallels(&cand.links);
        }
        out
    }

    /// Valley-free Dijkstra over (AS, phase) states, ignoring links in
    /// `banned` and links that are down. Uses the lowest-latency up link per
    /// AS pair as representative.
    fn dijkstra(
        &self,
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
                // Min-heap on cost; tie-break deterministically. total_cmp
                // keeps Ord lawful even if a cost goes NaN.
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
                // Reconstruct.
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
            // Representative (cheapest latency) up link per neighbour+rel.
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
                    Relationship::CustomerToProvider => self.config.penalty_provider,
                    Relationship::PeerToPeer => self.config.penalty_peer,
                    Relationship::ProviderToCustomer => 0.0,
                };
                let ncost = cost + link.latency_ms + penalty + self.config.penalty_hop;
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
}
