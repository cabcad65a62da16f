//! The dataset simulator: days × clients × tests → published rows.

use crate::client::{ClientPool, ClientPoolConfig};
use crate::fault::{splitmix64, truncate_as_path, Corruption, FaultPlan};
use crate::schema::{Dataset, Scamper1Row, UnifiedDownloadRow};
use crate::site::{LoadBalancer, Site, SiteId};
use ndt_conflict::calendar::Period;
use ndt_conflict::damage::{as_profile, border_damage_for, DamageModel, NATIONAL_COUNT_MULT};
use ndt_conflict::displacement::DisplacementModel;
use ndt_conflict::events::outages_for;
use ndt_conflict::intensity::intensity_for;
use ndt_geo::city::CityId;
use ndt_geo::{GeoDb, GeoDbConfig, Oblast};
use ndt_scenario::ScenarioSpec;
use ndt_stats::Poisson;
use ndt_tcp::{BulkTransfer, CongestionControl, PathCharacteristics, TransferConfig};
use ndt_topology::route::RoutingConfig;
use ndt_topology::{build_topology, AliasResolver, BuiltTopology, RoutingEngine, TopologyConfig};
use std::collections::HashMap;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

/// Scenario selector: a handle into `ndt-scenario`'s registry of specs.
/// `HISTORICAL` reproduces the paper; the built-in counterfactuals and
/// related-work scenarios (asymmetric two-country, refugee-flow,
/// transit-reroute) answer "what would the dataset have looked like
/// if …" — and `--scenario-file` registers user-authored ones.
pub use ndt_scenario::Scenario;

/// Simulation knobs. Defaults reproduce the paper's setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Master seed; the whole dataset is a pure function of it.
    pub seed: u64,
    /// Volume scale: 1.0 generates the full ~1M-raw-test corpus; tests use
    /// a fraction of it.
    pub scale: f64,
    /// Probability that a raw test is published to `unified_download`
    /// (§3's 78,539 over §5.2's 852,738 ≈ 0.092).
    pub unified_fraction: f64,
    /// NDT volume in 2021 relative to 2022 (usage grew; Table 2's
    /// tests/connection roughly triple between the years).
    pub volume_mult_2021: f64,
    /// Congestion control of the NDT servers (NDT7 = BBR).
    pub cca: CongestionControl,
    /// Whether to simulate the 2021 baseline window.
    pub simulate_2021: bool,
    /// Whether to simulate the 2022 study window.
    pub simulate_2022: bool,
    /// Counterfactual selector (Historical reproduces the paper).
    pub scenario: Scenario,
    /// Platform fault injection (default [`FaultPlan::NONE`]). Faults are
    /// decided by keyed hashes, never by the simulation's RNG streams, so
    /// any plan degrades the *same* underlying dataset the clean run
    /// publishes.
    pub faults: FaultPlan,
    /// Worker threads for dataset generation (0 = all available cores).
    /// The output is bit-identical for every thread count: each
    /// (client, day) has its own derived RNG stream and results merge in
    /// client order.
    pub threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            scale: 1.0,
            unified_fraction: 78_539.0 / 852_738.0,
            volume_mult_2021: 0.42,
            cca: CongestionControl::Bbr,
            simulate_2021: true,
            simulate_2022: true,
            scenario: Scenario::HISTORICAL,
            faults: FaultPlan::NONE,
            threads: 0,
        }
    }
}

impl SimConfig {
    /// A reduced configuration for fast tests (~6% of full volume).
    pub fn small(seed: u64) -> Self {
        Self { seed, scale: 0.06, ..Default::default() }
    }

    /// The contiguous simulated day windows this configuration covers, in
    /// chronological order (the 2021 baseline, then the 2022 study year).
    pub fn windows(&self) -> Vec<std::ops::Range<i64>> {
        let mut w = Vec::new();
        if self.simulate_2021 {
            let (s, _) = Period::BaselineJanFeb2021.day_range();
            let (_, e) = Period::BaselineFebApr2021.day_range();
            w.push(s..e);
        }
        if self.simulate_2022 {
            let (s, _) = Period::Prewar2022.day_range();
            let (_, e) = Period::Wartime2022.day_range();
            w.push(s..e);
        }
        w
    }

    /// Splits [`SimConfig::windows`] into day-range shards of at most
    /// `days_per_shard` days. Shard boundaries never change the generated
    /// rows: each simulated day derives its RNG streams and damage state
    /// from the day index alone, so concatenating the shards in order
    /// reproduces an unsharded run bit-for-bit. This is the unit of corpus
    /// checkpointing — a resumed run simulates only the shards it lacks.
    pub fn shards(&self, days_per_shard: i64) -> Vec<std::ops::Range<i64>> {
        let step = days_per_shard.max(1);
        let mut shards = Vec::new();
        for w in self.windows() {
            let mut lo = w.start;
            while lo < w.end {
                let hi = (lo + step).min(w.end);
                shards.push(lo..hi);
                lo = hi;
            }
        }
        shards
    }
}

/// Resolves a `threads` knob (0 = all available cores) to a concrete
/// worker budget, at least 1. Callers that compose parallelism — the
/// runner's shard fan-out dividing one budget between shard workers and
/// per-shard engines — resolve once through this and never re-ask the OS.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Per-worker work counters for the sharded simulator.
///
/// Each worker thread counts into plain integer fields of its own
/// instance — no atomics, no locks, nothing shared — and the coordinator
/// merges the instances after the join. Addition is commutative, so the
/// merged totals are **bit-identical for every thread count**, which is
/// what lets the `--metrics` artifact's counters participate in the
/// determinism contract. Totals are flushed into `ndt-obs` once per
/// simulated day range ([`Simulator::run_days`]), so the per-test hot
/// path never touches the global registry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounters {
    /// NDT tests simulated (including ones whose rows were never published).
    pub tests: u64,
    /// Scamper sidecar traces published to the traces table.
    pub traces_published: u64,
    /// Rows published to `unified_download`.
    pub ndt_rows_published: u64,
    /// Tests abandoned because no route to the client existed that day.
    pub unreachable: u64,
    /// Tests lost wholesale to a site outage fault.
    pub site_down_drops: u64,
    /// Sidecar traces dropped by the sidecar-loss fault.
    pub sidecar_drops: u64,
    /// Sidecar traces published with a truncated AS path.
    pub sidecar_truncations: u64,
    /// Published rows whose geolocation lookup failed.
    pub geo_failures: u64,
    /// Published rows mangled by the row-corruption fault.
    pub corrupt_rows: u64,
}

impl SimCounters {
    /// Adds another worker's counts into this one.
    pub fn merge(&mut self, other: &SimCounters) {
        self.tests += other.tests;
        self.traces_published += other.traces_published;
        self.ndt_rows_published += other.ndt_rows_published;
        self.unreachable += other.unreachable;
        self.site_down_drops += other.site_down_drops;
        self.sidecar_drops += other.sidecar_drops;
        self.sidecar_truncations += other.sidecar_truncations;
        self.geo_failures += other.geo_failures;
        self.corrupt_rows += other.corrupt_rows;
    }

    /// Publishes the totals as `sim.*` work counters. Zero-valued fields
    /// are skipped by `ndt_obs::incr`, so a clean run's artifact carries
    /// no fault counters at all.
    fn flush(&self) {
        ndt_obs::incr("sim.tests", self.tests);
        ndt_obs::incr("sim.traces_published", self.traces_published);
        ndt_obs::incr("sim.ndt_rows_published", self.ndt_rows_published);
        ndt_obs::incr("sim.unreachable", self.unreachable);
        ndt_obs::incr("sim.site_down_drops", self.site_down_drops);
        ndt_obs::incr("sim.sidecar_drops", self.sidecar_drops);
        ndt_obs::incr("sim.sidecar_truncations", self.sidecar_truncations);
        ndt_obs::incr("sim.geo_failures", self.geo_failures);
        ndt_obs::incr("sim.corrupt_rows", self.corrupt_rows);
    }
}

/// A client's effective location for one day: where it lives, which
/// oblast's damage it experiences, and which site serves it. Migration
/// waves change a client's home mid-study; everyone else keeps theirs.
#[derive(Debug, Clone, Copy)]
struct Home {
    city: CityId,
    oblast: Oblast,
    site: SiteId,
}

/// A client's precomputed migration: from `day` on, the client lives at
/// `dest` (`None` = left the country; produces no further tests).
#[derive(Debug, Clone, Copy)]
struct Migration {
    day: i64,
    dest: Option<Home>,
}

/// The platform simulator. Owns the topology, client population, routing
/// engine and error-model databases.
///
/// A clone is a second simulator in the state [`Simulator::new`] left the
/// original in, without rebuilding the topology or the client pool — how
/// the runner's shard pool gives each worker its own simulator from one
/// build.
#[derive(Clone)]
pub struct Simulator {
    config: SimConfig,
    /// The resolved scenario spec (`config.scenario.spec()`, cached).
    spec: &'static ScenarioSpec,
    /// Spec-driven edge-damage model with precomputed intensity means.
    damage: DamageModel,
    /// Per-client migration, precomputed at construction from the spec's
    /// migration waves. A pure function of (client address, wave salts), so
    /// it is identical across thread counts and shard resumes.
    migrations: Vec<Option<Migration>>,
    bt: BuiltTopology,
    lb: LoadBalancer,
    pool: ClientPool,
    /// Worker-thread budget, resolved from `config.threads` exactly once at
    /// construction (0 = all cores). Re-resolving `available_parallelism()`
    /// per call would let one run observe two different budgets.
    resolved_threads: usize,
    /// Each client's dispatched site, precomputed at construction.
    /// Dispatch is a pure function of (city location, client address), so
    /// hoisting it out of the per-test hot path changes no output bytes —
    /// it removes a 210-site haversine scan per simulated test.
    client_sites: Vec<SiteId>,
    geodb: GeoDb,
    displacement: DisplacementModel,
    engine: RoutingEngine,
    transfer: BulkTransfer,
    /// Interface → inferred-router cluster, from an imperfect (70%-recall)
    /// Ally-style resolution run at platform setup. Paths are stamped with
    /// a resolver's-eye fingerprint so the alias-resolution extension can
    /// compare IP-level, resolver-level and ground-truth path counting.
    alias_clusters: HashMap<ndt_topology::Ipv4Addr, u64>,
}

impl Simulator {
    /// Builds the platform with default sub-configurations.
    pub fn new(config: SimConfig) -> Self {
        Self::with_parts(config, TopologyConfig::default(), ClientPoolConfig::default(), GeoDbConfig::default(), RoutingConfig::default())
    }

    /// Builds the platform with explicit sub-configurations (used by the
    /// ablation benches: perfect geolocation, CUBIC servers, …).
    pub fn with_parts(
        config: SimConfig,
        topo_cfg: TopologyConfig,
        client_cfg: ClientPoolConfig,
        geo_cfg: GeoDbConfig,
        routing_cfg: RoutingConfig,
    ) -> Self {
        assert!(config.scale > 0.0, "scale must be positive");
        assert!((0.0..=1.0).contains(&config.unified_fraction), "unified_fraction is a probability");
        let bt = build_topology(&topo_cfg);
        let lb = LoadBalancer::new(&bt);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x00c1_1e57);
        let pool = ClientPool::generate(&bt, &client_cfg, &mut rng);
        let interfaces: Vec<ndt_topology::Ipv4Addr> =
            bt.topology.links().iter().flat_map(|l| [l.a_if, l.b_if]).collect();
        let alias_clusters =
            AliasResolver::new(0.7).cluster_map(&bt.topology, &interfaces, &mut rng);
        let client_sites: Vec<SiteId> =
            pool.clients().iter().map(|c| lb.site_for_city(c.city, c.ip).id).collect();
        let spec = config.scenario.spec();
        // Precompute each client's migration (first matching wave wins).
        // Participation and timing are keyed hashes of the client address —
        // never RNG draws — so the assignment is invariant across threads,
        // shard boundaries and kill→resume.
        let migrations: Vec<Option<Migration>> = pool
            .clients()
            .iter()
            .map(|c| {
                spec.migrations.iter().find_map(|w| {
                    if c.oblast.front() != w.from_front {
                        return None;
                    }
                    let h = splitmix64((c.ip.0 as u64) ^ w.salt);
                    if (h % 10_000) as f64 >= w.fraction * 10_000.0 {
                        return None;
                    }
                    let day =
                        w.start_day + (splitmix64(h) % w.window_days.max(1) as u64) as i64;
                    let dest = w
                        .dest_city
                        .as_deref()
                        .and_then(ndt_geo::city::city_by_name)
                        .map(|(cid, city)| Home {
                            city: cid,
                            oblast: city.oblast,
                            site: lb.site_for_city(cid, c.ip).id,
                        });
                    Some(Migration { day, dest })
                })
            })
            .collect();
        Self {
            config,
            spec,
            damage: DamageModel::new(config.scenario),
            migrations,
            resolved_threads: resolve_threads(config.threads),
            client_sites,
            lb,
            pool,
            geodb: GeoDb::new(geo_cfg),
            displacement: DisplacementModel::for_scenario(config.scenario),
            engine: RoutingEngine::with_config(routing_cfg),
            transfer: BulkTransfer::new(TransferConfig { cca: config.cca, ..Default::default() }),
            alias_clusters,
            bt,
        }
    }

    /// Where client `ci` lives on `day`: its original home, or — once its
    /// migration day passes — its destination. `None` means the client has
    /// left the country and produces no tests in the national sample.
    fn effective_home(&self, ci: usize, day: i64) -> Option<Home> {
        if let Some(m) = self.migrations[ci] {
            if day >= m.day {
                return m.dest;
            }
        }
        let c = &self.pool.clients()[ci];
        Some(Home { city: c.city, oblast: c.oblast, site: self.client_sites[ci] })
    }

    /// FNV-1a over the resolver's cluster ids along a path — what path
    /// counting sees after imperfect alias resolution. Unresolved
    /// interfaces (never observed by the resolver) hash as themselves.
    fn resolved_fingerprint(&self, path: &ndt_topology::Path) -> u64 {
        let mut h: u64 = 0x6384_2232_5cbf_29ce;
        path.for_each_ip(&self.bt.topology, |ip| {
            let id = self.alias_clusters.get(&ip).copied().unwrap_or(ip.0 as u64 | 1 << 63);
            h ^= id;
            h = h.wrapping_mul(0x1000_0000_01b3);
        });
        h
    }

    /// The built topology (for inspection by analyses and tests).
    pub fn built(&self) -> &BuiltTopology {
        &self.bt
    }

    /// The client population.
    pub fn pool(&self) -> &ClientPool {
        &self.pool
    }

    /// The worker-thread budget this simulator was built with — `threads`
    /// from the config, or all available cores when that was 0, resolved
    /// once at construction.
    pub fn resolved_threads(&self) -> usize {
        self.resolved_threads
    }

    /// Fresh per-worker routing engines sized to the resolved thread
    /// budget, as used by [`Simulator::run`].
    pub fn worker_engines(&self) -> Vec<RoutingEngine> {
        (0..self.resolved_threads)
            .map(|_| RoutingEngine::with_config(*self.engine.config()))
            .collect()
    }

    /// Runs the configured windows and returns the published dataset.
    pub fn run(&mut self) -> Dataset {
        let mut engines = self.worker_engines();
        let mut ds = Dataset::default();
        for w in self.config.windows() {
            self.run_days(w, &mut ds, &mut engines);
        }
        ds
    }

    /// Runs one contiguous day range into a fresh dataset — the sharded
    /// entry point for checkpointed generation. Equivalent to the matching
    /// slice of a full [`Simulator::run`]: per-(client, day) RNG streams
    /// and per-day damage application make every day independent of what
    /// was (or was not) simulated before it.
    pub fn run_range(&mut self, days: std::ops::Range<i64>) -> Dataset {
        let mut engines = self.worker_engines();
        let mut ds = Dataset::default();
        self.run_days(days, &mut ds, &mut engines);
        ds
    }

    /// Simulates a contiguous day range into `ds`, sharding clients across
    /// the worker engines.
    pub fn run_days(
        &mut self,
        days: std::ops::Range<i64>,
        ds: &mut Dataset,
        engines: &mut [RoutingEngine],
    ) {
        let mut totals = SimCounters::default();
        let mut days_simulated = 0u64;
        let mut days_lost = 0u64;
        for day in days {
            if self.config.faults.day_lost(day) {
                // Whole ingestion partition lost: nothing from this day
                // reaches either table. Per-(client, day) RNG streams mean
                // skipping a day cannot shift any other day's rows.
                days_lost += 1;
                continue;
            }
            self.apply_day_damage(day);
            totals.merge(&self.simulate_day(day, ds, engines));
            days_simulated += 1;
        }
        // Leave the topology healthy for the next window.
        self.bt.topology.heal_all();
        // One registry flush per day range keeps the per-test path free of
        // shared state.
        totals.flush();
        ndt_obs::incr("sim.days_simulated", days_simulated);
        ndt_obs::incr("sim.days_lost", days_lost);
        for engine in engines.iter_mut() {
            engine.flush_counters();
        }
    }

    /// Applies the conflict model's state for one day to the topology.
    ///
    /// Every link taken down here forces BGP onto an alternate path the
    /// next time a test is routed, so the `sim.links_*` counters published
    /// at the end are the day-by-day budget of forced reroutes.
    fn apply_day_damage(&mut self, day: i64) {
        let topo = &mut self.bt.topology;
        topo.heal_all();
        if !self.spec.core_damage {
            return;
        }
        let mut links_degraded = 0u64;
        let mut links_downed = 0u64;
        let mut links_flapped = 0u64;
        // Border-AS decay, flaps and permanent re-homings, from the spec's
        // transit rules (Figures 5 and 6).
        for dmg in border_damage_for(self.spec, day) {
            let links: Vec<_> = topo
                .links_of(dmg.asn)
                .filter(|l| topo.catalog.is_ukrainian(l.peer_of(dmg.asn)))
                .map(|l| l.id)
                .collect();
            for id in links {
                topo.degrade_link(id, dmg.loss_add, dmg.latency_mult);
                links_degraded += 1;
                if dmg.down {
                    topo.set_link_up(id, false);
                    links_downed += 1;
                }
            }
        }
        // Intra-Ukraine transit instability: links whose Ukrainian transit
        // router sits in a high-intensity oblast flap on a deterministic
        // schedule scaled by that intensity. This is the mechanism that
        // couples path churn (Table 2, Figure 9) to regional damage — BGP
        // reroutes around the dead interconnect, the connection gains a
        // path, and the client behind it is in the damaged region.
        let flap_candidates: Vec<(ndt_topology::LinkId, ndt_geo::Oblast)> = {
            let tro = &self.bt.transit_router_oblast;
            topo.links()
                .iter()
                .filter_map(|l| tro.get(&l.a).or_else(|| tro.get(&l.b)).map(|ob| (l.id, *ob)))
                .collect()
        };
        for (lid, oblast) in flap_candidates {
            let inten = intensity_for(self.spec, oblast, day);
            if inten <= 0.0 {
                continue;
            }
            // Deterministic per-(link, day) coin with P(down) = 0.12 × intensity.
            let h = splitmix64((lid.0 as u64) << 32 | (day as u64 & 0xffff_ffff));
            if (h % 1_000) as f64 <= 120.0 * inten {
                topo.set_link_up(lid, false);
                links_flapped += 1;
            }
        }
        // Transit outages (March 10): majority-of-day outages take the
        // network's links down for the day; the 40-minute Ukrtelecom blip
        // shows up as the curiosity spike instead.
        for outage in outages_for(self.spec, day) {
            if outage.down_fraction >= 0.5 {
                let links: Vec<_> = topo.links_of(outage.asn).map(|l| l.id).collect();
                for id in links {
                    topo.set_link_up(id, false);
                    links_downed += 1;
                }
            }
        }
        ndt_obs::incr("sim.links_degraded", links_degraded);
        ndt_obs::incr("sim.links_downed", links_downed);
        ndt_obs::incr("sim.links_flapped", links_flapped);
    }

    }

impl Simulator {
    /// Expected-volume multiplier for a client on a day, evaluated at its
    /// effective home (migrated clients take on their destination's
    /// displacement curves and damage region).
    fn activity(&self, client: &crate::client::Client, home: &Home, day: i64) -> f64 {
        let year_mult = if day < 365 { self.config.volume_mult_2021 } else { 1.0 };
        if !self.spec.displacement {
            return year_mult * self.config.scale;
        }
        let base = self.displacement.city_activity(home.city, day);
        // AS-specific count deviation relative to the *national* trend
        // (Table 3's ΔCounts are national figures; dividing by the local
        // oblast trend instead would explode national ISPs' rates inside
        // collapsed regions).
        let as_adj = match as_profile(client.asn) {
            Some(p) => {
                let scale = self.damage.scale(home.oblast, day);
                let national = 1.0 + (NATIONAL_COUNT_MULT - 1.0) * scale;
                p.at_scale(scale).count_mult / national
            }
            None => 1.0,
        };
        year_mult * base * as_adj * self.displacement.spike(day) * self.config.scale
    }

    /// Simulates all clients for one day, sharded across worker threads,
    /// and returns the day's merged work counters.
    ///
    /// Every (client, day) draws from its own derived RNG stream and each
    /// worker appends into a private buffer; buffers merge in client order,
    /// so the published dataset is bit-identical for any worker count. Each
    /// worker likewise counts into a private [`SimCounters`]; merged sums
    /// are thread-count-independent because addition commutes.
    fn simulate_day(
        &mut self,
        day: i64,
        ds: &mut Dataset,
        engines: &mut [RoutingEngine],
    ) -> SimCounters {
        let n_clients = self.pool.len();
        let threads = engines.len().max(1);
        // Single-engine runs (e.g. shard-pool workers that each got one
        // engine from the thread budget) skip the scoped-thread machinery;
        // the merge below is a no-op reorder, so output bytes are identical.
        if threads == 1 {
            if let [engine] = engines {
                let mut counters = SimCounters::default();
                for ci in 0..n_clients {
                    self.simulate_client_day(engine, ci, day, ds, &mut counters);
                }
                return counters;
            }
        }
        let chunk = n_clients.div_ceil(threads);
        let this: &Simulator = self;
        let mut buffers: Vec<(Dataset, SimCounters)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, engine) in engines.iter_mut().enumerate() {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n_clients);
                if lo >= hi {
                    continue;
                }
                handles.push(scope.spawn(move || {
                    let mut out = Dataset::default();
                    let mut counters = SimCounters::default();
                    for ci in lo..hi {
                        this.simulate_client_day(engine, ci, day, &mut out, &mut counters);
                    }
                    (out, counters)
                }));
            }
            for h in handles {
                buffers.push(h.join().expect("worker panicked"));
            }
        });
        let mut totals = SimCounters::default();
        for (mut b, c) in buffers {
            ds.ndt.append(&mut b.ndt);
            ds.traces.append(&mut b.traces);
            totals.merge(&c);
        }
        totals
    }

    /// Simulates one client's tests for one day from its derived stream.
    fn simulate_client_day(
        &self,
        engine: &mut RoutingEngine,
        ci: usize,
        day: i64,
        out: &mut Dataset,
        counters: &mut SimCounters,
    ) {
        let client = &self.pool.clients()[ci];
        // A client that has left the country produces no tests. The check
        // sits before the Poisson draw, which is harmless to determinism:
        // every (client, day) has its own derived stream, so skipping one
        // client shifts nobody else's draws.
        let Some(home) = self.effective_home(ci, day) else {
            return;
        };
        let lambda = client.daily_rate * self.activity(client, &home, day);
        if lambda <= 0.0 {
            return;
        }
        let site = &self.lb.sites()[home.site.0 as usize];
        let mut rng = StdRng::seed_from_u64(splitmix64(
            splitmix64(self.config.seed ^ (day as u64)) ^ ci as u64,
        ));
        let n_tests = Poisson::new(lambda).sample_count(&mut rng);
        for k in 0..n_tests {
            self.simulate_test(engine, client, &home, site, day, k, out, &mut rng, counters);
        }
    }

    /// Simulates one NDT download + scamper sidecar.
    #[allow(clippy::too_many_arguments)]
    fn simulate_test(
        &self,
        engine: &mut RoutingEngine,
        client: &crate::client::Client,
        home: &Home,
        site: &Site,
        day: i64,
        test_index: u64,
        ds: &mut Dataset,
        rng: &mut StdRng,
        counters: &mut SimCounters,
    ) {
        counters.tests += 1;
        // Damaged edge infrastructure forces local rerouting: lower the
        // primary-route bias in proportion to the client's exposure and the
        // day's regional intensity.
        let inten =
            if self.spec.edge_damage { intensity_for(self.spec, home.oblast, day) } else { 0.0 };
        let churn = (0.22 * client.war_exposure * inten).min(0.5);
        let bias = (engine.config().primary_bias * (1.0 - churn)).max(0.3);
        let Some(path) =
            engine.select_path_with_bias(&self.bt.topology, site.host_asn, client.asn, bias, rng)
        else {
            // Destination unreachable (e.g. single-homed ISP behind a downed
            // transit): the test never completes, no row is published.
            counters.unreachable += 1;
            return;
        };
        let mut profile = if self.spec.edge_damage {
            self.damage.client_profile(client.asn, home.oblast, day)
        } else {
            ndt_conflict::damage::DamageProfile::NONE
        };
        // Besieged cities take damage beyond their region's trend.
        if let Some(siege) = self
            .damage
            .siege_boost(home.city.get().name, day)
            .filter(|_| self.spec.edge_damage)
        {
            profile.tput_mult *= siege.tput_mult;
            profile.rtt_mult *= siege.rtt_mult;
            profile.loss_mult *= siege.loss_mult;
        }
        // Per-client exposure scales the damage deltas around the regional
        // mean (median exposure is 1, so period means stay calibrated).
        let expose = |mult: f64| (1.0 + (mult - 1.0) * client.war_exposure).max(0.02);
        // Edge + core composition. The damage multipliers act on the
        // client's access segment (the paper's §5 hypothesis places most
        // damage at the network edge); core damage (border decay, reroutes)
        // arrives through the selected path's own metrics.
        let base_rtt = expose(profile.rtt_mult) * (2.0 * path.oneway_latency_ms + client.edge_rtt_ms);
        let edge_loss = (client.edge_loss * expose(profile.loss_mult)).min(0.9);
        let loss = 1.0 - (1.0 - edge_loss) * (1.0 - path.core_loss);
        let bottleneck = (client.access_mbps * expose(profile.tput_mult))
            .min(path.bottleneck_mbps)
            .max(0.1);
        let stats = self.transfer.run(
            &PathCharacteristics::new(base_rtt.max(0.2), bottleneck, loss.min(0.95)),
            rng,
        );
        // Platform faults are decided by keyed hashes (never `rng` draws),
        // and they only gate/mangle *publication*: the simulation below this
        // point consumes the same stream under every plan, so a faulted
        // dataset is a strict degradation of the clean one.
        let faults = &self.config.faults;
        let site_down = faults.site_down(site.server_ip.0, day);
        if site_down {
            counters.site_down_drops += 1;
        } else if faults.sidecar_dropped(client.ip.0, day, test_index) {
            counters.sidecar_drops += 1;
        }
        if !site_down && !faults.sidecar_dropped(client.ip.0, day, test_index) {
            let full_border = path.border_crossing(&self.bt.topology.catalog);
            let (as_path, border, truncated) = match faults.sidecar_truncated_len(
                client.ip.0,
                day,
                test_index,
                path.as_seq.len(),
            ) {
                Some(keep) => {
                    let prefix = truncate_as_path(&path.as_seq, keep);
                    // The border crossing survives only if both its ASes are
                    // still consecutive in the surviving prefix.
                    let border = full_border
                        .filter(|&(a, b)| prefix.windows(2).any(|w| w[0] == a && w[1] == b));
                    (prefix, border, true)
                }
                None => (path.as_seq.clone(), full_border, false),
            };
            // A truncated trace observes a different (shorter) path, so its
            // fingerprints must differ from the intact trace's.
            let fp_mix =
                if truncated { splitmix64(as_path.len() as u64 | 1 << 40) } else { 0 };
            counters.traces_published += 1;
            if truncated {
                counters.sidecar_truncations += 1;
            }
            ds.traces.push(Scamper1Row {
                day,
                client_ip: client.ip,
                server_ip: site.server_ip,
                path_fingerprint: path.fingerprint() ^ fp_mix,
                router_fingerprint: path.router_fingerprint() ^ fp_mix,
                resolved_fingerprint: self.resolved_fingerprint(&path) ^ fp_mix,
                as_path,
                border,
                mean_tput_mbps: stats.mean_tput_mbps,
                min_rtt_ms: stats.min_rtt_ms,
                loss_rate: stats.loss_rate,
            });
        }
        if rng.random::<f64>() < self.config.unified_fraction {
            if site_down {
                return;
            }
            // Geolocation noise draws from its own derived stream so that
            // changing the geo error model never perturbs the rest of the
            // simulation (exercised by the geolocation ablation tests).
            let mut geo_rng = StdRng::seed_from_u64(splitmix64(
                (client.ip.0 as u64) ^ ((day as u64) << 32) ^ (test_index << 1),
            ));
            let geo = self.geodb.lookup(home.city, &mut geo_rng);
            let mut row = UnifiedDownloadRow {
                day,
                client_ip: client.ip,
                server_ip: site.server_ip,
                client_asn: client.asn,
                oblast: geo.oblast,
                city: geo.city,
                mean_tput_mbps: stats.mean_tput_mbps,
                min_rtt_ms: stats.min_rtt_ms,
                loss_rate: stats.loss_rate,
            };
            if faults.geo_failed(client.ip.0, day, test_index) {
                row.oblast = None;
                row.city = None;
                counters.geo_failures += 1;
            }
            let corruption = faults.row_corruption(client.ip.0, day, test_index);
            if corruption.is_some() {
                counters.corrupt_rows += 1;
            }
            match corruption {
                Some(Corruption::NanThroughput) => row.mean_tput_mbps = f64::NAN,
                Some(Corruption::NegativeThroughput) => row.mean_tput_mbps = -row.mean_tput_mbps,
                Some(Corruption::NanRtt) => row.min_rtt_ms = f64::NAN,
                Some(Corruption::NanLoss) => row.loss_rate = f64::NAN,
                Some(Corruption::NullGeo) => {
                    row.oblast = None;
                    row.city = None;
                }
                None => {}
            }
            counters.ndt_rows_published += 1;
            ds.ndt.push(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndt_conflict::calendar::dates;

    fn small_dataset(seed: u64) -> Dataset {
        Simulator::new(SimConfig::small(seed)).run()
    }

    #[test]
    fn generates_both_windows_at_expected_volume() {
        let ds = small_dataset(1);
        let cfg = SimConfig::small(1);
        // Expected raw volume: two 108-day windows, the 2021 one at
        // reduced volume: 108 × 7900 × (0.42 + 1.0) × scale.
        let expected = 108.0 * 7_900.0 * (cfg.volume_mult_2021 + 1.0) * cfg.scale;
        let got = ds.traces.len() as f64;
        assert!((got - expected).abs() / expected < 0.15, "raw tests = {got}, expected ≈ {expected}");
        // Unified subsample fraction.
        let frac = ds.ndt.len() as f64 / got;
        assert!((frac - cfg.unified_fraction).abs() < 0.01, "unified fraction = {frac}");
        // Rows from both years.
        assert!(ds.traces.iter().any(|r| r.day < 365));
        assert!(ds.traces.iter().any(|r| r.day >= 365));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small_dataset(9);
        let b = small_dataset(9);
        assert_eq!(a.traces.len(), b.traces.len());
        assert_eq!(a.ndt.len(), b.ndt.len());
        assert_eq!(a.traces[..50.min(a.traces.len())], b.traces[..50.min(b.traces.len())]);
    }

    #[test]
    fn windows_and_shards_cover_the_study_days() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.windows(), vec![0..108, 365..473]);
        let shards = cfg.shards(27);
        assert_eq!(shards.len(), 8);
        let mut days: Vec<i64> = shards.iter().flat_map(|r| r.clone()).collect();
        let full: Vec<i64> = cfg.windows().into_iter().flatten().collect();
        assert_eq!(days, full, "shards must partition the windows in order");
        days.dedup();
        assert_eq!(days.len(), 216);
        // Uneven shard sizes still cover everything.
        let total: i64 = cfg.shards(50).iter().map(|r| r.end - r.start).sum();
        assert_eq!(total, 216);
        let only_2022 = SimConfig { simulate_2021: false, ..cfg };
        assert_eq!(only_2022.windows(), vec![365..473]);
    }

    #[test]
    fn sharded_generation_matches_a_full_run() {
        let cfg = SimConfig { scale: 0.02, seed: 41, ..SimConfig::default() };
        let full = Simulator::new(cfg).run();
        // One simulator reused across shards (the in-process path) ...
        let mut sim = Simulator::new(cfg);
        let mut reused = Dataset::default();
        for shard in cfg.shards(27) {
            let mut part = sim.run_range(shard);
            reused.ndt.append(&mut part.ndt);
            reused.traces.append(&mut part.traces);
        }
        assert_eq!(full, reused, "reused-simulator shards diverge from the full run");
        // ... and a fresh simulator per shard (the resume-from-disk path).
        let mut fresh = Dataset::default();
        for shard in cfg.shards(27) {
            let mut part = Simulator::new(cfg).run_range(shard);
            fresh.ndt.append(&mut part.ndt);
            fresh.traces.append(&mut part.traces);
        }
        assert_eq!(full, fresh, "fresh-simulator shards diverge from the full run");
    }

    #[test]
    fn output_is_identical_for_any_thread_count() {
        let run_with = |threads: usize| {
            let cfg = SimConfig { threads, scale: 0.02, seed: 77, ..SimConfig::default() };
            Simulator::new(cfg).run()
        };
        let serial = run_with(1);
        let par3 = run_with(3);
        let par8 = run_with(8);
        assert_eq!(serial, par3);
        assert_eq!(serial, par8);
    }

    #[test]
    fn wartime_degrades_unified_metrics_nationally() {
        let ds = small_dataset(3);
        let (ps, pe) = Period::Prewar2022.day_range();
        let (ws, we) = Period::Wartime2022.day_range();
        let sel = |lo: i64, hi: i64| -> Vec<&UnifiedDownloadRow> {
            ds.ndt.iter().filter(|r| (lo..hi).contains(&r.day)).collect()
        };
        let mean = |rows: &[&UnifiedDownloadRow], f: fn(&UnifiedDownloadRow) -> f64| {
            rows.iter().map(|r| f(r)).sum::<f64>() / rows.len() as f64
        };
        let pre = sel(ps, pe);
        let war = sel(ws, we);
        assert!(pre.len() > 1000 && war.len() > 1000);
        assert!(
            mean(&war, |r| r.loss_rate) > 1.5 * mean(&pre, |r| r.loss_rate),
            "loss: prewar {} vs wartime {}",
            mean(&pre, |r| r.loss_rate),
            mean(&war, |r| r.loss_rate)
        );
        assert!(mean(&war, |r| r.min_rtt_ms) > 1.2 * mean(&pre, |r| r.min_rtt_ms));
        assert!(mean(&war, |r| r.mean_tput_mbps) < 0.95 * mean(&pre, |r| r.mean_tput_mbps));
    }

    #[test]
    fn baseline_2021_stays_flat() {
        let ds = small_dataset(4);
        let (b1s, b1e) = Period::BaselineJanFeb2021.day_range();
        let (b2s, b2e) = Period::BaselineFebApr2021.day_range();
        let mean_loss = |lo: i64, hi: i64| {
            let rows: Vec<_> = ds.ndt.iter().filter(|r| (lo..hi).contains(&r.day)).collect();
            rows.iter().map(|r| r.loss_rate).sum::<f64>() / rows.len() as f64
        };
        let a = mean_loss(b1s, b1e);
        let b = mean_loss(b2s, b2e);
        assert!((a - b).abs() / a < 0.25, "baseline drift: {a} vs {b}");
    }

    #[test]
    fn outage_day_shows_test_spike() {
        let ds = small_dataset(5);
        let mar10 = dates::NATIONAL_OUTAGES.day_index();
        let count = |d: i64| ds.traces.iter().filter(|r| r.day == d).count() as f64;
        let spike = count(mar10);
        let typical = ((mar10 - 6)..(mar10 - 1)).map(count).sum::<f64>() / 5.0;
        assert!(spike > 1.25 * typical, "no spike: {spike} vs typical {typical}");
    }

    #[test]
    fn traces_have_valid_structure() {
        let ds = small_dataset(6);
        for r in ds.traces.iter().take(2_000) {
            assert!(r.as_path.len() >= 2);
            assert!(r.border.is_some(), "every UA test crosses the border");
            assert!(r.min_rtt_ms > 0.0);
            assert!((0.0..=1.0).contains(&r.loss_rate));
        }
    }
}
