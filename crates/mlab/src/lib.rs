//! # ndt-mlab
//!
//! M-Lab platform simulator for the `ukraine-ndt` reproduction of *"The
//! Ukrainian Internet Under Attack: an NDT Perspective"* (IMC '22).
//!
//! This crate is the generative heart of the reproduction. It models the
//! measurement platform the paper's data came from:
//!
//! * **Sites** ([`site`]) — 210 M-Lab sites in 47 countries (none in
//!   Ukraine or Russia), each inside a hosting AS wired into the
//!   `ndt-topology` graph, with a geographic **load balancer** that sends
//!   each client to its nearest metro and pins it to one site there (so a
//!   client forms a stable (client IP, server IP) *connection*, the §5.1
//!   unit of analysis);
//! * **Clients** ([`client`]) — per-(oblast × city × AS) populations with
//!   persistent addresses, heavy-tailed per-client test rates (a small core
//!   of frequent testers accumulates the ~100–200 tests/connection the
//!   paper's Table 2 reports for its top-1000 connections), and per-client
//!   last-mile characteristics calibrated against Table 4's prewar values;
//! * **Tests** ([`sim`]) — for every simulated day, each client runs a
//!   Poisson number of NDT downloads modulated by displacement, AS-specific
//!   behaviour and outage-day curiosity spikes; each test selects a route
//!   through the topology, runs the `ndt-tcp` transfer over the combined
//!   core+edge path characteristics, is geolocated through the error-prone
//!   `ndt-geo` database, and emits two rows ([`schema`]): one in the
//!   `unified_download` shape (§4's dataset) and one scamper traceroute
//!   row (§5's dataset);
//! * **War** — each day the simulator applies the `ndt-conflict` damage:
//!   per-oblast/per-AS degradation of the edge, border-AS decay and flaps
//!   (Cogent fade-out, AS6663 collapse), and the March 10 transit outages.
//!
//! Everything is deterministic under [`SimConfig::seed`]. The full-scale
//! 2021+2022 dataset (~1M raw tests) generates in seconds; tests and CI use
//! a reduced [`SimConfig::scale`].

pub mod client;
pub mod columnar;
pub mod fault;
pub mod schema;
pub mod sim;
pub mod site;

pub use client::{Client, ClientPool};
pub use fault::{Corruption, FaultPlan};
pub use schema::{Dataset, Scamper1Row, UnifiedDownloadRow};
pub use sim::{Scenario, SimConfig, SimCounters, Simulator};
pub use site::{LoadBalancer, Site, SiteId};
