//! # ukraine-ndt
//!
//! A full-system Rust reproduction of *"The Ukrainian Internet Under
//! Attack: an NDT Perspective"* (Jain, Patra, Xu, Sherry, Gill — ACM IMC
//! 2022).
//!
//! The paper measures how the user-perceived performance of the Ukrainian
//! Internet degraded during the first 54 days of the 2022 Russian invasion,
//! using Measurement Lab's NDT dataset and its scamper traceroute sidecar.
//! Its raw inputs — M-Lab's BigQuery tables, MaxMind geolocation, and the
//! Ukrainian Internet at war — cannot be bundled with a code artifact, so
//! this workspace rebuilds the entire measurement ecosystem as a
//! deterministic simulation and then runs the paper's full analysis
//! pipeline over it:
//!
//! * [`geo`] (`ndt-geo`) — Ukraine's 27 regions, cities, fronts, and a
//!   MaxMind-style geolocation database with the paper's error model;
//! * [`topology`] (`ndt-topology`) — an AS/router model of the Ukrainian
//!   Internet with policy routing, multipath and failure-driven rerouting;
//! * [`tcp`] (`ndt-tcp`) — BBR/CUBIC bulk-transfer response models
//!   producing `TCP_INFO`-style statistics;
//! * [`conflict`] (`ndt-conflict`) — the war as a generative model:
//!   calendar, per-oblast intensity, damage profiles calibrated against the
//!   paper's own tables, displacement and outage events;
//! * [`mlab`] (`ndt-mlab`) — the M-Lab platform: 210 sites, geographic load
//!   balancing, heavy-tailed client populations, NDT tests + traceroutes;
//! * [`stats`] (`ndt-stats`) — Welch's t-test with real p-values, special
//!   functions, histograms, correlation, samplers;
//! * [`analysis`] (`ndt-analysis`) — one module per table and figure of the
//!   paper, over the `unified_download` rows as one typed columnar table
//!   standing in for BigQuery.
//!
//! ## Quickstart
//!
//! ```no_run
//! use ukraine_ndt::prelude::*;
//! use ukraine_ndt::runner::run_report;
//!
//! // Generate a reduced corpus (scale 1.0 reproduces the paper's ~850k
//! // wartime-window tests) and run every analysis stage over it, exactly
//! // as `ukraine-ndt report --scale 0.1` does.
//! let mut cfg = PipelineConfig::new(SimConfig { scale: 0.1, ..SimConfig::default() }, "out");
//! cfg.checkpoints = false; // keep the run off disk
//! let outcome = run_report(&cfg)?;
//! println!("{}", outcome.report);
//! # Ok::<(), NdtError>(())
//! ```
//!
//! The pipeline is panic-free on degraded data: inject platform faults
//! with [`mlab::FaultPlan`] (`SimConfig { faults, .. }`) and every
//! table/figure still computes, carrying a `coverage` accounting of what
//! was dropped. A stage that fails outright becomes a placeholder section
//! and a failed record in [`runner::PipelineOutcome`], so `run_report`
//! surfaces only I/O failures as an [`NdtError`]; a single module's
//! `compute` returns an [`analysis::AnalysisError`] only on input it cannot
//! work with at all (the A/B table without a second country).
//!
//! Single tables and figures are one call each over a
//! [`analysis::StudyData`]: `analysis::table1_cities::compute(&data)`, for
//! example, as `examples/quickstart.rs` shows.
//!
//! See `examples/` for runnable scenarios and `EXPERIMENTS.md` for the
//! paper-vs-measured comparison of every table and figure.

pub use ndt_analysis as analysis;
pub use ndt_conflict as conflict;
pub use ndt_geo as geo;
pub use ndt_mlab as mlab;
pub use ndt_obs as obs;
pub use ndt_runner as runner;
pub use ndt_scenario as scenario;
pub use ndt_serve as serve;
pub use ndt_stats as stats;
pub use ndt_store as store;
pub use ndt_tcp as tcp;
pub use ndt_topology as topology;
pub use ndt_vfs as vfs;

/// Workspace-level error facade: every way the reproduction can fail,
/// under one type. Degraded *data* never lands here — the analysis layer
/// absorbs it into per-result `Coverage` accounting; this surfaces schema
/// drift and I/O failures.
#[derive(Debug)]
pub enum NdtError {
    /// An analysis failed (missing/mistyped column, degenerate input).
    Analysis(ndt_analysis::AnalysisError),
    /// Writing or reading artifacts failed.
    Io(std::io::Error),
}

impl std::fmt::Display for NdtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NdtError::Analysis(e) => write!(f, "analysis error: {e}"),
            NdtError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NdtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NdtError::Analysis(e) => Some(e),
            NdtError::Io(e) => Some(e),
        }
    }
}

impl From<ndt_analysis::AnalysisError> for NdtError {
    fn from(e: ndt_analysis::AnalysisError) -> Self {
        NdtError::Analysis(e)
    }
}

impl From<std::io::Error> for NdtError {
    fn from(e: std::io::Error) -> Self {
        NdtError::Io(e)
    }
}

/// The most common imports for driving the reproduction.
pub mod prelude {
    pub use crate::NdtError;
    pub use ndt_analysis::{AnalysisError, Coverage, StudyData};
    pub use ndt_conflict::{Date, Period};
    pub use ndt_geo::Oblast;
    pub use ndt_mlab::{Dataset, FaultPlan, SimConfig, Simulator};
    pub use ndt_runner::{write_atomic, PipelineConfig, PipelineOutcome};
    pub use ndt_stats::{welch_t_test, WelchTTest};
    pub use ndt_topology::{build_topology, Asn, TopologyConfig};
    pub use ndt_vfs::{IoFaultPlan, VfsHandle};
}
