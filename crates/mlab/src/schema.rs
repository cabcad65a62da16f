//! Published row shapes, mirroring the two BigQuery tables the paper reads.
//! A row is one test's record; the tables themselves are columnar
//! ([`crate::columnar`]).

use crate::columnar::{TraceBatch, UnifiedBatch};
use ndt_geo::{CityId, Oblast};
use ndt_topology::{Asn, Ipv4Addr};

/// One row of the `ndt.unified_download`-shaped table (§3: "Bigquery table
/// ndt.unified_download"): a completed NDT download with its TCP_INFO
/// metrics and MaxMind geo annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct UnifiedDownloadRow {
    /// Day index (days since 2021-01-01).
    pub day: i64,
    /// Client address.
    pub client_ip: Ipv4Addr,
    /// Server address (determines the connection pair).
    pub server_ip: Ipv4Addr,
    /// Client access AS (resolved from the client address).
    pub client_asn: Asn,
    /// MaxMind-reported region, if located.
    pub oblast: Option<Oblast>,
    /// MaxMind-reported city, if labeled.
    pub city: Option<CityId>,
    /// Mean download throughput, Mbps.
    pub mean_tput_mbps: f64,
    /// Minimum RTT, milliseconds.
    pub min_rtt_ms: f64,
    /// Loss rate (fraction).
    pub loss_rate: f64,
}

/// One row of the `ndt.scamper1`-shaped table: the sidecar traceroute for a
/// test, pre-joined (as the paper does) with the test's own metrics.
///
/// Full hop lists live in `ndt-topology`'s `Traceroute`; this row keeps the
/// derived quantities §5 consumes: the IP-path fingerprint (distinct-path
/// counting), the AS sequence (per-AS attribution) and the border crossing
/// (Figure 5/6 axes).
#[derive(Debug, Clone, PartialEq)]
pub struct Scamper1Row {
    pub day: i64,
    pub client_ip: Ipv4Addr,
    pub server_ip: Ipv4Addr,
    /// FNV fingerprint of the interface-level (IP-level) path — what §5.1
    /// counts.
    pub path_fingerprint: u64,
    /// FNV fingerprint of the router-level path (ground truth for the
    /// alias-resolution extension).
    pub router_fingerprint: u64,
    /// FNV fingerprint of the path as an imperfect Ally-style alias
    /// resolver sees it (interfaces mapped through recovered clusters) —
    /// between the IP-level and router-level granularities.
    pub resolved_fingerprint: u64,
    /// AS-level sequence server→client (deduplicated).
    pub as_path: Vec<Asn>,
    /// First foreign→Ukrainian link on the path.
    pub border: Option<(Asn, Asn)>,
    /// Metrics of the accompanying NDT test.
    pub mean_tput_mbps: f64,
    pub min_rtt_ms: f64,
    pub loss_rate: f64,
}

/// A generated dataset: both "BigQuery tables", as the typed columns the
/// store and the analyses read. Both tables are in day order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// §4's table: downsampled, validated download rows.
    pub ndt: UnifiedBatch,
    /// §5's table: one traceroute row per raw test.
    pub traces: TraceBatch,
}
