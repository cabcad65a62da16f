//! Published row shapes, mirroring the two BigQuery tables the paper reads.

use ndt_bq::{ColType, Table};
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

/// A generated dataset: both "BigQuery tables".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// §4's table: downsampled, validated download rows.
    pub ndt: Vec<UnifiedDownloadRow>,
    /// §5's table: one traceroute row per raw test.
    pub traces: Vec<Scamper1Row>,
}

/// An empty `ndt.unified_download`-shaped `ndt-bq` table, which
/// `ndt_analysis::StudyDataBuilder` fills batch by batch through
/// [`crate::columnar::push_unified_batch`].
pub fn empty_unified_table() -> Table {
    let mut t = Table::new(
        "ndt.unified_download",
        &[
            ("day", ColType::Int),
            ("client_ip", ColType::Int),
            ("server_ip", ColType::Int),
            ("client_asn", ColType::Int),
            ("oblast", ColType::Str),
            ("city", ColType::Str),
            ("tput", ColType::Float),
            ("min_rtt", ColType::Float),
            ("loss", ColType::Float),
        ],
    );
    // The two categorical columns draw from small closed vocabularies
    // (27 oblasts, ~2k cities); dictionary encoding stores one u32 code
    // per row instead of a heap String, and query filters compare codes.
    // Encoding is invisible to every value-level accessor, so tables
    // built row-wise and batch-wise stay cell-for-cell identical.
    t.dict_encode("oblast");
    t.dict_encode("city");
    t
}

/// Appends one unified row to a table created by [`empty_unified_table`]:
/// the row-at-a-time oracle the batch ingest is tested against.
#[cfg(test)]
pub(crate) fn push_unified_row(t: &mut Table, r: &UnifiedDownloadRow) {
    use ndt_bq::Value;
    t.push(vec![
        Value::Int(r.day),
        Value::Int(r.client_ip.0 as i64),
        Value::Int(r.server_ip.0 as i64),
        Value::Int(r.client_asn.0 as i64),
        r.oblast.map(|o| Value::from(o.name())).unwrap_or(Value::Null),
        r.city.map(|c| Value::from(c.get().name)).unwrap_or(Value::Null),
        Value::Float(r.mean_tput_mbps),
        Value::Float(r.min_rtt_ms),
        Value::Float(r.loss_rate),
    ]);
}

#[cfg(test)]
impl Dataset {
    /// Ingests the unified rows into an `ndt-bq` table one row at a time
    /// ([`push_unified_row`]) — the reference table tests compare the
    /// batch ingest against.
    pub(crate) fn unified_table(&self) -> Table {
        let mut t = empty_unified_table();
        for r in &self.ndt {
            push_unified_row(&mut t, r);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndt_bq::Value;

    fn row(day: i64, oblast: Option<Oblast>) -> UnifiedDownloadRow {
        UnifiedDownloadRow {
            day,
            client_ip: Ipv4Addr(1),
            server_ip: Ipv4Addr(2),
            client_asn: Asn(100),
            oblast,
            city: None,
            mean_tput_mbps: 40.0,
            min_rtt_ms: 12.0,
            loss_rate: 0.01,
        }
    }

    #[test]
    fn unified_table_roundtrip() {
        let ds = Dataset {
            ndt: vec![row(419, Some(Oblast::KyivCity)), row(420, None)],
            traces: vec![],
        };
        let t = ds.unified_table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(0, "oblast"), Value::from("Kiev City"));
        assert!(t.value(1, "oblast").is_null());
        assert_eq!(t.query().filter_not_null("oblast").count(), 1);
        assert!((t.query().mean("tput") - 40.0).abs() < 1e-12);
    }
}
