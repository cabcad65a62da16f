//! Typed row ↔ column mapping between the corpus schemas and the
//! `ndt-store` shard format.
//!
//! `ndt-store` moves anonymous `[ColumnData]` groups; this module gives
//! those columns their meaning for the two corpus tables:
//!
//! * **unified** — one row per published NDT download
//!   ([`UnifiedDownloadRow`]): `day` delta+varint, addresses and ASN
//!   dictionary-or-raw `u32`, oblast/city as sentinel-tagged `u32`
//!   categoricals, metrics as exact `f64` bit patterns;
//! * **traces** — one row per sidecar traceroute ([`Scamper1Row`]): the
//!   three path fingerprints as `u64` columns (heavily repeated, so they
//!   dictionary-encode), and the variable-length AS path flattened into a
//!   lengths column plus an `aux` values column with an independent
//!   per-group row count.
//!
//! The typed readers return every row of a shard: each scan decodes, and
//! so checksum-verifies, every page, and every row is validated before it
//! is handed out. The analyses filter in memory, as the paper's queries
//! over the whole BigQuery tables do.
//!
//! [`UnifiedBatch`] is the one columnar form of unified rows: the writer
//! encodes each group from [`UnifiedBatch::from_rows`],
//! [`scan_unified_batches`] hands each validated group back as one (owned
//! column vectors, no per-row structs), and `ndt-analysis` appends the
//! batches into one `UnifiedBatch` that is its §4 analysis table. The
//! oblast and city columns keep their store codes there; the sentinels
//! for unlocated rows stay private to this module, and callers compare
//! codes through [`UnifiedBatch::oblast_code`], [`UnifiedBatch::city_code`],
//! [`UnifiedBatch::has_oblast`] and [`UnifiedBatch::has_city`]. The
//! row-wise readers ([`scan_unified`], [`scan_traces`]) materialize typed
//! row structs from the same scan.
//!
//! Writes and scans *return* their [`WriteStats`] /
//! [`ndt_store::ScanStats`] and leave publishing to the caller — exactly
//! once per committed shard ([`write_stats_tally`]) or successful scan
//! ([`publish_scan_stats`]), in a deterministic order — so a retried
//! write counts once, counter values do not depend on the decode thread
//! budget, and a failed (quarantined) shard contributes nothing. Byte and
//! row counts are pure functions of the corpus, so they fall under the
//! counter determinism contract; wall-clock timing stays in span land.

use crate::schema::{Scamper1Row, UnifiedDownloadRow};
use ndt_geo::{CityId, Oblast};
use ndt_store::wire::CodecError;
use ndt_store::{
    Batch, ColType, ColumnData, ColumnSpec, Scan, Schema, Shard, ShardWriter, StoreError,
    WriteStats, DEFAULT_GROUP_ROWS,
};
use ndt_topology::{Asn, Ipv4Addr};
use std::io::Write;

/// Sentinel in the `oblast` column for rows MaxMind failed to locate.
const OBLAST_NONE: u32 = 0xFF;
/// Sentinel in the `city` column for rows without a city label (city ids
/// are `u16`, so the first value outside that range is free).
const CITY_NONE: u32 = 0x1_0000;

/// `Oblast → u8` index in the stable Table 4 order ([`Oblast::all`]).
fn oblast_index(o: Oblast) -> u8 {
    Oblast::all().position(|x| x == o).unwrap_or(0) as u8
}

fn oblast_from_index(i: u8) -> Result<Oblast, CodecError> {
    Oblast::all()
        .nth(i as usize)
        .ok_or(CodecError::InvalidValue { what: "oblast index", value: i as u64 })
}

/// Schema of the `unified` table's shards.
pub fn unified_schema() -> Result<Schema, StoreError> {
    Schema::new(
        "unified",
        vec![
            ColumnSpec::new("day", ColType::I64),
            ColumnSpec::new("client_ip", ColType::U32),
            ColumnSpec::new("server_ip", ColType::U32),
            ColumnSpec::new("client_asn", ColType::U32),
            ColumnSpec::new("oblast", ColType::U32),
            ColumnSpec::new("city", ColType::U32),
            ColumnSpec::new("tput", ColType::F64),
            ColumnSpec::new("min_rtt", ColType::F64),
            ColumnSpec::new("loss", ColType::F64),
        ],
    )
}

/// Schema of the `traces` table's shards. `as_path` is an aux column:
/// its per-group row count is the sum of the group's `as_path_len`
/// values, not the group row count.
pub fn traces_schema() -> Result<Schema, StoreError> {
    Schema::new(
        "traces",
        vec![
            ColumnSpec::new("day", ColType::I64),
            ColumnSpec::new("client_ip", ColType::U32),
            ColumnSpec::new("server_ip", ColType::U32),
            ColumnSpec::new("path_fp", ColType::U64),
            ColumnSpec::new("router_fp", ColType::U64),
            ColumnSpec::new("resolved_fp", ColType::U64),
            ColumnSpec::new("as_path_len", ColType::U32),
            ColumnSpec::aux("as_path", ColType::U32),
            ColumnSpec::new("border_tag", ColType::U32),
            ColumnSpec::new("border_a", ColType::U32),
            ColumnSpec::new("border_b", ColType::U32),
            ColumnSpec::new("tput", ColType::F64),
            ColumnSpec::new("min_rtt", ColType::F64),
            ColumnSpec::new("loss", ColType::F64),
        ],
    )
}

/// The `store.*` write counters of one committed shard.
pub fn write_stats_tally(stats: &WriteStats) -> ndt_obs::Tally {
    let mut t = ndt_obs::Tally::default();
    t.incr("store.rows_written", stats.rows);
    t.incr("store.groups_written", stats.groups);
    t.incr("store.bytes_file", stats.bytes_file);
    t.incr("store.bytes_encoded", stats.bytes_encoded);
    t.incr("store.bytes_raw", stats.bytes_raw);
    t
}

/// Publishes one scan's counters into `ndt-obs`. Callers invoke this
/// exactly once per *successful* scan (the runner does so per surviving
/// shard pair, in manifest order), so a quarantined shard contributes
/// nothing.
pub fn publish_scan_stats(stats: &ndt_store::ScanStats) {
    ndt_obs::incr("store.groups_scanned", stats.groups_scanned);
    ndt_obs::incr("store.pages_decoded", stats.pages_decoded);
    ndt_obs::incr("store.rows_read", stats.rows_emitted);
    ndt_obs::incr("store.bytes_read", stats.bytes_read);
}

/// Writes unified rows as one shard in [`DEFAULT_GROUP_ROWS`]-row groups.
pub fn write_unified<W: Write>(out: W, rows: &[UnifiedDownloadRow]) -> Result<(W, WriteStats), StoreError> {
    let mut w = ShardWriter::new(out, unified_schema()?)?;
    for chunk in chunks_or_one(rows) {
        let b = UnifiedBatch::from_rows(chunk);
        w.write_group(&[
            ColumnData::I64(b.day),
            ColumnData::U32(b.client_ip),
            ColumnData::U32(b.server_ip),
            ColumnData::U32(b.client_asn),
            ColumnData::U32(b.oblast),
            ColumnData::U32(b.city),
            ColumnData::F64(b.tput),
            ColumnData::F64(b.min_rtt),
            ColumnData::F64(b.loss),
        ])?;
    }
    w.finish()
}

/// Writes trace rows as one shard in [`DEFAULT_GROUP_ROWS`]-row groups.
pub fn write_traces<W: Write>(out: W, rows: &[Scamper1Row]) -> Result<(W, WriteStats), StoreError> {
    let mut w = ShardWriter::new(out, traces_schema()?)?;
    for chunk in chunks_or_one(rows) {
        let mut day = Vec::with_capacity(chunk.len());
        let mut client_ip = Vec::with_capacity(chunk.len());
        let mut server_ip = Vec::with_capacity(chunk.len());
        let mut path_fp = Vec::with_capacity(chunk.len());
        let mut router_fp = Vec::with_capacity(chunk.len());
        let mut resolved_fp = Vec::with_capacity(chunk.len());
        let mut as_path_len = Vec::with_capacity(chunk.len());
        let mut as_path = Vec::new();
        let mut border_tag = Vec::with_capacity(chunk.len());
        let mut border_a = Vec::with_capacity(chunk.len());
        let mut border_b = Vec::with_capacity(chunk.len());
        let mut tput = Vec::with_capacity(chunk.len());
        let mut min_rtt = Vec::with_capacity(chunk.len());
        let mut loss = Vec::with_capacity(chunk.len());
        for r in chunk {
            day.push(r.day);
            client_ip.push(r.client_ip.0);
            server_ip.push(r.server_ip.0);
            path_fp.push(r.path_fingerprint);
            router_fp.push(r.router_fingerprint);
            resolved_fp.push(r.resolved_fingerprint);
            as_path_len.push(r.as_path.len() as u32);
            as_path.extend(r.as_path.iter().map(|a| a.0));
            match r.border {
                Some((a, b)) => {
                    border_tag.push(1);
                    border_a.push(a.0);
                    border_b.push(b.0);
                }
                None => {
                    border_tag.push(0);
                    border_a.push(0);
                    border_b.push(0);
                }
            }
            tput.push(r.mean_tput_mbps);
            min_rtt.push(r.min_rtt_ms);
            loss.push(r.loss_rate);
        }
        w.write_group(&[
            ColumnData::I64(day),
            ColumnData::U32(client_ip),
            ColumnData::U32(server_ip),
            ColumnData::U64(path_fp),
            ColumnData::U64(router_fp),
            ColumnData::U64(resolved_fp),
            ColumnData::U32(as_path_len),
            ColumnData::U32(as_path),
            ColumnData::U32(border_tag),
            ColumnData::U32(border_a),
            ColumnData::U32(border_b),
            ColumnData::F64(tput),
            ColumnData::F64(min_rtt),
            ColumnData::F64(loss),
        ])?;
    }
    w.finish()
}

/// Chunks rows into write groups; an empty slice still yields no chunks
/// (the writer then produces a valid zero-group shard).
fn chunks_or_one<T>(rows: &[T]) -> impl Iterator<Item = &[T]> {
    rows.chunks(DEFAULT_GROUP_ROWS)
}

fn invalid(what: &'static str, value: u64) -> StoreError {
    StoreError::Corrupt(CodecError::InvalidValue { what, value })
}

/// Moves a batch's decoded pages out, one per schema column.
fn columns<const N: usize>(batch: Batch) -> Result<[ColumnData; N], StoreError> {
    <[ColumnData; N]>::try_from(batch.columns).map_err(|cols| {
        StoreError::Schema(format!("batch has {} columns, want {N}", cols.len()))
    })
}

fn into_i64(col: ColumnData, name: &'static str) -> Result<Vec<i64>, StoreError> {
    match col {
        ColumnData::I64(v) => Ok(v),
        _ => Err(StoreError::Schema(format!("column {name} is not I64"))),
    }
}

fn into_u32(col: ColumnData, name: &'static str) -> Result<Vec<u32>, StoreError> {
    match col {
        ColumnData::U32(v) => Ok(v),
        _ => Err(StoreError::Schema(format!("column {name} is not U32"))),
    }
}

fn into_u64(col: ColumnData, name: &'static str) -> Result<Vec<u64>, StoreError> {
    match col {
        ColumnData::U64(v) => Ok(v),
        _ => Err(StoreError::Schema(format!("column {name} is not U64"))),
    }
}

fn into_f64(col: ColumnData, name: &'static str) -> Result<Vec<f64>, StoreError> {
    match col {
        ColumnData::F64(v) => Ok(v),
        _ => Err(StoreError::Schema(format!("column {name} is not F64"))),
    }
}

fn decode_oblast(v: u32) -> Result<Option<Oblast>, StoreError> {
    if v == OBLAST_NONE {
        return Ok(None);
    }
    let idx = u8::try_from(v).map_err(|_| invalid("oblast index", v as u64))?;
    oblast_from_index(idx).map(Some).map_err(StoreError::Corrupt)
}

fn decode_city(v: u32, max_city: u32) -> Result<Option<CityId>, StoreError> {
    if v == CITY_NONE {
        return Ok(None);
    }
    if v > max_city {
        return Err(invalid("city id", v as u64));
    }
    Ok(Some(CityId(v as u16)))
}

/// Highest valid [`CityId`] value (the catalogue plus Sevastopol).
fn max_city_id() -> u32 {
    (ndt_geo::city::all_cities().count() as u32).saturating_sub(1)
}

/// Decodes one batch of the `traces` schema into rows.
fn decode_traces_batch(batch: Batch) -> Result<Vec<Scamper1Row>, StoreError> {
    let n = batch.rows as usize;
    let [
        day, client_ip, server_ip, path_fp, router_fp, resolved_fp, as_path_len, as_path,
        border_tag, border_a, border_b, tput, min_rtt, loss,
    ] = columns(batch)?;
    let day = into_i64(day, "day")?;
    let client_ip = into_u32(client_ip, "client_ip")?;
    let server_ip = into_u32(server_ip, "server_ip")?;
    let path_fp = into_u64(path_fp, "path_fp")?;
    let router_fp = into_u64(router_fp, "router_fp")?;
    let resolved_fp = into_u64(resolved_fp, "resolved_fp")?;
    let as_path_len = into_u32(as_path_len, "as_path_len")?;
    let as_path = into_u32(as_path, "as_path")?;
    let border_tag = into_u32(border_tag, "border_tag")?;
    let border_a = into_u32(border_a, "border_a")?;
    let border_b = into_u32(border_b, "border_b")?;
    let tput = into_f64(tput, "tput")?;
    let min_rtt = into_f64(min_rtt, "min_rtt")?;
    let loss = into_f64(loss, "loss")?;
    for (name, len) in [
        ("day", day.len()),
        ("client_ip", client_ip.len()),
        ("server_ip", server_ip.len()),
        ("path_fp", path_fp.len()),
        ("router_fp", router_fp.len()),
        ("resolved_fp", resolved_fp.len()),
        ("as_path_len", as_path_len.len()),
        ("border_tag", border_tag.len()),
        ("border_a", border_a.len()),
        ("border_b", border_b.len()),
        ("tput", tput.len()),
        ("min_rtt", min_rtt.len()),
        ("loss", loss.len()),
    ] {
        if len != n {
            return Err(StoreError::Schema(format!(
                "column {name} has {len} rows, batch declares {n}"
            )));
        }
    }
    let hops_declared: u64 = as_path_len.iter().map(|&l| l as u64).sum();
    if hops_declared != as_path.len() as u64 {
        return Err(invalid("as_path aux length", as_path.len() as u64));
    }
    let mut rows = Vec::with_capacity(n);
    let mut hop = 0usize;
    for i in 0..n {
        let len = as_path_len[i] as usize;
        let path: Vec<Asn> = as_path[hop..hop + len].iter().map(|&a| Asn(a)).collect();
        hop += len;
        let border = match border_tag[i] {
            0 => None,
            1 => Some((Asn(border_a[i]), Asn(border_b[i]))),
            t => return Err(invalid("border tag", t as u64)),
        };
        rows.push(Scamper1Row {
            day: day[i],
            client_ip: Ipv4Addr(client_ip[i]),
            server_ip: Ipv4Addr(server_ip[i]),
            path_fingerprint: path_fp[i],
            router_fingerprint: router_fp[i],
            resolved_fingerprint: resolved_fp[i],
            as_path: path,
            border,
            mean_tput_mbps: tput[i],
            min_rtt_ms: min_rtt[i],
            loss_rate: loss[i],
        });
    }
    Ok(rows)
}

/// The filter argument of [`scan_unified_batches`] and [`scan_traces`].
/// It has no fields: every scan returns every row. The type stays so
/// callers of those two functions keep their signatures.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowFilter;

/// Unified rows in columnar form: one group as the writer encodes it and
/// the scan hands it back, or a whole corpus appended batch by batch (the
/// §4 analysis table of `ndt-analysis`). Column vectors are owned (moved
/// straight out of the page decoder, or transposed by
/// [`UnifiedBatch::from_rows`]), there are no per-row structs, and the
/// categoricals stay as their store codes.
///
/// Invariants (enforced by [`scan_unified_batches`] before the batch is
/// handed out, and by construction in [`UnifiedBatch::from_rows`],
/// [`UnifiedBatch::append`] and [`UnifiedBatch::truncate`]): all nine
/// vectors have equal length, and every `oblast` and `city` value is a
/// valid code or the column's private "unlocated" sentinel.
#[derive(Debug, Clone, Default)]
pub struct UnifiedBatch {
    pub day: Vec<i64>,
    pub client_ip: Vec<u32>,
    pub server_ip: Vec<u32>,
    pub client_asn: Vec<u32>,
    /// Validated oblast codes (see [`UnifiedBatch::oblast_code`]).
    pub oblast: Vec<u32>,
    /// Validated city codes (see [`UnifiedBatch::city_code`]).
    pub city: Vec<u32>,
    pub tput: Vec<f64>,
    pub min_rtt: Vec<f64>,
    pub loss: Vec<f64>,
}

impl UnifiedBatch {
    /// Rows held.
    pub fn rows(&self) -> usize {
        self.day.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.day.is_empty()
    }

    /// The `oblast` column's code for rows located to `o`.
    pub fn oblast_code(o: Oblast) -> u32 {
        u32::from(oblast_index(o))
    }

    /// The `city` column's code for rows labeled `c`.
    pub fn city_code(c: CityId) -> u32 {
        u32::from(c.0)
    }

    /// Whether row `i` is located to an oblast.
    pub fn has_oblast(&self, i: usize) -> bool {
        self.oblast[i] != OBLAST_NONE
    }

    /// Whether row `i` carries a city label.
    pub fn has_city(&self, i: usize) -> bool {
        self.city[i] != CITY_NONE
    }

    /// Appends every row of `other`, in order.
    pub fn append(&mut self, other: &UnifiedBatch) {
        self.day.extend_from_slice(&other.day);
        self.client_ip.extend_from_slice(&other.client_ip);
        self.server_ip.extend_from_slice(&other.server_ip);
        self.client_asn.extend_from_slice(&other.client_asn);
        self.oblast.extend_from_slice(&other.oblast);
        self.city.extend_from_slice(&other.city);
        self.tput.extend_from_slice(&other.tput);
        self.min_rtt.extend_from_slice(&other.min_rtt);
        self.loss.extend_from_slice(&other.loss);
    }

    /// Drops every row past `len`.
    pub fn truncate(&mut self, len: usize) {
        self.day.truncate(len);
        self.client_ip.truncate(len);
        self.server_ip.truncate(len);
        self.client_asn.truncate(len);
        self.oblast.truncate(len);
        self.city.truncate(len);
        self.tput.truncate(len);
        self.min_rtt.truncate(len);
        self.loss.truncate(len);
    }

    /// Transposes row structs into one batch — the form the shard writer
    /// encodes and the analysis table appends.
    pub fn from_rows(rows: &[UnifiedDownloadRow]) -> Self {
        let mut b = UnifiedBatch {
            day: Vec::with_capacity(rows.len()),
            client_ip: Vec::with_capacity(rows.len()),
            server_ip: Vec::with_capacity(rows.len()),
            client_asn: Vec::with_capacity(rows.len()),
            oblast: Vec::with_capacity(rows.len()),
            city: Vec::with_capacity(rows.len()),
            tput: Vec::with_capacity(rows.len()),
            min_rtt: Vec::with_capacity(rows.len()),
            loss: Vec::with_capacity(rows.len()),
        };
        for r in rows {
            b.day.push(r.day);
            b.client_ip.push(r.client_ip.0);
            b.server_ip.push(r.server_ip.0);
            b.client_asn.push(r.client_asn.0);
            b.oblast.push(r.oblast.map_or(OBLAST_NONE, Self::oblast_code));
            b.city.push(r.city.map_or(CITY_NONE, Self::city_code));
            b.tput.push(r.mean_tput_mbps);
            b.min_rtt.push(r.min_rtt_ms);
            b.loss.push(r.loss_rate);
        }
        b
    }

    /// Materializes the batch as row structs (the row-wise readers are
    /// built on this, so both read shapes decode identically by
    /// construction). Values were validated at scan time, so conversion
    /// cannot fail.
    pub fn to_rows(&self) -> Vec<UnifiedDownloadRow> {
        let max_city = max_city_id();
        (0..self.rows())
            .map(|i| UnifiedDownloadRow {
                day: self.day[i],
                client_ip: Ipv4Addr(self.client_ip[i]),
                server_ip: Ipv4Addr(self.server_ip[i]),
                client_asn: Asn(self.client_asn[i]),
                oblast: decode_oblast(self.oblast[i]).expect("oblast validated at scan"),
                city: decode_city(self.city[i], max_city).expect("city validated at scan"),
                mean_tput_mbps: self.tput[i],
                min_rtt_ms: self.min_rtt[i],
                loss_rate: self.loss[i],
            })
            .collect()
    }
}

/// Streams a `unified` shard as validated columnar batches, handing each
/// group to `sink`. Returns the scan's stats **without publishing them** —
/// the caller decides if and when (see [`publish_scan_stats`]).
///
/// Every row is validated (oblast index, city id) before its batch is
/// handed out, so a corrupt value quarantines the shard.
pub fn scan_unified_batches(
    shard: &Shard,
    _filter: RowFilter,
    mut sink: impl FnMut(UnifiedBatch),
) -> Result<ndt_store::ScanStats, StoreError> {
    if shard.schema().table != "unified" {
        return Err(StoreError::Schema(format!(
            "expected a unified shard, found table {:?}",
            shard.schema().table
        )));
    }
    let mut scan = Scan::new(shard)?;
    let max_city = max_city_id();
    for batch in scan.by_ref() {
        let batch = batch?;
        let n = batch.rows as usize;
        let [day, client_ip, server_ip, client_asn, oblast, city, tput, min_rtt, loss] =
            columns(batch)?;
        let b = UnifiedBatch {
            day: into_i64(day, "day")?,
            client_ip: into_u32(client_ip, "client_ip")?,
            server_ip: into_u32(server_ip, "server_ip")?,
            client_asn: into_u32(client_asn, "client_asn")?,
            oblast: into_u32(oblast, "oblast")?,
            city: into_u32(city, "city")?,
            tput: into_f64(tput, "tput")?,
            min_rtt: into_f64(min_rtt, "min_rtt")?,
            loss: into_f64(loss, "loss")?,
        };
        for (name, len) in [
            ("day", b.day.len()),
            ("client_ip", b.client_ip.len()),
            ("server_ip", b.server_ip.len()),
            ("client_asn", b.client_asn.len()),
            ("oblast", b.oblast.len()),
            ("city", b.city.len()),
            ("tput", b.tput.len()),
            ("min_rtt", b.min_rtt.len()),
            ("loss", b.loss.len()),
        ] {
            if len != n {
                return Err(StoreError::Schema(format!(
                    "column {name} has {len} rows, batch declares {n}"
                )));
            }
        }
        for i in 0..n {
            decode_oblast(b.oblast[i])?;
            decode_city(b.city[i], max_city)?;
        }
        sink(b);
    }
    Ok(scan.stats())
}

/// Streams a `unified` shard, returning its rows (in shard order) plus
/// the scan's stats (not yet published — see [`publish_scan_stats`]).
pub fn scan_unified(
    shard: &Shard,
) -> Result<(Vec<UnifiedDownloadRow>, ndt_store::ScanStats), StoreError> {
    let mut rows = Vec::new();
    let stats = scan_unified_batches(shard, RowFilter, |b| rows.extend(b.to_rows()))?;
    Ok((rows, stats))
}

/// Streams a `traces` shard, returning its rows (in shard order) plus the
/// scan's stats (not yet published — see [`publish_scan_stats`]).
pub fn scan_traces(
    shard: &Shard,
    _filter: RowFilter,
) -> Result<(Vec<Scamper1Row>, ndt_store::ScanStats), StoreError> {
    if shard.schema().table != "traces" {
        return Err(StoreError::Schema(format!(
            "expected a traces shard, found table {:?}",
            shard.schema().table
        )));
    }
    let mut scan = Scan::new(shard)?;
    let mut rows = Vec::new();
    for batch in scan.by_ref() {
        rows.extend(decode_traces_batch(batch?)?);
    }
    Ok((rows, scan.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};

    #[test]
    fn oblast_indices_are_stable_and_total() {
        for (i, o) in ndt_geo::Oblast::all().enumerate() {
            assert_eq!(oblast_index(o), i as u8);
            assert_eq!(oblast_from_index(i as u8), Ok(o));
        }
        assert!(oblast_from_index(200).is_err());
    }

    fn sample() -> crate::schema::Dataset {
        static DS: std::sync::OnceLock<crate::schema::Dataset> = std::sync::OnceLock::new();
        DS.get_or_init(|| {
            Simulator::new(SimConfig { scale: 0.02, seed: 77, ..SimConfig::default() }).run()
        })
        .clone()
    }

    /// A fresh directory of this test process's own (`<name>-<pid>`), so
    /// concurrent test runs never share one; each test removes it whole.
    fn test_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ndt-mlab-columnar-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn eq_bits_unified(a: &[UnifiedDownloadRow], b: &[UnifiedDownloadRow]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.day == y.day
                    && x.client_ip == y.client_ip
                    && x.server_ip == y.server_ip
                    && x.client_asn == y.client_asn
                    && x.oblast == y.oblast
                    && x.city == y.city
                    && x.mean_tput_mbps.to_bits() == y.mean_tput_mbps.to_bits()
                    && x.min_rtt_ms.to_bits() == y.min_rtt_ms.to_bits()
                    && x.loss_rate.to_bits() == y.loss_rate.to_bits()
            })
    }

    #[test]
    fn unified_rows_roundtrip_through_shard() {
        let mut ds = sample();
        // Exercise the degraded shapes the fault layer produces.
        ds.ndt[0].oblast = None;
        ds.ndt[0].city = None;
        ds.ndt[1].mean_tput_mbps = f64::NAN;
        let dir = test_dir("unified-rt");
        let path = dir.join("unified-rt.ndts");
        let file = std::fs::File::create(&path).expect("create");
        write_unified(std::io::BufWriter::new(file), &ds.ndt).expect("writes");
        let shard = Shard::open(&path).expect("opens");
        let (back, _) = scan_unified(&shard).expect("scans");
        assert!(eq_bits_unified(&ds.ndt, &back), "unified rows did not round-trip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Both batches hold the same cells, floats compared by their bits
    /// (the corpus carries NaN metrics).
    fn same_bits(a: &UnifiedBatch, b: &UnifiedBatch) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        a.day == b.day
            && a.client_ip == b.client_ip
            && a.server_ip == b.server_ip
            && a.client_asn == b.client_asn
            && a.oblast == b.oblast
            && a.city == b.city
            && bits(&a.tput) == bits(&b.tput)
            && bits(&a.min_rtt) == bits(&b.min_rtt)
            && bits(&a.loss) == bits(&b.loss)
    }

    /// The table appended from a shard's scanned batches is the table
    /// transposed from the rows the shard was written from.
    #[test]
    fn batch_ingest_matches_row_ingest() {
        let mut ds = sample();
        ds.ndt[0].oblast = None;
        ds.ndt[0].city = None;
        ds.ndt[1].mean_tput_mbps = f64::NAN;
        let dir = test_dir("unified-batch-ingest");
        let path = dir.join("unified-batch-ingest.ndts");
        let file = std::fs::File::create(&path).expect("create");
        write_unified(std::io::BufWriter::new(file), &ds.ndt).expect("writes");
        let shard = Shard::open(&path).expect("opens");

        let mut scanned = UnifiedBatch::default();
        scan_unified_batches(&shard, RowFilter, |b| scanned.append(&b)).expect("scans");
        assert!(same_bits(&scanned, &UnifiedBatch::from_rows(&ds.ndt)));
        assert!(!scanned.has_oblast(0) && !scanned.has_city(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_rows_roundtrip_through_shard() {
        let mut ds = sample();
        ds.traces[0].border = None;
        ds.traces[1].as_path.clear();
        let dir = test_dir("traces-rt");
        let path = dir.join("traces-rt.ndts");
        let file = std::fs::File::create(&path).expect("create");
        write_traces(std::io::BufWriter::new(file), &ds.traces).expect("writes");
        let shard = Shard::open(&path).expect("opens");
        let (back, _) = scan_traces(&shard, RowFilter).expect("scans");
        assert_eq!(ds.traces.len(), back.len());
        for (x, y) in ds.traces.iter().zip(&back) {
            assert_eq!(x.as_path, y.as_path);
            assert_eq!(x.border, y.border);
            assert_eq!(x.path_fingerprint, y.path_fingerprint);
            assert_eq!(x.mean_tput_mbps.to_bits(), y.mean_tput_mbps.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpus_shards_compress_below_half_of_raw() {
        let ds = sample();
        let (_, us) = write_unified(Vec::new(), &ds.ndt).expect("unified writes");
        let (_, ts) = write_traces(Vec::new(), &ds.traces).expect("traces writes");
        let mut total = us;
        total.merge(&ts);
        assert!(total.bytes_raw > 0, "sample corpus is empty");
        let ratio = total.bytes_file as f64 / total.bytes_raw as f64;
        assert!(
            ratio <= 0.5,
            "encoded corpus is {:.1}% of raw-LE, want <= 50% ({} / {} bytes)",
            ratio * 100.0,
            total.bytes_file,
            total.bytes_raw
        );
    }
}
