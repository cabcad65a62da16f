//! The two corpus tables as typed columns, and their mapping onto the
//! `ndt-store` shard format.
//!
//! [`UnifiedBatch`] and [`TraceBatch`] are the only forms a corpus takes.
//! The simulator pushes each test's record into them, the shard writer
//! cuts its row groups out of their columns, the scans decode each group
//! into one (column vectors moved out of the page decoder), and
//! `ndt-analysis` appends the batches into its two analysis tables. A
//! record ([`UnifiedDownloadRow`], [`Scamper1Row`]) exists only as what
//! the simulator pushes and what `row(i)` reads back.
//!
//! * **unified** — one row per published NDT download: `day` delta+varint,
//!   addresses and ASN dictionary-or-raw `u32`, oblast/city as
//!   sentinel-tagged `u32` codes, metrics as exact `f64` bit patterns. The
//!   sentinels for unlocated rows stay private to this module: callers
//!   compare codes through [`UnifiedBatch::oblast_code`],
//!   [`UnifiedBatch::city_code`], [`UnifiedBatch::has_oblast`] and
//!   [`UnifiedBatch::has_city`];
//! * **traces** — one row per sidecar traceroute: the three path
//!   fingerprints as `u64` columns (heavily repeated, so they
//!   dictionary-encode), the AS path as a lengths column plus an `aux`
//!   values column, and the border as a tag column plus its two ASes. In
//!   memory the paths sit in one flat arena with end offsets, and the
//!   border is one optional pair.
//!
//! Every scan decodes, and so checksum-verifies, every page, and validates
//! every row before its batch is handed out. Writes and scans *return*
//! their [`WriteStats`] / [`ndt_store::ScanStats`]; the caller publishes
//! them exactly once per committed shard ([`write_stats_tally`]) or
//! successful scan ([`publish_scan_stats`]), in a deterministic order, so
//! a retried write counts once, counters do not depend on the decode
//! thread budget, and a quarantined shard contributes nothing.

use crate::schema::{Scamper1Row, UnifiedDownloadRow};
use ndt_geo::{CityId, Oblast};
use ndt_store::wire::CodecError;
use ndt_store::ColumnData::{F64, I64, U32, U64};
use ndt_store::{
    Batch, ColType, ColumnData, ColumnSpec, Scan, Schema, Shard, ShardWriter, StoreError,
    WriteStats, DEFAULT_GROUP_ROWS,
};
use ndt_topology::{Asn, Ipv4Addr};
use std::io::Write;
use std::ops::Range;

/// Sentinel in the `oblast` column for rows MaxMind failed to locate.
const OBLAST_NONE: u32 = 0xFF;
/// Sentinel in the `city` column for rows without a city label (city ids
/// are `u16`, so the first value outside that range is free).
const CITY_NONE: u32 = 0x1_0000;

/// `Oblast → u8` index in the stable Table 4 order ([`Oblast::all`]).
fn oblast_index(o: Oblast) -> u8 {
    Oblast::all().position(|x| x == o).unwrap_or(0) as u8
}

/// The oblast at index `i`; `None` past the last one (the sentinel included).
fn oblast_from_index(i: u32) -> Option<Oblast> {
    Oblast::all().nth(i as usize)
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
/// shard pair, in day order), so a quarantined shard contributes
/// nothing.
pub fn publish_scan_stats(stats: &ndt_store::ScanStats) {
    ndt_obs::incr("store.groups_scanned", stats.groups_scanned);
    ndt_obs::incr("store.pages_decoded", stats.pages_decoded);
    ndt_obs::incr("store.rows_read", stats.rows_emitted);
    ndt_obs::incr("store.bytes_read", stats.bytes_read);
}

/// The row ranges of a table's write groups, [`DEFAULT_GROUP_ROWS`] rows
/// each; an empty table has none (and makes a valid zero-group shard).
fn groups(rows: usize) -> impl Iterator<Item = Range<usize>> {
    (0..rows).step_by(DEFAULT_GROUP_ROWS).map(move |lo| lo..(lo + DEFAULT_GROUP_ROWS).min(rows))
}

/// Writes a unified table as one shard, cutting each row group out of
/// its columns.
pub fn write_unified<W: Write>(out: W, b: &UnifiedBatch) -> Result<(W, WriteStats), StoreError> {
    let mut w = ShardWriter::new(out, unified_schema()?)?;
    for g in groups(b.rows()) {
        w.write_group(&[
            I64(b.day[g.clone()].to_vec()),
            U32(b.client_ip[g.clone()].to_vec()),
            U32(b.server_ip[g.clone()].to_vec()),
            U32(b.client_asn[g.clone()].to_vec()),
            U32(b.oblast[g.clone()].to_vec()),
            U32(b.city[g.clone()].to_vec()),
            F64(b.tput[g.clone()].to_vec()),
            F64(b.min_rtt[g.clone()].to_vec()),
            F64(b.loss[g].to_vec()),
        ])?;
    }
    w.finish()
}

/// Writes a trace table as one shard, cutting each row group out of its
/// columns: the AS paths become a lengths column plus the group's arena
/// slice, and the border a tag column plus its two ASes (0 when untagged).
pub fn write_traces<W: Write>(out: W, b: &TraceBatch) -> Result<(W, WriteStats), StoreError> {
    let mut w = ShardWriter::new(out, traces_schema()?)?;
    for g in groups(b.rows()) {
        let border = &b.border[g.clone()];
        w.write_group(&[
            I64(b.day[g.clone()].to_vec()),
            U32(b.client_ip[g.clone()].to_vec()),
            U32(b.server_ip[g.clone()].to_vec()),
            U64(b.path_fp[g.clone()].to_vec()),
            U64(b.router_fp[g.clone()].to_vec()),
            U64(b.resolved_fp[g.clone()].to_vec()),
            U32(g.clone().map(|i| b.as_path(i).len() as u32).collect()),
            U32(b.path_asns[b.path_start(g.start)..b.path_start(g.end)].iter().map(|a| a.0).collect()),
            U32(border.iter().map(|x| u32::from(x.is_some())).collect()),
            U32(border.iter().map(|x| x.map_or(0, |(a, _)| a.0)).collect()),
            U32(border.iter().map(|x| x.map_or(0, |(_, b)| b.0)).collect()),
            F64(b.tput[g.clone()].to_vec()),
            F64(b.min_rtt[g.clone()].to_vec()),
            F64(b.loss[g].to_vec()),
        ])?;
    }
    w.finish()
}

fn invalid(what: &'static str, value: u64) -> StoreError {
    StoreError::Corrupt(CodecError::InvalidValue { what, value })
}

/// Fails unless `shard` was written with `schema`. Then each page a scan
/// decodes holds its column's type and, outside aux columns, the group's
/// row count (`Shard::open` and the page decoder check the counts).
fn expect_schema(shard: &Shard, schema: &Schema) -> Result<(), StoreError> {
    match shard.schema() {
        found if found == schema => Ok(()),
        found => Err(StoreError::Schema(format!("expected the {} schema, found {found:?}", schema.table))),
    }
}

/// A batch whose pages do not match the schema ([`expect_schema`] rules it out).
fn mismatch() -> StoreError {
    StoreError::Schema("a batch's pages do not match its schema".into())
}

/// An offset into a trace table's AS-path arena.
fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect("AS-path arena outgrew u32 offsets")
}

/// Decodes one batch of the `traces` schema into a table: the lengths
/// column becomes end offsets into the batch's own arena, and the border
/// tag and ASes one optional pair.
fn decode_traces(batch: Batch) -> Result<TraceBatch, StoreError> {
    let Ok([I64(day), U32(client_ip), U32(server_ip), U64(path_fp), U64(router_fp), U64(resolved_fp),
        U32(lens), U32(asns), U32(tags), U32(a), U32(b), F64(tput), F64(min_rtt), F64(loss)]) =
        <[ColumnData; 14]>::try_from(batch.columns)
    else {
        return Err(mismatch());
    };
    let mut path_ends = Vec::with_capacity(lens.len());
    let mut end = 0u64;
    for &len in &lens {
        end += u64::from(len);
        path_ends.push(u32::try_from(end).map_err(|_| invalid("as_path length", end))?);
    }
    if end != asns.len() as u64 {
        return Err(invalid("as_path aux length", asns.len() as u64));
    }
    let border = tags
        .iter()
        .zip(a.iter().zip(&b))
        .map(|(&tag, (&a, &b))| match tag {
            0 => Ok(None),
            1 => Ok(Some((Asn(a), Asn(b)))),
            t => Err(invalid("border tag", t as u64)),
        })
        .collect::<Result<_, _>>()?;
    Ok(TraceBatch {
        day,
        client_ip,
        server_ip,
        path_fp,
        router_fp,
        resolved_fp,
        path_asns: asns.into_iter().map(Asn).collect(),
        path_ends,
        border,
        tput,
        min_rtt,
        loss,
    })
}

/// The filter argument of [`scan_unified_batches`] and [`scan_traces`].
/// It has no fields: every scan returns every row. The type stays so
/// callers of those two functions keep their signatures.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowFilter;

/// The unified table in columnar form: one row group, one shard, or a
/// whole corpus appended batch by batch (the §4 analysis table of
/// `ndt-analysis`). The categoricals stay as their store codes.
///
/// Invariants (checked by [`scan_unified_batches`], kept by `push`,
/// `append` and `truncate`): all nine vectors have equal length, and every
/// `oblast` and `city` value is a valid code or the column's private
/// "unlocated" sentinel.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Appends one row.
    pub fn push(&mut self, r: &UnifiedDownloadRow) {
        self.day.push(r.day);
        self.client_ip.push(r.client_ip.0);
        self.server_ip.push(r.server_ip.0);
        self.client_asn.push(r.client_asn.0);
        self.oblast.push(r.oblast.map_or(OBLAST_NONE, Self::oblast_code));
        self.city.push(r.city.map_or(CITY_NONE, Self::city_code));
        self.tput.push(r.mean_tput_mbps);
        self.min_rtt.push(r.min_rtt_ms);
        self.loss.push(r.loss_rate);
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

    /// Row `i` as a record. The codes were validated when the row came
    /// in, and the oblast sentinel lies past the last oblast.
    pub fn row(&self, i: usize) -> UnifiedDownloadRow {
        UnifiedDownloadRow {
            day: self.day[i],
            client_ip: Ipv4Addr(self.client_ip[i]),
            server_ip: Ipv4Addr(self.server_ip[i]),
            client_asn: Asn(self.client_asn[i]),
            oblast: oblast_from_index(self.oblast[i]),
            city: self.has_city(i).then_some(CityId(self.city[i] as u16)),
            mean_tput_mbps: self.tput[i],
            min_rtt_ms: self.min_rtt[i],
            loss_rate: self.loss[i],
        }
    }
}

/// The traces table in columnar form, mirroring [`UnifiedBatch`] (the §5
/// analysis table of `ndt-analysis`). Every AS path sits in one flat
/// arena, read through [`TraceBatch::as_path`]; a row costs 80 bytes of
/// fixed-width columns plus 4 bytes per AS on its path.
///
/// Invariants (checked by the scan, kept by `push`, `append` and
/// `truncate`): every column holds one value per row, and the path end
/// offsets are non-decreasing and end at the arena's length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBatch {
    pub day: Vec<i64>,
    pub client_ip: Vec<u32>,
    pub server_ip: Vec<u32>,
    /// Interface-level path fingerprints (what §5.1 counts).
    pub path_fp: Vec<u64>,
    /// Router-level path fingerprints (the alias extension's truth).
    pub router_fp: Vec<u64>,
    /// Fingerprints of the paths an imperfect alias resolver sees.
    pub resolved_fp: Vec<u64>,
    /// Every row's AS path, back to back.
    path_asns: Vec<Asn>,
    /// Where each row's AS path ends in `path_asns`; it starts where the
    /// previous row's ends.
    path_ends: Vec<u32>,
    /// First foreign→Ukrainian link on each path.
    pub border: Vec<Option<(Asn, Asn)>>,
    pub tput: Vec<f64>,
    pub min_rtt: Vec<f64>,
    pub loss: Vec<f64>,
}

impl TraceBatch {
    /// Rows held.
    pub fn rows(&self) -> usize {
        self.day.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.day.is_empty()
    }

    /// Where row `i`'s AS path starts in the arena (the arena's length
    /// for `i` = [`TraceBatch::rows`]).
    fn path_start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.path_ends[prev] as usize)
    }

    /// Row `i`'s AS sequence, server→client.
    pub fn as_path(&self, i: usize) -> &[Asn] {
        &self.path_asns[self.path_start(i)..self.path_ends[i] as usize]
    }

    /// Appends one row.
    pub fn push(&mut self, r: &Scamper1Row) {
        self.day.push(r.day);
        self.client_ip.push(r.client_ip.0);
        self.server_ip.push(r.server_ip.0);
        self.path_fp.push(r.path_fingerprint);
        self.router_fp.push(r.router_fingerprint);
        self.resolved_fp.push(r.resolved_fingerprint);
        self.path_asns.extend_from_slice(&r.as_path);
        self.path_ends.push(arena_offset(self.path_asns.len()));
        self.border.push(r.border);
        self.tput.push(r.mean_tput_mbps);
        self.min_rtt.push(r.min_rtt_ms);
        self.loss.push(r.loss_rate);
    }

    /// Appends every row of `other`, in order; its path offsets move past
    /// this table's arena.
    pub fn append(&mut self, other: &TraceBatch) {
        let base = self.path_asns.len();
        self.day.extend_from_slice(&other.day);
        self.client_ip.extend_from_slice(&other.client_ip);
        self.server_ip.extend_from_slice(&other.server_ip);
        self.path_fp.extend_from_slice(&other.path_fp);
        self.router_fp.extend_from_slice(&other.router_fp);
        self.resolved_fp.extend_from_slice(&other.resolved_fp);
        self.path_asns.extend_from_slice(&other.path_asns);
        self.path_ends.extend(other.path_ends.iter().map(|&end| arena_offset(base + end as usize)));
        self.border.extend_from_slice(&other.border);
        self.tput.extend_from_slice(&other.tput);
        self.min_rtt.extend_from_slice(&other.min_rtt);
        self.loss.extend_from_slice(&other.loss);
    }

    /// Drops every row past `len`, and their AS paths.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.rows() {
            return;
        }
        self.path_asns.truncate(self.path_start(len));
        self.day.truncate(len);
        self.client_ip.truncate(len);
        self.server_ip.truncate(len);
        self.path_fp.truncate(len);
        self.router_fp.truncate(len);
        self.resolved_fp.truncate(len);
        self.path_ends.truncate(len);
        self.border.truncate(len);
        self.tput.truncate(len);
        self.min_rtt.truncate(len);
        self.loss.truncate(len);
    }

    /// Row `i` as a record.
    pub fn row(&self, i: usize) -> Scamper1Row {
        Scamper1Row {
            day: self.day[i],
            client_ip: Ipv4Addr(self.client_ip[i]),
            server_ip: Ipv4Addr(self.server_ip[i]),
            path_fingerprint: self.path_fp[i],
            router_fingerprint: self.router_fp[i],
            resolved_fingerprint: self.resolved_fp[i],
            as_path: self.as_path(i).to_vec(),
            border: self.border[i],
            mean_tput_mbps: self.tput[i],
            min_rtt_ms: self.min_rtt[i],
            loss_rate: self.loss[i],
        }
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
    expect_schema(shard, &unified_schema()?)?;
    let mut scan = Scan::new(shard)?;
    // City ids run over the catalogue plus Sevastopol.
    let (oblasts, cities) = (Oblast::all().count() as u32, ndt_geo::city::all_cities().count() as u32);
    for batch in scan.by_ref() {
        let Ok([I64(day), U32(client_ip), U32(server_ip), U32(client_asn), U32(oblast), U32(city),
            F64(tput), F64(min_rtt), F64(loss)]) = <[ColumnData; 9]>::try_from(batch?.columns)
        else {
            return Err(mismatch());
        };
        let b = UnifiedBatch { day, client_ip, server_ip, client_asn, oblast, city, tput, min_rtt, loss };
        if let Some(&v) = b.oblast.iter().find(|&&v| v >= oblasts && v != OBLAST_NONE) {
            return Err(invalid("oblast index", v as u64));
        }
        if let Some(&v) = b.city.iter().find(|&&v| v >= cities && v != CITY_NONE) {
            return Err(invalid("city id", v as u64));
        }
        sink(b);
    }
    Ok(scan.stats())
}

/// Streams a `traces` shard as validated columnar batches, one per row
/// group, handing each to `sink`. Returns the scan's stats **without
/// publishing them** (see [`publish_scan_stats`]). A path length that
/// disagrees with the group's AS column, or a border tag other than 0 or
/// 1, fails the scan.
pub fn scan_trace_batches(
    shard: &Shard,
    mut sink: impl FnMut(TraceBatch),
) -> Result<ndt_store::ScanStats, StoreError> {
    expect_schema(shard, &traces_schema()?)?;
    let mut scan = Scan::new(shard)?;
    for batch in scan.by_ref() {
        sink(decode_traces(batch?)?);
    }
    Ok(scan.stats())
}

/// Streams a whole `traces` shard into one table (in shard order), plus
/// the scan's stats (not yet published — see [`publish_scan_stats`]).
pub fn scan_traces(
    shard: &Shard,
    _filter: RowFilter,
) -> Result<(TraceBatch, ndt_store::ScanStats), StoreError> {
    let mut table = TraceBatch::default();
    let stats = scan_trace_batches(shard, |b| table.append(&b))?;
    Ok((table, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};

    #[test]
    fn oblast_indices_are_stable_and_total() {
        for (i, o) in ndt_geo::Oblast::all().enumerate() {
            assert_eq!(oblast_index(o), i as u8);
            assert_eq!(oblast_from_index(i as u32), Some(o));
        }
        assert!(oblast_from_index(200).is_none());
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

    /// The sample's unified rows as records, with the degraded shapes the
    /// fault layer produces: an unlocated, unlabeled row and a NaN metric.
    fn degraded_unified_rows() -> Vec<UnifiedDownloadRow> {
        let ds = sample();
        let mut rows: Vec<UnifiedDownloadRow> = (0..ds.ndt.rows()).map(|i| ds.ndt.row(i)).collect();
        rows[0].oblast = None;
        rows[0].city = None;
        rows[1].mean_tput_mbps = f64::NAN;
        rows
    }

    /// Writes `table` as a unified shard and scans it back.
    fn unified_roundtrip(name: &str, table: &UnifiedBatch) -> UnifiedBatch {
        let dir = test_dir(name);
        let path = dir.join(format!("{name}.ndts"));
        let file = std::fs::File::create(&path).expect("create");
        write_unified(std::io::BufWriter::new(file), table).expect("writes");
        let shard = Shard::open(&path).expect("opens");
        let mut scanned = UnifiedBatch::default();
        scan_unified_batches(&shard, RowFilter, |b| scanned.append(&b)).expect("scans");
        let _ = std::fs::remove_dir_all(&dir);
        scanned
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

    /// Records pushed into a table, written, scanned back and read
    /// through `row(i)` are the records pushed.
    #[test]
    fn unified_rows_roundtrip_through_shard() {
        let rows = degraded_unified_rows();
        let mut table = UnifiedBatch::default();
        rows.iter().for_each(|r| table.push(r));
        let back = unified_roundtrip("unified-rt", &table);
        let back: Vec<UnifiedDownloadRow> = (0..back.rows()).map(|i| back.row(i)).collect();
        assert!(eq_bits_unified(&rows, &back), "unified rows did not round-trip");
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

    /// The table appended from a shard's scanned batches is the table the
    /// shard was written from, across several row groups.
    #[test]
    fn batch_ingest_matches_row_ingest() {
        let rows = degraded_unified_rows();
        let mut table = UnifiedBatch::default();
        rows.iter().chain(&rows).for_each(|r| table.push(r));
        assert!(table.rows() > DEFAULT_GROUP_ROWS, "the table fits one row group");
        let scanned = unified_roundtrip("unified-batch-ingest", &table);
        assert!(same_bits(&scanned, &table));
        assert!(!scanned.has_oblast(0) && !scanned.has_city(0));
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
