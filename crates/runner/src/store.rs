//! Columnar corpus store: `generate --format columnar` and
//! `report --from-store`.
//!
//! Corpus generation writes each day-range shard as a pair of `ndt-store`
//! files — `<stem>.unified.ndts` and `<stem>.traces.ndts` — where the
//! stem carries the day range and the run's config fingerprint:
//! `shard-036-063-<fp16>`. Beside each pair sits the counters sidecar
//! `<stem>.counters.txt` ([`crate::checkpoint`]). Shards simulate on the
//! one shard pool of [`crate::corpus`], which hands them back in day
//! order, so `STORE.txt`, the summary stats and every counter are
//! byte-identical at any `--threads`. Every file goes through
//! [`AtomicFile`], and the `STORE.txt` manifest is written **last**, so a
//! killed run leaves either no manifest (partial store, next run resumes
//! shard-by-shard) or a manifest describing only complete, validated
//! files. The checkpoint directory of `report`/`export`/`generate` is a
//! store of exactly this shape.
//!
//! `report --from-store` never runs the simulator: it streams the
//! manifest's shards back through [`ndt_mlab::columnar`] as columnar
//! batches into the same [`StudyDataBuilder`] the in-memory path fills,
//! in shard order, and runs the exact same analysis stages — so its
//! report and artifacts are byte-identical to `report`'s at every
//! scale/faults/threads combination (enforced by `tests/store.rs`).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;

use ndt_analysis::{assemble_staged_report, CountryDigest, StudyDataBuilder};
use ndt_mlab::columnar::{
    publish_scan_stats, scan_traces, scan_unified, scan_unified_batches, write_traces,
    write_unified, RowFilter, UnifiedBatch,
};
use ndt_mlab::schema::Dataset;
use ndt_mlab::sim::SimConfig;
use ndt_store::{wire, ScanStats, Shard, WriteStats};
use ndt_vfs::VfsHandle;

use crate::atomic::{rename_reliable, AtomicFile};
use crate::checkpoint::config_fingerprint;
use crate::corpus::{UnitStore, CORPUS_SHARD_DAYS};
use crate::executor::{ExecPolicy, StageError};
use crate::pipeline::{Pipeline, PipelineConfig, PipelineOutcome, StageRecord, StageStatus};
use crate::retry::retry_io;

/// Manifest file name inside a store directory.
pub const STORE_MANIFEST: &str = "STORE.txt";
/// Directory (under the store) that damaged shard files are moved into.
pub const QUARANTINE_DIR: &str = ".quarantine";
/// First line of a valid manifest.
const MANIFEST_HEADER: &str = "ukraine-ndt store v1";
/// Second-country digest file (asymmetric scenarios), recorded in the
/// manifest with a `digest` line.
pub const COUNTRY_DIGEST_FILE: &str = "country-b.digest.txt";

/// What `generate --format columnar` produced.
#[derive(Debug)]
pub struct StoreSummary {
    /// Store directory.
    pub dir: PathBuf,
    /// Aggregated byte/row accounting over the shards **written this
    /// run** (resumed shards are validated, not rewritten, and do not
    /// contribute).
    pub stats: WriteStats,
    /// Shard stems in day order, e.g. `shard-000-027-0123456789abcdef`.
    pub shards: Vec<String>,
}

pub(crate) fn shard_stem(lo: i64, hi: i64, fingerprint: u64) -> String {
    format!("shard-{lo:03}-{hi:03}-{fingerprint:016x}")
}

/// Parses the `[lo, hi)` day range back out of a shard stem.
fn stem_day_range(stem: &str) -> Option<(i64, i64)> {
    let mut parts = stem.split('-');
    if parts.next() != Some("shard") {
        return None;
    }
    let lo = parts.next()?.parse().ok()?;
    let hi = parts.next()?.parse().ok()?;
    (lo < hi).then_some((lo, hi))
}

/// Parses the config fingerprint back out of a shard file name
/// (`<stem>.unified.ndts`, `<stem>.traces.ndts`, `<stem>.counters.txt`).
pub(crate) fn shard_file_fingerprint(name: &str) -> Option<u64> {
    let stem = name.split('.').next()?;
    stem_day_range(stem)?;
    let hex = stem.rsplit('-').next().filter(|hex| hex.len() == 16)?;
    u64::from_str_radix(hex, 16).ok()
}

fn unified_name(stem: &str) -> String {
    format!("{stem}.unified.ndts")
}

fn traces_name(stem: &str) -> String {
    format!("{stem}.traces.ndts")
}

/// True when both shard files exist, pass structural validation, and
/// every page payload matches its header checksum — the resume test for
/// one shard. The payload sweep matters: [`Shard::open`] alone accepts a
/// file whose page bodies were corrupted in place (structure and footer
/// intact), which resume must rewrite rather than trust.
pub(crate) fn shard_is_complete(vfs: &VfsHandle, dir: &Path, stem: &str) -> bool {
    let ok = |name: String| {
        Shard::open_with(vfs, dir.join(name)).and_then(|s| s.verify_payloads()).is_ok()
    };
    ok(unified_name(stem)) && ok(traces_name(stem))
}

/// Generates the corpus into `store_dir` as columnar shard files.
///
/// With `cfg.resume`, shards whose files already exist under the same
/// config fingerprint and validate fully — counters sidecar, structure
/// and every page payload checksum — are kept as-is
/// ([`StageStatus::Resumed`]); anything else is regenerated. The manifest
/// is rewritten at the end of every successful run. Any shard that fails
/// fails the run, with the first failure in day order.
pub fn run_store_generate(
    cfg: &PipelineConfig,
    store_dir: &Path,
) -> io::Result<(StoreSummary, Vec<StageRecord>)> {
    let store = UnitStore::open(cfg, store_dir.to_path_buf(), true)?;
    let mut p = Pipeline::with_store(cfg.exec, store);
    let _gen_span = ndt_obs::span("stage.store-generate");
    let mut stats = WriteStats::default();
    let mut shards = Vec::new();
    let plan = p.shards(&cfg.sim, |shard| {
        if let Some(written) = &shard.written {
            stats.merge(written);
        }
        shards.push(shard.stem.clone());
    });
    ndt_obs::set_process("gen.thread_budget", plan.budget as u64);
    ndt_obs::set_process("gen.shard_workers", plan.workers as u64);
    ndt_obs::set_process("gen.engines_per_shard", plan.engines as u64);
    p.fail_fast()?;
    // Second-country digest (asymmetric scenarios): country B's corpus is
    // generated, digested and persisted alongside the shards, so the
    // store read path can render the A/B table without ever re-running a
    // simulation.
    p.second_country(&cfg.sim);
    p.fail_fast()?;
    // Manifest last: readers only ever see a complete store.
    p.seal(&cfg.sim)?;
    Ok((StoreSummary { dir: store_dir.to_path_buf(), stats, shards }, p.records))
}

/// Encodes and atomically commits one shard's file pair, with bounded
/// transient-I/O retry. Retry jitter is keyed by the stem, so concurrent
/// writers hitting the same transient stall back off on distinct
/// schedules instead of retrying in lockstep.
pub(crate) fn write_shard_files(
    store: &UnitStore,
    stem: &str,
    part: &Dataset,
) -> io::Result<WriteStats> {
    let _span = ndt_obs::span("store.write");
    let retry = store.retry.with_jitter_key(wire::fnv1a64(stem.as_bytes()));
    retry_io(&retry, || {
        // Retry the whole pair: a failed attempt's temporaries are
        // discarded by AtomicFile, so re-running from scratch is
        // idempotent and the destination only ever sees a commit.
        let unified = AtomicFile::create_with(&store.vfs, store.dir.join(unified_name(stem)))?;
        let (unified, ustats) = write_unified(unified, &part.ndt).map_err(|e| e.into_io())?;
        unified.commit()?;
        let traces = AtomicFile::create_with(&store.vfs, store.dir.join(traces_name(stem)))?;
        let (traces, tstats) = write_traces(traces, &part.traces).map_err(|e| e.into_io())?;
        traces.commit()?;
        let mut stats = ustats;
        stats.merge(&tstats);
        Ok(stats)
    })
}

/// Writes the manifest — header, config fingerprint, every shard stem of
/// `sim`'s corpus in day order, and the digest file when the scenario has
/// a second country. Written last, over units that are all on disk.
pub(crate) fn write_manifest(store: &UnitStore, sim: &SimConfig) -> io::Result<()> {
    let fingerprint = config_fingerprint(sim);
    let mut manifest = format!("{MANIFEST_HEADER}\nfingerprint {fingerprint:016x}\n");
    for range in sim.shards(CORPUS_SHARD_DAYS) {
        manifest.push_str(&format!("shard {}\n", shard_stem(range.start, range.end, fingerprint)));
    }
    if sim.scenario.spec().second_country.is_some() {
        manifest.push_str(&format!("digest {COUNTRY_DIGEST_FILE}\n"));
    }
    let path = store.dir.join(STORE_MANIFEST);
    let write = || crate::atomic::write_atomic_with(&store.vfs, &path, manifest.as_bytes());
    retry_io(&store.retry, write)
}

/// A parsed store manifest: shard stems (day order) plus any auxiliary
/// digest files (`digest <name>` lines — the second-country digest of
/// asymmetric scenarios).
struct Manifest {
    stems: Vec<String>,
    digests: Vec<String>,
}

/// Parses a store manifest into shard stems (day order).
fn read_manifest(vfs: &VfsHandle, store_dir: &Path) -> io::Result<Manifest> {
    let path = store_dir.join(STORE_MANIFEST);
    let text = vfs.read_to_string(&path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot open store manifest {}: {e}", path.display()),
        )
    })?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a store manifest", path.display()),
        ));
    }
    let mut stems = Vec::new();
    let mut digests = Vec::new();
    // Day ranges of the listed shards, in any order: no day may be listed
    // twice, or the load would ingest its rows twice.
    let mut days: Vec<(i64, i64)> = Vec::new();
    for line in lines {
        if line.is_empty() || line.starts_with("fingerprint ") {
            continue;
        }
        match (line.strip_prefix("shard "), line.strip_prefix("digest ")) {
            (Some(stem), _) if !stem.contains(['/', '\\']) => {
                if let Some((lo, hi)) = stem_day_range(stem) {
                    if let Some(&(a, b)) = days.iter().find(|&&(a, b)| lo < b && a < hi) {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "{} lists days {}-{} twice (shard {stem})",
                                path.display(),
                                lo.max(a),
                                hi.min(b)
                            ),
                        ));
                    }
                    days.push((lo, hi));
                }
                stems.push(stem.to_string());
            }
            (_, Some(name)) if !name.contains(['/', '\\']) => digests.push(name.to_string()),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("malformed manifest line: {line:?}"),
                ));
            }
        }
    }
    if stems.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} lists no shards", path.display()),
        ));
    }
    Ok(Manifest { stems, digests })
}

/// Reads the config fingerprint a store's manifest records — the same
/// value [`config_fingerprint`] produced for the run that generated it.
/// The serving layer keys its result cache on this: two stores generated
/// from the same configuration answer identically, so their cache entries
/// may as well.
pub fn read_store_fingerprint(vfs: &VfsHandle, store_dir: &Path) -> io::Result<u64> {
    let path = store_dir.join(STORE_MANIFEST);
    let text = vfs.read_to_string(&path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot open store manifest {}: {e}", path.display()),
        )
    })?;
    text.lines()
        .find_map(|l| l.strip_prefix("fingerprint "))
        .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} records no fingerprint", path.display()),
            )
        })
}

/// How `report --from-store` turns shard pages into analysis inputs. It
/// has one value: validated columnar batches flow from the page decoder
/// straight into the dictionary-encoded table, shard pairs decode in
/// parallel under the thread budget, and one coordinator ingests them in
/// manifest order. The type stays so callers of
/// [`load_study_data_with`] and [`run_report_from_store_with`] keep their
/// signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanEngine {
    /// The batch loader.
    #[default]
    Vectorized,
}

/// Reads both files of one shard fully into rows — the resume path of a
/// checkpoint store, whose shards go back through the shard pool's
/// hand-back. Decoding verifies every page checksum.
pub(crate) fn read_shard_pair(vfs: &VfsHandle, store_dir: &Path, stem: &str) -> io::Result<Dataset> {
    let unified =
        Shard::open_with(vfs, store_dir.join(unified_name(stem))).map_err(|e| e.into_io())?;
    let (ndt, _) = scan_unified(&unified).map_err(|e| e.into_io())?;
    let traces =
        Shard::open_with(vfs, store_dir.join(traces_name(stem))).map_err(|e| e.into_io())?;
    let (traces, _) = scan_traces(&traces, RowFilter).map_err(|e| e.into_io())?;
    Ok(Dataset { ndt, traces })
}

/// Moves both files of a damaged shard into `<store>/.quarantine/` so the
/// next read doesn't trip over them again. Best-effort: a file that
/// cannot be moved (already gone, or the move itself faults) is left
/// behind — quarantine is bookkeeping, never a second failure source.
fn quarantine_shard(vfs: &VfsHandle, store_dir: &Path, stem: &str) {
    let qdir = store_dir.join(QUARANTINE_DIR);
    if vfs.create_dir_all(&qdir).is_err() {
        return;
    }
    for name in [unified_name(stem), traces_name(stem)] {
        let from = store_dir.join(&name);
        if vfs.exists(&from) {
            let _ = rename_reliable(vfs, &from, &qdir.join(&name), &crate::RetryPolicy::DEFAULT);
        }
    }
}

/// Streams a store directory back into a [`ndt_analysis::StudyData`], in
/// manifest (day) order, **degrading instead of dying**: a shard that is
/// missing, truncated, or fails its payload checksums is quarantined
/// (moved to `<store>/.quarantine/`, counted under
/// `store.shards_quarantined` / `store.days_missing`) and the load
/// continues with the surviving shards. Each quarantined shard is
/// returned as a failed `store:<stem>` [`StageRecord`], so the caller
/// exits with the partial-success code; the surviving rows are exactly
/// what a clean store holding only those shards would yield, which is
/// what keeps a degraded report byte-identical to a clean run over the
/// same survivors. Only a missing or malformed *manifest* is a hard
/// error — without it there is no shard list to degrade over.
pub fn load_study_data(
    vfs: &VfsHandle,
    store_dir: &Path,
) -> io::Result<(ndt_analysis::StudyData, Vec<StageRecord>)> {
    load_study_data_with(vfs, store_dir, ScanEngine::default(), 0)
}

/// Records a quarantined shard: moves its files aside, bumps the
/// deterministic counters, and appends the failed stage record.
fn note_quarantined(
    vfs: &VfsHandle,
    store_dir: &Path,
    stem: &str,
    e: &io::Error,
    records: &mut Vec<StageRecord>,
) {
    quarantine_shard(vfs, store_dir, stem);
    ndt_obs::incr("store.shards_quarantined", 1);
    if let Some((lo, hi)) = stem_day_range(stem) {
        ndt_obs::incr("store.days_missing", (hi - lo) as u64);
    }
    ndt_obs::error!("[runner] shard {stem}: quarantined: {e}");
    records.push(StageRecord {
        name: format!("store:{stem}"),
        status: StageStatus::Failed(StageError::Failed(format!("shard quarantined: {e}"))),
    });
}

/// Per-load scan accounting, published once at the end of the load.
#[derive(Default)]
struct LoadMetrics {
    /// Unified rows ingested (surviving shards only).
    unified_rows: u64,
    /// All rows ingested, traces included.
    rows_total: u64,
    /// Microseconds spent scanning/decoding the unified shards.
    scan_us: u64,
    /// Microseconds spent ingesting unified data into the table.
    ingest_us: u64,
}

impl LoadMetrics {
    fn publish(&self, wall: std::time::Duration) {
        // Wall-clock throughput is machine-dependent: process namespace
        // only. The deterministic row/prune counters are published per
        // successful pair via `publish_scan_stats`.
        let secs = wall.as_secs_f64();
        if secs > 0.0 {
            ndt_obs::incr_process(
                "store.scan_rows_per_sec",
                (self.rows_total as f64 / secs) as u64,
            );
        }
        ndt_obs::incr_process("store.unified_rows", self.unified_rows);
        ndt_obs::incr_process("store.unified_scan_us", self.scan_us);
        ndt_obs::incr_process("store.unified_ingest_us", self.ingest_us);
    }
}

/// [`load_study_data`] with an explicit [`ScanEngine`] and decode thread
/// budget (`0` = all cores).
pub fn load_study_data_with(
    vfs: &VfsHandle,
    store_dir: &Path,
    _engine: ScanEngine,
    threads: usize,
) -> io::Result<(ndt_analysis::StudyData, Vec<StageRecord>)> {
    let manifest = read_manifest(vfs, store_dir)?;
    let _span = ndt_obs::span("stage.store-read");
    let started = std::time::Instant::now();
    let mut metrics = LoadMetrics::default();
    let (mut data, mut records) =
        load_shards(vfs, store_dir, &manifest.stems, threads, &mut metrics);
    // Auxiliary digest files (the second-country digest of asymmetric
    // scenarios): same degrade-don't-die contract as shards — a missing
    // or corrupt digest becomes a failed record and the table_ab stage
    // is simply never scheduled, while the single-country report body
    // stays intact.
    for name in &manifest.digests {
        let path = store_dir.join(name);
        let parsed = vfs
            .read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| CountryDigest::parse(&t));
        match parsed {
            Ok(digest) => data.second_country = Some(digest),
            Err(e) => {
                ndt_obs::incr("store.digests_failed", 1);
                ndt_obs::error!("[runner] digest {name}: unreadable: {e}");
                records.push(StageRecord {
                    name: format!("store:{name}"),
                    status: StageStatus::Failed(StageError::Failed(format!(
                        "digest unreadable: {e}"
                    ))),
                });
            }
        }
    }
    metrics.publish(started.elapsed());
    Ok((data, records))
}

/// Messages one decode worker streams to the ingest coordinator for one
/// shard pair, in order: any number of `Unified` batches, then the
/// pair's traces, then `Done` — or `Failed` at any point, after which the
/// coordinator rolls the pair back and quarantines it.
enum PairMsg {
    Unified(UnifiedBatch),
    Traces(Vec<ndt_mlab::Scamper1Row>),
    Done { ustats: ScanStats, tstats: ScanStats },
    Failed(io::Error),
}

/// Row-group batches a worker may have in its pair channel before it
/// blocks — with the one batch each side holds in hand, resident
/// undigested rows are bounded by `workers × (CAP + 2)` row groups
/// regardless of corpus size.
const BATCH_CHANNEL_CAP: usize = 2;

/// Decodes one shard pair, streaming results into `tx`. Runs on a pool
/// worker; never ingests anything itself.
fn decode_pair(
    vfs: &VfsHandle,
    store_dir: &Path,
    stem: &str,
    tx: &std::sync::mpsc::SyncSender<PairMsg>,
    resident: &std::sync::atomic::AtomicU64,
    scan_us: &std::sync::atomic::AtomicU64,
) {
    use std::sync::atomic::Ordering;
    let body = || -> io::Result<(ScanStats, ScanStats)> {
        let started = std::time::Instant::now();
        // Time actually spent handing batches to the (possibly busy)
        // coordinator — backpressure, not scan work — excluded from the
        // scan-throughput accounting.
        let mut blocked = std::time::Duration::ZERO;
        let unified = Shard::open_with(vfs, store_dir.join(unified_name(stem)))
            .map_err(|e| e.into_io())?;
        let ustats = scan_unified_batches(&unified, RowFilter, |b| {
            if b.is_empty() {
                return;
            }
            // Count the batch resident from the moment it exists; the
            // coordinator subtracts after ingesting it.
            let now = resident.fetch_add(b.rows() as u64, Ordering::Relaxed) + b.rows() as u64;
            ndt_obs::set_process_max("store.peak_resident_rows", now);
            let t0 = std::time::Instant::now();
            let _ = tx.send(PairMsg::Unified(b));
            blocked += t0.elapsed();
        })
        .map_err(|e| e.into_io())?;
        let scanning = started.elapsed().saturating_sub(blocked);
        scan_us.fetch_add(scanning.as_micros() as u64, Ordering::Relaxed);
        let traces = Shard::open_with(vfs, store_dir.join(traces_name(stem)))
            .map_err(|e| e.into_io())?;
        let (trace_rows, tstats) =
            scan_traces(&traces, RowFilter).map_err(|e| e.into_io())?;
        let _ = tx.send(PairMsg::Traces(trace_rows));
        Ok((ustats, tstats))
    };
    let msg = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(Ok((ustats, tstats))) => PairMsg::Done { ustats, tstats },
        Ok(Err(e)) => PairMsg::Failed(e),
        Err(payload) => PairMsg::Failed(io::Error::other(format!(
            "shard decode panicked: {}",
            crate::executor::panic_message(payload)
        ))),
    };
    let _ = tx.send(msg);
}

/// The store loader: a bounded pool of decode workers claims shard pairs
/// in manifest order from a shared cursor and streams validated columnar
/// batches through per-pair bounded channels; the coordinator ingests
/// pair-by-pair in manifest order, so table contents, stats, quarantine
/// records and counters are byte-identical to a sequential run at any
/// thread count. A pair that fails mid-stream is rolled back to its start
/// mark and quarantined: a failed shard contributes nothing.
fn load_shards(
    vfs: &VfsHandle,
    store_dir: &Path,
    stems: &[String],
    threads: usize,
    metrics: &mut LoadMetrics,
) -> (ndt_analysis::StudyData, Vec<StageRecord>) {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc::sync_channel;
    use std::sync::Mutex;

    let budget = ndt_mlab::sim::resolve_threads(threads);
    let workers = stems.len().min(budget).max(1);
    let mut txs = Vec::with_capacity(stems.len());
    let mut rxs = Vec::with_capacity(stems.len());
    for _ in stems {
        let (tx, rx) = sync_channel::<PairMsg>(BATCH_CHANNEL_CAP);
        txs.push(Mutex::new(Some(tx)));
        rxs.push(rx);
    }
    let cursor = AtomicUsize::new(0);
    let resident = AtomicU64::new(0);
    let scan_us = AtomicU64::new(0);
    let mut builder = StudyDataBuilder::new();
    let mut records = Vec::new();

    thread::scope(|scope| {
        for _ in 0..workers {
            let cursor = &cursor;
            let txs = &txs;
            let resident = &resident;
            let scan_us = &scan_us;
            scope.spawn(move || loop {
                let j = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(stem) = stems.get(j) else { break };
                let tx = txs[j].lock().expect("pair sender lock").take().expect("pair sender");
                decode_pair(vfs, store_dir, stem, &tx, resident, scan_us);
            });
        }

        // Coordinator: drain pair channels in manifest order.
        for (j, stem) in stems.iter().enumerate() {
            let mark = builder.mark();
            let mut outcome: Option<io::Result<(ScanStats, ScanStats)>> = None;
            let mut ingest_err: Option<io::Error> = None;
            while outcome.is_none() {
                match rxs[j].recv() {
                    Ok(PairMsg::Unified(b)) => {
                        if ingest_err.is_none() {
                            let t0 = std::time::Instant::now();
                            let r = builder.push_unified_batch(&b);
                            metrics.ingest_us += t0.elapsed().as_micros() as u64;
                            if let Err(e) = r {
                                ingest_err = Some(e);
                            }
                        }
                        resident.fetch_sub(b.rows() as u64, Ordering::Relaxed);
                    }
                    Ok(PairMsg::Traces(rows)) => {
                        if ingest_err.is_none() {
                            builder.push_trace_rows(rows);
                        }
                    }
                    Ok(PairMsg::Done { ustats, tstats }) => outcome = Some(Ok((ustats, tstats))),
                    Ok(PairMsg::Failed(e)) => outcome = Some(Err(e)),
                    Err(_) => {
                        outcome = Some(Err(io::Error::other(
                            "shard decode worker exited before finishing the pair",
                        )));
                    }
                }
            }
            let outcome = match (outcome.expect("loop exits with outcome"), ingest_err) {
                (_, Some(e)) | (Err(e), None) => Err(e),
                (Ok(stats), None) => Ok(stats),
            };
            match outcome {
                Ok((ustats, tstats)) => {
                    publish_scan_stats(&ustats);
                    publish_scan_stats(&tstats);
                    metrics.unified_rows += ustats.rows_emitted;
                    metrics.rows_total += ustats.rows_emitted + tstats.rows_emitted;
                }
                Err(e) => {
                    builder.rollback(mark);
                    note_quarantined(vfs, store_dir, stem, &e, &mut records);
                }
            }
        }
    });

    metrics.scan_us += scan_us.load(Ordering::Relaxed);
    (builder.finish(), records)
}

/// The `report --from-store` command: stream the corpus from a columnar
/// store and run the same analysis stages as the in-memory pipeline.
/// Report text and artifacts are byte-identical to [`run_report`]'s for
/// the config that generated the store.
///
/// [`run_report`]: crate::pipeline::run_report
pub fn run_report_from_store(
    store_dir: &Path,
    exec: ExecPolicy,
    vfs: &VfsHandle,
) -> io::Result<PipelineOutcome> {
    run_report_from_store_with(store_dir, exec, vfs, ScanEngine::default(), 0)
}

/// [`run_report_from_store`] with an explicit [`ScanEngine`] and decode
/// thread budget (`0` = all cores). The report and artifacts are
/// byte-identical across thread budgets.
pub fn run_report_from_store_with(
    store_dir: &Path,
    exec: ExecPolicy,
    vfs: &VfsHandle,
    engine: ScanEngine,
    threads: usize,
) -> io::Result<PipelineOutcome> {
    let (data, quarantined) = load_study_data_with(vfs, store_dir, engine, threads)?;
    // Nothing to save: the shard files are the persistent form, and
    // analyses over them are cheaper to re-run than to verify.
    let mut p = Pipeline::in_memory(exec);
    let outputs = p.analyses(Arc::new(data));
    // Quarantined shards are *data* degradation, not analysis failures:
    // they surface through the coverage machinery (missing day ranges in
    // the report footer), while the report body stays byte-identical to a
    // clean run over the surviving shards. Their failed records still
    // join the ledger so the CLI exits with the partial-success code.
    let report = assemble_staged_report(&outputs, &p.failures());
    let artifacts = outputs
        .iter()
        .flat_map(|o| o.artifacts.iter().map(|(f, c)| (f.to_string(), c.clone())))
        .collect();
    let mut records = quarantined;
    records.append(&mut p.records);
    Ok(PipelineOutcome { report, artifacts, records })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_report;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("ndt-runner-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn tiny(seed: u64) -> SimConfig {
        SimConfig { scale: 0.01, ..SimConfig::small(seed) }
    }

    #[test]
    fn store_report_matches_in_memory_report() {
        let d = tmpdir("eq");
        let mut cfg = PipelineConfig::new(tiny(41), d.join("out"));
        cfg.checkpoints = false;
        let in_memory = run_report(&cfg).expect("in-memory report");
        assert!(in_memory.is_complete());

        let store_dir = d.join("store");
        let (summary, records) = run_store_generate(&cfg, &store_dir).expect("store generate");
        assert!(records.iter().all(|r| r.status == StageStatus::Computed));
        assert!(summary.stats.rows > 0);
        let from_store =
            run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real()).expect("store report");
        assert!(from_store.is_complete());
        assert_eq!(in_memory.report, from_store.report, "report text must be byte-identical");
        assert_eq!(in_memory.artifacts, from_store.artifacts, "artifacts must be byte-identical");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn resume_validates_and_keeps_existing_shards() {
        let d = tmpdir("resume");
        let mut cfg = PipelineConfig::new(tiny(43), d.join("out"));
        cfg.checkpoints = false;
        let store_dir = d.join("store");
        let (s1, r1) = run_store_generate(&cfg, &store_dir).expect("first generate");
        assert!(r1.iter().all(|r| r.status == StageStatus::Computed));

        cfg.resume = true;
        let (s2, r2) = run_store_generate(&cfg, &store_dir).expect("resumed generate");
        assert!(
            r2.iter().all(|r| r.status == StageStatus::Resumed),
            "complete store resumes every shard: {r2:?}"
        );
        assert_eq!(s2.stats.rows, 0, "resumed shards are not rewritten");
        assert_eq!(s1.shards, s2.shards);

        // Damage one shard file: only that shard regenerates.
        let victim = store_dir.join(unified_name(&s1.shards[1]));
        let bytes = std::fs::read(&victim).expect("read shard");
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate shard");
        let (_, r3) = run_store_generate(&cfg, &store_dir).expect("repair generate");
        let statuses: Vec<_> = r3.iter().map(|r| r.status.clone()).collect();
        assert_eq!(statuses[1], StageStatus::Computed, "damaged shard regenerates");
        assert!(
            statuses.iter().enumerate().all(|(i, s)| i == 1 || *s == StageStatus::Resumed),
            "undamaged shards resume: {r3:?}"
        );
        // And the repaired store still reports identically.
        let report = run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real()).expect("report");
        assert!(report.is_complete());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn asymmetric_store_carries_the_country_digest() {
        let d = tmpdir("asym");
        let sim = SimConfig { scenario: ndt_mlab::sim::Scenario::ASYMMETRIC, ..tiny(47) };
        let mut cfg = PipelineConfig::new(sim, d.join("out"));
        cfg.checkpoints = false;
        let in_memory = run_report(&cfg).expect("in-memory report");
        assert!(in_memory.is_complete());
        assert!(
            in_memory.report.contains("Scenario A/B"),
            "asymmetric report must carry the two-country table"
        );

        let store_dir = d.join("store");
        let (_, records) = run_store_generate(&cfg, &store_dir).expect("store generate");
        assert!(
            records
                .iter()
                .any(|r| r.name == "country-b" && r.status == StageStatus::Computed),
            "store generation records the digest stage: {records:?}"
        );
        let manifest =
            std::fs::read_to_string(store_dir.join(STORE_MANIFEST)).expect("manifest");
        assert!(manifest.contains(&format!("digest {COUNTRY_DIGEST_FILE}")));

        let from_store =
            run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real())
                .expect("store report");
        assert!(from_store.is_complete());
        assert_eq!(in_memory.report, from_store.report, "A/B report survives the store round-trip");
        assert_eq!(in_memory.artifacts, from_store.artifacts);

        // Resume validates the persisted digest instead of re-simulating.
        cfg.resume = true;
        let (_, r2) = run_store_generate(&cfg, &store_dir).expect("resumed generate");
        assert!(
            r2.iter().all(|r| r.status == StageStatus::Resumed),
            "complete asymmetric store resumes digest too: {r2:?}"
        );

        // A corrupted digest degrades: failed record, single-country body.
        std::fs::write(store_dir.join(COUNTRY_DIGEST_FILE), "garbage").expect("corrupt digest");
        let degraded =
            run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real())
                .expect("degraded report");
        assert!(!degraded.is_complete());
        assert!(degraded
            .records
            .iter()
            .any(|r| r.name == format!("store:{COUNTRY_DIGEST_FILE}")));
        assert!(!degraded.report.contains("Scenario A/B"));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn from_store_fails_cleanly_without_manifest() {
        let d = tmpdir("nomanifest");
        let err = run_report_from_store(&d, ExecPolicy::default(), &VfsHandle::real())
            .expect_err("empty dir has no manifest");
        assert!(err.to_string().contains("manifest"), "unhelpful error: {err}");
        let _ = std::fs::remove_dir_all(&d);
    }
}
