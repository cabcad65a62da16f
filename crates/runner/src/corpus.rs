//! The corpus dataflow: one shard pool behind `report`, `export` and both
//! `generate` formats.
//!
//! The corpus is simulated in 27-day shards ([`CORPUS_SHARD_DAYS`]).
//! Shards are independent — per-(client, day) RNG streams make every
//! shard's rows a pure function of the config — so a bounded
//! work-stealing pool of workers claims them in day order, and the
//! coordinator hands each finished shard to its caller **in day order**.
//! Records, events, published counters and the kept rows are therefore
//! identical at every thread count.
//!
//! Where shards go depends on the store the caller passes:
//!
//! * none (`report` without checkpoints) — rows are handed back, nothing
//!   is encoded, nothing touches disk;
//! * a checkpoint store (`export`, CSV `generate`, any `--resume`) — each
//!   worker also writes its shard as an `ndt-store` pair plus a counters
//!   sidecar right after simulating it, and rows are handed back (CSV
//!   `generate` appends each shard to its two CSVs, then drops it);
//! * an output store (`generate --format columnar`) — each worker writes
//!   its shard and drops it, so no finished shard stays in memory.
//!
//! With `--resume`, a shard whose files validate in the store is read back
//! instead of simulated.
//!
//! Each shard's body runs under [`ndt_obs::capture`], so its counters
//! travel with it: the coordinator publishes them only for shards it
//! hands back, a panicking shard publishes nothing, and a resumed shard
//! re-publishes the tally saved beside it. A panic is contained per
//! shard (a failed `corpus:`/`store:` record); shards are never
//! abandoned at a deadline.

use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use ndt_mlab::columnar::write_stats_tally;
use ndt_mlab::sim::{resolve_threads, SimConfig};
use ndt_mlab::{Dataset, Simulator};
use ndt_obs::Tally;
use ndt_store::WriteStats;
use ndt_vfs::VfsHandle;

use crate::atomic::sweep_orphan_temps;
use crate::checkpoint::{config_fingerprint, read_tally, write_tally};
use crate::executor::{panic_message, StageError};
use crate::pipeline::{
    maybe_exit_after, maybe_injected_panic, PipelineConfig, StageRecord, StageStatus,
};
use crate::retry::{retry_io, RetryPolicy};
use crate::store::{
    read_shard_pair, read_store_fingerprint, shard_file_fingerprint, shard_is_complete,
    shard_stem, write_shard_files, STORE_MANIFEST,
};

/// Days per corpus shard. 27 divides both study windows (108 days of
/// 2021 baseline, 108 days of 2022) into 4 shards each, so a kill during
/// generation costs at most one shard of work.
pub const CORPUS_SHARD_DAYS: i64 = 27;

/// A directory corpus units are saved to and resumed from: the checkpoint
/// directory, or the store `generate --format columnar` writes.
pub(crate) struct UnitStore {
    pub(crate) dir: PathBuf,
    pub(crate) vfs: VfsHandle,
    pub(crate) retry: RetryPolicy,
    /// [`config_fingerprint`] of the run's corpus.
    pub(crate) fingerprint: u64,
    /// Read back units that validate instead of recomputing them.
    pub(crate) resume: bool,
    /// The store is the command's output (`generate --format columnar`):
    /// a failed save fails its unit, and shards are dropped once saved.
    /// Otherwise it is a checkpoint beside rows kept in memory, and a
    /// failed save only costs resume credit.
    pub(crate) output: bool,
}

impl UnitStore {
    /// Creates `dir` and sweeps the hidden atomic-write temporaries a
    /// killed predecessor may have left in it. A checkpoint store also
    /// drops every other config's shards, so it holds one config at most.
    pub(crate) fn open(cfg: &PipelineConfig, dir: PathBuf, output: bool) -> io::Result<Self> {
        let retry = cfg.exec.retry;
        retry_io(&retry, || cfg.vfs.create_dir_all(&dir))?;
        if let Ok(swept) = sweep_orphan_temps(&cfg.vfs, &dir) {
            if swept > 0 {
                ndt_obs::incr_process("tmp_swept", swept as u64);
            }
        }
        let fingerprint = config_fingerprint(&cfg.sim);
        let store =
            UnitStore { dir, vfs: cfg.vfs.clone(), retry, fingerprint, resume: cfg.resume, output };
        if !output {
            store.sweep_other_configs();
        }
        Ok(store)
    }

    /// Best-effort removal of another config's units: first a `STORE.txt`
    /// sealing another config, so no manifest names a deleted shard, then
    /// every shard file and sidecar whose name carries another fingerprint.
    fn sweep_other_configs(&self) {
        let stale = |fp: u64| fp != self.fingerprint;
        if read_store_fingerprint(&self.vfs, &self.dir).is_ok_and(stale) {
            let _ = self.vfs.remove_file(&self.dir.join(STORE_MANIFEST));
        }
        for path in self.vfs.read_dir(&self.dir).unwrap_or_default() {
            let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
            if shard_file_fingerprint(&name).is_some_and(stale) {
                let _ = self.vfs.remove_file(&path);
            }
        }
    }

    /// Judges the outcome of saving unit `name`: `Ok(true)` when it is on
    /// disk, `Ok(false)` (after a warning) when a checkpoint could not be
    /// saved, and `Err` when saving the command's output failed.
    pub(crate) fn settle(&self, name: &str, saved: io::Result<()>) -> Result<bool, StageError> {
        match saved {
            Ok(()) => Ok(true),
            Err(e) if self.output => Err(StageError::Failed(format!("could not save: {e}"))),
            Err(e) => {
                ndt_obs::warn!("[runner] warning: could not save {name}: {e}");
                Ok(false)
            }
        }
    }
}

/// One shard handed back to the caller.
pub(crate) struct ShardDone {
    pub(crate) record: StageRecord,
    /// Stem of the shard's files (`shard-<lo>-<hi>-<fingerprint>`).
    pub(crate) stem: String,
    /// The shard's rows, unless it failed or the store is the command's
    /// output.
    pub(crate) rows: Option<Dataset>,
    /// What saving the shard wrote in this run.
    pub(crate) written: Option<WriteStats>,
    /// Whether the shard is on disk in the store (resumed, or saved now).
    pub(crate) saved: bool,
}

/// How a run splits its thread budget: `workers` shard workers ×
/// `engines` per-shard simulation engines ≤ `budget`, resolved once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolPlan {
    pub(crate) budget: usize,
    pub(crate) workers: usize,
    pub(crate) engines: usize,
}

impl PoolPlan {
    fn new(threads: usize, pending: usize) -> Self {
        let budget = resolve_threads(threads);
        let workers = pending.min(budget).max(1);
        PoolPlan { budget, workers, engines: (budget / workers).max(1) }
    }
}

/// One day-range shard of the run.
struct Shard {
    name: String,
    stem: String,
    range: Range<i64>,
}

impl Shard {
    /// This shard's hand-back, with nothing attached yet.
    fn done(&self, status: StageStatus) -> ShardDone {
        ShardDone {
            record: StageRecord { name: self.name.clone(), status },
            stem: self.stem.clone(),
            rows: None,
            written: None,
            saved: false,
        }
    }
}

/// Rows (when kept) and tally of a shard read back from the store.
type Resumed = (Option<Dataset>, Tally);

/// What a worker sends back for one shard: rows (when kept), the
/// shard's tally, and the outcome of saving it (when there is a store).
type Simulated = (Option<Dataset>, Tally, Option<io::Result<WriteStats>>);

/// Simulates — or, on resume, reads back — every shard of `sim`'s corpus
/// and hands each to `deliver` in day order, with its rows — unless the
/// store is the command's output, whose shards are dropped once saved.
/// Records are named `corpus:<lo>-<hi>`, or `store:<lo>-<hi>` for an
/// output store.
pub(crate) fn run_shards(
    sim: &SimConfig,
    store: Option<&UnitStore>,
    mut deliver: impl FnMut(ShardDone),
) -> PoolPlan {
    let kind = if store.is_some_and(|s| s.output) { "store" } else { "corpus" };
    let fingerprint = config_fingerprint(sim);
    let shards: Vec<Shard> = sim
        .shards(CORPUS_SHARD_DAYS)
        .into_iter()
        .map(|range| Shard {
            // Zero-padded day labels so span names in bench artifacts sort
            // numerically (054 before 365), matching the shard stems.
            name: format!("{kind}:{:03}-{:03}", range.start, range.end),
            stem: shard_stem(range.start, range.end, fingerprint),
            range,
        })
        .collect();
    // Phase 1 (coordinator, day order): read back what validates.
    let mut resumed: Vec<Option<Resumed>> = shards
        .iter()
        .map(|shard| store.filter(|s| s.resume).and_then(|s| resume_shard(s, &shard.stem)))
        .collect();
    let pending: Vec<usize> = (0..shards.len()).filter(|&i| resumed[i].is_none()).collect();
    let plan = PoolPlan::new(sim.threads, pending.len());
    let worker_cfg = SimConfig { threads: plan.engines, ..*sim };
    // One simulator build per run, on the coordinator — so the artifact's
    // `topology.build` span count does not depend on the worker count —
    // plus a clone for each further worker; each worker reuses its
    // simulator across the shards it claims. The build's set-up facts (the
    // topology gauges) ride with every shard.
    let (sims, setup) = if pending.is_empty() {
        (Vec::new(), Tally::default())
    } else {
        let (base, setup) = ndt_obs::capture(|| Simulator::new(worker_cfg));
        let mut sims: Vec<Simulator> = (1..plan.workers).map(|_| base.clone()).collect();
        sims.push(base);
        (sims, setup)
    };
    let mut ratio = (0u64, 0u64);
    // The claim cursor only hands out indices into data every worker could
    // read before it was spawned, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);

    thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Result<Simulated, StageError>)>();
        let mut workers = Vec::new();
        for mut sim in sims {
            let (tx, next, shards, pending, setup) = (tx.clone(), &next, &shards, &pending, &setup);
            workers.push(scope.spawn(move || {
                while let Some(&i) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let shard = &shards[i];
                    let result = simulate(&mut sim, worker_cfg, setup, shard, store);
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                }
            }));
        }
        drop(tx);

        // Phase 2 (coordinator, day order): hand every shard back.
        let mut early = BTreeMap::new();
        for (i, shard) in shards.iter().enumerate() {
            let (done, tally) = match resumed[i].take() {
                Some((rows, tally)) => {
                    ndt_obs::incr_process("store.shards_resumed", 1);
                    ndt_obs::info!("[runner] stage {}: resumed from checkpoint", shard.name);
                    let done = ShardDone { rows, saved: true, ..shard.done(StageStatus::Resumed) };
                    (done, Some(tally))
                }
                None => settle_shard(shard, store, recv_in_order(i, &rx, &mut early)),
            };
            if let Some(tally) = &tally {
                tally.publish();
                ratio.0 += tally.counter("store.bytes_file");
                ratio.1 += tally.counter("store.bytes_raw");
            }
            let computed = done.record.status == StageStatus::Computed;
            deliver(done);
            if computed {
                maybe_exit_after(&shard.name);
            }
        }
        for worker in workers {
            // A worker only dies outside its per-shard catch_unwind in
            // pool bookkeeping; its unfinished shard already failed above.
            let _ = worker.join();
        }
    });

    // Deterministic ratio gauge over every shard of the store — resumed
    // ones included, so a kill→resume run reports what a clean run does.
    if let Some(pct) = (ratio.0 * 100).checked_div(ratio.1) {
        ndt_obs::set_gauge("store.encoded_pct_of_raw", pct);
    }
    plan
}

/// Waits for shard `i`'s result, parking results that arrive early.
fn recv_in_order(
    i: usize,
    rx: &mpsc::Receiver<(usize, Result<Simulated, StageError>)>,
    early: &mut BTreeMap<usize, Result<Simulated, StageError>>,
) -> Result<Simulated, StageError> {
    loop {
        if let Some(result) = early.remove(&i) {
            return result;
        }
        match rx.recv() {
            Ok((j, result)) => {
                early.insert(j, result);
            }
            Err(_) => {
                return Err(StageError::Failed(
                    "shard worker exited before finishing the shard".to_string(),
                ))
            }
        }
    }
}

/// Settles one simulated shard: a failed record for a panic or for a
/// failed save to an output store, else a computed shard and the tally to
/// publish.
fn settle_shard(
    shard: &Shard,
    store: Option<&UnitStore>,
    result: Result<Simulated, StageError>,
) -> (ShardDone, Option<Tally>) {
    let mut done = shard.done(StageStatus::Computed);
    let settled = result.and_then(|(rows, tally, saved)| {
        if let (Some(store), Some(saved)) = (store, saved) {
            done.written = saved.as_ref().ok().copied();
            done.saved = store.settle(&shard.name, saved.map(drop))?;
        }
        Ok((rows, tally))
    });
    match settled {
        Ok((rows, tally)) => {
            if done.written.is_some() {
                ndt_obs::incr_process("store.shards_written", 1);
            }
            ndt_obs::info!("[runner] stage {}: computed", shard.name);
            (ShardDone { rows, ..done }, Some(tally))
        }
        Err(err) => {
            ndt_obs::error!("[runner] stage {}: FAILED: {err}", shard.name);
            (shard.done(StageStatus::Failed(err)), None)
        }
    }
}

/// Simulates one shard on a pool worker, saving it when there is a store.
/// A panic anywhere in the shard is contained and reported with its
/// payload text.
fn simulate(
    sim: &mut Simulator,
    cfg: SimConfig,
    setup: &Tally,
    shard: &Shard,
    store: Option<&UnitStore>,
) -> Result<Simulated, StageError> {
    let run = || {
        let (rows, mut tally) = {
            // Shard spans open on the worker thread, whose span stack is
            // otherwise empty — names and counts match a sequential run.
            let _span = ndt_obs::span(&format!("stage.{}", shard.name));
            maybe_injected_panic(&shard.name);
            ndt_obs::capture(|| sim.run_range(shard.range.clone()))
        };
        tally.merge(setup);
        let saved = store.map(|s| save_shard(s, &shard.stem, &rows, &mut tally));
        let rows = (!store.is_some_and(|s| s.output)).then(|| {
            // Hand back exact-size buffers: shards finish in parallel, and
            // growth slack would otherwise stack up until each is merged.
            let mut rows = rows;
            rows.ndt.shrink_to_fit();
            rows.traces.shrink_to_fit();
            rows
        });
        (rows, tally, saved)
    };
    catch_unwind(AssertUnwindSafe(run)).map_err(|payload| {
        ndt_obs::incr_process("exec.panics_contained", 1);
        // The simulator unwound mid-run; its state is suspect. The
        // rebuild's set-up facts already ride with every shard.
        *sim = ndt_obs::capture(|| Simulator::new(cfg)).0;
        StageError::Panicked(panic_message(payload))
    })
}

/// Saves one shard: the `ndt-store` pair, then its counters sidecar —
/// the tally, now including the pair's `store.*` write counters.
fn save_shard(
    store: &UnitStore,
    stem: &str,
    rows: &Dataset,
    tally: &mut Tally,
) -> io::Result<WriteStats> {
    let stats = write_shard_files(store, stem, rows)?;
    tally.merge(&write_stats_tally(&stats));
    write_tally(&store.vfs, &store.retry, &store.dir, stem, store.fingerprint, tally)?;
    Ok(stats)
}

/// Reads one saved shard back: its tally, and — when rows are kept — its
/// decoded rows. `None` when the sidecar or either file fails
/// to validate or decode; the shard is then recomputed.
fn resume_shard(store: &UnitStore, stem: &str) -> Option<Resumed> {
    let tally = read_tally(&store.vfs, &store.dir, stem, store.fingerprint)?;
    if store.output {
        // Nothing is decoded, so verify every page checksum here.
        return shard_is_complete(&store.vfs, &store.dir, stem).then_some((None, tally));
    }
    // Decoding the pair verifies every page checksum.
    let rows = read_shard_pair(&store.vfs, &store.dir, stem).ok()?;
    Some((Some(rows), tally))
}
