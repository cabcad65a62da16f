//! The staged pipeline: orchestration of topology, corpus shards,
//! analysis stages and report assembly.
//!
//! The corpus runs on the shard pool of [`crate::corpus`]; every other
//! stage runs through [`crate::executor::run_isolated`] (panic +
//! deadline isolation). Every stage and shard body runs under
//! [`ndt_obs::capture`]: its counters are published only once its value
//! is committed, so a failed, retried or abandoned attempt never
//! miscounts. With checkpoints on, corpus shards and the second
//! country's digest are saved to the store at `<out>/.ukraine-ndt/` as
//! they complete, and `--resume` reads back every unit that validates —
//! per-(client, day) RNG streams make the resumed run bit-for-bit
//! identical to an uninterrupted one.
//!
//! `report` and `export` ingest each shard into one `StudyData`;
//! [`run_generate`] hands each shard to its caller's sink (CSV
//! `generate`'s two writers) and keeps nothing, so the corpus is never
//! held whole.
//!
//! The topology, the analysis stages and report assembly are never
//! checkpointed: they are recomputed on every run, cheaper to redo than
//! to verify.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use ndt_analysis::{
    assemble_staged_report, run_analysis_stage, CountryDigest, StageFailure, StageOutput,
    StudyData, StudyDataBuilder, ANALYSIS_STAGES, SCENARIO_STAGES,
};
use ndt_mlab::schema::Dataset;
use ndt_mlab::sim::SimConfig;
use ndt_obs::Tally;
use ndt_topology::{build_topology, to_dot, TopologyConfig};
use ndt_vfs::VfsHandle;

use crate::checkpoint::{content_key, read_tally, write_tally, CHECKPOINT_DIR};
use crate::corpus::{run_shards, PoolPlan, ShardDone, UnitStore, CORPUS_SHARD_DAYS};
use crate::executor::{run_isolated, CancelToken, ExecPolicy, StageError, StageFault};
use crate::retry::retry_io;
use crate::store::{write_manifest, COUNTRY_DIGEST_FILE, STORE_MANIFEST};

/// How one run of the pipeline should behave.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Simulation knobs; also the source of the config fingerprint.
    pub sim: SimConfig,
    /// Output directory (checkpoints live in `<out>/.ukraine-ndt/`).
    pub out: PathBuf,
    /// Save corpus shards (and the second country's digest) to the
    /// checkpoint store as they complete.
    pub checkpoints: bool,
    /// Read back saved units that validate instead of recomputing them.
    pub resume: bool,
    /// Execution limits of the non-corpus stages, and the I/O retry
    /// policy of every save.
    pub exec: ExecPolicy,
    /// Filesystem the run's checkpoints, artifacts and store traffic go
    /// through. [`VfsHandle::real`] in production; a fault-injecting
    /// handle under chaos testing (`--io-faults`).
    pub vfs: VfsHandle,
}

impl PipelineConfig {
    /// Checkpointing on, resume off — the defaults for `export`/`generate`.
    pub fn new(sim: SimConfig, out: impl Into<PathBuf>) -> Self {
        PipelineConfig {
            sim,
            out: out.into(),
            checkpoints: true,
            resume: false,
            exec: ExecPolicy::default(),
            vfs: VfsHandle::real(),
        }
    }
}

/// How a stage ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageStatus {
    /// Ran in this process.
    Computed,
    /// Read back from a verified checkpoint.
    Resumed,
    /// Did not produce a value (panic, deadline, fault, or skipped
    /// because an upstream stage failed).
    Failed(StageError),
}

/// One stage's ledger entry for the run report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Stage name (`topology`, `corpus:<lo>-<hi>`, or an analysis stage).
    pub name: String,
    /// Outcome.
    pub status: StageStatus,
}

/// The result of a pipeline run. Always produced — failed stages appear
/// as annotated placeholders in the report and as [`StageStatus::Failed`]
/// records, never as a process abort.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The assembled reproduction report text.
    pub report: String,
    /// `(file name, content)` artifact pairs, in write order.
    pub artifacts: Vec<(String, String)>,
    /// Per-stage ledger, in execution order.
    pub records: Vec<StageRecord>,
}

impl PipelineOutcome {
    /// Records of stages that failed.
    pub fn failed(&self) -> Vec<&StageRecord> {
        self.records
            .iter()
            .filter(|r| matches!(r.status, StageStatus::Failed(_)))
            .collect()
    }

    /// True when every stage produced a value (computed or resumed).
    pub fn is_complete(&self) -> bool {
        self.failed().is_empty()
    }
}

pub(crate) fn env_prefix_matches(var: &str, stage: &str) -> bool {
    match std::env::var(var) {
        Ok(v) if !v.is_empty() => stage.starts_with(&v),
        _ => false,
    }
}

/// Test hook: `UKRAINE_NDT_PANIC_STAGE=<prefix>` panics inside the first
/// matching stage body, exercising the panic-isolation path end to end.
pub(crate) fn maybe_injected_panic(stage: &str) {
    if env_prefix_matches("UKRAINE_NDT_PANIC_STAGE", stage) {
        panic!("injected panic in stage {stage} (UKRAINE_NDT_PANIC_STAGE)");
    }
}

/// Test hook: `UKRAINE_NDT_EXIT_AFTER=<prefix>` exits the process (code
/// 42) right after the first matching stage is computed and saved — a
/// deterministic stand-in for `kill -9` mid-run. Resumed stages do not
/// trigger it, so a resume with the variable still set makes progress
/// past the original crash point.
pub(crate) fn maybe_exit_after(stage: &str) {
    if env_prefix_matches("UKRAINE_NDT_EXIT_AFTER", stage) {
        ndt_obs::warn!("[runner] simulated crash after stage {stage} (UKRAINE_NDT_EXIT_AFTER)");
        std::process::exit(42);
    }
}

pub(crate) struct Pipeline {
    exec: ExecPolicy,
    /// Where corpus units are saved and resumed from; `None` keeps the
    /// run off disk.
    store: Option<UnitStore>,
    pub(crate) records: Vec<StageRecord>,
    /// Corpus units (shards, the digest) on disk in `store`, resumed or
    /// saved by this run.
    saved_units: usize,
}

impl Pipeline {
    /// A pipeline that saves nothing.
    pub(crate) fn in_memory(exec: ExecPolicy) -> Self {
        Pipeline { exec, store: None, records: Vec::new(), saved_units: 0 }
    }

    /// A pipeline saving to `store`.
    pub(crate) fn with_store(exec: ExecPolicy, store: UnitStore) -> Self {
        Pipeline { store: Some(store), ..Self::in_memory(exec) }
    }

    fn open(cfg: &PipelineConfig) -> io::Result<Self> {
        if !cfg.checkpoints {
            return Ok(Self::in_memory(cfg.exec));
        }
        let store = UnitStore::open(cfg, cfg.out.join(CHECKPOINT_DIR), false)?;
        Ok(Self::with_store(cfg.exec, store))
    }

    /// Runs one stage body isolated, under [`ndt_obs::capture`], and
    /// returns its value with the counters it recorded — unpublished until
    /// [`Pipeline::commit`]. `None` means the stage failed (and is
    /// recorded); the pipeline continues. The attempt, retries included,
    /// runs under a `stage.<name>` span.
    fn stage<T: Send + 'static>(
        &mut self,
        name: &str,
        body: impl Fn(&CancelToken) -> Result<T, StageFault> + Send + Sync + 'static,
    ) -> Option<(T, Tally)> {
        let hook = name.to_string();
        let wrapped = move |cancel: &CancelToken| {
            maybe_injected_panic(&hook);
            let (value, tally) = ndt_obs::capture(|| body(cancel));
            value.map(|v| (v, tally))
        };
        let span = ndt_obs::span(&format!("stage.{name}"));
        let outcome = run_isolated(name, &self.exec, wrapped);
        drop(span);
        outcome.map_err(|err| self.fail(name, err)).ok()
    }

    /// Commits a computed stage: publishes its counters, records it, and
    /// honours the crash hook.
    fn commit(&mut self, name: &str, tally: &Tally) {
        tally.publish();
        ndt_obs::info!("[runner] stage {name}: computed");
        self.records.push(StageRecord { name: name.to_string(), status: StageStatus::Computed });
        maybe_exit_after(name);
    }

    fn fail(&mut self, name: &str, err: StageError) {
        ndt_obs::error!("[runner] stage {name}: FAILED: {err}");
        self.records.push(StageRecord { name: name.to_string(), status: StageStatus::Failed(err) });
    }

    /// Records a stage as failed without running it (upstream failure).
    fn skip(&mut self, name: &str, reason: &str) {
        ndt_obs::error!("[runner] stage {name}: FAILED: skipped: {reason}");
        self.records.push(StageRecord {
            name: name.to_string(),
            status: StageStatus::Failed(StageError::Failed(format!("skipped: {reason}"))),
        });
    }

    /// The Graphviz topology artifact.
    fn topology(&mut self) -> Option<String> {
        let (dot, tally) = self.stage("topology", |_cancel| {
            let built = build_topology(&TopologyConfig::default());
            Ok(to_dot(&built.topology, false))
        })?;
        self.commit("topology", &tally);
        Some(dot)
    }

    /// Runs the corpus on the shard pool ([`run_shards`]), handing each
    /// shard to `f` — which may take its rows, or fail its record — before
    /// recording it.
    pub(crate) fn shards(&mut self, sim: &SimConfig, mut f: impl FnMut(&mut ShardDone)) -> PoolPlan {
        let (records, saved) = (&mut self.records, &mut self.saved_units);
        run_shards(sim, self.store.as_ref(), |mut shard| {
            *saved += usize::from(shard.saved);
            f(&mut shard);
            records.push(shard.record);
        })
    }

    /// The second country's digest (asymmetric scenarios) as the
    /// `country-b` unit: read back from the store on resume, else computed
    /// and saved beside the shards with its counters. `None` on
    /// single-country scenarios *and* on failure (the records distinguish
    /// the two).
    pub(crate) fn second_country(&mut self, sim: &SimConfig) -> Option<CountryDigest> {
        const NAME: &str = "country-b";
        sim.scenario.spec().second_country.as_ref()?;
        let resumed = self.store.as_ref().filter(|s| s.resume).and_then(|s| {
            let text = s.vfs.read_to_string(&s.dir.join(COUNTRY_DIGEST_FILE)).ok()?;
            let key = content_key(s.fingerprint, text.as_bytes());
            let tally = read_tally(&s.vfs, &s.dir, NAME, key)?;
            Some((CountryDigest::parse(&text).ok()?, tally))
        });
        if let Some((digest, tally)) = resumed {
            tally.publish();
            ndt_obs::incr_process("store.digest_resumed", 1);
            ndt_obs::info!("[runner] stage {NAME}: resumed from checkpoint");
            self.records.push(StageRecord { name: NAME.to_string(), status: StageStatus::Resumed });
            self.saved_units += 1;
            return Some(digest);
        }
        let cfg = *sim;
        let (digest, tally) = self.stage(NAME, move |_cancel| {
            ndt_analysis::second_country_digest(&cfg)
                .map_err(|e| StageFault::permanent(e.to_string()))?
                .ok_or_else(|| StageFault::permanent("scenario lost its second country"))
        })?;
        if let Some(store) = &self.store {
            let (path, text) = (store.dir.join(COUNTRY_DIGEST_FILE), digest.to_text());
            let key = content_key(store.fingerprint, text.as_bytes());
            let saved = retry_io(&store.retry, || {
                crate::atomic::write_atomic_with(&store.vfs, &path, text.as_bytes())
            })
            .and_then(|()| write_tally(&store.vfs, &store.retry, &store.dir, NAME, key, &tally));
            match store.settle(NAME, saved) {
                Ok(saved) => {
                    ndt_obs::incr_process("store.digest_written", u64::from(saved));
                    self.saved_units += usize::from(saved);
                }
                Err(err) => {
                    self.fail(NAME, err);
                    return None;
                }
            }
        }
        self.commit(NAME, &tally);
        Some(digest)
    }

    /// Writes `STORE.txt` once every corpus unit — each shard, and the
    /// digest when the scenario has a second country — is on disk: the
    /// checkpoint directory is then a store `report --from-store` reads.
    /// A no-op without a store, or while a unit is missing.
    pub(crate) fn seal(&self, sim: &SimConfig) -> io::Result<()> {
        let Some(store) = &self.store else { return Ok(()) };
        let units = sim.shards(CORPUS_SHARD_DAYS).len()
            + usize::from(sim.scenario.spec().second_country.is_some());
        if self.saved_units < units {
            return Ok(());
        }
        store
            .settle(STORE_MANIFEST, write_manifest(store, sim))
            .map(|_| ())
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// Runs every analysis stage of [`ANALYSIS_STAGES`] over `data`, plus
    /// the [`SCENARIO_STAGES`] the corpus activates (today: `table_ab`
    /// when a second-country digest is attached).
    pub(crate) fn analyses(&mut self, data: Arc<StudyData>) -> Vec<StageOutput> {
        let mut outputs = Vec::new();
        let scenario_stages: &[ndt_analysis::StageSpec] =
            if data.second_country.is_some() { &SCENARIO_STAGES } else { &[] };
        for spec in ANALYSIS_STAGES.iter().chain(scenario_stages.iter()) {
            let name = spec.name;
            let data = Arc::clone(&data);
            let out = self.stage(name, move |_cancel| {
                run_analysis_stage(name, &data).map_err(|e| StageFault::permanent(e.to_string()))
            });
            if let Some((o, tally)) = out {
                self.commit(name, &tally);
                outputs.push(o);
            }
        }
        outputs
    }

    pub(crate) fn failures(&self) -> Vec<StageFailure> {
        self.records
            .iter()
            .filter_map(|r| match &r.status {
                StageStatus::Failed(e) => {
                    Some(StageFailure { name: r.name.clone(), reason: e.to_string() })
                }
                _ => None,
            })
            .collect()
    }

    /// The first failure as an error: `generate --format columnar` fails
    /// whole, naming the first failed unit in day order.
    pub(crate) fn fail_fast(&self) -> io::Result<()> {
        match self.failures().first() {
            Some(f) => Err(io::Error::other(format!("stage {} {}", f.name, f.reason))),
            None => Ok(()),
        }
    }
}

/// Shared tail of `report`/`export`: corpus → analyses → assembled report.
/// Each shard is ingested as the pool hands it back, in day order; a shard
/// that failed leaves no corpus to analyse.
fn analyse_and_assemble(
    p: &mut Pipeline,
    cfg: &PipelineConfig,
) -> io::Result<(Vec<StageOutput>, String)> {
    let two_country = cfg.sim.scenario.spec().second_country.is_some();
    let mut builder = Some(StudyDataBuilder::new());
    p.shards(&cfg.sim, |shard| {
        let Some(rows) = shard.rows.take() else {
            builder = None;
            return;
        };
        if let Some(b) = builder.as_mut() {
            b.push_shard(rows);
        }
    });
    let outputs = match builder {
        Some(builder) => {
            let mut data = builder.finish();
            if two_country {
                match p.second_country(&cfg.sim) {
                    Some(digest) => data.second_country = Some(digest),
                    None => p.skip("table_ab", "country-b digest unavailable"),
                }
            }
            p.seal(&cfg.sim)?;
            p.analyses(Arc::new(data))
        }
        None => {
            for spec in &ANALYSIS_STAGES {
                p.skip(spec.name, "corpus incomplete");
            }
            if two_country {
                p.skip("table_ab", "corpus incomplete");
            }
            Vec::new()
        }
    };
    let report = assemble_staged_report(&outputs, &p.failures());
    Ok((outputs, report))
}

/// The `report` command: corpus + analyses + assembled report text.
pub fn run_report(cfg: &PipelineConfig) -> io::Result<PipelineOutcome> {
    let mut p = Pipeline::open(cfg)?;
    let (outputs, report) = analyse_and_assemble(&mut p, cfg)?;
    let artifacts = outputs
        .iter()
        .flat_map(|o| o.artifacts.iter().map(|(f, c)| (f.to_string(), c.clone())))
        .collect();
    Ok(PipelineOutcome { report, artifacts, records: p.records })
}

/// The `export` command: everything `report` does, plus the topology
/// artifact. Artifact order: `topology.dot`, then each analysis stage's
/// files in registry order.
pub fn run_export(cfg: &PipelineConfig) -> io::Result<PipelineOutcome> {
    let mut p = Pipeline::open(cfg)?;
    let mut artifacts: Vec<(String, String)> = Vec::new();
    if let Some(dot) = p.topology() {
        artifacts.push(("topology.dot".to_string(), dot));
    }
    let (outputs, report) = analyse_and_assemble(&mut p, cfg)?;
    artifacts
        .extend(outputs.iter().flat_map(|o| {
            o.artifacts.iter().map(|(f, c)| (f.to_string(), c.clone()))
        }));
    Ok(PipelineOutcome { report, artifacts, records: p.records })
}

/// The `generate` command: hands each shard's rows to `sink` in day order,
/// as the pool returns them; a failed shard is not handed over. Returns
/// whether every shard was handed over, and the records, which name any
/// shard that failed. With checkpoints on, a complete two-country corpus
/// also computes the `country-b` digest, so the checkpoint store seals as
/// `export`'s does.
pub fn run_generate(
    cfg: &PipelineConfig,
    mut sink: impl FnMut(Dataset),
) -> io::Result<(bool, Vec<StageRecord>)> {
    let mut p = Pipeline::open(cfg)?;
    let mut complete = true;
    p.shards(&cfg.sim, |shard| match shard.rows.take() {
        Some(rows) => sink(rows),
        None => complete = false,
    });
    if complete && p.store.is_some() {
        p.second_country(&cfg.sim);
    }
    p.seal(&cfg.sim)?;
    Ok((complete, p.records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("ndt-runner-pipe-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn tiny(seed: u64) -> SimConfig {
        SimConfig { scale: 0.01, ..SimConfig::small(seed) }
    }

    /// The corpus `run_generate` streams, collected shard by shard; `None`
    /// when a shard failed.
    fn generate(cfg: &PipelineConfig) -> (Option<Dataset>, Vec<StageRecord>) {
        let mut full = Dataset::default();
        let (complete, records) = run_generate(cfg, |mut part| {
            full.ndt.append(&mut part.ndt);
            full.traces.append(&mut part.traces);
        })
        .expect("generate");
        (complete.then_some(full), records)
    }

    #[test]
    fn resumed_export_is_bit_identical_and_reads_back_every_shard() {
        let d = tmpdir("resume");
        let mut cfg = PipelineConfig::new(tiny(21), &d);
        let first = run_export(&cfg).expect("first run");
        assert!(first.is_complete(), "failures: {:?}", first.failed());
        assert!(
            first.records.iter().all(|r| r.status == StageStatus::Computed),
            "fresh run computes everything"
        );

        cfg.resume = true;
        let second = run_export(&cfg).expect("resumed run");
        assert!(second.is_complete());
        // Shards are checkpointed; the topology and analyses recompute.
        let resumed = |r: &StageRecord| r.status == StageStatus::Resumed;
        assert!(
            second.records.iter().all(|r| resumed(r) == r.name.starts_with("corpus:")),
            "full checkpoint set resumes every shard: {:?}",
            second.records
        );
        assert_eq!(first.report, second.report, "report text is bit-identical");
        assert_eq!(first.artifacts, second.artifacts, "artifacts are bit-identical");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn changing_the_seed_invalidates_resume() {
        let d = tmpdir("invalidate");
        let cfg = PipelineConfig::new(tiny(5), &d);
        let (ds, records) = generate(&cfg);
        assert!(ds.is_some());
        assert!(records.iter().all(|r| r.status == StageStatus::Computed));

        let mut other = PipelineConfig::new(tiny(6), &d);
        other.resume = true;
        let (ds2, records2) = generate(&other);
        assert!(ds2.is_some());
        assert!(
            records2.iter().all(|r| r.status == StageStatus::Computed),
            "stale checkpoints must not be resumed: {records2:?}"
        );

        // The checkpoint store keeps one config: the old seed's shards are
        // gone, and the store is sealed over the new seed's.
        let dir = d.join(CHECKPOINT_DIR);
        let shard_files: Vec<String> = fs::read_dir(&dir)
            .expect("checkpoint store")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("shard-"))
            .collect();
        // A `.unified.ndts`, a `.traces.ndts` and a sidecar per shard.
        let shards = other.sim.shards(CORPUS_SHARD_DAYS).len();
        assert_eq!(shard_files.len(), 3 * shards, "{shard_files:?}");
        let fp = crate::checkpoint::config_fingerprint(&other.sim);
        let fp_hex = format!("{fp:016x}");
        assert!(shard_files.iter().all(|n| n.contains(&fp_hex)), "stale: {shard_files:?}");
        let sealed = crate::store::read_store_fingerprint(&VfsHandle::real(), &dir);
        assert_eq!(sealed.expect("sealed"), fp);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn report_mode_runs_without_touching_disk() {
        let d = tmpdir("nodisk");
        let mut cfg = PipelineConfig::new(tiny(9), d.join("never-created"));
        cfg.checkpoints = false;
        let out = run_report(&cfg).expect("report");
        assert!(out.is_complete());
        assert!(
            out.report.contains(ndt_analysis::report::COVERAGE_TITLE),
            "report assembled"
        );
        assert!(!d.join("never-created").exists(), "no checkpoint dir without checkpointing");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn generated_corpus_matches_an_unsharded_run() {
        let d = tmpdir("corpus-eq");
        let cfg = PipelineConfig::new(tiny(33), &d);
        let (ds, _) = generate(&cfg);
        let ds = ds.expect("complete corpus");
        let full = ndt_mlab::Simulator::new(cfg.sim).run();
        assert_eq!(ds, full, "sharded pipeline == monolithic simulator");
        let _ = fs::remove_dir_all(&d);
    }
}
