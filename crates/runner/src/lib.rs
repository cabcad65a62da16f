//! # ndt-runner
//!
//! Crash-safe staged execution for the `ukraine-ndt` reproduction.
//!
//! The paper's pipeline is a long-running batch job over ~850k tests; at
//! `--scale 1.0` the reproduction has the same shape. PR 1 hardened the
//! pipeline against broken *data* — this crate hardens it against broken
//! *execution*: a kill, a panicking stage, a hung stage, or a transient
//! I/O error must cost one stage's work, not the whole run, and must never
//! leave a torn artifact behind.
//!
//! The monolithic pipeline is decomposed into named stages:
//!
//! * `topology` — the AS-graph build (exported as `topology.dot`);
//! * `corpus:<lo>-<hi>` — dataset generation, sharded by day range and
//!   simulated on one bounded shard pool, so a partially generated corpus
//!   is resumable shard by shard;
//! * `country-b` — the second country's digest (two-country scenarios);
//! * one stage per figure/table of the paper
//!   ([`ndt_analysis::ANALYSIS_STAGES`]);
//! * render/export — assembly of the report text and artifact files.
//!
//! Guarantees, each carried by one module:
//!
//! * [`atomic`] — every artifact, shard and manifest write goes through
//!   write-temp → fsync → rename, so a crash at any instant leaves either
//!   the old file or the new file, never a torn one;
//! * [`corpus`] — one bounded shard pool simulates every corpus, for
//!   every command, and hands the shards back in day order, so output,
//!   records and counters are bit-identical at any `--threads`;
//! * [`executor`] — every non-corpus stage body runs on an isolated worker
//!   thread under `catch_unwind` with a wall-clock deadline; panics and
//!   hangs become per-stage failures surfaced in the report (like the
//!   degraded-data coverage footers), not aborted runs. Corpus shards get
//!   the same per-shard panic containment on the shard pool;
//! * [`retry`] — transient I/O errors are retried with bounded,
//!   deterministically-jittered backoff (decorrelated jitter keyed per
//!   worker, so concurrent writers never retry in lockstep);
//! * [`checkpoint`] — the store is the checkpoint: with checkpoints on,
//!   corpus shards and the digest are saved as a columnar store under
//!   `<out>/.ukraine-ndt/`, named by a config fingerprint (scale, seed,
//!   scenario, fault plan, crate version) and carrying the counters they
//!   published, so `--resume` reads back exactly the units whose inputs
//!   are unchanged — and recomputes everything when any config knob
//!   moved, dropping the old config's shards. Analysis stages and the
//!   topology are recomputed;
//! * [`pipeline`] — the orchestration: a resumed run is **bit-for-bit
//!   identical** to an uninterrupted one (the integration suite kills a
//!   run mid-flight and diffs the artifacts);
//! * [`store`] — the columnar corpus store (`generate --format columnar`
//!   and `report --from-store`): shard files written through [`atomic`],
//!   validated at open, resumable per shard, and guaranteed to reproduce
//!   the in-memory report byte for byte.
//!
//! Test-only hooks (environment variables, used by the crash-safety
//! integration suite): `UKRAINE_NDT_PANIC_STAGE=<prefix>` panics inside
//! every matching stage or shard body; `UKRAINE_NDT_EXIT_AFTER=<prefix>`
//! exits the process (code 42) right after the first matching stage or
//! shard is computed and saved — a deterministic stand-in for `kill -9`.

pub mod atomic;
pub mod checkpoint;
pub mod corpus;
pub mod executor;
pub mod pipeline;
pub mod retry;
pub mod store;

pub use atomic::{
    rename_reliable, sweep_orphan_temps, write_atomic, write_atomic_with, AtomicFile,
};
pub use checkpoint::{config_fingerprint, CHECKPOINT_DIR};
pub use corpus::CORPUS_SHARD_DAYS;
pub use executor::{run_isolated, CancelToken, ExecPolicy, StageError};
pub use pipeline::{
    run_export, run_generate, run_report, PipelineConfig, PipelineOutcome, StageRecord,
    StageStatus,
};
pub use retry::{retry_io, RetryPolicy};
pub use store::{
    load_study_data, load_study_data_with, read_store_fingerprint, run_report_from_store,
    run_report_from_store_with, run_store_generate, ScanEngine, StoreSummary, QUARANTINE_DIR,
    STORE_MANIFEST,
};
