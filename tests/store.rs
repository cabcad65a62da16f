//! Columnar-store acceptance suite: the load-bearing invariant is that
//! `report --from-store` is **byte-identical** to the in-memory pipeline
//! at every `--scale`/`--threads`/`--faults` combination, and that the
//! store detects its own corruption — quarantining damaged shards and
//! degrading the report (coverage footers, partial-success records)
//! instead of producing a silently different one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use proptest::prelude::*;

use ukraine_ndt::mlab::FaultPlan;
use ukraine_ndt::prelude::*;
use ukraine_ndt::runner::{
    load_study_data, run_report, run_report_from_store, run_report_from_store_with,
    run_store_generate, ExecPolicy, ScanEngine, StageStatus, QUARANTINE_DIR, STORE_MANIFEST,
};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ndt-store-accept-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn sim(scale: f64, threads: usize, faults: FaultPlan) -> SimConfig {
    SimConfig { scale, seed: 20220224, threads, faults, ..SimConfig::default() }
}

/// In-memory pipeline config that never touches disk.
fn mem_cfg(sim: SimConfig, out: &std::path::Path) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(sim, out);
    cfg.checkpoints = false;
    cfg
}

/// Byte snapshot of a store's top-level files — every shard pair plus
/// the manifest — for whole-store identity assertions.
fn store_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("readdir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .map(|e| {
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).expect("read"))
        })
        .collect()
}

/// Asserts two store snapshots are byte-identical, naming the first
/// divergent file instead of dumping megabytes of shard bytes.
fn assert_same_store(want: &BTreeMap<String, Vec<u8>>, got: &BTreeMap<String, Vec<u8>>, tag: &str) {
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "{tag}: store file sets differ"
    );
    for (name, bytes) in want {
        assert!(got[name] == *bytes, "{tag}: {name} differs");
    }
}

/// The acceptance grid: report-from-store must be byte-identical to the
/// in-memory report across scales × threads × fault plans, with the
/// store read at the same thread budget the corpus was simulated at.
/// Scales 0.01 and 0.04 keep the grid to minutes, not hours; nothing in
/// the store layer branches on scale.
#[test]
fn report_from_store_is_byte_identical_across_the_grid() {
    let d = tmpdir("grid");
    for (si, &scale) in [0.01, 0.04].iter().enumerate() {
        for (ti, &threads) in [1usize, 4].iter().enumerate() {
            for (fi, faults) in [FaultPlan::NONE, FaultPlan::MODERATE].into_iter().enumerate() {
                let tag = format!("s{si}t{ti}f{fi}");
                let cfg = mem_cfg(sim(scale, threads, faults), &d.join(format!("out-{tag}")));
                let in_memory = run_report(&cfg).expect("in-memory report");
                assert!(in_memory.is_complete(), "{tag}: {:?}", in_memory.failed());

                let store_dir = d.join(format!("store-{tag}"));
                let (summary, _) = run_store_generate(&cfg, &store_dir).expect("store generate");
                // The <=50% acceptance bound applies to the default
                // (fault-free) corpus; fault plans thin the rows, which
                // raises the per-group overhead share a few points.
                let limit_pct = if fi == 0 { 50 } else { 60 };
                assert!(
                    summary.stats.bytes_file * 100 <= summary.stats.bytes_raw * limit_pct,
                    "{tag}: encoded {} bytes must be <= {limit_pct}% of raw {}",
                    summary.stats.bytes_file,
                    summary.stats.bytes_raw
                );
                let from_store = run_report_from_store_with(
                    &store_dir,
                    ExecPolicy::default(),
                    &VfsHandle::real(),
                    ScanEngine::default(),
                    threads,
                )
                .expect("store report");
                assert!(from_store.is_complete(), "{tag}: {:?}", from_store.failed());
                assert_eq!(in_memory.report, from_store.report, "{tag}: report text differs");
                assert_eq!(in_memory.artifacts, from_store.artifacts, "{tag}: artifacts differ");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&d);
}

/// A complete store resumes every shard without rewriting a byte, and
/// still reproduces the identical report.
#[test]
fn resumed_store_rewrites_nothing_and_reports_identically() {
    let d = tmpdir("resume");
    let mut cfg = mem_cfg(sim(0.01, 0, FaultPlan::NONE), &d.join("out"));
    let store_dir = d.join("store");
    let (_, first) = run_store_generate(&cfg, &store_dir).expect("first generate");
    assert!(first.iter().all(|r| r.status == StageStatus::Computed));
    let baseline = run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real()).expect("report");

    cfg.resume = true;
    let (summary, second) = run_store_generate(&cfg, &store_dir).expect("resumed generate");
    assert!(
        second.iter().all(|r| r.status == StageStatus::Resumed),
        "complete store resumes all shards: {second:?}"
    );
    assert_eq!(summary.stats.rows, 0, "nothing rewritten");
    let again = run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real()).expect("report");
    assert_eq!(baseline.report, again.report);
    assert_eq!(baseline.artifacts, again.artifacts);
    let _ = std::fs::remove_dir_all(&d);
}

/// A flipped byte inside a shard never panics and never silently alters
/// the report: the damaged shard is quarantined, the report recomputes
/// over the survivors with the missing days called out in its coverage
/// footer, and the run carries a failed `store:` record (exit code 3 at
/// the CLI).
#[test]
fn corrupted_shard_is_quarantined_and_the_report_degrades() {
    let d = tmpdir("corrupt");
    let cfg = mem_cfg(sim(0.01, 0, FaultPlan::NONE), &d.join("out"));
    let store_dir = d.join("store");
    run_store_generate(&cfg, &store_dir).expect("generate");
    let clean = run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real())
        .expect("clean report");
    assert!(clean.is_complete());

    let shard = std::fs::read_dir(&store_dir)
        .expect("readdir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "ndts"))
        .expect("a shard file");
    let mut bytes = std::fs::read(&shard).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&shard, &bytes).expect("write corrupted shard");

    let degraded = run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real())
        .expect("corruption degrades the report, it does not kill it");
    let failed = degraded.failed();
    assert_eq!(failed.len(), 1, "exactly the damaged shard fails: {failed:?}");
    assert!(failed[0].name.starts_with("store:shard-"), "failure names the shard: {failed:?}");
    assert!(
        degraded.report.contains("day(s) missing from input"),
        "missing days surface in the coverage footer"
    );
    assert_ne!(clean.report, degraded.report, "the degradation must be visible");

    // Both files of the damaged shard moved into quarantine; the
    // surviving shards stayed in place.
    let quarantined: Vec<String> = std::fs::read_dir(store_dir.join(QUARANTINE_DIR))
        .expect("quarantine dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(quarantined.len(), 2, "unified + traces file: {quarantined:?}");

    // A resume sees the quarantined shard as missing and regenerates it,
    // after which the report is byte-identical to the original clean one.
    let mut resume_cfg = cfg;
    resume_cfg.resume = true;
    let (_, records) = run_store_generate(&resume_cfg, &store_dir).expect("resume generate");
    assert!(
        records.iter().any(|r| r.status == StageStatus::Computed),
        "quarantined shard must be regenerated, not resumed: {records:?}"
    );
    let healed = run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real())
        .expect("repaired store must report cleanly");
    assert!(healed.is_complete());
    assert_eq!(clean.report, healed.report, "healed store reproduces the clean report");
    let _ = std::fs::remove_dir_all(&d);
}

/// The parallel-pool invariant: generation through the shard pool is
/// byte-identical — every shard file and the manifest — to sequential
/// generation, across scales × worker counts × fault plans. The config
/// fingerprint excludes `threads`, so the stems (and therefore the file
/// sets) must already agree; this pins the *contents* too.
#[test]
fn parallel_generation_matches_sequential_byte_for_byte() {
    let d = tmpdir("par-grid");
    for (si, &scale) in [0.01, 0.04].iter().enumerate() {
        for (fi, faults) in [FaultPlan::NONE, FaultPlan::MODERATE].into_iter().enumerate() {
            let seq_dir = d.join(format!("seq-s{si}f{fi}"));
            let cfg = mem_cfg(sim(scale, 1, faults), &d.join("out"));
            run_store_generate(&cfg, &seq_dir).expect("sequential generate");
            let want = store_bytes(&seq_dir);
            assert!(want.contains_key(STORE_MANIFEST), "manifest present");

            for threads in [2usize, 4] {
                let tag = format!("s{si}f{fi}t{threads}");
                let par_dir = d.join(format!("par-{tag}"));
                let cfg = mem_cfg(sim(scale, threads, faults), &d.join("out"));
                let (_, records) = run_store_generate(&cfg, &par_dir).expect("parallel generate");
                assert!(
                    records.iter().all(|r| r.status == StageStatus::Computed),
                    "{tag}: {records:?}"
                );
                assert_same_store(&want, &store_bytes(&par_dir), &tag);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&d);
}

/// Quarantine leg of the parallel grid: flip a byte in one shard of a
/// pool-generated store; a parallel resume regenerates exactly that
/// shard (payload checksums catch the damage) and restores the clean
/// bytes everywhere.
#[test]
fn corrupted_parallel_store_heals_to_clean_bytes() {
    let d = tmpdir("par-heal");
    let store_dir = d.join("store");
    let cfg = mem_cfg(sim(0.01, 4, FaultPlan::NONE), &d.join("out"));
    run_store_generate(&cfg, &store_dir).expect("generate");
    let want = store_bytes(&store_dir);

    let victim = std::fs::read_dir(&store_dir)
        .expect("readdir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.to_string_lossy().ends_with(".unified.ndts"))
        .expect("a unified shard");
    let mut bytes = std::fs::read(&victim).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).expect("write corrupted shard");

    let mut resume_cfg = cfg;
    resume_cfg.resume = true;
    let (_, records) = run_store_generate(&resume_cfg, &store_dir).expect("parallel resume");
    let recomputed = records.iter().filter(|r| r.status == StageStatus::Computed).count();
    assert_eq!(recomputed, 1, "exactly the damaged shard regenerates: {records:?}");
    assert_same_store(&want, &store_bytes(&store_dir), "healed");
    let _ = std::fs::remove_dir_all(&d);
}

/// Thread-budget equivalence under injected read-side decay: the `rot`
/// fault plan quarantines shards at read time, and the per-(file, domain)
/// fault counters make the injected sequence a property of the *file*,
/// not of scheduling — so the loader, at any decode thread budget, must
/// quarantine the same shards and report identically over the same
/// survivor set.
#[test]
fn engines_agree_on_rot_survivor_sets() {
    let d = tmpdir("engine-rot");
    let cfg = mem_cfg(sim(0.04, 0, FaultPlan::NONE), &d.join("out"));
    let store_dir = d.join("store");
    let (summary, _) = run_store_generate(&cfg, &store_dir).expect("generate");

    let failed_names = |outcome: &PipelineOutcome| -> Vec<String> {
        outcome.failed().iter().map(|r| r.name.clone()).collect()
    };
    // Each run gets a pristine copy: a rot read *moves* the shards it
    // damages into quarantine, so reusing one directory would hand later
    // runs a different store.
    let fresh_copy = |tag: &str| -> PathBuf {
        let copy = d.join(format!("store-{tag}"));
        std::fs::create_dir_all(&copy).expect("mkdir");
        for (name, bytes) in store_bytes(&store_dir) {
            std::fs::write(copy.join(name), bytes).expect("copy shard");
        }
        copy
    };
    let read = |threads: usize| {
        run_report_from_store_with(
            &fresh_copy(&format!("t{threads}")),
            ExecPolicy::default(),
            &VfsHandle::faulty(IoFaultPlan::ROT),
            ScanEngine::default(),
            threads,
        )
        .expect("rot degrades the read, it does not kill it")
    };
    let one = read(1);
    let dead = failed_names(&one);
    assert!(
        !dead.is_empty() && dead.len() < summary.shards.len(),
        "rot must catch some but not all of {} shards: {dead:?}",
        summary.shards.len()
    );
    let four = read(4);
    assert_eq!(dead, failed_names(&four), "quarantine sets differ");
    assert_eq!(one.report, four.report, "degraded report differs");
    assert_eq!(one.artifacts, four.artifacts, "artifacts differ");
    let _ = std::fs::remove_dir_all(&d);
}

/// Deleting the manifest makes the store unreadable with a clear error.
#[test]
fn missing_manifest_is_a_clear_error() {
    let d = tmpdir("manifest");
    let cfg = mem_cfg(sim(0.01, 0, FaultPlan::NONE), &d.join("out"));
    let store_dir = d.join("store");
    run_store_generate(&cfg, &store_dir).expect("generate");
    std::fs::remove_file(store_dir.join(STORE_MANIFEST)).expect("remove manifest");
    let err = run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real()).expect_err("no manifest");
    assert!(err.to_string().contains("manifest"), "unhelpful error: {err}");
    let _ = std::fs::remove_dir_all(&d);
}

/// A `STORE.txt` with a valid header and arbitrary further lines never
/// panics the loader. Built only from well-formed lines that list each
/// valid shard at most once, it loads degraded by exactly the shards and
/// digests it cannot read, or fails when it lists no shard; listing a
/// valid shard twice fails.
#[test]
fn fuzzed_manifests_degrade_or_fail_but_never_panic() {
    const SAFE: &[u8] = b"abcXYZ019.-_ ";
    let d = tmpdir("manifest-fuzz");
    let cfg = mem_cfg(sim(0.01, 0, FaultPlan::NONE), &d.join("out"));
    let store_dir = d.join("store");
    let (summary, _) = run_store_generate(&cfg, &store_dir).expect("generate");
    let manifest = std::fs::read_to_string(store_dir.join(STORE_MANIFEST)).expect("manifest");
    let header = manifest.lines().next().expect("header");

    let strategy =
        prop::collection::vec((0u8..6, prop::collection::vec(0u8..=255, 0..24)), 0..12);
    let mut rng = proptest::TestRng::deterministic("fuzzed_manifests");
    for case in 0..64 {
        let mut text = format!("{header}\n");
        let (mut shards, mut unreadable, mut arbitrary) = (0, 0, false);
        let mut unlisted = summary.shards.clone();
        for (kind, bytes) in strategy.new_value(&mut rng) {
            let safe: String = bytes.iter().map(|b| SAFE[*b as usize % SAFE.len()] as char).collect();
            let line = match kind {
                0 => String::new(),
                1 => format!("fingerprint {safe}"),
                2 if unlisted.is_empty() => String::new(),
                2 => {
                    shards += 1;
                    format!("shard {}", unlisted.remove(bytes.len() % unlisted.len()))
                }
                3 => {
                    shards += 1;
                    unreadable += 1;
                    format!("shard {safe}")
                }
                4 => {
                    unreadable += 1;
                    format!("digest {safe}")
                }
                _ => {
                    arbitrary = true;
                    String::from_utf8_lossy(&bytes).into_owned()
                }
            };
            text.push_str(&line);
            text.push('\n');
        }
        std::fs::write(store_dir.join(STORE_MANIFEST), &text).expect("write manifest");
        let loaded = load_study_data(&VfsHandle::real(), &store_dir);
        if arbitrary {
            continue;
        }
        match loaded {
            Err(e) => assert_eq!(shards, 0, "case {case}: {e}\n{text}"),
            Ok((_, records)) => {
                assert!(shards > 0, "case {case}: loaded without a shard\n{text}");
                assert_eq!(records.len(), unreadable, "case {case}: {records:?}\n{text}");
                assert!(records.iter().all(|r| matches!(r.status, StageStatus::Failed(_))));
            }
        }
    }
    let stem = &summary.shards[0];
    let text = format!("{header}\nshard {stem}\nshard safe\nshard {stem}\n");
    std::fs::write(store_dir.join(STORE_MANIFEST), &text).expect("write manifest");
    let err = load_study_data(&VfsHandle::real(), &store_dir)
        .map(drop)
        .expect_err("a shard listed twice");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let _ = std::fs::remove_dir_all(&d);
}

/// A manifest that lists a day twice — the same shard on two lines, or
/// two shards whose day ranges overlap — is malformed: the load fails
/// naming the shard (`report --from-store` exits 1) instead of ingesting
/// those days twice and reporting different numbers. The order of the
/// lines stays free: the loader ingests shards in day order, so even a
/// manifest listing them backwards prints the in-order report, byte for
/// byte, at any decode thread count.
#[test]
fn a_manifest_listing_a_day_twice_is_rejected() {
    let d = tmpdir("manifest-twice");
    let store_dir = d.join("store");
    let store_arg = store_dir.display().to_string();
    let gen = run_cli(&[
        "generate", "--format", "columnar", "--out", &store_arg, "--scale", "0.01", "--seed", "4",
    ]);
    assert_eq!(gen.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&gen.stderr));
    let manifest_path = store_dir.join(STORE_MANIFEST);
    let manifest = std::fs::read_to_string(&manifest_path).expect("manifest");
    let shard_lines: Vec<&str> = manifest.lines().filter(|l| l.starts_with("shard ")).collect();
    assert!(shard_lines.len() >= 2, "{manifest}");
    let in_order = run_cli(&["report", "--from-store", &store_arg, "--threads", "1"]);
    assert_eq!(in_order.status.code(), Some(0), "{}", String::from_utf8_lossy(&in_order.stderr));

    // The same shard twice, through the binary.
    let doubled = shard_lines[1];
    std::fs::write(&manifest_path, format!("{manifest}{doubled}\n")).expect("write manifest");
    let report = run_cli(&["report", "--from-store", &store_arg]);
    let stderr = String::from_utf8_lossy(&report.stderr);
    assert_eq!(report.status.code(), Some(1), "stderr: {stderr}");
    assert!(report.stdout.is_empty(), "no report over a doubled corpus");
    let stem = doubled.trim_start_matches("shard ");
    assert!(stderr.contains("twice") && stderr.contains(stem), "unhelpful error: {stderr}");

    // A shard whose day range overlaps another's by all but one day.
    let days: Vec<i64> = stem.split('-').skip(1).take(2).map(|n| n.parse().expect("day")).collect();
    let overlapping = format!("shard-{:03}-{:03}-0123456789abcdef", days[0] + 1, days[1] + 1);
    std::fs::write(&manifest_path, format!("{manifest}shard {overlapping}\n"))
        .expect("write manifest");
    let err = load_study_data(&VfsHandle::real(), &store_dir).map(drop).expect_err("overlap");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let want = format!("lists days {}-{} twice (shard {overlapping})", days[0] + 1, days[1]);
    assert!(err.to_string().contains(&want), "{err}");

    // Swapped lines still list every day once.
    let mut lines: Vec<&str> = manifest.lines().collect();
    let first = lines.iter().position(|l| l.starts_with("shard ")).expect("a shard line");
    lines.swap(first, first + 1);
    std::fs::write(&manifest_path, lines.join("\n") + "\n").expect("write manifest");
    let (_, records) = load_study_data(&VfsHandle::real(), &store_dir).expect("swapped lines load");
    assert!(records.is_empty(), "{records:?}");

    // Every shard line in reverse order: the same report, byte for byte.
    let reversed: Vec<&str> = manifest
        .lines()
        .filter(|l| !l.starts_with("shard "))
        .chain(shard_lines.iter().rev().copied())
        .collect();
    std::fs::write(&manifest_path, reversed.join("\n") + "\n").expect("write manifest");
    for threads in ["1", "4"] {
        let report = run_cli(&["report", "--from-store", &store_arg, "--threads", threads]);
        assert_eq!(report.status.code(), Some(0), "{}", String::from_utf8_lossy(&report.stderr));
        assert!(report.stdout == in_order.stdout, "reversed manifest, --threads {threads}");
    }
    let _ = std::fs::remove_dir_all(&d);
}

/// A shard pair copied over another stem's two files passes every
/// checksum, but its days are not the stem's: the load quarantines it
/// (`report --from-store` exits 3 with `store.shards_quarantined` = 1)
/// instead of ingesting the copied days twice, and the report is the one
/// a clean store holding only the other shards prints.
#[test]
fn a_shard_pair_copied_over_another_stem_is_quarantined() {
    let d = tmpdir("copied-pair");
    let store_dir = d.join("store");
    let store_arg = store_dir.display().to_string();
    let gen = run_cli(&[
        "generate", "--format", "columnar", "--out", &store_arg, "--scale", "0.01", "--seed", "4",
    ]);
    assert_eq!(gen.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&gen.stderr));
    let manifest = std::fs::read_to_string(store_dir.join(STORE_MANIFEST)).expect("manifest");
    let stems: Vec<&str> = manifest.lines().filter_map(|l| l.strip_prefix("shard ")).collect();
    let (source, victim) = (stems[0], stems[2]);

    // The survivors, as a clean store: the victim's line and files gone.
    let survivors = d.join("survivors");
    std::fs::create_dir_all(&survivors).expect("mkdir");
    for entry in std::fs::read_dir(&store_dir).expect("readdir") {
        let name = entry.expect("entry").file_name().to_string_lossy().into_owned();
        if !name.starts_with(victim) {
            std::fs::copy(store_dir.join(&name), survivors.join(&name)).expect("copy");
        }
    }
    let kept: String =
        manifest.lines().filter(|l| *l != format!("shard {victim}")).map(|l| l.to_string() + "\n").collect();
    std::fs::write(survivors.join(STORE_MANIFEST), kept).expect("write manifest");
    let clean = run_cli(&["report", "--from-store", &survivors.display().to_string()]);
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stderr));

    for table in ["unified", "traces"] {
        let from = store_dir.join(format!("{source}.{table}.ndts"));
        std::fs::copy(from, store_dir.join(format!("{victim}.{table}.ndts"))).expect("copy pair");
    }
    let metrics = d.join("metrics.json");
    let report =
        run_cli(&["report", "--from-store", &store_arg, "--metrics", &metrics.display().to_string()]);
    let stderr = String::from_utf8_lossy(&report.stderr);
    assert_eq!(report.status.code(), Some(3), "stderr: {stderr}");
    assert!(stderr.contains(victim) && stderr.contains("day order"), "unhelpful error: {stderr}");
    let artifact = std::fs::read_to_string(&metrics).expect("metrics artifact");
    assert_eq!(artifact_value(&artifact, "store.shards_quarantined"), 1, "{artifact}");
    assert!(report.stdout == clean.stdout, "the report over the survivors differs");
    let quarantined = std::fs::read_dir(store_dir.join(QUARANTINE_DIR)).expect("quarantine").count();
    assert_eq!(quarantined, 2, "both files of the copied pair are quarantined");
    let _ = std::fs::remove_dir_all(&d);
}

// ---- CLI-level equivalence (subprocess) --------------------------------

fn bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ukraine-ndt"));
    cmd.env_remove("UKRAINE_NDT_EXIT_AFTER")
        .env_remove("UKRAINE_NDT_PANIC_STAGE")
        .env_remove("UKRAINE_NDT_IO_FAULTS");
    cmd
}

fn run_cli(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

/// End-to-end through the binary: `generate --format columnar` then
/// `report --from-store` prints exactly the same report as `report`.
#[test]
fn cli_from_store_report_matches_cli_report() {
    let d = tmpdir("cli");
    let store_dir = d.join("store");
    let metrics = d.join("metrics.json");
    let common = ["--scale", "0.01", "--seed", "7"];

    let direct = run_cli(&[&["report"], &common[..]].concat());
    assert_eq!(direct.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&direct.stderr));

    let gen = run_cli(
        &[
            &["generate", "--format", "columnar", "--out", &store_dir.display().to_string()],
            &common[..],
            &["--metrics", &metrics.display().to_string()],
        ]
        .concat(),
    );
    assert_eq!(gen.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&gen.stderr));

    let from_store = run_cli(&["report", "--from-store", &store_dir.display().to_string()]);
    assert_eq!(
        from_store.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&from_store.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&direct.stdout),
        String::from_utf8_lossy(&from_store.stdout),
        "CLI report must be byte-identical"
    );

    // The metrics artifact carries the encoded-vs-raw accounting.
    let metrics_json = std::fs::read_to_string(&metrics).expect("metrics artifact");
    for key in ["store.bytes_file", "store.bytes_raw", "store.encoded_pct_of_raw"] {
        assert!(metrics_json.contains(key), "metrics artifact missing {key}");
    }
    let _ = std::fs::remove_dir_all(&d);
}

/// Runs `subcmd --out D` and requires `report --from-store D/.ukraine-ndt`
/// to print exactly what `report` prints with the same `flags`.
fn assert_checkpoint_directory_is_a_store(tag: &str, subcmd: &str, flags: &[&str]) {
    let d = tmpdir(tag);
    let out = d.join("out");
    let out_arg = out.display().to_string();
    let run = run_cli(&[&[subcmd, "--out", &out_arg], flags].concat());
    assert_eq!(run.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&run.stderr));
    let direct = run_cli(&[&["report"], flags].concat());
    assert_eq!(direct.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&direct.stderr));

    let ckpt = out.join(ukraine_ndt::runner::CHECKPOINT_DIR);
    let from_ckpt = run_cli(&["report", "--from-store", &ckpt.display().to_string()]);
    assert_eq!(
        from_ckpt.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&from_ckpt.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&direct.stdout),
        String::from_utf8_lossy(&from_ckpt.stdout),
        "report over the checkpoint directory of {subcmd} must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&d);
}

/// One corpus format: the checkpoint directory `export` leaves behind is a
/// columnar store, and reporting from it prints exactly what `report`
/// prints for the same seed and scale.
#[test]
fn export_checkpoint_directory_is_a_store() {
    let flags = ["--scale", "0.01", "--seed", "7"];
    assert_checkpoint_directory_is_a_store("ckpt-store", "export", &flags);
}

/// CSV `generate` of a two-country scenario saves the second country's
/// digest beside its shards, so its checkpoint directory seals into a
/// store that reports the A/B table too.
#[test]
fn two_country_generate_checkpoint_directory_is_a_store() {
    let flags = ["--scale", "0.01", "--seed", "7", "--scenario", "asymmetric"];
    assert_checkpoint_directory_is_a_store("ckpt-store-asym", "generate", &flags);
}

/// Reads one `"key": value` integer out of a metrics artifact's flat map
/// sections (counters/gauges/process); missing keys read as 0.
fn artifact_value(artifact: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    artifact
        .find(&needle)
        .map(|pos| &artifact[pos + needle.len()..])
        .and_then(|rest| {
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

/// The deterministic `store.*` read counters — published once per
/// successful shard pair, in manifest order — must be byte-equal between
/// `report --from-store` runs at `--threads 1` and `--threads 4` over the
/// same store. A clean read decodes, and so checksum-verifies, every page
/// of every group of every shard file the manifest lists.
#[test]
fn cli_engines_publish_identical_deterministic_counters() {
    let d = tmpdir("cli-counters");
    let store_dir = d.join("store");
    let gen = run_cli(&[
        "generate",
        "--format",
        "columnar",
        "--out",
        &store_dir.display().to_string(),
        "--scale",
        "0.02",
        "--seed",
        "7",
        "--quiet",
    ]);
    assert_eq!(gen.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&gen.stderr));

    let report = |threads: &str| -> (String, String) {
        let metrics = d.join(format!("metrics-t{threads}.json"));
        let out = run_cli(&[
            "report",
            "--from-store",
            &store_dir.display().to_string(),
            "--threads",
            threads,
            "--metrics",
            &metrics.display().to_string(),
        ]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            std::fs::read_to_string(&metrics).expect("metrics artifact"),
        )
    };
    let (one_report, one_metrics) = report("1");
    let (four_report, four_metrics) = report("4");
    assert_eq!(one_report, four_report, "CLI reports must be byte-identical across threads");
    for key in [
        "store.rows_read",
        "store.bytes_read",
        "store.groups_scanned",
        "store.pages_decoded",
        "store.shards_quarantined",
        "store.days_missing",
    ] {
        assert_eq!(
            artifact_value(&one_metrics, key),
            artifact_value(&four_metrics, key),
            "{key} differs between thread counts"
        );
    }
    assert!(artifact_value(&one_metrics, "store.rows_read") > 0, "counters actually published");

    let manifest = std::fs::read_to_string(store_dir.join(STORE_MANIFEST)).expect("manifest");
    let (mut groups, mut pages) = (0u64, 0u64);
    for stem in manifest.lines().filter_map(|l| l.strip_prefix("shard ")) {
        for table in ["unified", "traces"] {
            let path = store_dir.join(format!("{stem}.{table}.ndts"));
            let shard = ukraine_ndt::store::Shard::open(path).expect("a clean shard opens");
            groups += shard.groups().len() as u64;
            pages += (shard.groups().len() * shard.schema().columns.len()) as u64;
        }
    }
    assert_eq!(artifact_value(&one_metrics, "store.groups_scanned"), groups, "every group read");
    assert_eq!(artifact_value(&one_metrics, "store.pages_decoded"), pages, "every page decoded");
    let _ = std::fs::remove_dir_all(&d);
}

/// `report --from-store` does not trust a `country-b` digest just because
/// it parses: an edited wartime test count fails the digest's checksum,
/// so the run records a failed `store:country-b.digest.txt`, prints the
/// single-country report and exits 3.
#[test]
fn edited_country_digest_is_rejected_and_the_report_degrades() {
    let d = tmpdir("digest-edit");
    let store_dir = d.join("store");
    let store_arg = store_dir.display().to_string();
    let gen = run_cli(&[
        "generate", "--format", "columnar", "--out", &store_arg, "--scale", "0.01", "--seed", "7",
        "--scenario", "asymmetric", "--quiet",
    ]);
    assert_eq!(gen.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&gen.stderr));
    let clean = run_cli(&["report", "--from-store", &store_arg]);
    assert_eq!(clean.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&clean.stderr));
    assert!(String::from_utf8_lossy(&clean.stdout).contains("Scenario A/B"));

    // Raise the wartime (period 3) test count; the line stays well formed.
    let digest = store_dir.join("country-b.digest.txt");
    let text = std::fs::read_to_string(&digest).expect("digest");
    let edited: String = text
        .lines()
        .map(|line| match line.strip_prefix("period 3 ") {
            Some(rest) => {
                let (tests, tail) = rest.split_once(' ').expect("period fields");
                let tests: u64 = tests.parse().expect("test count");
                format!("period 3 {} {tail}\n", tests + 45)
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(edited, text, "the digest has a wartime line");
    std::fs::write(&digest, edited).expect("edit digest");

    let metrics = d.join("metrics.json");
    let out = run_cli(&["report", "--from-store", &store_arg, "--metrics", &metrics.display().to_string()]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("Scenario A/B"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("store:country-b.digest.txt"));
    let artifact = std::fs::read_to_string(&metrics).expect("metrics artifact");
    assert_eq!(artifact_value(&artifact, "store.digests_failed"), 1);
    let _ = std::fs::remove_dir_all(&d);
}

/// The memory ceiling at scale 10: a cold `report --from-store` over a
/// scale-10 store must keep the decoded-but-uningested high-water mark
/// of both tables (the `store.peak_resident_rows` process gauge) bounded
/// by the in-flight batch window — worker count × channel capacity ×
/// row-group size — not by the corpus. Measured: 24,576 resident vs
/// 13,606,333 rows read.
///
/// `#[ignore]`: generating the scale-10 corpus takes ~25s in release and
/// far longer in a debug test run; CI runs it explicitly with
/// `cargo test --release --test store -- --ignored`.
#[test]
#[ignore = "scale-10 corpus; run explicitly in release (CI does)"]
fn scale10_vectorized_peak_resident_rows_is_bounded_by_the_batch_window() {
    let d = tmpdir("scale10-mem");
    let store_dir = d.join("store");
    let gen = run_cli(&[
        "generate",
        "--format",
        "columnar",
        "--out",
        &store_dir.display().to_string(),
        "--scale",
        "10",
        "--seed",
        "20220224",
        "--quiet",
    ]);
    assert_eq!(gen.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&gen.stderr));

    let metrics = d.join("metrics.json");
    let out = run_cli(&[
        "report",
        "--from-store",
        &store_dir.display().to_string(),
        "--metrics",
        &metrics.display().to_string(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let artifact = std::fs::read_to_string(&metrics).expect("metrics artifact");

    let rows = artifact_value(&artifact, "store.rows_read");
    let peak = artifact_value(&artifact, "store.peak_resident_rows");
    assert!(rows > 10_000_000, "scale 10 must be a ~13.6M-row corpus (both tables), got {rows}");
    // Worker count is capped by the shard count (8 pairs at scale 10);
    // with capacity-2 channels and 4096-row groups the window can never
    // hold more than a small multiple of 4096 rows per worker. 64 × 4096
    // is ~10x the observed peak and still ~50x under the corpus — the
    // point is O(batch window), not O(rows).
    assert!(
        peak > 0 && peak <= 64 * 4096,
        "peak resident rows {peak} must stay within the batch window"
    );
    assert!(peak * 4 < rows, "peak {peak} must be far below the corpus {rows}");
    let _ = std::fs::remove_dir_all(&d);
}

/// A kill mid-fan-out — `UKRAINE_NDT_EXIT_AFTER` fires in one pool
/// worker while its siblings and their writer threads are still in
/// flight — leaves no manifest behind, and a parallel `--resume`
/// completes the store to bytes identical to an uninterrupted
/// single-worker run.
#[test]
fn killed_parallel_generation_resumes_byte_identically() {
    let d = tmpdir("kill-resume");
    let common = ["--scale", "0.01", "--seed", "7", "--quiet"];
    let generate = |dir: &Path, extra: &[&str], env: &[(&str, &str)]| -> Output {
        let mut cmd = bin();
        cmd.args(["generate", "--format", "columnar", "--out"]).arg(dir).args(common).args(extra);
        for (k, v) in env {
            cmd.env(k, v);
        }
        cmd.output().expect("binary runs")
    };

    let clean_dir = d.join("clean");
    let clean = generate(&clean_dir, &["--threads", "1"], &[]);
    assert_eq!(clean.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&clean.stderr));
    let want = store_bytes(&clean_dir);

    let killed_dir = d.join("killed");
    let killed =
        generate(&killed_dir, &["--threads", "4"], &[("UKRAINE_NDT_EXIT_AFTER", "store:")]);
    assert_eq!(
        killed.status.code(),
        Some(42),
        "simulated kill; stderr: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(
        !killed_dir.join(STORE_MANIFEST).exists(),
        "the manifest is written last, so a killed run must not have one"
    );

    let resumed = generate(&killed_dir, &["--threads", "4", "--resume"], &[]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_same_store(&want, &store_bytes(&killed_dir), "kill+resume");
    let _ = std::fs::remove_dir_all(&d);
}

/// An injected panic inside a pool worker's simulation surfaces its
/// actual payload text through the join — not a generic "thread
/// panicked" — proving the downcast propagation end to end.
#[test]
fn injected_shard_panic_surfaces_its_payload_text() {
    let d = tmpdir("panic-payload");
    let out = bin()
        .args(["generate", "--format", "columnar", "--out"])
        .arg(d.join("store"))
        .args(["--scale", "0.01", "--seed", "7", "--threads", "4", "--quiet"])
        .env("UKRAINE_NDT_PANIC_STAGE", "store:")
        .output()
        .expect("binary runs");
    assert_ne!(out.status.code(), Some(0), "an injected panic must fail the run");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("panicked: injected panic in stage store:"),
        "panic payload text must survive the pool join: {err}"
    );
    let _ = std::fs::remove_dir_all(&d);
}
