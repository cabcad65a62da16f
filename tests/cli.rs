//! Binary-level CLI contract tests: exit codes and stderr for bad flags,
//! and the degraded-but-successful paths (`--faults severe` must exit 0
//! with coverage annotations, not crash).

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ukraine-ndt"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ndt-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn no_arguments_prints_usage_and_exits_nonzero() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("usage:"), "stderr: {}", stderr(&out));
}

#[test]
fn unknown_command_prints_usage_and_exits_nonzero() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn bad_flags_exit_nonzero_with_usage() {
    for bad in [
        vec!["report", "--scale"],             // missing value
        vec!["report", "--scale", "0"],        // zero scale
        vec!["report", "--scale", "-2"],       // negative scale
        vec!["report", "--scale", "inf"],      // non-finite scale
        vec!["report", "--scale", "1e999"],    // overflows f64 to +inf
        vec!["report", "--scale", "NaN"],      // NaN scale
        vec!["report", "--seed", "twelve"],    // non-numeric seed
        vec!["report", "--scenario", "blitz"], // unknown scenario
        vec!["report", "--faults", "mega"],    // unknown fault plan
        vec!["map", "--date", "2022-02-30"],   // invalid calendar day
        vec!["report", "--bogus", "1"],        // unknown flag
    ] {
        let out = run(&bad);
        assert_eq!(out.status.code(), Some(1), "args {bad:?} should be rejected");
        assert!(stderr(&out).contains("usage:"), "args {bad:?} should print usage");
    }
}

#[test]
fn map_prints_the_activity_snapshot() {
    let out = run(&["map", "--date", "2022-03-15"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(!stdout(&out).is_empty());
}

#[test]
fn report_with_severe_faults_exits_zero_with_coverage() {
    let out = run(&["report", "--scale", "0.01", "--faults", "severe"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Coverage"), "degraded run still reports coverage");
    assert!(!stderr(&out).contains("FAILED"), "data faults are not stage failures");
}

// ---------------------------------------------------------------------
// The exit-code contract (documented in README.md): 0 = clean success,
// 1 = fatal error (bad flags, missing inputs), 3 = completed but
// degraded (failed stages / quarantined shards). One test per leg,
// through the real binary.
// ---------------------------------------------------------------------

/// Builds a tiny columnar store through the binary itself.
fn generate_store(dir: &std::path::Path) -> PathBuf {
    let store = dir.join("store");
    let out = run(&[
        "generate", "--format", "columnar", "--scale", "0.01", "--seed", "7",
        "--out", &store.display().to_string(),
    ]);
    assert_eq!(out.status.code(), Some(0), "store generate: {}", stderr(&out));
    store
}

#[test]
fn exit_contract_clean_report_is_zero() {
    let out = run(&["report", "--scale", "0.01"]);
    assert_eq!(out.status.code(), Some(0), "clean run exits 0; stderr: {}", stderr(&out));
}

#[test]
fn exit_contract_missing_store_is_fatal_one() {
    let d = tmpdir("exit-fatal");
    let out = run(&["report", "--from-store", &d.join("nope").display().to_string()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a store without a manifest is fatal (nothing to degrade over); stderr: {}",
        stderr(&out)
    );
}

#[test]
fn exit_contract_quarantined_shard_is_partial_three() {
    let d = tmpdir("exit-partial");
    std::fs::create_dir_all(&d).expect("mkdir");
    let store = generate_store(&d);
    // Truncate one shard: the loader quarantines it, serves the
    // survivors, and the run completes degraded.
    let shard = std::fs::read_dir(&store)
        .expect("store dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "ndts"))
        .expect("a shard file");
    let bytes = std::fs::read(&shard).expect("read shard");
    std::fs::write(&shard, &bytes[..bytes.len() / 2]).expect("truncate shard");

    let out = run(&["report", "--from-store", &store.display().to_string()]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "degraded-but-completed exits 3; stderr: {}",
        stderr(&out)
    );
    assert!(
        !stdout(&out).is_empty(),
        "the degraded report is still produced on stdout"
    );
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn exit_contract_serve_drain_on_clean_store_is_zero() {
    let d = tmpdir("exit-serve");
    std::fs::create_dir_all(&d).expect("mkdir");
    let store = generate_store(&d);
    // --shutdown drains on a timer (no stdin choreography needed): a
    // clean store served and drained without incident exits 0.
    let out = run(&[
        "serve", "--store", &store.display().to_string(), "--workers", "1",
        "--shutdown", "0.3",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean serve drain exits 0; stderr: {}",
        stderr(&out)
    );
    assert!(
        stdout(&out).contains("SERVE_ADDR="),
        "serve must announce its address; stdout: {}",
        stdout(&out)
    );
    assert!(stderr(&out).contains("drained:"), "stderr: {}", stderr(&out));
    let _ = std::fs::remove_dir_all(&d);
}

#[test]
fn export_with_severe_faults_exits_zero_and_derives_artifact_count() {
    let d = tmpdir("severe-export");
    let out = run(&["export", "--scale", "0.01", "--faults", "severe", "--out", &d.display().to_string()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    let written = std::fs::read_dir(&d)
        .expect("out dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .count();
    assert!(
        err.contains(&format!("wrote {written} artifacts")),
        "reported count must match the {written} files actually written; stderr: {err}"
    );
    let _ = std::fs::remove_dir_all(&d);
}

/// CSV `generate` appends each shard to both CSVs as the pool hands it
/// back: the bytes do not depend on `--threads`, the row counts are the
/// simulator's, a failed shard abandons both files (exit 3, no CSV, no
/// temporary left behind), and the temporaries a kill leaves are swept by
/// the next run.
#[test]
fn csv_generate_streams_thread_independent_files_and_abandons_them_on_failure() {
    let d = tmpdir("csv-generate");
    let common = ["generate", "--scale", "0.01", "--seed", "7"];
    let files = ["unified_download.csv", "scamper1.csv"];
    let mut csvs = Vec::new();
    for threads in ["1", "4"] {
        let out = d.join(format!("threads-{threads}"));
        let out_arg = out.display().to_string();
        let gen = run(&[&common[..], &["--threads", threads, "--out", &out_arg]].concat());
        assert_eq!(gen.status.code(), Some(0), "stderr: {}", stderr(&gen));
        csvs.push(files.map(|f| std::fs::read(out.join(f)).expect("CSV written")));
    }
    assert!(csvs[0] == csvs[1], "--threads 1 and --threads 4 wrote different CSVs");
    let sim = ukraine_ndt::mlab::SimConfig { scale: 0.01, seed: 7, ..Default::default() };
    let corpus = ukraine_ndt::mlab::Simulator::new(sim).run();
    // One header line, then one line per row.
    let rows = |csv: &[u8]| csv.iter().filter(|&&b| b == b'\n').count() - 1;
    assert_eq!(rows(&csvs[0][0]), corpus.ndt.len());
    assert_eq!(rows(&csvs[0][1]), corpus.traces.len());

    let out = d.join("failed");
    let out_arg = out.display().to_string();
    let with_env = |var: &str, value: &str| {
        bin().env(var, value).args(common).args(["--out", &out_arg]).output().expect("binary runs")
    };
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&out)
            .expect("out dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let failed = with_env("UKRAINE_NDT_PANIC_STAGE", "corpus:419");
    assert_eq!(failed.status.code(), Some(3), "stderr: {}", stderr(&failed));
    assert!(stderr(&failed).contains("corpus:419"), "stderr: {}", stderr(&failed));
    assert_eq!(listing(), [ukraine_ndt::runner::CHECKPOINT_DIR], "no CSV and no temporary");

    let killed = with_env("UKRAINE_NDT_EXIT_AFTER", "corpus:");
    assert_eq!(killed.status.code(), Some(42), "stderr: {}", stderr(&killed));
    let rerun = run(&[&common[..], &["--out", &out_arg]].concat());
    assert_eq!(rerun.status.code(), Some(0), "stderr: {}", stderr(&rerun));
    assert_eq!(listing(), [ukraine_ndt::runner::CHECKPOINT_DIR, files[1], files[0]]);
    assert!(files.map(|f| std::fs::read(out.join(f)).expect("CSV")) == csvs[0]);
    let _ = std::fs::remove_dir_all(&d);
}
