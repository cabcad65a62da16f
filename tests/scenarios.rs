//! Scenario acceptance suite: every new built-in scenario must survive
//! the full pipeline under `--faults moderate`, produce bit-identical
//! artifacts at any `--threads` count, and come back byte-for-byte after
//! a mid-run kill (`UKRAINE_NDT_EXIT_AFTER`) plus `--resume` — the same
//! determinism contract the historical scenario is held to.
//!
//! The asymmetric scenario additionally must emit the two-country
//! degradation comparison table (`table_ab_comparison.txt` / the
//! "Scenario A/B" report section), which no single-country scenario may.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ndt-scenario-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Runs `export` for one scenario at tiny scale with moderate faults.
fn export(scenario: &str, out_dir: &Path, extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ukraine-ndt"));
    cmd.args(["export", "--scale", "0.01", "--seed", "77", "--faults", "moderate"])
        .args(["--scenario", scenario, "--out"])
        .arg(out_dir)
        .args(extra)
        .env_remove("UKRAINE_NDT_EXIT_AFTER")
        .env_remove("UKRAINE_NDT_PANIC_STAGE");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Artifact files in `dir`, name → bytes.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("out dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, fs::read(e.path()).expect("readable artifact"))
        })
        .collect()
}

fn assert_same_artifacts(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>, why: &str) {
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "{why}: artifact sets differ"
    );
    for (name, bytes) in a {
        assert_eq!(bytes, &b[name], "{why}: artifact {name} differs");
    }
}

/// The shared acceptance leg: faulted run completes; `--threads 1` and
/// `--threads 4` produce byte-identical artifacts; a kill after
/// `crash_stage` followed by `--resume` reproduces the clean run exactly.
fn scenario_acceptance(scenario: &str, crash_stage: &str) -> BTreeMap<String, Vec<u8>> {
    let tag = scenario.replace('-', "");
    let d1 = tmpdir(&format!("{tag}-t1"));
    let d4 = tmpdir(&format!("{tag}-t4"));
    let dc = tmpdir(&format!("{tag}-crash"));

    let t1 = export(scenario, &d1, &["--threads", "1"], &[]);
    assert_eq!(t1.status.code(), Some(0), "{scenario} --threads 1: {}", stderr(&t1));
    let t4 = export(scenario, &d4, &["--threads", "4"], &[]);
    assert_eq!(t4.status.code(), Some(0), "{scenario} --threads 4: {}", stderr(&t4));

    let ref_files = artifacts(&d1);
    assert!(!ref_files.is_empty(), "{scenario}: no artifacts exported");
    assert_same_artifacts(&ref_files, &artifacts(&d4), &format!("{scenario} threads 1 vs 4"));

    // Kill right after `crash_stage` checkpoints, then resume.
    let crashed =
        export(scenario, &dc, &["--threads", "1"], &[("UKRAINE_NDT_EXIT_AFTER", crash_stage)]);
    assert_eq!(crashed.status.code(), Some(42), "{scenario} crash: {}", stderr(&crashed));
    assert!(
        stderr(&crashed).contains(&format!("simulated crash after stage {crash_stage}")),
        "{scenario}: crash hook missed; stderr: {}",
        stderr(&crashed)
    );
    let resumed = export(scenario, &dc, &["--threads", "1", "--resume"], &[]);
    assert_eq!(resumed.status.code(), Some(0), "{scenario} resume: {}", stderr(&resumed));
    assert!(
        stderr(&resumed).contains("resumed from checkpoint"),
        "{scenario}: resume recomputed everything; stderr: {}",
        stderr(&resumed)
    );
    assert_same_artifacts(&ref_files, &artifacts(&dc), &format!("{scenario} kill→resume"));

    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d4);
    let _ = fs::remove_dir_all(&dc);
    ref_files
}

#[test]
fn asymmetric_scenario_survives_faults_threads_and_crashes() {
    // Crash right after the second-country digest checkpoints: resume
    // must pick the digest up from the checkpoint store, not re-simulate.
    let files = scenario_acceptance("asymmetric", "country-b");
    let table = files
        .get("table_ab_comparison.txt")
        .expect("asymmetric run must export the two-country comparison table");
    let table = String::from_utf8_lossy(table);
    assert!(table.contains("ukraine"), "A/B table missing country A: {table}");
    assert!(table.contains("country-b"), "A/B table missing country B: {table}");
    assert!(table.contains("wartime"), "A/B table missing the wartime rows: {table}");
    // Corrupt rows are dropped from both countries' means, as from every
    // other table's, so no cell of the comparison is NaN.
    assert!(!table.contains("NaN"), "A/B table averaged corrupt rows: {table}");
}

#[test]
fn refugee_flow_scenario_survives_faults_threads_and_crashes() {
    let files = scenario_acceptance("refugee-flow", "fig3");
    assert!(!files.contains_key("table_ab_comparison.txt"), "single-country scenario grew an A/B table");
}

#[test]
fn transit_reroute_scenario_survives_faults_threads_and_crashes() {
    let files = scenario_acceptance("transit-reroute", "fig3");
    assert!(!files.contains_key("table_ab_comparison.txt"), "single-country scenario grew an A/B table");
}

#[test]
fn only_the_asymmetric_report_carries_the_two_country_section() {
    let report = |scenario: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_ukraine-ndt"))
            .args(["report", "--scale", "0.01", "--seed", "77", "--scenario", scenario])
            .env_remove("UKRAINE_NDT_EXIT_AFTER")
            .env_remove("UKRAINE_NDT_PANIC_STAGE")
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{scenario}: {}", stderr(&out));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert!(
        report("asymmetric").contains("Scenario A/B"),
        "asymmetric report lost its two-country section"
    );
    for scenario in ["historical", "refugee-flow", "transit-reroute"] {
        assert!(
            !report(scenario).contains("Scenario A/B"),
            "{scenario} report grew a two-country section"
        );
    }
}
