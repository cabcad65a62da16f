//! Crash-safety integration suite: kill a run mid-flight, resume it, and
//! prove the result is bit-for-bit identical to an uninterrupted run; and
//! prove a panicking stage degrades the run instead of aborting it.
//!
//! The "kill" is the deterministic test hook `UKRAINE_NDT_EXIT_AFTER`
//! (exit(42) immediately after the named stage checkpoints), which lands
//! at the same hazard point as a real `kill -9` between two stages —
//! combined with the atomic-write layer there is no *within*-stage state
//! to tear.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ndt-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn export(out_dir: &Path, extra_args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ukraine-ndt"));
    cmd.args(["export", "--scale", "0.01", "--seed", "77", "--out"])
        .arg(out_dir)
        .args(extra_args)
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

/// Whether the stderr log shows a corpus shard computed (not resumed).
fn shard_computed(stderr: &str) -> bool {
    stderr.lines().any(|l| l.contains("stage corpus:") && l.ends_with(": computed"))
}

/// Artifact files (not checkpoints) in `dir`, name → bytes.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("out dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = fs::read(e.path()).expect("readable artifact");
            (name, bytes)
        })
        .collect()
}

/// Asserts no `.tmp.` leftovers anywhere under `dir`.
fn assert_no_torn_files(dir: &Path) {
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in fs::read_dir(&d).expect("readdir").filter_map(|e| e.ok()) {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let name = e.file_name().to_string_lossy().into_owned();
                assert!(!name.contains(".tmp."), "torn temp file left behind: {}", p.display());
            }
        }
    }
}

#[test]
fn killed_then_resumed_run_is_bit_identical_to_a_clean_run() {
    let clean_dir = tmpdir("clean");
    let crash_dir = tmpdir("crashed");

    // Reference: one uninterrupted run.
    let clean = export(&clean_dir, &[], &[]);
    assert_eq!(clean.status.code(), Some(0), "stderr: {}", stderr(&clean));

    // Crash mid-run, right after the fig3 stage. Artifacts are written
    // only at the end, so the crashed run leaves checkpoints but no
    // artifacts — and crucially, nothing torn.
    let crashed = export(&crash_dir, &[], &[("UKRAINE_NDT_EXIT_AFTER", "fig3")]);
    assert_eq!(crashed.status.code(), Some(42), "simulated crash: {}", stderr(&crashed));
    assert!(stderr(&crashed).contains("simulated crash after stage fig3"));
    assert_no_torn_files(&crash_dir);
    assert!(
        crash_dir.join(".ukraine-ndt").join("STORE.txt").exists(),
        "the corpus was checkpointed as a sealed store before the crash"
    );

    // Resume. Everything computed before the crash is skipped, the rest
    // runs, and the artifacts match the clean run byte for byte.
    let resumed = export(&crash_dir, &["--resume"], &[]);
    assert_eq!(resumed.status.code(), Some(0), "stderr: {}", stderr(&resumed));
    let err = stderr(&resumed);
    assert!(err.contains("resumed from checkpoint"), "stderr: {err}");
    assert!(err.contains("stage fig4: computed"), "post-crash stages recompute: {err}");
    assert_no_torn_files(&crash_dir);

    let clean_files = artifacts(&clean_dir);
    let crash_files = artifacts(&crash_dir);
    assert!(!clean_files.is_empty());
    assert_eq!(
        clean_files.keys().collect::<Vec<_>>(),
        crash_files.keys().collect::<Vec<_>>(),
        "same artifact set"
    );
    for (name, bytes) in &clean_files {
        assert_eq!(
            bytes,
            &crash_files[name],
            "artifact {name} differs between clean and resumed runs"
        );
    }

    let _ = fs::remove_dir_all(&clean_dir);
    let _ = fs::remove_dir_all(&crash_dir);
}

#[test]
fn changing_config_invalidates_checkpoints() {
    let d = tmpdir("invalidate");
    let first = export(&d, &[], &[]);
    assert_eq!(first.status.code(), Some(0), "stderr: {}", stderr(&first));

    // Same config resumes every corpus shard (analyses always recompute)…
    let same = export(&d, &["--resume"], &[]);
    assert!(stderr(&same).contains("resumed from checkpoint"));
    assert!(!shard_computed(&stderr(&same)), "no shard recomputes: {}", stderr(&same));

    // …but any knob change recomputes everything.
    for change in [
        vec!["--resume", "--seed", "78"],
        vec!["--resume", "--scale", "0.011"],
        vec!["--resume", "--scenario", "no-war"],
        vec!["--resume", "--faults", "light"],
        // The `country-b` digest has a fixed file name: a second seed must
        // not resume the digest the first one saved.
        vec!["--resume", "--scenario", "asymmetric"],
        vec!["--resume", "--scenario", "asymmetric", "--seed", "78"],
    ] {
        let out = export(&d, &change, &[]);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        assert!(
            !stderr(&out).contains("resumed from checkpoint"),
            "{change:?} must invalidate every checkpoint; stderr: {}",
            stderr(&out)
        );
    }
    let _ = fs::remove_dir_all(&d);
}

#[test]
fn a_panicking_stage_degrades_the_run_instead_of_aborting_it() {
    let d = tmpdir("panic");
    let out = export(&d, &[], &[("UKRAINE_NDT_PANIC_STAGE", "fig5")]);

    // Partial success: the process finishes, reports the failure, exits 3.
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("stage fig5: FAILED"), "stderr: {err}");
    assert!(err.contains("injected panic"), "stderr: {err}");
    assert!(err.contains("failed stage(s): fig5"), "stderr: {err}");

    // Every other stage's artifacts exist; fig5's does not; nothing torn.
    let files = artifacts(&d);
    assert!(!files.contains_key("fig5_border_heatmap.txt"), "failed stage exports nothing");
    assert!(files.contains_key("fig4_city_counts.csv"));
    assert!(files.contains_key("fig6_as199995.csv"));
    assert!(files.contains_key("topology.dot"));
    assert_no_torn_files(&d);

    // The reported artifact count reflects the reduced write list.
    let written = files.len();
    assert!(
        err.contains(&format!("wrote {written} artifacts")),
        "count must track actual writes; stderr: {err}"
    );

    // A resume without the fault hook completes the run from the
    // checkpointed corpus: no shard recomputes.
    let healed = export(&d, &["--resume"], &[]);
    assert_eq!(healed.status.code(), Some(0), "stderr: {}", stderr(&healed));
    assert!(stderr(&healed).contains("stage fig5: computed"));
    assert!(!shard_computed(&stderr(&healed)), "stderr: {}", stderr(&healed));
    assert!(artifacts(&d).contains_key("fig5_border_heatmap.txt"));
    let _ = fs::remove_dir_all(&d);
}

#[test]
fn a_panicking_shard_fails_the_corpus_and_a_resume_heals_it() {
    let clean_dir = tmpdir("shard-panic-clean");
    let d = tmpdir("shard-panic");
    let clean = export(&clean_dir, &[], &[]);
    assert_eq!(clean.status.code(), Some(0), "stderr: {}", stderr(&clean));

    // Every corpus shard panics on the pool: the run still finishes,
    // records the failed shards, skips the analyses, and exits 3.
    let out = export(&d, &["--threads", "4"], &[("UKRAINE_NDT_PANIC_STAGE", "corpus:")]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("stage corpus:000-027: FAILED: panicked: injected panic"), "{err}");
    assert!(err.contains("failed stage(s): corpus:000-027"), "{err}");
    assert!(err.contains("stage fig2: FAILED: skipped: corpus incomplete"), "{err}");
    let files = artifacts(&d);
    assert!(!files.contains_key("fig4_city_counts.csv"), "no analysis ran");
    assert_no_torn_files(&d);

    // A resume without the hook simulates every shard and converges.
    let healed = export(&d, &["--resume"], &[]);
    assert_eq!(healed.status.code(), Some(0), "stderr: {}", stderr(&healed));
    assert_no_torn_files(&d);
    assert_eq!(artifacts(&clean_dir), artifacts(&d), "healed artifacts differ from a clean run");
    let _ = fs::remove_dir_all(&clean_dir);
    let _ = fs::remove_dir_all(&d);
}

#[test]
fn a_kill_mid_corpus_resumes_byte_identically() {
    let clean_dir = tmpdir("mid-corpus-clean");
    let d = tmpdir("mid-corpus");
    let clean = export(&clean_dir, &[], &[]);
    assert_eq!(clean.status.code(), Some(0), "stderr: {}", stderr(&clean));

    // The kill lands right after the first shard is saved, while sibling
    // pool workers are still simulating and writing.
    let killed = export(&d, &["--threads", "4"], &[("UKRAINE_NDT_EXIT_AFTER", "corpus:")]);
    assert_eq!(killed.status.code(), Some(42), "stderr: {}", stderr(&killed));
    assert!(stderr(&killed).contains("simulated crash after stage corpus:000-027"));

    let resumed = export(&d, &["--threads", "4", "--resume"], &[]);
    assert_eq!(resumed.status.code(), Some(0), "stderr: {}", stderr(&resumed));
    assert!(
        stderr(&resumed).contains("stage corpus:000-027: resumed from checkpoint"),
        "stderr: {}",
        stderr(&resumed)
    );
    assert_no_torn_files(&d);
    assert_eq!(artifacts(&clean_dir), artifacts(&d), "resumed artifacts differ from a clean run");
    let _ = fs::remove_dir_all(&clean_dir);
    let _ = fs::remove_dir_all(&d);
}
