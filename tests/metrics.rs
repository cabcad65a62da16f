//! Integration suite for the `--metrics` observability artifact.
//!
//! The ndt-obs contract under test:
//!
//! * the artifact is **structurally deterministic** — for one configuration
//!   it is byte-identical across `--threads` settings once wall-clock
//!   durations are zeroed out;
//! * the simulation/analysis counter and gauge sections are identical
//!   between a clean run and a kill→resume run (per-stage counter deltas
//!   ride in the checkpoints and are re-applied on resume);
//! * requesting metrics has **zero observable effect** on the run itself:
//!   the report on stdout is byte-identical with and without `--metrics`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use ukraine_ndt::obs::zero_wall_times;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ndt-metrics-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn run(subcmd: &str, out_dir: &Path, extra_args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ukraine-ndt"));
    cmd.args([subcmd, "--scale", "0.01", "--seed", "77", "--out"])
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

/// Extracts one top-level section (`"counters"`, `"gauges"`, …) from the
/// fixed-layout artifact: the lines from `  "<name>": {` down to the
/// 2-space-indented closer (entries are indented 4 spaces, so the first
/// line starting `  }` or `  ]` ends the section).
fn section(artifact: &str, name: &str) -> String {
    let open = format!("  \"{name}\":");
    let mut lines = artifact.lines().skip_while(|l| !l.starts_with(&open)).peekable();
    assert!(lines.peek().is_some(), "artifact has a {name} section");
    let mut out = String::new();
    for l in lines {
        out.push_str(l);
        out.push('\n');
        if l.starts_with("  }") || l.starts_with("  ]") {
            break;
        }
    }
    out
}

#[test]
fn artifact_is_byte_identical_across_thread_counts_after_zeroing_durations() {
    let d1 = tmpdir("t1");
    let d4 = tmpdir("t4");
    let m1 = d1.join("metrics.json");
    let m4 = d4.join("metrics.json");

    let a = run("export", &d1, &["--threads", "1", "--metrics", m1.to_str().expect("utf8")], &[]);
    assert_eq!(a.status.code(), Some(0), "stderr: {}", stderr(&a));
    let b = run("export", &d4, &["--threads", "4", "--metrics", m4.to_str().expect("utf8")], &[]);
    assert_eq!(b.status.code(), Some(0), "stderr: {}", stderr(&b));

    let one = fs::read_to_string(&m1).expect("metrics written");
    let four = fs::read_to_string(&m4).expect("metrics written");
    // Wall-clock durations are the only sanctioned difference.
    assert_eq!(
        zero_wall_times(&one),
        zero_wall_times(&four),
        "metrics artifact must not depend on --threads"
    );
    // And the raw counter section is identical even before zeroing.
    assert_eq!(section(&one, "counters"), section(&four, "counters"));

    let _ = fs::remove_dir_all(&d1);
    let _ = fs::remove_dir_all(&d4);
}

#[test]
fn requesting_metrics_does_not_change_the_report() {
    let d = tmpdir("inert");
    let m = d.join("metrics.json");
    fs::create_dir_all(&d).expect("tmpdir");

    let plain = run("report", &d, &[], &[]);
    assert_eq!(plain.status.code(), Some(0), "stderr: {}", stderr(&plain));
    let metered = run("report", &d, &["--metrics", m.to_str().expect("utf8")], &[]);
    assert_eq!(metered.status.code(), Some(0), "stderr: {}", stderr(&metered));

    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&metered.stdout),
        "--metrics must have zero effect on the report"
    );
    assert!(m.exists(), "the artifact was still written");

    let _ = fs::remove_dir_all(&d);
}

#[test]
fn resumed_run_reports_the_same_counters_as_a_clean_run() {
    let clean_dir = tmpdir("ctr-clean");
    let crash_dir = tmpdir("ctr-crash");
    let m_clean = clean_dir.join("metrics.json");
    let m_resumed = crash_dir.join("metrics.json");

    let clean = run(
        "export",
        &clean_dir,
        &["--metrics", m_clean.to_str().expect("utf8")],
        &[],
    );
    assert_eq!(clean.status.code(), Some(0), "stderr: {}", stderr(&clean));

    // Kill mid-run right after fig3 checkpoints, then resume. The stages
    // completed before the kill are *not* re-executed — their counter
    // deltas come back from the checkpoints.
    let crashed = run("export", &crash_dir, &[], &[("UKRAINE_NDT_EXIT_AFTER", "fig3")]);
    assert_eq!(crashed.status.code(), Some(42), "simulated crash: {}", stderr(&crashed));
    let resumed = run(
        "export",
        &crash_dir,
        &["--resume", "--metrics", m_resumed.to_str().expect("utf8")],
        &[],
    );
    assert_eq!(resumed.status.code(), Some(0), "stderr: {}", stderr(&resumed));
    assert!(stderr(&resumed).contains("resumed from checkpoint"), "stderr: {}", stderr(&resumed));

    let clean_art = fs::read_to_string(&m_clean).expect("metrics written");
    let resumed_art = fs::read_to_string(&m_resumed).expect("metrics written");
    // Simulation/analysis counters and gauges are part of the determinism
    // contract; `process` (checkpoint hits, attempts) legitimately differs.
    assert_eq!(
        section(&clean_art, "counters"),
        section(&resumed_art, "counters"),
        "counters must survive kill→resume bit-identically"
    );
    assert_eq!(section(&clean_art, "gauges"), section(&resumed_art, "gauges"));

    let _ = fs::remove_dir_all(&clean_dir);
    let _ = fs::remove_dir_all(&crash_dir);
}

#[test]
fn zeroed_artifacts_from_repeat_runs_are_identical() {
    // Two identical invocations: everything but wall time is reproducible,
    // so the zeroed artifacts match byte for byte (spans, events and all).
    let da = tmpdir("rep-a");
    let db = tmpdir("rep-b");
    let ma = da.join("m.json");
    let mb = db.join("m.json");
    let a = run("export", &da, &["--metrics", ma.to_str().expect("utf8")], &[]);
    let b = run("export", &db, &["--metrics", mb.to_str().expect("utf8")], &[]);
    assert_eq!(a.status.code(), Some(0), "stderr: {}", stderr(&a));
    assert_eq!(b.status.code(), Some(0), "stderr: {}", stderr(&b));
    let one = fs::read_to_string(&ma).expect("metrics written");
    let two = fs::read_to_string(&mb).expect("metrics written");
    assert_ne!(one, two, "wall times differ between real runs");
    assert_eq!(zero_wall_times(&one), zero_wall_times(&two));
    let _ = fs::remove_dir_all(&da);
    let _ = fs::remove_dir_all(&db);
}

/// Runs `subcmd` cleanly and as kill (`UKRAINE_NDT_EXIT_AFTER=kill_after`)
/// → `--resume`, all with `extra` flags, and requires the resumed run's
/// counters and gauges to equal the clean run's: every saved unit
/// re-publishes the counters it recorded when it was computed.
fn assert_kill_resume_counters_match(tag: &str, subcmd: &str, extra: &[&str], kill_after: &str) {
    let clean_dir = tmpdir(&format!("{tag}-clean"));
    let crash_dir = tmpdir(&format!("{tag}-crash"));
    fs::create_dir_all(&clean_dir).expect("tmpdir");
    fs::create_dir_all(&crash_dir).expect("tmpdir");
    let m_clean = clean_dir.join("metrics.json");
    let m_resumed = crash_dir.join("metrics.json");
    let (m_clean_arg, m_resumed_arg) =
        (m_clean.to_str().expect("utf8"), m_resumed.to_str().expect("utf8"));
    // The stores are written into the out directories themselves.
    let clean_args = [extra, &["--metrics", m_clean_arg]].concat();
    let clean = run(subcmd, &clean_dir.join("out"), &clean_args, &[]);
    assert_eq!(clean.status.code(), Some(0), "stderr: {}", stderr(&clean));
    let crashed =
        run(subcmd, &crash_dir.join("out"), extra, &[("UKRAINE_NDT_EXIT_AFTER", kill_after)]);
    assert_eq!(crashed.status.code(), Some(42), "simulated crash: {}", stderr(&crashed));
    let resume_args = [extra, &["--resume", "--metrics", m_resumed_arg]].concat();
    let resumed = run(subcmd, &crash_dir.join("out"), &resume_args, &[]);
    assert_eq!(resumed.status.code(), Some(0), "stderr: {}", stderr(&resumed));
    assert!(stderr(&resumed).contains("resumed from checkpoint"), "stderr: {}", stderr(&resumed));

    let clean_art = fs::read_to_string(&m_clean).expect("metrics written");
    let resumed_art = fs::read_to_string(&m_resumed).expect("metrics written");
    assert!(section(&clean_art, "counters").lines().count() > 2, "clean run counted nothing");
    assert_eq!(section(&clean_art, "counters"), section(&resumed_art, "counters"), "{tag}");
    assert_eq!(section(&clean_art, "gauges"), section(&resumed_art, "gauges"), "{tag}");
    let _ = fs::remove_dir_all(&clean_dir);
    let _ = fs::remove_dir_all(&crash_dir);
}

#[test]
fn resumed_store_generation_reports_the_same_counters_as_a_clean_run() {
    assert_kill_resume_counters_match(
        "gen",
        "generate",
        &["--format", "columnar", "--threads", "4"],
        "store:",
    );
}

#[test]
fn resumed_two_country_export_reports_the_same_counters_as_a_clean_run() {
    assert_kill_resume_counters_match("asym", "export", &["--scenario", "asymmetric"], "country-b");
}
