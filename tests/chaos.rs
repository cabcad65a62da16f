//! Chaos acceptance suite for the I/O fault-injection layer (`ndt-vfs`)
//! and the degrade-don't-die store reads.
//!
//! The contract under test, end to end:
//!
//! * **No panic** — whatever the fault plan, kill point, or thread
//!   count, the process exits with a status code, never a panic abort.
//! * **No torn artifact** — a reader never observes a partially-written
//!   file; every visible file is either the old one or a complete new
//!   one, and no `.tmp.` leftovers survive (they are swept on reopen).
//! * **Resume converges** — after any chaotic run, a fault-free resume
//!   completes and its artifacts are byte-identical to an uninterrupted
//!   clean run's.
//! * **Degraded ≡ clean-over-survivors** — a report over a store with k
//!   damaged shards is byte-identical to a clean report over a store
//!   that only ever contained the surviving shards, with the missing
//!   days called out in the coverage footer and the run exiting with
//!   the partial-success code.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use proptest::prelude::*;
use ukraine_ndt::prelude::*;
use ukraine_ndt::runner::{
    run_report, run_report_from_store, run_store_generate, ExecPolicy, QUARANTINE_DIR,
    STORE_MANIFEST,
};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ndt-chaos-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).expect("mkdir");
    d
}

fn sim(seed: u64) -> SimConfig {
    SimConfig { scale: 0.01, seed, ..SimConfig::default() }
}

fn cfg_at(sim: SimConfig, out: &Path) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(sim, out);
    cfg.checkpoints = false;
    cfg
}

/// All regular files under `dir` (recursive), relative name → bytes.
fn files_under(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in fs::read_dir(&d).expect("readdir").filter_map(|e| e.ok()) {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let rel = p.strip_prefix(dir).expect("under dir").to_string_lossy().into_owned();
                out.insert(rel, fs::read(&p).expect("readable"));
            }
        }
    }
    out
}

fn assert_no_torn_files(dir: &Path) {
    for name in files_under(dir).keys() {
        assert!(!name.contains(".tmp."), "torn temp file left behind: {name}");
    }
}

/// Like [`assert_no_torn_files`] but tolerant of *hidden* (dot-prefixed)
/// temps: a process that dies with writer threads in flight can strand
/// those, and the startup sweep removes them on the next run. What must
/// never appear is a temp under a visible (non-dot) name — that would
/// mean a rename landed on a torn file.
fn assert_no_visible_torn_files(dir: &Path) {
    for name in files_under(dir).keys() {
        let base = name.rsplit('/').next().unwrap_or(name);
        if base.starts_with('.') {
            continue;
        }
        assert!(!name.contains(".tmp."), "visible torn temp file: {name}");
    }
}

/// Copies `store` to `dest` with the shards named in `dead` erased from
/// both the directory and the manifest — the store a clean run would
/// have produced had those shards never existed.
fn survivor_store(store: &Path, dest: &Path, dead: &[String]) {
    fs::create_dir_all(dest).expect("mkdir survivors");
    for e in fs::read_dir(store).expect("readdir").filter_map(|e| e.ok()) {
        let name = e.file_name().to_string_lossy().into_owned();
        if e.path().is_dir() || dead.iter().any(|s| name.starts_with(s.as_str())) {
            continue;
        }
        if name == STORE_MANIFEST {
            let text = fs::read_to_string(e.path()).expect("manifest");
            let kept: Vec<&str> = text
                .lines()
                .filter(|l| {
                    l.strip_prefix("shard ").map_or(true, |stem| !dead.iter().any(|s| s == stem))
                })
                .collect();
            fs::write(dest.join(&name), kept.join("\n") + "\n").expect("write manifest");
        } else {
            fs::copy(e.path(), dest.join(&name)).expect("copy shard");
        }
    }
}

/// Day span `hi - lo` parsed back out of a `shard-<lo>-<hi>-<fp>` stem.
fn stem_days(stem: &str) -> u64 {
    let mut it = stem.split('-').skip(1);
    let lo: u64 = it.next().expect("lo").parse().expect("lo digits");
    let hi: u64 = it.next().expect("hi").parse().expect("hi digits");
    hi - lo
}

// ---- degraded report ≡ clean report over the survivor set --------------

/// Damage three shards three different ways (truncation, payload bit
/// flip, outright deletion): the degraded report must be byte-identical
/// to a clean report over a store that never contained them.
#[test]
fn quarantined_shards_report_byte_identically_to_the_survivor_store() {
    let d = tmpdir("survivors");
    let cfg = cfg_at(sim(20220224), &d.join("out"));
    let store_dir = d.join("store");
    let (summary, _) = run_store_generate(&cfg, &store_dir).expect("generate");
    assert!(summary.shards.len() >= 5, "need shards to damage: {:?}", summary.shards);

    // Victims: truncate one, bit-flip one, delete one entirely.
    let dead: Vec<String> = vec![
        summary.shards[1].clone(),
        summary.shards[2].clone(),
        summary.shards[4].clone(),
    ];
    let trunc = store_dir.join(format!("{}.unified.ndts", dead[0]));
    let bytes = fs::read(&trunc).expect("read");
    fs::write(&trunc, &bytes[..bytes.len() / 3]).expect("truncate");
    let flip = store_dir.join(format!("{}.traces.ndts", dead[1]));
    let mut bytes = fs::read(&flip).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&flip, &bytes).expect("flip");
    for suffix in [".unified.ndts", ".traces.ndts"] {
        fs::remove_file(store_dir.join(format!("{}{suffix}", dead[2]))).expect("delete");
    }

    let survivors = d.join("survivor-store");
    survivor_store(&store_dir, &survivors, &dead);

    let degraded = run_report_from_store(&store_dir, ExecPolicy::default(), &VfsHandle::real())
        .expect("degrades, does not die");
    let clean = run_report_from_store(&survivors, ExecPolicy::default(), &VfsHandle::real())
        .expect("survivor store is clean");
    assert!(clean.is_complete(), "{:?}", clean.failed());
    assert_eq!(degraded.failed().len(), 3, "one failed record per damaged shard");
    assert_eq!(
        degraded.report, clean.report,
        "degraded report must equal the clean report over the survivor set"
    );
    assert_eq!(degraded.artifacts, clean.artifacts, "artifacts too");
    assert!(degraded.report.contains("day(s) missing from input"), "coverage footer present");

    // Both files of each damaged-but-present shard moved to quarantine
    // (2 pairs = 4 files; the deleted shard has nothing left to move).
    let q = files_under(&store_dir.join(QUARANTINE_DIR));
    assert_eq!(q.len(), 4, "damaged files quarantined: {:?}", q.keys());
    let _ = fs::remove_dir_all(&d);
}

/// Pure read-side decay (`rot` plan): shards whose checksummed bytes rot
/// are quarantined, and the degraded report still equals a clean report
/// over whatever survived. The rot is injected at read time — the disk
/// bytes stay intact — so the survivor set is derived from the failure
/// records themselves.
#[test]
fn rot_reads_quarantine_shards_and_still_match_the_survivor_report() {
    let d = tmpdir("rot");
    let cfg = cfg_at(sim(20220301), &d.join("out"));
    let store_dir = d.join("store");
    let (summary, _) = run_store_generate(&cfg, &store_dir).expect("generate");

    let rot = VfsHandle::faulty(IoFaultPlan::ROT);
    let degraded =
        run_report_from_store(&store_dir, ExecPolicy::default(), &rot).expect("rot degrades");
    let dead: Vec<String> = degraded
        .failed()
        .iter()
        .map(|r| r.name.strip_prefix("store:").expect("store record").to_string())
        .collect();
    assert!(
        !dead.is_empty() && dead.len() < summary.shards.len(),
        "rot at 0.35 must catch some but not all of {} shards: {dead:?}",
        summary.shards.len()
    );

    let survivors = d.join("survivor-store");
    survivor_store(&store_dir, &survivors, &dead);
    let clean = run_report_from_store(&survivors, ExecPolicy::default(), &VfsHandle::real())
        .expect("survivor store is clean");
    assert!(clean.is_complete(), "{:?}", clean.failed());
    assert_eq!(degraded.report, clean.report, "rot-degraded ≡ clean over survivors");
    assert_eq!(degraded.artifacts, clean.artifacts);
    let _ = fs::remove_dir_all(&d);
}

/// The `flaky` plan is transient noise only (short reads, EINTR, ghost
/// renames): generation *and* reporting through it must fully succeed
/// and stay byte-identical to the clean path — the retry discipline
/// absorbs every injected fault.
#[test]
fn flaky_io_is_fully_absorbed_end_to_end() {
    let d = tmpdir("flaky");
    let clean_cfg = cfg_at(sim(20220224), &d.join("out-clean"));
    let reference = run_report(&clean_cfg).expect("clean report");
    assert!(reference.is_complete());

    let mut cfg = cfg_at(sim(20220224), &d.join("out-flaky"));
    cfg.vfs = VfsHandle::faulty(IoFaultPlan::FLAKY);
    let store_dir = d.join("store");
    let (summary, _) = run_store_generate(&cfg, &store_dir).expect("flaky generate succeeds");
    assert!(summary.stats.rows > 0);
    assert_no_torn_files(&store_dir);

    // Report through a flaky VFS too: reads are absorbed the same way.
    let flaky = VfsHandle::faulty(IoFaultPlan::FLAKY);
    let outcome =
        run_report_from_store(&store_dir, ExecPolicy::default(), &flaky).expect("flaky report");
    assert!(outcome.is_complete(), "{:?}", outcome.failed());
    assert_eq!(outcome.report, reference.report, "flaky I/O must not change a byte");
    assert_eq!(outcome.artifacts, reference.artifacts);
    let _ = fs::remove_dir_all(&d);
}

// ---- torn checkpoints (property) ---------------------------------------

struct CkptBaseline {
    /// Every file the run left in its output directory, relative name →
    /// bytes; the directory itself is deleted once they are read.
    files: BTreeMap<String, Vec<u8>>,
    report: String,
    sim: SimConfig,
}

/// One checkpointed clean run, shared by every proptest case. Its files
/// are held in memory, so no directory outlives the test binary.
fn ckpt_baseline() -> &'static CkptBaseline {
    static BASE: OnceLock<CkptBaseline> = OnceLock::new();
    BASE.get_or_init(|| {
        let dir = tmpdir("ckpt-baseline");
        let sim = sim(20220224);
        let mut cfg = PipelineConfig::new(sim, dir.join("out"));
        cfg.checkpoints = true;
        let outcome = run_report(&cfg).expect("baseline report");
        assert!(outcome.is_complete());
        let files = files_under(&dir.join("out"));
        fs::remove_dir_all(&dir).expect("remove the baseline directory");
        CkptBaseline { files, report: outcome.report, sim }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Corrupt any checkpoint file (the manifest included) at any offset
    /// — truncation or a single bit flip — and a resume never panics,
    /// never trusts the bad bytes, and produces a byte-identical report.
    #[test]
    fn a_torn_checkpoint_never_panics_and_resume_reports_identically(
        file_pick in 0u64..1_000_000,
        offset_pick in 0u64..1_000_000,
        mode in 0u32..16,
    ) {
        let base = ckpt_baseline();
        let case = tmpdir(&format!("ckpt-case-{file_pick}-{offset_pick}-{mode}"));
        for (rel, bytes) in &base.files {
            let to = case.join("out").join(rel);
            fs::create_dir_all(to.parent().expect("file has a parent")).expect("mkdir");
            fs::write(&to, bytes).expect("write checkpoint copy");
        }

        let ckpt_dir = case.join("out").join(".ukraine-ndt");
        let mut names: Vec<String> = files_under(&ckpt_dir).into_keys().collect();
        names.sort();
        prop_assert!(!names.is_empty(), "baseline run left checkpoints");
        let victim = ckpt_dir.join(&names[(file_pick % names.len() as u64) as usize]);
        let mut bytes = fs::read(&victim).expect("read checkpoint");
        prop_assume!(!bytes.is_empty());
        let at = (offset_pick % bytes.len() as u64) as usize;
        if mode < 8 {
            bytes[at] ^= 1 << mode;
        } else {
            bytes.truncate(at);
        }
        fs::write(&victim, &bytes).expect("write corrupted checkpoint");

        let mut cfg = PipelineConfig::new(base.sim, case.join("out"));
        cfg.checkpoints = true;
        cfg.resume = true;
        let outcome = run_report(&cfg).expect("resume never dies on a torn checkpoint");
        prop_assert!(outcome.is_complete(), "{:?}", outcome.failed());
        prop_assert_eq!(&outcome.report, &base.report, "resumed report must be byte-identical");
        let _ = fs::remove_dir_all(&case);
    }
}

// ---- CLI: exit codes, metrics counters, chaos grid ---------------------

fn bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ukraine-ndt"));
    cmd.env_remove("UKRAINE_NDT_EXIT_AFTER")
        .env_remove("UKRAINE_NDT_PANIC_STAGE")
        .env_remove("UKRAINE_NDT_IO_FAULTS");
    cmd
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A store with two physically damaged shards: the CLI report exits with
/// the partial-success code and the `--metrics` artifact counts exactly
/// those shards (and their days) under the deterministic counters.
#[test]
fn cli_degraded_report_exits_partial_and_counts_quarantined_shards() {
    let d = tmpdir("cli-metrics");
    let cfg = cfg_at(sim(7), &d.join("out"));
    let store_dir = d.join("store");
    let (summary, _) = run_store_generate(&cfg, &store_dir).expect("generate");
    let dead = [summary.shards[0].clone(), summary.shards[3].clone()];
    let trunc = store_dir.join(format!("{}.unified.ndts", dead[0]));
    let bytes = fs::read(&trunc).expect("read");
    fs::write(&trunc, &bytes[..bytes.len() / 2]).expect("truncate");
    for suffix in [".unified.ndts", ".traces.ndts"] {
        fs::remove_file(store_dir.join(format!("{}{suffix}", dead[1]))).expect("delete");
    }

    let metrics = d.join("metrics.json");
    let out = bin()
        .args(["report", "--from-store"])
        .arg(&store_dir)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "partial success; stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("day(s) missing from input"), "coverage footer on stdout");

    let doc = fs::read_to_string(&metrics).expect("metrics artifact");
    assert!(
        doc.contains("\"store.shards_quarantined\": 2"),
        "quarantine counter in artifact:\n{doc}"
    );
    let days: u64 = dead.iter().map(|s| stem_days(s)).sum();
    assert!(
        doc.contains(&format!("\"store.days_missing\": {days}")),
        "missing-day counter in artifact:\n{doc}"
    );
    let _ = fs::remove_dir_all(&d);
}

/// The chaos grid: fault plans × kill points × thread counts. Every cell
/// must (a) exit with a status code — 0, partial success, the simulated
/// kill, or a clean I/O error — never a panic abort; (b) leave no torn
/// file behind; and (c) heal: a fault-free `--resume` converges to
/// artifacts byte-identical to an uninterrupted clean run.
#[test]
fn chaos_grid_never_panics_never_tears_and_heals_byte_identically() {
    let d = tmpdir("grid");
    let common = ["--scale", "0.01", "--seed", "77", "--quiet"];
    let export = |out_dir: &Path, extra: &[&str], env: &[(&str, &str)]| -> Output {
        let mut cmd = bin();
        cmd.args(["export"]).args(common).arg("--out").arg(out_dir).args(extra);
        for (k, v) in env {
            cmd.env(k, v);
        }
        cmd.output().expect("binary runs")
    };

    let clean_dir = d.join("clean");
    let clean = export(&clean_dir, &[], &[]);
    assert_eq!(clean.status.code(), Some(0), "stderr: {}", stderr_of(&clean));
    let reference: BTreeMap<String, Vec<u8>> = files_under(&clean_dir)
        .into_iter()
        .filter(|(name, _)| !name.starts_with(".ukraine-ndt"))
        .collect();

    let cells: &[(&str, Option<&str>, &str)] = &[
        ("flaky", None, "4"),
        ("flaky", Some("fig3"), "4"),
        ("torn", None, "4"),
        ("torn", Some("fig3"), "4"),
        ("chaos", None, "1"),
        ("chaos", None, "4"),
        ("chaos", Some("fig3"), "1"),
        ("chaos", Some("fig3"), "4"),
    ];
    for (i, (plan, kill, threads)) in cells.iter().enumerate() {
        let tag = format!("{plan}/kill={kill:?}/threads={threads}");
        let out_dir = d.join(format!("cell-{i}"));
        let env: Vec<(&str, &str)> = kill.map(|k| ("UKRAINE_NDT_EXIT_AFTER", k)).into_iter().collect();
        let run = export(&out_dir, &["--io-faults", plan, "--threads", threads], &env);
        let code = run.status.code();
        assert!(
            matches!(code, Some(0 | 1 | 3 | 42)),
            "{tag}: exited {code:?} (panic abort?); stderr: {}",
            stderr_of(&run)
        );
        assert!(
            !stderr_of(&run).contains("panicked at"),
            "{tag}: a stage panicked under I/O faults; stderr: {}",
            stderr_of(&run)
        );
        assert_no_torn_files(&out_dir);

        // Heal: fault-free resume must converge to the clean artifacts.
        let healed = export(&out_dir, &["--resume"], &[]);
        assert_eq!(healed.status.code(), Some(0), "{tag}: stderr: {}", stderr_of(&healed));
        let got: BTreeMap<String, Vec<u8>> = files_under(&out_dir)
            .into_iter()
            .filter(|(name, _)| !name.starts_with(".ukraine-ndt"))
            .collect();
        assert_eq!(
            got.keys().collect::<Vec<_>>(),
            reference.keys().collect::<Vec<_>>(),
            "{tag}: healed run must produce the full artifact set"
        );
        for (name, bytes) in &reference {
            assert_eq!(&got[name], bytes, "{tag}: artifact {name} differs after healing");
        }
    }
    let _ = fs::remove_dir_all(&d);
}

/// Store generation under write-side faults: the run may fail (torn
/// writes are not transient), but no visible shard file is ever torn,
/// and a fault-free resume completes the store so that its report is
/// byte-identical to a clean one.
#[test]
fn store_generate_under_write_faults_leaves_no_torn_shard_and_heals() {
    let d = tmpdir("store-chaos");
    let common = ["--scale", "0.01", "--seed", "9", "--quiet"];

    let clean_store = d.join("store-clean");
    let mut cmd = bin();
    cmd.args(["generate", "--format", "columnar"]).args(common).arg("--out").arg(&clean_store);
    let out = cmd.output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let mut cmd = bin();
    cmd.args(["report", "--from-store"]).arg(&clean_store);
    let reference = cmd.output().expect("binary runs");
    assert_eq!(reference.status.code(), Some(0), "stderr: {}", stderr_of(&reference));

    for plan in ["torn", "chaos"] {
        let store = d.join(format!("store-{plan}"));
        let mut cmd = bin();
        cmd.args(["generate", "--format", "columnar", "--io-faults", plan])
            .args(common)
            .arg("--out")
            .arg(&store);
        let chaotic = cmd.output().expect("binary runs");
        let code = chaotic.status.code();
        assert!(
            matches!(code, Some(0 | 1 | 3)),
            "{plan}: exited {code:?}; stderr: {}",
            stderr_of(&chaotic)
        );
        assert!(
            !stderr_of(&chaotic).contains("panicked at"),
            "{plan}: writer panicked; stderr: {}",
            stderr_of(&chaotic)
        );
        // An abrupt exit may strand *hidden* `.name.tmp.pid` files from
        // in-flight writer threads — the startup sweep owns those. No
        // temp may ever surface under a visible name, though.
        if store.exists() {
            assert_no_visible_torn_files(&store);
        }

        // Heal with faults off: resume sweeps any stranded temps, keeps
        // any shard that committed (committed ⇒ complete by the atomic
        // protocol) and writes the rest; the report must match the clean
        // store's byte for byte.
        let mut cmd = bin();
        cmd.args(["generate", "--format", "columnar", "--resume"])
            .args(common)
            .arg("--out")
            .arg(&store);
        let healed = cmd.output().expect("binary runs");
        assert_eq!(healed.status.code(), Some(0), "{plan}: stderr: {}", stderr_of(&healed));
        // The healing run's startup sweep removed any stranded temps.
        assert_no_torn_files(&store);
        let mut cmd = bin();
        cmd.args(["report", "--from-store"]).arg(&store);
        let report = cmd.output().expect("binary runs");
        assert_eq!(report.status.code(), Some(0), "{plan}: stderr: {}", stderr_of(&report));
        assert_eq!(
            String::from_utf8_lossy(&report.stdout),
            String::from_utf8_lossy(&reference.stdout),
            "{plan}: healed store must report byte-identically"
        );
    }
    let _ = fs::remove_dir_all(&d);
}

/// `UKRAINE_NDT_IO_FAULTS` is the env-var spelling of `--io-faults`, and
/// the flag wins when both are given.
#[test]
fn io_faults_env_var_is_honored_and_flag_wins() {
    let d = tmpdir("envvar");
    let cfg = cfg_at(sim(5), &d.join("out"));
    let store_dir = d.join("store");
    run_store_generate(&cfg, &store_dir).expect("generate");

    // ROT via env: some shards quarantine → exit 3.
    let mut cmd = bin();
    cmd.args(["report", "--from-store"])
        .arg(&store_dir)
        .env("UKRAINE_NDT_IO_FAULTS", "rot");
    let rotted = cmd.output().expect("binary runs");
    assert_eq!(rotted.status.code(), Some(3), "stderr: {}", stderr_of(&rotted));

    // The rot run physically moved shards to quarantine; restore them
    // so the override run below sees the full store again.
    let q = store_dir.join(QUARANTINE_DIR);
    if q.exists() {
        for e in fs::read_dir(&q).expect("readdir").filter_map(|e| e.ok()) {
            fs::rename(e.path(), store_dir.join(e.file_name())).expect("restore");
        }
    }

    // Env says rot, flag says none: the flag wins and the report is clean.
    let mut cmd = bin();
    cmd.args(["report", "--from-store"])
        .arg(&store_dir)
        .args(["--io-faults", "none"])
        .env("UKRAINE_NDT_IO_FAULTS", "rot");
    let clean = cmd.output().expect("binary runs");
    assert_eq!(clean.status.code(), Some(0), "stderr: {}", stderr_of(&clean));
    let _ = fs::remove_dir_all(&d);
}
