//! The untimed scale-1 store the `report` check and the `serve` workload
//! read. It is built by a child process (this executable re-run with
//! `--fixture`), so its memory never shows in the workload's
//! `peak_rss_mb`.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use ndt_mlab::sim::SimConfig;
use ndt_runner::{
    run_report_from_store_with, run_store_generate, ExecPolicy, PipelineConfig, ScanEngine,
};
use ndt_vfs::VfsHandle;

use crate::{Ctx, THREADS};

/// What the child reports about the store it built.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixtureInfo {
    /// Bytes on disk, headers included.
    pub bytes_file: u64,
    /// Raw little-endian size of the same values.
    pub bytes_raw: u64,
}

impl FixtureInfo {
    /// `store_bytes_per_raw`.
    pub fn ratio(&self) -> f64 {
        self.bytes_file as f64 / self.bytes_raw.max(1) as f64
    }
}

/// Builds the fixture store for `ctx` in `dir` (in a child process) and,
/// when `report` is given, writes `run_report_from_store_with` over it
/// (vectorized engine, thread budget 2) to that file.
pub fn build(ctx: &Ctx, dir: &Path, report: Option<&Path>) -> io::Result<FixtureInfo> {
    let mut cmd = Command::new(&ctx.exe);
    cmd.arg("--fixture").arg(dir).args([
        "--seed",
        &ctx.seed.to_string(),
        "--scale",
        &ctx.scale.to_string(),
    ]);
    if let Some(path) = report {
        cmd.arg("--report").arg(path);
    }
    let output = cmd.output()?;
    if !output.status.success() {
        return Err(io::Error::other(format!(
            "fixture child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let field = |key: &str| -> Option<u64> {
        text.split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    match (field("bytes_file="), field("bytes_raw=")) {
        (Some(bytes_file), Some(bytes_raw)) => Ok(FixtureInfo {
            bytes_file,
            bytes_raw,
        }),
        _ => Err(io::Error::other(format!(
            "fixture child printed no stats: {text:?}"
        ))),
    }
}

/// Body of the `--fixture DIR --seed N --scale F [--report FILE]` child.
pub fn child_main(args: &[String]) -> io::Result<()> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidInput, what.to_string());
    let dir = PathBuf::from(
        args.first()
            .ok_or_else(|| bad("--fixture needs a directory"))?,
    );
    let mut seed = None;
    let mut scale = None;
    let mut report = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| bad("flag without value"))?;
        match flag.as_str() {
            "--seed" => seed = value.parse::<u64>().ok(),
            "--scale" => scale = value.parse::<f64>().ok(),
            "--report" => report = Some(PathBuf::from(value)),
            _ => return Err(bad("unknown fixture flag")),
        }
    }
    let sim = SimConfig {
        seed: seed.ok_or_else(|| bad("--seed"))?,
        scale: scale.ok_or_else(|| bad("--scale"))?,
        threads: THREADS,
        ..SimConfig::default()
    };
    ndt_obs::set_verbosity(ndt_obs::Level::Warn);
    let mut cfg = PipelineConfig::new(sim, dir.join("out"));
    cfg.checkpoints = false;
    let _ = std::fs::remove_dir_all(&dir);
    let (summary, _) = run_store_generate(&cfg, &dir)?;
    if let Some(path) = report {
        let vfs = VfsHandle::real();
        let out = run_report_from_store_with(
            &dir,
            ExecPolicy::default(),
            &vfs,
            ScanEngine::Vectorized,
            THREADS,
        )?;
        if !out.is_complete() {
            return Err(io::Error::other(format!(
                "report over the fixture failed: {:?}",
                out.failed()
            )));
        }
        std::fs::write(path, out.report)?;
    }
    println!(
        "FIXTURE rows={} bytes_file={} bytes_raw={}",
        summary.stats.rows, summary.stats.bytes_file, summary.stats.bytes_raw
    );
    Ok(())
}
