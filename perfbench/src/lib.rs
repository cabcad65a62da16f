//! # perfbench
//!
//! The repository's benchmark: three workloads (`generate`, `report`,
//! `serve`) run the `historical` scenario at scale 1 through the crates'
//! public API, print end-to-end metrics by name and unit, and check every
//! output. A traced run (`--trace 1`) calls each layer's public functions
//! one at a time and prints a per-layer breakdown that, with a signed
//! `unattributed` row, adds up to the workload's untraced wall time.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload report --seed 1 --seconds 20 --trace 0
//! ```
//!
//! All load comes from one process sized for two cores: a simulation
//! thread budget of 2, a server with 2 workers, and one open-loop
//! generator thread driving it over at most 2 connections. End-to-end
//! timings are reported at a reference host speed ([`host`]). The last
//! line of standard output is the JSON result; `perfbench/README.md` has
//! the metric glossary.

pub mod fixture;
pub mod gen;
pub mod host;
pub mod openloop;
pub mod out;
pub mod report;
pub mod serve;
pub mod stats;

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ndt_mlab::sim::SimConfig;
use ndt_runner::PipelineConfig;

pub use out::Outcome;

/// Simulation thread budget, server workers and client connections: the
/// benchmark is sized for a 2-core box and records the cores it saw.
pub const THREADS: usize = 2;

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_store_generate` into a fresh directory per unit.
    Generate,
    /// `run_report` with checkpoints off.
    Report,
    /// `Server` + `serve_tcp` over a scale-1 store, driven open loop.
    Serve,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "generate" => Some(Self::Generate),
            "report" => Some(Self::Report),
            "serve" => Some(Self::Serve),
            _ => None,
        }
    }

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::Generate => "generate",
            Self::Report => "report",
            Self::Serve => "serve",
        }
    }
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the simulator seed and the stage-mix seed.
    pub seed: u64,
    /// Simulation scale (1.0 unless a self-test shrinks it).
    pub scale: f64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Scratch directory for stores; removed when the run ends.
    pub work: PathBuf,
    /// This benchmark's executable, re-run as the fixture child.
    pub exe: PathBuf,
    /// The serve workload's load.
    pub load: openloop::Load,
}

impl Ctx {
    /// The simulator config every workload runs: the `historical`
    /// scenario at the context's scale and seed, thread budget 2.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            scale: self.scale,
            threads: THREADS,
            ..SimConfig::default()
        }
    }

    /// Pipeline config with checkpoints off (the CLI's `report` default).
    pub fn pipeline_config(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig::new(self.sim_config(), self.work.join("out"));
        cfg.checkpoints = false;
        cfg
    }

    /// True while the measured loop should start another unit: until
    /// `seconds` have passed since `start`, and at least `min_units`.
    pub fn more(&self, start: Instant, units: usize, min_units: usize) -> bool {
        units < min_units || start.elapsed() < Duration::from_secs_f64(self.seconds)
    }
}

const USAGE: &str = "usage: perfbench --workload generate|report|serve --seed N \
[--seconds S] [--trace 0|1]";

fn parse_args(args: &[String], exe: PathBuf, work: PathBuf) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        scale: 1.0,
        seconds,
        trace,
        work,
        exe,
        load: openloop::Load::DEFAULT,
    })
}

/// Command-line entry point; returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("--fixture") {
        return match fixture::child_main(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench fixture: {e}");
                1
            }
        };
    }
    if args.first().map(String::as_str) == Some("--setup") {
        let (mut seed, mut scale) = (None, None);
        for pair in args[1..].chunks(2) {
            match pair {
                [flag, value] if flag == "--seed" => seed = value.parse::<u64>().ok(),
                [flag, value] if flag == "--scale" => scale = value.parse::<f64>().ok(),
                _ => {}
            }
        }
        let (Some(seed), Some(scale)) = (seed, scale) else {
            eprintln!("perfbench setup: --seed and --scale are required");
            return 2;
        };
        gen::setup_child(seed, scale);
        return 0;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let work = Path::new(".perfbench-work").join(std::process::id().to_string());
    let ctx = match parse_args(args, exe, work) {
        Ok(ctx) => ctx,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return 2;
        }
    };
    let cpu0 = cpu_jiffies();
    let result = run(&ctx);
    let steal_pct = match (cpu0, cpu_jiffies()) {
        (Some((steal0, all0)), Some((steal1, all1))) if all1 > all0 => {
            100.0 * (steal1 - steal0) as f64 / (all1 - all0) as f64
        }
        _ => 0.0,
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Some(parent) = ctx.work.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(outcome) => {
            println!(
                "# provenance {}",
                provenance(&ctx, steal_pct, outcome.host.slowdown())
            );
            println!(
                "# {} {} metrics:",
                ctx.workload.name(),
                if ctx.trace { "per-layer" } else { "end-to-end" }
            );
            print!("{}", out::table(&outcome, ctx.trace));
            println!("{}", out::result_line(&outcome, ctx.trace));
            if outcome.correct {
                0
            } else {
                eprintln!(
                    "perfbench: output check failed ({} of {} operations)",
                    outcome.failed, outcome.attempted
                );
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload.name());
            1
        }
    }
}

/// Runs one workload in its scratch directory and fills in `fail_frac`.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    ndt_obs::set_verbosity(ndt_obs::Level::Warn);
    std::fs::create_dir_all(&ctx.work)?;
    let mut outcome = match ctx.workload {
        Workload::Generate => gen::run(ctx)?,
        Workload::Report => report::run(ctx)?,
        Workload::Serve => serve::run(ctx)?,
    };
    outcome.correct = outcome.correct && outcome.failed == 0 && outcome.attempted > 0;
    if !ctx.trace {
        outcome.host.to_reference(&mut outcome.e2e);
    }
    let frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.layers.set("fail_frac", frac);
    Ok(outcome)
}

/// Resets this process's peak-resident-set mark to its current resident
/// set (Linux `clear_refs` value 5), so the next [`peak_rss_mib`] reads
/// the peak of what ran in between. Where the kernel refuses, the mark
/// stays process-wide and the reading only ever grows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MiB; 0 where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Sets the traced run's `wall_s`, `unattributed_s` (wall minus the
/// layer rows; negative where overlap in the untraced run hides work)
/// and `trace_overhead_pct`.
pub fn close_breakdown(outcome: &mut Outcome, wall: f64, traced_wall: f64) {
    let layers: f64 = outcome.breakdown.iter().map(|(_, s)| s).sum();
    outcome.layers.set("wall_s", wall);
    outcome.layers.set("unattributed_s", wall - layers);
    let overhead = if wall > 0.0 {
        100.0 * (traced_wall - wall) / wall
    } else {
        0.0
    };
    outcome.layers.set("trace_overhead_pct", overhead);
}

/// `(steal, total)` CPU time of the whole machine so far, in clock
/// ticks, from `/proc/stat`; `None` where it is unavailable.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// One-line JSON provenance: cores, source identity, seed, scale, thread
/// budget, the serve load, the share of CPU time the hypervisor stole
/// during the run, and how much slower than the reference speed the host
/// ran (`p50_ms` and `p99_ms` are already divided by it; multiply them
/// back for the raw wall).
pub fn provenance(ctx: &Ctx, steal_pct: f64, host_slowdown: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"nproc\": {nproc}, \"commit\": \"{}\", \"source_fnv64\": \"{:016x}\", \
\"seed\": {}, \"scale\": {}, \"seconds\": {}, \"trace\": {}, \"thread_budget\": {THREADS}, \
\"serve_workers\": {THREADS}, \"client_connections\": {THREADS}, \"serve_nominal_rps\": {}, \
\"serve_nominal_requests\": {}, \"serve_saturation_requests\": {}, \"cpu_steal_pct\": {steal_pct:.1}, \
\"host_slowdown\": {host_slowdown:.4}}}",
        ctx.workload.name(),
        git_commit(),
        source_fingerprint(Path::new(".")),
        ctx.seed,
        ctx.scale,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.load.nominal,
        ctx.load.nominal_requests,
        ctx.load.saturation_requests,
    )
}

fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// FNV-1a over the relative paths and bytes of the sources the benchmark
/// builds from, so a checkout without git history still names its code.
pub fn source_fingerprint(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "compat", "src", "perfbench/src"] {
        walk(&root.join(top), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        eat(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            eat(&bytes);
        }
    }
    h
}
