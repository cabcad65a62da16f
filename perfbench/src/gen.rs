//! The `generate` workload: `run_store_generate` into a fresh, empty
//! directory per unit. The simulator and the store writer do nearly all
//! the work; analysis and serving do none.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use ndt_mlab::columnar::{write_traces, write_unified};
use ndt_mlab::{Dataset, SimConfig, Simulator};
use ndt_runner::{run_store_generate, write_atomic, StageStatus, CORPUS_SHARD_DAYS};
use ndt_store::Shard;
use ndt_topology::{build_topology, TopologyConfig};

use crate::stats::{fastest, median};
use crate::{close_breakdown, Ctx, Outcome};

/// Units a run measures even when `--seconds` is shorter.
const MIN_UNITS: usize = 3;

/// Current value of a deterministic `ndt-obs` work counter.
pub fn counter(name: &str) -> u64 {
    ndt_obs::global().counter(name)
}

/// `Simulator::new` children an untraced generate or report run starts
/// before each unit and after the last.
const SETUP_PER_GAP: usize = 2;

/// `n` wall times of `Simulator::new` for the run's config: topology,
/// client pool, alias clusters and site dispatch. Every generate and
/// report unit pays it. Each sample comes from a fresh child process
/// (this executable run with `--setup`): the time is steady within a
/// process but differs by up to 1.6x between processes, and a user pays
/// it once per process.
pub fn sim_setup_times(ctx: &Ctx, n: usize) -> io::Result<Vec<f64>> {
    let mut times = Vec::new();
    for _ in 0..n {
        let output = std::process::Command::new(&ctx.exe)
            .args([
                "--setup",
                "--seed",
                &ctx.seed.to_string(),
                "--scale",
                &ctx.scale.to_string(),
            ])
            .output()?;
        let text = String::from_utf8_lossy(&output.stdout);
        let secs = text
            .trim()
            .strip_prefix("SETUP_S ")
            .and_then(|v| v.parse::<f64>().ok());
        match secs {
            Some(secs) if output.status.success() => times.push(secs),
            _ => return Err(io::Error::other(format!("setup child failed: {text:?}"))),
        }
    }
    Ok(times)
}

/// What an untraced generate or report run does between units, and
/// after the last: [`SETUP_PER_GAP`] set-up children, then a host-speed
/// sample. `setup_s` is the fastest child of the run. On a shared host
/// the set-up child took either about 0.2 s or about 0.4 s, in stretches
/// of several seconds (a neighbour on the same core, or not): a median,
/// or children started all at once, reported which stretch the run fell
/// in; the fastest of children spread over the run reports the program.
pub fn between_units(ctx: &Ctx, o: &mut Outcome, setup: &mut Vec<f64>) -> io::Result<()> {
    setup.extend(sim_setup_times(ctx, SETUP_PER_GAP)?);
    o.host.sample();
    Ok(())
}

/// Body of the `--setup --seed N --scale F` child: one `Simulator::new`.
pub fn setup_child(seed: u64, scale: f64) {
    let cfg = SimConfig {
        seed,
        scale,
        threads: crate::THREADS,
        ..SimConfig::default()
    };
    let t = Instant::now();
    let sim = black_box(Simulator::new(cfg));
    println!("SETUP_S {}", t.elapsed().as_secs_f64());
    drop(sim);
}

/// Result of checking one store directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCheck {
    /// Shards checked.
    pub shards: usize,
    /// Shards that failed: a file that does not reopen or fails its
    /// payload checksums — or every shard, when the row totals disagree
    /// with what the simulator published.
    pub bad: usize,
}

/// Reopens both files of every shard stem, verifies every page payload,
/// and checks that the shards' rows add up to `expected_rows` unified
/// rows and `expected_traces` trace rows.
pub fn check_store(
    dir: &Path,
    stems: &[String],
    expected_rows: u64,
    expected_traces: u64,
) -> StoreCheck {
    let open = |stem: &str, table: &str| -> Option<u64> {
        let shard = Shard::open(dir.join(format!("{stem}.{table}.ndts"))).ok()?;
        shard.verify_payloads().ok()?;
        Some(shard.rows())
    };
    let (mut bad, mut rows, mut traces) = (0, 0, 0);
    for stem in stems {
        match (open(stem, "unified"), open(stem, "traces")) {
            (Some(u), Some(t)) => {
                rows += u;
                traces += t;
            }
            _ => bad += 1,
        }
    }
    if rows != expected_rows || traces != expected_traces {
        bad = stems.len();
    }
    StoreCheck {
        shards: stems.len(),
        bad,
    }
}

struct Unit {
    wall: f64,
    tests: u64,
    ratio: f64,
    rss_mib: f64,
}

/// One untimed-checked `run_store_generate`; counts shard records.
fn untraced_unit(ctx: &Ctx, dir: &Path, o: &mut Outcome) -> io::Result<Unit> {
    let _ = std::fs::remove_dir_all(dir);
    let (rows0, traces0, tests0) = (
        counter("sim.ndt_rows_published"),
        counter("sim.traces_published"),
        counter("sim.tests"),
    );
    crate::reset_peak_rss();
    let t = Instant::now();
    let (summary, records) = run_store_generate(&ctx.pipeline_config(), dir)?;
    let wall = t.elapsed().as_secs_f64();
    let rss_mib = crate::peak_rss_mib();
    let check = check_store(
        dir,
        &summary.shards,
        counter("sim.ndt_rows_published") - rows0,
        counter("sim.traces_published") - traces0,
    );
    let not_computed = records
        .iter()
        .filter(|r| r.status != StageStatus::Computed)
        .count();
    o.attempted += records.len() as u64;
    o.failed += check.bad.max(not_computed) as u64;
    let _ = std::fs::remove_dir_all(dir);
    let ratio = summary.stats.bytes_file as f64 / summary.stats.bytes_raw.max(1) as f64;
    Ok(Unit {
        wall,
        tests: counter("sim.tests") - tests0,
        ratio,
        rss_mib,
    })
}

/// Simulator layer times of one traced unit, in seconds.
pub struct SimTrace {
    /// `build_topology`.
    pub topology: f64,
    /// `Simulator::new` minus its topology build.
    pub setup: f64,
    /// `Simulator::run_range`, one entry per 27-day shard.
    pub shards: Vec<f64>,
    /// Tests simulated.
    pub tests: u64,
    /// Unified rows published.
    pub rows: u64,
    /// Trace rows published.
    pub traces: u64,
}

/// Calls the simulator's layers one at a time for the run's config —
/// `build_topology`, `Simulator::new`, then `Simulator::run_range` per
/// 27-day shard — and returns their times with each shard's day range
/// and dataset.
pub fn simulate_traced(ctx: &Ctx) -> (SimTrace, Vec<(std::ops::Range<i64>, Dataset)>) {
    let cfg = ctx.sim_config();
    let (rows0, traces0, tests0) = (
        counter("sim.ndt_rows_published"),
        counter("sim.traces_published"),
        counter("sim.tests"),
    );
    let t = Instant::now();
    drop(black_box(build_topology(&TopologyConfig::default())));
    let topology = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut sim = Simulator::new(cfg);
    let setup = (t.elapsed().as_secs_f64() - topology).max(0.0);
    let mut shards = Vec::new();
    let mut parts = Vec::new();
    for range in cfg.shards(CORPUS_SHARD_DAYS) {
        let t = Instant::now();
        let part = sim.run_range(range.clone());
        shards.push(t.elapsed().as_secs_f64());
        parts.push((range, part));
    }
    let trace = SimTrace {
        topology,
        setup,
        shards,
        tests: counter("sim.tests") - tests0,
        rows: counter("sim.ndt_rows_published") - rows0,
        traces: counter("sim.traces_published") - traces0,
    };
    (trace, parts)
}

/// Sets the `topology.*` and `mlab.*` per-layer metrics from the median
/// of the traced units, and returns their breakdown rows.
pub fn sim_layers(o: &mut Outcome, traced: &[&SimTrace], wall: f64) -> Vec<(String, f64)> {
    let med =
        |f: &dyn Fn(&SimTrace) -> f64| median(&traced.iter().map(|t| f(t)).collect::<Vec<_>>());
    let max = |t: &SimTrace| t.shards.iter().copied().fold(0.0, f64::max);
    let sim = med(&|t| t.shards.iter().sum());
    let (topology, setup) = (med(&|t| t.topology), med(&|t| t.setup));
    let last = traced.last().expect("trace mode runs at least two units");
    let l = &mut o.layers;
    l.set("topology.build_ms", topology * 1e3);
    l.set("mlab.setup_ms", setup * 1e3);
    l.set("mlab.sim_ns_per_test", sim * 1e9 / last.tests.max(1) as f64);
    l.set("mlab.sim_share", sim / wall);
    l.set("mlab.shard_ms_max", med(&max) * 1e3);
    l.set(
        "mlab.shard_skew",
        med(&|t| max(t) / crate::stats::mean(&t.shards)),
    );
    l.set("mlab.tests", last.tests as f64);
    l.set("mlab.rows", last.rows as f64);
    l.set("mlab.traces", last.traces as f64);
    vec![
        ("topology.build".into(), topology),
        ("mlab.setup".into(), setup),
        ("mlab.sim".into(), sim),
    ]
}

/// Layer times of one traced generate unit, in seconds.
struct Traced {
    sim: SimTrace,
    encode: f64,
    write: f64,
    bytes_encoded: u64,
    wall: f64,
}

/// The same store, built by calling each layer from here: the simulator
/// layers of [`simulate_traced`], then per shard `write_unified` /
/// `write_traces` into memory and `write_atomic` of the encoded bytes.
fn traced_unit(ctx: &Ctx, dir: &Path, o: &mut Outcome) -> io::Result<Traced> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let start = Instant::now();
    let (sim, parts) = simulate_traced(ctx);
    let (mut encode, mut write, mut bytes_encoded) = (0.0, 0.0, 0);
    let mut stems = Vec::new();
    for (range, part) in parts {
        let t = Instant::now();
        let (unified, ustats) = write_unified(Vec::new(), &part.ndt).map_err(|e| e.into_io())?;
        let (traces, tstats) = write_traces(Vec::new(), &part.traces).map_err(|e| e.into_io())?;
        encode += t.elapsed().as_secs_f64();
        bytes_encoded += ustats.bytes_encoded + tstats.bytes_encoded;
        let stem = format!("shard-{:03}-{:03}", range.start, range.end);
        let t = Instant::now();
        write_atomic(dir.join(format!("{stem}.unified.ndts")), &unified)?;
        write_atomic(dir.join(format!("{stem}.traces.ndts")), &traces)?;
        write += t.elapsed().as_secs_f64();
        stems.push(stem);
    }
    let wall = start.elapsed().as_secs_f64();
    let check = check_store(dir, &stems, sim.rows, sim.traces);
    o.attempted += check.shards as u64;
    o.failed += check.bad as u64;
    let _ = std::fs::remove_dir_all(dir);
    Ok(Traced {
        sim,
        encode,
        write,
        bytes_encoded,
        wall,
    })
}

/// Runs the workload: untraced units (end-to-end metrics) or, with
/// `--trace 1`, untraced and traced units alternately (per-layer metrics).
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut setup = Vec::new();
    let dir = ctx.work.join("store");
    let (mut walls, mut rss, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tests, mut ratio) = (0, 0.0);
    let start = Instant::now();
    while ctx.more(start, walls.len(), if ctx.trace { 2 } else { MIN_UNITS }) {
        if !ctx.trace {
            between_units(ctx, &mut o, &mut setup)?;
        }
        let unit = untraced_unit(ctx, &dir, &mut o)?;
        walls.push(unit.wall);
        rss.push(unit.rss_mib);
        (tests, ratio) = (unit.tests, unit.ratio);
        if ctx.trace {
            traced.push(traced_unit(ctx, &dir, &mut o)?);
        }
    }
    let wall = median(&walls);
    if !ctx.trace {
        between_units(ctx, &mut o, &mut setup)?;
        o.e2e.set("setup_s", fastest(&setup));
        let slowest = walls.iter().copied().fold(0.0, f64::max);
        o.e2e.set("p50_ms", wall * 1e3);
        o.e2e.set("p99_ms", slowest * 1e3);
        o.e2e.set("throughput_per_s", tests as f64 / wall);
        o.e2e.set("store_bytes_per_raw", ratio);
        // The first unit runs as a user's one-off command would; later
        // units would also measure what the allocator kept from earlier ones.
        o.e2e.set("peak_rss_mb", rss[0]);
        return Ok(o);
    }
    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let (encode, write) = (med(&|t| t.encode), med(&|t| t.write));
    let sims: Vec<&SimTrace> = traced.iter().map(|t| &t.sim).collect();
    o.breakdown = sim_layers(&mut o, &sims, wall);
    let last = sims.last().expect("trace mode runs at least two units");
    let (rows, bytes) = (
        last.rows + last.traces,
        traced.last().map_or(0, |t| t.bytes_encoded),
    );
    o.layers
        .set("store.encode_ns_per_row", encode * 1e9 / rows.max(1) as f64);
    o.layers.set("store.bytes_encoded", bytes as f64);
    o.layers.set("runner.write_ms", write * 1e3);
    o.breakdown.push(("store.encode".into(), encode));
    o.breakdown.push(("runner.write".into(), write));
    let traced_wall = med(&|t| t.wall);
    close_breakdown(&mut o, wall, traced_wall);
    Ok(o)
}
