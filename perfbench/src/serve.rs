//! The `serve` workload: `Server` (2 workers, cache off) behind
//! `serve_tcp` over a scale-1 fixture store, driven open loop at a
//! nominal rate and then saturated, with a seeded stage mix. The store scan and the
//! vectorized ingest happen at boot, inside `setup_s`; the simulator and
//! the store writer do nothing.

use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ndt_analysis::{run_analysis_stage, StudyData, ANALYSIS_STAGES};
use ndt_mlab::columnar::{scan_traces, scan_unified_batches, RowFilter};
use ndt_runner::{load_study_data_with, read_store_fingerprint, ScanEngine, STORE_MANIFEST};
use ndt_serve::{fetch, serve_tcp, Reply, Request, ServeConfig, ServeStats, Server, ServerHandle};
use ndt_store::Shard;
use ndt_vfs::VfsHandle;

use crate::openloop::{deck, drive, Pass, SATURATION_RATE};
use crate::out::stage_metric;
use crate::stats::{fastest, median, percentile, tail};
use crate::{close_breakdown, fixture, Ctx, Outcome, THREADS};

/// Client-side socket timeout; generous, it only bounds a wedged peer.
const FETCH_TIMEOUT: Duration = Duration::from_secs(30);

/// A booted server: worker pool plus the TCP front on a loopback port.
pub struct Booted {
    server: Server,
    /// In-process submission handle.
    pub handle: ServerHandle,
    /// `host:port` of the TCP front.
    pub addr: String,
    /// The corpus the server answers from.
    pub data: Arc<StudyData>,
    shutdown: Arc<AtomicBool>,
    net: JoinHandle<io::Result<()>>,
}

impl Booted {
    /// Starts `Server` with 2 workers and the cache off over `data`, binds
    /// a loopback listener and runs `serve_tcp` on it.
    pub fn start(data: Arc<StudyData>, fingerprint: u64) -> io::Result<Booted> {
        let cfg = ServeConfig {
            workers: THREADS,
            cache: false,
            ..ServeConfig::default()
        };
        let server = Server::start(Arc::clone(&data), fingerprint, cfg);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (handle, flag) = (server.handle(), Arc::clone(&shutdown));
        let net = std::thread::spawn(move || serve_tcp(listener, handle, flag));
        Ok(Booted {
            handle: server.handle(),
            server,
            addr,
            data,
            shutdown,
            net,
        })
    }

    /// Loads the store (vectorized engine, thread budget 2) and starts.
    pub fn boot(dir: &Path) -> io::Result<Booted> {
        let (data, fingerprint) = load(dir)?;
        Booted::start(Arc::new(data), fingerprint)
    }

    /// Stops admission, drains the server and joins the TCP front.
    pub fn stop(self) -> io::Result<ServeStats> {
        self.shutdown.store(true, Ordering::SeqCst);
        let stats = self.server.drain();
        self.net
            .join()
            .map_err(|_| io::Error::other("serve_tcp thread panicked"))??;
        Ok(stats)
    }

    /// One request over a fresh TCP connection.
    pub fn fetch(&self, stage: &str) -> io::Result<Reply> {
        fetch(&self.addr, &Request::new(stage), FETCH_TIMEOUT)
    }
}

/// `load_study_data_with(.., Vectorized, 2)`; a quarantined shard fails
/// the load, since the fixture was just written.
fn load(dir: &Path) -> io::Result<(StudyData, u64)> {
    let vfs = VfsHandle::real();
    let fingerprint = read_store_fingerprint(&vfs, dir)?;
    let (data, records) = load_study_data_with(&vfs, dir, ScanEngine::Vectorized, THREADS)?;
    if let Some(r) = records.first() {
        return Err(io::Error::other(format!(
            "fixture store degraded: {}",
            r.name
        )));
    }
    Ok((data, fingerprint))
}

/// Every stage's expected reply body — `run_analysis_stage` called
/// directly, framed as the server frames it — and each call's seconds.
pub fn expected_bodies(data: &StudyData) -> io::Result<(HashMap<&'static str, String>, Vec<f64>)> {
    let mut bodies = HashMap::new();
    let mut secs = Vec::new();
    for spec in &ANALYSIS_STAGES {
        let t = Instant::now();
        let out =
            run_analysis_stage(spec.name, data).map_err(|e| io::Error::other(e.to_string()))?;
        secs.push(t.elapsed().as_secs_f64());
        bodies.insert(spec.name, format!("== {} ==\n{}", spec.title, out.section));
    }
    Ok((bodies, secs))
}

/// Whether a TCP reply is an `OK` carrying exactly `expected`. Any other
/// reply — shed, deadline, error, transport failure or a wrong body —
/// is a failed request.
pub fn reply_ok(reply: &io::Result<Reply>, expected: &str) -> bool {
    matches!(reply, Ok(Reply::Ok(body)) if body == expected)
}

/// Runs one open-loop pass over TCP, checking every reply body.
pub fn tcp_pass(
    b: &Booted,
    bodies: &HashMap<&'static str, String>,
    rate: f64,
    stages: &[&'static str],
) -> Pass {
    drive(rate, stages, |stage| {
        reply_ok(&b.fetch(stage), &bodies[stage])
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let dir = ctx.work.join("fixture");
    let info = fixture::build(ctx, &dir, None)?;
    if ctx.trace {
        traced(ctx, &dir, &mut o)?;
        return Ok(o);
    }
    o.host.sample();
    crate::reset_peak_rss();
    let mut boots = Vec::new();
    let b = boot_batch(&dir, &mut boots)?;
    let (bodies, _) = expected_bodies(&b.data)?;
    let load = &ctx.load;
    o.host.sample();
    let nominal = tcp_pass(
        &b,
        &bodies,
        load.nominal,
        &deck(load.nominal_requests, ctx.seed),
    );
    o.host.sample();
    let saturated = tcp_pass(
        &b,
        &bodies,
        SATURATION_RATE,
        &deck(load.saturation_requests, ctx.seed ^ 1),
    );
    for pass in [&nominal, &saturated] {
        o.attempted += pass.samples.len() as u64;
        o.failed += pass.failures() as u64;
    }
    o.host.sample();
    let lat = nominal.latencies();
    o.e2e.set("p50_ms", median(&lat));
    o.e2e.set("p99_ms", percentile(&lat, 0.99));
    o.e2e.set("throughput_per_s", saturated.completion_rate());
    b.stop()?;
    o.e2e.set("peak_rss_mb", crate::peak_rss_mib());
    boot_batch(&dir, &mut boots)?.stop()?;
    o.e2e.set("setup_s", fastest(&boots));
    o.e2e.set("store_bytes_per_raw", info.ratio());
    Ok(o)
}

/// Server boots in each of a run's two batches.
const BOOTS: usize = 7;

/// Boots the server [`BOOTS`] times in a row, pushing each
/// boot's seconds, and returns the last one running. A run calls it once
/// before the load and once after; `setup_s` is the fastest boot, as
/// for the simulator's set-up in `generate`.
fn boot_batch(dir: &Path, boots: &mut Vec<f64>) -> io::Result<Booted> {
    let mut server: Option<Booted> = None;
    for _ in 0..BOOTS {
        if let Some(b) = server.take() {
            b.stop()?;
        }
        let t = Instant::now();
        server = Some(Booted::boot(dir)?);
        boots.push(t.elapsed().as_secs_f64());
    }
    server.ok_or_else(|| io::Error::other("no boot"))
}

/// Store scan alone: `Shard::open` + `scan_unified_batches` /
/// `scan_traces` over every shard pair, pairs split across the thread
/// budget as the loader splits them. Returns seconds, rows, pages.
fn scan_store(dir: &Path) -> io::Result<(f64, u64, u64)> {
    let manifest = std::fs::read_to_string(dir.join(STORE_MANIFEST))?;
    let stems: Vec<&str> = manifest
        .lines()
        .filter_map(|l| l.strip_prefix("shard "))
        .collect();
    let next = AtomicUsize::new(0);
    let scan_pair = |stem: &str| -> Result<(u64, u64), ndt_store::StoreError> {
        let unified = Shard::open(dir.join(format!("{stem}.unified.ndts")))?;
        let u = scan_unified_batches(&unified, RowFilter::default(), |b| drop(black_box(b)))?;
        let traces = Shard::open(dir.join(format!("{stem}.traces.ndts")))?;
        let (rows, t) = scan_traces(&traces, RowFilter::default())?;
        drop(black_box(rows));
        Ok((
            u.rows_emitted + t.rows_emitted,
            u.pages_decoded + t.pages_decoded,
        ))
    };
    let t = Instant::now();
    let per_thread: Vec<io::Result<(u64, u64)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let (mut rows, mut pages) = (0, 0);
                    while let Some(stem) = stems.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (r, p) = scan_pair(stem).map_err(|e| e.into_io())?;
                        rows += r;
                        pages += p;
                    }
                    Ok((rows, pages))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err(io::Error::other("scan thread panicked")))
            })
            .collect()
    });
    let secs = t.elapsed().as_secs_f64();
    let (mut rows, mut pages) = (0, 0);
    for r in per_thread {
        let (r, p) = r?;
        rows += r;
        pages += p;
    }
    Ok((secs, rows, pages))
}

/// Layer times of one traced serve unit, in seconds.
struct Traced {
    scan: f64,
    load: f64,
    start: f64,
    stages: Vec<f64>,
    /// Per-request cost of `ServerHandle::submit` over a direct call.
    overhead: f64,
    /// Per-request cost of a TCP `fetch` over `ServerHandle::submit`.
    net: f64,
    wall: f64,
    rows: u64,
    pages: u64,
    unified_rows: u64,
}

/// Requests per path in the traced unit's per-request cost probe.
const PROBES: usize = 25;

/// The untraced serve unit: boot, then one client pulls all 18 sections
/// over TCP, one after another. Returns its wall seconds.
fn served_report(
    dir: &Path,
    bodies: &HashMap<&'static str, String>,
    o: &mut Outcome,
) -> io::Result<f64> {
    let t = Instant::now();
    let b = Booted::boot(dir)?;
    for spec in &ANALYSIS_STAGES {
        o.attempted += 1;
        o.failed += u64::from(!reply_ok(&b.fetch(spec.name), &bodies[spec.name]));
    }
    let wall = t.elapsed().as_secs_f64();
    b.stop()?;
    Ok(wall)
}

/// The same unit, one layer at a time: scan, load (scan + vectorized
/// ingest), server start, and each stage called directly. The server's
/// and the network's per-request cost come from `fig1` (well under a
/// millisecond of analysis) called directly, through
/// `ServerHandle::submit` and over TCP, [`PROBES`] times each; summing
/// heavy stages run both ways instead would bury them in run-to-run
/// noise of the stage times.
fn traced_unit(dir: &Path, o: &mut Outcome) -> io::Result<(Traced, HashMap<&'static str, String>)> {
    let t0 = Instant::now();
    let (scan, rows, pages) = scan_store(dir)?;
    let t = Instant::now();
    let (data, fingerprint) = load(dir)?;
    let load = t.elapsed().as_secs_f64();
    let unified_rows = data.unified_len() as u64;
    let t = Instant::now();
    let b = Booted::start(Arc::new(data), fingerprint)?;
    let start = t.elapsed().as_secs_f64();
    let (bodies, stages) = expected_bodies(&b.data)?;
    let probe = "fig1";
    let timed = |call: &dyn Fn() -> bool, o: &mut Outcome| -> f64 {
        let times: Vec<f64> = (0..PROBES)
            .map(|_| {
                let t = Instant::now();
                let ok = call();
                o.attempted += 1;
                o.failed += u64::from(!ok);
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&times)
    };
    let direct = timed(&|| run_analysis_stage(probe, &b.data).is_ok(), o);
    let submit = timed(
        &|| matches!(b.handle.submit(probe, None), Ok(body) if *body == bodies[probe]),
        o,
    );
    let tcp = timed(&|| reply_ok(&b.fetch(probe), &bodies[probe]), o);
    let wall = t0.elapsed().as_secs_f64();
    b.stop()?;
    Ok((
        Traced {
            scan,
            load,
            start,
            stages,
            overhead: submit - direct,
            net: tcp - submit,
            wall,
            rows,
            pages,
            unified_rows,
        },
        bodies,
    ))
}

/// The traced run: alternating traced and untraced units, then the
/// nominal pass once in process (`ServerHandle::submit`) and once over
/// TCP on the same schedule and mix.
fn traced(ctx: &Ctx, dir: &Path, o: &mut Outcome) -> io::Result<()> {
    let (mut walls, mut units, mut bodies) = (Vec::new(), Vec::new(), HashMap::new());
    let start = Instant::now();
    while walls.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let (unit, b) = traced_unit(dir, o)?;
        units.push(unit);
        bodies = b;
        walls.push(served_report(dir, &bodies, o)?);
    }
    let b = Booted::boot(dir)?;
    let load = &ctx.load;
    let stages = deck(load.nominal_requests, ctx.seed);
    let before = b.handle.stats();
    let inproc = drive(
        load.nominal,
        &stages,
        |stage| matches!(b.handle.submit(stage, None), Ok(body) if *body == bodies[stage]),
    );
    let tcp = tcp_pass(&b, &bodies, load.nominal, &stages);
    let stats = b.stop()?;
    for pass in [&inproc, &tcp] {
        o.attempted += pass.samples.len() as u64;
        o.failed += pass.failures() as u64;
    }

    let wall = median(&walls);
    let med = |f: &dyn Fn(&Traced) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    let (scan, load, boot) = (med(&|t| t.scan), med(&|t| t.load), med(&|t| t.start));
    let ingest = load - scan;
    let last = units.last().expect("at least two traced units");
    let l = &mut o.layers;
    l.set(
        "store.scan_ns_per_row",
        scan * 1e9 / last.rows.max(1) as f64,
    );
    l.set("store.pages_read", last.pages as f64);
    l.set(
        "bq.ingest_vectorized_ns_per_row",
        ingest * 1e9 / last.unified_rows.max(1) as f64,
    );
    o.breakdown = vec![
        ("store.scan".into(), scan),
        ("bq.ingest_vectorized".into(), ingest),
        ("serve.start".into(), boot),
    ];
    let mut analysis = 0.0;
    for (i, spec) in ANALYSIS_STAGES.iter().enumerate() {
        let secs = med(&|t| t.stages[i]);
        analysis += secs;
        o.layers.set(&stage_metric(spec.name), secs * 1e3);
        o.breakdown.push((format!("analysis.{}", spec.name), secs));
    }
    let requests = ANALYSIS_STAGES.len() as f64;
    let (overhead, net) = (requests * med(&|t| t.overhead), requests * med(&|t| t.net));
    let l = &mut o.layers;
    l.set("analysis.share", analysis / wall);
    l.set("serve.start_ms", boot * 1e3);
    l.set("serve.overhead_ms", overhead * 1e3);
    l.set("serve.net_ms", net * 1e3);
    o.breakdown.push(("serve.overhead".into(), overhead));
    o.breakdown.push(("serve.net".into(), net));
    let (in_lat, tcp_lat) = (inproc.latencies(), tcp.latencies());
    let l = &mut o.layers;
    l.set("serve.inproc_p50_ms", median(&in_lat));
    l.set("serve.inproc_p99_ms", percentile(&in_lat, 0.99));
    l.set("serve.net_p50_ms", median(&tcp_lat) - median(&in_lat));
    let lag: Vec<f64> = tcp
        .samples
        .iter()
        .chain(&inproc.samples)
        .map(|s| s.gen_lag_ms)
        .collect();
    l.set("serve.gen_lag_ms", tail(&lag, 10));
    l.set("serve.accepted", (stats.accepted - before.accepted) as f64);
    l.set("serve.executed", (stats.executed - before.executed) as f64);
    l.set("serve.shed", (stats.shed - before.shed) as f64);
    l.set("serve.timeouts", (stats.timeouts - before.timeouts) as f64);
    l.set("serve.queue_depth_peak", stats.queue_depth_peak as f64);
    close_breakdown(o, wall, med(&|t| t.wall));
    Ok(())
}
