//! `ukraine-ndt` — command-line driver for the reproduction.
//!
//! ```text
//! ukraine-ndt report   [--scale S] [--seed N] [--scenario NAME] [--faults PLAN] [--resume]
//! ukraine-ndt report   --from-store DIR     # stream a columnar store instead of simulating
//! ukraine-ndt export   [--scale S] [--seed N] [--scenario NAME] [--faults PLAN] [--out DIR] [--resume]
//! ukraine-ndt resume   [--scale S] [--seed N] [--scenario NAME] [--faults PLAN] [--out DIR]
//! ukraine-ndt generate [--scale S] [--seed N] [--scenario NAME] [--faults PLAN] [--out DIR] [--resume]
//!                      [--format csv|columnar]
//! ukraine-ndt map      [--date YYYY-MM-DD]
//! ukraine-ndt topo     [--out DIR]          # Graphviz dot of the AS graph
//! ukraine-ndt serve    --store DIR [--addr HOST:PORT] [--workers N] [--queue N]
//!                      [--deadline-ms N] [--no-cache] [--shutdown SECS]
//! ukraine-ndt loadgen  --addr HOST:PORT [--clients N] [--requests N]
//!                      [--stages a,b,c] [--deadline-ms N]
//! ```
//!
//! `serve` loads a columnar store once and answers report-fragment
//! requests over a line-oriented TCP protocol (see the `ndt-serve`
//! crate and `DESIGN.md` §15) until drained; it prints
//! `SERVE_ADDR=<host:port>` on stdout once listening. Admission is a
//! bounded queue: overload sheds requests with a typed retry-after
//! rejection instead of queuing without bound. Drain happens after
//! `--shutdown` seconds, or at stdin EOF when `--shutdown` is 0.
//! `loadgen` drives such a server with `--clients` concurrent clients and
//! prints a JSON latency/outcome report on stdout.
//!
//! `generate --format columnar` writes the corpus as `ndt-store` shard
//! files (checksummed, encoded pages; see `DESIGN.md` §13) instead of CSV;
//! `report --from-store DIR` streams such a store back through the
//! analysis pipeline and produces a report byte-identical to the in-memory
//! path for the configuration that generated the store.
//!
//! All commands additionally accept `--threads N` (simulator worker
//! threads, or store decode threads for `report --from-store`; 0 = all
//! cores), `--metrics PATH` (write an `ndt-obs` JSON
//! metrics artifact — spans, counters, event log — after the run), and
//! `--quiet` / `--verbose` (event-log verbosity). The metrics artifact is
//! structurally deterministic: its counter and gauge sections are
//! bit-identical for the same configuration regardless of `--threads`, and
//! identical between a clean run and a kill→resume run; only wall-clock
//! durations vary.
//!
//! Scenarios are resolved by name against the `ndt-scenario` registry:
//! `historical` (default), `no-war`, `edge-only`, `core-only`,
//! `asymmetric`, `refugee-flow`, `transit-reroute`, plus anything
//! registered from a `--scenario-file PATH` scenario file (see
//! `DESIGN.md` §17 for the format). `ukraine-ndt scenario list` prints
//! the registry; `ukraine-ndt scenario show NAME` prints one spec's
//! summary, event timeline and behavioural knobs.
//! Fault plans: `none` (default), `light`, `moderate`, `severe`,
//! `sidecar-blackout` — deterministic platform-fault injection; degraded
//! results carry coverage annotations instead of failing.
//!
//! Chaos testing: `--io-faults none|flaky|torn|rot|chaos` (or the
//! `UKRAINE_NDT_IO_FAULTS` environment variable; the flag wins) routes all
//! checkpoint and store I/O through a deterministic fault-injecting VFS
//! (`ndt-vfs`). Shards that fail validation under injected faults are
//! quarantined under `<store>/.quarantine/` and the report degrades
//! (coverage footers, exit code 3) instead of dying.
//!
//! Execution is staged and crash-safe (see the `ndt-runner` crate and
//! `DESIGN.md`): `export`/`generate` save each finished corpus shard to a
//! columnar store under `<out>/.ukraine-ndt/`, every artifact is written
//! atomically, and `--resume` (or the `resume` command, shorthand for
//! `export --resume`) reads back every shard saved under the current
//! configuration. A resumed run produces bit-identical artifacts. Stages
//! that panic, hang, or fail are reported in the output and the process
//! exits with code 3 (partial success) instead of aborting.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use ukraine_ndt::conflict::calendar::dates;
use ukraine_ndt::mlab::Scenario;
use ukraine_ndt::prelude::*;
use ukraine_ndt::scenario::parse_scenario_file;
use ukraine_ndt::runner::{
    load_study_data, read_store_fingerprint, run_export, run_generate, run_report,
    run_report_from_store_with, run_store_generate, sweep_orphan_temps, AtomicFile, ExecPolicy,
    ScanEngine, StageRecord, StageStatus,
};
use ukraine_ndt::serve::{run_load, serve_tcp, LoadConfig, ServeConfig, Server};

/// Exit code when the run completed but one or more stages failed.
const EXIT_PARTIAL: u8 = 3;

/// On-disk layout `generate` produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CorpusFormat {
    /// Two flat CSV files (the original layout).
    Csv,
    /// Checksummed `ndt-store` shard files plus a `STORE.txt` manifest.
    Columnar,
}

struct Options {
    scale: f64,
    seed: u64,
    scenario: Scenario,
    faults: FaultPlan,
    out: PathBuf,
    date: Date,
    resume: bool,
    /// `generate` output layout.
    format: CorpusFormat,
    /// `report` from an existing columnar store instead of simulating.
    from_store: Option<PathBuf>,
    /// Simulator worker threads (0 = all available cores).
    threads: usize,
    /// Write the ndt-obs metrics artifact here after the run.
    metrics: Option<PathBuf>,
    /// Event-log verbosity (`--quiet` → Warn, `--verbose` → Debug).
    verbosity: ukraine_ndt::obs::Level,
    /// Deterministic I/O fault plan (`--io-faults`, chaos testing).
    io_faults: IoFaultPlan,
    /// `serve`: store directory to load and serve.
    store: Option<PathBuf>,
    /// `serve`: listen address; `loadgen`: server address.
    addr: String,
    /// `serve`: worker threads executing requests.
    workers: usize,
    /// `serve`: admission queue capacity.
    queue: usize,
    /// `serve`: default request deadline; `loadgen`: per-request
    /// deadline sent on the wire (server default when absent).
    deadline_ms: Option<u64>,
    /// `serve`: disable the response cache (`--no-cache`).
    cache: bool,
    /// `serve`: drain after this many seconds (0 = drain at stdin EOF).
    shutdown_secs: f64,
    /// `loadgen`: concurrent client threads.
    clients: usize,
    /// `loadgen`: requests per client.
    requests: usize,
    /// `loadgen`: stage mix, consumed round-robin.
    stages: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: 0.15,
            seed: 2022,
            scenario: Scenario::HISTORICAL,
            faults: FaultPlan::NONE,
            out: PathBuf::from("out"),
            date: dates::MAX_OCCUPATION,
            resume: false,
            format: CorpusFormat::Csv,
            from_store: None,
            threads: 0,
            metrics: None,
            verbosity: ukraine_ndt::obs::Level::Info,
            io_faults: default_io_faults(),
            store: None,
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue: 64,
            deadline_ms: None,
            cache: true,
            shutdown_secs: 0.0,
            clients: 32,
            requests: 16,
            stages: vec![
                "fig2".to_string(),
                "fig3".to_string(),
                "table1".to_string(),
                "fig4".to_string(),
            ],
        }
    }
}

/// Default I/O fault plan: the `UKRAINE_NDT_IO_FAULTS` environment
/// variable when set to a known plan name, else none. The `--io-faults`
/// flag overrides the environment.
fn default_io_faults() -> IoFaultPlan {
    std::env::var("UKRAINE_NDT_IO_FAULTS")
        .ok()
        .and_then(|name| IoFaultPlan::by_name(&name))
        .unwrap_or(IoFaultPlan::NONE)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ukraine-ndt <report|export|resume|generate|map|topo|serve|loadgen|scenario> \
         [--scale S] [--seed N] [--scenario NAME] [--scenario-file PATH] \
         [--faults none|light|moderate|severe|sidecar-blackout] \
         [--out DIR] [--date YYYY-MM-DD] [--resume] \
         [--format csv|columnar] [--from-store DIR] \
         [--io-faults none|flaky|torn|rot|chaos] \
         [--threads N] [--metrics PATH] [--quiet] [--verbose]\n\
         scenarios: {} (or any name registered via --scenario-file)\n\
         scenario: list | show NAME   # inspect the scenario registry\n\
         serve:   --store DIR [--addr HOST:PORT] [--workers N] [--queue N] \
         [--deadline-ms N] [--no-cache] [--shutdown SECS]\n\
         loadgen: --addr HOST:PORT [--clients N] [--requests N] \
         [--stages a,b,c] [--deadline-ms N]",
        Scenario::names().join("|")
    );
    ExitCode::FAILURE
}

fn parse_date(s: &str) -> Option<Date> {
    let mut it = s.split('-');
    let year: i32 = it.next()?.parse().ok()?;
    let month: u8 = it.next()?.parse().ok()?;
    let day: u8 = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Date::try_new(year, month, day)
}

fn parse(args: &[String]) -> Option<(String, Options)> {
    let command = args.first()?.clone();
    let mut opts = Options::default();
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        // Boolean flags take no value.
        match flag {
            "--resume" => {
                opts.resume = true;
                i += 1;
                continue;
            }
            "--quiet" => {
                opts.verbosity = ukraine_ndt::obs::Level::Warn;
                i += 1;
                continue;
            }
            "--verbose" => {
                opts.verbosity = ukraine_ndt::obs::Level::Debug;
                i += 1;
                continue;
            }
            "--no-cache" => {
                opts.cache = false;
                i += 1;
                continue;
            }
            _ => {}
        }
        let value = args.get(i + 1)?;
        match flag {
            "--scale" => {
                opts.scale = value.parse().ok().filter(|v: &f64| v.is_finite() && *v > 0.0)?
            }
            "--seed" => opts.seed = value.parse().ok()?,
            "--threads" => opts.threads = value.parse().ok()?,
            "--metrics" => opts.metrics = Some(PathBuf::from(value)),
            "--faults" => opts.faults = FaultPlan::by_name(value)?,
            "--io-faults" => opts.io_faults = IoFaultPlan::by_name(value)?,
            "--out" => opts.out = PathBuf::from(value),
            "--from-store" => opts.from_store = Some(PathBuf::from(value)),
            "--format" => {
                opts.format = match value.as_str() {
                    "csv" => CorpusFormat::Csv,
                    "columnar" => CorpusFormat::Columnar,
                    _ => return None,
                }
            }
            "--date" => opts.date = parse_date(value)?,
            "--store" => opts.store = Some(PathBuf::from(value)),
            "--addr" => opts.addr = value.clone(),
            "--workers" => opts.workers = value.parse().ok().filter(|n: &usize| *n > 0)?,
            "--queue" => opts.queue = value.parse().ok().filter(|n: &usize| *n > 0)?,
            "--deadline-ms" => {
                opts.deadline_ms = Some(value.parse().ok().filter(|n: &u64| *n > 0)?)
            }
            "--shutdown" => {
                opts.shutdown_secs =
                    value.parse().ok().filter(|v: &f64| v.is_finite() && *v >= 0.0)?
            }
            "--clients" => opts.clients = value.parse().ok().filter(|n: &usize| *n > 0)?,
            "--requests" => opts.requests = value.parse().ok().filter(|n: &usize| *n > 0)?,
            "--stages" => {
                let stages: Vec<String> =
                    value.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect();
                if stages.is_empty() {
                    return None;
                }
                opts.stages = stages;
            }
            "--scenario" => {
                opts.scenario = match Scenario::by_name(value) {
                    Some(s) => s,
                    None => {
                        eprintln!(
                            "error: unknown scenario '{value}'; registered scenarios: {}",
                            Scenario::names().join(", ")
                        );
                        return None;
                    }
                }
            }
            "--scenario-file" => {
                // Parse and register the spec immediately so a subsequent
                // `--scenario NAME` (or a `base NAME` line in a second
                // file) can refer to it; the file's own scenario becomes
                // the selected one.
                let text = match fs::read_to_string(value) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: cannot read scenario file {value}: {e}");
                        return None;
                    }
                };
                match parse_scenario_file(&text) {
                    Ok(spec) => opts.scenario = Scenario::register(spec),
                    Err(e) => {
                        eprintln!("error: scenario file {value}: {e}");
                        return None;
                    }
                }
            }
            _ => return None,
        }
        i += 2;
    }
    Some((command, opts))
}

fn sim_config(opts: &Options) -> SimConfig {
    SimConfig {
        scale: opts.scale,
        seed: opts.seed,
        scenario: opts.scenario,
        faults: opts.faults,
        threads: opts.threads,
        ..SimConfig::default()
    }
}

/// Pipeline settings for this invocation. `checkpoints` controls whether
/// the run touches `<out>/.ukraine-ndt/` at all.
fn pipeline_config(opts: &Options, checkpoints: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(sim_config(opts), &opts.out);
    cfg.checkpoints = checkpoints;
    cfg.resume = opts.resume;
    cfg.vfs = VfsHandle::faulty(opts.io_faults);
    cfg
}

fn announce(opts: &Options) {
    eprintln!(
        "generating corpus: scale {}, seed {}, scenario {:?}, faults {}{} ...",
        opts.scale,
        opts.seed,
        opts.scenario,
        if opts.faults.is_none() { "none" } else { "injected" },
        if opts.resume { ", resuming from checkpoints" } else { "" }
    );
}

/// Success when every stage produced a value; otherwise names the failed
/// stages on stderr and exits with the partial-success code.
fn run_status(records: &[StageRecord]) -> ExitCode {
    let failed: Vec<&str> = records
        .iter()
        .filter(|r| matches!(r.status, StageStatus::Failed(_)))
        .map(|r| r.name.as_str())
        .collect();
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "run completed with {} failed stage(s): {} (exit code {EXIT_PARTIAL})",
            failed.len(),
            failed.join(", ")
        );
        ExitCode::from(EXIT_PARTIAL)
    }
}

fn cmd_report(opts: &Options) -> Result<ExitCode, NdtError> {
    // --from-store: no simulation at all — stream the columnar store.
    // The simulation knobs are baked into the store's shard files, so
    // --scale/--seed/--faults are ignored in this mode.
    if let Some(store_dir) = &opts.from_store {
        eprintln!("streaming corpus from store {} ...", store_dir.display());
        let vfs = VfsHandle::faulty(opts.io_faults);
        let outcome = run_report_from_store_with(
            store_dir,
            ExecPolicy::default(),
            &vfs,
            ScanEngine::default(),
            opts.threads,
        )?;
        println!("{}", outcome.report);
        return Ok(run_status(&outcome.records));
    }
    announce(opts);
    // A plain report never touches disk; with --resume it reads (and
    // refreshes) the checkpoints a previous export/generate left behind.
    let cfg = pipeline_config(opts, opts.resume);
    let outcome = run_report(&cfg)?;
    println!("{}", outcome.report);
    Ok(run_status(&outcome.records))
}

fn cmd_export(opts: &Options) -> Result<ExitCode, NdtError> {
    announce(opts);
    fs::create_dir_all(&opts.out)?;
    let cfg = pipeline_config(opts, true);
    let outcome = run_export(&cfg)?;
    let mut written = 0usize;
    for (name, content) in &outcome.artifacts {
        write_atomic(opts.out.join(name), content.as_bytes())?;
        written += 1;
    }
    eprintln!("wrote {written} artifacts to {}", opts.out.display());
    Ok(run_status(&outcome.records))
}

/// `generate --format columnar`: the shard files are the persistent form
/// (and their own resume checkpoints), so the checkpoint store is off.
fn cmd_generate_columnar(opts: &Options) -> Result<ExitCode, NdtError> {
    announce(opts);
    let cfg = pipeline_config(opts, false);
    let (summary, records) = run_store_generate(&cfg, &opts.out)?;
    if summary.stats.bytes_raw > 0 {
        eprintln!(
            "wrote {} shards ({} rows, {} bytes on disk, {:.1}% of raw) to {}",
            summary.shards.len(),
            summary.stats.rows,
            summary.stats.bytes_file,
            summary.stats.bytes_file as f64 * 100.0 / summary.stats.bytes_raw as f64,
            summary.dir.display()
        );
    } else {
        eprintln!(
            "store {} up to date ({} shards resumed)",
            summary.dir.display(),
            summary.shards.len()
        );
    }
    Ok(run_status(&records))
}

/// Appends one shard's rows to the two CSVs: `unified_download` rows, and
/// scamper rows with the AS path joined by '-'.
fn write_csv_shard(
    unified: &mut AtomicFile,
    traces: &mut AtomicFile,
    shard: &Dataset,
) -> std::io::Result<()> {
    for r in &shard.ndt {
        writeln!(
            unified,
            "{},{},{},{},{},{},{:.4},{:.4},{:.6}",
            r.day,
            r.client_ip,
            r.server_ip,
            r.client_asn.0,
            r.oblast.map(|o| o.name()).unwrap_or(""),
            r.city.map(|c| c.get().name).unwrap_or(""),
            r.mean_tput_mbps,
            r.min_rtt_ms,
            r.loss_rate
        )?;
    }
    for r in &shard.traces {
        let as_path: Vec<String> = r.as_path.iter().map(|a| a.0.to_string()).collect();
        writeln!(
            traces,
            "{},{},{},{:016x},{:016x},{},{},{},{:.4},{:.4},{:.6}",
            r.day,
            r.client_ip,
            r.server_ip,
            r.path_fingerprint,
            r.router_fingerprint,
            r.border.map(|(b, _)| b.0.to_string()).unwrap_or_default(),
            r.border.map(|(_, u)| u.0.to_string()).unwrap_or_default(),
            as_path.join("-"),
            r.mean_tput_mbps,
            r.min_rtt_ms,
            r.loss_rate
        )?;
    }
    Ok(())
}

fn cmd_generate(opts: &Options) -> Result<ExitCode, NdtError> {
    if opts.format == CorpusFormat::Columnar {
        return cmd_generate_columnar(opts);
    }
    announce(opts);
    fs::create_dir_all(&opts.out)?;
    // CSV temporaries a killed predecessor left; this run's come next.
    if let Ok(swept @ 1..) = sweep_orphan_temps(&VfsHandle::real(), &opts.out) {
        ukraine_ndt::obs::incr_process("tmp_swept", swept as u64);
    }
    // Each shard is appended as the pool hands it back in day order, and
    // dropped: the corpus is never held whole. Both files become visible
    // only once every shard is in; a failed shard abandons them.
    let mut unified = AtomicFile::create(opts.out.join("unified_download.csv"))?;
    unified.write_all(
        b"day,client_ip,server_ip,client_asn,oblast,city,tput_mbps,min_rtt_ms,loss_rate\n",
    )?;
    let mut traces = AtomicFile::create(opts.out.join("scamper1.csv"))?;
    traces.write_all(
        b"day,client_ip,server_ip,path_fingerprint,router_fingerprint,border_from,border_to,as_path,tput_mbps,min_rtt_ms,loss_rate\n",
    )?;
    let cfg = pipeline_config(opts, true);
    let (mut rows, mut write_error) = ((0, 0), None);
    let (complete, records) = run_generate(&cfg, |shard| {
        if write_error.is_none() {
            write_error = write_csv_shard(&mut unified, &mut traces, &shard).err();
            rows = (rows.0 + shard.ndt.len(), rows.1 + shard.traces.len());
        }
    })?;
    if let Some(e) = write_error {
        return Err(e.into());
    }
    if !complete {
        eprintln!("corpus incomplete; no CSVs written to {}", opts.out.display());
        return Ok(run_status(&records));
    }
    unified.commit()?;
    traces.commit()?;
    eprintln!(
        "wrote {} unified rows and {} traceroute rows to {}",
        rows.0,
        rows.1,
        opts.out.display()
    );
    Ok(run_status(&records))
}

fn cmd_topo(opts: &Options) -> std::io::Result<()> {
    let bt = build_topology(&TopologyConfig::default());
    fs::create_dir_all(&opts.out)?;
    let path = opts.out.join("topology.dot");
    write_atomic(&path, ukraine_ndt::topology::to_dot(&bt.topology, false).as_bytes())?;
    eprintln!("wrote {} (render with: dot -Tsvg {} -o topology.svg)", path.display(), path.display());
    Ok(())
}

fn cmd_map(opts: &Options) {
    let map = ukraine_ndt::analysis::fig1_map::compute(opts.date.day_index());
    println!("{}", map.render());
}

/// `scenario list` / `scenario show NAME`: inspect the scenario
/// registry. A preceding `--scenario-file` is honoured by `main`, so
/// `scenario show` also works on file-defined scenarios.
fn cmd_scenario(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{:<16} {:>6}  SUMMARY", "NAME", "EVENTS");
            for s in Scenario::all() {
                let spec = s.spec();
                println!("{:<16} {:>6}  {}", spec.name, spec.timeline.len(), spec.summary);
            }
            ExitCode::SUCCESS
        }
        Some("show") => {
            let Some(name) = args.get(1) else {
                eprintln!("usage: ukraine-ndt scenario show NAME");
                return ExitCode::FAILURE;
            };
            let Some(s) = Scenario::by_name(name) else {
                eprintln!(
                    "error: unknown scenario '{name}'; registered scenarios: {}",
                    Scenario::names().join(", ")
                );
                return ExitCode::FAILURE;
            };
            let spec = s.spec();
            println!("scenario: {}", spec.name);
            println!("summary:  {}", spec.summary);
            println!(
                "damage:   edge {} / core {} / displacement {} / attenuation {}",
                spec.edge_damage, spec.core_damage, spec.displacement, spec.damage_attenuation
            );
            println!(
                "rules:    {} transit, {} siege(s), {} outage(s), {} city curve(s), \
                 {} spike(s), {} migration wave(s)",
                spec.transit.len(),
                spec.sieges.len(),
                spec.outages.len(),
                spec.curves.len(),
                spec.spikes.len(),
                spec.migrations.len()
            );
            if let Some(b) = &spec.second_country {
                println!(
                    "second country: {} (scenario {}, seed salt {:#018x}, scale x{})",
                    b.name, b.scenario, b.seed_salt, b.scale_mult
                );
            }
            println!("fingerprint: {:016x}", spec.fingerprint());
            println!("timeline:");
            if spec.timeline.is_empty() {
                println!("  (no events)");
            }
            for ev in &spec.timeline {
                let date = Date::from_day_index(ev.day);
                println!("  day {:>4}  {date}  {}", ev.day, ev.label);
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: ukraine-ndt scenario <list|show NAME>");
            ExitCode::FAILURE
        }
    }
}

/// `serve --store DIR`: load the store once, answer report-fragment
/// requests over TCP until drained. Prints `SERVE_ADDR=<host:port>` on
/// stdout once listening. Exits 0 on a clean drain, [`EXIT_PARTIAL`]
/// when the store loaded degraded (quarantined shards), 1 on fatal
/// errors (no store, bind failure).
fn cmd_serve(opts: &Options) -> Result<ExitCode, NdtError> {
    let Some(store_dir) = &opts.store else {
        eprintln!("error: serve requires --store DIR");
        return Ok(ExitCode::FAILURE);
    };
    let vfs = VfsHandle::faulty(opts.io_faults);
    let fingerprint = read_store_fingerprint(&vfs, store_dir)?;
    eprintln!("loading store {} ...", store_dir.display());
    let (data, records) = load_study_data(&vfs, store_dir)?;
    let _lifetime = ukraine_ndt::obs::span("serve.lifetime");

    // Test hooks, mirrored from the pipeline's fault-injection envs:
    // UKRAINE_NDT_SERVE_STALL_MS slows every executed stage,
    // UKRAINE_NDT_PANIC_STAGE panics matching stages.
    let stall = std::env::var("UKRAINE_NDT_SERVE_STALL_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(std::time::Duration::from_millis);
    let panic_stages: Vec<String> = std::env::var("UKRAINE_NDT_PANIC_STAGE")
        .ok()
        .map(|v| v.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect())
        .unwrap_or_default();

    let cfg = ServeConfig {
        workers: opts.workers,
        queue_capacity: opts.queue,
        default_deadline: std::time::Duration::from_millis(opts.deadline_ms.unwrap_or(5000)),
        cache: opts.cache,
        stall,
        panic_stages,
    };
    let server = Server::start(std::sync::Arc::new(data), fingerprint, cfg);

    let listener = std::net::TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    // Parsed by loadgen wrappers and the integration tests; keep stable.
    println!("SERVE_ADDR={addr}");
    std::io::Write::flush(&mut std::io::stdout())?;
    eprintln!(
        "serving on {addr} ({} workers, queue {}, cache {})",
        opts.workers,
        opts.queue,
        if opts.cache { "on" } else { "off" }
    );

    let shutdown = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let net = {
        let handle = server.handle();
        let shutdown = std::sync::Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || serve_tcp(listener, handle, shutdown))?
    };

    if opts.shutdown_secs > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(opts.shutdown_secs));
    } else {
        // Drain when our caller closes stdin — the way the integration
        // tests and the CI smoke step stop the server deterministically.
        let mut sink = String::new();
        while std::io::stdin().read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    }

    // Stop accepting first (in-flight connections are joined, their
    // responses delivered), then drain the server itself.
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    match net.join() {
        Ok(res) => res?,
        Err(_) => eprintln!("warning: accept loop panicked during shutdown"),
    }
    let stats = server.drain();
    eprintln!(
        "drained: accepted {}, executed {}, cache hits {}, shed {}, timeouts {}, \
         panics contained {}, failures {}, peak queue depth {}",
        stats.accepted,
        stats.executed,
        stats.cache_hits,
        stats.shed,
        stats.timeouts,
        stats.panics,
        stats.failures,
        stats.queue_depth_peak
    );
    Ok(run_status(&records))
}

/// `loadgen --addr HOST:PORT`: drive a serve instance with concurrent
/// clients and print a JSON latency/outcome report on stdout. Fails only
/// when every request died on transport (server unreachable) — typed
/// rejections (shed, deadline, panic) are measurements, not errors.
fn cmd_loadgen(opts: &Options) -> ExitCode {
    let cfg = LoadConfig {
        addr: opts.addr.clone(),
        clients: opts.clients,
        requests_per_client: opts.requests,
        stages: opts.stages.clone(),
        deadline_ms: opts.deadline_ms,
        socket_timeout: std::time::Duration::from_secs(30),
    };
    eprintln!(
        "loadgen: {} clients x {} requests against {} (stages: {})",
        cfg.clients,
        cfg.requests_per_client,
        cfg.addr,
        cfg.stages.join(",")
    );
    let report = run_load(&cfg);
    println!("{}", report.to_json());
    if report.total > 0 && report.io_errors == report.total {
        eprintln!("error: every request failed on transport — is the server up?");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_defaults() {
        let (cmd, o) = parse(&args(&["report"])).expect("parses");
        assert_eq!(cmd, "report");
        assert_eq!(o.scale, 0.15);
        assert_eq!(o.scenario, Scenario::HISTORICAL);
        assert!(o.faults.is_none());
        assert!(!o.resume);
        assert_eq!(o.threads, 0);
        assert_eq!(o.metrics, None);
        assert_eq!(o.verbosity, ukraine_ndt::obs::Level::Info);
        assert_eq!(o.format, CorpusFormat::Csv);
        assert_eq!(o.from_store, None);
        assert!(o.io_faults.is_none());
    }

    #[test]
    fn parses_registry_scenarios() {
        for name in ["no-war", "asymmetric", "refugee-flow", "transit-reroute"] {
            let (_, o) = parse(&args(&["report", "--scenario", name])).expect("parses");
            assert_eq!(o.scenario.name(), name);
        }
    }

    #[test]
    fn scenario_file_registers_and_selects() {
        let dir = std::env::temp_dir().join(format!("ndt-cli-scn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("custom.scenario");
        fs::write(&path, "scenario cli-custom\nbase no-war\nsummary cli test\n").unwrap();
        let (_, o) = parse(&args(&["report", "--scenario-file", path.to_str().unwrap()]))
            .expect("parses");
        assert_eq!(o.scenario.name(), "cli-custom");
        // The file's scenario is now registered and addressable by name.
        let (_, o) = parse(&args(&["report", "--scenario", "cli-custom"])).expect("parses");
        assert_eq!(o.scenario.name(), "cli-custom");
        // A broken file fails the parse, with the error on stderr.
        let bad = dir.join("bad.scenario");
        fs::write(&bad, "set nonsense 1\n").unwrap();
        assert!(parse(&args(&["report", "--scenario-file", bad.to_str().unwrap()])).is_none());
        assert!(parse(&args(&["report", "--scenario-file", "/nonexistent/x"])).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_io_fault_plans() {
        let (_, o) = parse(&args(&["report", "--io-faults", "chaos"])).expect("parses");
        assert_eq!(o.io_faults, IoFaultPlan::CHAOS);
        let (_, o) = parse(&args(&["report", "--io-faults", "none"])).expect("parses");
        assert!(o.io_faults.is_none());
    }

    #[test]
    fn parses_store_flags() {
        let (_, o) = parse(&args(&["generate", "--format", "columnar"])).expect("parses");
        assert_eq!(o.format, CorpusFormat::Columnar);
        let (_, o) = parse(&args(&["generate", "--format", "csv"])).expect("parses");
        assert_eq!(o.format, CorpusFormat::Csv);
        let (_, o) = parse(&args(&["report", "--from-store", "/tmp/store"])).expect("parses");
        assert_eq!(o.from_store.as_deref(), Some(std::path::Path::new("/tmp/store")));
    }

    #[test]
    fn parses_all_flags() {
        let (cmd, o) = parse(&args(&[
            "export", "--scale", "0.5", "--seed", "9", "--scenario", "edge-only", "--faults",
            "moderate", "--out", "/tmp/x", "--date", "2022-03-10", "--resume", "--threads", "4",
            "--metrics", "/tmp/m.json",
        ]))
        .expect("parses");
        assert_eq!(cmd, "export");
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.seed, 9);
        assert_eq!(o.scenario, Scenario::EDGE_ONLY);
        assert_eq!(o.faults, FaultPlan::MODERATE);
        assert_eq!(o.out, PathBuf::from("/tmp/x"));
        assert_eq!(o.date, Date::new(2022, 3, 10));
        assert!(o.resume);
        assert_eq!(o.threads, 4);
        assert_eq!(o.metrics.as_deref(), Some(std::path::Path::new("/tmp/m.json")));
    }

    #[test]
    fn verbosity_flags_take_no_value() {
        let (_, o) = parse(&args(&["report", "--quiet", "--seed", "4"])).expect("parses");
        assert_eq!(o.verbosity, ukraine_ndt::obs::Level::Warn);
        assert_eq!(o.seed, 4);
        let (_, o) = parse(&args(&["report", "--verbose"])).expect("parses");
        assert_eq!(o.verbosity, ukraine_ndt::obs::Level::Debug);
    }

    #[test]
    fn resume_flag_is_position_independent() {
        let (_, o) = parse(&args(&["export", "--resume", "--seed", "4"])).expect("parses");
        assert!(o.resume);
        assert_eq!(o.seed, 4);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&args(&[])).is_none());
        assert!(parse(&args(&["report", "--scale"])).is_none(), "missing value");
        assert!(parse(&args(&["report", "--scale", "-1"])).is_none(), "negative scale");
        assert!(parse(&args(&["report", "--scale", "inf"])).is_none(), "infinite scale");
        assert!(parse(&args(&["report", "--scale", "1e999"])).is_none(), "overflowing scale");
        assert!(parse(&args(&["report", "--scale", "NaN"])).is_none(), "NaN scale");
        assert!(parse(&args(&["report", "--scenario", "apocalypse"])).is_none());
        assert!(parse(&args(&["report", "--faults", "apocalypse"])).is_none());
        assert!(parse(&args(&["report", "--date", "2022-13-01"])).is_none());
        assert!(parse(&args(&["report", "--date", "2022-02-30"])).is_none());
        assert!(parse(&args(&["report", "--bogus", "x"])).is_none());
        assert!(parse(&args(&["report", "--threads", "many"])).is_none());
        assert!(parse(&args(&["report", "--metrics"])).is_none(), "missing value");
        assert!(parse(&args(&["generate", "--format", "parquet"])).is_none(), "unknown format");
        assert!(parse(&args(&["report", "--from-store"])).is_none(), "missing value");
        assert!(parse(&args(&["report", "--io-faults", "meteor-strike"])).is_none());
        assert!(parse(&args(&["report", "--io-faults"])).is_none(), "missing value");
        assert!(parse(&args(&["report", "--engine", "vectorized"])).is_none(), "removed flag");
    }

    #[test]
    fn parses_serve_flags() {
        let (cmd, o) = parse(&args(&[
            "serve", "--store", "/tmp/store", "--addr", "127.0.0.1:8080", "--workers", "2",
            "--queue", "8", "--deadline-ms", "250", "--no-cache", "--shutdown", "1.5",
        ]))
        .expect("parses");
        assert_eq!(cmd, "serve");
        assert_eq!(o.store.as_deref(), Some(std::path::Path::new("/tmp/store")));
        assert_eq!(o.addr, "127.0.0.1:8080");
        assert_eq!(o.workers, 2);
        assert_eq!(o.queue, 8);
        assert_eq!(o.deadline_ms, Some(250));
        assert!(!o.cache);
        assert_eq!(o.shutdown_secs, 1.5);
    }

    #[test]
    fn parses_loadgen_flags() {
        let (cmd, o) = parse(&args(&[
            "loadgen", "--addr", "127.0.0.1:9999", "--clients", "64", "--requests", "5",
            "--stages", "fig2,table1",
        ]))
        .expect("parses");
        assert_eq!(cmd, "loadgen");
        assert_eq!(o.addr, "127.0.0.1:9999");
        assert_eq!(o.clients, 64);
        assert_eq!(o.requests, 5);
        assert_eq!(o.stages, vec!["fig2".to_string(), "table1".to_string()]);
        assert_eq!(o.deadline_ms, None, "deadline defaults to the server's");
    }

    #[test]
    fn serve_defaults() {
        let (_, o) = parse(&args(&["serve", "--store", "s"])).expect("parses");
        assert_eq!(o.addr, "127.0.0.1:0");
        assert_eq!(o.workers, 4);
        assert_eq!(o.queue, 64);
        assert!(o.cache);
        assert_eq!(o.shutdown_secs, 0.0);
        assert_eq!(o.clients, 32);
        assert_eq!(o.requests, 16);
    }

    #[test]
    fn rejects_bad_serve_input() {
        assert!(parse(&args(&["serve", "--workers", "0"])).is_none(), "zero workers");
        assert!(parse(&args(&["serve", "--queue", "0"])).is_none(), "zero queue");
        assert!(parse(&args(&["serve", "--deadline-ms", "0"])).is_none(), "zero deadline");
        assert!(parse(&args(&["serve", "--shutdown", "-1"])).is_none(), "negative shutdown");
        assert!(parse(&args(&["serve", "--shutdown", "NaN"])).is_none(), "NaN shutdown");
        assert!(parse(&args(&["loadgen", "--clients", "0"])).is_none(), "zero clients");
        assert!(parse(&args(&["loadgen", "--requests", "0"])).is_none(), "zero requests");
        assert!(parse(&args(&["loadgen", "--stages", ""])).is_none(), "empty stage list");
        assert!(parse(&args(&["serve", "--store"])).is_none(), "missing value");
    }

    #[test]
    fn date_parsing() {
        assert_eq!(parse_date("2022-02-24"), Some(Date::new(2022, 2, 24)));
        assert!(parse_date("2022-02").is_none());
        assert!(parse_date("2022-02-24-01").is_none());
        assert!(parse_date("abc").is_none());
    }
}

/// Render the ndt-obs registry and write it atomically to `path`.
///
/// Called after the command ran, whatever its outcome — a partial run's
/// metrics are exactly what you want when debugging the partial run.
fn write_metrics(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir)?;
    }
    write_atomic(path, ukraine_ndt::obs::render_json().as_bytes())?;
    eprintln!("wrote metrics to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `scenario list` / `scenario show NAME` take a subcommand word, not
    // flag pairs, so they are dispatched before the flag parser. Any
    // `--scenario-file PATH` among the arguments is registered first so
    // file-defined scenarios are inspectable too.
    if args.first().map(String::as_str) == Some("scenario") {
        let mut rest: Vec<String> = Vec::new();
        let mut i = 1;
        while i < args.len() {
            if args[i] == "--scenario-file" {
                let Some(path) = args.get(i + 1) else {
                    return usage();
                };
                let parsed = fs::read_to_string(path)
                    .map_err(|e| format!("cannot read scenario file {path}: {e}"))
                    .and_then(|text| {
                        parse_scenario_file(&text)
                            .map_err(|e| format!("scenario file {path}: {e}"))
                    });
                match parsed {
                    Ok(spec) => {
                        Scenario::register(spec);
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                i += 2;
            } else {
                rest.push(args[i].clone());
                i += 1;
            }
        }
        return cmd_scenario(&rest);
    }
    let Some((command, mut opts)) = parse(&args) else {
        return usage();
    };
    ukraine_ndt::obs::set_verbosity(opts.verbosity);
    // Spans and the event buffer only run when a metrics artifact was
    // requested; counters are always on (they are part of the simulation's
    // determinism contract and cost a few merged adds per stage).
    ukraine_ndt::obs::set_enabled(opts.metrics.is_some());
    let result: Result<ExitCode, NdtError> = match command.as_str() {
        "report" => cmd_report(&opts),
        "export" => cmd_export(&opts),
        "resume" => {
            // Shorthand for `export --resume`.
            opts.resume = true;
            cmd_export(&opts)
        }
        "generate" => cmd_generate(&opts),
        "map" => {
            cmd_map(&opts);
            Ok(ExitCode::SUCCESS)
        }
        "topo" => cmd_topo(&opts).map(|()| ExitCode::SUCCESS).map_err(NdtError::from),
        "serve" => cmd_serve(&opts),
        "loadgen" => Ok(cmd_loadgen(&opts)),
        _ => return usage(),
    };
    if let Some(path) = &opts.metrics {
        if let Err(e) = write_metrics(path) {
            eprintln!("error: failed to write metrics to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
