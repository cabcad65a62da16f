//! The `report` workload: `run_report` with checkpoints off — the CLI's
//! default `report` path (`Pipeline::corpus`, row-at-a-time
//! `StudyData::from_dataset`, 18 analysis stages, report assembly). It
//! never touches the store or the server.

use std::io;
use std::time::Instant;

use ndt_analysis::{assemble_staged_report, run_analysis_stage, StudyData, ANALYSIS_STAGES};
use ndt_mlab::Dataset;
use ndt_runner::run_report;

use crate::gen::{between_units, sim_layers, simulate_traced, SimTrace};
use crate::out::stage_metric;
use crate::stats::{fastest, median};
use crate::{close_breakdown, fixture, Ctx, Outcome};

/// Units a run measures even when `--seconds` is shorter.
const MIN_UNITS: usize = 3;

/// Layer times of one traced report unit, in seconds.
struct Traced {
    sim: SimTrace,
    ingest: f64,
    stages: Vec<f64>,
    assemble: f64,
    wall: f64,
    text: String,
}

/// The same report, built by calling each layer from here: the
/// simulator layers, `StudyData::from_dataset`, `run_analysis_stage` for
/// each of the 18 stages, then `assemble_staged_report`.
fn traced_unit(ctx: &Ctx) -> io::Result<Traced> {
    let start = Instant::now();
    let (sim, parts) = simulate_traced(ctx);
    let mut full = Dataset::default();
    for (_, mut part) in parts {
        full.ndt.append(&mut part.ndt);
        full.traces.append(&mut part.traces);
    }
    let t = Instant::now();
    let data = StudyData::from_dataset(full);
    let ingest = t.elapsed().as_secs_f64();
    let (mut stages, mut outputs) = (Vec::new(), Vec::new());
    for spec in &ANALYSIS_STAGES {
        let t = Instant::now();
        let out =
            run_analysis_stage(spec.name, &data).map_err(|e| io::Error::other(e.to_string()))?;
        stages.push(t.elapsed().as_secs_f64());
        outputs.push(out);
    }
    let t = Instant::now();
    let text = assemble_staged_report(&outputs, &[]);
    let assemble = t.elapsed().as_secs_f64();
    let wall = start.elapsed().as_secs_f64();
    Ok(Traced {
        sim,
        ingest,
        stages,
        assemble,
        wall,
        text,
    })
}

/// Runs the workload. Checks: every unit's report is complete and
/// byte-identical to the first, the traced report is identical too, and
/// so is `run_report_from_store_with` over a fixture store of the same
/// config. A mismatch fails every stage record of the affected units.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut setup = Vec::new();
    let cfg = ctx.pipeline_config();
    let (mut walls, mut rss, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<String> = None;
    let mut tests = 0;
    let start = Instant::now();
    while ctx.more(start, walls.len(), if ctx.trace { 2 } else { MIN_UNITS }) {
        if !ctx.trace {
            between_units(ctx, &mut o, &mut setup)?;
        }
        let tests0 = crate::gen::counter("sim.tests");
        crate::reset_peak_rss();
        let t = Instant::now();
        let outcome = run_report(&cfg)?;
        walls.push(t.elapsed().as_secs_f64());
        rss.push(crate::peak_rss_mib());
        tests = crate::gen::counter("sim.tests") - tests0;
        let records = outcome.records.len() as u64;
        o.attempted += records;
        let reference = reference.get_or_insert_with(|| outcome.report.clone());
        o.failed += if *reference == outcome.report {
            outcome.failed().len() as u64
        } else {
            records
        };
        if ctx.trace {
            let unit = traced_unit(ctx)?;
            o.attempted += records;
            if unit.text != *reference {
                o.failed += records;
            }
            traced.push(unit);
        }
    }
    let reference = reference.unwrap_or_default();
    let fixture_dir = ctx.work.join("fixture");
    let fixture_report = ctx.work.join("fixture-report.txt");
    let info = fixture::build(ctx, &fixture_dir, Some(&fixture_report))?;
    if std::fs::read_to_string(&fixture_report)? != reference {
        o.failed = o.attempted;
    }
    let wall = median(&walls);
    if !ctx.trace {
        between_units(ctx, &mut o, &mut setup)?;
        o.e2e.set("setup_s", fastest(&setup));
        let slowest = walls.iter().copied().fold(0.0, f64::max);
        o.e2e.set("p50_ms", wall * 1e3);
        o.e2e.set("p99_ms", slowest * 1e3);
        o.e2e.set("throughput_per_s", tests as f64 / wall);
        o.e2e.set("store_bytes_per_raw", info.ratio());
        // The first unit runs as a user's one-off command would; later
        // units would also measure what the allocator kept from earlier ones.
        o.e2e.set("peak_rss_mb", rss[0]);
        return Ok(o);
    }
    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let sims: Vec<&SimTrace> = traced.iter().map(|t| &t.sim).collect();
    o.breakdown = sim_layers(&mut o, &sims, wall);
    let rows = sims.last().map_or(0, |s| s.rows);
    let ingest = med(&|t| t.ingest);
    o.layers.set(
        "bq.ingest_rows_ns_per_row",
        ingest * 1e9 / rows.max(1) as f64,
    );
    o.breakdown.push(("bq.ingest_rows".into(), ingest));
    let mut analysis = 0.0;
    for (i, spec) in ANALYSIS_STAGES.iter().enumerate() {
        let secs = med(&|t| t.stages[i]);
        analysis += secs;
        o.layers.set(&stage_metric(spec.name), secs * 1e3);
        o.breakdown.push((format!("analysis.{}", spec.name), secs));
    }
    let assemble = med(&|t| t.assemble);
    o.layers.set("analysis.assemble_ms", assemble * 1e3);
    o.layers.set("analysis.share", (analysis + assemble) / wall);
    o.breakdown.push(("analysis.assemble".into(), assemble));
    close_breakdown(&mut o, wall, med(&|t| t.wall));
    Ok(o)
}
