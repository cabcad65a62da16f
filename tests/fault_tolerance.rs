//! Full-pipeline fault tolerance: the whole reproduction must complete —
//! and keep its headline findings — under every built-in fault plan, and a
//! faulted run must be bit-for-bit deterministic.
//!
//! This is the acceptance suite for the degraded-data pipeline: platform
//! faults (site outages, lost sidecars, corrupt rows, geolocation failure)
//! may *annotate* results via their `Coverage`, but may never panic the
//! analyses or silently skew them.

use ukraine_ndt::analysis::coverage::DAGGER;
use ukraine_ndt::analysis::{
    assemble_staged_report, fig2_national, fig3_oblast, fig5_border, fig9_path_perf,
    run_analysis_stage, table1_cities, table2_paths, table3_as, DropReason, StageOutput,
    ANALYSIS_STAGES,
};
use ukraine_ndt::prelude::*;
use ukraine_ndt::topology::asn::well_known as wk;

fn dataset(scale: f64, faults: FaultPlan) -> Dataset {
    Simulator::new(SimConfig { scale, seed: 20_220_310, faults, ..SimConfig::default() }).run()
}

fn study(scale: f64, faults: FaultPlan) -> StudyData {
    StudyData::from_dataset(dataset(scale, faults))
}

/// Every analysis stage over `data`, as `report` runs them.
fn stages(data: &StudyData) -> Result<Vec<StageOutput>, AnalysisError> {
    ANALYSIS_STAGES.iter().map(|s| run_analysis_stage(s.name, data)).collect()
}

/// The whole run's degradation accounting: every stage's coverage merged,
/// in registry order.
fn coverage(outputs: &[StageOutput]) -> Coverage {
    let mut c = Coverage::new();
    for o in outputs {
        c.merge(&o.coverage);
    }
    c
}

#[test]
fn pipeline_completes_under_every_builtin_plan() {
    // Acceptance: every built-in plan — including 100% sidecar loss — runs
    // the *entire* pipeline without a panic or an error, and renders.
    for (name, plan) in FaultPlan::BUILTIN {
        let data = study(0.06, plan);
        let outputs =
            stages(&data).unwrap_or_else(|e| panic!("plan {name} failed the pipeline: {e}"));
        let rendered = assemble_staged_report(&outputs, &[]);
        assert!(rendered.contains("Table 1"), "plan {name}: report did not render");
        if plan.is_none() {
            // A clean corpus still has unlocated rows (the paper's own
            // geolocation error model) and legitimately thin cells (besieged
            // Mariupol), but it must never show *corruption* drops.
            let cov = coverage(&outputs);
            assert!(
                cov.dropped
                    .iter()
                    .all(|(reason, _)| matches!(reason, DropReason::Unlocated)),
                "clean plan reported corrupt rows: {:?}",
                cov.dropped
            );
        }
    }
}

#[test]
fn moderate_faults_keep_the_headline_findings() {
    // A rough month of platform trouble must not erase the paper's
    // conclusions — only annotate them.
    let data = study(0.12, FaultPlan::MODERATE);
    let outputs = stages(&data).expect("moderate faults must not error");

    // Table 1: the national row still degrades significantly.
    let table1 = table1_cities::compute(&data).expect("computes");
    let national = table1.row("National").expect("national row present");
    assert!(national.loss_test.significant(), "national loss p = {}", national.loss_test.p);
    assert!(national.loss_wartime > national.loss_prewar, "loss direction lost");
    assert!(national.min_rtt_wartime > national.min_rtt_prewar, "RTT direction lost");

    // Table 2: the wartime path-diversity jump survives 10% sidecar loss.
    let table2 = table2_paths::compute(&data, 1000).expect("computes");
    let wt = table2.row(Period::Wartime2022).paths_per_conn;
    let pw = table2.row(Period::Prewar2022).paths_per_conn;
    assert!(wt > pw, "path diversity jump lost: {pw} → {wt}");

    // Figure 5: Hurricane Electric still gains, Cogent still loses.
    let fig5 = fig5_border::compute(&data).expect("computes");
    assert!(fig5.row_change(wk::HURRICANE_ELECTRIC) > 0, "HE gain lost");
    assert!(fig5.row_change(wk::COGENT) < 0, "Cogent fade lost");

    // And the run is visibly annotated as degraded.
    let cov = coverage(&outputs);
    assert!(cov.is_degraded(), "moderate faults left no coverage trace");
    assert!(cov.dropped_total() > 0, "corrupt rows were not accounted");
}

#[test]
fn sidecar_blackout_degrades_gracefully_with_annotations() {
    // The stress case: every scamper sidecar lost. The §5 path analyses
    // have zero input but the report still completes, with the loss
    // accounted for in coverage rather than a panic or fabricated numbers.
    let data = study(0.06, FaultPlan::SIDECAR_BLACKOUT);
    assert!(data.traces.is_empty(), "blackout left traces behind");
    stages(&data).expect("sidecar blackout must not error");

    // Path analyses are empty, not wrong.
    let table3 = table3_as::compute(&data, 10).expect("computes");
    assert!(table3.rows.is_empty(), "AS table fabricated rows without traces");
    let fig5 = fig5_border::compute(&data).expect("computes");
    assert!(fig5.cells.is_empty(), "border matrix fabricated cells");
    let fig9 = fig9_path_perf::compute(&data, 10).expect("computes");
    assert!(fig9.connections.is_empty(), "path-perf fabricated connections");

    // The emptiness is annotated: Table 2's periods are all low-sample.
    let table2 = table2_paths::compute(&data, 1000).expect("computes");
    assert!(table2.coverage.is_degraded(), "trace loss not flagged");
    let rendered = table2.render();
    assert!(rendered.contains(DAGGER), "no dagger on starved period rows");
    assert!(rendered.contains("[coverage]"), "no coverage footer");

    // The §4 download analyses are untouched: the national series and the
    // city table still show the invasion.
    let table1 = table1_cities::compute(&data).expect("computes");
    let national = table1.row("National").expect("national row present");
    assert!(national.loss_wartime > national.loss_prewar);
    assert!(!fig2_national::compute(&data).expect("computes").y2022.days.is_empty());
}

#[test]
fn faulted_runs_are_bit_for_bit_deterministic() {
    // Same seed + same plan → identical corpus and identical artifacts,
    // regardless of how often it is run.
    let a = dataset(0.06, FaultPlan::MODERATE);
    let b = dataset(0.06, FaultPlan::MODERATE);
    // Corrupt rows carry injected NaNs, so `PartialEq` (NaN != NaN) cannot
    // express bit-for-bit equality — compare float fields by bit pattern.
    assert_eq!(a.ndt.len(), b.ndt.len(), "download row counts differ");
    for (x, y) in a.ndt.iter().zip(&b.ndt) {
        assert_eq!(
            (x.day, x.client_ip, x.server_ip, x.client_asn, x.oblast, x.city),
            (y.day, y.client_ip, y.server_ip, y.client_asn, y.oblast, y.city)
        );
        assert_eq!(x.mean_tput_mbps.to_bits(), y.mean_tput_mbps.to_bits());
        assert_eq!(x.min_rtt_ms.to_bits(), y.min_rtt_ms.to_bits());
        assert_eq!(x.loss_rate.to_bits(), y.loss_rate.to_bits());
    }
    // Trace metrics are never corrupted (always finite), so plain equality
    // is exact there.
    assert_eq!(a.traces, b.traces, "traceroute rows differ");
    let (da, db) = (StudyData::from_dataset(a), StudyData::from_dataset(b));
    let ra = stages(&da).expect("computes");
    let rb = stages(&db).expect("computes");
    let render = |outputs: &[StageOutput]| assemble_staged_report(outputs, &[]);
    assert_eq!(render(&ra), render(&rb), "rendered reports differ");
    let fig2 = |d: &StudyData| fig2_national::compute(d).expect("computes").to_csv();
    assert_eq!(fig2(&da), fig2(&db));
    let fig3 = |d: &StudyData| fig3_oblast::compute(d).expect("computes").to_csv();
    assert_eq!(fig3(&da), fig3(&db));
    assert_eq!(coverage(&ra), coverage(&rb), "coverage accounting differs");
}

#[test]
fn faults_only_degrade_the_clean_corpus() {
    // Keyed-hash coins mean a faulted dataset is a strict degradation of
    // the clean one: fewer (or equal) rows and traces, never new data.
    let clean = dataset(0.06, FaultPlan::NONE);
    let faulted = dataset(0.06, FaultPlan::SEVERE);
    assert!(faulted.ndt.len() <= clean.ndt.len(), "faults added download rows");
    assert!(faulted.traces.len() < clean.traces.len(), "30% sidecar loss left traces intact");
}
