//! Full-pipeline fault tolerance: the whole reproduction must complete —
//! and keep its headline findings — under every built-in fault plan, and a
//! faulted run must be bit-for-bit deterministic.
//!
//! This is the acceptance suite for the degraded-data pipeline: platform
//! faults (site outages, lost sidecars, corrupt rows, geolocation failure)
//! may *annotate* results via their `Coverage`, but may never panic the
//! analyses or silently skew them.

use std::sync::OnceLock;
use ukraine_ndt::analysis::coverage::DAGGER;
use ukraine_ndt::analysis::DropReason;
use ukraine_ndt::prelude::*;
use ukraine_ndt::topology::asn::well_known as wk;

fn dataset(scale: f64, faults: FaultPlan) -> Dataset {
    Simulator::new(SimConfig { scale, seed: 20_220_310, faults, ..SimConfig::default() }).run()
}

fn study(scale: f64, faults: FaultPlan) -> StudyData {
    StudyData::from_dataset(dataset(scale, faults))
}

/// The moderate-fault corpus is reused by several tests; build it once.
fn moderate() -> &'static ReproReport {
    static R: OnceLock<ReproReport> = OnceLock::new();
    R.get_or_init(|| {
        full_report(&study(0.12, FaultPlan::MODERATE)).expect("moderate faults must not error")
    })
}

#[test]
fn pipeline_completes_under_every_builtin_plan() {
    // Acceptance: every built-in plan — including 100% sidecar loss — runs
    // the *entire* pipeline without a panic or an error, and renders.
    for (name, plan) in FaultPlan::BUILTIN {
        let data = study(0.06, plan);
        let report =
            full_report(&data).unwrap_or_else(|e| panic!("plan {name} failed the pipeline: {e}"));
        let rendered = report.render();
        assert!(rendered.contains("Table 1"), "plan {name}: report did not render");
        if plan.is_none() {
            // A clean corpus still has unlocated rows (the paper's own
            // geolocation error model) and legitimately thin cells (besieged
            // Mariupol), but it must never show *corruption* drops.
            let cov = report.coverage();
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
    let r = moderate();

    // Table 1: the national row still degrades significantly.
    let national = r.table1.row("National").expect("national row present");
    assert!(national.loss_test.significant(), "national loss p = {}", national.loss_test.p);
    assert!(national.loss_wartime > national.loss_prewar, "loss direction lost");
    assert!(national.min_rtt_wartime > national.min_rtt_prewar, "RTT direction lost");

    // Table 2: the wartime path-diversity jump survives 10% sidecar loss.
    let wt = r.table2.row(Period::Wartime2022).paths_per_conn;
    let pw = r.table2.row(Period::Prewar2022).paths_per_conn;
    assert!(wt > pw, "path diversity jump lost: {pw} → {wt}");

    // Figure 5: Hurricane Electric still gains, Cogent still loses.
    assert!(r.fig5.row_change(wk::HURRICANE_ELECTRIC) > 0, "HE gain lost");
    assert!(r.fig5.row_change(wk::COGENT) < 0, "Cogent fade lost");

    // And the run is visibly annotated as degraded.
    let cov = r.coverage();
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
    let r = full_report(&data).expect("sidecar blackout must not error");

    // Path analyses are empty, not wrong.
    assert!(r.table3.rows.is_empty(), "AS table fabricated rows without traces");
    assert!(r.fig5.cells.is_empty(), "border matrix fabricated cells");
    assert!(r.fig9.connections.is_empty(), "path-perf fabricated connections");

    // The emptiness is annotated: Table 2's periods are all low-sample.
    assert!(r.table2.coverage.is_degraded(), "trace loss not flagged");
    let rendered = r.table2.render();
    assert!(rendered.contains(DAGGER), "no dagger on starved period rows");
    assert!(rendered.contains("[coverage]"), "no coverage footer");

    // The §4 download analyses are untouched: the national series and the
    // city table still show the invasion.
    let national = r.table1.row("National").expect("national row present");
    assert!(national.loss_wartime > national.loss_prewar);
    assert!(!r.fig2.y2022.days.is_empty());
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
    let ra = full_report(&StudyData::from_dataset(a)).expect("computes");
    let rb = full_report(&StudyData::from_dataset(b)).expect("computes");
    assert_eq!(ra.render(), rb.render(), "rendered reports differ");
    assert_eq!(ra.fig2.to_csv(), rb.fig2.to_csv());
    assert_eq!(ra.fig3.to_csv(), rb.fig3.to_csv());
    assert_eq!(ra.coverage(), rb.coverage(), "coverage accounting differs");
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
