//! The analysis stage registry: one entry per table and figure of the
//! report, each carrying its name, section title, exported artifacts and
//! the function that computes and renders it. Every command — `report`,
//! `export`, `report --from-store`, `serve` — runs the stages through
//! [`run_analysis_stage`] and assembles the report text with
//! [`assemble_staged_report`].

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::{
    country, ext_alias, ext_correlation, ext_events, ext_ingress, ext_robustness, fig1_map,
    fig2_national, fig3_oblast, fig4_city_counts, fig5_border, fig6_as199995,
    fig7_8_distributions, fig9_path_perf, table1_cities, table2_paths, table3_as, table4_oblast,
    table5_6_as_detail,
};

/// What a stage body returns: the report section body (without its
/// `== title ==` header), the artifact contents in [`StageSpec::artifacts`]
/// order, and the stage's degraded-data accounting.
type StageBody = (String, Vec<String>, Coverage);

/// One analysis stage: its name, report section title, exported artifact
/// files, and the body that computes and renders it. Names are what the
/// crash-safe runner's stage records, spans and test hooks key on.
#[derive(Debug, Clone, Copy)]
pub struct StageSpec {
    /// Stable stage name.
    pub name: &'static str,
    /// Report section title, exactly as [`assemble_staged_report`] prints it.
    pub title: &'static str,
    /// Artifact files the `export` command writes for this stage.
    pub artifacts: &'static [&'static str],
    /// Computes the stage over a corpus and renders it.
    run: fn(&StudyData) -> Result<StageBody, AnalysisError>,
}

/// A stage whose section and single artifact are the same rendering.
fn rendered(text: String, coverage: Coverage) -> Result<StageBody, AnalysisError> {
    Ok((text.clone(), vec![text], coverage))
}

/// Every per-experiment stage of the pipeline, in report (render) order.
pub const ANALYSIS_STAGES: [StageSpec; 18] = [
    StageSpec {
        name: "fig1",
        title: "Figure 1 (military activity, modeled, 2022-03-20)",
        artifacts: &["fig1_activity_map.txt"],
        run: |_| {
            let day = ndt_conflict::calendar::dates::MAX_OCCUPATION.day_index();
            rendered(fig1_map::compute(day).render(), Coverage::new())
        },
    },
    StageSpec {
        name: "fig2",
        title: "Figure 2 (national daily means)",
        artifacts: &["fig2_national_timeline.csv"],
        run: |data| {
            let p = fig2_national::compute(data)?;
            let section = format!(
                "{} days in 2022 series, {} days in 2021 baseline (CSV available)\n",
                p.y2022.days.len(),
                p.y2021.days.len()
            );
            Ok((section, vec![p.to_csv()], p.coverage))
        },
    },
    StageSpec {
        name: "fig3",
        title: "Figure 3 (per-oblast % change)",
        artifacts: &["fig3_oblast_changes.csv"],
        run: |data| {
            let p = fig3_oblast::compute(data)?;
            rendered(p.to_csv(), p.coverage)
        },
    },
    StageSpec {
        name: "fig4",
        title: "Figure 4 (Kharkiv & Mariupol counts)",
        artifacts: &["fig4_city_counts.csv"],
        run: |data| {
            let p = fig4_city_counts::compute(data)?;
            let section = "108-day daily count series (CSV available)\n".to_string();
            Ok((section, vec![p.to_csv()], p.coverage))
        },
    },
    StageSpec {
        name: "table1",
        title: "Table 1 (city-level metrics)",
        artifacts: &["table1_cities.txt"],
        run: |data| {
            let p = table1_cities::compute(data)?;
            rendered(p.render(), p.coverage)
        },
    },
    StageSpec {
        name: "table2",
        title: "Table 2 (path diversity)",
        artifacts: &["table2_path_diversity.txt"],
        run: |data| {
            let p = table2_paths::compute(data, 1000)?;
            rendered(p.render(), p.coverage)
        },
    },
    StageSpec {
        name: "table3",
        title: "Table 3 (top-10 AS changes)",
        artifacts: &["table3_as_changes.txt"],
        run: |data| {
            let p = table3_as::compute(data, 10)?;
            rendered(p.render(), p.coverage)
        },
    },
    StageSpec {
        name: "table4",
        title: "Table 4 (oblast-level raw metrics)",
        artifacts: &["table4_oblast.txt"],
        run: |data| {
            let p = table4_oblast::compute(data)?;
            rendered(p.render(), p.coverage)
        },
    },
    StageSpec {
        name: "table5_6",
        title: "Table 5 (AS detail)",
        artifacts: &["table5_as_detail.txt", "table6_as_pvalues.txt"],
        run: |data| {
            let p = table5_6_as_detail::compute(data, 10)?;
            let (t5, t6) = (p.render_table5(), p.render_table6());
            let section = format!("{t5}\n== Table 6 (AS p-values) ==\n{t6}");
            Ok((section, vec![t5, t6], p.coverage))
        },
    },
    StageSpec {
        name: "fig5",
        title: "Figure 5 (border-AS heat map)",
        artifacts: &["fig5_border_heatmap.txt"],
        run: |data| {
            let p = fig5_border::compute(data)?;
            rendered(p.render(), p.coverage)
        },
    },
    StageSpec {
        name: "fig6",
        title: "Figure 6 (AS199995 ingress)",
        artifacts: &["fig6_as199995.csv"],
        run: |data| {
            use ndt_topology::asn::well_known::HURRICANE_ELECTRIC as HE;
            let p = fig6_as199995::compute(data)?;
            let section = format!(
                "HE share change over war: {:+.2} (weekly series in CSV)\n",
                p.mean_share(HE, 440, 473) - p.mean_share(HE, 365, 419)
            );
            Ok((section, vec![p.to_csv()], p.coverage))
        },
    },
    StageSpec {
        name: "fig7_8",
        title: "Figures 7/8 (distributions)",
        artifacts: &["fig7_8_distributions.csv"],
        run: |data| {
            let p = fig7_8_distributions::compute(data)?;
            let section = format!(
                "prewar n = {}, wartime n = {} (CSV available)\n",
                p.prewar.min_rtt.total(),
                p.wartime.min_rtt.total()
            );
            Ok((section, vec![p.to_csv()], p.coverage))
        },
    },
    StageSpec {
        name: "ext_alias",
        title: "Extension: alias-resolved path diversity",
        artifacts: &["ext_alias_resolution.txt"],
        run: |data| {
            let p = ext_alias::compute(data, 1000)?;
            rendered(p.render(), p.coverage)
        },
    },
    StageSpec {
        name: "ext_events",
        title: "Extension: date-level event alignment",
        artifacts: &["ext_event_alignment.txt"],
        run: |data| {
            let p = ext_events::compute(data)?;
            rendered(p.render(), p.coverage)
        },
    },
    StageSpec {
        name: "ext_robustness",
        title: "Extension: Welch vs Mann-Whitney robustness",
        artifacts: &["ext_robustness.txt"],
        run: |data| {
            let p = ext_robustness::compute(data)?;
            rendered(p.render(), p.coverage)
        },
    },
    StageSpec {
        name: "ext_ingress",
        title: "Extension: ingress shifts across all multi-ingress ASes",
        artifacts: &["ext_ingress_scan.txt"],
        run: |data| {
            let p = ext_ingress::compute(data)?;
            rendered(p.render(), p.coverage)
        },
    },
    StageSpec {
        name: "ext_correlation",
        title: "Extension: intensity vs degradation correlation",
        artifacts: &["ext_correlation.txt"],
        run: |data| {
            let p = ext_correlation::compute(data)?;
            rendered(p.render(), p.coverage)
        },
    },
    StageSpec {
        name: "fig9",
        title: "Figure 9 (path churn vs performance)",
        artifacts: &["fig9_path_performance.csv"],
        run: |data| {
            let p = fig9_path_perf::compute(data, 10)?;
            let section = format!(
                "corr(dPaths, dTput) = {:.3}, corr(dPaths, dLoss) = {:.3}, {} connections\n",
                p.corr_tput,
                p.corr_loss,
                p.connections.len()
            );
            Ok((section, vec![p.to_csv()], p.coverage))
        },
    },
];

/// Scenario-conditional stages: run only when the corpus calls for them
/// (today: the two-country comparison of asymmetric scenarios). They
/// render between the fixed [`ANALYSIS_STAGES`] sections and the coverage
/// footer, and are absent — not placeholders — when their precondition
/// does not hold.
pub const SCENARIO_STAGES: [StageSpec; 1] = [StageSpec {
    name: "table_ab",
    title: "Scenario A/B (two-country degradation comparison)",
    artifacts: &["table_ab_comparison.txt"],
    run: |data| {
        let (text, coverage) = country::table_ab(data)?;
        rendered(text, coverage)
    },
}];

/// Section title of the coverage footer that closes every report.
pub const COVERAGE_TITLE: &str = "Coverage (degraded-data accounting)";

/// Section title listing stages that failed to *execute* (panic, deadline,
/// I/O); only present when at least one did.
pub const FAILED_STAGES_TITLE: &str = "Failed stages (execution faults)";

/// Looks an analysis stage up by name (fixed and scenario-conditional).
pub fn stage_spec(name: &str) -> Option<&'static StageSpec> {
    ANALYSIS_STAGES
        .iter()
        .chain(SCENARIO_STAGES.iter())
        .find(|s| s.name == name)
}

/// One analysis stage's run result: the report section body, the exported
/// artifacts, and the stage's own degradation accounting. Everything the
/// crash-safe runner produces downstream (report text, exported files,
/// merged coverage) derives from it.
#[derive(Debug, Clone, PartialEq)]
pub struct StageOutput {
    /// The [`StageSpec::name`] this output belongs to.
    pub name: &'static str,
    /// Rendered report section body (without the `== title ==` header).
    pub section: String,
    /// `(file name, content)` pairs for the `export` command, matching
    /// [`StageSpec::artifacts`].
    pub artifacts: Vec<(&'static str, String)>,
    /// Degraded-data accounting for this stage.
    pub coverage: Coverage,
}

/// An execution-level stage failure (panic, deadline, exhausted retries) —
/// distinct from degraded *data*, which flows through [`Coverage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageFailure {
    /// Stage name (analysis stage, corpus shard, or topology).
    pub name: String,
    /// Human-readable reason.
    pub reason: String,
}

fn coverage_body(total: &Coverage) -> String {
    if total.is_degraded() {
        total.footer()
    } else {
        "all experiments ran on clean data; nothing dropped\n".to_string()
    }
}

fn push_section(out: &mut String, title: &str, body: &str) {
    out.push_str("== ");
    out.push_str(title);
    out.push_str(" ==\n");
    out.push_str(body);
    out.push('\n');
}

/// Publishes one stage's degraded-data accounting as `analysis.*` work
/// counters: rows seen, rows dropped per [`crate::DropReason`], and
/// low-sample cells. Values derive purely from the corpus, so they join
/// the metrics artifact's determinism contract.
fn publish_coverage_counters(coverage: &Coverage) {
    ndt_obs::incr("analysis.rows_seen", coverage.rows_seen as u64);
    for (reason, n) in &coverage.dropped {
        ndt_obs::incr(&format!("analysis.rows_dropped.{}", reason.label()), *n as u64);
    }
    ndt_obs::incr("analysis.low_sample_cells", coverage.low_sample_cells.len() as u64);
}

/// Runs a single analysis stage by [`StageSpec::name`]. Each stage is an
/// independent compute over the corpus — the crash-safe runner executes
/// them one at a time under panic isolation.
///
/// Each run is timed under an `analysis.<name>` span, and its coverage is
/// published as `analysis.*` counters (rows seen, drops by reason,
/// low-sample cells).
pub fn run_analysis_stage(name: &str, data: &StudyData) -> Result<StageOutput, AnalysisError> {
    let spec = stage_spec(name).ok_or_else(|| AnalysisError::Degenerate {
        what: format!("unknown analysis stage '{name}'"),
    })?;
    let _span = ndt_obs::span(&format!("analysis.{name}"));
    let (section, contents, coverage) = (spec.run)(data)?;
    publish_coverage_counters(&coverage);
    Ok(StageOutput {
        name: spec.name,
        section,
        artifacts: spec.artifacts.iter().copied().zip(contents).collect(),
        coverage,
    })
}

/// Assembles a full report text from staged outputs. Failed stages render
/// as an annotated placeholder section plus a closing "failed stages"
/// section, mirroring how degraded *data* surfaces in coverage footers.
pub fn assemble_staged_report(outputs: &[StageOutput], failures: &[StageFailure]) -> String {
    let mut out = String::new();
    let mut total = Coverage::new();
    for spec in &ANALYSIS_STAGES {
        match outputs.iter().find(|o| o.name == spec.name) {
            Some(o) => {
                push_section(&mut out, spec.title, &o.section);
                total.merge(&o.coverage);
            }
            None => {
                let reason = failures
                    .iter()
                    .find(|f| f.name == spec.name)
                    .map(|f| f.reason.as_str())
                    .unwrap_or("stage did not run");
                push_section(&mut out, spec.title, &format!("[stage failed: {reason}]\n"));
            }
        }
    }
    // Scenario-conditional stages only render when they were attempted:
    // an output (success) or a recorded failure (placeholder). A run whose
    // scenario never scheduled them leaves no trace.
    for spec in &SCENARIO_STAGES {
        if let Some(o) = outputs.iter().find(|o| o.name == spec.name) {
            push_section(&mut out, spec.title, &o.section);
            total.merge(&o.coverage);
        } else if let Some(f) = failures.iter().find(|f| f.name == spec.name) {
            push_section(&mut out, spec.title, &format!("[stage failed: {}]\n", f.reason));
        }
    }
    push_section(&mut out, COVERAGE_TITLE, &coverage_body(&total));
    if !failures.is_empty() {
        let body: String =
            failures.iter().map(|f| format!("{}: {}\n", f.name, f.reason)).collect();
        push_section(&mut out, FAILED_STAGES_TITLE, &body);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;

    /// Every fixed stage over `data`, assembled as the runner does.
    fn staged_report(data: &StudyData, extra: &[&str]) -> String {
        let outputs: Vec<StageOutput> = ANALYSIS_STAGES
            .iter()
            .map(|s| s.name)
            .chain(extra.iter().copied())
            .map(|name| run_analysis_stage(name, data).expect("stage computes"))
            .collect();
        assemble_staged_report(&outputs, &[])
    }

    #[test]
    fn every_stage_exports_its_declared_artifacts() {
        let data = shared_medium();
        let mut seen = std::collections::HashSet::new();
        for spec in &ANALYSIS_STAGES {
            let out = run_analysis_stage(spec.name, data).expect("stage computes");
            assert_eq!(out.name, spec.name);
            let names: Vec<&str> = out.artifacts.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, spec.artifacts.to_vec(), "stage {}", spec.name);
            for (n, content) in &out.artifacts {
                assert!(!content.is_empty(), "stage {} artifact {n} is empty", spec.name);
                assert!(seen.insert(*n), "artifact {n} exported by two stages");
            }
        }
        // The export file set is derived from these specs; any new stage
        // adds an artifact, or this count drifts.
        assert_eq!(seen.len(), 19, "artifact file set changed — update export docs/tests");
    }

    #[test]
    fn table_ab_joins_the_report_for_asymmetric_corpora() {
        use crate::dataset::test_support::small_dataset;
        // Attach a second-country digest (what the pipeline's `country-b`
        // stage does) and check the A/B section renders between the fixed
        // stages and coverage.
        let mut data = StudyData::from_dataset(small_dataset().clone());
        data.second_country = crate::country::second_country_digest(&ndt_mlab::SimConfig {
            scenario: ndt_mlab::sim::Scenario::ASYMMETRIC,
            ..ndt_mlab::SimConfig::small(1234)
        })
        .expect("digest computes");
        assert!(data.second_country.is_some());
        let staged = staged_report(&data, &["table_ab"]);
        let title = format!("== {} ==", SCENARIO_STAGES[0].title);
        assert!(staged.contains(&title));
        let pos_ab = staged.find(&title).unwrap();
        let pos_cov = staged.find(COVERAGE_TITLE).unwrap();
        assert!(pos_ab < pos_cov, "A/B section precedes the coverage footer");
        // And a single-country report carries no trace of it.
        assert!(!staged_report(shared_medium(), &[]).contains(&title));
    }

    #[test]
    fn failed_stages_render_annotated_placeholders() {
        let data = shared_medium();
        let outputs: Vec<StageOutput> = ANALYSIS_STAGES
            .iter()
            .filter(|s| s.name != "fig5")
            .map(|s| run_analysis_stage(s.name, data).expect("stage computes"))
            .collect();
        let failures = vec![
            StageFailure { name: "fig5".into(), reason: "stage panicked: boom".into() },
            StageFailure { name: "corpus:365-392".into(), reason: "deadline exceeded".into() },
        ];
        let text = assemble_staged_report(&outputs, &failures);
        assert!(text.contains("== Figure 5 (border-AS heat map) ==\n[stage failed: stage panicked: boom]"));
        assert!(text.contains(FAILED_STAGES_TITLE));
        assert!(text.contains("corpus:365-392: deadline exceeded"));
        // Completed sections still render normally.
        assert!(text.contains("== Table 1 (city-level metrics) =="));
    }

    #[test]
    fn unknown_stage_name_is_an_error() {
        let err = run_analysis_stage("fig99", shared_medium()).expect_err("must reject");
        assert!(err.to_string().contains("fig99"));
    }

    #[test]
    fn staged_report_runs_and_renders() {
        let s = staged_report(shared_medium(), &[]);
        for needle in [
            "alias-resolved",
            "event alignment",
            "Table 1",
            "Table 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "Table 6",
            "Figure 2",
            "Figure 5",
            "Figure 9",
            "Kyivstar",
            "Baseline Fluctuations",
            "Coverage (degraded-data accounting)",
        ] {
            assert!(s.contains(needle), "report missing {needle}");
        }
    }
}
