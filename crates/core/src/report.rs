//! The full reproduction report: run every experiment, render every table
//! and figure.

use crate::coverage::Coverage;
use crate::dataset::StudyData;
use crate::error::AnalysisError;
use crate::{
    ext_alias, ext_correlation, ext_events, ext_ingress, ext_robustness, fig2_national, fig3_oblast, fig4_city_counts, fig5_border,
    fig6_as199995, fig7_8_distributions, fig9_path_perf, table1_cities, table2_paths, table3_as,
    table4_oblast, table5_6_as_detail,
};

/// Every experiment's result in one struct.
#[derive(Debug, Clone)]
pub struct ReproReport {
    pub fig1: crate::fig1_map::ActivityMap,
    pub fig2: fig2_national::NationalTimeline,
    pub fig3: fig3_oblast::OblastChanges,
    pub fig4: fig4_city_counts::CityCounts,
    pub table1: table1_cities::CityTable,
    pub table2: table2_paths::PathDiversity,
    pub table3: table3_as::AsTable,
    pub table4: table4_oblast::OblastTable,
    pub tables5_6: table5_6_as_detail::AsDetail,
    pub fig5: fig5_border::BorderMatrix,
    pub fig6: fig6_as199995::As199995CaseStudy,
    pub fig7_8: fig7_8_distributions::Distributions,
    pub fig9: fig9_path_perf::PathPerformance,
    /// Extension: §5.1 path counting under router alias resolution.
    pub ext_alias: ext_alias::AliasComparison,
    /// Extension: date-level change-point analysis.
    pub ext_events: ext_events::EventStudy,
    /// Extension: nonparametric re-test of Table 1.
    pub ext_robustness: ext_robustness::Robustness,
    /// Extension: Figure 6 generalized to every multi-ingress UA AS.
    pub ext_ingress: ext_ingress::IngressScan,
    /// Extension: intensity vs degradation correlation (§4.2 quantified).
    pub ext_correlation: ext_correlation::IntensityCorrelation,
    /// Scenario extension: two-country degradation comparison, rendered.
    /// Present only when the corpus carries a second-country digest
    /// (asymmetric scenarios).
    pub table_ab: Option<String>,
}

/// Runs the complete pipeline. Degraded data never fails the run — each
/// module accounts for what it dropped in its `coverage` — but schema
/// drift (a missing or mistyped column) is surfaced as an error.
pub fn full_report(data: &StudyData) -> Result<ReproReport, AnalysisError> {
    Ok(ReproReport {
        fig1: crate::fig1_map::compute(ndt_conflict::calendar::dates::MAX_OCCUPATION.day_index()),
        fig2: fig2_national::compute(data)?,
        fig3: fig3_oblast::compute(data)?,
        fig4: fig4_city_counts::compute(data)?,
        table1: table1_cities::compute(data)?,
        table2: table2_paths::compute(data, 1000)?,
        table3: table3_as::compute(data, 10)?,
        table4: table4_oblast::compute(data)?,
        tables5_6: table5_6_as_detail::compute(data, 10)?,
        fig5: fig5_border::compute(data)?,
        fig6: fig6_as199995::compute(data)?,
        fig7_8: fig7_8_distributions::compute(data)?,
        fig9: fig9_path_perf::compute(data, 10)?,
        ext_alias: ext_alias::compute(data, 1000)?,
        ext_events: ext_events::compute(data)?,
        ext_robustness: ext_robustness::compute(data)?,
        ext_ingress: ext_ingress::compute(data)?,
        ext_correlation: ext_correlation::compute(data)?,
        table_ab: data
            .second_country
            .as_ref()
            .map(|_| crate::country::table_ab(data))
            .transpose()?,
    })
}

/// Static description of one analysis stage: its name, report section
/// title and exported artifact files. Names are what the crash-safe
/// runner's stage records, spans and test hooks key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// Stable stage name.
    pub name: &'static str,
    /// Report section title, exactly as [`ReproReport::render`] prints it.
    pub title: &'static str,
    /// Artifact files the `export` command writes for this stage.
    pub artifacts: &'static [&'static str],
}

/// Every per-experiment compute of the pipeline, in report (render) order.
/// One entry per [`ReproReport`] field; `report::tests` pins that
/// correspondence.
pub const ANALYSIS_STAGES: [StageSpec; 18] = [
    StageSpec {
        name: "fig1",
        title: "Figure 1 (military activity, modeled, 2022-03-20)",
        artifacts: &["fig1_activity_map.txt"],
    },
    StageSpec {
        name: "fig2",
        title: "Figure 2 (national daily means)",
        artifacts: &["fig2_national_timeline.csv"],
    },
    StageSpec {
        name: "fig3",
        title: "Figure 3 (per-oblast % change)",
        artifacts: &["fig3_oblast_changes.csv"],
    },
    StageSpec {
        name: "fig4",
        title: "Figure 4 (Kharkiv & Mariupol counts)",
        artifacts: &["fig4_city_counts.csv"],
    },
    StageSpec {
        name: "table1",
        title: "Table 1 (city-level metrics)",
        artifacts: &["table1_cities.txt"],
    },
    StageSpec {
        name: "table2",
        title: "Table 2 (path diversity)",
        artifacts: &["table2_path_diversity.txt"],
    },
    StageSpec {
        name: "table3",
        title: "Table 3 (top-10 AS changes)",
        artifacts: &["table3_as_changes.txt"],
    },
    StageSpec {
        name: "table4",
        title: "Table 4 (oblast-level raw metrics)",
        artifacts: &["table4_oblast.txt"],
    },
    StageSpec {
        name: "table5_6",
        title: "Table 5 (AS detail)",
        artifacts: &["table5_as_detail.txt", "table6_as_pvalues.txt"],
    },
    StageSpec {
        name: "fig5",
        title: "Figure 5 (border-AS heat map)",
        artifacts: &["fig5_border_heatmap.txt"],
    },
    StageSpec {
        name: "fig6",
        title: "Figure 6 (AS199995 ingress)",
        artifacts: &["fig6_as199995.csv"],
    },
    StageSpec {
        name: "fig7_8",
        title: "Figures 7/8 (distributions)",
        artifacts: &["fig7_8_distributions.csv"],
    },
    StageSpec {
        name: "ext_alias",
        title: "Extension: alias-resolved path diversity",
        artifacts: &["ext_alias_resolution.txt"],
    },
    StageSpec {
        name: "ext_events",
        title: "Extension: date-level event alignment",
        artifacts: &["ext_event_alignment.txt"],
    },
    StageSpec {
        name: "ext_robustness",
        title: "Extension: Welch vs Mann-Whitney robustness",
        artifacts: &["ext_robustness.txt"],
    },
    StageSpec {
        name: "ext_ingress",
        title: "Extension: ingress shifts across all multi-ingress ASes",
        artifacts: &["ext_ingress_scan.txt"],
    },
    StageSpec {
        name: "ext_correlation",
        title: "Extension: intensity vs degradation correlation",
        artifacts: &["ext_correlation.txt"],
    },
    StageSpec {
        name: "fig9",
        title: "Figure 9 (path churn vs performance)",
        artifacts: &["fig9_path_performance.csv"],
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

// Shared section-body renderers: `ReproReport::render` (monolithic path)
// and `run_analysis_stage` (staged path) both go through these, so the two
// paths cannot drift apart.

fn fig2_body(p: &fig2_national::NationalTimeline) -> String {
    format!(
        "{} days in 2022 series, {} days in 2021 baseline (CSV available)\n",
        p.y2022.days.len(),
        p.y2021.days.len()
    )
}

fn fig4_body() -> String {
    "108-day daily count series (CSV available)\n".to_string()
}

fn fig6_body(p: &fig6_as199995::As199995CaseStudy) -> String {
    use ndt_topology::asn::well_known as wk;
    format!(
        "HE share change over war: {:+.2} (weekly series in CSV)\n",
        p.mean_share(wk::HURRICANE_ELECTRIC, 440, 473) - p.mean_share(wk::HURRICANE_ELECTRIC, 365, 419)
    )
}

fn fig7_8_body(p: &fig7_8_distributions::Distributions) -> String {
    format!(
        "prewar n = {}, wartime n = {} (CSV available)\n",
        p.prewar.min_rtt.total(),
        p.wartime.min_rtt.total()
    )
}

fn fig9_body(p: &fig9_path_perf::PathPerformance) -> String {
    format!(
        "corr(dPaths, dTput) = {:.3}, corr(dPaths, dLoss) = {:.3}, {} connections\n",
        p.corr_tput,
        p.corr_loss,
        p.connections.len()
    )
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
    let out = |section: String, contents: Vec<String>, coverage: Coverage| StageOutput {
        name: spec.name,
        section,
        artifacts: spec.artifacts.iter().copied().zip(contents).collect(),
        coverage,
    };
    let stage_out = match name {
        "fig1" => {
            let p =
                crate::fig1_map::compute(ndt_conflict::calendar::dates::MAX_OCCUPATION.day_index());
            let r = p.render();
            out(r.clone(), vec![r], Coverage::new())
        }
        "fig2" => {
            let p = fig2_national::compute(data)?;
            out(fig2_body(&p), vec![p.to_csv()], p.coverage)
        }
        "fig3" => {
            let p = fig3_oblast::compute(data)?;
            out(p.to_csv(), vec![p.to_csv()], p.coverage)
        }
        "fig4" => {
            let p = fig4_city_counts::compute(data)?;
            out(fig4_body(), vec![p.to_csv()], p.coverage)
        }
        "table1" => {
            let p = table1_cities::compute(data)?;
            out(p.render(), vec![p.render()], p.coverage)
        }
        "table2" => {
            let p = table2_paths::compute(data, 1000)?;
            out(p.render(), vec![p.render()], p.coverage)
        }
        "table3" => {
            let p = table3_as::compute(data, 10)?;
            out(p.render(), vec![p.render()], p.coverage)
        }
        "table4" => {
            let p = table4_oblast::compute(data)?;
            out(p.render(), vec![p.render()], p.coverage)
        }
        "table5_6" => {
            let p = table5_6_as_detail::compute(data, 10)?;
            out(
                format!("{}\n== Table 6 (AS p-values) ==\n{}", p.render_table5(), p.render_table6()),
                vec![p.render_table5(), p.render_table6()],
                p.coverage,
            )
        }
        "fig5" => {
            let p = fig5_border::compute(data)?;
            out(p.render(), vec![p.render()], p.coverage)
        }
        "fig6" => {
            let p = fig6_as199995::compute(data)?;
            out(fig6_body(&p), vec![p.to_csv()], p.coverage)
        }
        "fig7_8" => {
            let p = fig7_8_distributions::compute(data)?;
            out(fig7_8_body(&p), vec![p.to_csv()], p.coverage)
        }
        "ext_alias" => {
            let p = ext_alias::compute(data, 1000)?;
            out(p.render(), vec![p.render()], p.coverage)
        }
        "ext_events" => {
            let p = ext_events::compute(data)?;
            out(p.render(), vec![p.render()], p.coverage)
        }
        "ext_robustness" => {
            let p = ext_robustness::compute(data)?;
            out(p.render(), vec![p.render()], p.coverage)
        }
        "ext_ingress" => {
            let p = ext_ingress::compute(data)?;
            out(p.render(), vec![p.render()], p.coverage)
        }
        "ext_correlation" => {
            let p = ext_correlation::compute(data)?;
            out(p.render(), vec![p.render()], p.coverage)
        }
        "fig9" => {
            let p = fig9_path_perf::compute(data, 10)?;
            out(fig9_body(&p), vec![p.to_csv()], p.coverage)
        }
        "table_ab" => {
            let p = crate::country::table_ab(data)?;
            out(p.clone(), vec![p], Coverage::new())
        }
        _ => unreachable!("stage_spec() already validated the name"),
    };
    publish_coverage_counters(&stage_out.coverage);
    Ok(stage_out)
}

/// Assembles a full report text from staged outputs. With every stage
/// present and no failures this is byte-identical to
/// [`ReproReport::render`] on the same corpus (pinned by a test); failed
/// stages render as an annotated placeholder section plus a closing
/// "failed stages" section, mirroring how degraded *data* surfaces in
/// coverage footers.
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

impl ReproReport {
    /// The whole run's degradation accounting: every experiment's coverage
    /// merged into one, in [`ANALYSIS_STAGES`] (render) order.
    pub fn coverage(&self) -> Coverage {
        let mut c = Coverage::new();
        for part in [
            &self.fig2.coverage,
            &self.fig3.coverage,
            &self.fig4.coverage,
            &self.table1.coverage,
            &self.table2.coverage,
            &self.table3.coverage,
            &self.table4.coverage,
            &self.tables5_6.coverage,
            &self.fig5.coverage,
            &self.fig6.coverage,
            &self.fig7_8.coverage,
            &self.ext_alias.coverage,
            &self.ext_events.coverage,
            &self.ext_robustness.coverage,
            &self.ext_ingress.coverage,
            &self.ext_correlation.coverage,
            &self.fig9.coverage,
        ] {
            c.merge(part);
        }
        c
    }

    /// Section body for one [`ANALYSIS_STAGES`] entry, from the already
    /// computed parts (shared with the staged path's renderers).
    fn section_body(&self, name: &str) -> String {
        match name {
            "fig1" => self.fig1.render(),
            "fig2" => fig2_body(&self.fig2),
            "fig3" => self.fig3.to_csv(),
            "fig4" => fig4_body(),
            "table1" => self.table1.render(),
            "table2" => self.table2.render(),
            "table3" => self.table3.render(),
            "table4" => self.table4.render(),
            "table5_6" => format!(
                "{}\n== Table 6 (AS p-values) ==\n{}",
                self.tables5_6.render_table5(),
                self.tables5_6.render_table6()
            ),
            "fig5" => self.fig5.render(),
            "fig6" => fig6_body(&self.fig6),
            "fig7_8" => fig7_8_body(&self.fig7_8),
            "ext_alias" => self.ext_alias.render(),
            "ext_events" => self.ext_events.render(),
            "ext_robustness" => self.ext_robustness.render(),
            "ext_ingress" => self.ext_ingress.render(),
            "ext_correlation" => self.ext_correlation.render(),
            "fig9" => fig9_body(&self.fig9),
            other => format!("[unknown stage {other}]\n"),
        }
    }

    /// Plain-text rendering of every table and a summary line per figure.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for spec in &ANALYSIS_STAGES {
            push_section(&mut out, spec.title, &self.section_body(spec.name));
        }
        if let Some(t) = &self.table_ab {
            push_section(&mut out, SCENARIO_STAGES[0].title, t);
        }
        push_section(&mut out, COVERAGE_TITLE, &coverage_body(&self.coverage()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::shared_medium;

    #[test]
    fn staged_pipeline_matches_monolithic_report() {
        // The crash-safe runner computes the report one stage at a time and
        // assembles the sections; that path must be byte-identical to
        // `full_report(..).render()` — it is the determinism contract that
        // makes checkpointed resume safe.
        let data = shared_medium();
        let outputs: Vec<StageOutput> = ANALYSIS_STAGES
            .iter()
            .map(|s| run_analysis_stage(s.name, data).expect("stage computes"))
            .collect();
        let staged = assemble_staged_report(&outputs, &[]);
        let monolithic = full_report(data).expect("clean corpus computes").render();
        assert_eq!(staged, monolithic);
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
        // The export file set is derived from these specs; any new report
        // field must add a stage (and so an artifact) or this count drifts.
        assert_eq!(seen.len(), 19, "artifact file set changed — update export docs/tests");
    }

    #[test]
    fn table_ab_joins_both_report_paths_for_asymmetric_corpora() {
        use crate::dataset::test_support::small_dataset;
        // Attach a second-country digest (what the pipeline's `country-b`
        // stage does) and check the staged and monolithic paths render the
        // A/B section identically, between the fixed stages and coverage.
        let mut data = StudyData::from_dataset(small_dataset().clone());
        data.second_country = crate::country::second_country_digest(&ndt_mlab::SimConfig {
            scenario: ndt_mlab::sim::Scenario::ASYMMETRIC,
            ..ndt_mlab::SimConfig::small(1234)
        })
        .expect("digest computes");
        assert!(data.second_country.is_some());
        let mut outputs: Vec<StageOutput> = ANALYSIS_STAGES
            .iter()
            .map(|s| run_analysis_stage(s.name, &data).expect("stage computes"))
            .collect();
        outputs.push(run_analysis_stage("table_ab", &data).expect("table_ab computes"));
        let staged = assemble_staged_report(&outputs, &[]);
        let monolithic = full_report(&data).expect("clean corpus computes").render();
        assert_eq!(staged, monolithic);
        let title = format!("== {} ==", SCENARIO_STAGES[0].title);
        assert!(staged.contains(&title));
        let pos_ab = staged.find(&title).unwrap();
        let pos_cov = staged.find(COVERAGE_TITLE).unwrap();
        assert!(pos_ab < pos_cov, "A/B section precedes the coverage footer");
        // And a single-country report carries no trace of it.
        assert!(!full_report(shared_medium()).expect("computes").render().contains(&title));
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
    fn full_report_runs_and_renders() {
        let r = full_report(shared_medium()).expect("clean corpus computes");
        let s = r.render();
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
