//! # ndt-analysis
//!
//! The analysis pipeline of *"The Ukrainian Internet Under Attack: an NDT
//! Perspective"* (IMC '22) — the paper's primary contribution — implemented
//! over the simulated M-Lab dataset produced by `ndt-mlab`.
//!
//! One module per table/figure of the paper:
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig1_map`] | Figure 1 — the military-activity snapshot (modeled) |
//! | [`fig2_national`] | Figure 2 — national daily means, 2022 vs 2021 |
//! | [`fig3_oblast`] | Figure 3 — per-oblast % changes of the four metrics |
//! | [`fig4_city_counts`] | Figure 4 — Kharkiv & Mariupol daily test counts |
//! | [`table1_cities`] | Table 1 — city-level metrics + Welch's t-tests |
//! | [`table2_paths`] | Table 2 — paths/connection for top-1000 connections |
//! | [`table3_as`] | Table 3 — top-10 AS deltas vs baseline fluctuations |
//! | [`table4_oblast`] | Table 4 — raw oblast-level metrics |
//! | [`table5_6_as_detail`] | Tables 5 & 6 — AS-level detail + p-values |
//! | [`fig5_border`] | Figure 5 — border-AS × Ukrainian-AS heat map |
//! | [`fig6_as199995`] | Figure 6 — AS199995 ingress shift vs AS6663 decay |
//! | [`fig7_8_distributions`] | Figures 7 & 8 — metric distributions |
//! | [`fig9_path_perf`] | Figure 9 — path churn vs performance change |
//!
//! [`dataset::StudyData`] wraps the generated corpus as two day-ordered
//! columnar tables, the same columns the store encodes: the §4 analyses
//! slice the `unified_download` table with a [`dataset::Selection`] by
//! period, city or oblast and read [`dataset::Metric`] columns over it, as
//! the paper's BigQuery queries do; the §5 analyses read the scamper table
//! ([`dataset::StudyData::traces`], each AS path a slice of one arena)
//! over a period's rows.
//!
//! Three extension modules implement the paper's stated future work and
//! self-identified limitations: [`ext_alias`] (router alias resolution vs
//! §5.1's IP-level path counting), [`ext_events`] (date-level change-point
//! analysis, which the paper "largely leave\[s\] … to future work") and
//! [`ext_robustness`] (a Mann–Whitney re-test of Table 1, addressing
//! Appendix B's normality concern).
//!
//! [`report`] is the stage registry: [`ANALYSIS_STAGES`] names every
//! table and figure with its section title, exported artifacts and the
//! function that computes and renders it. [`run_analysis_stage`] runs one
//! stage and [`assemble_staged_report`] joins their sections into the
//! plain-text reproduction report; the figure stages also export CSV
//! series for external plotting.
//!
//! The pipeline is panic-free on degraded data: every `compute()` returns
//! `Result<_, `[`AnalysisError`]`>`, and data-driven results carry a
//! [`coverage::Coverage`] accounting for rows dropped (unlocated,
//! non-finite, negative) and cells resting on fewer than
//! [`coverage::LOW_SAMPLE_N`] samples — the paper's daggered low-n entries.
//! Renderers annotate degraded cells and append a coverage footer.

pub mod country;
pub mod coverage;
pub mod dataset;
pub mod error;
pub mod ext_alias;
pub mod ext_correlation;
pub mod ext_events;
pub mod ext_ingress;
pub mod ext_robustness;
pub mod fig1_map;
pub mod fig2_national;
pub mod fig3_oblast;
pub mod fig4_city_counts;
pub mod fig5_border;
pub mod fig6_as199995;
pub mod fig7_8_distributions;
pub mod fig9_path_perf;
pub mod paper;
pub mod render;
pub mod report;
pub mod table1_cities;
pub mod table2_paths;
pub mod table3_as;
pub mod table4_oblast;
pub mod table5_6_as_detail;

pub use country::{second_country_digest, CountryDigest};
pub use coverage::{Coverage, DropReason, LOW_SAMPLE_N};
pub use dataset::{Metric, Selection, StudyData, StudyDataBuilder};
pub use error::AnalysisError;
pub use report::{
    assemble_staged_report, run_analysis_stage, stage_spec, StageFailure, StageOutput, StageSpec,
    ANALYSIS_STAGES, SCENARIO_STAGES,
};
