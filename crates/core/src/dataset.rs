//! Dataset wrapper: the two "BigQuery tables" plus period helpers.

use std::collections::BTreeSet;
use std::io;

use ndt_bq::{Query, Table, Value};
use ndt_conflict::Period;
use ndt_mlab::columnar::{push_unified_batch, UnifiedBatch};
use ndt_mlab::schema::empty_unified_table;
use ndt_mlab::{Dataset, Scamper1Row, SimConfig, Simulator};
use ndt_store::DEFAULT_GROUP_ROWS;

/// The generated corpus, ready for analysis.
pub struct StudyData {
    /// `ndt.scamper1` rows, consumed natively by the §5 analyses.
    pub traces: Vec<Scamper1Row>,
    /// `ndt.unified_download` as a queryable table (§4 analyses).
    pub unified: Table,
    /// Inclusive day ranges with no unified rows *inside an otherwise
    /// populated study window* — whole days lost to e.g. a quarantined
    /// store shard. A clean simulation populates every day of every
    /// [`Period`] window, so this is empty for intact corpora; windows
    /// with no rows at all are treated as not-simulated, not missing, so
    /// a degraded corpus and a fresh run on the same surviving data
    /// compute identical gaps.
    pub day_gaps: Vec<(i64, i64)>,
    /// Second-country digest for asymmetric scenarios, attached by the
    /// pipeline (a `country-b` stage) or the columnar store loader
    /// (`country-b.digest.txt`); `None` for single-country corpora. Feeds
    /// the `table_ab` analysis stage.
    pub second_country: Option<crate::country::CountryDigest>,
}

/// Day ranges of each [`Period`] window that hold no unified rows, for
/// windows that hold at least one. See [`StudyData::day_gaps`].
fn compute_day_gaps(unified: &Table) -> Vec<(i64, i64)> {
    let days: BTreeSet<i64> = unified.query().ints("day").into_iter().collect();
    let mut gaps = Vec::new();
    for p in Period::ALL {
        let (s, e) = p.day_range();
        if !(s..e).any(|d| days.contains(&d)) {
            continue;
        }
        let mut d = s;
        while d < e {
            if days.contains(&d) {
                d += 1;
                continue;
            }
            let lo = d;
            while d < e && !days.contains(&d) {
                d += 1;
            }
            gaps.push((lo, d - 1));
        }
    }
    gaps
}

impl StudyData {
    /// Generates a corpus with the given simulator configuration.
    pub fn generate(config: SimConfig) -> Self {
        let raw = Simulator::new(config).run();
        Self::from_dataset(raw)
    }

    /// Wraps an already-generated dataset. It is built by
    /// [`StudyDataBuilder`], as every corpus is, so the unified row structs
    /// are dropped once the table holds them.
    pub fn from_dataset(raw: Dataset) -> Self {
        let mut b = StudyDataBuilder::new();
        b.push_shard(raw).expect("a dataset's rows transpose into valid unified batches");
        b.finish()
    }

    /// Unified rows within a period.
    pub fn period(&self, p: Period) -> Query<'_> {
        let (s, e) = p.day_range();
        self.unified.query().filter_int_range("day", s, e)
    }

    /// Unified rows of one labeled city within a period (Table 1's slices).
    pub fn city_period(&self, city: &str, p: Period) -> Query<'_> {
        self.period(p).filter_eq("city", &Value::from(city))
    }

    /// Unified rows of one labeled region within a period.
    pub fn oblast_period(&self, oblast: &str, p: Period) -> Query<'_> {
        self.period(p).filter_eq("oblast", &Value::from(oblast))
    }

    /// Scamper rows within a period.
    pub fn traces_in(&self, p: Period) -> impl Iterator<Item = &Scamper1Row> {
        let (s, e) = p.day_range();
        self.traces.iter().filter(move |r| (s..e).contains(&r.day))
    }

    /// Total unified rows.
    pub fn unified_len(&self) -> usize {
        self.unified.len()
    }
}

/// The one way a [`StudyData`] is built: the corpus arrives in pieces —
/// whole shards from the shard pool ([`Self::push_shard`]), or decoded
/// store batches ([`Self::push_unified_batch`], [`Self::push_trace_rows`])
/// — and every unified row enters the table as part of a columnar batch.
/// The builder keeps no unified row structs; the finished [`StudyData`]'s
/// traces are every trace pushed, in order.
#[derive(Default)]
pub struct StudyDataBuilder {
    unified: Option<Table>,
    traces: Vec<Scamper1Row>,
}

/// A consistent builder position, taken with [`StudyDataBuilder::mark`]
/// before a shard starts streaming in and handed back to
/// [`StudyDataBuilder::rollback`] if the shard fails mid-stream — the
/// degrade contract needs a failed shard to contribute *nothing*.
#[derive(Debug, Clone, Copy)]
pub struct BuilderMark {
    unified_rows: usize,
    trace_rows: usize,
}

impl StudyDataBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one corpus shard: its unified rows are transposed into
    /// [`DEFAULT_GROUP_ROWS`]-row batches for [`Self::push_unified_batch`]
    /// and dropped, and its traces move in. On error the shard may be
    /// partly ingested; [`Self::mark`] first if that matters.
    pub fn push_shard(&mut self, shard: Dataset) -> io::Result<()> {
        for chunk in shard.ndt.chunks(DEFAULT_GROUP_ROWS) {
            self.push_unified_batch(&UnifiedBatch::from_rows(chunk))?;
        }
        self.push_trace_rows(shard.traces);
        Ok(())
    }

    /// Ingests one columnar batch straight into the unified table, cell
    /// for cell what `ndt-mlab`'s test-only row-at-a-time oracle produces
    /// for the same rows.
    pub fn push_unified_batch(&mut self, batch: &UnifiedBatch) -> io::Result<()> {
        let table = self.unified.get_or_insert_with(empty_unified_table);
        push_unified_batch(table, batch).map_err(|e| e.into_io())
    }

    /// Appends scamper trace rows.
    pub fn push_trace_rows(&mut self, rows: Vec<Scamper1Row>) {
        self.traces.extend(rows);
    }

    /// Unified rows ingested so far.
    pub fn unified_rows(&self) -> usize {
        self.unified.as_ref().map_or(0, Table::len)
    }

    /// Current position, for a later [`Self::rollback`].
    pub fn mark(&self) -> BuilderMark {
        BuilderMark { unified_rows: self.unified_rows(), trace_rows: self.traces.len() }
    }

    /// Discards everything ingested after `mark` (table rows and trace
    /// rows). Dictionary entries interned by discarded rows may linger in
    /// the table's dictionaries; they are unreferenced, and every
    /// value-level accessor and comparison is row-driven, so they are
    /// unobservable.
    pub fn rollback(&mut self, mark: BuilderMark) {
        if let Some(table) = self.unified.as_mut() {
            table.truncate(mark.unified_rows);
        }
        self.traces.truncate(mark.trace_rows);
    }

    /// Finalizes into a [`StudyData`]. Day gaps are read off the finished
    /// table's `day` column, so only committed rows count: a rolled-back
    /// shard's days leave with its rows, and a builder fed only surviving
    /// shards reports exactly the gaps a run over the same rows would.
    pub fn finish(self) -> StudyData {
        let unified = self.unified.unwrap_or_else(empty_unified_table);
        let day_gaps = compute_day_gaps(&unified);
        StudyData { traces: self.traces, unified, day_gaps, second_country: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_support::{shared_small, small_dataset};

    #[test]
    fn periods_partition_unified_rows() {
        let data = shared_small();
        let total: usize = Period::ALL.iter().map(|p| data.period(*p).count()).sum();
        assert_eq!(total, data.unified_len(), "every row belongs to exactly one period");
    }

    #[test]
    fn city_slices_are_subsets() {
        let data = shared_small();
        let kyiv = data.city_period("Kyiv", Period::Prewar2022).count();
        let all = data.period(Period::Prewar2022).count();
        assert!(kyiv > 0 && kyiv < all);
    }

    #[test]
    fn clean_corpus_has_no_day_gaps() {
        assert_eq!(shared_small().day_gaps, Vec::<(i64, i64)>::new());
    }

    #[test]
    fn dropped_days_inside_populated_windows_become_gaps() {
        let full = small_dataset();
        // Rebuild the corpus with two day runs removed — one mid-window,
        // one spanning a window edge — as if the shards holding them had
        // been quarantined.
        let lost = |d: i64| (20..25).contains(&d) || (54..60).contains(&d);
        let mut b = StudyDataBuilder::new();
        b.push_shard(Dataset {
            ndt: full.ndt.iter().filter(|r| !lost(r.day)).cloned().collect(),
            traces: full.traces.iter().filter(|r| !lost(r.day)).cloned().collect(),
        })
        .expect("ingests");
        let degraded = b.finish();
        assert_eq!(degraded.day_gaps, vec![(20, 24), (54, 59)]);
        // And a window with no rows at all is "not simulated", not a gap.
        let mut empty_window = StudyDataBuilder::new();
        empty_window
            .push_shard(Dataset {
                ndt: full.ndt.iter().filter(|r| r.day >= 365).cloned().collect(),
                traces: Vec::new(),
            })
            .expect("ingests");
        assert_eq!(empty_window.finish().day_gaps, Vec::<(i64, i64)>::new());
    }

    #[test]
    fn traces_filter_by_day() {
        let data = shared_small();
        let (s, e) = Period::Wartime2022.day_range();
        assert!(data.traces_in(Period::Wartime2022).all(|r| (s..e).contains(&r.day)));
        assert!(data.traces_in(Period::Wartime2022).next().is_some());
    }
}

/// Shared fixtures so the per-experiment test modules don't each pay for a
/// fresh simulation.
pub mod test_support {
    use super::*;
    use std::sync::OnceLock;

    static SMALL_DATASET: OnceLock<Dataset> = OnceLock::new();
    static SMALL: OnceLock<StudyData> = OnceLock::new();
    static MEDIUM: OnceLock<StudyData> = OnceLock::new();

    /// The simulator's rows behind [`shared_small`], for tests that
    /// rebuild a corpus from them.
    pub fn small_dataset() -> &'static Dataset {
        SMALL_DATASET.get_or_init(|| Simulator::new(SimConfig::small(1234)).run())
    }

    /// A ~6%-volume corpus, shared by fast unit tests.
    pub fn shared_small() -> &'static StudyData {
        SMALL.get_or_init(|| StudyData::from_dataset(small_dataset().clone()))
    }

    /// A ~20%-volume corpus for analyses that need statistical depth
    /// (Welch stars, top-1000 connections).
    pub fn shared_medium() -> &'static StudyData {
        MEDIUM.get_or_init(|| {
            StudyData::generate(SimConfig { scale: 0.2, seed: 99, ..SimConfig::default() })
        })
    }
}
