//! Dataset wrapper: the two "BigQuery tables" plus period helpers.
//!
//! `ndt.unified_download` is one [`UnifiedBatch`], appended batch by
//! batch as the corpus streams in. The §4 analyses slice it with a
//! [`Selection`]: a day range, a city or an oblast, or rows that carry a
//! location. They then read `day` or a [`Metric`] over the rows kept, in
//! row order. The schema is fixed in code, so no read can fail.

use std::collections::BTreeSet;

use ndt_conflict::Period;
use ndt_geo::city::city_by_name;
use ndt_geo::{CityId, Oblast};
use ndt_mlab::columnar::UnifiedBatch;
use ndt_mlab::{Dataset, Scamper1Row, SimConfig, Simulator};
use ndt_store::DEFAULT_GROUP_ROWS;

/// The generated corpus, ready for analysis.
pub struct StudyData {
    /// `ndt.scamper1` rows, consumed natively by the §5 analyses.
    pub traces: Vec<Scamper1Row>,
    /// `ndt.unified_download`, in ingest order (§4 analyses; read it
    /// through [`StudyData::rows`] and its narrowings).
    pub unified: UnifiedBatch,
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

/// A metric column of the unified table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Mean download throughput, Mbps.
    Tput,
    /// Minimum RTT, ms.
    MinRtt,
    /// Loss rate (fraction).
    Loss,
}

/// Rows of the unified table: ascending row indices, so every read keeps
/// row order. Each filter narrows the selection; none copies the data.
#[derive(Debug, Clone)]
pub struct Selection<'t> {
    table: &'t UnifiedBatch,
    rows: Vec<usize>,
}

impl<'t> Selection<'t> {
    fn retain(mut self, keep: impl Fn(usize) -> bool) -> Self {
        self.rows.retain(|&i| keep(i));
        self
    }

    /// Keeps rows whose `day` lies in `[lo, hi)`.
    pub fn days(self, lo: i64, hi: i64) -> Self {
        let day = &self.table.day;
        self.retain(|i| (lo..hi).contains(&day[i]))
    }

    /// Keeps rows labeled `city`.
    pub fn city(self, city: CityId) -> Self {
        let (code, col) = (UnifiedBatch::city_code(city), &self.table.city);
        self.retain(|i| col[i] == code)
    }

    /// Keeps rows located to `oblast`.
    pub fn oblast(self, oblast: Oblast) -> Self {
        let (code, col) = (UnifiedBatch::oblast_code(oblast), &self.table.oblast);
        self.retain(|i| col[i] == code)
    }

    /// Keeps rows that carry a city label.
    pub fn with_city(self) -> Self {
        let t = self.table;
        self.retain(|i| t.has_city(i))
    }

    /// Keeps rows located to an oblast.
    pub fn with_oblast(self) -> Self {
        let t = self.table;
        self.retain(|i| t.has_oblast(i))
    }

    /// Number of rows selected.
    pub fn count(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row is selected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `day` of each selected row.
    pub fn day_values(&self) -> Vec<i64> {
        self.rows.iter().map(|&i| self.table.day[i]).collect()
    }

    /// The `metric` of each selected row, corrupt values included.
    pub fn values(&self, metric: Metric) -> Vec<f64> {
        let col = match metric {
            Metric::Tput => &self.table.tput,
            Metric::MinRtt => &self.table.min_rtt,
            Metric::Loss => &self.table.loss,
        };
        self.rows.iter().map(|&i| col[i]).collect()
    }
}

/// Day ranges of each [`Period`] window that hold no unified rows, for
/// windows that hold at least one. See [`StudyData::day_gaps`].
fn compute_day_gaps(unified: &UnifiedBatch) -> Vec<(i64, i64)> {
    let days: BTreeSet<i64> = unified.day.iter().copied().collect();
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
        b.push_shard(raw);
        b.finish()
    }

    /// Every unified row.
    pub fn rows(&self) -> Selection<'_> {
        Selection { table: &self.unified, rows: (0..self.unified.rows()).collect() }
    }

    /// Unified rows within a period.
    pub fn period(&self, p: Period) -> Selection<'_> {
        let (s, e) = p.day_range();
        self.rows().days(s, e)
    }

    /// Unified rows of one labeled city within a period (Table 1's
    /// slices). A name outside the city catalogue selects nothing.
    pub fn city_period(&self, city: &str, p: Period) -> Selection<'_> {
        match city_by_name(city) {
            Some((id, _)) => self.period(p).city(id),
            None => Selection { table: &self.unified, rows: Vec::new() },
        }
    }

    /// Unified rows of one labeled region within a period.
    pub fn oblast_period(&self, oblast: Oblast, p: Period) -> Selection<'_> {
        self.period(p).oblast(oblast)
    }

    /// Scamper rows within a period.
    pub fn traces_in(&self, p: Period) -> impl Iterator<Item = &Scamper1Row> {
        let (s, e) = p.day_range();
        self.traces.iter().filter(move |r| (s..e).contains(&r.day))
    }

    /// Total unified rows.
    pub fn unified_len(&self) -> usize {
        self.unified.rows()
    }
}

/// The one way a [`StudyData`] is built: the corpus arrives in pieces —
/// whole shards from the shard pool ([`Self::push_shard`]), or decoded
/// store batches ([`Self::push_unified_batch`], [`Self::push_trace_rows`])
/// — and every unified row enters the table as part of a columnar batch.
/// The builder keeps no unified row structs; the finished [`StudyData`]'s
/// tables are every row pushed, in order.
#[derive(Default)]
pub struct StudyDataBuilder {
    unified: UnifiedBatch,
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
    /// and dropped, and its traces move in.
    pub fn push_shard(&mut self, shard: Dataset) {
        for chunk in shard.ndt.chunks(DEFAULT_GROUP_ROWS) {
            self.push_unified_batch(&UnifiedBatch::from_rows(chunk));
        }
        self.push_trace_rows(shard.traces);
    }

    /// Appends one columnar batch to the unified table.
    pub fn push_unified_batch(&mut self, batch: &UnifiedBatch) {
        self.unified.append(batch);
    }

    /// Appends scamper trace rows.
    pub fn push_trace_rows(&mut self, rows: Vec<Scamper1Row>) {
        self.traces.extend(rows);
    }

    /// Unified rows ingested so far.
    pub fn unified_rows(&self) -> usize {
        self.unified.rows()
    }

    /// Current position, for a later [`Self::rollback`].
    pub fn mark(&self) -> BuilderMark {
        BuilderMark { unified_rows: self.unified_rows(), trace_rows: self.traces.len() }
    }

    /// Discards everything ingested after `mark` (table rows and trace
    /// rows).
    pub fn rollback(&mut self, mark: BuilderMark) {
        self.unified.truncate(mark.unified_rows);
        self.traces.truncate(mark.trace_rows);
    }

    /// Finalizes into a [`StudyData`]. Day gaps are read off the finished
    /// table's `day` column, so only committed rows count: a rolled-back
    /// shard's days leave with its rows, and a builder fed only surviving
    /// shards reports exactly the gaps a run over the same rows would.
    pub fn finish(self) -> StudyData {
        let day_gaps = compute_day_gaps(&self.unified);
        StudyData { traces: self.traces, unified: self.unified, day_gaps, second_country: None }
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
        });
        let degraded = b.finish();
        assert_eq!(degraded.day_gaps, vec![(20, 24), (54, 59)]);
        // And a window with no rows at all is "not simulated", not a gap.
        let mut empty_window = StudyDataBuilder::new();
        empty_window.push_shard(Dataset {
            ndt: full.ndt.iter().filter(|r| r.day >= 365).cloned().collect(),
            traces: Vec::new(),
        });
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

/// The oracle for the typed table: every selection keeps exactly the rows
/// a plain filter over the row structs keeps, and `metric_samples` keeps
/// exactly their usable values, whatever batches the rows arrived in.
#[cfg(test)]
mod props {
    use super::*;
    use crate::coverage::{metric_samples, Coverage, DropReason};
    use ndt_geo::city::all_cities;
    use ndt_mlab::UnifiedDownloadRow;
    use ndt_topology::{Asn, Ipv4Addr};
    use proptest::prelude::*;

    /// Catalogue cities the rows draw from (Sevastopol included);
    /// drawing from a few keeps each needle matching several rows.
    fn city_pool() -> Vec<CityId> {
        let all: Vec<CityId> = all_cities().map(|(id, _)| id).collect();
        vec![all[0], all[1], all[2], all[3], all[all.len() - 1]]
    }

    /// Oblasts the rows draw from, likewise.
    fn oblast_pool() -> Vec<Oblast> {
        let all: Vec<Oblast> = Oblast::all().collect();
        vec![all[0], all[1], all[2], all[3], all[all.len() - 1]]
    }

    /// A metric value: finite of either sign, zero, NaN or an infinity.
    fn metric() -> impl Strategy<Value = f64> {
        (0u8..10, -50.0..150.0f64).prop_map(|(k, x)| match k {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            _ => x,
        })
    }

    /// Rows spread over both years' study windows and the days between
    /// them, with unlocated and unlabeled rows mixed in.
    fn arb_rows() -> impl Strategy<Value = Vec<UnifiedDownloadRow>> {
        let row = ((0u8..2, 0i64..120), (0usize..7, 0usize..7), (metric(), metric(), metric()));
        prop::collection::vec(row, 0..160).prop_map(|rows| {
            let (cities, oblasts) = (city_pool(), oblast_pool());
            rows.into_iter()
                .map(|((year, day), (city, oblast), (tput, rtt, loss))| UnifiedDownloadRow {
                    day: i64::from(year) * 360 + day,
                    client_ip: Ipv4Addr(day as u32),
                    server_ip: Ipv4Addr(7),
                    client_asn: Asn(15895),
                    oblast: oblasts.get(oblast).copied(),
                    city: cities.get(city).copied(),
                    mean_tput_mbps: tput,
                    min_rtt_ms: rtt,
                    loss_rate: loss,
                })
                .collect()
        })
    }

    /// Builds a study from `rows` cut into batches at `cuts`; when `junk`
    /// is given, it is pushed as one more batch at its position among the
    /// batches and rolled back.
    fn build(
        rows: &[UnifiedDownloadRow],
        cuts: &[usize],
        junk: Option<(usize, &[UnifiedDownloadRow])>,
    ) -> StudyData {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(rows.len())).collect();
        cuts.push(0);
        cuts.push(rows.len());
        cuts.sort_unstable();
        let mut b = StudyDataBuilder::new();
        for (k, w) in cuts.windows(2).enumerate() {
            if let Some((_, junk)) = junk.filter(|(at, _)| *at == k) {
                let mark = b.mark();
                b.push_unified_batch(&UnifiedBatch::from_rows(junk));
                b.rollback(mark);
            }
            b.push_unified_batch(&UnifiedBatch::from_rows(&rows[w[0]..w[1]]));
        }
        b.finish()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn same_table(a: &UnifiedBatch, b: &UnifiedBatch) -> bool {
        a.day == b.day
            && a.client_ip == b.client_ip
            && a.server_ip == b.server_ip
            && a.client_asn == b.client_asn
            && a.oblast == b.oblast
            && a.city == b.city
            && bits(&a.tput) == bits(&b.tput)
            && bits(&a.min_rtt) == bits(&b.min_rtt)
            && bits(&a.loss) == bits(&b.loss)
    }

    fn oracle(
        rows: &[UnifiedDownloadRow],
        keep: impl Fn(&UnifiedDownloadRow) -> bool,
    ) -> Vec<usize> {
        (0..rows.len()).filter(|&i| keep(&rows[i])).collect()
    }

    proptest! {
        #[test]
        fn selections_keep_what_a_row_filter_keeps(
            rows in arb_rows(),
            cuts in prop::collection::vec(0usize..160, 0..6),
            junk in arb_rows(),
            junk_at in 0usize..7,
            needles in (0usize..6, 0usize..6),
            range in (0i64..480, 0i64..480),
        ) {
            let data = build(&rows, &cuts, Some((junk_at, &junk)));
            let clean = build(&rows, &cuts, None);
            prop_assert!(same_table(&data.unified, &clean.unified), "rollback left rows behind");
            prop_assert!(same_table(&data.unified, &UnifiedBatch::from_rows(&rows)));
            prop_assert_eq!(&data.day_gaps, &clean.day_gaps);

            // The last needles match no row: a name outside the catalogue,
            // and an oblast outside the pool. The city oracle compares
            // names, as the paper's queries over the table do.
            let city_name = city_pool().get(needles.0).map_or("El Dorado", |c| c.get().name);
            let oblast = oblast_pool().get(needles.1).copied().unwrap_or(Oblast::Kharkiv);
            let in_period = |p: Period, r: &UnifiedDownloadRow| {
                let (s, e) = p.day_range();
                (s..e).contains(&r.day)
            };
            let named = |r: &UnifiedDownloadRow| r.city.map(|c| c.get().name) == Some(city_name);
            let (lo, hi) = range;
            prop_assert_eq!(
                data.rows().days(lo, hi).rows,
                oracle(&rows, |r| (lo..hi).contains(&r.day))
            );
            for p in Period::ALL {
                let q = data.period(p);
                prop_assert_eq!(&q.rows, &oracle(&rows, |r| in_period(p, r)));
                prop_assert_eq!(
                    data.city_period(city_name, p).rows,
                    oracle(&rows, |r| in_period(p, r) && named(r))
                );
                prop_assert_eq!(
                    data.oblast_period(oblast, p).rows,
                    oracle(&rows, |r| in_period(p, r) && r.oblast == Some(oblast))
                );
                prop_assert_eq!(
                    q.clone().with_city().rows,
                    oracle(&rows, |r| in_period(p, r) && r.city.is_some())
                );
                prop_assert_eq!(
                    q.clone().with_oblast().rows,
                    oracle(&rows, |r| in_period(p, r) && r.oblast.is_some())
                );
                let kept: Vec<&UnifiedDownloadRow> = q.rows.iter().map(|&i| &rows[i]).collect();
                prop_assert_eq!(q.day_values(), kept.iter().map(|r| r.day).collect::<Vec<_>>());

                for (metric, field) in [
                    (Metric::Tput, (|r: &UnifiedDownloadRow| r.mean_tput_mbps) as fn(&_) -> f64),
                    (Metric::MinRtt, |r| r.min_rtt_ms),
                    (Metric::Loss, |r| r.loss_rate),
                ] {
                    let all: Vec<f64> = kept.iter().map(|r| field(r)).collect();
                    prop_assert_eq!(bits(&q.values(metric)), bits(&all));
                    for nonneg in [false, true] {
                        let mut cov = Coverage::new();
                        let got = metric_samples(&q, metric, nonneg, &mut cov);
                        let want: Vec<f64> = all
                            .iter()
                            .copied()
                            .filter(|v| v.is_finite() && (!nonneg || *v >= 0.0))
                            .collect();
                        prop_assert_eq!(bits(&got), bits(&want));
                        let non_finite = all.iter().filter(|v| !v.is_finite()).count();
                        let negative = if nonneg {
                            all.iter().filter(|v| v.is_finite() && **v < 0.0).count()
                        } else {
                            0
                        };
                        let mut expect = Coverage::new();
                        expect.drop_rows(DropReason::NonFinite, non_finite);
                        expect.drop_rows(DropReason::Negative, negative);
                        prop_assert_eq!(cov.dropped, expect.dropped);
                    }
                }
            }
        }
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
