//! Dataset wrapper: the two "BigQuery tables" plus period helpers.
//!
//! `ndt.unified_download` is one [`UnifiedBatch`] and `ndt.scamper1` one
//! [`TraceBatch`], both in day order, so a day range is a run of rows found
//! by binary search. The §4 analyses narrow a day range with a
//! [`Selection`] and read `day` or a [`Metric`] in row order; the §5
//! analyses read columns over [`StudyData::traces_in`]. No read can fail.

use std::ops::Range;

use ndt_conflict::Period;
use ndt_geo::city::city_by_name;
use ndt_geo::{CityId, Oblast};
use ndt_mlab::columnar::{TraceBatch, UnifiedBatch};
use ndt_mlab::{Dataset, SimConfig, Simulator};

/// The generated corpus, ready for analysis; both tables in day order.
pub struct StudyData {
    /// `ndt.scamper1` (§5 analyses; see [`StudyData::traces_in`]).
    pub traces: TraceBatch,
    /// `ndt.unified_download` (§4 analyses; read it through
    /// [`StudyData::rows`], [`StudyData::days`] and their narrowings).
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

    /// Keeps rows labeled `city`.
    pub fn city(self, city: CityId) -> Self {
        let (code, col) = (UnifiedBatch::city_code(city), &self.table.city);
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

    /// The located rows split by oblast in one pass: one ascending
    /// selection per oblast, at its position in [`Oblast::all`] (which is
    /// its code, [`UnifiedBatch::oblast_code`]). Codes past the last
    /// oblast are skipped.
    pub fn by_oblast(&self) -> Vec<Selection<'t>> {
        let mut out: Vec<Selection<'t>> =
            Oblast::all().map(|_| Selection { table: self.table, rows: Vec::new() }).collect();
        for &i in &self.rows {
            if let Some(s) = out.get_mut(self.table.oblast[i] as usize) {
                s.rows.push(i);
            }
        }
        out
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
    let mut gaps = Vec::new();
    for p in Period::ALL {
        let (s, e) = p.day_range();
        let days = &unified.day[day_span(&unified.day, s, e)];
        if days.is_empty() {
            continue;
        }
        // Walk the window's days in order; each jump past `next` is a gap.
        let mut next = s;
        for &d in days.iter().chain([&e]) {
            if d > next {
                gaps.push((next, d - 1));
            }
            next = d + 1;
        }
    }
    gaps
}

/// The rows of a day-ordered `day` column that lie in `[lo, hi)`.
fn day_span(day: &[i64], lo: i64, hi: i64) -> Range<usize> {
    let start = day.partition_point(|&d| d < lo);
    start..start.max(day.partition_point(|&d| d < hi))
}

impl StudyData {
    /// Generates a corpus with the given simulator configuration.
    pub fn generate(config: SimConfig) -> Self {
        let raw = Simulator::new(config).run();
        Self::from_dataset(raw)
    }

    /// Wraps an already-generated dataset. It is built by
    /// [`StudyDataBuilder`], as every corpus is.
    pub fn from_dataset(raw: Dataset) -> Self {
        let mut b = StudyDataBuilder::new();
        b.push_shard(raw);
        b.finish()
    }

    /// Every unified row.
    pub fn rows(&self) -> Selection<'_> {
        Selection { table: &self.unified, rows: (0..self.unified.rows()).collect() }
    }

    /// Unified rows whose `day` lies in `[lo, hi)`.
    pub fn days(&self, lo: i64, hi: i64) -> Selection<'_> {
        Selection { table: &self.unified, rows: day_span(&self.unified.day, lo, hi).collect() }
    }

    /// Unified rows within a period.
    pub fn period(&self, p: Period) -> Selection<'_> {
        let (s, e) = p.day_range();
        self.days(s, e)
    }

    /// Unified rows of one labeled city within a period (Table 1's
    /// slices). A name outside the city catalogue selects nothing.
    pub fn city_period(&self, city: &str, p: Period) -> Selection<'_> {
        match city_by_name(city) {
            Some((id, _)) => self.period(p).city(id),
            None => Selection { table: &self.unified, rows: Vec::new() },
        }
    }

    /// Indices of the trace rows within a period.
    pub fn traces_in(&self, p: Period) -> Range<usize> {
        let (s, e) = p.day_range();
        self.trace_days(s, e)
    }

    /// Indices of the trace rows whose `day` lies in `[lo, hi)`.
    pub fn trace_days(&self, lo: i64, hi: i64) -> Range<usize> {
        day_span(&self.traces.day, lo, hi)
    }

    /// Total unified rows.
    pub fn unified_len(&self) -> usize {
        self.unified.rows()
    }
}

/// The one way a [`StudyData`] is built: the corpus arrives in pieces —
/// whole shards from the shard pool ([`Self::push_shard`]), or decoded
/// store batches ([`Self::push_unified_batch`], [`Self::push_trace_batch`])
/// — and the finished tables are every row pushed, in order. Pieces must
/// keep each table in day order; the shard pool and the store loader
/// guarantee it, so debug builds only assert it.
#[derive(Default)]
pub struct StudyDataBuilder {
    unified: UnifiedBatch,
    traces: TraceBatch,
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

    /// Ingests one corpus shard: both of its tables.
    pub fn push_shard(&mut self, shard: Dataset) {
        self.push_unified_batch(&shard.ndt);
        self.push_trace_batch(&shard.traces);
    }

    /// Appends one columnar batch to the unified table.
    pub fn push_unified_batch(&mut self, batch: &UnifiedBatch) {
        debug_assert!(self.unified.day.last().into_iter().chain(&batch.day).is_sorted());
        self.unified.append(batch);
    }

    /// Appends one columnar batch to the trace table.
    pub fn push_trace_batch(&mut self, batch: &TraceBatch) {
        debug_assert!(self.traces.day.last().into_iter().chain(&batch.day).is_sorted());
        self.traces.append(batch);
    }

    /// Current position, for a later [`Self::rollback`].
    pub fn mark(&self) -> BuilderMark {
        BuilderMark { unified_rows: self.unified.rows(), trace_rows: self.traces.rows() }
    }

    /// Discards everything ingested after `mark` from both tables (the
    /// traces' AS paths included).
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

    /// `ds` without the rows whose day is `lost`.
    fn without_days(ds: &Dataset, lost: impl Fn(i64) -> bool) -> Dataset {
        let mut out = Dataset::default();
        for i in (0..ds.ndt.rows()).filter(|&i| !lost(ds.ndt.day[i])) {
            out.ndt.push(&ds.ndt.row(i));
        }
        for i in (0..ds.traces.rows()).filter(|&i| !lost(ds.traces.day[i])) {
            out.traces.push(&ds.traces.row(i));
        }
        out
    }

    #[test]
    fn dropped_days_inside_populated_windows_become_gaps() {
        let full = small_dataset();
        // Rebuild the corpus with two day runs removed — one mid-window,
        // one spanning a window edge — as if the shards holding them had
        // been quarantined.
        let lost = |d: i64| (20..25).contains(&d) || (54..60).contains(&d);
        let mut b = StudyDataBuilder::new();
        b.push_shard(without_days(full, lost));
        let degraded = b.finish();
        assert_eq!(degraded.day_gaps, vec![(20, 24), (54, 59)]);
        // And a window with no rows at all is "not simulated", not a gap.
        let mut empty_window = StudyDataBuilder::new();
        let mut late = without_days(full, |d| d < 365);
        late.traces = Default::default();
        empty_window.push_shard(late);
        assert_eq!(empty_window.finish().day_gaps, Vec::<(i64, i64)>::new());
    }

    #[test]
    fn traces_filter_by_day() {
        let data = shared_small();
        let (s, e) = Period::Wartime2022.day_range();
        let war = data.traces_in(Period::Wartime2022);
        assert!(!war.is_empty());
        assert!(war.clone().all(|i| (s..e).contains(&data.traces.day[i])));
        assert_eq!(war.len(), data.traces.day.iter().filter(|d| (s..e).contains(*d)).count());
    }
}

/// The oracles for the typed tables: every selection and every trace
/// slice keeps exactly the rows a plain filter over the row structs keeps,
/// `metric_samples` keeps exactly their usable values, and each table is
/// the rows pushed into it, whatever batches the rows arrived in.
#[cfg(test)]
mod props {
    use super::*;
    use crate::coverage::{metric_samples, Coverage, DropReason};
    use ndt_geo::city::all_cities;
    use ndt_mlab::columnar::{scan_trace_batches, scan_traces, write_traces, RowFilter};
    use ndt_mlab::{Scamper1Row, UnifiedDownloadRow};
    use ndt_store::{Shard, DEFAULT_GROUP_ROWS};
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

    /// A day in either year's study window or between them.
    fn day() -> impl Strategy<Value = i64> {
        (0u8..2, 0i64..120).prop_map(|(year, day)| i64::from(year) * 360 + day)
    }

    /// Day-sorted rows spread over both years' study windows and the days
    /// between them, with unlocated and unlabeled rows mixed in.
    fn arb_rows() -> impl Strategy<Value = Vec<UnifiedDownloadRow>> {
        let row = (day(), (0usize..7, 0usize..7), (metric(), metric(), metric()));
        prop::collection::vec(row, 0..160).prop_map(|rows| {
            let (cities, oblasts) = (city_pool(), oblast_pool());
            let mut rows: Vec<UnifiedDownloadRow> = rows
                .into_iter()
                .map(|(day, (city, oblast), (tput, rtt, loss))| UnifiedDownloadRow {
                    day,
                    client_ip: Ipv4Addr(day as u32),
                    server_ip: Ipv4Addr(7),
                    client_asn: Asn(15895),
                    oblast: oblasts.get(oblast).copied(),
                    city: cities.get(city).copied(),
                    mean_tput_mbps: tput,
                    min_rtt_ms: rtt,
                    loss_rate: loss,
                })
                .collect();
            rows.sort_by_key(|r| r.day);
            rows
        })
    }

    /// Day-sorted trace rows over the same days: a few connections and
    /// fingerprints, paths of 0–6 ASes, crossings present and absent, and
    /// metrics of every kind. One draw in eight repeats each row 80 times,
    /// so the table spans several store row groups.
    fn arb_traces() -> impl Strategy<Value = Vec<Scamper1Row>> {
        let asn = || (0u32..9).prop_map(|a| Asn(15895 + a));
        let row = (
            day(),
            (0u32..4, 0u32..3, 0u64..3),
            prop::collection::vec(asn(), 0..7),
            prop::option::of((asn(), asn())),
            (metric(), metric(), metric()),
        );
        (prop::collection::vec(row, 0..120), 0u8..8).prop_map(|(rows, k)| {
            let copies = if k == 0 { 80 } else { 1 };
            let mut rows: Vec<Scamper1Row> = rows
                .into_iter()
                .flat_map(|(day, (client, server, fp), as_path, border, (tput, rtt, loss))| {
                    let row = Scamper1Row {
                        day,
                        client_ip: Ipv4Addr(client),
                        server_ip: Ipv4Addr(100 + server),
                        path_fingerprint: fp,
                        router_fingerprint: fp / 2,
                        resolved_fingerprint: fp ^ u64::from(client),
                        as_path,
                        border,
                        mean_tput_mbps: tput,
                        min_rtt_ms: rtt,
                        loss_rate: loss,
                    };
                    std::iter::repeat_n(row, copies)
                })
                .collect();
            rows.sort_by_key(|r| r.day);
            rows
        })
    }

    /// Builds a study from `rows` cut into batches at `cuts`, pushing each
    /// batch with `push`; when `junk` is given, it is pushed as one more
    /// batch at its position among the batches and rolled back. Junk rows
    /// lie past every drawn day, so pushing them keeps day order.
    fn build<R>(
        rows: &[R],
        cuts: &[usize],
        junk: Option<(usize, &[R])>,
        push: impl Fn(&mut StudyDataBuilder, &[R]),
    ) -> StudyData {
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(rows.len())).collect();
        cuts.push(0);
        cuts.push(rows.len());
        cuts.sort_unstable();
        let mut b = StudyDataBuilder::new();
        for (k, w) in cuts.windows(2).enumerate() {
            if let Some((_, junk)) = junk.filter(|(at, _)| *at == k) {
                let mark = b.mark();
                push(&mut b, junk);
                b.rollback(mark);
            }
            push(&mut b, &rows[w[0]..w[1]]);
        }
        b.finish()
    }

    /// The first day no drawn row reaches.
    const PAST_EVERY_DAY: i64 = 480;

    fn unified_table(rows: &[UnifiedDownloadRow]) -> UnifiedBatch {
        let mut t = UnifiedBatch::default();
        rows.iter().for_each(|r| t.push(r));
        t
    }

    fn build_unified(
        rows: &[UnifiedDownloadRow],
        cuts: &[usize],
        junk: Option<(usize, &[UnifiedDownloadRow])>,
    ) -> StudyData {
        let late = |r: &UnifiedDownloadRow| UnifiedDownloadRow { day: r.day + PAST_EVERY_DAY, ..r.clone() };
        let junk = junk.map(|(at, junk)| (at, junk.iter().map(late).collect::<Vec<_>>()));
        let junk = junk.as_ref().map(|(at, junk)| (*at, junk.as_slice()));
        build(rows, cuts, junk, |b, rows| b.push_unified_batch(&unified_table(rows)))
    }

    fn build_traces(
        rows: &[Scamper1Row],
        cuts: &[usize],
        junk: Option<(usize, &[Scamper1Row])>,
    ) -> StudyData {
        let late = |r: &Scamper1Row| Scamper1Row { day: r.day + PAST_EVERY_DAY, ..r.clone() };
        let junk = junk.map(|(at, junk)| (at, junk.iter().map(late).collect::<Vec<_>>()));
        let junk = junk.as_ref().map(|(at, junk)| (*at, junk.as_slice()));
        build(rows, cuts, junk, |b, rows| {
            let mut t = TraceBatch::default();
            rows.iter().for_each(|r| t.push(r));
            b.push_trace_batch(&t);
        })
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

    /// Two trace tables hold the same records, floats compared by their
    /// bits. Equal paths row by row mean equal arenas and end offsets.
    fn same_traces(a: &TraceBatch, b: &TraceBatch) -> bool {
        a.rows() == b.rows() && (0..a.rows()).all(|i| same_trace(&a.row(i), &b.row(i)))
    }

    /// The same record, floats compared by their bits.
    fn same_trace(a: &Scamper1Row, b: &Scamper1Row) -> bool {
        a.day == b.day
            && a.client_ip == b.client_ip
            && a.server_ip == b.server_ip
            && a.path_fingerprint == b.path_fingerprint
            && a.router_fingerprint == b.router_fingerprint
            && a.resolved_fingerprint == b.resolved_fingerprint
            && a.as_path == b.as_path
            && a.border == b.border
            && a.mean_tput_mbps.to_bits() == b.mean_tput_mbps.to_bits()
            && a.min_rtt_ms.to_bits() == b.min_rtt_ms.to_bits()
            && a.loss_rate.to_bits() == b.loss_rate.to_bits()
    }

    fn oracle<R>(rows: &[R], keep: impl Fn(&R) -> bool) -> Vec<usize> {
        (0..rows.len()).filter(|&i| keep(&rows[i])).collect()
    }

    proptest! {
        #[test]
        fn selections_keep_what_a_row_filter_keeps(
            rows in arb_rows(),
            cuts in prop::collection::vec(0usize..160, 0..6),
            junk in arb_rows(),
            junk_at in 0usize..7,
            needle in 0usize..6,
            range in (0i64..480, 0i64..480),
        ) {
            let data = build_unified(&rows, &cuts, Some((junk_at, &junk)));
            let clean = build_unified(&rows, &cuts, None);
            prop_assert!(same_table(&data.unified, &clean.unified), "rollback left rows behind");
            prop_assert!(same_table(&data.unified, &unified_table(&rows)));
            prop_assert_eq!(&data.day_gaps, &clean.day_gaps);

            // The last needle matches no row: a name outside the catalogue.
            // The city oracle compares names, as the paper's queries over
            // the table do.
            let city_name = city_pool().get(needle).map_or("El Dorado", |c| c.get().name);
            let in_period = |p: Period, r: &UnifiedDownloadRow| {
                let (s, e) = p.day_range();
                (s..e).contains(&r.day)
            };
            let named = |r: &UnifiedDownloadRow| r.city.map(|c| c.get().name) == Some(city_name);
            let (lo, hi) = range;
            prop_assert_eq!(
                data.days(lo, hi).rows,
                oracle(&rows, |r| (lo..hi).contains(&r.day))
            );
            for p in Period::ALL {
                let q = data.period(p);
                prop_assert_eq!(&q.rows, &oracle(&rows, |r| in_period(p, r)));
                prop_assert_eq!(
                    data.city_period(city_name, p).rows,
                    oracle(&rows, |r| in_period(p, r) && named(r))
                );
                // One bucket per oblast, each ascending; unlocated rows
                // land in none.
                let buckets = q.by_oblast();
                prop_assert_eq!(buckets.len(), Oblast::all().count());
                for (o, bucket) in Oblast::all().zip(&buckets) {
                    prop_assert_eq!(
                        &bucket.rows,
                        &oracle(&rows, |r| in_period(p, r) && r.oblast == Some(o))
                    );
                }
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

        #[test]
        fn trace_table_is_the_rows_pushed_into_it(
            rows in arb_traces(),
            cuts in prop::collection::vec(0usize..160, 0..6),
            junk in arb_traces(),
            junk_at in 0usize..7,
            range in (0i64..480, 0i64..480),
        ) {
            let data = build_traces(&rows, &cuts, Some((junk_at, &junk)));
            let clean = build_traces(&rows, &cuts, None);
            prop_assert!(same_traces(&data.traces, &clean.traces), "rollback left rows behind");
            let table = &data.traces;
            prop_assert_eq!(table.rows(), rows.len());
            for (i, r) in rows.iter().enumerate() {
                prop_assert!(same_trace(&table.row(i), r), "row {} differs", i);
            }

            // The shard holds the same table, read whole or group by group.
            let dir = std::env::temp_dir()
                .join(format!("ndt-analysis-trace-props-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let path = dir.join("traces.ndts");
            let file = std::fs::File::create(&path).expect("create");
            write_traces(std::io::BufWriter::new(file), table).expect("writes");
            let shard = Shard::open(&path).expect("opens");
            let (whole, stats) = scan_traces(&shard, RowFilter).expect("scans");
            prop_assert!(same_traces(&whole, table), "scan_traces differs");
            prop_assert_eq!(stats.rows_emitted, rows.len() as u64);
            let mut streamed = TraceBatch::default();
            let mut groups = 0;
            scan_trace_batches(&shard, |b| {
                groups += 1;
                streamed.append(&b);
            })
            .expect("streams");
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert!(same_traces(&streamed, table), "scan_trace_batches differs");
            prop_assert_eq!(groups, rows.len().div_ceil(DEFAULT_GROUP_ROWS));

            let (lo, hi) = range;
            prop_assert_eq!(
                data.trace_days(lo, hi).collect::<Vec<_>>(),
                oracle(&rows, |r| (lo..hi).contains(&r.day))
            );
            for p in Period::ALL {
                let (s, e) = p.day_range();
                prop_assert_eq!(
                    data.traces_in(p).collect::<Vec<_>>(),
                    oracle(&rows, |r| (s..e).contains(&r.day))
                );
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
