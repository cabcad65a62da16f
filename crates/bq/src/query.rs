//! Query builder: filters, group-bys and aggregates over a table.
//!
//! Every data-dependent accessor has a `try_` twin returning
//! `Result<_, BqError>`; aggregates additionally return `Option<f64>` so an
//! empty or all-null selection is a typed empty rather than a `NaN` that
//! silently poisons downstream arithmetic. The panicking variants stay for
//! tests and fixtures with statically known schemas.

use crate::error::BqError;
use crate::table::{Column, Table, NULL_CODE};
use crate::value::Value;
use std::collections::HashMap;

/// An immutable view over a subset of a table's rows.
///
/// Queries are index sets: forking, filtering and grouping never copy the
/// data. Row order is preserved (insertion order of the base table).
#[derive(Debug, Clone)]
pub struct Query<'t> {
    table: &'t Table,
    idx: Vec<usize>,
}

impl<'t> Query<'t> {
    /// A query over every row of `table`.
    pub fn all(table: &'t Table) -> Self {
        Self { table, idx: (0..table.len()).collect() }
    }

    /// The underlying table.
    pub fn table(&self) -> &'t Table {
        self.table
    }

    /// Number of selected rows.
    pub fn count(&self) -> usize {
        self.idx.len()
    }

    /// Whether no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Selected row indices (ascending).
    pub fn indices(&self) -> &[usize] {
        &self.idx
    }

    /// Keeps rows where `col` satisfies `pred`.
    pub fn filter(self, col: &str, pred: impl Fn(&Value) -> bool) -> Self {
        match self.try_filter(col, pred) {
            Ok(q) => q,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::filter`].
    pub fn try_filter(mut self, col: &str, pred: impl Fn(&Value) -> bool) -> Result<Self, BqError> {
        let c = self.table.try_column(col)?;
        self.idx.retain(|&i| pred(&c.get(i)));
        Ok(self)
    }

    /// Keeps rows where `col` equals `v` (nulls never match).
    pub fn filter_eq(self, col: &str, v: &Value) -> Self {
        match self.try_filter_eq(col, v) {
            Ok(q) => q,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::filter_eq`]. On a dictionary-encoded column the
    /// needle resolves to a code once and rows compare integers — no
    /// per-row string materialization; a needle absent from the
    /// dictionary short-circuits to an empty selection.
    pub fn try_filter_eq(mut self, col: &str, v: &Value) -> Result<Self, BqError> {
        if let Column::Dict(d) = self.table.try_column(col)? {
            // Dict cells are only ever Str or Null, and nulls never
            // match, so any non-string needle selects nothing.
            match v {
                Value::Str(s) => match d.code_of(s) {
                    Some(code) => {
                        let codes = d.codes();
                        self.idx.retain(|&i| codes[i] == code);
                    }
                    None => self.idx.clear(),
                },
                _ => self.idx.clear(),
            }
            return Ok(self);
        }
        self.try_filter(col, |cell| !cell.is_null() && cell == v)
    }

    /// Keeps rows whose integer `col` lies in `[lo, hi)`. Nulls drop.
    pub fn filter_int_range(self, col: &str, lo: i64, hi: i64) -> Self {
        match self.try_filter_int_range(col, lo, hi) {
            Ok(q) => q,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::filter_int_range`]. Integer columns compare the
    /// stored values directly instead of boxing each cell.
    pub fn try_filter_int_range(mut self, col: &str, lo: i64, hi: i64) -> Result<Self, BqError> {
        if let Column::Int(c) = self.table.try_column(col)? {
            self.idx.retain(|&i| c[i].is_some_and(|v| (lo..hi).contains(&v)));
            return Ok(self);
        }
        self.try_filter(col, move |cell| cell.as_int().is_some_and(|v| (lo..hi).contains(&v)))
    }

    /// Keeps rows where `col` is not null.
    pub fn filter_not_null(self, col: &str) -> Self {
        self.filter(col, |cell| !cell.is_null())
    }

    /// Fallible [`Query::filter_not_null`].
    pub fn try_filter_not_null(self, col: &str) -> Result<Self, BqError> {
        self.try_filter(col, |cell| !cell.is_null())
    }

    /// Non-null float values of `col` over the selection (ints widen).
    pub fn floats(&self, col: &str) -> Vec<f64> {
        match self.try_floats(col) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::floats`]. Float and integer columns read their
    /// storage directly instead of boxing each cell into a [`Value`].
    pub fn try_floats(&self, col: &str) -> Result<Vec<f64>, BqError> {
        match self.table.try_column(col)? {
            Column::Float(c) => Ok(self.idx.iter().filter_map(|&i| c[i]).collect()),
            Column::Int(c) => Ok(self.idx.iter().filter_map(|&i| c[i].map(|v| v as f64)).collect()),
            c => Ok(self.idx.iter().filter_map(|&i| c.get(i).as_float()).collect()),
        }
    }

    /// Finite (non-null, non-NaN, non-infinite) float values of `col`, plus
    /// the count of non-null values dropped for being non-finite. Degraded
    /// pipelines use this to aggregate cleanly while accounting for every
    /// corrupt cell they skipped.
    pub fn finite_floats(&self, col: &str) -> Result<(Vec<f64>, usize), BqError> {
        let all = self.try_floats(col)?;
        let mut dropped = 0usize;
        let finite: Vec<f64> = all
            .into_iter()
            .filter(|v| {
                let keep = v.is_finite();
                if !keep {
                    dropped += 1;
                }
                keep
            })
            .collect();
        Ok((finite, dropped))
    }

    /// Non-null integer values of `col`.
    pub fn ints(&self, col: &str) -> Vec<i64> {
        match self.try_ints(col) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::ints`].
    pub fn try_ints(&self, col: &str) -> Result<Vec<i64>, BqError> {
        match self.table.try_column(col)? {
            Column::Int(c) => Ok(self.idx.iter().filter_map(|&i| c[i]).collect()),
            c => Ok(self.idx.iter().filter_map(|&i| c.get(i).as_int()).collect()),
        }
    }

    /// Non-null string values of `col`.
    pub fn strings(&self, col: &str) -> Vec<String> {
        match self.try_strings(col) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::strings`].
    pub fn try_strings(&self, col: &str) -> Result<Vec<String>, BqError> {
        match self.table.try_column(col)? {
            Column::Dict(d) => {
                Ok(self.idx.iter().filter_map(|&i| d.get(i).map(str::to_string)).collect())
            }
            c => Ok(self.idx.iter().filter_map(|&i| c.get(i).as_str().map(str::to_string)).collect()),
        }
    }

    /// Values (including nulls) of `col`.
    pub fn values(&self, col: &str) -> Vec<Value> {
        let c = self.table.column(col);
        self.idx.iter().map(|&i| c.get(i)).collect()
    }

    /// Sum over the *finite* values of `col` (0 when empty); corrupt (NaN
    /// or infinite) cells are skipped, matching [`Query::try_sum`] — the
    /// two differ only in panic-vs-error on a bad column.
    pub fn sum(&self, col: &str) -> f64 {
        match self.try_sum(col) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::sum`] over *finite* values only: corrupt (NaN or
    /// infinite) cells are skipped rather than poisoning the total.
    pub fn try_sum(&self, col: &str) -> Result<f64, BqError> {
        Ok(self.finite_floats(col)?.0.iter().sum())
    }

    /// Mean of the non-null floats in `col` (`NaN` when empty).
    pub fn mean(&self, col: &str) -> f64 {
        let v = self.floats(col);
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    /// Mean over the finite values of `col`; `Ok(None)` when the selection
    /// is empty, all-null or has no finite values — the typed-empty
    /// counterpart of [`Query::mean`]'s `NaN`.
    pub fn try_mean(&self, col: &str) -> Result<Option<f64>, BqError> {
        let (v, _) = self.finite_floats(col)?;
        if v.is_empty() {
            Ok(None)
        } else {
            Ok(Some(v.iter().sum::<f64>() / v.len() as f64))
        }
    }

    /// Median of the non-null floats in `col` (`NaN` when empty).
    pub fn median(&self, col: &str) -> f64 {
        let mut v = self.floats(col);
        if v.is_empty() {
            return f64::NAN;
        }
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        if v.len() % 2 == 1 {
            v[mid]
        } else {
            0.5 * (v[mid - 1] + v[mid])
        }
    }

    /// Median over the finite values of `col`; `Ok(None)` on a typed-empty
    /// selection.
    pub fn try_median(&self, col: &str) -> Result<Option<f64>, BqError> {
        let (mut v, _) = self.finite_floats(col)?;
        if v.is_empty() {
            return Ok(None);
        }
        v.sort_by(f64::total_cmp);
        let mid = v.len() / 2;
        Ok(Some(if v.len() % 2 == 1 { v[mid] } else { 0.5 * (v[mid - 1] + v[mid]) }))
    }

    /// Unbiased sample standard deviation of `col` (`NaN` below 2 values).
    pub fn std_dev(&self, col: &str) -> f64 {
        let v = self.floats(col);
        if v.len() < 2 {
            return f64::NAN;
        }
        let m = v.iter().sum::<f64>() / v.len() as f64;
        (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() as f64 - 1.0)).sqrt()
    }

    /// Unbiased sample standard deviation over the finite values of `col`;
    /// `Ok(None)` below 2 finite values.
    pub fn try_std_dev(&self, col: &str) -> Result<Option<f64>, BqError> {
        let (v, _) = self.finite_floats(col)?;
        if v.len() < 2 {
            return Ok(None);
        }
        let m = v.iter().sum::<f64>() / v.len() as f64;
        Ok(Some(
            (v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() as f64 - 1.0)).sqrt(),
        ))
    }

    /// Minimum of the non-null floats in `col` (`NaN` when empty).
    pub fn min(&self, col: &str) -> f64 {
        self.floats(col).into_iter().fold(f64::NAN, f64::min)
    }

    /// Minimum over the finite values of `col`; `Ok(None)` on a typed-empty
    /// selection.
    pub fn try_min(&self, col: &str) -> Result<Option<f64>, BqError> {
        let (v, _) = self.finite_floats(col)?;
        Ok(v.into_iter().reduce(f64::min))
    }

    /// Maximum of the non-null floats in `col` (`NaN` when empty).
    pub fn max(&self, col: &str) -> f64 {
        self.floats(col).into_iter().fold(f64::NAN, f64::max)
    }

    /// Maximum over the finite values of `col`; `Ok(None)` on a typed-empty
    /// selection.
    pub fn try_max(&self, col: &str) -> Result<Option<f64>, BqError> {
        let (v, _) = self.finite_floats(col)?;
        Ok(v.into_iter().reduce(f64::max))
    }

    /// Groups the selection by the (stringified) value of `col`. Nulls form
    /// their own group keyed `Value::Null`. Groups preserve row order; the
    /// group list is ordered by first appearance.
    pub fn group_by(&self, col: &str) -> Vec<(Value, Query<'t>)> {
        match self.try_group_by(col) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::group_by`]. Dictionary and integer columns bucket
    /// by code / raw value instead of stringified keys; group contents and
    /// first-appearance order are identical to the generic path.
    pub fn try_group_by(&self, col: &str) -> Result<Vec<(Value, Query<'t>)>, BqError> {
        let c = self.table.try_column(col)?;
        if let Column::Dict(d) = c {
            let codes = d.codes();
            let mut order: Vec<u32> = Vec::new();
            let mut buckets: HashMap<u32, Vec<usize>> = HashMap::new();
            for &i in &self.idx {
                let code = codes[i];
                let bucket = buckets.entry(code).or_default();
                if bucket.is_empty() {
                    order.push(code);
                }
                bucket.push(i);
            }
            return Ok(order
                .into_iter()
                .map(|code| {
                    let idx = buckets.remove(&code).expect("bucket exists");
                    let v = if code == NULL_CODE {
                        Value::Null
                    } else {
                        Value::Str(d.dict()[code as usize].clone())
                    };
                    (v, Query { table: self.table, idx })
                })
                .collect());
        }
        if let Column::Int(c) = c {
            let mut order: Vec<Option<i64>> = Vec::new();
            let mut buckets: HashMap<Option<i64>, Vec<usize>> = HashMap::new();
            for &i in &self.idx {
                let key = c[i];
                let bucket = buckets.entry(key).or_default();
                if bucket.is_empty() {
                    order.push(key);
                }
                bucket.push(i);
            }
            return Ok(order
                .into_iter()
                .map(|key| {
                    let idx = buckets.remove(&key).expect("bucket exists");
                    let v = key.map_or(Value::Null, Value::Int);
                    (v, Query { table: self.table, idx })
                })
                .collect());
        }
        let mut order: Vec<Value> = Vec::new();
        let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
        for &i in &self.idx {
            let v = c.get(i);
            let key = format!("{v:?}");
            if !buckets.contains_key(&key) {
                order.push(v.clone());
            }
            buckets.entry(key).or_default().push(i);
        }
        Ok(order
            .into_iter()
            .map(|v| {
                let key = format!("{v:?}");
                let idx = buckets.remove(&key).expect("bucket exists");
                (v, Query { table: self.table, idx })
            })
            .collect())
    }

    /// Sorts the selection by `col` ascending (nulls last; ties keep row
    /// order). Strings sort lexicographically, numbers numerically.
    pub fn order_by(self, col: &str) -> Self {
        match self.try_order_by(col) {
            Ok(q) => q,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::order_by`].
    pub fn try_order_by(self, col: &str) -> Result<Self, BqError> {
        self.order_impl(col, false)
    }

    /// Sorts the selection by `col` descending (nulls still last; ties keep
    /// row order).
    pub fn order_by_desc(self, col: &str) -> Self {
        match self.try_order_by_desc(col) {
            Ok(q) => q,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::order_by_desc`].
    pub fn try_order_by_desc(self, col: &str) -> Result<Self, BqError> {
        self.order_impl(col, true)
    }

    fn order_impl(mut self, col: &str, desc: bool) -> Result<Self, BqError> {
        use std::cmp::Ordering;
        let c = self.table.try_column(col)?;
        self.idx.sort_by(|&a, &b| {
            let (va, vb) = (c.get(a), c.get(b));
            let ord = match (va.is_null(), vb.is_null()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater, // nulls last, either way
                (false, true) => Ordering::Less,
                (false, false) => {
                    if desc {
                        value_cmp(&vb, &va)
                    } else {
                        value_cmp(&va, &vb)
                    }
                }
            };
            ord.then(a.cmp(&b))
        });
        Ok(self)
    }

    /// Keeps at most the first `n` selected rows.
    pub fn limit(mut self, n: usize) -> Self {
        self.idx.truncate(n);
        self
    }

    /// Distinct non-null values of `col`, in first-appearance order.
    pub fn distinct(&self, col: &str) -> Vec<Value> {
        match self.try_distinct(col) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::distinct`]. Dictionary and integer columns dedupe
    /// on codes / raw values, skipping the stringified-key detour.
    pub fn try_distinct(&self, col: &str) -> Result<Vec<Value>, BqError> {
        let c = self.table.try_column(col)?;
        if let Column::Dict(d) = c {
            let codes = d.codes();
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for &i in &self.idx {
                let code = codes[i];
                if code != NULL_CODE && seen.insert(code) {
                    out.push(Value::Str(d.dict()[code as usize].clone()));
                }
            }
            return Ok(out);
        }
        if let Column::Int(c) = c {
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for &i in &self.idx {
                if let Some(v) = c[i] {
                    if seen.insert(v) {
                        out.push(Value::Int(v));
                    }
                }
            }
            return Ok(out);
        }
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for &i in &self.idx {
            let v = c.get(i);
            if v.is_null() {
                continue;
            }
            if seen.insert(format!("{v:?}")) {
                out.push(v);
            }
        }
        Ok(out)
    }

    /// Number of distinct non-null values of `col` (`COUNT(DISTINCT col)`).
    pub fn count_distinct(&self, col: &str) -> usize {
        self.distinct(col).len()
    }

    /// Keeps the top `n` groups of `group_by(col)` ranked by row count
    /// (descending, ties by first appearance) — the paper's
    /// "top-1000 connections" / "top-10 ASes" idiom.
    pub fn top_groups_by_count(&self, col: &str, n: usize) -> Vec<(Value, Query<'t>)> {
        match self.try_top_groups_by_count(col, n) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Query::top_groups_by_count`].
    pub fn try_top_groups_by_count(
        &self,
        col: &str,
        n: usize,
    ) -> Result<Vec<(Value, Query<'t>)>, BqError> {
        let mut groups = self.try_group_by(col)?;
        groups.sort_by_key(|g| std::cmp::Reverse(g.1.count()));
        groups.truncate(n);
        Ok(groups)
    }
}

/// SQL-ish ordering: numbers before strings before bools, nulls last.
fn value_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn class(v: &Value) -> u8 {
        match v {
            Value::Int(_) | Value::Float(_) => 0,
            Value::Str(_) => 1,
            Value::Bool(_) => 2,
            Value::Null => 3,
        }
    }
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        _ if class(a) != class(b) => class(a).cmp(&class(b)),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        // total_cmp gives NaN a fixed place in the order (after +inf), so a
        // corrupt cell can never make the comparator inconsistent and
        // scramble an otherwise-valid sort.
        _ => match (a.as_float(), b.as_float()) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (x, y) => x.is_some().cmp(&y.is_some()).reverse(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColType;

    fn sample() -> Table {
        let mut t = Table::new(
            "t",
            &[("day", ColType::Int), ("city", ColType::Str), ("tput", ColType::Float)],
        );
        for (d, c, v) in [
            (1, Some("Kyiv"), Some(10.0)),
            (1, Some("Lviv"), Some(20.0)),
            (2, Some("Kyiv"), Some(30.0)),
            (2, None, Some(40.0)),
            (3, Some("Kyiv"), None),
        ] {
            t.push(vec![
                Value::Int(d),
                c.map(Value::from).unwrap_or(Value::Null),
                v.map(Value::Float).unwrap_or(Value::Null),
            ]);
        }
        t
    }

    #[test]
    fn filter_and_aggregate() {
        let t = sample();
        let kyiv = t.query().filter_eq("city", &Value::from("Kyiv"));
        assert_eq!(kyiv.count(), 3);
        assert_eq!(kyiv.floats("tput"), vec![10.0, 30.0]);
        assert!((kyiv.mean("tput") - 20.0).abs() < 1e-12);
        assert_eq!(kyiv.min("tput"), 10.0);
        assert_eq!(kyiv.max("tput"), 30.0);
    }

    #[test]
    fn range_and_notnull_filters() {
        let t = sample();
        assert_eq!(t.query().filter_int_range("day", 1, 2).count(), 2);
        assert_eq!(t.query().filter_not_null("city").count(), 4);
        assert_eq!(t.query().filter_not_null("tput").count(), 4);
    }

    #[test]
    fn chained_filters_compose() {
        let t = sample();
        let q = t
            .query()
            .filter_int_range("day", 1, 3)
            .filter_eq("city", &Value::from("Kyiv"))
            .filter_not_null("tput");
        assert_eq!(q.count(), 2);
        assert!((q.sum("tput") - 40.0).abs() < 1e-12);
    }

    #[test]
    fn group_by_includes_null_group() {
        let t = sample();
        let groups = t.query().group_by("city");
        assert_eq!(groups.len(), 3); // Kyiv, Lviv, Null
        let (first_key, first) = &groups[0];
        assert_eq!(first_key, &Value::from("Kyiv"));
        assert_eq!(first.count(), 3);
        assert!(groups.iter().any(|(k, q)| k.is_null() && q.count() == 1));
    }

    #[test]
    fn top_groups_rank_by_count() {
        let t = sample();
        let top = t.query().top_groups_by_count("city", 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, Value::from("Kyiv"));
    }

    #[test]
    fn median_and_std() {
        let t = sample();
        let q = t.query();
        assert!((q.median("tput") - 25.0).abs() < 1e-12);
        let sd = q.std_dev("tput");
        assert!((sd - 12.909944).abs() < 1e-5, "sd = {sd}");
    }

    #[test]
    fn order_by_and_limit() {
        let t = sample();
        let q = t.query().order_by_desc("tput").limit(2);
        assert_eq!(q.floats("tput"), vec![40.0, 30.0]);
        let asc = t.query().order_by("tput");
        let f = asc.floats("tput");
        assert_eq!(f, vec![10.0, 20.0, 30.0, 40.0]);
        // Nulls sort last.
        let vals = asc.values("tput");
        assert!(vals.last().unwrap().is_null());
    }

    #[test]
    fn distinct_values() {
        let t = sample();
        let cities = t.query().distinct("city");
        assert_eq!(cities, vec![Value::from("Kyiv"), Value::from("Lviv")]);
        assert_eq!(t.query().count_distinct("city"), 2);
        assert_eq!(t.query().count_distinct("day"), 3);
    }

    #[test]
    fn empty_selection_aggregates() {
        let t = sample();
        let q = t.query().filter_eq("city", &Value::from("Odessa"));
        assert!(q.is_empty());
        assert!(q.mean("tput").is_nan());
        assert!(q.median("tput").is_nan());
        assert_eq!(q.sum("tput"), 0.0);
    }
}
