//! Query builder: filters and column reads over a table.
//!
//! Every operation whose failure depends on *data* — an unknown column —
//! returns `Result<_, BqError>`. Reductions (means, Welch tests,
//! histograms) happen in the callers, over the vectors these reads
//! return.

use crate::error::BqError;
use crate::table::{Column, Table};
use crate::value::Value;

/// An immutable view over a subset of a table's rows.
///
/// Queries are index sets: filtering never copies the data. Row order is
/// preserved (insertion order of the base table).
#[derive(Debug, Clone)]
pub struct Query<'t> {
    table: &'t Table,
    idx: Vec<usize>,
}

impl<'t> Query<'t> {
    /// A query over every row of `table`.
    pub(crate) fn all(table: &'t Table) -> Self {
        Self { table, idx: (0..table.len()).collect() }
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
    pub fn try_filter(mut self, col: &str, pred: impl Fn(&Value) -> bool) -> Result<Self, BqError> {
        let c = self.table.try_column(col)?;
        self.idx.retain(|&i| pred(&c.get(i)));
        Ok(self)
    }

    /// Keeps rows where `col` equals `v` (nulls never match). On a
    /// dictionary-encoded column the needle resolves to a code once and
    /// rows compare integers — no per-row string materialization; a needle
    /// absent from the dictionary short-circuits to an empty selection.
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

    /// Keeps rows whose integer `col` lies in `[lo, hi)`; nulls drop.
    /// Integer columns compare the stored values directly instead of
    /// boxing each cell.
    pub fn try_filter_int_range(mut self, col: &str, lo: i64, hi: i64) -> Result<Self, BqError> {
        if let Column::Int(c) = self.table.try_column(col)? {
            self.idx.retain(|&i| c[i].is_some_and(|v| (lo..hi).contains(&v)));
            return Ok(self);
        }
        self.try_filter(col, move |cell| cell.as_int().is_some_and(|v| (lo..hi).contains(&v)))
    }

    /// Keeps rows where `col` is not null.
    pub fn try_filter_not_null(self, col: &str) -> Result<Self, BqError> {
        self.try_filter(col, |cell| !cell.is_null())
    }

    /// Non-null float values of `col` over the selection (ints widen).
    /// Float and integer columns read their storage directly instead of
    /// boxing each cell into a [`Value`].
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
    pub fn try_ints(&self, col: &str) -> Result<Vec<i64>, BqError> {
        match self.table.try_column(col)? {
            Column::Int(c) => Ok(self.idx.iter().filter_map(|&i| c[i]).collect()),
            c => Ok(self.idx.iter().filter_map(|&i| c.get(i).as_int()).collect()),
        }
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
    fn filter_and_read() {
        let t = sample();
        let kyiv = t.query().try_filter_eq("city", &Value::from("Kyiv")).unwrap();
        assert_eq!(kyiv.count(), 3);
        assert_eq!(kyiv.try_floats("tput").unwrap(), vec![10.0, 30.0]);
        assert_eq!(kyiv.try_ints("day").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn range_and_notnull_filters() {
        let t = sample();
        assert_eq!(t.query().try_filter_int_range("day", 1, 2).unwrap().count(), 2);
        assert_eq!(t.query().try_filter_not_null("city").unwrap().count(), 4);
        assert_eq!(t.query().try_filter_not_null("tput").unwrap().count(), 4);
    }

    #[test]
    fn chained_filters_compose() {
        let t = sample();
        let q = t
            .query()
            .try_filter_int_range("day", 1, 3)
            .and_then(|q| q.try_filter_eq("city", &Value::from("Kyiv")))
            .and_then(|q| q.try_filter_not_null("tput"))
            .unwrap();
        assert_eq!(q.count(), 2);
        assert_eq!(q.indices(), &[0, 2]);
    }

    #[test]
    fn empty_selection_reads_empty() {
        let t = sample();
        let q = t.query().try_filter_eq("city", &Value::from("Odessa")).unwrap();
        assert!(q.is_empty());
        assert!(q.try_floats("tput").unwrap().is_empty());
        assert_eq!(q.finite_floats("tput").unwrap(), (Vec::new(), 0));
    }
}
