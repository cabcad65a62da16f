//! Typed columnar tables.

use crate::error::BqError;
use crate::value::Value;

/// Column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    Int,
    Float,
    Str,
    Bool,
}

/// Null sentinel in a [`DictColumn`]'s code vector. Codes are dense
/// indices into the dictionary, so the all-ones pattern can never collide
/// with a real entry.
pub const NULL_CODE: u32 = u32::MAX;

/// Dictionary-encoded string storage: one `u32` code per row pointing
/// into a per-column dictionary of distinct strings ([`NULL_CODE`] marks
/// nulls). Batch ingest interns each distinct label once and appends
/// codes, and query predicates compare integers instead of decoded
/// strings.
///
/// Dictionary order is an ingestion artifact (first appearance wins), so
/// equality is *logical*: two dict columns are equal when they hold the
/// same string sequence, however their dictionaries are ordered.
#[derive(Debug, Clone, Default)]
pub struct DictColumn {
    dict: Vec<String>,
    codes: Vec<u32>,
    index: std::collections::HashMap<String, u32>,
}

impl DictColumn {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Interns `s` without appending a row, returning its code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.index.get(s) {
            return c;
        }
        let c = self.dict.len() as u32;
        debug_assert!(c != NULL_CODE, "dictionary overflow");
        self.dict.push(s.to_string());
        self.index.insert(s.to_string(), c);
        c
    }

    /// Appends one string row, interning it.
    pub fn push_str(&mut self, s: &str) {
        let c = self.intern(s);
        self.codes.push(c);
    }

    /// Appends one null row.
    pub fn push_null(&mut self) {
        self.codes.push(NULL_CODE);
    }

    /// Appends a pre-interned code ([`NULL_CODE`] for null).
    ///
    /// # Panics
    /// Debug-asserts the code is in range; callers obtain codes from
    /// [`DictColumn::intern`] on the same column.
    pub fn push_code(&mut self, code: u32) {
        debug_assert!(code == NULL_CODE || (code as usize) < self.dict.len(), "dangling code");
        self.codes.push(code);
    }

    /// The code for `s`, if present in the dictionary. `None` means no
    /// row can equal `s` — the absent-key fast path for `filter_eq`.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string at `row`, or `None` for null.
    pub fn get(&self, row: usize) -> Option<&str> {
        match self.codes[row] {
            NULL_CODE => None,
            c => Some(&self.dict[c as usize]),
        }
    }

    /// Per-row codes ([`NULL_CODE`] marks nulls).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The dictionary, in first-appearance order.
    pub fn dict(&self) -> &[String] {
        &self.dict
    }

    /// Drops rows past `len`. Dictionary entries that lose their last
    /// reference stay interned — logical equality only reads rows.
    pub fn truncate(&mut self, len: usize) {
        self.codes.truncate(len);
    }
}

impl PartialEq for DictColumn {
    fn eq(&self, other: &Self) -> bool {
        self.codes.len() == other.codes.len()
            && self
                .codes
                .iter()
                .zip(&other.codes)
                .all(|(&a, &b)| match (a, b) {
                    (NULL_CODE, NULL_CODE) => true,
                    (NULL_CODE, _) | (_, NULL_CODE) => false,
                    (a, b) => self.dict[a as usize] == other.dict[b as usize],
                })
    }
}

/// Columnar storage for one column (nullable).
#[derive(Debug, Clone)]
pub enum Column {
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Str(Vec<Option<String>>),
    /// Dictionary-encoded strings; behaves exactly like [`Column::Str`]
    /// through every value-level accessor.
    Dict(DictColumn),
    Bool(Vec<Option<bool>>),
}

/// Equality is logical, per row: a dict-encoded column equals a plain
/// string column holding the same cell sequence — encoding is a storage
/// strategy, invisible to comparison just like to every accessor.
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a == b,
            (Column::Float(a), Column::Float(b)) => a == b,
            (Column::Str(a), Column::Str(b)) => a == b,
            (Column::Dict(a), Column::Dict(b)) => a == b,
            (Column::Bool(a), Column::Bool(b)) => a == b,
            (Column::Str(s), Column::Dict(d)) | (Column::Dict(d), Column::Str(s)) => {
                s.len() == d.len()
                    && (0..s.len()).all(|i| s[i].as_deref() == d.get(i))
            }
            _ => false,
        }
    }
}

impl Column {
    fn new(ty: ColType) -> Self {
        match ty {
            ColType::Int => Column::Int(Vec::new()),
            ColType::Float => Column::Float(Vec::new()),
            ColType::Str => Column::Str(Vec::new()),
            ColType::Bool => Column::Bool(Vec::new()),
        }
    }

    fn try_push(&mut self, v: Value, col_name: &str, table: &str) -> Result<(), BqError> {
        match (self, v) {
            (Column::Int(c), Value::Int(v)) => c.push(Some(v)),
            (Column::Int(c), Value::Null) => c.push(None),
            (Column::Float(c), Value::Float(v)) => c.push(Some(v)),
            (Column::Float(c), Value::Int(v)) => c.push(Some(v as f64)),
            (Column::Float(c), Value::Null) => c.push(None),
            (Column::Str(c), Value::Str(v)) => c.push(Some(v)),
            (Column::Str(c), Value::Null) => c.push(None),
            (Column::Dict(c), Value::Str(v)) => c.push_str(&v),
            (Column::Dict(c), Value::Null) => c.push_null(),
            (Column::Bool(c), Value::Bool(v)) => c.push(Some(v)),
            (Column::Bool(c), Value::Null) => c.push(None),
            (col, v) => {
                return Err(BqError::TypeMismatch {
                    table: table.to_string(),
                    column: col_name.to_string(),
                    expected: col.col_type(),
                    got: format!("{v:?}"),
                })
            }
        }
        Ok(())
    }

    /// The column's type tag. Dictionary encoding is a storage strategy,
    /// not a schema type: dict columns are `Str` to every consumer.
    pub fn col_type(&self) -> ColType {
        match self {
            Column::Int(_) => ColType::Int,
            Column::Float(_) => ColType::Float,
            Column::Str(_) | Column::Dict(_) => ColType::Str,
            Column::Bool(_) => ColType::Bool,
        }
    }

    /// Cell at `row` as a [`Value`].
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::Int(c) => c[row].map(Value::Int).unwrap_or(Value::Null),
            Column::Float(c) => c[row].map(Value::Float).unwrap_or(Value::Null),
            Column::Str(c) => c[row].clone().map(Value::Str).unwrap_or(Value::Null),
            Column::Dict(c) => c.get(row).map(|s| Value::Str(s.to_string())).unwrap_or(Value::Null),
            Column::Bool(c) => c[row].map(Value::Bool).unwrap_or(Value::Null),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Column::Int(c) => c.len(),
            Column::Float(c) => c.len(),
            Column::Str(c) => c.len(),
            Column::Dict(c) => c.len(),
            Column::Bool(c) => c.len(),
        }
    }

    fn truncate(&mut self, len: usize) {
        match self {
            Column::Int(c) => c.truncate(len),
            Column::Float(c) => c.truncate(len),
            Column::Str(c) => c.truncate(len),
            Column::Dict(c) => c.truncate(len),
            Column::Bool(c) => c.truncate(len),
        }
    }
}

/// A named table with a fixed schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    names: Vec<String>,
    cols: Vec<Column>,
    rows: usize,
}

impl Table {
    /// Creates an empty table with the given schema.
    ///
    /// # Panics
    /// Panics on duplicate column names or an empty schema.
    pub fn new(name: impl Into<String>, schema: &[(&str, ColType)]) -> Self {
        assert!(!schema.is_empty(), "table needs at least one column");
        let mut names = Vec::with_capacity(schema.len());
        let mut cols = Vec::with_capacity(schema.len());
        for (n, ty) in schema {
            assert!(!names.contains(&n.to_string()), "duplicate column '{n}'");
            names.push(n.to_string());
            cols.push(Column::new(*ty));
        }
        Self { name: name.into(), names, cols, rows: 0 }
    }

    /// Table name (e.g. `ndt.unified_download`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity or any cell type mismatches the schema. Data
    /// paths ingesting untrusted rows use [`Table::try_push`] instead.
    pub fn push(&mut self, row: Vec<Value>) {
        if let Err(e) = self.try_push(row) {
            panic!("{e}");
        }
    }

    /// Appends a row, rejecting arity and cell-type mismatches.
    ///
    /// On error the table is unchanged *logically*: the row counter does not
    /// advance and any partially pushed cells are rolled back, so a corrupt
    /// source row never desynchronizes the columns. Every rejection also
    /// bumps the `bq.rows_rejected` counter, so a caller that drops the
    /// `Err` still leaves an audit trail in the metrics artifact.
    pub fn try_push(&mut self, row: Vec<Value>) -> Result<(), BqError> {
        if row.len() != self.cols.len() {
            ndt_obs::incr("bq.rows_rejected", 1);
            return Err(BqError::ArityMismatch {
                table: self.name.clone(),
                expected: self.cols.len(),
                got: row.len(),
            });
        }
        let mut pushed = 0usize;
        let mut failure = None;
        for ((col, name), v) in self.cols.iter_mut().zip(&self.names).zip(row) {
            match col.try_push(v, name, &self.name) {
                Ok(()) => pushed += 1,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = failure {
            for col in self.cols.iter_mut().take(pushed) {
                let len = col.len().saturating_sub(1);
                col.truncate(len);
            }
            ndt_obs::incr("bq.rows_rejected", 1);
            return Err(e);
        }
        self.rows += 1;
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Index of a column.
    ///
    /// # Panics
    /// Panics if the column does not exist. Data paths resolving columns
    /// from untrusted input use [`Table::try_col_index`] instead.
    pub fn col_index(&self, name: &str) -> usize {
        match self.try_col_index(name) {
            Ok(i) => i,
            Err(e) => panic!("{e}"),
        }
    }

    /// Index of a column, or a typed error naming the available columns.
    pub fn try_col_index(&self, name: &str) -> Result<usize, BqError> {
        self.names.iter().position(|n| n == name).ok_or_else(|| BqError::NoSuchColumn {
            table: self.name.clone(),
            column: name.to_string(),
            available: self.names.clone(),
        })
    }

    /// Column storage by name.
    ///
    /// # Panics
    /// Panics if the column does not exist; see [`Table::try_column`].
    pub fn column(&self, name: &str) -> &Column {
        &self.cols[self.col_index(name)]
    }

    /// Column storage by name, or a typed error.
    pub fn try_column(&self, name: &str) -> Result<&Column, BqError> {
        Ok(&self.cols[self.try_col_index(name)?])
    }

    /// Cell value.
    pub fn value(&self, row: usize, col: &str) -> Value {
        self.column(col).get(row)
    }

    /// A query over all rows.
    pub fn query(&self) -> crate::query::Query<'_> {
        crate::query::Query::all(self)
    }

    /// Renders the table as CSV (header + all rows; nulls render empty,
    /// strings are quoted only when they contain a comma or quote).
    pub fn to_csv(&self) -> String {
        let mut out = self.names.join(",");
        out.push('\n');
        for row in 0..self.rows {
            let cells: Vec<String> = self
                .cols
                .iter()
                .map(|c| match c.get(row) {
                    crate::value::Value::Null => String::new(),
                    crate::value::Value::Str(s) if s.contains(',') || s.contains('"') => {
                        format!("\"{}\"", s.replace('"', "\"\""))
                    }
                    v => v.to_string(),
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Internal consistency check (all columns same length).
    pub fn check(&self) {
        for (c, n) in self.cols.iter().zip(&self.names) {
            assert_eq!(c.len(), self.rows, "column '{n}' length drift");
        }
    }

    /// Switches a `Str` column to dictionary encoding, re-interning any
    /// existing values. A no-op on a column that is already dict-encoded.
    ///
    /// # Panics
    /// Panics if the column does not exist or is not a string column —
    /// dict encoding is declared at schema-construction time, where the
    /// schema is statically known.
    pub fn dict_encode(&mut self, name: &str) {
        let i = self.col_index(name);
        match &mut self.cols[i] {
            Column::Dict(_) => {}
            Column::Str(c) => {
                let mut d = DictColumn::default();
                for v in c.iter() {
                    match v {
                        Some(s) => d.push_str(s),
                        None => d.push_null(),
                    }
                }
                self.cols[i] = Column::Dict(d);
            }
            other => panic!(
                "cannot dict-encode column '{name}' of type {:?}",
                other.col_type()
            ),
        }
    }

    /// Mutable column storage by name — the batch-append entry point for
    /// the batch ingest path.
    ///
    /// Contract: after appending directly to columns, grow every column
    /// by the same amount and call [`Table::commit_batch`] before using
    /// any row-oriented accessor; `commit_batch` is the single place the
    /// row counter advances, and it verifies the columns stayed aligned.
    ///
    /// # Panics
    /// Panics if the column does not exist.
    pub fn column_mut(&mut self, name: &str) -> &mut Column {
        let i = self.col_index(name);
        &mut self.cols[i]
    }

    /// Verifies all columns grew in lockstep since the last commit and
    /// publishes the new row count — once per ingested batch, not per
    /// row, so bulk ingest and row-at-a-time ingest agree on when `rows`
    /// is authoritative. On misalignment every column is rolled back to
    /// the last committed length and a typed error reports the drift.
    pub fn commit_batch(&mut self) -> Result<usize, BqError> {
        let target = self.cols.first().map(Column::len).unwrap_or(0);
        if let Some(bad) = self.cols.iter().position(|c| c.len() != target) {
            let (prev, got) = (self.rows, self.cols[bad].len());
            for col in &mut self.cols {
                col.truncate(prev);
            }
            ndt_obs::incr("bq.rows_rejected", 1);
            return Err(BqError::ArityMismatch { table: self.name.clone(), expected: target, got });
        }
        debug_assert!(target >= self.rows, "batch shrank the table");
        let appended = target - self.rows;
        self.rows = target;
        Ok(appended)
    }

    /// Drops every row past `len` — the store loader's rollback for
    /// shard-pair atomicity (a pair that fails mid-decode must leave no
    /// partial rows behind).
    pub fn truncate(&mut self, len: usize) {
        if len >= self.rows {
            return;
        }
        for col in &mut self.cols {
            col.truncate(len);
        }
        self.rows = len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", &[("a", ColType::Int), ("b", ColType::Float), ("c", ColType::Str)]);
        t.push(vec![Value::Int(1), Value::Float(1.5), Value::from("x")]);
        t.push(vec![Value::Int(2), Value::Null, Value::from("y")]);
        t.push(vec![Value::Null, Value::Int(3), Value::Null]);
        t
    }

    #[test]
    fn push_and_read_back() {
        let t = sample();
        t.check();
        assert_eq!(t.len(), 3);
        assert_eq!(t.value(0, "a"), Value::Int(1));
        assert_eq!(t.value(1, "b"), Value::Null);
        // Int widens into Float columns.
        assert_eq!(t.value(2, "b"), Value::Float(3.0));
        assert_eq!(t.value(2, "c"), Value::Null);
    }

    #[test]
    fn csv_rendering() {
        let mut t = Table::new("t", &[("a", ColType::Int), ("c", ColType::Str)]);
        t.push(vec![Value::Int(1), Value::from("plain")]);
        t.push(vec![Value::Null, Value::from("with, comma")]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,c\n1,plain\n,\"with, comma\"\n");
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_panics() {
        let mut t = Table::new("t", &[("a", ColType::Int)]);
        t.push(vec![Value::from("nope")]);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("t", &[("a", ColType::Int)]);
        t.push(vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn rejected_rows_are_counted() {
        // Captured on this thread, so rows other tests reject
        // concurrently cannot leak into the count.
        let ((), tally) = ndt_obs::capture(|| {
            let mut t = Table::new("t", &[("a", ColType::Int)]);
            assert!(t.try_push(vec![Value::from("nope")]).is_err());
            assert!(t.try_push(vec![Value::Int(1), Value::Int(2)]).is_err());
            assert!(t.is_empty());
            t.check();
        });
        assert_eq!(tally.counter("bq.rows_rejected"), 2, "rejections are counted: {tally:?}");
    }

    #[test]
    #[should_panic(expected = "no column 'zzz'")]
    fn unknown_column_panics() {
        sample().column("zzz");
    }

    /// A dict-encoded column is indistinguishable from a plain string
    /// column through every value-level accessor.
    #[test]
    fn dict_column_behaves_like_str() {
        let schema: &[(&str, ColType)] = &[("a", ColType::Int), ("s", ColType::Str)];
        let rows = vec![
            vec![Value::Int(1), Value::from("x")],
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(3), Value::from("y")],
            vec![Value::Int(4), Value::from("x")],
        ];
        let mut plain = Table::new("t", schema);
        let mut dict = Table::new("t", schema);
        dict.dict_encode("s");
        for r in rows {
            plain.push(r.clone());
            dict.push(r);
        }
        dict.check();
        assert_eq!(dict.column("s").col_type(), ColType::Str);
        assert_eq!(dict.len(), plain.len());
        for row in 0..plain.len() {
            for col in ["a", "s"] {
                assert_eq!(dict.value(row, col), plain.value(row, col));
            }
        }
        assert_eq!(dict.to_csv(), plain.to_csv());
    }

    #[test]
    fn dict_encoding_preserves_existing_rows() {
        let mut t = Table::new("t", &[("s", ColType::Str)]);
        t.push(vec![Value::from("a")]);
        t.push(vec![Value::Null]);
        t.push(vec![Value::from("b")]);
        t.dict_encode("s");
        t.push(vec![Value::from("a")]);
        t.check();
        assert_eq!(t.value(0, "s"), Value::from("a"));
        assert_eq!(t.value(1, "s"), Value::Null);
        assert_eq!(t.value(3, "s"), Value::from("a"));
        let Column::Dict(d) = t.column("s") else { panic!("dict-encoded") };
        assert_eq!(d.dict(), &["a".to_string(), "b".to_string()]);
        assert_eq!(d.codes(), &[0, NULL_CODE, 1, 0]);
        assert_eq!(d.code_of("b"), Some(1));
        assert_eq!(d.code_of("zzz"), None);
    }

    /// Logical equality: same row contents, differently ordered dicts.
    #[test]
    fn dict_equality_ignores_dictionary_order() {
        let mut a = DictColumn::default();
        let mut b = DictColumn::default();
        b.intern("second"); // b sees "second" first → different code order
        for s in ["first", "second", "first"] {
            a.push_str(s);
            b.push_str(s);
        }
        a.push_null();
        b.push_null();
        assert_eq!(Column::Dict(a), Column::Dict(b));
    }

    #[test]
    fn batch_append_commits_once_and_rolls_back_misaligned_columns() {
        let mut t = Table::new("t", &[("a", ColType::Int), ("s", ColType::Str)]);
        t.dict_encode("s");
        t.push(vec![Value::Int(1), Value::from("x")]);

        // A clean batch: both columns grow by two, one commit.
        if let Column::Int(c) = t.column_mut("a") {
            c.extend([Some(2), Some(3)]);
        }
        if let Column::Dict(d) = t.column_mut("s") {
            let code = d.intern("y");
            d.push_code(code);
            d.push_null();
        }
        assert_eq!(t.commit_batch().expect("aligned"), 2);
        t.check();
        assert_eq!(t.len(), 3);
        assert_eq!(t.value(1, "s"), Value::from("y"));
        assert_eq!(t.value(2, "s"), Value::Null);

        // A ragged batch: only one column grew — rejected and rolled back.
        if let Column::Int(c) = t.column_mut("a") {
            c.push(Some(9));
        }
        assert!(t.commit_batch().is_err());
        t.check();
        assert_eq!(t.len(), 3, "ragged batch left no partial rows");
    }

    #[test]
    fn truncate_restores_a_prior_row_count() {
        let mut t = sample();
        t.truncate(1);
        t.check();
        assert_eq!(t.len(), 1);
        assert_eq!(t.value(0, "a"), Value::Int(1));
        t.truncate(5); // growing is a no-op
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_column_panics() {
        Table::new("t", &[("a", ColType::Int), ("a", ColType::Float)]);
    }
}
