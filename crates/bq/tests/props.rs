//! Property-based tests: filters behave like relational selection,
//! `finite_floats` partitions a column's non-null cells, unknown columns
//! are errors, and dictionary-encoded columns answer every query as their
//! plain twins do.

use ndt_bq::{ColType, Query, Table, Value};
use proptest::prelude::*;

fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec((0i64..5, 0u8..4, prop::option::of(-100.0..100.0f64)), 0..120).prop_map(
        |rows| {
            let mut t = Table::new(
                "t",
                &[("k", ColType::Int), ("g", ColType::Str), ("x", ColType::Float)],
            );
            for (k, g, x) in rows {
                t.push(vec![
                    Value::Int(k),
                    Value::from(format!("g{g}")),
                    x.map(Value::Float).unwrap_or(Value::Null),
                ]);
            }
            t
        },
    )
}

fn range(t: &Table, lo: i64, hi: i64) -> Query<'_> {
    t.query().try_filter_int_range("k", lo, hi).expect("k exists")
}

proptest! {
    /// Each filter selects exactly the rows its predicate accepts, in
    /// table order.
    #[test]
    fn filters_select_what_their_predicate_accepts(
        t in arb_table(), lo in 0i64..5, hi in 0i64..6, g in 0u8..5,
    ) {
        let ks = t.query().try_ints("k").unwrap();
        let want: Vec<usize> = (0..t.len()).filter(|&i| (lo..hi).contains(&ks[i])).collect();
        let selected = range(&t, lo, hi);
        prop_assert_eq!(selected.indices(), &want[..]);

        let gv = Value::from(format!("g{g}"));
        let by_eq = t.query().try_filter_eq("g", &gv).unwrap();
        let by_pred = t.query().try_filter("g", |cell| *cell == gv).unwrap();
        prop_assert_eq!(by_eq.indices(), by_pred.indices());

        let xs = t.query().try_filter_not_null("x").unwrap();
        prop_assert_eq!(xs.count(), t.query().try_floats("x").unwrap().len());
    }

    /// Filtering is idempotent and never grows the selection.
    #[test]
    fn filter_idempotent(t in arb_table(), lo in 0i64..5) {
        let once = range(&t, lo, 5);
        let twice = once.clone().try_filter_int_range("k", lo, 5).unwrap();
        prop_assert_eq!(once.indices(), twice.indices());
        prop_assert!(once.count() <= t.len());
    }

    /// Filter order commutes.
    #[test]
    fn filters_commute(t in arb_table(), lo in 0i64..5, g in 0u8..4) {
        let gv = Value::from(format!("g{g}"));
        let a = range(&t, lo, 5).try_filter_eq("g", &gv).unwrap();
        let b = t
            .query()
            .try_filter_eq("g", &gv)
            .and_then(|q| q.try_filter_int_range("k", lo, 5))
            .unwrap();
        prop_assert_eq!(a.indices(), b.indices());
    }

    /// Column reads follow the selection: the floats of a filtered query
    /// are the non-null cells of the selected rows, in order.
    #[test]
    fn reads_follow_the_selection(t in arb_table(), lo in 0i64..5) {
        let q = range(&t, lo, 5);
        let x = t.try_column("x").unwrap();
        let want: Vec<f64> = q.indices().iter().filter_map(|&i| x.get(i).as_float()).collect();
        prop_assert_eq!(q.try_floats("x").unwrap(), want);
        let k = t.try_column("k").unwrap();
        let ks: Vec<i64> = q.indices().iter().filter_map(|&i| k.get(i).as_int()).collect();
        prop_assert_eq!(q.try_ints("k").unwrap(), ks);
    }
}

/// A "dirty" table whose float column mixes nulls, NaNs, infinities and
/// finite values — the shape fault injection produces.
fn arb_dirty_table() -> impl Strategy<Value = Table> {
    // A selector byte picks the cell kind: null, NaN, ±infinity or finite.
    prop::collection::vec((0i64..5, 0u8..10, -100.0..100.0f64), 0..100).prop_map(|rows| {
        let mut t = Table::new("dirty", &[("k", ColType::Int), ("x", ColType::Float)]);
        for (k, kind, finite) in rows {
            let x = match kind {
                0 | 1 => Value::Null,
                2 => Value::Float(f64::NAN),
                3 => Value::Float(f64::INFINITY),
                4 => Value::Float(f64::NEG_INFINITY),
                _ => Value::Float(finite),
            };
            t.push(vec![Value::Int(k), x]);
        }
        t
    })
}

proptest! {
    /// `finite_floats` splits the non-null cells into the finite values,
    /// in order, and a count of the rest — it never leaks a NaN or an
    /// infinity and never loses a cell.
    #[test]
    fn finite_floats_partition_non_null_cells(t in arb_dirty_table(), lo in 0i64..5) {
        let q = range(&t, lo, 5);
        let (finite, dropped) = q.finite_floats("x").unwrap();
        let non_null = q.try_floats("x").unwrap();
        prop_assert_eq!(finite.len() + dropped, non_null.len(), "finite/dropped split loses rows");
        prop_assert!(finite.iter().all(|v| v.is_finite()));
        let want: Vec<f64> = non_null.into_iter().filter(|v| v.is_finite()).collect();
        prop_assert_eq!(finite, want);
    }

    /// Schema drift is an error value, not a panic: every entry point
    /// rejects an unknown column with `Err`.
    #[test]
    fn unknown_columns_error_instead_of_panicking(t in arb_dirty_table()) {
        let q = t.query();
        prop_assert!(q.try_floats("nope").is_err());
        prop_assert!(q.try_ints("nope").is_err());
        prop_assert!(q.finite_floats("nope").is_err());
        prop_assert!(t.try_col_index("nope").is_err());
        prop_assert!(t.try_column("nope").is_err());
        prop_assert!(t.query().try_filter("nope", |_| true).is_err());
        prop_assert!(t.query().try_filter_eq("nope", &Value::Int(1)).is_err());
        prop_assert!(t.query().try_filter_int_range("nope", 0, 5).is_err());
        prop_assert!(t.query().try_filter_not_null("nope").is_err());
    }
}

// ---------------------------------------------------------------------------
// Dictionary encoding: dict-code evaluation ≡ decoded-string evaluation
// ---------------------------------------------------------------------------

/// Small closed vocabulary so generated columns hit repeated values,
/// absent needles and the empty string.
const WORDS: &[&str] = &["", "Kiev City", "L'viv", "Kharkiv", "Donets'k"];
/// Needle candidates: every vocabulary word plus one guaranteed-absent key.
const NEEDLES: &[&str] = &["", "Kiev City", "L'viv", "Kharkiv", "Donets'k", "Atlantis"];

fn word_rows() -> impl Strategy<Value = Vec<Option<usize>>> {
    prop::collection::vec(prop::option::of(0usize..WORDS.len()), 0..40)
}

/// Builds a plain-Str table and its dict-encoded twin from the same rows.
fn twin_tables(rows: &[Option<usize>]) -> (Table, Table) {
    let mut plain = Table::new("t", &[("s", ColType::Str), ("v", ColType::Float)]);
    let mut dict = Table::new("t", &[("s", ColType::Str), ("v", ColType::Float)]);
    dict.dict_encode("s");
    for (i, w) in rows.iter().enumerate() {
        let s = w.map_or(Value::Null, |w| Value::from(WORDS[w]));
        let v = Value::Float(i as f64 * 0.5 - 3.0);
        plain.push(vec![s.clone(), v.clone()]);
        dict.push(vec![s, v]);
    }
    (plain, dict)
}

proptest! {
    /// Dict-encoded tables are logically equal to their plain twins and
    /// answer every filter identically — including the all-null column
    /// (empty dictionary), absent-needle and null-needle cases.
    #[test]
    fn dict_table_query_equivalence(
        rows in word_rows(),
        needle in 0usize..NEEDLES.len(),
    ) {
        let (plain, dict) = twin_tables(&rows);
        prop_assert_eq!(&plain, &dict);

        let needle = Value::from(NEEDLES[needle]);
        let p = plain.query().try_filter_eq("s", &needle).unwrap();
        let d = dict.query().try_filter_eq("s", &needle).unwrap();
        prop_assert_eq!(p.indices(), d.indices());
        prop_assert_eq!(p.try_floats("v").unwrap(), d.try_floats("v").unwrap());

        // Null and non-string needles never match on either representation.
        for v in [Value::Null, Value::Int(0)] {
            prop_assert_eq!(plain.query().try_filter_eq("s", &v).unwrap().count(), 0);
            prop_assert_eq!(dict.query().try_filter_eq("s", &v).unwrap().count(), 0);
        }

        let pn = plain.query().try_filter_not_null("s").unwrap();
        let dn = dict.query().try_filter_not_null("s").unwrap();
        prop_assert_eq!(pn.indices(), dn.indices());
        for i in 0..plain.len() {
            let cell = |t: &Table| t.try_column("s").unwrap().get(i);
            prop_assert_eq!(cell(&plain), cell(&dict));
        }
    }
}
