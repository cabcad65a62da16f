//! Property-based tests: the query algebra behaves like relational algebra,
//! and dictionary-encoded columns answer every query as their plain twins
//! do.

use ndt_bq::{ColType, Table, Value};
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

proptest! {
    /// Group-by partitions the selection: group sizes sum to the total and
    /// every row lands in exactly one group.
    #[test]
    fn group_by_partitions(t in arb_table()) {
        let q = t.query();
        let groups = q.group_by("g");
        let total: usize = groups.iter().map(|(_, g)| g.count()).sum();
        prop_assert_eq!(total, q.count());
        let mut seen = std::collections::HashSet::new();
        for (_, g) in &groups {
            for &i in g.indices() {
                prop_assert!(seen.insert(i), "row {i} in two groups");
            }
        }
    }

    /// Filtering is idempotent and anti-monotone in selectivity.
    #[test]
    fn filter_idempotent(t in arb_table(), lo in 0i64..5) {
        let once = t.query().filter_int_range("k", lo, 5);
        let twice = t.query().filter_int_range("k", lo, 5).filter_int_range("k", lo, 5);
        prop_assert_eq!(once.indices(), twice.indices());
        prop_assert!(once.count() <= t.len());
    }

    /// Filter order commutes.
    #[test]
    fn filters_commute(t in arb_table(), lo in 0i64..5, g in 0u8..4) {
        let gv = Value::from(format!("g{g}"));
        let a = t.query().filter_int_range("k", lo, 5).filter_eq("g", &gv);
        let b = t.query().filter_eq("g", &gv).filter_int_range("k", lo, 5);
        prop_assert_eq!(a.indices(), b.indices());
    }

    /// Sum distributes over the groups of any partition.
    #[test]
    fn sum_distributes_over_groups(t in arb_table()) {
        let q = t.query();
        let total = q.sum("x");
        let by_group: f64 = q.group_by("g").iter().map(|(_, g)| g.sum("x")).sum();
        prop_assert!((total - by_group).abs() < 1e-6 * (1.0 + total.abs()));
    }

    /// Aggregates stay within the data's bounds.
    #[test]
    fn aggregate_bounds(t in arb_table()) {
        let q = t.query();
        let xs = q.floats("x");
        if !xs.is_empty() {
            let mn = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let mx = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(q.mean("x") >= mn - 1e-9 && q.mean("x") <= mx + 1e-9);
            prop_assert!(q.median("x") >= mn - 1e-9 && q.median("x") <= mx + 1e-9);
            prop_assert_eq!(q.min("x"), mn);
            prop_assert_eq!(q.max("x"), mx);
        }
    }

    /// `top_groups_by_count` returns groups in non-increasing size order and
    /// never more than requested.
    #[test]
    fn top_groups_ordered(t in arb_table(), n in 0usize..6) {
        let q = t.query();
        let top = q.top_groups_by_count("g", n);
        prop_assert!(top.len() <= n);
        prop_assert!(top.windows(2).all(|w| w[0].1.count() >= w[1].1.count()));
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
    /// The fallible aggregates never panic and never leak NaN: on empty,
    /// all-null or corrupt-bearing columns they return a typed empty
    /// (`Ok(None)`) or a finite value — never `Err`, never a poisoned
    /// number.
    #[test]
    fn try_aggregates_are_panic_free_and_nan_free(t in arb_dirty_table()) {
        let q = t.query();
        let (finite, dropped) = q.finite_floats("x").unwrap();
        let non_null = q.try_floats("x").unwrap().len();
        prop_assert_eq!(finite.len() + dropped, non_null, "finite/dropped split loses rows");
        prop_assert!(finite.iter().all(|v| v.is_finite()));

        for (val, needs) in [
            (q.try_mean("x").unwrap(), 1),
            (q.try_median("x").unwrap(), 1),
            (q.try_std_dev("x").unwrap(), 2),
            (q.try_min("x").unwrap(), 1),
            (q.try_max("x").unwrap(), 1),
        ] {
            if finite.len() >= needs {
                let v = val.expect("enough finite values for an aggregate");
                prop_assert!(v.is_finite(), "aggregate leaked non-finite {v}");
            } else {
                prop_assert!(val.is_none(), "typed empty expected, got {val:?}");
            }
        }
        let s = q.try_sum("x").unwrap();
        prop_assert!(s.is_finite(), "sum leaked non-finite {s}");
    }

    /// Schema drift is an error value, not a panic: every fallible entry
    /// point rejects an unknown column with `Err`.
    #[test]
    fn unknown_columns_error_instead_of_panicking(t in arb_dirty_table()) {
        let q = t.query();
        prop_assert!(q.try_floats("nope").is_err());
        prop_assert!(q.finite_floats("nope").is_err());
        prop_assert!(q.try_mean("nope").is_err());
        prop_assert!(q.try_median("nope").is_err());
        prop_assert!(q.try_std_dev("nope").is_err());
        prop_assert!(q.try_min("nope").is_err());
        prop_assert!(q.try_max("nope").is_err());
        prop_assert!(q.try_sum("nope").is_err());
        prop_assert!(t.try_col_index("nope").is_err());
        prop_assert!(t.query().try_filter_not_null("nope").is_err());
    }

    /// The infallible aggregates tolerate dirty columns too (`total_cmp`
    /// sorting): they may return NaN but must not panic.
    #[test]
    fn legacy_aggregates_do_not_panic_on_dirty_columns(t in arb_dirty_table()) {
        let q = t.query();
        let _ = q.mean("x");
        let _ = q.median("x");
        let _ = q.std_dev("x");
        let _ = q.min("x");
        let _ = q.max("x");
        let _ = q.sum("x");
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
    /// answer filter/group/distinct queries identically — including the
    /// all-null column (empty dictionary) and absent-needle cases.
    #[test]
    fn dict_table_query_equivalence(
        rows in word_rows(),
        needle in 0usize..NEEDLES.len(),
    ) {
        let (plain, dict) = twin_tables(&rows);
        prop_assert_eq!(&plain, &dict);

        let needle = Value::from(NEEDLES[needle]);
        let p = plain.query().filter_eq("s", &needle);
        let d = dict.query().filter_eq("s", &needle);
        prop_assert_eq!(p.indices(), d.indices());
        prop_assert_eq!(p.floats("v"), d.floats("v"));

        // Null needles never match on either representation.
        prop_assert_eq!(plain.query().filter_eq("s", &Value::Null).count(), 0);
        prop_assert_eq!(dict.query().filter_eq("s", &Value::Null).count(), 0);

        let pg = plain.query().group_by("s");
        let dg = dict.query().group_by("s");
        prop_assert_eq!(pg.len(), dg.len());
        for ((pk, pq), (dk, dq)) in pg.iter().zip(dg.iter()) {
            prop_assert_eq!(pk, dk);
            prop_assert_eq!(pq.indices(), dq.indices());
        }
        prop_assert_eq!(plain.query().distinct("s"), dict.query().distinct("s"));
    }
}
