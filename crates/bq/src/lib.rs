//! # ndt-bq
//!
//! A small in-memory columnar analytic store, standing in for Google
//! BigQuery in the `ukraine-ndt` reproduction of *"The Ukrainian Internet
//! Under Attack: an NDT Perspective"* (IMC '22).
//!
//! The paper's methodology reads two BigQuery tables —
//! `ndt.unified_download` and `ndt.scamper1` — and reduces them with
//! filters, group-bys and aggregates. This crate provides exactly that
//! surface so the analysis code in `ndt-analysis` reads like the paper's
//! method section instead of ad-hoc loops:
//!
//! ```
//! use ndt_bq::{ColType, Table, Value};
//!
//! let mut t = Table::new("ndt.unified_download", &[
//!     ("day", ColType::Int),
//!     ("oblast", ColType::Str),
//!     ("tput", ColType::Float),
//! ]);
//! t.push(vec![Value::Int(419), Value::from("Kiev City"), Value::Float(50.6)]);
//! t.push(vec![Value::Int(419), Value::from("L'viv"), Value::Float(37.2)]);
//!
//! let kyiv_mean = t.query()
//!     .filter_eq("oblast", &Value::from("Kiev City"))
//!     .mean("tput");
//! assert!((kyiv_mean - 50.6).abs() < 1e-9);
//! ```
//!
//! Tables are typed, columns are nullable, and queries are index sets over a
//! base table — cheap to fork, group and intersect. Aggregates cover what
//! the paper uses (count, sum, mean, median, std, min, max); anything more
//! sophisticated (Welch's t-test, histograms) consumes extracted vectors via
//! `ndt-stats`.

pub mod error;
pub mod query;
pub mod table;
pub mod value;

pub use error::BqError;
pub use query::Query;
pub use table::{ColType, Column, DictColumn, Table, NULL_CODE};
pub use value::Value;
