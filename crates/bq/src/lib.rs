//! # ndt-bq
//!
//! A small in-memory columnar table, standing in for Google BigQuery in
//! the `ukraine-ndt` reproduction of *"The Ukrainian Internet Under
//! Attack: an NDT Perspective"* (IMC '22).
//!
//! The paper's methodology reads two BigQuery tables —
//! `ndt.unified_download` and `ndt.scamper1` — and reduces them once per
//! table or figure. The §4 analyses in `ndt-analysis` select the rows of a
//! study period, city or oblast with this crate's filters, read metric
//! columns out as vectors, and reduce those vectors themselves (means,
//! Welch's t-tests and histograms come from `ndt-stats`):
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
//! let kyiv = t.query().try_filter_eq("oblast", &Value::from("Kiev City"))?;
//! assert_eq!(kyiv.try_floats("tput")?, vec![50.6]);
//! # Ok::<(), ndt_bq::BqError>(())
//! ```
//!
//! Tables are typed, columns are nullable, and queries are index sets over
//! a base table, cheap to fork and narrow. Every operation that can fail
//! on data — an unknown column, a mistyped cell — returns a [`BqError`].

pub mod error;
pub mod query;
pub mod table;
pub mod value;

pub use error::BqError;
pub use query::Query;
pub use table::{ColType, Column, DictColumn, Table, NULL_CODE};
pub use value::Value;
