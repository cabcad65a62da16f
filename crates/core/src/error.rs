//! The analysis crate's error type.
//!
//! Every `compute()` in this crate returns `Result<_, AnalysisError>`. The
//! unified table's schema is fixed in code, so no read of it can fail;
//! what remains is input a method cannot work with at all (no
//! second-country digest for the A/B table, an unknown stage name).
//! Partial degradation — missing days, corrupt cells, lost sidecars —
//! flows through the whole pipeline and comes out annotated in a
//! [`crate::coverage::Coverage`] rather than as an error.

use std::fmt;

/// A data-dependent analysis failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// A computation's input was degenerate beyond recovery (e.g. the A/B
    /// table without a second-country digest). Partial degradation does
    /// *not* produce this:
    /// it yields a result with [`crate::coverage::Coverage`] annotations.
    Degenerate {
        /// Which computation gave up.
        what: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Degenerate { what } => {
                write!(f, "degenerate input: {what}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_is_descriptive() {
        let e = AnalysisError::Degenerate { what: "empty study window".into() };
        assert!(e.to_string().contains("empty study window"));
    }
}
