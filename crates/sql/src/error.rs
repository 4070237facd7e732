//! The unified error type of the [`Engine`](crate::Engine) API.
//!
//! The pre-`Engine` free functions collapsed every failure into
//! [`ExprError`] — most destructively a [`ParseError`], which was flattened
//! into `ExprError::invalid(err.to_string())`, losing the structured source.
//! [`Error`] keeps each pipeline stage's error as its own variant with
//! `std::error::Error::source` chaining, so callers can match on *what*
//! failed instead of grepping substrings.

use crate::parser::ParseError;
use div_expr::ExprError;
use std::fmt;

/// Any failure of the [`Engine`](crate::Engine) pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The SQL text did not parse. The source [`ParseError`] is preserved.
    Parse(ParseError),
    /// Translation, optimization or execution failed.
    Plan(ExprError),
    /// The statement uses a `$parameter` for which no value was bound.
    UnboundParameter {
        /// Name of the unbound parameter (without the `$` sigil).
        parameter: String,
    },
    /// A value was bound for a parameter the statement does not use
    /// (almost always a typo in the binding name).
    UnknownParameter {
        /// The offending binding name.
        parameter: String,
        /// The parameters the statement actually declares.
        expected: Vec<String>,
    },
    /// A [`PreparedStatement`](crate::PreparedStatement) was executed against
    /// a catalog that changed after the statement was prepared; the cached
    /// plan may be stale (dropped tables, changed schemas, new constraints).
    StalePlan {
        /// Catalog version the statement was prepared against.
        prepared_version: u64,
        /// Current catalog version.
        catalog_version: u64,
    },
    /// The query's cancellation token was tripped
    /// (see [`CancelToken`](crate::CancelToken)).
    Cancelled {
        /// Operator span that observed the cancellation.
        operator: String,
    },
    /// The query ran past its wall-clock deadline.
    DeadlineExceeded {
        /// Operator span that observed the expiry.
        operator: String,
        /// The configured deadline, in milliseconds.
        limit_ms: u64,
    },
    /// The query's resident-row footprint exceeded its memory budget.
    MemoryBudget {
        /// Operator span whose emission tripped the budget.
        operator: String,
        /// The configured budget, in resident rows.
        budget_rows: usize,
        /// The resident footprint that tripped it.
        resident_rows: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(err) => write!(f, "{err}"),
            Error::Plan(err) => write!(f, "{err}"),
            Error::UnboundParameter { parameter } => {
                write!(f, "parameter `${parameter}` has no bound value")
            }
            Error::UnknownParameter {
                parameter,
                expected,
            } => {
                if expected.is_empty() {
                    write!(
                        f,
                        "binding `${parameter}` does not match any statement parameter \
                         (the statement has none)"
                    )
                } else {
                    write!(
                        f,
                        "binding `${parameter}` does not match any statement parameter \
                         (expected one of: {})",
                        expected
                            .iter()
                            .map(|p| format!("${p}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                }
            }
            Error::StalePlan {
                prepared_version,
                catalog_version,
            } => write!(
                f,
                "prepared statement is stale: compiled against catalog version \
                 {prepared_version}, but the catalog is now at version {catalog_version}; \
                 prepare the statement again"
            ),
            Error::Cancelled { operator } => {
                write!(f, "query cancelled (at operator {operator})")
            }
            Error::DeadlineExceeded { operator, limit_ms } => {
                write!(
                    f,
                    "deadline of {limit_ms}ms exceeded (at operator {operator})"
                )
            }
            Error::MemoryBudget {
                operator,
                budget_rows,
                resident_rows,
            } => write!(
                f,
                "memory budget of {budget_rows} resident rows exceeded \
                 ({resident_rows} resident, at operator {operator})"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Parse(err) => Some(err),
            Error::Plan(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ParseError> for Error {
    fn from(err: ParseError) -> Self {
        Error::Parse(err)
    }
}

impl From<ExprError> for Error {
    fn from(err: ExprError) -> Self {
        // The governance trips are lifecycle outcomes, not plan failures —
        // they keep their own variants so servers can map them to typed
        // wire codes without string matching.
        match err {
            ExprError::Cancelled { operator } => Error::Cancelled { operator },
            ExprError::DeadlineExceeded { operator, limit_ms } => {
                Error::DeadlineExceeded { operator, limit_ms }
            }
            ExprError::MemoryBudget {
                operator,
                budget_rows,
                resident_rows,
            } => Error::MemoryBudget {
                operator,
                budget_rows,
                resident_rows,
            },
            other => Error::Plan(other),
        }
    }
}

impl From<div_algebra::AlgebraError> for Error {
    fn from(err: div_algebra::AlgebraError) -> Self {
        Error::Plan(ExprError::from(err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn parse_errors_keep_their_source() {
        let parse_err = crate::parse_query("SELECT FROM WHERE").unwrap_err();
        let err: Error = parse_err.clone().into();
        // The variant survives — no stringification.
        assert_eq!(err, Error::Parse(parse_err.clone()));
        // And the source chain points at the original ParseError.
        let source = err.source().expect("parse errors chain their source");
        assert_eq!(source.to_string(), parse_err.to_string());
        assert!(source.downcast_ref::<ParseError>().is_some());
    }

    #[test]
    fn plan_errors_keep_their_source() {
        let expr_err = ExprError::UnknownTable {
            table: "missing".into(),
        };
        let err: Error = expr_err.clone().into();
        assert_eq!(err, Error::Plan(expr_err));
        assert!(err.source().unwrap().downcast_ref::<ExprError>().is_some());
    }

    #[test]
    fn parameter_and_staleness_errors_render_context() {
        let err = Error::UnboundParameter {
            parameter: "color".into(),
        };
        assert!(err.to_string().contains("$color"));
        let err = Error::UnknownParameter {
            parameter: "colour".into(),
            expected: vec!["color".into()],
        };
        assert!(err.to_string().contains("$colour"));
        assert!(err.to_string().contains("$color"));
        let err = Error::StalePlan {
            prepared_version: 3,
            catalog_version: 5,
        };
        assert!(err.to_string().contains('3'));
        assert!(err.to_string().contains('5'));
        assert!(err.source().is_none());
    }

    #[test]
    fn governance_trips_convert_to_their_own_variants() {
        let err: Error = ExprError::Cancelled {
            operator: "Filter(x)".into(),
        }
        .into();
        assert_eq!(
            err,
            Error::Cancelled {
                operator: "Filter(x)".into()
            }
        );
        let err: Error = ExprError::DeadlineExceeded {
            operator: "CrossProduct".into(),
            limit_ms: 50,
        }
        .into();
        assert!(matches!(err, Error::DeadlineExceeded { limit_ms: 50, .. }));
        assert!(err.to_string().contains("50ms"));
        let err: Error = ExprError::MemoryBudget {
            operator: "Union".into(),
            budget_rows: 10,
            resident_rows: 25,
        }
        .into();
        assert!(matches!(
            err,
            Error::MemoryBudget {
                budget_rows: 10,
                resident_rows: 25,
                ..
            }
        ));
    }
}
