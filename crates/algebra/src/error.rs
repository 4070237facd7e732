//! Error type shared by all algebra operations.

use std::fmt;

/// Errors raised by relational algebra operations.
///
/// All operators validate their schema preconditions (the paper states them as
/// side conditions on the relation schemas, e.g. "A and B are nonempty disjoint
/// sets of attributes") and report violations through this type rather than
/// panicking, so that the optimizer can probe applicability safely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// Two relations that must be union-compatible (same schema) are not.
    SchemaMismatch {
        /// Schema of the left operand, rendered as `(a, b, c)`.
        left: String,
        /// Schema of the right operand.
        right: String,
        /// The operation that was attempted.
        operation: &'static str,
    },
    /// An attribute referenced by an operation does not exist in the schema.
    UnknownAttribute {
        /// The attribute that was requested.
        attribute: String,
        /// The schema it was looked up in.
        schema: String,
    },
    /// An attribute name occurs twice where uniqueness is required
    /// (e.g. the concatenated schema of a Cartesian product).
    DuplicateAttribute {
        /// The offending attribute name.
        attribute: String,
        /// The operation that was attempted.
        operation: &'static str,
    },
    /// A tuple's arity does not match its relation's schema.
    ArityMismatch {
        /// Number of attributes in the schema.
        expected: usize,
        /// Number of values in the offending tuple.
        actual: usize,
    },
    /// The schema precondition of a division operator is violated
    /// (e.g. the divisor attributes are not a proper subset of the dividend
    /// attributes, or the quotient attribute set `A` would be empty).
    InvalidDivision {
        /// Human-readable description of the violated precondition.
        reason: String,
    },
    /// An aggregate function was applied to values it cannot handle
    /// (e.g. `SUM` over strings).
    InvalidAggregate {
        /// Human-readable description.
        reason: String,
    },
    /// A predicate compared incompatible values or referenced a set-valued
    /// attribute where a scalar was required.
    TypeError {
        /// Human-readable description.
        reason: String,
    },
    /// A predicate containing a `$name` parameter placeholder was evaluated
    /// before the parameter was bound to a concrete value.
    UnboundParameter {
        /// Name of the unbound parameter (without the `$` sigil).
        parameter: String,
    },
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::SchemaMismatch {
                left,
                right,
                operation,
            } => write!(
                f,
                "schema mismatch in {operation}: left schema {left} is not compatible with right schema {right}"
            ),
            AlgebraError::UnknownAttribute { attribute, schema } => {
                write!(f, "unknown attribute `{attribute}` in schema {schema}")
            }
            AlgebraError::DuplicateAttribute {
                attribute,
                operation,
            } => write!(
                f,
                "duplicate attribute `{attribute}` produced by {operation}; rename one operand first"
            ),
            AlgebraError::ArityMismatch { expected, actual } => write!(
                f,
                "tuple arity {actual} does not match schema arity {expected}"
            ),
            AlgebraError::InvalidDivision { reason } => {
                write!(f, "invalid division: {reason}")
            }
            AlgebraError::InvalidAggregate { reason } => {
                write!(f, "invalid aggregate: {reason}")
            }
            AlgebraError::TypeError { reason } => write!(f, "type error: {reason}"),
            AlgebraError::UnboundParameter { parameter } => write!(
                f,
                "unbound parameter `${parameter}`: bind a value before evaluating the predicate"
            ),
        }
    }
}

impl std::error::Error for AlgebraError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_operation_and_schemas() {
        let err = AlgebraError::SchemaMismatch {
            left: "(a, b)".into(),
            right: "(b)".into(),
            operation: "union",
        };
        let msg = err.to_string();
        assert!(msg.contains("union"));
        assert!(msg.contains("(a, b)"));
        assert!(msg.contains("(b)"));
    }

    #[test]
    fn display_unknown_attribute() {
        let err = AlgebraError::UnknownAttribute {
            attribute: "color".into(),
            schema: "(s#, p#)".into(),
        };
        assert!(err.to_string().contains("color"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        let err = AlgebraError::ArityMismatch {
            expected: 3,
            actual: 2,
        };
        assert_error(&err);
    }
}
