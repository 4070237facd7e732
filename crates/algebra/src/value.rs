//! Scalar and set-valued attribute values.

use std::collections::BTreeSet;
use std::fmt;

/// A single attribute value.
///
/// The paper's examples use small integers (`a = 1`, `b = 3`) and strings
/// (`color = 'blue'`). The set containment join of Section 2.2 additionally
/// requires *set-valued* attributes (`b1 = {1, 4}`), so a nested set variant is
/// provided as well.
///
/// `Value` has a total order across variants (by variant tag first, then by
/// payload) so relations can be kept in ordered sets, giving deterministic
/// iteration order and cheap duplicate elimination — both properties the
/// reference operator implementations rely on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// The SQL-style NULL. No operator produces it: it enters only with a
    /// relation's data.
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 string.
    Str(Box<str>),
    /// A set of values (used only by the set containment join, whose inputs
    /// are not in first normal form).
    Set(BTreeSet<Value>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<Box<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Build a set value from anything iterable.
    pub fn set<I, V>(items: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Value::Set(items.into_iter().map(Into::into).collect())
    }

    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `true` when both values are of the same variant, which is the weak
    /// notion of type compatibility used by predicate evaluation.
    pub fn same_kind(&self, other: &Value) -> bool {
        std::mem::discriminant(self) == std::mem::discriminant(other)
    }

    /// A short name of the variant, used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Str(_) => "string",
            Value::Set(_) => "set",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into_boxed_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_produce_expected_variants() {
        assert_eq!(Value::from(3), Value::Int(3));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("blue"), Value::Str("blue".into()));
        assert_eq!(Value::from("blue".to_string()), Value::Str("blue".into()));
    }

    #[test]
    fn accessors_return_payloads() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_str(), None);
        assert_eq!(Value::str("x").as_str(), Some("x"));
    }

    #[test]
    fn ordering_is_total_across_variants() {
        let mut values = vec![
            Value::str("z"),
            Value::Int(10),
            Value::Bool(false),
            Value::Int(-5),
            Value::str("a"),
        ];
        values.sort();
        // Bool < Int < Str by variant order, then payload order within.
        assert_eq!(
            values,
            vec![
                Value::Bool(false),
                Value::Int(-5),
                Value::Int(10),
                Value::str("a"),
                Value::str("z"),
            ]
        );
    }

    #[test]
    fn set_values_compare_by_contents() {
        let a = Value::set([1, 2]);
        let b = Value::set([2, 1]);
        assert_eq!(a, b);
        let c = Value::set([1, 2, 3]);
        assert_ne!(a, c);
    }

    #[test]
    fn display_formats_match_paper_style() {
        assert_eq!(Value::Int(4).to_string(), "4");
        assert_eq!(Value::str("blue").to_string(), "blue");
        assert_eq!(Value::set([1, 4]).to_string(), "{1, 4}");
    }

    #[test]
    fn same_kind_distinguishes_variants() {
        assert!(Value::Int(1).same_kind(&Value::Int(2)));
        assert!(!Value::Int(1).same_kind(&Value::str("1")));
        assert_eq!(Value::set([1]).kind_name(), "set");
    }
}
