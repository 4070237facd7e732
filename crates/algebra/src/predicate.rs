//! Selection predicates over tuples.
//!
//! The laws of the paper talk about predicates `p(X)` that "involve only
//! elements of a set of attributes X" (e.g. `p(A)` for Law 3, `p(B)` for
//! Law 4). [`Predicate::referenced_attributes`] exposes exactly that set so the
//! rewrite rules can check the side condition, and [`Predicate::negate`] gives
//! the `¬p(B)` needed by Example 1.

use crate::{AlgebraError, Result, Schema, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Comparison operators usable in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CompareOp {
    /// Evaluate the comparison on two values.
    ///
    /// # Errors
    ///
    /// Returns a [`AlgebraError::TypeError`] when the values are of different
    /// kinds (comparing an int to a string) — the paper's examples never rely
    /// on cross-type ordering, so we treat it as a query error.
    pub fn eval(&self, left: &Value, right: &Value) -> Result<bool> {
        if !left.same_kind(right) {
            return Err(AlgebraError::TypeError {
                reason: format!(
                    "cannot compare {} value `{left}` with {} value `{right}`",
                    left.kind_name(),
                    right.kind_name()
                ),
            });
        }
        Ok(match self {
            CompareOp::Eq => left == right,
            CompareOp::NotEq => left != right,
            CompareOp::Lt => left < right,
            CompareOp::LtEq => left <= right,
            CompareOp::Gt => left > right,
            CompareOp::GtEq => left >= right,
        })
    }

    /// The logical negation of this comparison (`<` becomes `>=`, …).
    pub fn negate(&self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::NotEq,
            CompareOp::NotEq => CompareOp::Eq,
            CompareOp::Lt => CompareOp::GtEq,
            CompareOp::LtEq => CompareOp::Gt,
            CompareOp::Gt => CompareOp::LtEq,
            CompareOp::GtEq => CompareOp::Lt,
        }
    }

    /// The comparison with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(&self) -> CompareOp {
        match self {
            CompareOp::Eq => CompareOp::Eq,
            CompareOp::NotEq => CompareOp::NotEq,
            CompareOp::Lt => CompareOp::Gt,
            CompareOp::LtEq => CompareOp::GtEq,
            CompareOp::Gt => CompareOp::Lt,
            CompareOp::GtEq => CompareOp::LtEq,
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::NotEq => "<>",
            CompareOp::Lt => "<",
            CompareOp::LtEq => "<=",
            CompareOp::Gt => ">",
            CompareOp::GtEq => ">=",
        };
        write!(f, "{s}")
    }
}

/// A boolean predicate over the tuples of one relation (or, for theta-joins,
/// over the concatenated tuple of two relations).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Always true (`⋈_true ≡ ×`, used by Law 8's discussion).
    True,
    /// Always false.
    False,
    /// Compare an attribute with a constant.
    CompareValue {
        /// Attribute name.
        attribute: String,
        /// Comparison operator.
        op: CompareOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Compare two attributes of the (possibly concatenated) schema.
    CompareAttributes {
        /// Left attribute name.
        left: String,
        /// Comparison operator.
        op: CompareOp,
        /// Right attribute name.
        right: String,
    },
    /// Compare an attribute with a named `$parameter` placeholder.
    ///
    /// Placeholders come from prepared SQL statements: the plan is compiled
    /// and optimized once with the placeholder in place, then
    /// [`Predicate::bind_parameters`] substitutes a concrete value before
    /// every execution. Evaluating an unbound placeholder is an
    /// [`AlgebraError::UnboundParameter`] error.
    CompareParameter {
        /// Attribute name.
        attribute: String,
        /// Comparison operator.
        op: CompareOp,
        /// Parameter name (without the `$` sigil).
        parameter: String,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `attribute op constant`.
    pub fn cmp_value(attribute: impl Into<String>, op: CompareOp, value: impl Into<Value>) -> Self {
        Predicate::CompareValue {
            attribute: attribute.into(),
            op,
            value: value.into(),
        }
    }

    /// `attribute = constant`.
    pub fn eq_value(attribute: impl Into<String>, value: impl Into<Value>) -> Self {
        Self::cmp_value(attribute, CompareOp::Eq, value)
    }

    /// `left op right` over two attributes.
    pub fn cmp_attrs(left: impl Into<String>, op: CompareOp, right: impl Into<String>) -> Self {
        Predicate::CompareAttributes {
            left: left.into(),
            op,
            right: right.into(),
        }
    }

    /// `left = right` over two attributes (an equi-join condition).
    pub fn eq_attrs(left: impl Into<String>, right: impl Into<String>) -> Self {
        Self::cmp_attrs(left, CompareOp::Eq, right)
    }

    /// `attribute op $parameter` — a placeholder bound later via
    /// [`Predicate::bind_parameters`].
    pub fn cmp_param(
        attribute: impl Into<String>,
        op: CompareOp,
        parameter: impl Into<String>,
    ) -> Self {
        Predicate::CompareParameter {
            attribute: attribute.into(),
            op,
            parameter: parameter.into(),
        }
    }

    /// Conjunction of two predicates.
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction of two predicates.
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Logical negation (`¬p`), pushed through comparisons where possible so
    /// `¬(b < 3)` prints as `b >= 3` like the paper's `σ_{b≥3}`.
    pub fn negate(&self) -> Predicate {
        match self {
            Predicate::True => Predicate::False,
            Predicate::False => Predicate::True,
            Predicate::CompareValue {
                attribute,
                op,
                value,
            } => Predicate::CompareValue {
                attribute: attribute.clone(),
                op: op.negate(),
                value: value.clone(),
            },
            Predicate::CompareAttributes { left, op, right } => Predicate::CompareAttributes {
                left: left.clone(),
                op: op.negate(),
                right: right.clone(),
            },
            Predicate::CompareParameter {
                attribute,
                op,
                parameter,
            } => Predicate::CompareParameter {
                attribute: attribute.clone(),
                op: op.negate(),
                parameter: parameter.clone(),
            },
            Predicate::Not(inner) => (**inner).clone(),
            // De Morgan, keeping the tree small.
            Predicate::And(l, r) => Predicate::Or(Box::new(l.negate()), Box::new(r.negate())),
            Predicate::Or(l, r) => Predicate::And(Box::new(l.negate()), Box::new(r.negate())),
        }
    }

    /// Conjoin a list of predicates (`True` when the list is empty).
    pub fn all<I: IntoIterator<Item = Predicate>>(preds: I) -> Predicate {
        let mut iter = preds.into_iter();
        match iter.next() {
            None => Predicate::True,
            Some(first) => iter.fold(first, |acc, p| acc.and(p)),
        }
    }

    /// Evaluate the predicate on `tuple` laid out according to `schema`.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::False => Ok(false),
            Predicate::CompareValue {
                attribute,
                op,
                value,
            } => {
                let idx = schema.require(attribute)?;
                op.eval(&tuple.values()[idx], value)
            }
            Predicate::CompareAttributes { left, op, right } => {
                let li = schema.require(left)?;
                let ri = schema.require(right)?;
                op.eval(&tuple.values()[li], &tuple.values()[ri])
            }
            Predicate::CompareParameter { parameter, .. } => Err(AlgebraError::UnboundParameter {
                parameter: parameter.clone(),
            }),
            Predicate::And(l, r) => Ok(l.eval(schema, tuple)? && r.eval(schema, tuple)?),
            Predicate::Or(l, r) => Ok(l.eval(schema, tuple)? || r.eval(schema, tuple)?),
            Predicate::Not(inner) => Ok(!inner.eval(schema, tuple)?),
        }
    }

    /// The set of attribute names the predicate mentions.
    ///
    /// The rewrite rules use this to decide whether a predicate is a `p(A)`
    /// (only quotient attributes), a `p(B)` (only divisor attributes), or
    /// neither.
    pub fn referenced_attributes(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.all_attributes(&mut |attr| {
            out.insert(attr.to_string());
            true
        });
        out
    }

    /// `true` when `holds` is true of every attribute reference (in
    /// predicate order, stopping at the first it is false of) — a check
    /// that allocates nothing.
    pub fn all_attributes(&self, holds: &mut impl FnMut(&str) -> bool) -> bool {
        match self {
            Predicate::True | Predicate::False => true,
            Predicate::CompareValue { attribute, .. }
            | Predicate::CompareParameter { attribute, .. } => holds(attribute),
            Predicate::CompareAttributes { left, right, .. } => holds(left) && holds(right),
            Predicate::And(l, r) | Predicate::Or(l, r) => {
                l.all_attributes(holds) && r.all_attributes(holds)
            }
            Predicate::Not(inner) => inner.all_attributes(holds),
        }
    }

    /// `true` when every attribute referenced by this predicate is contained in
    /// `attributes` — i.e. this predicate is a `p(X)` for `X = attributes`.
    pub fn only_references(&self, attributes: &[&str]) -> bool {
        self.all_attributes(&mut |attr| attributes.contains(&attr))
    }

    /// Rewrite every attribute reference through `f` (used when plans rename
    /// attributes, e.g. to qualify join inputs).
    pub fn map_attributes(&self, f: &impl Fn(&str) -> String) -> Predicate {
        match self {
            Predicate::True => Predicate::True,
            Predicate::False => Predicate::False,
            Predicate::CompareValue {
                attribute,
                op,
                value,
            } => Predicate::CompareValue {
                attribute: f(attribute),
                op: *op,
                value: value.clone(),
            },
            Predicate::CompareAttributes { left, op, right } => Predicate::CompareAttributes {
                left: f(left),
                op: *op,
                right: f(right),
            },
            Predicate::CompareParameter {
                attribute,
                op,
                parameter,
            } => Predicate::CompareParameter {
                attribute: f(attribute),
                op: *op,
                parameter: parameter.clone(),
            },
            Predicate::And(l, r) => {
                Predicate::And(Box::new(l.map_attributes(f)), Box::new(r.map_attributes(f)))
            }
            Predicate::Or(l, r) => {
                Predicate::Or(Box::new(l.map_attributes(f)), Box::new(r.map_attributes(f)))
            }
            Predicate::Not(inner) => Predicate::Not(Box::new(inner.map_attributes(f))),
        }
    }

    /// Split a conjunction into its conjuncts (a single non-`And` predicate
    /// yields itself). Useful for detecting "conjunction of equi-joins" as
    /// required by the small-divide detection rule of Section 4.
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        match self {
            Predicate::And(l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// The set of `$parameter` names this predicate still needs bound.
    pub fn parameters(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_parameters(&mut out);
        out
    }

    fn collect_parameters(&self, out: &mut BTreeSet<String>) {
        match self {
            Predicate::True
            | Predicate::False
            | Predicate::CompareValue { .. }
            | Predicate::CompareAttributes { .. } => {}
            Predicate::CompareParameter { parameter, .. } => {
                out.insert(parameter.clone());
            }
            Predicate::And(l, r) | Predicate::Or(l, r) => {
                l.collect_parameters(out);
                r.collect_parameters(out);
            }
            Predicate::Not(inner) => inner.collect_parameters(out),
        }
    }

    /// `true` when the predicate contains at least one unbound `$parameter`.
    pub fn has_parameters(&self) -> bool {
        match self {
            Predicate::True
            | Predicate::False
            | Predicate::CompareValue { .. }
            | Predicate::CompareAttributes { .. } => false,
            Predicate::CompareParameter { .. } => true,
            Predicate::And(l, r) | Predicate::Or(l, r) => l.has_parameters() || r.has_parameters(),
            Predicate::Not(inner) => inner.has_parameters(),
        }
    }

    /// Substitute every `$parameter` placeholder whose name appears in
    /// `bindings` with the bound constant, turning it into an ordinary
    /// [`Predicate::CompareValue`]. Placeholders without a binding are left
    /// in place (the caller decides whether that is an error).
    pub fn bind_parameters(&self, bindings: &BTreeMap<String, Value>) -> Predicate {
        match self {
            Predicate::True => Predicate::True,
            Predicate::False => Predicate::False,
            Predicate::CompareValue { .. } | Predicate::CompareAttributes { .. } => self.clone(),
            Predicate::CompareParameter {
                attribute,
                op,
                parameter,
            } => match bindings.get(parameter) {
                Some(value) => Predicate::CompareValue {
                    attribute: attribute.clone(),
                    op: *op,
                    value: value.clone(),
                },
                None => self.clone(),
            },
            Predicate::And(l, r) => Predicate::And(
                Box::new(l.bind_parameters(bindings)),
                Box::new(r.bind_parameters(bindings)),
            ),
            Predicate::Or(l, r) => Predicate::Or(
                Box::new(l.bind_parameters(bindings)),
                Box::new(r.bind_parameters(bindings)),
            ),
            Predicate::Not(inner) => Predicate::Not(Box::new(inner.bind_parameters(bindings))),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::CompareValue {
                attribute,
                op,
                value,
            } => write!(f, "{attribute} {op} {value}"),
            Predicate::CompareAttributes { left, op, right } => {
                write!(f, "{left} {op} {right}")
            }
            Predicate::CompareParameter {
                attribute,
                op,
                parameter,
            } => write!(f, "{attribute} {op} ${parameter}"),
            Predicate::And(l, r) => write!(f, "({l} AND {r})"),
            Predicate::Or(l, r) => write!(f, "({l} OR {r})"),
            Predicate::Not(inner) => write!(f, "NOT ({inner})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn schema() -> Schema {
        Schema::of(["a", "b", "c"])
    }

    #[test]
    fn compare_ops_evaluate() {
        assert!(CompareOp::Lt.eval(&Value::Int(1), &Value::Int(2)).unwrap());
        assert!(!CompareOp::Eq.eval(&Value::Int(1), &Value::Int(2)).unwrap());
        assert!(CompareOp::GtEq
            .eval(&Value::str("b"), &Value::str("a"))
            .unwrap());
        assert!(CompareOp::Eq
            .eval(&Value::Int(1), &Value::str("1"))
            .is_err());
    }

    #[test]
    fn negate_and_flip_are_involutions_on_truth() {
        for op in [
            CompareOp::Eq,
            CompareOp::NotEq,
            CompareOp::Lt,
            CompareOp::LtEq,
            CompareOp::Gt,
            CompareOp::GtEq,
        ] {
            for (l, r) in [(1, 2), (2, 2), (3, 2)] {
                let l = Value::Int(l);
                let r = Value::Int(r);
                let direct = op.eval(&l, &r).unwrap();
                assert_eq!(op.negate().eval(&l, &r).unwrap(), !direct);
                assert_eq!(op.flip().eval(&r, &l).unwrap(), direct);
            }
        }
    }

    #[test]
    fn predicate_eval_on_tuple() {
        let s = schema();
        let t = Tuple::new([1, 5, 3]);
        assert!(Predicate::cmp_value("b", CompareOp::Lt, 10)
            .eval(&s, &t)
            .unwrap());
        assert!(!Predicate::eq_value("a", 2).eval(&s, &t).unwrap());
        assert!(Predicate::cmp_attrs("a", CompareOp::Lt, "c")
            .eval(&s, &t)
            .unwrap());
        let p = Predicate::eq_value("a", 1).and(Predicate::cmp_value("b", CompareOp::Gt, 4));
        assert!(p.eval(&s, &t).unwrap());
        assert!(p.negate().eval(&s, &t).map(|v| !v).unwrap());
        assert!(Predicate::True.eval(&s, &t).unwrap());
        assert!(!Predicate::False.eval(&s, &t).unwrap());
    }

    #[test]
    fn unknown_attribute_is_an_error() {
        let s = schema();
        let t = Tuple::new([1, 2, 3]);
        assert!(Predicate::eq_value("zz", 0).eval(&s, &t).is_err());
    }

    #[test]
    fn referenced_attributes_and_only_references() {
        let p = Predicate::eq_value("a", 1).and(Predicate::cmp_attrs("b", CompareOp::Lt, "c"));
        let attrs = p.referenced_attributes();
        assert_eq!(attrs.len(), 3);
        assert!(p.only_references(&["a", "b", "c", "d"]));
        assert!(!p.only_references(&["a", "b"]));
    }

    #[test]
    fn negation_pushes_through_comparisons() {
        // σ_{b<3} negated is σ_{b>=3}, as used in Example 1 / Figure 6.
        let p = Predicate::cmp_value("b", CompareOp::Lt, 3);
        assert_eq!(p.negate(), Predicate::cmp_value("b", CompareOp::GtEq, 3));
        // Double negation returns the original.
        assert_eq!(p.negate().negate(), p);
    }

    #[test]
    fn de_morgan_on_conjunction() {
        let p = Predicate::eq_value("a", 1).and(Predicate::eq_value("b", 2));
        let n = p.negate();
        let s = schema();
        for row in [[1, 2, 0], [1, 3, 0], [9, 2, 0], [9, 9, 0]] {
            let t = Tuple::new(row);
            assert_eq!(n.eval(&s, &t).unwrap(), !p.eval(&s, &t).unwrap());
        }
    }

    #[test]
    fn all_combines_conjuncts() {
        let p = Predicate::all(vec![
            Predicate::eq_value("a", 1),
            Predicate::eq_value("b", 2),
        ]);
        assert_eq!(p.conjuncts().len(), 2);
        assert_eq!(Predicate::all(Vec::new()), Predicate::True);
    }

    #[test]
    fn map_attributes_renames_references() {
        let p = Predicate::eq_attrs("b", "c").and(Predicate::eq_value("a", 1));
        let mapped = p.map_attributes(&|n| format!("r1.{n}"));
        assert!(mapped.referenced_attributes().contains("r1.a"));
        assert!(mapped.referenced_attributes().contains("r1.b"));
    }

    #[test]
    fn display_round_trips_shape() {
        let p = Predicate::cmp_value("b", CompareOp::Lt, 3).and(Predicate::eq_attrs("a", "c"));
        assert_eq!(p.to_string(), "(b < 3 AND a = c)");
    }

    #[test]
    fn unbound_parameters_error_on_eval_and_are_reported() {
        let p =
            Predicate::cmp_param("b", CompareOp::Eq, "threshold").and(Predicate::eq_value("a", 1));
        assert!(p.has_parameters());
        assert_eq!(
            p.parameters().into_iter().collect::<Vec<_>>(),
            vec!["threshold".to_string()]
        );
        assert_eq!(p.to_string(), "(b = $threshold AND a = 1)");
        let err = p.eval(&schema(), &Tuple::new([1, 5, 3])).unwrap_err();
        assert_eq!(
            err,
            AlgebraError::UnboundParameter {
                parameter: "threshold".into()
            }
        );
    }

    #[test]
    fn bind_parameters_substitutes_known_names_only() {
        let p = Predicate::cmp_param("b", CompareOp::Lt, "hi").and(Predicate::cmp_param(
            "c",
            CompareOp::Eq,
            "other",
        ));
        let mut bindings = BTreeMap::new();
        bindings.insert("hi".to_string(), Value::Int(10));
        let bound = p.bind_parameters(&bindings);
        assert_eq!(bound.parameters().len(), 1, "only `other` remains unbound");
        // The bound half evaluates like a plain comparison now.
        let fully = bound.bind_parameters(&BTreeMap::from([("other".to_string(), Value::Int(3))]));
        assert!(!fully.has_parameters());
        assert!(fully.eval(&schema(), &Tuple::new([1, 5, 3])).unwrap());
    }

    #[test]
    fn parameter_placeholders_negate_and_rename_like_comparisons() {
        let p = Predicate::cmp_param("b", CompareOp::Lt, "x");
        assert_eq!(p.negate(), Predicate::cmp_param("b", CompareOp::GtEq, "x"));
        let mapped = p.map_attributes(&|n| format!("r.{n}"));
        assert!(mapped.referenced_attributes().contains("r.b"));
        assert_eq!(mapped.parameters().len(), 1);
    }
}
