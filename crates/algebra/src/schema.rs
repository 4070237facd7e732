//! Relation schemas: ordered lists of named attributes, and every
//! operator's schema rule — its output schema and its preconditions:
//! projection, set operations, product, renaming, grouping and the division
//! partitions of Section 2. The plan layer (`div_expr::node_schema`), the
//! reference operators and the columnar kernels all take them from here.

use crate::{AggregateCall, AlgebraError, Result};
use std::fmt;

/// A single named attribute of a relation schema.
///
/// The paper names attributes `a`, `b1`, `s#`, `color`, …; an attribute here is
/// simply its name. Attribute identity is name equality, which is exactly the
/// convention the paper uses to define the attribute sets `A`, `B` and `C` of
/// the division operators (e.g. the divisor attributes `B` are those attributes
/// of the divisor that also occur in the dividend).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Attribute {
    name: Box<str>,
}

impl Attribute {
    /// Create a new attribute with the given name.
    pub fn new(name: impl Into<Box<str>>) -> Self {
        Attribute { name: name.into() }
    }

    /// The attribute's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl From<&str> for Attribute {
    fn from(name: &str) -> Self {
        Attribute::new(name)
    }
}

impl From<String> for Attribute {
    fn from(name: String) -> Self {
        Attribute::new(name)
    }
}

/// An ordered relation schema.
///
/// Order matters for tuple layout (the i-th value of a tuple belongs to the
/// i-th attribute) but *not* for schema compatibility: two schemas are
/// union-compatible when they contain the same attribute names, and operators
/// reorder tuples as needed (see [`Schema::projection_indices`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Create a schema from attribute names.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DuplicateAttribute`] if a name repeats.
    pub fn new<I, A>(names: I) -> Result<Self>
    where
        I: IntoIterator<Item = A>,
        A: Into<Attribute>,
    {
        let attributes: Vec<Attribute> = names.into_iter().map(Into::into).collect();
        for (i, attr) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|a| a.name() == attr.name()) {
                return Err(AlgebraError::DuplicateAttribute {
                    attribute: attr.name().to_string(),
                    operation: "schema construction",
                });
            }
        }
        Ok(Schema { attributes })
    }

    /// Create a schema from attribute names, panicking on duplicates.
    ///
    /// Intended for tests and examples where the schema is a literal.
    pub fn of<I, A>(names: I) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<Attribute>,
    {
        Self::new(names).expect("literal schema must not contain duplicate attributes")
    }

    /// An empty schema (zero attributes). Used for the one-tuple relation `(t)`
    /// degenerate cases in proofs; normal relations always have attributes.
    pub fn empty() -> Self {
        Schema {
            attributes: Vec::new(),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// `true` if the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Iterate over the attributes in declaration order.
    pub fn attributes(&self) -> impl Iterator<Item = &Attribute> + '_ {
        self.attributes.iter()
    }

    /// Attribute names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name()).collect()
    }

    /// Position of `name` within the schema.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name() == name)
    }

    /// Position of `name`, or an [`AlgebraError::UnknownAttribute`] error.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| AlgebraError::UnknownAttribute {
                attribute: name.to_string(),
                schema: self.to_string(),
            })
    }

    /// `true` if the schema contains an attribute with this name.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// `true` when both schemas contain exactly the same attribute names
    /// (in any order) — the paper's union compatibility.
    pub fn is_compatible_with(&self, other: &Schema) -> bool {
        self.arity() == other.arity() && self.attributes.iter().all(|a| other.contains(a.name()))
    }

    /// The schema of the set operation `self ∪ other`, `self ∩ other` or
    /// `self − other` (`operation` names it): `self`'s.
    ///
    /// # Errors
    ///
    /// [`AlgebraError::SchemaMismatch`] unless the operands are
    /// union-compatible.
    pub fn set_operation(&self, other: &Schema, operation: &'static str) -> Result<Schema> {
        if !self.is_compatible_with(other) {
            return Err(AlgebraError::SchemaMismatch {
                left: self.to_string(),
                right: other.to_string(),
                operation,
            });
        }
        Ok(self.clone())
    }

    /// `true` when no attribute name is shared with `other`.
    pub fn is_disjoint_from(&self, other: &Schema) -> bool {
        self.attributes.iter().all(|a| !other.contains(a.name()))
    }

    /// Attribute names present in both schemas, in `self`'s order.
    pub fn common_attributes(&self, other: &Schema) -> Vec<String> {
        self.attributes
            .iter()
            .filter(|a| other.contains(a.name()))
            .map(|a| a.name().to_string())
            .collect()
    }

    /// Attribute names of `self` that are *not* in `other`, in `self`'s order.
    ///
    /// For a dividend schema `R1(A ∪ B)` and divisor schema `R2(B)` this is the
    /// quotient attribute set `A`.
    pub fn difference_attributes(&self, other: &Schema) -> Vec<String> {
        self.attributes
            .iter()
            .filter(|a| !other.contains(a.name()))
            .map(|a| a.name().to_string())
            .collect()
    }

    /// The indices (into `self`) of the given attribute names, in the order the
    /// names are given. This is the workhorse of projection and reordering.
    pub fn projection_indices(&self, names: &[&str]) -> Result<Vec<usize>> {
        names.iter().map(|n| self.require(n)).collect()
    }

    /// Schema resulting from projecting onto `names` (kept in the given order).
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        // Validate existence and preserve requested order.
        let mut attributes = Vec::with_capacity(names.len());
        for n in names {
            self.require(n)?;
            if attributes.iter().any(|a: &Attribute| a.name() == *n) {
                return Err(AlgebraError::DuplicateAttribute {
                    attribute: (*n).to_string(),
                    operation: "projection",
                });
            }
            attributes.push(Attribute::new(*n));
        }
        Ok(Schema { attributes })
    }

    /// Concatenate two schemas (Cartesian product schema).
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DuplicateAttribute`] if the operands share an
    /// attribute name; the caller must rename first, exactly as in the paper
    /// where product operands always have disjoint attribute sets.
    pub fn concat(&self, other: &Schema) -> Result<Schema> {
        let mut attributes = self.attributes.clone();
        for attr in &other.attributes {
            if self.contains(attr.name()) {
                return Err(AlgebraError::DuplicateAttribute {
                    attribute: attr.name().to_string(),
                    operation: "cartesian product",
                });
            }
            attributes.push(attr.clone());
        }
        Ok(Schema { attributes })
    }

    /// Schema with each `(from, to)` pair of `renames` applied (the first
    /// pair naming an attribute wins).
    ///
    /// # Errors
    ///
    /// [`AlgebraError::UnknownAttribute`] if some `from` is not in `self`,
    /// [`AlgebraError::DuplicateAttribute`] if two attributes end up with
    /// one name.
    pub fn rename(&self, renames: &[(String, String)]) -> Result<Schema> {
        for (from, _) in renames {
            self.require(from)?;
        }
        self.rename_with(|name| {
            let renamed = renames.iter().find(|(from, _)| from == name);
            renamed.map_or(name, |(_, to)| to).to_string()
        })
    }

    /// The schema of `γ_{group_by; aggregates}` over `self`: the grouping
    /// attributes, then the aggregate outputs.
    ///
    /// # Errors
    ///
    /// [`AlgebraError::UnknownAttribute`] if a grouping attribute or an
    /// aggregate input (even `COUNT`'s) is not in `self`,
    /// [`AlgebraError::DuplicateAttribute`] if two outputs share a name.
    pub fn aggregate(&self, group_by: &[&str], aggregates: &[AggregateCall]) -> Result<Schema> {
        let inputs = aggregates.iter().map(|agg| agg.input.as_str());
        for name in group_by.iter().copied().chain(inputs) {
            self.require(name)?;
        }
        let outputs = aggregates.iter().map(|agg| agg.output.as_str());
        Schema::new(group_by.iter().copied().chain(outputs))
    }

    /// The partition of the small divide `self ÷ divisor` (Section 2.1):
    /// `B` is every divisor attribute, `A` the rest of `self`.
    ///
    /// # Errors
    ///
    /// [`AlgebraError::InvalidDivision`] unless `B` is nonempty and
    /// contained in `self` and `A` is nonempty.
    pub fn divide_partition(&self, divisor: &Schema) -> Result<DivisionPartition> {
        if divisor.is_empty() {
            return invalid_division("the divisor must have at least one attribute (B nonempty)");
        }
        if let Some(b) = divisor.attributes().find(|b| !self.contains(b.name())) {
            return invalid_division(format!(
                "divisor attribute `{b}` does not occur in the dividend schema {self}"
            ));
        }
        let quotient = self.difference_attributes(divisor);
        if quotient.is_empty() {
            return invalid_division(
                "the dividend must have at least one attribute not in the divisor (A nonempty)",
            );
        }
        let shared = divisor.names().into_iter().map(String::from).collect();
        Ok(DivisionPartition {
            quotient,
            shared,
            group: Vec::new(),
        })
    }

    /// The partition of the great divide `self ÷* divisor` (Section 2.2):
    /// `B = self ∩ divisor`, `A = self − B`, `C = divisor − B`.
    ///
    /// # Errors
    ///
    /// [`AlgebraError::InvalidDivision`] unless `A` and `B` are nonempty.
    /// An empty `C` is allowed: the great divide is then the small one.
    pub fn great_divide_partition(&self, divisor: &Schema) -> Result<DivisionPartition> {
        let shared = self.common_attributes(divisor);
        if shared.is_empty() {
            return invalid_division(
                "dividend and divisor must share at least one attribute (B nonempty)",
            );
        }
        let quotient = self.difference_attributes(divisor);
        if quotient.is_empty() {
            return invalid_division(
                "the dividend must have at least one attribute of its own (A nonempty)",
            );
        }
        Ok(DivisionPartition {
            quotient,
            shared,
            group: divisor.difference_attributes(self),
        })
    }

    /// Schema with each attribute renamed through `f`.
    pub fn rename_with(&self, mut f: impl FnMut(&str) -> String) -> Result<Schema> {
        Schema::new(self.attributes.iter().map(|a| f(a.name())))
    }

    /// Merge with another schema keeping each attribute once (natural-join
    /// output schema): all of `self`'s attributes followed by `other`'s
    /// attributes that are not already present.
    pub fn natural_union(&self, other: &Schema) -> Schema {
        let mut attributes = self.attributes.clone();
        for attr in &other.attributes {
            if !self.contains(attr.name()) {
                attributes.push(attr.clone());
            }
        }
        Schema { attributes }
    }
}

/// The attribute partition of a division, from
/// [`Schema::divide_partition`] or [`Schema::great_divide_partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivisionPartition {
    /// Quotient attributes `A` (dividend-only), in dividend order.
    pub quotient: Vec<String>,
    /// Shared attributes `B`: in divisor order for the small divide, in
    /// dividend order for the great divide.
    pub shared: Vec<String>,
    /// Divisor group attributes `C` (divisor-only), in divisor order; empty
    /// for the small divide.
    pub group: Vec<String>,
}

impl DivisionPartition {
    /// The division's output schema: `A`, then `C`.
    pub fn output(&self) -> Schema {
        let names = self.quotient.iter().chain(&self.group);
        Schema {
            attributes: names.map(|name| Attribute::new(name.as_str())).collect(),
        }
    }
}

fn invalid_division<T>(reason: impl Into<String>) -> Result<T> {
    Err(AlgebraError::InvalidDivision {
        reason: reason.into(),
    })
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, attr) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{attr}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_rejects_duplicates() {
        let err = Schema::new(["a", "b", "a"]).unwrap_err();
        assert!(matches!(err, AlgebraError::DuplicateAttribute { .. }));
    }

    #[test]
    fn index_and_contains() {
        let s = Schema::of(["a", "b", "c"]);
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("z"), None);
        assert!(s.contains("c"));
        assert!(s.require("z").is_err());
    }

    #[test]
    fn compatibility_ignores_order() {
        let s1 = Schema::of(["a", "b"]);
        let s2 = Schema::of(["b", "a"]);
        let s3 = Schema::of(["a", "c"]);
        assert!(s1.is_compatible_with(&s2));
        assert!(!s1.is_compatible_with(&s3));
    }

    #[test]
    fn disjointness_and_common_attributes() {
        let r1 = Schema::of(["a", "b1", "b2"]);
        let r2 = Schema::of(["b1", "b2", "c"]);
        assert!(!r1.is_disjoint_from(&r2));
        assert_eq!(r1.common_attributes(&r2), vec!["b1", "b2"]);
        assert_eq!(r1.difference_attributes(&r2), vec!["a"]);
        assert_eq!(r2.difference_attributes(&r1), vec!["c"]);
        let r3 = Schema::of(["x", "y"]);
        assert!(r1.is_disjoint_from(&r3));
    }

    #[test]
    fn projection_preserves_requested_order() {
        let s = Schema::of(["a", "b", "c"]);
        let p = s.project(&["c", "a"]).unwrap();
        assert_eq!(p.names(), vec!["c", "a"]);
        assert!(s.project(&["c", "c"]).is_err());
        assert!(s.project(&["q"]).is_err());
    }

    #[test]
    fn concat_requires_disjoint_names() {
        let s1 = Schema::of(["a"]);
        let s2 = Schema::of(["b", "c"]);
        assert_eq!(s1.concat(&s2).unwrap().names(), vec!["a", "b", "c"]);
        let s3 = Schema::of(["a", "d"]);
        assert!(matches!(
            s1.concat(&s3).unwrap_err(),
            AlgebraError::DuplicateAttribute { .. }
        ));
    }

    #[test]
    fn natural_union_keeps_shared_attributes_once() {
        let s1 = Schema::of(["a", "b"]);
        let s2 = Schema::of(["b", "c"]);
        assert_eq!(s1.natural_union(&s2).names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn rename_with_prefix() {
        let s = Schema::of(["a", "b"]);
        let renamed = s.rename_with(|n| format!("r1.{n}")).unwrap();
        assert_eq!(renamed.names(), vec!["r1.a", "r1.b"]);
    }

    #[test]
    fn division_partitions_follow_section_2() {
        let dividend = Schema::of(["a", "b1", "b2"]);
        let small = dividend
            .divide_partition(&Schema::of(["b2", "b1"]))
            .unwrap();
        assert_eq!(small.quotient, vec!["a"]);
        assert_eq!(small.shared, vec!["b2", "b1"]);
        assert!(small.group.is_empty());
        assert_eq!(small.output().names(), vec!["a"]);

        let great = dividend
            .great_divide_partition(&Schema::of(["c", "b1"]))
            .unwrap();
        assert_eq!(great.quotient, vec!["a", "b2"]);
        assert_eq!(great.shared, vec!["b1"]);
        assert_eq!(great.output().names(), vec!["a", "b2", "c"]);

        let invalid = |result: Result<DivisionPartition>| {
            matches!(result, Err(AlgebraError::InvalidDivision { .. }))
        };
        // B empty, B outside the dividend, A empty.
        assert!(invalid(dividend.divide_partition(&Schema::empty())));
        assert!(invalid(dividend.divide_partition(&Schema::of(["c"]))));
        assert!(invalid(dividend.divide_partition(&dividend)));
        assert!(invalid(dividend.great_divide_partition(&Schema::of(["c"]))));
        assert!(invalid(
            Schema::of(["b1"]).great_divide_partition(&Schema::of(["b1", "c"]))
        ));
    }

    #[test]
    fn rename_aggregate_and_set_operation_validate_their_inputs() {
        let s = Schema::of(["a", "b"]);
        let to = |from: &str, to: &str| vec![(from.to_string(), to.to_string())];
        assert_eq!(s.rename(&to("a", "x")).unwrap().names(), vec!["x", "b"]);
        assert!(matches!(
            s.rename(&to("zz", "x")).unwrap_err(),
            AlgebraError::UnknownAttribute { .. }
        ));
        assert!(matches!(
            s.rename(&to("a", "b")).unwrap_err(),
            AlgebraError::DuplicateAttribute { .. }
        ));

        let count = |input: &str, output: &str| [AggregateCall::count(input, output)];
        let grouped = s.aggregate(&["a"], &count("b", "n")).unwrap();
        assert_eq!(grouped.names(), vec!["a", "n"]);
        assert!(s.aggregate(&["zz"], &count("b", "n")).is_err());
        assert!(s.aggregate(&["a"], &count("zz", "n")).is_err());
        assert!(s.aggregate(&["a"], &count("b", "a")).is_err());

        assert_eq!(
            s.set_operation(&Schema::of(["b", "a"]), "union"),
            Ok(s.clone())
        );
        assert!(matches!(
            s.set_operation(&Schema::of(["a"]), "union").unwrap_err(),
            AlgebraError::SchemaMismatch { .. }
        ));
    }

    #[test]
    fn display_is_tuple_style() {
        let s = Schema::of(["s#", "p#"]);
        assert_eq!(s.to_string(), "(s#, p#)");
        assert_eq!(Schema::empty().to_string(), "()");
    }
}
