//! Relations: a schema plus a set of tuples (set semantics).

use crate::{AlgebraError, Result, Schema, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A relation with set semantics.
///
/// A relation owns a [`Schema`] and an ordered set of [`Tuple`]s. Ordered
/// storage (a `BTreeSet`) gives deterministic iteration, cheap equality and
/// automatic duplicate elimination — the semantics assumed by every definition
/// in the paper ("All of the operators in this paper have set semantics",
/// Appendix A).
///
/// All algebra operators are exposed as methods on `Relation`; they live in the
/// [`ops`](crate::ops) modules grouped the same way as the paper's Appendix A.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            tuples: BTreeSet::new(),
        }
    }

    /// Create a relation from a schema and tuples.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::ArityMismatch`] if a tuple's arity does not
    /// match the schema.
    pub fn new<I>(schema: Schema, tuples: I) -> Result<Self>
    where
        I: IntoIterator<Item = Tuple>,
    {
        let mut rel = Relation::empty(schema);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// Create a relation from attribute names and rows of values.
    ///
    /// This is the programmatic counterpart of the [`relation!`](macro@crate::relation)
    /// macro and is convenient for generators.
    pub fn from_rows<N, R, V>(names: N, rows: impl IntoIterator<Item = R>) -> Result<Self>
    where
        N: IntoIterator,
        N::Item: Into<crate::Attribute>,
        R: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let schema = Schema::new(names)?;
        let mut rel = Relation::empty(schema);
        for row in rows {
            rel.insert(Tuple::new(row))?;
        }
        Ok(rel)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples (the relation's cardinality).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate over the tuples in their deterministic (sorted) order.
    pub fn tuples(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// `true` if the relation contains exactly this tuple.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains(tuple)
    }

    /// Insert a tuple. Duplicate insertions are silently ignored (set
    /// semantics). Returns whether the tuple was newly inserted.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::ArityMismatch`] if the tuple's arity does not
    /// match the schema.
    pub fn insert(&mut self, tuple: Tuple) -> Result<bool> {
        if tuple.arity() != self.schema.arity() {
            return Err(AlgebraError::ArityMismatch {
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        Ok(self.tuples.insert(tuple))
    }

    /// Insert a row of plain values.
    pub fn insert_row<I, V>(&mut self, row: I) -> Result<bool>
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        self.insert(Tuple::new(row))
    }

    /// The value of attribute `name` in `tuple` (which must belong to this
    /// relation's schema).
    pub fn value_of<'t>(&self, tuple: &'t Tuple, name: &str) -> Result<&'t Value> {
        let idx = self.schema.require(name)?;
        tuple.get(idx).ok_or(AlgebraError::ArityMismatch {
            expected: self.schema.arity(),
            actual: tuple.arity(),
        })
    }

    /// Reorder this relation's attribute layout to match `target` (which must
    /// be union-compatible). Used so that set operations can accept operands
    /// whose attributes are declared in different orders.
    pub fn conform_to(&self, target: &Schema) -> Result<Relation> {
        if !self.schema.is_compatible_with(target) {
            return Err(AlgebraError::SchemaMismatch {
                left: self.schema.to_string(),
                right: target.to_string(),
                operation: "schema conformance",
            });
        }
        let names = target.names();
        let indices = self.schema.projection_indices(&names)?;
        let tuples = self
            .tuples
            .iter()
            .map(|t| t.project(&indices))
            .collect::<BTreeSet<_>>();
        Ok(Relation {
            schema: target.clone(),
            tuples,
        })
    }

    /// Rename every attribute through `f`, keeping tuples unchanged.
    pub fn rename_with(&self, f: impl FnMut(&str) -> String) -> Result<Relation> {
        Ok(Relation {
            schema: self.schema.rename_with(f)?,
            tuples: self.tuples.clone(),
        })
    }

    /// Rename a single attribute.
    pub fn rename_attribute(&self, from: &str, to: &str) -> Result<Relation> {
        self.schema.require(from)?;
        self.rename_with(|n| {
            if n == from {
                to.to_string()
            } else {
                n.to_string()
            }
        })
    }

    /// The *image set* of the paper (Definition 1): the set of `B`-projections
    /// of all tuples whose `A`-projection equals `key`.
    ///
    /// `a_indices`/`b_indices` are positions of the `A` and `B` attributes in
    /// this relation's schema.
    pub fn image_set(
        &self,
        a_indices: &[usize],
        b_indices: &[usize],
        key: &Tuple,
    ) -> BTreeSet<Tuple> {
        self.tuples
            .iter()
            .filter(|t| &t.project(a_indices) == key)
            .map(|t| t.project(b_indices))
            .collect()
    }

    /// Group the relation's tuples by their projection onto `key_indices`.
    ///
    /// Returns a deterministic map from group key to the set of full tuples of
    /// the group. This helper backs division, grouping and the planners.
    pub fn group_by_indices(&self, key_indices: &[usize]) -> BTreeMap<Tuple, BTreeSet<Tuple>> {
        let mut groups: BTreeMap<Tuple, BTreeSet<Tuple>> = BTreeMap::new();
        for t in &self.tuples {
            groups
                .entry(t.project(key_indices))
                .or_default()
                .insert(t.clone());
        }
        groups
    }

    /// Group by attribute names (see [`Relation::group_by_indices`]).
    pub fn group_by(&self, names: &[&str]) -> Result<BTreeMap<Tuple, BTreeSet<Tuple>>> {
        let indices = self.schema.projection_indices(names)?;
        Ok(self.group_by_indices(&indices))
    }

    /// Collect the distinct values of a single attribute.
    pub fn column(&self, name: &str) -> Result<BTreeSet<Value>> {
        let idx = self.schema.require(name)?;
        Ok(self
            .tuples
            .iter()
            .map(|t| t.values()[idx].clone())
            .collect())
    }

    /// Render the relation as a paper-style ASCII table, e.g.
    ///
    /// ```text
    /// a b
    /// ---
    /// 1 1
    /// 1 4
    /// ```
    pub fn to_table_string(&self) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.chars().count()).collect();
        let rendered: Vec<Vec<String>> = self
            .tuples
            .iter()
            .map(|t| t.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        for (i, n) in names.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{:width$}", n, width = widths[i]));
        }
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total.max(1)));
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{:width$}", cell, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table_string())
    }
}

/// Build a [`Relation`] literal.
///
/// ```
/// use div_algebra::relation;
/// let r2 = relation! { ["b"] => [1], [3] };
/// assert_eq!(r2.len(), 2);
/// let empty = relation! { ["a", "b"] => };
/// assert!(empty.is_empty());
/// ```
#[macro_export]
macro_rules! relation {
    { [$($name:expr),+ $(,)?] => $([$($value:expr),+ $(,)?]),* $(,)? } => {{
        let rows: ::std::vec::Vec<::std::vec::Vec<$crate::Value>> =
            ::std::vec![$( ::std::vec![ $( $crate::Value::from($value) ),+ ] ),*];
        $crate::Relation::from_rows([$($name),+], rows)
            .expect("relation! literal must be well formed")
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_dividend() -> Relation {
        relation! {
            ["a", "b"] =>
            [1, 1], [1, 4],
            [2, 1], [2, 2], [2, 3], [2, 4],
            [3, 1], [3, 3], [3, 4],
        }
    }

    #[test]
    fn construction_deduplicates() {
        let r = relation! { ["a"] => [1], [1], [2] };
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn insert_checks_arity() {
        let mut r = Relation::empty(Schema::of(["a", "b"]));
        assert!(r.insert(Tuple::new([1])).is_err());
        assert!(r.insert(Tuple::new([1, 2])).unwrap());
        assert!(!r.insert(Tuple::new([1, 2])).unwrap());
    }

    #[test]
    fn value_of_reads_named_attribute() {
        let r = relation! { ["s#", "color"] => [1, "blue"] };
        let t = r.tuples().next().unwrap().clone();
        assert_eq!(r.value_of(&t, "color").unwrap(), &Value::str("blue"));
        assert!(r.value_of(&t, "p#").is_err());
    }

    #[test]
    fn conform_to_reorders_attributes() {
        let r = relation! { ["a", "b"] => [1, 10], [2, 20] };
        let target = Schema::of(["b", "a"]);
        let conformed = r.conform_to(&target).unwrap();
        assert_eq!(conformed.schema().names(), vec!["b", "a"]);
        assert!(conformed.contains(&Tuple::new([10, 1])));
        let incompatible = Schema::of(["a", "c"]);
        assert!(r.conform_to(&incompatible).is_err());
    }

    #[test]
    fn rename_attribute_keeps_tuples() {
        let r = relation! { ["a", "b"] => [1, 2] };
        let renamed = r.rename_attribute("b", "b2").unwrap();
        assert_eq!(renamed.schema().names(), vec!["a", "b2"]);
        assert_eq!(renamed.len(), 1);
        assert!(r.rename_attribute("z", "w").is_err());
    }

    #[test]
    fn image_set_matches_paper_definition() {
        // i_r1(2) = {1, 2, 3, 4} in Figure 1.
        let r1 = figure1_dividend();
        let a_idx = [0usize];
        let b_idx = [1usize];
        let image = r1.image_set(&a_idx, &b_idx, &Tuple::new([2]));
        let expected: BTreeSet<Tuple> = [1, 2, 3, 4].iter().map(|&b| Tuple::new([b])).collect();
        assert_eq!(image, expected);
        // i_r1(1) = {1, 4}.
        let image1 = r1.image_set(&a_idx, &b_idx, &Tuple::new([1]));
        assert_eq!(image1.len(), 2);
    }

    #[test]
    fn group_by_partitions_tuples() {
        let r1 = figure1_dividend();
        let groups = r1.group_by(&["a"]).unwrap();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[&Tuple::new([2])].len(), 4);
    }

    #[test]
    fn column_collects_distinct_values() {
        let r1 = figure1_dividend();
        let col = r1.column("b").unwrap();
        assert_eq!(col.len(), 4);
        assert!(col.contains(&Value::Int(3)));
    }

    #[test]
    fn table_rendering_contains_header_and_rows() {
        let r = relation! { ["a", "b"] => [1, 10] };
        let table = r.to_table_string();
        assert!(table.starts_with("a b"));
        assert!(table.contains("1 10"));
    }

    #[test]
    fn empty_relation_macro_form() {
        let r = relation! { ["a", "b"] => };
        assert!(r.is_empty());
        assert_eq!(r.schema().arity(), 2);
    }
}
