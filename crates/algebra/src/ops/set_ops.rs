//! Set union, intersection and difference.
//!
//! Operands must be union-compatible (contain the same attribute names); the
//! right operand is conformed to the left operand's attribute order before the
//! tuple sets are combined, so `R(a, b) ∪ S(b, a)` is accepted.

use crate::{Relation, Result};

impl Relation {
    fn check_compatible(&self, other: &Relation, operation: &'static str) -> Result<Relation> {
        self.schema().set_operation(other.schema(), operation)?;
        other.conform_to(self.schema())
    }

    /// Set union: `r1 ∪ r2 = {t | t ∈ r1 ∨ t ∈ r2}`.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        let other = self.check_compatible(other, "union")?;
        let mut out = self.clone();
        for t in other.tuples() {
            out.insert(t.clone())?;
        }
        Ok(out)
    }

    /// Set intersection: `r1 ∩ r2 = {t | t ∈ r1 ∧ t ∈ r2}`.
    pub fn intersect(&self, other: &Relation) -> Result<Relation> {
        let other = self.check_compatible(other, "intersection")?;
        let mut out = Relation::empty(self.schema().clone());
        for t in self.tuples() {
            if other.contains(t) {
                out.insert(t.clone())?;
            }
        }
        Ok(out)
    }

    /// Set difference: `r1 − r2 = {t | t ∈ r1 ∧ t ∉ r2}`.
    pub fn difference(&self, other: &Relation) -> Result<Relation> {
        let other = self.check_compatible(other, "difference")?;
        let mut out = Relation::empty(self.schema().clone());
        for t in self.tuples() {
            if !other.contains(t) {
                out.insert(t.clone())?;
            }
        }
        Ok(out)
    }

    /// `true` when every tuple of `self` is contained in `other`
    /// (`self ⊆ other`). Both relations must be union-compatible.
    pub fn is_subset_of(&self, other: &Relation) -> Result<bool> {
        let other = self.check_compatible(other, "subset test")?;
        Ok(self.tuples().all(|t| other.contains(t)))
    }
}

#[cfg(test)]
mod tests {
    use crate::{relation, Relation, Schema, Tuple};

    #[test]
    fn union_removes_duplicates() {
        let r1 = relation! { ["b"] => [1], [3] };
        let r2 = relation! { ["b"] => [3], [4] };
        let u = r1.union(&r2).unwrap();
        assert_eq!(u, relation! { ["b"] => [1], [3], [4] });
    }

    #[test]
    fn union_conforms_attribute_order() {
        let r1 = relation! { ["a", "b"] => [1, 10] };
        let r2 = relation! { ["b", "a"] => [20, 2] };
        let u = r1.union(&r2).unwrap();
        assert_eq!(u.schema().names(), vec!["a", "b"]);
        assert!(u.contains(&Tuple::new([2, 20])));
    }

    #[test]
    fn incompatible_schemas_are_rejected() {
        let r1 = relation! { ["a"] => [1] };
        let r2 = relation! { ["b"] => [1] };
        assert!(r1.union(&r2).is_err());
        assert!(r1.intersect(&r2).is_err());
        assert!(r1.difference(&r2).is_err());
        assert!(r1.is_subset_of(&r2).is_err());
    }

    #[test]
    fn intersection_keeps_common_tuples() {
        let r1 = relation! { ["a"] => [1], [2], [3] };
        let r2 = relation! { ["a"] => [2], [3], [4] };
        assert_eq!(r1.intersect(&r2).unwrap(), relation! { ["a"] => [2], [3] });
    }

    #[test]
    fn difference_removes_right_tuples() {
        let r1 = relation! { ["a"] => [1], [2], [3] };
        let r2 = relation! { ["a"] => [2] };
        assert_eq!(r1.difference(&r2).unwrap(), relation! { ["a"] => [1], [3] });
    }

    #[test]
    fn difference_with_empty_right_is_identity() {
        let r1 = relation! { ["a"] => [1], [2] };
        let empty = Relation::empty(Schema::of(["a"]));
        assert_eq!(r1.difference(&empty).unwrap(), r1);
        assert_eq!(empty.difference(&r1).unwrap(), empty);
    }

    #[test]
    fn subset_test() {
        let r1 = relation! { ["b"] => [1], [3] };
        let r2 = relation! { ["b"] => [1], [2], [3] };
        assert!(r1.is_subset_of(&r2).unwrap());
        assert!(!r2.is_subset_of(&r1).unwrap());
        // ∅ ⊆ r for every r.
        let empty = Relation::empty(Schema::of(["b"]));
        assert!(empty.is_subset_of(&r1).unwrap());
    }

    #[test]
    fn set_identities_hold_on_examples() {
        // (r1 − r2) ∪ (r1 ∩ r2) = r1
        let r1 = relation! { ["a"] => [1], [2], [3], [4] };
        let r2 = relation! { ["a"] => [2], [4], [6] };
        let left = r1
            .difference(&r2)
            .unwrap()
            .union(&r1.intersect(&r2).unwrap())
            .unwrap();
        assert_eq!(left, r1);
    }
}
