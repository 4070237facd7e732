//! Horizontal partitioning for the parallel-law experiments: Law 1 divides
//! by the parts of a divisor split any way at all, so round-robin suffices.

use div_algebra::{AlgebraError, Relation};

/// Split a relation into `n` partitions round-robin. The partitions cover
/// the input but guarantee no disjointness: they may share key values (and
/// so violate, e.g., Law 2's `c2`).
pub fn round_robin_partition(relation: &Relation, n: usize) -> Result<Vec<Relation>, AlgebraError> {
    let n = n.max(1);
    let mut partitions = vec![Relation::empty(relation.schema().clone()); n];
    for (i, t) in relation.tuples().enumerate() {
        partitions[i % n].insert(t.clone())?;
    }
    Ok(partitions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let mut rows = Vec::new();
        for a in 0..30i64 {
            for b in 0..3i64 {
                rows.push(vec![a, b]);
            }
        }
        Relation::from_rows(["a", "b"], rows).unwrap()
    }

    #[test]
    fn round_robin_partitions_overlap_on_keys() {
        let rel = sample();
        let parts = round_robin_partition(&rel, 2).unwrap();
        let a_0 = parts[0].project(&["a"]).unwrap();
        let a_1 = parts[1].project(&["a"]).unwrap();
        // Round-robin deliberately breaks key disjointness.
        assert!(!a_0.intersect(&a_1).unwrap().is_empty());
    }
}
