//! Partition-parallel execution of the division operators.
//!
//! The paper attaches explicit parallelization strategies to two of its laws:
//!
//! * **Law 2 + condition `c2`** (Section 5.1.1): partition the dividend on
//!   the quotient attributes `A` into disjoint ranges/hash buckets — then
//!   `c2` holds by construction — and divide every partition independently.
//! * **Law 13** (Section 5.2.1): distribute the divisor groups by a hash
//!   function on `C` across `n` nodes; with the dividend replicated, the
//!   execution time drops to roughly `1/n` provided the division dominates
//!   the final union.
//!
//! This module implements both strategies with OS threads (crossbeam's scoped
//! threads stand in for the query-engine nodes). Results and statistics are
//! merged exactly as the laws prescribe, and the unit tests check equivalence
//! with the sequential algorithms.
//!
//! These entry points run *kernels* over relations, not plans, so the
//! per-worker [`ExecStats`] carry no operator span tree
//! ([`ExecStats::operators`] stays empty; [`ExecStats::merge`] treats
//! empty trees as a no-op). No executor calls this module: it reproduces
//! the paper's two parallelization strategies for the `law02_*` / `law13_*`
//! benches.

use crate::division::{self, DivisionAlgorithm};
use crate::great_divide::{self, GreatDivideAlgorithm};
use crate::stats::ExecStats;
use crate::Result;
use div_algebra::Relation;
use div_expr::ExprError;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn bucket_of<H: Hash>(value: &H, partitions: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    (hasher.finish() as usize) % partitions.max(1)
}

/// Hash-partition `relation` into `partitions` buckets on the given key
/// attributes. Every output partition keeps the full schema.
pub fn hash_partition(
    relation: &Relation,
    key_attributes: &[&str],
    partitions: usize,
) -> Result<Vec<Relation>> {
    let key_idx = relation
        .schema()
        .projection_indices(key_attributes)
        .map_err(ExprError::from)?;
    let mut out = vec![Relation::empty(relation.schema().clone()); partitions.max(1)];
    for t in relation.tuples() {
        let bucket = bucket_of(&t.project(&key_idx), partitions);
        out[bucket].insert(t.clone()).map_err(ExprError::from)?;
    }
    Ok(out)
}

/// Law 2 (under `c2`): divide a dividend partitioned on the quotient
/// attributes in parallel and union the partial quotients.
///
/// Returns the quotient plus the merged statistics of all workers.
pub fn parallel_divide(
    dividend: &Relation,
    divisor: &Relation,
    algorithm: DivisionAlgorithm,
    partitions: usize,
) -> Result<(Relation, ExecStats)> {
    let attrs = dividend
        .division_attributes(divisor)
        .map_err(ExprError::from)?;
    let quotient_refs: Vec<&str> = attrs.quotient.iter().map(String::as_str).collect();
    let parts = hash_partition(dividend, &quotient_refs, partitions)?;

    let results: Mutex<Vec<(Relation, ExecStats)>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<ExprError>> = Mutex::new(Vec::new());
    crossbeam::scope(|scope| {
        for part in &parts {
            scope.spawn(|_| {
                let mut stats = ExecStats::default();
                match division::divide_with(part, divisor, algorithm, &mut stats) {
                    Ok(rel) => results.lock().push((rel, stats)),
                    Err(err) => errors.lock().push(err),
                }
            });
        }
    })
    .expect("partition worker threads must not panic");

    if let Some(err) = errors.into_inner().pop() {
        return Err(err);
    }
    let mut merged_stats = ExecStats::default();
    let mut quotient: Option<Relation> = None;
    for (rel, stats) in results.into_inner() {
        merged_stats.merge(&stats);
        quotient = Some(match quotient {
            None => rel,
            Some(acc) => acc.union(&rel).map_err(ExprError::from)?,
        });
    }
    let quotient = quotient.unwrap_or_else(|| {
        Relation::empty(
            dividend
                .schema()
                .project(&quotient_refs)
                .expect("quotient attributes exist"),
        )
    });
    // The workers never see the plan root, so `merge` cannot learn the final
    // cardinality; record it here like an executor would for the root node.
    merged_stats.output_rows = quotient.len();
    Ok((quotient, merged_stats))
}

/// Law 13: partition the divisor groups by hashing on the group attributes
/// `C`, run the great divide per partition in parallel (the dividend is
/// shared), and union the results. The partition on `C` guarantees the law's
/// disjointness precondition by construction.
pub fn parallel_great_divide(
    dividend: &Relation,
    divisor: &Relation,
    algorithm: GreatDivideAlgorithm,
    partitions: usize,
) -> Result<(Relation, ExecStats)> {
    let attrs = dividend
        .great_division_attributes(divisor)
        .map_err(ExprError::from)?;
    if attrs.group.is_empty() {
        // Degenerate case: no group attributes to partition on; fall back to
        // the dividend-partitioned strategy of Law 2.
        return parallel_divide(
            dividend,
            divisor,
            DivisionAlgorithm::HashDivision,
            partitions,
        );
    }
    let group_refs: Vec<&str> = attrs.group.iter().map(String::as_str).collect();
    let parts = hash_partition(divisor, &group_refs, partitions)?;

    let results: Mutex<Vec<(Relation, ExecStats)>> = Mutex::new(Vec::new());
    let errors: Mutex<Vec<ExprError>> = Mutex::new(Vec::new());
    crossbeam::scope(|scope| {
        for part in &parts {
            scope.spawn(|_| {
                let mut stats = ExecStats::default();
                match great_divide::great_divide_with(dividend, part, algorithm, &mut stats) {
                    Ok(rel) => results.lock().push((rel, stats)),
                    Err(err) => errors.lock().push(err),
                }
            });
        }
    })
    .expect("partition worker threads must not panic");

    if let Some(err) = errors.into_inner().pop() {
        return Err(err);
    }
    let mut merged_stats = ExecStats::default();
    let mut quotient: Option<Relation> = None;
    for (rel, stats) in results.into_inner() {
        merged_stats.merge(&stats);
        quotient = Some(match quotient {
            None => rel,
            Some(acc) => acc.union(&rel).map_err(ExprError::from)?,
        });
    }
    let quotient = match quotient {
        Some(q) => q,
        None => dividend
            .great_divide(&Relation::empty(divisor.schema().clone()))
            .map_err(ExprError::from)?,
    };
    merged_stats.output_rows = quotient.len();
    Ok((quotient, merged_stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    fn dividend() -> Relation {
        let mut rows = Vec::new();
        for a in 0..40i64 {
            for b in 0..6i64 {
                if a % 3 == 0 || b % 2 == 0 {
                    rows.push(vec![a, b]);
                }
            }
        }
        Relation::from_rows(["a", "b"], rows).unwrap()
    }

    fn divisor() -> Relation {
        relation! { ["b"] => [0], [1], [2], [3], [4], [5] }
    }

    fn group_divisor() -> Relation {
        let mut rows = Vec::new();
        for c in 0..8i64 {
            for b in 0..6i64 {
                if b <= c % 6 {
                    rows.push(vec![b, c]);
                }
            }
        }
        Relation::from_rows(["b", "c"], rows).unwrap()
    }

    #[test]
    fn hash_partition_is_a_partition() {
        let rel = dividend();
        let parts = hash_partition(&rel, &["a"], 4).unwrap();
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, rel.len());
        // Quotient prefixes of distinct partitions are disjoint (condition c2).
        for i in 0..parts.len() {
            for j in (i + 1)..parts.len() {
                let a_i = parts[i].project(&["a"]).unwrap();
                let a_j = parts[j].project(&["a"]).unwrap();
                assert!(a_i.intersect(&a_j).unwrap().is_empty());
            }
        }
    }

    #[test]
    fn parallel_divide_matches_sequential_for_all_partition_counts() {
        let dividend = dividend();
        let divisor = divisor();
        let expected = dividend.divide(&divisor).unwrap();
        for partitions in [1, 2, 4, 8] {
            let (result, stats) = parallel_divide(
                &dividend,
                &divisor,
                DivisionAlgorithm::HashDivision,
                partitions,
            )
            .unwrap();
            assert_eq!(result, expected, "partitions = {partitions}");
            assert!(stats.probes > 0);
        }
    }

    #[test]
    fn parallel_great_divide_matches_sequential() {
        let dividend = dividend();
        let divisor = group_divisor();
        let expected = dividend.great_divide(&divisor).unwrap();
        for partitions in [1, 2, 4] {
            let (result, _) = parallel_great_divide(
                &dividend,
                &divisor,
                GreatDivideAlgorithm::HashSets,
                partitions,
            )
            .unwrap();
            assert_eq!(result, expected, "partitions = {partitions}");
        }
    }

    #[test]
    fn merged_stats_keep_per_operator_granularity() {
        // Worker statistics must merge (summing counts) rather than be
        // dropped: with the dividend partitioned on the quotient attributes
        // the per-partition `HashDivision` output rows sum to exactly the
        // quotient cardinality, and that sum must survive the merge. The
        // root cardinality is recorded too.
        let dividend = dividend();
        let divisor = divisor();
        let expected = dividend.divide(&divisor).unwrap();
        for partitions in [1, 3, 4] {
            let (result, stats) = parallel_divide(
                &dividend,
                &divisor,
                DivisionAlgorithm::HashDivision,
                partitions,
            )
            .unwrap();
            assert_eq!(result, expected);
            assert_eq!(
                stats.intermediate_tuples,
                expected.len(),
                "partitions = {partitions}: per-worker counts must sum across workers"
            );
            assert_eq!(stats.output_rows, expected.len());
        }
    }

    #[test]
    fn parallel_great_divide_degenerates_to_small_divide() {
        let dividend = dividend();
        let divisor = divisor();
        let (result, _) =
            parallel_great_divide(&dividend, &divisor, GreatDivideAlgorithm::HashSets, 3).unwrap();
        assert_eq!(result, dividend.divide(&divisor).unwrap());
    }

    #[test]
    fn empty_inputs_are_handled() {
        let empty_dividend = Relation::empty(div_algebra::Schema::of(["a", "b"]));
        let (result, _) = parallel_divide(
            &empty_dividend,
            &divisor(),
            DivisionAlgorithm::HashDivision,
            4,
        )
        .unwrap();
        assert!(result.is_empty());
        let empty_divisor = Relation::empty(div_algebra::Schema::of(["b", "c"]));
        let (result, _) = parallel_great_divide(
            &dividend(),
            &empty_divisor,
            GreatDivideAlgorithm::GroupLoop,
            4,
        )
        .unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn invalid_schemas_propagate_errors() {
        let bad_divisor = relation! { ["zz"] => [1] };
        assert!(parallel_divide(
            &dividend(),
            &bad_divisor,
            DivisionAlgorithm::HashDivision,
            2
        )
        .is_err());
    }
}
