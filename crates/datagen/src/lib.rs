//! # div-datagen
//!
//! Workload generators for the *division-laws* benchmarks and property tests.
//!
//! Two scenario families appear in the paper:
//!
//! * the **suppliers-and-parts** database of Section 4 (queries Q1–Q3), and
//! * the **market-basket** transactions/candidates tables of Section 3
//!   (frequent itemset discovery).
//!
//! [`suppliers_parts`] and [`baskets`] generate those schemas at arbitrary
//! scale with controllable selectivities and Zipf-skewed popularity, and
//! [`partition`] provides the horizontal partitioning helpers used by the
//! parallel-law experiments (Laws 2 and 13).
//!
//! [`scenarios`] adds three *realistic* division families beyond the paper's
//! examples — RBAC role coverage, course completion, feature-flag rollout —
//! with tunable cardinality, skew, divisor selectivity and null density.
//! They are shared by the conformance fuzzer (`crates/conformance`), the
//! integration tests and the benchmark.
//!
//! The division workloads at the crate root are the shapes
//! `tests/complexity.rs` pins the paper's complexity claims on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baskets;
pub mod partition;
pub mod scenarios;
pub mod suppliers_parts;
pub mod zipf;

pub use baskets::{BasketConfig, BasketData};
pub use scenarios::{ScenarioConfig, ScenarioData, ScenarioFamily, ScenarioNames};
pub use suppliers_parts::{SuppliersPartsConfig, SuppliersPartsData};
pub use zipf::ZipfSampler;

use div_algebra::Relation;
use div_expr::Catalog;

/// A dividend/divisor pair for small-divide experiments:
/// `groups` quotient-candidate groups over `items` shared values, where every
/// `hit_every`-th group contains the whole divisor (and therefore qualifies).
/// Every other group holds the even items, half the divisor, so
/// `|π_A(r1) × r2|` stays within about twice `|r1|`: a dense dividend.
pub fn division_workload(groups: i64, items: i64, hit_every: i64) -> (Relation, Relation) {
    let hit = |g: i64| hit_every > 0 && g % hit_every == 0;
    let dividend_rows = (0..groups).flat_map(|g| {
        (0..items)
            .filter(move |i| hit(g) || i % 2 == 0)
            .map(move |i| vec![g, i])
    });
    (
        Relation::from_rows(["a", "b"], dividend_rows).expect("valid dividend"),
        Relation::from_rows(["b"], (0..items).map(|i| vec![i])).expect("valid divisor"),
    )
}

/// A sparse dividend: `groups` groups of two of the divisor's `items` values
/// each (group `g` holds `g` and `g + 1`, modulo `items`). With `items > 2` no
/// group qualifies, and `|π_A(r1) × r2| = groups · items` grows with the
/// product of the two sizes while `|r1| = 2 · groups` grows with one.
pub fn sparse_division_workload(groups: i64, items: i64) -> (Relation, Relation) {
    let dividend_rows = (0..groups).flat_map(|g| [vec![g, g % items], vec![g, (g + 1) % items]]);
    (
        Relation::from_rows(["a", "b"], dividend_rows).expect("valid dividend"),
        Relation::from_rows(["b"], (0..items).map(|i| vec![i])).expect("valid divisor"),
    )
}

/// A dividend/divisor pair for great-divide experiments: the divisor holds
/// `divisor_groups` groups of `group_size` shared values each.
pub fn great_divide_workload(
    groups: i64,
    items: i64,
    divisor_groups: i64,
    group_size: i64,
) -> (Relation, Relation) {
    let (dividend, _) = division_workload(groups, items, 3);
    let divisor_rows = (0..divisor_groups)
        .flat_map(|c| (0..group_size.min(items)).map(move |k| vec![(c + 2 * k) % items.max(1), c]));
    (
        dividend,
        Relation::from_rows(["b", "c"], divisor_rows).expect("valid divisor"),
    )
}

/// A suppliers-parts catalog of the given scale, registered under the table
/// names used by queries Q1–Q3 (`supplies`, `parts`).
pub fn suppliers_parts_catalog(suppliers: usize, parts: usize, coverage: f64) -> Catalog {
    suppliers_parts::generate(&SuppliersPartsConfig {
        suppliers,
        parts,
        colors: 4,
        coverage,
        full_suppliers: 0.05,
        seed: 20_061_231,
    })
    .catalog()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn division_workload_has_expected_quotient() {
        let (dividend, divisor) = division_workload(30, 10, 3);
        let quotient = dividend.divide(&divisor).unwrap();
        // Exactly the groups 0, 3, 6, … qualify.
        assert_eq!(quotient.len(), 10);
    }

    #[test]
    fn great_divide_workload_is_valid() {
        let (dividend, divisor) = great_divide_workload(20, 8, 5, 3);
        let quotient = dividend.great_divide(&divisor).unwrap();
        assert_eq!(quotient.schema().names(), vec!["a", "c"]);
        assert!(!quotient.is_empty());
    }

    #[test]
    fn suppliers_parts_catalog_contains_both_tables() {
        let catalog = suppliers_parts_catalog(20, 10, 0.6);
        assert!(catalog.contains_table("supplies"));
        assert!(catalog.contains_table("parts"));
    }
}
