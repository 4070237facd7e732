//! Property-based tests of every law in the paper.
//!
//! Each property generates random relations (small integer domains keep the
//! group structure interesting), enforces the law's precondition *by
//! construction* where one is required, and checks that the left- and
//! right-hand sides of the equivalence produce identical relations. Where the
//! paper exhibits a precondition violation (Law 2 / Figure 5) the test also
//! checks that the violating cases are exactly the ones condition `c1`
//! rejects.

use div_rewrite::laws::small_divide_union::partition_dividend_for_law2;
use div_rewrite::preconditions;
use division::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Random `(a, b)` pairs over a small domain.
fn ab_pairs(max_rows: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..6i64, 0..5i64), 0..max_rows)
}

/// Random `b` values (divisor tuples for the small divide).
fn b_values(max_rows: usize) -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0..5i64, 0..max_rows)
}

/// Random `(b, c)` pairs (great-divide divisors).
fn bc_pairs(max_rows: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..5i64, 0..4i64), 0..max_rows)
}

fn rel_ab(pairs: &[(i64, i64)]) -> Relation {
    Relation::from_rows(["a", "b"], pairs.iter().map(|(a, b)| vec![*a, *b])).unwrap()
}

fn rel_b(values: &[i64]) -> Relation {
    Relation::from_rows(["b"], values.iter().map(|b| vec![*b])).unwrap()
}

fn rel_bc(pairs: &[(i64, i64)]) -> Relation {
    Relation::from_rows(["b", "c"], pairs.iter().map(|(b, c)| vec![*b, *c])).unwrap()
}

fn config() -> ProptestConfig {
    ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Section 5.1.1 — union laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(config())]

    /// Law 1 holds for arbitrary (even overlapping) divisor partitions.
    #[test]
    fn law1_divisor_union(r1 in ab_pairs(24), d1 in b_values(5), d2 in b_values(5)) {
        let r1 = rel_ab(&r1);
        let r2_prime = rel_b(&d1);
        let r2_double = rel_b(&d2);
        let lhs = r1.divide(&r2_prime.union(&r2_double).unwrap()).unwrap();
        let inner = r1.divide(&r2_prime).unwrap();
        let rhs = r1.semi_join(&inner).unwrap().divide(&r2_double).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Law 2 holds whenever condition c1 holds; c2 implies c1.
    #[test]
    fn law2_dividend_union(p1 in ab_pairs(20), p2 in ab_pairs(20), d in b_values(5)) {
        let r1_prime = rel_ab(&p1);
        let r1_double = rel_ab(&p2);
        let r2 = rel_b(&d);
        let c1 = preconditions::c1(&r1_prime, &r1_double, &r2).unwrap();
        let c2 = preconditions::c2(&r1_prime, &r1_double, &r2).unwrap();
        // c2 is the stricter condition.
        if c2 {
            prop_assert!(c1);
        }
        let lhs = r1_prime.union(&r1_double).unwrap().divide(&r2).unwrap();
        let rhs = r1_prime
            .divide(&r2)
            .unwrap()
            .union(&r1_double.divide(&r2).unwrap())
            .unwrap();
        if c1 {
            prop_assert_eq!(lhs, rhs);
        } else {
            // When c1 fails the two sides may differ, but the right-hand side
            // is always a subset of the left (splitting can only lose
            // quotients, never invent them).
            prop_assert!(rhs.is_subset_of(&lhs).unwrap());
        }
    }

    /// Law 2 under the partitioner the optimizer runs: the dividend
    /// branches `partition_dividend_for_law2` builds (ranges of A) satisfy
    /// c2 by construction.
    #[test]
    fn law2_hash_partitioning_always_satisfies_c2(r1 in ab_pairs(30), d in b_values(5)) {
        let mut catalog = Catalog::new();
        catalog.register("r1", rel_ab(&r1));
        catalog.register("r2", rel_b(&d));
        let ctx = RewriteContext::with_catalog(&catalog);
        let partitioned = partition_dividend_for_law2(
            &PlanBuilder::scan("r1").build(),
            &PlanBuilder::scan("r2").build(),
            2,
            &ctx,
        )
        .unwrap();
        // Fewer distinct A values than partitions leave nothing to split.
        if let Some(LogicalPlan::SmallDivide { dividend, .. }) = partitioned {
            let LogicalPlan::Union { left, right } = *dividend else {
                panic!("two partitions are one union, got {dividend}");
            };
            let left = evaluate(&left, &catalog).unwrap();
            let right = evaluate(&right, &catalog).unwrap();
            let r2 = catalog.table("r2").unwrap();
            prop_assert!(preconditions::c2(&left, &right, r2).unwrap());
        }
    }
}

// ---------------------------------------------------------------------------
// Section 5.1.2 — selection laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(config())]

    /// Law 3: σ_{p(A)}(r1 ÷ r2) = σ_{p(A)}(r1) ÷ r2.
    #[test]
    fn law3_selection_pushdown(r1 in ab_pairs(24), d in b_values(5), k in 0..6i64) {
        let r1 = rel_ab(&r1);
        let r2 = rel_b(&d);
        let p = Predicate::cmp_value("a", CompareOp::Lt, k);
        let lhs = r1.divide(&r2).unwrap().select(&p).unwrap();
        let rhs = r1.select(&p).unwrap().divide(&r2).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Law 4: r1 ÷ σ_{p(B)}(r2) = σ_{p(B)}(r1) ÷ σ_{p(B)}(r2).
    ///
    /// The law implicitly assumes the filtered divisor is nonempty: with
    /// σ_{p(B)}(r2) = ∅ the left side degenerates to π_A(r1) while the right
    /// side only keeps the candidates surviving the filter (see DESIGN.md,
    /// "empty-divisor edge cases"). The assumption is made explicit here.
    #[test]
    fn law4_divisor_selection_replication(r1 in ab_pairs(24), d in b_values(6), k in 0..5i64) {
        let r1 = rel_ab(&r1);
        let r2 = rel_b(&d);
        let p = Predicate::cmp_value("b", CompareOp::Lt, k);
        prop_assume!(!r2.select(&p).unwrap().is_empty());
        let lhs = r1.divide(&r2.select(&p).unwrap()).unwrap();
        let rhs = r1
            .select(&p)
            .unwrap()
            .divide(&r2.select(&p).unwrap())
            .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Example 1: σ_{p(B)}(r1) ÷ r2 =
    /// (σ_{p(B)}(r1) ÷ σ_{p(B)}(r2)) − π_A(π_A(r1) × σ_{¬p(B)}(r2)).
    #[test]
    fn example1_dividend_b_selection(r1 in ab_pairs(24), d in b_values(6), k in 0..5i64) {
        let r1 = rel_ab(&r1);
        let r2 = rel_b(&d);
        let p = Predicate::cmp_value("b", CompareOp::Lt, k);
        let lhs = r1.select(&p).unwrap().divide(&r2).unwrap();
        let positive = r1
            .select(&p)
            .unwrap()
            .divide(&r2.select(&p).unwrap())
            .unwrap();
        let switch = r1
            .project(&["a"])
            .unwrap()
            .product(&r2.select(&p.negate()).unwrap())
            .unwrap()
            .project(&["a"])
            .unwrap();
        let rhs = positive.difference(&switch).unwrap();
        prop_assert_eq!(lhs, rhs);
    }
}

// ---------------------------------------------------------------------------
// Sections 5.1.3 / 5.1.4 — intersection and difference laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(config())]

    /// Law 5: (r'1 ∩ r''1) ÷ r2 = (r'1 ÷ r2) ∩ (r''1 ÷ r2).
    ///
    /// Like Law 4, the law needs a nonempty divisor (an empty divisor makes
    /// every quotient candidate qualify on both sides independently, so the
    /// intersection of quotients can exceed the quotient of the intersection).
    #[test]
    fn law5_intersection(p1 in ab_pairs(24), p2 in ab_pairs(24), d in b_values(5)) {
        let r1_prime = rel_ab(&p1);
        let r1_double = rel_ab(&p2);
        let r2 = rel_b(&d);
        prop_assume!(!r2.is_empty());
        let lhs = r1_prime.intersect(&r1_double).unwrap().divide(&r2).unwrap();
        let rhs = r1_prime
            .divide(&r2)
            .unwrap()
            .intersect(&r1_double.divide(&r2).unwrap())
            .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Law 6: nested selections on A (σ_{a<k2} ⊆ σ_{a<k1} for k2 ≤ k1).
    #[test]
    fn law6_difference_of_nested_selections(
        r1 in ab_pairs(24),
        d in b_values(5),
        k1 in 0..7i64,
        delta in 0..7i64,
    ) {
        let r1 = rel_ab(&r1);
        let r2 = rel_b(&d);
        // Nonempty-divisor assumption, as for Laws 4 and 5.
        prop_assume!(!r2.is_empty());
        let k2 = (k1 - delta).max(0);
        let r1_prime = r1.select(&Predicate::cmp_value("a", CompareOp::Lt, k1)).unwrap();
        let r1_double = r1.select(&Predicate::cmp_value("a", CompareOp::Lt, k2)).unwrap();
        prop_assert!(preconditions::subset_of(&r1_double, &r1_prime).unwrap());
        let lhs = r1_prime.difference(&r1_double).unwrap().divide(&r2).unwrap();
        let rhs = r1_prime
            .divide(&r2)
            .unwrap()
            .difference(&r1_double.divide(&r2).unwrap())
            .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Law 7: disjoint quotient prefixes make the subtraction a no-op.
    #[test]
    fn law7_disjoint_difference(p1 in ab_pairs(24), p2 in ab_pairs(24), d in b_values(5)) {
        let r1_prime = rel_ab(&p1);
        // Shift the second partition's A values out of the first one's range.
        let shifted: Vec<(i64, i64)> = p2.iter().map(|(a, b)| (a + 100, *b)).collect();
        let r1_double = rel_ab(&shifted);
        let r2 = rel_b(&d);
        prop_assert!(preconditions::projections_disjoint(&r1_prime, &r1_double, &["a"]).unwrap());
        let lhs = r1_prime
            .divide(&r2)
            .unwrap()
            .difference(&r1_double.divide(&r2).unwrap())
            .unwrap();
        prop_assert_eq!(lhs, r1_prime.divide(&r2).unwrap());
    }
}

// ---------------------------------------------------------------------------
// Section 5.1.5 — Cartesian product laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(config())]

    /// Law 8: (r*1 × r**1) ÷ r2 = r*1 × (r**1 ÷ r2).
    #[test]
    fn law8_product_pushthrough(
        a1 in prop::collection::vec(0..4i64, 0..5),
        inner in ab_pairs(16),
        d in b_values(5),
    ) {
        let r_star = Relation::from_rows(["a1"], a1.iter().map(|a| vec![*a])).unwrap();
        let r_star_star = Relation::from_rows(
            ["a2", "b"],
            inner.iter().map(|(a, b)| vec![*a, *b]),
        )
        .unwrap();
        let r2 = rel_b(&d);
        let lhs = r_star.product(&r_star_star).unwrap().divide(&r2).unwrap();
        let rhs = r_star.product(&r_star_star.divide(&r2).unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Law 9: with π_{B2}(r2) ⊆ r**1 (and r**1 nonempty), the product factor
    /// r**1 and the B2 part of the divisor can be dropped.
    #[test]
    fn law9_product_elimination(
        outer in ab_pairs(16),
        b2_pool in prop::collection::vec(0..3i64, 1..4),
        divisor_raw in prop::collection::vec((0..5i64, 0..3usize), 0..8),
    ) {
        let r_star = Relation::from_rows(
            ["a", "b1"],
            outer.iter().map(|(a, b)| vec![*a, *b]),
        )
        .unwrap();
        let r_star_star =
            Relation::from_rows(["b2"], b2_pool.iter().map(|b| vec![*b])).unwrap();
        // Build r2 so that every b2 value comes from the pool (⊆ r**1).
        let divisor_rows: Vec<Vec<i64>> = divisor_raw
            .iter()
            .map(|(b1, idx)| vec![*b1, b2_pool[idx % b2_pool.len()]])
            .collect();
        let r2 = Relation::from_rows(["b1", "b2"], divisor_rows).unwrap();
        prop_assert!(preconditions::law9_projection_contained(&r_star_star, &r2).unwrap());
        let lhs = r_star.product(&r_star_star).unwrap().divide(&r2).unwrap();
        let rhs = r_star.divide(&r2.project(&["b1"]).unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Example 2: (r1 × s) ÷ (r2 × s) = r1 ÷ r2 for nonempty s.
    #[test]
    fn example2_common_factor(
        r1 in ab_pairs(16),
        d in prop::collection::vec(0..5i64, 0..5),
        s in prop::collection::vec(0..3i64, 1..4),
    ) {
        let r1 = Relation::from_rows(["a", "b1"], r1.iter().map(|(a, b)| vec![*a, *b])).unwrap();
        let r2 = Relation::from_rows(["b1"], d.iter().map(|b| vec![*b])).unwrap();
        let s = Relation::from_rows(["b2"], s.iter().map(|v| vec![*v])).unwrap();
        let lhs = r1
            .product(&s)
            .unwrap()
            .divide(&r2.product(&s).unwrap())
            .unwrap();
        let rhs = r1.divide(&r2).unwrap();
        prop_assert_eq!(lhs, rhs);
    }
}

// ---------------------------------------------------------------------------
// Sections 5.1.6 / 5.1.7 — join and grouping laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(config())]

    /// Law 10: (r1 ÷ r2) ⋉ r3 = (r1 ⋉ r3) ÷ r2 with R3 ⊆ A.
    #[test]
    fn law10_semijoin_commutes(
        r1 in ab_pairs(24),
        d in b_values(5),
        r3 in prop::collection::vec(0..6i64, 0..6),
    ) {
        let r1 = rel_ab(&r1);
        let r2 = rel_b(&d);
        let r3 = Relation::from_rows(["a"], r3.iter().map(|a| vec![*a])).unwrap();
        let lhs = r1.divide(&r2).unwrap().semi_join(&r3).unwrap();
        let rhs = r1.semi_join(&r3).unwrap().divide(&r2).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Law 11: a dividend whose quotient groups are singletons (because it is
    /// an aggregation result) divides according to the three-way case split.
    #[test]
    fn law11_singleton_groups(r0 in ab_pairs(24), d in prop::collection::vec(0..30i64, 0..4)) {
        let r0 = Relation::from_rows(["a", "x"], r0.iter().map(|(a, x)| vec![*a, *x])).unwrap();
        let r1 = r0
            .group_aggregate(&["a"], &[AggregateCall::sum("x", "b")])
            .unwrap();
        let r2 = rel_b(&d);
        let expected = r1.divide(&r2).unwrap();
        let by_law = match r2.len() {
            0 => r1.project(&["a"]).unwrap(),
            1 => r1.semi_join(&r2).unwrap().project(&["a"]).unwrap(),
            _ => Relation::empty(Schema::of(["a"])),
        };
        prop_assert_eq!(expected, by_law);
    }

    /// Law 12: a dividend whose divisor-attribute groups are singletons, with
    /// the divisor referencing the dividend, divides to π_A(r1 ⋉ r2) when that
    /// projection is a single tuple and to ∅ otherwise.
    #[test]
    fn law12_singleton_divisor_groups(
        r0 in ab_pairs(24),
        pick in prop::collection::vec(0..10usize, 0..4),
    ) {
        let r0 = Relation::from_rows(["x", "b"], r0.iter().map(|(x, b)| vec![*x, *b])).unwrap();
        let r1 = r0
            .group_aggregate(&["b"], &[AggregateCall::sum("x", "a")])
            .unwrap();
        // Build a divisor that references existing dividend B values only.
        let b_values: Vec<Value> = r1.column("b").unwrap().into_iter().collect();
        prop_assume!(!b_values.is_empty());
        let rows: Vec<Vec<Value>> = pick
            .iter()
            .map(|i| vec![b_values[i % b_values.len()].clone()])
            .collect();
        let r2 = Relation::from_rows(["b"], rows).unwrap();
        prop_assume!(!r2.is_empty());
        prop_assert!(preconditions::divisor_references_dividend(&r1, &r2).unwrap());
        let expected = r1.divide(&r2).unwrap();
        let projected = r1.semi_join(&r2).unwrap().project(&["a"]).unwrap();
        let by_law = if projected.len() == 1 {
            projected
        } else {
            Relation::empty(Schema::of(["a"]))
        };
        prop_assert_eq!(expected, by_law);
    }
}

// ---------------------------------------------------------------------------
// Section 5.2 — great divide laws
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(config())]

    /// Law 13: divisor partitions with disjoint group values divide
    /// independently.
    #[test]
    fn law13_divisor_union(r1 in ab_pairs(24), d1 in bc_pairs(8), d2 in bc_pairs(8)) {
        let r1 = rel_ab(&r1);
        let r2_prime = rel_bc(&d1);
        // Shift the second partition's C values to force disjointness.
        let shifted: Vec<(i64, i64)> = d2.iter().map(|(b, c)| (*b, c + 100)).collect();
        let r2_double = rel_bc(&shifted);
        prop_assert!(
            preconditions::projections_disjoint(&r2_prime, &r2_double, &["c"]).unwrap()
        );
        let lhs = r1.great_divide(&r2_prime.union(&r2_double).unwrap()).unwrap();
        let rhs = r1
            .great_divide(&r2_prime)
            .unwrap()
            .union(&r1.great_divide(&r2_double).unwrap())
            .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Law 14: σ_{p(A)} pushes into the dividend of a great divide.
    #[test]
    fn law14_selection_pushdown_quotient(r1 in ab_pairs(24), d in bc_pairs(10), k in 0..6i64) {
        let r1 = rel_ab(&r1);
        let r2 = rel_bc(&d);
        let p = Predicate::cmp_value("a", CompareOp::Lt, k);
        let lhs = r1.great_divide(&r2).unwrap().select(&p).unwrap();
        let rhs = r1.select(&p).unwrap().great_divide(&r2).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Law 15: σ_{p(C)} pushes into the divisor of a great divide.
    #[test]
    fn law15_selection_pushdown_group(r1 in ab_pairs(24), d in bc_pairs(10), k in 0..4i64) {
        let r1 = rel_ab(&r1);
        let r2 = rel_bc(&d);
        let p = Predicate::cmp_value("c", CompareOp::Lt, k);
        let lhs = r1.great_divide(&r2).unwrap().select(&p).unwrap();
        let rhs = r1.great_divide(&r2.select(&p).unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Law 16: a divisor filter on the shared attributes replicates to the
    /// dividend.
    #[test]
    fn law16_divisor_selection_replication(r1 in ab_pairs(24), d in bc_pairs(10), k in 0..5i64) {
        let r1 = rel_ab(&r1);
        let r2 = rel_bc(&d);
        let p = Predicate::cmp_value("b", CompareOp::Lt, k);
        // Unlike Law 4, the great divide evaluates per divisor *group*; empty
        // groups simply disappear, so no extra assumption is needed — but an
        // entirely empty filtered divisor is still the degenerate case.
        prop_assume!(!r2.select(&p).unwrap().is_empty());
        let lhs = r1.great_divide(&r2.select(&p).unwrap()).unwrap();
        let rhs = r1
            .select(&p)
            .unwrap()
            .great_divide(&r2.select(&p).unwrap())
            .unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    /// Law 17: (r*1 × r**1) ÷* r2 = r*1 × (r**1 ÷* r2).
    #[test]
    fn law17_product_pushthrough(
        a1 in prop::collection::vec(0..4i64, 0..4),
        inner in ab_pairs(16),
        d in bc_pairs(8),
    ) {
        let r_star = Relation::from_rows(["a1"], a1.iter().map(|a| vec![*a])).unwrap();
        let r_star_star = rel_ab(&inner);
        let r2 = rel_bc(&d);
        let lhs = r_star
            .product(&r_star_star)
            .unwrap()
            .great_divide(&r2)
            .unwrap();
        let rhs = r_star
            .product(&r_star_star.great_divide(&r2).unwrap())
            .unwrap();
        prop_assert_eq!(lhs.conform_to(rhs.schema()).unwrap(), rhs);
    }

    /// Example 4: a selective equi-join against the quotient can be pushed
    /// into the dividend.
    #[test]
    fn example4_join_push_in(
        outer in prop::collection::vec(0..6i64, 0..5),
        inner in ab_pairs(20),
        d in bc_pairs(8),
    ) {
        let r_star = Relation::from_rows(["a1"], outer.iter().map(|a| vec![*a])).unwrap();
        let r_star_star = rel_ab(&inner);
        let r2 = rel_bc(&d);
        let join = Predicate::eq_attrs("a1", "a");
        let lhs = r_star
            .theta_join(&r_star_star.great_divide(&r2).unwrap(), &join)
            .unwrap();
        let rhs = r_star
            .theta_join(&r_star_star, &join)
            .unwrap()
            .great_divide(&r2)
            .unwrap();
        prop_assert_eq!(lhs.conform_to(rhs.schema()).unwrap(), rhs);
    }
}

// ---------------------------------------------------------------------------
// The rewrite engine preserves semantics on randomly generated catalogs.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn rewrite_engine_preserves_q2_semantics(
        r1 in ab_pairs(30),
        d in b_values(6),
        k in 0..6i64,
    ) {
        let mut catalog = Catalog::new();
        catalog.register("r1", rel_ab(&r1));
        catalog.register("r2", rel_b(&d));
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .select(Predicate::cmp_value("a", CompareOp::Lt, k))
            .build();
        let engine = RewriteEngine::with_default_rules();
        let ctx = RewriteContext::with_catalog(&catalog);
        let outcome = engine.rewrite(&plan, &ctx).unwrap();
        let report = plans_equivalent_on(&plan, &outcome.plan, &catalog).unwrap();
        prop_assert!(report.equivalent, "{}", report.describe());
    }

    #[test]
    fn rewrite_engine_preserves_great_divide_semantics(
        r1 in ab_pairs(30),
        d in bc_pairs(10),
        k in 0..4i64,
    ) {
        let mut catalog = Catalog::new();
        catalog.register("r1", rel_ab(&r1));
        catalog.register("r2", rel_bc(&d));
        let plan = PlanBuilder::scan("r1")
            .great_divide(PlanBuilder::scan("r2"))
            .select(Predicate::cmp_value("c", CompareOp::Lt, k))
            .select(Predicate::cmp_value("a", CompareOp::Gt, 0))
            .build();
        let engine = RewriteEngine::with_default_rules();
        let ctx = RewriteContext::with_catalog(&catalog);
        let outcome = engine.rewrite(&plan, &ctx).unwrap();
        let report = plans_equivalent_on(&plan, &outcome.plan, &catalog).unwrap();
        prop_assert!(report.equivalent, "{}", report.describe());
    }
}
