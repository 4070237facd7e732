//! The paper's complexity claims as exact counts. Sections 1.1 and 6 ask
//! for a division operator because every basic-algebra formulation of
//! division builds a quadratic intermediate (Leinders & Van den Bussche
//! 2005), while hash-division (Graefe 1989) stays linear; Section 5 offers
//! its laws as rewrites that save work. Every test runs plans on the
//! streaming executor with the optimizer off, checks each result against the
//! reference evaluator and pins the exact [`ExecStats`] counts at four sizes:
//! the growth a claim predicts is asserted, or LAWS.md records its absence.

use div_datagen::baskets::{self, BasketConfig};
use div_datagen::scenarios::{generate, ScenarioConfig, ScenarioFamily};
use div_datagen::{
    division_workload, great_divide_workload, sparse_division_workload, suppliers_parts_catalog,
};
use div_mining::support::candidates_to_relation;
use div_physical::{merge, ExecStats};
use div_rewrite::laws::examples::example3_derivation;
use div_rewrite::laws::great_divide::{
    Example4JoinPushIn, Law14SelectionPushdownQuotient, Law15SelectionPushdownGroup,
};
use div_rewrite::laws::small_divide_grouping::Law11SingleTupleGroups;
use div_rewrite::laws::small_divide_product::Law9ProductElimination;
use div_rewrite::laws::small_divide_set_ops::Law7DisjointDifference;
use div_rewrite::laws::small_divide_union::Law1DivisorUnionToPipeline;
use div_rewrite::rule::RewriteRule;
use division::prelude::*;
use pins::*;
use std::collections::BTreeMap;

/// `(intermediate_tuples, max_intermediate, probes, rows_scanned,
/// output_rows)` of one run.
type Counts = (usize, usize, usize, usize, usize);

/// Drain `plan` over `catalog` on the streaming executor, check its result
/// against the reference evaluator, and return its statistics and result.
fn run(plan: &LogicalPlan, catalog: &Catalog) -> (ExecStats, Relation) {
    let mut stream = StreamExecutor::new(plan, catalog, &PlannerConfig::default()).unwrap();
    let mut rows = Vec::new();
    while let Some(batch) = stream.next_batch().unwrap() {
        rows.extend((0..batch.num_rows()).map(|i| batch.row(i)));
    }
    let result = Relation::new(stream.schema().clone(), rows).unwrap();
    let expected = evaluate(plan, catalog).unwrap();
    assert_eq!(result.conform_to(expected.schema()).unwrap(), expected);
    (stream.finish(), expected)
}

fn counts(s: &ExecStats) -> Counts {
    let (intermediate, max, probes) = (s.intermediate_tuples, s.max_intermediate, s.probes);
    (intermediate, max, probes, s.rows_scanned, s.output_rows)
}

/// Per size, the counts of the two forms of one query that `case` builds
/// (catalog, before, after); both must return the same relation.
fn sweep<const N: usize>(
    sizes: [usize; N],
    case: impl Fn(usize) -> (Catalog, LogicalPlan, LogicalPlan),
) -> Vec<(Counts, Counts)> {
    let pair = |size| {
        let (catalog, before, after) = case(size);
        let (left, right) = (run(&before, &catalog), run(&after, &catalog));
        assert_eq!(left.1.conform_to(right.1.schema()).unwrap(), right.1);
        (counts(&left.0), counts(&right.0))
    };
    sizes.map(pair).into()
}

/// `rule`'s rewrite of `plan`'s root, with data access.
fn rewrite(rule: &dyn RewriteRule, plan: &LogicalPlan, catalog: &Catalog) -> LogicalPlan {
    let ctx = RewriteContext::with_catalog(catalog);
    rule.apply(plan, &ctx).unwrap().expect("the law applies")
}

fn rel<const N: usize>(names: [&str; N], rows: impl IntoIterator<Item = Vec<i64>>) -> Relation {
    Relation::from_rows(names, rows).unwrap()
}

/// `r*1(a, b1)` of Figures 8 and 9, scaled: `outer` values of `a`, each
/// paired with the `b1 < width` where `a + b1` is not a multiple of 3.
fn r_star(outer: i64, width: i64) -> Relation {
    let rows = (0..outer).flat_map(|a| (0..width).map(move |b1| vec![a, b1]));
    rel(["a", "b1"], rows.filter(|r| (r[0] + r[1]) % 3 != 0))
}

fn catalog<const N: usize>(tables: [(&str, Relation); N]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, relation) in tables {
        catalog.register(name, relation);
    }
    catalog
}

/// Least-squares slope of `ln y` over `ln x`, asserted within 0.05 of
/// `want`.
fn assert_exponent(x: &[usize], y: &[usize], want: f64) {
    let ln = |v: &[usize]| -> Vec<f64> { v.iter().map(|&v| (v as f64).ln()).collect() };
    let (lx, ly) = (ln(x), ln(y));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mx, my) = (mean(&lx), mean(&ly));
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = cov / lx.iter().map(|x| (x - mx).powi(2)).sum::<f64>();
    assert!(
        (slope - want).abs() <= 0.05,
        "exponent {slope:.3}, want {want} ± 0.05: {x:?} → {y:?}"
    );
}

/// The division algorithm family over `r1 ÷ r2` with `|r2| = k`:
/// hash-division, counting division and the two simulations (by difference,
/// by anti-join).
fn algorithms(k: usize) -> [LogicalPlan; 4] {
    let (r, s) = (|| PlanBuilder::scan("r1"), || PlanBuilder::scan("r2"));
    [
        r().divide(s()),
        r().counting_plan(s(), &["a"], &["b"], k),
        r().difference_plan(s(), &["a"], &["b"]),
        r().anti_join_plan(s(), &["a"]),
    ]
    .map(PlanBuilder::build)
}

/// The division algorithm family over each workload, after merge-sort
/// division is checked for the same quotient: `|r1|` per size and the
/// counts plan by plan.
fn family(workloads: impl IntoIterator<Item = (Relation, Relation)>) -> (Vec<usize>, Vec<Counts>) {
    let (mut sizes, mut table) = (Vec::new(), vec![Vec::new(); 4]);
    for (r1, r2) in workloads {
        assert_eq!(merge::divide(&r1, &r2).unwrap(), r1.divide(&r2).unwrap());
        let plans = algorithms(r2.len());
        sizes.push(r1.len());
        let catalog = catalog([("r1", r1), ("r2", r2)]);
        for (column, plan) in table.iter_mut().zip(plans) {
            column.push(counts(&run(&plan, &catalog).0));
        }
    }
    (sizes, table.concat())
}

fn column<T>(table: &[T], field: impl Fn(&T) -> usize) -> Vec<usize> {
    table.iter().map(field).collect()
}

#[test]
fn the_simulations_are_quadratic_on_a_sparse_dividend_and_the_operators_linear() {
    // Two items per group and |r2| = groups / 4: |π_A(r1) × r2| grows with
    // the square of |r1| = 2 · groups.
    let (r1, table) = family([100, 200, 400, 800].map(|g| sparse_division_workload(g, g / 4)));
    assert_eq!(table, SPARSE);
    // Hash-division builds no intermediate and probes once per row of r1.
    assert_eq!(column(&table[0..4], |c| c.0 + c.1), [0; 4]);
    assert_eq!(column(&table[0..4], |c| c.2), r1);
    assert_exponent(&r1, &column(&table[4..8], |c| c.1), 1.0);
    for simulation in [&table[8..12], &table[12..16]] {
        assert_exponent(&r1, &column(simulation, |c| c.1), 2.0);
    }
}

#[test]
fn every_division_algorithm_is_linear_on_a_dense_dividend() {
    // `division_workload` gives every group at least half of the divisor,
    // so |π_A(r1) × r2| stays within twice |r1|: no plan is quadratic.
    let (r1, table) = family([100, 200, 400, 800].map(|g| division_workload(g, 16, 3)));
    assert_eq!(table, DENSE);
    assert_exponent(&r1, &column(&table[0..4], |c| c.2), 1.0);
    for plan in table[4..].chunks(4) {
        assert_exponent(&r1, &column(plan, |c| c.1), 1.0);
    }
}

#[test]
fn all_algorithms_agree_on_synthetic_workloads() {
    for (groups, items) in [(1, 1), (5, 4), (20, 7), (33, 10)] {
        let (r1, r2) = division_workload(groups, items, 3);
        let expected = r1.divide(&r2).unwrap();
        let plans = algorithms(r2.len());
        let c = catalog([("r1", r1), ("r2", r2)]);
        for plan in plans {
            assert_eq!(evaluate(&plan, &c).unwrap(), expected, "{plan}");
        }
    }
}

#[test]
fn simulation_produces_more_intermediate_tuples_than_hash_division() {
    let (r1, r2) = division_workload(60, 12, 3);
    let [native, _, simulated, _] = algorithms(r2.len());
    let c = catalog([("r1", r1), ("r2", r2)]);
    let (_, native) = div_expr::evaluate_with_stats(&native, &c).unwrap();
    let (_, simulated) = div_expr::evaluate_with_stats(&simulated, &c).unwrap();
    // The simulation's π_A(r1) × r2 step alone is |A-groups| · |r2|.
    assert_eq!(simulated.max_intermediate, 60 * 12);
    assert!(simulated.intermediate_tuples > 10 * native.intermediate_tuples.max(1));
}

#[test]
fn law1_pipelines_a_divisor_union() {
    let table = sweep([150, 300, 600, 1_200], |groups| {
        let (r1, r2) = division_workload(groups as i64, 24, 4);
        let parts = div_datagen::partition::round_robin_partition(&r2, 2).unwrap();
        let [p1, p2] = <[Relation; 2]>::try_from(parts).unwrap();
        let c = catalog([("r1", r1), ("p1", p1), ("p2", p2)]);
        let divisor = PlanBuilder::scan("p1").union(PlanBuilder::scan("p2"));
        let before = PlanBuilder::scan("r1").divide(divisor).build();
        let after = rewrite(&Law1DivisorUnionToPipeline, &before, &c);
        (c, before, after)
    });
    assert_eq!(table, LAW01);
    // Every group holds the even items, the first round-robin part, so the
    // semi-join keeps all of r1 (hash-division probes once per row of r1).
    assert!(table.iter().all(|(before, after)| after.1 == before.2));
}

#[test]
fn law7_drops_the_second_division_and_its_scan() {
    let groups = [1_000, 2_000, 4_000, 8_000];
    let table = sweep(groups, |groups| {
        let (r1, r2) = division_workload(groups as i64, 16, 3);
        let c = catalog([("r1", r1), ("r2", r2)]);
        let side = |op, split: i64| {
            PlanBuilder::scan("r1")
                .select(Predicate::cmp_value("a", op, split))
                .divide(PlanBuilder::scan("r2"))
        };
        let before = side(CompareOp::LtEq, 10)
            .difference(side(CompareOp::Gt, 10))
            .build();
        let after = rewrite(&Law7DisjointDifference, &before, &c);
        (c, before, after)
    });
    assert_eq!(table, LAW07);
    // Both divisions read all of r1; the one kept reads one chunk of r1
    // (zone maps skip the rest) and r2, at every size.
    assert_exponent(&groups, &column(&table, |(before, _)| before.3), 1.0);
    assert!(table.iter().all(|(_, after)| after.3 == 1_040));
}

#[test]
fn law9_eliminates_the_product_factor() {
    let outer = [50, 100, 200, 400];
    let table = sweep(outer, |outer| {
        let (outer, factor) = (outer as i64, outer as i64 / 10);
        let r2 = (0..4).flat_map(|b1| (0..factor).map(move |b2| vec![b1 * 2, b2]));
        let c = catalog([
            ("r_star", r_star(outer, 8)),
            ("r_star_star", rel(["b2"], (0..factor).map(|b2| vec![b2]))),
            ("r2", rel(["b1", "b2"], r2)),
        ]);
        let before = PlanBuilder::scan("r_star")
            .product(PlanBuilder::scan("r_star_star"))
            .divide(PlanBuilder::scan("r2"))
            .build();
        let after = rewrite(&Law9ProductElimination, &before, &c);
        (c, before, after)
    });
    assert_eq!(table, LAW09);
    // The product holds |r*1| · |r**1| rows: quadratic when both double.
    assert_exponent(&outer, &column(&table, |(before, _)| before.1), 2.0);
    assert_exponent(&outer, &column(&table, |(_, after)| after.2), 1.0);
}

#[test]
fn law11_turns_a_division_of_singleton_groups_into_a_semi_join() {
    let table = sweep([1_000, 2_000, 4_000, 8_000], |groups| {
        // Σx per group is 6 + 4 · (a mod 7): the divisor {6} keeps a ≡ 0 (mod 7).
        let r0 = (0..groups as i64).flat_map(|a| (0..4).map(move |x| vec![a, x + a % 7]));
        let c = catalog([("r0", rel(["a", "x"], r0)), ("r2", rel(["b"], [vec![6]]))]);
        let before = PlanBuilder::scan("r0")
            .group_aggregate(["a"], [AggregateCall::sum("x", "b")])
            .divide(PlanBuilder::scan("r2"))
            .build();
        let after = rewrite(&Law11SingleTupleGroups, &before, &c);
        (c, before, after)
    });
    assert_eq!(table, LAW11);
}

#[test]
fn laws_14_and_15_push_selections_below_the_great_divide() {
    let pushed = |rule: &'static dyn RewriteRule, attribute: &'static str| {
        move |keep: usize| {
            let (r1, r2) = great_divide_workload(800, 20, 48, 6);
            let c = catalog([("r1", r1), ("r2", r2)]);
            let before = PlanBuilder::scan("r1")
                .great_divide(PlanBuilder::scan("r2"))
                .select(Predicate::cmp_value(attribute, CompareOp::Lt, keep as i64))
                .build();
            let after = rewrite(rule, &before, &c);
            (c, before, after)
        }
    };
    let keep = [6, 12, 24, 48];
    let law15 = sweep(keep, pushed(&Law15SelectionPushdownGroup, "c"));
    assert_eq!(law15, LAW15);
    // Unpushed, the whole quotient is an intermediate; pushed into the
    // divisor, only the selected groups' quotient is.
    assert_exponent(&keep, &column(&law15, |(_, after)| after.1), 1.0);
    let quotient = [100, 200, 400, 800];
    let law14 = sweep(quotient, pushed(&Law14SelectionPushdownQuotient, "a"));
    assert_eq!(law14, LAW14);
}

#[test]
fn example3_removes_the_theta_join_from_the_dividend() {
    let table = sweep([200, 400, 800, 1_600], |outer| {
        let c = catalog([
            ("r_star", r_star(outer as i64, 10)),
            ("r_star_star", rel(["b2"], (0..12).map(|b2| vec![b2]))),
            ("r2", rel(["b1", "b2"], (0..6).map(|i| vec![i, i * 2 % 12]))),
        ]);
        let scan = |name| PlanBuilder::scan(name).build();
        let ctx = RewriteContext::with_catalog(&c);
        let mut steps =
            example3_derivation(&scan("r_star"), &scan("r_star_star"), &scan("r2"), &ctx).unwrap();
        let after = steps.pop().unwrap().plan;
        (c, steps.swap_remove(0).plan, after)
    });
    assert_eq!(table, EXAMPLE3);
}

#[test]
fn example4_pushes_a_selective_join_into_the_great_divide() {
    let outer = [5, 10, 20, 40];
    let table = sweep(outer, |outer| {
        let (r1, r2) = great_divide_workload(200, 20, 32, 6);
        let outer = rel(["a1"], (0..outer as i64).map(|a| vec![a * 2]));
        let c = catalog([("outer", outer), ("r1", r1), ("r2", r2)]);
        let before = PlanBuilder::scan("outer")
            .theta_join(
                PlanBuilder::scan("r1").great_divide(PlanBuilder::scan("r2")),
                Predicate::eq_attrs("a1", "a"),
            )
            .build();
        let after = rewrite(&Example4JoinPushIn, &before, &c);
        (c, before, after)
    });
    assert_eq!(table, EXAMPLE4);
    // Above the divide the join waits for the whole quotient; pushed in, the
    // divide's output grows with the outer relation.
    assert_exponent(&outer, &column(&table, |(_, after)| after.1), 1.0);
}

#[test]
fn the_optimizer_keeps_the_scenario_divisions() {
    // The small and then the great divide per entity count: no law applies to
    // a bare division of two tables, so `optimize` keeps the translated plan,
    // and the three families, generated alike, count alike.
    for family in ScenarioFamily::ALL {
        let mut table = Vec::new();
        for entities in [100, 200, 400, 800] {
            let data = generate(&ScenarioConfig {
                family,
                entities,
                null_density: 0.02,
                ..Default::default()
            });
            let c = data.catalog();
            for sql in [data.small_divide_sql(), data.great_divide_sql()] {
                let plan = translate_query(&parse_query(&sql).unwrap(), &c).unwrap();
                let ctx = RewriteContext::with_catalog(&c);
                assert_eq!(Optimizer::new().optimize(&plan, &ctx).unwrap().plan, plan);
                table.push(counts(&run(&plan, &c).0));
            }
        }
        assert_eq!(table, SCENARIOS, "{}", family.name());
    }
}

#[test]
fn frequent_itemset_support_is_one_great_divide_instead_of_a_scan_per_candidate() {
    // Every pair of the ten most popular items is a candidate.
    let pairs = (0..10).flat_map(|x| (x + 1..10).map(move |y| vec![x, y]));
    let candidates: BTreeMap<i64, Vec<i64>> = (0..).zip(pairs).collect();
    let mut table = Vec::new();
    for transactions in [125, 250, 500, 1_000] {
        let data = baskets::generate(&BasketConfig {
            transactions,
            ..Default::default()
        });
        let c = catalog([
            ("transactions", data.transactions),
            ("candidates", candidates_to_relation(&candidates).unwrap()),
        ]);
        // Before: one small divide per candidate, each a scan of the
        // transactions; its quotient's size is the candidate's support.
        let (mut before, mut supports) = (ExecStats::default(), Vec::new());
        for (id, items) in &candidates {
            let items = rel(["item"], items.iter().map(|i| vec![*i]));
            let plan = PlanBuilder::scan("transactions").divide(PlanBuilder::values(items));
            let (stats, _) = run(&plan.build(), &c);
            supports.push(vec![*id, stats.output_rows as i64]);
            before.merge(&stats);
        }
        // After: Section 3's one great divide and group count.
        let after = PlanBuilder::scan("transactions")
            .great_divide(PlanBuilder::scan("candidates"))
            .group_aggregate(["itemset"], [AggregateCall::count("tid", "n")])
            .build();
        let (stats, result) = run(&after, &c);
        assert_eq!(result, rel(["itemset", "n"], supports));
        table.push((counts(&before), counts(&stats)));
    }
    assert_eq!(table, FREQUENT_ITEMSETS);
    // Each candidate's divide scans all the transactions (and its two
    // items); the great divide scans them once, with the 90 candidate rows.
    for (before, after) in &table {
        assert_eq!(before.3 - 90, 45 * (after.3 - 90));
    }
}

#[test]
fn divide_by_against_the_double_not_exists_simulation() {
    // Q3's double NOT EXISTS as a system without division runs it: every
    // (supplier, part) pair, less those supplied, projected to the
    // (supplier, color) pairs it disqualifies. Parts grow with suppliers.
    let table = sweep([50, 100, 200, 400], |suppliers| {
        let c = suppliers_parts_catalog(suppliers, 3 * suppliers / 10, 0.55);
        let q1 = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#";
        let divide_by = translate_query(&parse_query(q1).unwrap(), &c).unwrap();
        let suppliers = || PlanBuilder::scan("supplies").project(["s#"]);
        let missing = suppliers()
            .product(PlanBuilder::scan("parts"))
            .anti_semi_join(PlanBuilder::scan("supplies"))
            .project(["s#", "color"]);
        let not_exists = suppliers()
            .product(PlanBuilder::scan("parts").project(["color"]))
            .anti_semi_join(missing)
            .build();
        (c, not_exists, divide_by)
    });
    assert_eq!(table, NOT_EXISTS);
    // |supplies| is a fixed share of all pairs, so the simulation's product,
    // suppliers × parts, is linear in the input it reads, as is DIVIDE BY.
    let input = column(&table, |(_, after)| after.3);
    assert_exponent(&input, &column(&table, |(before, _)| before.1), 1.0);
    assert_exponent(&input, &column(&table, |(_, after)| after.2), 1.0);
}

/// The pinned counts, size by size; a family table lists hash-division,
/// counting division and the two simulations in turn.
#[rustfmt::skip]
mod pins {
    use super::Counts;

    pub const SPARSE: &[Counts] = &[
        (0, 0, 200, 225, 0), (0, 0, 400, 450, 0),
        (0, 0, 800, 900, 0), (0, 0, 1600, 1800, 0),
        (300, 200, 200, 225, 0), (600, 400, 400, 450, 0),
        (1200, 800, 800, 900, 0), (2400, 1600, 1600, 1800, 0),
        (5300, 2500, 5100, 625, 0), (20600, 10000, 20200, 1250, 0),
        (81200, 40000, 80400, 2500, 0), (322400, 160000, 320800, 5000, 0),
        (5100, 2500, 5100, 625, 0), (20200, 10000, 20200, 1250, 0),
        (80400, 40000, 80400, 2500, 0), (320800, 160000, 320800, 5000, 0),
    ];
    pub const DENSE: &[Counts] = &[
        (0, 0, 1072, 1088, 34), (0, 0, 2136, 2152, 67),
        (0, 0, 4272, 4288, 134), (0, 0, 8536, 8552, 267),
        (1206, 1072, 1072, 1088, 34), (2403, 2136, 2136, 2152, 67),
        (4806, 4272, 4272, 4288, 134), (9603, 8536, 8536, 8552, 267),
        (3466, 1600, 3300, 3232, 34), (6933, 3200, 6600, 6424, 67),
        (13866, 6400, 13200, 12832, 134), (27733, 12800, 26400, 25624, 267),
        (2394, 1600, 3300, 3232, 34), (4797, 3200, 6600, 6424, 67),
        (9594, 6400, 13200, 12832, 134), (19197, 12800, 26400, 25624, 267),
    ];
    pub const LAW01: &[(Counts, Counts)] = &[
        ((24, 24, 2256, 2280, 38), (2406, 2256, 6768, 4536, 38)),
        ((24, 24, 4500, 4524, 75), (4800, 4500, 13500, 9024, 75)),
        ((24, 24, 9000, 9024, 150), (9600, 9000, 27000, 18024, 150)),
        ((24, 24, 18000, 18024, 300), (19200, 18000, 54000, 36024, 300)),
    ];
    pub const LAW07: &[(Counts, Counts)] = &[
        ((11006, 10552, 10676, 11728, 4), (120, 120, 120, 1040, 4)),
        ((22003, 21216, 21340, 22392, 4), (120, 120, 120, 1040, 4)),
        ((44006, 42552, 42676, 43728, 4), (120, 120, 120, 1040, 4)),
        ((88003, 85216, 85340, 86392, 4), (120, 120, 120, 1040, 4)),
    ];
    pub const LAW09: &[(Counts, Counts)] = &[
        ((1335, 1335, 2670, 292, 0), (4, 4, 267, 287, 0)),
        ((5330, 5330, 10660, 583, 0), (4, 4, 533, 573, 0)),
        ((21340, 21340, 42680, 1167, 0), (4, 4, 1067, 1147, 0)),
        ((85320, 85320, 170640, 2333, 0), (4, 4, 2133, 2293, 0)),
    ];
    pub const LAW11: &[(Counts, Counts)] = &[
        ((1000, 1000, 1000, 4001, 143), (1143, 1000, 1000, 4001, 143)),
        ((2000, 2000, 2000, 8001, 286), (2286, 2000, 2000, 8001, 286)),
        ((4000, 4000, 4000, 16001, 572), (4572, 4000, 4000, 16001, 572)),
        ((8000, 8000, 8000, 32001, 1143), (9143, 8000, 8000, 32001, 1143)),
    ];
    pub const LAW14: &[(Counts, Counts)] = &[
        ((25608, 25608, 10670, 10958, 3216), (1340, 1340, 1340, 2336, 3216)),
        ((25608, 25608, 10670, 10958, 6408), (2670, 2670, 2670, 3360, 6408)),
        ((25608, 25608, 10670, 10958, 12816), (5340, 5340, 5340, 6432, 12816)),
        ((25608, 25608, 10670, 10958, 25608), (10670, 10670, 10670, 10958, 25608)),
    ];
    pub const LAW15: &[(Counts, Counts)] = &[
        ((25608, 25608, 10670, 10958, 3201), (36, 36, 10670, 10958, 3201)),
        ((25608, 25608, 10670, 10958, 6402), (72, 72, 10670, 10958, 6402)),
        ((25608, 25608, 10670, 10958, 12804), (144, 144, 10670, 10958, 12804)),
        ((25608, 25608, 10670, 10958, 25608), (288, 288, 10670, 10958, 25608)),
    ];
    pub const EXAMPLE3: &[(Counts, Counts)] = &[
        ((8666, 8666, 24662, 1351, 0), (611, 200, 1533, 2678, 0)),
        ((17329, 17329, 49321, 2684, 0), (1211, 400, 3066, 5344, 0)),
        ((34666, 34666, 98662, 5351, 0), (2411, 800, 6133, 10678, 0)),
        ((69329, 69329, 197321, 10684, 0), (4811, 1600, 12266, 21344, 0)),
    ];
    pub const EXAMPLE4: &[(Counts, Counts)] = &[
        ((4272, 4272, 24030, 2867, 112), (70, 70, 13420, 2867, 112)),
        ((4272, 4272, 45390, 2872, 224), (140, 140, 26840, 2872, 224)),
        ((4272, 4272, 88110, 2882, 432), (270, 270, 53670, 2882, 432)),
        ((4272, 4272, 173550, 2902, 864), (540, 540, 107340, 2902, 864)),
    ];
    pub const SCENARIOS: &[Counts] = &[
        (13, 13, 626, 631, 13), (32, 32, 626, 643, 32),
        (27, 27, 1256, 1261, 27), (62, 62, 1256, 1276, 62),
        (51, 51, 2477, 2482, 51), (123, 123, 2477, 2494, 123),
        (100, 100, 4916, 4921, 100), (331, 331, 4916, 4931, 331),
    ];
    pub const FREQUENT_ITEMSETS: &[(Counts, Counts)] = &[
        ((0, 0, 50985, 51075, 1814), (1814, 1814, 1133, 1223, 45)),
        ((0, 0, 101790, 101880, 3393), (3393, 3393, 2262, 2352, 45)),
        ((0, 0, 189450, 189540, 6154), (6154, 6154, 4210, 4300, 45)),
        ((0, 0, 383220, 383310, 12372), (12372, 12372, 8516, 8606, 45)),
    ];
    pub const NOT_EXISTS: &[(Counts, Counts)] = &[
        ((1544, 750, 1900, 1314, 32), (32, 32, 428, 443, 32)),
        ((5281, 3000, 6800, 5163, 22), (22, 22, 1701, 1731, 22)),
        ((19050, 12000, 25600, 20862, 40), (40, 40, 6914, 6974, 40)),
        ((72322, 48000, 99200, 83046, 80), (80, 80, 27602, 27722, 80)),
    ];
}
