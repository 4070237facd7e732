//! Every rewrite rule, checked over every small database.
//!
//! The paper calls two plans a law when they "describe the same set of
//! tuples for every possible database content" (Section 1.1). For each shape
//! of the law registry ([`laws::law_cases`]) this suite enumerates every
//! database over the shape's distinct scanned tables on a small int domain,
//! and on each one runs [`laws::check_rewrites`], the check the golden
//! runner uses too: every rewrite [`Optimizer::rewrites`] yields must differ
//! from the plan and evaluate to the plan's result, both with data access
//! and without it ([`RewriteContext::with_metadata_only`]); and the plan
//! [`Optimizer::optimize`] keeps with data access, the engine's context, must
//! evaluate to it too. Empty and singleton relations are in every
//! enumeration by construction.
//!
//! Each attribute's domain puts a value on each side of every constant the
//! shape compares it with (`a > 1` and `a > 9` give `{1, 5, 10}`); an
//! attribute compared with no constant takes `{1, 3}`. The `pins!` table
//! fixes, per shape, how many databases there are, on how many of them the
//! shape's own rule fires (so a precondition that weakens or tightens moves
//! a count), on how many `optimize` changes the plan, and whether the rule
//! fires without data access (on every database or on none). Then the
//! executor half: each scanned table emptied in turn, the others from the
//! registry catalog, down every [`oracle::STRATEGIES`] row, so the
//! optimizer-on rows run rewritten plans over empty inputs.
//!
//! The tests at the end enumerate databases the same way for what has no
//! registry shape: Example 1's plan constructor, Law 2's preconditions `c1`
//! and `c2` and its partitioner, and `optimize` on a great divide under two
//! selections. `tests/law_properties.rs` checks each law's equation on
//! random catalogs larger than the enumeration. `tests/mutants.toml` lists
//! the broken rules and preconditions this file must catch
//! (`scripts/mutation_check.py` runs it).

use div_conformance::laws;
use div_conformance::oracle::{self, Catalogs};
use div_rewrite::laws::examples::example1_rewrite;
use div_rewrite::laws::small_divide_union::partition_dividend_for_law2;
use div_rewrite::preconditions;
use division::prelude::*;
use std::collections::BTreeMap;

/// The most databases one shape may enumerate.
const MAX_DATABASES: usize = 1 << 16;

/// What one registry shape's enumeration must count.
struct Pin {
    key: &'static str,
    databases: usize,
    fires: usize,
    optimized: usize,
    metadata_only: bool,
}

/// One test per registry shape, named after the law's equation, and the
/// `PINS` table: databases enumerated, databases on which the shape's own
/// rule fires, databases on which `optimize` changes the plan, and whether
/// the rule fires under [`RewriteContext::with_metadata_only`] (then on
/// every database).
macro_rules! pins {
    ($($test:ident: $key:literal, $databases:literal, $fires:literal, $optimized:literal, $metadata_only:literal;)*) => {
        const PINS: &[Pin] = &[$(Pin {
            key: $key,
            databases: $databases,
            fires: $fires,
            optimized: $optimized,
            metadata_only: $metadata_only,
        }),*];
        $(#[test]
        fn $test() {
            check_shape($key);
        })*
    };
}

pins! {
    law1_divisor_union:                  "law01",    256,   256,   11, true;
    law2_dividend_union:                 "law02",   1024,   964,  414, false;
    law3_selection_pushdown:             "law03",     64,    64,   64, true;
    law4_divisor_selection_replication:  "law04",     64,    32,   30, false;
    law5_intersection:                   "law05",     64,    48,    0, false;
    law6_difference_of_nested_selections: "law06",   256,   192,    0, false;
    law7_disjoint_difference:            "law07",     64,    64,   64, false;
    law8_product_pushthrough:            "law08",    256,   256,  148, true;
    law9_product_elimination:            "law09",   1024,   384,  359, false;
    law10_semijoin_commutes:             "law10",    256,   256,  176, true;
    law11_singleton_groups:              "law11",     64,    64,   64, false;
    law12_singleton_divisor_groups:      "law12",     64,    49,   49, false;
    law13_divisor_union:                 "law13",   4096,   784,   20, false;
    law14_selection_pushdown_quotient:   "law14",    256,   256,  256, true;
    law15_selection_pushdown_group:      "law15",    256,   256,  256, true;
    law16_divisor_selection_replication: "law16",    256,   256,  240, true;
    law17_product_pushthrough:           "law17",   1024,  1024,  592, true;
    example2_common_factor:              "example2", 256,   192,  192, false;
    example4_join_push_in:               "example4", 1024, 1024, 1024, true;
}

/// The shapes whose law fails when the division's divisor is empty, and
/// why: their rule must decline on every such database. Law 12 holds there
/// by its `|r2| = 0` case, and Law 16 because a great divide by `∅` has no
/// divisor group, so both of its sides are `∅`.
const EMPTY_DIVISOR: &[(&str, &str)] = &[
    (
        "law04",
        "r1 ÷ ∅ = π_A(r1) keeps every candidate, while σ_p(B)(r1) ÷ ∅ keeps \
         only the candidates with a tuple that passes p",
    ),
    (
        "law05",
        "π_A(r'1) ∩ π_A(r''1) keeps a candidate whose tuples in r'1 and r''1 \
         differ, which π_A(r'1 ∩ r''1) drops",
    ),
    (
        "law06",
        "π_A(r'1) − π_A(r''1) drops a candidate with tuples both in r''1 and \
         in r'1 − r''1, which π_A(r'1 − r''1) keeps",
    ),
];

#[test]
fn every_registry_shape_is_pinned() {
    let keys: Vec<&str> = laws::law_cases().iter().map(|case| case.key).collect();
    let pinned: Vec<&str> = PINS.iter().map(|pin| pin.key).collect();
    assert_eq!(pinned, keys);
}

/// Enumerate every database of the shape `key`, hold its counts to its pin,
/// then run it with each scanned table empty down the oracle's table.
fn check_shape(key: &str) {
    let case = laws::find(key).unwrap_or_else(|| panic!("no registry shape {key}"));
    let pin = PINS.iter().find(|pin| pin.key == key).expect("pinned");
    let exclusion = EMPTY_DIVISOR.iter().find(|(shape, _)| *shape == key);
    let spaces = spaces(&case.plan, &case.catalog());
    let (mut databases, mut fires, mut optimized, mut metadata_fires) = (0, 0, 0, 0);
    for catalog in databases_over(&spaces) {
        let expected = evaluate(&case.plan, &catalog).expect("the plan evaluates");
        let check = |ctx: &RewriteContext<'_>| {
            let fired = laws::check_rewrites(&case, ctx, &expected)
                .unwrap_or_else(|e| panic!("{e}\non the database\n{}", render(&catalog)));
            fired.iter().any(|rule| rule == case.rule)
        };
        databases += 1;
        let ctx = RewriteContext::with_catalog(&catalog);
        if !optimize(&case.plan, &ctx, &expected).is_empty() {
            optimized += 1;
        }
        if check(&ctx) {
            fires += 1;
            if let Some((_, why)) = exclusion {
                assert!(
                    !divisor_is_empty(&case.plan, &catalog),
                    "{key}: `{}` fired on an empty divisor, where {why}\n{}",
                    case.rule,
                    render(&catalog)
                );
            }
        }
        if check(&RewriteContext::with_metadata_only(&catalog)) {
            metadata_fires += 1;
        }
    }
    assert_eq!(
        (databases, fires, optimized),
        (pin.databases, pin.fires, pin.optimized),
        "{key}: (databases, fires of `{}`, plans `optimize` changed)",
        case.rule
    );
    assert_eq!(
        metadata_fires,
        if pin.metadata_only { databases } else { 0 },
        "{key}: databases on which `{}` fires without data access",
        case.rule
    );

    for space in &spaces {
        let mut catalog = case.catalog();
        let schema = catalog.table(&space.name).expect("registered").schema();
        catalog.register(space.name.as_str(), Relation::empty(schema.clone()));
        let catalogs = Catalogs::new(&catalog).expect("catalogs");
        oracle::check_plan(&catalogs, &case.plan)
            .unwrap_or_else(|e| panic!("{key} with `{}` empty: {e}", space.name));
    }
}

/// Optimize `plan` as the engine does and require the plan it keeps to
/// evaluate to `expected`; returns the rules it applied, in order.
fn optimize(plan: &LogicalPlan, ctx: &RewriteContext<'_>, expected: &Relation) -> Vec<String> {
    let catalog = ctx.catalog();
    let optimized = Optimizer::new().optimize(plan, ctx).expect("optimize");
    let got = evaluate(&optimized.plan, catalog).expect("the optimized plan evaluates");
    assert_eq!(
        &got,
        expected,
        "`optimize` changed the result:\n{}\non the database\n{}",
        optimized.trace(),
        render(catalog)
    );
    optimized.applied.into_iter().map(|a| a.rule).collect()
}

/// Whether the divisor of the shape's root division is empty.
fn divisor_is_empty(plan: &LogicalPlan, catalog: &Catalog) -> bool {
    let LogicalPlan::SmallDivide { divisor, .. } = plan else {
        panic!("an empty-divisor exclusion needs a division at the root:\n{plan}");
    };
    evaluate(divisor, catalog).expect("divisor").is_empty()
}

/// One enumerated table: its attributes and every tuple over their domains.
struct Space {
    name: String,
    attributes: Vec<String>,
    tuples: Vec<Vec<i64>>,
}

/// The tuple space of each distinct table `plan` scans, over the schemas
/// `catalog` gives those tables.
fn spaces(plan: &LogicalPlan, catalog: &Catalog) -> Vec<Space> {
    let comparisons = comparisons(plan);
    let mut names = plan.scanned_tables();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let relation = catalog.table(&name).expect("every scanned table");
            let attributes: Vec<String> = relation
                .schema()
                .names()
                .into_iter()
                .map(String::from)
                .collect();
            let tuples = attributes
                .iter()
                .fold(vec![Vec::new()], |tuples, attribute| {
                    let domain = domain(attribute, &comparisons);
                    tuples
                        .into_iter()
                        .flat_map(|tuple| {
                            domain.iter().map(move |&value| {
                                let mut tuple = tuple.clone();
                                tuple.push(value);
                                tuple
                            })
                        })
                        .collect()
                });
            Space {
                name,
                attributes,
                tuples,
            }
        })
        .collect()
}

/// Every database over `spaces`: bit `i` of the mask puts tuple `i`,
/// counted across the tables in order, into its table.
fn databases_over(spaces: &[Space]) -> impl Iterator<Item = Catalog> + '_ {
    let bits: usize = spaces.iter().map(|space| space.tuples.len()).sum();
    assert!(bits < usize::BITS as usize && 1 << bits <= MAX_DATABASES);
    (0..1usize << bits).map(move |mask| {
        let mut catalog = Catalog::new();
        let mut first_bit = 0;
        for space in spaces {
            let rows = (space.tuples.iter().enumerate())
                .filter(|(i, _)| mask >> (first_bit + i) & 1 == 1)
                .map(|(_, tuple)| tuple.clone());
            let names = space.attributes.iter().map(String::as_str);
            let relation = Relation::from_rows(names, rows).expect("rows");
            catalog.register(space.name.as_str(), relation);
            first_bit += space.tuples.len();
        }
        catalog
    })
}

/// Every `attribute op constant` comparison in the plan's predicates.
fn comparisons(plan: &LogicalPlan) -> Vec<(String, CompareOp, i64)> {
    fn walk(predicate: &Predicate, out: &mut Vec<(String, CompareOp, i64)>) {
        match predicate {
            Predicate::CompareValue {
                attribute,
                op,
                value: Value::Int(constant),
            } => out.push((attribute.clone(), *op, *constant)),
            Predicate::And(left, right) | Predicate::Or(left, right) => {
                walk(left, out);
                walk(right, out);
            }
            Predicate::Not(inner) => walk(inner, out),
            _ => {}
        }
    }
    let mut out = Vec::new();
    plan.visit(&mut |node| {
        if let LogicalPlan::Select { predicate, .. } | LogicalPlan::ThetaJoin { predicate, .. } =
            node
        {
            walk(predicate, &mut out);
        }
    });
    out
}

/// An attribute's domain: one value for each outcome its comparisons can
/// take. Candidates are tried in order — each constant, then the midpoint to
/// the next one, one past the last, and the neighbours of every constant —
/// and the first of each outcome is kept.
fn domain(attribute: &str, comparisons: &[(String, CompareOp, i64)]) -> Vec<i64> {
    let own: Vec<(CompareOp, i64)> = comparisons
        .iter()
        .filter(|(name, ..)| name == attribute)
        .map(|&(_, op, constant)| (op, constant))
        .collect();
    let mut constants: Vec<i64> = own.iter().map(|&(_, constant)| constant).collect();
    constants.sort_unstable();
    constants.dedup();
    let Some(&last) = constants.last() else {
        return vec![1, 3];
    };
    let mut candidates = Vec::new();
    for pair in constants.windows(2) {
        candidates.extend([pair[0], pair[0] + (pair[1] - pair[0]) / 2]);
    }
    candidates.extend([last, last + 1]);
    candidates.extend(constants.iter().flat_map(|&c| [c - 1, c + 1]));
    let mut outcomes: Vec<Vec<bool>> = Vec::new();
    let mut values = Vec::new();
    for value in candidates {
        let outcome: Vec<bool> = own
            .iter()
            .map(|(op, constant)| {
                op.eval(&Value::Int(value), &Value::Int(*constant))
                    .expect("int comparison")
            })
            .collect();
        if !outcomes.contains(&outcome) {
            outcomes.push(outcome);
            values.push(value);
        }
    }
    values.sort_unstable();
    values
}

/// The database's tables, one per line, for a failure message.
fn render(catalog: &Catalog) -> String {
    let tables: Vec<String> = catalog
        .tables()
        .map(|(name, relation)| format!("{name} = {relation}"))
        .collect();
    tables.join("\n")
}

#[test]
fn domains_split_every_constant() {
    let comparisons = |predicates: &[(&str, CompareOp, i64)]| -> Vec<(String, CompareOp, i64)> {
        predicates
            .iter()
            .map(|&(a, op, c)| (a.to_string(), op, c))
            .collect()
    };
    let law06 = comparisons(&[("a", CompareOp::Gt, 1), ("a", CompareOp::Gt, 9)]);
    assert_eq!(domain("a", &law06), [1, 5, 10]);
    assert_eq!(domain("b", &law06), [1, 3]);
    let law07 = comparisons(&[("a", CompareOp::LtEq, 10), ("a", CompareOp::Gt, 10)]);
    assert_eq!(domain("a", &law07), [10, 11]);
    let law04 = comparisons(&[("b", CompareOp::Lt, 3)]);
    assert_eq!(domain("b", &law04), [2, 3]);
}

/// A catalog of empty tables, one per `(name, attributes)`: the schemas
/// [`spaces`] enumerates for a plan that has no registry shape.
fn schemas(tables: &[(&str, &[&str])]) -> Catalog {
    let mut catalog = Catalog::new();
    for (name, attributes) in tables {
        let schema = Schema::of(attributes.iter().copied());
        catalog.register(*name, Relation::empty(schema));
    }
    catalog
}

/// Example 1 has no rule: its plan constructor against
/// `σ_{b<3}(r1) ÷ r2` over every database of `r1` and `r2`.
#[test]
fn example1_dividend_b_selection() {
    let p = Predicate::cmp_value("b", CompareOp::Lt, 3);
    let (r1, r2) = (PlanBuilder::scan("r1"), PlanBuilder::scan("r2"));
    let plan = r1.clone().select(p.clone()).divide(r2.clone()).build();
    let schemas = schemas(&[("r1", &["a", "b"]), ("r2", &["b"])]);
    let mut databases = 0;
    for catalog in databases_over(&spaces(&plan, &schemas)) {
        let ctx = RewriteContext::with_catalog(&catalog);
        let rewritten = example1_rewrite(&r1.clone().build(), &p, &r2.clone().build(), &ctx)
            .expect("example 1")
            .expect("p is over B");
        assert_eq!(
            evaluate(&rewritten, &catalog).unwrap(),
            evaluate(&plan, &catalog).unwrap(),
            "on the database\n{}",
            render(&catalog)
        );
        databases += 1;
    }
    assert_eq!(databases, 64);
}

/// Law 2's preconditions over the `law02` databases: `c2 ⇒ c1`; where `c1`
/// holds the split `(low ÷ r2) ∪ (high ÷ r2)` is the union's quotient, and
/// where it fails the split still lies within it. The rule tests `c2` and
/// falls back to `c1`, so it fires wherever `c1` holds (the `law02` pin).
#[test]
fn law2_preconditions() {
    let case = laws::find("law02").expect("law02");
    let r2 = PlanBuilder::scan("r2");
    let split = (PlanBuilder::scan("low").divide(r2.clone()))
        .union(PlanBuilder::scan("high").divide(r2))
        .build();
    let (mut databases, mut c1s, mut c2s) = (0, 0, 0);
    for catalog in databases_over(&spaces(&case.plan, &case.catalog())) {
        let table = |name| catalog.table(name).expect("enumerated");
        let (low, high, r2) = (table("low"), table("high"), table("r2"));
        let c1 = preconditions::c1(low, high, r2).unwrap();
        let c2 = preconditions::c2(low, high, r2).unwrap();
        let whole = evaluate(&case.plan, &catalog).unwrap();
        let split = evaluate(&split, &catalog).unwrap();
        let database = render(&catalog);
        assert!(c1 || !c2, "c2 without c1 on\n{database}");
        if c1 {
            assert_eq!(split, whole, "c1 holds on\n{database}");
        } else {
            assert!(split.is_subset_of(&whole).unwrap(), "on\n{database}");
        }
        databases += 1;
        c1s += usize::from(c1);
        c2s += usize::from(c2);
    }
    assert_eq!((databases, c1s, c2s), (1024, 964, 196));
}

/// The partitioner the optimizer's Law 2 path uses: where it splits
/// `r1 ÷ r2` (two distinct `a` values or more), its two branches satisfy
/// `c2` by construction.
#[test]
fn law2_hash_partitioning_always_satisfies_c2() {
    let (r1, r2) = (
        PlanBuilder::scan("r1").build(),
        PlanBuilder::scan("r2").build(),
    );
    let plan = PlanBuilder::scan("r1")
        .divide(PlanBuilder::scan("r2"))
        .build();
    let schemas = schemas(&[("r1", &["a", "b"]), ("r2", &["b"])]);
    let (mut databases, mut splits) = (0, 0);
    for catalog in databases_over(&spaces(&plan, &schemas)) {
        databases += 1;
        let ctx = RewriteContext::with_catalog(&catalog);
        let Some(partitioned) = partition_dividend_for_law2(&r1, &r2, 2, &ctx).unwrap() else {
            continue;
        };
        let LogicalPlan::SmallDivide { dividend, .. } = partitioned else {
            panic!("the partitioner divides, got {partitioned}");
        };
        let LogicalPlan::Union { left, right } = *dividend else {
            panic!("two partitions are one union, got {dividend}");
        };
        let (left, right) = (evaluate(&left, &catalog), evaluate(&right, &catalog));
        let divisor = catalog.table("r2").unwrap();
        assert!(
            preconditions::c2(&left.unwrap(), &right.unwrap(), divisor).unwrap(),
            "on the database\n{}",
            render(&catalog)
        );
        splits += 1;
    }
    assert_eq!((databases, splits), (64, 36));
}

/// `optimize` on `σ_{a>2}(σ_{c=2}(r1 ÷* r2))`, which no registry shape
/// has: two selections for Laws 15 and 14 to push down one after the other.
#[test]
fn optimizer_preserves_great_divide_semantics() {
    let plan = PlanBuilder::scan("r1")
        .great_divide(PlanBuilder::scan("r2"))
        .select(Predicate::eq_value("c", 2))
        .select(Predicate::cmp_value("a", CompareOp::Gt, 2))
        .build();
    let schemas = schemas(&[("r1", &["a", "b"]), ("r2", &["b", "c"])]);
    let mut traces: BTreeMap<Vec<String>, usize> = BTreeMap::new();
    for catalog in databases_over(&spaces(&plan, &schemas)) {
        let expected = evaluate(&plan, &catalog).unwrap();
        let applied = optimize(&plan, &RewriteContext::with_catalog(&catalog), &expected);
        *traces.entry(applied).or_default() += 1;
    }
    let law14_15 = [
        "law-15-great-selection-pushdown-group",
        "law-14-great-selection-pushdown-quotient",
    ];
    let expected = BTreeMap::from([(vec![], 16), (law14_15.map(String::from).to_vec(), 240)]);
    assert_eq!(traces, expected);
}
