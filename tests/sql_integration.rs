//! End-to-end SQL tests through the [`Engine`] facade: parse → translate →
//! optimize (laws + cost model) → plan → execute, on both the paper's
//! textbook database and generated workloads.

use div_bench::suppliers_parts_catalog;
use div_sql::{parse_query, translate_query, Error as SqlError, Explain};
use division::prelude::*;
use std::error::Error as _;

const Q1: &str = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#";
const Q2: &str = "SELECT s# FROM supplies AS s DIVIDE BY \
                  (SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#";
const Q2_PARAM: &str = "SELECT s# FROM supplies AS s DIVIDE BY \
                        (SELECT p# FROM parts WHERE color = $color) AS p ON s.p# = p.p#";
const Q3: &str = "SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 \
                  WHERE NOT EXISTS ( SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND \
                  NOT EXISTS ( SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s# ))";

fn textbook_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(
        "supplies",
        relation! {
            ["s#", "p#"] =>
            [1, 1], [1, 2],
            [2, 1], [2, 2], [2, 3],
            [3, 2], [3, 3],
        },
    );
    c.register(
        "parts",
        relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"] },
    );
    c
}

fn textbook_engine() -> Engine {
    Engine::new(textbook_catalog())
}

#[test]
fn q1_is_a_great_divide_and_produces_per_color_suppliers() {
    let engine = textbook_engine();
    let explain = engine.explain(Q1).unwrap();
    assert!(explain.logical.contains_division());
    assert!(explain.physical.explain().contains("GreatDivide"));
    let output = engine.query_collect(Q1).unwrap();
    let expected = relation! {
        ["s#", "color"] =>
        [1, "blue"], [2, "blue"],
        [2, "red"], [3, "red"],
    };
    assert_eq!(output.relation, expected);
}

#[test]
fn q2_is_a_small_divide_over_the_derived_divisor() {
    let engine = textbook_engine();
    let explain = engine.explain(Q2).unwrap();
    assert!(format!("{}", explain.logical).contains("SmallDivide"));
    assert_eq!(
        engine.query_collect(Q2).unwrap().relation,
        relation! { ["s#"] => [1], [2] }
    );
}

#[test]
fn q3_not_exists_formulation_matches_q1() {
    let engine = textbook_engine();
    // The detection rewrites Q3 into a division plan ...
    let explain = engine.explain(Q3).unwrap();
    assert!(explain.logical.contains_division());
    // ... that produces the same relation as the DIVIDE BY formulation.
    assert_eq!(
        engine.query_collect(Q3).unwrap().relation,
        engine.query_collect(Q1).unwrap().relation
    );
}

#[test]
fn q1_q2_q3_agree_on_generated_workloads() {
    for (suppliers, parts, coverage) in [(30, 12, 0.7), (60, 20, 0.5), (40, 16, 0.9)] {
        let engine = Engine::new(suppliers_parts_catalog(suppliers, parts, coverage));
        assert_eq!(
            engine.query_collect(Q1).unwrap().relation,
            engine.query_collect(Q3).unwrap().relation,
            "Q1 and Q3 disagree at scale ({suppliers}, {parts}, {coverage})"
        );

        // Q2 must agree with Q1 restricted to blue.
        let q1_blue: Relation = engine
            .query_collect(Q1)
            .unwrap()
            .relation
            .select(&Predicate::eq_value("color", "blue"))
            .unwrap()
            .project(&["s#"])
            .unwrap();
        assert_eq!(engine.query_collect(Q2).unwrap().relation, q1_blue);
    }
}

/// EXPLAIN names the division operator that runs, and the executed span
/// tree carries the same label.
#[test]
fn sql_plans_report_the_divide_that_ran() {
    let catalog = suppliers_parts_catalog(40, 15, 0.6);
    let engine = Engine::new(catalog.clone());
    for (sql, label) in [(Q2, "Divide[hash]"), (Q1, "GreatDivide[hash]")] {
        let logical = translate_query(&parse_query(sql).unwrap(), &catalog).unwrap();
        let explain = engine.explain(sql).unwrap();
        assert!(
            explain.physical.explain().contains(label),
            "EXPLAIN names {label}:\n{}",
            explain.physical
        );
        let output = engine.query_collect(sql).unwrap();
        assert!(
            output.stats.operators.iter().any(|op| op.label == label),
            "the executed span tree carries {label}"
        );
        assert_eq!(output.relation, evaluate(&logical, &catalog).unwrap());
    }
}

/// The acceptance criterion of the `Engine` redesign: the optimizer runs by
/// default, a Q2-style divide is *rewritten* (laws fired are listed in the
/// EXPLAIN report), and the rewritten plan's result is byte-identical to the
/// unoptimized plan's.
#[test]
fn engine_runs_the_optimizer_by_default_and_rewrites_divides() {
    let catalog = suppliers_parts_catalog(40, 15, 0.6);
    // A selection above the quotient: Laws 14/15 push it into the division
    // inputs, which is exactly the rewrite the paper motivates.
    let sql = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# \
               WHERE color = 'blue'";

    let optimizing = Engine::new(catalog.clone());
    assert!(
        optimizing.optimizer_enabled(),
        "optimizer must default to ON"
    );
    let explain = optimizing.explain(sql).unwrap();
    assert!(
        explain.rewritten(),
        "expected at least one law to fire, got none"
    );
    assert!(
        explain.laws_fired().iter().any(|law| law.contains("law-")),
        "EXPLAIN must list the laws that fired, got {:?}",
        explain.laws_fired()
    );
    assert_ne!(
        explain.logical, explain.optimized,
        "the executed plan must actually differ from the translated plan"
    );
    // The Display rendering names the fired laws (stable contract).
    let rendered = explain.to_string();
    for law in explain.laws_fired() {
        assert!(rendered.contains(law), "rendered EXPLAIN must name {law}");
    }

    // Byte-identical result vs the unoptimized pipeline.
    let raw = Engine::builder(catalog).without_optimizer().build();
    assert_eq!(
        optimizing.query_collect(sql).unwrap().relation,
        raw.query_collect(sql).unwrap().relation
    );
}

#[test]
fn prepared_statements_reuse_one_compilation_across_bindings() {
    let engine = textbook_engine();
    let stmt = engine.prepare(Q2_PARAM).unwrap();
    assert_eq!(engine.compile_count(), 1);

    // Three executions with different bindings, no recompilation.
    let blue = stmt
        .execute_collect(&engine, &Params::new().bind("color", "blue"))
        .unwrap();
    assert_eq!(blue.relation, relation! { ["s#"] => [1], [2] });
    let red = stmt
        .execute_collect(&engine, &Params::new().bind("color", "red"))
        .unwrap();
    assert_eq!(red.relation, relation! { ["s#"] => [2], [3] });
    // Empty divisor: universal quantification over the empty set holds for
    // every supplier.
    let green = stmt
        .execute_collect(&engine, &Params::new().bind("color", "green"))
        .unwrap();
    assert_eq!(green.relation, relation! { ["s#"] => [1], [2], [3] });
    assert_eq!(
        engine.compile_count(),
        1,
        "prepared executions must not redo parse/translate/optimize/plan"
    );

    // Plan identity: every execution binds into the same cached template.
    let before = std::sync::Arc::as_ptr(stmt.plan());
    stmt.execute_collect(&engine, &Params::new().bind("color", "blue"))
        .unwrap();
    assert_eq!(std::sync::Arc::as_ptr(stmt.plan()), before);

    // The ad-hoc path answers the same bytes as the prepared path.
    let adhoc = engine.query_collect(Q2).unwrap();
    assert_eq!(adhoc.relation, blue.relation);
}

#[test]
fn prepared_statements_go_stale_when_the_catalog_changes() {
    let engine = textbook_engine();
    let stmt = engine.prepare(Q2).unwrap();
    engine.mutate_catalog(|c| {
        c.register("parts", relation! { ["p#", "color"] => [1, "blue"] });
    });
    let err = stmt.execute_collect(&engine, &Params::new()).unwrap_err();
    assert!(matches!(err, SqlError::StalePlan { .. }), "got {err}");
}

#[test]
fn parse_errors_keep_their_structured_source() {
    let engine = textbook_engine();
    let err = engine.query_collect("SELECT FROM WHERE").unwrap_err();
    // Assert the variant, not a substring: the ParseError must survive as a
    // typed source, not be flattened into a message.
    let SqlError::Parse(parse_err) = &err else {
        panic!("expected Error::Parse, got {err:?}");
    };
    assert!(!parse_err.message.is_empty());
    let source = err.source().expect("Error::Parse chains its source");
    assert!(source.downcast_ref::<ParseError>().is_some());
}

#[test]
fn unsupported_sql_is_rejected_with_errors() {
    let engine = textbook_engine();
    // Non-equi ON clause.
    let err = engine
        .query_collect("SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# < p.p#")
        .unwrap_err();
    assert!(matches!(err, SqlError::Plan(_)));
    // Unknown table: the ExprError variant survives inside the Plan variant.
    let err = engine.query_collect("SELECT x FROM missing").unwrap_err();
    assert!(matches!(
        err,
        SqlError::Plan(div_expr::ExprError::UnknownTable { .. })
    ));
    // A correlated subquery that is not the universal quantification pattern.
    let err = engine
        .query_collect(
            "SELECT s# FROM supplies AS s1 WHERE NOT EXISTS \
             (SELECT * FROM parts AS p1 WHERE p1.p# = s1.p#)",
        )
        .unwrap_err();
    assert!(matches!(err, SqlError::Plan(_)));
}

#[test]
fn explain_is_structured_and_analyze_measures() {
    let engine = textbook_engine();
    let explain: Explain = engine.explain_analyze(Q2).unwrap();
    let stats = explain.stats.as_ref().expect("analyze carries stats");
    assert_eq!(stats.output_rows, 2);
    let rendered = explain.to_string();
    for section in [
        "EXPLAIN ",
        "logical plan (before rewrite):",
        "estimated cost:",
        "physical plan (execution=streaming, batch_size=1024):",
        "execution stats:",
    ] {
        assert!(rendered.contains(section), "missing section {section:?}");
    }
}

#[test]
fn engine_serves_every_batch_size() {
    let catalog = textbook_catalog();
    let expected = relation! { ["s#"] => [1], [2] };
    for batch_size in [1usize, 3, 1024] {
        let engine = Engine::builder(catalog.clone())
            .planner_config(PlannerConfig::with_batch_size(batch_size))
            .build();
        let output = engine.query_collect(Q2).unwrap();
        assert_eq!(output.relation, expected, "batch_size {batch_size}");
        assert_eq!(output.stats.output_rows, 2);
    }
}
