//! Out-of-core differential suite: the spilling hybrid hash operators must
//! be *invisible* except in the statistics.
//!
//! * Across every shape of the oracle's catalogue
//!   (`div_conformance::oracle::shapes`) and a natural join on a two-int
//!   key outside the `i32` range, executions under a
//!   resident-row budget with `spill_to_disk` produce relations
//!   byte-identical to the unbudgeted in-memory run — at an effectively
//!   unlimited budget (spilling armed but never triggered), at the measured
//!   in-memory peak (exact fit, proactive spilling kicks in), and at the
//!   spilled run's own peak (tiny), whether that budget comes from the
//!   config or rides on the guard alone. In every budgeted run,
//!   `peak_resident_rows` stays at or under the budget.
//! * The divide spills on its coverage *state*, not on its input: a
//!   dividend twenty times the budget whose divisor + groups fit never
//!   touches disk; one whose groups do not fit keeps the groups it holds,
//!   writes strictly fewer rows than it read, and — when the budget is
//!   tight enough — forces *recursive* re-partitioning (more partition
//!   files than a single pass can open), the quotient still matching the
//!   reference evaluation.
//! * Attached file-backed tables larger than the budget stream through a
//!   served `QUERY` chunk-at-a-time, and `EXPLAIN ANALYZE` surfaces the
//!   zone-map chunk skipping. Neither planning nor streaming loads the file
//!   into the catalog, and `DROP` does not read what it drops.

use div_algebra::{relation, AggregateCall, AggregateFunction, Relation, Schema, Tuple, Value};
use div_conformance::oracle::{shape_catalog, shapes};
use div_expr::{evaluate, Catalog, LogicalPlan, PlanBuilder};
use div_physical::{ExecStats, PlannerConfig, QueryGuard, StreamExecutor};
use div_sql::{Engine, QueryOutput, Request};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_path(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "div_out_of_core_{}_{tag}_{n}.divcol",
        std::process::id()
    ))
}

struct RemoveOnDrop(std::path::PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The oracle's shape catalog, plus two tables with two-int keys on both
/// sides of the `i32` bounds: a sorted scan cuts them into chunks whose
/// codes all pack, chunks whose codes all fold, and chunks with both, so
/// both kinds meet in every spill partition.
fn catalog() -> Catalog {
    let mut c = shape_catalog();
    let (low, high) = (i64::from(i32::MIN), i64::from(i32::MAX));
    let edges = [low - 1, low, -1, 0, high, high + 1];
    let wide: Vec<(i64, i64)> = (0..48i64)
        .map(|i| {
            let b = if i % 5 == 4 { i + (1 << 33) } else { i };
            (edges[(i % 6) as usize], b)
        })
        .collect();
    c.register(
        "wide",
        Relation::from_rows(["a", "b"], wide.iter().map(|&(a, b)| vec![a, b])).unwrap(),
    );
    c.register(
        "wide_tags",
        Relation::from_rows(
            ["b", "a", "t"],
            wide.iter().step_by(2).map(|&(a, b)| vec![b, a, b % 3]),
        )
        .unwrap(),
    );
    c
}

/// Run `logical` through a streaming `Cursor` under the given budget with
/// spilling enabled.
fn run_spilling(catalog: &Catalog, logical: &LogicalPlan, budget: usize) -> QueryOutput {
    let config = PlannerConfig::default()
        .batch_size(4)
        .memory_budget_rows(budget)
        .spill_to_disk(true);
    let engine = Engine::builder(catalog.clone())
        .planner_config(config)
        .without_optimizer() // differential: compare the raw plan
        .build();
    engine
        .run(Request::plan(logical))
        .unwrap()
        .collect()
        .unwrap_or_else(|err| panic!("budget {budget} aborted instead of spilling: {err}"))
}

/// The same run with the budget carried by the guard alone: the config
/// asks for spilling but names no budget — what a caller gets by passing
/// its own guard with `Request::guard`.
fn run_guard_budget(
    catalog: &Catalog,
    logical: &LogicalPlan,
    budget: usize,
) -> (Relation, ExecStats) {
    let config = PlannerConfig::default().batch_size(4).spill_to_disk(true);
    let guard = QueryGuard::from_config(&config).with_budget_rows(budget);
    let mut stream = StreamExecutor::with_guard(logical, catalog, &config, guard).unwrap();
    let mut out = Relation::empty(stream.schema().clone());
    while let Some(batch) = stream
        .next_batch()
        .unwrap_or_else(|err| panic!("budget {budget} aborted instead of spilling: {err}"))
    {
        out = out.union(&batch.to_relation().unwrap()).unwrap();
    }
    (out, stream.finish())
}

/// Per shape, in the order of the oracle's catalogue and then the wide-key
/// join, the spill counters of its unlimited, exact-fit and tiny runs in
/// [`spilled_runs_are_byte_identical_across_all_shapes_and_budgets`]:
/// `(spill_partitions, spill_rows_written, spill_rows_read,
/// peak_resident_rows)`. Results alone would not show a changed decision
/// on when to spill, what goes to disk or at which fan-out; these do.
const SPILL_COUNTERS: [[(usize, usize, usize, usize); 3]; 19] = [
    [(0, 0, 0, 19), (9, 50, 50, 15), (80, 240, 240, 11)], // divide
    [(0, 0, 0, 16), (10, 45, 45, 12), (140, 240, 240, 8)], // filtered_divide
    [(0, 0, 0, 26), (19, 110, 110, 22), (96, 300, 300, 18)], // great_divide
    [(0, 0, 0, 5), (68, 248, 218, 4), (68, 248, 218, 4)], // join_project
    [(0, 0, 0, 65), (0, 0, 0, 65), (0, 0, 0, 65)],        // semi_anti_union
    [(0, 0, 0, 24), (0, 0, 0, 24), (0, 0, 0, 24)],        // aggregate_project
    [(0, 0, 0, 5), (460, 478, 478, 4), (460, 478, 478, 4)], // difference
    [(0, 0, 0, 5), (470, 476, 448, 4), (470, 476, 448, 4)], // intersect
    [(0, 0, 0, 9), (0, 0, 0, 9), (0, 0, 0, 9)],           // product
    [(0, 0, 0, 10), (0, 0, 0, 10), (0, 0, 0, 10)],        // theta_join
    [(0, 0, 0, 16), (9, 50, 50, 12), (80, 240, 240, 8)],  // sum_per_group
    [(0, 0, 0, 18), (0, 0, 0, 18), (0, 0, 0, 18)],        // join_adds_a_column
    [(0, 0, 0, 5), (28, 111, 111, 4), (28, 111, 111, 4)], // difference_values
    [(0, 0, 0, 80), (18, 7, 7, 79), (17, 7, 7, 79)],      // every_operator_kind
    [(0, 0, 0, 4), (0, 0, 0, 4), (0, 0, 0, 4)],           // stacked_identical_filters
    [(0, 0, 0, 15), (0, 0, 0, 15), (0, 0, 0, 15)],        // filter_chain
    [(0, 0, 0, 4), (0, 0, 0, 4), (0, 0, 0, 4)],           // values_union
    [(0, 0, 0, 19), (9, 50, 50, 15), (80, 240, 240, 11)], // divide_by_filtered_divisor
    [(0, 0, 0, 28), (8, 58, 58, 24), (8, 72, 72, 20)],    // wide_key_join
];

#[test]
fn spilled_runs_are_byte_identical_across_all_shapes_and_budgets() {
    let c = catalog();
    let mut all = shapes();
    all.push((
        "wide_key_join",
        PlanBuilder::scan("wide")
            .natural_join(PlanBuilder::scan("wide_tags"))
            .build(),
    ));
    // Shapes whose blocking state lives in a hybrid operator (divide, great
    // divide, hash join family — difference and intersection included —,
    // grouped aggregation) — these must demonstrably hit disk at the
    // tightest budget. The aggregate keeps one row per group, so where a
    // narrowing projection's distinct store sits on top of it
    // (`aggregate_project`) that store, not the aggregate, sets the peak:
    // there the aggregate holds exactly its groups at every budget. The bare
    // aggregate (`sum_per_group`) is the one whose own state sets the peak.
    let spillable = [
        "divide",
        "great_divide",
        "join_project",
        "difference",
        "intersect",
        "sum_per_group",
        "difference_values",
        "every_operator_kind",
        "divide_by_filtered_divisor",
        "wide_key_join",
    ];
    let mut spilled_shapes = 0usize;
    let mut counters = Vec::new();
    for (shape, logical) in &all {
        let expected = evaluate(logical, &c).unwrap();

        // Unlimited: spilling is armed but must never activate, and the
        // result is the in-memory one.
        let unlimited = run_spilling(&c, logical, 1_000_000);
        assert_eq!(unlimited.relation, expected, "{shape} unlimited");
        assert_eq!(
            unlimited.stats.spill_partitions, 0,
            "{shape} spilled under an unlimited budget"
        );
        let in_memory_peak = unlimited.stats.peak_resident_rows;

        // Exact fit: budget = the measured in-memory peak. Proactive
        // spilling (the trigger fires a margin *before* the budget) keeps
        // the run alive and the peak pinned at or under the budget.
        let exact = run_spilling(&c, logical, in_memory_peak);
        assert_eq!(exact.relation, expected, "{shape} exact-fit");
        assert!(
            exact.stats.peak_resident_rows <= in_memory_peak,
            "{shape}: peak {} exceeds exact-fit budget {in_memory_peak}",
            exact.stats.peak_resident_rows
        );

        // Tiny: budget = the spilled run's own peak, the tightest budget
        // this plan can provably run under.
        let tiny_budget = exact.stats.peak_resident_rows.max(1);
        let tiny = run_spilling(&c, logical, tiny_budget);
        assert_eq!(tiny.relation, expected, "{shape} tiny");
        assert!(
            tiny.stats.peak_resident_rows <= tiny_budget,
            "{shape}: peak {} exceeds tiny budget {tiny_budget}",
            tiny.stats.peak_resident_rows
        );

        // Where the budget came from must not matter: the hybrid operators
        // consult the guard, never the config.
        let (relation, guarded) = run_guard_budget(&c, logical, tiny_budget);
        assert_eq!(relation, expected, "{shape} guard-carried");
        assert_eq!(
            (guarded.peak_resident_rows, guarded.spill_partitions),
            (tiny.stats.peak_resident_rows, tiny.stats.spill_partitions),
            "{shape}: guard-carried budget {tiny_budget} ran differently"
        );

        counters.push([&unlimited.stats, &exact.stats, &tiny.stats].map(|stats| {
            (
                stats.spill_partitions,
                stats.spill_rows_written,
                stats.spill_rows_read,
                stats.peak_resident_rows,
            )
        }));
        if exact.stats.spill_partitions > 0 || tiny.stats.spill_partitions > 0 {
            spilled_shapes += 1;
            assert!(
                exact.stats.spill_rows_written + tiny.stats.spill_rows_written > 0,
                "{shape}: partitions without rows"
            );
        }
        if spillable.contains(shape) {
            assert!(
                tiny.stats.spill_partitions > 0,
                "{shape} (spillable) never hit disk at budget {tiny_budget}"
            );
        }
        if *shape == "aggregate_project" {
            // The projection keeps one row per group, so the result counts
            // the groups.
            for (run, stats) in [
                ("unlimited", &unlimited.stats),
                ("exact-fit", &exact.stats),
                ("tiny", &tiny.stats),
            ] {
                let node = stats
                    .operators
                    .iter()
                    .find(|op| op.label.starts_with("HashAggregate"))
                    .expect("the shape aggregates");
                assert_eq!(
                    node.peak_retained_rows,
                    expected.len(),
                    "{shape} {run}: the aggregate kept more than its groups"
                );
            }
        }
    }
    assert!(
        spilled_shapes >= spillable.len(),
        "only {spilled_shapes} shapes spilled — the suite is vacuous"
    );
    let names: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
    assert_eq!(counters, SPILL_COUNTERS, "spill counters of {names:?}");
}

/// Run `logical` over `catalog` with 4-row batches under `budget`, spilling
/// armed, and check it against the reference evaluator and the budget.
fn run_checked(catalog: &Catalog, logical: &LogicalPlan, budget: usize) -> ExecStats {
    let output = run_spilling(catalog, logical, budget);
    assert_eq!(output.relation, evaluate(logical, catalog).unwrap());
    let stats = output.stats;
    assert!(
        stats.peak_resident_rows <= budget,
        "peak {}",
        stats.peak_resident_rows
    );
    assert_eq!(stats.resident_rows_on_finish, 0);
    stats
}

/// `count` int keys from `0..`, with the level-0 spill partition (of
/// `fanout`) each lands in when it is a join's only key column, keeping
/// those whose partition `keep` accepts.
fn keys_routed(fanout: usize, count: usize, keep: impl Fn(usize) -> bool) -> Vec<i64> {
    let candidates = (0..20 * count as i64).map(|k| vec![k]);
    let batch = div_columnar::ColumnarBatch::from_relation(
        &Relation::from_rows(["k"], candidates).unwrap(),
    );
    let routed = div_columnar::partition::partition_rows(&batch, &[0], fanout, 0);
    let mut keys: Vec<i64> = (0..fanout)
        .filter(|&p| keep(p))
        .flat_map(|p| routed.rows(p).iter().map(|&row| row as i64))
        .collect();
    keys.sort_unstable();
    keys.truncate(count);
    assert_eq!(keys.len(), count);
    keys
}

#[test]
fn hybrid_anti_join_emits_the_left_rows_of_empty_build_partitions() {
    // 4-row batches under a 40-row budget: 32 spillable rows, 8 level-0
    // partitions. The 60 build keys all route to partitions 2..8, so the
    // resident partition 0 and the spilled partition 1 have an empty build
    // side: every left row routed there is in the difference. The build
    // side keeps its rows (`w` is a column of its own), so it spills.
    let (batch, budget) = (4, 40);
    let fanout = (budget - 2 * batch) / batch;
    let build = keys_routed(fanout, 60, |p| p >= 2);
    let left: Vec<i64> = (0..200).collect();
    let resident = keys_routed(fanout, 1000, |p| p == 0);
    let in_partition_0 = left.iter().filter(|k| resident.contains(k)).count();
    assert!(in_partition_0 > 0);
    let mut c = Catalog::new();
    c.register(
        "left",
        Relation::from_rows(["k", "v"], left.iter().map(|&k| vec![k, -k])).unwrap(),
    );
    c.register(
        "build",
        Relation::from_rows(["k", "w"], build.iter().map(|&k| vec![k, 3 * k])).unwrap(),
    );
    let logical = PlanBuilder::scan("left")
        .anti_semi_join(PlanBuilder::scan("build"))
        .build();
    let stats = run_checked(&c, &logical, budget);
    // Seven spilled partitions a side; every build row and every left row
    // but partition 0's was written once, and nothing was re-split.
    assert_eq!(stats.spill_partitions, 2 * (fanout - 1));
    assert_eq!(
        stats.spill_rows_written,
        build.len() + left.len() - in_partition_0
    );
    assert_eq!(stats.spill_rows_read, stats.spill_rows_written);
}

#[test]
fn keys_only_presence_builds_hold_their_bits_alone() {
    // A semi or anti join whose build side is nothing but its key holds
    // one bit per key of a compact int range: 1,100 keys are 18 words, so
    // they stay resident under a 40-row budget. Strings in the table's
    // second segment make it a mixed column, whose keys take no bit: the
    // 1,024 keys of the first segment would come back as rows, which do
    // not fit, so the join turns hybrid and routes the rows its bits give
    // back.
    let budget = 40;
    for strings in [0, 3] {
        let mut c = Catalog::new();
        c.register(
            "left",
            Relation::from_rows(["k", "v"], (0..1200i64).map(|k| vec![k, -k])).unwrap(),
        );
        let ints = (0..1100i64).map(|k| Tuple::new([Value::Int(k)]));
        let names = (0..strings).map(|n| Tuple::new([Value::str(format!("s{n}"))]));
        c.register(
            "build",
            Relation::new(Schema::of(["k"]), ints.chain(names)).unwrap(),
        );
        for anti in [false, true] {
            let left = PlanBuilder::scan("left");
            let join = match anti {
                false => left.semi_join(PlanBuilder::scan("build")),
                true => left.anti_semi_join(PlanBuilder::scan("build")),
            };
            let stats = run_checked(&c, &join.build(), budget);
            let run = format!("strings {strings}, anti {anti}");
            assert_eq!(stats.spill_partitions > 0, strings > 0, "{run}");
        }
    }
}

/// 500 quotient groups x 10 parts each = 5000 dividend rows, every group
/// complete, and the 10-part divisor.
fn five_hundred_groups() -> (Catalog, LogicalPlan, Relation) {
    let mut c = Catalog::new();
    c.register(
        "supplies",
        Relation::from_rows(
            ["s#", "p#"],
            (0..500i64).flat_map(|s| (0..10i64).map(move |p| vec![s, p])),
        )
        .unwrap(),
    );
    c.register(
        "wanted",
        Relation::from_rows(["p#"], (0..10i64).map(|p| vec![p])).unwrap(),
    );
    let logical = PlanBuilder::scan("supplies")
        .divide(PlanBuilder::scan("wanted"))
        .build();
    let expected = div_expr::evaluate(&logical, &c).unwrap();
    assert_eq!(expected.len(), 500);
    (c, logical, expected)
}

fn run_five_hundred_groups(batch_size: usize) -> QueryOutput {
    let (c, logical, expected) = five_hundred_groups();
    let config = PlannerConfig::default()
        .batch_size(batch_size)
        .memory_budget_rows(256)
        .spill_to_disk(true);
    let engine = Engine::builder(c)
        .planner_config(config)
        .without_optimizer()
        .build();
    let output = engine
        .run(Request::plan(&logical))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(output.relation, expected);
    assert!(
        output.stats.peak_resident_rows <= 256,
        "peak {} exceeds the 256-row budget",
        output.stats.peak_resident_rows
    );
    assert_eq!(output.stats.resident_rows_on_finish, 0);
    assert!(
        output.stats.spill_rows_read >= output.stats.spill_rows_written,
        "every spilled row must be read back (written {}, read {})",
        output.stats.spill_rows_written,
        output.stats.spill_rows_read
    );
    output
}

#[test]
fn oversized_dividend_recurses_through_multiple_spill_levels() {
    // 510 rows of coverage state against a 256-row budget: the divide
    // freezes the groups it holds and partitions the rest, and with 64-row
    // batches the budget leaves so little room that the first-level
    // partitions are still far over the leaf bound — they must be
    // re-partitioned at least once more. One pass opens at most 32 files
    // (the fan-out cap), so more partition files than that is the recursion
    // evidence. (This used to be `spill_rows_written >= 2 x the dividend`:
    // true while every dividend row went to disk at least twice, which is
    // the waste the coverage-state trigger removed.)
    let output = run_five_hundred_groups(64);
    assert!(
        output.stats.spill_partitions > 32,
        "{} partition files show no recursive re-partitioning",
        output.stats.spill_partitions
    );
    assert!(output.stats.spill_rows_written > 0);
}

#[test]
fn overflow_spills_only_the_groups_that_are_not_resident() {
    // The same dividend with 8-row batches: the margin is small, the
    // resident state takes some 170 groups and the overflow's partitions
    // all meet the leaf bound, so a single pass (at most 32 files) wrote
    // everything that was ever written — and that is strictly less than
    // the dividend, because the resident groups' rows never leave memory.
    let output = run_five_hundred_groups(8);
    let stats = &output.stats;
    assert!(
        stats.spill_rows_written > 0,
        "510 rows of state fit in 256?"
    );
    assert!(
        stats.spill_partitions <= 32,
        "{} files: not a single pass",
        stats.spill_partitions
    );
    assert!(
        stats.spill_rows_written < 5000,
        "the first pass wrote {} of 5000 dividend rows",
        stats.spill_rows_written
    );
    assert_eq!(stats.spill_rows_read, stats.spill_rows_written);
    // Every dividend row was probed exactly once, resident or spilled.
    assert_eq!(stats.operators[0].probes, 5000);
}

#[test]
fn coverage_state_that_fits_never_touches_disk() {
    // 20,000 dividend rows against a 1,000-row budget — twenty times over —
    // but in 200 quotient groups: divisor + groups is 300 rows of state,
    // which fits, so the dividend streams through and nothing is written.
    let (groups, parts, batch_size, budget) = (200, 100, 64, 1_000);
    let (dividend, wanted) = div_bench::division_workload(groups as i64, parts as i64, 1);
    let (_, grouped) = div_bench::great_divide_workload(1, parts as i64, 4, 25);
    assert!(dividend.len() >= 20_000);
    let mut c = Catalog::new();
    c.register("supplies", dividend);
    c.register("wanted", wanted);
    c.register("grouped", grouped);
    let small = PlanBuilder::scan("supplies")
        .divide(PlanBuilder::scan("wanted"))
        .build();
    let great = PlanBuilder::scan("supplies")
        .great_divide(PlanBuilder::scan("grouped"))
        .build();
    let config = PlannerConfig::default()
        .batch_size(batch_size)
        .memory_budget_rows(budget)
        .spill_to_disk(true);
    for (logical, label) in [(small, "Divide"), (great, "GreatDivide")] {
        let expected = div_expr::evaluate(&logical, &c).unwrap();
        let engine = Engine::builder(c.clone())
            .planner_config(config)
            .without_optimizer()
            .build();
        let output = engine
            .run(Request::plan(&logical))
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(output.relation, expected, "{label}");
        let stats = &output.stats;
        assert_eq!(stats.spill_partitions, 0, "{label}");
        assert_eq!(stats.spill_rows_written, 0, "{label}");
        assert!(
            stats.peak_resident_rows <= budget,
            "{label}: peak {}",
            stats.peak_resident_rows
        );
        let node = &stats.operators[0];
        assert!(node.label.starts_with(label), "{}", node.label);
        assert_eq!(node.peak_retained_rows, parts + groups, "{label}");
    }
}

#[test]
fn aggregate_state_that_fits_never_touches_disk() {
    // 20,000 input rows against a 1,000-row budget — twenty times over —
    // but in 200 groups: the aggregate keeps one accumulator row per group,
    // so the input streams through and nothing is written.
    let (groups, parts, batch_size, budget) = (200, 100, 64, 1_000);
    let (supplies, _) = div_bench::division_workload(groups as i64, parts as i64, 1);
    assert_eq!(supplies.len(), groups * parts);
    let mut c = Catalog::new();
    c.register("supplies", supplies);
    let logical = PlanBuilder::scan("supplies")
        .group_aggregate(
            ["a"],
            [
                AggregateCall::count("b", "n"),
                AggregateCall::sum("b", "total"),
            ],
        )
        .build();
    let expected = evaluate(&logical, &c).unwrap();
    let config = PlannerConfig::default()
        .batch_size(batch_size)
        .memory_budget_rows(budget)
        .spill_to_disk(true);
    let engine = Engine::builder(c)
        .planner_config(config)
        .without_optimizer()
        .build();
    let output = engine
        .run(Request::plan(&logical))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(output.relation, expected);
    let stats = &output.stats;
    assert_eq!(stats.spill_partitions, 0);
    assert_eq!(stats.spill_rows_written, 0);
    assert!(
        stats.peak_resident_rows <= budget,
        "peak {}",
        stats.peak_resident_rows
    );
    let node = &stats.operators[0];
    assert!(node.label.starts_with("HashAggregate"), "{}", node.label);
    assert_eq!(node.peak_retained_rows, groups);
}

#[test]
fn aggregate_overflow_spills_only_the_groups_that_are_not_resident() {
    // 500 groups of 10 rows against a 256-row budget in 8-row batches: the
    // aggregate freezes the groups it holds, keeps accumulating their rows,
    // and writes only the rows of the other groups — in one pass (at most
    // 32 files), strictly fewer rows than its input.
    let (c, _, _) = five_hundred_groups();
    let logical = PlanBuilder::scan("supplies")
        .group_aggregate(
            ["s#"],
            [
                AggregateCall::count("p#", "n"),
                AggregateCall::new(AggregateFunction::Max, "p#", "top"),
            ],
        )
        .build();
    let expected = evaluate(&logical, &c).unwrap();
    assert_eq!(expected.len(), 500);
    let config = PlannerConfig::default()
        .batch_size(8)
        .memory_budget_rows(256)
        .spill_to_disk(true);
    let engine = Engine::builder(c)
        .planner_config(config)
        .without_optimizer()
        .build();
    let output = engine
        .run(Request::plan(&logical))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(output.relation, expected);
    let stats = &output.stats;
    assert!(
        stats.peak_resident_rows <= 256,
        "peak {}",
        stats.peak_resident_rows
    );
    assert_eq!(stats.resident_rows_on_finish, 0);
    assert!(stats.spill_rows_written > 0, "500 groups fit in 256?");
    assert!(
        stats.spill_partitions <= 32,
        "{} files: not a single pass",
        stats.spill_partitions
    );
    assert!(
        stats.spill_rows_written < 5000,
        "the first pass wrote {} of 5000 input rows",
        stats.spill_rows_written
    );
    assert_eq!(stats.spill_rows_read, stats.spill_rows_written);
}

#[test]
fn attached_table_larger_than_budget_streams_through_a_served_query() {
    use div_server::{Client, Server, ServerConfig};
    use std::sync::Arc;

    // A 10k-row file in 256-row chunks, far over the 600-row budget: the
    // served query streams it chunk-at-a-time, and the catalog — which the
    // budget does not meter — never holds its rows.
    let path = temp_path("served");
    let _cleanup = RemoveOnDrop(path.clone());
    let big = Relation::from_rows(["a", "b"], (0..10_000i64).map(|i| vec![i, i % 7])).unwrap();
    div_storage::TableWriter::write_relation(&path, &big, 256).unwrap();

    let engine = Engine::builder(Catalog::new())
        .planner_config(
            PlannerConfig::default()
                .memory_budget_rows(600)
                .spill_to_disk(true),
        )
        .build();
    let server = Server::bind("127.0.0.1:0", Arc::new(engine), ServerConfig::default())
        .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();

    client
        .attach("big", path.to_str().expect("utf-8 temp path"))
        .unwrap();
    let result = client.query("SELECT a, b FROM big WHERE a < 256").unwrap();
    assert_eq!(result.rows.len(), 256);

    // The zone maps prove most chunks irrelevant; EXPLAIN ANALYZE surfaces
    // the skips in its execution stats.
    let analyzed = client
        .explain("SELECT a, b FROM big WHERE a < 256", true)
        .unwrap();
    assert!(
        analyzed.contains("chunks skipped:"),
        "EXPLAIN ANALYZE must surface zone-map skipping:\n{analyzed}"
    );
    assert_eq!(
        server.engine().catalog().tables().count(),
        0,
        "serving an attached table must not materialize it"
    );

    client.close().unwrap();
    server.shutdown();
}

#[test]
fn planning_and_streaming_never_load_an_attached_table() {
    let path = temp_path("unloaded");
    let _cleanup = RemoveOnDrop(path.clone());
    let big = Relation::from_rows(["a", "b"], (0..5_000i64).map(|i| vec![i / 7, i % 7])).unwrap();
    div_storage::TableWriter::write_relation(&path, &big, 1024).unwrap();
    let mut c = Catalog::new();
    c.register_external(
        "big",
        std::sync::Arc::new(div_storage::TableReader::open(&path).unwrap()),
    );
    c.register("wanted", relation! { ["b"] => [1], [2], [3] });
    let resident = |engine: &Engine| -> Vec<String> {
        let catalog = engine.catalog();
        catalog.tables().map(|(name, _)| name.to_string()).collect()
    };

    for optimizer in [true, false] {
        let builder = Engine::builder(c.clone());
        let engine = if optimizer {
            builder.build()
        } else {
            builder.without_optimizer().build()
        };
        for sql in [
            "SELECT a, b FROM big WHERE b = 3",
            "SELECT a FROM big AS s DIVIDE BY wanted AS w ON s.b = w.b",
        ] {
            let drained = engine.query(sql).unwrap().collect().unwrap();
            assert!(!drained.relation.is_empty(), "{sql}");
            engine.prepare(sql).unwrap();
            engine.explain(sql).unwrap();
            engine.explain_analyze(sql).unwrap();
            assert_eq!(
                resident(&engine),
                ["wanted"],
                "optimizer {optimizer}, {sql}: the attached table became resident"
            );
        }
    }

    // The reference path is the one way the file becomes rows.
    assert_eq!(c.table("big").unwrap(), &big);
    assert_eq!(c.tables().count(), 2);
}

#[test]
fn an_attached_file_is_a_set_so_a_grouped_count_matches_the_reference() {
    // The aggregate counts every row it is shown, so a scan must not show
    // one twice. The writer refuses a batch repeating a row, so a file that
    // gets attached holds a set, like the relation the reference reads it as.
    use div_columnar::ColumnarBatch;
    use div_storage::{StorageError, TableReader, TableWriter};

    let path = temp_path("repeats");
    let _cleanup = RemoveOnDrop(path.clone());
    let first = ColumnarBatch::from_relation(&relation! { ["g", "v"] => [1, 1], [1, 2], [2, 1] });
    let mut writer = TableWriter::create(&path, first.schema().clone()).unwrap();
    writer.write_batch(&first).unwrap();
    let err = writer.write_batch(&first).unwrap_err();
    assert!(matches!(err, StorageError::DuplicateRow { .. }), "{err}");
    let rest = ColumnarBatch::from_relation(&relation! { ["g", "v"] => [2, 2], [3, 1] });
    writer.write_batch(&rest).unwrap();
    writer.finish().unwrap();

    let mut c = Catalog::new();
    c.register_external("t", std::sync::Arc::new(TableReader::open(&path).unwrap()));
    let logical = PlanBuilder::scan("t")
        .group_aggregate(["g"], [AggregateCall::count("v", "n")])
        .build();
    let engine = Engine::builder(c.clone()).without_optimizer().build();
    let streamed = engine
        .run(Request::plan(&logical))
        .unwrap()
        .collect()
        .unwrap();
    let counts = relation! { ["g", "n"] => [1, 2], [2, 2], [3, 1] };
    assert_eq!(streamed.relation, counts);
    assert_eq!(evaluate(&logical, &c).unwrap(), counts);
}

#[test]
fn drop_does_not_read_the_file_it_detaches() {
    use div_server::{Client, Server, ServerConfig};
    use std::sync::Arc;

    let path = temp_path("dropped");
    let cleanup = RemoveOnDrop(path.clone());
    let rows = Relation::from_rows(["a", "b"], (0..100i64).map(|i| vec![i, i % 7])).unwrap();
    div_storage::TableWriter::write_relation(&path, &rows, 16).unwrap();

    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(Engine::new(Catalog::new())),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .attach("gone", path.to_str().expect("utf-8 temp path"))
        .unwrap();

    // The file disappears under the registration (which never read more
    // than its footer); DROP still succeeds …
    drop(cleanup);
    assert!(!path.exists());
    let dropped = client.exchange("MUTATE DROP gone").unwrap();
    assert!(
        dropped
            .last()
            .is_some_and(|line| line.starts_with("OK version ")),
        "{dropped:?}"
    );
    assert!(!server.engine().catalog().contains_table("gone"));
    // … the name is unknown from then on, and the pool keeps serving.
    let err = client.query("SELECT a FROM gone").unwrap_err();
    assert!(err.to_string().contains("gone"), "{err}");
    client.ping().unwrap();
    let mut second = Client::connect(server.local_addr()).unwrap();
    second.ping().unwrap();

    second.close().unwrap();
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn a_callers_plain_guard_keeps_the_divide_streaming() {
    // The engine's config asks for spilling under a 300-row budget, but the
    // caller's guard replaces the config-derived one and carries no budget:
    // nothing can spill, so the divide must consume its 2,000-row dividend
    // straight into coverage state instead of buffering it.
    let (groups, parts, batch_size) = (400, 5, 16);
    let (dividend, divisor) = div_bench::division_workload(groups as i64, parts as i64, 1);
    let mut c = Catalog::new();
    c.register("supplies", dividend);
    c.register("wanted", divisor);
    let engine = Engine::builder(c)
        .planner_config(
            PlannerConfig::default()
                .batch_size(batch_size)
                .memory_budget_rows(300)
                .spill_to_disk(true),
        )
        .build();
    let guard = QueryGuard::default().with_token(div_sql::CancelToken::new());
    let sql = "SELECT a FROM supplies AS s DIVIDE BY wanted AS w ON s.b = w.b";
    let output = engine
        .run(Request::sql(sql).guard(guard))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(output.relation.len(), groups);
    assert_eq!(output.stats.spill_partitions, 0);
    let streaming_peak = parts + groups + 4 * batch_size;
    assert!(
        output.stats.peak_resident_rows <= streaming_peak,
        "peak {} is not the streaming divide's (<= {streaming_peak})",
        output.stats.peak_resident_rows
    );
}
