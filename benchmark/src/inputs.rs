//! Generated inputs: the suppliers-parts tables of the paper's Section 4
//! and the statements the workloads rotate through. `--seed` reaches
//! `div_datagen` (and the rotation order) only; the engine sees nothing
//! but the generated tables and the SQL text.

use div_algebra::{AggregateCall, CompareOp, Predicate, Relation, Value};
use div_datagen::suppliers_parts::{self, SuppliersPartsConfig};
use div_expr::{Catalog, LogicalPlan, PlanBuilder};
use div_sql::{parse_query, translate_query};

pub const DEFAULT_SEED: u64 = 20_061_231;

/// The paper's Q1: great divide through `DIVIDE BY`.
pub const Q1: &str = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#";
/// The paper's Q3: the same question as a double `NOT EXISTS`.
pub const Q3: &str = "SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 \
     WHERE NOT EXISTS ( SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND \
     NOT EXISTS ( SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s# ))";
/// Q2 with the color as a `$color` parameter (the prepared form).
pub const Q2_PARAM: &str = "SELECT s# FROM supplies AS s DIVIDE BY \
     (SELECT p# FROM parts WHERE color = $color) AS p ON s.p# = p.p#";

/// The generator assigns these four colors to the parts cyclically.
pub const COLORS: [&str; 4] = ["blue", "red", "green", "yellow"];

/// The paper's Q2: small divide by the parts of one color.
pub fn q2(color: &str) -> String {
    Q2_PARAM.replace("$color", &format!("'{color}'"))
}

/// Table sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub suppliers: usize,
    pub parts: usize,
}

impl Scale {
    /// Front-end-bound: ≈100 `supplies` rows, shrunk until the front-end
    /// spans are over half of a staged `served_adhoc` request.
    pub const SERVED: Scale = Scale {
        suppliers: 24,
        parts: 8,
    };
    /// Execution-bound: ≈155k `supplies` rows.
    pub const EMBEDDED: Scale = Scale {
        suppliers: 6000,
        parts: 50,
    };

    /// `--quick` smoke scale (an eighth of the suppliers).
    pub fn quick(self) -> Scale {
        Scale {
            suppliers: (self.suppliers / 8).max(100),
            ..self
        }
    }

    /// Upper bound of the selective scan `s# < bound` (a sixteenth of the
    /// suppliers, so zone maps can skip most chunks of a file-backed table).
    pub fn filter_bound(self) -> i64 {
        (self.suppliers / 16) as i64
    }
}

/// The generated tables, held by the catalog they are registered in (its
/// tables are shared handles, so cloning the catalog copies no rows).
#[derive(Debug, Clone)]
pub struct Tables {
    catalog: Catalog,
}

impl Tables {
    pub fn generate(seed: u64, scale: Scale) -> Tables {
        let data = suppliers_parts::generate(&SuppliersPartsConfig {
            suppliers: scale.suppliers,
            parts: scale.parts,
            colors: COLORS.len(),
            coverage: 0.5,
            full_suppliers: 0.05,
            seed,
        });
        let mut catalog = Catalog::new();
        catalog.register("supplies", data.supplies);
        catalog.register("parts", data.parts);
        Tables { catalog }
    }

    pub fn catalog(&self) -> Catalog {
        self.catalog.clone()
    }

    pub fn supplies(&self) -> &Relation {
        self.catalog
            .table("supplies")
            .expect("registered at generation")
    }

    pub fn parts(&self) -> &Relation {
        self.catalog
            .table("parts")
            .expect("registered at generation")
    }

    /// `parts` cut down to its first half: catalog state B of the churn
    /// workload (state A is the whole table).
    pub fn parts_first_half(&self) -> Relation {
        let parts = self.parts();
        Relation::new(
            parts.schema().clone(),
            parts.tuples().take(parts.len() / 2).cloned(),
        )
        .expect("a prefix of a relation is a relation")
    }

    pub fn input_rows(&self) -> usize {
        self.supplies().len() + self.parts().len()
    }

    /// Size of the inputs as the wire codec would carry them (a
    /// representation-independent byte count to hold next to the timings).
    pub fn input_bytes(&self) -> usize {
        [self.supplies(), self.parts()]
            .into_iter()
            .flat_map(|r| r.tuples())
            .map(|t| div_server::protocol::encode_row(t.values()).len() + 1)
            .sum()
    }
}

/// How a statement reaches the engine.
#[derive(Debug, Clone)]
pub enum Source {
    /// SQL text through `Engine::query` / `QUERY` / `PREPARE`+`EXECUTE`.
    Sql(String),
    /// A plan-builder shape through `Engine::stream_logical`.
    Plan(LogicalPlan),
}

#[derive(Debug, Clone)]
pub struct Statement {
    /// The class the statement's latency is reported under.
    pub class: &'static str,
    pub source: Source,
    /// `$name` bindings when the statement runs prepared.
    pub params: Vec<(&'static str, Value)>,
    /// The plan handed to the reference evaluator for the expected result.
    pub reference: LogicalPlan,
}

impl Statement {
    fn sql(class: &'static str, text: &str, catalog: &Catalog) -> Statement {
        Statement {
            class,
            source: Source::Sql(text.to_string()),
            params: Vec::new(),
            reference: lower(text, catalog),
        }
    }

    fn plan(class: &'static str, plan: LogicalPlan) -> Statement {
        Statement {
            class,
            source: Source::Plan(plan.clone()),
            params: Vec::new(),
            reference: plan,
        }
    }

    pub fn sql_text(&self) -> Option<&str> {
        match &self.source {
            Source::Sql(text) => Some(text),
            Source::Plan(_) => None,
        }
    }
}

fn lower(sql: &str, catalog: &Catalog) -> LogicalPlan {
    let query = parse_query(sql).expect("benchmark SQL parses");
    translate_query(&query, catalog).expect("benchmark SQL lowers")
}

/// `served_adhoc`: Q1, Q2, Q3 and Q2 with an extra dividend filter.
pub fn adhoc_rotation(catalog: &Catalog, scale: Scale) -> Vec<Statement> {
    let filtered = format!("{} WHERE s# < {}", q2("red"), scale.suppliers / 2);
    vec![
        Statement::sql("great_divide", Q1, catalog),
        Statement::sql("small_divide", &q2("blue"), catalog),
        Statement::sql("not_exists", Q3, catalog),
        Statement::sql("small_divide_filtered", &filtered, catalog),
    ]
}

/// `served_prepared_churn`: prepared Q2, one statement per color.
pub fn churn_rotation(catalog: &Catalog) -> Vec<Statement> {
    COLORS
        .iter()
        .map(|color| Statement {
            class: "small_divide",
            source: Source::Sql(Q2_PARAM.to_string()),
            params: vec![("color", Value::from(*color))],
            reference: lower(&q2(color), catalog),
        })
        .collect()
}

/// The six classes both `embedded_*` workloads run.
pub const EMBEDDED_CLASSES: [&str; 6] = [
    "great_divide",
    "small_divide",
    "not_exists",
    "join",
    "aggregate",
    "filter_scan",
];

/// `embedded_ram` / `embedded_spill`: three SQL statements and three
/// plan-builder shapes.
pub fn embedded_rotation(catalog: &Catalog, scale: Scale) -> Vec<Statement> {
    let join = PlanBuilder::scan("supplies")
        .natural_join(PlanBuilder::scan("supplies"))
        .build();
    let statements = vec![
        Statement::sql("great_divide", Q1, catalog),
        Statement::sql("small_divide", &q2("blue"), catalog),
        Statement::sql("not_exists", Q3, catalog),
        Statement {
            // A natural self-join over every column is the identity, and
            // the reference evaluator's nested-loop join is quadratic in
            // the 150k-row table: the expected result is the table itself.
            reference: PlanBuilder::scan("supplies").build(),
            ..Statement::plan("join", join)
        },
        Statement::plan(
            "aggregate",
            PlanBuilder::scan("supplies")
                .group_aggregate(["s#"], [AggregateCall::count("p#", "n")])
                .build(),
        ),
        Statement::plan(
            "filter_scan",
            PlanBuilder::scan("supplies")
                .select(Predicate::cmp_value(
                    "s#",
                    CompareOp::Lt,
                    scale.filter_bound(),
                ))
                .build(),
        ),
    ];
    statements
}

/// Order in which a pass visits its statements: a permutation of
/// `0..len` drawn from the seed, so neighbouring statements differ
/// between seeds while equal seeds replay the same pass.
pub fn rotation_order(seed: u64, len: usize) -> Vec<usize> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_expr::evaluate;

    const TINY: Scale = Scale {
        suppliers: 40,
        parts: 8,
    };

    #[test]
    fn equal_seeds_give_equal_inputs_and_other_seeds_other_inputs() {
        let a = Tables::generate(7, TINY);
        let b = Tables::generate(7, TINY);
        let c = Tables::generate(8, TINY);
        assert_eq!(a.supplies(), b.supplies());
        assert_eq!(a.parts(), b.parts());
        assert_ne!(a.supplies(), c.supplies());
        assert_eq!(a.input_bytes(), b.input_bytes());
    }

    #[test]
    fn rotation_is_a_seeded_permutation() {
        for seed in 0..20 {
            let order = rotation_order(seed, 6);
            assert_eq!(order, rotation_order(seed, 6));
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        }
        let distinct: std::collections::BTreeSet<_> =
            (0..20).map(|seed| rotation_order(seed, 6)).collect();
        assert!(distinct.len() > 10, "seeds should spread over many orders");
        assert_ne!(rotation_order(1, 6), rotation_order(2, 6));
    }

    #[test]
    fn reference_shortcuts_agree_with_the_statements_they_stand_for() {
        let tables = Tables::generate(3, TINY);
        let catalog = tables.catalog();
        let rotation = embedded_rotation(&catalog, TINY);
        assert!(rotation.iter().map(|s| s.class).eq(EMBEDDED_CLASSES));
        let join = &rotation[3];
        let Source::Plan(join_plan) = &join.source else {
            panic!("join is a plan-builder shape");
        };
        assert_eq!(
            evaluate(join_plan, &catalog).unwrap(),
            evaluate(&join.reference, &catalog).unwrap()
        );
        // Q3 answers Q1's question (the paper's equivalence).
        let q1 = evaluate(&rotation[0].reference, &catalog).unwrap();
        let q3 = evaluate(&rotation[2].reference, &catalog).unwrap();
        assert_eq!(q1, q3);
    }

    #[test]
    fn churn_state_b_is_the_first_half_of_parts() {
        let tables = Tables::generate(3, TINY);
        let half = tables.parts_first_half();
        assert_eq!(half.len(), 4);
        assert!(half.tuples().all(|t| tables.parts().contains(t)));
    }
}
