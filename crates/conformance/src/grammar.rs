//! The grammar-based case generator.
//!
//! A [`CaseSpec`] is one self-contained differential test case: a generated
//! catalog (dividend and divisor tables with controlled types, null density
//! and cardinality) plus a division task over it (quotient attributes `A`,
//! shared attributes `B`, optional group attributes `C`, optional dividend /
//! divisor filters, optional `$param`). From one spec the generator renders
//! every *formulation* of the same quotient the engine understands:
//!
//! | production            | surface | shape                                       |
//! |-----------------------|---------|---------------------------------------------|
//! | `divide-by`           | SQL     | `… DIVIDE BY … ON …` (filters as derived tables or outer `WHERE`) |
//! | `divide-by-params`    | SQL     | same, with the divisor filter as `$p0`      |
//! | `not-exists`          | SQL     | Q3's correlated double `NOT EXISTS`         |
//! | `native`              | plan    | `SmallDivide` / `GreatDivide` over `σ`      |
//! | `difference`          | plan    | `π_A(r) − π_A((π_A(r) × s) − r)`            |
//! | `anti-join`           | plan    | the same simulation via nested anti-semi-joins |
//! | `counting`            | plan    | `π_A(σ_{n=|s|}(γ_{A;count}(r ⋉ s)))`        |
//! | `counting-grouped`    | plan    | `γ`-count join formulation of the great divide |
//!
//! All formulations are semantically the same relation (possibly up to
//! column order), so the differential oracle can demand agreement across
//! them and across every execution strategy. Generation is fully
//! deterministic per seed.

use div_algebra::{CompareOp, Predicate, Relation, Value};
use div_expr::{Catalog, LogicalPlan, PlanBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Value type of a generated column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit integers from a small pool.
    Int,
    /// Short strings from a small pool (exercises dictionary columns).
    Str,
}

/// One generated column.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Value type.
    pub ty: ColType,
    /// Whether generated rows may hold NULL in this column.
    pub nullable: bool,
}

/// One generated base table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Columns, in schema order.
    pub columns: Vec<ColumnSpec>,
    /// Row data (duplicates collapse under set semantics).
    pub rows: Vec<Vec<Value>>,
}

impl TableSpec {
    /// Build the relation.
    pub fn relation(&self) -> Relation {
        Relation::from_rows(
            self.columns.iter().map(|c| c.name.as_str()),
            self.rows.clone(),
        )
        .expect("generated rows match the generated schema")
    }

    fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

/// A comparison filter `column op literal` on one table.
///
/// Filters only ever target non-nullable columns (comparing NULL against a
/// literal is a type error under this workspace's strict semantics), and the
/// operator set narrows to `=` / `<>` for string columns.
#[derive(Debug, Clone)]
pub struct FilterSpec {
    /// Filtered column.
    pub column: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Literal to compare against.
    pub value: Value,
    /// When set, SQL renderings emit `$name` instead of the literal and the
    /// oracle binds `value` through the parameter machinery.
    pub param: Option<String>,
}

impl FilterSpec {
    /// The filter as a reference-algebra predicate (literal substituted).
    pub fn predicate(&self) -> Predicate {
        Predicate::cmp_value(self.column.as_str(), self.op, self.value.clone())
    }

    fn sql(&self, qualifier: Option<&str>, with_param: bool) -> String {
        let column = match qualifier {
            Some(q) => format!("{q}.{}", self.column),
            None => self.column.clone(),
        };
        let rhs = match (&self.param, with_param) {
            (Some(name), true) => format!("${name}"),
            _ => sql_literal(&self.value),
        };
        format!("{column} {op} {rhs}", op = compare_op_sql(self.op))
    }

    /// `true` when `value op self.value` holds (used to pre-compute divisor
    /// cardinalities for the counting formulation).
    pub fn matches(&self, value: &Value) -> bool {
        self.op
            .eval(value, &self.value)
            .expect("filters only target non-nullable columns")
    }
}

/// Where the dividend filter appears in the `DIVIDE BY` SQL rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DividendFilterPlacement {
    /// Inside a derived dividend table: `(SELECT * FROM t WHERE …) AS d`.
    Derived,
    /// As the outer `WHERE` above the division (the filter column is always
    /// a quotient attribute, so this is Law 3 / Law 14 territory).
    Outer,
}

/// One generated differential case.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// The seed this case was generated from.
    pub seed: u64,
    /// Dividend table; schema is exactly `A ++ B`.
    pub dividend: TableSpec,
    /// Divisor table; schema is exactly `B ++ C`.
    pub divisor: TableSpec,
    /// Quotient attributes `A` (1–2 columns).
    pub quotient_cols: Vec<String>,
    /// Shared attributes `B` (1–2 columns).
    pub join_cols: Vec<String>,
    /// Group attributes `C`; empty means a small divide.
    pub group_cols: Vec<String>,
    /// Optional filter on a (non-nullable) quotient column of the dividend.
    pub dividend_filter: Option<FilterSpec>,
    /// Where the dividend filter renders in SQL.
    pub dividend_filter_placement: DividendFilterPlacement,
    /// Optional filter on a (non-nullable) divisor column.
    pub divisor_filter: Option<FilterSpec>,
    /// `SELECT *` instead of an explicit quotient column list.
    pub select_wildcard: bool,
    /// Emit `SELECT DISTINCT` (a no-op under set semantics).
    pub distinct: bool,
    /// Flip the orientation of the `ON` equalities (`v.b = d.b`).
    pub flip_on: bool,
    /// Use bare table names instead of `AS` aliases where legal.
    pub bare_names: bool,
}

/// One executable formulation of a case.
#[derive(Debug, Clone)]
pub struct Formulation {
    /// Stable production name (documented in `LAWS.md`).
    pub name: &'static str,
    /// The query, as SQL text or as a logical plan.
    pub form: QueryForm,
}

/// The surface a formulation executes through.
#[derive(Debug, Clone)]
pub enum QueryForm {
    /// SQL text plus the parameter bindings it needs (empty for most).
    Sql {
        /// The SQL text.
        sql: String,
        /// Name/value bindings for `$name` parameters in the text.
        params: Vec<(String, Value)>,
    },
    /// A logical plan executed through `Engine::run(Request::plan(..))`.
    Logical(LogicalPlan),
}

impl fmt::Display for CaseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed: {:#x}", self.seed)?;
        for table in [&self.dividend, &self.divisor] {
            let cols: Vec<String> = table
                .columns
                .iter()
                .map(|c| {
                    format!(
                        "{}:{}{}",
                        c.name,
                        match c.ty {
                            ColType::Int => "int",
                            ColType::Str => "str",
                        },
                        if c.nullable { "?" } else { "" }
                    )
                })
                .collect();
            writeln!(
                f,
                "table {}({}) [{} rows]",
                table.name,
                cols.join(", "),
                table.rows.len()
            )?;
            for row in &table.rows {
                let cells: Vec<String> = row.iter().map(render_value).collect();
                writeln!(f, "  {}", cells.join("|"))?;
            }
        }
        writeln!(f, "sql: {}", self.divide_by_sql(false))
    }
}

const STR_POOL: [&str; 4] = ["x", "y", "z", "w"];
const INT_POOL: i64 = 5;

impl CaseSpec {
    /// Generate the case for `seed`. Deterministic: equal seeds yield equal
    /// specs byte for byte.
    pub fn generate(seed: u64) -> CaseSpec {
        let mut rng = StdRng::seed_from_u64(seed);

        // Force the exact Q3 shape (|A| = |B| = |C| = 1, no filters) often
        // enough that the double-NOT-EXISTS production gets real coverage.
        let force_q3 = rng.gen_bool(0.22);
        let a_n = if force_q3 {
            1
        } else {
            rng.gen_range(1..=2usize)
        };
        let b_n = if force_q3 {
            1
        } else {
            rng.gen_range(1..=2usize)
        };
        // Short-circuit keeps the RNG stream identical to the two-branch
        // form: a forced Q3 shape never draws the group-column coin.
        let c_n = usize::from(force_q3 || rng.gen_bool(0.4));

        let null_density = if rng.gen_bool(0.35) { 0.15 } else { 0.0 };
        let make_col = |prefix: &str, i: usize, nullable_ok: bool, rng: &mut StdRng| {
            let ty = if rng.gen_bool(0.5) {
                ColType::Int
            } else {
                ColType::Str
            };
            ColumnSpec {
                name: format!("{prefix}{i}"),
                ty,
                nullable: nullable_ok && null_density > 0.0 && rng.gen_bool(0.6),
            }
        };
        let a_cols: Vec<ColumnSpec> = (0..a_n)
            .map(|i| make_col("a", i, false, &mut rng))
            .collect();
        // NULLs live in the shared (join/divide key) columns, where the
        // engine's semantics (NULL matches NULL) are well defined.
        let b_cols: Vec<ColumnSpec> = (0..b_n).map(|i| make_col("b", i, true, &mut rng)).collect();
        let c_cols: Vec<ColumnSpec> = (0..c_n)
            .map(|i| make_col("c", i, false, &mut rng))
            .collect();

        let draw_value = |col: &ColumnSpec, rng: &mut StdRng| -> Value {
            if col.nullable && rng.gen_bool(null_density) {
                return Value::Null;
            }
            match col.ty {
                ColType::Int => Value::from(rng.gen_range(0..INT_POOL)),
                ColType::Str => Value::from(STR_POOL[rng.gen_range(0..STR_POOL.len())]),
            }
        };

        let dividend_cols: Vec<ColumnSpec> = a_cols.iter().chain(&b_cols).cloned().collect();
        let divisor_cols: Vec<ColumnSpec> = b_cols.iter().chain(&c_cols).cloned().collect();

        let dividend_rows_n = rng.gen_range(0..=28usize);
        let divisor_rows_n = rng.gen_range(0..=6usize);
        let dividend_rows: Vec<Vec<Value>> = (0..dividend_rows_n)
            .map(|_| {
                dividend_cols
                    .iter()
                    .map(|c| draw_value(c, &mut rng))
                    .collect()
            })
            .collect();
        let divisor_rows: Vec<Vec<Value>> = (0..divisor_rows_n)
            .map(|_| {
                divisor_cols
                    .iter()
                    .map(|c| draw_value(c, &mut rng))
                    .collect()
            })
            .collect();

        let make_filter = |candidates: Vec<&ColumnSpec>,
                           allow_param: bool,
                           rng: &mut StdRng|
         -> Option<FilterSpec> {
            let eligible: Vec<&ColumnSpec> =
                candidates.into_iter().filter(|c| !c.nullable).collect();
            if eligible.is_empty() {
                return None;
            }
            let col = eligible[rng.gen_range(0..eligible.len())];
            let (op, value) = match col.ty {
                ColType::Int => {
                    let ops = [
                        CompareOp::Eq,
                        CompareOp::NotEq,
                        CompareOp::Lt,
                        CompareOp::LtEq,
                        CompareOp::Gt,
                        CompareOp::GtEq,
                    ];
                    (
                        ops[rng.gen_range(0..ops.len())],
                        Value::from(rng.gen_range(0..INT_POOL)),
                    )
                }
                ColType::Str => {
                    let ops = [CompareOp::Eq, CompareOp::NotEq];
                    (
                        ops[rng.gen_range(0..ops.len())],
                        Value::from(STR_POOL[rng.gen_range(0..STR_POOL.len())]),
                    )
                }
            };
            let param = if allow_param && rng.gen_bool(0.4) {
                Some("p0".to_string())
            } else {
                None
            };
            Some(FilterSpec {
                column: col.name.clone(),
                op,
                value,
                param,
            })
        };

        let dividend_filter = if !force_q3 && rng.gen_bool(0.35) {
            make_filter(a_cols.iter().collect(), false, &mut rng)
        } else {
            None
        };
        let divisor_filter = if !force_q3 && rng.gen_bool(0.35) {
            make_filter(b_cols.iter().chain(&c_cols).collect(), true, &mut rng)
        } else {
            None
        };

        CaseSpec {
            seed,
            dividend: TableSpec {
                name: "t_div".to_string(),
                columns: dividend_cols,
                rows: dividend_rows,
            },
            divisor: TableSpec {
                name: "t_dvr".to_string(),
                columns: divisor_cols,
                rows: divisor_rows,
            },
            quotient_cols: a_cols.iter().map(|c| c.name.clone()).collect(),
            join_cols: b_cols.iter().map(|c| c.name.clone()).collect(),
            group_cols: c_cols.iter().map(|c| c.name.clone()).collect(),
            dividend_filter,
            dividend_filter_placement: if rng.gen_bool(0.5) {
                DividendFilterPlacement::Outer
            } else {
                DividendFilterPlacement::Derived
            },
            divisor_filter,
            select_wildcard: rng.gen_bool(0.35),
            distinct: rng.gen_bool(0.3),
            flip_on: rng.gen_bool(0.3),
            bare_names: rng.gen_bool(0.25),
        }
    }

    /// `true` when the case is a great divide (group attributes present).
    pub fn is_great(&self) -> bool {
        !self.group_cols.is_empty()
    }

    /// The catalog holding the two generated tables.
    pub fn catalog(&self) -> Catalog {
        let mut catalog = Catalog::new();
        catalog.register(self.dividend.name.as_str(), self.dividend.relation());
        catalog.register(self.divisor.name.as_str(), self.divisor.relation());
        catalog
    }

    /// Quotient attributes of the result: `A` for a small divide, `A ++ C`
    /// for a great divide.
    pub fn result_cols(&self) -> Vec<String> {
        self.quotient_cols
            .iter()
            .chain(&self.group_cols)
            .cloned()
            .collect()
    }

    fn dividend_binding(&self) -> &str {
        if self.bare_names
            && self.dividend_filter_effective_placement() != DividendFilterPlacement::Derived
        {
            &self.dividend.name
        } else {
            "d"
        }
    }

    fn divisor_binding(&self) -> &str {
        if self.bare_names && self.divisor_filter.is_none() {
            &self.divisor.name
        } else {
            "v"
        }
    }

    fn dividend_filter_effective_placement(&self) -> DividendFilterPlacement {
        if self.dividend_filter.is_none() {
            DividendFilterPlacement::Outer
        } else {
            self.dividend_filter_placement
        }
    }

    /// The `DIVIDE BY` SQL rendering. With `with_param` the divisor filter
    /// renders as `$p0`; otherwise the literal is substituted in place.
    pub fn divide_by_sql(&self, with_param: bool) -> String {
        let d = self.dividend_binding();
        let v = self.divisor_binding();

        let select_list = if self.select_wildcard {
            "*".to_string()
        } else {
            self.result_cols().join(", ")
        };
        let distinct = if self.distinct { "DISTINCT " } else { "" };

        let dividend_factor = match (&self.dividend_filter, self.dividend_filter_placement) {
            (Some(filter), DividendFilterPlacement::Derived) => format!(
                "(SELECT * FROM {} WHERE {}) AS {d}",
                self.dividend.name,
                filter.sql(None, false)
            ),
            _ if d == self.dividend.name => self.dividend.name.clone(),
            _ => format!("{} AS {d}", self.dividend.name),
        };
        let divisor_factor = match &self.divisor_filter {
            Some(filter) => format!(
                "(SELECT * FROM {} WHERE {}) AS {v}",
                self.divisor.name,
                filter.sql(None, with_param)
            ),
            None if v == self.divisor.name => self.divisor.name.clone(),
            None => format!("{} AS {v}", self.divisor.name),
        };

        let on: Vec<String> = self
            .join_cols
            .iter()
            .map(|b| {
                if self.flip_on {
                    format!("{v}.{b} = {d}.{b}")
                } else {
                    format!("{d}.{b} = {v}.{b}")
                }
            })
            .collect();

        let mut sql = format!(
            "SELECT {distinct}{select_list} FROM {dividend_factor} DIVIDE BY {divisor_factor} ON {}",
            on.join(" AND ")
        );
        if let (Some(filter), DividendFilterPlacement::Outer) =
            (&self.dividend_filter, self.dividend_filter_placement)
        {
            sql.push_str(&format!(" WHERE {}", filter.sql(None, false)));
        }
        sql
    }

    /// `true` when the case matches the exact correlated double-`NOT EXISTS`
    /// shape the lowering recognizes (Q3 of the paper).
    pub fn not_exists_eligible(&self) -> bool {
        self.quotient_cols.len() == 1
            && self.join_cols.len() == 1
            && self.group_cols.len() == 1
            && self.dividend_filter.is_none()
            && self.divisor_filter.is_none()
    }

    /// The double-`NOT EXISTS` SQL rendering (only when
    /// [`CaseSpec::not_exists_eligible`]).
    pub fn not_exists_sql(&self) -> Option<String> {
        if !self.not_exists_eligible() {
            return None;
        }
        let (a, b, c) = (
            &self.quotient_cols[0],
            &self.join_cols[0],
            &self.group_cols[0],
        );
        let (t1, t2) = (&self.dividend.name, &self.divisor.name);
        Some(format!(
            "SELECT DISTINCT x1.{a}, y1.{c} FROM {t1} AS x1, {t2} AS y1 \
             WHERE NOT EXISTS (SELECT * FROM {t2} AS y2 WHERE y2.{c} = y1.{c} \
             AND NOT EXISTS (SELECT * FROM {t1} AS x2 WHERE x2.{b} = y2.{b} \
             AND x2.{a} = x1.{a}))"
        ))
    }

    /// The filtered dividend as a plan builder.
    fn dividend_plan(&self) -> PlanBuilder {
        let mut plan = PlanBuilder::scan(self.dividend.name.as_str());
        if let Some(filter) = &self.dividend_filter {
            plan = plan.select(filter.predicate());
        }
        plan
    }

    /// The filtered divisor as a plan builder.
    fn divisor_plan(&self) -> PlanBuilder {
        let mut plan = PlanBuilder::scan(self.divisor.name.as_str());
        if let Some(filter) = &self.divisor_filter {
            plan = plan.select(filter.predicate());
        }
        plan
    }

    /// The native logical formulation: `σ` inputs into the genuine division
    /// operator.
    pub fn native_plan(&self) -> LogicalPlan {
        let dividend = self.dividend_plan();
        let divisor = self.divisor_plan();
        if self.is_great() {
            dividend.great_divide(divisor).build()
        } else {
            dividend.divide(divisor).build()
        }
    }

    /// Number of tuples in the (filtered) divisor — the `|s|` of the
    /// counting formulation, computed directly from the spec.
    pub fn divisor_count(&self) -> usize {
        self.divisor
            .relation()
            .tuples()
            .filter(|t| match &self.divisor_filter {
                Some(filter) => {
                    let idx = self
                        .divisor
                        .column_names()
                        .iter()
                        .position(|c| *c == filter.column)
                        .expect("filter column exists");
                    filter.matches(&t.values()[idx])
                }
                None => true,
            })
            .count()
    }

    /// The set-difference simulation of the small divide
    /// ([`PlanBuilder::difference_plan`]).
    pub fn difference_plan(&self) -> Option<LogicalPlan> {
        if self.is_great() {
            return None;
        }
        let plan = self.dividend_plan().difference_plan(
            self.divisor_plan(),
            &self.quotient_cols,
            &self.join_cols,
        );
        Some(plan.build())
    }

    /// The same simulation expressed through nested anti-semi-joins
    /// ([`PlanBuilder::anti_join_plan`]).
    pub fn anti_join_plan(&self) -> Option<LogicalPlan> {
        if self.is_great() {
            return None;
        }
        let plan = self
            .dividend_plan()
            .anti_join_plan(self.divisor_plan(), &self.quotient_cols);
        Some(plan.build())
    }

    /// The `GROUP BY` / `HAVING COUNT`-style formulation of the small
    /// divide ([`PlanBuilder::counting_plan`]).
    pub fn counting_plan(&self) -> Option<LogicalPlan> {
        if self.is_great() {
            return None;
        }
        let plan = self.dividend_plan().counting_plan(
            self.divisor_plan(),
            &self.quotient_cols,
            &self.join_cols,
            self.divisor_count(),
        );
        Some(plan.build())
    }

    /// The counting formulation of the great divide
    /// ([`PlanBuilder::counting_grouped_plan`]).
    pub fn counting_grouped_plan(&self) -> Option<LogicalPlan> {
        if !self.is_great() {
            return None;
        }
        let plan = self.dividend_plan().counting_grouped_plan(
            self.divisor_plan(),
            &self.quotient_cols,
            &self.join_cols,
            &self.group_cols,
        );
        Some(plan.build())
    }

    /// Every formulation of this case, SQL and logical.
    pub fn formulations(&self) -> Vec<Formulation> {
        let mut out = vec![Formulation {
            name: "divide-by",
            form: QueryForm::Sql {
                sql: self.divide_by_sql(false),
                params: Vec::new(),
            },
        }];
        if let Some(filter) = &self.divisor_filter {
            if let Some(param) = &filter.param {
                out.push(Formulation {
                    name: "divide-by-params",
                    form: QueryForm::Sql {
                        sql: self.divide_by_sql(true),
                        params: vec![(param.clone(), filter.value.clone())],
                    },
                });
            }
        }
        if let Some(sql) = self.not_exists_sql() {
            out.push(Formulation {
                name: "not-exists",
                form: QueryForm::Sql {
                    sql,
                    params: Vec::new(),
                },
            });
        }
        out.push(Formulation {
            name: "native",
            form: QueryForm::Logical(self.native_plan()),
        });
        for (name, plan) in [
            ("difference", self.difference_plan()),
            ("anti-join", self.anti_join_plan()),
            ("counting", self.counting_plan()),
            ("counting-grouped", self.counting_grouped_plan()),
        ] {
            if let Some(plan) = plan {
                out.push(Formulation {
                    name,
                    form: QueryForm::Logical(plan),
                });
            }
        }
        out
    }
}

/// Render a value as a SQL literal.
pub fn sql_literal(value: &Value) -> String {
    match value {
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{s}'"),
        other => panic!("no SQL literal rendering for {other:?}"),
    }
}

/// Render a value for golden files and failure reports (`NULL` for nulls,
/// bare text otherwise — the same stable form [`Value`]'s `Display` uses).
pub fn render_value(value: &Value) -> String {
    value.to_string()
}

fn compare_op_sql(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::NotEq => "<>",
        CompareOp::Lt => "<",
        CompareOp::LtEq => "<=",
        CompareOp::Gt => ">",
        CompareOp::GtEq => ">=",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = CaseSpec::generate(seed);
            let b = CaseSpec::generate(seed);
            assert_eq!(format!("{a}"), format!("{b}"));
            assert_eq!(a.divide_by_sql(true), b.divide_by_sql(true));
        }
    }

    #[test]
    fn divide_by_sql_parses_and_translates() {
        for seed in 0..200u64 {
            let spec = CaseSpec::generate(seed);
            let catalog = spec.catalog();
            let sql = spec.divide_by_sql(false);
            let query = div_sql::parse_query(&sql)
                .unwrap_or_else(|e| panic!("seed {seed}: parse failed for `{sql}`: {e}"));
            div_sql::translate_query(&query, &catalog)
                .unwrap_or_else(|e| panic!("seed {seed}: translate failed for `{sql}`: {e}"));
        }
    }

    #[test]
    fn not_exists_sql_lowers_to_a_great_divide() {
        let mut seen = 0;
        for seed in 0..200u64 {
            let spec = CaseSpec::generate(seed);
            let Some(sql) = spec.not_exists_sql() else {
                continue;
            };
            seen += 1;
            let catalog = spec.catalog();
            let query = div_sql::parse_query(&sql).expect("parses");
            let plan = div_sql::translate_query(&query, &catalog)
                .unwrap_or_else(|e| panic!("seed {seed}: translate failed for `{sql}`: {e}"));
            assert!(
                plan.contains_division(),
                "seed {seed}: double NOT EXISTS did not lower to a division:\n{}",
                plan.explain()
            );
        }
        assert!(seen > 20, "Q3 shape under-covered: {seen}/200");
    }

    #[test]
    fn all_formulations_agree_with_the_reference() {
        for seed in 0..150u64 {
            let spec = CaseSpec::generate(seed);
            let catalog = spec.catalog();
            let reference = div_expr::evaluate(&spec.native_plan(), &catalog)
                .unwrap_or_else(|e| panic!("seed {seed}: native evaluation failed: {e}"));
            let canonical = canonicalize(&reference);
            for f in spec.formulations() {
                let plan = match &f.form {
                    QueryForm::Sql { sql, params } => {
                        // The reference evaluator has no parameter surface:
                        // substitute bindings as literals before translating.
                        let mut sql = sql.clone();
                        for (name, value) in params {
                            sql = sql.replace(&format!("${name}"), &sql_literal(value));
                        }
                        let query = div_sql::parse_query(&sql).expect("parses");
                        div_sql::translate_query(&query, &catalog).unwrap_or_else(|e| {
                            panic!(
                                "seed {seed} [{}]: translate failed for `{sql}`: {e}",
                                f.name
                            )
                        })
                    }
                    QueryForm::Logical(plan) => plan.clone(),
                };
                let result = div_expr::evaluate(&plan, &catalog)
                    .unwrap_or_else(|e| panic!("seed {seed} [{}]: evaluation failed: {e}", f.name));
                assert_eq!(
                    canonicalize(&result),
                    canonical,
                    "seed {seed}: formulation `{}` disagrees with the reference\ncase:\n{spec}",
                    f.name
                );
            }
        }
    }

    fn canonicalize(relation: &Relation) -> Relation {
        let mut names = relation.schema().names();
        names.sort_unstable();
        relation.project(&names).expect("projection to own columns")
    }
}
