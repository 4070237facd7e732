//! Translation of parsed SQL into logical plans.
//!
//! Two paths exist, mirroring Section 4 of the paper:
//!
//! * Queries using the proposed `DIVIDE BY … ON` syntax (Q1, Q2) are lowered
//!   directly: the `<quotient>` becomes a [`LogicalPlan::SmallDivide`] when
//!   every divisor attribute appears in the `ON` clause as a conjunction of
//!   equi-joins, and a [`LogicalPlan::GreatDivide`] otherwise. Join conditions
//!   other than conjunctions of equality comparisons between a dividend and a
//!   divisor column are rejected, following the paper's suggestion to
//!   disallow them.
//! * Queries formulating universal quantification with the classic double
//!   `NOT EXISTS` pattern (Q3) are recognized by
//!   [`detect_double_not_exists`] and rewritten into a great divide — the
//!   rewrite the paper describes as difficult for a general query optimizer.
//!   Other correlated subqueries are rejected with a clear error.

use crate::ast::{
    ColumnRef, Query, SelectItem, SqlCompareOp, SqlCondition, SqlLiteral, SqlOperand, TableFactor,
    TableReference,
};
use div_algebra::{CompareOp, Predicate, Schema, Value};
use div_expr::{infer_schema, Catalog, ExprError, LogicalPlan};

type Result<T> = std::result::Result<T, ExprError>;

/// A lowered table reference: the plan plus the aliases it binds and their
/// visible schemas (used to resolve qualified column references).
struct Lowered {
    plan: LogicalPlan,
    bindings: Vec<(String, Schema)>,
}

impl Lowered {
    fn output_schema(&self, catalog: &Catalog) -> Result<Schema> {
        infer_schema(&self.plan, catalog)
    }
}

/// Translate a parsed query into a logical plan over `catalog`.
pub fn translate_query(query: &Query, catalog: &Catalog) -> Result<LogicalPlan> {
    // The Q3 shape: no DIVIDE BY but a double NOT EXISTS — rewrite it.
    if !query.uses_divide_by() && query.uses_exists() {
        if let Some(plan) = detect_double_not_exists(query, catalog)? {
            return Ok(plan);
        }
        return Err(ExprError::invalid(
            "unsupported correlated subquery: only the double NOT EXISTS universal-quantification \
             pattern (query Q3 of the paper) is recognized",
        ));
    }

    // Lower the FROM clause.
    let mut lowered: Option<Lowered> = None;
    for table_ref in &query.from {
        let next = lower_table_reference(table_ref, catalog)?;
        lowered = Some(match lowered {
            None => next,
            Some(acc) => {
                let mut bindings = acc.bindings;
                bindings.extend(next.bindings);
                Lowered {
                    plan: LogicalPlan::Product {
                        left: Box::new(acc.plan),
                        right: Box::new(next.plan),
                    },
                    bindings,
                }
            }
        });
    }
    let lowered = lowered.ok_or_else(|| ExprError::invalid("FROM clause is empty"))?;

    // WHERE clause.
    let mut plan = lowered.plan.clone();
    if let Some(cond) = &query.where_clause {
        let predicate = translate_condition(cond, &lowered.bindings)?;
        plan = LogicalPlan::Select {
            input: Box::new(plan),
            predicate,
        };
    }

    // SELECT list.
    if query
        .select
        .iter()
        .any(|item| matches!(item, SelectItem::Wildcard))
    {
        return Ok(plan);
    }
    // Resolve the select list against the bindings first (this reports
    // unknown or ambiguous columns precisely), then validate against the
    // actual output schema.
    let mut attributes = Vec::new();
    for item in &query.select {
        let SelectItem::Column(col) = item else {
            continue;
        };
        attributes.push(resolve_column(col, &lowered.bindings)?);
    }
    let schema = infer_schema(&plan, catalog)?;
    for (item, name) in query.select.iter().zip(&attributes) {
        if !schema.contains(name) {
            return Err(ExprError::invalid(format!(
                "selected column `{item:?}` is not produced by the FROM clause (schema {schema})"
            )));
        }
    }
    Ok(LogicalPlan::Project {
        input: Box::new(plan),
        attributes,
    })
}

fn lower_table_reference(table_ref: &TableReference, catalog: &Catalog) -> Result<Lowered> {
    match table_ref {
        TableReference::Factor(factor) => lower_table_factor(factor, catalog),
        TableReference::DivideBy {
            dividend,
            divisor,
            condition,
        } => lower_divide_by(dividend, divisor, condition, catalog),
    }
}

fn lower_table_factor(factor: &TableFactor, catalog: &Catalog) -> Result<Lowered> {
    match factor {
        TableFactor::Table { name, alias } => {
            let plan = LogicalPlan::Scan {
                table: name.clone(),
            };
            let schema = infer_schema(&plan, catalog)?;
            let binding = alias.clone().unwrap_or_else(|| name.clone());
            Ok(Lowered {
                plan,
                bindings: vec![(binding, schema)],
            })
        }
        TableFactor::Derived { query, alias } => {
            let plan = translate_query(query, catalog)?;
            let schema = infer_schema(&plan, catalog)?;
            let binding = alias
                .clone()
                .ok_or_else(|| ExprError::invalid("derived tables require an alias"))?;
            Ok(Lowered {
                plan,
                bindings: vec![(binding, schema)],
            })
        }
    }
}

fn lower_divide_by(
    dividend: &TableReference,
    divisor: &TableReference,
    condition: &SqlCondition,
    catalog: &Catalog,
) -> Result<Lowered> {
    let dividend_lowered = lower_table_reference(dividend, catalog)?;
    let divisor_lowered = lower_table_reference(divisor, catalog)?;
    let dividend_schema = dividend_lowered.output_schema(catalog)?;
    let divisor_schema = divisor_lowered.output_schema(catalog)?;

    // The ON clause must be a conjunction of equi-joins between one dividend
    // and one divisor column.
    let mut join_pairs: Vec<(String, String)> = Vec::new();
    for conjunct in condition.conjuncts() {
        let SqlCondition::Comparison {
            left,
            op: SqlCompareOp::Eq,
            right,
        } = conjunct
        else {
            return Err(ExprError::invalid(
                "the ON clause of DIVIDE BY must be a conjunction of equality comparisons \
                 between a dividend column and a divisor column",
            ));
        };
        let (SqlOperand::Column(l), SqlOperand::Column(r)) = (left, right) else {
            return Err(ExprError::invalid(
                "the ON clause of DIVIDE BY must compare columns, not literals",
            ));
        };
        let l_name = resolve_column(l, &dividend_lowered.bindings)
            .ok()
            .filter(|n| dividend_schema.contains(n));
        let r_name = resolve_column(r, &divisor_lowered.bindings)
            .ok()
            .filter(|n| divisor_schema.contains(n));
        let pair = match (l_name, r_name) {
            (Some(d), Some(v)) => (d, v),
            _ => {
                // Try the swapped orientation: divisor column on the left.
                let l_as_divisor = resolve_column(l, &divisor_lowered.bindings)
                    .ok()
                    .filter(|n| divisor_schema.contains(n));
                let r_as_dividend = resolve_column(r, &dividend_lowered.bindings)
                    .ok()
                    .filter(|n| dividend_schema.contains(n));
                match (r_as_dividend, l_as_divisor) {
                    (Some(d), Some(v)) => (d, v),
                    _ => {
                        return Err(ExprError::invalid(format!(
                            "ON clause comparison `{l} = {r}` must relate a dividend column to a \
                             divisor column"
                        )))
                    }
                }
            }
        };
        join_pairs.push(pair);
    }
    if join_pairs.is_empty() {
        return Err(ExprError::invalid(
            "the ON clause of DIVIDE BY must contain at least one equi-join",
        ));
    }

    // Rename divisor join columns to the dividend's names where they differ,
    // so the algebra operator (which matches shared attributes by name) sees
    // the intended B set.
    let mut divisor_plan = divisor_lowered.plan.clone();
    let mut renames: Vec<(String, String)> = Vec::new();
    for (d_name, v_name) in &join_pairs {
        if d_name != v_name {
            renames.push((v_name.clone(), d_name.clone()));
        }
    }
    // Any non-join divisor attribute that collides with a dividend attribute
    // would silently join as well; qualify it with the divisor binding name.
    let join_divisor_names: Vec<&String> = join_pairs.iter().map(|(_, v)| v).collect();
    let divisor_binding = divisor_lowered
        .bindings
        .first()
        .map(|(b, _)| b.clone())
        .unwrap_or_else(|| "divisor".to_string());
    for attr in divisor_schema.names() {
        if !join_divisor_names.iter().any(|v| v.as_str() == attr) && dividend_schema.contains(attr)
        {
            renames.push((attr.to_string(), format!("{divisor_binding}.{attr}")));
        }
    }
    if !renames.is_empty() {
        divisor_plan = LogicalPlan::Rename {
            input: Box::new(divisor_plan),
            renames,
        };
    }
    let renamed_divisor_schema = infer_schema(&divisor_plan, catalog)?;

    // Small divide if every divisor attribute is a join attribute, great
    // divide otherwise (Section 4).
    let shared: Vec<String> = join_pairs.iter().map(|(d, _)| d.clone()).collect();
    let is_small = renamed_divisor_schema
        .names()
        .iter()
        .all(|n| shared.iter().any(|s| s == n));
    let plan = if is_small {
        LogicalPlan::SmallDivide {
            dividend: Box::new(dividend_lowered.plan.clone()),
            divisor: Box::new(divisor_plan),
        }
    } else {
        LogicalPlan::GreatDivide {
            dividend: Box::new(dividend_lowered.plan.clone()),
            divisor: Box::new(divisor_plan),
        }
    };

    // The quotient exposes the dividend's quotient attributes under the
    // dividend binding and the divisor's group attributes under the divisor
    // binding.
    let quotient = infer_schema(&plan, catalog)?;
    let mut bindings = Vec::new();
    for (binding, schema) in dividend_lowered
        .bindings
        .iter()
        .chain(divisor_lowered.bindings.iter())
    {
        let visible: Vec<&str> = schema
            .names()
            .into_iter()
            .filter(|n| quotient.contains(n))
            .collect();
        if !visible.is_empty() {
            bindings.push((binding.clone(), Schema::new(visible)?));
        }
    }
    Ok(Lowered { plan, bindings })
}

/// Resolve a (possibly qualified) column reference against the visible
/// bindings, returning the plain attribute name.
fn resolve_column(col: &ColumnRef, bindings: &[(String, Schema)]) -> Result<String> {
    match &col.qualifier {
        Some(qualifier) => {
            let (_, schema) = bindings
                .iter()
                .find(|(b, _)| b == qualifier)
                .ok_or_else(|| {
                    ExprError::invalid(format!("unknown table alias `{qualifier}` in `{col}`"))
                })?;
            if !schema.contains(&col.column) {
                return Err(ExprError::invalid(format!(
                    "column `{col}` does not exist in `{qualifier}` (schema {schema})"
                )));
            }
            Ok(col.column.clone())
        }
        None => {
            let matches: Vec<&str> = bindings
                .iter()
                .filter(|(_, schema)| schema.contains(&col.column))
                .map(|(b, _)| b.as_str())
                .collect();
            match matches.len() {
                0 => Err(ExprError::invalid(format!(
                    "column `{}` is not bound by the FROM clause",
                    col.column
                ))),
                1 => Ok(col.column.clone()),
                _ => Err(ExprError::invalid(format!(
                    "column `{}` is ambiguous (bound by {})",
                    col.column,
                    matches.join(", ")
                ))),
            }
        }
    }
}

fn sql_op_to_algebra(op: SqlCompareOp) -> CompareOp {
    match op {
        SqlCompareOp::Eq => CompareOp::Eq,
        SqlCompareOp::NotEq => CompareOp::NotEq,
        SqlCompareOp::Lt => CompareOp::Lt,
        SqlCompareOp::LtEq => CompareOp::LtEq,
        SqlCompareOp::Gt => CompareOp::Gt,
        SqlCompareOp::GtEq => CompareOp::GtEq,
    }
}

fn literal_to_value(literal: &SqlLiteral) -> Value {
    match literal {
        SqlLiteral::Number(n) => Value::Int(*n),
        SqlLiteral::String(s) => Value::str(s.clone()),
    }
}

/// Translate a non-correlated search condition to a predicate over the
/// combined FROM schema.
fn translate_condition(
    condition: &SqlCondition,
    bindings: &[(String, Schema)],
) -> Result<Predicate> {
    match condition {
        SqlCondition::Comparison { left, op, right } => {
            let op = sql_op_to_algebra(*op);
            match (left, right) {
                (SqlOperand::Column(l), SqlOperand::Column(r)) => Ok(Predicate::cmp_attrs(
                    resolve_column(l, bindings)?,
                    op,
                    resolve_column(r, bindings)?,
                )),
                (SqlOperand::Column(l), SqlOperand::Literal(v)) => Ok(Predicate::cmp_value(
                    resolve_column(l, bindings)?,
                    op,
                    literal_to_value(v),
                )),
                (SqlOperand::Literal(v), SqlOperand::Column(r)) => Ok(Predicate::cmp_value(
                    resolve_column(r, bindings)?,
                    op.flip(),
                    literal_to_value(v),
                )),
                (SqlOperand::Column(l), SqlOperand::Parameter(name)) => Ok(Predicate::cmp_param(
                    resolve_column(l, bindings)?,
                    op,
                    name.clone(),
                )),
                (SqlOperand::Parameter(name), SqlOperand::Column(r)) => Ok(Predicate::cmp_param(
                    resolve_column(r, bindings)?,
                    op.flip(),
                    name.clone(),
                )),
                (SqlOperand::Literal(_), SqlOperand::Literal(_)) => Err(ExprError::invalid(
                    "comparisons between two literals are not supported",
                )),
                (SqlOperand::Parameter(_), _) | (_, SqlOperand::Parameter(_)) => {
                    Err(ExprError::invalid(
                        "a `$parameter` placeholder may only be compared with a column",
                    ))
                }
            }
        }
        SqlCondition::And(l, r) => {
            Ok(translate_condition(l, bindings)?.and(translate_condition(r, bindings)?))
        }
        SqlCondition::Or(l, r) => {
            Ok(translate_condition(l, bindings)?.or(translate_condition(r, bindings)?))
        }
        SqlCondition::Not(inner) => Ok(translate_condition(inner, bindings)?.negate()),
        SqlCondition::Exists(_) => Err(ExprError::invalid(
            "EXISTS subqueries are only supported in the double NOT EXISTS pattern",
        )),
    }
}

/// The ingredients of a recognized double-`NOT EXISTS` query.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UniversalPattern {
    outer_table: String,
    outer_alias: String,
    inner_table: String,
    inner_alias: String,
    /// Attribute of the outer (dividend) table correlated with the outermost
    /// query (`i`, e.g. `s#`).
    dividend_key: String,
    /// Attribute joining the two tables (`j`, e.g. `p#`) as named in the
    /// dividend table and in the divisor table.
    join_dividend: String,
    join_divisor: String,
    /// Attribute of the divisor table correlated with the outermost query
    /// (`k`, e.g. `color`).
    group_key: String,
}

/// Try to recognize the double `NOT EXISTS` universal-quantification pattern
/// (query Q3) and rewrite it to a great divide. Returns `Ok(None)` when the
/// query does not match the pattern.
pub fn detect_double_not_exists(query: &Query, catalog: &Catalog) -> Result<Option<LogicalPlan>> {
    let Some(pattern) = match_pattern(query) else {
        return Ok(None);
    };
    // Build: π_select( π_{i,j}(T1) ÷* π_{j,k}(T2) ).
    let dividend = LogicalPlan::Project {
        input: Box::new(LogicalPlan::Scan {
            table: pattern.outer_table.clone(),
        }),
        attributes: vec![pattern.dividend_key.clone(), pattern.join_dividend.clone()],
    };
    let mut divisor: LogicalPlan = LogicalPlan::Project {
        input: Box::new(LogicalPlan::Scan {
            table: pattern.inner_table.clone(),
        }),
        attributes: vec![pattern.join_divisor.clone(), pattern.group_key.clone()],
    };
    if pattern.join_divisor != pattern.join_dividend {
        divisor = LogicalPlan::Rename {
            input: Box::new(divisor),
            renames: vec![(pattern.join_divisor.clone(), pattern.join_dividend.clone())],
        };
    }
    let divide = LogicalPlan::GreatDivide {
        dividend: Box::new(dividend),
        divisor: Box::new(divisor),
    };
    // Validate against the catalog before projecting.
    infer_schema(&divide, catalog)?;

    // Project the requested select list (wildcard keeps the quotient as-is).
    if query
        .select
        .iter()
        .any(|item| matches!(item, SelectItem::Wildcard))
    {
        return Ok(Some(divide));
    }
    let mut attributes = Vec::new();
    for item in &query.select {
        let SelectItem::Column(col) = item else {
            continue;
        };
        let name = match &col.qualifier {
            Some(q) if *q == pattern.outer_alias => pattern.dividend_key.clone(),
            Some(q) if *q == pattern.inner_alias => pattern.group_key.clone(),
            Some(q) => {
                return Err(ExprError::invalid(format!(
                    "unknown alias `{q}` in the select list"
                )))
            }
            None => col.column.clone(),
        };
        attributes.push(name);
    }
    Ok(Some(LogicalPlan::Project {
        input: Box::new(divide),
        attributes,
    }))
}

fn single_table(from: &[TableReference]) -> Option<(String, String)> {
    if from.len() != 1 {
        return None;
    }
    match &from[0] {
        TableReference::Factor(TableFactor::Table { name, alias }) => {
            Some((name.clone(), alias.clone().unwrap_or_else(|| name.clone())))
        }
        _ => None,
    }
}

/// Extract `(qualifier, column)` pairs from an equality between two qualified
/// columns.
fn qualified_equality(cond: &SqlCondition) -> Option<((String, String), (String, String))> {
    let SqlCondition::Comparison {
        left: SqlOperand::Column(l),
        op: SqlCompareOp::Eq,
        right: SqlOperand::Column(r),
    } = cond
    else {
        return None;
    };
    Some((
        (l.qualifier.clone()?, l.column.clone()),
        (r.qualifier.clone()?, r.column.clone()),
    ))
}

/// Find, among two `(qualifier, column)` pairs, the one qualified by `alias`;
/// returns `(matching column, other pair)`.
fn pick_side(
    pair: ((String, String), (String, String)),
    alias: &str,
) -> Option<(String, (String, String))> {
    let (a, b) = pair;
    if a.0 == alias {
        Some((a.1, b))
    } else if b.0 == alias {
        Some((b.1, a))
    } else {
        None
    }
}

fn match_pattern(query: &Query) -> Option<UniversalPattern> {
    // Outer FROM: exactly two base tables.
    if query.from.len() != 2 {
        return None;
    }
    let (outer_table, outer_alias) = match &query.from[0] {
        TableReference::Factor(TableFactor::Table { name, alias }) => {
            (name.clone(), alias.clone().unwrap_or_else(|| name.clone()))
        }
        _ => return None,
    };
    let (inner_table, inner_alias) = match &query.from[1] {
        TableReference::Factor(TableFactor::Table { name, alias }) => {
            (name.clone(), alias.clone().unwrap_or_else(|| name.clone()))
        }
        _ => return None,
    };
    // WHERE: NOT EXISTS (mid).
    let SqlCondition::Not(not_inner) = query.where_clause.as_ref()? else {
        return None;
    };
    let SqlCondition::Exists(mid) = not_inner.as_ref() else {
        return None;
    };
    // Middle query: FROM inner_table AS y2 WHERE y2.k = y1.k AND NOT EXISTS (inner).
    let (mid_table, mid_alias) = single_table(&mid.from)?;
    if mid_table != inner_table {
        return None;
    }
    let mid_conjuncts = mid.where_clause.as_ref()?.conjuncts();
    if mid_conjuncts.len() != 2 {
        return None;
    }
    let mut group_key = None;
    let mut innermost = None;
    for c in mid_conjuncts {
        if let Some(pair) = qualified_equality(c) {
            // y2.k = y1.k (one side mid_alias, other side inner_alias).
            let (mid_col, other) = pick_side(pair, &mid_alias)?;
            if other.0 == inner_alias && other.1 == mid_col {
                group_key = Some(mid_col);
            } else {
                return None;
            }
        } else if let SqlCondition::Not(n) = c {
            if let SqlCondition::Exists(inner) = n.as_ref() {
                innermost = Some(inner);
            } else {
                return None;
            }
        } else {
            return None;
        }
    }
    let (group_key, innermost) = (group_key?, innermost?);
    // Innermost query: FROM outer_table AS x2 WHERE x2.j = y2.j AND x2.i = x1.i.
    let (in_table, in_alias) = single_table(&innermost.from)?;
    if in_table != outer_table {
        return None;
    }
    let in_conjuncts = innermost.where_clause.as_ref()?.conjuncts();
    if in_conjuncts.len() != 2 {
        return None;
    }
    let mut join_dividend = None;
    let mut join_divisor = None;
    let mut dividend_key = None;
    for c in in_conjuncts {
        let pair = qualified_equality(c)?;
        let (x2_col, other) = pick_side(pair, &in_alias)?;
        if other.0 == mid_alias {
            join_dividend = Some(x2_col);
            join_divisor = Some(other.1);
        } else if other.0 == outer_alias {
            if x2_col != other.1 {
                return None;
            }
            dividend_key = Some(x2_col);
        } else {
            return None;
        }
    }
    Some(UniversalPattern {
        outer_table,
        outer_alias,
        inner_table,
        inner_alias,
        dividend_key: dividend_key?,
        join_dividend: join_dividend?,
        join_divisor: join_divisor?,
        group_key,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use div_algebra::relation;
    use div_expr::evaluate;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "supplies",
            relation! {
                ["s#", "p#"] =>
                [1, 1], [1, 2],
                [2, 1], [2, 2], [2, 3],
                [3, 2],
            },
        );
        c.register(
            "parts",
            relation! { ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"] },
        );
        c
    }

    #[test]
    fn q1_lowers_to_a_great_divide() {
        let c = catalog();
        let q =
            parse_query("SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#")
                .unwrap();
        let plan = translate_query(&q, &c).unwrap();
        assert!(format!("{plan}").contains("GreatDivide"));
        let expected = relation! {
            ["s#", "color"] =>
            [1, "blue"], [2, "blue"], [2, "red"],
        };
        assert_eq!(evaluate(&plan, &c).unwrap(), expected);
    }

    #[test]
    fn q2_lowers_to_a_small_divide() {
        let c = catalog();
        let q = parse_query(
            "SELECT s# FROM supplies AS s DIVIDE BY \
             (SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#",
        )
        .unwrap();
        let plan = translate_query(&q, &c).unwrap();
        assert!(format!("{plan}").contains("SmallDivide"));
        assert_eq!(
            evaluate(&plan, &c).unwrap(),
            relation! { ["s#"] => [1], [2] }
        );
    }

    #[test]
    fn parameters_lower_to_placeholder_predicates() {
        let c = catalog();
        let q = parse_query("SELECT p# FROM parts WHERE color = $color AND p# >= $min").unwrap();
        let plan = translate_query(&q, &c).unwrap();
        assert_eq!(
            plan.parameters().into_iter().collect::<Vec<_>>(),
            vec!["color".to_string(), "min".to_string()]
        );
        // Flipped orientation binds to the column side.
        let q = parse_query("SELECT p# FROM parts WHERE $min <= p#").unwrap();
        let plan = translate_query(&q, &c).unwrap();
        assert!(format!("{plan}").contains("p# >= $min"));
        // Parameters cannot meet literals or other parameters.
        let q = parse_query("SELECT p# FROM parts WHERE $a = $b").unwrap();
        assert!(translate_query(&q, &c).is_err());
        let q = parse_query("SELECT p# FROM parts WHERE 1 = $b").unwrap();
        assert!(translate_query(&q, &c).is_err());
    }

    #[test]
    fn q3_double_not_exists_is_rewritten_to_a_great_divide() {
        let c = catalog();
        let q = parse_query(
            "SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 \
             WHERE NOT EXISTS ( SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND \
             NOT EXISTS ( SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s# ))",
        )
        .unwrap();
        let plan = translate_query(&q, &c).unwrap();
        assert!(plan.contains_division());
        let expected = relation! {
            ["s#", "color"] =>
            [1, "blue"], [2, "blue"], [2, "red"],
        };
        assert_eq!(evaluate(&plan, &c).unwrap(), expected);
    }

    #[test]
    fn q1_and_q3_agree() {
        let c = catalog();
        let q1 =
            parse_query("SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#")
                .unwrap();
        let q3 = parse_query(
            "SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 \
             WHERE NOT EXISTS ( SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND \
             NOT EXISTS ( SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s# ))",
        )
        .unwrap();
        let p1 = translate_query(&q1, &c).unwrap();
        let p3 = translate_query(&q3, &c).unwrap();
        assert_eq!(evaluate(&p1, &c).unwrap(), evaluate(&p3, &c).unwrap());
    }

    #[test]
    fn plain_select_where_lowers_to_scan_filter_project() {
        let c = catalog();
        let q = parse_query("SELECT s# FROM supplies WHERE p# >= 2 AND s# <> 3").unwrap();
        let plan = translate_query(&q, &c).unwrap();
        assert_eq!(
            evaluate(&plan, &c).unwrap(),
            relation! { ["s#"] => [1], [2] }
        );
    }

    #[test]
    fn conjunctive_multi_attribute_on_clause_gives_small_divide() {
        let mut c = Catalog::new();
        c.register(
            "r1",
            relation! { ["a", "b", "c"] => [1, 1, 10], [1, 2, 20], [2, 1, 10] },
        );
        c.register("r2", relation! { ["b", "c"] => [1, 10], [2, 20] });
        let q =
            parse_query("SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b AND r1.c = r2.c").unwrap();
        let plan = translate_query(&q, &c).unwrap();
        assert!(format!("{plan}").contains("SmallDivide"));
        assert_eq!(evaluate(&plan, &c).unwrap(), relation! { ["a"] => [1] });
    }

    #[test]
    fn divisor_join_column_with_different_name_is_renamed() {
        let mut c = Catalog::new();
        c.register(
            "supplies",
            relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] },
        );
        c.register("wanted", relation! { ["part_id"] => [1], [2] });
        let q =
            parse_query("SELECT s# FROM supplies AS s DIVIDE BY wanted AS w ON s.p# = w.part_id")
                .unwrap();
        let plan = translate_query(&q, &c).unwrap();
        assert_eq!(evaluate(&plan, &c).unwrap(), relation! { ["s#"] => [1] });
    }

    #[test]
    fn non_equi_on_clauses_are_rejected() {
        let c = catalog();
        let q = parse_query("SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# < p.p#")
            .unwrap();
        assert!(translate_query(&q, &c).is_err());
        let q =
            parse_query("SELECT s# FROM supplies AS s DIVIDE BY parts AS p ON s.p# = 3").unwrap();
        assert!(translate_query(&q, &c).is_err());
    }

    #[test]
    fn unsupported_correlated_subqueries_are_rejected() {
        let c = catalog();
        // A single NOT EXISTS is not the universal-quantification pattern.
        let q = parse_query(
            "SELECT s# FROM supplies AS s1 WHERE NOT EXISTS \
             (SELECT * FROM parts AS p1 WHERE p1.p# = s1.p#)",
        )
        .unwrap();
        let err = translate_query(&q, &c).unwrap_err();
        assert!(err.to_string().contains("NOT EXISTS"));
    }

    #[test]
    fn unknown_columns_and_aliases_are_reported() {
        let c = catalog();
        let q = parse_query("SELECT weight FROM parts").unwrap();
        assert!(translate_query(&q, &c).is_err());
        let q = parse_query("SELECT s# FROM supplies AS s WHERE x.s# = 1").unwrap();
        assert!(translate_query(&q, &c).is_err());
    }

    #[test]
    fn ambiguous_unqualified_columns_are_reported() {
        let mut c = catalog();
        c.register("other", relation! { ["s#"] => [1] });
        let q = parse_query("SELECT s# FROM supplies, other").unwrap();
        let err = translate_query(&q, &c).unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }
}
