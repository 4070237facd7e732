//! Abstract syntax tree of the SQL subset.

use std::fmt;

/// A column reference, optionally qualified with a table alias
/// (`s.p#` or just `p#`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Table alias qualifier, if present.
    pub qualifier: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Unqualified column.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: None,
            column: column.into(),
        }
    }

    /// Qualified column.
    pub fn qualified(qualifier: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// A literal value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlLiteral {
    /// Integer literal.
    Number(i64),
    /// String literal.
    String(String),
}

/// One operand of a comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlOperand {
    /// A column reference.
    Column(ColumnRef),
    /// A literal.
    Literal(SqlLiteral),
    /// A `$name` parameter placeholder, bound at execution time (prepared
    /// statements).
    Parameter(String),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlCompareOp {
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

/// A search condition.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlCondition {
    /// `left op right`.
    Comparison {
        /// Left operand.
        left: SqlOperand,
        /// Operator.
        op: SqlCompareOp,
        /// Right operand.
        right: SqlOperand,
    },
    /// `left AND right`.
    And(Box<SqlCondition>, Box<SqlCondition>),
    /// `left OR right`.
    Or(Box<SqlCondition>, Box<SqlCondition>),
    /// `NOT inner`.
    Not(Box<SqlCondition>),
    /// `EXISTS (subquery)`.
    Exists(Box<Query>),
}

impl SqlCondition {
    /// Flatten a conjunction into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&SqlCondition> {
        match self {
            SqlCondition::And(l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}

/// A table factor: a named base table or a parenthesized derived table, each
/// with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFactor {
    /// Base table, e.g. `supplies AS s`.
    Table {
        /// Table name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// Derived table, e.g. `(SELECT p# FROM parts WHERE …) AS p`.
    Derived {
        /// The subquery.
        query: Box<Query>,
        /// Alias (required by SQL; optional here for robustness).
        alias: Option<String>,
    },
}

/// A table reference in the `FROM` clause: a plain factor or the paper's
/// `<quotient>` production.
#[derive(Debug, Clone, PartialEq)]
pub enum TableReference {
    /// A single table factor.
    Factor(TableFactor),
    /// `dividend DIVIDE BY divisor ON condition`.
    DivideBy {
        /// The dividend table reference.
        dividend: Box<TableReference>,
        /// The divisor table reference.
        divisor: Box<TableReference>,
        /// The `ON` search condition.
        condition: SqlCondition,
    },
}

/// An item of the `SELECT` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// A column reference.
    Column(ColumnRef),
}

/// A parsed `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT DISTINCT`? (a no-op under set semantics, but preserved).
    pub distinct: bool,
    /// The select list.
    pub select: Vec<SelectItem>,
    /// The `FROM` clause (one or more table references, combined by Cartesian
    /// product as in SQL).
    pub from: Vec<TableReference>,
    /// The optional `WHERE` condition.
    pub where_clause: Option<SqlCondition>,
}

impl Query {
    /// `true` if any table reference in the `FROM` clause uses `DIVIDE BY`.
    pub fn uses_divide_by(&self) -> bool {
        self.from
            .iter()
            .any(|t| matches!(t, TableReference::DivideBy { .. }))
    }

    /// The set of `$parameter` placeholder names used anywhere in the query
    /// (WHERE clauses, `DIVIDE BY … ON` conditions, derived tables and
    /// `EXISTS` subqueries included).
    pub fn parameters(&self) -> std::collections::BTreeSet<String> {
        fn walk_cond(c: &SqlCondition, out: &mut std::collections::BTreeSet<String>) {
            match c {
                SqlCondition::Comparison { left, right, .. } => {
                    for operand in [left, right] {
                        if let SqlOperand::Parameter(name) = operand {
                            out.insert(name.clone());
                        }
                    }
                }
                SqlCondition::And(l, r) | SqlCondition::Or(l, r) => {
                    walk_cond(l, out);
                    walk_cond(r, out);
                }
                SqlCondition::Not(inner) => walk_cond(inner, out),
                SqlCondition::Exists(query) => walk_query(query, out),
            }
        }
        fn walk_table_ref(t: &TableReference, out: &mut std::collections::BTreeSet<String>) {
            match t {
                TableReference::Factor(TableFactor::Table { .. }) => {}
                TableReference::Factor(TableFactor::Derived { query, .. }) => {
                    walk_query(query, out)
                }
                TableReference::DivideBy {
                    dividend,
                    divisor,
                    condition,
                } => {
                    walk_table_ref(dividend, out);
                    walk_table_ref(divisor, out);
                    walk_cond(condition, out);
                }
            }
        }
        fn walk_query(q: &Query, out: &mut std::collections::BTreeSet<String>) {
            for t in &q.from {
                walk_table_ref(t, out);
            }
            if let Some(cond) = &q.where_clause {
                walk_cond(cond, out);
            }
        }
        let mut out = std::collections::BTreeSet::new();
        walk_query(self, &mut out);
        out
    }

    /// `true` if the `WHERE` clause contains an `EXISTS` (or `NOT EXISTS`)
    /// subquery anywhere.
    pub fn uses_exists(&self) -> bool {
        fn cond_uses_exists(c: &SqlCondition) -> bool {
            match c {
                SqlCondition::Exists(_) => true,
                SqlCondition::And(l, r) | SqlCondition::Or(l, r) => {
                    cond_uses_exists(l) || cond_uses_exists(r)
                }
                SqlCondition::Not(inner) => cond_uses_exists(inner),
                SqlCondition::Comparison { .. } => false,
            }
        }
        self.where_clause.as_ref().is_some_and(cond_uses_exists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_refs_display() {
        assert_eq!(ColumnRef::bare("s#").to_string(), "s#");
        assert_eq!(ColumnRef::qualified("s", "p#").to_string(), "s.p#");
    }

    #[test]
    fn conjunct_flattening() {
        let a = SqlCondition::Comparison {
            left: SqlOperand::Column(ColumnRef::bare("a")),
            op: SqlCompareOp::Eq,
            right: SqlOperand::Literal(SqlLiteral::Number(1)),
        };
        let cond = SqlCondition::And(
            Box::new(a.clone()),
            Box::new(SqlCondition::And(Box::new(a.clone()), Box::new(a.clone()))),
        );
        assert_eq!(cond.conjuncts().len(), 3);
    }
}
