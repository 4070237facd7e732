//! The context available to rewrite rules: a catalog's schemas and declared
//! foreign keys, and — under [`RewriteContext::with_catalog`] — its data for
//! data-dependent preconditions.

use crate::Result;
use div_algebra::{DivisionPartition, Relation, Schema};
use div_expr::{evaluate, infer_schema, Catalog, LogicalPlan};

/// Everything a rewrite rule may consult while deciding whether it applies.
///
/// The paper distinguishes between laws whose side conditions are purely
/// structural (e.g. Law 3: the predicate mentions only quotient attributes)
/// and laws whose side conditions depend on the database (e.g. Law 2's `c1`,
/// Law 7's disjoint quotient prefixes, Law 9's `π_{B2}(r2) ⊆ r**1`). The
/// former need only schemas; the latter are checked here either from declared
/// integrity constraints or — if [`RewriteContext::allow_data_checks`] is set,
/// the moral equivalent of an optimizer consulting statistics or running a
/// cheap subquery — by evaluating the relevant subplans.
pub struct RewriteContext<'a> {
    catalog: &'a Catalog,
    allow_data_checks: bool,
}

impl<'a> RewriteContext<'a> {
    /// A context backed by a catalog, with data-dependent checks enabled.
    pub fn with_catalog(catalog: &'a Catalog) -> Self {
        RewriteContext {
            catalog,
            allow_data_checks: true,
        }
    }

    /// A context backed by a catalog whose *data* must not be consulted — only
    /// schemas and declared constraints (what a production optimizer would see
    /// at plan time).
    pub fn with_metadata_only(catalog: &'a Catalog) -> Self {
        RewriteContext {
            catalog,
            allow_data_checks: false,
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// Whether rules may evaluate subplans to check data-dependent
    /// preconditions.
    pub fn allow_data_checks(&self) -> bool {
        self.allow_data_checks
    }

    /// Infer the output schema of `plan`. Returns `None` when the schema
    /// cannot be resolved (e.g. a scan of an unregistered table) — rules
    /// treat that as "rule does not apply".
    pub fn schema_of(&self, plan: &LogicalPlan) -> Option<Schema> {
        infer_schema(plan, self.catalog).ok()
    }

    /// The partition of `dividend ÷ divisor` ([`Schema::divide_partition`]),
    /// or `None` when a schema does not resolve or the division is invalid:
    /// no rule fires on an invalid plan.
    pub fn divide_partition(
        &self,
        dividend: &LogicalPlan,
        divisor: &LogicalPlan,
    ) -> Option<DivisionPartition> {
        let (dividend, divisor) = (self.schema_of(dividend)?, self.schema_of(divisor)?);
        dividend.divide_partition(&divisor).ok()
    }

    /// The partition of `dividend ÷* divisor`
    /// ([`Schema::great_divide_partition`]), or `None` like
    /// [`RewriteContext::divide_partition`].
    pub fn great_divide_partition(
        &self,
        dividend: &LogicalPlan,
        divisor: &LogicalPlan,
    ) -> Option<DivisionPartition> {
        let (dividend, divisor) = (self.schema_of(dividend)?, self.schema_of(divisor)?);
        dividend.great_divide_partition(&divisor).ok()
    }

    /// Evaluate `plan` for a data-dependent precondition check. Returns
    /// `Ok(None)` when data checks are disabled, or when the plan contains
    /// unbound `$parameter` placeholders (prepared statements are optimized
    /// before their parameters are known, so data-dependent preconditions
    /// cannot be decided); rules must then decline.
    pub fn try_evaluate(&self, plan: &LogicalPlan) -> Result<Option<Relation>> {
        if !self.allow_data_checks() || plan.contains_parameters() {
            return Ok(None);
        }
        Ok(Some(evaluate(plan, self.catalog)?))
    }

    /// `true` if a foreign key from the base table scanned by `from` to the
    /// base table scanned by `to` has been declared over the given attributes.
    pub fn has_foreign_key(
        &self,
        from: &LogicalPlan,
        from_attributes: &[&str],
        to: &LogicalPlan,
        to_attributes: &[&str],
    ) -> bool {
        match (from, to) {
            (LogicalPlan::Scan { table: from_table }, LogicalPlan::Scan { table: to_table }) => {
                self.catalog
                    .has_foreign_key(from_table, from_attributes, to_table, to_attributes)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;
    use div_expr::PlanBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("r1", relation! { ["a", "b"] => [1, 1], [2, 1] });
        c.register("r2", relation! { ["b"] => [1] });
        c.declare_foreign_key("r1", &["b"], "r2", &["b"]).unwrap();
        c
    }

    #[test]
    fn catalog_context_resolves_schemas_and_evaluates() {
        let c = catalog();
        let ctx = RewriteContext::with_catalog(&c);
        let scan = PlanBuilder::scan("r1").build();
        assert_eq!(ctx.schema_of(&scan).unwrap().names(), vec!["a", "b"]);
        let rel = ctx.try_evaluate(&scan).unwrap().unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn metadata_only_context_blocks_data_checks() {
        let c = catalog();
        let ctx = RewriteContext::with_metadata_only(&c);
        assert!(!ctx.allow_data_checks());
        let scan = PlanBuilder::scan("r1").build();
        assert!(ctx.try_evaluate(&scan).unwrap().is_none());
        // ... but still exposes declared constraints.
        let r2 = PlanBuilder::scan("r2").build();
        assert!(ctx.has_foreign_key(&scan, &["b"], &r2, &["b"]));
    }

    #[test]
    fn constraint_lookups_require_plain_scans() {
        let c = catalog();
        let ctx = RewriteContext::with_catalog(&c);
        let scan = PlanBuilder::scan("r1").build();
        let projected = PlanBuilder::scan("r2").project(["b"]).build();
        assert!(!ctx.has_foreign_key(&scan, &["b"], &projected, &["b"]));
    }
}
