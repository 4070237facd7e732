//! The rewrite-rule abstraction and the default rule set.

use crate::context::RewriteContext;
use crate::laws;
use crate::Result;
use div_expr::LogicalPlan;
use std::fmt;
use std::sync::Arc;

/// A single transformation rule derived from one of the paper's laws.
///
/// A rule is asked to rewrite one plan *node* (it can inspect the node's whole
/// subtree). It returns `Ok(Some(new_plan))` when it applies, `Ok(None)` when
/// it does not; it must only return a plan that is equivalent to the input on
/// every database satisfying the rule's preconditions — `tests/law_small_scope.rs`
/// checks exactly this on every small database of each rule's registry shape,
/// and the property tests in `tests/law_properties.rs` on random ones.
pub trait RewriteRule: Send + Sync {
    /// Stable machine-readable name, e.g. `"law-03-selection-pushdown"`.
    fn name(&self) -> &'static str;

    /// Where in the paper the rule comes from, e.g. `"Law 3, Section 5.1.2"`.
    fn reference(&self) -> &'static str;

    /// Try to apply the rule at `plan`'s root node.
    fn apply(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Option<LogicalPlan>>;
}

impl fmt::Debug for dyn RewriteRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RewriteRule({})", self.name())
    }
}

/// An ordered collection of rules.
#[derive(Clone)]
pub struct RuleSet {
    rules: Vec<Arc<dyn RewriteRule>>,
}

impl RuleSet {
    /// The full default rule set: every law of the paper in its useful
    /// direction, ordered so that cheap, always-beneficial rules (selection
    /// push-down, divide-elimination) run before the structural ones.
    pub fn default_rules() -> Self {
        let rules: Vec<Arc<dyn RewriteRule>> = vec![
            // Selection push-down / replication (Laws 3, 4, 14, 15, 16).
            Arc::new(laws::small_divide_selection::Law3SelectionPushdown),
            Arc::new(laws::small_divide_selection::Law4DivisorSelectionReplication),
            Arc::new(laws::great_divide::Law14SelectionPushdownQuotient),
            Arc::new(laws::great_divide::Law15SelectionPushdownGroup),
            Arc::new(laws::great_divide::Law16DivisorSelectionReplication),
            // Division elimination via grouping metadata (Laws 11, 12).
            Arc::new(laws::small_divide_grouping::Law11SingleTupleGroups),
            Arc::new(laws::small_divide_grouping::Law12SingleTupleDivisorGroups),
            // Skip work entirely (Law 7).
            Arc::new(laws::small_divide_set_ops::Law7DisjointDifference),
            // Structure-changing rules (Laws 1, 2, 5, 6, 8, 9, 13, 17).
            Arc::new(laws::small_divide_union::Law1DivisorUnionToPipeline),
            Arc::new(laws::small_divide_union::Law2DividendUnionSplit),
            Arc::new(laws::small_divide_set_ops::Law5IntersectionSplit),
            Arc::new(laws::small_divide_set_ops::Law6DifferenceSplit),
            Arc::new(laws::small_divide_product::Law8ProductPushthrough),
            Arc::new(laws::small_divide_product::Law9ProductElimination),
            Arc::new(laws::small_divide_product::Example2CommonFactorElimination),
            Arc::new(laws::great_divide::Law13DivisorUnionSplit),
            Arc::new(laws::great_divide::Law17ProductPushthrough),
            // Join interaction (Law 10, Example 4).
            Arc::new(laws::small_divide_join::Law10SemiJoinCommute),
            Arc::new(laws::great_divide::Example4JoinPushIn),
        ];
        RuleSet { rules }
    }

    /// Iterate over the rules in order.
    pub fn rules(&self) -> impl Iterator<Item = &Arc<dyn RewriteRule>> + '_ {
        self.rules.iter()
    }

    /// Find a rule by its machine-readable name.
    pub fn find(&self, name: &str) -> Option<&Arc<dyn RewriteRule>> {
        self.rules.iter().find(|r| r.name() == name)
    }
}

impl fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.rules.iter().map(|r| r.name()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rule_set_contains_all_seventeen_laws() {
        let set = RuleSet::default_rules();
        assert_eq!(set.rules().count(), 19);
        for law in [
            "law-01", "law-02", "law-03", "law-04", "law-05", "law-06", "law-07", "law-08",
            "law-09", "law-10", "law-11", "law-12", "law-13", "law-14", "law-15", "law-16",
            "law-17",
        ] {
            assert!(
                set.rules().any(|r| r.name().starts_with(law)),
                "missing rule for {law}"
            );
        }
    }

    #[test]
    fn rules_have_paper_references() {
        for rule in RuleSet::default_rules().rules() {
            assert!(
                rule.reference().contains("Law") || rule.reference().contains("Example"),
                "rule {} has no paper reference",
                rule.name()
            );
        }
    }

    #[test]
    fn find_locates_rules_by_name() {
        let set = RuleSet::default_rules();
        assert!(set.find("law-03-selection-pushdown").is_some());
        assert!(set.find("not-a-rule").is_none());
    }
}
