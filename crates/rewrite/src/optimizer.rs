//! A small cost-based optimizer on top of the rewrite rules.
//!
//! The paper positions its laws as transformation rules that an optimizer
//! applies "together with heuristics and/or cost estimations" (Section 1.1).
//! [`Optimizer`] supplies the missing half: a cardinality estimator and a cost
//! model whose currency is the number of intermediate tuples an execution
//! would touch — the same quantity the Leinders & Van den Bussche result is
//! about — plus a greedy search that explores the plans reachable through the
//! rule set and keeps the cheapest one.

use crate::context::RewriteContext;
use crate::engine::AppliedRule;
use crate::rule::RuleSet;
use crate::Result;
use div_expr::{LogicalPlan, Transformed};
use std::collections::BTreeSet;

/// Estimated execution cost of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated number of tuples flowing out of every operator, summed.
    pub total_tuples: f64,
    /// Estimated cardinality of the final result.
    pub output_cardinality: f64,
}

impl CostEstimate {
    /// Total cost value used for plan comparison.
    pub fn value(&self) -> f64 {
        self.total_tuples
    }
}

/// The result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The selected plan.
    pub plan: LogicalPlan,
    /// Estimated cost of the selected plan.
    pub cost: CostEstimate,
    /// Estimated cost of the original plan.
    pub original_cost: CostEstimate,
    /// Number of alternative plans that were costed.
    pub alternatives_considered: usize,
    /// The rule application chosen in each greedy pass, in order: the law
    /// whose rewrite produced the cheapest plan of that pass. Empty when the
    /// original plan was already the cheapest.
    pub applied: Vec<AppliedRule>,
}

impl OptimizedPlan {
    /// Estimated speed-up factor of the chosen plan over the original.
    pub fn estimated_speedup(&self) -> f64 {
        if self.cost.value() <= f64::EPSILON {
            return 1.0;
        }
        self.original_cost.value() / self.cost.value()
    }

    /// `true` when the optimizer replaced the original plan.
    pub fn changed(&self) -> bool {
        !self.applied.is_empty()
    }

    /// A compact human-readable trace of the rules the greedy search applied.
    pub fn trace(&self) -> String {
        if self.applied.is_empty() {
            return "no rewrite rules applied".to_string();
        }
        self.applied
            .iter()
            .map(|a| format!("pass {}: {} ({})", a.pass, a.rule, a.reference))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Cardinality-estimating cost model over logical plans.
///
/// Base-table cardinalities come from the catalog when available and default
/// to [`CostModel::DEFAULT_TABLE_CARDINALITY`] otherwise. Selectivities follow
/// the classic System-R style constants; the division estimates assume the
/// number of dividend groups shrinks multiplicatively with the divisor size.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Selectivity assumed for an equality predicate.
    pub equality_selectivity: f64,
    /// Selectivity assumed for a range predicate.
    pub range_selectivity: f64,
    /// Fraction of dividend groups assumed to survive a division per divisor
    /// tuple.
    pub division_survival_per_divisor_tuple: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            equality_selectivity: 0.1,
            range_selectivity: 0.33,
            division_survival_per_divisor_tuple: 0.5,
        }
    }
}

impl CostModel {
    /// Cardinality assumed for base tables that are not in the catalog.
    pub const DEFAULT_TABLE_CARDINALITY: f64 = 1_000.0;

    /// Estimate the output cardinality of `plan`.
    pub fn cardinality(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> f64 {
        match plan {
            LogicalPlan::Scan { table } => ctx
                .catalog()
                .and_then(|c| c.row_count(table).ok())
                .map(|rows| rows as f64)
                .unwrap_or(Self::DEFAULT_TABLE_CARDINALITY),
            LogicalPlan::Values { relation } => relation.len() as f64,
            LogicalPlan::Select { input, predicate } => {
                let selectivity = self.predicate_selectivity(predicate);
                self.cardinality(input, ctx) * selectivity
            }
            LogicalPlan::Project { input, .. } | LogicalPlan::Rename { input, .. } => {
                self.cardinality(input, ctx)
            }
            LogicalPlan::Union { left, right } => {
                self.cardinality(left, ctx) + self.cardinality(right, ctx)
            }
            LogicalPlan::Intersect { left, right } => {
                self.cardinality(left, ctx)
                    .min(self.cardinality(right, ctx))
                    * 0.5
            }
            LogicalPlan::Difference { left, right } => {
                let l = self.cardinality(left, ctx);
                let r = self.cardinality(right, ctx);
                (l - r * 0.5).max(l * 0.1)
            }
            LogicalPlan::Product { left, right } => {
                self.cardinality(left, ctx) * self.cardinality(right, ctx)
            }
            LogicalPlan::ThetaJoin {
                left,
                right,
                predicate,
            } => {
                self.cardinality(left, ctx)
                    * self.cardinality(right, ctx)
                    * self.predicate_selectivity(predicate)
            }
            LogicalPlan::NaturalJoin { left, right } => {
                // Assume a key/foreign-key style join.
                self.cardinality(left, ctx)
                    .max(self.cardinality(right, ctx))
            }
            LogicalPlan::SemiJoin { left, right } | LogicalPlan::AntiSemiJoin { left, right } => {
                let _ = right;
                self.cardinality(left, ctx) * 0.5
            }
            LogicalPlan::SmallDivide { dividend, divisor } => {
                let groups = (self.cardinality(dividend, ctx) / 4.0).max(1.0);
                let divisor_card = self.cardinality(divisor, ctx).max(1.0);
                (groups
                    * self
                        .division_survival_per_divisor_tuple
                        .powf(divisor_card.log2().max(1.0)))
                .max(1.0)
            }
            LogicalPlan::GreatDivide { dividend, divisor } => {
                let groups = (self.cardinality(dividend, ctx) / 4.0).max(1.0);
                let divisor_groups = (self.cardinality(divisor, ctx) / 4.0).max(1.0);
                (groups * divisor_groups * 0.1).max(1.0)
            }
            LogicalPlan::GroupAggregate { input, .. } => {
                (self.cardinality(input, ctx) / 4.0).max(1.0)
            }
        }
    }

    /// Estimate the total cost of `plan`.
    ///
    /// Each operator pays for the tuples it consumes (weighted by how much
    /// work the operator does per input tuple — a division or join groups and
    /// probes, a selection merely tests a predicate) plus the tuples it
    /// produces. The total is the sum over all operators, which makes the
    /// volume of intermediate data the dominant term, exactly the quantity the
    /// paper argues about.
    pub fn cost(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> CostEstimate {
        let mut total = 0.0;
        plan.visit(&mut |node| {
            let input_tuples: f64 = node
                .children()
                .iter()
                .map(|child| self.cardinality(child, ctx))
                .sum();
            total += Self::per_input_weight(node) * input_tuples + self.cardinality(node, ctx);
        });
        CostEstimate {
            total_tuples: total,
            output_cardinality: self.cardinality(plan, ctx),
        }
    }

    /// Relative per-input-tuple processing weight of each operator kind.
    fn per_input_weight(plan: &LogicalPlan) -> f64 {
        match plan {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => 0.0,
            LogicalPlan::Select { .. }
            | LogicalPlan::Project { .. }
            | LogicalPlan::Rename { .. } => 1.0,
            LogicalPlan::Union { .. }
            | LogicalPlan::Intersect { .. }
            | LogicalPlan::Difference { .. }
            | LogicalPlan::Product { .. } => 1.0,
            LogicalPlan::ThetaJoin { .. }
            | LogicalPlan::NaturalJoin { .. }
            | LogicalPlan::SemiJoin { .. }
            | LogicalPlan::AntiSemiJoin { .. } => 2.0,
            LogicalPlan::SmallDivide { .. }
            | LogicalPlan::GreatDivide { .. }
            | LogicalPlan::GroupAggregate { .. } => 3.0,
        }
    }

    fn predicate_selectivity(&self, predicate: &div_algebra::Predicate) -> f64 {
        use div_algebra::{CompareOp, Predicate};
        match predicate {
            Predicate::True => 1.0,
            Predicate::False => 0.0,
            Predicate::CompareValue { op, .. }
            | Predicate::CompareAttributes { op, .. }
            | Predicate::CompareParameter { op, .. } => match op {
                CompareOp::Eq => self.equality_selectivity,
                CompareOp::NotEq => 1.0 - self.equality_selectivity,
                _ => self.range_selectivity,
            },
            Predicate::And(l, r) => self.predicate_selectivity(l) * self.predicate_selectivity(r),
            Predicate::Or(l, r) => {
                (self.predicate_selectivity(l) + self.predicate_selectivity(r)).min(1.0)
            }
            Predicate::Not(inner) => 1.0 - self.predicate_selectivity(inner),
        }
    }
}

/// Greedy cost-based optimizer: repeatedly applies the single rule application
/// that most decreases the estimated cost, until no application improves it.
#[derive(Debug, Clone)]
pub struct Optimizer {
    rules: RuleSet,
    cost_model: CostModel,
    max_steps: usize,
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer {
            rules: RuleSet::default_rules(),
            cost_model: CostModel::default(),
            max_steps: 16,
        }
    }
}

impl Optimizer {
    /// Optimizer with the default rules and cost model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the rule set.
    pub fn with_rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// Replace the cost model.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Optimize `plan`.
    pub fn optimize(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<OptimizedPlan> {
        let original_cost = self.cost_model.cost(plan, ctx);
        let mut best = plan.clone();
        let mut best_cost = original_cost;
        let mut considered = 0usize;
        let mut applied = Vec::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        seen.insert(format!("{best}"));

        for pass in 1..=self.max_steps {
            let mut improved = false;
            let mut round_best: Option<(Neighbour, CostEstimate)> = None;

            for candidate in self.neighbours(&best, ctx)? {
                let key = format!("{}", candidate.plan);
                if !seen.insert(key) {
                    continue;
                }
                considered += 1;
                let cost = self.cost_model.cost(&candidate.plan, ctx);
                let better_than_round = round_best
                    .as_ref()
                    .map(|(_, c)| cost.value() < c.value())
                    .unwrap_or(true);
                if better_than_round {
                    round_best = Some((candidate, cost));
                }
            }

            if let Some((candidate, cost)) = round_best {
                if cost.value() < best_cost.value() {
                    applied.push(AppliedRule {
                        rule: candidate.rule,
                        reference: candidate.reference,
                        pass,
                        nodes_before: best.node_count(),
                        nodes_after: candidate.plan.node_count(),
                    });
                    best = candidate.plan;
                    best_cost = cost;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }

        Ok(OptimizedPlan {
            plan: best,
            cost: best_cost,
            original_cost,
            alternatives_considered: considered,
            applied,
        })
    }

    /// All plans reachable from `plan` by one application of one rule at one
    /// node, each labeled with the rule that produced it.
    fn neighbours(&self, plan: &LogicalPlan, ctx: &RewriteContext<'_>) -> Result<Vec<Neighbour>> {
        let mut out = Vec::new();
        for rule in self.rules.rules() {
            // Apply the rule at each node independently: enumerate by walking
            // the tree and rewriting only the first match at or below each
            // node position.
            let mut fired = false;
            let transformed = plan.transform_up(&mut |node| {
                if fired {
                    return Ok(Transformed::No(node));
                }
                match rule.apply(&node, ctx)? {
                    Some(new_node) => {
                        fired = true;
                        Ok(Transformed::Yes(new_node))
                    }
                    None => Ok(Transformed::No(node)),
                }
            })?;
            if fired {
                out.push(Neighbour {
                    plan: transformed.into_plan(),
                    rule: rule.name().to_string(),
                    reference: rule.reference().to_string(),
                });
            }
        }
        Ok(out)
    }
}

/// A candidate plan produced by one rule application during the greedy search.
struct Neighbour {
    plan: LogicalPlan,
    rule: String,
    reference: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::RewriteContext;
    use div_algebra::{relation, CompareOp, Predicate};
    use div_expr::{evaluate, Catalog, PlanBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut rows = Vec::new();
        for a in 0..50 {
            for b in 0..4 {
                rows.push(vec![a, b]);
            }
        }
        c.register(
            "r1",
            div_algebra::Relation::from_rows(["a", "b"], rows).unwrap(),
        );
        c.register("r2", relation! { ["b"] => [0], [1], [2], [3] });
        c
    }

    #[test]
    fn cost_model_estimates_scans_from_catalog() {
        let c = catalog();
        let ctx = RewriteContext::with_catalog(&c);
        let model = CostModel::default();
        let scan = PlanBuilder::scan("r1").build();
        assert_eq!(model.cardinality(&scan, &ctx), 200.0);
        let unknown = PlanBuilder::scan("unknown").build();
        assert_eq!(
            model.cardinality(&unknown, &ctx),
            CostModel::DEFAULT_TABLE_CARDINALITY
        );
    }

    #[test]
    fn selection_pushdown_reduces_estimated_cost() {
        let c = catalog();
        let ctx = RewriteContext::with_catalog(&c);
        let model = CostModel::default();
        let unpushed = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .select(Predicate::eq_value("a", 3))
            .build();
        let pushed = PlanBuilder::scan("r1")
            .select(Predicate::eq_value("a", 3))
            .divide(PlanBuilder::scan("r2"))
            .build();
        assert!(model.cost(&pushed, &ctx).value() < model.cost(&unpushed, &ctx).value());
    }

    #[test]
    fn optimizer_chooses_the_pushed_down_plan() {
        let c = catalog();
        let ctx = RewriteContext::with_catalog(&c);
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .select(Predicate::cmp_value("a", CompareOp::Lt, 5))
            .build();
        let optimized = Optimizer::new().optimize(&plan, &ctx).unwrap();
        assert!(optimized.alternatives_considered >= 1);
        assert!(optimized.estimated_speedup() >= 1.0);
        assert!(matches!(optimized.plan, LogicalPlan::SmallDivide { .. }));
        // The greedy search reports which law each pass applied.
        assert!(optimized.changed());
        assert!(
            optimized.applied.iter().any(|a| a.rule.contains("law-03")),
            "expected the Law 3 pushdown in the trace, got: {}",
            optimized.trace()
        );
        assert_eq!(optimized.applied[0].pass, 1);
        assert_eq!(
            evaluate(&optimized.plan, &c).unwrap(),
            evaluate(&plan, &c).unwrap()
        );
    }

    #[test]
    fn optimizer_keeps_original_when_no_rule_helps() {
        let c = catalog();
        let ctx = RewriteContext::with_catalog(&c);
        let plan = PlanBuilder::scan("r1").project(["a"]).build();
        let optimized = Optimizer::new().optimize(&plan, &ctx).unwrap();
        assert_eq!(optimized.plan, plan);
        assert_eq!(optimized.estimated_speedup(), 1.0);
        assert!(!optimized.changed());
        assert_eq!(optimized.trace(), "no rewrite rules applied");
    }

    #[test]
    fn custom_cost_model_is_respected() {
        let c = catalog();
        let ctx = RewriteContext::with_catalog(&c);
        let model = CostModel {
            equality_selectivity: 0.5,
            ..CostModel::default()
        };
        let optimizer = Optimizer::new().with_cost_model(model);
        assert_eq!(optimizer.cost_model().equality_selectivity, 0.5);
        let plan = PlanBuilder::scan("r1")
            .select(Predicate::eq_value("a", 1))
            .build();
        let est = optimizer.cost_model().cardinality(&plan, &ctx);
        assert_eq!(est, 100.0);
    }
}
