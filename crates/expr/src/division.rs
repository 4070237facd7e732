//! The paper's division algorithm family, as logical plans.
//!
//! Section 1.1 and Section 6 argue that division needs a special-purpose
//! operator: its basic-algebra formulations build quadratic intermediates
//! (Leinders & Van den Bussche, PODS 2005) on a sparse dividend — exponent 2
//! in `tests/complexity.rs` — while a dense one keeps every plan linear.
//! The genuine operators are [`PlanBuilder::divide`] and
//! [`PlanBuilder::great_divide`]; the builders here spell out the
//! alternatives the paper compares them with, so any executor that runs
//! logical plans runs the whole family:
//!
//! | Builder | Formulation |
//! |---------|-------------|
//! | [`PlanBuilder::difference_plan`] | Healy's simulation by `π`, `×` and `−` |
//! | [`PlanBuilder::anti_join_plan`] | the same simulation with anti-semi-joins |
//! | [`PlanBuilder::counting_plan`] | counting division (Graefe & Cole 1995): `⋉`, `γ count`, `σ(n = |s|)` |
//! | [`PlanBuilder::counting_grouped_plan`] | counting great divide: per-`(A, C)` matches against per-`C` divisor counts |
//!
//! In each builder `self` is the dividend `r` and `divisor` is `s`; the
//! attribute lists name `A` (quotient), `B` (shared, in the divisor's
//! attribute order) and `C` (divisor groups). Every plan evaluates to
//! exactly the relation the corresponding division operator returns.

use crate::PlanBuilder;
use div_algebra::{AggregateCall, CompareOp, Predicate, Value};

fn names(attributes: &[impl AsRef<str>]) -> Vec<String> {
    attributes.iter().map(|a| a.as_ref().to_string()).collect()
}

impl PlanBuilder {
    /// Healy's simulation of the small divide by the basic operators,
    /// `π_A(r) − π_A((π_A(r) × s) − π_{A∪B}(r))`. Its product holds
    /// `|π_A(r)| · |s|` rows, quadratic when groups are small against `s`:
    /// the intermediate that makes the paper ask for a special-purpose operator.
    pub fn difference_plan(
        self,
        divisor: PlanBuilder,
        quotient: &[impl AsRef<str>],
        shared: &[impl AsRef<str>],
    ) -> Self {
        let a = names(quotient);
        let ab: Vec<String> = a.iter().cloned().chain(names(shared)).collect();
        let entities = self.clone().project(a.clone());
        let all_pairs = entities.clone().product(divisor); // schema A ++ B
        let present = self.project(ab); // same order
        let missing = all_pairs.difference(present).project(a);
        entities.difference(missing)
    }

    /// The simulation of [`PlanBuilder::difference_plan`] through nested
    /// anti-semi-joins: `π_A(r) ▷ π_A((π_A(r) × s) ▷ r)`.
    pub fn anti_join_plan(self, divisor: PlanBuilder, quotient: &[impl AsRef<str>]) -> Self {
        let a = names(quotient);
        let entities = self.clone().project(a.clone());
        // Pairs (entity, required item) with no supporting dividend tuple…
        let missing = entities
            .clone()
            .product(divisor)
            .anti_semi_join(self)
            .project(a);
        // …disqualify their entity.
        entities.anti_semi_join(missing)
    }

    /// Counting division, the `GROUP BY` / `HAVING COUNT` formulation:
    /// `π_A(σ_{n=|s|}(γ_{A; count(B₁)→n}(r ⋉ s)))`, where `divisor_count` is
    /// `|s|`. An empty divisor divides every group, so the plan is then
    /// `π_A(r)`.
    pub fn counting_plan(
        self,
        divisor: PlanBuilder,
        quotient: &[impl AsRef<str>],
        shared: &[impl AsRef<str>],
        divisor_count: usize,
    ) -> Self {
        let a = names(quotient);
        if divisor_count == 0 {
            return self.project(a);
        }
        let count_col = shared[0].as_ref();
        self.semi_join(divisor)
            .group_aggregate(a.clone(), [AggregateCall::count(count_col, "__n")])
            .select(Predicate::eq_value(
                "__n",
                Value::from(divisor_count as i64),
            ))
            .project(a)
    }

    /// Counting great divide: per-`(A, C)` match counts of `r ⋈ s` joined
    /// against per-`C` divisor counts of `s`, kept where equal.
    pub fn counting_grouped_plan(
        self,
        divisor: PlanBuilder,
        quotient: &[impl AsRef<str>],
        shared: &[impl AsRef<str>],
        group: &[impl AsRef<str>],
    ) -> Self {
        let group = names(group);
        let result: Vec<String> = names(quotient).into_iter().chain(group.clone()).collect();
        let count_col = shared[0].as_ref();
        let matched = self
            .natural_join(divisor.clone()) // on B; schema A ∪ B ∪ C
            .group_aggregate(result.clone(), [AggregateCall::count(count_col, "__n")]);
        let required = divisor.group_aggregate(group, [AggregateCall::count(count_col, "__m")]);
        matched
            .natural_join(required) // on C
            .select(Predicate::cmp_attrs("__n", CompareOp::Eq, "__m"))
            .project(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, Catalog, LogicalPlan};
    use div_algebra::{relation, Relation, Schema};

    /// Every small-divide family member over `r1 ÷ r2` in `catalog`, named.
    fn small_family(catalog: &Catalog) -> Vec<(&'static str, LogicalPlan)> {
        let r = || PlanBuilder::scan("r1");
        let s = || PlanBuilder::scan("r2");
        let k = catalog.table("r2").unwrap().len();
        vec![
            ("native", r().divide(s()).build()),
            (
                "difference",
                r().difference_plan(s(), &["a"], &["b"]).build(),
            ),
            ("anti-join", r().anti_join_plan(s(), &["a"]).build()),
            (
                "counting",
                r().counting_plan(s(), &["a"], &["b"], k).build(),
            ),
        ]
    }

    fn catalog(dividend: Relation, divisor: Relation) -> Catalog {
        let mut catalog = Catalog::new();
        catalog.register("r1", dividend);
        catalog.register("r2", divisor);
        catalog
    }

    fn assert_small_family_divides(dividend: Relation, divisor: Relation) {
        let expected = dividend.divide(&divisor).unwrap();
        let catalog = catalog(dividend, divisor);
        for (name, plan) in small_family(&catalog) {
            assert_eq!(evaluate(&plan, &catalog).unwrap(), expected, "{name}");
        }
    }

    fn figure1_dividend() -> Relation {
        relation! {
            ["a", "b"] =>
            [1, 1], [1, 4],
            [2, 1], [2, 2], [2, 3], [2, 4],
            [3, 1], [3, 3], [3, 4],
        }
    }

    #[test]
    fn all_algorithms_agree_on_figure_1() {
        assert_small_family_divides(figure1_dividend(), relation! { ["b"] => [1], [3] });
    }

    #[test]
    fn all_algorithms_handle_empty_inputs() {
        assert_small_family_divides(figure1_dividend(), Relation::empty(Schema::of(["b"])));
        assert_small_family_divides(
            Relation::empty(Schema::of(["a", "b"])),
            relation! { ["b"] => [1], [3] },
        );
    }

    #[test]
    fn all_great_divide_algorithms_agree_on_figure_2() {
        let divisor = relation! { ["b", "c"] => [1, 1], [2, 1], [4, 1], [1, 2], [3, 2] };
        let catalog = catalog(figure1_dividend(), divisor);
        let r = || PlanBuilder::scan("r1");
        let s = || PlanBuilder::scan("r2");
        let expected = relation! { ["a", "c"] => [2, 1], [2, 2], [3, 2] };
        for plan in [
            r().great_divide(s()).build(),
            r().counting_grouped_plan(s(), &["a"], &["b"], &["c"])
                .build(),
        ] {
            assert_eq!(evaluate(&plan, &catalog).unwrap(), expected, "{plan}");
        }
    }
}
