//! The grouping operator `GγF` (grouping attributes `G`, aggregate list `F`).
//!
//! The paper uses grouping in two places: the counting-based division
//! definition (footnote 1), and the special-case Laws 11 and 12 where the
//! dividend is itself the output of an aggregation (`r1 = AγF(X)→B(r0)`).

use crate::{AlgebraError, Relation, Result, Tuple, Value};

/// An aggregate function applied to one attribute of each group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// Number of tuples in the group (the attribute still names what is being
    /// counted, e.g. `count(B) → c`).
    Count,
    /// Sum of an integer attribute.
    Sum,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}

impl AggregateFunction {
    /// Evaluate the aggregate over the values of the aggregated attribute in
    /// one group.
    pub fn eval(&self, values: &[Value]) -> Result<Value> {
        match self {
            AggregateFunction::Count => Ok(Value::Int(values.len() as i64)),
            AggregateFunction::Sum => {
                let mut total = 0i128;
                for v in values {
                    total += i128::from(AggregateFunction::sum_operand(v)?);
                }
                Ok(Value::Int(AggregateFunction::sum_total(total)?))
            }
            AggregateFunction::Min => {
                values
                    .iter()
                    .min()
                    .cloned()
                    .ok_or_else(|| AlgebraError::InvalidAggregate {
                        reason: "MIN over an empty group".to_string(),
                    })
            }
            AggregateFunction::Max => {
                values
                    .iter()
                    .max()
                    .cloned()
                    .ok_or_else(|| AlgebraError::InvalidAggregate {
                        reason: "MAX over an empty group".to_string(),
                    })
            }
        }
    }

    /// The integer `SUM` adds for `value`: only a non-NULL integer has one.
    pub fn sum_operand(value: &Value) -> Result<i64> {
        value
            .as_int()
            .ok_or_else(|| AlgebraError::InvalidAggregate {
                reason: format!("SUM over non-integer value `{value}`"),
            })
    }

    /// The `SUM` of a group whose exact total is `total`, or the typed error
    /// when it leaves the `i64` range. Totals are kept exact (in `i128`,
    /// which no group can overflow) rather than checked per addition, so the
    /// verdict does not depend on the order the values are added in.
    pub fn sum_total(total: i128) -> Result<i64> {
        i64::try_from(total).map_err(|_| AlgebraError::InvalidAggregate {
            reason: format!("SUM of {total} overflows a 64-bit integer"),
        })
    }

    /// Name used in plan displays (`count`, `sum`, …).
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFunction::Count => "count",
            AggregateFunction::Sum => "sum",
            AggregateFunction::Min => "min",
            AggregateFunction::Max => "max",
        }
    }
}

/// One entry of the aggregate list `F`: `function(input) → output`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggregateCall {
    /// The aggregate function.
    pub function: AggregateFunction,
    /// Attribute the function is applied to.
    pub input: String,
    /// Name of the output attribute.
    pub output: String,
}

impl AggregateCall {
    /// Build `function(input) → output`.
    pub fn new(
        function: AggregateFunction,
        input: impl Into<String>,
        output: impl Into<String>,
    ) -> Self {
        AggregateCall {
            function,
            input: input.into(),
            output: output.into(),
        }
    }

    /// Shorthand for `count(input) → output`, the form used by the paper's
    /// Law 11/12 preconditions.
    pub fn count(input: impl Into<String>, output: impl Into<String>) -> Self {
        Self::new(AggregateFunction::Count, input, output)
    }

    /// Shorthand for `sum(input) → output`.
    pub fn sum(input: impl Into<String>, output: impl Into<String>) -> Self {
        Self::new(AggregateFunction::Sum, input, output)
    }
}

impl std::fmt::Display for AggregateCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}({}) -> {}",
            self.function.name(),
            self.input,
            self.output
        )
    }
}

impl Relation {
    /// The grouping operator `GγF(r)`.
    ///
    /// Groups the relation on the attributes `group_by` and evaluates every
    /// aggregate of `aggregates` per group. The output schema is the grouping
    /// attributes (in the given order) followed by the aggregate output names.
    /// Grouping an empty relation yields an empty relation; grouping with an
    /// empty `group_by` list produces a single group covering all tuples
    /// (only when the input is nonempty, matching SQL `GROUP BY ()` on sets).
    pub fn group_aggregate(
        &self,
        group_by: &[&str],
        aggregates: &[AggregateCall],
    ) -> Result<Relation> {
        let mut out = Relation::empty(self.schema().aggregate(group_by, aggregates)?);

        if self.is_empty() {
            return Ok(out);
        }

        let groups = self.group_by(group_by)?;
        for (key, members) in groups {
            let mut values = key.values().to_vec();
            for agg in aggregates {
                let input_idx = self.schema().require(&agg.input)?;
                let inputs: Vec<Value> = members
                    .iter()
                    .map(|t| t.values()[input_idx].clone())
                    .collect();
                values.push(agg.function.eval(&inputs)?);
            }
            out.insert(Tuple::new(values))?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation;

    #[test]
    fn sum_grouping_matches_figure_10() {
        // Figure 10(b): r1 = aγsum(x)→b(r0).
        let r0 = relation! {
            ["a", "x"] =>
            [1, 1], [1, 2], [1, 3],
            [2, 1], [2, 3],
            [3, 1], [3, 3], [3, 4],
        };
        let r1 = r0
            .group_aggregate(&["a"], &[AggregateCall::sum("x", "b")])
            .unwrap();
        let expected = relation! { ["a", "b"] => [1, 6], [2, 4], [3, 8] };
        assert_eq!(r1, expected);
    }

    #[test]
    fn sum_grouping_matches_figure_11() {
        // Figure 11(b): r1 = bγsum(x)→a(r0).
        let r0 = relation! {
            ["x", "b"] =>
            [1, 1], [1, 2], [1, 3],
            [2, 1], [2, 3],
            [3, 1], [3, 3], [3, 4],
        };
        let r1 = r0
            .group_aggregate(&["b"], &[AggregateCall::sum("x", "a")])
            .unwrap();
        let expected = relation! { ["b", "a"] => [1, 6], [2, 1], [3, 6], [4, 3] };
        assert_eq!(r1, expected);
    }

    #[test]
    fn count_and_min_max() {
        let r = relation! {
            ["g", "v"] =>
            [1, 5], [1, 7], [2, 3],
        };
        let agg = r
            .group_aggregate(
                &["g"],
                &[
                    AggregateCall::count("v", "c"),
                    AggregateCall::new(AggregateFunction::Min, "v", "lo"),
                    AggregateCall::new(AggregateFunction::Max, "v", "hi"),
                ],
            )
            .unwrap();
        let expected = relation! {
            ["g", "c", "lo", "hi"] =>
            [1, 2, 5, 7],
            [2, 1, 3, 3],
        };
        assert_eq!(agg, expected);
    }

    #[test]
    fn grouping_empty_relation_is_empty() {
        let r = relation! { ["g", "v"] => };
        let agg = r
            .group_aggregate(&["g"], &[AggregateCall::count("v", "c")])
            .unwrap();
        assert!(agg.is_empty());
    }

    #[test]
    fn empty_group_by_produces_single_group() {
        let r = relation! { ["v"] => [1], [2], [3] };
        let agg = r
            .group_aggregate(&[], &[AggregateCall::count("v", "c")])
            .unwrap();
        assert_eq!(agg, relation! { ["c"] => [3] });
    }

    #[test]
    fn sum_over_strings_is_an_error() {
        let r = relation! { ["g", "v"] => [1, "x"] };
        assert!(r
            .group_aggregate(&["g"], &[AggregateCall::sum("v", "s")])
            .is_err());
    }

    #[test]
    fn sum_overflow_is_a_typed_error_whatever_the_order() {
        let sum = AggregateFunction::Sum;
        let over = [Value::Int(i64::MAX), Value::Int(1)];
        assert!(matches!(
            sum.eval(&over),
            Err(AlgebraError::InvalidAggregate { .. })
        ));
        // A total back in range is a result, even where a running i64 sum
        // would have overflowed on the way.
        let back = [Value::Int(i64::MAX), Value::Int(1), Value::Int(-1)];
        assert_eq!(sum.eval(&back).unwrap(), Value::Int(i64::MAX));
    }

    #[test]
    fn unknown_aggregate_input_is_an_error() {
        let r = relation! { ["g"] => [1] };
        assert!(r
            .group_aggregate(&["g"], &[AggregateCall::count("zz", "c")])
            .is_err());
    }
}
