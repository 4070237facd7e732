//! Batch-native hash aggregation, one chunk at a time.
//!
//! Grouping backs the paper's counting-based strategies: Laws 11 and 12
//! (Section 5.1.7) rewrite the small divide through `γ`/`count`, and the
//! counting division and great-divide algorithms are aggregate formulations
//! at heart. There is one implementation, [`StreamingAggregate`], which
//! folds its input chunk by chunk into one accumulator row per group — the
//! state is groups × accumulators, never the input — and whose group set
//! can be frozen like the divides' ([`StreamingAggregate::consume_frozen`]).
//! [`hash_aggregate`] is that kernel fed one whole batch.
//!
//! Both mirror [`div_algebra::Relation::group_aggregate`] exactly, including
//! its edge cases: aggregating an empty input yields an empty result, an
//! empty `group_by` list produces one group covering all rows (only when the
//! input is nonempty, matching SQL `GROUP BY ()` over sets), `MIN`/`MAX`
//! follow [`Value`] ordering, and `SUM` over anything but non-NULL integers,
//! or to a total outside `i64`, is the typed `InvalidAggregate` error.
//!
//! Accumulators are flat, one slot per group: `COUNT` an `i64`, `SUM` an
//! exact `i128`, `MIN`/`MAX` the best [`Value`] so far.
//!
//! Duplicate safety: the reference operator aggregates a *set* of tuples.
//! [`StreamingAggregate`] trusts its input to be one — every stream of the
//! executor is duplicate-free, which debug builds assert at every
//! operator's emit — and counts each row it is shown. [`hash_aggregate`]
//! takes any batch through the public API, so it deduplicates full rows
//! before grouping: transient duplicate rows cannot inflate `count`/`sum`.

use crate::batch::ColumnarBatch;
use crate::column::Column;
use crate::kernels::divide::FrozenConsume;
use crate::stream::GroupStore;
use crate::Result;
use div_algebra::{AggregateCall, AggregateFunction, Schema, Value};

/// Hash aggregation `γ_{group_by; aggregates}(batch)`, mirroring
/// [`div_algebra::Relation::group_aggregate`]: [`StreamingAggregate`] fed
/// the deduplicated batch as its only chunk.
pub fn hash_aggregate(
    batch: &ColumnarBatch,
    group_by: &[&str],
    aggregates: &[AggregateCall],
) -> Result<ColumnarBatch> {
    let mut state = StreamingAggregate::new(batch.schema(), group_by, aggregates)?;
    state.consume(&batch.dedup())?;
    state.finish()
}

/// Grouped aggregation over a *streamed*, duplicate-free input. Every
/// [`StreamingAggregate::consume`] call interns one chunk's grouping keys
/// into a [`GroupStore`] and folds its rows into per-group accumulators; the
/// result is emitted by [`StreamingAggregate::finish`], so the operator's
/// output (not its input) is a blocking boundary.
///
/// When even the group set is too much to keep, it can be *frozen*:
/// [`StreamingAggregate::consume_frozen`] keeps folding in the rows of the
/// groups it holds and hands the others back. Those rows belong to groups
/// disjoint from every resident one, so a fresh state aggregates them and
/// the two results' union is the whole result — the same quotient-style
/// partitioning the divides use.
///
/// A state that has consumed nothing is cheap to clone: that is how an
/// operator starts each pass with the same grouping and aggregates.
#[derive(Debug, Clone)]
pub struct StreamingAggregate {
    schema: Schema,
    groups: GroupStore,
    accumulators: Vec<Accumulator>,
}

/// One aggregate of the list: the input column it reads and its per-group
/// state.
#[derive(Debug, Clone)]
struct Accumulator {
    input: usize,
    state: AccState,
}

#[derive(Debug, Clone)]
enum AccState {
    Count(Vec<i64>),
    /// Exact totals: the `i64` range is checked once, at the end.
    Sum(Vec<i128>),
    /// The best value per group; `None` only until a new group's first row
    /// is folded in.
    Extreme {
        max: bool,
        best: Vec<Option<Value>>,
    },
}

impl StreamingAggregate {
    /// Prepare `γ_{group_by; aggregates}` over chunks carrying
    /// `input_schema`. Every attribute is validated here, and the output
    /// schema — the grouping attributes, then the aggregate outputs — fixed.
    pub fn new(
        input_schema: &Schema,
        group_by: &[&str],
        aggregates: &[AggregateCall],
    ) -> Result<StreamingAggregate> {
        let mut names: Vec<&str> = group_by.to_vec();
        let mut accumulators = Vec::with_capacity(aggregates.len());
        for agg in aggregates {
            // The input attribute must exist even for COUNT, like the
            // reference operator.
            let input = input_schema.require(&agg.input)?;
            names.push(&agg.output);
            let state = match agg.function {
                AggregateFunction::Count => AccState::Count(Vec::new()),
                AggregateFunction::Sum => AccState::Sum(Vec::new()),
                AggregateFunction::Min | AggregateFunction::Max => AccState::Extreme {
                    max: agg.function == AggregateFunction::Max,
                    best: Vec::new(),
                },
            };
            accumulators.push(Accumulator { input, state });
        }
        let schema = Schema::new(names)?;
        let key_cols = input_schema.projection_indices(group_by)?;
        Ok(StreamingAggregate {
            schema,
            groups: GroupStore::new(input_schema.project(group_by)?, key_cols),
            accumulators,
        })
    }

    /// The output schema: grouping attributes, then aggregate outputs.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Input columns of the grouping attributes.
    pub fn key_cols(&self) -> &[usize] {
        self.groups.key_cols()
    }

    /// Fold one chunk into the state, adding the groups it introduces.
    pub fn consume(&mut self, chunk: &ColumnarBatch) -> Result<()> {
        let interned = self.groups.intern_chunk(chunk);
        self.fold(chunk, interned.gids.iter().copied().enumerate())
    }

    /// [`StreamingAggregate::consume`] with the group set *frozen*: rows of
    /// groups seen before are folded in, rows of unseen groups are handed
    /// back as [`FrozenConsume::leftover`] and no group is added. `probes`
    /// counts the rows folded in.
    pub fn consume_frozen(&mut self, chunk: &ColumnarBatch) -> Result<FrozenConsume> {
        let found = self.groups.lookup_chunk(chunk);
        let members = found
            .iter()
            .enumerate()
            .filter_map(|(row, gid)| gid.map(|gid| (row, gid)));
        self.fold(chunk, members)?;
        Ok(FrozenConsume::of(&found))
    }

    /// Number of groups retained so far.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Emit one row per group: its key, then every aggregate's value.
    pub fn finish(self) -> Result<ColumnarBatch> {
        let rows = self.groups.len();
        let (_, mut columns, _) = self.groups.rows().into_parts();
        for acc in self.accumulators {
            columns.push(acc.state.finish()?);
        }
        Ok(ColumnarBatch::from_parts(self.schema, columns, rows))
    }

    /// Fold the `(row, group id)` members of `chunk` into every accumulator.
    fn fold(
        &mut self,
        chunk: &ColumnarBatch,
        members: impl Iterator<Item = (usize, u32)> + Clone,
    ) -> Result<()> {
        let groups = self.groups.len();
        for acc in &mut self.accumulators {
            acc.state
                .fold(chunk.column(acc.input), groups, members.clone())?;
        }
        Ok(())
    }
}

impl AccState {
    fn fold(
        &mut self,
        column: &Column,
        groups: usize,
        members: impl Iterator<Item = (usize, u32)>,
    ) -> Result<()> {
        match self {
            AccState::Count(counts) => {
                counts.resize(groups, 0);
                for (_, gid) in members {
                    counts[gid as usize] += 1;
                }
            }
            AccState::Sum(totals) => {
                totals.resize(groups, 0);
                for (row, gid) in members {
                    let operand = AggregateFunction::sum_operand(&column.value(row))?;
                    totals[gid as usize] += i128::from(operand);
                }
            }
            AccState::Extreme { max, best } => {
                best.resize(groups, None);
                for (row, gid) in members {
                    let value = column.value(row);
                    let slot = &mut best[gid as usize];
                    let better = match slot {
                        None => true,
                        Some(current) if *max => value > *current,
                        Some(current) => value < *current,
                    };
                    if better {
                        *slot = Some(value);
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Column> {
        let ints = |values: Vec<i64>| Column::Int {
            values,
            validity: None,
        };
        Ok(match self {
            AccState::Count(counts) => ints(counts),
            AccState::Sum(totals) => ints(
                totals
                    .into_iter()
                    .map(AggregateFunction::sum_total)
                    .collect::<div_algebra::Result<_>>()?,
            ),
            AccState::Extreme { best, .. } => Column::from_values(best.iter().flatten()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::great_divide::tests::{batch_of, key_value};
    use div_algebra::{relation, AlgebraError, Relation};
    use proptest::prelude::*;

    fn supplies() -> ColumnarBatch {
        ColumnarBatch::from_relation(&relation! {
            ["s#", "p#"] => [1, 1], [1, 2], [2, 1], [2, 2], [2, 3], [3, 2]
        })
    }

    fn check(batch: &ColumnarBatch, group_by: &[&str], aggregates: &[AggregateCall]) {
        let expected = batch
            .to_relation()
            .unwrap()
            .group_aggregate(group_by, aggregates)
            .unwrap();
        let got = hash_aggregate(batch, group_by, aggregates).unwrap();
        assert_eq!(got.to_relation().unwrap(), expected);
    }

    #[test]
    fn count_and_sum_match_reference() {
        let batch = supplies();
        check(&batch, &["s#"], &[AggregateCall::count("p#", "n")]);
        check(
            &batch,
            &["s#"],
            &[
                AggregateCall::count("p#", "n"),
                AggregateCall::sum("p#", "total"),
            ],
        );
    }

    #[test]
    fn empty_group_by_makes_one_global_group() {
        let batch = supplies();
        check(&batch, &[], &[AggregateCall::count("s#", "n")]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty = ColumnarBatch::empty(div_algebra::Schema::of(["s#", "p#"]));
        let got = hash_aggregate(&empty, &[], &[AggregateCall::count("s#", "n")]).unwrap();
        assert_eq!(got.num_rows(), 0);
        check(&empty, &[], &[AggregateCall::count("s#", "n")]);
    }

    #[test]
    fn duplicate_rows_do_not_inflate_counts() {
        let batch = supplies();
        let doubled = batch.gather(&[0, 0, 1, 2, 3, 4, 5, 5]);
        let expected = batch
            .to_relation()
            .unwrap()
            .group_aggregate(&["s#"], &[AggregateCall::count("p#", "n")])
            .unwrap();
        let got = hash_aggregate(&doubled, &["s#"], &[AggregateCall::count("p#", "n")]).unwrap();
        assert_eq!(got.to_relation().unwrap(), expected);
    }

    #[test]
    fn unknown_attributes_are_rejected() {
        let batch = supplies();
        assert!(hash_aggregate(&batch, &["zz"], &[]).is_err());
        assert!(hash_aggregate(&batch, &[], &[AggregateCall::count("zz", "n")]).is_err());
    }

    #[test]
    fn sum_errors_are_typed() {
        let over = ColumnarBatch::from_relation(&relation! { ["g", "v"] => [1, i64::MAX], [1, 1] });
        let strings = ColumnarBatch::from_relation(&relation! { ["g", "v"] => [1, "x"] });
        for batch in [over, strings] {
            let err = hash_aggregate(&batch, &["g"], &[AggregateCall::sum("v", "s")]).unwrap_err();
            assert!(
                matches!(err, AlgebraError::InvalidAggregate { .. }),
                "{err}"
            );
        }
    }

    /// A `MIN`/`MAX` input mixing representations: ints, strings and NULL.
    fn mixed_value(v: u32) -> Value {
        match v % 4 {
            0 => Value::Null,
            1 => Value::str(["p", "q", "r"][(v % 3) as usize]),
            _ => Value::Int(i64::from(v) - 5),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Group partitioning with a resident part: freeze the group set
        /// after `freeze` chunks, keep consuming the rows of the resident
        /// groups, aggregate the leftover rows with a fresh state — the two
        /// results are disjoint and their union is the reference operator's.
        #[test]
        fn frozen_consume_plus_leftover_is_the_whole_aggregate(
            rows in prop::collection::vec((0u32..5, 0u32..3, -40i64..40, 0u32..12), 0..50),
            shape in 0u32..12,
            chunk_rows in 1usize..7,
            freeze in 0usize..10,
        ) {
            let (strings, mixed) = (shape & 1 == 1, shape & 2 == 2);
            let group_by: &[&str] = match shape / 4 {
                0 => &[],
                1 => &["a"],
                _ => &["a", "b"],
            };
            // The reference input is a set; the streamed chunks are its rows.
            let tuples: Vec<Vec<Value>> = rows
                .iter()
                .map(|&(a, b, x, y)| {
                    let y = if mixed { mixed_value(y) } else { Value::Int(i64::from(y)) };
                    vec![key_value(a, strings), key_value(b, false), Value::Int(x), y]
                })
                .collect();
            let names = ["a", "b", "x", "y"];
            let reference = batch_of(&names, &tuples).to_relation().unwrap();
            let rows: Vec<Vec<Value>> = reference.tuples().map(|t| t.values().to_vec()).collect();
            let aggregates = [
                AggregateCall::count("y", "n"),
                AggregateCall::sum("x", "total"),
                AggregateCall::new(AggregateFunction::Min, "y", "lo"),
                AggregateCall::new(AggregateFunction::Max, "y", "hi"),
                AggregateCall::new(AggregateFunction::Min, "x", "x_lo"),
                AggregateCall::new(AggregateFunction::Max, "x", "x_hi"),
            ];
            let expected = reference.group_aggregate(group_by, &aggregates).unwrap();
            let whole = hash_aggregate(&batch_of(&names, &rows), group_by, &aggregates).unwrap();
            prop_assert_eq!(whole.to_relation().unwrap(), expected.clone());

            let schema = Schema::of(names);
            let mut resident = StreamingAggregate::new(&schema, group_by, &aggregates).unwrap();
            let mut leftovers = Vec::new();
            // Each chunk is built from its own values, so string chunks
            // carry dictionaries the state has never seen.
            for (n, rows) in rows.chunks(chunk_rows).enumerate() {
                let chunk = batch_of(&names, rows);
                if n < freeze {
                    resident.consume(&chunk).unwrap();
                } else {
                    let groups = resident.groups();
                    let frozen = resident.consume_frozen(&chunk).unwrap();
                    prop_assert_eq!(resident.groups(), groups, "a frozen state grew");
                    prop_assert_eq!(frozen.probes + frozen.leftover.len(), chunk.num_rows());
                    leftovers.push(chunk.gather(&frozen.leftover));
                }
            }
            let mut overflow = StreamingAggregate::new(&schema, group_by, &aggregates).unwrap();
            for chunk in &leftovers {
                overflow.consume(chunk).unwrap();
            }
            let resident = resident.finish().unwrap().to_relation().unwrap();
            let overflow = overflow.finish().unwrap().to_relation().unwrap();
            prop_assert_eq!(
                resident.len() + overflow.len(),
                expected.len(),
                "resident and overflow groups overlap or lose rows"
            );
            prop_assert_eq!(resident.union(&overflow).unwrap(), expected);
        }
    }

    #[test]
    fn global_aggregate_over_empty_and_nonempty_streams() {
        let schema = Schema::of(["v"]);
        let count = [AggregateCall::count("v", "n")];
        let empty = StreamingAggregate::new(&schema, &[], &count).unwrap();
        assert_eq!(empty.groups(), 0);
        assert_eq!(empty.finish().unwrap().num_rows(), 0);

        let mut state = StreamingAggregate::new(&schema, &[], &count).unwrap();
        for chunk in [
            relation! { ["v"] => [1], [2] },
            relation! { ["v"] => [3] },
            Relation::empty(schema.clone()),
        ] {
            state
                .consume(&ColumnarBatch::from_relation(&chunk))
                .unwrap();
            assert!(state.groups() <= 1);
        }
        assert_eq!(
            state.finish().unwrap().to_relation().unwrap(),
            relation! { ["n"] => [3] }
        );
    }
}
