//! # division
//!
//! Facade crate of the *division-laws* workspace — a Rust reproduction of
//! Rantzau & Mangold, *Laws for Rewriting Queries Containing Division
//! Operators* (ICDE 2006).
//!
//! The facade re-exports every layer of the system so applications can depend
//! on a single crate:
//!
//! * [`algebra`] — set-semantics relational algebra with small and great
//!   divide (reference semantics),
//! * [`expr`] — logical plans, catalog, reference evaluator, and the
//!   paper's division algorithm family as plans,
//! * [`rewrite`] — the seventeen algebraic laws, theorems, and the
//!   cost-based optimizer that applies them,
//! * [`physical`] — the streaming columnar executor and its configuration
//!   with its special-purpose division operators,
//! * [`columnar`] — the columnar batch representation and vectorized
//!   division kernels the streaming executor runs on,
//! * [`sql`] — the `DIVIDE BY … ON` SQL dialect of Section 4,
//! * [`mining`] — frequent itemset discovery via the great divide (Section 3),
//! * [`datagen`] — workload generators used by the examples, tests and
//!   benches.
//!
//! ```
//! use division::prelude::*;
//!
//! let mut catalog = Catalog::new();
//! catalog.register("supplies", relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] });
//! catalog.register("blue_parts", relation! { ["p#"] => [1], [2] });
//! let plan = PlanBuilder::scan("supplies")
//!     .divide(PlanBuilder::scan("blue_parts"))
//!     .build();
//! assert_eq!(evaluate(&plan, &catalog).unwrap(), relation! { ["s#"] => [1] });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use div_algebra as algebra;
pub use div_columnar as columnar;
pub use div_datagen as datagen;
pub use div_expr as expr;
pub use div_mining as mining;
pub use div_physical as physical;
pub use div_rewrite as rewrite;
pub use div_sql as sql;

/// The most commonly used items, re-exported for `use division::prelude::*`.
pub mod prelude {
    pub use div_algebra::{
        relation, AggregateCall, AggregateFunction, CompareOp, Predicate, Relation, Schema, Tuple,
        Value,
    };
    pub use div_columnar::ColumnarBatch;
    pub use div_expr::{evaluate, plans_equivalent_on, Catalog, LogicalPlan, PlanBuilder};
    pub use div_physical::{
        operator_label, OperatorId, OperatorStats, PlannerConfig, QueryTrace, StreamExecutor,
    };
    pub use div_rewrite::optimizer::CostModel;
    pub use div_rewrite::{Optimizer, RewriteContext, RuleSet};
    pub use div_sql::{
        parse_query, translate_query, Cursor, Engine, EngineBuilder, EngineMetrics, Explain,
        MetricsSnapshot, Params, PreparedStatement, QueryOutput, Request,
    };
    pub use div_sql::{Error as SqlError, ParseError};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_all_layers() {
        let mut catalog = Catalog::new();
        catalog.register("r1", relation! { ["a", "b"] => [1, 1], [1, 2], [2, 1] });
        catalog.register("r2", relation! { ["b"] => [1], [2] });
        let plan = PlanBuilder::scan("r1")
            .divide(PlanBuilder::scan("r2"))
            .build();
        // Logical evaluation, rewriting and physical execution all agree.
        let logical = evaluate(&plan, &catalog).unwrap();
        let ctx = RewriteContext::with_catalog(&catalog);
        let optimizer = Optimizer::new();
        let optimized = optimizer.optimize(&plan, &ctx).unwrap().plan;
        assert_eq!(evaluate(&optimized, &catalog).unwrap(), logical);
        for rewrite in optimizer.rewrites(&plan, &ctx).unwrap() {
            assert_eq!(evaluate(&rewrite.plan, &catalog).unwrap(), logical);
        }
        let config = PlannerConfig::default();
        let mut stream = StreamExecutor::new(&plan, &catalog, &config).unwrap();
        let batch = stream.next_batch().unwrap().expect("one quotient row");
        assert_eq!(batch.to_relation().unwrap(), logical);
        assert!(stream.next_batch().unwrap().is_none());
        assert_eq!(logical, relation! { ["a"] => [1] });
    }
}
