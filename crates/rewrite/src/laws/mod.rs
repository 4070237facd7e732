//! The algebraic laws of the paper as rewrite rules, grouped exactly like
//! Section 5:
//!
//! | Module | Paper section | Laws |
//! |--------|---------------|------|
//! | [`small_divide_union`] | 5.1.1 Union | Laws 1, 2 |
//! | [`small_divide_selection`] | 5.1.2 Selection | Laws 3, 4 (+ Example 1) |
//! | [`small_divide_set_ops`] | 5.1.3/5.1.4 Intersection & Difference | Laws 5, 6, 7 |
//! | [`small_divide_product`] | 5.1.5 Cartesian product | Laws 8, 9 (+ Example 2) |
//! | [`small_divide_join`] | 5.1.6 Join | Law 10 (+ Example 3) |
//! | [`small_divide_grouping`] | 5.1.7 Grouping | Laws 11, 12 |
//! | [`great_divide`] | 5.2 Great divide | Laws 13–17 (+ Example 4) |
//! | [`examples`] | worked derivations | Examples 1 and 3 as plan constructors |

pub mod examples;
pub mod great_divide;
pub mod small_divide_grouping;
pub mod small_divide_join;
pub mod small_divide_product;
pub mod small_divide_selection;
pub mod small_divide_set_ops;
pub mod small_divide_union;

pub(crate) mod helpers {
    //! Schema bookkeeping and checks shared by the rules.

    use crate::context::RewriteContext;
    use crate::Result;
    use div_expr::LogicalPlan;

    /// Whether the data shows `divisor` non-empty. Laws 4, 5 and 6 do not
    /// hold on an empty divisor (`r1 ÷ ∅ = π_A(r1)` keeps every candidate),
    /// so they fire only when this is known: never without data access, nor
    /// while an unbound `$parameter` defers the divisor to execution.
    pub fn divisor_known_nonempty(ctx: &RewriteContext<'_>, divisor: &LogicalPlan) -> Result<bool> {
        Ok(ctx.try_evaluate(divisor)?.is_some_and(|d| !d.is_empty()))
    }

    /// Shorthand for string-slice views of owned attribute lists.
    pub fn refs(names: &[String]) -> Vec<&str> {
        names.iter().map(String::as_str).collect()
    }
}
