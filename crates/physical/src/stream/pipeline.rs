//! Pipelining operators: one chunk in, at most one chunk out, with a
//! cross-chunk distinct store where set semantics need it.

use super::{consumed, BatchStream, OpMeta, RetainedState, StreamContext};
use crate::Result;
use div_algebra::{Predicate, Schema};
use div_columnar::{kernels, ColumnarBatch, StreamingDistinct};
use div_expr::ExprError;

/// Predicate filter: one chunk in, at most one chunk out.
pub(super) struct FilterStream {
    meta: OpMeta,
    child: Box<dyn BatchStream>,
    predicate: Predicate,
}

impl FilterStream {
    pub(super) fn new(meta: OpMeta, child: Box<dyn BatchStream>, predicate: Predicate) -> Self {
        FilterStream {
            meta,
            child,
            predicate,
        }
    }
}

impl BatchStream for FilterStream {
    fn schema(&self) -> &Schema {
        self.child.schema()
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        while let Some(chunk) = self.child.next_batch(ctx)? {
            let filtered = kernels::filter(&chunk, &self.predicate);
            consumed(ctx, &chunk);
            let out = filtered.map_err(ExprError::from)?;
            if out.num_rows() > 0 {
                return self.meta.emit(ctx, out);
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.child.close(ctx);
    }
}

/// Projection with *streaming* duplicate elimination: columns are cut per
/// chunk, and a cross-chunk distinct store keeps set semantics. Every
/// stream emits globally duplicate-free rows (scans read sets, and each
/// operator preserves or restores distinctness), so a projection that keeps
/// every input column cannot introduce duplicates and skips the store
/// entirely (`distinct` is `None`).
pub(super) struct ProjectStream {
    meta: OpMeta,
    child: Box<dyn BatchStream>,
    schema: Schema,
    indices: Vec<usize>,
    distinct: Option<StreamingDistinct>,
    retained: RetainedState,
}

impl ProjectStream {
    pub(super) fn new(
        meta: OpMeta,
        child: Box<dyn BatchStream>,
        attributes: &[String],
    ) -> Result<Self> {
        let refs: Vec<&str> = attributes.iter().map(String::as_str).collect();
        let schema = child.schema().project(&refs).map_err(ExprError::from)?;
        let indices = child
            .schema()
            .projection_indices(&refs)
            .map_err(ExprError::from)?;
        // A projection that keeps every column (in any order) of a
        // duplicate-free stream stays duplicate-free — only a narrowing
        // projection needs the distinct store.
        let distinct = (indices.len() < child.schema().arity())
            .then(|| StreamingDistinct::new(schema.clone()));
        Ok(ProjectStream {
            meta,
            child,
            schema,
            indices,
            distinct,
            retained: RetainedState::default(),
        })
    }
}

impl BatchStream for ProjectStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        while let Some(chunk) = self.child.next_batch(ctx)? {
            let projected = chunk.with_columns(self.schema.clone(), &self.indices);
            let fresh = match self.distinct.as_mut() {
                Some(distinct) => {
                    let fresh = distinct.push(&projected);
                    let retained_rows = distinct.len();
                    self.retained.grow_to(ctx, self.meta.id, retained_rows);
                    fresh
                }
                None => projected,
            };
            consumed(ctx, &chunk);
            if fresh.num_rows() > 0 {
                return self.meta.emit(ctx, fresh);
            }
        }
        Ok(None)
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.retained.release(ctx);
        self.child.close(ctx);
    }
}

/// Attribute renaming: pure metadata, chunk through.
pub(super) struct RenameStream {
    meta: OpMeta,
    child: Box<dyn BatchStream>,
    schema: Schema,
}

impl RenameStream {
    pub(super) fn new(
        meta: OpMeta,
        child: Box<dyn BatchStream>,
        renames: &[(String, String)],
    ) -> Result<Self> {
        let schema = child
            .schema()
            .rename_with(|name| {
                renames
                    .iter()
                    .find(|(from, _)| from == name)
                    .map(|(_, to)| to.clone())
                    .unwrap_or_else(|| name.to_string())
            })
            .map_err(ExprError::from)?;
        Ok(RenameStream {
            meta,
            child,
            schema,
        })
    }
}

impl BatchStream for RenameStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        match self.child.next_batch(ctx)? {
            None => Ok(None),
            Some(chunk) => {
                // Genuinely metadata-only: reuse the chunk's column data
                // under the renamed schema, no copies. The chunk's resident
                // accounting transfers to the output, so balance it against
                // emit's acquire.
                consumed(ctx, &chunk);
                let (_, columns, rows) = chunk.into_parts();
                let out = ColumnarBatch::from_parts(self.schema.clone(), columns, rows);
                self.meta.emit(ctx, out)
            }
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.child.close(ctx);
    }
}

/// Set union: append both inputs chunk-at-a-time (right chunks conformed to
/// the left schema), with a cross-chunk distinct store for set semantics.
pub(super) struct UnionStream {
    meta: OpMeta,
    left: Box<dyn BatchStream>,
    right: Box<dyn BatchStream>,
    schema: Schema,
    distinct: StreamingDistinct,
    retained: RetainedState,
    left_done: bool,
}

impl UnionStream {
    /// The inputs must already be checked union-compatible.
    pub(super) fn new(
        meta: OpMeta,
        left: Box<dyn BatchStream>,
        right: Box<dyn BatchStream>,
    ) -> Self {
        let schema = left.schema().clone();
        UnionStream {
            meta,
            left,
            right,
            distinct: StreamingDistinct::new(schema.clone()),
            schema,
            retained: RetainedState::default(),
            left_done: false,
        }
    }
}

impl BatchStream for UnionStream {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self, ctx: &mut StreamContext) -> Result<Option<ColumnarBatch>> {
        loop {
            let (chunk, conform) = if !self.left_done {
                match self.left.next_batch(ctx)? {
                    Some(chunk) => (chunk, false),
                    None => {
                        self.left_done = true;
                        continue;
                    }
                }
            } else {
                match self.right.next_batch(ctx)? {
                    Some(chunk) => (chunk, true),
                    None => return Ok(None),
                }
            };
            // Only right-side chunks need a conforming copy; left chunks
            // feed the distinct store directly.
            let pushed = if conform {
                chunk
                    .conform_to(&self.schema)
                    .map(|aligned| self.distinct.push(&aligned))
            } else {
                Ok(self.distinct.push(&chunk))
            };
            consumed(ctx, &chunk);
            let fresh = pushed.map_err(ExprError::from)?;
            self.retained
                .grow_to(ctx, self.meta.id, self.distinct.len());
            if fresh.num_rows() > 0 {
                return self.meta.emit(ctx, fresh);
            }
        }
    }

    fn close(&mut self, ctx: &mut StreamContext) {
        self.meta.record(ctx);
        self.retained.release(ctx);
        self.left.close(ctx);
        self.right.close(ctx);
    }
}
