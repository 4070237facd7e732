//! Batch-native hash joins on the vectorized key pipeline.
//!
//! Keys are normalized once per chunk ([`KeyVector`]) and the build side
//! goes into a [`GroupIndex`] plus, for the natural join only, a CSR row
//! list — no per-row `Value` materialization, no SipHash. The build is fed
//! chunk by chunk ([`JoinBuilder`]) and keeps the chunks as they came, so
//! the build side is never concatenated. The index is a direct-addressed
//! array while the build keys are exact ints over a compact range (the
//! `(s#, p#)` keys of the paper's workloads), learnt chunk by chunk, and an
//! open-addressing table otherwise; the probe loops are the same for both.
//! A build only semi and anti probes read (⋉, ▷, ∩ and −) keeps one
//! presence bit per key over exact compact keys, as hash-division keeps one
//! bit per divisor tuple.

use crate::batch::ColumnarBatch;
use crate::column::{Column, ColumnAppender};
use crate::hash_table::{FormRule, GroupIndex, KeySet};
use crate::key_vector::{exact_row, keys_equal, KeyVector};
use crate::Result;
use div_algebra::Schema;

/// A kernel result: the output batch plus the probe count the executor feeds
/// into [`ExecStats`](https://docs.rs/div-physical) (one probe per left
/// row).
#[derive(Debug, Clone)]
pub struct KernelOutput {
    /// The produced batch.
    pub batch: ColumnarBatch,
    /// Hash probes performed.
    pub probes: usize,
}

/// Key column positions of the common attributes on both sides, in the
/// left schema's common-attribute order (the shared layout every hash join
/// keys on).
fn join_key_columns(left: &Schema, right: &Schema) -> Result<(Vec<usize>, Vec<usize>)> {
    let common = left.common_attributes(right);
    let common_refs: Vec<&str> = common.iter().map(String::as_str).collect();
    Ok((
        left.projection_indices(&common_refs)?,
        right.projection_indices(&common_refs)?,
    ))
}

/// CSR row lists over dense group ids: `offsets[g]..offsets[g + 1]` indexes
/// the rows of group `g` in `rows`, in ascending row order.
fn csr_from_gids(gid_of: &[u32], groups: usize) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![0u32; groups];
    for &gid in gid_of {
        counts[gid as usize] += 1;
    }
    let mut offsets = Vec::with_capacity(groups + 1);
    let mut running = 0u32;
    for &c in &counts {
        offsets.push(running);
        running += c;
    }
    offsets.push(running);
    let mut cursor: Vec<u32> = offsets[..groups].to_vec();
    let mut rows = vec![0u32; gid_of.len()];
    for (row, &gid) in gid_of.iter().enumerate() {
        let slot = cursor[gid as usize];
        rows[slot as usize] = row as u32;
        cursor[gid as usize] = slot + 1;
    }
    (offsets, rows)
}

/// The names of the build-side-only attributes, in build-schema order.
fn extra_attributes<'a>(probe: &Schema, build: &'a Schema) -> Vec<&'a str> {
    build
        .names()
        .into_iter()
        .filter(|n| !probe.contains(n))
        .collect()
}

/// The build chunks in arrival order, their rows numbered across them.
#[derive(Debug, Default)]
struct Segments {
    chunks: Vec<ColumnarBatch>,
    /// The number of the first row of every chunk.
    starts: Vec<usize>,
    rows: usize,
}

impl Segments {
    fn push(&mut self, chunk: ColumnarBatch) {
        self.starts.push(self.rows);
        self.rows += chunk.num_rows();
        self.chunks.push(chunk);
    }

    /// The chunk holding row `row`, and the row's place in it.
    fn locate(&self, row: usize) -> (&ColumnarBatch, usize) {
        let at = self.starts.partition_point(|&start| start <= row) - 1;
        (&self.chunks[at], row - self.starts[at])
    }
}

/// A hash-join build side fed one chunk at a time, then sealed into the
/// [`JoinBuild`] probes stream through ([`JoinBuilder::finish`]).
///
/// Every chunk is interned as it arrives: the index learns its dense range
/// chunk by chunk, with the grow step of a
/// [`GroupStore`](crate::GroupStore), and the build side is never
/// concatenated. A natural build keeps its chunks as they came and appends
/// its build-side-only columns, which its probes gather.
///
/// A semi build keeps one presence bit per key ([`KeySet`]) while the keys
/// are exact and the memory rule admits their range at one bit a cell. Its
/// chunks are worth nothing to a probe then: when the build side has no
/// column but its key, the bits give every row back, so it keeps no chunk
/// and holds its bits alone ([`JoinBuilder::held_rows`] counts their
/// words); otherwise it keeps them until it is sealed. The first chunk the
/// bits cannot take moves the build to the group index — over the rows the
/// bits give back, or the chunks kept — and so does a set of bits that
/// comes to outweigh its keys.
#[derive(Debug)]
pub struct JoinBuilder {
    probe_key: Vec<usize>,
    build_key: Vec<usize>,
    build_extra_idx: Vec<usize>,
    build_schema: Schema,
    out_schema: Schema,
    extra_schema: Schema,
    rule: FormRule,
    segments: Segments,
    keys: Growing,
    /// Rows pushed.
    rows: usize,
    /// Whether every build column is a key column, so presence bits give
    /// the rows back.
    keys_only: bool,
    /// The build-side-only columns of every row (natural builds only).
    extras: Option<Vec<ColumnAppender>>,
}

/// The key state of a [`JoinBuilder`].
#[derive(Debug)]
enum Growing {
    /// A semi build's presence bits.
    Present(KeySet),
    /// Group ids, and for a natural build every row's group id.
    Groups {
        index: GroupIndex,
        /// Whether every key interned codes exactly.
        exact: bool,
        gid_of: Option<Vec<u32>>,
    },
}

impl JoinBuilder {
    /// An empty build of chunks carrying `build_schema`, keyed on the
    /// attributes it shares with `probe_schema` (the schema every probe
    /// chunk must carry): for any probe when `natural`, else for semi and
    /// anti probes only.
    pub fn new(probe_schema: &Schema, build_schema: &Schema, natural: bool) -> Result<JoinBuilder> {
        JoinBuilder::with_rule(probe_schema, build_schema, natural, FormRule::Memory)
    }

    /// [`JoinBuilder::new`] with its forms chosen by `rule`.
    pub(crate) fn with_rule(
        probe_schema: &Schema,
        build_schema: &Schema,
        natural: bool,
        rule: FormRule,
    ) -> Result<JoinBuilder> {
        let (probe_key, build_key) = join_key_columns(probe_schema, build_schema)?;
        let build_extra = extra_attributes(probe_schema, build_schema);
        let build_extra_idx = build_schema.projection_indices(&build_extra)?;
        let extras = natural.then(|| {
            let empty = || {
                ColumnAppender::new(Column::Int {
                    values: Vec::new(),
                    validity: None,
                })
            };
            build_extra_idx.iter().map(|_| empty()).collect()
        });
        let keys = match KeySet::growing(build_key.len()).filter(|_| !natural) {
            Some(set) => Growing::Present(set),
            None => Growing::groups(build_key.len(), natural),
        };
        Ok(JoinBuilder {
            out_schema: probe_schema.natural_union(build_schema),
            extra_schema: build_schema.project(&build_extra)?,
            build_schema: build_schema.clone(),
            keys_only: build_extra.is_empty(),
            probe_key,
            build_key,
            build_extra_idx,
            rule,
            segments: Segments::default(),
            keys,
            rows: 0,
            extras,
        })
    }

    /// Rows pushed so far.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// What the build holds, in rows: its presence bits' words when they
    /// stand in for its rows, else the rows it keeps.
    pub fn held_rows(&self) -> usize {
        match &self.keys {
            Growing::Present(set) if self.keys_only => set.words(),
            _ => self.segments.rows,
        }
    }

    /// The rows a move to the group index would give back from the
    /// presence bits: one per key held, when the bits stand in for the
    /// rows, else none.
    pub fn key_rows(&self) -> usize {
        match &self.keys {
            Growing::Present(set) if self.keys_only => set.len(),
            _ => 0,
        }
    }

    /// Intern one build chunk, keeping it when the build needs it.
    pub fn push(&mut self, chunk: ColumnarBatch) {
        if let Err(chunk) = self.try_push(chunk) {
            self.to_groups();
            let pushed = self.try_push(chunk);
            debug_assert!(pushed.is_ok(), "a group index takes every chunk");
        }
    }

    /// [`JoinBuilder::push`], unless the presence bits cannot take the
    /// chunk and stand in for rows: the move to the group index would then
    /// give [`JoinBuilder::key_rows`] rows back at once, so the chunk is
    /// handed back for the caller to decide ([`JoinBuilder::to_groups`], or
    /// [`JoinBuilder::into_chunks`]).
    pub fn try_push(&mut self, chunk: ColumnarBatch) -> std::result::Result<(), ColumnarBatch> {
        if chunk.num_rows() == 0 {
            return Ok(());
        }
        let keys = KeyVector::build(&chunk, &self.build_key);
        if let Growing::Present(set) = &mut self.keys {
            if set.insert(self.build_key.len(), &keys, self.rows, self.rule) {
                self.rows += chunk.num_rows();
                if !self.keys_only {
                    self.segments.push(chunk);
                } else if set.words() > set.len() {
                    // The bits outweigh the rows they stand for.
                    self.to_groups();
                }
                return Ok(());
            }
            if self.key_rows() > 0 {
                return Err(chunk);
            }
            self.to_groups();
        }
        self.rows += chunk.num_rows();
        let base = self.segments.rows;
        if let Some(extras) = &mut self.extras {
            for (acc, &col) in extras.iter_mut().zip(&self.build_extra_idx) {
                acc.append(chunk.column(col));
            }
        }
        self.segments.push(chunk);
        self.intern(&keys, base);
        Ok(())
    }

    /// Move a presence build to the group index: intern the rows its bits
    /// give back, or the chunks it kept. A no-op on a group index.
    pub fn to_groups(&mut self) {
        let Growing::Present(set) = &self.keys else {
            return;
        };
        if self.keys_only {
            let rows = key_batch(set, &self.build_schema, &self.build_key, &mut 0, usize::MAX);
            if let Some(rows) = rows {
                self.segments.push(rows);
            }
        }
        self.keys = Growing::groups(self.build_key.len(), false);
        for at in 0..self.segments.chunks.len() {
            let keys = KeyVector::build(&self.segments.chunks[at], &self.build_key);
            self.intern(&keys, self.segments.starts[at]);
        }
    }

    /// Intern the keys of the kept chunk whose first row is `base` into the
    /// group index.
    fn intern(&mut self, keys: &KeyVector, base: usize) {
        let Growing::Groups {
            index,
            exact,
            gid_of,
        } = &mut self.keys
        else {
            unreachable!("the presence bits intern in `try_push`")
        };
        *exact &= keys.exact();
        let (segments, build_key) = (&self.segments, &self.build_key);
        let (chunk, _) = segments.locate(base);
        let verify = !*exact;
        index.intern(
            build_key.len(),
            keys,
            base,
            self.rule,
            |row, candidate| {
                let (other, at) = segments.locate(candidate);
                !verify || keys_equal(chunk, build_key, row, other, build_key, at)
            },
            |gid| {
                if let Some(gid_of) = gid_of.as_mut() {
                    gid_of.push(gid);
                }
            },
        );
    }

    /// Give the build up for its rows: the chunks it kept, or the rows its
    /// presence bits give back, made `chunk_rows` at a time as they are
    /// pulled — what a hybrid join re-partitions when it stops holding its
    /// build side whole.
    pub fn into_chunks(self, chunk_rows: usize) -> BuildChunks {
        match self.keys {
            Growing::Present(set) if self.keys_only => BuildChunks(Source::Keys {
                set,
                schema: self.build_schema,
                build_key: self.build_key,
                chunk_rows,
                cell: 0,
            }),
            _ => BuildChunks(Source::Kept(self.segments.chunks.into_iter())),
        }
    }

    /// Seal the build for probing.
    pub fn finish(self) -> JoinBuild {
        let keys = match self.keys {
            Growing::Present(set) => BuildKeys::Present(set),
            Growing::Groups {
                index,
                exact,
                gid_of,
            } => {
                let row_lists = gid_of.map(|gid_of| csr_from_gids(&gid_of, index.len()));
                let extras = self.extras.map(|extras| {
                    let columns = extras.into_iter().map(ColumnAppender::finish).collect();
                    ColumnarBatch::from_parts(self.extra_schema, columns, self.segments.rows)
                });
                BuildKeys::Groups(Box::new(Groups {
                    segments: self.segments,
                    build_key: self.build_key,
                    exact,
                    index,
                    row_lists,
                    extras,
                }))
            }
        };
        JoinBuild {
            probe_key: self.probe_key,
            keys,
            out_schema: self.out_schema,
        }
    }
}

/// The rows of a build given up by [`JoinBuilder::into_chunks`]: the chunks
/// it kept, or the rows its presence bits give back, made as they are
/// pulled.
#[derive(Debug)]
pub struct BuildChunks(Source);

#[derive(Debug)]
enum Source {
    /// Chunks the build kept, in arrival order.
    Kept(std::vec::IntoIter<ColumnarBatch>),
    /// Presence bits, their rows made `chunk_rows` at a time in key order
    /// from cell `cell` on.
    Keys {
        set: KeySet,
        schema: Schema,
        build_key: Vec<usize>,
        chunk_rows: usize,
        cell: usize,
    },
}

impl BuildChunks {
    /// The chunks still to come that the build kept, and so are already
    /// held in memory; none for rows made anew.
    pub fn kept(&self) -> &[ColumnarBatch] {
        match &self.0 {
            Source::Kept(chunks) => chunks.as_slice(),
            Source::Keys { .. } => &[],
        }
    }
}

impl Iterator for BuildChunks {
    type Item = ColumnarBatch;

    fn next(&mut self) -> Option<ColumnarBatch> {
        match &mut self.0 {
            Source::Kept(chunks) => chunks.next(),
            Source::Keys {
                set,
                schema,
                build_key,
                chunk_rows,
                cell,
            } => key_batch(set, schema, build_key, cell, *chunk_rows),
        }
    }
}

/// The next up to `chunk_rows` keys `set` holds from cell `*cell` on, as
/// rows over `schema` — whose columns are all key columns, `build_key[i]`
/// the place of key column `i` — or `None` past the last key. The codes
/// are exact, so each decodes to one int, or to two packed `i32` halves.
fn key_batch(
    set: &KeySet,
    schema: &Schema,
    build_key: &[usize],
    cell: &mut usize,
    chunk_rows: usize,
) -> Option<ColumnarBatch> {
    let codes = set.next_codes(cell, chunk_rows.max(1));
    if codes.is_empty() {
        return None;
    }
    let columns: Vec<Vec<i64>> = match build_key.len() {
        1 => vec![codes.iter().map(|&code| code as i64).collect()],
        2 => vec![
            codes
                .iter()
                .map(|&code| i64::from((code >> 32) as u32 as i32))
                .collect(),
            codes
                .iter()
                .map(|&code| i64::from(code as u32 as i32))
                .collect(),
        ],
        _ => unreachable!("presence bits key one or two columns"),
    };
    let mut placed: Vec<Option<Column>> = vec![None; build_key.len()];
    for (values, &at) in columns.into_iter().zip(build_key) {
        placed[at] = Some(Column::Int {
            values,
            validity: None,
        });
    }
    let placed = placed
        .into_iter()
        .map(|c| c.expect("every column is a key"));
    Some(ColumnarBatch::from_parts(
        schema.clone(),
        placed.collect(),
        codes.len(),
    ))
}

impl Growing {
    /// An empty group index, tracking every row's group for a natural
    /// build.
    fn groups(key_arity: usize, natural: bool) -> Growing {
        Growing::Groups {
            index: GroupIndex::growing(key_arity),
            exact: true,
            gid_of: natural.then(Vec::new),
        }
    }
}

/// A hash-join build side prepared for probing chunk-at-a-time — the one
/// join kernel `div_physical::stream`'s hash join runs. A [`JoinBuilder`]
/// indexes the build chunks once, in the form its probes need, and every
/// probe chunk then streams through [`JoinBuild::probe_natural`] /
/// [`JoinBuild::probe_semi`]; the one-shot [`hash_natural_join`] is a
/// one-chunk build fed one probe.
///
/// A natural build keeps its chunks, a dense or hashed [`GroupIndex`] of
/// their keys, the CSR row lists a natural probe gathers from and the
/// build-side-only columns. A semi build, for semi and anti probes only,
/// keeps one bit per key when the keys are exact and the memory rule admits
/// their range at one bit a cell, and nothing else; a probe row is present
/// when its own key codes exactly and its bit is set (a NULL, string,
/// folded or out-of-`i32` key equals no key of an all-int build).
///
/// The key is every attribute the two schemas share, in the probe schema's
/// order, and inexact code matches are verified against the build chunks
/// ([`keys_equal`](crate::key_vector::keys_equal)). For union-compatible
/// schemas the shared attributes are all of them, so
/// [`JoinBuild::probe_semi`] keys whole rows: it is set intersection, and
/// with `anti` set difference, whatever the build side's column order.
///
/// ```
/// use div_algebra::relation;
/// use div_columnar::{kernels::JoinBuild, ColumnarBatch};
///
/// let probe_side = ColumnarBatch::from_relation(&relation! {
///     ["s#", "p#"] => [1, 1], [2, 1], [2, 2]
/// });
/// let build_side = ColumnarBatch::from_relation(&relation! {
///     ["p#", "color"] => [1, "blue"], [2, "red"]
/// });
/// let build = JoinBuild::new(probe_side.schema(), build_side)?;
/// let mut joined = 0;
/// for chunk_rows in [&[0usize, 1][..], &[2][..]] {
///     let chunk = probe_side.gather(chunk_rows);
///     joined += build.probe_natural(&chunk)?.batch.num_rows();
/// }
/// assert_eq!(joined, 3);
/// # Ok::<(), div_algebra::AlgebraError>(())
/// ```
#[derive(Debug)]
pub struct JoinBuild {
    probe_key: Vec<usize>,
    keys: BuildKeys,
    out_schema: Schema,
}

/// What a [`JoinBuild`] keeps of its build side.
#[derive(Debug)]
enum BuildKeys {
    /// The build chunks with their keys indexed by group.
    Groups(Box<Groups>),
    /// The keys of an exact semi build, one bit each.
    Present(KeySet),
}

/// Build chunks with their keys indexed by group.
#[derive(Debug)]
struct Groups {
    segments: Segments,
    build_key: Vec<usize>,
    /// Whether every build key codes exactly, so that a probe row whose own
    /// key codes exactly needs no column compare.
    exact: bool,
    index: GroupIndex,
    /// The CSR row lists `(offsets, rows)` of every key group; `None` in a
    /// semi build.
    row_lists: Option<(Vec<u32>, Vec<u32>)>,
    /// The build-side-only columns of every row; `None` in a semi build.
    extras: Option<ColumnarBatch>,
}

impl Groups {
    /// The group of probe row `row` of `chunk`, whose key columns are
    /// `probe_key` and codes `keys`.
    #[inline]
    fn group_of(
        &self,
        chunk: &ColumnarBatch,
        probe_key: &[usize],
        keys: &KeyVector,
        row: usize,
    ) -> Option<u32> {
        let verify = !(self.exact && keys.exact());
        self.index.get(keys.code(row), |candidate| {
            if !verify {
                return true;
            }
            let (build, at) = self.segments.locate(candidate);
            keys_equal(chunk, probe_key, row, build, &self.build_key, at)
        })
    }
}

impl JoinBuild {
    /// Hash `build` on the attributes it shares with `probe_schema` (the
    /// schema every later probe chunk must carry), for any probe: a
    /// [`JoinBuilder`] fed the one chunk.
    pub fn new(probe_schema: &Schema, build: ColumnarBatch) -> Result<JoinBuild> {
        JoinBuild::with_rule(probe_schema, build, true, FormRule::Memory)
    }

    /// [`JoinBuild::new`] for semi and anti probes only: a presence bit set
    /// when the keys allow it (see the type docs).
    pub fn semi(probe_schema: &Schema, build: ColumnarBatch) -> Result<JoinBuild> {
        JoinBuild::with_rule(probe_schema, build, false, FormRule::Memory)
    }

    /// A one-chunk build for natural probes too (`natural`) or only semi
    /// and anti ones, its form chosen by `rule`.
    pub(crate) fn with_rule(
        probe_schema: &Schema,
        build: ColumnarBatch,
        natural: bool,
        rule: FormRule,
    ) -> Result<JoinBuild> {
        let mut builder = JoinBuilder::with_rule(probe_schema, build.schema(), natural, rule)?;
        builder.push(build);
        Ok(builder.finish())
    }

    /// The natural-join output schema (probe attributes, then
    /// build-side-only attributes).
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Bytes the build holds on the heap beside its build rows: the index
    /// and the CSR row lists, or the presence bits alone.
    pub fn heap_bytes(&self) -> usize {
        let u32s = |v: &Vec<u32>| v.capacity() * size_of::<u32>();
        match &self.keys {
            BuildKeys::Groups(groups) => {
                let row_lists = groups
                    .row_lists
                    .as_ref()
                    .map_or(0, |(offsets, rows)| u32s(offsets) + u32s(rows));
                groups.index.heap_bytes() + row_lists
            }
            BuildKeys::Present(set) => set.heap_bytes(),
        }
    }

    /// Natural-join one probe chunk against the prepared build side,
    /// gathering the chunk's columns plus the build-side-only columns.
    ///
    /// # Panics
    ///
    /// On a build made for semi and anti probes only.
    pub fn probe_natural(&self, chunk: &ColumnarBatch) -> Result<KernelOutput> {
        let natural = match &self.keys {
            BuildKeys::Groups(groups) => groups.row_lists.as_ref().map(|lists| (groups, lists)),
            BuildKeys::Present(_) => None,
        };
        let (groups, (offsets, rows_csr)) =
            natural.expect("a semi build answers semi and anti probes only");
        let chunk_keys = KeyVector::build(chunk, &self.probe_key);
        let mut probe_indices: Vec<usize> = Vec::new();
        let mut build_indices: Vec<usize> = Vec::new();
        for i in 0..chunk.num_rows() {
            if let Some(gid) = groups.group_of(chunk, &self.probe_key, &chunk_keys, i) {
                let (start, end) = (offsets[gid as usize], offsets[gid as usize + 1]);
                for &j in &rows_csr[start as usize..end as usize] {
                    probe_indices.push(i);
                    build_indices.push(j as usize);
                }
            }
        }
        let mut columns: Vec<_> = chunk
            .columns()
            .iter()
            .map(|c| c.gather(&probe_indices))
            .collect();
        let extras = groups.extras.as_ref().expect("a natural build keeps them");
        columns.extend(extras.columns().iter().map(|c| c.gather(&build_indices)));
        let rows = probe_indices.len();
        Ok(KernelOutput {
            batch: ColumnarBatch::from_parts(self.out_schema.clone(), columns, rows),
            probes: chunk.num_rows(),
        })
    }

    /// Semi-join (`anti = false`) or anti-semi-join (`anti = true`) one
    /// probe chunk against the prepared build side: keep the chunk rows
    /// whose key does (does not) appear in it, one probe per row. A chunk
    /// that keeps every row is passed on as it is.
    pub fn probe_semi(&self, chunk: ColumnarBatch, anti: bool) -> Result<KernelOutput> {
        fn keep(rows: usize, anti: bool, present: impl Fn(usize) -> bool) -> Vec<bool> {
            (0..rows).map(|i| present(i) != anti).collect()
        }
        let rows = chunk.num_rows();
        let chunk_keys = KeyVector::build(&chunk, &self.probe_key);
        let mask = match &self.keys {
            BuildKeys::Present(set) => {
                let exact = chunk_keys.exact();
                keep(rows, anti, |i| {
                    set.contains(chunk_keys.code(i))
                        && (exact || exact_row(&chunk, &self.probe_key, i))
                })
            }
            BuildKeys::Groups(groups) => keep(rows, anti, |i| {
                groups
                    .group_of(&chunk, &self.probe_key, &chunk_keys, i)
                    .is_some()
            }),
        };
        let batch = if mask.iter().all(|&keep| keep) {
            chunk
        } else {
            chunk.select_by_mask(&mask)
        };
        Ok(KernelOutput {
            batch,
            probes: rows,
        })
    }
}

/// Hash-based natural join on all common attributes: build on the right,
/// probe with the left. Mirrors [`div_algebra::Relation::natural_join`]
/// (including the output schema: left attributes, then right-only
/// attributes).
pub fn hash_natural_join(left: &ColumnarBatch, right: &ColumnarBatch) -> Result<KernelOutput> {
    JoinBuild::new(left.schema(), right.clone())?.probe_natural(left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_table::index_rows_forced;
    use div_algebra::{relation, Value};
    use proptest::prelude::*;

    fn inputs() -> (ColumnarBatch, ColumnarBatch) {
        (
            ColumnarBatch::from_relation(&relation! {
                ["s#", "p#"] => [1, 1], [1, 2], [2, 1], [2, 3], [3, 2]
            }),
            ColumnarBatch::from_relation(&relation! {
                ["p#", "color"] => [1, "blue"], [2, "blue"], [3, "red"]
            }),
        )
    }

    #[test]
    fn natural_join_matches_reference() {
        let (supplies, parts) = inputs();
        let expected = supplies
            .to_relation()
            .unwrap()
            .natural_join(&parts.to_relation().unwrap())
            .unwrap();
        let out = hash_natural_join(&supplies, &parts).unwrap();
        assert_eq!(out.batch.to_relation().unwrap(), expected);
        assert_eq!(out.probes, supplies.num_rows());
    }

    #[test]
    fn semi_joins_partition_the_left_input() {
        let (supplies, parts) = inputs();
        let l = supplies.to_relation().unwrap();
        let r = parts.to_relation().unwrap();
        for build in [JoinBuild::new, JoinBuild::semi] {
            let build = build(supplies.schema(), parts.clone()).unwrap();
            let semi = build.probe_semi(supplies.clone(), false).unwrap();
            let anti = build.probe_semi(supplies.clone(), true).unwrap();
            assert_eq!(
                semi.batch.num_rows() + anti.batch.num_rows(),
                supplies.num_rows()
            );
            assert_eq!(semi.probes, supplies.num_rows());
            assert_eq!(semi.batch.to_relation().unwrap(), l.semi_join(&r).unwrap());
            assert_eq!(
                anti.batch.to_relation().unwrap(),
                l.anti_semi_join(&r).unwrap()
            );
        }
    }

    /// Union-compatible operands: the left operand, and the right one with
    /// its columns swapped, so the whole-row key is conformed to the
    /// probe's attribute order.
    fn set_inputs() -> (ColumnarBatch, ColumnarBatch) {
        (
            ColumnarBatch::from_relation(&relation! {
                ["a", "b"] => [1, 10], [2, 20], [3, 30]
            }),
            ColumnarBatch::from_relation(&relation! {
                ["b", "a"] => [10, 1], [40, 4]
            }),
        )
    }

    #[test]
    fn intersection_is_a_whole_row_semi_join() {
        let (l, r) = set_inputs();
        let expected = l
            .to_relation()
            .unwrap()
            .intersect(&r.to_relation().unwrap())
            .unwrap();
        let got = JoinBuild::semi(l.schema(), r).unwrap();
        let got = got.probe_semi(l.clone(), false).unwrap().batch;
        assert_eq!(got.schema(), l.schema());
        assert_eq!(got.to_relation().unwrap(), expected);
    }

    #[test]
    fn difference_is_a_whole_row_anti_join() {
        let (l, r) = set_inputs();
        let expected = l
            .to_relation()
            .unwrap()
            .difference(&r.to_relation().unwrap())
            .unwrap();
        let got = JoinBuild::semi(l.schema(), r).unwrap();
        let got = got.probe_semi(l.clone(), true).unwrap().batch;
        assert_eq!(got.to_relation().unwrap(), expected);
    }

    #[test]
    fn string_keyed_join_works_through_dictionaries() {
        let l = ColumnarBatch::from_relation(&relation! {
            ["name", "v"] => ["x", 1], ["y", 2]
        });
        let r = ColumnarBatch::from_relation(&relation! {
            ["name", "w"] => ["x", 10], ["z", 30]
        });
        let out = hash_natural_join(&l, &r).unwrap();
        let expected = l
            .to_relation()
            .unwrap()
            .natural_join(&r.to_relation().unwrap())
            .unwrap();
        assert_eq!(out.batch.to_relation().unwrap(), expected);
    }

    #[test]
    fn join_build_probed_in_chunks_matches_the_one_shot_kernels() {
        let (supplies, parts) = inputs();
        let build = JoinBuild::new(supplies.schema(), parts.clone()).unwrap();
        let whole = hash_natural_join(&supplies, &parts).unwrap();
        assert_eq!(build.out_schema(), whole.batch.schema());
        // Probe in three uneven chunks; concatenated output must equal the
        // one-shot kernel's, probes must sum identically.
        let chunks = [&[0usize][..], &[1, 2][..], &[3, 4][..]];
        let mut rows = Vec::new();
        let mut probes = 0;
        for indices in chunks {
            let out = build.probe_natural(&supplies.gather(indices)).unwrap();
            probes += out.probes;
            for i in 0..out.batch.num_rows() {
                rows.push(out.batch.row(i));
            }
        }
        assert_eq!(probes, whole.probes);
        let streamed = div_algebra::Relation::new(whole.batch.schema().clone(), rows).unwrap();
        assert_eq!(streamed, whole.batch.to_relation().unwrap());
        // Semi/anti chunked probes agree with the reference operators.
        let (l, r) = (
            supplies.to_relation().unwrap(),
            parts.to_relation().unwrap(),
        );
        for anti in [false, true] {
            let expected = if anti {
                l.anti_semi_join(&r)
            } else {
                l.semi_join(&r)
            };
            let mut streamed_rows = 0;
            for indices in chunks {
                streamed_rows += build
                    .probe_semi(supplies.gather(indices), anti)
                    .unwrap()
                    .batch
                    .num_rows();
            }
            assert_eq!(streamed_rows, expected.unwrap().len(), "anti = {anti}");
        }
    }

    #[test]
    fn duplicate_build_keys_emit_matches_in_ascending_row_order() {
        // Several right rows share p# = 1; the CSR build must emit them in
        // ascending right-row order for each probing left row.
        let left = ColumnarBatch::from_relation(&relation! { ["p#"] => [1] });
        let right = ColumnarBatch::from_relation(&relation! {
            ["p#", "v"] => [1, 10], [1, 20], [1, 30]
        });
        let out = hash_natural_join(&left, &right).unwrap();
        let vs: Vec<_> = (0..out.batch.num_rows())
            .map(|i| out.batch.value_at(i, 1))
            .collect();
        assert_eq!(
            vs,
            vec![
                div_algebra::Value::Int(10),
                div_algebra::Value::Int(20),
                div_algebra::Value::Int(30)
            ]
        );
    }

    /// The benchmark's tables, `(supplies, parts)`: the suppliers-parts
    /// tables at 6000 × 50 over four colours (seed 9001).
    fn benchmark_tables() -> (ColumnarBatch, ColumnarBatch) {
        use div_datagen::suppliers_parts::{generate, SuppliersPartsConfig};
        let data = generate(&SuppliersPartsConfig {
            suppliers: 6000,
            parts: 50,
            colors: 4,
            coverage: 0.5,
            full_suppliers: 0.05,
            seed: 9001,
        });
        (
            ColumnarBatch::from_relation(&data.supplies),
            ColumnarBatch::from_relation(&data.parts),
        )
    }

    /// The group index a build keeps, or `None` for a presence set.
    fn index_of(build: &JoinBuild) -> Option<&GroupIndex> {
        match &build.keys {
            BuildKeys::Groups(groups) => Some(&groups.index),
            BuildKeys::Present(_) => None,
        }
    }

    /// The benchmark's join shape, `supplies ⋈ supplies`: the `(s#, p#)`
    /// build keys are exact over 6000 × 50 cells, so a natural build's
    /// index is dense in `u32` cells, and it takes fewer bytes than the
    /// hashed form of the same rows. An every-17th-row slice — the size of
    /// one spilled join leaf — spreads fewer rows over the same cells and
    /// stays hashed.
    #[test]
    fn the_benchmark_join_builds_a_dense_index_in_less_memory() {
        let (batch, _) = benchmark_tables();
        let build = JoinBuild::new(batch.schema(), batch.clone()).unwrap();
        let BuildKeys::Groups(groups) = &build.keys else {
            panic!("a natural build keeps its group index");
        };
        let Groups {
            build_key,
            exact,
            index,
            ..
        } = &**groups;
        assert!(exact);
        assert_eq!(
            index.cell_bits(),
            Some(u32::BITS),
            "{} rows",
            batch.num_rows()
        );
        let build_keys = KeyVector::build(&batch, build_key);
        let (hashed, _) =
            index_rows_forced(&batch, build_key, &build_keys, FormRule::Hashed).unwrap();
        assert!(
            index.heap_bytes() < hashed.heap_bytes(),
            "dense {} B, hashed {} B",
            index.heap_bytes(),
            hashed.heap_bytes()
        );
        let hashed_build =
            JoinBuild::with_rule(batch.schema(), batch.clone(), true, FormRule::Hashed).unwrap();
        assert!(build.heap_bytes() < hashed_build.heap_bytes());

        let leaf: Vec<usize> = (0..batch.num_rows()).step_by(17).collect();
        let build = JoinBuild::new(batch.schema(), batch.gather(&leaf)).unwrap();
        assert!(!index_of(&build).unwrap().is_dense(), "{} rows", leaf.len());
    }

    /// The narrow forms the benchmark's shapes take. The small divide's
    /// divisor, the 13 blue parts (`p#` 0, 4, …, 48: 49 cells), is indexed
    /// in byte cells. `supplies` built on `(s#, p#)` for a semi probe keeps
    /// one bit per cell of its 300,000-cell range, and so do one level-0
    /// hash partition of it and an every-17th-row slice (what a spilled
    /// semi join loads per leaf) — each in fewer bytes than its hashed
    /// build, and answering like it.
    #[test]
    fn the_benchmark_shapes_take_narrow_forms() {
        use crate::kernels::filter;
        use div_algebra::Predicate;
        let (supplies, parts) = benchmark_tables();
        let blue = filter(&parts, &Predicate::eq_value("color", "blue")).unwrap();
        let blue = blue.with_columns(Schema::of(["p#"]), &[0]);
        let keys = KeyVector::build(&blue, &[0]);
        let index = crate::hash_table::index_rows(&blue, &[0], &keys);
        assert_eq!((index.len(), index.cell_bits()), (13, Some(u8::BITS)));
        assert_eq!(index.heap_bytes(), 49 + 13 * size_of::<u32>());

        let level0 = crate::partition::partition_rows(&supplies, &[0, 1], 32, 0);
        let leaf: Vec<usize> = (0..supplies.num_rows()).step_by(17).collect();
        let probe = supplies.slice(0..4096);
        for build_side in [
            supplies.clone(),
            supplies.gather(level0.rows(0)),
            supplies.gather(&leaf),
        ] {
            let rows = build_side.num_rows();
            let build = JoinBuild::semi(supplies.schema(), build_side.clone()).unwrap();
            assert!(index_of(&build).is_none(), "{rows} rows");
            assert!(
                build.heap_bytes() <= 300_000usize.div_ceil(64) * 8,
                "{rows} rows"
            );
            let hashed =
                JoinBuild::with_rule(supplies.schema(), build_side, false, FormRule::Hashed)
                    .unwrap();
            assert!(build.heap_bytes() < hashed.heap_bytes(), "{rows} rows");
            for anti in [false, true] {
                assert_eq!(
                    build
                        .probe_semi(probe.clone(), anti)
                        .unwrap()
                        .batch
                        .to_relation(),
                    hashed
                        .probe_semi(probe.clone(), anti)
                        .unwrap()
                        .batch
                        .to_relation(),
                );
            }
        }
    }

    /// A drawn key: a compact int (picks `0..=8`), or one an all-int build
    /// never holds — an int outside `i32`, NULL, a string.
    fn drawn(pick: u32) -> Value {
        match pick {
            0..=8 => Value::Int(i64::from(pick) * 3),
            9 => Value::Int(1 << 40),
            10 => Value::Null,
            _ => Value::str("x"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// A semi build and a natural build as the rule picks them, against
        /// their hashed forms: the chosen build holds no more heap bytes,
        /// and ⋈, ⋉ and ▷ answer alike. Compact int builds take the
        /// presence form, hostile ones (NULLs, strings, pairs outside
        /// `i32`) the group index.
        #[test]
        fn chosen_builds_never_hold_more_than_the_hashed(
            build in prop::collection::vec((0u32..12, 0u32..12), 0..40),
            probe in prop::collection::vec((0u32..12, 0u32..12), 0..40),
            key_arity in 1usize..3,
            hostile_build in 0u32..2,
        ) {
            let clamp = |pick: u32| if hostile_build == 1 { pick } else { pick % 9 };
            // One key column and a column of each side's own, or a
            // whole-row key of two columns (∩ and −).
            let batch = |rows: &[(u32, u32)], pick: &dyn Fn(u32) -> u32, own: &str| {
                let names = if key_arity == 1 { ["k1", own] } else { ["k1", "k2"] };
                let rows = rows.iter().map(|&(a, b)| {
                    let second = if key_arity == 1 { Value::Int(i64::from(b)) } else { drawn(pick(b)) };
                    div_algebra::Tuple::new([drawn(pick(a)), second])
                });
                ColumnarBatch::from_relation(&div_algebra::Relation::new(Schema::of(names), rows).unwrap())
            };
            let (build, probe) = (batch(&build, &clamp, "rv"), batch(&probe, &|p| p, "lv"));
            let (l, r) = (probe.to_relation().unwrap(), build.to_relation().unwrap());
            for natural in [false, true] {
                let [chosen, hashed] = [FormRule::Memory, FormRule::Hashed].map(|rule| {
                    JoinBuild::with_rule(probe.schema(), build.clone(), natural, rule).unwrap()
                });
                prop_assert!(
                    chosen.heap_bytes() <= hashed.heap_bytes(),
                    "natural {}: chosen {} B, hashed {} B",
                    natural,
                    chosen.heap_bytes(),
                    hashed.heap_bytes()
                );
                for build in [&chosen, &hashed] {
                    prop_assert_eq!(
                        build.probe_semi(probe.clone(), false).unwrap().batch.to_relation().unwrap(),
                        l.semi_join(&r).unwrap()
                    );
                    prop_assert_eq!(
                        build.probe_semi(probe.clone(), true).unwrap().batch.to_relation().unwrap(),
                        l.anti_semi_join(&r).unwrap()
                    );
                    if natural {
                        prop_assert_eq!(
                            build.probe_natural(&probe).unwrap().batch.to_relation().unwrap(),
                            l.natural_join(&r).unwrap()
                        );
                    }
                }
            }
        }

        /// A build fed in chunks — cut anywhere, its keys ascending,
        /// descending or shuffled, so the learnt range widens on either
        /// side, and hostile rows arriving after compact ones, so a presence
        /// build moves to the group index midway — answers ⋈, ⋉ and ▷ as the
        /// reference operators do, and given up it gives back exactly its
        /// rows, whether it kept its chunks or holds bits alone.
        #[test]
        fn chunked_builds_answer_like_the_reference(
            build in prop::collection::vec((0u32..12, 0u32..12), 0..48),
            probe in prop::collection::vec((0u32..12, 0u32..12), 0..24),
            cuts in prop::collection::vec(0usize..48, 0..6),
            order in 0u32..3,
            key_arity in 1usize..3,
            hostile_tail in 0u32..2,
        ) {
            let mut build = build;
            match order {
                0 => build.sort_unstable(),
                1 => build.sort_unstable_by(|a, b| b.cmp(a)),
                _ => {}
            }
            // Compact keys first; with `hostile_tail` the later rows may
            // hold any drawn key.
            let tail = build.len() / 2;
            let pick = |row: usize, pick: u32| {
                if hostile_tail == 1 && row >= tail { pick } else { pick % 9 }
            };
            // One key column beside a column of each side's own, or a
            // whole-row key of two columns: a build side that is its key
            // alone.
            let row = |at: usize, (a, b): (u32, u32), pick: &dyn Fn(usize, u32) -> u32| {
                let second = if key_arity == 1 { Value::Int(i64::from(b)) } else { drawn(pick(at, b)) };
                vec![drawn(pick(at, a)), second]
            };
            // The rows in the order drawn, each once.
            let batch = |own: &str, rows: Vec<Vec<Value>>| {
                let mut seen = std::collections::BTreeSet::new();
                let rows: Vec<Vec<Value>> = rows.into_iter().filter(|r| seen.insert(r.clone())).collect();
                let columns = (0..2).map(|c| Column::from_values(rows.iter().map(|r| &r[c]))).collect();
                let names = if key_arity == 1 { ["k1", own] } else { ["k1", "k2"] };
                ColumnarBatch::from_parts(Schema::of(names), columns, rows.len())
            };
            let build = batch("rv", build.iter().enumerate().map(|(at, &p)| row(at, p, &pick)).collect());
            let probe = batch("lv", probe.iter().enumerate().map(|(at, &p)| row(at, p, &|_, p| p)).collect());
            let (l, r) = (probe.to_relation().unwrap(), build.to_relation().unwrap());
            let rows = build.num_rows();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(rows)).chain([0, rows]).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let chunks: Vec<ColumnarBatch> = cuts.windows(2).map(|w| build.slice(w[0]..w[1])).collect();
            for natural in [false, true] {
                let fed = || {
                    let mut builder = JoinBuilder::new(probe.schema(), build.schema(), natural).unwrap();
                    for chunk in &chunks {
                        builder.push(chunk.clone());
                    }
                    builder
                };
                let mut given = div_algebra::Relation::empty(build.schema().clone());
                for chunk in fed().into_chunks(4) {
                    given = given.union(&chunk.to_relation().unwrap()).unwrap();
                }
                prop_assert_eq!(&given, &r);
                let sealed = fed().finish();
                prop_assert_eq!(
                    sealed.probe_semi(probe.clone(), false).unwrap().batch.to_relation().unwrap(),
                    l.semi_join(&r).unwrap()
                );
                prop_assert_eq!(
                    sealed.probe_semi(probe.clone(), true).unwrap().batch.to_relation().unwrap(),
                    l.anti_semi_join(&r).unwrap()
                );
                if natural {
                    prop_assert_eq!(
                        sealed.probe_natural(&probe).unwrap().batch.to_relation().unwrap(),
                        l.natural_join(&r).unwrap()
                    );
                }
            }
        }
    }
}
