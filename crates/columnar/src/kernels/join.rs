//! Batch-native hash joins on the vectorized key pipeline.
//!
//! Keys are normalized once per batch ([`KeyVector`]) and the build side
//! goes into a [`GroupIndex`] plus, for the natural join only, a CSR row
//! list — no per-row `Value` materialization, no SipHash. The index is a
//! direct-addressed array when the build keys are exact ints over a
//! compact range (the `(s#, p#)` keys of the paper's workloads) and an
//! open-addressing table otherwise; the probe loops are the same for both.

use crate::batch::ColumnarBatch;
use crate::hash_table::{index_rows_tracked, GroupIndex};
use crate::key_vector::{cross_matcher, KeyVector};
use crate::Result;
use div_algebra::Schema;
use std::sync::OnceLock;

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

/// A hash-join build side prepared once and probed chunk-at-a-time — the
/// one join kernel `div_physical::stream`'s hash join runs. The build batch
/// is indexed exactly once ([`index_rows_tracked`] picks the dense or the
/// hashed form of the [`GroupIndex`]), and CSR-indexed at most once, by the
/// first natural probe; every probe chunk then streams through
/// [`JoinBuild::probe_natural`] / [`JoinBuild::probe_semi`]; the one-shot
/// [`hash_natural_join`] is a build fed one probe.
///
/// The key is every attribute the two schemas share, in the probe schema's
/// order, and inexact code matches are verified against the build batch
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
    build: ColumnarBatch,
    probe_key: Vec<usize>,
    build_key: Vec<usize>,
    build_keys: KeyVector,
    index: GroupIndex,
    /// The key group of every build row, in row order.
    gid_of: Vec<u32>,
    /// The CSR row lists `(offsets, rows)` of every key group, laid out
    /// from `gid_of` on the first [`JoinBuild::probe_natural`]: a semi or
    /// anti probe needs only the index, so a build probed only that way
    /// never builds them.
    row_lists: OnceLock<(Vec<u32>, Vec<u32>)>,
    build_extra_idx: Vec<usize>,
    out_schema: Schema,
}

impl JoinBuild {
    /// Hash `build` on the attributes it shares with `probe_schema` (the
    /// schema every later probe chunk must carry).
    pub fn new(probe_schema: &Schema, build: ColumnarBatch) -> Result<JoinBuild> {
        let (probe_key, build_key) = join_key_columns(probe_schema, build.schema())?;
        let build_extra = extra_attributes(probe_schema, build.schema());
        let build_extra_idx = build.projection_indices(&build_extra)?;
        let out_schema = probe_schema.natural_union(build.schema());
        let build_keys = KeyVector::build(&build, &build_key);
        let (index, gid_of) = index_rows_tracked(&build, &build_key, &build_keys);
        Ok(JoinBuild {
            build,
            probe_key,
            build_key,
            build_keys,
            index,
            gid_of,
            row_lists: OnceLock::new(),
            build_extra_idx,
            out_schema,
        })
    }

    /// The natural-join output schema (probe attributes, then
    /// build-side-only attributes).
    pub fn out_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Number of rows in the retained build side.
    pub fn build_rows(&self) -> usize {
        self.build.num_rows()
    }

    /// Bytes the build holds on the heap beside its build batch: the key
    /// codes, the index, the rows' group ids and, once a natural probe has
    /// laid them out, the CSR row lists.
    pub fn heap_bytes(&self) -> usize {
        let u32s = |v: &Vec<u32>| v.capacity() * size_of::<u32>();
        let row_lists = self
            .row_lists
            .get()
            .map_or(0, |(offsets, rows)| u32s(offsets) + u32s(rows));
        size_of_val(self.build_keys.codes())
            + self.index.heap_bytes()
            + u32s(&self.gid_of)
            + row_lists
    }

    /// Natural-join one probe chunk against the prepared build side,
    /// gathering the chunk's columns plus the build-side-only columns.
    pub fn probe_natural(&self, chunk: &ColumnarBatch) -> Result<KernelOutput> {
        let chunk_keys = KeyVector::build(chunk, &self.probe_key);
        let (offsets, rows_csr) = self
            .row_lists
            .get_or_init(|| csr_from_gids(&self.gid_of, self.index.len()));
        let same_key = cross_matcher(
            chunk,
            &self.probe_key,
            &chunk_keys,
            &self.build,
            &self.build_key,
            &self.build_keys,
        );
        let mut probe_indices: Vec<usize> = Vec::new();
        let mut build_indices: Vec<usize> = Vec::new();
        for i in 0..chunk.num_rows() {
            let found = self
                .index
                .get(chunk_keys.code(i), |other| same_key(i, other));
            if let Some(gid) = found {
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
        columns.extend(
            self.build_extra_idx
                .iter()
                .map(|&c| self.build.column(c).gather(&build_indices)),
        );
        let rows = probe_indices.len();
        Ok(KernelOutput {
            batch: ColumnarBatch::from_parts(self.out_schema.clone(), columns, rows),
            probes: chunk.num_rows(),
        })
    }

    /// Semi-join (`anti = false`) or anti-semi-join (`anti = true`) one
    /// probe chunk against the prepared build side: keep the chunk rows
    /// whose key does (does not) appear in it, one probe per row.
    pub fn probe_semi(&self, chunk: &ColumnarBatch, anti: bool) -> Result<KernelOutput> {
        let chunk_keys = KeyVector::build(chunk, &self.probe_key);
        let same_key = cross_matcher(
            chunk,
            &self.probe_key,
            &chunk_keys,
            &self.build,
            &self.build_key,
            &self.build_keys,
        );
        let mask: Vec<bool> = (0..chunk.num_rows())
            .map(|i| {
                let matched = self
                    .index
                    .get(chunk_keys.code(i), |other| same_key(i, other))
                    .is_some();
                matched != anti
            })
            .collect();
        Ok(KernelOutput {
            batch: chunk.select_by_mask(&mask),
            probes: chunk.num_rows(),
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
    use div_algebra::relation;

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
        let build = JoinBuild::new(supplies.schema(), parts.clone()).unwrap();
        let semi = build.probe_semi(&supplies, false).unwrap();
        let anti = build.probe_semi(&supplies, true).unwrap();
        assert_eq!(
            semi.batch.num_rows() + anti.batch.num_rows(),
            supplies.num_rows()
        );
        assert_eq!(semi.probes, supplies.num_rows());
        let l = supplies.to_relation().unwrap();
        let r = parts.to_relation().unwrap();
        assert_eq!(semi.batch.to_relation().unwrap(), l.semi_join(&r).unwrap());
        assert_eq!(
            anti.batch.to_relation().unwrap(),
            l.anti_semi_join(&r).unwrap()
        );
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
        let got = JoinBuild::new(l.schema(), r).unwrap();
        let got = got.probe_semi(&l, false).unwrap().batch;
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
        let got = JoinBuild::new(l.schema(), r).unwrap();
        let got = got.probe_semi(&l, true).unwrap().batch;
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
        assert_eq!(build.build_rows(), parts.num_rows());
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
                    .probe_semi(&supplies.gather(indices), anti)
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

    /// The benchmark's join shape, `supplies ⋈ supplies` over the
    /// suppliers-parts tables at 6000 × 50 (seed 9001): the `(s#, p#)`
    /// build keys are exact over 6000 × 50 cells, so the index is dense,
    /// and it takes fewer bytes than the hashed form of the same rows. An
    /// every-17th-row slice — the size of one spilled join leaf — spreads
    /// fewer rows over the same cells and stays hashed.
    #[test]
    fn the_benchmark_join_builds_a_dense_index_in_less_memory() {
        use div_datagen::suppliers_parts::{generate, SuppliersPartsConfig};
        let supplies = generate(&SuppliersPartsConfig {
            suppliers: 6000,
            parts: 50,
            colors: 4,
            coverage: 0.5,
            full_suppliers: 0.05,
            seed: 9001,
        })
        .supplies;
        let batch = ColumnarBatch::from_relation(&supplies);
        let build = JoinBuild::new(batch.schema(), batch.clone()).unwrap();
        assert!(build.build_keys.exact());
        assert!(build.index.is_dense(), "{} rows", batch.num_rows());
        let (hashed, gid_of) =
            index_rows_forced(&batch, &build.build_key, &build.build_keys, false).unwrap();
        assert_eq!(gid_of, build.gid_of);
        assert!(
            build.index.heap_bytes() < hashed.heap_bytes(),
            "dense {} B, hashed {} B",
            build.index.heap_bytes(),
            hashed.heap_bytes()
        );
        let rest = build.heap_bytes() - build.index.heap_bytes();
        assert!(build.heap_bytes() < rest + hashed.heap_bytes());
        // The CSR row lists count once a natural probe lays them out.
        let before = build.heap_bytes();
        build.probe_natural(&batch.slice(0..1)).unwrap();
        assert!(build.heap_bytes() > before);

        let leaf: Vec<usize> = (0..batch.num_rows()).step_by(17).collect();
        let leaf = batch.gather(&leaf);
        let build = JoinBuild::new(batch.schema(), leaf).unwrap();
        assert!(build.build_keys.exact());
        assert!(!build.index.is_dense(), "{} rows", build.build_rows());
    }
}
