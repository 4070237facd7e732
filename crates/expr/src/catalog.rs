//! The catalog: a named collection of base relations plus the integrity
//! metadata some laws depend on.
//!
//! Laws 9, 11 and 12 have preconditions that cannot be read off the query
//! alone: Law 12 requires that "`r2.B` is a foreign key referencing `r1.B`",
//! Law 9's Example 3 uses the fact that "`r**1.b2` is a unique attribute and
//! `r2.b2` is a foreign key that references `r**1`". The catalog therefore
//! tracks declared unique keys and foreign keys alongside the table data so
//! the rewrite rules can check these preconditions the way a real optimizer
//! would (from schema metadata, not by scanning the data).

use crate::{ExprError, ExternalTable, Result, SchemaProvider};
use div_algebra::{Relation, Schema};
use div_columnar::TableSegments;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A declared foreign-key constraint: `from_table.from_attributes` references
/// `to_table.to_attributes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing table.
    pub from_table: String,
    /// Referencing attributes.
    pub from_attributes: Vec<String>,
    /// Referenced table.
    pub to_table: String,
    /// Referenced attributes.
    pub to_attributes: Vec<String>,
}

/// One catalog entry: either an in-memory relation or a handle to an
/// external (file-backed) table.
///
/// An in-memory entry has two representations of the same rows: the
/// [`Relation`] it was registered with (the interchange and
/// reference-evaluator type) and, from the first streaming scan on, its
/// columnar [`TableSegments`] — converted once per registered table, not
/// once per query. The cell is [`Arc`]'d, so catalog clones (the
/// copy-on-write step of a mutation) share the conversion, and a
/// re-`register` under the same name starts a fresh entry with a fresh
/// cell.
///
/// External entries carry a lazily-populated materialization cache so the
/// `&Relation`-returning lookups ([`Catalog::table`]) keep working: the
/// first such lookup loads the file, later ones (and catalog clones, which
/// share the [`Arc`]'d cell) reuse the loaded copy. Streaming executors
/// never touch the cache — they scan chunk-at-a-time through
/// [`Catalog::external`].
#[derive(Debug, Clone)]
enum TableEntry {
    Memory {
        relation: Arc<Relation>,
        segments: Arc<OnceLock<Arc<TableSegments>>>,
    },
    External {
        table: Arc<dyn ExternalTable>,
        cache: Arc<OnceLock<Arc<Relation>>>,
    },
}

impl TableEntry {
    /// The entry as a shared in-memory relation, materializing (and
    /// caching) an external table on first use.
    fn resolve(&self) -> Result<&Arc<Relation>> {
        match self {
            TableEntry::Memory { relation, .. } => Ok(relation),
            TableEntry::External { table, cache } => {
                if let Some(rel) = cache.get() {
                    return Ok(rel);
                }
                let loaded = Arc::new(table.materialize()?);
                // A concurrent materialization may have won the race; both
                // loaded the same file, so either copy is fine.
                Ok(cache.get_or_init(|| loaded))
            }
        }
    }

    /// The relation if it is resident in memory (always for `Memory`
    /// entries, only after materialization for external ones).
    fn resident(&self) -> Option<&Relation> {
        match self {
            TableEntry::Memory { relation, .. } => Some(relation),
            TableEntry::External { cache, .. } => cache.get().map(Arc::as_ref),
        }
    }

    fn schema(&self) -> &Schema {
        match self {
            TableEntry::Memory { relation, .. } => relation.schema(),
            TableEntry::External { table, .. } => table.schema(),
        }
    }
}

/// An in-memory database: named relations plus integrity metadata.
///
/// Tables are stored behind [`Arc`]s, so cloning a catalog (the
/// copy-on-write step of `div_sql::Engine::mutate_catalog`) copies only the
/// name map, and executors can hold shared handles to the tables they scan
/// ([`Catalog::table_segments`]) that outlive subsequent catalog mutations
/// — the foundation of snapshot isolation for concurrent serving.
///
/// A table may alternatively be *external* — backed by a file through the
/// [`ExternalTable`] trait and registered with
/// [`register_external`](Catalog::register_external) — in which case the
/// catalog holds only the handle and (after first use) a cached
/// materialization.
#[derive(Debug, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, TableEntry>,
    unique_keys: BTreeMap<String, Vec<Vec<String>>>,
    foreign_keys: Vec<ForeignKey>,
    version: u64,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            tables: BTreeMap::new(),
            unique_keys: BTreeMap::new(),
            foreign_keys: Vec::new(),
            version: next_version(),
        }
    }
}

/// Process-globally unique, monotonically increasing version stamps. Two
/// catalogs share a version only when one is a clone of the other with no
/// mutation since — in which case their contents are identical.
fn next_version() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// A version stamp that changes on every mutation of the catalog (table
    /// registration or replacement, constraint declarations).
    ///
    /// Compiled artifacts that embed assumptions about the catalog — most
    /// importantly prepared statements, which cache an optimized physical
    /// plan — record the version they were compiled against and compare it
    /// before reuse, so a mutated catalog invalidates stale plans instead of
    /// silently serving them. Stamps are process-globally unique (not a
    /// per-catalog counter), so two *different* catalogs never collide: a
    /// statement prepared against one engine cannot accidentally pass the
    /// staleness check of another.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Register (or replace) a table.
    pub fn register(&mut self, name: impl Into<String>, relation: Relation) -> &mut Self {
        self.tables.insert(
            name.into(),
            TableEntry::Memory {
                relation: Arc::new(relation),
                segments: Arc::new(OnceLock::new()),
            },
        );
        self.version = next_version();
        self
    }

    /// Register (or replace) a table backed by an external store (a
    /// `div-storage` file, typically). The catalog keeps only the handle;
    /// the data is read chunk-at-a-time by streaming scans
    /// ([`Catalog::external`]) and materialized into RAM at most once, on
    /// the first [`Catalog::table`]-style lookup.
    pub fn register_external(
        &mut self,
        name: impl Into<String>,
        table: Arc<dyn ExternalTable>,
    ) -> &mut Self {
        self.tables.insert(
            name.into(),
            TableEntry::External {
                table,
                cache: Arc::new(OnceLock::new()),
            },
        );
        self.version = next_version();
        self
    }

    /// The external-table handle behind `name`, if `name` is registered as
    /// an external table. In-memory tables and unknown names return `None`
    /// — callers fall back to [`Catalog::table_segments`].
    pub fn external(&self, name: &str) -> Option<Arc<dyn ExternalTable>> {
        match self.tables.get(name) {
            Some(TableEntry::External { table, .. }) => Some(Arc::clone(table)),
            _ => None,
        }
    }

    /// Remove a table (and every constraint that mentions it). Returns the
    /// removed relation (materializing an external table if it was never
    /// loaded), or an [`ExprError::UnknownTable`] error when no such table
    /// is registered. Bumps the catalog version.
    pub fn unregister(&mut self, name: &str) -> Result<Arc<Relation>> {
        let removed = self
            .tables
            .remove(name)
            .ok_or_else(|| ExprError::UnknownTable {
                table: name.to_string(),
            })?;
        self.unique_keys.remove(name);
        self.foreign_keys
            .retain(|fk| fk.from_table != name && fk.to_table != name);
        self.version = next_version();
        Ok(Arc::clone(removed.resolve()?))
    }

    /// Look up a table, materializing an external table on first use.
    pub fn table(&self, name: &str) -> Result<&Relation> {
        self.tables
            .get(name)
            .ok_or_else(|| ExprError::UnknownTable {
                table: name.to_string(),
            })
            .and_then(|entry| entry.resolve().map(Arc::as_ref))
    }

    /// The columnar segments of the in-memory table `name`: what a
    /// streaming scan reads. The first call converts the relation
    /// ([`TableSegments::from_relation`]; `register` itself converts
    /// nothing), every later call — on this catalog or any clone that still
    /// holds the same registration — returns the same [`Arc`]. The handle
    /// outlives catalog mutations, so an in-flight scan keeps reading the
    /// snapshot it was compiled against.
    ///
    /// External tables have no resident segments — they are scanned off
    /// their file through [`Catalog::external`] — so asking for them is an
    /// error, as is an unknown name.
    pub fn table_segments(&self, name: &str) -> Result<Arc<TableSegments>> {
        match self.tables.get(name) {
            None => Err(ExprError::UnknownTable {
                table: name.to_string(),
            }),
            Some(TableEntry::Memory { relation, segments }) => {
                Ok(Arc::clone(segments.get_or_init(|| {
                    Arc::new(TableSegments::from_relation(relation))
                })))
            }
            Some(TableEntry::External { .. }) => Err(ExprError::invalid(format!(
                "table {name} is external: scan it through its file, not resident segments"
            ))),
        }
    }

    /// `true` if a table with this name is registered.
    pub fn contains_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Iterate over `(name, relation)` pairs in name order.
    ///
    /// Only memory-resident data is yielded: external tables appear after
    /// their first materializing lookup and are silently skipped before it
    /// (this iterator cannot fail and must not do IO).
    pub fn tables(&self) -> impl Iterator<Item = (&str, &Relation)> + '_ {
        self.tables
            .iter()
            .filter_map(|(n, entry)| entry.resident().map(|r| (n.as_str(), r)))
    }

    /// Number of registered tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Declare a uniqueness constraint on `table(attributes)`.
    ///
    /// The constraint is validated against the current contents of the table
    /// (a real system would enforce it on writes).
    pub fn declare_unique(&mut self, table: &str, attributes: &[&str]) -> Result<()> {
        let rel = self.table(table)?;
        let projected = rel.project(attributes)?;
        if projected.len() != rel.len() {
            return Err(ExprError::invalid(format!(
                "cannot declare {table}({}) unique: {} tuples share key values",
                attributes.join(", "),
                rel.len() - projected.len()
            )));
        }
        self.unique_keys
            .entry(table.to_string())
            .or_default()
            .push(attributes.iter().map(|s| s.to_string()).collect());
        self.version = next_version();
        Ok(())
    }

    /// `true` if `attributes` is a declared unique key of `table`.
    pub fn is_unique(&self, table: &str, attributes: &[&str]) -> bool {
        self.unique_keys
            .get(table)
            .map(|keys| {
                keys.iter().any(|key| {
                    key.len() == attributes.len()
                        && key.iter().all(|k| attributes.contains(&k.as_str()))
                })
            })
            .unwrap_or(false)
    }

    /// Declare a foreign key and validate it against the current data.
    pub fn declare_foreign_key(
        &mut self,
        from_table: &str,
        from_attributes: &[&str],
        to_table: &str,
        to_attributes: &[&str],
    ) -> Result<()> {
        if from_attributes.len() != to_attributes.len() {
            return Err(ExprError::invalid(
                "foreign key attribute lists must have the same length",
            ));
        }
        let from = self.table(from_table)?.project(from_attributes)?;
        let to = self.table(to_table)?.project(to_attributes)?;
        // Conform attribute names so the subset test can run.
        let renamed = from.rename_with(|n| {
            let idx = from_attributes
                .iter()
                .position(|a| *a == n)
                .expect("projected attr");
            to_attributes[idx].to_string()
        })?;
        if !renamed.is_subset_of(&to)? {
            return Err(ExprError::invalid(format!(
                "foreign key violation: {from_table}({}) contains values not present in {to_table}({})",
                from_attributes.join(", "),
                to_attributes.join(", ")
            )));
        }
        self.foreign_keys.push(ForeignKey {
            from_table: from_table.to_string(),
            from_attributes: from_attributes.iter().map(|s| s.to_string()).collect(),
            to_table: to_table.to_string(),
            to_attributes: to_attributes.iter().map(|s| s.to_string()).collect(),
        });
        self.version = next_version();
        Ok(())
    }

    /// `true` if a foreign key `from_table(from_attributes) → to_table(to_attributes)`
    /// has been declared.
    pub fn has_foreign_key(
        &self,
        from_table: &str,
        from_attributes: &[&str],
        to_table: &str,
        to_attributes: &[&str],
    ) -> bool {
        self.foreign_keys.iter().any(|fk| {
            fk.from_table == from_table
                && fk.to_table == to_table
                && fk.from_attributes.len() == from_attributes.len()
                && fk.from_attributes.iter().zip(to_attributes.iter()).count()
                    == from_attributes.len()
                && fk
                    .from_attributes
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>()
                    == from_attributes
                && fk
                    .to_attributes
                    .iter()
                    .map(String::as_str)
                    .collect::<Vec<_>>()
                    == to_attributes
        })
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }
}

impl SchemaProvider for Catalog {
    fn table_schema(&self, name: &str) -> Option<Schema> {
        self.tables.get(name).map(|entry| entry.schema().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::relation;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "supplies",
            relation! { ["s#", "p#"] => [1, 1], [1, 2], [2, 1] },
        );
        c.register(
            "parts",
            relation! { ["p#", "color"] => [1, "blue"], [2, "red"] },
        );
        c
    }

    #[test]
    fn register_and_lookup() {
        let c = catalog();
        assert_eq!(c.table_count(), 2);
        assert!(c.contains_table("parts"));
        assert_eq!(c.table("supplies").unwrap().len(), 3);
        assert!(matches!(
            c.table("nope").unwrap_err(),
            ExprError::UnknownTable { .. }
        ));
    }

    #[test]
    fn schema_provider_reports_schemas() {
        let c = catalog();
        assert_eq!(
            c.table_schema("parts").unwrap().names(),
            vec!["p#", "color"]
        );
        assert!(c.table_schema("nope").is_none());
    }

    #[test]
    fn unique_declaration_is_validated() {
        let mut c = catalog();
        c.declare_unique("parts", &["p#"]).unwrap();
        assert!(c.is_unique("parts", &["p#"]));
        assert!(!c.is_unique("parts", &["color"]));
        // s# is not unique in supplies (supplier 1 appears twice).
        assert!(c.declare_unique("supplies", &["s#"]).is_err());
    }

    #[test]
    fn foreign_key_declaration_is_validated() {
        let mut c = catalog();
        c.declare_foreign_key("supplies", &["p#"], "parts", &["p#"])
            .unwrap();
        assert!(c.has_foreign_key("supplies", &["p#"], "parts", &["p#"]));
        assert!(!c.has_foreign_key("parts", &["p#"], "supplies", &["p#"]));
        // Violated foreign key: parts.color -> supplies.s# makes no sense.
        assert!(c
            .declare_foreign_key("parts", &["color"], "supplies", &["s#"])
            .is_err());
    }

    #[test]
    fn version_changes_on_every_mutation() {
        let mut c = Catalog::new();
        let v0 = c.version();
        c.register(
            "parts",
            relation! { ["p#", "color"] => [1, "blue"], [2, "red"] },
        );
        let v1 = c.version();
        assert_ne!(v0, v1);
        // Replacing an existing table is a mutation too.
        c.register("parts", relation! { ["p#", "color"] => [1, "blue"] });
        let v2 = c.version();
        assert_ne!(v1, v2);
        c.declare_unique("parts", &["p#"]).unwrap();
        let v3 = c.version();
        assert_ne!(v2, v3);
        // Failed declarations do not bump the version.
        assert!(c.declare_unique("missing", &["x"]).is_err());
        assert_eq!(c.version(), v3);
        // A clone starts at the same stamp (identical contents) and diverges
        // on its first mutation, leaving the original untouched.
        let mut clone = c.clone();
        assert_eq!(clone.version(), v3);
        clone.register("other", relation! { ["x"] => [1] });
        assert_ne!(clone.version(), v3);
        assert_eq!(c.version(), v3);
        // Two independently built catalogs never share a stamp, even with
        // identical mutation histories.
        let mut a = Catalog::new();
        let mut b = Catalog::new();
        a.register("t", relation! { ["x"] => [1] });
        b.register("t", relation! { ["x"] => [1] });
        assert_ne!(a.version(), b.version());
    }

    #[test]
    fn unregister_removes_table_and_its_constraints() {
        let mut c = catalog();
        c.declare_unique("parts", &["p#"]).unwrap();
        c.declare_foreign_key("supplies", &["p#"], "parts", &["p#"])
            .unwrap();
        let before = c.version();
        let removed = c.unregister("parts").unwrap();
        assert_eq!(removed.schema().names(), vec!["p#", "color"]);
        assert!(!c.contains_table("parts"));
        assert!(!c.is_unique("parts", &["p#"]));
        assert!(c.foreign_keys().is_empty());
        assert_ne!(c.version(), before);
        assert!(matches!(
            c.unregister("parts").unwrap_err(),
            ExprError::UnknownTable { .. }
        ));
    }

    #[test]
    fn segments_are_built_once_per_registration_and_shared_by_clones() {
        let mut c = catalog();
        let first = c.table_segments("parts").unwrap();
        assert_eq!(first.num_rows(), 2);
        assert!(Arc::ptr_eq(&first, &c.table_segments("parts").unwrap()));
        // A clone mutated elsewhere still shares the conversion...
        let mut clone = c.clone();
        clone.register("other", relation! { ["x"] => [1] });
        assert!(Arc::ptr_eq(&first, &clone.table_segments("parts").unwrap()));
        // ...a new registration under the same name does not, and the old
        // handle keeps the old rows.
        c.register("parts", relation! { ["p#", "color"] => [9, "green"] });
        let fresh = c.table_segments("parts").unwrap();
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert_eq!((first.num_rows(), fresh.num_rows()), (2, 1));
        assert!(matches!(
            c.table_segments("nope").unwrap_err(),
            ExprError::UnknownTable { .. }
        ));
    }

    #[test]
    fn tables_iterates_in_name_order() {
        let c = catalog();
        let names: Vec<&str> = c.tables().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["parts", "supplies"]);
    }
}
