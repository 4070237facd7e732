//! The catalog: a named collection of base relations plus the integrity
//! metadata some laws depend on.
//!
//! Laws 9, 11 and 12 have preconditions that cannot be read off the query
//! alone: Law 12 requires that "`r2.B` is a foreign key referencing `r1.B`",
//! and Law 9's Example 3 uses the fact that "`r2.b2` is a foreign key that
//! references `r**1`" (the example's other fact, that `r**1.b2` is unique,
//! holds by set semantics for the one-attribute `r**1(b2)`). The catalog
//! therefore tracks declared foreign keys alongside the table data so the
//! rewrite rules can check these preconditions the way a real optimizer
//! would (from schema metadata, not by scanning the data).

use crate::{ExprError, Result, SchemaProvider, TableSource};
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

/// One catalog entry: the same table as rows and as a scannable source.
///
/// Registration fills one of the two cells — [`Catalog::register`] the
/// rows, [`Catalog::register_external`] the source — and first use derives
/// the other: a streaming scan of registered rows converts them once into
/// resident [`TableSegments`], a [`Catalog::table`] lookup of an attached
/// file materializes it once. Both cells are [`Arc`]'d, so catalog clones
/// (the copy-on-write step of a mutation) share whatever was derived, and a
/// re-registration under the same name starts a fresh entry with fresh
/// cells.
#[derive(Debug, Clone)]
struct TableEntry {
    rows: Arc<OnceLock<Arc<Relation>>>,
    source: Arc<OnceLock<Arc<dyn TableSource>>>,
}

impl TableEntry {
    /// The rows, when registration did not fill the source.
    fn registered_rows(&self) -> &Arc<Relation> {
        self.rows.get().expect("registration fills rows or source")
    }

    /// The source, when registration did not fill the rows.
    fn registered_source(&self) -> &Arc<dyn TableSource> {
        self.source
            .get()
            .expect("registration fills rows or source")
    }

    /// The entry as a relation, materializing (and caching) an attached
    /// table on first use.
    fn rows(&self) -> Result<&Arc<Relation>> {
        if let Some(rows) = self.rows.get() {
            return Ok(rows);
        }
        let loaded = Arc::new(self.registered_source().materialize()?);
        // A concurrent materialization may have won the race; both read
        // the same source, so either copy is fine.
        Ok(self.rows.get_or_init(|| loaded))
    }

    /// The entry as a scannable source, converting (and caching) registered
    /// rows on first use.
    fn source(&self) -> &Arc<dyn TableSource> {
        self.source
            .get_or_init(|| Arc::new(TableSegments::from_relation(self.registered_rows())))
    }

    fn schema(&self) -> &Schema {
        match self.rows.get() {
            Some(rows) => rows.schema(),
            None => self.registered_source().schema(),
        }
    }

    /// From the source's metadata once there is a source (so the answer for
    /// an attached file stays its footer's, materialized or not), else from
    /// the registered rows.
    fn row_count(&self) -> usize {
        match self.source.get() {
            Some(source) => source.row_count(),
            None => self.registered_rows().len(),
        }
    }
}

/// An in-memory database: named relations plus integrity metadata.
///
/// Tables are stored behind [`Arc`]s, so cloning a catalog (the
/// copy-on-write step of `div_sql::Engine::mutate_catalog`) copies only the
/// name map, and executors can hold shared handles to the tables they scan
/// ([`Catalog::source`]) that outlive subsequent catalog mutations — the
/// foundation of snapshot isolation for concurrent serving.
///
/// A table is registered either as rows ([`Catalog::register`]) or as an
/// attached [`TableSource`] such as a `div-storage` file
/// ([`Catalog::register_external`]); every table of either kind is scanned
/// through [`Catalog::source`], counted through [`Catalog::row_count`] and
/// available as a [`Relation`] through [`Catalog::table`].
#[derive(Debug, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, TableEntry>,
    foreign_keys: Vec<ForeignKey>,
    version: u64,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            tables: BTreeMap::new(),
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

    /// Register (or replace) a table. Nothing is converted here: the
    /// columnar segments are built by the first [`Catalog::source`] call.
    pub fn register(&mut self, name: impl Into<String>, relation: Relation) -> &mut Self {
        let entry = TableEntry {
            rows: Arc::new(OnceLock::from(Arc::new(relation))),
            source: Arc::default(),
        };
        self.insert(name.into(), entry)
    }

    /// Register (or replace) a table backed by an external store (a
    /// `div-storage` file, typically). The catalog keeps only the handle;
    /// streaming scans read the data chunk-at-a-time through it, planning
    /// reads its [`TableSource::row_count`], and it is materialized into RAM
    /// at most once, by the first [`Catalog::table`] lookup.
    pub fn register_external(
        &mut self,
        name: impl Into<String>,
        table: Arc<dyn TableSource>,
    ) -> &mut Self {
        let entry = TableEntry {
            rows: Arc::default(),
            source: Arc::new(OnceLock::from(table)),
        };
        self.insert(name.into(), entry)
    }

    fn insert(&mut self, name: String, entry: TableEntry) -> &mut Self {
        self.tables.insert(name, entry);
        self.version = next_version();
        self
    }

    fn entry(&self, name: &str) -> Result<&TableEntry> {
        self.tables
            .get(name)
            .ok_or_else(|| ExprError::UnknownTable {
                table: name.to_string(),
            })
    }

    /// Remove a table (and every constraint that mentions it), or report an
    /// [`ExprError::UnknownTable`] when no such table is registered. Bumps
    /// the catalog version. The table's data is not touched: dropping an
    /// attached file neither reads it nor needs it to still exist.
    pub fn unregister(&mut self, name: &str) -> Result<()> {
        self.entry(name)?;
        self.tables.remove(name);
        self.foreign_keys
            .retain(|fk| fk.from_table != name && fk.to_table != name);
        self.version = next_version();
        Ok(())
    }

    /// Look up a table as rows, materializing an attached table on first
    /// use. This is the reference path (the reference evaluator, the row
    /// executor, constraint validation); streaming execution and planning
    /// go through [`Catalog::source`] and [`Catalog::row_count`] and never
    /// load a file.
    pub fn table(&self, name: &str) -> Result<&Relation> {
        self.entry(name)?.rows().map(Arc::as_ref)
    }

    /// What a streaming scan of `name` reads. For registered rows the
    /// first call converts them ([`TableSegments::from_relation`]); every
    /// later call — on this catalog or any clone that still holds the same
    /// registration — returns the same [`Arc`], as it does from the start
    /// for an attached table. The handle outlives catalog mutations, so an
    /// in-flight scan keeps reading the snapshot it was compiled against.
    pub fn source(&self, name: &str) -> Result<Arc<dyn TableSource>> {
        self.entry(name).map(|entry| Arc::clone(entry.source()))
    }

    /// The number of rows of `name`, from whichever representation the
    /// entry already has — nothing is converted and no file is read.
    pub fn row_count(&self, name: &str) -> Result<usize> {
        self.entry(name).map(TableEntry::row_count)
    }

    /// `true` if a table with this name is registered.
    pub fn contains_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Iterate over `(name, relation)` pairs in name order.
    ///
    /// Only rows already in memory are yielded: an attached table appears
    /// after its first materializing [`Catalog::table`] lookup and is
    /// silently skipped before it (this iterator cannot fail and must not
    /// do IO).
    pub fn tables(&self) -> impl Iterator<Item = (&str, &Relation)> + '_ {
        self.tables
            .iter()
            .filter_map(|(n, entry)| Some((n.as_str(), entry.rows.get()?.as_ref())))
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
        let renames: Vec<(String, String)> = from_attributes
            .iter()
            .zip(to_attributes)
            .map(|(from, to)| (from.to_string(), to.to_string()))
            .collect();
        let renamed = from.rename(&renames)?;
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
        c.declare_foreign_key("parts", &["p#"], "parts", &["p#"])
            .unwrap();
        let v3 = c.version();
        assert_ne!(v2, v3);
        // Failed declarations do not bump the version.
        assert!(c
            .declare_foreign_key("missing", &["x"], "parts", &["p#"])
            .is_err());
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
        c.declare_foreign_key("supplies", &["p#"], "parts", &["p#"])
            .unwrap();
        let before = c.version();
        c.unregister("parts").unwrap();
        assert!(!c.contains_table("parts"));
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
        assert_eq!(c.row_count("parts").unwrap(), 2);
        let first = c.source("parts").unwrap();
        assert_eq!(first.row_count(), 2);
        assert!(Arc::ptr_eq(&first, &c.source("parts").unwrap()));
        // A clone mutated elsewhere still shares the conversion...
        let mut clone = c.clone();
        clone.register("other", relation! { ["x"] => [1] });
        assert!(Arc::ptr_eq(&first, &clone.source("parts").unwrap()));
        // ...a new registration under the same name does not, and the old
        // handle keeps the old rows.
        c.register("parts", relation! { ["p#", "color"] => [9, "green"] });
        let fresh = c.source("parts").unwrap();
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert_eq!((first.row_count(), fresh.row_count()), (2, 1));
        assert_eq!(c.row_count("parts").unwrap(), 1);
        for missing in [c.source("nope").map(drop), c.row_count("nope").map(drop)] {
            assert!(matches!(
                missing.unwrap_err(),
                ExprError::UnknownTable { .. }
            ));
        }
    }

    #[test]
    fn an_attached_source_is_rows_only_after_a_table_lookup() {
        let rows = relation! { ["p#", "color"] => [1, "blue"], [2, "red"] };
        let attached: Arc<dyn TableSource> = Arc::new(TableSegments::from_relation(&rows));
        let mut c = Catalog::new();
        c.register_external("parts", Arc::clone(&attached));
        assert_eq!(c.row_count("parts").unwrap(), 2);
        assert!(Arc::ptr_eq(&attached, &c.source("parts").unwrap()));
        assert_eq!(
            c.table_schema("parts").unwrap().names(),
            vec!["p#", "color"]
        );
        assert_eq!(c.tables().count(), 0, "nothing above materializes");
        assert_eq!(c.table("parts").unwrap(), &rows);
        assert_eq!(c.tables().count(), 1);
    }

    #[test]
    fn tables_iterates_in_name_order() {
        let c = catalog();
        let names: Vec<&str> = c.tables().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["parts", "supplies"]);
    }
}
