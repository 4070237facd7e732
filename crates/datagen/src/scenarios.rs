//! Realistic division scenario families.
//!
//! The paper's suppliers-and-parts schema is the *textbook* division
//! workload; real systems meet the same "for all" shape in access control,
//! curriculum tracking and rollout tooling. This module generates three such
//! families behind one knob set, so the fuzzer, the conformance tests and the
//! benches all draw from the same distributions:
//!
//! * **RBAC** — `user_roles(user, role)` ÷ `required_roles(role)`: which
//!   users hold *all* required roles; the great divide against
//!   `dept_roles(role, dept)` asks it per department.
//! * **Course completion** — `completions(student, course)` ÷
//!   `required_courses(course)`, grouped by `program_courses(course,
//!   program)`.
//! * **Feature flags** — `service_flags(service, flag)` ÷
//!   `required_flags(flag)`, grouped by `platform_flags(flag, platform)`.
//!
//! Knobs: cardinality (`entities`, `items`, `groups`), Zipf `skew` of item
//! popularity, `divisor_selectivity` (fraction of items that are required),
//! `null_density` (dirty rows whose item key is NULL) and `full_entities`
//! (guaranteed quotient members). All generation is deterministic per
//! `seed`.

use crate::zipf::ZipfSampler;
use div_algebra::{Relation, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The scenario family: fixes table/column names and key value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioFamily {
    /// Users holding ALL required roles (string entity and item keys).
    Rbac,
    /// Students having completed ALL required courses (integer keys).
    Courses,
    /// Services enabling ALL required feature flags (string entity,
    /// integer item keys).
    FeatureFlags,
}

impl ScenarioFamily {
    /// All families, for sweeping tests and benches.
    pub const ALL: [ScenarioFamily; 3] = [
        ScenarioFamily::Rbac,
        ScenarioFamily::Courses,
        ScenarioFamily::FeatureFlags,
    ];

    /// Stable lowercase name (used by golden-file `scenario` directives).
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioFamily::Rbac => "rbac",
            ScenarioFamily::Courses => "courses",
            ScenarioFamily::FeatureFlags => "flags",
        }
    }

    /// Parse a [`ScenarioFamily::name`] back to the family.
    pub fn parse(name: &str) -> Option<ScenarioFamily> {
        ScenarioFamily::ALL.into_iter().find(|f| f.name() == name)
    }

    /// The table and column names of this family's schema.
    pub fn names(&self) -> ScenarioNames {
        match self {
            ScenarioFamily::Rbac => ScenarioNames {
                dividend_table: "user_roles",
                divisor_table: "required_roles",
                grouped_divisor_table: "dept_roles",
                entity_column: "user",
                item_column: "role",
                group_column: "dept",
            },
            ScenarioFamily::Courses => ScenarioNames {
                dividend_table: "completions",
                divisor_table: "required_courses",
                grouped_divisor_table: "program_courses",
                entity_column: "student",
                item_column: "course",
                group_column: "program",
            },
            ScenarioFamily::FeatureFlags => ScenarioNames {
                dividend_table: "service_flags",
                divisor_table: "required_flags",
                grouped_divisor_table: "platform_flags",
                entity_column: "service",
                item_column: "flag",
                group_column: "platform",
            },
        }
    }

    fn entity_value(&self, i: usize) -> Value {
        match self {
            ScenarioFamily::Rbac => Value::from(format!("u{i:03}")),
            ScenarioFamily::Courses => Value::from(i as i64),
            ScenarioFamily::FeatureFlags => Value::from(format!("svc-{i:02}")),
        }
    }

    fn item_value(&self, j: usize) -> Value {
        match self {
            ScenarioFamily::Rbac => Value::from(format!("role{j}")),
            ScenarioFamily::Courses => Value::from(100 + j as i64),
            ScenarioFamily::FeatureFlags => Value::from(j as i64),
        }
    }

    fn group_value(&self, g: usize) -> Value {
        match self {
            ScenarioFamily::Rbac => Value::from(format!("dept{g}")),
            ScenarioFamily::Courses => Value::from(format!("prog{g}")),
            ScenarioFamily::FeatureFlags => Value::from(format!("os{g}")),
        }
    }
}

/// Table and column names of one scenario family.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioNames {
    /// Membership (dividend) table.
    pub dividend_table: &'static str,
    /// Required-items (small-divide divisor) table.
    pub divisor_table: &'static str,
    /// Per-group required-items (great-divide divisor) table.
    pub grouped_divisor_table: &'static str,
    /// Quotient attribute of the dividend.
    pub entity_column: &'static str,
    /// Shared (divisor) attribute.
    pub item_column: &'static str,
    /// Group attribute of the grouped divisor.
    pub group_column: &'static str,
}

/// Configuration of the scenario generator.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Which family to generate.
    pub family: ScenarioFamily,
    /// Number of entities (users / students / services).
    pub entities: usize,
    /// Number of items (roles / courses / flags).
    pub items: usize,
    /// Number of divisor groups (departments / programs / platforms).
    pub groups: usize,
    /// Mean probability that an entity holds a given item.
    pub membership: f64,
    /// Zipf exponent of item popularity (0 = uniform).
    pub skew: f64,
    /// Fraction of items in the small-divide divisor, and the per-group
    /// inclusion probability in the grouped divisor. `0.0` yields an empty
    /// divisor (a legal edge case with well-defined semantics).
    pub divisor_selectivity: f64,
    /// Probability that a dividend row's item key is NULL (dirty data).
    pub null_density: f64,
    /// Fraction of entities that hold *every* item: guaranteed quotient
    /// members, so results stay nonempty at low membership.
    pub full_entities: f64,
    /// RNG seed; generation is deterministic per seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            family: ScenarioFamily::Rbac,
            entities: 50,
            items: 12,
            groups: 3,
            membership: 0.5,
            skew: 0.8,
            divisor_selectivity: 0.4,
            null_density: 0.0,
            full_entities: 0.1,
            seed: 42,
        }
    }
}

/// The generated tables of one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioData {
    /// The family generated.
    pub family: ScenarioFamily,
    /// Membership table `(entity, item)` — the dividend.
    pub dividend: Relation,
    /// Required-items table `(item)` — the small-divide divisor.
    pub divisor: Relation,
    /// Per-group requirements `(item, group)` — the great-divide divisor.
    pub grouped_divisor: Relation,
}

impl ScenarioData {
    /// The names of the generated tables and columns.
    pub fn names(&self) -> ScenarioNames {
        self.family.names()
    }

    /// Register the three tables into a catalog under their family names.
    pub fn register_into(&self, catalog: &mut div_expr::Catalog) {
        let names = self.names();
        catalog.register(names.dividend_table, self.dividend.clone());
        catalog.register(names.divisor_table, self.divisor.clone());
        catalog.register(names.grouped_divisor_table, self.grouped_divisor.clone());
    }

    /// A fresh catalog holding the three tables.
    pub fn catalog(&self) -> div_expr::Catalog {
        let mut catalog = div_expr::Catalog::new();
        self.register_into(&mut catalog);
        catalog
    }

    /// `DIVIDE BY` SQL for the family's small divide: which entities hold
    /// all required items.
    pub fn small_divide_sql(&self) -> String {
        let n = self.names();
        format!(
            "SELECT {entity} FROM {dividend} AS m DIVIDE BY {divisor} AS r ON m.{item} = r.{item}",
            entity = n.entity_column,
            dividend = n.dividend_table,
            divisor = n.divisor_table,
            item = n.item_column,
        )
    }

    /// `DIVIDE BY` SQL for the family's great divide: which entities hold
    /// all items of each group.
    pub fn great_divide_sql(&self) -> String {
        let n = self.names();
        format!(
            "SELECT {entity}, {group} FROM {dividend} AS m \
             DIVIDE BY {grouped} AS g ON m.{item} = g.{item}",
            entity = n.entity_column,
            group = n.group_column,
            dividend = n.dividend_table,
            grouped = n.grouped_divisor_table,
            item = n.item_column,
        )
    }
}

/// Generate one scenario.
pub fn generate(config: &ScenarioConfig) -> ScenarioData {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5ce7_a51a_b1e5_0000);
    let family = config.family;
    let names = family.names();
    let items = config.items;
    let entities = config.entities;

    // Per-item membership probability: Zipf-weighted so popular items are
    // held by most entities while the tail is rare, with the configured mean.
    let sampler = ZipfSampler::new(items.max(1), config.skew);
    let mut popularity = vec![0.0f64; items.max(1)];
    {
        // Recover the per-rank masses from the sampler's cumulative table by
        // resampling would be noisy; recompute the normalized weights
        // directly (same formula as the sampler).
        let mut total = 0.0;
        for (k, slot) in popularity.iter_mut().enumerate() {
            *slot = 1.0 / ((k + 1) as f64).powf(config.skew);
            total += *slot;
        }
        for slot in &mut popularity {
            *slot /= total;
        }
        debug_assert_eq!(popularity.len(), sampler.len());
    }
    let prob =
        |j: usize| -> f64 { (config.membership * items as f64 * popularity[j]).clamp(0.0, 1.0) };

    let full = ((config.full_entities * entities as f64).ceil() as usize).min(entities);
    let mut dividend_rows: Vec<Vec<Value>> = Vec::new();
    for e in 0..entities {
        let is_full = e < full;
        for j in 0..items {
            if is_full || rng.gen_bool(prob(j)) {
                let item = if !is_full && rng.gen_bool(config.null_density.clamp(0.0, 1.0)) {
                    Value::Null
                } else {
                    family.item_value(j)
                };
                dividend_rows.push(vec![family.entity_value(e), item]);
            }
        }
    }
    let dividend = Relation::from_rows([names.entity_column, names.item_column], dividend_rows)
        .expect("valid dividend rows");

    // Small-divide divisor: an evenly strided subset of the items, sized by
    // the selectivity knob (deterministic, so the quotient is predictable
    // from the knobs alone).
    let wanted = ((config.divisor_selectivity.clamp(0.0, 1.0)) * items as f64).ceil() as usize;
    let mut divisor_rows: Vec<Vec<Value>> = Vec::new();
    if wanted > 0 && items > 0 {
        let stride = (items / wanted).max(1);
        for j in (0..items).step_by(stride).take(wanted) {
            divisor_rows.push(vec![family.item_value(j)]);
        }
    }
    let divisor =
        Relation::from_rows([names.item_column], divisor_rows).expect("valid divisor rows");

    // Grouped divisor: each (item, group) pair joins with the selectivity
    // probability; group g is guaranteed item g mod items so no group is
    // accidentally empty (an empty group simply would not appear).
    let mut grouped_rows: Vec<Vec<Value>> = Vec::new();
    for g in 0..config.groups {
        for j in 0..items {
            let forced = items > 0 && j == g % items;
            if forced || rng.gen_bool(config.divisor_selectivity.clamp(0.0, 1.0)) {
                grouped_rows.push(vec![family.item_value(j), family.group_value(g)]);
            }
        }
    }
    let grouped_divisor =
        Relation::from_rows([names.item_column, names.group_column], grouped_rows)
            .expect("valid grouped divisor rows");

    ScenarioData {
        family,
        dividend,
        divisor,
        grouped_divisor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use div_algebra::Value;

    #[test]
    fn deterministic_per_seed() {
        let config = ScenarioConfig::default();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a.dividend, b.dividend);
        assert_eq!(a.divisor, b.divisor);
        assert_eq!(a.grouped_divisor, b.grouped_divisor);
        let c = generate(&ScenarioConfig { seed: 7, ..config });
        assert_ne!(a.dividend, c.dividend);
    }

    #[test]
    fn full_entities_land_in_the_quotient() {
        for family in ScenarioFamily::ALL {
            let config = ScenarioConfig {
                family,
                entities: 20,
                items: 8,
                membership: 0.1,
                full_entities: 0.25,
                null_density: 0.0,
                ..ScenarioConfig::default()
            };
            let data = generate(&config);
            let names = data.names();
            let quotient = data
                .dividend
                .divide(&data.divisor)
                .expect("small divide runs");
            // The first ceil(0.25 * 20) = 5 entities hold every item.
            for e in 0..5 {
                let held = quotient
                    .tuples()
                    .any(|t| t.values()[0] == family.entity_value(e));
                assert!(
                    held,
                    "{} entity {e} missing from quotient",
                    names.dividend_table
                );
            }
        }
    }

    #[test]
    fn divisor_selectivity_controls_divisor_size() {
        let config = ScenarioConfig {
            items: 10,
            divisor_selectivity: 0.3,
            ..ScenarioConfig::default()
        };
        assert_eq!(generate(&config).divisor.len(), 3);
        let empty = ScenarioConfig {
            divisor_selectivity: 0.0,
            ..config
        };
        assert!(generate(&empty).divisor.is_empty());
    }

    #[test]
    fn null_density_injects_nulls_only_into_item_keys() {
        let config = ScenarioConfig {
            entities: 40,
            items: 10,
            membership: 0.8,
            null_density: 0.3,
            full_entities: 0.0,
            ..ScenarioConfig::default()
        };
        let data = generate(&config);
        let mut nulls = 0usize;
        for t in data.dividend.tuples() {
            assert_ne!(t.values()[0], Value::Null, "entity keys stay non-null");
            if t.values()[1] == Value::Null {
                nulls += 1;
            }
        }
        assert!(nulls > 0, "expected some NULL item keys");
    }

    #[test]
    fn sql_helpers_round_trip_through_the_engine() {
        for family in ScenarioFamily::ALL {
            let data = generate(&ScenarioConfig {
                family,
                entities: 12,
                items: 6,
                groups: 2,
                ..ScenarioConfig::default()
            });
            let engine = div_sql::Engine::new(data.catalog());
            let small = engine
                .run(div_sql::Request::sql(&data.small_divide_sql()))
                .expect("small divide SQL runs")
                .collect()
                .expect("small divide SQL runs");
            let great = engine
                .run(div_sql::Request::sql(&data.great_divide_sql()))
                .expect("great divide SQL runs")
                .collect()
                .expect("great divide SQL runs");
            // Cross-check against the reference algebra.
            let expected_small = data
                .dividend
                .divide(&data.divisor)
                .expect("reference small divide");
            assert_eq!(small.relation, expected_small);
            assert_eq!(
                great.relation.schema().names(),
                vec![family.names().entity_column, family.names().group_column],
            );
        }
    }
}
