//! The suppliers-and-parts workload of Section 4.
//!
//! Generates the `supplies(s#, p#)` and `parts(p#, color)` tables used by
//! queries Q1–Q3, with a configurable number of suppliers, parts, colors and a
//! "coverage" knob that controls how likely a supplier is to supply any given
//! part — and therefore how many suppliers end up supplying *all* parts of a
//! color (the quotient size).

use div_algebra::{Relation, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the suppliers-parts generator.
#[derive(Debug, Clone, Copy)]
pub struct SuppliersPartsConfig {
    /// Number of suppliers.
    pub suppliers: usize,
    /// Number of parts.
    pub parts: usize,
    /// Number of distinct colors (cyclically assigned to parts).
    pub colors: usize,
    /// Probability that a given supplier supplies a given part.
    pub coverage: f64,
    /// Fraction of suppliers forced to supply *every* part (guaranteed
    /// quotient members); useful to keep results nonempty at low coverage.
    pub full_suppliers: f64,
    /// RNG seed, so workloads are reproducible.
    pub seed: u64,
}

impl Default for SuppliersPartsConfig {
    fn default() -> Self {
        SuppliersPartsConfig {
            suppliers: 100,
            parts: 50,
            colors: 5,
            coverage: 0.5,
            full_suppliers: 0.05,
            seed: 42,
        }
    }
}

/// The generated tables.
#[derive(Debug, Clone)]
pub struct SuppliersPartsData {
    /// `supplies(s#, p#)`.
    pub supplies: Relation,
    /// `parts(p#, color)`.
    pub parts: Relation,
}

impl SuppliersPartsData {
    /// A catalog holding both tables under the names queries Q1–Q3 use.
    pub fn catalog(self) -> div_expr::Catalog {
        let mut catalog = div_expr::Catalog::new();
        catalog.register("supplies", self.supplies);
        catalog.register("parts", self.parts);
        catalog
    }
}

/// Names of the colors used by the generator (cycled when
/// `config.colors` exceeds the list length the names get a numeric suffix).
pub const COLOR_NAMES: [&str; 6] = ["blue", "red", "green", "yellow", "black", "white"];

fn color_name(i: usize) -> String {
    if i < COLOR_NAMES.len() {
        COLOR_NAMES[i].to_string()
    } else {
        format!("color{i}")
    }
}

/// Generate a suppliers-parts database.
pub fn generate(config: &SuppliersPartsConfig) -> SuppliersPartsData {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut parts_rows: Vec<Vec<Value>> = Vec::with_capacity(config.parts);
    for p in 0..config.parts {
        let color = color_name(p % config.colors.max(1));
        parts_rows.push(vec![Value::from(p as i64), Value::from(color)]);
    }
    let parts = Relation::from_rows(["p#", "color"], parts_rows).expect("valid parts rows");

    let mut supply_rows: Vec<Vec<Value>> = Vec::new();
    for s in 0..config.suppliers {
        let full = (s as f64) < config.full_suppliers * config.suppliers as f64;
        for p in 0..config.parts {
            if full || rng.gen_bool(config.coverage.clamp(0.0, 1.0)) {
                supply_rows.push(vec![Value::from(s as i64), Value::from(p as i64)]);
            }
        }
    }
    let supplies = Relation::from_rows(["s#", "p#"], supply_rows).expect("valid supply rows");
    SuppliersPartsData { supplies, parts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_respects_cardinalities() {
        let config = SuppliersPartsConfig {
            suppliers: 20,
            parts: 10,
            colors: 3,
            coverage: 1.0,
            full_suppliers: 0.0,
            seed: 1,
        };
        let data = generate(&config);
        assert_eq!(data.parts.len(), 10);
        assert_eq!(data.supplies.len(), 200);
        assert_eq!(data.parts.column("color").unwrap().len(), 3);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = SuppliersPartsConfig::default();
        assert_eq!(generate(&config).supplies, generate(&config).supplies);
        let other = SuppliersPartsConfig { seed: 43, ..config };
        assert_ne!(generate(&config).supplies, generate(&other).supplies);
    }

    #[test]
    fn full_suppliers_supply_all_blue_parts() {
        let config = SuppliersPartsConfig {
            suppliers: 50,
            parts: 20,
            colors: 4,
            coverage: 0.1,
            full_suppliers: 0.1,
            seed: 9,
        };
        let data = generate(&config);
        // Q2: suppliers supplying all blue parts must include the full
        // suppliers (s# 0..5).
        let blue = data
            .parts
            .select(&div_algebra::Predicate::eq_value("color", "blue"))
            .unwrap()
            .project(&["p#"])
            .unwrap();
        let quotient = data.supplies.divide(&blue).unwrap();
        for s in 0..5i64 {
            assert!(quotient.contains(&div_algebra::Tuple::new([s])));
        }
    }

    #[test]
    fn color_names_extend_beyond_the_fixed_list() {
        assert_eq!(color_name(0), "blue");
        assert_eq!(color_name(7), "color7");
    }
}
