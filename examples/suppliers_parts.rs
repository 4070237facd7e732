//! The suppliers-and-parts scenario of Section 4: queries Q1, Q2 and Q3 in the
//! proposed SQL dialect, lowered to division plans and executed.
//!
//! Run with `cargo run --example suppliers_parts`.

use div_datagen::suppliers_parts::{self, SuppliersPartsConfig};
use div_sql::{parse_query, translate_query};
use division::prelude::*;

const Q1: &str = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#";
const Q2: &str = "SELECT s# FROM supplies AS s DIVIDE BY \
                  (SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#";
const Q3: &str = "SELECT DISTINCT s#, color FROM supplies AS s1, parts AS p1 \
                  WHERE NOT EXISTS ( SELECT * FROM parts AS p2 WHERE p2.color = p1.color AND \
                  NOT EXISTS ( SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s# ))";

fn main() {
    // A small generated database (10 suppliers, 8 parts, 3 colors).
    let data = suppliers_parts::generate(&SuppliersPartsConfig {
        suppliers: 10,
        parts: 8,
        colors: 3,
        coverage: 0.6,
        full_suppliers: 0.2,
        seed: 7,
    });
    let catalog = data.catalog();
    println!("parts:\n{}", catalog.table("parts").unwrap());

    for (name, sql) in [("Q1", Q1), ("Q2", Q2), ("Q3", Q3)] {
        println!("==================================================================");
        println!("{name}: {sql}\n");
        let query = parse_query(sql).expect("query parses");
        let plan = translate_query(&query, &catalog).expect("query lowers");
        println!("logical plan:\n{plan}");
        let result = evaluate(&plan, &catalog).expect("query evaluates");
        println!("result ({} tuples):\n{result}", result.len());
    }

    // Q1 and Q3 are the same query; show that the detection produced the same
    // answer through a division operator instead of nested NOT EXISTS.
    let q1 = translate_query(&parse_query(Q1).unwrap(), &catalog).unwrap();
    let q3 = translate_query(&parse_query(Q3).unwrap(), &catalog).unwrap();
    let report = plans_equivalent_on(&q1, &q3, &catalog).unwrap();
    println!("Q1 and Q3 equivalent: {}", report.equivalent);
}
