//! Snowflake-schema regeneration: a TPC-H-like supplier warehouse where
//! predicates reach the fact table through multiple join levels
//! (`lineitem → orders → customer`), exercising HYDRA's nested foreign-key
//! conditions.
//!
//! Run with: `cargo run --release --example supplier_snowflake`

use hydra::engine::exec::Executor;
use hydra::query::parser::parse_query_for_schema;
use hydra::query::plan::LogicalPlan;
use hydra::workload::{
    generate_client_database, supplier_row_targets, supplier_schema, DataGenConfig,
    WorkloadGenConfig, WorkloadGenerator,
};
use hydra::Hydra;

fn main() {
    let schema = supplier_schema();
    let mut targets = supplier_row_targets(0.2);
    targets.insert("lineitem".to_string(), 20_000);
    targets.insert("orders".to_string(), 6_000);
    println!(
        "client supplier warehouse: {} total rows",
        targets.values().sum::<u64>()
    );
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());

    // A generated workload plus one hand-written 3-level snowflake query.
    let mut queries = WorkloadGenerator::new(
        schema.clone(),
        WorkloadGenConfig {
            num_queries: 20,
            ..Default::default()
        },
    )
    .generate();
    let snowflake_sql = "select * from lineitem, orders, customer \
        where lineitem.l_order_fk = orders.o_orderkey \
          and orders.o_customer_fk = customer.c_custkey \
          and customer.c_mktsegment = 'BUILDING' \
          and orders.o_orderdate >= 9000";
    let snowflake = parse_query_for_schema("snowflake_probe", snowflake_sql, &schema)
        .expect("snowflake query parses");
    queries.push(snowflake.clone());

    let session = Hydra::builder().build();
    let package = session.profile(db, &queries).expect("client package");
    let result = session.regenerate(&package).expect("regeneration");

    println!("\n{}", result.report().to_display_text());

    // Re-run the snowflake probe on the dataless database and compare edges.
    let original = package
        .workload
        .entry("snowflake_probe")
        .and_then(|e| e.aqp.as_ref())
        .expect("probe AQP");
    let dataless = result.generator();
    let plan = LogicalPlan::from_query(&snowflake).unwrap();
    let regenerated = Executor::new(&dataless)
        .run_annotated("snowflake_probe", &plan)
        .expect("dataless execution");
    println!("snowflake probe — original vs regenerated edge cardinalities:");
    for (orig, regen) in original
        .root
        .preorder()
        .iter()
        .zip(regenerated.root.preorder())
    {
        println!(
            "  {:<55} {:>8} {:>8}",
            orig.op.name(),
            orig.cardinality,
            regen.cardinality
        );
    }
}
