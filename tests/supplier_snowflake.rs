//! Snowflake-schema regeneration: nested foreign-key conditions
//! (lineitem → orders → customer → nation → region) must be carried through
//! the constraint extraction, the LP formulation and verification.

use hydra::engine::exec::Executor;
use hydra::query::parser::parse_query_for_schema;
use hydra::query::plan::LogicalPlan;
use hydra::workload::{
    generate_client_database, supplier_row_targets, supplier_schema, DataGenConfig,
};
use hydra::Hydra;

mod common;

#[test]
fn nested_fk_conditions_are_regenerated_accurately() {
    let schema = supplier_schema();
    let mut targets = supplier_row_targets(0.05);
    targets.insert("lineitem".to_string(), 6_000);
    targets.insert("orders".to_string(), 2_000);
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());

    // A 3-level snowflake query: lineitems of orders placed by customers in a
    // particular market segment, plus a local predicate on the order date.
    let sql = "select * from lineitem, orders, customer \
        where lineitem.l_order_fk = orders.o_orderkey \
          and orders.o_customer_fk = customer.c_custkey \
          and customer.c_mktsegment = 'BUILDING' \
          and orders.o_orderdate >= 9000";
    let query = parse_query_for_schema("snow1", sql, &schema).unwrap();

    let session = Hydra::builder().build();
    let package = session.profile(db, std::slice::from_ref(&query)).unwrap();
    let original = package.workload.entries[0].aqp.clone().unwrap();

    // The extraction must produce a lineitem constraint whose FK condition on
    // orders nests a condition on customer.
    let constraints = package.workload.constraints_by_table().unwrap();
    let li = &constraints["lineitem"];
    let nested = li
        .iter()
        .find(|c| c.fk_conditions.iter().any(|f| !f.nested.is_empty()))
        .expect("nested FK condition extracted");
    assert_eq!(nested.fk_conditions[0].dim_table, "orders");
    assert_eq!(nested.fk_conditions[0].nested[0].dim_table, "customer");

    // Regenerate and re-execute on the dataless database.
    let result = session.regenerate(&package).unwrap();
    assert!(
        result.accuracy.fraction_within(0.05) > 0.8,
        "snowflake constraints poorly satisfied: {}",
        result.accuracy.to_display_table()
    );

    let dataless = result.generator();
    let plan = LogicalPlan::from_query(&query).unwrap();
    let regenerated = Executor::new(&dataless)
        .run_annotated("snow1", &plan)
        .unwrap();
    let orig_root = original.root.cardinality;
    let regen_root = regenerated.root.cardinality;
    let rel_err = orig_root.abs_diff(regen_root) as f64 / orig_root.max(1) as f64;
    assert!(
        rel_err <= 0.15,
        "root cardinality {} regenerated as {} (rel err {:.3})",
        orig_root,
        regen_root,
        rel_err
    );

    // Every edge's tuple-scan cardinality is its accuracy check's `achieved`.
    let edges = common::assert_tuple_scan_matches_accuracy(&package, &result);
    assert_eq!(edges, original.root.preorder().len());
}
