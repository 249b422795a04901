//! Referential integrity of regenerated data (the paper's post-processing
//! guarantee): every foreign key produced by the tuple generator references an
//! existing primary key, across both the star (retail) and snowflake
//! (supplier) schemas, and the regeneration is the same on one worker
//! thread as on two.

use hydra::engine::database::Database;
use hydra::workload::{
    generate_client_database, retail_row_targets, retail_schema, supplier_row_targets,
    supplier_schema, DataGenConfig, WorkloadGenConfig, WorkloadGenerator,
};
use hydra::Hydra;

fn check_schema(
    schema: hydra::catalog::schema::Schema,
    targets: std::collections::BTreeMap<String, u64>,
) {
    let db = generate_client_database(&schema, &targets, &DataGenConfig::default());
    let queries = WorkloadGenerator::new(
        schema.clone(),
        WorkloadGenConfig {
            num_queries: 15,
            ..Default::default()
        },
    )
    .generate();
    let session = Hydra::builder().parallelism(2).build();
    let package = session.profile(db, &queries).unwrap();
    let result = session.regenerate(&package).unwrap();

    // Solving independent relations on worker threads changes nothing.
    let sequential = Hydra::builder()
        .parallelism(1)
        .build()
        .regenerate(&package)
        .unwrap();
    assert_eq!(sequential.summary, result.summary);
    assert_eq!(sequential.accuracy, result.accuracy);

    // Materialize the regenerated database and check every FK.
    let generator = result.generator();
    let mut regenerated = Database::empty(schema.clone());
    for table in schema.table_names() {
        let mem = generator.materialize(table).unwrap();
        regenerated
            .table_mut(table)
            .unwrap()
            .load_unchecked(mem.rows().to_vec());
    }
    assert_eq!(
        regenerated.dangling_foreign_keys(),
        0,
        "regenerated {} database has dangling foreign keys",
        schema.name
    );
    // And the regenerated row counts match the client's.
    for (table, rows) in &targets {
        assert_eq!(regenerated.row_count(table), *rows, "table {table}");
    }
}

#[test]
fn retail_star_schema_regeneration_preserves_referential_integrity() {
    let mut targets = retail_row_targets(0.005);
    targets.insert("store_sales".to_string(), 4_000);
    targets.insert("web_sales".to_string(), 1_000);
    check_schema(retail_schema(), targets);
}

#[test]
fn supplier_snowflake_schema_regeneration_preserves_referential_integrity() {
    let mut targets = supplier_row_targets(0.05);
    targets.insert("lineitem".to_string(), 5_000);
    targets.insert("orders".to_string(), 1_500);
    check_schema(supplier_schema(), targets);
}
