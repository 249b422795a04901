//! Property-based tests over the whole pipeline: for randomly generated
//! workloads on the retail schema, the regenerated summary must always
//! preserve row counts, never produce dangling foreign keys, and keep
//! volumetric errors within the paper's bounds whenever the workload is
//! consistent (which harvested workloads always are).

use hydra::engine::database::Database;
use hydra::workload::{
    generate_client_database, retail_row_targets, retail_schema, DataGenConfig, WorkloadGenConfig,
    WorkloadGenerator,
};
use hydra::Hydra;
use proptest::prelude::*;

proptest! {
    // End-to-end runs are comparatively expensive; a modest number of cases
    // with varied seeds still explores workload structure well.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn harvested_workloads_always_regenerate_within_bounds(
        workload_seed in 0u64..1_000,
        data_seed in 0u64..1_000,
        num_queries in 3usize..12,
        fact_rows in 500u64..3_000,
    ) {
        let schema = retail_schema();
        let mut targets = retail_row_targets(0.004);
        targets.insert("store_sales".to_string(), fact_rows);
        targets.insert("web_sales".to_string(), fact_rows / 3);
        let db = generate_client_database(
            &schema,
            &targets,
            &DataGenConfig { seed: data_seed, ..Default::default() },
        );
        let queries = WorkloadGenerator::new(
            schema.clone(),
            WorkloadGenConfig { seed: workload_seed, num_queries, ..Default::default() },
        )
        .generate();

        // Parallel session: output must match the sequential pipeline the
        // other integration tests exercise.
        let session = Hydra::builder().parallelism(3).build();
        let package = session.profile(db, &queries).unwrap();
        let result = session.regenerate(&package).unwrap();

        // Row counts are always preserved exactly.
        for (table, rows) in &targets {
            prop_assert_eq!(
                result.summary.relation(table).unwrap().total_rows,
                *rows,
                "row count of {}", table
            );
        }

        // Volumetric accuracy: harvested (hence consistent) workloads satisfy
        // the large majority of constraints nearly exactly.
        prop_assert!(
            result.accuracy.fraction_within(0.10) > 0.85,
            "only {:.1}% of constraints within 10%:\n{}",
            100.0 * result.accuracy.fraction_within(0.10),
            result.accuracy.to_display_table()
        );

        // No dangling foreign keys in the regenerated data.
        let generator = result.generator();
        let mut regenerated = Database::empty(schema.clone());
        for table in schema.table_names() {
            let mem = generator.materialize(table).unwrap();
            regenerated.table_mut(table).unwrap().load_unchecked(mem.rows().to_vec());
        }
        prop_assert_eq!(regenerated.dangling_foreign_keys(), 0);

        // The summary stays small regardless of the seed.
        prop_assert!(result.summary.size_bytes() < 128 * 1024);
    }
}
