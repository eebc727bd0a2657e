//! ScanExecutor ⇔ scan_naive_query_snapshot equivalence oracle.
//!
//! The vectorized executor must be *bit-for-bit* indistinguishable from
//! the original materialize-then-iterate scan on everything a caller can
//! observe besides CPU time: checksum, `bytes_read`, and `io_seconds` —
//! over random schemas, random layouts, random projections, all three
//! compression policies, and both cache modes. Also pins the parallel
//! table generator to its sequential oracle.

use proptest::prelude::*;
use slicer::model::{AttrKind, AttrSet, Partitioning, Query, TableSchema};
use slicer::storage::{
    generate_table, generate_table_seq, scan_naive_query_snapshot, CacheMode, CompressionPolicy,
    ScanExecutor, StoredTable,
};
use slicer_cost::DiskParams;

/// Deterministic splitmix-style stream over a test seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn random_schema(state: &mut u64) -> (TableSchema, usize) {
    let attrs = 2 + (next(state) % 6) as usize; // 2..=7
    let rows = 50 + (next(state) % 300) as usize; // 50..=349
    let mut b = TableSchema::builder("T", rows as u64);
    for i in 0..attrs {
        let (size, kind) = match next(state) % 4 {
            0 => (4, AttrKind::Int),
            1 => (8, AttrKind::Decimal),
            2 => (4, AttrKind::Date),
            _ => ((1 + next(state) % 30) as u32, AttrKind::Text),
        };
        b = b.attr(format!("A{i}"), size, kind);
    }
    (b.build().expect("valid random schema"), rows)
}

fn random_layout(state: &mut u64, schema: &TableSchema) -> Partitioning {
    let n = schema.attr_count();
    let groups = 1 + (next(state) % n as u64) as usize;
    let mut sets = vec![AttrSet::default(); groups];
    for a in 0..n {
        sets[(next(state) % groups as u64) as usize].insert(a);
    }
    sets.retain(|s| !s.is_empty());
    Partitioning::new(schema, sets).expect("random assignment covers the schema")
}

fn random_projection(state: &mut u64, schema: &TableSchema) -> AttrSet {
    let mut p = AttrSet::default();
    for a in 0..schema.attr_count() {
        if next(state) & 1 == 1 {
            p.insert(a);
        }
    }
    p // may be empty: the empty projection is a valid (degenerate) scan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn executor_is_bit_identical_to_naive(seed in any::<u64>()) {
        let mut state = seed;
        let (schema, rows) = random_schema(&mut state);
        let data = generate_table(&schema, rows, seed);
        let layout = random_layout(&mut state, &schema);
        let disk = DiskParams::paper_testbed();
        let projections = [
            random_projection(&mut state, &schema),
            AttrSet::default(),
            schema.all_attrs(),
        ];
        for policy in [
            CompressionPolicy::None,
            CompressionPolicy::Default,
            CompressionPolicy::Dictionary,
        ] {
            let table = StoredTable::load(&schema, &data, &layout, policy);
            let cold = ScanExecutor::new(&table);
            let warm = ScanExecutor::with_mode(&table, CacheMode::Warm);
            for &p in &projections {
                let q = Query::new("q", p);
                let snapshot = table.snapshot();
                let oracle = scan_naive_query_snapshot(&snapshot, &q, &disk);
                // Cold mode, twice (second scan re-decodes into reused
                // arenas); warm mode, twice (second scan hits the cache).
                for r in [
                    cold.scan_query_snapshot(&snapshot, &q, &disk),
                    cold.scan_query_snapshot(&snapshot, &q, &disk),
                    warm.scan_query_snapshot(&snapshot, &q, &disk),
                    warm.scan_query_snapshot(&snapshot, &q, &disk),
                ] {
                    prop_assert_eq!(r.checksum, oracle.checksum,
                        "checksum mismatch: {:?} {:?} proj {:?}", policy, layout, p);
                    prop_assert_eq!(r.bytes_read, oracle.bytes_read);
                    prop_assert_eq!(r.io_seconds, oracle.io_seconds);
                }
            }
        }
    }

    #[test]
    fn parallel_generation_is_byte_identical(seed in any::<u64>()) {
        let mut state = seed;
        let (schema, rows) = random_schema(&mut state);
        prop_assert_eq!(
            generate_table(&schema, rows, seed),
            generate_table_seq(&schema, rows, seed)
        );
    }
}

#[test]
fn warm_mode_survives_projection_changes() {
    // Scanning wider after warming must prepare the newly referenced
    // segments, not serve stale cache state.
    let mut state = 7u64;
    let (schema, rows) = random_schema(&mut state);
    let data = generate_table(&schema, rows, 7);
    let disk = DiskParams::paper_testbed();
    let table = StoredTable::load(
        &schema,
        &data,
        &Partitioning::row(&schema),
        CompressionPolicy::Default,
    );
    let warm = ScanExecutor::with_mode(&table, CacheMode::Warm);
    let mut projections: Vec<AttrSet> = (0..schema.attr_count()).map(AttrSet::single).collect();
    projections.push(schema.all_attrs());
    for p in projections {
        let (q, snapshot) = (Query::new("q", p), table.snapshot());
        assert_eq!(
            warm.scan_query_snapshot(&snapshot, &q, &disk).checksum,
            scan_naive_query_snapshot(&snapshot, &q, &disk).checksum
        );
    }
}
