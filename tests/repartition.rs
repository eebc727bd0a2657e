//! `StoredTable::repartition` ⇔ fresh `StoredTable::load` equivalence.
//!
//! The in-place re-slice must be indistinguishable from loading the data
//! fresh under the target layout: identical stored bytes per file, and
//! bit-identical scan results (checksum, `bytes_read`, `io_seconds`)
//! through both the naive oracle and the vectorized executor — over random
//! schemas, random source/target layouts, all three compression policies,
//! and chains of successive repartitions.

use proptest::prelude::*;
use slicer::model::{AttrKind, AttrSet, Partitioning, Query, TableSchema};
use slicer::storage::{
    generate_table, scan_naive_query_snapshot, CompressionPolicy, ScanExecutor, StoredTable,
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
    if p.is_empty() {
        p.insert(0usize);
    }
    p
}

fn policy(state: &mut u64) -> CompressionPolicy {
    match next(state) % 3 {
        0 => CompressionPolicy::None,
        1 => CompressionPolicy::Default,
        _ => CompressionPolicy::Dictionary,
    }
}

/// Assert `moved` (repartitioned) and `fresh` (loaded) are observationally
/// identical: stored bytes per file, plus bit-identical scans over
/// `projections` through both executors.
fn assert_tables_identical(
    moved: &StoredTable,
    fresh: &StoredTable,
    projections: &[AttrSet],
    disk: &DiskParams,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(moved.layout(), fresh.layout());
    let (moved_snap, fresh_snap) = (moved.snapshot(), fresh.snapshot());
    prop_assert_eq!(moved_snap.files.len(), fresh_snap.files.len());
    for (a, b) in moved_snap.files.iter().zip(&fresh_snap.files) {
        prop_assert_eq!(a.attrs, b.attrs);
        prop_assert_eq!(a.stored_bytes(), b.stored_bytes());
    }
    let exec_moved = ScanExecutor::new(moved);
    let exec_fresh = ScanExecutor::new(fresh);
    for &p in projections {
        let q = Query::new("q", p);
        let nm = scan_naive_query_snapshot(&moved_snap, &q, disk);
        let nf = scan_naive_query_snapshot(&fresh_snap, &q, disk);
        prop_assert_eq!(nm.checksum, nf.checksum, "naive checksum diverged on {}", p);
        prop_assert_eq!(nm.bytes_read, nf.bytes_read);
        prop_assert_eq!(nm.io_seconds.to_bits(), nf.io_seconds.to_bits());
        let em = exec_moved.scan_query_snapshot(&moved_snap, &q, disk);
        let ef = exec_fresh.scan_query_snapshot(&fresh_snap, &q, disk);
        prop_assert_eq!(
            em.checksum,
            ef.checksum,
            "executor checksum diverged on {}",
            p
        );
        prop_assert_eq!(em.bytes_read, ef.bytes_read);
        prop_assert_eq!(em.io_seconds.to_bits(), ef.io_seconds.to_bits());
        prop_assert_eq!(em.checksum, nm.checksum, "executor vs naive on {}", p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn repartition_equals_fresh_load(seed in any::<u64>()) {
        let mut state = seed;
        let (schema, rows) = random_schema(&mut state);
        let data = generate_table(&schema, rows, next(&mut state));
        let pol = policy(&mut state);
        let source = random_layout(&mut state, &schema);
        let target = random_layout(&mut state, &schema);
        let disk = DiskParams::paper_testbed();

        let moved = StoredTable::load(&schema, &data, &source, pol);
        let plan = moved.repartition_plan(&target, &disk);
        let stats = moved.repartition(&target, &disk);
        prop_assert_eq!(
            stats.files_kept + stats.files_rebuilt,
            target.len(),
            "every target partition is either kept or rebuilt"
        );
        // The dry-run plan prices the move exactly (CPU is measured, not
        // planned) — this is what lets the payoff gate consult the
        // incremental price without performing the move.
        prop_assert_eq!(plan.files_kept, stats.files_kept);
        prop_assert_eq!(plan.files_rebuilt, stats.files_rebuilt);
        prop_assert_eq!(plan.bytes_reread, stats.bytes_reread);
        prop_assert_eq!(plan.bytes_rewritten, stats.bytes_rewritten);
        prop_assert_eq!(plan.io_seconds.to_bits(), stats.io_seconds.to_bits());
        prop_assert_eq!(plan.cpu_seconds, 0.0);
        let fresh = StoredTable::load(&schema, &data, &target, pol);
        let projections: Vec<AttrSet> = (0..4)
            .map(|_| random_projection(&mut state, &schema))
            .chain([schema.all_attrs()])
            .collect();
        assert_tables_identical(&moved, &fresh, &projections, &disk)?;
    }

    #[test]
    fn repartition_chains_stay_identical(seed in any::<u64>()) {
        // Successive in-place moves (the online lifecycle's steady state)
        // must not drift from the fresh-load oracle.
        let mut state = seed;
        let (schema, rows) = random_schema(&mut state);
        let data = generate_table(&schema, rows, next(&mut state));
        let pol = policy(&mut state);
        let disk = DiskParams::paper_testbed();
        let moved = StoredTable::load(&schema, &data, &random_layout(&mut state, &schema), pol);
        for _ in 0..3 {
            let target = random_layout(&mut state, &schema);
            moved.repartition(&target, &disk);
            let fresh = StoredTable::load(&schema, &data, &target, pol);
            let projections = [random_projection(&mut state, &schema), schema.all_attrs()];
            assert_tables_identical(&moved, &fresh, &projections, &disk)?;
        }
    }
}
