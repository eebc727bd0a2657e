//! Concurrent serving under the knife: many scans racing live
//! re-partitions.
//!
//! The snapshot read path's contract, stress- and property-tested:
//!
//! * a scan pins one [`TableSnapshot`] and is bit-identical to the
//!   `scan_naive_query_snapshot` oracle *on that same pinned snapshot* —
//!   checksum, `bytes_read`, `io_seconds` — no matter how many
//!   re-partitions are published while it runs;
//! * no scan ever observes a half-moved layout: every scan's `bytes_read`
//!   equals what one of the published layouts (old or new) reads for that
//!   projection, never a mixture;
//! * scans never block on a move — they only ever see the snapshot
//!   current at their start;
//! * warm per-thread scratch never aliases: interleaved warm scans of
//!   different projections from concurrent threads are bit-identical to
//!   cold scans.

use proptest::prelude::*;
use slicer::model::{AttrKind, AttrSet, Partitioning, Query, TableSchema};
use slicer::prelude::{HddCostModel, HillClimb, TableManager, TableManagerConfig};
use slicer::storage::{
    generate_table, scan_naive_query_snapshot, CacheMode, CompressionPolicy, ScanExecutor,
    StoredTable,
};
use slicer_cost::DiskParams;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// Deterministic splitmix-style stream over a test seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn random_schema(state: &mut u64) -> (TableSchema, usize) {
    let attrs = 3 + (next(state) % 5) as usize; // 3..=7
    let rows = 200 + (next(state) % 400) as usize;
    let mut b = TableSchema::builder("T", rows as u64);
    for i in 0..attrs {
        let (size, kind) = match next(state) % 4 {
            0 => (4, AttrKind::Int),
            1 => (8, AttrKind::Decimal),
            2 => (4, AttrKind::Date),
            _ => ((1 + next(state) % 24) as u32, AttrKind::Text),
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

/// The core race: `readers` threads scanning through one shared executor
/// while a writer thread keeps flipping the table between two layouts.
/// Every scan is held to the `scan_naive_query_snapshot` oracle on its own
/// pinned snapshot; returns the set of generations the readers observed.
fn race(
    table: &Arc<StoredTable>,
    layouts: [&Partitioning; 2],
    projections: &[AttrSet],
    policy_tag: &str,
    readers: usize,
    scans_per_reader: usize,
    flips: usize,
) -> HashSet<u64> {
    let disk = DiskParams::paper_testbed();
    // Projection checksums are layout-independent: one oracle pass under
    // the starting snapshot prices every future snapshot too.
    let start_snapshot = table.snapshot();
    let checksum_oracle: Vec<u64> = projections
        .iter()
        .map(|&p| scan_naive_query_snapshot(&start_snapshot, &Query::new("q", p), &disk).checksum)
        .collect();
    // Per-layout bytes_read: the only values an atomic snapshot can read.
    let bytes_oracle: Vec<[u64; 2]> = {
        let probes = layouts.map(|l| {
            StoredTable::load(
                &table.schema,
                // Rebuild from the table's own data via repartitioned
                // clone: a fresh load of the same source.
                &probe_data(table),
                l,
                table.policy,
            )
        });
        projections
            .iter()
            .map(|&p| {
                [
                    scan_naive_query_snapshot(&probes[0].snapshot(), &Query::new("q", p), &disk)
                        .bytes_read,
                    scan_naive_query_snapshot(&probes[1].snapshot(), &Query::new("q", p), &disk)
                        .bytes_read,
                ]
            })
            .collect()
    };

    let executor = ScanExecutor::with_mode(table, CacheMode::Warm);
    let writer_done = AtomicBool::new(false);
    let barrier = Barrier::new(readers + 1);
    let mut seen: HashSet<u64> = HashSet::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for reader in 0..readers {
            let executor = &executor;
            let barrier = &barrier;
            let writer_done = &writer_done;
            let checksum_oracle = &checksum_oracle;
            let bytes_oracle = &bytes_oracle;
            let disk = &disk;
            let table = Arc::clone(table);
            handles.push(s.spawn(move || {
                barrier.wait();
                let mut generations = HashSet::new();
                let mut k = 0usize;
                // Fixed scan count, plus keep scanning until the writer
                // finished so late flips race real traffic too.
                while k < scans_per_reader || !writer_done.load(Ordering::Relaxed) {
                    let i = (reader + k) % checksum_oracle.len();
                    let p = projections[i];
                    let snapshot = table.snapshot();
                    generations.insert(snapshot.generation);
                    let q = Query::new("q", p);
                    let fast = executor.scan_query_snapshot(&snapshot, &q, disk);
                    // Bit-exact against the oracle on the SAME pin.
                    let naive = scan_naive_query_snapshot(&snapshot, &q, disk);
                    assert_eq!(
                        fast.checksum, naive.checksum,
                        "[{policy_tag}] executor diverged from its pinned snapshot"
                    );
                    assert_eq!(fast.bytes_read, naive.bytes_read);
                    assert_eq!(fast.io_seconds.to_bits(), naive.io_seconds.to_bits());
                    // Layout-independent result.
                    assert_eq!(
                        fast.checksum, checksum_oracle[i],
                        "[{policy_tag}] scan returned wrong data"
                    );
                    // Atomicity: bytes_read matches exactly one published
                    // layout, never a half-moved mixture.
                    assert!(
                        bytes_oracle[i].contains(&fast.bytes_read),
                        "[{policy_tag}] scan observed a half-moved layout: \
                         {} not in {:?} (projection {p})",
                        fast.bytes_read,
                        bytes_oracle[i],
                    );
                    k += 1;
                }
                generations
            }));
        }
        // The writer: flip A↔B, yielding so readers interleave on one core.
        barrier.wait();
        for f in 0..flips {
            table.repartition(layouts[(f + 1) % 2], &disk);
            std::thread::yield_now();
        }
        writer_done.store(true, Ordering::Relaxed);
        for h in handles {
            seen.extend(h.join().expect("reader panicked"));
        }
    });
    seen
}

/// Regenerate the table's source data (same schema/rows/seed convention
/// used by every fixture below: seed 7).
fn probe_data(table: &StoredTable) -> slicer::storage::TableData {
    generate_table(&table.schema, table.rows(), 7)
}

#[test]
fn scans_racing_repartitions_match_pinned_oracles() {
    let (schema, rows) = {
        let mut state = 99u64;
        random_schema(&mut state)
    };
    let data = generate_table(&schema, rows, 7);
    let mut state = 4242u64;
    for policy in [
        CompressionPolicy::Default,
        CompressionPolicy::Dictionary,
        CompressionPolicy::None,
    ] {
        let layout_a = random_layout(&mut state, &schema);
        let layout_b = random_layout(&mut state, &schema);
        let projections: Vec<AttrSet> = (0..4)
            .map(|_| random_projection(&mut state, &schema))
            .chain([schema.all_attrs()])
            .collect();
        let table = Arc::new(StoredTable::load(&schema, &data, &layout_a, policy));
        let seen = race(
            &table,
            [&layout_a, &layout_b],
            &projections,
            &format!("{policy:?}"),
            4,
            24,
            16,
        );
        assert!(!seen.is_empty());
        // All 16 flips were published; the final generation is 16.
        assert_eq!(table.snapshot().generation, 16);
        assert!(
            seen.iter().all(|&g| g <= 16),
            "readers pinned only published generations: {seen:?}"
        );
    }
}

#[test]
fn warm_interleaved_scans_match_cold_scans_bit_for_bit() {
    // The PR-2 executor tied its warm arenas to one `&mut self`; two
    // threads interleaving warm scans of *different* projections through
    // one shared executor must nevertheless be bit-identical to cold
    // scans (the scratch pool hands each in-flight scan its own arenas).
    let mut state = 7u64;
    let (schema, rows) = random_schema(&mut state);
    let data = generate_table(&schema, rows, 7);
    let disk = DiskParams::paper_testbed();
    for policy in [CompressionPolicy::Default, CompressionPolicy::Dictionary] {
        let table = StoredTable::load(&schema, &data, &Partitioning::row(&schema), policy);
        let p1 = random_projection(&mut state, &schema);
        let p2 = schema.all_attrs();
        let (q1, q2) = (Query::new("q1", p1), Query::new("q2", p2));
        let cold1 = scan_naive_query_snapshot(&table.snapshot(), &q1, &disk);
        let cold2 = scan_naive_query_snapshot(&table.snapshot(), &q2, &disk);
        let warm = ScanExecutor::with_mode(&table, CacheMode::Warm);
        let rounds = 12usize;
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            let h1 = {
                let (warm, barrier, disk, table, q1) = (&warm, &barrier, &disk, &table, &q1);
                s.spawn(move || {
                    (0..rounds)
                        .map(|_| {
                            barrier.wait(); // lock-step interleave
                            warm.scan_query_snapshot(&table.snapshot(), q1, disk)
                        })
                        .collect::<Vec<_>>()
                })
            };
            let h2 = {
                let (warm, barrier, disk, table, q2) = (&warm, &barrier, &disk, &table, &q2);
                s.spawn(move || {
                    (0..rounds)
                        .map(|_| {
                            barrier.wait();
                            warm.scan_query_snapshot(&table.snapshot(), q2, disk)
                        })
                        .collect::<Vec<_>>()
                })
            };
            for r in h1.join().expect("warm scanner 1") {
                assert_eq!(r.checksum, cold1.checksum, "{policy:?}");
                assert_eq!(r.bytes_read, cold1.bytes_read);
            }
            for r in h2.join().expect("warm scanner 2") {
                assert_eq!(r.checksum, cold2.checksum, "{policy:?}");
                assert_eq!(r.bytes_read, cold2.bytes_read);
            }
        });
    }
}

#[test]
fn pinned_snapshots_are_immortal_while_held() {
    // A reader that pins a snapshot and goes to sleep must find it intact
    // after many re-partitions freed every intermediate snapshot.
    let mut state = 31u64;
    let (schema, rows) = random_schema(&mut state);
    let data = generate_table(&schema, rows, 7);
    let disk = DiskParams::paper_testbed();
    let table = StoredTable::load(
        &schema,
        &data,
        &Partitioning::row(&schema),
        CompressionPolicy::Default,
    );
    let p = schema.all_attrs();
    let pinned = table.snapshot();
    let q = Query::new("q", p);
    let before = scan_naive_query_snapshot(&pinned, &q, &disk);
    for _ in 0..8 {
        table.repartition(&Partitioning::column(&schema), &disk);
        table.repartition(&Partitioning::row(&schema), &disk);
    }
    assert_eq!(table.snapshot().generation, 16);
    let after = scan_naive_query_snapshot(&pinned, &q, &disk);
    assert_eq!(before.checksum, after.checksum);
    assert_eq!(before.bytes_read, after.bytes_read);
    assert_eq!(before.io_seconds.to_bits(), after.io_seconds.to_bits());
}

#[test]
fn serve_front_drain_racing_layout_flips_matches_the_oracle() {
    // The manager's multi-threaded drain with row <-> column flips
    // published mid-drain: its order-deterministic checksum accumulator
    // equals a sequential `scan_naive_query_snapshot` pass over the same
    // stream. A drain can finish before the first flip lands, so drain
    // until one spans two generations.
    let mut state = 77u64;
    let (schema, rows) = random_schema(&mut state);
    let data = generate_table(&schema, rows, 7);
    let disk = DiskParams::paper_testbed();
    let layouts = [Partitioning::row(&schema), Partitioning::column(&schema)];
    let table = StoredTable::load(&schema, &data, &layouts[0], CompressionPolicy::Default);
    let stream: Vec<Query> = (0..96)
        .map(|i| Query::new(format!("q{i}"), random_projection(&mut state, &schema)))
        .collect();
    let oracle = stream.iter().enumerate().fold(0u64, |acc, (i, q)| {
        acc ^ scan_naive_query_snapshot(&table.snapshot(), q, &disk)
            .checksum
            .rotate_left((i % 63) as u32)
    });
    let mut manager = TableManager::new(
        table,
        Box::new(HillClimb::new()),
        HddCostModel::paper_testbed(),
        TableManagerConfig {
            advise_every: u64::MAX, // the test flips layouts itself
            ..TableManagerConfig::default()
        },
    );
    let handle = manager.table_handle();
    let raced = (0..16).any(|_| {
        let (report, ()) = manager
            .serve_batch_with(&stream, 4, |_| {
                for k in 0..8 {
                    handle.repartition(&layouts[(k + 1) % 2], &disk);
                    std::thread::yield_now();
                }
            })
            .expect("stream fits the schema");
        assert_eq!(report.queries, stream.len() as u64);
        assert_eq!(
            report.checksum, oracle,
            "a drained scan read the wrong data"
        );
        report.max_generation > report.min_generation
    });
    assert!(raced, "no flip landed mid-drain in 16 drains");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property form of the race: random schema, random layout pair,
    /// random projections, random policy — concurrent scans through one
    /// shared executor match the pinned-snapshot oracle bit for bit.
    #[test]
    fn concurrent_scans_match_oracle_for_any_snapshot_they_pinned(seed in any::<u64>()) {
        let mut state = seed;
        let (schema, rows) = random_schema(&mut state);
        let data = generate_table(&schema, rows, 7);
        let policy = match next(&mut state) % 3 {
            0 => CompressionPolicy::None,
            1 => CompressionPolicy::Default,
            _ => CompressionPolicy::Dictionary,
        };
        let layout_a = random_layout(&mut state, &schema);
        let layout_b = random_layout(&mut state, &schema);
        let projections: Vec<AttrSet> = (0..3)
            .map(|_| random_projection(&mut state, &schema))
            .collect();
        let table = Arc::new(StoredTable::load(&schema, &data, &layout_a, policy));
        let seen = race(
            &table,
            [&layout_a, &layout_b],
            &projections,
            &format!("{policy:?}"),
            3,
            9,
            6,
        );
        prop_assert!(!seen.is_empty());
        prop_assert_eq!(table.snapshot().generation, 6);
    }
}
