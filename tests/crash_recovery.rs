//! Crash-recovery properties of the durable write path.
//!
//! The contract under test: after a crash at *any* durability boundary
//! ([`CrashPoint`]), reopening the surviving bytes yields a table whose
//! scans are bit-identical to an oracle that never crashed — acknowledged
//! ingest batches survive, an interrupted repartition either fully happened
//! or never happened, and a torn WAL tail drops exactly the un-acked
//! suffix. Crashes are injected with [`CrashDir`], which captures the
//! durable image at the armed boundary and black-holes every later write —
//! the moral equivalent of a power cut at that instant.

use proptest::prelude::*;
use slicer::model::{AttrKind, AttrSet, Partitioning, Query, TableSchema};
use slicer::storage::{
    crc32, generate_table, scan_naive_query_snapshot, CompressionPolicy, CrashDir, CrashPoint, Dir,
    FsDir, IngestBatch, MemDir, ScanExecutor, StoredTable, TableData,
};
use slicer_cost::DiskParams;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Deterministic splitmix-style stream over a test seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn random_schema(state: &mut u64) -> (TableSchema, usize) {
    let attrs = 2 + (next(state) % 5) as usize; // 2..=6
    let rows = 50 + (next(state) % 200) as usize; // 50..=249
    let mut b = TableSchema::builder("T", rows as u64);
    for i in 0..attrs {
        let (size, kind) = match next(state) % 4 {
            0 => (4, AttrKind::Int),
            1 => (8, AttrKind::Decimal),
            2 => (4, AttrKind::Date),
            _ => ((1 + next(state) % 20) as u32, AttrKind::Text),
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

/// Sorted, deduplicated delete ids below `total`, disjoint from `used`
/// (which they join). May be empty.
fn random_deletes(state: &mut u64, total: u64, used: &mut BTreeSet<u64>, max_n: u64) -> Vec<u64> {
    let want = next(state) % (max_n + 1);
    let mut ids = BTreeSet::new();
    for _ in 0..want.min(total) {
        let id = next(state) % total;
        if !used.contains(&id) {
            ids.insert(id);
        }
    }
    used.extend(ids.iter().copied());
    ids.into_iter().collect()
}

/// A random mixed batch over the current visible state: some appended rows
/// (maybe none), some deletes (maybe none), never both empty.
fn random_batch(
    state: &mut u64,
    schema: &TableSchema,
    total_rows: u64,
    used: &mut BTreeSet<u64>,
) -> IngestBatch {
    let appended = (next(state) % 40) as usize;
    let deletes = random_deletes(state, total_rows, used, 10);
    if appended == 0 && deletes.is_empty() {
        return IngestBatch::append(generate_table(schema, 5, next(state)));
    }
    IngestBatch {
        appends: (appended > 0).then(|| generate_table(schema, appended, next(state))),
        deletes,
    }
}

/// Scans of `recovered` are bit-identical to `oracle` over `projections`,
/// through both the naive oracle path and the vectorized executor.
fn assert_scans_identical(
    recovered: &StoredTable,
    oracle: &StoredTable,
    projections: &[AttrSet],
    disk: &DiskParams,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(recovered.layout(), oracle.layout());
    prop_assert_eq!(recovered.rows(), oracle.rows());
    let exec = ScanExecutor::new(recovered);
    let (recovered_snap, oracle_snap) = (recovered.snapshot(), oracle.snapshot());
    for &p in projections {
        let q = Query::new("q", p);
        let r = scan_naive_query_snapshot(&recovered_snap, &q, disk);
        let o = scan_naive_query_snapshot(&oracle_snap, &q, disk);
        prop_assert_eq!(r.checksum, o.checksum, "naive checksum diverged on {}", p);
        prop_assert_eq!(r.bytes_read, o.bytes_read);
        prop_assert_eq!(r.io_seconds.to_bits(), o.io_seconds.to_bits());
        let e = exec.scan_query_snapshot(&recovered_snap, &q, disk);
        prop_assert_eq!(
            e.checksum,
            o.checksum,
            "executor checksum diverged on {}",
            p
        );
        prop_assert_eq!(e.bytes_read, o.bytes_read);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Kill the engine at every [`CrashPoint`], reopen what survived, and
    /// compare scans against a never-crashed oracle applying exactly the
    /// durable operations: batches acked into the WAL survive; an
    /// interrupted repartition is all-or-nothing at the manifest swing.
    #[test]
    fn every_crash_point_recovers_to_the_oracle(seed in any::<u64>()) {
        let mut state = seed;
        let (schema, rows) = random_schema(&mut state);
        let data = generate_table(&schema, rows, next(&mut state));
        let policy = if next(&mut state) & 1 == 0 {
            CompressionPolicy::Default
        } else {
            CompressionPolicy::Dictionary
        };
        let source = random_layout(&mut state, &schema);
        let target = random_layout(&mut state, &schema);
        let disk = DiskParams::paper_testbed();
        let projections = [
            schema.all_attrs(),
            random_projection(&mut state, &schema),
            random_projection(&mut state, &schema),
        ];
        // The same pre-crash batches drive every scenario.
        let mut used = BTreeSet::new();
        let b1 = random_batch(&mut state, &schema, rows as u64, &mut used);
        let total_after_b1 = rows as u64 + b1.appended_rows() as u64;
        let b2 = random_batch(&mut state, &schema, total_after_b1, &mut used);
        let total_after_b2 = total_after_b1 + b2.appended_rows() as u64;
        let b3 = random_batch(&mut state, &schema, total_after_b2, &mut used.clone());

        for point in CrashPoint::ALL {
            let dir = Arc::new(CrashDir::new());
            let subject = StoredTable::create(
                &schema,
                &data,
                &source,
                policy,
                dir.clone() as Arc<dyn Dir>,
            )
            .expect("create");
            subject.ingest(&b1, &disk).expect("b1");
            subject.ingest(&b2, &disk).expect("b2");
            dir.arm(point);
            match point {
                // The crash fires inside this ingest, *after* its WAL
                // append: the batch is durable and must be recovered.
                CrashPoint::AfterWalAppend => {
                    subject.ingest(&b3, &disk).expect("b3");
                }
                // The crash fires inside the delta-folding repartition.
                _ => {
                    subject.repartition(&target, &disk);
                }
            }
            prop_assert!(dir.crashed(), "{point} never fired");

            let image = Arc::new(dir.image_dir());
            let (recovered, report) =
                StoredTable::open(&schema, image.clone() as Arc<dyn Dir>).expect("open");

            // The never-crashed oracle applies exactly the durable ops.
            let oracle = StoredTable::load(&schema, &data, &source, policy);
            oracle.ingest(&b1, &disk).expect("oracle b1");
            oracle.ingest(&b2, &disk).expect("oracle b2");
            match point {
                CrashPoint::AfterWalAppend => {
                    oracle.ingest(&b3, &disk).expect("oracle b3");
                    prop_assert_eq!(report.wal_records, 3);
                    prop_assert_eq!(report.torn.clone(), None);
                }
                CrashPoint::MidFold | CrashPoint::BeforeSnapshotPublish => {
                    // Pre-move state: the manifest never swung, so the
                    // repartition never happened; partial rebuilt files
                    // are swept as orphans.
                    prop_assert_eq!(report.wal_records, 2);
                    prop_assert!(report.orphans_removed >= 1, "partial files must be swept");
                }
                CrashPoint::MidTruncate => {
                    // Post-move state: the manifest swung, the delta is
                    // folded; the superseded WAL and parts are orphans.
                    oracle.repartition(&target, &disk);
                    prop_assert_eq!(report.wal_records, 0);
                    prop_assert!(report.orphans_removed >= 1, "old WAL must be swept");
                    prop_assert!(recovered.snapshot().delta.is_empty());
                }
            }
            assert_scans_identical(&recovered, &oracle, &projections, &disk)?;

            // Life goes on after recovery: further ingest on the reopened
            // table is durable and reopens identically once more.
            recovered.ingest(&b3, &disk).ok(); // may collide with deletes; both reject
            oracle.ingest(&b3, &disk).ok();
            let (again, _) =
                StoredTable::open(&schema, image as Arc<dyn Dir>).expect("second open");
            assert_scans_identical(&again, &oracle, &projections, &disk)?;
        }
    }
}

/// The exact WAL record boundaries of `bytes`, walked by the public frame
/// layout (`[len u32][crc u32][body]`): offset *after* each record.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut off = 0usize;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
        ends.push(off);
    }
    assert_eq!(ends.last(), Some(&bytes.len()), "WAL ends on a boundary");
    ends
}

fn fuzz_schema() -> TableSchema {
    TableSchema::builder("T", 120)
        .attr("A", 4, AttrKind::Int)
        .attr("B", 8, AttrKind::Decimal)
        .attr("C", 9, AttrKind::Text)
        .build()
        .unwrap()
}

/// Build a durable two-batch table and return (image, wal name, oracle
/// with only batch 1, oracle with both batches).
fn torn_tail_fixture() -> (MemDir, String, StoredTable, StoredTable, TableData) {
    let schema = fuzz_schema();
    let data = generate_table(&schema, 120, 11);
    let disk = DiskParams::paper_testbed();
    let layout = Partitioning::row(&schema);
    let dir = Arc::new(MemDir::new());
    let subject = StoredTable::create(
        &schema,
        &data,
        &layout,
        CompressionPolicy::Default,
        dir.clone() as Arc<dyn Dir>,
    )
    .unwrap();
    let b1 = IngestBatch {
        appends: Some(generate_table(&schema, 17, 5)),
        deletes: vec![3, 40, 77],
    };
    let b2 = IngestBatch {
        appends: Some(generate_table(&schema, 9, 6)),
        deletes: vec![8, 120],
    };
    subject.ingest(&b1, &disk).unwrap();
    subject.ingest(&b2, &disk).unwrap();
    let oracle1 = StoredTable::load(&schema, &data, &layout, CompressionPolicy::Default);
    oracle1.ingest(&b1, &disk).unwrap();
    let oracle2 = StoredTable::load(&schema, &data, &layout, CompressionPolicy::Default);
    oracle2.ingest(&b1, &disk).unwrap();
    oracle2.ingest(&b2, &disk).unwrap();
    let wal_name = dir
        .list()
        .unwrap()
        .into_iter()
        .find(|n| n.starts_with("wal-"))
        .unwrap();
    (
        MemDir::from_image(dir.image()),
        wal_name,
        oracle1,
        oracle2,
        data,
    )
}

fn checksum_of(table: &StoredTable) -> u64 {
    let disk = DiskParams::paper_testbed();
    let q = Query::new("all", table.schema.all_attrs());
    scan_naive_query_snapshot(&table.snapshot(), &q, &disk).checksum
}

/// Truncate the WAL at *every* byte boundary of its final record: recovery
/// drops exactly the torn suffix (never a full record more, never less),
/// never panics, reports the tear, and truncates the file so the table is
/// clean on the next open.
#[test]
fn torn_tail_truncation_at_every_byte() {
    let (dir, wal_name, oracle1, oracle2, _) = torn_tail_fixture();
    let schema = fuzz_schema();
    let wal = dir.read(&wal_name).unwrap().unwrap();
    let ends = record_ends(&wal);
    assert_eq!(ends.len(), 3, "publish + two ingest records");
    let (intact, full) = (ends[1], ends[2]);
    let (sum1, sum2) = (checksum_of(&oracle1), checksum_of(&oracle2));
    assert_ne!(sum1, sum2);

    for t in intact..=full {
        let mut image = dir.image();
        image.insert(wal_name.clone(), wal[..t].to_vec());
        let torn_dir = Arc::new(MemDir::from_image(image));
        let (recovered, report) =
            StoredTable::open(&schema, torn_dir.clone() as Arc<dyn Dir>).expect("open never fails");
        if t == full {
            assert_eq!(report.torn, None);
            assert_eq!(report.wal_records, 2);
            assert_eq!(checksum_of(&recovered), sum2);
            continue;
        }
        assert_eq!(report.wal_records, 1, "only the intact batch replays");
        assert_eq!(checksum_of(&recovered), sum1);
        if t == intact {
            assert_eq!(report.torn, None, "a clean boundary is not a tear");
        } else {
            let torn = report.torn.clone().expect("mid-record cut is a tear");
            assert_eq!(torn.valid_bytes, intact, "keeps exactly the intact prefix");
            assert_eq!(torn.discarded_bytes, t - intact);
            let logged = format!("{report}");
            assert!(
                logged.contains("torn tail"),
                "report must log the tear: {logged}"
            );
            // Recovery truncated the file: the next open is clean.
            assert_eq!(torn_dir.read(&wal_name).unwrap().unwrap().len(), intact);
        }
        let (again, second) =
            StoredTable::open(&schema, torn_dir as Arc<dyn Dir>).expect("second open");
        assert_eq!(second.torn, None, "the tear was repaired on first open");
        assert_eq!(checksum_of(&again), sum1);
    }
}

/// Flip bits in every byte of the final WAL record: the CRC (or frame
/// validation) rejects the record, recovery keeps the intact prefix, and
/// nothing panics.
#[test]
fn corrupted_final_record_is_dropped_never_panics() {
    let (dir, wal_name, oracle1, _, _) = torn_tail_fixture();
    let schema = fuzz_schema();
    let wal = dir.read(&wal_name).unwrap().unwrap();
    let ends = record_ends(&wal);
    let (intact, full) = (ends[1], ends[2]);
    let sum1 = checksum_of(&oracle1);

    for idx in intact..full {
        for mask in [0x01u8, 0x80u8] {
            let mut bytes = wal.clone();
            bytes[idx] ^= mask;
            let mut image = dir.image();
            image.insert(wal_name.clone(), bytes);
            let flip_dir = Arc::new(MemDir::from_image(image));
            let (recovered, report) = StoredTable::open(&schema, flip_dir as Arc<dyn Dir>)
                .expect("a corrupt tail record must recover, not error");
            assert_eq!(report.wal_records, 1, "byte {idx} mask {mask:#x}");
            let torn = report.torn.expect("the flipped record is a tear");
            assert_eq!(torn.valid_bytes, intact);
            assert_eq!(checksum_of(&recovered), sum1);
        }
    }

    // A final record whose CRC is valid but whose batch declares 2^40
    // decimal rows in 14 bytes: a tear that keeps the intact prefix, not
    // an allocation of 2^40 values.
    let mut body = wal[intact + 8..intact + 16].to_vec(); // its sequence number
    body.push(2); // an ingest record
    body.push(1);
    body.extend_from_slice(&(1u64 << 40).to_le_bytes());
    body.extend_from_slice(&1u32.to_le_bytes());
    body.push(1);
    let mut bytes = wal[..intact].to_vec();
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&body).to_le_bytes());
    bytes.extend_from_slice(&body);
    let mut image = dir.image();
    image.insert(wal_name.clone(), bytes);
    let crafted_dir = Arc::new(MemDir::from_image(image));
    let (recovered, report) = StoredTable::open(&schema, crafted_dir as Arc<dyn Dir>)
        .expect("a CRC-valid but implausible record must recover, not error");
    assert_eq!(report.wal_records, 1);
    let torn = report.torn.expect("the implausible record is a tear");
    assert_eq!(torn.valid_bytes, intact);
    assert!(torn.reason.contains("row count"), "{}", torn.reason);
    assert_eq!(checksum_of(&recovered), sum1);
}

/// The explicit repartition-mid-fold kill: a crash after some (but not
/// all) rebuilt partition files are written must leave the pre-move
/// snapshot fully intact — original layout, delta still pending — and
/// sweep the half-written files.
#[test]
fn mid_fold_kill_preserves_the_premove_snapshot() {
    let schema = fuzz_schema();
    let data = generate_table(&schema, 200, 3);
    let disk = DiskParams::paper_testbed();
    let row = Partitioning::row(&schema);
    let column = Partitioning::column(&schema);
    let dir = Arc::new(CrashDir::new());
    let subject = StoredTable::create(
        &schema,
        &data,
        &row,
        CompressionPolicy::Default,
        dir.clone() as Arc<dyn Dir>,
    )
    .unwrap();
    let batch = IngestBatch {
        appends: Some(generate_table(&schema, 25, 9)),
        deletes: vec![0, 199],
    };
    subject.ingest(&batch, &disk).unwrap();
    let pre_move = checksum_of(&subject);

    dir.arm(CrashPoint::MidFold);
    subject.repartition(&column, &disk);
    assert!(dir.crashed());
    // The live (post-crash, in-memory) table did move — but the durable
    // image must not have.
    assert_eq!(subject.layout(), column);

    let image = Arc::new(dir.image_dir());
    let (recovered, report) = StoredTable::open(&schema, image as Arc<dyn Dir>).unwrap();
    assert_eq!(recovered.layout(), row, "pre-move layout survives");
    assert!(
        !recovered.snapshot().delta.is_empty(),
        "the delta is still pending, not half-folded"
    );
    assert_eq!(checksum_of(&recovered), pre_move);
    assert!(
        report.orphans_removed >= 1,
        "the half-written rebuilt file is swept"
    );
    assert_eq!(report.wal_records, 1);
}

/// End-to-end durability through the real filesystem backend: create,
/// ingest, drop the process state, reopen from disk, fold, reopen again.
#[test]
fn fsdir_roundtrip_survives_reopen_and_fold() {
    let root = std::env::temp_dir().join(format!("slicer-crash-fs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let schema = fuzz_schema();
    let data = generate_table(&schema, 150, 21);
    let disk = DiskParams::paper_testbed();
    let sum;
    {
        let dir = Arc::new(FsDir::open(&root).unwrap());
        let t = StoredTable::create(
            &schema,
            &data,
            &Partitioning::row(&schema),
            CompressionPolicy::Default,
            dir as Arc<dyn Dir>,
        )
        .unwrap();
        t.ingest(&IngestBatch::append(generate_table(&schema, 30, 2)), &disk)
            .unwrap();
        t.ingest(&IngestBatch::delete(vec![10, 20, 160]), &disk)
            .unwrap();
        sum = checksum_of(&t);
    }
    {
        let dir = Arc::new(FsDir::open(&root).unwrap());
        let (t, report) = StoredTable::open(&schema, dir as Arc<dyn Dir>).unwrap();
        assert_eq!(report.wal_records, 2);
        assert_eq!(checksum_of(&t), sum);
        t.repartition(&Partitioning::column(&schema), &disk);
        assert_eq!(checksum_of(&t), sum);
    }
    let dir = Arc::new(FsDir::open(&root).unwrap());
    let (t, report) = StoredTable::open(&schema, dir as Arc<dyn Dir>).unwrap();
    assert_eq!(report.wal_records, 0, "the fold truncated the WAL");
    assert_eq!(t.layout(), Partitioning::column(&schema));
    assert_eq!(checksum_of(&t), sum);
    let _ = std::fs::remove_dir_all(&root);
}
