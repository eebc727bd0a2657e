//! Golden byte fixtures for every persisted format: the manifest, the
//! partition-file image, the WAL and the ingest-batch image.
//!
//! Round-trip and fuzz suites cannot see an encoder and a decoder that
//! drift together. These fixtures can: each is a byte image written once
//! by the engine and committed under `tests/fixtures/`. The tests check
//! both directions:
//!
//! * today's encoders rebuild every fixture byte for byte from the same
//!   seed-fixed inputs;
//! * today's decoders open every fixture to the recovery report and the
//!   `scan_naive_query_snapshot` checksum recorded here.
//!
//! Policy: a change to a format bumps that format's version and adds a
//! fixture directory for the new version. A committed fixture is never
//! edited or regenerated; the old version's fixtures stay and keep
//! testing the reader.
//!
//! Contents of `fixtures/v2/` (partition-image and manifest
//! `FORMAT_VERSION` 2):
//!
//! * `table-{default,dictionary,none}/` — one durable `MemDir` image per
//!   [`CompressionPolicy`]: `MANIFEST`, partition files and the active WAL
//!   of a table with one attribute per [`AttrKind`], two chunks per
//!   segment, one ingest before a folding repartition and two after it;
//! * `wal-torn.log` — that WAL (the same bytes under every policy) with
//!   its final record cut short;
//! * `ingest-batch.bin` — one [`encode_ingest_batch`] image carrying rows
//!   of every kind and deletes.

use slicer_cost::DiskParams;
use slicer_model::{AttrKind, AttrSet, Partitioning, Query, TableSchema};
use slicer_storage::{
    decode_ingest_batch, encode_ingest_batch, generate_table, scan_naive_query_snapshot,
    CompressionPolicy, Dir, IngestBatch, MemDir, RecoveryReport, StoredTable, TornTail, CHUNK_ROWS,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Base rows: two chunks per segment, the second one short.
const ROWS: usize = CHUNK_ROWS + 52;
const SEED: u64 = 0x5EED_0002;

/// Checksum of the full table (every attribute) after all three ingests.
/// Compression does not change values, so every policy shares it.
const CHECKSUM_FULL: u64 = 0x6118_7dbb_98a0_f979;
/// The same with the final ingest torn off.
const CHECKSUM_TORN: u64 = 0xfcb2_4a52_a15f_4e91;

const POLICIES: [(CompressionPolicy, &str); 3] = [
    (CompressionPolicy::Default, "default"),
    (CompressionPolicy::Dictionary, "dictionary"),
    (CompressionPolicy::None, "none"),
];

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2")
}

fn schema() -> TableSchema {
    TableSchema::builder("golden", ROWS as u64)
        .attr("K", 4, AttrKind::Int)
        .attr("P", 8, AttrKind::Decimal)
        .attr("D", 4, AttrKind::Date)
        .attr("S", 7, AttrKind::Text)
        .build()
        .unwrap()
}

fn layout(schema: &TableSchema, groups: &[&[usize]]) -> Partitioning {
    let sets = groups
        .iter()
        .map(|g| g.iter().copied().collect::<AttrSet>())
        .collect();
    Partitioning::new(schema, sets).unwrap()
}

/// The fixture's final layout, after the repartition.
fn final_layout(schema: &TableSchema) -> Partitioning {
    layout(schema, &[&[0], &[1, 2], &[3]])
}

fn batches(schema: &TableSchema) -> [IngestBatch; 3] {
    [
        IngestBatch {
            appends: Some(generate_table(schema, 5, SEED + 1)),
            deletes: vec![2, 2048, 2099],
        },
        IngestBatch::append(generate_table(schema, 3, SEED + 2)),
        IngestBatch {
            appends: Some(generate_table(schema, 4, SEED + 3)),
            deletes: vec![0, 7, 2101],
        },
    ]
}

/// Build the fixture table under `policy` with today's encoders and
/// return its durable image.
fn build_image(policy: CompressionPolicy) -> BTreeMap<String, Vec<u8>> {
    let schema = schema();
    let disk = DiskParams::paper_testbed();
    let dir = Arc::new(MemDir::new());
    let table = StoredTable::create(
        &schema,
        &generate_table(&schema, ROWS, SEED),
        &layout(&schema, &[&[0, 1], &[2, 3]]),
        policy,
        dir.clone() as Arc<dyn Dir>,
    )
    .unwrap();
    let [b1, b2, b3] = batches(&schema);
    table.ingest(&b1, &disk).unwrap();
    table.repartition(&final_layout(&schema), &disk);
    table.ingest(&b2, &disk).unwrap();
    table.ingest(&b3, &disk).unwrap();
    dir.image()
}

fn read_image(path: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(path)
        .unwrap_or_else(|e| panic!("fixture directory {}: {e}", path.display()))
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect()
}

fn wal_file(image: &BTreeMap<String, Vec<u8>>) -> String {
    let mut wals = image.keys().filter(|n| n.starts_with("wal-"));
    let name = wals.next().expect("the image holds a WAL").clone();
    assert!(wals.next().is_none(), "exactly one WAL");
    name
}

fn open(image: BTreeMap<String, Vec<u8>>) -> (StoredTable, RecoveryReport) {
    StoredTable::open(
        &schema(),
        Arc::new(MemDir::from_image(image)) as Arc<dyn Dir>,
    )
    .expect("a fixture opens")
}

fn checksum(table: &StoredTable) -> u64 {
    let q = Query::new("all", table.schema.all_attrs());
    scan_naive_query_snapshot(&table.snapshot(), &q, &DiskParams::paper_testbed()).checksum
}

/// What opening the complete image reports.
fn full_report() -> RecoveryReport {
    RecoveryReport {
        generation: 2,
        wal_records: 2,
        rows_appended: 7,
        rows_deleted: 3,
        orphans_removed: 0,
        torn: None,
    }
}

/// What opening the image with `wal-torn.log` in place of its WAL reports.
fn torn_report() -> RecoveryReport {
    RecoveryReport {
        generation: 2,
        wal_records: 1,
        rows_appended: 3,
        rows_deleted: 0,
        orphans_removed: 0,
        torn: Some(TornTail {
            valid_bytes: 144,
            discarded_bytes: 162,
            reason: "truncated record body (154 of 161 bytes)".into(),
        }),
    }
}

#[test]
fn todays_encoders_reproduce_every_table_image() {
    for (policy, name) in POLICIES {
        let golden = read_image(&fixtures().join(format!("table-{name}")));
        let built = build_image(policy);
        assert_eq!(
            built.keys().collect::<Vec<_>>(),
            golden.keys().collect::<Vec<_>>(),
            "{name}: file set"
        );
        for (file, bytes) in &golden {
            assert!(
                built[file] == *bytes,
                "{name}: {file} differs from its fixture"
            );
        }
    }
}

#[test]
fn todays_decoders_open_every_table_image() {
    let schema = schema();
    for (_, name) in POLICIES {
        let image = read_image(&fixtures().join(format!("table-{name}")));
        let (table, report) = open(image);
        assert_eq!(report, full_report(), "{name}");
        assert_eq!(table.layout(), final_layout(&schema), "{name}");
        assert_eq!(checksum(&table), CHECKSUM_FULL, "{name}");
    }
}

#[test]
fn a_torn_final_record_opens_to_the_intact_prefix() {
    let torn = std::fs::read(fixtures().join("wal-torn.log")).unwrap();
    for (_, name) in POLICIES {
        let mut image = read_image(&fixtures().join(format!("table-{name}")));
        let wal = wal_file(&image);
        assert!(
            image[&wal].starts_with(&torn),
            "{name}: the torn WAL is a prefix"
        );
        image.insert(wal, torn.clone());
        let (table, report) = open(image);
        assert_eq!(report, torn_report(), "{name}");
        assert_eq!(checksum(&table), CHECKSUM_TORN, "{name}");
    }
}

#[test]
fn ingest_batch_image_is_frozen() {
    let golden = std::fs::read(fixtures().join("ingest-batch.bin")).unwrap();
    let [_, _, batch] = batches(&schema());
    assert_eq!(encode_ingest_batch(&batch), golden);
    let back = decode_ingest_batch(&golden).unwrap();
    assert_eq!(back.appends, batch.appends);
    assert_eq!(back.deletes, batch.deletes);
}
