//! Block skipping, property-tested: whatever the schema, layout,
//! compression policy, predicate, or delta history, the pruned scan path
//! is bit-identical to the predicate-filtered naive oracle — which reads
//! every file unpruned — and never reads *more* bytes than it.
//!
//! Three lifecycles are covered:
//!
//! * **Cold and warm** — a fresh [`ScanExecutor`] and a reused one (whose
//!   decode cache is hot) agree with the oracle on every random query.
//! * **Deltas + live repartition** — appends and deletes filter through
//!   the same predicate, and a snapshot pinned *before* a repartition
//!   flip keeps answering exactly while scans on the flipped table use
//!   the new files' freshly built pruning metadata.
//! * **Crash recovery** — a table reopened from its manifest + WAL prunes
//!   from the persisted zone maps / blooms and still matches both the
//!   oracle and the pre-crash answers.
//!
//! A fourth, deterministic suite pins the chunk-local read path: a table
//! clustered on every column kind, so a range on any driver keeps exactly
//! the chunk it names — first, last, or the short tail — under every
//! compression policy, with tombstones on both sides of the keep-mask.

use proptest::prelude::*;
use slicer_cost::DiskParams;
use slicer_model::{
    AttrKind, AttrSet, Literal, Partitioning, PredClause, PredOp, Predicate, Query, TableSchema,
};
use slicer_storage::{
    generate_table, scan_naive_query_snapshot, ColumnData, CompressionPolicy, IngestBatch, MemDir,
    ScanExecutor, StoredTable, TableData, CHUNK_ROWS,
};
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
    let attrs = 3 + (next(state) % 5) as usize; // 3..=7
                                                // Up to ~5000 rows so tables span one to three pruning chunks.
    let rows = 400 + (next(state) % 4600) as usize;
    let mut b = TableSchema::builder("T", rows as u64);
    for i in 0..attrs {
        let (size, kind) = match next(state) % 4 {
            0 => (4, AttrKind::Int),
            1 => (8, AttrKind::Decimal),
            2 => (4, AttrKind::Date),
            _ => ((1 + next(state) % 25) as u32, AttrKind::Text),
        };
        b = b.attr(format!("A{i}"), size, kind);
    }
    (b.build().expect("valid random schema"), rows)
}

fn random_layout(state: &mut u64, schema: &TableSchema) -> Partitioning {
    let n = schema.attr_count();
    let k = 1 + (next(state) % n as u64) as usize;
    let mut groups: Vec<AttrSet> = vec![AttrSet::default(); k];
    for a in 0..n {
        groups[(next(state) % k as u64) as usize].insert(a);
    }
    groups.retain(|g| !g.is_empty());
    Partitioning::new(schema, groups).expect("random layout covers the schema")
}

fn random_policy(state: &mut u64) -> CompressionPolicy {
    match next(state) % 3 {
        0 => CompressionPolicy::None,
        1 => CompressionPolicy::Dictionary,
        _ => CompressionPolicy::Default,
    }
}

/// A literal for `attr`, usually sampled from the actual data (so
/// predicates hit) and sometimes perturbed or out-of-domain (so zone
/// maps get to reject whole tables).
fn random_literal(state: &mut u64, data: &TableData, attr: usize) -> Literal {
    let row = (next(state) % data.rows as u64) as usize;
    let miss = next(state).is_multiple_of(4);
    match &data.columns[attr] {
        ColumnData::Int(v) => {
            let x = if miss { i32::MAX - 7 } else { v[row] };
            Literal::int(x)
        }
        ColumnData::Date(v) => {
            let x = if miss { -9 } else { v[row] };
            Literal::date(x)
        }
        ColumnData::Decimal(v) => {
            let x = if miss { v[row].wrapping_add(1) } else { v[row] };
            Literal::decimal(x)
        }
        ColumnData::Text(v) => {
            if miss {
                Literal::text("\u{7f}zzz-never-generated")
            } else {
                Literal::text(v[row].clone())
            }
        }
    }
}

fn random_predicate(state: &mut u64, schema: &TableSchema, data: &TableData) -> Predicate {
    let clauses = 1 + (next(state) % 2) as usize;
    let mut out = Vec::with_capacity(clauses);
    for _ in 0..clauses {
        let attr = (next(state) % schema.attr_count() as u64) as usize;
        let op = match next(state) % 3 {
            0 => PredOp::Eq,
            1 => PredOp::Le,
            _ => PredOp::Ge,
        };
        out.push(PredClause::new(
            schema.attr_id(&format!("A{attr}")).unwrap(),
            op,
            random_literal(state, data, attr),
        ));
    }
    Predicate::new(out)
}

fn random_query(state: &mut u64, schema: &TableSchema, data: &TableData, tag: u64) -> Query {
    let n = schema.attr_count();
    let mut set = AttrSet::default();
    for a in 0..n {
        if next(state) & 1 == 1 {
            set.insert(a);
        }
    }
    if set.is_empty() {
        set.insert((next(state) % n as u64) as usize);
    }
    // One query in five stays a pure projection: the legacy path must keep
    // riding along unchanged.
    if next(state).is_multiple_of(5) {
        return Query::new(format!("q{tag}"), set);
    }
    // Predicate drivers must be referenced — the scan has to decode them
    // to evaluate the clauses.
    let predicate = random_predicate(state, schema, data);
    for a in predicate.attrs().iter() {
        set.insert(a);
    }
    Query::new(format!("q{tag}"), set).with_predicate(predicate)
}

/// Fresh rows for an append: same schema, different seed, small count.
fn random_appends(state: &mut u64, schema: &TableSchema) -> TableData {
    let rows = 1 + (next(state) % 300) as usize;
    generate_table(schema, rows, next(state))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Cold and warm pruned scans are bit-identical to the
    /// predicate-filtered oracle and never read more bytes than it.
    #[test]
    fn pruned_scans_match_the_oracle_cold_and_warm(seed in any::<u64>()) {
        let mut state = seed;
        let (schema, rows) = random_schema(&mut state);
        let data = generate_table(&schema, rows, next(&mut state));
        let layout = random_layout(&mut state, &schema);
        let table = StoredTable::load(&schema, &data, &layout, random_policy(&mut state));
        let disk = DiskParams::paper_testbed();
        let warm = ScanExecutor::new(&table);
        for i in 0..6u64 {
            let q = random_query(&mut state, &schema, &data, i);
            let oracle = scan_naive_query_snapshot(&table.snapshot(), &q, &disk);
            let cold = ScanExecutor::new(&table).scan_query_snapshot(&table.snapshot(), &q, &disk);
            let hot = warm.scan_query_snapshot(&table.snapshot(), &q, &disk);
            prop_assert_eq!(cold.checksum, oracle.checksum, "cold scan diverged on {:?}", q);
            prop_assert_eq!(hot.checksum, oracle.checksum, "warm scan diverged on {:?}", q);
            prop_assert!(cold.bytes_read <= oracle.bytes_read);
            prop_assert!(hot.bytes_read <= oracle.bytes_read);
        }
    }

    /// (b) Predicates filter the delta store identically, and a snapshot
    /// pinned before a live repartition flip answers exactly while the
    /// flipped table prunes from the new files' metadata.
    #[test]
    fn pruning_survives_deltas_and_live_repartition(seed in any::<u64>()) {
        let mut state = seed;
        let (schema, rows) = random_schema(&mut state);
        let data = generate_table(&schema, rows, next(&mut state));
        let layout = random_layout(&mut state, &schema);
        let table = StoredTable::load(&schema, &data, &layout, random_policy(&mut state));
        let disk = DiskParams::paper_testbed();
        table
            .ingest(&IngestBatch::append(random_appends(&mut state, &schema)), &disk)
            .expect("append fits the schema");
        let deletes: Vec<u64> = (0..3).map(|_| next(&mut state) % rows as u64).collect();
        table.ingest(&IngestBatch::delete(deletes), &disk).expect("ids are visible");

        let pinned = table.snapshot();
        let queries: Vec<Query> =
            (0..4u64).map(|i| random_query(&mut state, &schema, &data, i)).collect();
        let before: Vec<u64> = queries
            .iter()
            .map(|q| {
                let got =
                    ScanExecutor::new(&table).scan_query_snapshot(&table.snapshot(), q, &disk);
                let oracle = scan_naive_query_snapshot(&table.snapshot(), q, &disk);
                assert_eq!(got.checksum, oracle.checksum, "pre-flip scan diverged");
                got.checksum
            })
            .collect();

        let flipped = random_layout(&mut state, &schema);
        table.repartition(&flipped, &disk);

        let exec = ScanExecutor::new(&table);
        for (q, expect) in queries.iter().zip(&before) {
            // The pinned snapshot still answers bit-identically...
            let old = exec.scan_query_snapshot(&pinned, q, &disk);
            prop_assert_eq!(old.checksum, *expect, "pinned snapshot changed its answer");
            prop_assert_eq!(old.checksum, scan_naive_query_snapshot(&pinned, q, &disk).checksum);
            // ...and the flipped table prunes the new files exactly.
            let new = exec.scan_query_snapshot(&table.snapshot(), q, &disk);
            let oracle = scan_naive_query_snapshot(&table.snapshot(), q, &disk);
            prop_assert_eq!(new.checksum, oracle.checksum, "post-flip scan diverged");
            prop_assert_eq!(new.checksum, *expect, "repartition changed the answer");
            prop_assert!(new.bytes_read <= oracle.bytes_read);
        }
    }

    /// (c) A crash-recovered table (manifest + WAL replay) prunes from
    /// its persisted metadata and matches both the oracle and the
    /// pre-crash answers.
    #[test]
    fn pruning_survives_crash_recovery(seed in any::<u64>()) {
        let mut state = seed;
        let (schema, rows) = random_schema(&mut state);
        let data = generate_table(&schema, rows, next(&mut state));
        let layout = random_layout(&mut state, &schema);
        let policy = random_policy(&mut state);
        let dir: Arc<MemDir> = Arc::new(MemDir::new());
        let disk = DiskParams::paper_testbed();
        let table = StoredTable::create(&schema, &data, &layout, policy, dir.clone())
            .expect("create persists");
        table
            .ingest(&IngestBatch::append(random_appends(&mut state, &schema)), &disk)
            .expect("append fits the schema");
        table
            .ingest(&IngestBatch::delete(vec![next(&mut state) % rows as u64]), &disk)
            .expect("id is visible");

        let queries: Vec<Query> =
            (0..4u64).map(|i| random_query(&mut state, &schema, &data, i)).collect();
        let before: Vec<u64> = queries
            .iter()
            .map(|q| {
                ScanExecutor::new(&table)
                    .scan_query_snapshot(&table.snapshot(), q, &disk)
                    .checksum
            })
            .collect();
        drop(table);

        let (reopened, report) = StoredTable::open(&schema, dir).expect("recovery succeeds");
        assert_eq!(report.torn, None, "clean shutdown leaves no torn tail");
        let exec = ScanExecutor::new(&reopened);
        for (q, expect) in queries.iter().zip(&before) {
            let got = exec.scan_query_snapshot(&reopened.snapshot(), q, &disk);
            let oracle = scan_naive_query_snapshot(&reopened.snapshot(), q, &disk);
            prop_assert_eq!(got.checksum, oracle.checksum, "recovered scan diverged");
            prop_assert_eq!(got.checksum, *expect, "recovery changed the answer");
            prop_assert!(got.bytes_read <= oracle.bytes_read);
        }
    }
}

/// Rows of the clustered table: five whole chunks and a short tail.
const CLUSTERED_ROWS: usize = 5 * CHUNK_ROWS + 300;

/// A table whose first four columns ascend with the row id, so a range on
/// any of them names a run of rows and the zone maps keep only its
/// chunks. Text values carry trailing padding, which the stored form
/// trims. `Wave` alternates 0/1 by chunk: an equality on it keeps every
/// other chunk.
fn clustered() -> (TableSchema, TableData) {
    let schema = TableSchema::builder("Clustered", CLUSTERED_ROWS as u64)
        .attr("Key", 4, AttrKind::Int)
        .attr("Price", 8, AttrKind::Decimal)
        .attr("Day", 4, AttrKind::Date)
        .attr("Tag", 10, AttrKind::Text)
        .attr("Note", 12, AttrKind::Text)
        .attr("Wave", 4, AttrKind::Int)
        .build()
        .expect("valid schema");
    let n = CLUSTERED_ROWS;
    let data = TableData {
        columns: vec![
            ColumnData::Int((0..n).map(|i| i as i32 - 1000).collect()),
            ColumnData::Decimal((0..n).map(|i| i as i64 * 1_000_000_007 - 5).collect()),
            ColumnData::Date((0..n).map(|i| (i / 4) as i32).collect()),
            ColumnData::Text((0..n).map(|i| format!("t{:07}  ", i / 2)).collect()),
            ColumnData::Text((0..n).map(|i| format!("note {}", i % 97)).collect()),
            ColumnData::Int((0..n).map(|i| (i / CHUNK_ROWS % 2) as i32).collect()),
        ],
        rows: n,
    };
    (schema, data)
}

/// The literal of column `attr` at `row` (text untrimmed, as stored in
/// the source data).
fn literal_at(data: &TableData, attr: usize, row: usize) -> Literal {
    match &data.columns[attr] {
        ColumnData::Int(v) => Literal::int(v[row]),
        ColumnData::Decimal(v) => Literal::decimal(v[row]),
        ColumnData::Date(v) => Literal::date(v[row]),
        ColumnData::Text(v) => Literal::text(v[row].clone()),
    }
}

const POLICIES: [CompressionPolicy; 3] = [
    CompressionPolicy::None,
    CompressionPolicy::Dictionary,
    CompressionPolicy::Default,
];

/// The executor, cold and on a reused instance, against the oracle.
fn assert_matches_oracle(table: &StoredTable, reused: &ScanExecutor<'_>, q: &Query, what: &str) {
    let disk = DiskParams::paper_testbed();
    let oracle = scan_naive_query_snapshot(&table.snapshot(), q, &disk);
    for got in [
        ScanExecutor::new(table).scan_query_snapshot(&table.snapshot(), q, &disk),
        reused.scan_query_snapshot(&table.snapshot(), q, &disk),
    ] {
        assert_eq!(got.checksum, oracle.checksum, "{what}: {q:?}");
        assert!(got.bytes_read <= oracle.bytes_read, "{what}");
    }
}

/// A range inside one chunk — the first, a middle one, the last whole one
/// and the short tail — on an int, decimal, date and text driver, under
/// every policy and a row, a column and a mixed layout, with tombstones
/// inside both the kept chunk and skipped ones.
#[test]
fn one_kept_chunk_matches_the_oracle_wherever_it_lies() {
    let (schema, data) = clustered();
    let disk = DiskParams::paper_testbed();
    let layouts = [
        Partitioning::row(&schema),
        Partitioning::column(&schema),
        Partitioning::new(
            &schema,
            vec![
                schema.attr_set(&["Key", "Note", "Wave"]).unwrap(),
                schema.attr_set(&["Price", "Day", "Tag"]).unwrap(),
            ],
        )
        .unwrap(),
    ];
    let last = CLUSTERED_ROWS / CHUNK_ROWS;
    for policy in POLICIES {
        for layout in &layouts {
            let table = StoredTable::load(&schema, &data, layout, policy);
            // Tombstones in chunk 0, chunk 2 and the tail: whichever
            // chunk a query keeps, some are inside it and some are not.
            let deletes = vec![
                3,
                700,
                2 * CHUNK_ROWS as u64 + 650,
                2 * CHUNK_ROWS as u64 + 651,
                CLUSTERED_ROWS as u64 - 1,
            ];
            table
                .ingest(&IngestBatch::delete(deletes), &disk)
                .expect("ids are visible");
            let reused = ScanExecutor::new(&table);
            for chunk in [0, 2, last - 1, last] {
                let lo = chunk * CHUNK_ROWS + 600.min(CLUSTERED_ROWS - chunk * CHUNK_ROWS - 200);
                let hi = (lo + 120).min(CLUSTERED_ROWS - 1);
                for driver in 0..4 {
                    let id = schema
                        .attr_id(schema.attributes()[driver].name.as_str())
                        .unwrap();
                    let mut referenced = schema.attr_set(&["Price", "Note"]).unwrap();
                    referenced.insert(driver);
                    let range = Predicate::new(vec![
                        PredClause::new(id, PredOp::Ge, literal_at(&data, driver, lo)),
                        PredClause::new(id, PredOp::Le, literal_at(&data, driver, hi)),
                    ]);
                    let point = Predicate::new(vec![PredClause::new(
                        id,
                        PredOp::Eq,
                        literal_at(&data, driver, lo),
                    )]);
                    for predicate in [range, point] {
                        let q = Query::new("one-chunk", referenced).with_predicate(predicate);
                        let what = format!("{policy:?} {layout:?} chunk {chunk} driver {driver}");
                        assert_matches_oracle(&table, &reused, &q, &what);
                        // The range really is chunk-local: fixed-width
                        // files of a non-driver column fetch less.
                        let kept = table
                            .snapshot()
                            .prune_fraction(q.predicate.as_ref().unwrap());
                        assert!(kept <= 0.5, "{what}: kept {kept}");
                    }
                }
            }
        }
    }
}

/// Two clauses on two different drivers stored in different files: the
/// keep-mask is the AND of both, and each residual clause reads its own
/// driver's cursor.
#[test]
fn two_drivers_in_two_files_match_the_oracle() {
    let (schema, data) = clustered();
    let key = schema.attr_id("Key").unwrap();
    let tag = schema.attr_id("Tag").unwrap();
    let day = schema.attr_id("Day").unwrap();
    let referenced = schema.attr_set(&["Key", "Day", "Tag", "Note"]).unwrap();
    let row = 3 * CHUNK_ROWS + 40;
    let queries = [
        // Overlapping ranges that meet inside one chunk.
        Predicate::new(vec![
            PredClause::new(key, PredOp::Ge, literal_at(&data, 0, row)),
            PredClause::new(tag, PredOp::Le, literal_at(&data, 3, row + 500)),
        ]),
        // Three drivers, the middle one an equality on a shared value.
        Predicate::new(vec![
            PredClause::new(key, PredOp::Le, literal_at(&data, 0, row + 900)),
            PredClause::new(day, PredOp::Eq, literal_at(&data, 2, row)),
            PredClause::new(tag, PredOp::Ge, literal_at(&data, 3, row + 1)),
        ]),
        // Disjoint ranges: every chunk is pruned by one clause or the other.
        Predicate::new(vec![
            PredClause::new(key, PredOp::Le, literal_at(&data, 0, CHUNK_ROWS - 1)),
            PredClause::new(tag, PredOp::Ge, literal_at(&data, 3, 4 * CHUNK_ROWS)),
        ]),
    ];
    for policy in POLICIES {
        let table = StoredTable::load(&schema, &data, &Partitioning::column(&schema), policy);
        let reused = ScanExecutor::new(&table);
        for predicate in &queries {
            let q = Query::new("two-drivers", referenced).with_predicate(predicate.clone());
            assert_matches_oracle(&table, &reused, &q, &format!("{policy:?}"));
        }
    }
}

/// Kept chunks with gaps between them (every other chunk, the short tail
/// included): ranks among kept rows and row ids drift apart, and
/// tombstones fall in the skipped chunks between two kept ones.
#[test]
fn kept_chunks_with_gaps_match_the_oracle() {
    let (schema, data) = clustered();
    let disk = DiskParams::paper_testbed();
    let wave = schema.attr_id("Wave").unwrap();
    let note = schema.attr_id("Note").unwrap();
    let referenced = schema.attr_set(&["Price", "Tag", "Note", "Wave"]).unwrap();
    let odd = PredClause::new(wave, PredOp::Eq, Literal::int(1));
    let queries = [
        Predicate::new(vec![odd.clone()]),
        // A second driver no zone map can prune: pure residual work.
        Predicate::new(vec![
            odd,
            PredClause::new(note, PredOp::Le, Literal::text("note 5")),
        ]),
    ];
    let layouts = [Partitioning::row(&schema), Partitioning::column(&schema)];
    for policy in POLICIES {
        for layout in &layouts {
            let table = StoredTable::load(&schema, &data, layout, policy);
            let deletes = vec![
                CHUNK_ROWS as u64 + 1,
                2 * CHUNK_ROWS as u64 + 9,
                3 * CHUNK_ROWS as u64,
                4 * CHUNK_ROWS as u64 + 2047,
                5 * CHUNK_ROWS as u64 + 299,
            ];
            table
                .ingest(&IngestBatch::delete(deletes), &disk)
                .expect("ids are visible");
            let reused = ScanExecutor::new(&table);
            for predicate in &queries {
                let q = Query::new("gaps", referenced).with_predicate(predicate.clone());
                let kept = table.snapshot().prune_fraction(predicate);
                assert!(kept > 0.4 && kept < 0.5, "three of six chunks: {kept}");
                assert_matches_oracle(&table, &reused, &q, &format!("{policy:?} {layout:?}"));
            }
        }
    }
}
