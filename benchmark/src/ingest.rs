//! `ingest_mix`: mixed append+delete batches and the scan that pays the
//! delta tax, over the wire, on a durable Lineitem that folds its delta
//! once per block.

use crate::harness::{
    put_median, time_per_call, timed, Metrics, OpClass, Recorder, Scale, Window, Workload,
};
use crate::stats::median;
use crate::tables::{lineitem, projection, repartition_counts};
use crate::wire::{Served, MAIN_INGEST, SIDE_SCAN, TABLE};
use crate::{Facts, OUT_DIR};
use slicer_client::IngestReply;
use slicer_core::{Advisor, HillClimb, PartitionRequest};
use slicer_cost::HddCostModel;
use slicer_lifecycle::{RepartitionDecision, TableManager, TableManagerConfig};
use slicer_model::{Partitioning, Query, TableSchema, Workload as QueryWorkload};
use slicer_net::{Request, Response};
use slicer_storage::{
    crc32, decode_ingest_batch, encode_ingest_batch, generate_table, scan_naive_query_snapshot,
    ColumnData, CompressionPolicy, Dir, FsDir, IngestBatch, StoredTable, TableData,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const FULL_ROWS: usize = 200_000;
/// Rows appended and rows deleted by every batch.
const BATCH_ROWS: usize = 256;
/// Multiplier spreading a block's deletes over the base rows; coprime
/// with every row count the scales produce (2^a * 5^b).
const DELETE_STRIDE: u64 = 7919;

/// A fresh directory under the benchmark's own `out/`, removed at
/// teardown.
fn temp_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = PathBuf::from(OUT_DIR)
        .join("tmp")
        .join(format!("{label}-{}-{n}", std::process::id()));
    // A crashed earlier run with this pid may have left one behind.
    let _ = std::fs::remove_dir_all(&path);
    path
}

fn slice_rows(data: &TableData, from: usize, rows: usize) -> TableData {
    let to = from + rows;
    let columns = data
        .columns
        .iter()
        .map(|c| match c {
            ColumnData::Int(v) => ColumnData::Int(v[from..to].to_vec()),
            ColumnData::Decimal(v) => ColumnData::Decimal(v[from..to].to_vec()),
            ColumnData::Date(v) => ColumnData::Date(v[from..to].to_vec()),
            ColumnData::Text(v) => ColumnData::Text(v[from..to].to_vec()),
        })
        .collect();
    TableData { columns, rows }
}

/// The in-process twin the traced run replays ingest on: the same data
/// under the same layout in a directory of its own, fed the same batches
/// and folded at the same points, so the same row ids stay valid.
struct Twin {
    manager: TableManager,
    dir: PathBuf,
    /// Batches replayed, to alternate the two ingest entry points.
    replayed: u64,
}

pub struct IngestWorkload {
    served: Served,
    schema: TableSchema,
    data: TableData,
    layout: Partitioning,
    rows: usize,
    dir: PathBuf,
    q6: Query,
    /// One block's batches, reused every block: after each fold the row
    /// ids renumber and the visible rows are back at `rows`.
    batches: Vec<IngestBatch>,
    next_batch: usize,
    /// The block's last side reply, for the once-per-block oracle check.
    last_side: Option<(u64, u64)>,
    twin: Option<Twin>,
    setup: Metrics,
    round_ms: Vec<f64>,
    wal_bytes: Vec<f64>,
    bytes_side: Vec<f64>,
    repartition_ms: Vec<f64>,
    repartition_counts: Metrics,
    open_ms: Vec<f64>,
}

/// `ingest_mix`: `storage::delta`/`wal`/`backend`, `lifecycle::fleet`
/// ingest under the server's lock and the fold in `storage::engine` do
/// the work; side is the read that pays for cheap writes.
pub fn ingest_mix(seed: u64, scale: &Scale) -> IngestWorkload {
    let rows = scale.rows(FULL_ROWS);
    let schema = lineitem(rows);
    let q6 = projection(
        &schema,
        "Q6",
        &["Quantity", "ExtendedPrice", "Discount", "ShipDate"],
    );
    let mut setup = Metrics::new();
    let data = timed(&mut setup, "storage.data.generate_s", || {
        generate_table(&schema, rows, seed)
    });
    // Start from the layout the per-block round will confirm (HillClimb
    // over a window of Q6 scans), so every round is the same fold-only
    // move from the first block on.
    let model = HddCostModel::paper_testbed();
    let window = QueryWorkload::with_queries(&schema, vec![q6.clone()]).expect("Q6 fits Lineitem");
    let layout = HillClimb::new()
        .partition(&PartitionRequest::new(&schema, &window, &model))
        .expect("HillClimb lays out Lineitem");
    let dir = temp_dir("ingest");
    let table = timed(&mut setup, "storage.engine.load_s", || {
        create(&schema, &data, &layout, &dir)
    });
    setup.insert(
        "storage.engine.stored_bytes_per_row".into(),
        table.stored_bytes() as f64 / rows as f64,
    );

    let block_cycles = (rows / (2 * BATCH_ROWS)).clamp(1, 64);
    let fresh = generate_table(&schema, block_cycles * BATCH_ROWS, seed ^ 0xB47C);
    let batches = (0..block_cycles)
        .map(|i| IngestBatch {
            appends: Some(slice_rows(&fresh, i * BATCH_ROWS, BATCH_ROWS)),
            deletes: (0..BATCH_ROWS)
                .map(|k| (i * BATCH_ROWS + k) as u64 * DELETE_STRIDE % rows as u64)
                .collect(),
        })
        .collect();
    // High enough that the fold always pays off inside the horizon.
    let cfg = TableManagerConfig {
        payoff_horizon: 1e12,
        ..TableManagerConfig::default()
    };
    IngestWorkload {
        served: Served::spawn(table, cfg),
        schema,
        data,
        layout,
        rows,
        dir,
        q6,
        batches,
        next_batch: 0,
        last_side: None,
        twin: None,
        setup,
        round_ms: Vec::new(),
        wal_bytes: Vec::new(),
        bytes_side: Vec::new(),
        repartition_ms: Vec::new(),
        repartition_counts: Metrics::new(),
        open_ms: Vec::new(),
    }
}

fn create(
    schema: &TableSchema,
    data: &TableData,
    layout: &Partitioning,
    dir: &PathBuf,
) -> StoredTable {
    let fs: Arc<dyn Dir> = Arc::new(FsDir::open(dir).expect("create the temp directory"));
    StoredTable::create(schema, data, layout, CompressionPolicy::Default, fs)
        .expect("persist the table")
}

impl IngestWorkload {
    /// Create the twin before the first replayed batch of a block.
    fn ensure_twin(&mut self, batch: usize) {
        if self.twin.is_none() {
            assert_eq!(batch, 0, "the twin starts on a block boundary");
            let dir = temp_dir("twin");
            let table = create(&self.schema, &self.data, &self.layout, &dir);
            self.twin = Some(Twin {
                manager: TableManager::new(
                    table,
                    Box::new(HillClimb::new()),
                    HddCostModel::paper_testbed(),
                    TableManagerConfig::default(),
                ),
                dir,
                replayed: 0,
            });
        }
    }

    /// Replay one ingest under its root span: frame → decode → apply on
    /// the twin → frame.
    fn replay_ingest(
        &mut self,
        rec: &mut Recorder,
        root: usize,
        batch: usize,
        reply: &IngestReply,
    ) {
        self.ensure_twin(batch);
        let tracer = rec.tracer.as_mut().expect("a root span has a tracer");
        let batch = &self.batches[batch];
        let image = tracer.child(root, "storage.delta.encode_batch", || {
            encode_ingest_batch(batch)
        });
        let request = Request::Ingest {
            table: TABLE.to_string(),
            client_id: self.served.client.config().client_id,
            sequence: 0,
            deadline_micros: 0,
            batch: image.clone(),
        };
        let request_len = self.served.replay_request(tracer, root, &request);
        let decoded = tracer
            .child(root, "storage.delta.decode_batch", || {
                decode_ingest_batch(&image)
            })
            .expect("the batch image round-trips");
        let twin = self.twin.as_mut().expect("created above");
        twin.replayed += 1;
        // The two public ways in, alternately: through the manager (what
        // the fleet calls under the server's lock) and straight into the
        // engine. Both append to the twin's WAL on its own FsDir.
        let applied = if twin.replayed.is_multiple_of(2) {
            tracer.child(root, "lifecycle.ingest", || twin.manager.ingest(&decoded))
        } else {
            let disk = twin.manager.disk_params();
            tracer.child(root, "storage.engine.ingest", || {
                twin.manager.table().ingest(&decoded, &disk)
            })
        };
        match applied {
            Ok(stats) if stats.wal_bytes == reply.wal_bytes => {}
            Ok(stats) => rec.fail(
                OpClass::Main,
                format!(
                    "twin logged {} B, the server {} B",
                    stats.wal_bytes, reply.wal_bytes
                ),
            ),
            Err(e) => rec.fail(OpClass::Main, format!("twin ingest: {e}")),
        }
        let response = Response::IngestOk {
            rows_appended: reply.rows_appended,
            rows_deleted: reply.rows_deleted,
            wal_bytes: reply.wal_bytes,
            io_seconds: reply.io_seconds,
            delta_rows: reply.delta_rows,
            delta_bytes: reply.delta_bytes,
            deduped: reply.deduped,
        };
        let tracer = rec.tracer.as_mut().expect("a root span has a tracer");
        let response_len = self.served.replay_response(tracer, root, &response);
        self.served.main_frames.push((request_len, response_len));
        self.wal_bytes.push(reply.wal_bytes as f64);
    }

    /// Recover the twin's directory with a block's worth of WAL on it,
    /// then fold the twin as the server just folded the real table.
    fn fold_twin(&mut self, rec: &mut Recorder, layout: &Partitioning) {
        let Some(twin) = self.twin.as_mut() else {
            return;
        };
        let fs: Arc<dyn Dir> = Arc::new(FsDir::open(&twin.dir).expect("the twin's directory"));
        let start = Instant::now();
        let opened = StoredTable::open(&self.schema, fs);
        self.open_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match opened {
            Ok((_, report)) if report.wal_records as usize == self.batches.len() => {}
            Ok((_, report)) => rec.fail(
                OpClass::Main,
                format!("recovery replayed {} WAL records", report.wal_records),
            ),
            Err(e) => rec.fail(OpClass::Main, format!("recovery: {e}")),
        }
        let disk = twin.manager.disk_params();
        let start = Instant::now();
        let stats = twin.manager.table().repartition(layout, &disk);
        self.repartition_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        self.repartition_counts = repartition_counts(&stats);
    }
}

impl Workload for IngestWorkload {
    fn block_cycles(&self) -> usize {
        self.batches.len()
    }

    fn cycle(&mut self, rec: &mut Recorder) {
        let i = self.next_batch;
        self.next_batch += 1;
        let (served, batch) = (&mut self.served, &self.batches[i]);
        let done = rec.op(OpClass::Main, MAIN_INGEST, || {
            let reply = served
                .client
                .ingest(TABLE, batch)
                .map_err(|e| e.to_string())?;
            let rows = BATCH_ROWS as u64;
            if (reply.rows_appended, reply.rows_deleted, reply.deduped) != (rows, rows, false) {
                return Err(format!(
                    "batch applied as {} appended, {} deleted, deduped {}",
                    reply.rows_appended, reply.rows_deleted, reply.deduped
                ));
            }
            let model_s = reply.io_seconds;
            Ok((reply, model_s))
        });
        if let Some((reply, Some(root))) = done {
            rec.paused(|rec| self.replay_ingest(rec, root, i, &reply));
        }

        let (served, q6) = (&mut self.served, &self.q6);
        let done = rec.op(OpClass::Side, SIDE_SCAN, || served.scan(q6, None));
        let Some((reply, span)) = done else {
            return;
        };
        self.last_side = Some((reply.generation, reply.checksum));
        if let Some(root) = span {
            let replayed = rec.paused(|rec| {
                let tracer = rec.tracer.as_mut().expect("a root span has a tracer");
                served.replay_scan(tracer, root, false, q6, &reply)
            });
            match replayed {
                Ok(result) => self.bytes_side.push(result.bytes_read as f64),
                Err(why) => rec.fail(OpClass::Side, why),
            }
        }
    }

    fn end_block(&mut self, rec: &mut Recorder) {
        self.next_batch = 0;
        // With the clock stopped: the block's last wire scan against the
        // oracle on the generation it pinned (nothing was written since).
        let table = Arc::clone(&self.served.target.table);
        let disk = self.served.target.disk;
        let last_side = self.last_side.take();
        let q6 = &self.q6;
        let missed = rec.paused(|_| {
            let snapshot = table.snapshot();
            let want = scan_naive_query_snapshot(&snapshot, q6, &disk).checksum;
            (last_side != Some((snapshot.generation, want))).then(|| {
                format!(
                    "Q6 over base+delta: wire {last_side:?}, oracle ({}, {want})",
                    snapshot.generation
                )
            })
        });
        if let Some(why) = missed {
            rec.fail(OpClass::Side, why);
        }

        // Inside the block: the round that folds the delta away.
        let start = Instant::now();
        let decisions = self.served.handle.with_fleet(|f| f.advise_round());
        self.round_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let applied = matches!(decisions.as_slice(), [(_, RepartitionDecision::Applied(_))]);
        if !applied || table.delta_bytes() != 0 {
            let verdicts: Vec<String> = decisions.iter().map(|(_, d)| format!("{d:?}")).collect();
            rec.fail(
                OpClass::Main,
                format!(
                    "round left {} delta bytes: {}",
                    table.delta_bytes(),
                    verdicts.join("; ").chars().take(200).collect::<String>()
                ),
            );
        }
        if rec.tracer.is_some() {
            let layout = table.layout();
            rec.paused(|rec| self.fold_twin(rec, &layout));
        }
    }

    fn facts(&self) -> Facts {
        Facts {
            rows: self.rows,
            table: format!(
                "durable (StoredTable::create) on FsDir {}",
                self.dir.display()
            ),
            flush_policy: "none: FsDir never fsyncs".into(),
            cycle: format!(
                "1 batch ({BATCH_ROWS} appends + {BATCH_ROWS} deletes) + 1 Q6 scan; \
                 1 advise_round per block of {}",
                self.batches.len()
            ),
        }
    }

    fn layer_metrics(&mut self, traced: &Window, out: &mut Metrics) {
        out.append(&mut self.setup);
        out.append(&mut self.repartition_counts);
        let tracer = traced.tracer.as_ref().expect("traced window");
        self.served.layer_metrics(MAIN_INGEST, traced, out);
        for (metric, span) in [
            (
                "storage.delta.encode_batch_us",
                "storage.delta.encode_batch",
            ),
            (
                "storage.delta.decode_batch_us",
                "storage.delta.decode_batch",
            ),
            ("lifecycle.ingest_us", "lifecycle.ingest"),
            ("storage.engine.ingest_us", "storage.engine.ingest"),
        ] {
            put_median(out, metric, &tracer.durations_us(MAIN_INGEST, span), 1.0);
        }
        let scan = tracer.durations_us(SIDE_SCAN, "storage.executor.scan_query_snapshot");
        put_median(out, "storage.executor.scan_side_ms", &scan, 1e-3);
        put_median(
            out,
            "storage.executor.bytes_read_side",
            &self.bytes_side,
            1.0,
        );
        put_median(out, "lifecycle.round_ms", &self.round_ms, 1.0);
        out.insert(
            "lifecycle.rounds_applied".into(),
            self.round_ms.len() as f64,
        );
        put_median(
            out,
            "storage.engine.repartition_ms",
            &self.repartition_ms,
            1.0,
        );
        put_median(out, "storage.engine.open_ms", &self.open_ms, 1.0);
        // Per row appended or deleted.
        put_median(
            out,
            "storage.wal.bytes_per_row",
            &self.wal_bytes,
            0.5 / BATCH_ROWS as f64,
        );

        // The delta tax: the side scan at a full delta over the same scan
        // at an empty one — the last against the first eighth of a block.
        let per_block = self.batches.len();
        let edge = (per_block / 8).max(1);
        let at = |from: usize| -> Vec<f64> {
            traced
                .side
                .ms
                .chunks_exact(per_block)
                .flat_map(|block| block[from..from + edge].to_vec())
                .collect()
        };
        if traced.side.failed == 0 {
            out.insert(
                "storage.delta.scan_tax_ratio".into(),
                median(&at(per_block - edge)) / median(&at(0)),
            );
        }

        // The backend calls an ingest and a fold make, on their own, with
        // this workload's sizes: one WAL record, one partition file.
        let probe = temp_dir("probe");
        let fs = FsDir::open(&probe).expect("create the probe directory");
        let record = vec![0xA5u8; median(&self.wal_bytes) as usize];
        let seconds = time_per_call(256, || fs.append("wal", &record));
        out.insert("storage.backend.append_us".into(), seconds * 1e6);
        let snapshot = self.served.target.table.snapshot();
        let file = vec![0x5Au8; (snapshot.stored_bytes() as usize / snapshot.files.len()).max(1)];
        let seconds = time_per_call(16, || fs.write_atomic("part", &file));
        out.insert("storage.backend.write_atomic_ms".into(), seconds * 1e3);
        let seconds = time_per_call(64, || crc32(&file));
        out.insert(
            "storage.wal.crc32_mb_per_s".into(),
            file.len() as f64 / 1e6 / seconds,
        );
        let _ = std::fs::remove_dir_all(&probe);
    }

    fn teardown(self: Box<Self>) {
        self.served.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(twin) = self.twin {
            let _ = std::fs::remove_dir_all(&twin.dir);
        }
    }
}
