//! `scan_wide` and `scan_selective`: wire scans of an in-memory TPC-H
//! Lineitem. Both are one `ScanWorkload` with different tables and
//! queries.

use crate::harness::{put_median, timed, Metrics, OpClass, Recorder, Scale, Window, Workload};
use crate::stats::median;
use crate::tables::{lineitem, projection, Gated};
use crate::wire::{Served, MAIN_SCAN, SIDE_SCAN};
use crate::Facts;
use slicer_core::{Advisor, HillClimb, PartitionRequest};
use slicer_cost::HddCostModel;
use slicer_lifecycle::TableManagerConfig;
use slicer_model::{Literal, Partitioning, PredClause, PredOp, Predicate, Query, TableSchema};
use slicer_storage::{generate_table, CompressionPolicy, StoredTable, CHUNK_ROWS};
use slicer_workloads::tpch;

const FULL_ROWS: usize = 400_000;

pub struct ScanWorkload {
    served: Served,
    rows: usize,
    /// Main queries, taken in rotation: one shape, so one op class.
    mains: Vec<Gated>,
    next_main: usize,
    side: Gated,
    sides_per_cycle: usize,
    block_cycles: usize,
    /// Share of rows a main query's predicate accepts (1 without one).
    qualifying_share: f64,
    /// What set-up measured, already under per-layer metric names.
    setup: Metrics,
    /// From the traced window's replays: decode CPU seconds, bytes read
    /// and kept fraction of main ops; bytes read of side ops.
    cpu_main_s: Vec<f64>,
    bytes_main: Vec<f64>,
    kept_main: Vec<f64>,
    bytes_side: Vec<f64>,
}

/// What tells the two scan workloads apart.
struct ScanSpec {
    layout: Partitioning,
    policy: CompressionPolicy,
    mains: Vec<Query>,
    /// Share of rows a main query's predicate accepts (1 without one).
    qualifying_share: f64,
    side: Query,
    sides_per_cycle: usize,
    block_cycles: usize,
}

/// SplitMix64: the benchmark's own script randomness, so a seed fixes the
/// script whatever the `rand` stand-in does.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `scan_wide`: decode and tuple reconstruction do the work in main (the
/// 7-attribute Q1 projection); side (1 attribute) is per-request cost.
pub fn scan_wide(seed: u64, scale: &Scale) -> ScanWorkload {
    let rows = scale.rows(FULL_ROWS);
    let schema = lineitem(rows);
    let q1 = projection(
        &schema,
        "Q1",
        &[
            "Quantity",
            "ExtendedPrice",
            "Discount",
            "Tax",
            "ReturnFlag",
            "LineStatus",
            "ShipDate",
        ],
    );
    let side = projection(&schema, "ShipDate", &["ShipDate"]);
    let bench = tpch::benchmark(1.0);
    let workload = bench.table_workload(bench.table_index("Lineitem").expect("TPC-H table"));
    let model = HddCostModel::paper_testbed();
    let layout = HillClimb::new()
        .partition(&PartitionRequest::new(&schema, &workload, &model))
        .expect("HillClimb lays out Lineitem");
    let spec = ScanSpec {
        layout,
        policy: CompressionPolicy::Default,
        mains: vec![q1],
        qualifying_share: 1.0,
        side,
        sides_per_cycle: 4,
        block_cycles: 20,
    };
    build(seed, &schema, spec)
}

/// `scan_selective`: `storage::prune`, `model::predicate` and the wire
/// predicate re-stamping act on main only; side is the same projection
/// without the predicate.
pub fn scan_selective(seed: u64, scale: &Scale) -> ScanWorkload {
    let rows = scale.rows(FULL_ROWS);
    let schema = lineitem(rows);
    let attrs = ["OrderKey", "ExtendedPrice", "Discount", "ShipDate"];
    let order_key = schema.attr_id("OrderKey").expect("Lineitem attribute");
    // OrderKey is sequential from 1, so chunk c holds keys
    // c*CHUNK_ROWS+1 ..= (c+1)*CHUNK_ROWS. Each range is half a chunk wide
    // and lies inside one whole chunk: every main op keeps exactly one
    // chunk and accepts exactly RANGE rows, whatever the seed picks.
    const RANGE: usize = CHUNK_ROWS / 2;
    let whole_chunks = rows / CHUNK_ROWS;
    let ranges = whole_chunks.min(8);
    assert!(ranges > 0, "scan_selective needs one whole chunk");
    let mut rng = seed;
    let mut chunks: Vec<usize> = (0..whole_chunks).collect();
    let mains = (0..ranges)
        .map(|i| {
            let pick = i + (splitmix(&mut rng) as usize) % (whole_chunks - i);
            chunks.swap(i, pick);
            let offset = (splitmix(&mut rng) as usize) % (CHUNK_ROWS - RANGE + 1);
            let lo = (chunks[i] * CHUNK_ROWS + 1 + offset) as i32;
            let hi = lo + RANGE as i32 - 1;
            let predicate = Predicate::new(vec![
                PredClause::new(order_key, PredOp::Ge, Literal::int(lo)),
                PredClause::new(order_key, PredOp::Le, Literal::int(hi)),
            ]);
            projection(&schema, "range", &attrs).with_predicate(predicate)
        })
        .collect();
    let spec = ScanSpec {
        layout: Partitioning::column(&schema),
        // Fixed-width codes: the only policy under which fetching the
        // kept chunks skips bytes.
        policy: CompressionPolicy::Dictionary,
        mains,
        qualifying_share: RANGE as f64 / rows as f64,
        side: projection(&schema, "full", &attrs),
        sides_per_cycle: 1,
        block_cycles: 5 * ranges,
    };
    build(seed, &schema, spec)
}

fn build(seed: u64, schema: &TableSchema, spec: ScanSpec) -> ScanWorkload {
    let rows = schema.row_count() as usize;
    let mut setup = Metrics::new();
    let data = timed(&mut setup, "storage.data.generate_s", || {
        generate_table(schema, rows, seed)
    });
    let table = timed(&mut setup, "storage.engine.load_s", || {
        StoredTable::load(schema, &data, &spec.layout, spec.policy)
    });
    setup.insert(
        "storage.engine.stored_bytes_per_row".into(),
        table.stored_bytes() as f64 / rows as f64,
    );
    // The table never changes: one oracle per query, on generation 0.
    let disk = HddCostModel::paper_testbed().params();
    let snapshot = table.snapshot();
    let gate = |query: Query| Gated::new(&snapshot, query, &disk);
    let mains = spec.mains.into_iter().map(gate).collect();
    let side = gate(spec.side);
    ScanWorkload {
        served: Served::spawn(table, TableManagerConfig::default()),
        rows,
        mains,
        next_main: 0,
        side,
        sides_per_cycle: spec.sides_per_cycle,
        block_cycles: spec.block_cycles,
        qualifying_share: spec.qualifying_share,
        setup,
        cpu_main_s: Vec::new(),
        bytes_main: Vec::new(),
        kept_main: Vec::new(),
        bytes_side: Vec::new(),
    }
}

impl ScanWorkload {
    /// One gated wire scan and, in the traced run, its replay.
    fn scan(&mut self, rec: &mut Recorder, class: OpClass) {
        let (gated, root) = match class {
            OpClass::Main => (&self.mains[self.next_main], MAIN_SCAN),
            OpClass::Side => (&self.side, SIDE_SCAN),
        };
        let served = &mut self.served;
        let done = rec.op(class, root, || {
            served.scan(&gated.query, Some((0, gated.checksum)))
        });
        let Some((reply, Some(span))) = done else {
            return;
        };
        let replayed = rec.paused(|rec| {
            let tracer = rec.tracer.as_mut().expect("a root span has a tracer");
            served.replay_scan(tracer, span, class == OpClass::Main, &gated.query, &reply)
        });
        match (replayed, class) {
            (Ok(result), OpClass::Main) => {
                self.cpu_main_s.push(result.cpu_seconds);
                self.bytes_main.push(result.bytes_read as f64);
                self.kept_main.push(reply.kept_fraction);
            }
            (Ok(result), OpClass::Side) => self.bytes_side.push(result.bytes_read as f64),
            (Err(why), _) => rec.fail(class, why),
        }
    }
}

impl Workload for ScanWorkload {
    fn block_cycles(&self) -> usize {
        self.block_cycles
    }

    fn cycle(&mut self, rec: &mut Recorder) {
        self.scan(rec, OpClass::Main);
        self.next_main = (self.next_main + 1) % self.mains.len();
        for _ in 0..self.sides_per_cycle {
            self.scan(rec, OpClass::Side);
        }
    }

    fn facts(&self) -> Facts {
        Facts {
            rows: self.rows,
            table: "in memory (StoredTable::load)".into(),
            flush_policy: "none: nothing is written".into(),
            cycle: format!("1 main + {} side wire scans", self.sides_per_cycle),
        }
    }

    fn layer_metrics(&mut self, traced: &Window, out: &mut Metrics) {
        out.append(&mut self.setup);
        let tracer = traced.tracer.as_ref().expect("traced window");
        self.served.layer_metrics(MAIN_SCAN, traced, out);
        let scan = "storage.executor.scan_query_snapshot";
        put_median(
            out,
            "storage.executor.scan_main_ms",
            &tracer.durations_us(MAIN_SCAN, scan),
            1e-3,
        );
        put_median(
            out,
            "storage.executor.scan_side_ms",
            &tracer.durations_us(SIDE_SCAN, scan),
            1e-3,
        );
        put_median(out, "storage.executor.cpu_main_ms", &self.cpu_main_s, 1e3);
        put_median(
            out,
            "storage.executor.bytes_read_main",
            &self.bytes_main,
            1.0,
        );
        put_median(
            out,
            "storage.executor.bytes_read_side",
            &self.bytes_side,
            1.0,
        );
        put_median(
            out,
            "storage.prune.prune_fraction_us",
            &tracer.durations_us(MAIN_SCAN, "storage.prune.prune_fraction"),
            1.0,
        );
        if self.mains[0].query.predicate.is_some() {
            let kept = median(&self.kept_main);
            out.insert("storage.prune.kept_fraction".into(), kept);
            out.insert(
                "storage.prune.useful_ratio".into(),
                self.qualifying_share / kept,
            );
            out.insert(
                "storage.prune.bytes_ratio".into(),
                median(&self.bytes_side) / median(&self.bytes_main),
            );
        }
    }

    fn teardown(self: Box<Self>) {
        self.served.shutdown();
    }
}
