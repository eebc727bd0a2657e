//! `advise`: the paper's own use, in-process. Main is one cold sweep of
//! the seven advisors over TPC-H, SSB and a synthetic table; side is one
//! layout flip of a durable Lineitem under a `TableManager`.

use crate::harness::{put_median, timed, Metrics, OpClass, Recorder, Scale, Window, Workload};
use crate::tables::{lineitem, projection, repartition_counts, Gated};
use crate::Facts;
use slicer_core::{paper_advisors, Advisor, Budget, HillClimb, PartitionRequest};
use slicer_cost::{CostModel, HddCostModel};
use slicer_lifecycle::{RepartitionDecision, TableManager, TableManagerConfig};
use slicer_model::{Partitioning, TableSchema, Workload as QueryWorkload};
use slicer_storage::{generate_table, CompressionPolicy, Dir, MemDir, StoredTable};
use slicer_workloads::{ssb, synth, tpch};
use std::sync::Arc;
use std::time::Instant;

const FULL_ROWS: usize = 200_000;
/// The manager's window, and the queries served before each flip.
const WINDOW: usize = 16;
const SWEEP: &str = "main:advisor.sweep";
const FLIP: &str = "side:manager.advise_with";

/// The synthetic table of the sweep. Its seed is fixed: advisor run time
/// depends on the query sets drawn (O2P alone ran 26-228 ms over ten seeds
/// at this size), and sweeps that far apart could not be compared across
/// the seeds a set of runs uses. This draw puts the sweep at ~160 ms with
/// no advisor above a quarter of it. `--seed` drives the flipped table.
const SYNTH: synth::SyntheticSpec = synth::SyntheticSpec {
    attrs: 42,
    rows: 1_000_000,
    queries: 64,
    pattern: synth::AccessPattern::Uniform { p: 0.3 },
    seed: 9,
};

/// Where BruteForce finishes in well under 50 ms.
const BRUTE_FORCE_MAX_ATTRS: usize = 9;

/// One table of the sweep and which advisors run on it.
struct SweepTable {
    schema: TableSchema,
    workload: QueryWorkload,
    /// Cheapest of the row and column layouts: HillClimb's ceiling.
    baseline_cost: f64,
    brute_force: bool,
    trojan: bool,
}

pub struct AdviseWorkload {
    advisors: Vec<Box<dyn Advisor>>,
    tables: Vec<SweepTable>,
    model: HddCostModel,
    manager: TableManager,
    rows: usize,
    /// Pricing and logistics: `WINDOW` gated queries each.
    phases: [Vec<Gated>; 2],
    next_phase: usize,
    setup: Metrics,
    window_fill_ms: Vec<f64>,
    session_steps: Vec<f64>,
    session_candidates: Vec<f64>,
    candidates_per_s: Vec<f64>,
    repartition_counts: Metrics,
}

/// `advise`: `core`, `cost` and `combinat` do all of main and a sliver of
/// side; `lifecycle::manager` and `storage::engine::repartition` do side.
pub fn advise(seed: u64, scale: &Scale) -> AdviseWorkload {
    let model = HddCostModel::paper_testbed();
    let mut tables = Vec::new();
    let mut add = |schema: &TableSchema, workload: QueryWorkload, tpch: bool, trojan: bool| {
        let cost = |p: Partitioning| model.workload_cost(schema, &p, &workload);
        tables.push(SweepTable {
            baseline_cost: cost(Partitioning::row(schema)).min(cost(Partitioning::column(schema))),
            brute_force: tpch && schema.attr_count() <= BRUTE_FORCE_MAX_ATTRS,
            trojan,
            schema: schema.clone(),
            workload,
        });
    };
    for (_, schema, workload) in tpch::benchmark(10.0).touched_tables() {
        add(schema, workload, true, true);
    }
    for (_, schema, workload) in ssb::benchmark(10.0).touched_tables() {
        add(schema, workload, false, true);
    }
    let (schema, workload) = synth::table_and_workload(&SYNTH);
    add(&schema, workload, false, false);

    let rows = scale.rows(FULL_ROWS);
    let schema = lineitem(rows);
    let mut setup = Metrics::new();
    let data = timed(&mut setup, "storage.data.generate_s", || {
        generate_table(&schema, rows, seed)
    });
    let table = timed(&mut setup, "storage.engine.load_s", || {
        let dir: Arc<dyn Dir> = Arc::new(MemDir::new());
        let row = Partitioning::row(&schema);
        StoredTable::create(&schema, &data, &row, CompressionPolicy::Default, dir)
            .expect("persist the table in memory")
    });
    setup.insert(
        "storage.engine.stored_bytes_per_row".into(),
        table.stored_bytes() as f64 / rows as f64,
    );

    let snapshot = table.snapshot();
    let disk = model.params();
    let phase = |projections: [(&str, &[&str]); 4]| -> Vec<Gated> {
        let gated: Vec<Gated> = projections
            .iter()
            .map(|(name, attrs)| Gated::new(&snapshot, projection(&schema, name, attrs), &disk))
            .collect();
        (0..WINDOW).map(|i| gated[i % 4].clone()).collect()
    };
    let phases = [
        phase([
            (
                "pricing-q1",
                &[
                    "Quantity",
                    "ExtendedPrice",
                    "Discount",
                    "Tax",
                    "ReturnFlag",
                    "LineStatus",
                    "ShipDate",
                ],
            ),
            (
                "pricing-q6",
                &["Quantity", "ExtendedPrice", "Discount", "ShipDate"],
            ),
            (
                "pricing-q3",
                &["OrderKey", "ExtendedPrice", "Discount", "ShipDate"],
            ),
            (
                "pricing-q14",
                &["PartKey", "ExtendedPrice", "Discount", "ShipDate"],
            ),
        ]),
        phase([
            (
                "logistics-q12",
                &["OrderKey", "CommitDate", "ReceiptDate", "ShipMode"],
            ),
            (
                "logistics-q21",
                &["OrderKey", "SuppKey", "CommitDate", "ReceiptDate"],
            ),
            (
                "logistics-dock",
                &[
                    "ShipDate",
                    "CommitDate",
                    "ReceiptDate",
                    "ShipInstruct",
                    "ShipMode",
                ],
            ),
            (
                "logistics-keys",
                &["OrderKey", "PartKey", "SuppKey", "LineNumber"],
            ),
        ]),
    ];
    drop(snapshot);

    let manager = TableManager::new(
        table,
        Box::new(HillClimb::new()),
        model,
        TableManagerConfig {
            window: WINDOW,
            // Flips are timed by calling `advise_with`, never by cadence.
            advise_every: u64::MAX,
            // High enough that every flip pays off inside the horizon.
            payoff_horizon: 1e12,
            ..TableManagerConfig::default()
        },
    );
    let mut w = AdviseWorkload {
        advisors: paper_advisors(),
        tables,
        model,
        manager,
        rows,
        phases,
        next_phase: 0,
        setup,
        window_fill_ms: Vec::new(),
        session_steps: Vec::new(),
        session_candidates: Vec::new(),
        candidates_per_s: Vec::new(),
        repartition_counts: Metrics::new(),
    };
    // Take the table to the first phase's layout, so the measured rounds
    // alternate between the two layouts from the first cycle on.
    let mut rec = Recorder::default();
    w.flip(&mut rec);
    assert_eq!(rec.side.failed, 0, "the set-up flip was not applied");
    w
}

impl AdviseWorkload {
    /// One cold sweep. Returns each advisor's interval and the summed
    /// `workload_cost` of every layout produced.
    #[allow(clippy::type_complexity)]
    fn sweep(&self) -> Result<(Vec<(&'static str, Instant, Instant)>, f64), String> {
        let mut intervals = Vec::with_capacity(self.advisors.len());
        let mut model_s = 0.0;
        for advisor in &self.advisors {
            let name = advisor.name();
            let start = Instant::now();
            for t in &self.tables {
                let applies = match name {
                    "BruteForce" => t.brute_force,
                    "Trojan" => t.trojan,
                    _ => true,
                };
                if !applies {
                    continue;
                }
                let request = PartitionRequest::new(&t.schema, &t.workload, &self.model);
                let layout = advisor
                    .partition(&request)
                    .map_err(|e| format!("{name} on {}: {e}", t.schema.name()))?;
                // Gates: a valid partitioning of the table, and HillClimb
                // never worse than the better of row and column.
                Partitioning::new(&t.schema, layout.partitions().to_vec())
                    .map_err(|e| format!("{name} on {}: {e}", t.schema.name()))?;
                let cost = self.model.workload_cost(&t.schema, &layout, &t.workload);
                if name == "HillClimb" && cost > t.baseline_cost * (1.0 + 1e-9) {
                    return Err(format!(
                        "HillClimb on {}: cost {cost} above row/column {}",
                        t.schema.name(),
                        t.baseline_cost
                    ));
                }
                model_s += cost;
            }
            intervals.push((name, start, Instant::now()));
        }
        Ok((intervals, model_s))
    }

    /// One flip round: fill the window with the other phase's queries
    /// (inside the cycle, not timed as a class), then time `advise_with`,
    /// which must move the table to that phase's layout.
    fn flip(&mut self, rec: &mut Recorder) {
        let phase = &self.phases[self.next_phase];
        self.next_phase = 1 - self.next_phase;
        let start = Instant::now();
        for g in phase {
            match self.manager.serve(g.query.clone()) {
                Ok(result) if result.checksum == g.checksum => {}
                Ok(result) => rec.fail(
                    OpClass::Side,
                    format!(
                        "{}: checksum {:#x}, oracle {:#x}",
                        g.query.name, result.checksum, g.checksum
                    ),
                ),
                Err(e) => rec.fail(OpClass::Side, format!("{}: {e}", g.query.name)),
            }
        }
        self.window_fill_ms
            .push(start.elapsed().as_secs_f64() * 1e3);

        let manager = &mut self.manager;
        let done = rec.op(OpClass::Side, FLIP, || {
            match manager.advise_with(Budget::UNLIMITED) {
                (RepartitionDecision::Applied(event), session) => {
                    let model_s = event.stats.io_seconds;
                    Ok(((event, session), model_s))
                }
                (other, _) => Err(format!("flip was not applied: {other:?}")
                    .chars()
                    .take(300)
                    .collect()),
            }
        });
        let Some(((event, session), span)) = done else {
            return;
        };
        let session_s = session.elapsed.as_secs_f64();
        self.session_steps.push(session.steps as f64);
        self.session_candidates.push(session.candidates as f64);
        self.candidates_per_s
            .push(session.candidates as f64 / session_s);
        self.repartition_counts = repartition_counts(&event.stats);
        if let (Some(root), Some(tracer)) = (span, rec.tracer.as_mut()) {
            // The manager reports where the round's time went.
            tracer.reported_child(root, "lifecycle.session", session_s);
            tracer.reported_child(root, "storage.engine.repartition", event.stats.cpu_seconds);
        }
    }
}

impl Workload for AdviseWorkload {
    /// Two cycles: one flip each way, so every block does the same work.
    fn block_cycles(&self) -> usize {
        2
    }

    fn cycle(&mut self, rec: &mut Recorder) {
        let done = rec.op(OpClass::Main, SWEEP, || self.sweep());
        if let (Some((intervals, Some(root))), Some(tracer)) = (done, rec.tracer.as_mut()) {
            for (name, start, end) in intervals {
                tracer.child_at(root, name, start, end);
            }
        }
        self.flip(rec);
    }

    fn facts(&self) -> Facts {
        Facts {
            rows: self.rows,
            table: "the flipped Lineitem, durable (StoredTable::create) on MemDir".into(),
            flush_policy: "none: MemDir has nothing to flush".into(),
            cycle: format!(
                "1 sweep ({} advisors, {} tables) + {WINDOW} served queries + 1 advise_with",
                self.advisors.len(),
                self.tables.len()
            ),
        }
    }

    fn layer_metrics(&mut self, traced: &Window, out: &mut Metrics) {
        out.append(&mut self.setup);
        out.append(&mut self.repartition_counts);
        let tracer = traced.tracer.as_ref().expect("traced window");
        for name in self.advisors.iter().map(|a| a.name()) {
            // `core.<lower-case advisor name>_ms`.
            let metric = format!("core.{}_ms", name.to_lowercase());
            put_median(out, &metric, &tracer.durations_us(SWEEP, name), 1e-3);
        }
        put_median(
            out,
            "lifecycle.round_ms",
            &tracer.root_durations_us(FLIP),
            1e-3,
        );
        out.insert(
            "lifecycle.rounds_applied".into(),
            tracer.root_durations_us(FLIP).len() as f64,
        );
        put_median(
            out,
            "lifecycle.session_ms",
            &tracer.durations_us(FLIP, "lifecycle.session"),
            1e-3,
        );
        put_median(
            out,
            "storage.engine.repartition_ms",
            &tracer.durations_us(FLIP, "storage.engine.repartition"),
            1e-3,
        );
        put_median(out, "lifecycle.window_fill_ms", &self.window_fill_ms, 1.0);
        put_median(out, "core.session_steps", &self.session_steps, 1.0);
        put_median(
            out,
            "core.session_candidates",
            &self.session_candidates,
            1.0,
        );
        put_median(out, "cost.candidates_per_s", &self.candidates_per_s, 1.0);
    }

    fn teardown(self: Box<Self>) {}
}
