//! The [`TableManager`]: one live table, served and re-sliced online.

use crate::serve::ScanTarget;
use slicer_core::{Advisor, AdvisorSession, Budget, PartitionRequest, SessionStats};
use slicer_cost::{CostModel, DiskParams, EvalMemos, HddCostModel};
use slicer_metrics::Payoff;
use slicer_model::{ModelError, Partitioning, Query, SlidingWorkload};
use slicer_storage::{
    IngestBatch, IngestStats, RepartitionStats, ScanExecutor, ScanResult, StorageError, StoredTable,
};
use std::sync::Arc;

/// How the payoff test prices *adopting* a candidate layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdoptionPricing {
    /// The paper's gate: price the full
    /// [`HddCostModel::layout_creation_time`] — sequentially re-read the
    /// whole table and write every partition file, as if materializing
    /// from scratch.
    FullCreation,
    /// Price the *actual* move: the modeled incremental I/O of
    /// [`StoredTable::repartition_plan`], where kept files cost nothing.
    /// Under mild drift (most files unchanged) this adopts good layouts
    /// far earlier than the full-price gate — the ROADMAP's
    /// "repartition-aware payoff".
    #[default]
    IncrementalMove,
}

/// Tuning knobs of one [`TableManager`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableManagerConfig {
    /// Sliding-window capacity in queries: the workload the advisor sees.
    pub window: usize,
    /// Re-advise after every this many executed queries.
    pub advise_every: u64,
    /// Budget for each advisor run (anytime best-so-far under deadline
    /// and/or step caps; see [`Budget`]).
    pub budget: Budget,
    /// Payoff horizon in *window workload executions*: a candidate layout
    /// is adopted only when `optimization time + adoption price`
    /// amortizes against the per-execution saving within this many
    /// executions of the windowed workload (the paper's Figure 10 payoff
    /// test, applied online).
    pub payoff_horizon: f64,
    /// How adoption is priced in the payoff test (see [`AdoptionPricing`]).
    pub pricing: AdoptionPricing,
}

impl Default for TableManagerConfig {
    fn default() -> Self {
        TableManagerConfig {
            window: 64,
            advise_every: 16,
            budget: Budget::UNLIMITED,
            payoff_horizon: 16.0,
            pricing: AdoptionPricing::IncrementalMove,
        }
    }
}

/// Aggregate counters over a manager's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ManagerStats {
    /// Queries executed.
    pub queries: u64,
    /// Advisor sessions run.
    pub advisor_runs: u64,
    /// Advisor sessions stopped by their budget (best-so-far layouts).
    pub truncated_runs: u64,
    /// Re-partitionings applied.
    pub repartitions: u64,
    /// Candidate layouts rejected by the payoff test.
    pub rejected_by_payoff: u64,
    /// Simulated scan I/O seconds, summed.
    pub scan_io_seconds: f64,
    /// Measured scan CPU seconds, summed.
    pub scan_cpu_seconds: f64,
    /// Compressed bytes read by scans, summed.
    pub bytes_read: u64,
    /// Wall-clock seconds spent in advisor sessions, summed.
    pub advisor_seconds: f64,
    /// Modeled incremental I/O seconds spent re-partitioning, summed.
    pub repartition_io_seconds: f64,
    /// Measured CPU seconds spent re-partitioning, summed.
    pub repartition_cpu_seconds: f64,
    /// Ingest batches routed through [`TableManager::ingest`].
    pub ingest_batches: u64,
    /// Rows appended by ingest, summed.
    pub rows_appended: u64,
    /// Rows deleted by ingest, summed.
    pub rows_deleted: u64,
    /// Modeled WAL-append I/O seconds spent by ingest, summed.
    pub wal_io_seconds: f64,
    /// Delta rows folded back into the columnar base by adopted
    /// re-partitions, summed.
    pub delta_rows_folded: u64,
}

/// Realized payoff of a table's adopted layout moves: what re-partitioning
/// actually cost (modeled incremental I/O) versus what the traffic served
/// *since* each adoption actually saved (modeled I/O under the forgone
/// layout minus under the adopted one, per query). This is the per-table
/// signal the ROADMAP's "learned drift floor" needs: a table whose moves
/// keep paying off deserves budget; one whose savings never catch the
/// invested price does not.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RealizedPayoff {
    /// Layout moves adopted.
    pub moves: u64,
    /// Modeled incremental I/O spent moving, summed over all moves.
    pub invested_io_seconds: f64,
    /// Modeled I/O the served queries saved versus the layout the latest
    /// move replaced (accrues per served query; resets its baseline — not
    /// its total — at each new move).
    pub saved_io_seconds: f64,
    /// The share of `invested_io_seconds` attributable to folding an
    /// ingested delta back into the base (the extra seek plus the delta's
    /// row-store bytes re-read), so a ledger reader can separate "the
    /// layout moved" from "the ingest debt was repaid".
    pub invested_fold_io_seconds: f64,
}

impl RealizedPayoff {
    /// Saved minus invested: positive once the moves have amortized.
    pub fn net_io_seconds(&self) -> f64 {
        self.saved_io_seconds - self.invested_io_seconds
    }
}

/// Modeled I/O seconds one scan pays for reading a row-store delta of
/// `delta_bytes` alongside its projected base files: the same one-extra-
/// "file" rule the storage scan paths apply, priced as if the delta read
/// the whole buffer alone (the gate's estimate — exact buffer sharing
/// depends on each query's projection).
fn delta_read_tax(disk: &DiskParams, delta_bytes: u64) -> f64 {
    if delta_bytes == 0 {
        return 0.0;
    }
    let b = disk.block_size;
    let blocks = delta_bytes.div_ceil(b);
    let blocks_buff = (disk.buffer_size / b).max(1);
    let seeks = blocks.div_ceil(blocks_buff);
    disk.seek_time * seeks as f64 + (blocks * b) as f64 / disk.read_bandwidth
}

/// Outcome of one multi-threaded [`TableManager::serve_batch`] drain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeBatchReport {
    /// Queries served.
    pub queries: u64,
    /// Worker threads that drained the batch.
    pub threads: usize,
    /// Wall-clock seconds from first to last scan.
    pub wall_seconds: f64,
    /// `queries / wall_seconds` (0 for an empty batch).
    pub queries_per_second: f64,
    /// Order-deterministic accumulator over the per-scan checksums
    /// (`checksum[i]` rotated by `i % 63`, XOR-folded) — comparable across
    /// runs and against a sequential oracle drain of the same batch.
    pub checksum: u64,
    /// Simulated scan I/O seconds, summed.
    pub scan_io_seconds: f64,
    /// Measured scan CPU seconds, summed.
    pub scan_cpu_seconds: f64,
    /// Compressed bytes read, summed.
    pub bytes_read: u64,
    /// Lowest snapshot generation any scan pinned.
    pub min_generation: u64,
    /// Highest snapshot generation any scan pinned (`>` min iff a
    /// re-partition was published mid-drain).
    pub max_generation: u64,
}

/// One applied re-partitioning.
#[derive(Debug, Clone)]
pub struct RepartitionEvent {
    /// Query count at which the move happened.
    pub at_query: u64,
    /// The layout moved away from.
    pub old_layout: Partitioning,
    /// The layout moved to.
    pub new_layout: Partitioning,
    /// Windowed workload cost under the old layout.
    pub old_cost: f64,
    /// Windowed workload cost under the new layout.
    pub new_cost: f64,
    /// The payoff analysis that green-lit the move.
    pub payoff: Payoff,
    /// What the in-place re-slice touched and cost.
    pub stats: RepartitionStats,
    /// True iff the advisor session that produced the layout was stopped
    /// by its budget (the layout is best-so-far, not a local optimum).
    pub truncated_search: bool,
}

/// Outcome of the re-advise check after one executed query.
#[derive(Debug, Clone)]
pub enum RepartitionDecision {
    /// The re-advise cadence has not come up yet.
    NotDue,
    /// The advisor confirmed the current layout (or an empty window).
    NoChange,
    /// A better layout exists but does not amortize within the horizon.
    Rejected {
        /// The failed payoff analysis (its
        /// [`Payoff::executions_to_pay_off`] exceeds the horizon, or the
        /// saving is non-positive).
        payoff: Payoff,
    },
    /// The table was re-sliced in place.
    Applied(Box<RepartitionEvent>),
    /// The advisor session itself failed (e.g. the configured advisor
    /// cannot handle the table — BruteForce over too large a space,
    /// Trojan over too wide a schema). The layout is unchanged; the query
    /// that triggered the cadence was still served and windowed.
    Failed {
        /// The advisor's error.
        error: ModelError,
    },
}

/// Serves scans over one [`StoredTable`] while adapting its layout to the
/// observed workload: every query lands in a sliding window; on a cadence
/// the window is re-advised under a budget (with warm evaluator memos
/// carried across runs); and when the payoff test approves, the table is
/// re-sliced via the zero-stall [`StoredTable::repartition`].
///
/// The table lives behind an `Arc` ([`TableManager::table_handle`]), and
/// both scans and re-partitions take `&StoredTable` — so a multi-threaded
/// drain ([`TableManager::serve_batch`]) keeps scanning while an advise
/// round re-slices the table underneath it.
pub struct TableManager {
    table: Arc<StoredTable>,
    advisor: Box<dyn Advisor>,
    cost: HddCostModel,
    disk: DiskParams,
    window: SlidingWorkload,
    cfg: TableManagerConfig,
    memos: EvalMemos,
    stats: ManagerStats,
    realized: RealizedPayoff,
    /// The layout the latest adopted move replaced, plus the snapshot
    /// generation at which the move took effect: the forgone alternative
    /// that [`RealizedPayoff::saved_io_seconds`] prices served queries
    /// against — but only queries whose pinned snapshot post-dates the
    /// move (a batch fold must not credit the move for scans that read
    /// the pre-move layout). `None` until the first move.
    payoff_baseline: Option<(Partitioning, u64)>,
}

impl TableManager {
    /// Manage `table`, re-advising with `advisor` under `cost` (whose disk
    /// parameters also drive the simulated scan I/O).
    ///
    /// # Panics
    /// If `cfg.advise_every` is zero (the advisor would never run) or
    /// `cfg.window` is zero (rejected by [`SlidingWorkload::new`]).
    pub fn new(
        table: StoredTable,
        advisor: Box<dyn Advisor>,
        cost: HddCostModel,
        cfg: TableManagerConfig,
    ) -> TableManager {
        assert!(cfg.advise_every > 0, "advise cadence must be positive");
        let disk = cost.params();
        let window = SlidingWorkload::new(cfg.window);
        TableManager {
            table: Arc::new(table),
            advisor,
            cost,
            disk,
            window,
            cfg,
            memos: EvalMemos::new(),
            stats: ManagerStats::default(),
            realized: RealizedPayoff::default(),
            payoff_baseline: None,
        }
    }

    /// The managed table.
    pub fn table(&self) -> &StoredTable {
        &self.table
    }

    /// A shared handle to the managed table, for serving threads that
    /// scan (or re-slice) concurrently with this manager.
    pub fn table_handle(&self) -> Arc<StoredTable> {
        Arc::clone(&self.table)
    }

    /// The table's current layout.
    pub fn layout(&self) -> Partitioning {
        self.table.layout()
    }

    /// Realized payoff of the moves adopted so far (see
    /// [`RealizedPayoff`]).
    pub fn realized_payoff(&self) -> RealizedPayoff {
        self.realized
    }

    /// The managed table's scan endpoint (shared with a fleet serve front
    /// that scans on this manager's behalf).
    pub(crate) fn target(&self) -> ScanTarget {
        ScanTarget {
            table: Arc::clone(&self.table),
            disk: self.disk,
        }
    }

    /// The simulated disk parameters, for an external serve front (e.g. a
    /// network tier) that scans pinned snapshots on this manager's behalf
    /// and folds the results back via [`crate::TableFleet::record_scan`].
    pub fn disk_params(&self) -> DiskParams {
        self.disk
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ManagerStats {
        &self.stats
    }

    /// The current sliding window, snapshotted.
    pub fn window(&self) -> slicer_model::Workload {
        self.window.workload()
    }

    /// Execute one query: scan the table under the current layout, record
    /// the query into the sliding window, and — on the configured cadence —
    /// re-advise and possibly re-slice.
    ///
    /// `Err` means the query does not fit the table's schema and was *not*
    /// served or windowed (the window bypasses `Workload`'s validated
    /// constructors, so the gate lives here). A failing advisor never
    /// discards a served scan: it surfaces as
    /// [`RepartitionDecision::Failed`] alongside the result.
    pub fn execute(
        &mut self,
        query: Query,
    ) -> Result<(ScanResult, RepartitionDecision), ModelError> {
        let result = self.serve(query)?;
        let decision = if self.stats.queries.is_multiple_of(self.cfg.advise_every) {
            self.advise_with(self.cfg.budget).0
        } else {
            RepartitionDecision::NotDue
        };
        Ok((result, decision))
    }

    /// Serve one query — scan, stats, window — without consulting the
    /// re-advise cadence. This is the routing half of [`TableManager::execute`];
    /// a fleet front end that schedules advisor sessions centrally calls
    /// this per query and decides itself when (and with what budget) each
    /// table gets advised.
    ///
    /// A predicated query is stamped from the snapshot it scans
    /// ([`ScanTarget::pin`]), so the windowed copy prices through
    /// [`CostModel::query_groups_cost_pruned`] with the skip this scan
    /// measured rather than a guess.
    pub fn serve(&mut self, query: Query) -> Result<ScanResult, ModelError> {
        let (query, snapshot) = self.target().pin(query)?;
        let result =
            ScanExecutor::new(&self.table).scan_query_snapshot(&snapshot, &query, &self.disk);
        self.record_served(query, &result, &snapshot);
        Ok(result)
    }

    /// Book one externally-executed scan into the manager: stats, realized
    /// payoff accrual, sliding window. The scan itself already happened
    /// (on a serving thread); `served` is the snapshot it actually pinned.
    /// Savings are credited against the layout the scan really read, and
    /// only for scans whose snapshot post-dates the latest move — a move
    /// landing mid-batch is credited neither for the scans that preceded
    /// it nor (if several moves land in one drain) for scans served under
    /// an earlier baseline.
    pub(crate) fn record_served(
        &mut self,
        query: Query,
        result: &ScanResult,
        served: &slicer_storage::TableSnapshot,
    ) {
        self.stats.queries += 1;
        self.stats.scan_io_seconds += result.io_seconds;
        self.stats.scan_cpu_seconds += result.cpu_seconds;
        self.stats.bytes_read += result.bytes_read;
        if let Some((baseline, since_generation)) = &self.payoff_baseline {
            if served.generation >= *since_generation {
                self.realized.saved_io_seconds +=
                    self.cost.query_cost(&self.table.schema, baseline, &query)
                        - self
                            .cost
                            .query_cost(&self.table.schema, &served.layout, &query);
            }
        }
        self.window.observe(query);
    }

    /// Route one ingest batch into the managed table: WAL-append (when the
    /// table is durable), publish the extended delta, and book the write
    /// into the manager's counters. The grown delta immediately raises
    /// [`TableManager::window_cost`] — every windowed scan now pays the
    /// delta read tax — which is exactly the pressure the next advise
    /// round's payoff gate weighs against the price of folding
    /// ([`TableManager::advise_with`] considers a fold-only move even when
    /// the advisor confirms the current layout).
    ///
    /// `Err` means the batch failed validation (schema mismatch, bad
    /// deletes) and nothing was applied.
    pub fn ingest(&mut self, batch: &IngestBatch) -> Result<IngestStats, StorageError> {
        let stats = self.table.ingest(batch, &self.disk)?;
        self.stats.ingest_batches += 1;
        self.stats.rows_appended += stats.rows_appended;
        self.stats.rows_deleted += stats.rows_deleted;
        self.stats.wal_io_seconds += stats.io_seconds;
        Ok(stats)
    }

    /// Drain `queries` across `threads` scan workers, then run `overlap`
    /// on the calling thread while the workers are still scanning — the
    /// serve front's primitive. `overlap` gets `&mut self`, so it can run
    /// an advise round or force a re-partition *during* the drain; the
    /// zero-stall snapshot swap means no worker ever blocks on it.
    ///
    /// Every scan pins the table snapshot current at its start, is stamped
    /// from it ([`ScanTarget::pin`]) and is bit-identical to
    /// `scan_naive_query_snapshot` on that same snapshot. Results are
    /// folded into the manager (stats, window, payoff accrual) in batch
    /// order after the drain, so downstream advising is deterministic for
    /// a given batch regardless of thread interleaving. The report's
    /// `wall_seconds` covers the drain itself (last worker's last scan),
    /// not `overlap`'s tail.
    ///
    /// Unlike [`TableManager::execute`], batch serving does **not**
    /// consult the `advise_every` cadence — the serve front schedules
    /// advising explicitly (run [`TableManager::advise_now`] in `overlap`
    /// or between batches).
    ///
    /// `Err` means some query does not fit the schema; nothing is served.
    pub fn serve_batch_with<R>(
        &mut self,
        queries: &[Query],
        threads: usize,
        overlap: impl FnOnce(&mut TableManager) -> R,
    ) -> Result<(ServeBatchReport, R), ModelError> {
        let targets = [self.target()];
        for q in queries {
            targets[0].validate(q.clone())?;
        }
        let routed = vec![0usize; queries.len()];
        let (events, wall_seconds, overlap_out) =
            crate::serve::drain_batch(&targets, &routed, queries, threads, || overlap(self));
        let report = crate::serve::fold_report(
            &events,
            threads,
            wall_seconds,
            self.table.snapshot().generation,
        );
        for ev in events {
            self.record_served(ev.query, &ev.result, &ev.snapshot);
        }
        Ok((report, overlap_out))
    }

    /// [`TableManager::serve_batch_with`] with no overlapped work: a plain
    /// multi-threaded drain.
    pub fn serve_batch(
        &mut self,
        queries: &[Query],
        threads: usize,
    ) -> Result<ServeBatchReport, ModelError> {
        self.serve_batch_with(queries, threads, |_| ())
            .map(|(report, ())| report)
    }

    /// Run one budgeted advisor session over the current window and apply
    /// the payoff test, regardless of cadence.
    pub fn advise_now(&mut self) -> Result<RepartitionDecision, ModelError> {
        match self.advise_with(self.cfg.budget) {
            (RepartitionDecision::Failed { error }, _) => Err(error),
            (decision, _) => Ok(decision),
        }
    }

    /// [`TableManager::advise_now`] with an explicit budget override (a
    /// fleet granting slices of a shared pool) — returning the session's
    /// spend telemetry alongside the decision so the caller can charge a
    /// [`slicer_core::BudgetPool`] for what was *actually* consumed. An
    /// advisor failure surfaces as [`RepartitionDecision::Failed`], never
    /// as an `Err`; an empty window is a no-work [`RepartitionDecision::NoChange`]
    /// with zeroed stats.
    pub fn advise_with(&mut self, budget: Budget) -> (RepartitionDecision, SessionStats) {
        let no_work = SessionStats {
            steps: 0,
            candidates: 0,
            truncated: false,
            elapsed: std::time::Duration::ZERO,
        };
        if self.window.is_empty() {
            return (RepartitionDecision::NoChange, no_work);
        }
        let window = self.window.workload();
        let candidate;
        let session_stats;
        {
            let schema = &self.table.schema;
            let req = PartitionRequest::new(schema, &window, &self.cost);
            let mut session =
                AdvisorSession::new(&req, budget).with_memos(std::mem::take(&mut self.memos));
            let outcome = self.advisor.partition_session(&mut session);
            self.memos = session.take_memos();
            session_stats = session.stats();
            candidate = match outcome {
                Ok(candidate) => candidate,
                Err(error) => return (RepartitionDecision::Failed { error }, session_stats),
            };
        }
        self.stats.advisor_runs += 1;
        self.stats.advisor_seconds += session_stats.elapsed.as_secs_f64();
        if session_stats.truncated {
            self.stats.truncated_runs += 1;
        }
        let current = self.table.layout();
        let delta_bytes = self.table.delta_bytes();
        if candidate == current && delta_bytes == 0 {
            return (RepartitionDecision::NoChange, session_stats);
        }
        // Every windowed scan under the *current* state also reads the
        // row-store delta; any adopted move folds that delta away. The tax
        // therefore sits on the old-cost side of the gate — which is what
        // lets a fold-only move (candidate == current layout, delta
        // non-empty) pay off purely by retiring the scan tax.
        let delta_tax = delta_read_tax(&self.disk, delta_bytes) * self.window.total_weight();
        let schema = &self.table.schema;
        let old_cost = self.cost.workload_cost(schema, &current, &window) + delta_tax;
        let new_cost = self.cost.workload_cost(schema, &candidate, &window);
        let creation_time = match self.cfg.pricing {
            AdoptionPricing::FullCreation => self.cost.layout_creation_time(schema, &candidate),
            AdoptionPricing::IncrementalMove => {
                self.table
                    .repartition_plan(&candidate, &self.disk)
                    .io_seconds
            }
        };
        let payoff = Payoff {
            optimization_time: session_stats.elapsed.as_secs_f64(),
            creation_time,
            saving_per_execution: old_cost - new_cost,
        };
        let decision = match payoff.executions_to_pay_off() {
            Some(executions) if executions <= self.cfg.payoff_horizon => {
                let old_layout = current;
                let stats = self.table.repartition(&candidate, &self.disk);
                self.stats.repartitions += 1;
                self.stats.repartition_io_seconds += stats.io_seconds;
                self.stats.repartition_cpu_seconds += stats.cpu_seconds;
                self.stats.delta_rows_folded += stats.delta_rows_folded as u64;
                self.realized.moves += 1;
                self.realized.invested_io_seconds += stats.io_seconds;
                if stats.delta_bytes_folded > 0 {
                    // The fold's share of the invested I/O, mirroring the
                    // engine's accounting: one extra seek plus the delta's
                    // row-store bytes re-read.
                    let b = self.disk.block_size;
                    self.realized.invested_fold_io_seconds += self.disk.seek_time
                        + (stats.delta_bytes_folded.div_ceil(b) * b) as f64
                            / self.disk.read_bandwidth;
                }
                // Savings accrue only for scans pinning snapshots at or
                // after the one this move just published.
                self.payoff_baseline = Some((old_layout.clone(), self.table.snapshot().generation));
                RepartitionDecision::Applied(Box::new(RepartitionEvent {
                    at_query: self.stats.queries,
                    old_layout,
                    new_layout: candidate,
                    old_cost,
                    new_cost,
                    payoff,
                    stats,
                    truncated_search: session_stats.truncated,
                }))
            }
            _ => {
                self.stats.rejected_by_payoff += 1;
                RepartitionDecision::Rejected { payoff }
            }
        };
        (decision, session_stats)
    }

    /// Estimated cost of one execution of the current window under the
    /// table's current layout *and current delta* (the fleet's drift
    /// numerator; zero for an empty window). An un-folded delta makes
    /// every windowed scan pay its read tax, so ingest pressure shows up
    /// here — and thereby in the fleet's drift-first scheduling — without
    /// any query-shape drift.
    pub fn window_cost(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let window = self.window.workload();
        self.cost
            .workload_cost(&self.table.schema, &self.table.layout(), &window)
            + delta_read_tax(&self.disk, self.table.delta_bytes()) * self.window.total_weight()
    }

    /// Sum of the windowed queries' weights.
    pub fn window_weight(&self) -> f64 {
        self.window.total_weight()
    }

    /// The current window's access profile over the table's attributes
    /// (see [`SlidingWorkload::access_profile`]).
    pub fn window_profile(&self) -> Vec<f64> {
        self.window.access_profile(self.table.schema.attr_count())
    }

    /// Drift of the current window away from a reference access profile
    /// (see [`SlidingWorkload::drift_from`]).
    pub fn window_drift_from(&self, reference: &[f64]) -> f64 {
        self.window.drift_from(reference)
    }

    /// The manager's configuration.
    pub fn config(&self) -> &TableManagerConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_core::HillClimb;
    use slicer_model::TableSchema;
    use slicer_storage::{generate_table, scan_naive_query_snapshot, CompressionPolicy};
    use slicer_workloads::tpch;

    const ROWS: usize = 4000;

    fn lineitem() -> TableSchema {
        tpch::table(tpch::TpchTable::Lineitem, 1.0).with_row_count(ROWS as u64)
    }

    fn manager(cfg: TableManagerConfig) -> TableManager {
        let schema = lineitem();
        let data = generate_table(&schema, ROWS, 7);
        let table = StoredTable::load(
            &schema,
            &data,
            &Partitioning::row(&schema),
            CompressionPolicy::Default,
        );
        TableManager::new(
            table,
            Box::new(HillClimb::new()),
            HddCostModel::paper_testbed(),
            cfg,
        )
    }

    fn pricing(schema: &TableSchema) -> Query {
        Query::new(
            "pricing",
            schema
                .attr_set(&["Quantity", "ExtendedPrice", "Discount", "ShipDate"])
                .unwrap(),
        )
    }

    fn logistics(schema: &TableSchema) -> Query {
        Query::new(
            "logistics",
            schema
                .attr_set(&["OrderKey", "CommitDate", "ReceiptDate", "ShipMode"])
                .unwrap(),
        )
    }

    #[test]
    fn drift_triggers_payoff_gated_repartitions() {
        let mut m = manager(TableManagerConfig {
            window: 16,
            advise_every: 8,
            budget: Budget::UNLIMITED,
            payoff_horizon: 64.0,
            ..TableManagerConfig::default()
        });
        let schema = lineitem();
        let mut applied = 0u64;
        for _ in 0..16 {
            let (_, d) = m.execute(pricing(&schema)).unwrap();
            if matches!(d, RepartitionDecision::Applied(_)) {
                applied += 1;
            }
        }
        assert!(applied >= 1, "pricing phase should trigger a repartition");
        assert!(m.layout().len() > 1, "row layout should have been sliced");
        let pricing_layout = m.layout().clone();
        for _ in 0..24 {
            let (_, d) = m.execute(logistics(&schema)).unwrap();
            if matches!(d, RepartitionDecision::Applied(_)) {
                applied += 1;
            }
        }
        assert!(applied >= 2, "the phase shift should re-slice again");
        assert_ne!(pricing_layout, m.layout());
        assert_eq!(m.stats().repartitions, applied);
        assert!(m.stats().advisor_runs >= applied);
    }

    #[test]
    fn repartitioned_table_scans_like_fresh_load() {
        let mut m = manager(TableManagerConfig {
            window: 16,
            advise_every: 8,
            budget: Budget::UNLIMITED,
            payoff_horizon: 64.0,
            ..TableManagerConfig::default()
        });
        let schema = lineitem();
        for _ in 0..16 {
            m.execute(pricing(&schema)).unwrap();
        }
        assert!(m.stats().repartitions >= 1);
        let data = generate_table(&schema, ROWS, 7);
        let fresh = StoredTable::load(&schema, &data, &m.layout(), CompressionPolicy::Default);
        let disk = HddCostModel::paper_testbed().params();
        for q in [pricing(&schema), logistics(&schema)] {
            let a = scan_naive_query_snapshot(&m.table().snapshot(), &q, &disk);
            let b = scan_naive_query_snapshot(&fresh.snapshot(), &q, &disk);
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(a.bytes_read, b.bytes_read);
        }
    }

    #[test]
    fn advisor_failure_surfaces_as_decision_not_error() {
        // An advisor that cannot handle the table (BruteForce over a space
        // larger than its cap) must not fail the query that was already
        // served — it reports RepartitionDecision::Failed instead.
        let schema = lineitem();
        let data = generate_table(&schema, ROWS, 7);
        let table = StoredTable::load(
            &schema,
            &data,
            &Partitioning::row(&schema),
            CompressionPolicy::Default,
        );
        let mut m = TableManager::new(
            table,
            Box::new(slicer_core::BruteForce::exhaustive().with_max_candidates(1)),
            HddCostModel::paper_testbed(),
            TableManagerConfig {
                advise_every: 4,
                ..TableManagerConfig::default()
            },
        );
        for i in 1..=8u64 {
            let (_, decision) = m.execute(pricing(&schema)).expect("query fits the schema");
            if i.is_multiple_of(4) {
                assert!(matches!(decision, RepartitionDecision::Failed { .. }));
            } else {
                assert!(matches!(decision, RepartitionDecision::NotDue));
            }
        }
        assert_eq!(m.stats().queries, 8, "every query was served and counted");
    }

    #[test]
    fn incremental_pricing_adopts_mild_drift_earlier_than_full_price() {
        // Mild drift: the table already serves phase A well; phase B only
        // wants one extra attribute co-located, so the best candidate is a
        // 1-group change that keeps every other file. The incremental-move
        // price is then a fraction of the full creation price, and with a
        // horizon between the two payoff counts the full-price gate
        // rejects the very move the incremental gate adopts.
        let schema = slicer_model::TableSchema::builder("T", 50_000)
            .attr("A", 8, slicer_model::AttrKind::Decimal)
            .attr("B", 8, slicer_model::AttrKind::Decimal)
            .attr("C", 8, slicer_model::AttrKind::Decimal)
            .attr("D", 8, slicer_model::AttrKind::Decimal)
            .attr("E", 8, slicer_model::AttrKind::Decimal)
            .attr("F", 199, slicer_model::AttrKind::Text)
            .build()
            .unwrap();
        let rows = 50_000usize;
        let data = generate_table(&schema, rows, 11);
        // The layout phase A settled on: pricing columns together, the rest
        // in their own files.
        let settled = Partitioning::new(
            &schema,
            vec![
                schema.attr_set(&["A", "B"]).unwrap(),
                schema.attr_set(&["C", "D"]).unwrap(),
                schema.attr_set(&["E"]).unwrap(),
                schema.attr_set(&["F"]).unwrap(),
            ],
        )
        .unwrap();
        let model = HddCostModel::paper_testbed();
        let steady = Query::new("a", schema.attr_set(&["A", "B"]).unwrap());
        let drift = Query::new("b", schema.attr_set(&["C", "D", "E"]).unwrap());
        // Mild drift: phase A traffic keeps dominating the window, phase B
        // only asks for E to join the C/D file.
        let window_queries = |(): ()| -> Vec<Query> {
            (0..16)
                .map(|i| {
                    if i % 4 == 3 {
                        drift.clone()
                    } else {
                        steady.clone()
                    }
                })
                .collect()
        };

        // Dry pricing of the move the advisor will propose on the drifted
        // window, with optimization time factored out.
        let (candidate, saving, full_price, inc_price) = {
            let table = StoredTable::load(&schema, &data, &settled, CompressionPolicy::Default);
            let window = slicer_model::Workload::with_queries(&schema, window_queries(())).unwrap();
            let req = slicer_core::PartitionRequest::new(&schema, &window, &model);
            let candidate = HillClimb::new().partition(&req).unwrap();
            assert_ne!(candidate, settled, "the drift must warrant a move");
            let plan = table.repartition_plan(&candidate, &model.params());
            assert!(
                plan.files_kept >= 2 && plan.files_rebuilt <= 2,
                "mild drift should be a small change: {plan:?}"
            );
            let saving = model.workload_cost(&schema, &settled, &window)
                - model.workload_cost(&schema, &candidate, &window);
            assert!(saving > 0.0);
            let full_price = model.layout_creation_time(&schema, &candidate);
            (candidate, saving, full_price, plan.io_seconds)
        };
        let exec_full = full_price / saving;
        let exec_inc = inc_price / saving;
        assert!(
            exec_inc * 2.0 <= exec_full,
            "incremental price must pay off markedly earlier: {exec_inc} vs {exec_full}"
        );

        // Behavioral check: identical managers, identical drifted windows,
        // a horizon between the two payoff counts — only the pricing knob
        // differs, and only the incremental gate green-lights the move.
        let horizon = (exec_full * exec_inc).sqrt();
        let run = |pricing: AdoptionPricing| -> RepartitionDecision {
            let table = StoredTable::load(&schema, &data, &settled, CompressionPolicy::Default);
            let mut m = TableManager::new(
                table,
                Box::new(HillClimb::new()),
                model,
                TableManagerConfig {
                    window: 16,
                    advise_every: u64::MAX, // scheduled by hand below
                    budget: Budget::UNLIMITED,
                    payoff_horizon: horizon,
                    pricing,
                },
            );
            for q in window_queries(()) {
                m.serve(q).unwrap();
            }
            m.advise_now().unwrap()
        };
        match run(AdoptionPricing::FullCreation) {
            RepartitionDecision::Rejected { payoff } => {
                assert!(payoff.executions_to_pay_off().unwrap() > horizon);
            }
            other => panic!("full-price gate should reject the mild move, got {other:?}"),
        }
        match run(AdoptionPricing::IncrementalMove) {
            RepartitionDecision::Applied(ev) => {
                assert_eq!(ev.new_layout, candidate);
                assert!(ev.payoff.executions_to_pay_off().unwrap() <= horizon);
                assert!(ev.stats.files_kept >= 2, "the move really was mild");
            }
            other => panic!("incremental gate should adopt the mild move, got {other:?}"),
        }
    }

    #[test]
    fn ingest_pressure_triggers_a_fold_only_move() {
        let mut m = manager(TableManagerConfig {
            window: 16,
            advise_every: u64::MAX, // advised by hand below
            budget: Budget::UNLIMITED,
            payoff_horizon: 64.0,
            ..TableManagerConfig::default()
        });
        let schema = lineitem();
        for _ in 0..16 {
            m.serve(pricing(&schema)).unwrap();
        }
        m.advise_now().unwrap();
        let settled = m.layout();
        let settled_cost = m.window_cost();

        // Ingest raises the window cost: every windowed scan now pays the
        // delta read tax.
        let extra = generate_table(&schema, 2000, 3);
        let stats = m
            .ingest(&slicer_storage::IngestBatch::append(extra))
            .unwrap();
        assert_eq!(stats.rows_appended, 2000);
        assert!(m.table().delta_bytes() > 0);
        assert!(m.window_cost() > settled_cost, "delta tax must show up");
        assert_eq!(m.stats().ingest_batches, 1);
        assert_eq!(m.stats().rows_appended, 2000);

        // The advisor confirms the settled layout, but the payoff gate now
        // prices "fold the delta" against letting the tax accrue — and the
        // tax wins well within the horizon.
        match m.advise_now().unwrap() {
            RepartitionDecision::Applied(ev) => {
                assert_eq!(ev.new_layout, settled, "a fold, not a layout move");
                assert_eq!(ev.stats.delta_rows_folded, 2000);
                assert!(ev.stats.delta_bytes_folded > 0);
            }
            other => panic!("expected a fold-only move, got {other:?}"),
        }
        assert!(m.table().snapshot().delta.is_empty());
        assert_eq!(m.table().rows(), ROWS + 2000);
        assert_eq!(m.stats().delta_rows_folded, 2000);
        assert!(m.realized_payoff().invested_fold_io_seconds > 0.0);
        assert_eq!(
            m.window_cost().to_bits(),
            settled_cost.to_bits(),
            "fold retires the tax back to exactly the settled layout's cost"
        );
        // Re-advising the same window with no delta is a plain NoChange.
        assert!(matches!(
            m.advise_now().unwrap(),
            RepartitionDecision::NoChange
        ));

        // Rejected deletes leave everything untouched.
        assert!(m
            .ingest(&slicer_storage::IngestBatch::delete(vec![u64::MAX]))
            .is_err());
        assert_eq!(m.stats().ingest_batches, 1);
    }

    #[test]
    fn predicated_queries_serve_exactly_and_window_prices_the_skip() {
        use slicer_model::{Literal, PredClause, PredOp, Predicate};
        let mut m = manager(TableManagerConfig {
            window: 16,
            advise_every: u64::MAX,
            ..TableManagerConfig::default()
        });
        let schema = lineitem();
        let referenced = schema
            .attr_set(&["Quantity", "ExtendedPrice", "ShipDate"])
            .unwrap();
        let ship = schema.attr_id("ShipDate").unwrap();
        let narrow =
            Query::new("narrow", referenced).with_predicate(Predicate::new(vec![PredClause::new(
                ship,
                PredOp::Le,
                Literal::date(-1),
            )]));
        // Served scans are bit-identical to the predicate-filtered oracle.
        let served = m.serve(narrow.clone()).unwrap();
        let oracle = scan_naive_query_snapshot(
            &m.table().snapshot(),
            &narrow,
            &HddCostModel::paper_testbed().params(),
        );
        assert_eq!(served.checksum, oracle.checksum);
        assert!(served.bytes_read <= oracle.bytes_read);
        // The windowed copy carries the measured skip probability, so the
        // window cost is strictly below the skip-priced-at-zero cost.
        let windowed = m.window();
        let q = &windowed.queries()[0];
        let kept = q.predicate.as_ref().unwrap().kept_fraction;
        assert!(kept < 1.0, "an impossible range must prune: {kept}");
        let flat =
            slicer_model::Workload::with_queries(&schema, vec![Query::new("flat", referenced)])
                .unwrap();
        let model = HddCostModel::paper_testbed();
        // Under a layout that isolates the driver, the stamped window
        // prices strictly cheaper (the manager's own row layout holds the
        // driver in the lone group, which stays full-price by contract).
        let col = Partitioning::column(&schema);
        assert!(
            model.workload_cost(&schema, &col, &windowed)
                < model.workload_cost(&schema, &col, &flat),
            "window must see pruning-aware IO"
        );
        // Batch serving takes the same predicate path.
        let (report, ()) = m.serve_batch_with(&[narrow], 2, |_| ()).unwrap();
        assert_eq!(report.checksum, oracle.checksum.rotate_left(0));
    }

    #[test]
    fn out_of_schema_queries_are_rejected() {
        let mut m = manager(TableManagerConfig::default());
        let bad = Query::new("bad", slicer_model::AttrSet::single(40usize));
        assert!(m.execute(bad).is_err(), "16-attr Lineitem has no attr 40");
        assert_eq!(m.stats().queries, 0, "rejected queries must not count");
        assert!(m.window().is_empty(), "and must not enter the window");
    }

    #[test]
    fn zero_horizon_rejects_every_move() {
        let mut m = manager(TableManagerConfig {
            window: 16,
            advise_every: 4,
            budget: Budget::UNLIMITED,
            payoff_horizon: 0.0,
            ..TableManagerConfig::default()
        });
        let schema = lineitem();
        for _ in 0..16 {
            let (_, d) = m.execute(pricing(&schema)).unwrap();
            assert!(!matches!(d, RepartitionDecision::Applied(_)));
        }
        assert_eq!(m.stats().repartitions, 0);
        assert!(m.stats().rejected_by_payoff >= 1);
        assert_eq!(m.layout().len(), 1, "still the row layout");
    }

    #[test]
    fn budgeted_sessions_are_recorded() {
        let mut m = manager(TableManagerConfig {
            window: 16,
            advise_every: 4,
            budget: Budget::deadline(std::time::Duration::ZERO),
            payoff_horizon: 64.0,
            ..TableManagerConfig::default()
        });
        let schema = lineitem();
        for _ in 0..8 {
            m.execute(pricing(&schema)).unwrap();
        }
        assert!(m.stats().advisor_runs >= 1);
        assert_eq!(m.stats().truncated_runs, m.stats().advisor_runs);
        // A zero-deadline HillClimb returns its column seed — a valid
        // best-so-far layout; whether it is adopted depends on the payoff.
        assert!(Partitioning::new(&m.table().schema, m.layout().partitions().to_vec()).is_ok());
    }
}
