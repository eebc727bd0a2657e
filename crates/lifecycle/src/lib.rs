//! # slicer-lifecycle
//!
//! Partitioning as a *lifecycle*, not a one-shot call. The paper's payoff
//! analysis (Appendix A.1, Figure 10) and its re-optimization sweeps
//! (Figures 9/12/13) both ask the same operational question: *when is it
//! worth moving a live table to a better layout?* This crate answers it
//! end to end:
//!
//! * [`TableManager`] serves scans over a [`slicer_storage::StoredTable`]
//!   while streaming every query into a sliding-window workload
//!   ([`slicer_model::SlidingWorkload`]);
//! * on a configurable cadence it re-advises the window under a
//!   [`slicer_core::Budget`] (anytime, best-so-far — heavy traffic cannot
//!   wait for an unbounded search), reusing warm
//!   [`slicer_cost::EvalMemos`] across successive runs;
//! * a candidate layout is adopted only when the paper's payoff test says
//!   the investment amortizes — `optimization time + layout creation
//!   time` against the per-window-execution saving — within the
//!   configured horizon;
//! * adoption happens through [`slicer_storage::StoredTable::repartition`],
//!   the zero-stall double-buffered incremental re-slice, not a full
//!   reload — and the batch fronts ([`TableManager::serve_batch_with`],
//!   [`TableFleet::serve_batch_with`]) drain query batches across worker
//!   threads *while* advise rounds and re-partitions proceed on the
//!   calling thread, with per-table [`RealizedPayoff`] ledgers tracking
//!   what each adopted move invested versus what the traffic served since
//!   actually saved;
//! * every serve front — [`TableManager::serve`], both batch drains and
//!   the network server — reads through one path,
//!   [`ScanTarget::pin`] → scan → book: the query is stamped from the
//!   snapshot it scans, so the window prices what the scan really read.
//!
//! The lifecycle also owns the *write* path: [`TableManager::ingest`] and
//! [`TableFleet::ingest`] route [`slicer_storage::IngestBatch`]es into the
//! managed tables' WAL'd row-store deltas. A grown delta taxes every
//! windowed scan, the manager's window cost (and thus the fleet's drift
//! signal) prices that tax in, and the payoff gate weighs "repartition now
//! and fold the delta" against letting it accrue — so a table under
//! sustained ingest re-slices even when the query mix never drifts.
//!
//! Above the single-table manager sits the [`TableFleet`]: one manager
//! per table, a query router keyed by table name, and a **shared** advisor
//! budget spent across the fleet most-drifted-table-first (with
//! equal-split and round-robin baselines), so whole-benchmark traffic —
//! TPC-H and SSB side by side — is served and re-optimized under one
//! bounded optimization budget.
//!
//! The manager's unit tests drive a pricing → logistics phase shift over
//! TPC-H Lineitem through it, and the root package's `tests/pipeline.rs`
//! drives a mixed TPC-H+SSB trace through the fleet under all three
//! schedules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fleet;
mod manager;
mod serve;

pub use fleet::{DriftScore, FleetConfig, FleetOutcome, FleetSchedule, FleetStats, TableFleet};
pub use manager::{
    AdoptionPricing, ManagerStats, RealizedPayoff, RepartitionDecision, RepartitionEvent,
    ServeBatchReport, TableManager, TableManagerConfig,
};
pub use serve::{ScanTarget, ServedScan};
