//! # slicer — vertical partitioning advisors for row stores
//!
//! A Rust reproduction of *"A Comparison of Knives for Bread Slicing"*
//! (Jindal, Palatinus, Pavlov, Dittrich; PVLDB 6(6), 2013): seven vertical
//! partitioning algorithms, two cost models, the TPC-H/SSB workload models,
//! the paper's four comparison metrics, and a mini storage engine used to
//! validate estimated costs end to end.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! ```
//! use slicer::prelude::*;
//!
//! // The PartSupp example from the paper's introduction.
//! let table = tpch::table(tpch::TpchTable::PartSupp, 1.0);
//! let workload = Workload::with_queries(&table, vec![
//!     Query::new("Q1", table.attr_set(&["PartKey", "SuppKey", "AvailQty", "SupplyCost"]).unwrap()),
//!     Query::new("Q2", table.attr_set(&["AvailQty", "SupplyCost", "Comment"]).unwrap()),
//! ]).unwrap();
//!
//! let cost = HddCostModel::paper_testbed();
//! let layout = HillClimb::new().partition(&PartitionRequest::new(&table, &workload, &cost)).unwrap();
//! assert!(layout.len() >= 2);
//! ```
//!
//! The README's "Workspace layout" is the system inventory. `repro list`
//! names the runner behind every table and figure of the paper, and
//! `repro all` prints their measured results (README, "Reproducing the
//! paper").

#![forbid(unsafe_code)]

pub use slicer_client as client;
pub use slicer_combinat as combinat;
pub use slicer_core as core;
pub use slicer_cost as cost;
pub use slicer_experiments as experiments;
pub use slicer_lifecycle as lifecycle;
pub use slicer_metrics as metrics;
pub use slicer_model as model;
pub use slicer_net as net;
pub use slicer_storage as storage;
pub use slicer_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use slicer_client::{Client, ClientConfig, ClientError, ClientStats};
    pub use slicer_core::{
        Advisor, AdvisorSession, AutoPart, BruteForce, Budget, BudgetPool, HillClimb, Hyrise,
        Navathe, PartitionRequest, SessionStats, Trojan, O2P,
    };
    pub use slicer_cost::{CostModel, DiskParams, EvalMemos, HddCostModel, MainMemoryCostModel};
    pub use slicer_lifecycle::{
        AdoptionPricing, DriftScore, FleetConfig, FleetOutcome, FleetSchedule, FleetStats,
        RepartitionDecision, RepartitionEvent, TableFleet, TableManager, TableManagerConfig,
    };
    pub use slicer_model::{
        AttrId, AttrKind, AttrSet, Attribute, ModelError, Partitioning, Query, SlidingWorkload,
        TableSchema, Workload,
    };
    pub use slicer_net::{
        ErrorCode, FollowerConnector, ReplStats, Server, ServerConfig, ServerHandle, ServerRole,
    };
    pub use slicer_workloads::{ssb, tpch, Benchmark};
}
