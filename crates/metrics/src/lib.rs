//! # slicer-metrics
//!
//! The paper's four comparison metrics (Section 5), implemented over
//! `slicer-core` advisors and `slicer-workloads` benchmarks:
//!
//! * **How fast?** — [`run_advisor`] times `partition()` per table into a
//!   [`BenchmarkRun`] (Figures 1–2);
//! * **How good?** — [`quality`]: workload cost, unnecessary-data fraction,
//!   tuple-reconstruction joins, PMV distance (Figures 3–7);
//! * **How fragile?** — [`fragility()`]: evaluate stale layouts under drifted
//!   hardware parameters (Figures 8, 11);
//! * **Where does it make sense?** — [`fragility::normalized_vs_column`]
//!   under re-optimization sweeps (Figures 9, 12, 13), plus
//!   [`payoff`] (Figure 10).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fragility;
pub mod payoff;
pub mod quality;
mod runner;

pub use fragility::{fragility, normalized_vs_column};
pub use payoff::{payoff_against, Payoff};
pub use quality::{
    avg_reconstruction_joins, data_volume, improvement_over, pmv_distance, DataVolume,
};
pub use runner::{column_cost, pmv_cost, row_cost, run_advisor, BenchmarkRun, TableRun};
