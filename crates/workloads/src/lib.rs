//! # slicer-workloads
//!
//! Workload models for the `slicer` experiments:
//!
//! * [`tpch`] — the TPC-H benchmark (8 tables, 22 queries) reduced to
//!   per-table attribute access sets, the paper's common workload;
//! * [`ssb`] — the Star Schema Benchmark (5 tables, 13 queries), Table 5;
//! * [`synth`] — seeded synthetic schema/workload generators with
//!   controllable access-pattern regularity;
//! * [`trace`] — interleaved, phase-drifting fleet traces mixing TPC-H
//!   and SSB traffic over namespaced tables;
//! * [`Benchmark`] — multi-table query bookkeeping shared by both.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod benchmark;
pub mod ssb;
pub mod synth;
pub mod tpch;
pub mod trace;

pub use benchmark::{Benchmark, BenchmarkQuery};
