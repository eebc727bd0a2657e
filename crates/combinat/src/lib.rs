//! # slicer-combinat
//!
//! Combinatorial substrates the vertical partitioning algorithms of
//! `slicer-core` are built on:
//!
//! * [`SetPartitions`] / [`bell_number`] / [`stirling2`] — restricted-growth
//!   string enumeration of set partitions (BruteForce, Section 3 of the
//!   paper);
//! * [`AffinityMatrix`] / [`bond_energy_order`] / [`IncrementalBea`] — the
//!   Bond Energy Algorithm (Navathe) and its online adaptation (O2P);
//! * [`Graph`] / [`partition_graph`] — bounded K-way graph partitioning
//!   (HYRISE);
//! * [`knapsack01`] / [`max_value_disjoint_cover`] — the 0-1 knapsack
//!   mapping of Trojan's merge phase.
//!
//! Everything here is deterministic; no randomness, no global state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bea;
mod graphpart;
mod knapsack;
mod setpart;

pub use bea::{bond_energy_order, insert_best, AffinityMatrix, IncrementalBea};
pub use graphpart::{partition_graph, Graph};
pub use knapsack::{knapsack01, max_value_disjoint_cover, ValuedGroup, MAX_UNIVERSE};
pub use setpart::{bell_number, rgs_prefixes, stirling2, PrefixedSetPartitions, SetPartitions};
