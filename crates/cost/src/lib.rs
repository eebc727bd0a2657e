//! # slicer-cost
//!
//! Cost models for vertically partitioned tables — the "common system" of
//! the paper's unified setting.
//!
//! * [`HddCostModel`] — the paper's disk model: proportional buffer
//!   sharing, seek + scan costs per referenced partition (Section 4);
//! * [`MainMemoryCostModel`] — HYRISE-style cache-miss model (Table 6);
//! * [`CostModel`] — the object-safe trait the advisors in `slicer-core`
//!   optimize against;
//! * [`CostEvaluator`] — the incremental, memoized, parallel
//!   cost-evaluation engine driving every advisor's inner loop (see
//!   [`eval`] for the design and the bit-exactness argument);
//! * [`DiskParams`] / [`CacheParams`] — hardware knobs, defaulting to the
//!   paper's measured testbed (90.07 MB/s read, 64.37 MB/s write, 4.84 ms
//!   seek, 8 KB blocks, 8 MB buffer).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod eval;
mod hdd;
mod mm;
mod params;
mod traits;

pub use eval::{first_strict_min, scan_candidates, CostEvaluator, EvalMemos};
pub use hdd::{HddCostModel, HddWorkloadEvaluator};
pub use mm::MainMemoryCostModel;
pub use params::{CacheParams, DiskParams, KB, MB};
pub use traits::CostModel;
