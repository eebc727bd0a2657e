//! The Lineitem table and oracle helpers the workloads share.

use crate::harness::Metrics;
use slicer_cost::DiskParams;
use slicer_model::{Query, TableSchema};
use slicer_storage::{scan_naive_query_snapshot, RepartitionStats, TableSnapshot};
use slicer_workloads::tpch;

/// TPC-H Lineitem at SF 1, cut to `rows`.
pub fn lineitem(rows: usize) -> TableSchema {
    tpch::table(tpch::TpchTable::Lineitem, 1.0).with_row_count(rows as u64)
}

pub fn projection(schema: &TableSchema, name: &str, attrs: &[&str]) -> Query {
    Query::new(name, schema.attr_set(attrs).expect("Lineitem attribute"))
}

/// A query and the checksum the `scan_naive_query_snapshot` oracle gives
/// it on one snapshot. Checksums do not depend on the layout, so the gate
/// holds across repartitions that change no row.
#[derive(Clone)]
pub struct Gated {
    pub query: Query,
    pub checksum: u64,
}

impl Gated {
    pub fn new(snapshot: &TableSnapshot, query: Query, disk: &DiskParams) -> Gated {
        Gated {
            checksum: scan_naive_query_snapshot(snapshot, &query, disk).checksum,
            query,
        }
    }
}

/// What the last layout move rebuilt, under per-layer metric names.
pub fn repartition_counts(stats: &RepartitionStats) -> Metrics {
    Metrics::from([
        (
            "storage.engine.files_rebuilt".into(),
            stats.files_rebuilt as f64,
        ),
        ("storage.engine.files_kept".into(), stats.files_kept as f64),
        (
            "storage.engine.bytes_rewritten".into(),
            stats.bytes_rewritten as f64,
        ),
    ])
}
