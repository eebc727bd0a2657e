//! Storage engine end-to-end: store a generated Orders table under three
//! layouts and two compression schemes in the mini engine, run real scans,
//! and compare measured runtimes with the cost model's predictions —
//! the Table 7 experiment in miniature.
//!
//! Run with: `cargo run --release --example storage_engine`

use slicer::prelude::*;
use slicer::storage::{
    generate_table, scan_naive_query_snapshot, CompressionPolicy, ScanExecutor, StoredTable,
};

fn main() -> Result<(), ModelError> {
    let nominal = tpch::table(tpch::TpchTable::Orders, 1.0);
    let rows = 50_000u64;
    let table = nominal.with_row_count(rows);
    let data = generate_table(&table, rows as usize, 2024);

    let workload = Workload::with_queries(
        &table,
        vec![
            Query::new("count-by-priority", table.attr_set(&["OrderPriority"])?),
            Query::new(
                "totals",
                table.attr_set(&["OrderKey", "TotalPrice", "OrderDate"])?,
            ),
            Query::new(
                "audit",
                table.attr_set(&["OrderKey", "CustKey", "Comment"])?,
            ),
        ],
    )?;
    let cost = HddCostModel::paper_testbed();
    let req = PartitionRequest::new(&table, &workload, &cost);
    let hillclimb = HillClimb::new().partition(&req)?;
    let disk = DiskParams::paper_testbed();

    println!(
        "{} rows; HillClimb layout: {}\n",
        rows,
        hillclimb.render(&table)
    );
    println!(
        "{:<12} {:<24} {:>10} {:>10} {:>11} {:>10} {:>12}",
        "compression", "layout", "io (ms)", "cpu (ms)", "naive (ms)", "MB read", "stored MB"
    );
    for policy in [
        CompressionPolicy::None,
        CompressionPolicy::Default,
        CompressionPolicy::Dictionary,
    ] {
        for (name, layout) in [
            ("Row", Partitioning::row(&table)),
            ("Column", Partitioning::column(&table)),
            ("HillClimb", hillclimb.clone()),
        ] {
            let stored = StoredTable::load(&table, &data, &layout, policy);
            let exec = ScanExecutor::new(&stored); // cold cache per scan
            let snapshot = stored.snapshot();
            let (mut io, mut cpu, mut naive_cpu, mut bytes) = (0.0, 0.0, 0.0, 0u64);
            let mut checksum = 0u64;
            for q in workload.queries() {
                let r = exec.scan_query_snapshot(&snapshot, q, &disk);
                let n = scan_naive_query_snapshot(&snapshot, q, &disk);
                assert_eq!(n.checksum, r.checksum, "executor must match the oracle");
                io += r.io_seconds;
                cpu += r.cpu_seconds;
                naive_cpu += n.cpu_seconds;
                bytes += r.bytes_read;
                checksum ^= r.checksum;
            }
            println!(
                "{:<12} {:<24} {:>10.2} {:>10.2} {:>11.2} {:>10.2} {:>12.2}   (checksum {checksum:016x})",
                format!("{policy:?}"),
                name,
                io * 1e3,
                cpu * 1e3,
                naive_cpu * 1e3,
                bytes as f64 / 1e6,
                stored.stored_bytes() as f64 / 1e6,
            );
        }
    }
    println!(
        "\nnote how variable-width compression (Default) makes the grouped layouts pay \
         CPU to walk whole partitions, while fixed-width Dictionary touches only the \
         referenced columns — the mechanism behind the paper's Table 7. `cpu` is the \
         vectorized ScanExecutor (cold cache), `naive` the original \
         materialize-then-iterate path; checksums are asserted identical."
    );
    Ok(())
}
