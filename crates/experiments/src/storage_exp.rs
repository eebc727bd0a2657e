//! Table 7: end-to-end workload runtimes in the mini storage engine
//! (the DBMS-X substitute) for Row, Column and HillClimb layouts under the
//! default (LZ/delta) and forced-dictionary compression schemes.

use crate::common::{paper_hdd, Config};
use crate::report::{Report, ReportTable};
use slicer_core::{Advisor, HillClimb, PartitionRequest};
use slicer_cost::DiskParams;
use slicer_model::Partitioning;
use slicer_storage::{generate_table, CompressionPolicy, ScanExecutor, StoredTable};

/// Row cap for the largest table: the engine runs real decode work, so the
/// experiment scales the paper's SF 10 down. [`slicer_workloads::Benchmark::scaled`]
/// keeps every table's *relative* size (Lineitem 4× Orders, etc.).
fn engine_cap(cfg: &Config) -> usize {
    if cfg.quick {
        6_000
    } else {
        60_000
    }
}

/// The simulated disk, with seek time scaled by the same factor as the
/// dataset: at SF 10 scans dominate seeks; shrinking the data a
/// thousand-fold without shrinking the seek time would flip that balance
/// and make the row layout spuriously competitive (fewer files = fewer
/// seeks). Scaling the seek time preserves the paper's seek:scan ratio.
fn engine_disk(cfg: &Config) -> DiskParams {
    let lineitem_sf10_rows = 60_000_000.0;
    let factor = engine_cap(cfg) as f64 / lineitem_sf10_rows;
    DiskParams {
        seek_time: 4.84e-3 * factor,
        ..DiskParams::paper_testbed()
    }
}

/// Table 7: total workload runtime per layout and compression scheme.
///
/// Like the paper, query 9 is excluded (DBMS-X mis-planned it there; we
/// keep the exclusion so row sets match) and runtime is I/O + CPU.
pub fn table7(cfg: &Config) -> Report {
    let mut report = Report::new(
        "table7",
        "TPC-H workload runtimes in the mini storage engine for different layouts and compression schemes",
    );
    let b = cfg.tpch().scaled(engine_cap(cfg) as u64);
    let m = paper_hdd();
    let disk = engine_disk(cfg);

    let mut rows_out = Vec::new();
    for policy in [CompressionPolicy::Default, CompressionPolicy::Dictionary] {
        let mut totals = [0.0f64; 3]; // row, column, hillclimb
        let mut stored = [0u64; 3];
        for (idx, schema, workload) in b.touched_tables() {
            let rows = (schema.row_count() as usize).max(5);
            let small = schema.with_row_count(rows as u64);
            let data = generate_table(&small, rows, 0xC0FFEE ^ idx as u64);
            let hc_layout = HillClimb::new()
                .partition(&PartitionRequest::new(&small, &workload, &m))
                .expect("hillclimb");
            let layouts = [
                Partitioning::row(&small),
                Partitioning::column(&small),
                hc_layout,
            ];
            for (li, layout) in layouts.iter().enumerate() {
                let table = StoredTable::load(&small, &data, layout, policy);
                stored[li] += table.stored_bytes();
                // One cold-cache executor per stored table: every query
                // re-decodes (the paper's cold caches), the scratch arenas
                // are reused across the workload.
                let exec = ScanExecutor::new(&table);
                let snapshot = table.snapshot();
                for q in workload.queries() {
                    if q.name == "Q9" {
                        continue; // paper footnote 4
                    }
                    let r = exec.scan_query_snapshot(&snapshot, q, &disk);
                    totals[li] += q.weight * (r.io_seconds + r.cpu_seconds);
                }
            }
        }
        let label = match policy {
            CompressionPolicy::Default => "Default (LZ or Delta)",
            CompressionPolicy::Dictionary => "Dictionary",
            CompressionPolicy::None => "None",
        };
        rows_out.push(vec![
            label.to_string(),
            format!("{:.3}", totals[0]),
            format!("{:.3}", totals[1]),
            format!("{:.3}", totals[2]),
            format!(
                "{:.1} MiB",
                stored.iter().sum::<u64>() as f64 / (1024.0 * 1024.0) / 3.0
            ),
        ]);
    }
    report.note(format!(
        "mini engine, tables scaled to ≤{} rows (relative sizes preserved) with seek \
         time scaled by the same factor (preserves the SF 10 seek:scan balance); \
         runtime = simulated disk I/O on compressed bytes + vectorized-executor \
         decode/reconstruction CPU (cold cache per query); Q9 excluded as in the paper",
        engine_cap(cfg)
    ));
    report.push(ReportTable::new(
        "Workload runtime (s)",
        &[
            "Compression",
            "Row",
            "Column",
            "HillClimb",
            "Avg stored size",
        ],
        rows_out,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(r: &Report, row: usize, col: usize) -> f64 {
        r.tables[0].rows[row][col].parse().unwrap()
    }

    #[test]
    fn row_layout_is_slowest_under_both_schemes() {
        let r = table7(&Config::quick());
        for row in 0..2 {
            let row_t = val(&r, row, 1);
            let col_t = val(&r, row, 2);
            let hc_t = val(&r, row, 3);
            assert!(row_t > col_t, "row {row_t} !> column {col_t}");
            assert!(row_t > hc_t, "row {row_t} !> hillclimb {hc_t}");
        }
    }

    #[test]
    fn has_both_compression_rows() {
        let r = table7(&Config::quick());
        assert_eq!(r.tables[0].rows.len(), 2);
        assert!(r.tables[0].rows[0][0].contains("Default"));
        assert!(r.tables[0].rows[1][0].contains("Dictionary"));
    }

    #[test]
    fn runtimes_are_positive() {
        let r = table7(&Config::quick());
        for row in 0..2 {
            for col in 1..=3 {
                assert!(val(&r, row, col) > 0.0);
            }
        }
    }
}
