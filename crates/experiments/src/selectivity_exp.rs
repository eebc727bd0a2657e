//! Section 7's selectivity side-note, as an experiment: "we did consider
//! putting the selection attributes in a different partition, but it
//! affects the data layouts only when the selectivity is higher than 10⁻⁴
//! for uniformly distributed datasets such as TPC-H".
//!
//! Model: a query scans its *selection* attribute fully, then fetches the
//! remaining referenced attributes only for qualifying tuples. With
//! selectivity `s` over `N` uniformly distributed tuples, a projection
//! partition of `blocks` blocks is hit in `min(blocks, s·N)` random block
//! reads (one seek each); at `s·N ≥ blocks` every block is touched and the
//! partition might as well be scanned. Below a threshold selectivity the
//! fetch side is so cheap that isolating the selection attribute in its own
//! partition wins; above it, co-locating selection and projection
//! attributes avoids the joins — so the layout decision flips with `s`.

use crate::common::Config;
use crate::report::Report;
use crate::report::ReportTable;
use slicer_cost::{DiskParams, HddCostModel};
use slicer_model::{AttrKind, TableSchema};

/// Cost of "scan σ-partition, then fetch matching tuples from the
/// projection partition(s)".
fn select_then_fetch_cost(
    model: &HddCostModel,
    schema: &TableSchema,
    sigma_row: u64,
    fetch_row: u64,
    selectivity: f64,
) -> f64 {
    let p = model.params();
    let n = schema.row_count();
    // Full sequential scan of the selection partition.
    let sigma_cost = model.partition_cost(n, sigma_row, sigma_row);
    // Random fetches: one block read + seek per qualifying tuple, capped at
    // "just scan the whole thing".
    let blocks = model.blocks_on_disk(n, fetch_row);
    let matches = (selectivity * n as f64).ceil();
    let touched = matches.min(blocks as f64);
    let random = touched * (p.seek_time + p.block_size as f64 / p.read_bandwidth);
    let sequential = model.partition_cost(n, fetch_row, fetch_row);
    sigma_cost + random.min(sequential)
}

/// Cost of one merged partition holding selection + projection attributes:
/// a single full scan, no joins.
fn merged_cost(model: &HddCostModel, schema: &TableSchema, merged_row: u64) -> f64 {
    model.partition_cost(schema.row_count(), merged_row, merged_row)
}

/// Sweep selectivity and report which layout wins: σ isolated versus σ
/// merged with the projection attributes.
pub fn selectivity(cfg: &Config) -> Report {
    let mut report = Report::new(
        "selectivity",
        "When does isolating the selection attribute change the layout? (Section 7 side-note)",
    );
    // A Lineitem-like table: 4-byte selection attribute (ShipDate),
    // 24 bytes of projection attributes.
    let schema = TableSchema::builder("L", (6_000_000.0 * cfg.sf) as u64)
        .attr("Sigma", 4, AttrKind::Date)
        .attr("Proj", 24, AttrKind::Decimal)
        .build()
        .expect("valid schema");
    let model = HddCostModel::new(DiskParams::paper_testbed());
    let sweep: &[f64] = if cfg.quick {
        &[1e-6, 1e-4, 1e-2]
    } else {
        &[1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0]
    };
    let mut rows = Vec::new();
    let mut flip: Option<f64> = None;
    for &s in sweep {
        let isolated = select_then_fetch_cost(&model, &schema, 4, 24, s);
        let merged = merged_cost(&model, &schema, 28);
        // Above the threshold the fetch side degenerates to a full scan and
        // the two layouts tie (modulo seeks): isolation must win *clearly*
        // to affect the layout decision.
        let winner = if isolated < merged * 0.99 {
            "isolate σ"
        } else {
            "indifferent"
        };
        if winner != "isolate σ" && flip.is_none() {
            flip = Some(s);
        }
        rows.push(vec![
            format!("{s:.0e}"),
            format!("{isolated:.3}"),
            format!("{merged:.3}"),
            winner.to_string(),
        ]);
    }
    if let Some(f) = flip {
        report.note(format!(
            "σ-isolation stops paying at selectivity ≈ {f:.0e}; beyond it the two \
             layouts tie, so selectivity only affects the layout decision near the \
             paper's ~1e-4 threshold"
        ));
    }
    report.push(ReportTable::new(
        "Selection-attribute isolation vs selectivity",
        &["Selectivity", "Isolated σ (s)", "Merged (s)", "Winner"],
        rows,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_selectivity_favors_isolation() {
        let r = selectivity(&Config::quick());
        assert_eq!(r.tables[0].rows[0][3], "isolate σ");
    }

    #[test]
    fn high_selectivity_is_indifferent() {
        let r = selectivity(&Config::quick());
        assert_eq!(r.tables[0].rows.last().unwrap()[3], "indifferent");
    }

    /// The analytic sweep above claims isolation pays only below a
    /// selectivity threshold. Assert the same flip on the *real*
    /// predicate-scan path: a stored table with the selection attribute
    /// isolated reads far fewer bytes than the merged layout at
    /// sub-permille selectivity (zone maps prune the projection file),
    /// and reads the same bytes once the predicate keeps everything —
    /// and the skip-aware cost model agrees with the measurement.
    #[test]
    fn threshold_claim_holds_on_the_real_scan_path() {
        use slicer_cost::CostModel;
        use slicer_model::{Literal, Partitioning, PredClause, PredOp, Predicate, Query};
        use slicer_storage::{
            generate_table, scan_naive_query_snapshot, CompressionPolicy, StoredTable,
        };

        let rows = 40_000usize;
        let schema = TableSchema::builder("L", rows as u64)
            .attr("Sigma", 4, AttrKind::Date)
            .attr("Proj", 24, AttrKind::Decimal)
            .build()
            .expect("valid schema");
        let data = generate_table(&schema, rows, 11);
        let sigma = schema.attr_id("Sigma").unwrap();
        let isolated_layout = Partitioning::column(&schema);
        let merged_layout = Partitioning::row(&schema);
        let isolated = StoredTable::load(&schema, &data, &isolated_layout, CompressionPolicy::None);
        let merged = StoredTable::load(&schema, &data, &merged_layout, CompressionPolicy::None);
        let disk = DiskParams::paper_testbed();

        // Generated dates trend upward with the row index, so an equality
        // is sub-permille and lands in one narrow band of chunks.
        let tiny = Predicate::new(vec![PredClause::new(
            sigma,
            PredOp::Eq,
            Literal::date(1263),
        )]);
        let everything = Predicate::new(vec![PredClause::new(sigma, PredOp::Ge, Literal::date(0))]);
        let bytes = |table: &StoredTable, pred: &Predicate| -> u64 {
            let q = Query::new("sel", schema.all_attrs()).with_predicate(pred.clone());
            let exec = slicer_storage::ScanExecutor::new(table);
            let snapshot = table.snapshot();
            let got = exec.scan_query_snapshot(&snapshot, &q, &disk);
            let oracle = scan_naive_query_snapshot(&snapshot, &q, &disk);
            assert_eq!(
                got.checksum, oracle.checksum,
                "pruned scan must match oracle"
            );
            got.bytes_read
        };
        // Below the threshold: isolation pays on measured bytes (the σ file
        // is scanned fully, the projection file shrinks with the kept rows).
        assert!(
            bytes(&merged, &tiny) as f64 >= 2.0 * bytes(&isolated, &tiny) as f64,
            "sub-permille predicate must make isolation pay on real bytes read"
        );
        // At selectivity 1.0: indifferent — same bytes either way.
        assert_eq!(bytes(&isolated, &everything), bytes(&merged, &everything));

        // And the advisors' shared cost model sees the same flip through
        // the measured skip probability.
        let model = HddCostModel::new(DiskParams::paper_testbed());
        let stamped = |pred: &Predicate, table: &StoredTable| -> Query {
            let kept = table.snapshot().prune_fraction(pred);
            Query::new("sel", schema.all_attrs())
                .with_predicate(pred.clone().with_kept_fraction(kept))
        };
        let tiny_q = stamped(&tiny, &isolated);
        assert!(
            model.query_cost(&schema, &isolated_layout, &tiny_q)
                < model.query_cost(&schema, &merged_layout, &tiny_q),
            "skip-aware pricing must favor isolating σ below the threshold"
        );
        let all_q = stamped(&everything, &isolated);
        assert!(
            model.query_cost(&schema, &isolated_layout, &all_q)
                >= model.query_cost(&schema, &merged_layout, &all_q) * 0.99,
            "with nothing to skip the layouts must price (near-)indifferent"
        );
    }

    #[test]
    fn full_sweep_flips_near_paper_threshold() {
        let r = selectivity(&Config::paper());
        let flip_row = r.tables[0]
            .rows
            .iter()
            .position(|row| row[3] == "indifferent")
            .expect("must flip somewhere");
        let s: f64 = r.tables[0].rows[flip_row][0].parse().unwrap();
        assert!(
            (1e-6..=1e-2).contains(&s),
            "flip at {s}, expected near the paper's 1e-4"
        );
    }
}
