//! Ablations of the design choices the algorithms hinge on — not paper
//! artifacts, but the knobs below, each run by its `ablation-*` id in
//! `repro list`:
//!
//! * HYRISE's subgraph bound K (complexity vs quality);
//! * Trojan's interestingness threshold (pruning vs quality);
//! * BruteForce's fragment-space reduction (our substitution for the
//!   paper's raw-attribute enumeration);
//! * O2P's sensitivity to query arrival order (the price of being online).

use crate::common::{paper_hdd, Config};
use crate::report::{fmt_pct, fmt_secs, Report, ReportTable};
use slicer_core::{Advisor, BruteForce, Hyrise, PartitionRequest, Trojan, O2P};
use slicer_metrics::run_advisor;
use std::time::Instant;

/// HYRISE quality/time as the subgraph bound K grows. K ≥ #primary
/// partitions degenerates to fragment-level HillClimb.
pub fn hyrise_k(cfg: &Config) -> Report {
    let mut report = Report::new(
        "ablation-hyrise-k",
        "HYRISE subgraph bound K: quality vs time",
    );
    let b = cfg.tpch();
    let m = paper_hdd();
    let opt = run_advisor(&BruteForce::new(), &b, &m)
        .map(|r| r.total_cost(&b, &m))
        .ok();
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8, 16] {
        let run = run_advisor(&Hyrise::with_subgraph_bound(k), &b, &m).expect("hyrise");
        let cost = run.total_cost(&b, &m);
        let gap = opt
            .map(|o| fmt_pct((cost - o) / o))
            .unwrap_or_else(|| "n/a".into());
        rows.push(vec![
            k.to_string(),
            format!("{cost:.1}"),
            gap,
            fmt_secs(run.total_opt_time().as_secs_f64()),
        ]);
    }
    report.note("gap = distance from the BruteForce optimum");
    report.push(ReportTable::new(
        "HYRISE K sweep",
        &["K", "Est. cost (s)", "Gap to optimal", "Opt time"],
        rows,
    ));
    report
}

/// Trojan pruning threshold: stricter pruning is faster but risks losing
/// useful groups (the paper's "effectiveness of the pruning threshold").
pub fn trojan_threshold(cfg: &Config) -> Report {
    let mut report = Report::new(
        "ablation-trojan-threshold",
        "Trojan interestingness threshold sweep",
    );
    let b = cfg.tpch();
    let m = paper_hdd();
    let mut rows = Vec::new();
    for threshold in [0.0, 0.1, 0.3, 0.5, 0.8, 1.0] {
        let advisor = Trojan::with_threshold(threshold);
        let run = run_advisor(&advisor, &b, &m).expect("trojan");
        let cost = run.total_cost(&b, &m);
        let groups: usize = run.tables.iter().map(|t| t.layout.len()).sum();
        rows.push(vec![
            format!("{threshold}"),
            format!("{cost:.1}"),
            groups.to_string(),
            fmt_secs(run.total_opt_time().as_secs_f64()),
        ]);
    }
    report.push(ReportTable::new(
        "Trojan threshold sweep",
        &["Threshold", "Est. cost (s)", "Total groups", "Opt time"],
        rows,
    ));
    report
}

/// BruteForce over atomic fragments versus raw attributes: identical cost,
/// orders of magnitude fewer candidates — the justification for our
/// substitution, measured.
pub fn bruteforce_space(cfg: &Config) -> Report {
    let mut report = Report::new(
        "ablation-bruteforce-space",
        "BruteForce: fragment enumeration vs raw-attribute enumeration",
    );
    let b = cfg.tpch();
    let m = paper_hdd();
    let mut rows = Vec::new();
    for (idx, schema, w) in b.touched_tables() {
        // Keep the raw side feasible: only tables the exhaustive mode can
        // enumerate in reasonable time.
        if schema.attr_count() > 9 {
            continue;
        }
        let req = PartitionRequest::new(schema, &w, &m);
        let frag = BruteForce::new().with_threads(1);
        let raw = BruteForce::exhaustive().with_threads(1);
        let t0 = Instant::now();
        let frag_layout = frag.partition(&req).expect("fragment mode");
        let frag_time = t0.elapsed();
        let t0 = Instant::now();
        let raw_layout = raw.partition(&req).expect("raw mode");
        let raw_time = t0.elapsed();
        let frag_cost = req.cost(&frag_layout);
        let raw_cost = req.cost(&raw_layout);
        rows.push(vec![
            schema.name().to_string(),
            frag.candidate_count(&req).to_string(),
            raw.candidate_count(&req).to_string(),
            fmt_secs(frag_time.as_secs_f64()),
            fmt_secs(raw_time.as_secs_f64()),
            fmt_pct((frag_cost - raw_cost) / raw_cost.max(1e-12)),
        ]);
        let _ = idx;
    }
    report.note("cost delta must be 0% — the reduction is exact (see slicer-core docs)");
    report.push(ReportTable::new(
        "Fragment vs raw enumeration",
        &[
            "Table",
            "Frag candidates",
            "Raw candidates",
            "Frag time",
            "Raw time",
            "Cost delta",
        ],
        rows,
    ));
    report
}

/// O2P under different query arrival orders: the online algorithm commits
/// to early splits, so permuted workloads can end in different layouts —
/// offline algorithms cannot.
pub fn o2p_order(cfg: &Config) -> Report {
    let mut report = Report::new(
        "ablation-o2p-order",
        "O2P sensitivity to query arrival order",
    );
    let full = slicer_workloads::tpch::benchmark(cfg.sf);
    let b = if cfg.quick { full.prefix(6) } else { full };
    let m = paper_hdd();
    let li = b.table_index("Lineitem").expect("lineitem");
    let schema = &b.tables()[li];
    let w = b.table_workload(li);
    let mut rows = Vec::new();
    for (label, order) in [
        ("benchmark order", (0..w.len()).collect::<Vec<_>>()),
        ("reversed", (0..w.len()).rev().collect()),
        ("interleaved", {
            let n = w.len();
            let mut v: Vec<usize> = (0..n).step_by(2).collect();
            v.extend((1..n).step_by(2));
            v
        }),
    ] {
        let mut permuted = slicer_model::Workload::new();
        for &i in &order {
            permuted.push(w.queries()[i].clone());
        }
        let req = PartitionRequest::new(schema, &permuted, &m);
        let layout = O2P::new().partition(&req).expect("o2p");
        // Evaluate against the canonical-order workload (same queries).
        let cost = m_cost(schema, &layout, &w, &m);
        rows.push(vec![
            label.to_string(),
            format!("{cost:.1}"),
            layout.len().to_string(),
        ]);
    }
    report.note("same queries, different arrival orders — only the online algorithm cares");
    report.push(ReportTable::new(
        "O2P arrival-order sweep (Lineitem)",
        &["Arrival order", "Est. cost (s)", "Groups"],
        rows,
    ));
    report
}

fn m_cost(
    schema: &slicer_model::TableSchema,
    layout: &slicer_model::Partitioning,
    w: &slicer_model::Workload,
    m: &slicer_cost::HddCostModel,
) -> f64 {
    use slicer_cost::CostModel;
    m.workload_cost(schema, layout, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hyrise_quality_improves_weakly_with_k() {
        let r = hyrise_k(&Config::quick());
        let costs: Vec<f64> = r.tables[0]
            .rows
            .iter()
            .map(|row| row[1].parse().unwrap())
            .collect();
        // K=16 must not be worse than K=1.
        assert!(costs.last().unwrap() <= costs.first().unwrap());
    }

    #[test]
    fn trojan_threshold_one_degenerates_to_fragments() {
        let r = trojan_threshold(&Config::quick());
        // Threshold 1.0 keeps only identical-signature groups; cost exists.
        let last = r.tables[0].rows.last().unwrap();
        assert_eq!(last[0], "1");
        assert!(last[1].parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn bruteforce_fragment_reduction_is_exact() {
        let r = bruteforce_space(&Config::quick());
        assert!(!r.tables[0].rows.is_empty());
        for row in &r.tables[0].rows {
            assert_eq!(row[5], "0.00%", "{row:?}");
            let frag: u128 = row[1].parse().unwrap();
            let raw: u128 = row[2].parse().unwrap();
            assert!(frag <= raw);
        }
    }

    #[test]
    fn o2p_runs_under_all_orders() {
        let r = o2p_order(&Config::quick());
        assert_eq!(r.tables[0].rows.len(), 3);
        for row in &r.tables[0].rows {
            assert!(row[1].parse::<f64>().unwrap() > 0.0);
        }
    }
}
