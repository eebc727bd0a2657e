//! Tables 5 and 6: improvement over Column on a different benchmark (SSB)
//! and under a different cost model (main memory).

use crate::common::{paper_hdd, run_suite, Config};
use crate::report::{fmt_pct, Report, ReportTable};
use slicer_cost::{CostModel, MainMemoryCostModel};
use slicer_metrics::column_cost;
use slicer_workloads::{ssb, Benchmark};

const ALGOS: [&str; 7] = [
    "AutoPart",
    "HillClimb",
    "HYRISE",
    "Navathe",
    "O2P",
    "Trojan",
    "BruteForce",
];

fn improvements(cfg: &Config, benchmark: &Benchmark, model: &dyn CostModel) -> Vec<(String, f64)> {
    let (runs, _) = run_suite(&cfg.advisors(), benchmark, model);
    let col = column_cost(benchmark, model);
    ALGOS
        .iter()
        .map(|name| {
            let imp = runs
                .iter()
                .find(|r| r.advisor == *name)
                .map(|r| (col - r.total_cost(benchmark, model)) / col)
                .unwrap_or(f64::NAN);
            (name.to_string(), imp)
        })
        .collect()
}

/// Table 5: estimated improvement over column layout, TPC-H vs SSB.
pub fn table5(cfg: &Config) -> Report {
    let mut report = Report::new(
        "table5",
        "Estimated improvement over column layout with different benchmarks",
    );
    let tpch = cfg.tpch();
    let ssb = if cfg.quick {
        ssb::benchmark(cfg.sf).prefix(6)
    } else {
        ssb::benchmark(cfg.sf)
    };
    let m = paper_hdd();
    let on_tpch = improvements(cfg, &tpch, &m);
    let on_ssb = improvements(cfg, &ssb, &m);
    let rows = on_tpch
        .iter()
        .zip(&on_ssb)
        .map(|((name, t), (_, s))| vec![name.clone(), fmt_pct(*t), fmt_pct(*s)])
        .collect();
    report.push(ReportTable::new(
        "Improvement over Column",
        &["Layout", "TPC-H", "SSB"],
        rows,
    ));
    report
}

/// Table 6: estimated improvement over column layout, HDD vs main-memory
/// cost model (TPC-H).
pub fn table6(cfg: &Config) -> Report {
    let mut report = Report::new(
        "table6",
        "Estimated improvement over column layout with different cost models",
    );
    let b = cfg.tpch();
    let hdd = paper_hdd();
    let mm = MainMemoryCostModel::paper_testbed();
    let on_hdd = improvements(cfg, &b, &hdd);
    let on_mm = improvements(cfg, &b, &mm);
    let rows = on_hdd
        .iter()
        .zip(&on_mm)
        .map(|((name, h), (_, m))| vec![name.clone(), fmt_pct(*h), fmt_pct(*m)])
        .collect();
    report.push(ReportTable::new(
        "Improvement over Column",
        &["Layout", "HDD Cost Model", "MM Cost Model"],
        rows,
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pct(s: &str) -> f64 {
        s.trim_end_matches('%').parse().unwrap()
    }

    #[test]
    fn table5_hillclimb_class_nonnegative_on_both() {
        let r = table5(&Config::quick());
        for row in &r.tables[0].rows {
            if ["AutoPart", "HillClimb", "BruteForce"].contains(&row[0].as_str()) {
                assert!(pct(&row[1]) >= -0.1, "{row:?}");
                assert!(pct(&row[2]) >= -0.1, "{row:?}");
            }
        }
    }

    #[test]
    fn table6_mm_improvements_vanish_for_hillclimb_class() {
        // Paper Table 6: 0.00% under main memory for the HillClimb class;
        // Navathe/O2P negative.
        let r = table6(&Config::quick());
        for row in &r.tables[0].rows {
            let mm = pct(&row[2]);
            match row[0].as_str() {
                "AutoPart" | "HillClimb" | "BruteForce" | "HYRISE" => {
                    assert!(mm.abs() < 2.0, "{}: {mm}% in MM", row[0]);
                }
                // Navathe/O2P ignore the cost model's structure (contiguous
                // splits) and Trojan groups purely by workload statistics,
                // so all three may go negative in main memory — the paper
                // shows the same for Navathe/O2P; our Trojan deviates
                // slightly from the paper's 0.00% (`repro table6` shows
                // the figure).
                "Navathe" | "O2P" | "Trojan" => {
                    assert!(mm <= 0.5, "{}: {mm}% should not beat column in MM", row[0]);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn table6_bruteforce_never_negative_under_either_model() {
        let r = table6(&Config::quick());
        let bf = r.tables[0]
            .rows
            .iter()
            .find(|row| row[0] == "BruteForce")
            .unwrap();
        assert!(pct(&bf[1]) >= -0.01);
        assert!(pct(&bf[2]) >= -0.01);
    }
}
