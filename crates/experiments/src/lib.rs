//! # slicer-experiments
//!
//! One runner per table and figure of *A Comparison of Knives for Bread
//! Slicing* (VLDB 2013). Every runner returns a serializable
//! [`Report`]; the `repro` binary renders them as text or
//! JSON. `repro list` prints the experiment index, and each report's
//! notes carry its parameters and caveats (README, "Reproducing the
//! paper").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod benchmarks_exp;
pub mod common;
pub mod fragility_exp;
pub mod layouts_exp;
pub mod opt_time;
pub mod payoff_exp;
pub mod quality;
pub mod report;
pub mod selectivity_exp;
pub mod storage_exp;
pub mod sweet_spots;
pub mod workload_scaling;

pub use common::Config;
pub use report::{Report, ReportTable};

/// All experiment ids, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table3",
    "table4",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table5",
    "table6",
    "table7",
    "selectivity",
    "ablation-hyrise-k",
    "ablation-trojan-threshold",
    "ablation-bruteforce-space",
    "ablation-o2p-order",
];

/// Run one experiment by id.
pub fn run(id: &str, cfg: &Config) -> Option<Report> {
    Some(match id {
        "table1" => layouts_exp::table1(cfg),
        "table2" => layouts_exp::table2(cfg),
        "fig1" => opt_time::fig1(cfg),
        "fig2" => opt_time::fig2(cfg),
        "fig3" => quality::fig3(cfg),
        "fig4" => quality::fig4(cfg),
        "fig5" => quality::fig5(cfg),
        "fig6" => quality::fig6(cfg),
        "fig7" => workload_scaling::fig7(cfg),
        "table3" => workload_scaling::table3(cfg),
        "table4" => workload_scaling::table4(cfg),
        "fig8" => fragility_exp::fig8(cfg),
        "fig9" => sweet_spots::fig9(cfg),
        "fig10" => payoff_exp::fig10(cfg),
        "fig11" => fragility_exp::fig11(cfg),
        "fig12" => sweet_spots::fig12(cfg),
        "fig13" => sweet_spots::fig13(cfg),
        "fig14" => layouts_exp::fig14(cfg),
        "table5" => benchmarks_exp::table5(cfg),
        "table6" => benchmarks_exp::table6(cfg),
        "table7" => storage_exp::table7(cfg),
        "selectivity" => selectivity_exp::selectivity(cfg),
        "ablation-hyrise-k" => ablations::hyrise_k(cfg),
        "ablation-trojan-threshold" => ablations::trojan_threshold(cfg),
        "ablation-bruteforce-space" => ablations::bruteforce_space(cfg),
        "ablation-o2p-order" => ablations::o2p_order(cfg),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_runs_in_quick_mode() {
        let cfg = Config::quick();
        for id in EXPERIMENTS {
            let r = run(id, &cfg).unwrap_or_else(|| panic!("unknown id {id}"));
            assert_eq!(&r.id, id);
            assert!(
                !r.tables.is_empty() || !r.notes.is_empty(),
                "{id} produced nothing"
            );
        }
    }

    #[test]
    fn unknown_id_returns_none() {
        assert!(run("fig99", &Config::quick()).is_none());
    }
}
