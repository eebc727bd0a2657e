//! # slicer-core
//!
//! The seven "knives" of *A Comparison of Knives for Bread Slicing*
//! (VLDB 2013), implemented against the unified setting of `slicer-cost`
//! and `slicer-model`:
//!
//! | Advisor | Search | Start | Pruning |
//! |---------|--------|-------|---------|
//! | [`BruteForce`] | brute force | whole workload | none |
//! | [`Navathe`]    | top-down    | whole workload | none |
//! | [`HillClimb`]  | bottom-up   | whole workload | none |
//! | [`AutoPart`]   | bottom-up   | whole workload | none |
//! | [`Hyrise`]     | bottom-up   | attribute subset | none |
//! | [`O2P`]        | top-down    | whole workload (online) | none |
//! | [`Trojan`]     | bottom-up   | query subset | threshold |
//!
//! plus the [`RowLayout`] / [`ColumnLayout`] baselines and
//! [`PerfectMaterializedViews`]. All advisors implement [`Advisor`] and are
//! enumerable through [`all_advisors`] / [`paper_advisors`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod advisor;
mod autopart;
mod baselines;
mod brute_force;
pub mod classification;
mod hillclimb;
mod hyrise;
mod navathe;
mod o2p;
pub mod session;
mod trojan;

pub use advisor::{Advisor, PartitionRequest};
pub use autopart::{AutoPart, ReplicatedLayout};
pub use baselines::{ColumnLayout, PerfectMaterializedViews, RowLayout};
pub use brute_force::BruteForce;
pub use classification::AlgorithmProfile;
pub use hillclimb::HillClimb;
pub use hyrise::Hyrise;
pub use navathe::Navathe;
pub use o2p::{O2pOnline, O2P};
pub use session::{AdvisorSession, Budget, BudgetPool, SessionStats, SessionStep};
pub use trojan::{Trojan, TrojanReplica};

/// The six surveyed algorithms plus BruteForce, in the paper's column order
/// (AutoPart, HillClimb, HYRISE, Navathe, O2P, Trojan, BruteForce).
pub fn paper_advisors() -> Vec<Box<dyn Advisor>> {
    vec![
        Box::new(AutoPart::new()),
        Box::new(HillClimb::new()),
        Box::new(Hyrise::new()),
        Box::new(Navathe::new()),
        Box::new(O2P::new()),
        Box::new(Trojan::new()),
        Box::new(BruteForce::new()),
    ]
}

/// [`paper_advisors`] plus the Row and Column baselines (Figure 3's x-axis).
pub fn all_advisors() -> Vec<Box<dyn Advisor>> {
    let mut v = paper_advisors();
    v.push(Box::new(ColumnLayout));
    v.push(Box::new(RowLayout));
    v
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn paper_order_and_names() {
        let names: Vec<&str> = paper_advisors().iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec![
                "AutoPart",
                "HillClimb",
                "HYRISE",
                "Navathe",
                "O2P",
                "Trojan",
                "BruteForce"
            ]
        );
    }

    #[test]
    fn all_advisors_adds_baselines() {
        let names: Vec<&str> = all_advisors().iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), 9);
        assert!(names.contains(&"Column") && names.contains(&"Row"));
    }

    #[test]
    fn profiles_match_paper_table1() {
        use classification::{CandidatePruning, SearchStrategy, StartingPoint};
        for a in paper_advisors() {
            let p = a.profile();
            match a.name() {
                "AutoPart" | "HillClimb" => {
                    assert_eq!(p.search, SearchStrategy::BottomUp);
                    assert_eq!(p.start, StartingPoint::WholeWorkload);
                }
                "HYRISE" => {
                    assert_eq!(p.search, SearchStrategy::BottomUp);
                    assert_eq!(p.start, StartingPoint::AttributeSubset);
                }
                "Navathe" | "O2P" => assert_eq!(p.search, SearchStrategy::TopDown),
                "Trojan" => {
                    assert_eq!(p.pruning, CandidatePruning::ThresholdBased);
                    assert_eq!(p.start, StartingPoint::QuerySubset);
                }
                "BruteForce" => assert_eq!(p.search, SearchStrategy::BruteForce),
                other => panic!("unexpected advisor {other}"),
            }
        }
    }

    #[test]
    fn no_two_surveyed_algorithms_share_a_setting() {
        // Table 2's observation: "no two algorithms have the same
        // combination of these parameters". BruteForce is the paper's
        // yardstick, not a surveyed algorithm, so exclude it.
        let advisors = paper_advisors();
        let settings: Vec<_> = advisors
            .iter()
            .filter(|a| a.name() != "BruteForce")
            .map(|a| {
                let p = a.profile();
                (
                    p.granularity,
                    p.hardware,
                    p.workload,
                    p.replication,
                    p.system,
                )
            })
            .collect();
        for i in 0..settings.len() {
            for j in (i + 1)..settings.len() {
                assert_ne!(settings[i], settings[j], "rows {i} and {j} collide");
            }
        }
    }
}
