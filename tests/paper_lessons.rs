//! The paper's four lessons (Section 7), verified end to end at test
//! scale. `repro all` (README, "Reproducing the paper") prints the
//! full-scale numbers; these tests pin the *shape* so regressions in any
//! crate surface here.

use slicer::metrics::{column_cost, row_cost, run_advisor};
use slicer::prelude::*;

fn bench() -> slicer::workloads::Benchmark {
    // First 8 queries at SF 0.1: small enough for CI, fragmented enough to
    // exhibit the lessons.
    tpch::benchmark(0.1).prefix(8)
}

/// Lesson 1: "We don't really need brute force" — HillClimb and AutoPart
/// find (essentially) the brute-force optimum orders of magnitude faster.
#[test]
fn lesson1_heuristics_match_brute_force() {
    let b = bench();
    let m = HddCostModel::paper_testbed();
    let bf = run_advisor(&BruteForce::new(), &b, &m).expect("brute force");
    let hc = run_advisor(&HillClimb::new(), &b, &m).expect("hillclimb");
    let ap = run_advisor(&AutoPart::new(), &b, &m).expect("autopart");

    let opt = bf.total_cost(&b, &m);
    assert!(
        hc.total_cost(&b, &m) <= opt * 1.01,
        "HillClimb not within 1% of optimal"
    );
    assert!(
        ap.total_cost(&b, &m) <= opt * 1.01,
        "AutoPart not within 1% of optimal"
    );
    // "Four orders of magnitude less computation": compare the candidate
    // spaces deterministically (wall-clock ratios at this tiny test scale
    // are dominated by thread fan-out noise; Figure 1 reports them at full
    // scale). HillClimb on an n-attribute table evaluates at most
    // n·(n−1)²/2 < n³ merge candidates; BruteForce enumerates Bell(#frags).
    let li = b.table_index("Lineitem").expect("lineitem");
    let schema = &b.tables()[li];
    let w = b.table_workload(li);
    let req = PartitionRequest::new(schema, &w, &m);
    let raw_space = BruteForce::exhaustive().candidate_count(&req); // B(16)
    let hillclimb_bound = (schema.attr_count() as u128).pow(3);
    assert!(
        raw_space > 1_000_000 * hillclimb_bound,
        "raw brute-force space ({raw_space}) should dwarf HillClimb's ({hillclimb_bound})"
    );
    // Even the fragment-reduced space stays well beyond HillClimb's.
    assert!(BruteForce::new().candidate_count(&req) > hillclimb_bound);
    assert!(
        hc.total_opt_time() <= bf.total_opt_time(),
        "HillClimb ({:?}) should not be slower than BruteForce ({:?})",
        hc.total_opt_time(),
        bf.total_opt_time()
    );
}

/// Lesson 2: "Watch out for the buffer size" — the buffer strongly impacts
/// workload cost, and vertical partitioning stops paying off at large
/// buffers.
#[test]
fn lesson2_buffer_size_governs_benefits() {
    let b = bench();
    let base = HddCostModel::paper_testbed();
    let run = run_advisor(&HillClimb::new(), &b, &base).expect("hillclimb");
    // (a) fragility: the same layouts get far slower at a 100× smaller
    // buffer.
    let tiny = HddCostModel::new(DiskParams::paper_testbed().with_buffer_size(80 * 1024));
    let blowup = run.total_cost(&b, &tiny) / run.total_cost(&b, &base);
    assert!(blowup > 2.0, "tiny buffer should hurt: only {blowup}×");

    // (b) sweet spot: re-optimizing at a small buffer beats Column clearly;
    // at a huge buffer the advantage (on the scan-dominated large tables)
    // evaporates.
    let small = HddCostModel::new(DiskParams::paper_testbed().with_buffer_size(256 * 1024));
    let hc_small = run_advisor(&HillClimb::new(), &b, &small)
        .expect("ok")
        .total_cost(&b, &small);
    let ratio_small = hc_small / column_cost(&b, &small);
    let huge =
        HddCostModel::new(DiskParams::paper_testbed().with_buffer_size(4 * 1024 * 1024 * 1024));
    let hc_huge = run_advisor(&HillClimb::new(), &b, &huge)
        .expect("ok")
        .total_cost(&b, &huge);
    let ratio_huge = hc_huge / column_cost(&b, &huge);
    assert!(
        ratio_small < ratio_huge + 1e-9,
        "benefit must shrink with buffer size"
    );
    assert!(
        ratio_small < 0.95,
        "vertical partitioning should pay at small buffers: {ratio_small}"
    );
}

/// Lesson 3: "HillClimb is the best algorithm" — best cost/time trade-off:
/// no other heuristic is cheaper in cost, and HillClimb stays fast.
#[test]
fn lesson3_hillclimb_best_tradeoff() {
    let b = bench();
    let m = HddCostModel::paper_testbed();
    let hc = run_advisor(&HillClimb::new(), &b, &m).expect("hillclimb");
    let hc_cost = hc.total_cost(&b, &m);
    for advisor in [
        Box::new(Navathe::new()) as Box<dyn slicer::core::Advisor>,
        Box::new(O2P::new()),
        Box::new(Hyrise::new()),
        Box::new(Trojan::new()),
    ] {
        let run = run_advisor(advisor.as_ref(), &b, &m).expect("advisor");
        assert!(
            hc_cost <= run.total_cost(&b, &m) * 1.001,
            "{} produced cheaper layouts than HillClimb",
            advisor.name()
        );
    }
}

/// Lesson 4: "Column layouts are often good enough" — on TPC-H the best
/// vertical partitioning improves over Column by only a few percent, while
/// improving over Row massively.
#[test]
fn lesson4_column_is_nearly_good_enough() {
    let b = tpch::benchmark(0.1); // all 22 queries: the fragmented workload
    let m = HddCostModel::paper_testbed();
    let hc = run_advisor(&HillClimb::new(), &b, &m).expect("hillclimb");
    let hc_cost = hc.total_cost(&b, &m);
    let col = column_cost(&b, &m);
    let row = row_cost(&b, &m);
    let improvement_over_column = (col - hc_cost) / col;
    let improvement_over_row = (row - hc_cost) / row;
    assert!(
        improvement_over_column < 0.20,
        "improvement over column should be modest: {improvement_over_column}"
    );
    assert!(
        improvement_over_row > 0.50,
        "improvement over row should be large: {improvement_over_row}"
    );
}
