//! Equivalence of the incremental, memoized cost-evaluation engine with the
//! naive path, property-tested on random schemas, workloads, partitionings
//! and moves. The contract under test is strict: **bit-for-bit identical
//! costs** (compared via `f64::to_bits`) and **identical layouts** from
//! every advisor on either path.

use proptest::collection::vec;
use proptest::prelude::*;
use slicer::core::paper_advisors;
use slicer::cost::{CostEvaluator, CostModel, MainMemoryCostModel};
use slicer::prelude::*;
use slicer::workloads::synth::{table_and_workload, AccessPattern, SyntheticSpec};

fn spec_strategy() -> impl Strategy<Value = SyntheticSpec> {
    (2usize..10, 1usize..10, any::<u64>(), 0usize..3).prop_map(|(attrs, queries, seed, pattern)| {
        SyntheticSpec {
            attrs,
            rows: 500_000,
            queries,
            pattern: match pattern {
                0 => AccessPattern::Regular { classes: 2 },
                1 => AccessPattern::Fragmented,
                _ => AccessPattern::Uniform { p: 0.35 },
            },
            seed,
        }
    })
}

/// A valid random partitioning: attribute `i` goes to block `blocks[i % len]`,
/// empty blocks dropped.
fn random_groups(n: usize, blocks: &[usize]) -> Vec<AttrSet> {
    let nblocks = blocks.iter().map(|b| b % n).max().unwrap_or(0) + 1;
    let mut groups = vec![AttrSet::EMPTY; nblocks];
    for attr in 0..n {
        groups[blocks[attr % blocks.len()] % n].insert(attr);
    }
    groups.retain(|g| !g.is_empty());
    groups
}

fn models() -> Vec<Box<dyn CostModel>> {
    vec![
        Box::new(HddCostModel::paper_testbed()),
        Box::new(MainMemoryCostModel::paper_testbed()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn full_evaluation_matches_naive_bit_for_bit(
        spec in spec_strategy(),
        blocks in vec(0usize..8, 8..16),
    ) {
        let (table, workload) = table_and_workload(&spec);
        let groups = random_groups(table.attr_count(), &blocks);
        let p = Partitioning::from_disjoint_unchecked(groups.clone());
        for model in models() {
            let naive = model.workload_cost(&table, &p, &workload);
            let ev = CostEvaluator::new(model.as_ref(), &table, &workload, &groups, false);
            prop_assert_eq!(
                naive.to_bits(),
                ev.total().to_bits(),
                "{}: naive {naive} vs evaluator {}", model.name(), ev.total()
            );
        }
    }

    #[test]
    fn merge_moves_match_naive_bit_for_bit(
        spec in spec_strategy(),
        blocks in vec(0usize..5, 8..16),
    ) {
        let (table, workload) = table_and_workload(&spec);
        let groups = random_groups(table.attr_count(), &blocks);
        let p = Partitioning::from_disjoint_unchecked(groups.clone());
        for model in models() {
            let mut ev = CostEvaluator::new(model.as_ref(), &table, &workload, &groups, false);
            let n = ev.len();
            for i in 0..n {
                for j in (i + 1)..n {
                    let naive = model.workload_cost(&table, &p.merged(i, j), &workload);
                    prop_assert_eq!(
                        naive.to_bits(),
                        ev.merge_cost(i, j).to_bits(),
                        "{}: merge ({i},{j})", model.name()
                    );
                }
            }
            // Commit one merge and re-verify the running total.
            if n >= 2 {
                let committed = p.merged(0, 1);
                ev.commit_merge(0, 1);
                let naive = model.workload_cost(&table, &committed, &workload);
                prop_assert_eq!(naive.to_bits(), ev.total().to_bits());
                prop_assert_eq!(ev.partitioning(), committed);
            }
        }
    }

    #[test]
    fn split_moves_match_naive_bit_for_bit(
        spec in spec_strategy(),
        blocks in vec(0usize..4, 8..16),
    ) {
        let (table, workload) = table_and_workload(&spec);
        let groups = random_groups(table.attr_count(), &blocks);
        let p = Partitioning::from_disjoint_unchecked(groups.clone());
        for model in models() {
            let mut ev = CostEvaluator::new(model.as_ref(), &table, &workload, &groups, false);
            // Split every multi-attribute group into (first attr, rest).
            let splittable: Vec<usize> = (0..ev.len())
                .filter(|&g| ev.groups()[g].len() >= 2)
                .collect();
            for &g in &splittable {
                let whole = ev.groups()[g];
                let first = AttrSet::single(whole.min_attr().expect("non-empty"));
                let rest = whole.difference(first);
                let naive =
                    model.workload_cost(&table, &p.replaced(&[g], &[first, rest]), &workload);
                prop_assert_eq!(
                    naive.to_bits(),
                    ev.move_cost(&[g], &[first, rest]).to_bits(),
                    "{}: split group {g}", model.name()
                );
            }
            // Commit one split and re-verify.
            if let Some(&g) = splittable.first() {
                let whole = ev.groups()[g];
                let first = AttrSet::single(whole.min_attr().expect("non-empty"));
                let rest = whole.difference(first);
                let committed = p.replaced(&[g], &[first, rest]);
                ev.commit_move(&[g], &[first, rest]);
                let naive = model.workload_cost(&table, &committed, &workload);
                prop_assert_eq!(naive.to_bits(), ev.total().to_bits());
                prop_assert_eq!(ev.partitioning(), committed);
            }
        }
    }
}

/// The paper-scale case the random specs above never reach: HillClimb on
/// the 16-attribute TPC-H SF10 Lineitem workload lands on the same layout
/// through both paths, and that layout is pinned.
#[test]
fn hillclimb_on_tpch_lineitem_matches_naive_and_is_pinned() {
    let b = tpch::benchmark(10.0);
    let li = b.table_index("Lineitem").expect("TPC-H has Lineitem");
    let schema = &b.tables()[li];
    let workload = b.table_workload(li);
    let m = HddCostModel::paper_testbed();
    let fast = PartitionRequest::new(schema, &workload, &m);
    let naive = fast.with_naive_evaluation();
    let a = HillClimb::new().partition(&fast).expect("evaluator path");
    let b = HillClimb::new().partition(&naive).expect("naive path");
    assert_eq!(a, b, "evaluator {a} vs naive {b}");
    assert_eq!(
        a.render(schema),
        "[P1(OrderKey) | P2(PartKey) | P3(SuppKey) | P4(LineNumber) | P5(Quantity) | \
         P6(ExtendedPrice,Discount) | P7(Tax,LineStatus) | P8(ReturnFlag) | P9(ShipDate) | \
         P10(CommitDate,ReceiptDate) | P11(ShipInstruct) | P12(ShipMode) | P13(Comment)]"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn every_advisor_returns_identical_layouts_on_both_paths(spec in spec_strategy()) {
        let (table, workload) = table_and_workload(&spec);
        for model in models() {
            let fast = PartitionRequest::new(&table, &workload, model.as_ref());
            let naive = fast.with_naive_evaluation();
            for advisor in paper_advisors() {
                let a = advisor.partition(&fast)
                    .unwrap_or_else(|e| panic!("{} fast failed: {e}", advisor.name()));
                let b = advisor.partition(&naive)
                    .unwrap_or_else(|e| panic!("{} naive failed: {e}", advisor.name()));
                prop_assert_eq!(
                    &a, &b,
                    "{} diverged under {}: fast {} vs naive {}",
                    advisor.name(), model.name(), a, b
                );
            }
        }
    }
}
