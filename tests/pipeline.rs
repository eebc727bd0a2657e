//! Cross-crate integration: workloads → advisors → cost models → metrics,
//! end to end on real TPC-H/SSB prefixes.

use slicer::core::{all_advisors, paper_advisors, PerfectMaterializedViews};
use slicer::metrics::{column_cost, pmv_cost, row_cost, run_advisor};
use slicer::prelude::*;
use slicer::storage::{generate_table, CompressionPolicy, StoredTable};
use slicer::workloads::trace::{mixed_tpch_ssb, FleetTrace};

fn quick_tpch() -> slicer::workloads::Benchmark {
    tpch::benchmark(0.1).prefix(8)
}

#[test]
fn every_advisor_produces_valid_partitionings_on_tpch() {
    let b = quick_tpch();
    let m = HddCostModel::paper_testbed();
    for advisor in all_advisors() {
        let run = run_advisor(advisor.as_ref(), &b, &m)
            .unwrap_or_else(|e| panic!("{} failed: {e}", advisor.name()));
        for t in &run.tables {
            let schema = &b.tables()[t.table_index];
            Partitioning::new(schema, t.layout.partitions().to_vec()).unwrap_or_else(|e| {
                panic!(
                    "{} produced invalid layout for {}: {e}",
                    advisor.name(),
                    t.table
                )
            });
        }
    }
}

#[test]
fn bruteforce_lower_bounds_every_advisor() {
    let b = quick_tpch();
    let m = HddCostModel::paper_testbed();
    let bf = run_advisor(&BruteForce::new(), &b, &m).expect("brute force fits");
    let optimum = bf.total_cost(&b, &m);
    for advisor in paper_advisors() {
        if advisor.name() == "BruteForce" {
            continue;
        }
        let run = run_advisor(advisor.as_ref(), &b, &m).expect("advisor runs");
        let c = run.total_cost(&b, &m);
        assert!(
            c >= optimum - 1e-6,
            "{} ({c}) beat the brute-force optimum ({optimum})",
            advisor.name()
        );
    }
    // Baselines are also bounded.
    assert!(row_cost(&b, &m) >= optimum);
    assert!(column_cost(&b, &m) >= optimum);
}

#[test]
fn pmv_is_a_global_lower_bound() {
    let b = quick_tpch();
    let m = HddCostModel::paper_testbed();
    let pmv = pmv_cost(&b, &m);
    for advisor in all_advisors() {
        let run = run_advisor(advisor.as_ref(), &b, &m).expect("advisor runs");
        assert!(
            run.total_cost(&b, &m) >= pmv - 1e-6,
            "{} beat perfect materialized views",
            advisor.name()
        );
    }
}

#[test]
fn advisors_are_deterministic_across_runs() {
    let b = quick_tpch();
    let m = HddCostModel::paper_testbed();
    for advisor in paper_advisors() {
        let a = run_advisor(advisor.as_ref(), &b, &m).expect("run 1");
        let bb = run_advisor(advisor.as_ref(), &b, &m).expect("run 2");
        for (x, y) in a.tables.iter().zip(&bb.tables) {
            assert_eq!(
                x.layout,
                y.layout,
                "{} nondeterministic on {}",
                advisor.name(),
                x.table
            );
        }
    }
}

#[test]
fn ssb_pipeline_works_for_all_advisors() {
    let b = ssb::benchmark(0.1).prefix(4);
    let m = HddCostModel::paper_testbed();
    for advisor in paper_advisors() {
        let run = run_advisor(advisor.as_ref(), &b, &m)
            .unwrap_or_else(|e| panic!("{} failed on SSB: {e}", advisor.name()));
        assert!(run.total_cost(&b, &m) > 0.0);
    }
}

#[test]
fn main_memory_model_plugs_into_the_same_pipeline() {
    let b = quick_tpch();
    let mm = MainMemoryCostModel::paper_testbed();
    let run = run_advisor(&HillClimb::new(), &b, &mm).expect("hillclimb under MM");
    let col = column_cost(&b, &mm);
    assert!(
        run.total_cost(&b, &mm) <= col * (1.0 + 1e-9),
        "HillClimb must not lose to column under its own objective"
    );
}

#[test]
fn pmv_views_cover_their_queries() {
    let b = quick_tpch();
    for (_, schema, w) in b.touched_tables() {
        let views = PerfectMaterializedViews::views(&w);
        for q in w.queries() {
            assert!(
                views
                    .iter()
                    .any(|v| q.referenced.is_subset_of(*v) && *v == q.referenced),
                "query {} has no exact view on {}",
                q.name,
                schema.name()
            );
        }
    }
}

#[test]
fn prefix_consistency_across_tables() {
    // The k-prefix of the benchmark must equal per-table workload prefixes.
    let full = tpch::benchmark(0.1);
    let k = 5;
    let pre = full.prefix(k);
    for idx in 0..full.tables().len() {
        let from_prefix = pre.table_workload(idx);
        for q in from_prefix.queries() {
            // Every query in the prefixed workload appears in the full one
            // with the same reference set.
            let orig = full
                .table_workload(idx)
                .queries()
                .iter()
                .find(|o| o.name == q.name)
                .map(|o| o.referenced);
            assert_eq!(orig, Some(q.referenced));
        }
    }
}

/// Modeled scan I/O plus modeled repartition I/O of serving `trace`
/// through a fleet run under `schedule`. Every table starts in the row
/// layout, scaled so the largest has `ROWS_CAP` rows: small tables are
/// seek-bound, the row layout is then near-optimal for everything, and
/// no scheduler has anything to win.
fn fleet_total_io_seconds(trace: &FleetTrace, schedule: FleetSchedule) -> f64 {
    const ROWS_CAP: u64 = 20_000;
    let largest = trace
        .tables
        .iter()
        .map(|(_, s)| s.row_count())
        .max()
        .unwrap();
    let mut fleet = TableFleet::new(FleetConfig {
        advise_every: 8,
        round_budget: Budget::steps(8),
        schedule,
        drift_floor: 0.05,
    });
    for (name, schema) in &trace.tables {
        let rows = (schema.row_count() as u128 * ROWS_CAP as u128 / largest as u128) as u64;
        let schema = schema.with_row_count(rows.clamp(8, ROWS_CAP));
        let data = generate_table(
            &schema,
            schema.row_count() as usize,
            20130606 ^ name.len() as u64,
        );
        let table = StoredTable::load(
            &schema,
            &data,
            &Partitioning::row(&schema),
            CompressionPolicy::Default,
        );
        let manager = TableManager::new(
            table,
            Box::new(HillClimb::new()),
            HddCostModel::paper_testbed(),
            TableManagerConfig {
                window: 16,
                advise_every: u64::MAX, // the fleet schedules centrally
                budget: Budget::UNLIMITED,
                // About the window executions one phase delivers: a longer
                // horizon green-lights moves the phase cannot amortize.
                payoff_horizon: 4.0,
                ..TableManagerConfig::default()
            },
        );
        fleet.add_table(name.clone(), manager);
    }
    for ev in &trace.events {
        fleet.execute(&ev.table, ev.query.clone()).unwrap();
    }
    trace
        .tables
        .iter()
        .map(|(name, _)| {
            let stats = fleet.manager(name).unwrap().stats();
            stats.scan_io_seconds + stats.repartition_io_seconds
        })
        .sum()
}

/// On a phase-drifting TPC-H + SSB trace, spending one shared per-round
/// step budget on the most drifted table first costs no more than
/// splitting it evenly or rotating it. The totals are modeled and
/// step-budgeted, hence deterministic.
#[test]
fn drift_first_fleet_schedule_beats_equal_split_and_round_robin() {
    let trace = mixed_tpch_ssb(0.1, 360, 6, 20130606);
    let drift_first = fleet_total_io_seconds(&trace, FleetSchedule::SharedDriftFirst);
    let equal_split = fleet_total_io_seconds(&trace, FleetSchedule::EqualSplit);
    let round_robin = fleet_total_io_seconds(&trace, FleetSchedule::RoundRobin);
    assert!(
        drift_first <= equal_split && drift_first <= round_robin,
        "drift-first {drift_first} vs equal-split {equal_split}, round-robin {round_robin}"
    );
}
