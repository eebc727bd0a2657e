//! The fleet scheduler's contracts, property-tested:
//!
//! * **Spend cap** — a shared-budget (drift-first) fleet never spends more
//!   advisor steps than its per-round pool allows, whatever the traffic.
//! * **Single-table degeneration** — with one table, the fleet is
//!   behaviorally identical to a lone [`TableManager`] fed the same
//!   stream: same decisions, same repartition events, bit-identical
//!   layouts and deterministic counters.
//! * **Routing integrity** — no query is dropped or cross-delivered:
//!   per-table scan-checksum accumulators match single-table oracle runs,
//!   and per-table query counts match what was routed, across all three
//!   schedules and through live repartitions.

use proptest::prelude::*;
use slicer_core::{Budget, HillClimb};
use slicer_cost::HddCostModel;
use slicer_lifecycle::{
    FleetConfig, FleetOutcome, FleetSchedule, RepartitionDecision, TableFleet, TableManager,
    TableManagerConfig,
};
use slicer_model::{
    AttrKind, AttrSet, Literal, ModelError, Partitioning, PredClause, PredOp, Predicate, Query,
    TableSchema,
};
use slicer_storage::{generate_table, scan_naive_query_snapshot, CompressionPolicy, StoredTable};

/// Deterministic splitmix-style stream over a test seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn random_schema(name: &str, state: &mut u64) -> (TableSchema, usize) {
    let attrs = 3 + (next(state) % 5) as usize; // 3..=7
    let rows = 100 + (next(state) % 200) as usize;
    let mut b = TableSchema::builder(name, rows as u64);
    for i in 0..attrs {
        let (size, kind) = match next(state) % 4 {
            0 => (4, AttrKind::Int),
            1 => (8, AttrKind::Decimal),
            2 => (4, AttrKind::Date),
            _ => ((1 + next(state) % 25) as u32, AttrKind::Text),
        };
        b = b.attr(format!("A{i}"), size, kind);
    }
    (b.build().expect("valid random schema"), rows)
}

fn random_query(state: &mut u64, schema: &TableSchema, tag: u64) -> Query {
    let n = schema.attr_count();
    let mut set = AttrSet::default();
    for a in 0..n {
        if next(state) & 1 == 1 {
            set.insert(a);
        }
    }
    if set.is_empty() {
        set.insert((next(state) % n as u64) as usize);
    }
    Query::new(format!("q{tag}"), set)
}

fn build_manager(
    schema: &TableSchema,
    rows: usize,
    data_seed: u64,
    cfg: TableManagerConfig,
) -> TableManager {
    let data = generate_table(schema, rows, data_seed);
    let table = StoredTable::load(
        schema,
        &data,
        &Partitioning::row(schema),
        CompressionPolicy::Default,
    );
    TableManager::new(
        table,
        Box::new(HillClimb::new()),
        HddCostModel::paper_testbed(),
        cfg,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) The drift-first schedule's total step spend never exceeds
    /// `rounds × pool`, and the pool accounting is reflected in the stats.
    #[test]
    fn shared_budget_spend_never_exceeds_pool(
        seed in any::<u64>(),
        pool_steps in 1u64..6,
        tables in 2usize..5,
    ) {
        let mut state = seed;
        let mut fleet = TableFleet::new(FleetConfig {
            advise_every: 4,
            round_budget: Budget::steps(pool_steps),
            schedule: FleetSchedule::SharedDriftFirst,
            ..FleetConfig::default()
        });
        let mut schemas = Vec::new();
        for t in 0..tables {
            let name = format!("T{t}");
            let (schema, rows) = random_schema(&name, &mut state);
            let data_seed = next(&mut state);
            fleet.add_table(
                &name,
                build_manager(&schema, rows, data_seed, TableManagerConfig {
                    window: 8,
                    payoff_horizon: f64::INFINITY,
                    ..TableManagerConfig::default()
                }),
            );
            schemas.push((name, schema));
        }
        for i in 0..48u64 {
            let (name, schema) = &schemas[(next(&mut state) % tables as u64) as usize];
            let q = random_query(&mut state, schema, i);
            fleet.execute(name, q).expect("query fits its schema");
        }
        let stats = *fleet.stats();
        prop_assert!(stats.rounds == 12, "48 queries / advise_every 4");
        prop_assert!(
            stats.steps_spent <= stats.rounds * pool_steps,
            "spent {} steps from {} rounds × pool {}",
            stats.steps_spent, stats.rounds, pool_steps
        );
        // Sessions either ran or were explicitly skipped for budget.
        prop_assert!(stats.sessions >= stats.rounds, "every round runs ≥ 1 session");
    }

    /// (b) A one-table fleet degenerates to a lone TableManager:
    /// decision-for-decision, event-for-event, layout-bit-for-bit.
    #[test]
    fn single_table_fleet_equals_lone_manager(
        seed in any::<u64>(),
        cap in 0u64..4,
    ) {
        let mut state = seed;
        let (schema, rows) = random_schema("T", &mut state);
        let data_seed = next(&mut state);
        // cap 0 doubles as "unlimited" so both regimes are exercised.
        let budget = if cap == 0 { Budget::UNLIMITED } else { Budget::steps(cap) };
        let cfg = TableManagerConfig {
            window: 8,
            advise_every: 4,
            budget,
            // An infinite horizon makes adoption depend only on the
            // modeled saving, never on measured wall-clock — so the two
            // runs are bit-deterministic replicas of each other.
            payoff_horizon: f64::INFINITY,
            ..TableManagerConfig::default()
        };
        let mut lone = build_manager(&schema, rows, data_seed, cfg);
        let mut fleet = TableFleet::new(FleetConfig {
            advise_every: cfg.advise_every,
            round_budget: cfg.budget,
            schedule: FleetSchedule::SharedDriftFirst,
            ..FleetConfig::default()
        });
        fleet.add_table("T", build_manager(&schema, rows, data_seed, cfg));

        for i in 0..24u64 {
            let q = random_query(&mut state, &schema, i);
            let (lone_scan, lone_decision) = lone.execute(q.clone()).expect("fits schema");
            let (fleet_scan, outcome) = fleet.execute("T", q).expect("fits schema");
            prop_assert_eq!(lone_scan.checksum, fleet_scan.checksum);
            prop_assert_eq!(lone_scan.bytes_read, fleet_scan.bytes_read);
            prop_assert_eq!(
                lone_scan.io_seconds.to_bits(),
                fleet_scan.io_seconds.to_bits()
            );
            let fleet_decision = match outcome {
                FleetOutcome::NotDue => None,
                FleetOutcome::Round(mut decisions) => {
                    prop_assert_eq!(decisions.len(), 1, "one table, one session");
                    prop_assert_eq!(decisions[0].0.as_str(), "T");
                    Some(decisions.pop().expect("just checked").1)
                }
            };
            match (&lone_decision, &fleet_decision) {
                (RepartitionDecision::NotDue, None) => {}
                (RepartitionDecision::NoChange, Some(RepartitionDecision::NoChange)) => {}
                (
                    RepartitionDecision::Rejected { payoff: a },
                    Some(RepartitionDecision::Rejected { payoff: b }),
                ) => {
                    prop_assert_eq!(
                        a.saving_per_execution.to_bits(),
                        b.saving_per_execution.to_bits()
                    );
                }
                (
                    RepartitionDecision::Applied(a),
                    Some(RepartitionDecision::Applied(b)),
                ) => {
                    prop_assert_eq!(a.at_query, b.at_query);
                    prop_assert_eq!(&a.old_layout, &b.old_layout);
                    prop_assert_eq!(&a.new_layout, &b.new_layout);
                    prop_assert_eq!(a.old_cost.to_bits(), b.old_cost.to_bits());
                    prop_assert_eq!(a.new_cost.to_bits(), b.new_cost.to_bits());
                    prop_assert_eq!(a.stats.files_kept, b.stats.files_kept);
                    prop_assert_eq!(a.stats.files_rebuilt, b.stats.files_rebuilt);
                    prop_assert_eq!(a.stats.bytes_reread, b.stats.bytes_reread);
                    prop_assert_eq!(a.stats.bytes_rewritten, b.stats.bytes_rewritten);
                    prop_assert_eq!(
                        a.payoff.creation_time.to_bits(),
                        b.payoff.creation_time.to_bits()
                    );
                }
                (lone_d, fleet_d) => {
                    return Err(TestCaseError::fail(format!(
                        "decisions diverged at query {i}: lone {lone_d:?} vs fleet {fleet_d:?}"
                    )));
                }
            }
            prop_assert_eq!(
                lone.layout(),
                fleet.manager("T").expect("registered").layout(),
                "layouts diverged at query {}", i
            );
        }
        let (a, b) = (*lone.stats(), *fleet.manager("T").expect("registered").stats());
        prop_assert_eq!(a.queries, b.queries);
        prop_assert_eq!(a.advisor_runs, b.advisor_runs);
        prop_assert_eq!(a.truncated_runs, b.truncated_runs);
        prop_assert_eq!(a.repartitions, b.repartitions);
        prop_assert_eq!(a.rejected_by_payoff, b.rejected_by_payoff);
        prop_assert_eq!(a.bytes_read, b.bytes_read);
        prop_assert_eq!(a.scan_io_seconds.to_bits(), b.scan_io_seconds.to_bits());
    }

    /// (c) Routing never drops or cross-delivers a query, under any
    /// schedule, including through live repartitions: per-table checksum
    /// accumulators match an immutable single-table oracle, and per-table
    /// query counts match what was routed.
    #[test]
    fn routing_matches_single_table_oracles(
        seed in any::<u64>(),
        schedule in 0usize..3,
        pool_steps in 1u64..5,
    ) {
        let mut state = seed;
        let schedule = [
            FleetSchedule::SharedDriftFirst,
            FleetSchedule::EqualSplit,
            FleetSchedule::RoundRobin,
        ][schedule];
        let tables = 3usize;
        let mut fleet = TableFleet::new(FleetConfig {
            advise_every: 5,
            round_budget: Budget::steps(pool_steps),
            schedule,
            ..FleetConfig::default()
        });
        let mut oracles = Vec::new(); // (name, schema, immutable table)
        for t in 0..tables {
            let name = format!("T{t}");
            let (schema, rows) = random_schema(&name, &mut state);
            let data_seed = next(&mut state);
            fleet.add_table(
                &name,
                build_manager(&schema, rows, data_seed, TableManagerConfig {
                    window: 8,
                    payoff_horizon: f64::INFINITY,
                    ..TableManagerConfig::default()
                }),
            );
            let data = generate_table(&schema, rows, data_seed);
            let stored = StoredTable::load(
                &schema,
                &data,
                &Partitioning::row(&schema),
                CompressionPolicy::Default,
            );
            oracles.push((name, schema, stored));
        }
        let disk = HddCostModel::paper_testbed().params();
        let mut fleet_sum = vec![(0u64, 0u64); tables]; // (checksum acc, count)
        let mut oracle_sum = vec![(0u64, 0u64); tables];
        for i in 0..40u64 {
            let t = (next(&mut state) % tables as u64) as usize;
            let (name, schema, stored) = &oracles[t];
            let q = random_query(&mut state, schema, i);
            let (scan, _) = fleet.execute(name, q.clone()).expect("fits schema");
            fleet_sum[t].0 ^= scan.checksum.rotate_left((i % 63) as u32);
            fleet_sum[t].1 += 1;
            let oracle = scan_naive_query_snapshot(&stored.snapshot(), &q, &disk);
            oracle_sum[t].0 ^= oracle.checksum.rotate_left((i % 63) as u32);
            oracle_sum[t].1 += 1;
        }
        for t in 0..tables {
            prop_assert_eq!(
                fleet_sum[t], oracle_sum[t],
                "table {} delivered wrong data or wrong count", t
            );
            let served = fleet.manager(&oracles[t].0).expect("registered").stats().queries;
            prop_assert_eq!(served, fleet_sum[t].1, "routed vs served count");
        }
        prop_assert_eq!(fleet.stats().queries, 40);
    }
}

#[test]
fn unknown_table_is_an_error_and_counts_nothing() {
    let mut state = 7u64;
    let (schema, rows) = random_schema("T", &mut state);
    let mut fleet = TableFleet::new(FleetConfig::default());
    fleet.add_table(
        "T",
        build_manager(&schema, rows, 3, TableManagerConfig::default()),
    );
    let q = Query::new("q", AttrSet::single(0usize));
    match fleet.execute("nope", q) {
        Err(ModelError::UnknownTable { table }) => assert_eq!(table, "nope"),
        other => panic!("expected UnknownTable, got {other:?}"),
    }
    assert_eq!(fleet.stats().queries, 0);
    // An out-of-schema query routed to a known table is also refused
    // without advancing anything.
    let wide = Query::new("wide", AttrSet::single(30usize));
    assert!(fleet.execute("T", wide).is_err());
    assert_eq!(fleet.stats().queries, 0);
    assert_eq!(fleet.manager("T").expect("registered").stats().queries, 0);
}

#[test]
#[should_panic(expected = "already serves")]
fn duplicate_registration_panics() {
    let mut state = 9u64;
    let (schema, rows) = random_schema("T", &mut state);
    let mut fleet = TableFleet::new(FleetConfig::default());
    fleet.add_table(
        "T",
        build_manager(&schema, rows, 1, TableManagerConfig::default()),
    );
    let (schema2, rows2) = random_schema("T", &mut state);
    fleet.add_table(
        "T",
        build_manager(&schema2, rows2, 2, TableManagerConfig::default()),
    );
}

#[test]
fn drift_first_visits_the_most_drifted_table_first() {
    // Two tables; both get advised once so they hold an anchor; then only
    // one table's traffic shifts shape. The next round must visit the
    // drifted table first.
    let schema_a = TableSchema::builder("A", 200)
        .attr("X", 4, AttrKind::Int)
        .attr("Y", 8, AttrKind::Decimal)
        .attr("Z", 20, AttrKind::Text)
        .build()
        .unwrap();
    let schema_b = TableSchema::builder("B", 200)
        .attr("U", 4, AttrKind::Int)
        .attr("V", 8, AttrKind::Decimal)
        .attr("W", 20, AttrKind::Text)
        .build()
        .unwrap();
    let cfg = TableManagerConfig {
        window: 8,
        payoff_horizon: f64::INFINITY,
        ..TableManagerConfig::default()
    };
    let mut fleet = TableFleet::new(FleetConfig {
        advise_every: u64::MAX, // rounds run by hand
        round_budget: Budget::UNLIMITED,
        schedule: FleetSchedule::SharedDriftFirst,
        ..FleetConfig::default()
    });
    fleet.add_table("A", build_manager(&schema_a, 200, 1, cfg));
    fleet.add_table("B", build_manager(&schema_b, 200, 2, cfg));

    let narrow_a = Query::new("na", schema_a.attr_set(&["X"]).unwrap());
    let narrow_b = Query::new("nb", schema_b.attr_set(&["U"]).unwrap());
    for _ in 0..4 {
        fleet.execute("A", narrow_a.clone()).unwrap();
        fleet.execute("B", narrow_b.clone()).unwrap();
    }
    fleet.advise_round(); // both anchored now
                          // B's traffic shifts to a wide projection; A's stays put.
    let wide_b = Query::new("wb", schema_b.attr_set(&["U", "V", "W"]).unwrap());
    for _ in 0..8 {
        fleet.execute("A", narrow_a.clone()).unwrap();
        fleet.execute("B", wide_b.clone()).unwrap();
    }
    let drift_a = fleet.drift_of("A").unwrap();
    let drift_b = fleet.drift_of("B").unwrap();
    assert!(
        drift_b.outranks(&drift_a),
        "B drifted ({drift_b:?}), A did not ({drift_a:?})"
    );
    let decisions = fleet.advise_round();
    assert_eq!(decisions[0].0, "B", "most drifted table is visited first");
    assert_eq!(decisions.len(), 2, "the pool reaches the quiet table too");
}

#[test]
fn realized_payoff_is_recorded_per_table_on_a_two_table_drift_trace() {
    // Table A drifts hard (row seed, heavily selective traffic → a move
    // pays off); table B's traffic is full-width (the row layout is
    // already right, no move ever pays). After the trace: A's ledger shows
    // an investment and accruing savings; B's ledger stays zero; the
    // fleet-wide FleetStats mirror was refreshed at the last round.
    let schema_a = TableSchema::builder("A", 4000)
        .attr("K", 4, AttrKind::Int)
        .attr("P", 8, AttrKind::Decimal)
        .attr("Q", 8, AttrKind::Decimal)
        .attr("C", 120, AttrKind::Text)
        .build()
        .unwrap();
    let schema_b = TableSchema::builder("B", 4000)
        .attr("U", 4, AttrKind::Int)
        .attr("V", 8, AttrKind::Decimal)
        .attr("W", 20, AttrKind::Text)
        .build()
        .unwrap();
    let cfg = TableManagerConfig {
        window: 8,
        payoff_horizon: f64::INFINITY,
        ..TableManagerConfig::default()
    };
    let mut fleet = TableFleet::new(FleetConfig {
        advise_every: 8,
        round_budget: Budget::UNLIMITED,
        schedule: FleetSchedule::SharedDriftFirst,
        ..FleetConfig::default()
    });
    fleet.add_table("A", build_manager(&schema_a, 4000, 1, cfg));
    fleet.add_table("B", build_manager(&schema_b, 4000, 2, cfg));

    let selective_a = Query::new("sa", schema_a.attr_set(&["P", "Q"]).unwrap());
    let full_b = Query::new("fb", schema_b.all_attrs());
    for _ in 0..16 {
        fleet.execute("A", selective_a.clone()).unwrap();
        fleet.execute("B", full_b.clone()).unwrap();
    }
    let a = fleet.realized_payoff("A").expect("registered");
    let b = fleet.realized_payoff("B").expect("registered");
    assert!(a.moves >= 1, "A's drift must trigger a move: {a:?}");
    assert!(a.invested_io_seconds > 0.0, "the move had a price: {a:?}");
    assert!(
        a.saved_io_seconds > 0.0,
        "traffic served after the move must accrue savings: {a:?}"
    );
    assert_eq!(b.moves, 0, "B's full-width traffic never warrants a move");
    assert_eq!(b.invested_io_seconds, 0.0);
    assert_eq!(b.saved_io_seconds, 0.0);
    // The fleet-wide mirror equals the per-table sums as of the last round
    // (savings keep accruing after it, so mirror ≤ current sum).
    let stats = fleet.stats();
    assert!(stats.payoff_invested_io_seconds > 0.0);
    assert!(
        stats.payoff_invested_io_seconds <= a.invested_io_seconds + b.invested_io_seconds + 1e-12
    );
    assert!(stats.payoff_saved_io_seconds <= a.saved_io_seconds + b.saved_io_seconds + 1e-12);
    // Savings keep growing as more selective traffic lands.
    for _ in 0..8 {
        fleet.execute("A", selective_a.clone()).unwrap();
    }
    let a2 = fleet.realized_payoff("A").expect("registered");
    assert!(a2.saved_io_seconds > a.saved_io_seconds);
}

#[test]
fn fleet_serve_batch_matches_sequential_execution() {
    // The multi-threaded routed drain must deliver exactly what the
    // sequential router delivers: same per-event checksums (accumulated
    // in order), same per-table served counts, same window contents —
    // with an advise round running mid-drain on the serving fleet. Part
    // of the stream carries predicates, so the windows match only if the
    // drain books each query stamped from the snapshot it scanned, as
    // `execute` does.
    let mut state = 21u64;
    let tables = 3usize;
    let cfg = TableManagerConfig {
        window: 8,
        payoff_horizon: f64::INFINITY,
        ..TableManagerConfig::default()
    };
    let fleet_cfg = FleetConfig {
        advise_every: u64::MAX, // scheduled by hand
        round_budget: Budget::UNLIMITED,
        schedule: FleetSchedule::SharedDriftFirst,
        ..FleetConfig::default()
    };
    let mut concurrent = TableFleet::new(fleet_cfg);
    let mut sequential = TableFleet::new(fleet_cfg);
    let mut schemas = Vec::new();
    for t in 0..tables {
        let name = format!("T{t}");
        let (schema, rows) = random_schema(&name, &mut state);
        let data_seed = next(&mut state);
        concurrent.add_table(&name, build_manager(&schema, rows, data_seed, cfg));
        sequential.add_table(&name, build_manager(&schema, rows, data_seed, cfg));
        schemas.push((name, schema));
    }
    let events: Vec<(String, Query)> = (0..48u64)
        .map(|i| {
            let (name, schema) = &schemas[(next(&mut state) % tables as u64) as usize];
            let q = random_query(&mut state, schema, i);
            (name.clone(), with_predicate(q, schema, i))
        })
        .collect();

    // Sequential oracle: plain routed execution, no rounds.
    let mut oracle_checksum = 0u64;
    for (i, (name, q)) in events.iter().enumerate() {
        let (scan, _) = sequential.execute(name, q.clone()).expect("fits schema");
        oracle_checksum ^= scan.checksum.rotate_left((i % 63) as u32);
    }

    // Concurrent drain with an advise round overlapped mid-flight.
    let (report, decisions) = concurrent
        .serve_batch_with(&events, 4, |fleet| fleet.advise_round())
        .expect("all events route");
    assert_eq!(report.queries, events.len() as u64);
    assert_eq!(
        report.checksum, oracle_checksum,
        "drain delivered wrong data"
    );
    assert!(report.queries_per_second > 0.0);
    // The round really ran on the serving fleet.
    assert_eq!(concurrent.stats().rounds, 1);
    drop(decisions);
    for (name, _) in &schemas {
        assert_eq!(
            concurrent
                .manager(name)
                .expect("registered")
                .stats()
                .queries,
            sequential
                .manager(name)
                .expect("registered")
                .stats()
                .queries,
            "per-table served counts diverge for {name}"
        );
        let drained = concurrent.manager(name).expect("registered").window();
        let executed = sequential.manager(name).expect("registered").window();
        assert_eq!(drained.len(), executed.len(), "window length of {name}");
        for (d, e) in drained.queries().iter().zip(executed.queries()) {
            assert_eq!(d, e, "window of {name} diverges");
            assert_eq!(
                d.predicate.as_ref().map(|p| p.kept_fraction.to_bits()),
                e.predicate.as_ref().map(|p| p.kept_fraction.to_bits()),
                "{name}: {} booked with another kept_fraction",
                d.name
            );
        }
    }
    assert_eq!(concurrent.stats().queries, 48);
}

/// Give every third event a one-clause predicate on its first numeric
/// attribute that no generated row passes (values are never negative),
/// and every third one that every row passes; the rest stay bare.
fn with_predicate(q: Query, schema: &TableSchema, tag: u64) -> Query {
    let numeric = q.referenced.iter().find(|&a| {
        matches!(
            schema.attribute(a).kind,
            AttrKind::Int | AttrKind::Date | AttrKind::Decimal
        )
    });
    let (attr, op, bound) = match (numeric, tag % 3) {
        (Some(attr), 0) => (attr, PredOp::Le, -1),
        (Some(attr), 1) => (attr, PredOp::Ge, 0),
        _ => return q,
    };
    let value = match schema.attribute(attr).kind {
        AttrKind::Int => Literal::int(bound),
        AttrKind::Date => Literal::date(bound),
        _ => Literal::decimal(bound.into()),
    };
    q.with_predicate(Predicate::new(vec![PredClause::new(attr, op, value)]))
}
