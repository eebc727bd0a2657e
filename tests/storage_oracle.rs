//! Storage-engine oracle tests: whatever the layout and codec, a scan must
//! return exactly the same logical result; compression must round-trip; and
//! the simulated I/O accounting must follow the cost model's shape.

use proptest::prelude::*;
use slicer::model::{Literal, PredClause, PredOp, Predicate};
use slicer::prelude::*;
use slicer::storage::{
    decode, encode, generate_table, scan_naive_query_snapshot, Codec, ColumnData,
    CompressionPolicy, ScanExecutor, StoredTable,
};

fn orders_schema(rows: u64) -> TableSchema {
    tpch::table(tpch::TpchTable::Orders, 1.0).with_row_count(rows)
}

#[test]
fn scans_agree_across_every_layout_codec_combination() {
    let rows = 3_000;
    let schema = orders_schema(rows);
    let data = generate_table(&schema, rows as usize, 99);
    let disk = DiskParams::paper_testbed();
    let hc_layout = {
        let w = Workload::with_queries(
            &schema,
            vec![
                Query::new("q1", schema.attr_set(&["OrderKey", "TotalPrice"]).unwrap()),
                Query::new("q2", schema.attr_set(&["Comment"]).unwrap()),
            ],
        )
        .unwrap();
        let m = HddCostModel::paper_testbed();
        HillClimb::new()
            .partition(&PartitionRequest::new(&schema, &w, &m))
            .unwrap()
    };

    for referenced in [
        schema.attr_set(&["OrderKey"]).unwrap(),
        schema
            .attr_set(&["OrderKey", "CustKey", "TotalPrice"])
            .unwrap(),
        schema.attr_set(&["Comment", "OrderDate"]).unwrap(),
        schema.all_attrs(),
    ] {
        let mut checksums = Vec::new();
        for policy in [
            CompressionPolicy::None,
            CompressionPolicy::Default,
            CompressionPolicy::Dictionary,
        ] {
            for layout in [
                Partitioning::row(&schema),
                Partitioning::column(&schema),
                hc_layout.clone(),
            ] {
                let t = StoredTable::load(&schema, &data, &layout, policy);
                let q = Query::new("q", referenced);
                let r = ScanExecutor::new(&t).scan_query_snapshot(&t.snapshot(), &q, &disk);
                checksums.push(r.checksum);
            }
        }
        assert!(
            checksums.windows(2).all(|w| w[0] == w[1]),
            "checksum mismatch for {referenced:?}: {checksums:?}"
        );
    }
}

#[test]
fn compression_policies_trade_size_for_fixed_width() {
    let rows = 5_000;
    let schema = orders_schema(rows);
    let data = generate_table(&schema, rows as usize, 7);
    let col = Partitioning::column(&schema);
    let plain = StoredTable::load(&schema, &data, &col, CompressionPolicy::None);
    let def = StoredTable::load(&schema, &data, &col, CompressionPolicy::Default);
    assert!(
        def.stored_bytes() < plain.stored_bytes(),
        "default compression must shrink data"
    );
    // Default policy leaves some files variable-width; dictionary never.
    let dict = StoredTable::load(&schema, &data, &col, CompressionPolicy::Dictionary);
    assert!(dict.snapshot().files.iter().all(|f| f.fixed_width()));
    assert!(def.snapshot().files.iter().any(|f| !f.fixed_width()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn int_columns_roundtrip_all_codecs(values in proptest::collection::vec(any::<i32>(), 1..300)) {
        let col = ColumnData::Int(values);
        for codec in [Codec::Plain, Codec::Dictionary, Codec::Delta, Codec::Lz] {
            let enc = encode(&col, codec);
            let dec = decode(&enc, &ColumnData::Int(vec![]));
            prop_assert_eq!(&col, &dec, "codec {:?}", codec);
        }
    }

    #[test]
    fn text_columns_roundtrip_all_codecs(
        values in proptest::collection::vec("[a-zA-Z0-9 ]{1,40}", 1..120),
    ) {
        // Trailing spaces are not preserved by the padded fixed-width form,
        // so normalize first (schema widths are trims anyway).
        let values: Vec<String> = values.iter().map(|s| s.trim_end().to_string())
            .map(|s| if s.is_empty() { "x".to_string() } else { s })
            .collect();
        let col = ColumnData::Text(values);
        for codec in [Codec::Plain, Codec::Dictionary, Codec::Lz] {
            let enc = encode(&col, codec);
            let dec = decode(&enc, &ColumnData::Text(vec![]));
            prop_assert_eq!(&col, &dec, "codec {:?}", codec);
        }
    }

    #[test]
    fn decimal_columns_roundtrip(values in proptest::collection::vec(any::<i64>(), 1..200)) {
        let col = ColumnData::Decimal(values);
        for codec in [Codec::Plain, Codec::Delta, Codec::Lz] {
            let enc = encode(&col, codec);
            let dec = decode(&enc, &ColumnData::Decimal(vec![]));
            prop_assert_eq!(&col, &dec, "codec {:?}", codec);
        }
    }
}

#[test]
fn narrower_projections_read_fewer_bytes() {
    let rows = 4_000;
    let schema = orders_schema(rows);
    let data = generate_table(&schema, rows as usize, 5);
    let disk = DiskParams::paper_testbed();
    let col = StoredTable::load(
        &schema,
        &data,
        &Partitioning::column(&schema),
        CompressionPolicy::None,
    );
    let (exec, snapshot) = (ScanExecutor::new(&col), col.snapshot());
    let one_q = Query::new("one", schema.attr_set(&["OrderKey"]).unwrap());
    let one = exec.scan_query_snapshot(&snapshot, &one_q, &disk);
    let all = exec.scan_query_snapshot(&snapshot, &Query::new("all", schema.all_attrs()), &disk);
    assert!(one.bytes_read < all.bytes_read);
    assert!(one.io_seconds <= all.io_seconds);
}

/// Block skipping on the paper's Lineitem: a sub-permille `ShipDate ==
/// 1800` predicate over a layout that isolates `ShipDate`. The generator's
/// dates trend upward with the row index, so zone maps rule out almost
/// every 2048-row chunk; 60 000 rows is enough chunks for the cut to
/// reach 5x (20 000 is not).
#[test]
fn isolating_a_selective_driver_cuts_bytes_and_the_skip_aware_advisor_finds_it() {
    let rows = 60_000;
    let b = tpch::benchmark(10.0);
    let schema = b.tables()[b.table_index("Lineitem").unwrap()].with_row_count(rows as u64);
    let data = generate_table(&schema, rows, 7);
    let disk = DiskParams::paper_testbed();
    let ship = schema.attr_id("ShipDate").unwrap();
    let referenced = schema
        .attr_set(&["Quantity", "ExtendedPrice", "Discount", "ShipDate"])
        .unwrap();
    let permille = Predicate::new(vec![PredClause::new(ship, PredOp::Eq, Literal::date(1800))]);
    let q = Query::new("q6-permille", referenced).with_predicate(permille.clone());
    let ColumnData::Date(dates) = &data.columns[ship.index()] else {
        panic!("ShipDate is a date column");
    };
    let selectivity = dates.iter().filter(|&&d| d == 1800).count() as f64 / rows as f64;
    assert!(selectivity > 0.0 && selectivity <= 1e-3, "{selectivity}");

    let rest: Vec<&str> = schema
        .attributes()
        .iter()
        .map(|a| a.name.as_str())
        .filter(|n| *n != "ShipDate")
        .collect();
    let isolating = Partitioning::new(
        &schema,
        vec![
            schema.attr_set(&["ShipDate"]).unwrap(),
            schema.attr_set(&rest).unwrap(),
        ],
    )
    .unwrap();
    let mut kept = 1.0;
    for (policy, min_cut) in [
        (CompressionPolicy::None, Some(5.0)),
        (CompressionPolicy::Dictionary, Some(5.0)),
        // Variable-width codecs cannot fetch kept rows alone: every
        // touched file is read whole (the paper's penalty), so no cut.
        (CompressionPolicy::Default, None),
    ] {
        let table = StoredTable::load(&schema, &data, &isolating, policy);
        let snapshot = table.snapshot();
        let oracle = scan_naive_query_snapshot(&snapshot, &q, &disk);
        let pruned = ScanExecutor::new(&table).scan_query_snapshot(&snapshot, &q, &disk);
        assert_eq!(pruned.checksum, oracle.checksum, "{policy:?}");
        let cut = oracle.bytes_read as f64 / pruned.bytes_read as f64;
        match min_cut {
            Some(min) => assert!(cut >= min, "{policy:?}: bytes cut {cut:.2}x < {min}x"),
            None => assert_eq!(pruned.bytes_read, oracle.bytes_read, "{policy:?}"),
        }
        // Zone maps and blooms are built from values, not codes: every
        // policy measures the same fraction.
        kept = snapshot.prune_fraction(&permille);
    }

    // The same advisor, evaluator and queries; only whether the predicate
    // carries its measured skip probability differs. Both choices are
    // priced skip-aware.
    let workload = |p: Predicate| {
        Workload::with_queries(
            &schema,
            vec![
                Query::weighted("q6-selective", referenced, 4.0).with_predicate(p),
                Query::new(
                    "logistics",
                    schema
                        .attr_set(&["OrderKey", "CommitDate", "ReceiptDate", "ShipMode"])
                        .unwrap(),
                ),
            ],
        )
        .unwrap()
    };
    let aware = workload(permille.clone().with_kept_fraction(kept));
    let zero = workload(permille);
    let m = HddCostModel::paper_testbed();
    let advise = |w: &Workload| {
        HillClimb::new()
            .partition(&PartitionRequest::new(&schema, w, &m))
            .unwrap()
    };
    let aware_cost = m.workload_cost(&schema, &advise(&aware), &aware);
    let zero_cost = m.workload_cost(&schema, &advise(&zero), &aware);
    assert!(
        aware_cost < zero_cost,
        "skip-aware choice {aware_cost} must price below the zero-skip choice {zero_cost}"
    );
}
