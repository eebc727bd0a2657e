//! End-to-end wire serving: a real TCP server over a [`TableFleet`],
//! driven by the retrying client, held to in-process oracles.
//!
//! * every scan served over the wire is bit-identical (checksum,
//!   `bytes_read`, `io_seconds`) to `scan_naive_query_snapshot` on the same
//!   table;
//! * ingest round-trips durably and idempotently;
//! * typed errors — unknown table, invalid query, malformed batch — come
//!   back as typed wire errors and leave the connection usable
//!   (regression for the `ModelError::UnknownTable` satellite);
//! * deadline-aware grants refuse work the disk model says cannot meet
//!   its deadline; admission control sheds with `Overloaded`;
//! * the slow-query log is exposed over the wire with correct
//!   threshold/eviction accounting;
//! * scans keep flowing (and stay correct) while the fleet lock is held
//!   by advise rounds.

use slicer::client::{Client, ClientConfig, ClientError};
use slicer::cost::{CostModel, HddCostModel};
use slicer::lifecycle::{FleetConfig, TableFleet, TableManager, TableManagerConfig};
use slicer::model::{
    AttrId, AttrKind, AttrSet, Literal, Partitioning, PredClause, PredOp, Predicate, Query,
    TableSchema,
};
use slicer::net::{ErrorCode, Request, Server, ServerConfig, ServerHandle};
use slicer::storage::{
    generate_table, scan_naive_query_snapshot, CompressionPolicy, IngestBatch, StoredTable,
};
use slicer_core::HillClimb;
use std::time::Duration;

fn schema(name: &str, rows: u64) -> TableSchema {
    TableSchema::builder(name, rows)
        .attr("K", 4, AttrKind::Int)
        .attr("V", 8, AttrKind::Decimal)
        .attr("D", 4, AttrKind::Date)
        .attr("C", 12, AttrKind::Text)
        .build()
        .expect("valid schema")
}

fn fleet() -> TableFleet {
    let mut fleet = TableFleet::new(FleetConfig::default());
    for (name, rows, seed) in [("alpha", 300usize, 7u64), ("beta", 180, 11)] {
        let s = schema(name, rows as u64);
        let data = generate_table(&s, rows, seed);
        let table = StoredTable::load(
            &s,
            &data,
            &Partitioning::row(&s),
            CompressionPolicy::Default,
        );
        fleet.add_table(
            name,
            TableManager::new(
                table,
                Box::new(HillClimb::new()),
                HddCostModel::paper_testbed(),
                TableManagerConfig::default(),
            ),
        );
    }
    fleet
}

fn spawn(cfg: ServerConfig) -> ServerHandle {
    Server::spawn(fleet(), cfg).expect("bind on loopback")
}

/// Enough rows for sixty 2048-row pruning chunks, with the date column
/// `D` isolated in its own partition file — the generator's dates trend
/// upward with the row index, so a low date cutoff prunes all but the
/// first couple of chunks.
const PRUNE_ROWS: usize = 122_880;

fn pruning_fleet() -> TableFleet {
    let s = schema("events", PRUNE_ROWS as u64);
    let data = generate_table(&s, PRUNE_ROWS, 13);
    let isolating = Partitioning::new(
        &s,
        vec![
            s.attr_set(&["D"]).unwrap(),
            s.attr_set(&["K", "V", "C"]).unwrap(),
        ],
    )
    .unwrap();
    // Fixed-width storage (the paper's dictionary policy): byte skipping
    // needs individually addressable rows, so the non-driver group can
    // fetch only kept chunks. Variable-width codecs would force a full
    // read of every touched file and hide the pruning win.
    let table = StoredTable::load(&s, &data, &isolating, CompressionPolicy::Dictionary);
    let mut fleet = TableFleet::new(FleetConfig::default());
    fleet.add_table(
        "events",
        TableManager::new(
            table,
            Box::new(HillClimb::new()),
            HddCostModel::paper_testbed(),
            TableManagerConfig::default(),
        ),
    );
    fleet
}

/// A full projection of `events` filtered to the earliest dates. The
/// carried `kept_fraction` stays at the conservative 1.0 default — the
/// server must measure the real fraction itself.
fn early_dates_query() -> Query {
    Query::new("early", [0usize, 1, 2, 3].into_iter().collect::<AttrSet>()).with_predicate(
        Predicate::new(vec![PredClause::new(
            AttrId(2),
            PredOp::Le,
            Literal::date(25),
        )]),
    )
}

fn client(handle: &ServerHandle, cfg: ClientConfig) -> Client {
    Client::connect(handle.addr(), cfg)
}

fn query(name: &str, attrs: &[usize]) -> Query {
    Query::new(name, attrs.iter().copied().collect::<AttrSet>())
}

/// In-process oracle for `table` as the server currently stores it.
fn oracle(handle: &ServerHandle, table: &str, referenced: AttrSet) -> (u64, u64, u64) {
    handle.with_fleet(|fleet| {
        let target = fleet.scan_target(table).expect("table registered");
        let snapshot = target.table.snapshot();
        let r = scan_naive_query_snapshot(&snapshot, &Query::new("q", referenced), &target.disk);
        (r.checksum, r.bytes_read, snapshot.generation)
    })
}

#[test]
fn wire_scans_are_bit_identical_to_the_in_process_oracle() {
    let handle = spawn(ServerConfig::default());
    let mut c = client(&handle, ClientConfig::default());
    for (table, q) in [
        ("alpha", query("q-kv", &[0, 1])),
        ("alpha", query("q-all", &[0, 1, 2, 3])),
        ("beta", query("q-k", &[0])),
        ("beta", query("q-dc", &[2, 3])),
    ] {
        let (checksum, bytes_read, generation) = oracle(&handle, table, q.referenced);
        let reply = c.scan(table, &q).expect("scan over the wire");
        assert_eq!(reply.checksum, checksum, "{table}/{}", q.name);
        assert_eq!(reply.bytes_read, bytes_read, "{table}/{}", q.name);
        assert_eq!(reply.generation, generation);
    }
    assert_eq!(c.stats().retries, 0, "clean serving path never retries");
    let stats = handle.stats();
    assert_eq!(stats.scans_ok, 4);
    assert_eq!(stats.typed_errors, 0);
    // Serve metrics reached the fleet's window/bookkeeping.
    let fleet_queries = handle.with_fleet(|f| f.stats().queries);
    assert_eq!(fleet_queries, 4);
    handle.shutdown();
}

#[test]
fn ingest_round_trips_durably_and_scans_see_it() {
    let handle = spawn(ServerConfig::default());
    let mut c = client(&handle, ClientConfig::default());
    let s = schema("alpha", 300);
    let batch = IngestBatch {
        appends: Some(generate_table(&s, 23, 99)),
        deletes: vec![1, 250],
    };
    let reply = c.ingest("alpha", &batch).expect("ingest over the wire");
    assert_eq!(reply.rows_appended, 23);
    assert_eq!(reply.rows_deleted, 2);
    assert!(!reply.deduped);
    assert_eq!(reply.delta_rows, 23);

    // Offline oracle: same base data, same batch, in process.
    let data = generate_table(&s, 300, 7);
    let oracle_table = StoredTable::load(
        &s,
        &data,
        &Partitioning::row(&s),
        CompressionPolicy::Default,
    );
    oracle_table
        .ingest(&batch, &HddCostModel::paper_testbed().params())
        .expect("oracle ingest");
    let q = query("after-ingest", &[0, 1, 2, 3]);
    let want = scan_naive_query_snapshot(
        &oracle_table.snapshot(),
        &q,
        &HddCostModel::paper_testbed().params(),
    );
    let got = c.scan("alpha", &q).expect("scan after ingest");
    assert_eq!(got.checksum, want.checksum, "ingest visible to scans");
    handle.shutdown();
}

#[test]
fn typed_errors_are_typed_and_the_connection_stays_usable() {
    let handle = spawn(ServerConfig::default());
    let mut c = client(&handle, ClientConfig::default());

    // Unknown table — ModelError::UnknownTable as a typed wire error.
    let err = c.scan("nope", &query("q", &[0])).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::UnknownTable,
                ..
            }
        ),
        "got {err:?}"
    );

    // Invalid query: attribute 200 does not exist on a 4-attribute table.
    let err = c.scan("alpha", &query("wide", &[0, 200])).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::InvalidQuery,
                ..
            }
        ),
        "got {err:?}"
    );

    // Schema-invalid batch (3 columns against a 4-attribute schema).
    let wrong_schema = TableSchema::builder("w", 10)
        .attr("A", 4, AttrKind::Int)
        .attr("B", 4, AttrKind::Int)
        .attr("C", 4, AttrKind::Int)
        .build()
        .unwrap();
    let bad = IngestBatch::append(generate_table(&wrong_schema, 5, 1));
    let err = c.ingest("alpha", &bad).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::InvalidBatch,
                ..
            }
        ),
        "got {err:?}"
    );

    // Ingest routed to an unknown table.
    let s = schema("alpha", 300);
    let ok_batch = IngestBatch::append(generate_table(&s, 3, 2));
    let err = c.ingest("missing", &ok_batch).unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Server {
                code: ErrorCode::UnknownTable,
                ..
            }
        ),
        "got {err:?}"
    );

    // None of the above were transport failures: zero retries, zero
    // reconnects — the same connection keeps serving.
    assert_eq!(c.stats().retries, 0);
    assert_eq!(c.stats().reconnects, 0);
    let q = query("still-works", &[0, 1]);
    let (want, _, _) = oracle(&handle, "alpha", q.referenced);
    assert_eq!(c.scan("alpha", &q).unwrap().checksum, want);

    // A byte-garbage batch (undecodable, not merely schema-mismatched)
    // must also answer typed and keep the connection: drive the raw
    // protocol on one stream.
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&slicer::net::encode_request(
        5,
        &Request::Ingest {
            table: "alpha".into(),
            client_id: 999,
            sequence: 1,
            deadline_micros: 0,
            batch: vec![0xFF; 40],
        },
    ))
    .unwrap();
    let mut fb = slicer::net::FrameBuffer::new();
    let mut buf = [0u8; 4096];
    let env = loop {
        let n = raw.read(&mut buf).unwrap();
        assert!(n > 0, "server closed instead of answering typed");
        fb.extend(&buf[..n]);
        if let Some(env) = fb.next_frame().unwrap() {
            break env;
        }
    };
    assert_eq!(env.request_id, 5);
    match env.msg {
        slicer::net::Message::Response(slicer::net::Response::Error { code, .. }) => {
            assert_eq!(code, ErrorCode::InvalidBatch)
        }
        other => panic!("expected typed InvalidBatch, got {other:?}"),
    }
    // A 14-byte batch declaring 2^40 (or 2^61) decimal rows is refused
    // before the decoder allocates for them: typed, and the connection
    // stays up.
    for (id, rows) in [(7u64, 1u64 << 40), (8, 1u64 << 61)] {
        let mut crafted = vec![1];
        crafted.extend_from_slice(&rows.to_le_bytes());
        crafted.extend_from_slice(&1u32.to_le_bytes());
        crafted.push(1);
        raw.write_all(&slicer::net::encode_request(
            id,
            &Request::Ingest {
                table: "alpha".into(),
                client_id: 999,
                sequence: id,
                deadline_micros: 0,
                batch: crafted,
            },
        ))
        .unwrap();
        let env = loop {
            let n = raw.read(&mut buf).unwrap();
            assert!(n > 0, "server closed instead of answering typed");
            fb.extend(&buf[..n]);
            if let Some(env) = fb.next_frame().unwrap() {
                break env;
            }
        };
        assert_eq!(env.request_id, id);
        match env.msg {
            slicer::net::Message::Response(slicer::net::Response::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::InvalidBatch, "{rows} rows")
            }
            other => panic!("{rows} rows: expected typed InvalidBatch, got {other:?}"),
        }
    }
    // Same raw connection still serves.
    raw.write_all(&slicer::net::encode_request(6, &Request::Stats))
        .unwrap();
    let env = loop {
        let n = raw.read(&mut buf).unwrap();
        assert!(n > 0);
        fb.extend(&buf[..n]);
        if let Some(env) = fb.next_frame().unwrap() {
            break env;
        }
    };
    assert_eq!(env.request_id, 6);
    assert!(matches!(
        env.msg,
        slicer::net::Message::Response(slicer::net::Response::StatsOk(_))
    ));
    handle.shutdown();
}

#[test]
fn predicated_wire_scans_prune_bytes_and_match_the_query_oracle() {
    let handle = Server::spawn(pruning_fleet(), ServerConfig::default()).expect("bind");
    let q = early_dates_query();
    // Predicate-filtered naive oracle (reads unpruned bytes) on the
    // server's own snapshot: result bytes must be bit-identical.
    let (want_checksum, unpruned_bytes) = handle.with_fleet(|fleet| {
        let target = fleet.scan_target("events").expect("registered");
        let r = scan_naive_query_snapshot(&target.table.snapshot(), &q, &target.disk);
        (r.checksum, r.bytes_read)
    });
    let mut c = client(&handle, ClientConfig::default());
    let reply = c.scan("events", &q).expect("predicated scan over the wire");
    assert_eq!(
        reply.checksum, want_checksum,
        "wire result diverges from oracle"
    );
    // The wire path actually pruned: at least 5x fewer bytes than the
    // unpruned predicate oracle (7.9x here: 2 of 60 chunks kept), and a
    // server-stamped fraction well under 1.
    assert!(
        reply.bytes_read * 5 <= unpruned_bytes,
        "wire scan read {} B, oracle {} B — under a 5x cut, predicate dropped on the wire?",
        reply.bytes_read,
        unpruned_bytes
    );
    assert!(
        reply.kept_fraction < 0.5,
        "kept_fraction {} — server did not re-stamp from its pruning metadata",
        reply.kept_fraction
    );
    assert!(reply.kept_fraction > 0.0);
    // The predicated scan reached the fleet's serve window like any
    // in-process query.
    assert_eq!(handle.with_fleet(|f| f.stats().queries), 1);
    handle.shutdown();
}

#[test]
fn admission_prices_selective_queries_on_their_pruned_cost() {
    // Compute the full-scan and pruned modeled costs up front, then pick
    // an admission bound strictly between them: a skip-blind controller
    // would shed BOTH queries; the skip-aware one must admit the
    // selective query and shed only the bare projection.
    let fleet = pruning_fleet();
    let bare = Query::new("bare", [0usize, 1, 2, 3].into_iter().collect::<AttrSet>());
    let pred = early_dates_query();
    let model = HddCostModel::paper_testbed();
    let (full_cost, pruned_cost) = {
        let target = fleet.scan_target("events").expect("registered");
        let snapshot = target.table.snapshot();
        let full = model.query_cost(&target.table.schema, &snapshot.layout, &bare);
        let kept = snapshot.prune_fraction(pred.predicate.as_ref().unwrap());
        let stamped = bare
            .clone()
            .with_predicate(pred.predicate.clone().unwrap().with_kept_fraction(kept));
        let pruned = model.query_cost(&target.table.schema, &snapshot.layout, &stamped);
        (full, pruned)
    };
    assert!(
        pruned_cost < full_cost / 2.0,
        "pruning must change the modeled cost materially (full {full_cost}, pruned {pruned_cost})"
    );
    let handle = Server::spawn(
        fleet,
        ServerConfig {
            admission_max_io_seconds: (pruned_cost + full_cost) / 2.0,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut c = client(
        &handle,
        ClientConfig {
            max_attempts: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
            ..ClientConfig::default()
        },
    );
    // The skip-blind bound sheds the bare projection…
    let err = c.scan("events", &bare).unwrap_err();
    assert!(
        matches!(err, ClientError::RetriesExhausted { ref last_error, .. } if last_error.contains("shed")),
        "bare projection should be shed: {err:?}"
    );
    // …but the selective query, priced on its pruned cost, is admitted.
    let reply = c
        .scan("events", &pred)
        .expect("selective query must be admitted on its pruned cost");
    assert!(reply.kept_fraction < 0.5);
    let stats = handle.stats();
    assert!(stats.shed_overload >= 1);
    assert_eq!(stats.scans_ok, 1);
    handle.shutdown();
}

#[test]
fn non_finite_and_negative_weights_are_typed_and_keep_the_connection() {
    // Raw-socket regression for the frame doc's "weight validated
    // server-side" claim: NaN, infinite, and negative weights must come
    // back as typed InvalidQuery frames — not a panic, not a free-of-cost
    // admission — and the same connection must keep serving.
    use std::io::{Read, Write};
    let handle = spawn(ServerConfig::default());
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut fb = slicer::net::FrameBuffer::new();
    let mut buf = [0u8; 4096];
    let mut roundtrip = |raw: &mut std::net::TcpStream,
                         fb: &mut slicer::net::FrameBuffer,
                         id: u64,
                         req: &Request|
     -> slicer::net::Envelope {
        raw.write_all(&slicer::net::encode_request(id, req))
            .unwrap();
        loop {
            let n = raw.read(&mut buf).unwrap();
            assert!(n > 0, "server closed instead of answering typed");
            fb.extend(&buf[..n]);
            if let Some(env) = fb.next_frame().unwrap() {
                break env;
            }
        }
    };
    for (id, weight) in [
        (1u64, f64::NAN),
        (2, f64::INFINITY),
        (3, f64::NEG_INFINITY),
        (4, -1.0),
        (5, 0.0),
    ] {
        let env = roundtrip(
            &mut raw,
            &mut fb,
            id,
            &Request::Scan {
                table: "alpha".into(),
                query_name: "bad-weight".into(),
                weight,
                attrs: vec![0, 1],
                predicate: None,
                deadline_micros: 0,
            },
        );
        assert_eq!(env.request_id, id);
        match env.msg {
            slicer::net::Message::Response(slicer::net::Response::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::InvalidQuery, "weight {weight}")
            }
            other => panic!("weight {weight}: expected typed InvalidQuery, got {other:?}"),
        }
    }
    // Same connection, now a well-formed scan: still served.
    let env = roundtrip(
        &mut raw,
        &mut fb,
        9,
        &Request::Scan {
            table: "alpha".into(),
            query_name: "fine".into(),
            weight: 1.0,
            attrs: vec![0, 1],
            predicate: None,
            deadline_micros: 0,
        },
    );
    assert_eq!(env.request_id, 9);
    assert!(matches!(
        env.msg,
        slicer::net::Message::Response(slicer::net::Response::ScanOk { .. })
    ));
    assert_eq!(handle.stats().scans_ok, 1);
    handle.shutdown();
}

#[test]
fn deadline_aware_grants_refuse_unmeetable_work() {
    let handle = spawn(ServerConfig::default());
    // 2 ms budget: the paper-testbed disk model prices any real scan at
    // several milliseconds (one seek alone is 4.84 ms), so the grant must
    // refuse — no cycles on an answer the client would abandon.
    let mut c = client(
        &handle,
        ClientConfig {
            deadline: Some(Duration::from_millis(2)),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            ..ClientConfig::default()
        },
    );
    let err = c.scan("alpha", &query("tight", &[0, 1, 2, 3])).unwrap_err();
    match err {
        // The usual outcome: the server's grant said no, typed.
        ClientError::Server {
            code: ErrorCode::DeadlineExceeded,
            ..
        } => {
            assert!(handle.stats().shed_deadline >= 1);
        }
        // On a slow machine the budget can die in transit — also a
        // correct deadline outcome, just client-side.
        ClientError::DeadlineExceeded { .. } => {}
        other => panic!("expected a deadline refusal, got {other:?}"),
    }
    // A client with a generous deadline is served normally (deadline is
    // propagated, not just dropped).
    let mut ok = client(
        &handle,
        ClientConfig {
            deadline: Some(Duration::from_secs(30)),
            ..ClientConfig::default()
        },
    );
    let q = query("roomy", &[0, 1]);
    let (want, _, _) = oracle(&handle, "alpha", q.referenced);
    assert_eq!(ok.scan("alpha", &q).unwrap().checksum, want);
    handle.shutdown();
}

#[test]
fn admission_control_sheds_with_overloaded_and_retry_after() {
    // A zero admission bound sheds every scan: the client must see typed
    // Overloaded frames (not hangs, not closes), honor retry_after, and
    // eventually give up cleanly.
    let handle = spawn(ServerConfig {
        admission_max_io_seconds: 0.0,
        ..ServerConfig::default()
    });
    let mut c = client(
        &handle,
        ClientConfig {
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            ..ClientConfig::default()
        },
    );
    let err = c.scan("alpha", &query("shed-me", &[0])).unwrap_err();
    match err {
        ClientError::RetriesExhausted {
            attempts,
            last_error,
        } => {
            assert_eq!(attempts, 3);
            assert!(last_error.contains("shed"), "{last_error}");
        }
        other => panic!("expected exhaustion through sheds, got {other:?}"),
    }
    assert_eq!(c.stats().overloaded, 3, "every attempt was shed, typed");
    assert_eq!(c.stats().reconnects, 0, "sheds keep the connection");
    let stats = handle.stats();
    assert_eq!(stats.shed_overload, 3);
    assert_eq!(stats.scans_ok, 0);
    // Ingest does not go through scan admission: the write path still
    // accepts work while the read path sheds.
    let s = schema("alpha", 300);
    let batch = IngestBatch::append(generate_table(&s, 4, 3));
    assert!(c.ingest("alpha", &batch).is_ok());
    handle.shutdown();
}

#[test]
fn slow_query_log_thresholds_evicts_and_travels_the_wire() {
    let handle = spawn(ServerConfig {
        // Threshold zero: every scan is "slow". Capacity two: the third
        // scan evicts the first.
        slow_query_threshold: Duration::ZERO,
        slow_log_capacity: 2,
        ..ServerConfig::default()
    });
    let mut c = client(&handle, ClientConfig::default());
    for name in ["s0", "s1"] {
        c.scan("alpha", &query(name, &[0, 1])).unwrap();
    }
    // A predicated scan: its record must carry the server-stamped
    // fraction so a post-mortem can tell "selective but mispriced" from
    // "genuinely big".
    let pred = query("s2-pred", &[0, 1]).with_predicate(
        Predicate::new(vec![PredClause::new(
            AttrId(0),
            PredOp::Le,
            Literal::int(150),
        )])
        .with_kept_fraction(0.25),
    );
    let reply = c.scan("alpha", &pred).unwrap();
    let stats = c.server_stats().expect("stats over the wire");
    assert_eq!(stats.slow_queries_recorded, 3);
    assert_eq!(stats.slow_queries_evicted, 1);
    let names: Vec<&str> = stats
        .slow_queries
        .iter()
        .map(|r| r.query.as_str())
        .collect();
    assert_eq!(names, vec!["s1", "s2-pred"], "ring keeps the newest");
    for r in &stats.slow_queries {
        assert_eq!(r.table, "alpha");
        assert!(r.bytes_read > 0);
        assert!(r.deadline_slack_micros.is_none());
        match r.query.as_str() {
            // The server-stamped fraction — NOT the client's 0.25
            // estimate — travels in the record.
            "s2-pred" => assert_eq!(r.kept_fraction, Some(reply.kept_fraction)),
            _ => assert_eq!(r.kept_fraction, None),
        }
    }
    handle.shutdown();
}

#[test]
fn scans_keep_flowing_while_advise_rounds_hold_the_fleet_lock() {
    let handle = spawn(ServerConfig::default());
    let q = query("under-pressure", &[0, 1, 2]);
    let (want, _, _) = oracle(&handle, "alpha", q.referenced);
    let addr = handle.addr();
    std::thread::scope(|s| {
        let scanner = s.spawn(move || {
            let mut c = Client::connect(addr, ClientConfig::default());
            for _ in 0..40 {
                let reply = c.scan("alpha", &q).expect("scan during advise pressure");
                assert_eq!(reply.checksum, want, "scan correct under advise pressure");
            }
            c.stats()
        });
        // Hammer the fleet lock from the control plane the whole time.
        for _ in 0..10 {
            handle.with_fleet(|fleet| {
                fleet.advise_round();
            });
        }
        let stats = scanner.join().expect("scanner thread");
        assert_eq!(stats.retries, 0, "scans never waited on the fleet lock");
    });
    let fleet = handle.shutdown();
    // Every served scan was folded into the fleet's bookkeeping.
    assert_eq!(fleet.stats().queries, 40);
}

#[test]
fn shutdown_returns_the_fleet_ready_to_be_served_again() {
    let handle = spawn(ServerConfig::default());
    let mut c = client(&handle, ClientConfig::default());
    let q = query("before", &[0, 1]);
    let first = c.scan("alpha", &q).unwrap();
    let fleet = handle.shutdown();
    // Re-serve the SAME fleet on a fresh port; data and bookkeeping are
    // intact.
    let handle2 = Server::spawn(fleet, ServerConfig::default()).unwrap();
    let mut c2 = client(&handle2, ClientConfig::default());
    let again = c2.scan("alpha", &q).unwrap();
    assert_eq!(again.checksum, first.checksum);
    let fleet = handle2.shutdown();
    assert_eq!(fleet.stats().queries, 2);
}
