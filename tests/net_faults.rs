//! Injected-fault guarantees, end to end over real sockets.
//!
//! A [`FaultyStream`] between the client and the TCP connection cuts,
//! bit-flips, or delays traffic at exact byte offsets — placed at every
//! interesting frame boundary, in both directions. The property under
//! test, for every fault point:
//!
//! > the client observes either a correct checksummed result
//! > (bit-identical to the in-process oracle), a typed error, or a
//! > converging retry — never a hang, never a panic, never silently
//! > wrong bytes.
//!
//! Ingest additionally guarantees **exactly-once**: whatever the fault
//! does to requests or replies, a retried batch lands in the delta
//! exactly once (the client-assigned idempotency sequence dedupes
//! replays server-side). And a server killed mid-traffic hands its fleet
//! back intact: a restarted server over the same fleet serves the same
//! bytes while the client rides through on reconnect+retry.

use proptest::prelude::*;
use slicer::client::{Client, ClientConfig};
use slicer::cost::HddCostModel;
use slicer::lifecycle::{FleetConfig, TableFleet, TableManager, TableManagerConfig};
use slicer::model::{
    AttrId, AttrKind, AttrSet, Literal, Partitioning, PredClause, PredOp, Predicate, Query,
    TableSchema,
};
use slicer::net::{
    encode_request, Fault, FaultKind, FaultPlan, FaultyStream, Request, Server, ServerConfig,
    ServerHandle, WireStream,
};
use slicer::storage::{
    generate_table, scan_naive_query_snapshot, CompressionPolicy, IngestBatch, StoredTable,
};
use slicer_core::HillClimb;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 120;

fn schema() -> TableSchema {
    TableSchema::builder("alpha", ROWS as u64)
        .attr("K", 4, AttrKind::Int)
        .attr("V", 8, AttrKind::Decimal)
        .attr("C", 10, AttrKind::Text)
        .build()
        .expect("valid schema")
}

fn fleet() -> TableFleet {
    let s = schema();
    let data = generate_table(&s, ROWS, 7);
    let table = StoredTable::load(
        &s,
        &data,
        &Partitioning::row(&s),
        CompressionPolicy::Default,
    );
    let mut fleet = TableFleet::new(FleetConfig::default());
    fleet.add_table(
        "alpha",
        TableManager::new(
            table,
            Box::new(HillClimb::new()),
            HddCostModel::paper_testbed(),
            TableManagerConfig::default(),
        ),
    );
    fleet
}

fn spawn() -> ServerHandle {
    Server::spawn(fleet(), ServerConfig::default()).expect("bind on loopback")
}

fn scan_query() -> Query {
    Query::new("q", [0usize, 1, 2].into_iter().collect::<AttrSet>())
}

/// The same projection filtered by a conjunction. The carried
/// `kept_fraction` is a deliberately wrong client estimate — the server
/// must discard it and re-stamp from its own pruning metadata.
fn pred_query() -> Query {
    Query::new("qp", [0usize, 1, 2].into_iter().collect::<AttrSet>()).with_predicate(
        Predicate::new(vec![
            PredClause::new(AttrId(0), PredOp::Le, Literal::int(60)),
            PredClause::new(AttrId(1), PredOp::Ge, Literal::decimal(0)),
        ])
        .with_kept_fraction(0.000001),
    )
}

/// Predicate-filtered naive oracle over the server's live snapshot.
fn oracle_query_checksum(handle: &ServerHandle, q: &Query) -> u64 {
    handle.with_fleet(|fleet| {
        let target = fleet.scan_target("alpha").expect("registered");
        scan_naive_query_snapshot(&target.table.snapshot(), q, &target.disk).checksum
    })
}

fn oracle_checksum(handle: &ServerHandle) -> u64 {
    handle.with_fleet(|fleet| {
        let target = fleet.scan_target("alpha").expect("registered");
        scan_naive_query_snapshot(&target.table.snapshot(), &scan_query(), &target.disk).checksum
    })
}

fn retry_cfg(client_id: u64) -> ClientConfig {
    ClientConfig {
        client_id,
        max_attempts: 8,
        request_timeout: Duration::from_secs(2),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        ..ClientConfig::default()
    }
}

/// A client whose FIRST connection runs under `plan`; reconnects are
/// clean. This models "the fault struck once" — the retry loop must
/// converge on the clean path.
fn faulty_once_client(addr: SocketAddr, cfg: ClientConfig, plan: FaultPlan) -> Client {
    let dialed = Arc::new(AtomicUsize::new(0));
    Client::with_connector(
        cfg,
        Box::new(move || {
            let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
            stream.set_nodelay(true).ok();
            if dialed.fetch_add(1, Ordering::SeqCst) == 0 {
                Ok(Box::new(FaultyStream::new(stream, plan.clone())) as Box<dyn WireStream>)
            } else {
                Ok(Box::new(stream) as Box<dyn WireStream>)
            }
        }),
    )
}

/// Every fault point for a request/response exchange whose request frame
/// is `req_len` bytes and whose expected reply is `resp_len` bytes:
/// cut/flip/delay, both directions, at the frame edges and mid-frame.
fn fault_points(req_len: u64, resp_len: u64) -> Vec<Fault> {
    let mut points = Vec::new();
    for at in [0, 1, 4, 8, req_len / 2, req_len - 1] {
        points.push(Fault::new(FaultKind::CutWrite, at));
        points.push(Fault::new(FaultKind::FlipWrite, at));
    }
    for at in [0, 1, 4, 8, resp_len / 2, resp_len - 1] {
        points.push(Fault::new(FaultKind::CutRead, at));
        points.push(Fault::new(FaultKind::FlipRead, at));
    }
    points.push(Fault::new(FaultKind::DelayWrite, 0));
    points.push(Fault::new(FaultKind::DelayRead, 0));
    points
}

#[test]
fn scans_converge_through_every_fault_point() {
    let handle = spawn();
    let want = oracle_checksum(&handle);
    let q = scan_query();
    let req_len = encode_request(
        1,
        &Request::Scan {
            table: "alpha".into(),
            query_name: q.name.clone(),
            weight: q.weight,
            attrs: q.referenced.iter().map(|a| a.index() as u16).collect(),
            predicate: None,
            deadline_micros: 0,
        },
    )
    .len() as u64;
    // A ScanOk frame: 8 header + 8 id + 1 kind + 48 payload.
    let resp_len = 65u64;
    for (i, fault) in fault_points(req_len, resp_len).into_iter().enumerate() {
        let plan = FaultPlan::single(fault.clone());
        let mut c = faulty_once_client(handle.addr(), retry_cfg(100 + i as u64), plan.clone());
        let reply = c
            .scan("alpha", &q)
            .unwrap_or_else(|e| panic!("fault {fault:?} did not converge: {e}"));
        assert_eq!(
            reply.checksum, want,
            "fault {fault:?}: retry converged on wrong bytes"
        );
        assert_eq!(plan.fired(), 1, "fault {fault:?} never struck");
    }
    // The server survived every abuse and still serves cleanly.
    let mut clean = Client::connect(handle.addr(), retry_cfg(99));
    assert_eq!(clean.scan("alpha", &q).unwrap().checksum, want);
    assert_eq!(clean.stats().retries, 0);
    handle.shutdown();
}

#[test]
fn predicated_scans_converge_through_every_fault_point() {
    let handle = spawn();
    let q = pred_query();
    let want = oracle_query_checksum(&handle, &q);
    // The pure-projection oracle must differ — otherwise the predicate
    // isn't filtering anything and the sweep proves nothing.
    assert_ne!(
        want,
        oracle_checksum(&handle),
        "predicate must actually filter rows for this sweep to be meaningful"
    );
    let req_len = encode_request(
        1,
        &Request::Scan {
            table: "alpha".into(),
            query_name: q.name.clone(),
            weight: q.weight,
            attrs: q.referenced.iter().map(|a| a.index() as u16).collect(),
            predicate: q.predicate.clone(),
            deadline_micros: 0,
        },
    )
    .len() as u64;
    let resp_len = 65u64;
    for (i, fault) in fault_points(req_len, resp_len).into_iter().enumerate() {
        let plan = FaultPlan::single(fault.clone());
        let mut c = faulty_once_client(handle.addr(), retry_cfg(700 + i as u64), plan.clone());
        let reply = c
            .scan("alpha", &q)
            .unwrap_or_else(|e| panic!("fault {fault:?} did not converge: {e}"));
        assert_eq!(
            reply.checksum, want,
            "fault {fault:?}: predicated retry converged on wrong bytes"
        );
        // The client shipped a bogus 1e-6 estimate; the reply must carry
        // the server's own measurement instead.
        assert!(
            reply.kept_fraction > 0.000001 && reply.kept_fraction <= 1.0,
            "fault {fault:?}: kept_fraction {} was not re-stamped server-side",
            reply.kept_fraction
        );
        assert_eq!(plan.fired(), 1, "fault {fault:?} never struck");
    }
    let mut clean = Client::connect(handle.addr(), retry_cfg(98));
    assert_eq!(clean.scan("alpha", &q).unwrap().checksum, want);
    handle.shutdown();
}

#[test]
fn restarted_server_re_serves_identical_pruned_bytes() {
    let handle = spawn();
    let q = pred_query();
    let want = oracle_query_checksum(&handle, &q);
    let mut c = Client::connect(handle.addr(), retry_cfg(21));
    let before = c.scan("alpha", &q).expect("first predicated scan");
    assert_eq!(before.checksum, want);

    // Crash-and-restart over the SAME fleet at a new address: the pruned
    // scan must come back bit- and byte-identical.
    let fleet = handle.shutdown();
    let handle2 = Server::spawn(fleet, ServerConfig::default()).expect("respawn");
    let mut c2 = Client::connect(handle2.addr(), retry_cfg(22));
    let after = c2.scan("alpha", &q).expect("predicated scan after restart");
    assert_eq!(
        after.checksum, before.checksum,
        "restart changed result bytes"
    );
    assert_eq!(
        after.bytes_read, before.bytes_read,
        "restart changed the pruned read footprint"
    );
    assert_eq!(
        after.kept_fraction, before.kept_fraction,
        "restart changed the stamped selectivity"
    );
    handle2.shutdown();
}

#[test]
fn ingest_is_exactly_once_through_every_fault_point() {
    let handle = spawn();
    let s = schema();
    let batch_rows = 5u64;
    // An IngestOk frame: 8 header + 8 id + 1 kind + 49 payload.
    let resp_len = 66u64;
    // Generated batches vary in encoded length (text columns), so the
    // fault offsets must be derived per round from the round's actual
    // request frame — fault_points() always yields the same point count,
    // only the offsets move.
    let n_points = fault_points(resp_len, resp_len).len();
    let mut expected_delta_rows = 0usize;
    for i in 0..n_points {
        let batch = IngestBatch::append(generate_table(&s, batch_rows as usize, 2000 + i as u64));
        let req_len = encode_request(
            1,
            &Request::Ingest {
                table: "alpha".into(),
                client_id: 1,
                sequence: 1,
                deadline_micros: 0,
                batch: slicer::storage::encode_ingest_batch(&batch),
            },
        )
        .len() as u64;
        let fault = fault_points(req_len, resp_len)
            .into_iter()
            .nth(i)
            .expect("point count is length-independent");
        let plan = FaultPlan::single(fault.clone());
        let mut c = faulty_once_client(handle.addr(), retry_cfg(500 + i as u64), plan.clone());
        let reply = c
            .ingest("alpha", &batch)
            .unwrap_or_else(|e| panic!("fault {fault:?}: ingest did not converge: {e}"));
        assert_eq!(plan.fired(), 1, "fault {fault:?} never struck");
        expected_delta_rows += batch_rows as usize;
        let delta_rows = handle.with_fleet(|fleet| {
            let target = fleet.scan_target("alpha").expect("registered");
            target.table.snapshot().delta.rows()
        });
        assert_eq!(
            delta_rows,
            expected_delta_rows,
            "fault {fault:?}: batch applied not-exactly-once \
             (deduped={}, retries={})",
            reply.deduped,
            c.stats().retries,
        );
        // When the reply (not the request) was lost, the retry must have
        // been answered from the idempotency ledger.
        if matches!(fault.kind, FaultKind::CutRead | FaultKind::FlipRead) && c.stats().retries > 0 {
            assert!(
                reply.deduped,
                "fault {fault:?}: replayed sequence was re-applied instead of deduped"
            );
        }
    }
    handle.shutdown();
}

#[test]
fn server_killed_mid_traffic_restarts_over_the_same_fleet() {
    let handle = spawn();
    let want = oracle_checksum(&handle);
    let q = scan_query();
    // The client dials whatever port this slot currently holds — after
    // the restart it follows the server to its new address.
    let port = Arc::new(AtomicU64::new(u64::from(handle.addr().port())));
    let ip = handle.addr().ip();
    let dial_port = Arc::clone(&port);
    let mut c = Client::with_connector(
        ClientConfig {
            client_id: 9,
            max_attempts: 40,
            request_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(50),
            ..ClientConfig::default()
        },
        Box::new(move || {
            let addr = SocketAddr::new(ip, dial_port.load(Ordering::SeqCst) as u16);
            let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(250))?;
            stream.set_nodelay(true).ok();
            Ok(Box::new(stream) as Box<dyn WireStream>)
        }),
    );

    std::thread::scope(|s| {
        let scans = s.spawn(move || {
            let mut checks = Vec::new();
            for _ in 0..30 {
                // Every scan must converge — before, across, and after
                // the kill — and carry oracle-identical bytes. Paced so
                // the traffic spans the kill window instead of finishing
                // before it.
                checks.push(
                    c.scan("alpha", &q)
                        .expect("scan rode through restart")
                        .checksum,
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            (checks, c.stats())
        });
        // Kill the server mid-traffic, then restart it over the SAME
        // fleet at a new address.
        std::thread::sleep(Duration::from_millis(40));
        let fleet = handle.shutdown();
        std::thread::sleep(Duration::from_millis(40));
        let handle2 = Server::spawn(fleet, ServerConfig::default()).expect("respawn");
        port.store(u64::from(handle2.addr().port()), Ordering::SeqCst);
        let (checks, stats) = scans.join().expect("scanner thread");
        assert_eq!(checks.len(), 30);
        assert!(
            checks.iter().all(|&c| c == want),
            "restarted server must serve identical bytes"
        );
        assert!(
            stats.reconnects >= 1,
            "the kill must have forced at least one reconnect: {stats:?}"
        );
        let fleet = handle2.shutdown();
        // Every successful scan was booked, across both server
        // lifetimes. A scan recorded server-side whose reply was lost in
        // the kill is legitimately retried (scans are read-only), so the
        // count may exceed 30 — but never undercount.
        assert!(
            fleet.stats().queries >= 30,
            "scans went unbooked: {}",
            fleet.stats().queries
        );
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random fault kind × random offset: one faulty connection must
    /// never yield wrong bytes — only convergence or a clean typed
    /// failure after bounded attempts.
    #[test]
    fn random_faults_never_produce_wrong_bytes(seed in any::<u64>(), kind_ix in 0u8..6, at in 0u64..64) {
        let handle = spawn();
        let want = oracle_checksum(&handle);
        let kind = match kind_ix {
            0 => FaultKind::CutWrite,
            1 => FaultKind::CutRead,
            2 => FaultKind::FlipWrite,
            3 => FaultKind::FlipRead,
            4 => FaultKind::DelayWrite,
            _ => FaultKind::DelayRead,
        };
        let plan = FaultPlan::single(Fault::new(kind, at));
        let mut c = faulty_once_client(handle.addr(), retry_cfg(seed | 1), plan);
        match c.scan("alpha", &scan_query()) {
            Ok(reply) => prop_assert_eq!(reply.checksum, want),
            // Bounded, typed failure is allowed; hangs/panics are not.
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
            }
        }
        handle.shutdown();
    }
}
