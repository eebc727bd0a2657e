//! Replication and failover guarantees, end to end over real sockets.
//!
//! A primary streams its per-table replication log (ingest batches,
//! layout publishes, and the ingest-dedup ledger) to followers that
//! replay every record through the storage engine's normal paths. The
//! properties under test:
//!
//! * **Parity** — a synced follower's scans (pure projections and
//!   predicated alike) are bit-identical to the single-node
//!   `scan_naive_query_snapshot` oracle, layout flips included.
//! * **Kill anywhere** — with the shipping stream cut or bit-flipped at
//!   every byte offset ([`FaultyStream`]), the follower's pump
//!   reconnects, resumes from its own log cursor, and converges; every
//!   state a scan can observe mid-replication is a *prefix* state
//!   (exactly the first k records applied), never a torn one.
//! * **Exactly-once across failover** — the dedup ledger travels with
//!   the stream, so after the primary dies (including death at every
//!   storage [`CrashPoint`]) a promoted follower answers a retried
//!   ingest sequence from the ledger instead of re-applying it.
//! * **Client failover** — a `connect_list` client retargets on
//!   `NotPrimary` (following the leader hint) and rides a dead primary
//!   over to a follower on the reconnect path.

use slicer::client::{Client, ClientConfig, ClientError};
use slicer::cost::{DiskParams, HddCostModel};
use slicer::lifecycle::{FleetConfig, TableFleet, TableManager, TableManagerConfig};
use slicer::model::{
    AttrId, AttrKind, AttrSet, Literal, Partitioning, PredClause, PredOp, Predicate, Query,
    TableSchema,
};
use slicer::net::{
    ErrorCode, Fault, FaultKind, FaultPlan, FaultyStream, Server, ServerConfig, ServerHandle,
    ServerRole, WireStream,
};
use slicer::storage::{
    generate_table, scan_naive_query_snapshot, CompressionPolicy, CrashDir, CrashPoint, Dir,
    IngestBatch, StoredTable,
};
use slicer_core::HillClimb;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ROWS: usize = 120;

fn schema() -> TableSchema {
    TableSchema::builder("alpha", ROWS as u64)
        .attr("K", 4, AttrKind::Int)
        .attr("V", 8, AttrKind::Decimal)
        .attr("C", 10, AttrKind::Text)
        .build()
        .expect("valid schema")
}

fn seed_table() -> StoredTable {
    let s = schema();
    let data = generate_table(&s, ROWS, 7);
    StoredTable::load(
        &s,
        &data,
        &Partitioning::row(&s),
        CompressionPolicy::Default,
    )
}

fn fleet_over(table: StoredTable) -> TableFleet {
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

/// A fleet over the deterministic seed table — primary and follower both
/// start from this identical state, the epoch the replication log covers.
fn fleet() -> TableFleet {
    fleet_over(seed_table())
}

/// A column-grouped target layout for replicated repartitions.
fn grouped_layout() -> Partitioning {
    let s = schema();
    Partitioning::new(
        &s,
        vec![
            [0usize, 2].into_iter().collect::<AttrSet>(),
            [1usize].into_iter().collect::<AttrSet>(),
        ],
    )
    .expect("valid layout")
}

fn scan_query() -> Query {
    Query::new("q", [0usize, 1, 2].into_iter().collect::<AttrSet>())
}

fn pred_query() -> Query {
    Query::new("qp", [0usize, 1, 2].into_iter().collect::<AttrSet>()).with_predicate(
        Predicate::new(vec![
            PredClause::new(AttrId(0), PredOp::Le, Literal::int(60)),
            PredClause::new(AttrId(1), PredOp::Ge, Literal::decimal(0)),
        ])
        .with_kept_fraction(0.000001),
    )
}

fn batch(rows: usize, seed: u64) -> IngestBatch {
    IngestBatch::append(generate_table(&schema(), rows, seed))
}

/// Pure-projection naive checksum of a server's live snapshot.
fn live_checksum(handle: &ServerHandle) -> u64 {
    handle.with_fleet(|fleet| {
        let target = fleet.scan_target("alpha").expect("registered");
        scan_naive_query_snapshot(&target.table.snapshot(), &scan_query(), &target.disk).checksum
    })
}

fn live_pred_checksum(handle: &ServerHandle, q: &Query) -> u64 {
    handle.with_fleet(|fleet| {
        let target = fleet.scan_target("alpha").expect("registered");
        scan_naive_query_snapshot(&target.table.snapshot(), q, &target.disk).checksum
    })
}

fn live_generation(handle: &ServerHandle) -> u64 {
    handle.with_fleet(|fleet| {
        fleet
            .scan_target("alpha")
            .expect("registered")
            .table
            .snapshot()
            .generation
    })
}

fn delta_rows(handle: &ServerHandle) -> usize {
    handle.with_fleet(|fleet| {
        fleet
            .scan_target("alpha")
            .expect("registered")
            .table
            .snapshot()
            .delta
            .rows()
    })
}

fn log_len(handle: &ServerHandle) -> u64 {
    handle
        .repl_stats()
        .tables
        .iter()
        .find(|t| t.table == "alpha")
        .map_or(0, |t| t.log_len)
}

/// Block until the follower's log matches the primary's (it has applied
/// every shipped record), or panic after `timeout`.
fn wait_synced(primary: &ServerHandle, follower: &ServerHandle, timeout: Duration) {
    let until = Instant::now() + timeout;
    loop {
        let (p, f) = (log_len(primary), log_len(follower));
        if f >= p {
            return;
        }
        assert!(
            Instant::now() < until,
            "follower never caught up: primary log {p}, follower log {f}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Fast-cadence server config so tests converge quickly.
fn quick_cfg(role: ServerRole, follower_id: u64) -> ServerConfig {
    ServerConfig {
        role,
        follower_id,
        heartbeat_interval: Duration::from_millis(25),
        poll_interval: Duration::from_millis(5),
        frame_stall_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

fn spawn_primary() -> ServerHandle {
    Server::spawn(fleet(), quick_cfg(ServerRole::Primary, 0)).expect("bind primary")
}

fn dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(1))?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

/// A follower of `leader` whose pump dials over clean TCP.
fn spawn_clean_follower(leader: SocketAddr, id: u64) -> ServerHandle {
    Server::spawn_follower(
        fleet(),
        quick_cfg(
            ServerRole::Follower {
                leader_hint: leader.to_string(),
            },
            id,
        ),
        Box::new(move || Ok(Box::new(dial(leader)?) as Box<dyn WireStream>)),
    )
    .expect("bind follower")
}

fn retry_cfg(client_id: u64) -> ClientConfig {
    ClientConfig {
        client_id,
        max_attempts: 10,
        request_timeout: Duration::from_secs(2),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        ..ClientConfig::default()
    }
}

/// A synced follower serves scans bit-identical to the primary's naive
/// oracle — through wire-driven ingest (dedup ledger interleaved) and a
/// replicated layout flip — and the primary's ack bookkeeping converges
/// on the follower's applied position.
#[test]
fn follower_replays_to_oracle_parity() {
    let primary = spawn_primary();
    let follower = spawn_clean_follower(primary.addr(), 2);

    // Three wire ingests (each also ships a ledger record)...
    let mut c = Client::connect(primary.addr(), retry_cfg(11));
    for i in 0..3 {
        c.ingest("alpha", &batch(4, 900 + i)).expect("wire ingest");
    }
    // ...and a layout flip, which must replicate as a publish record.
    primary.with_fleet(|fleet| {
        let target = fleet.scan_target("alpha").expect("registered");
        target.table.repartition(&grouped_layout(), &target.disk);
    });
    // 3 ingest + 3 ledger + 1 publish.
    assert_eq!(log_len(&primary), 7, "primary log misses records");
    wait_synced(&primary, &follower, Duration::from_secs(10));

    let q = scan_query();
    let qp = pred_query();
    let want = live_checksum(&primary);
    let want_pred = live_pred_checksum(&primary, &qp);
    assert_ne!(want, want_pred, "predicate must filter rows");
    assert_eq!(live_checksum(&follower), want, "follower state diverged");
    assert_eq!(live_generation(&primary), live_generation(&follower));

    // Served over the wire, both shapes, from the follower.
    let mut cf = Client::connect(follower.addr(), retry_cfg(12));
    assert_eq!(cf.scan("alpha", &q).expect("follower scan").checksum, want);
    assert_eq!(
        cf.scan("alpha", &qp).expect("follower pred scan").checksum,
        want_pred
    );

    // The primary saw the follower's acks land at its full log.
    let stats = primary.repl_stats();
    let alpha = stats
        .tables
        .iter()
        .find(|t| t.table == "alpha")
        .expect("alpha tracked");
    assert!(
        alpha.acked.iter().any(|&(fid, seq)| fid == 2 && seq == 7),
        "primary never saw the follower's full ack: {:?}",
        alpha.acked
    );

    assert_eq!(
        follower.role(),
        ServerRole::Follower {
            leader_hint: primary.addr().to_string()
        },
        "a replica that never promoted must still report follower"
    );
    follower.shutdown();
    primary.shutdown();
}

/// Ingest against a follower is refused with a typed `NotPrimary` whose
/// message carries the leader hint verbatim.
#[test]
fn follower_rejects_ingest_with_leader_hint() {
    let primary = spawn_primary();
    let follower = spawn_clean_follower(primary.addr(), 3);
    let mut c = Client::connect(follower.addr(), retry_cfg(21));
    match c.ingest("alpha", &batch(4, 50)) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::NotPrimary);
            assert_eq!(
                message,
                primary.addr().to_string(),
                "leader hint must name the primary"
            );
        }
        other => panic!("follower accepted or mis-typed an ingest: {other:?}"),
    }
    // Scans on the follower stay allowed.
    c.scan("alpha", &scan_query()).expect("follower scan");
    follower.shutdown();
    primary.shutdown();
}

/// The tentpole sweep: the shipping stream is cut (and occasionally
/// bit-flipped) at *every byte offset* across a long schedule of
/// subscription sessions while the primary keeps ingesting. After every
/// fault the pump must reconnect and resume from its own cursor; every
/// observable follower state must be a prefix state (first k records
/// applied — never torn); and once the faults run dry the follower must
/// converge bit-identically to the oracle.
#[test]
fn shipping_survives_cuts_and_flips_at_every_byte() {
    let primary = spawn_primary();

    // Checksum after every log record so far (index = records applied).
    // Repartitions preserve content, so their entries repeat the
    // previous checksum — harmless for the membership check.
    let mut prefix = vec![live_checksum(&primary)];
    let mut feed_seed = 3000u64;
    fn feed(handle: &ServerHandle, seed: &mut u64) -> u64 {
        let b = batch(4, *seed);
        *seed += 1;
        handle.with_fleet(|fleet| {
            fleet.ingest("alpha", &b).expect("feed ingest");
            let target = fleet.scan_target("alpha").expect("registered");
            scan_naive_query_snapshot(&target.table.snapshot(), &scan_query(), &target.disk)
                .checksum
        })
    }
    // Enough backlog that the first sessions ship real payload.
    for _ in 0..6 {
        prefix.push(feed(&primary, &mut feed_seed));
    }
    // A layout flip mid-log: publishes must survive the sweep too.
    primary.with_fleet(|fleet| {
        let target = fleet.scan_target("alpha").expect("registered");
        target.table.repartition(&grouped_layout(), &target.disk);
    });
    prefix.push(*prefix.last().expect("non-empty"));

    // The fault schedule: cut the read side at every byte of the early
    // stream (subscribe reply + first chunk), stride through the deeper
    // payload, and mix in bit-flips and write-side cuts (subscribe/ack
    // frames). Every plan must eventually strike.
    let mut plans: Vec<(String, FaultPlan)> = Vec::new();
    for at in 0..=160u64 {
        plans.push((
            format!("CutRead@{at}"),
            FaultPlan::single(Fault::new(FaultKind::CutRead, at)),
        ));
    }
    for at in (161..=1800u64).step_by(13) {
        plans.push((
            format!("CutRead@{at}"),
            FaultPlan::single(Fault::new(FaultKind::CutRead, at)),
        ));
    }
    for at in [2u64, 14, 33, 77, 200, 511] {
        plans.push((
            format!("FlipRead@{at}"),
            FaultPlan::single(Fault::new(FaultKind::FlipRead, at)),
        ));
    }
    for at in [0u64, 1, 9, 20, 33] {
        plans.push((
            format!("CutWrite@{at}"),
            FaultPlan::single(Fault::new(FaultKind::CutWrite, at)),
        ));
        plans.push((
            format!("FlipWrite@{at}"),
            FaultPlan::single(Fault::new(FaultKind::FlipWrite, at)),
        ));
    }
    let queue: Arc<Mutex<VecDeque<FaultPlan>>> =
        Arc::new(Mutex::new(plans.iter().map(|(_, p)| p.clone()).collect()));

    let leader = primary.addr();
    let dial_queue = Arc::clone(&queue);
    let follower = Server::spawn_follower(
        fleet(),
        quick_cfg(
            ServerRole::Follower {
                leader_hint: leader.to_string(),
            },
            4,
        ),
        Box::new(move || {
            let stream = dial(leader)?;
            let plan = dial_queue.lock().expect("queue lock").pop_front();
            Ok(match plan {
                Some(p) => Box::new(FaultyStream::new(stream, p)) as Box<dyn WireStream>,
                None => Box::new(stream) as Box<dyn WireStream>,
            })
        }),
    )
    .expect("bind follower");

    // While the pump fights through the schedule: keep fresh payload
    // flowing (so deep cut offsets strike data bytes, not heartbeats)
    // and assert every sampled follower state is a prefix state.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut last_feed = Instant::now();
    loop {
        let drained = queue.lock().expect("queue lock").is_empty();
        if drained && log_len(&follower) >= log_len(&primary) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sweep never converged: primary log {}, follower log {}, queue drained: {drained}",
            log_len(&primary),
            log_len(&follower)
        );
        let sampled = live_checksum(&follower);
        assert!(
            prefix.contains(&sampled),
            "follower served a torn state mid-replication: {sampled:#x} not a prefix checksum"
        );
        if !drained
            && last_feed.elapsed() >= Duration::from_millis(30)
            && log_len(&primary).saturating_sub(log_len(&follower)) < 3
        {
            prefix.push(feed(&primary, &mut feed_seed));
            last_feed = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Converged: bit-identical to the single-node oracle, both shapes.
    let want = live_checksum(&primary);
    let want_pred = live_pred_checksum(&primary, &pred_query());
    assert_eq!(live_checksum(&follower), want);
    let mut cf = Client::connect(follower.addr(), retry_cfg(31));
    assert_eq!(
        cf.scan("alpha", &scan_query()).expect("scan").checksum,
        want
    );
    assert_eq!(
        cf.scan("alpha", &pred_query()).expect("pred scan").checksum,
        want_pred
    );
    // Every scheduled fault actually struck — none was wasted on a
    // session it never reached.
    for (name, plan) in &plans {
        assert!(plan.fired() >= 1, "fault {name} never struck");
    }
    follower.shutdown();
    primary.shutdown();
}

/// A follower partitioned away mid-stream serves a *consistent,
/// older-generation* snapshot — the exact prefix state it had applied —
/// not a torn one; and once the partition heals it resumes from its own
/// cursor and converges.
#[test]
fn lagging_follower_serves_consistent_older_snapshot_then_catches_up() {
    let primary = spawn_primary();
    let prefix0 = live_checksum(&primary);

    // Connection 1: cut deep enough to carry the first small batch but
    // die inside the second (large) one. Later connections: refused
    // while partitioned, clean after healing.
    let partitioned = Arc::new(AtomicBool::new(true));
    let first = Arc::new(AtomicBool::new(true));
    let leader = primary.addr();
    let gate = Arc::clone(&partitioned);
    let once = Arc::clone(&first);
    let follower = Server::spawn_follower(
        fleet(),
        quick_cfg(
            ServerRole::Follower {
                leader_hint: leader.to_string(),
            },
            5,
        ),
        Box::new(move || {
            if once.swap(false, Ordering::SeqCst) {
                let plan = FaultPlan::single(Fault::new(FaultKind::CutRead, 2_000));
                return Ok(Box::new(FaultyStream::new(dial(leader)?, plan)) as Box<dyn WireStream>);
            }
            if gate.load(Ordering::SeqCst) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "partitioned",
                ));
            }
            Ok(Box::new(dial(leader)?) as Box<dyn WireStream>)
        }),
    )
    .expect("bind follower");

    // Small batch ships whole; the big one crosses the 2000-byte cut, so
    // its frame never completes on connection 1.
    primary.with_fleet(|fleet| {
        fleet.ingest("alpha", &batch(4, 70)).expect("b1");
    });
    wait_synced(&primary, &follower, Duration::from_secs(10));
    let prefix1 = live_checksum(&primary);
    primary.with_fleet(|fleet| {
        fleet.ingest("alpha", &batch(400, 71)).expect("b2");
    });

    // Give the cut time to strike, then hold: the lagging follower must
    // keep serving the prefix state while the primary is ahead.
    std::thread::sleep(Duration::from_millis(200));
    let sampled = live_checksum(&follower);
    assert!(
        sampled == prefix1 || sampled == prefix0,
        "partitioned follower serves a torn state: {sampled:#x}"
    );
    assert!(
        live_generation(&follower) < live_generation(&primary),
        "follower should lag the primary's generation"
    );
    let mut cf = Client::connect(follower.addr(), retry_cfg(41));
    assert_eq!(
        cf.scan("alpha", &scan_query())
            .expect("lagging scan")
            .checksum,
        sampled,
        "wire scan of the lagging follower disagrees with its snapshot"
    );

    // Heal: the pump resumes from its own cursor and converges.
    partitioned.store(false, Ordering::SeqCst);
    wait_synced(&primary, &follower, Duration::from_secs(20));
    assert_eq!(live_checksum(&follower), live_checksum(&primary));
    follower.shutdown();
    primary.shutdown();
}

/// Kill the primary at every storage [`CrashPoint`] while a follower is
/// subscribed, promote the follower, and prove: a retried ingest
/// sequence is answered from the shipped dedup ledger (applied exactly
/// once — the delta does not grow), a genuinely new batch then grows the
/// delta by exactly one batch, and scans on the promoted follower stay
/// bit-identical to a never-crashed single-node oracle.
#[test]
fn failover_applies_retried_ingest_exactly_once_at_every_crash_point() {
    let disk = DiskParams::paper_testbed();
    let s = schema();
    let data = generate_table(&s, ROWS, 7);
    let b1 = batch(4, 80);
    let b2 = batch(4, 81);
    let b3 = batch(4, 82);

    for point in CrashPoint::ALL {
        // The primary's table lives on a crash-injecting durable dir —
        // the "machine" whose death we simulate mid-shipping.
        let dir = Arc::new(CrashDir::new());
        let table = StoredTable::create(
            &s,
            &data,
            &Partitioning::row(&s),
            CompressionPolicy::Default,
            dir.clone() as Arc<dyn Dir>,
        )
        .expect("create primary table");
        let primary =
            Server::spawn(fleet_over(table), quick_cfg(ServerRole::Primary, 0)).expect("bind");
        let follower = spawn_clean_follower(primary.addr(), 6);

        // One acknowledged wire ingest before the crash (seq 1).
        let mut c1 = Client::connect(primary.addr(), retry_cfg(7));
        c1.ingest("alpha", &b1).expect("b1");
        wait_synced(&primary, &follower, Duration::from_secs(10));

        // Arm the crash and drive the op that trips it. In-memory state
        // (what replication ships) keeps going; durable state freezes —
        // exactly a machine death with the WAL caught mid-write.
        dir.arm(point);
        if point == CrashPoint::AfterWalAppend {
            c1.ingest("alpha", &b2)
                .expect("b2 (crash after WAL append)");
        } else {
            primary.with_fleet(|fleet| {
                let target = fleet.scan_target("alpha").expect("registered");
                target.table.repartition(&grouped_layout(), &target.disk);
            });
            c1.ingest("alpha", &b2).expect("b2 (post-crash)");
        }
        assert!(dir.crashed(), "{point} never fired");
        wait_synced(&primary, &follower, Duration::from_secs(10));

        // The primary dies; the follower is promoted.
        let dead_addr = primary.addr();
        primary.shutdown();
        follower.promote();
        assert_eq!(follower.role(), ServerRole::Primary);

        // The never-crashed oracle applies the same ops in log order.
        let oracle = StoredTable::load(
            &s,
            &data,
            &Partitioning::row(&s),
            CompressionPolicy::Default,
        );
        oracle.ingest(&b1, &disk).expect("oracle b1");
        if point != CrashPoint::AfterWalAppend {
            oracle.repartition(&grouped_layout(), &disk);
        }
        oracle.ingest(&b2, &disk).expect("oracle b2");

        // A client with the same identity retries both batches after the
        // failover (sequence numbers restart — the classic "did my write
        // land?" replay). The shipped ledger must answer both without
        // re-applying: the delta must not grow.
        let rows_before = delta_rows(&follower);
        let mut c2 = Client::connect_list(vec![dead_addr, follower.addr()], retry_cfg(7));
        let r1 = c2.ingest("alpha", &b1).expect("retried b1");
        assert!(r1.deduped, "{point}: retried b1 was re-applied");
        let r2 = c2.ingest("alpha", &b2).expect("retried b2");
        assert!(r2.deduped, "{point}: retried b2 was re-applied");
        assert_eq!(
            r2.rows_appended,
            b2.appended_rows() as u64,
            "{point}: the ledger's cached reply lost the batch stats"
        );
        assert_eq!(
            delta_rows(&follower),
            rows_before,
            "{point}: a retried batch grew the delta — not exactly-once"
        );

        // A genuinely new batch from a fresh identity applies exactly
        // once: the delta grows by exactly one batch.
        let mut c3 = Client::connect_list(vec![dead_addr, follower.addr()], retry_cfg(8));
        c3.ingest("alpha", &b3).expect("b3 on promoted follower");
        assert_eq!(
            delta_rows(&follower),
            rows_before + b3.appended_rows(),
            "{point}: new batch applied not-exactly-once"
        );
        oracle.ingest(&b3, &disk).expect("oracle b3");

        // And the promoted follower's scans are oracle-identical.
        let q = pred_query();
        let want = scan_naive_query_snapshot(&oracle.snapshot(), &q, &disk).checksum;
        let got = c2.scan("alpha", &q).expect("scan after failover");
        assert_eq!(got.checksum, want, "{point}: failover diverged from oracle");
        let want_pure =
            scan_naive_query_snapshot(&oracle.snapshot(), &scan_query(), &disk).checksum;
        assert_eq!(
            c2.scan("alpha", &scan_query()).expect("pure scan").checksum,
            want_pure,
            "{point}: pure projection diverged from oracle"
        );
        follower.shutdown();
    }
}

/// Client-side failover routing: a `connect_list` client bounced by
/// `NotPrimary` follows the leader hint to the real primary, and when
/// the primary's socket dies the reconnect loop lands scans (and the
/// resumed ingest sequence) on the promoted follower.
#[test]
fn client_list_retargets_on_not_primary_and_rides_out_the_kill() {
    let primary = spawn_primary();
    let follower = spawn_clean_follower(primary.addr(), 9);

    // Follower listed FIRST: the first ingest is bounced with the leader
    // hint and must retarget to the primary.
    let mut c = Client::connect_list(vec![follower.addr(), primary.addr()], retry_cfg(61));
    c.ingest("alpha", &batch(4, 90)).expect("retargeted ingest");
    let stats = c.stats();
    assert!(
        stats.not_primary >= 1,
        "NotPrimary never observed: {stats:?}"
    );
    assert!(stats.failovers >= 1, "retarget not counted: {stats:?}");
    wait_synced(&primary, &follower, Duration::from_secs(10));
    let want = live_checksum(&primary);
    assert_eq!(c.scan("alpha", &scan_query()).expect("scan").checksum, want);

    // Kill the primary; promote the follower. The same client's next
    // scan must ride the reconnect loop over to the follower and see
    // identical bytes; its next ingest sequence resumes there.
    primary.shutdown();
    follower.promote();
    let rows_before = delta_rows(&follower);
    assert_eq!(
        c.scan("alpha", &scan_query())
            .expect("scan after kill")
            .checksum,
        want,
        "failover scan diverged"
    );
    let b = batch(4, 91);
    let reply = c.ingest("alpha", &b).expect("ingest after failover");
    assert!(!reply.deduped, "a fresh sequence must not be deduped");
    assert_eq!(
        delta_rows(&follower),
        rows_before + b.appended_rows(),
        "resumed sequence applied not-exactly-once"
    );
    assert!(
        c.stats().failovers >= 2,
        "kill-driven failover not counted: {:?}",
        c.stats()
    );
    follower.shutdown();
}
