//! Thread-per-connection wire server in front of a
//! [`slicer_lifecycle::TableFleet`].
//!
//! # Degradation contract
//!
//! The server is built so that *nothing on the scan path ever waits on
//! the fleet lock*:
//!
//! * Routes are resolved once at spawn via [`TableFleet::scan_target`] —
//!   the `Arc<StoredTable>` handles stay valid across every later
//!   repartition, so a scan pins an immutable snapshot and reads it to
//!   completion while advise rounds and layout moves proceed.
//! * Serve metrics (the sliding window that feeds advising, per-table
//!   payoff ledgers) are folded back opportunistically: each served scan
//!   is queued and drained into the fleet under `try_lock`, so a long
//!   advise round only *delays bookkeeping*, never a reply.
//! * Ingest does take the fleet lock — the idempotency ledger check, the
//!   WAL append, and the ledger update must be atomic, or a concurrent
//!   retry of the same sequence could apply a batch twice.
//!
//! # Admission control
//!
//! Every scan is priced on the configured [`HddCostModel`] *before* it
//! runs. The modeled seconds of all in-flight scans are tracked in one
//! atomic; a new scan whose addition would push that total past
//! [`ServerConfig::admission_max_io_seconds`] is shed with a typed
//! [`ErrorCode::Overloaded`] carrying the modeled drain time as
//! `retry_after_micros`. If the request carries a deadline that the
//! queued work plus its own modeled cost already exceeds, it is refused
//! up front with [`ErrorCode::DeadlineExceeded`] — no cycles are spent
//! on an answer the client will have abandoned.

use crate::fault::WireStream;
use crate::frame::{
    Envelope, ErrorCode, FrameBuffer, LedgerEntry, Message, ReplRecord, Request, Response,
    ServerStats, SlowQueryRecord, WireError,
};
use crate::slowlog::SlowQueryLog;
use slicer_cost::{CostModel, HddCostModel};
use slicer_lifecycle::{ScanTarget, ServedScan, TableFleet};
use slicer_model::{AttrSet, Partitioning, Predicate, Query};
use slicer_storage::{
    decode_ingest_batch, encode_ingest_batch, ReplOp, ScanExecutor, StorageError,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which side of the replication stream this server plays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerRole {
    /// Accepts writes, streams its replication log to subscribers.
    Primary,
    /// Replays a primary's log and serves **read-only** scans; ingest is
    /// rejected with a typed [`ErrorCode::NotPrimary`] carrying
    /// `leader_hint`. Flip to primary with [`ServerHandle::promote`].
    Follower {
        /// Where writes should go instead (the primary's address as this
        /// follower last knew it); shipped verbatim in the error frame's
        /// message field.
        leader_hint: String,
    },
}

/// How a follower's replication pump obtains a connection to its
/// primary. Tests inject connectors that wrap the stream in
/// [`crate::FaultyStream`] or dial a restarted primary at a new port.
pub type FollowerConnector = Box<dyn FnMut() -> std::io::Result<Box<dyn WireStream>> + Send>;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Admission bound: maximum modeled disk seconds of scan work allowed
    /// in flight at once. Scans past the bound are shed with
    /// [`ErrorCode::Overloaded`].
    pub admission_max_io_seconds: f64,
    /// Scans at or above this wall-clock service time land in the
    /// slow-query log.
    pub slow_query_threshold: Duration,
    /// Ring capacity of the slow-query log.
    pub slow_log_capacity: usize,
    /// Read-poll granularity of connection threads (bounds shutdown
    /// latency).
    pub poll_interval: Duration,
    /// A peer that leaves a frame half-sent longer than this is
    /// disconnected (defends the per-connection buffer against stalled
    /// or byte-dribbling clients).
    pub frame_stall_timeout: Duration,
    /// Cost model pricing scans for admission control.
    pub cost: HddCostModel,
    /// Primary (accepts writes, streams its log) or read-only follower.
    pub role: ServerRole,
    /// An idle subscription stream gets a [`Response::Heartbeat`] at this
    /// cadence so a follower can tell "no new records" from "dead
    /// primary".
    pub heartbeat_interval: Duration,
    /// This node's identity when it subscribes to a primary (used by the
    /// primary's per-follower ack bookkeeping, and to seed the pump's
    /// reconnect jitter). Ignored for primaries.
    pub follower_id: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            admission_max_io_seconds: 0.5,
            slow_query_threshold: Duration::from_millis(50),
            slow_log_capacity: 64,
            poll_interval: Duration::from_millis(20),
            frame_stall_timeout: Duration::from_secs(2),
            cost: HddCostModel::paper_testbed(),
            role: ServerRole::Primary,
            heartbeat_interval: Duration::from_millis(200),
            follower_id: 1,
        }
    }
}

/// Lock-free server counters.
#[derive(Debug, Default)]
struct NetCounters {
    connections_accepted: AtomicU64,
    requests: AtomicU64,
    scans_ok: AtomicU64,
    ingests_ok: AtomicU64,
    ingests_deduped: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    typed_errors: AtomicU64,
    malformed_frames: AtomicU64,
}

/// The fleet plus everything that must stay atomic with it.
struct FleetCore {
    fleet: TableFleet,
    /// Idempotency ledger: per client, the last applied ingest sequence
    /// and the reply it produced (pre-marked `deduped` for replays).
    ledger: HashMap<u64, (u64, Response)>,
}

/// Max records shipped per [`Response::ReplBatch`] frame — bounds frame
/// size and keeps a far-behind follower's catch-up incremental.
const REPL_CHUNK: usize = 512;

/// Per-table replication logs plus per-follower ack cursors.
///
/// Held in its *own* `Arc`, separate from [`Shared`]: the replication
/// taps installed on each table capture this (they outlive connection
/// threads, living inside the `StoredTable`s), and capturing
/// `Arc<Shared>` there instead would both leak a reference cycle and
/// break `ServerHandle::shutdown`'s `Arc::try_unwrap`.
#[derive(Default)]
struct ReplShared {
    log: Mutex<ReplLog>,
}

#[derive(Default)]
struct ReplLog {
    /// Per table, every replicable record since this server spawned, in
    /// publication order. Index into the vec is the wire cursor
    /// (`first_seq` / subscribe-from).
    entries: HashMap<String, Vec<ReplRecord>>,
    /// Per follower id, per table: the next log index the follower wants
    /// (= records it has acknowledged applying).
    acked: HashMap<u64, HashMap<String, u64>>,
}

impl ReplShared {
    fn append(&self, table: &str, rec: ReplRecord) {
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .entry(table.to_string())
            .or_default()
            .push(rec);
    }

    fn log_len(&self, table: &str) -> u64 {
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .get(table)
            .map_or(0, |v| v.len() as u64)
    }

    /// Up to [`REPL_CHUNK`] records of `table`'s log starting at `from`
    /// (clamped to the log length), plus the index of the first one.
    fn slice(&self, table: &str, from: u64) -> (u64, Vec<ReplRecord>) {
        let log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        let Some(entries) = log.entries.get(table) else {
            return (from, Vec::new());
        };
        let start = (from as usize).min(entries.len());
        let end = (start + REPL_CHUNK).min(entries.len());
        (start as u64, entries[start..end].to_vec())
    }

    fn record_ack(&self, follower_id: u64, table: &str, seq: u64) {
        let mut log = self.log.lock().unwrap_or_else(|e| e.into_inner());
        let cursor = log
            .acked
            .entry(follower_id)
            .or_default()
            .entry(table.to_string())
            .or_insert(0);
        *cursor = (*cursor).max(seq);
    }
}

/// Replication progress of one table, from [`ServerHandle::repl_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableReplStats {
    /// Table name.
    pub table: String,
    /// Records in this server's replication log.
    pub log_len: u64,
    /// Per subscribed follower id: the next log index it has
    /// acknowledged (its applied count). `log_len - acked` is the
    /// follower's lag in records.
    pub acked: Vec<(u64, u64)>,
}

/// Replication progress snapshot (see [`ServerHandle::repl_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplStats {
    /// The server's current role.
    pub role: ServerRole,
    /// Per-table log lengths and follower acks, sorted by table name.
    pub tables: Vec<TableReplStats>,
}

struct Shared {
    cfg: ServerConfig,
    routes: HashMap<String, ScanTarget>,
    core: Mutex<FleetCore>,
    /// Served scans, by table, waiting to be folded into the fleet's
    /// serve metrics.
    pending: Mutex<Vec<(String, ServedScan)>>,
    slow: Mutex<SlowQueryLog>,
    counters: NetCounters,
    /// Modeled µs of scan work currently in flight (admission signal).
    inflight_io_micros: AtomicU64,
    shutdown: AtomicBool,
    /// Current role; flipped by [`ServerHandle::promote`].
    role: Mutex<ServerRole>,
    repl: Arc<ReplShared>,
}

impl Shared {
    /// Fold every queued scan into the fleet. Callers hold the core lock.
    fn drain_pending(&self, core: &mut FleetCore) {
        let drained: Vec<(String, ServedScan)> = {
            let mut pending = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *pending)
        };
        for (table, s) in drained {
            // The route existed at serve time; a record failure would mean
            // the fleet lost a table mid-flight, which TableFleet does not
            // support — surface it loudly in debug builds, drop the sample
            // in release.
            let recorded = core
                .fleet
                .record_scan(&table, s.query, &s.result, &s.snapshot);
            debug_assert!(recorded.is_ok());
        }
    }

    fn typed_error(&self, code: ErrorCode, retry_after_micros: u64, message: String) -> Response {
        self.counters.typed_errors.fetch_add(1, Ordering::Relaxed);
        match code {
            ErrorCode::Overloaded => {
                self.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
            }
            ErrorCode::DeadlineExceeded => {
                self.counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        Response::Error {
            code,
            retry_after_micros,
            message,
        }
    }

    fn stats_snapshot(&self) -> ServerStats {
        let slow = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        let c = &self.counters;
        ServerStats {
            connections_accepted: c.connections_accepted.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            scans_ok: c.scans_ok.load(Ordering::Relaxed),
            ingests_ok: c.ingests_ok.load(Ordering::Relaxed),
            ingests_deduped: c.ingests_deduped.load(Ordering::Relaxed),
            shed_overload: c.shed_overload.load(Ordering::Relaxed),
            shed_deadline: c.shed_deadline.load(Ordering::Relaxed),
            typed_errors: c.typed_errors.load(Ordering::Relaxed),
            malformed_frames: c.malformed_frames.load(Ordering::Relaxed),
            slow_queries_recorded: slow.recorded(),
            slow_queries_evicted: slow.evicted(),
            slow_queries: slow.records(),
        }
    }
}

/// Subtracts its share from the in-flight gauge even on unwind.
struct InflightGuard<'a> {
    gauge: &'a AtomicU64,
    micros: u64,
}

impl<'a> InflightGuard<'a> {
    fn add(gauge: &'a AtomicU64, micros: u64) -> InflightGuard<'a> {
        gauge.fetch_add(micros, Ordering::SeqCst);
        InflightGuard { gauge, micros }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(self.micros, Ordering::SeqCst);
    }
}

/// Hard cap on any modeled duration the admission/deadline math works
/// with: one hour in µs. A cost model can emit NaN, infinity, or an
/// astronomically large estimate on degenerate inputs; an unguarded
/// `(x * 1e6) as u64` cast turns NaN into 0 (work admitted as *free*)
/// and infinity into `u64::MAX` (garbage bounds and retry hints).
const MAX_MODELED_MICROS: u64 = 3_600_000_000;

/// Modeled seconds → clamped µs for admission and deadline math.
/// Non-finite inputs pin to the cap (NaN must read as "expensive",
/// never "free"), negatives to zero, and everything else saturates at
/// [`MAX_MODELED_MICROS`].
fn modeled_micros(seconds: f64) -> u64 {
    if !seconds.is_finite() {
        return MAX_MODELED_MICROS;
    }
    if seconds <= 0.0 {
        return 0;
    }
    let micros = seconds * 1e6;
    if micros >= MAX_MODELED_MICROS as f64 {
        MAX_MODELED_MICROS
    } else {
        micros as u64
    }
}

fn handle_scan(
    shared: &Shared,
    table: String,
    query_name: String,
    weight: f64,
    attrs: Vec<u16>,
    predicate: Option<Predicate>,
    deadline_micros: u64,
) -> Response {
    let started = Instant::now();
    let Some(target) = shared.routes.get(&table) else {
        return shared.typed_error(
            ErrorCode::UnknownTable,
            0,
            format!("no table registered under `{table}`"),
        );
    };
    if !(weight.is_finite() && weight > 0.0) {
        return shared.typed_error(
            ErrorCode::InvalidQuery,
            0,
            format!("query weight {weight} must be finite and positive"),
        );
    }
    if let Some(bad) = attrs.iter().find(|&&a| a as usize >= AttrSet::CAPACITY) {
        return shared.typed_error(
            ErrorCode::InvalidQuery,
            0,
            format!("attribute id {bad} beyond capacity {}", AttrSet::CAPACITY),
        );
    }
    let referenced: AttrSet = attrs.iter().map(|&a| a as usize).collect();
    let mut query = Query::weighted(query_name, referenced, weight);
    query.predicate = predicate;
    // The read path every front shares: the client's kept_fraction is
    // discarded, the query validated, and the predicate re-stamped from
    // the exact snapshot the scan will read.
    let (query, snapshot) = match target.pin(query) {
        Ok(pinned) => pinned,
        Err(e) => return shared.typed_error(ErrorCode::InvalidQuery, 0, e.to_string()),
    };
    let kept_fraction = query.predicate.as_ref().map(|p| p.kept_fraction);
    let est_micros = modeled_micros(shared.cfg.cost.query_cost(
        &target.table.schema,
        &snapshot.layout,
        &query,
    ));
    let inflight = shared.inflight_io_micros.load(Ordering::SeqCst);
    if deadline_micros > 0 && inflight.saturating_add(est_micros) > deadline_micros {
        return shared.typed_error(
            ErrorCode::DeadlineExceeded,
            0,
            format!(
                "modeled wait {inflight} us + scan {est_micros} us exceeds deadline \
                 {deadline_micros} us"
            ),
        );
    }
    let bound_micros = modeled_micros(shared.cfg.admission_max_io_seconds);
    if inflight.saturating_add(est_micros) > bound_micros {
        return shared.typed_error(
            ErrorCode::Overloaded,
            inflight.clamp(1_000, MAX_MODELED_MICROS),
            format!("{inflight} us of modeled scan work queued (bound {bound_micros} us)"),
        );
    }
    let _guard = InflightGuard::add(&shared.inflight_io_micros, est_micros);

    let result =
        ScanExecutor::new(&target.table).scan_query_snapshot(&snapshot, &query, &target.disk);

    let wall_micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let record = SlowQueryRecord {
        table: table.clone(),
        query: query.name.clone(),
        bytes_read: result.bytes_read,
        wall_micros,
        io_seconds: result.io_seconds,
        deadline_slack_micros: (deadline_micros > 0)
            .then(|| deadline_micros as i64 - wall_micros as i64),
        kept_fraction,
        generation: snapshot.generation,
    };
    shared
        .slow
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .observe(record);

    shared
        .pending
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((
            table,
            ServedScan {
                query,
                result,
                snapshot: Arc::clone(&snapshot),
            },
        ));
    // Opportunistic fold: never wait on an advise round for bookkeeping.
    if let Ok(mut core) = shared.core.try_lock() {
        shared.drain_pending(&mut core);
    }

    shared.counters.scans_ok.fetch_add(1, Ordering::Relaxed);
    Response::ScanOk {
        checksum: result.checksum,
        bytes_read: result.bytes_read,
        io_seconds: result.io_seconds,
        cpu_seconds: result.cpu_seconds,
        kept_fraction: kept_fraction.unwrap_or(1.0),
        generation: snapshot.generation,
    }
}

fn handle_ingest(
    shared: &Shared,
    table: String,
    client_id: u64,
    sequence: u64,
    batch_bytes: Vec<u8>,
) -> Response {
    if let ServerRole::Follower { leader_hint } =
        &*shared.role.lock().unwrap_or_else(|e| e.into_inner())
    {
        // Read-only node: the leader hint travels in the message field so
        // a list-aware client can retarget the write.
        return shared.typed_error(ErrorCode::NotPrimary, 0, leader_hint.clone());
    }
    let batch = match decode_ingest_batch(&batch_bytes) {
        Ok(b) => b,
        Err(e) => return shared.typed_error(ErrorCode::InvalidBatch, 0, e.to_string()),
    };
    let mut core = shared.core.lock().unwrap_or_else(|e| e.into_inner());
    shared.drain_pending(&mut core);
    if let Some((last_seq, reply)) = core.ledger.get(&client_id) {
        if sequence == *last_seq {
            shared
                .counters
                .ingests_deduped
                .fetch_add(1, Ordering::Relaxed);
            return reply.clone();
        }
        if sequence < *last_seq {
            // An older sequence can only be a replay of a batch whose
            // effects are already durable; the cached reply is gone, so
            // acknowledge with zeroed stats rather than re-apply.
            shared
                .counters
                .ingests_deduped
                .fetch_add(1, Ordering::Relaxed);
            return Response::IngestOk {
                rows_appended: 0,
                rows_deleted: 0,
                wal_bytes: 0,
                io_seconds: 0.0,
                delta_rows: 0,
                delta_bytes: 0,
                deduped: true,
            };
        }
    }
    match core.fleet.ingest(&table, &batch) {
        Ok(stats) => {
            let reply = Response::IngestOk {
                rows_appended: stats.rows_appended,
                rows_deleted: stats.rows_deleted,
                wal_bytes: stats.wal_bytes,
                io_seconds: stats.io_seconds,
                delta_rows: stats.delta_rows,
                delta_bytes: stats.delta_bytes,
                deduped: false,
            };
            let replay = Response::IngestOk {
                rows_appended: stats.rows_appended,
                rows_deleted: stats.rows_deleted,
                wal_bytes: stats.wal_bytes,
                io_seconds: stats.io_seconds,
                delta_rows: stats.delta_rows,
                delta_bytes: stats.delta_bytes,
                deduped: true,
            };
            core.ledger.insert(client_id, (sequence, replay));
            // The dedup ledger travels with the stream: append the entry
            // right behind the ingest record its tap just logged (we hold
            // the core lock, so no other writer can interleave), so a
            // promoted follower answers a retried sequence from the
            // ledger instead of double-applying the batch.
            if let Some(target) = shared.routes.get(&table) {
                shared.repl.append(
                    &table,
                    ReplRecord::Ledger {
                        generation: target.table.snapshot().generation,
                        entry: LedgerEntry {
                            client_id,
                            sequence,
                            rows_appended: stats.rows_appended,
                            rows_deleted: stats.rows_deleted,
                            wal_bytes: stats.wal_bytes,
                            io_seconds: stats.io_seconds,
                            delta_rows: stats.delta_rows,
                            delta_bytes: stats.delta_bytes,
                        },
                    },
                );
            }
            shared.counters.ingests_ok.fetch_add(1, Ordering::Relaxed);
            reply
        }
        Err(StorageError::UnknownTable(t)) => shared.typed_error(
            ErrorCode::UnknownTable,
            0,
            format!("no table registered under `{t}`"),
        ),
        Err(StorageError::InvalidBatch(m)) => shared.typed_error(ErrorCode::InvalidBatch, 0, m),
        Err(e) => shared.typed_error(ErrorCode::Internal, 0, e.to_string()),
    }
}

fn handle_envelope(shared: &Shared, env: Envelope) -> (Response, bool) {
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    if shared.shutdown.load(Ordering::SeqCst) {
        return (
            shared.typed_error(ErrorCode::ShuttingDown, 0, "server shutting down".into()),
            true,
        );
    }
    match env.msg {
        Message::Request(Request::Scan {
            table,
            query_name,
            weight,
            attrs,
            predicate,
            deadline_micros,
        }) => (
            handle_scan(
                shared,
                table,
                query_name,
                weight,
                attrs,
                predicate,
                deadline_micros,
            ),
            false,
        ),
        Message::Request(Request::Ingest {
            table,
            client_id,
            sequence,
            deadline_micros: _,
            batch,
        }) => (
            handle_ingest(shared, table, client_id, sequence, batch),
            false,
        ),
        Message::Request(Request::Stats) => (Response::StatsOk(shared.stats_snapshot()), false),
        // Subscribe is intercepted by `serve_connection` (it flips the
        // connection into streaming mode); reaching here means the frame
        // arrived where it cannot be honored. A stray ack outside a
        // subscription has no follower identity to credit.
        Message::Request(Request::Subscribe { .. }) | Message::Request(Request::ReplAck { .. }) => {
            (
                shared.typed_error(
                    ErrorCode::Malformed,
                    0,
                    "replication frame outside a subscription stream".into(),
                ),
                true,
            )
        }
        Message::Response(_) => (
            shared.typed_error(
                ErrorCode::Malformed,
                0,
                "peer sent a response frame to the server".into(),
            ),
            true,
        ),
    }
}

fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    if stream
        .set_read_timeout(Some(shared.cfg.poll_interval))
        .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut fb = FrameBuffer::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut stall_since: Option<Instant> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if fb.pending() > 0 {
                    let since = *stall_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= shared.cfg.frame_stall_timeout {
                        // A half-sent frame went quiet: drop the peer
                        // rather than hold the buffer open forever.
                        shared
                            .counters
                            .malformed_frames
                            .fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                }
                continue;
            }
            Err(_) => return,
        };
        fb.extend(&buf[..n]);
        stall_since = None;
        loop {
            match fb.next_frame() {
                Ok(Some(env)) => {
                    let request_id = env.request_id;
                    if let Message::Request(Request::Subscribe {
                        follower_id,
                        tables,
                    }) = &env.msg
                    {
                        serve_subscription(
                            shared,
                            &mut stream,
                            fb,
                            request_id,
                            *follower_id,
                            tables,
                        );
                        return;
                    }
                    let (resp, close) = handle_envelope(shared, env);
                    if stream
                        .write_all(&crate::frame::encode_response(request_id, &resp))
                        .is_err()
                        || close
                    {
                        return;
                    }
                }
                Ok(None) => {
                    if fb.pending() > 0 {
                        stall_since.get_or_insert_with(Instant::now);
                    }
                    break;
                }
                Err(err) => {
                    // The byte stream is no longer trustworthy: best-effort
                    // typed error (request id 0 — the frame carrying the
                    // real one is the thing that broke), then a
                    // deterministic close.
                    shared
                        .counters
                        .malformed_frames
                        .fetch_add(1, Ordering::Relaxed);
                    let resp = shared.typed_error(
                        ErrorCode::Malformed,
                        0,
                        match err {
                            WireError::TooLarge(n) => format!("frame too large: {n} bytes"),
                            other => other.to_string(),
                        },
                    );
                    let _ = stream.write_all(&crate::frame::encode_response(0, &resp));
                    return;
                }
            }
        }
    }
}

/// Stream `shared`'s replication log to one subscriber: answer with
/// [`Response::SubscribeOk`], then ship [`Response::ReplBatch`] chunks as
/// the per-table cursors fall behind the log, heartbeat when idle, and
/// drain [`Request::ReplAck`] frames into the ack bookkeeping. Runs on
/// the connection's own thread until the peer drops, violates the
/// protocol, or the server shuts down. Server-initiated frames carry
/// request id 0 — a subscriber is not matching ids.
fn serve_subscription(
    shared: &Shared,
    stream: &mut TcpStream,
    mut fb: FrameBuffer,
    request_id: u64,
    follower_id: u64,
    tables: &[(String, u64)],
) {
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    for (t, _) in tables {
        if !shared.routes.contains_key(t) {
            let resp = shared.typed_error(
                ErrorCode::UnknownTable,
                0,
                format!("no table registered under `{t}`"),
            );
            let _ = stream.write_all(&crate::frame::encode_response(request_id, &resp));
            return;
        }
    }
    for (t, from) in tables {
        let have = shared.repl.log_len(t);
        if *from > have {
            // The subscriber claims more applied records than this log
            // holds — it followed a different (longer-lived) primary and
            // cannot catch up from here.
            let resp = shared.typed_error(
                ErrorCode::InvalidQuery,
                0,
                format!("subscriber is ahead of `{t}`'s log ({from} > {have})"),
            );
            let _ = stream.write_all(&crate::frame::encode_response(request_id, &resp));
            return;
        }
    }
    let accept = Response::SubscribeOk {
        tables: tables
            .iter()
            .map(|(t, _)| (t.clone(), shared.repl.log_len(t)))
            .collect(),
    };
    if stream
        .write_all(&crate::frame::encode_response(request_id, &accept))
        .is_err()
    {
        return;
    }
    let mut cursors: Vec<(String, u64)> = tables.to_vec();
    let mut buf = vec![0u8; 64 * 1024];
    let mut last_sent = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Ship everything the subscriber is behind on, one chunk per
        // table per turn (the read poll below paces the loop).
        let mut shipped = false;
        for (table, cursor) in cursors.iter_mut() {
            let (first_seq, records) = shared.repl.slice(table, *cursor);
            if records.is_empty() {
                continue;
            }
            let advance = records.len() as u64;
            let resp = Response::ReplBatch {
                table: table.clone(),
                first_seq,
                records,
            };
            if stream
                .write_all(&crate::frame::encode_response(0, &resp))
                .is_err()
            {
                return;
            }
            *cursor = first_seq + advance;
            shipped = true;
        }
        if shipped {
            last_sent = Instant::now();
        } else if last_sent.elapsed() >= shared.cfg.heartbeat_interval {
            if stream
                .write_all(&crate::frame::encode_response(0, &Response::Heartbeat))
                .is_err()
            {
                return;
            }
            last_sent = Instant::now();
        }
        // Drain acks; the poll-interval read timeout paces the loop.
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        };
        fb.extend(&buf[..n]);
        loop {
            match fb.next_frame() {
                Ok(Some(env)) => match env.msg {
                    Message::Request(Request::ReplAck { table, seq }) => {
                        shared.repl.record_ack(follower_id, &table, seq);
                    }
                    _ => {
                        // Anything else on a subscription stream is
                        // protocol misuse; close deterministically.
                        shared
                            .counters
                            .malformed_frames
                            .fetch_add(1, Ordering::Relaxed);
                        let resp = shared.typed_error(
                            ErrorCode::Malformed,
                            0,
                            "only acks may follow a subscription".into(),
                        );
                        let _ = stream.write_all(&crate::frame::encode_response(0, &resp));
                        return;
                    }
                },
                Ok(None) => break,
                Err(err) => {
                    shared
                        .counters
                        .malformed_frames
                        .fetch_add(1, Ordering::Relaxed);
                    let resp = shared.typed_error(ErrorCode::Malformed, 0, err.to_string());
                    let _ = stream.write_all(&crate::frame::encode_response(0, &resp));
                    return;
                }
            }
        }
    }
}

/// The serving tier: spawn with [`Server::spawn`], drive through
/// [`crate::frame`]-speaking clients, stop with [`ServerHandle::shutdown`].
pub struct Server;

impl Server {
    /// Bind, resolve one [`ScanTarget`] per fleet table, and start the
    /// accept loop. The fleet moves into the server; get it back from
    /// [`ServerHandle::shutdown`].
    pub fn spawn(fleet: TableFleet, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let mut routes = HashMap::new();
        for name in fleet.table_names().map(str::to_string).collect::<Vec<_>>() {
            let target = fleet
                .scan_target(&name)
                .expect("table listed by the fleet must resolve");
            routes.insert(name, target);
        }
        // Install the replication taps: every mutation a table publishes
        // (ingest or layout flip, whichever path it came through) is
        // appended to this server's per-table replication log, in
        // publication order. The closures capture only `Arc<ReplShared>`
        // — never `Arc<Shared>` — so shutdown's `Arc::try_unwrap` stays
        // sound.
        let repl = Arc::new(ReplShared::default());
        for (name, target) in &routes {
            let repl = Arc::clone(&repl);
            let table = name.clone();
            target.table.set_repl_tap(Arc::new(move |event| {
                let record = match event.op {
                    ReplOp::Ingest(batch) => ReplRecord::Ingest {
                        generation: event.generation,
                        batch: encode_ingest_batch(&batch),
                    },
                    ReplOp::Publish(layout) => ReplRecord::Publish {
                        generation: event.generation,
                        layout: layout
                            .partitions()
                            .iter()
                            .map(|p| p.iter().map(|a| a.index() as u16).collect())
                            .collect(),
                    },
                };
                repl.append(&table, record);
            }));
        }
        let role = cfg.role.clone();
        let shared = Arc::new(Shared {
            slow: Mutex::new(SlowQueryLog::new(
                cfg.slow_query_threshold,
                cfg.slow_log_capacity,
            )),
            cfg,
            routes,
            core: Mutex::new(FleetCore {
                fleet,
                ledger: HashMap::new(),
            }),
            pending: Mutex::new(Vec::new()),
            counters: NetCounters::default(),
            inflight_io_micros: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            role: Mutex::new(role),
            repl,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        shared
                            .counters
                            .connections_accepted
                            .fetch_add(1, Ordering::Relaxed);
                        let shared = Arc::clone(&shared);
                        let handle = std::thread::spawn(move || serve_connection(&shared, stream));
                        conns.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                    }
                    Err(_) => {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                    }
                }
            })
        };
        Ok(ServerHandle {
            shared,
            addr,
            accept,
            conns,
            pump: Mutex::new(None),
            pump_stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Spawn a **follower**: a server like [`Server::spawn`] (its scan,
    /// stats, and subscription paths all work) whose ingest path answers
    /// [`ErrorCode::NotPrimary`], plus a replication pump thread that
    /// dials the primary through `connector`, subscribes from its own log
    /// position, replays every shipped record through the fleet's normal
    /// ingest/repartition paths, and acknowledges progress. On any
    /// transport failure the pump reconnects with jittered backoff and
    /// resubscribes from wherever its own log stands — replay is
    /// idempotent, so a record redelivered across a cut applies once.
    ///
    /// `cfg.role` must be [`ServerRole::Follower`]; the follower's fleet
    /// must hold the same tables (and starting state) the primary served
    /// when its log began.
    pub fn spawn_follower(
        fleet: TableFleet,
        cfg: ServerConfig,
        connector: FollowerConnector,
    ) -> std::io::Result<ServerHandle> {
        assert!(
            matches!(cfg.role, ServerRole::Follower { .. }),
            "spawn_follower requires ServerRole::Follower"
        );
        let handle = Server::spawn(fleet, cfg)?;
        let pump_stop = Arc::new(AtomicBool::new(false));
        let pump = {
            let shared = Arc::clone(&handle.shared);
            let stop = Arc::clone(&pump_stop);
            std::thread::spawn(move || run_pump(&shared, connector, &stop))
        };
        *handle.pump.lock().unwrap_or_else(|e| e.into_inner()) = Some(pump);
        let handle = ServerHandle {
            pump_stop,
            ..handle
        };
        Ok(handle)
    }
}

/// xorshift64* step — the pump's reconnect jitter source (decorrelates
/// follower reconnect storms; cheap, deterministic per seed).
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The follower's replication pump: connect, subscribe, replay, ack —
/// reconnect with jittered capped-exponential backoff on any failure —
/// until `stop` or server shutdown.
fn run_pump(shared: &Shared, mut connector: FollowerConnector, stop: &AtomicBool) {
    let mut rng = shared.cfg.follower_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut retry = 0u32;
    let stopped = || stop.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst);
    while !stopped() {
        match pump_once(shared, &mut connector, stop) {
            Ok(()) => retry = 0, // clean disconnect: retry promptly
            Err(_) => retry = retry.saturating_add(1),
        }
        if stopped() {
            return;
        }
        // Jittered backoff in [0.5, 1.0) of the capped-exponential
        // envelope, slept in poll-sized slices so stop stays responsive.
        let envelope = Duration::from_millis(10)
            .saturating_mul(1 << retry.min(6))
            .min(Duration::from_millis(500));
        let frac = 0.5 + (xorshift64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
        let mut left = envelope.mul_f64(frac);
        while !left.is_zero() && !stopped() {
            let slice = left.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }
}

/// One subscription session: dial, subscribe from the follower's own log
/// lengths, apply batches, ack. Returns `Ok` on a clean end-of-stream,
/// `Err` on transport failure or protocol violation — the caller
/// reconnects either way.
fn pump_once(
    shared: &Shared,
    connector: &mut FollowerConnector,
    stop: &AtomicBool,
) -> Result<(), String> {
    let mut stream = connector().map_err(|e| format!("connect failed: {e}"))?;
    stream
        .set_read_timeout(Some(shared.cfg.poll_interval))
        .map_err(|e| format!("set_read_timeout failed: {e}"))?;
    // Resume from our own log: its length per table is exactly how many
    // records we have durably applied (our taps rebuild it as we replay,
    // so the cursor survives reconnects and even our own promotion).
    let mut names: Vec<&String> = shared.routes.keys().collect();
    names.sort();
    let tables: Vec<(String, u64)> = names
        .into_iter()
        .map(|t| (t.clone(), shared.repl.log_len(t)))
        .collect();
    let sub = Request::Subscribe {
        follower_id: shared.cfg.follower_id,
        tables,
    };
    stream
        .write_all(&crate::frame::encode_request(1, &sub))
        .map_err(|e| format!("subscribe send failed: {e}"))?;
    stream
        .flush()
        .map_err(|e| format!("subscribe flush failed: {e}"))?;

    let mut fb = FrameBuffer::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut subscribed = false;
    let mut last_heard = Instant::now();
    loop {
        if stop.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        loop {
            match fb.next_frame() {
                Ok(Some(env)) => {
                    last_heard = Instant::now();
                    match env.msg {
                        Message::Response(Response::SubscribeOk { .. }) if !subscribed => {
                            subscribed = true;
                        }
                        Message::Response(Response::ReplBatch {
                            table,
                            first_seq,
                            records,
                        }) if subscribed => {
                            apply_replication(shared, &table, first_seq, records)?;
                            let ack = Request::ReplAck {
                                seq: shared.repl.log_len(&table),
                                table,
                            };
                            stream
                                .write_all(&crate::frame::encode_request(0, &ack))
                                .map_err(|e| format!("ack send failed: {e}"))?;
                        }
                        Message::Response(Response::Heartbeat) if subscribed => {}
                        Message::Response(Response::Error { code, message, .. }) => {
                            return Err(format!(
                                "primary refused subscription [{code}]: {message}"
                            ));
                        }
                        other => {
                            return Err(format!("unexpected frame on subscription: {other:?}"));
                        }
                    }
                }
                Ok(None) => break,
                Err(err) => return Err(format!("subscription stream corrupt: {err}")),
            }
        }
        // A primary heartbeats when idle; silence past the stall budget
        // means the connection is dead even if the socket never errored.
        let stall = shared
            .cfg
            .frame_stall_timeout
            .max(shared.cfg.heartbeat_interval * 4);
        if last_heard.elapsed() >= stall {
            return Err(format!("primary silent for {stall:?}"));
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()),
            Ok(n) => fb.extend(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(format!("read failed: {e}")),
        }
    }
}

/// Replay one shipped chunk of `table`'s log. Idempotent: records this
/// follower already holds (its own log is the applied count) are
/// skipped, so redelivery across a cut is harmless; a gap — the chunk
/// starting past our log — is an error and forces a resubscribe.
fn apply_replication(
    shared: &Shared,
    table: &str,
    first_seq: u64,
    records: Vec<ReplRecord>,
) -> Result<(), String> {
    let target = shared
        .routes
        .get(table)
        .ok_or_else(|| format!("primary shipped unknown table `{table}`"))?;
    let mut core = shared.core.lock().unwrap_or_else(|e| e.into_inner());
    let have = shared.repl.log_len(table);
    if first_seq > have {
        return Err(format!(
            "log gap on `{table}`: chunk starts at {first_seq}, we hold {have}"
        ));
    }
    for (i, record) in records.into_iter().enumerate() {
        let index = first_seq + i as u64;
        if index < shared.repl.log_len(table) {
            continue; // redelivered across a cut; already applied
        }
        match record {
            ReplRecord::Ingest { generation, batch } => {
                let current = target.table.snapshot().generation;
                if generation != current + 1 {
                    return Err(format!(
                        "generation gap on `{table}`: ingest publishes {generation}, table at \
                         {current}"
                    ));
                }
                let decoded = decode_ingest_batch(&batch)
                    .map_err(|e| format!("shipped batch malformed: {e}"))?;
                // The fleet's ingest path fires our own replication tap,
                // which appends this record to our log — advancing the
                // resume cursor as a side effect of applying.
                core.fleet
                    .ingest(table, &decoded)
                    .map_err(|e| format!("replay ingest failed: {e}"))?;
            }
            ReplRecord::Publish { generation, layout } => {
                let current = target.table.snapshot().generation;
                if generation != current + 1 {
                    return Err(format!(
                        "generation gap on `{table}`: publish {generation}, table at {current}"
                    ));
                }
                let sets: Result<Vec<AttrSet>, String> = layout
                    .iter()
                    .map(|group| {
                        if group.iter().any(|&a| a as usize >= AttrSet::CAPACITY) {
                            return Err("attribute id beyond capacity".to_string());
                        }
                        Ok(group.iter().map(|&a| a as usize).collect())
                    })
                    .collect();
                let partitioning = Partitioning::new(&target.table.schema, sets?)
                    .map_err(|e| format!("shipped layout invalid: {e}"))?;
                // Deterministic and byte-identical to the primary's move
                // (repartition ≡ fresh load, property-tested), and it
                // folds our delta exactly when it folded the primary's.
                target.table.repartition(&partitioning, &target.disk);
            }
            ReplRecord::Ledger { generation, entry } => {
                // Install if newer — a promoted follower must answer a
                // retried sequence from this ledger, not re-apply it.
                let newer = core
                    .ledger
                    .get(&entry.client_id)
                    .is_none_or(|(seq, _)| entry.sequence > *seq);
                if newer {
                    let replay = Response::IngestOk {
                        rows_appended: entry.rows_appended,
                        rows_deleted: entry.rows_deleted,
                        wal_bytes: entry.wal_bytes,
                        io_seconds: entry.io_seconds,
                        delta_rows: entry.delta_rows,
                        delta_bytes: entry.delta_bytes,
                        deduped: true,
                    };
                    core.ledger
                        .insert(entry.client_id, (entry.sequence, replay));
                }
                // Ledger records come from the serving layer, not a table
                // tap — append to our own log by hand so the cursor (and
                // a future subscriber of ours) sees the full stream.
                shared
                    .repl
                    .append(table, ReplRecord::Ledger { generation, entry });
            }
        }
    }
    Ok(())
}

/// Running server: address, live counters, fleet access, shutdown.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// The follower's replication pump (primaries: `None`).
    pump: Mutex<Option<JoinHandle<()>>>,
    /// Stops the pump without shutting the server down (promotion).
    pump_stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters plus the retained slow-query records.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot()
    }

    /// The server's current role (a follower flips on
    /// [`ServerHandle::promote`]).
    pub fn role(&self) -> ServerRole {
        self.shared
            .role
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Replication progress: per-table log lengths and, on a primary,
    /// each subscribed follower's acknowledged position.
    pub fn repl_stats(&self) -> ReplStats {
        let log = self
            .shared
            .repl
            .log
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut tables: Vec<TableReplStats> = self
            .shared
            .routes
            .keys()
            .map(|t| {
                let mut acked: Vec<(u64, u64)> = log
                    .acked
                    .iter()
                    .filter_map(|(fid, per)| per.get(t).map(|&seq| (*fid, seq)))
                    .collect();
                acked.sort_unstable();
                TableReplStats {
                    table: t.clone(),
                    log_len: log.entries.get(t).map_or(0, |v| v.len() as u64),
                    acked,
                }
            })
            .collect();
        tables.sort_by(|a, b| a.table.cmp(&b.table));
        ReplStats {
            role: self.role(),
            tables,
        }
    }

    /// Promote a follower to primary: stop and join the replication pump
    /// (no more records will be applied from the old primary), then flip
    /// the role so ingest is accepted. The node's replication log —
    /// rebuilt record-for-record while it followed — immediately serves
    /// new subscribers, and the shipped dedup ledger answers retried
    /// ingest sequences without re-applying them. Idempotent on a
    /// primary.
    pub fn promote(&self) {
        self.pump_stop.store(true, Ordering::SeqCst);
        let pump = self.pump.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = pump {
            let _ = h.join();
        }
        *self.shared.role.lock().unwrap_or_else(|e| e.into_inner()) = ServerRole::Primary;
    }

    /// Run `f` against the fleet (pending serve metrics are folded in
    /// first). Scans keep flowing while `f` runs — this lock only gates
    /// bookkeeping, ingest, and layout moves.
    pub fn with_fleet<R>(&self, f: impl FnOnce(&mut TableFleet) -> R) -> R {
        let mut core = self.shared.core.lock().unwrap_or_else(|e| e.into_inner());
        self.shared.drain_pending(&mut core);
        f(&mut core.fleet)
    }

    /// Stop accepting, drain connection threads, fold every pending scan
    /// into the fleet, dump the slow-query log to stderr, and hand the
    /// fleet back (ready to be re-served by a fresh [`Server::spawn`]).
    pub fn shutdown(self) -> TableFleet {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // A follower's pump holds its own Arc<Shared>: stop and join it
        // before the try_unwrap below.
        self.pump_stop.store(true, Ordering::SeqCst);
        let pump = self.pump.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(h) = pump {
            let _ = h.join();
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        let handles: Vec<JoinHandle<()>> = {
            let mut conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *conns)
        };
        for h in handles {
            let _ = h.join();
        }
        {
            let slow = self.shared.slow.lock().unwrap_or_else(|e| e.into_inner());
            let mut err = std::io::stderr().lock();
            let _ = slow.dump(&mut err);
        }
        let shared = Arc::try_unwrap(self.shared)
            .ok()
            .expect("all server threads joined; no other owner may remain");
        // Detach the replication taps: the fleet handed back must not
        // keep appending into this server's (now dead) log.
        for target in shared.routes.values() {
            target.table.clear_repl_tap();
        }
        let mut core = shared.core.into_inner().unwrap_or_else(|e| e.into_inner());
        let pending = shared
            .pending
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        for (table, s) in pending {
            let _ = core
                .fleet
                .record_scan(&table, s.query, &s.result, &s.snapshot);
        }
        core.fleet
    }
}

#[cfg(test)]
mod tests {
    use super::{modeled_micros, MAX_MODELED_MICROS};

    #[test]
    fn modeled_micros_clamps_non_finite_to_the_cap() {
        // NaN must never read as "free work": an unguarded `as u64` cast
        // maps NaN to 0, which is exactly the silent-admission bug.
        assert_eq!(modeled_micros(f64::NAN), MAX_MODELED_MICROS);
        assert_eq!(modeled_micros(f64::INFINITY), MAX_MODELED_MICROS);
        // Negative infinity is still "not a believable cost" — but as a
        // negative it clamps to zero, the conservative floor.
        assert_eq!(modeled_micros(f64::NEG_INFINITY), MAX_MODELED_MICROS);
    }

    #[test]
    fn modeled_micros_clamps_negatives_to_zero() {
        assert_eq!(modeled_micros(-1.0), 0);
        assert_eq!(modeled_micros(-0.0), 0);
        assert_eq!(modeled_micros(0.0), 0);
        assert_eq!(modeled_micros(f64::MIN), 0);
    }

    #[test]
    fn modeled_micros_saturates_huge_costs_at_the_cap() {
        assert_eq!(modeled_micros(1e30), MAX_MODELED_MICROS);
        assert_eq!(modeled_micros(f64::MAX), MAX_MODELED_MICROS);
        assert_eq!(
            modeled_micros(MAX_MODELED_MICROS as f64),
            MAX_MODELED_MICROS
        );
    }

    #[test]
    fn modeled_micros_passes_ordinary_costs_through() {
        assert_eq!(modeled_micros(0.5), 500_000);
        assert_eq!(modeled_micros(1.0), 1_000_000);
        assert_eq!(modeled_micros(1e-6), 1);
    }
}
