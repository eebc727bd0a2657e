//! The wire protocol: length-prefixed, CRC-framed, request-id-tagged
//! messages between [`crate::Server`] and a client.
//!
//! # Frame format
//!
//! A frame is one [`slicer_storage::encoding`] record frame, the one the
//! storage WAL writes, whose body is `request_id u64 ‖ kind u8 ‖ payload`
//! and whose length is bounded by [`MAX_FRAME_LEN`]. Payloads use the same
//! cursor as every storage format. Every response carries the
//! `request_id` of the request it answers, so a client can reject stale
//! or misrouted replies after a reconnect.
//!
//! # Decoding discipline
//!
//! [`FrameBuffer::next_frame`] walks frames from the front of a byte stream and
//! stops at the *exact* first violation — implausible length, checksum
//! mismatch, unknown kind, malformed payload — returning a typed
//! [`WireError`] and never panicking on arbitrary bytes. An incomplete
//! tail is not an error (`Ok(None)`: read more); a violation is final for
//! the connection — after a CRC failure the framing can no longer be
//! trusted, so both peers close deterministically rather than resync.
//! One exception is layered *above* the frame: an [`Request::Ingest`]
//! batch travels as an opaque blob inside a structurally valid frame, so
//! a garbage batch is rejected with a typed
//! [`ErrorCode::InvalidBatch`] response while the connection stays
//! usable.

use slicer_model::{AttrId, AttrKind, Literal, PredClause, PredOp, Predicate};
#[cfg(test)]
use slicer_storage::crc32;
use slicer_storage::encoding::{
    put_blob, put_flag, put_str, seal_record, take_blob, take_f64, take_flag, take_i64, take_str,
    take_u16, take_u32, take_u64, take_u8, take_vec, unseal_record, Count, DecodeError, Unseal,
    RECORD_HEADER,
};
use std::fmt;

/// Hard upper bound on `len` (bytes after the crc field) — anything
/// larger is rejected as corrupt before any allocation happens.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Bound on embedded strings (table and query names, error messages).
const MAX_STR_LEN: usize = 4096;

/// Bound on the slow-query records one stats reply may carry. A record's
/// fixed fields: two string lengths, three u64s, two flags, a u64.
const SLOW_RECORDS: Count = Count::new("slow-query count", 42, 65_536);

/// Bound on the conjuncts one scan predicate may carry — far above any
/// real conjunction, low enough that a hostile frame cannot make the
/// decoder allocate unboundedly.
pub const MAX_PRED_CLAUSES: usize = 256;

/// Bound on the replication records one [`Response::ReplBatch`] may
/// carry.
pub const MAX_REPL_RECORDS: usize = 65_536;

/// Bound on the tables one [`Request::Subscribe`] (or its reply) may
/// enumerate. An entry: a name (`u32` length first) and a `u64` cursor.
const TABLES: Count = Count::new("subscription table count", 12, 4096);

/// Bound on the attribute groups a replicated layout may carry, and on
/// the attributes within one group — both far above `AttrSet::CAPACITY`,
/// low enough that a hostile frame cannot force unbounded allocation.
const MAX_LAYOUT_GROUPS: usize = 512;

/// A clause's fixed fields: attr u16, op u8, kind u8, num i64, text len u32.
const CLAUSES: Count = Count::new("predicate clause count", 16, MAX_PRED_CLAUSES);
/// A replication record's fixed fields: tag u8, generation u64, a u16 count.
const REPL_RECORDS: Count = Count::new("replication record count", 11, MAX_REPL_RECORDS);
/// A layout group opens with its `u16` attribute count.
const GROUPS: Count = Count::new("layout group count", 2, MAX_LAYOUT_GROUPS);
const GROUP_ATTRS: Count = Count::new("layout attr count", 2, MAX_LAYOUT_GROUPS);
/// A scan's referenced attribute ids, `u16` each.
const ATTRS: Count = Count::new("attribute count", 2, usize::MAX);

const REQ_SCAN: u8 = 0x01;
const REQ_INGEST: u8 = 0x02;
const REQ_STATS: u8 = 0x03;
const REQ_SUBSCRIBE: u8 = 0x04;
const REQ_REPL_ACK: u8 = 0x05;
const RESP_SCAN: u8 = 0x81;
const RESP_INGEST: u8 = 0x82;
const RESP_STATS: u8 = 0x83;
const RESP_SUBSCRIBE: u8 = 0x84;
const RESP_REPL_BATCH: u8 = 0x85;
const RESP_HEARTBEAT: u8 = 0x86;
const RESP_ERROR: u8 = 0xEE;

/// A typed wire-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Transport I/O failed (carried as a string so the error stays
    /// `Clone` for retry bookkeeping).
    Io(String),
    /// The byte stream violated the frame format; the message names the
    /// exact violation. The connection must be closed.
    Corrupt(String),
    /// A frame announced a length beyond [`MAX_FRAME_LEN`].
    TooLarge(u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(m) => write!(f, "wire I/O error: {m}"),
            WireError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            WireError::TooLarge(n) => write!(f, "frame too large: {n} bytes"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e.to_string())
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> WireError {
        WireError::Corrupt(e.0)
    }
}

/// Typed error codes a server can answer with. The client's retry policy
/// keys off these: [`ErrorCode::Overloaded`] and
/// [`ErrorCode::ShuttingDown`] are retryable (the former after the
/// server-suggested delay), the rest are final for the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// No table is registered under the requested name.
    UnknownTable,
    /// The scan query does not fit the table's schema (bad attribute ids
    /// or weight).
    InvalidQuery,
    /// The ingest batch failed structural or schema validation; nothing
    /// was applied.
    InvalidBatch,
    /// The request's deadline expired before (or while) the server could
    /// serve it — including admission refusing to queue work whose
    /// modeled wait already exceeds the remaining deadline.
    DeadlineExceeded,
    /// Admission control shed the request: queued scan work exceeds the
    /// disk-model-derived bound. `retry_after_micros` carries the modeled
    /// drain time of the queue at shed time.
    Overloaded,
    /// The peer sent bytes that violate the protocol. The connection is
    /// closed after this frame.
    Malformed,
    /// The server is shutting down; retry against a new server.
    ShuttingDown,
    /// An internal storage failure (I/O, corruption) — not the client's
    /// fault, not safely retryable blind.
    Internal,
    /// The node is a read-only follower and cannot apply writes. The
    /// error frame's `message` carries the leader hint (the primary's
    /// address as the follower last knew it) — retry the write there, or
    /// against the next server in the client's list.
    NotPrimary,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::UnknownTable => 1,
            ErrorCode::InvalidQuery => 2,
            ErrorCode::InvalidBatch => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Overloaded => 5,
            ErrorCode::Malformed => 6,
            ErrorCode::ShuttingDown => 7,
            ErrorCode::Internal => 8,
            ErrorCode::NotPrimary => 9,
        }
    }

    fn from_tag(tag: u8) -> Result<ErrorCode, WireError> {
        Ok(match tag {
            1 => ErrorCode::UnknownTable,
            2 => ErrorCode::InvalidQuery,
            3 => ErrorCode::InvalidBatch,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::Overloaded,
            6 => ErrorCode::Malformed,
            7 => ErrorCode::ShuttingDown,
            8 => ErrorCode::Internal,
            9 => ErrorCode::NotPrimary,
            other => return Err(WireError::Corrupt(format!("unknown error code {other}"))),
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::UnknownTable => "unknown-table",
            ErrorCode::InvalidQuery => "invalid-query",
            ErrorCode::InvalidBatch => "invalid-batch",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Malformed => "malformed",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
            ErrorCode::NotPrimary => "not-primary",
        };
        f.write_str(name)
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Scan `table`, projecting the listed attribute ids, optionally
    /// filtered by a conjunctive predicate.
    Scan {
        /// Routing key.
        table: String,
        /// Query name (for the slow-query log and the serve window).
        query_name: String,
        /// Query weight (validated server-side; 1.0 for plain queries).
        weight: f64,
        /// Referenced attribute ids, ascending.
        attrs: Vec<u16>,
        /// Optional conjunctive selection predicate. Every clause
        /// attribute must appear in `attrs` (the predicate's drivers are
        /// referenced columns), and the whole conjunction is validated
        /// server-side against the live schema. The carried
        /// `kept_fraction` is a client *estimate* and is never trusted:
        /// the server re-stamps it from the table's own pruning metadata
        /// before costing or recording the query.
        predicate: Option<Predicate>,
        /// Remaining deadline budget at send time, µs; 0 = no deadline.
        deadline_micros: u64,
    },
    /// Apply one ingest batch to `table`, exactly once.
    Ingest {
        /// Routing key.
        table: String,
        /// The client's stable identity — the idempotency namespace.
        client_id: u64,
        /// Client-assigned sequence, strictly increasing per client;
        /// reused verbatim across retries of the same batch so the
        /// server's dedup ledger can recognize a replay.
        sequence: u64,
        /// Remaining deadline budget at send time, µs; 0 = no deadline.
        deadline_micros: u64,
        /// Opaque [`slicer_storage::encode_ingest_batch`] image, decoded
        /// and validated server-side.
        batch: Vec<u8>,
    },
    /// Fetch server counters and the slow-query log.
    Stats,
    /// Subscribe to the server's replication stream (follower → primary).
    /// The server answers with [`Response::SubscribeOk`], then streams
    /// [`Response::ReplBatch`] frames (interleaved with
    /// [`Response::Heartbeat`] when idle) on the same connection.
    Subscribe {
        /// The subscriber's stable identity (for the primary's per-
        /// follower ack bookkeeping).
        follower_id: u64,
        /// Per table: resume cursor as a *replication-log index* — the
        /// count of records this follower has already applied. Log
        /// positions (not generations) make the cursor loss-proof: a cut
        /// between an ingest record and the ledger record that travels
        /// with it redelivers from the exact cut, and replay is
        /// idempotent on the follower.
        tables: Vec<(String, u64)>,
    },
    /// Acknowledge replication progress (follower → primary): the
    /// follower has durably applied `table`'s log up to (excluding)
    /// index `seq`. Fire-and-forget — the primary never replies.
    ReplAck {
        /// Which table's cursor advanced.
        table: String,
        /// Next log index the follower wants (= records applied so far).
        seq: u64,
    },
}

/// One record in a table's replication log — the unit
/// [`Response::ReplBatch`] ships. Mirrors what the primary's WAL holds,
/// plus the ingest-dedup ledger entries that must travel with it so a
/// failover never double-applies a retried batch.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplRecord {
    /// An ingest batch published `generation` on the primary. `batch` is
    /// the opaque [`slicer_storage::encode_ingest_batch`] image; the
    /// follower decodes, validates, and replays it through the normal
    /// ingest path.
    Ingest {
        /// The generation the batch published on the primary.
        generation: u64,
        /// Encoded batch image.
        batch: Vec<u8>,
    },
    /// A repartition published `generation` under `layout` (attribute ids
    /// per group). The follower replays it through
    /// `StoredTable::repartition`, which is byte-identical to the
    /// primary's move — so layout flips replicate and checksums stay
    /// bit-equal.
    Publish {
        /// The generation the move published on the primary.
        generation: u64,
        /// The adopted layout: attribute ids, grouped.
        layout: Vec<Vec<u16>>,
    },
    /// A dedup-ledger entry: client `entry.client_id` was acknowledged
    /// through sequence `entry.sequence` with the recorded ingest stats.
    /// Travels interleaved right after its ingest record so a promoted
    /// follower answers a retried batch from the ledger instead of
    /// re-applying it.
    Ledger {
        /// The generation of the ingest this entry acknowledges.
        generation: u64,
        /// The ledger row.
        entry: LedgerEntry,
    },
}

/// One ingest-dedup ledger row as shipped in [`ReplRecord::Ledger`]:
/// everything a promoted follower needs to reproduce the primary's
/// `IngestOk` reply for a replayed sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// The idempotency namespace (the ingesting client's id).
    pub client_id: u64,
    /// The highest sequence acknowledged for that client.
    pub sequence: u64,
    /// Rows the acknowledged batch appended.
    pub rows_appended: u64,
    /// Rows the acknowledged batch tombstoned.
    pub rows_deleted: u64,
    /// WAL bytes the acknowledged batch appended.
    pub wal_bytes: u64,
    /// Modeled WAL-append disk seconds of the acknowledged batch.
    pub io_seconds: f64,
    /// Delta rows pending after the batch (on the primary).
    pub delta_rows: u64,
    /// Delta bytes pending after the batch (on the primary).
    pub delta_bytes: u64,
}

/// One slow-query log record (see [`crate::SlowQueryLog`]); travels in
/// [`Response::StatsOk`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQueryRecord {
    /// Table the query scanned.
    pub table: String,
    /// Query name.
    pub query: String,
    /// Compressed bytes the scan read.
    pub bytes_read: u64,
    /// Wall-clock service time, µs (admission wait included).
    pub wall_micros: u64,
    /// Modeled disk seconds of the scan.
    pub io_seconds: f64,
    /// Deadline slack at completion (`deadline - wall`), µs; negative
    /// means the query finished past its deadline; `None` for queries
    /// sent without a deadline.
    pub deadline_slack_micros: Option<i64>,
    /// The *server-stamped* fraction of rows the scan's predicate kept
    /// (from the table's own pruning metadata, never the client's
    /// estimate); `None` for predicate-less scans. Together with
    /// `bytes_read` this distinguishes "selective but mispriced" from
    /// "genuinely big" slow queries.
    pub kept_fraction: Option<f64>,
    /// Snapshot generation the scan pinned.
    pub generation: u64,
}

/// Server counters exposed over the wire (see [`Response::StatsOk`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Connections accepted since startup.
    pub connections_accepted: u64,
    /// Frames decoded and dispatched.
    pub requests: u64,
    /// Scans served successfully.
    pub scans_ok: u64,
    /// Ingest batches applied.
    pub ingests_ok: u64,
    /// Ingest batches answered from the dedup ledger (retries of an
    /// already-applied sequence).
    pub ingests_deduped: u64,
    /// Requests shed by admission control with [`ErrorCode::Overloaded`].
    pub shed_overload: u64,
    /// Requests refused because their deadline had expired or could not
    /// be met ([`ErrorCode::DeadlineExceeded`]).
    pub shed_deadline: u64,
    /// Typed error frames sent (all codes, sheds included).
    pub typed_errors: u64,
    /// Connections dropped over unrecoverable frame violations.
    pub malformed_frames: u64,
    /// Slow queries ever recorded (log may have evicted some).
    pub slow_queries_recorded: u64,
    /// Slow-query records evicted by the ring buffer.
    pub slow_queries_evicted: u64,
    /// The retained slow-query records, oldest first.
    pub slow_queries: Vec<SlowQueryRecord>,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The scan completed; mirrors [`slicer_storage::ScanResult`].
    ScanOk {
        /// Order-independent checksum over all projected cell values —
        /// bit-identical to an in-process scan of the same snapshot.
        checksum: u64,
        /// Compressed bytes read.
        bytes_read: u64,
        /// Modeled disk seconds.
        io_seconds: f64,
        /// Measured decode CPU seconds.
        cpu_seconds: f64,
        /// The fraction of rows the server's pruning metadata kept for
        /// this scan's predicate, re-stamped server-side from the live
        /// table (1.0 for predicate-less scans) — the estimate the
        /// admission controller actually priced.
        kept_fraction: f64,
        /// Snapshot generation the scan pinned.
        generation: u64,
    },
    /// The ingest batch is durable (or was already — `deduped`).
    IngestOk {
        /// Rows appended by the batch.
        rows_appended: u64,
        /// Rows tombstoned by the batch.
        rows_deleted: u64,
        /// Bytes appended to the WAL.
        wal_bytes: u64,
        /// Modeled WAL-append disk seconds.
        io_seconds: f64,
        /// Delta rows pending after the batch.
        delta_rows: u64,
        /// Delta bytes pending after the batch.
        delta_bytes: u64,
        /// True iff this reply was served from the idempotency ledger —
        /// the sequence had already been applied and was *not* re-applied.
        deduped: bool,
    },
    /// Server counters and slow-query log.
    StatsOk(ServerStats),
    /// The subscription is accepted; per table, the primary's current
    /// replication-log length (so the subscriber knows its lag up
    /// front). [`Response::ReplBatch`] frames follow on this connection.
    SubscribeOk {
        /// Per table: name and current log length on the primary.
        tables: Vec<(String, u64)>,
    },
    /// A chunk of `table`'s replication log, starting at log index
    /// `first_seq` (the subscriber's cursor at send time).
    ReplBatch {
        /// Which table's log this chunk extends.
        table: String,
        /// Log index of `records[0]`.
        first_seq: u64,
        /// The records, in log order.
        records: Vec<ReplRecord>,
    },
    /// The stream is idle but alive (sent when no new records have been
    /// appended for a heartbeat interval); carries nothing.
    Heartbeat,
    /// A typed failure; the request had no effect (except `Malformed`,
    /// after which the server closes the connection).
    Error {
        /// What failed.
        code: ErrorCode,
        /// For [`ErrorCode::Overloaded`]: modeled queue drain time, µs.
        /// 0 otherwise.
        retry_after_micros: u64,
        /// Human-readable detail.
        message: String,
    },
}

/// One decoded frame: the request id and its message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Tag copied from request to response.
    pub request_id: u64,
    /// The message.
    pub msg: Message,
}

/// Either side of the conversation.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server.
    Request(Request),
    /// Server → client.
    Response(Response),
}

// --- predicate wire form ----------------------------------------------
//
// `flag u8` (0 = absent, 1 = present); when present: `kept_fraction f64
// bits | clause_count u16 | clauses…`, each clause `attr u16 | op u8 |
// kind u8 | num i64 | text str`. Tags are explicit (not enum
// discriminants) so the wire form is independent of model-crate layout.

fn pred_op_tag(op: PredOp) -> u8 {
    match op {
        PredOp::Eq => 1,
        PredOp::Le => 2,
        PredOp::Ge => 3,
    }
}

fn pred_op_from_tag(tag: u8) -> Result<PredOp, WireError> {
    Ok(match tag {
        1 => PredOp::Eq,
        2 => PredOp::Le,
        3 => PredOp::Ge,
        other => return Err(WireError::Corrupt(format!("unknown predicate op {other}"))),
    })
}

fn attr_kind_tag(kind: AttrKind) -> u8 {
    match kind {
        AttrKind::Int => 1,
        AttrKind::Decimal => 2,
        AttrKind::Date => 3,
        AttrKind::Text => 4,
    }
}

fn attr_kind_from_tag(tag: u8) -> Result<AttrKind, WireError> {
    Ok(match tag {
        1 => AttrKind::Int,
        2 => AttrKind::Decimal,
        3 => AttrKind::Date,
        4 => AttrKind::Text,
        other => return Err(WireError::Corrupt(format!("unknown literal kind {other}"))),
    })
}

fn put_predicate(out: &mut Vec<u8>, predicate: Option<&Predicate>) {
    let Some(p) = put_flag(out, predicate) else {
        return;
    };
    out.extend_from_slice(&p.kept_fraction.to_bits().to_le_bytes());
    out.extend_from_slice(&(p.clauses.len() as u16).to_le_bytes());
    for c in &p.clauses {
        out.extend_from_slice(&c.attr.0.to_le_bytes());
        out.push(pred_op_tag(c.op));
        out.push(attr_kind_tag(c.value.kind));
        out.extend_from_slice(&c.value.num.to_le_bytes());
        put_str(out, &c.value.text);
    }
}

fn take_predicate(buf: &mut &[u8]) -> Result<Option<Predicate>, WireError> {
    if !take_flag(buf, "predicate")? {
        return Ok(None);
    }
    let kept_fraction = take_f64(buf)?;
    let n = take_u16(buf)?.into();
    let clauses = take_vec(buf, n, CLAUSES, |buf| {
        Ok::<_, WireError>(PredClause {
            attr: AttrId(take_u16(buf)?),
            op: pred_op_from_tag(take_u8(buf)?)?,
            value: Literal {
                kind: attr_kind_from_tag(take_u8(buf)?)?,
                num: take_i64(buf)?,
                text: take_str(buf, MAX_STR_LEN)?,
            },
        })
    })?;
    Ok(Some(Predicate {
        clauses,
        kept_fraction,
    }))
}

// --- replication record wire form -------------------------------------
//
// Each record: `tag u8 | generation u64 | payload`. Tags: 1 = ingest
// (`blen u64 | batch bytes`), 2 = publish (`groups u16`, each `attrs u16
// | attr u16 …`), 3 = ledger (eight fixed scalars). Same explicit-tag
// discipline as the predicate form: the wire layout is independent of
// the enum's in-memory layout.

const REPL_INGEST: u8 = 1;
const REPL_PUBLISH: u8 = 2;
const REPL_LEDGER: u8 = 3;

fn put_repl_record(out: &mut Vec<u8>, rec: &ReplRecord) {
    match rec {
        ReplRecord::Ingest { generation, batch } => {
            out.push(REPL_INGEST);
            out.extend_from_slice(&generation.to_le_bytes());
            put_blob(out, batch);
        }
        ReplRecord::Publish { generation, layout } => {
            out.push(REPL_PUBLISH);
            out.extend_from_slice(&generation.to_le_bytes());
            out.extend_from_slice(&(layout.len() as u16).to_le_bytes());
            for group in layout {
                out.extend_from_slice(&(group.len() as u16).to_le_bytes());
                for a in group {
                    out.extend_from_slice(&a.to_le_bytes());
                }
            }
        }
        ReplRecord::Ledger { generation, entry } => {
            out.push(REPL_LEDGER);
            out.extend_from_slice(&generation.to_le_bytes());
            out.extend_from_slice(&entry.client_id.to_le_bytes());
            out.extend_from_slice(&entry.sequence.to_le_bytes());
            out.extend_from_slice(&entry.rows_appended.to_le_bytes());
            out.extend_from_slice(&entry.rows_deleted.to_le_bytes());
            out.extend_from_slice(&entry.wal_bytes.to_le_bytes());
            out.extend_from_slice(&entry.io_seconds.to_bits().to_le_bytes());
            out.extend_from_slice(&entry.delta_rows.to_le_bytes());
            out.extend_from_slice(&entry.delta_bytes.to_le_bytes());
        }
    }
}

fn take_repl_record(buf: &mut &[u8]) -> Result<ReplRecord, WireError> {
    let tag = take_u8(buf)?;
    let generation = take_u64(buf)?;
    Ok(match tag {
        REPL_INGEST => ReplRecord::Ingest {
            generation,
            batch: take_blob(buf)?.to_vec(),
        },
        REPL_PUBLISH => {
            let groups = take_u16(buf)?.into();
            let layout = take_vec(buf, groups, GROUPS, |b| {
                let attrs = take_u16(b)?.into();
                take_vec(b, attrs, GROUP_ATTRS, take_u16)
            })?;
            ReplRecord::Publish { generation, layout }
        }
        REPL_LEDGER => ReplRecord::Ledger {
            generation,
            entry: LedgerEntry {
                client_id: take_u64(buf)?,
                sequence: take_u64(buf)?,
                rows_appended: take_u64(buf)?,
                rows_deleted: take_u64(buf)?,
                wal_bytes: take_u64(buf)?,
                io_seconds: take_f64(buf)?,
                delta_rows: take_u64(buf)?,
                delta_bytes: take_u64(buf)?,
            },
        },
        other => {
            return Err(WireError::Corrupt(format!(
                "unknown replication record tag {other}"
            )));
        }
    })
}

/// Per-table name/count list, shared by Subscribe and SubscribeOk.
fn put_table_seqs(out: &mut Vec<u8>, tables: &[(String, u64)]) {
    out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for (name, seq) in tables {
        put_str(out, name);
        out.extend_from_slice(&seq.to_le_bytes());
    }
}

fn take_table_seqs(buf: &mut &[u8]) -> Result<Vec<(String, u64)>, WireError> {
    let n = take_u32(buf)?.into();
    take_vec(buf, n, TABLES, |b| {
        Ok((take_str(b, MAX_STR_LEN)?, take_u64(b)?))
    })
}

// --- encoding ---------------------------------------------------------

fn encode_body(request_id: u64, msg: &Message, body: &mut Vec<u8>) {
    body.extend_from_slice(&request_id.to_le_bytes());
    match msg {
        Message::Request(Request::Scan {
            table,
            query_name,
            weight,
            attrs,
            predicate,
            deadline_micros,
        }) => {
            body.push(REQ_SCAN);
            put_str(body, table);
            put_str(body, query_name);
            body.extend_from_slice(&weight.to_bits().to_le_bytes());
            body.extend_from_slice(&(attrs.len() as u16).to_le_bytes());
            for a in attrs {
                body.extend_from_slice(&a.to_le_bytes());
            }
            put_predicate(body, predicate.as_ref());
            body.extend_from_slice(&deadline_micros.to_le_bytes());
        }
        Message::Request(Request::Ingest {
            table,
            client_id,
            sequence,
            deadline_micros,
            batch,
        }) => {
            body.push(REQ_INGEST);
            put_str(body, table);
            body.extend_from_slice(&client_id.to_le_bytes());
            body.extend_from_slice(&sequence.to_le_bytes());
            body.extend_from_slice(&deadline_micros.to_le_bytes());
            put_blob(body, batch);
        }
        Message::Request(Request::Stats) => body.push(REQ_STATS),
        Message::Request(Request::Subscribe {
            follower_id,
            tables,
        }) => {
            body.push(REQ_SUBSCRIBE);
            body.extend_from_slice(&follower_id.to_le_bytes());
            put_table_seqs(body, tables);
        }
        Message::Request(Request::ReplAck { table, seq }) => {
            body.push(REQ_REPL_ACK);
            put_str(body, table);
            body.extend_from_slice(&seq.to_le_bytes());
        }
        Message::Response(Response::ScanOk {
            checksum,
            bytes_read,
            io_seconds,
            cpu_seconds,
            kept_fraction,
            generation,
        }) => {
            body.push(RESP_SCAN);
            body.extend_from_slice(&checksum.to_le_bytes());
            body.extend_from_slice(&bytes_read.to_le_bytes());
            body.extend_from_slice(&io_seconds.to_bits().to_le_bytes());
            body.extend_from_slice(&cpu_seconds.to_bits().to_le_bytes());
            body.extend_from_slice(&kept_fraction.to_bits().to_le_bytes());
            body.extend_from_slice(&generation.to_le_bytes());
        }
        Message::Response(Response::IngestOk {
            rows_appended,
            rows_deleted,
            wal_bytes,
            io_seconds,
            delta_rows,
            delta_bytes,
            deduped,
        }) => {
            body.push(RESP_INGEST);
            body.extend_from_slice(&rows_appended.to_le_bytes());
            body.extend_from_slice(&rows_deleted.to_le_bytes());
            body.extend_from_slice(&wal_bytes.to_le_bytes());
            body.extend_from_slice(&io_seconds.to_bits().to_le_bytes());
            body.extend_from_slice(&delta_rows.to_le_bytes());
            body.extend_from_slice(&delta_bytes.to_le_bytes());
            body.push(u8::from(*deduped));
        }
        Message::Response(Response::StatsOk(stats)) => {
            body.push(RESP_STATS);
            for counter in [
                stats.connections_accepted,
                stats.requests,
                stats.scans_ok,
                stats.ingests_ok,
                stats.ingests_deduped,
                stats.shed_overload,
                stats.shed_deadline,
                stats.typed_errors,
                stats.malformed_frames,
                stats.slow_queries_recorded,
                stats.slow_queries_evicted,
            ] {
                body.extend_from_slice(&counter.to_le_bytes());
            }
            body.extend_from_slice(&(stats.slow_queries.len() as u32).to_le_bytes());
            for rec in &stats.slow_queries {
                put_str(body, &rec.table);
                put_str(body, &rec.query);
                body.extend_from_slice(&rec.bytes_read.to_le_bytes());
                body.extend_from_slice(&rec.wall_micros.to_le_bytes());
                body.extend_from_slice(&rec.io_seconds.to_bits().to_le_bytes());
                if let Some(slack) = put_flag(body, rec.deadline_slack_micros) {
                    body.extend_from_slice(&slack.to_le_bytes());
                }
                if let Some(kept) = put_flag(body, rec.kept_fraction) {
                    body.extend_from_slice(&kept.to_bits().to_le_bytes());
                }
                body.extend_from_slice(&rec.generation.to_le_bytes());
            }
        }
        Message::Response(Response::SubscribeOk { tables }) => {
            body.push(RESP_SUBSCRIBE);
            put_table_seqs(body, tables);
        }
        Message::Response(Response::ReplBatch {
            table,
            first_seq,
            records,
        }) => {
            body.push(RESP_REPL_BATCH);
            put_str(body, table);
            body.extend_from_slice(&first_seq.to_le_bytes());
            body.extend_from_slice(&(records.len() as u32).to_le_bytes());
            for rec in records {
                put_repl_record(body, rec);
            }
        }
        Message::Response(Response::Heartbeat) => body.push(RESP_HEARTBEAT),
        Message::Response(Response::Error {
            code,
            retry_after_micros,
            message,
        }) => {
            body.push(RESP_ERROR);
            body.push(code.tag());
            body.extend_from_slice(&retry_after_micros.to_le_bytes());
            put_str(body, message);
        }
    }
}

/// Encode one frame: `len | crc | request_id | kind | payload`.
pub fn encode_envelope(request_id: u64, msg: &Message) -> Vec<u8> {
    let out = seal_record(|body| encode_body(request_id, msg, body));
    debug_assert!(out.len() - RECORD_HEADER <= MAX_FRAME_LEN as usize);
    out
}

/// [`encode_envelope`] for a request.
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    encode_envelope(request_id, &Message::Request(req.clone()))
}

/// [`encode_envelope`] for a response.
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    encode_envelope(request_id, &Message::Response(resp.clone()))
}

// --- decoding ---------------------------------------------------------

fn decode_body(body: &[u8]) -> Result<Envelope, WireError> {
    let mut buf = body;
    let request_id = take_u64(&mut buf)?;
    let kind = take_u8(&mut buf)?;
    let msg = match kind {
        // Fields decode in the order they are written, which is wire order.
        REQ_SCAN => Message::Request(Request::Scan {
            table: take_str(&mut buf, MAX_STR_LEN)?,
            query_name: take_str(&mut buf, MAX_STR_LEN)?,
            weight: take_f64(&mut buf)?,
            attrs: {
                let n = take_u16(&mut buf)?.into();
                take_vec(&mut buf, n, ATTRS, take_u16)?
            },
            predicate: take_predicate(&mut buf)?,
            deadline_micros: take_u64(&mut buf)?,
        }),
        REQ_INGEST => Message::Request(Request::Ingest {
            table: take_str(&mut buf, MAX_STR_LEN)?,
            client_id: take_u64(&mut buf)?,
            sequence: take_u64(&mut buf)?,
            deadline_micros: take_u64(&mut buf)?,
            batch: take_blob(&mut buf)?.to_vec(),
        }),
        REQ_STATS => Message::Request(Request::Stats),
        REQ_SUBSCRIBE => Message::Request(Request::Subscribe {
            follower_id: take_u64(&mut buf)?,
            tables: take_table_seqs(&mut buf)?,
        }),
        REQ_REPL_ACK => Message::Request(Request::ReplAck {
            table: take_str(&mut buf, MAX_STR_LEN)?,
            seq: take_u64(&mut buf)?,
        }),
        RESP_SCAN => Message::Response(Response::ScanOk {
            checksum: take_u64(&mut buf)?,
            bytes_read: take_u64(&mut buf)?,
            io_seconds: take_f64(&mut buf)?,
            cpu_seconds: take_f64(&mut buf)?,
            kept_fraction: take_f64(&mut buf)?,
            generation: take_u64(&mut buf)?,
        }),
        RESP_INGEST => Message::Response(Response::IngestOk {
            rows_appended: take_u64(&mut buf)?,
            rows_deleted: take_u64(&mut buf)?,
            wal_bytes: take_u64(&mut buf)?,
            io_seconds: take_f64(&mut buf)?,
            delta_rows: take_u64(&mut buf)?,
            delta_bytes: take_u64(&mut buf)?,
            deduped: take_flag(&mut buf, "dedup")?,
        }),
        RESP_STATS => {
            let mut stats = ServerStats::default();
            for counter in [
                &mut stats.connections_accepted,
                &mut stats.requests,
                &mut stats.scans_ok,
                &mut stats.ingests_ok,
                &mut stats.ingests_deduped,
                &mut stats.shed_overload,
                &mut stats.shed_deadline,
                &mut stats.typed_errors,
                &mut stats.malformed_frames,
                &mut stats.slow_queries_recorded,
                &mut stats.slow_queries_evicted,
            ] {
                *counter = take_u64(&mut buf)?;
            }
            let n = take_u32(&mut buf)?.into();
            stats.slow_queries = take_vec(&mut buf, n, SLOW_RECORDS, |b| {
                Ok::<_, DecodeError>(SlowQueryRecord {
                    table: take_str(b, MAX_STR_LEN)?,
                    query: take_str(b, MAX_STR_LEN)?,
                    bytes_read: take_u64(b)?,
                    wall_micros: take_u64(b)?,
                    io_seconds: take_f64(b)?,
                    deadline_slack_micros: match take_flag(b, "slack")? {
                        true => Some(take_i64(b)?),
                        false => None,
                    },
                    kept_fraction: match take_flag(b, "kept")? {
                        true => Some(take_f64(b)?),
                        false => None,
                    },
                    generation: take_u64(b)?,
                })
            })?;
            Message::Response(Response::StatsOk(stats))
        }
        RESP_SUBSCRIBE => Message::Response(Response::SubscribeOk {
            tables: take_table_seqs(&mut buf)?,
        }),
        RESP_REPL_BATCH => Message::Response(Response::ReplBatch {
            table: take_str(&mut buf, MAX_STR_LEN)?,
            first_seq: take_u64(&mut buf)?,
            records: {
                let n = take_u32(&mut buf)?.into();
                take_vec(&mut buf, n, REPL_RECORDS, take_repl_record)?
            },
        }),
        RESP_HEARTBEAT => Message::Response(Response::Heartbeat),
        RESP_ERROR => Message::Response(Response::Error {
            code: ErrorCode::from_tag(take_u8(&mut buf)?)?,
            retry_after_micros: take_u64(&mut buf)?,
            message: take_str(&mut buf, MAX_STR_LEN)?,
        }),
        other => {
            return Err(WireError::Corrupt(format!("unknown message kind {other}")));
        }
    };
    if !buf.is_empty() {
        return Err(WireError::Corrupt(format!(
            "{} trailing bytes in frame",
            buf.len()
        )));
    }
    Ok(Envelope { request_id, msg })
}

/// Incremental frame decoder over a received byte stream.
///
/// Feed raw reads in with [`FrameBuffer::extend`], pull decoded frames
/// out with [`FrameBuffer::next_frame`]. Decoding state is just the buffered
/// prefix, so the struct is trivially per-connection.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append freshly-received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (a non-empty value after an
    /// idle period means the peer stalled mid-frame).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Decode the next complete frame, if any. `Ok(None)` means the
    /// buffered prefix is a valid but incomplete frame — read more bytes.
    /// `Err` is a protocol violation at the exact current position; the
    /// connection must be closed (see the module docs).
    pub fn next_frame(&mut self) -> Result<Option<Envelope>, WireError> {
        let body = match unseal_record(&self.buf, MAX_FRAME_LEN) {
            Ok(body) => body,
            Err(Unseal::ShortHeader | Unseal::ShortBody { .. }) => return Ok(None),
            Err(Unseal::BadLength(len)) if len > MAX_FRAME_LEN => {
                return Err(WireError::TooLarge(len.into()));
            }
            Err(e) => return Err(WireError::Corrupt(e.to_string())),
        };
        let total = RECORD_HEADER + body.len();
        let envelope = decode_body(body)?;
        self.buf.drain(..total);
        Ok(Some(envelope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_envelopes() -> Vec<(u64, Message)> {
        vec![
            (
                1,
                Message::Request(Request::Scan {
                    table: "tpch.lineitem".into(),
                    query_name: "pricing".into(),
                    weight: 2.5,
                    attrs: vec![0, 3, 7, 15],
                    predicate: None,
                    deadline_micros: 250_000,
                }),
            ),
            (
                8,
                Message::Request(Request::Scan {
                    table: "tpch.lineitem".into(),
                    query_name: "recent-air".into(),
                    weight: 1.0,
                    attrs: vec![0, 3, 7, 15],
                    predicate: Some(Predicate {
                        clauses: vec![
                            PredClause {
                                attr: AttrId(7),
                                op: PredOp::Ge,
                                value: Literal {
                                    kind: AttrKind::Date,
                                    num: 2400,
                                    text: String::new(),
                                },
                            },
                            PredClause {
                                attr: AttrId(15),
                                op: PredOp::Eq,
                                value: Literal {
                                    kind: AttrKind::Text,
                                    num: 0,
                                    text: "AIR".into(),
                                },
                            },
                            PredClause {
                                attr: AttrId(3),
                                op: PredOp::Le,
                                value: Literal {
                                    kind: AttrKind::Decimal,
                                    num: 99_000,
                                    text: String::new(),
                                },
                            },
                            PredClause {
                                attr: AttrId(0),
                                op: PredOp::Eq,
                                value: Literal {
                                    kind: AttrKind::Int,
                                    num: -12,
                                    text: String::new(),
                                },
                            },
                        ],
                        kept_fraction: 0.003,
                    }),
                    deadline_micros: 0,
                }),
            ),
            (
                2,
                Message::Request(Request::Ingest {
                    table: "tpch.orders".into(),
                    client_id: 0xDEAD_BEEF,
                    sequence: 42,
                    deadline_micros: 0,
                    batch: vec![0, 3, 0, 0, 0, 0, 0, 0, 0, 0],
                }),
            ),
            (3, Message::Request(Request::Stats)),
            (
                4,
                Message::Response(Response::ScanOk {
                    checksum: 0x1234_5678_9ABC_DEF0,
                    bytes_read: 4096,
                    io_seconds: 0.125,
                    cpu_seconds: 0.001,
                    kept_fraction: 0.25,
                    generation: 7,
                }),
            ),
            (
                5,
                Message::Response(Response::IngestOk {
                    rows_appended: 100,
                    rows_deleted: 3,
                    wal_bytes: 2048,
                    io_seconds: 0.01,
                    delta_rows: 100,
                    delta_bytes: 900,
                    deduped: true,
                }),
            ),
            (
                6,
                Message::Response(Response::StatsOk(ServerStats {
                    connections_accepted: 4,
                    requests: 99,
                    scans_ok: 90,
                    slow_queries_recorded: 2,
                    slow_queries: vec![
                        SlowQueryRecord {
                            table: "t".into(),
                            query: "q".into(),
                            bytes_read: 10,
                            wall_micros: 5000,
                            io_seconds: 0.2,
                            deadline_slack_micros: Some(-150),
                            kept_fraction: None,
                            generation: 1,
                        },
                        SlowQueryRecord {
                            table: "t".into(),
                            query: "q2".into(),
                            bytes_read: 7,
                            wall_micros: 900,
                            io_seconds: 0.01,
                            deadline_slack_micros: None,
                            kept_fraction: Some(0.004),
                            generation: 2,
                        },
                    ],
                    ..ServerStats::default()
                })),
            ),
            (
                7,
                Message::Response(Response::Error {
                    code: ErrorCode::Overloaded,
                    retry_after_micros: 30_000,
                    message: "queued 0.8s of modeled scan work".into(),
                }),
            ),
            (
                9,
                Message::Request(Request::Subscribe {
                    follower_id: 2,
                    tables: vec![("tpch.lineitem".into(), 0), ("tpch.orders".into(), 17)],
                }),
            ),
            (
                10,
                Message::Request(Request::ReplAck {
                    table: "tpch.lineitem".into(),
                    seq: 5,
                }),
            ),
            (
                11,
                Message::Response(Response::SubscribeOk {
                    tables: vec![("tpch.lineitem".into(), 5), ("tpch.orders".into(), 17)],
                }),
            ),
            (
                12,
                Message::Response(Response::ReplBatch {
                    table: "tpch.lineitem".into(),
                    first_seq: 3,
                    records: vec![
                        ReplRecord::Ingest {
                            generation: 4,
                            batch: vec![0, 3, 0, 0, 0, 0, 0, 0, 0, 0],
                        },
                        ReplRecord::Ledger {
                            generation: 4,
                            entry: LedgerEntry {
                                client_id: 0xDEAD_BEEF,
                                sequence: 42,
                                rows_appended: 3,
                                rows_deleted: 1,
                                wal_bytes: 128,
                                io_seconds: 0.002,
                                delta_rows: 3,
                                delta_bytes: 90,
                            },
                        },
                        ReplRecord::Publish {
                            generation: 5,
                            layout: vec![vec![4], vec![0, 1, 2, 3, 5]],
                        },
                    ],
                }),
            ),
            (13, Message::Response(Response::Heartbeat)),
            (
                14,
                Message::Response(Response::Error {
                    code: ErrorCode::NotPrimary,
                    retry_after_micros: 0,
                    message: "127.0.0.1:4710".into(),
                }),
            ),
        ]
    }

    #[test]
    fn every_message_kind_roundtrips() {
        for (id, msg) in sample_envelopes() {
            let bytes = encode_envelope(id, &msg);
            let mut fb = FrameBuffer::new();
            fb.extend(&bytes);
            let env = fb.next_frame().unwrap().expect("complete frame");
            assert_eq!(env.request_id, id);
            assert_eq!(env.msg, msg);
            assert_eq!(fb.pending(), 0);
            assert!(fb.next_frame().unwrap().is_none());
        }
    }

    #[test]
    fn frames_decode_across_arbitrary_read_boundaries() {
        let envelopes = sample_envelopes();
        let mut stream = Vec::new();
        for (id, msg) in &envelopes {
            stream.extend_from_slice(&encode_envelope(*id, msg));
        }
        for chunk in [1usize, 2, 3, 7, 16, 61] {
            let mut fb = FrameBuffer::new();
            let mut decoded = Vec::new();
            for piece in stream.chunks(chunk) {
                fb.extend(piece);
                while let Some(env) = fb.next_frame().unwrap() {
                    decoded.push((env.request_id, env.msg));
                }
            }
            assert_eq!(decoded, envelopes, "chunk size {chunk}");
        }
    }

    #[test]
    fn oversized_and_undersized_lengths_are_typed_errors() {
        let mut fb = FrameBuffer::new();
        fb.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        fb.extend(&[0u8; 4]);
        assert!(matches!(fb.next_frame(), Err(WireError::TooLarge(_))));
        let mut fb = FrameBuffer::new();
        fb.extend(&3u32.to_le_bytes());
        fb.extend(&[0u8; 4]);
        assert!(matches!(fb.next_frame(), Err(WireError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_in_a_valid_crc_frame_are_rejected() {
        let mut body = Vec::new();
        encode_body(9, &Message::Request(Request::Stats), &mut body);
        body.push(0xAA); // trailing garbage, CRC'd over
        let mut out = Vec::new();
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        let mut fb = FrameBuffer::new();
        fb.extend(&out);
        match fb.next_frame() {
            Err(WireError::Corrupt(m)) => assert!(m.contains("trailing")),
            other => panic!("expected trailing-byte rejection, got {other:?}"),
        }
    }
}
