//! # slicer-client
//!
//! The retrying client half of the wire protocol in
//! [`slicer_net::frame`].
//!
//! Every operation — [`Client::scan`], [`Client::ingest`],
//! [`Client::server_stats`] — is safe to retry blind:
//!
//! * scans and stats are read-only;
//! * each ingest is assigned a client sequence number **once**, before
//!   the first attempt, and every retry re-sends the same sequence. The
//!   server's idempotency ledger recognizes a replay of an
//!   already-applied sequence and answers from the ledger instead of
//!   applying the batch again — so "the reply got lost" and "the request
//!   got lost" are indistinguishable to the client *and harmless*.
//!
//! On a transport failure (connection refused/cut, corrupt frame, local
//! timeout) the client drops the connection, sleeps a capped exponential
//! backoff, reconnects, and tries again up to
//! [`ClientConfig::max_attempts`]. A typed
//! [`ErrorCode::Overloaded`] reply keeps the connection (the server is
//! healthy, just shedding) and honors the server-suggested
//! `retry_after`. All other typed errors are final for the operation and
//! surface as [`ClientError::Server`].
//!
//! An operation-level deadline ([`ClientConfig::deadline`]) caps the
//! whole retry loop and is *propagated*: each attempt re-computes the
//! remaining budget and sends it in the request, so the server's
//! deadline-aware admission can refuse work the client would abandon
//! anyway.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use slicer_model::Query;
use slicer_net::frame::{
    encode_request, ErrorCode, FrameBuffer, Message, Request, Response, ServerStats,
};
use slicer_net::WireStream;
use slicer_storage::{encode_ingest_batch, IngestBatch};
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a [`Client`] obtains a fresh connection. Tests inject connectors
/// that wrap the stream in [`slicer_net::FaultyStream`] or dial a
/// restarted server at a new port.
pub type Connector = Box<dyn FnMut() -> std::io::Result<Box<dyn WireStream>> + Send>;

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Stable client identity — the namespace of the ingest idempotency
    /// ledger. Two concurrent clients must not share an id.
    pub client_id: u64,
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-attempt reply timeout; an attempt that exceeds it drops the
    /// connection and retries.
    pub request_timeout: Duration,
    /// Operation deadline across *all* attempts, propagated to the
    /// server per attempt as the remaining budget. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Attempts per operation (first try included).
    pub max_attempts: u32,
    /// First backoff sleep; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the backoff jitter stream. `0` (the default) derives the
    /// seed from `client_id`, so distinct clients decorrelate out of the
    /// box — after a primary dies, a fleet of reconnecting clients must
    /// not hammer the promoted follower in lockstep.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            client_id: 1,
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(5),
            deadline: None,
            max_attempts: 6,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            jitter_seed: 0,
        }
    }
}

/// Retry/robustness counters, kept per client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Attempts sent (first tries included).
    pub attempts: u64,
    /// Attempts beyond the first, per operation.
    pub retries: u64,
    /// Connections established beyond the first.
    pub reconnects: u64,
    /// `Overloaded` sheds honored.
    pub overloaded: u64,
    /// `NotPrimary` answers that retargeted the next server in the list.
    pub not_primary: u64,
    /// Failovers: connections established to a *different* server in the
    /// list than the previous one.
    pub failovers: u64,
    /// Frames rejected by the local decoder (checksum/format violations).
    pub corrupt_frames: u64,
    /// Attempts abandoned on the per-attempt reply timeout.
    pub timeouts: u64,
}

/// Why an operation failed for good.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The server answered with a final typed error.
    Server {
        /// The typed code.
        code: ErrorCode,
        /// Server-side detail.
        message: String,
    },
    /// Every attempt failed on transport/corruption/timeout.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The last attempt's failure.
        last_error: String,
    },
    /// The operation deadline expired before an attempt could succeed.
    DeadlineExceeded {
        /// Attempts made before the budget ran out.
        attempts: u32,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            ClientError::RetriesExhausted {
                attempts,
                last_error,
            } => write!(f, "gave up after {attempts} attempts: {last_error}"),
            ClientError::DeadlineExceeded { attempts } => {
                write!(f, "operation deadline expired after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A successful scan as seen over the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanReply {
    /// Order-independent checksum over the projected values —
    /// bit-identical to an in-process scan of the same snapshot.
    pub checksum: u64,
    /// Compressed bytes read.
    pub bytes_read: u64,
    /// Modeled disk seconds.
    pub io_seconds: f64,
    /// Measured decode CPU seconds.
    pub cpu_seconds: f64,
    /// The kept-row fraction the server re-stamped from its own pruning
    /// metadata (1.0 for predicate-less scans). Always the server's
    /// measurement — the estimate carried in the request is discarded.
    pub kept_fraction: f64,
    /// Snapshot generation the scan pinned.
    pub generation: u64,
}

/// A durable (or deduplicated) ingest as seen over the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestReply {
    /// Rows appended.
    pub rows_appended: u64,
    /// Rows tombstoned.
    pub rows_deleted: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// Modeled WAL-append disk seconds.
    pub io_seconds: f64,
    /// Delta rows pending after the batch.
    pub delta_rows: u64,
    /// Delta bytes pending after the batch.
    pub delta_bytes: u64,
    /// True iff the server recognized the sequence as already applied
    /// and did **not** re-apply the batch.
    pub deduped: bool,
}

/// The server list a failover-aware client rotates through (see
/// [`Client::connect_list`]). `current` is the index scans are routed
/// to; order the list primary-first for primary-preference routing.
struct TargetList {
    servers: Vec<SocketAddr>,
    current: AtomicUsize,
}

/// The retrying wire client. Not `Sync` — one client per thread, each
/// with its own `client_id`.
pub struct Client {
    cfg: ClientConfig,
    connector: Connector,
    stream: Option<Box<dyn WireStream>>,
    ever_connected: bool,
    next_request_id: u64,
    next_sequence: u64,
    stats: ClientStats,
    /// Jitter PRNG state (xorshift64*), seeded from
    /// [`ClientConfig::jitter_seed`] or `client_id`.
    rng: u64,
    /// Failover server list, when built by [`Client::connect_list`].
    targets: Option<Arc<TargetList>>,
    /// List index of the previous successful connection, for counting
    /// failovers.
    last_target: Option<usize>,
}

/// Poll granularity while waiting for a reply.
const READ_POLL: Duration = Duration::from_millis(10);

/// The deterministic capped-exponential backoff *envelope*; the applied
/// sleep is jittered within it (see [`jittered_delay`]).
fn backoff_delay(base: Duration, cap: Duration, retry_index: u32) -> Duration {
    let factor = 1u32 << retry_index.min(16);
    base.saturating_mul(factor).min(cap)
}

/// xorshift64* step. State must be non-zero.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Jitter `envelope` uniformly into `[0.5, 1.0) × envelope`: the
/// schedule keeps its exponential shape (never collapses to zero — a
/// thundering herd of instant retries is as bad as a synchronized one)
/// while two clients with different seeds decorrelate.
fn jittered_delay(envelope: Duration, rng: &mut u64) -> Duration {
    let frac = 0.5 + (xorshift64(rng) >> 11) as f64 / (1u64 << 53) as f64 * 0.5;
    envelope.mul_f64(frac)
}

/// The jitter stream's seed: explicit, or derived from the client id
/// (SplitMix64's golden-ratio increment spreads adjacent ids across the
/// state space); forced odd so xorshift never sees zero.
fn jitter_seed(cfg: &ClientConfig) -> u64 {
    let raw = if cfg.jitter_seed != 0 {
        cfg.jitter_seed
    } else {
        cfg.client_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    };
    raw | 1
}

impl Client {
    /// A client dialing `addr` over TCP.
    pub fn connect(addr: SocketAddr, cfg: ClientConfig) -> Client {
        let connect_timeout = cfg.connect_timeout;
        Client::with_connector(
            cfg,
            Box::new(move || {
                let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
                stream.set_nodelay(true).ok();
                Ok(Box::new(stream) as Box<dyn WireStream>)
            }),
        )
    }

    /// A failover-aware client over a server list: dialing starts at the
    /// current target (initially `servers[0]` — list the primary first)
    /// and rotates through the list until a socket connects. A typed
    /// `NotPrimary` answer retargets to the leader hint (when it names a
    /// listed server) or the next server, so after a promotion both
    /// scans and the idempotent ingest sequence converge on the new
    /// primary without the caller doing anything.
    pub fn connect_list(servers: Vec<SocketAddr>, cfg: ClientConfig) -> Client {
        assert!(!servers.is_empty(), "server list must not be empty");
        let targets = Arc::new(TargetList {
            servers,
            current: AtomicUsize::new(0),
        });
        let connect_timeout = cfg.connect_timeout;
        let dial = Arc::clone(&targets);
        let mut client = Client::with_connector(
            cfg,
            Box::new(move || {
                let n = dial.servers.len();
                let start = dial.current.load(Ordering::Relaxed) % n;
                let mut last_err = None;
                for offset in 0..n {
                    let idx = (start + offset) % n;
                    match TcpStream::connect_timeout(&dial.servers[idx], connect_timeout) {
                        Ok(stream) => {
                            stream.set_nodelay(true).ok();
                            dial.current.store(idx, Ordering::Relaxed);
                            return Ok(Box::new(stream) as Box<dyn WireStream>);
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                Err(last_err.expect("server list is non-empty"))
            }),
        );
        client.targets = Some(targets);
        client
    }

    /// A client over an arbitrary connection factory (fault-injection
    /// tests live here).
    pub fn with_connector(cfg: ClientConfig, connector: Connector) -> Client {
        let rng = jitter_seed(&cfg);
        Client {
            cfg,
            connector,
            stream: None,
            ever_connected: false,
            next_request_id: 1,
            next_sequence: 1,
            stats: ClientStats::default(),
            rng,
            targets: None,
            last_target: None,
        }
    }

    /// Retry counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Scan `table` with `query`, retrying until a result, a final typed
    /// error, or exhaustion.
    ///
    /// A [`Query`] carrying a predicate ships it on the wire: the server
    /// validates the conjunction against its live schema, re-stamps
    /// `kept_fraction` from its own pruning metadata (the estimate in
    /// `query.predicate` is never trusted), prunes the scan, and prices
    /// admission on the pruned cost. Retries re-send the identical
    /// request — scans are read-only, so predicated scans stay as
    /// blind-retryable as pure projections.
    pub fn scan(&mut self, table: &str, query: &Query) -> Result<ScanReply, ClientError> {
        let attrs: Vec<u16> = query.referenced.iter().map(|a| a.index() as u16).collect();
        let template = Request::Scan {
            table: table.to_string(),
            query_name: query.name.clone(),
            weight: query.weight,
            attrs,
            predicate: query.predicate.clone(),
            deadline_micros: 0,
        };
        match self.roundtrip(template)? {
            Response::ScanOk {
                checksum,
                bytes_read,
                io_seconds,
                cpu_seconds,
                kept_fraction,
                generation,
            } => Ok(ScanReply {
                checksum,
                bytes_read,
                io_seconds,
                cpu_seconds,
                kept_fraction,
                generation,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Apply `batch` to `table` exactly once, retrying under the
    /// idempotency sequence assigned here.
    pub fn ingest(&mut self, table: &str, batch: &IngestBatch) -> Result<IngestReply, ClientError> {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        let template = Request::Ingest {
            table: table.to_string(),
            client_id: self.cfg.client_id,
            sequence,
            deadline_micros: 0,
            batch: encode_ingest_batch(batch),
        };
        match self.roundtrip(template)? {
            Response::IngestOk {
                rows_appended,
                rows_deleted,
                wal_bytes,
                io_seconds,
                delta_rows,
                delta_bytes,
                deduped,
            } => Ok(IngestReply {
                rows_appended,
                rows_deleted,
                wal_bytes,
                io_seconds,
                delta_rows,
                delta_bytes,
                deduped,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the server's counters and slow-query log.
    pub fn server_stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.roundtrip(Request::Stats)? {
            Response::StatsOk(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// The retry loop shared by every operation.
    fn roundtrip(&mut self, template: Request) -> Result<Response, ClientError> {
        let op_deadline = self.cfg.deadline.map(|d| Instant::now() + d);
        let mut attempts = 0u32;
        let mut last_error = String::from("no attempt made");
        while attempts < self.cfg.max_attempts {
            let remaining = match remaining_budget(op_deadline) {
                Some(r) => r,
                None => return Err(ClientError::DeadlineExceeded { attempts }),
            };
            if attempts > 0 {
                self.stats.retries += 1;
            }
            attempts += 1;
            self.stats.attempts += 1;
            let request = with_deadline(&template, remaining);
            match self.attempt(&request, remaining) {
                Ok(Response::Error {
                    code: ErrorCode::Overloaded,
                    retry_after_micros,
                    ..
                }) => {
                    // The server is healthy, just shedding: keep the
                    // connection, honor its suggested delay.
                    self.stats.overloaded += 1;
                    last_error = format!("shed by server (retry after {retry_after_micros} us)");
                    let suggested = Duration::from_micros(retry_after_micros);
                    let envelope =
                        backoff_delay(self.cfg.backoff_base, self.cfg.backoff_cap, attempts - 1);
                    let backoff = jittered_delay(envelope, &mut self.rng);
                    self.sleep_within(suggested.max(backoff), op_deadline);
                }
                Ok(Response::Error {
                    code: ErrorCode::ShuttingDown,
                    ..
                }) => {
                    // The server is draining; this connection is done.
                    self.stream = None;
                    last_error = "server shutting down".to_string();
                    self.backoff(attempts, op_deadline);
                }
                Ok(Response::Error {
                    code: ErrorCode::NotPrimary,
                    message,
                    ..
                }) => {
                    // A follower refused a write. With a server list,
                    // retarget — to the leader hint when it names a
                    // listed server, otherwise the next in the list —
                    // and retry there; without one, the error is final.
                    let Some(targets) = self.targets.clone() else {
                        return Err(ClientError::Server {
                            code: ErrorCode::NotPrimary,
                            message,
                        });
                    };
                    self.stats.not_primary += 1;
                    self.stream = None;
                    let n = targets.servers.len();
                    let cur = targets.current.load(Ordering::Relaxed) % n;
                    let next = message
                        .trim()
                        .parse::<SocketAddr>()
                        .ok()
                        .and_then(|hint| targets.servers.iter().position(|s| *s == hint))
                        .filter(|&idx| idx != cur)
                        .unwrap_or((cur + 1) % n);
                    targets.current.store(next, Ordering::Relaxed);
                    last_error = format!("not primary (retargeting to server #{next})");
                    self.backoff(attempts, op_deadline);
                }
                Ok(Response::Error { code, message, .. }) => {
                    return Err(ClientError::Server { code, message });
                }
                Ok(resp) => return Ok(resp),
                Err(err) => {
                    self.stream = None;
                    last_error = err;
                    self.backoff(attempts, op_deadline);
                }
            }
        }
        Err(ClientError::RetriesExhausted {
            attempts,
            last_error,
        })
    }

    fn backoff(&mut self, attempts: u32, op_deadline: Option<Instant>) {
        let envelope = backoff_delay(self.cfg.backoff_base, self.cfg.backoff_cap, attempts - 1);
        let delay = jittered_delay(envelope, &mut self.rng);
        self.sleep_within(delay, op_deadline);
    }

    /// Sleep `delay`, clipped so the operation deadline is not slept
    /// through.
    fn sleep_within(&self, delay: Duration, op_deadline: Option<Instant>) {
        let clipped = match op_deadline {
            Some(t) => delay.min(t.saturating_duration_since(Instant::now())),
            None => delay,
        };
        if !clipped.is_zero() {
            std::thread::sleep(clipped);
        }
    }

    /// One send + receive on the current (or a fresh) connection.
    /// Any `Err` means the connection can no longer be trusted.
    fn attempt(
        &mut self,
        request: &Request,
        remaining: Option<Duration>,
    ) -> Result<Response, String> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        if self.stream.is_none() {
            let stream = (self.connector)().map_err(|e| format!("connect failed: {e}"))?;
            if self.ever_connected {
                self.stats.reconnects += 1;
            }
            self.ever_connected = true;
            self.stream = Some(stream);
            if let Some(targets) = &self.targets {
                let idx = targets.current.load(Ordering::Relaxed);
                if self.last_target.is_some_and(|prev| prev != idx) {
                    self.stats.failovers += 1;
                }
                self.last_target = Some(idx);
            }
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream
            .set_read_timeout(Some(READ_POLL))
            .map_err(|e| format!("set_read_timeout failed: {e}"))?;
        stream
            .write_all(&encode_request(request_id, request))
            .map_err(|e| format!("send failed: {e}"))?;
        stream.flush().map_err(|e| format!("flush failed: {e}"))?;

        let budget = match remaining {
            Some(r) => self.cfg.request_timeout.min(r),
            None => self.cfg.request_timeout,
        };
        let wait_until = Instant::now() + budget;
        let mut fb = FrameBuffer::new();
        let mut buf = [0u8; 16 * 1024];
        loop {
            match fb.next_frame() {
                Ok(Some(env)) if env.request_id == request_id => match env.msg {
                    Message::Response(resp) => return Ok(resp),
                    Message::Request(_) => {
                        self.stats.corrupt_frames += 1;
                        return Err("server sent a request frame".to_string());
                    }
                },
                // A reply to an abandoned earlier request id on a reused
                // connection: skip it, keep waiting for ours.
                Ok(Some(_)) => continue,
                Ok(None) => {}
                Err(err) => {
                    self.stats.corrupt_frames += 1;
                    return Err(format!("reply stream corrupt: {err}"));
                }
            }
            if Instant::now() >= wait_until {
                self.stats.timeouts += 1;
                return Err(format!("no reply within {budget:?}"));
            }
            match stream.read(&mut buf) {
                Ok(0) => return Err("connection closed by server".to_string()),
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
}

/// `None` = the budget is spent; `Some(None)` = no deadline configured.
#[allow(clippy::option_option)]
fn remaining_budget(op_deadline: Option<Instant>) -> Option<Option<Duration>> {
    match op_deadline {
        None => Some(None),
        Some(t) => {
            let left = t.saturating_duration_since(Instant::now());
            if left.is_zero() {
                None
            } else {
                Some(Some(left))
            }
        }
    }
}

/// Re-stamp the request's deadline field with the remaining budget.
fn with_deadline(template: &Request, remaining: Option<Duration>) -> Request {
    let micros = remaining
        .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
        .max(u64::from(remaining.is_some()));
    let mut req = template.clone();
    match &mut req {
        Request::Scan {
            deadline_micros, ..
        }
        | Request::Ingest {
            deadline_micros, ..
        } => *deadline_micros = micros,
        // Replication frames are server-to-server; the client never
        // sends them and they carry no deadline.
        Request::Stats | Request::Subscribe { .. } | Request::ReplAck { .. } => {}
    }
    req
}

fn unexpected(resp: Response) -> ClientError {
    ClientError::Server {
        code: ErrorCode::Internal,
        message: format!("response kind does not match the request: {resp:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(120);
        let delays: Vec<_> = (0..6).map(|i| backoff_delay(base, cap, i)).collect();
        assert_eq!(
            delays,
            vec![
                Duration::from_millis(10),
                Duration::from_millis(20),
                Duration::from_millis(40),
                Duration::from_millis(80),
                Duration::from_millis(120),
                Duration::from_millis(120),
            ]
        );
    }

    #[test]
    fn backoff_shift_saturates_instead_of_overflowing() {
        let d = backoff_delay(Duration::from_millis(1), Duration::from_secs(1), 40);
        assert_eq!(d, Duration::from_secs(1));
    }

    #[test]
    fn jitter_stays_inside_the_envelope() {
        let mut rng = 0xDEAD_BEEF_u64 | 1;
        let envelope = Duration::from_millis(100);
        for _ in 0..1_000 {
            let d = jittered_delay(envelope, &mut rng);
            assert!(
                d >= Duration::from_millis(50) && d < Duration::from_millis(100),
                "jittered delay {d:?} escaped [0.5, 1.0) x {envelope:?}"
            );
        }
    }

    #[test]
    fn jitter_schedules_decorrelate_across_clients() {
        // Two clients that die together (their shared primary crashed)
        // must not retry in lockstep against the promoted follower. The
        // seeds differ only in client_id — the default derivation.
        let cfg_a = ClientConfig {
            client_id: 1,
            ..ClientConfig::default()
        };
        let cfg_b = ClientConfig {
            client_id: 2,
            ..ClientConfig::default()
        };
        let schedule = |cfg: &ClientConfig| -> Vec<Duration> {
            let mut rng = jitter_seed(cfg);
            (0..8)
                .map(|i| {
                    jittered_delay(
                        backoff_delay(cfg.backoff_base, cfg.backoff_cap, i),
                        &mut rng,
                    )
                })
                .collect()
        };
        let a = schedule(&cfg_a);
        let b = schedule(&cfg_b);
        let distinct = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(
            distinct >= 6,
            "retry schedules too correlated: {a:?} vs {b:?}"
        );
        // Same seed → same schedule: failover tests stay reproducible.
        assert_eq!(a, schedule(&cfg_a));
        // An explicit seed overrides the derived one.
        let cfg_c = ClientConfig {
            client_id: 1,
            jitter_seed: 7,
            ..ClientConfig::default()
        };
        assert_ne!(a, schedule(&cfg_c));
    }

    #[test]
    fn deadline_is_restamped_per_attempt() {
        let template = Request::Scan {
            table: "t".into(),
            query_name: "q".into(),
            weight: 1.0,
            attrs: vec![0],
            predicate: None,
            deadline_micros: 0,
        };
        let stamped = with_deadline(&template, Some(Duration::from_millis(3)));
        match stamped {
            Request::Scan {
                deadline_micros, ..
            } => assert_eq!(deadline_micros, 3_000),
            _ => unreachable!(),
        }
        // No configured deadline → the wire field stays 0 ("none").
        let unstamped = with_deadline(&template, None);
        match unstamped {
            Request::Scan {
                deadline_micros, ..
            } => assert_eq!(deadline_micros, 0),
            _ => unreachable!(),
        }
        // A nearly-spent budget still propagates a non-zero deadline (0
        // would mean "no deadline" to the server).
        let tiny = with_deadline(&template, Some(Duration::from_nanos(10)));
        match tiny {
            Request::Scan {
                deadline_micros, ..
            } => assert_eq!(deadline_micros, 1),
            _ => unreachable!(),
        }
    }
}
