//! # slicer-net
//!
//! Fault-tolerant network serving tier over a
//! [`slicer_lifecycle::TableFleet`].
//!
//! The crate has three parts:
//!
//! * [`frame`] — the wire protocol: length-prefixed, CRC-framed,
//!   request-id-tagged messages (scan, ingest batch, stats; typed error
//!   frames), with an incremental decoder that rejects every malformed
//!   byte stream at the exact first violation and never panics on
//!   arbitrary input.
//! * [`Server`] — a thread-per-connection server whose scan path never
//!   waits on the fleet lock (routes are pinned `Arc` handles, serve
//!   metrics fold back under `try_lock`), with disk-model-derived
//!   admission control, deadline-aware grants, an idempotency ledger for
//!   exactly-once ingest under client retries, and a ring-buffered
//!   slow-query log ([`SlowQueryLog`]).
//! * [`FaultyStream`] — transport-level fault injection (cut, bit-flip,
//!   delay, at exact byte offsets) so the test suites can prove the
//!   guarantees above at every frame boundary.
//!
//! The matching client (retries with capped exponential backoff,
//! reconnects, deadline propagation, idempotent ingest sequences) lives
//! in `slicer-client`; it depends on this crate for the codec and the
//! [`WireStream`] abstraction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod frame;
mod server;
mod slowlog;

pub use fault::{Fault, FaultKind, FaultPlan, FaultyStream, WireStream};
pub use frame::{
    encode_envelope, encode_request, encode_response, Envelope, ErrorCode, FrameBuffer,
    LedgerEntry, Message, ReplRecord, Request, Response, ServerStats, SlowQueryRecord, WireError,
    MAX_FRAME_LEN, MAX_PRED_CLAUSES, MAX_REPL_RECORDS,
};
pub use server::{
    FollowerConnector, ReplStats, Server, ServerConfig, ServerHandle, ServerRole, TableReplStats,
};
pub use slowlog::SlowQueryLog;
