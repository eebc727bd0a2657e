//! # slicer-storage
//!
//! A mini column(-group) storage engine: the workspace's substitute for
//! the commercial "DBMS-X" the paper uses in Table 7, and the end-to-end
//! validation path for the cost model.
//!
//! * [`data`] — deterministic (and rayon-parallel) TPC-H-flavored data
//!   generation, plus the FNV fingerprint primitives every scan path
//!   shares;
//! * [`compress`] — plain / dictionary / delta / LZ77-class codecs with
//!   the fixed-versus-variable-width distinction Table 7 hinges on, and
//!   the streaming per-codec cursor API ([`compress::DeltaCursor`],
//!   [`compress::DictLayout`], [`compress::lz_decompress_into`]);
//! * [`cursor`] — segments readied for blocked fingerprinting
//!   (zero-copy for fixed-width codecs, scratch-decoded for
//!   variable-width ones);
//! * [`executor`] — the vectorized [`executor::ScanExecutor`]: one shared
//!   (`&self`) scan entry point,
//!   [`executor::ScanExecutor::scan_query_snapshot`], with pooled
//!   per-thread scratch, explicit
//!   cold/warm decode-cache modes, rayon-parallel decode across
//!   partitions, blocked tuple reconstruction — and predicate scans that
//!   skip chunks the pruning metadata proves empty of matches;
//! * [`prune`] — chunk-granular zone maps + bloom filters, built at
//!   encode time, persisted with the partition files, consulted by the
//!   executor to skip blocks and by the cost layer to price the skip;
//! * [`engine`] — immutable [`engine::TableSnapshot`] partition files over
//!   a simulated disk, pinned by cloning an `Arc` under a short lock,
//!   double-buffered zero-stall [`engine::StoredTable::repartition`], and
//!   [`engine::scan_naive_query_snapshot`], the original
//!   materialize-then-iterate executor kept as the correctness oracle and
//!   benchmark baseline;
//! * [`backend`] — the pluggable durable [`backend::Dir`] namespace
//!   (filesystem, in-memory, and the crash-injecting wrapper driving the
//!   recovery property suite);
//! * [`encoding`] — the byte rules every binary format shares: CRC-32,
//!   the `len ‖ crc ‖ body` record frame of WAL records and wire frames,
//!   and the bounded little-endian cursor;
//! * [`wal`] — the CRC-framed, sequence-numbered write-ahead log plus the
//!   manifest and partition-file images, with torn-tail recovery;
//! * [`delta`] — the row-store delta of validated
//!   [`delta::IngestBatch`]es that scans merge over the columnar base
//!   until a repartition folds it in.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod compress;
pub mod cursor;
pub mod data;
pub mod delta;
pub mod encoding;
pub mod engine;
pub mod executor;
pub mod prune;
pub mod wal;

pub use backend::{CrashDir, CrashPoint, Dir, FsDir, MemDir, StorageError};
pub use compress::{decode, default_codec, encode, Codec, EncodedColumn};
pub use data::{generate_table, generate_table_seq, ColumnData, TableData};
pub use delta::{decode_ingest_batch, encode_ingest_batch, DeltaBatch, DeltaState, IngestBatch};
pub use encoding::crc32;
pub use engine::{
    scan_naive_query_snapshot, CompressionPolicy, IngestStats, PartitionFile, RepartitionStats,
    ReplEvent, ReplOp, ReplTap, ScanResult, StoredTable, TableSnapshot,
};
pub use executor::{CacheMode, ScanExecutor};
pub use prune::{ChunkStats, ColumnPrune, CHUNK_ROWS};
pub use wal::{RecoveryReport, TornTail, WalRecord};
