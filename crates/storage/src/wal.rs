//! On-disk formats: the write-ahead log, the manifest, and the partition
//! file image — everything a [`crate::backend::Dir`] holds.
//!
//! # WAL records
//!
//! A WAL file is a run of [`crate::encoding`] record frames whose body is
//! `seq u64 ‖ kind u8 ‖ payload`. `seq` is a per-table monotone sequence
//! number with no gaps. A `Publish` payload is its generation (`u64`); an
//! `Ingest` payload is the batch's [`crate::encode_ingest_batch`] image,
//! the same bytes a wire client sends. Recovery walks records until the
//! first one that fails *any* check — truncated header or body, bad CRC,
//! sequence gap, unknown kind, malformed payload — and drops that suffix
//! as the torn tail, reporting (never panicking over) what it discarded
//! in a [`TornTail`]. An `append` interrupted by a crash leaves exactly
//! such a suffix, so an unacknowledged batch can never half-apply.
//!
//! # Manifest
//!
//! The manifest is the atom of snapshot publication: one CRC-guarded
//! file, replaced via [`crate::backend::Dir::write_atomic`], naming the
//! current generation, its partition files, and the active WAL file (plus
//! the sequence number its first record must carry). A repartition writes
//! the new partition files and the new (empty-but-for-its-`Publish`
//! record) WAL *first*, then swings the manifest: a crash on either side
//! of the swing recovers to a consistent generation — old until the
//! manifest lands, new after — and the stale files it may leave behind
//! are deleted on the next [`crate::engine::StoredTable::open`].

use crate::backend::StorageError;
use crate::compress::{Codec, EncodedColumn};
use crate::delta::{decode_ingest_batch, put_ingest_batch, IngestBatch};
use crate::encoding::{
    crc32, put_blob, put_str, seal_record, take_blob, take_bytes, take_i64, take_str, take_u32,
    take_u64, take_u8, take_vec, unseal_record, Count, DecodeError, RECORD_HEADER,
};
use crate::engine::{CompressionPolicy, PartitionFile};
use crate::prune::{ChunkStats, ColumnPrune};
use bytes::Bytes;
use slicer_model::{AttrId, AttrSet};
use std::fmt;

/// The manifest's fixed file name.
pub(crate) const MANIFEST: &str = "MANIFEST";

/// WAL file name for a generation.
pub(crate) fn wal_name(generation: u64) -> String {
    format!("wal-{generation}.log")
}

/// Partition file name for partition `idx` of a generation.
pub(crate) fn part_name(generation: u64, idx: usize) -> String {
    format!("part-{generation}-{idx}.seg")
}

// --- WAL records ------------------------------------------------------

const KIND_PUBLISH: u8 = 1;
const KIND_INGEST: u8 = 2;

/// One WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// First record of every WAL file: names the snapshot generation the
    /// following records apply to (cross-checked against the manifest).
    Publish {
        /// The generation this WAL file belongs to.
        generation: u64,
    },
    /// One atomic ingest batch (normalized): appended rows and/or
    /// tombstoned row ids, sorted.
    Ingest(IngestBatch),
}

/// Serialize one record (header + payload) for appending to the WAL.
pub(crate) fn encode_record(seq: u64, record: &WalRecord) -> Vec<u8> {
    seal_record(|body| {
        body.extend_from_slice(&seq.to_le_bytes());
        match record {
            WalRecord::Publish { generation } => {
                body.push(KIND_PUBLISH);
                body.extend_from_slice(&generation.to_le_bytes());
            }
            WalRecord::Ingest(batch) => {
                body.push(KIND_INGEST);
                put_ingest_batch(batch, body);
            }
        }
    })
}

/// What recovery discarded from the end of a WAL file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Bytes of intact records kept.
    pub valid_bytes: usize,
    /// Bytes dropped from the tail.
    pub discarded_bytes: usize,
    /// Why the first dropped byte failed validation.
    pub reason: String,
}

/// Decode every intact record of a WAL image. Walks records from the
/// front, verifying length, CRC, and the gap-free sequence starting at
/// `first_seq`; stops at the first violation and reports the dropped
/// suffix as a [`TornTail`]. Returns the records, the next expected
/// sequence number, and the torn tail (if any). Never panics on
/// arbitrary input.
pub(crate) fn decode_wal(bytes: &[u8], first_seq: u64) -> (Vec<WalRecord>, u64, Option<TornTail>) {
    let mut records = Vec::new();
    let mut expect = first_seq;
    let mut off = 0usize;
    let torn = loop {
        if off == bytes.len() {
            break None;
        }
        let tear = |reason: String| TornTail {
            valid_bytes: off,
            discarded_bytes: bytes.len() - off,
            reason,
        };
        let body = match unseal_record(&bytes[off..], u32::MAX) {
            Ok(body) => body,
            Err(e) => break Some(tear(e.to_string())),
        };
        let mut payload = body;
        match take_u64(&mut payload) {
            Ok(seq) if seq == expect => {}
            Ok(seq) => break Some(tear(format!("sequence gap: wanted {expect}, found {seq}"))),
            Err(e) => break Some(tear(e.to_string())),
        }
        match decode_record_body(payload) {
            Ok(record) => records.push(record),
            Err(e) => break Some(tear(format!("malformed record payload: {e}"))),
        }
        expect += 1;
        off += RECORD_HEADER + body.len();
    };
    (records, expect, torn)
}

fn decode_record_body(mut body: &[u8]) -> Result<WalRecord, StorageError> {
    match take_u8(&mut body)? {
        KIND_INGEST => return Ok(WalRecord::Ingest(decode_ingest_batch(body)?)),
        KIND_PUBLISH => {}
        other => {
            return Err(StorageError::Corrupt(format!(
                "unknown record kind {other}"
            )));
        }
    }
    let generation = take_u64(&mut body)?;
    if !body.is_empty() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes in record",
            body.len()
        )));
    }
    Ok(WalRecord::Publish { generation })
}

/// What [`crate::engine::StoredTable::open`] found and did: the replay
/// outcome the caller is expected to log, torn tail included.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The generation the manifest published.
    pub generation: u64,
    /// Ingest records replayed from the WAL.
    pub wal_records: u64,
    /// Rows re-appended into the delta by replay.
    pub rows_appended: u64,
    /// Tombstones re-applied by replay.
    pub rows_deleted: u64,
    /// Stale files (superseded WALs, unreferenced partition files) swept.
    pub orphans_removed: usize,
    /// The WAL suffix recovery discarded, if the tail was torn.
    pub torn: Option<TornTail>,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered generation {} (+{} rows, -{} rows from {} WAL records, {} orphans swept",
            self.generation,
            self.rows_appended,
            self.rows_deleted,
            self.wal_records,
            self.orphans_removed
        )?;
        match &self.torn {
            Some(t) => write!(
                f,
                "; torn tail: dropped {} bytes after {} valid — {})",
                t.discarded_bytes, t.valid_bytes, t.reason
            ),
            None => write!(f, "; tail clean)"),
        }
    }
}

// --- manifest ---------------------------------------------------------

const MANIFEST_MAGIC: &[u8; 4] = b"SLCM";
const PART_MAGIC: &[u8; 4] = b"SLCP";
// Version 2 appends per-segment pruning metadata (zone maps + bloom
// filters) to the partition-file image, so recovery reopens a table with
// its block-skipping stats intact instead of rebuilding or losing them.
const FORMAT_VERSION: u32 = 2;

/// A manifest names at most `u16::MAX` files, each a `u32` length first.
const FILES: Count = Count::new("manifest file count", 4, u16::MAX as usize);
/// A segment's fixed fields: attr u32, codec u8, five u64s.
const SEGMENTS: Count = Count::new("segment count", 45, u16::MAX as usize);
/// A chunk's stats: min and max keys, four bloom words.
const CHUNKS: Count = Count::new("chunk count", 16 + 32, usize::MAX);

/// The decoded manifest: the durable root from which a table reopens.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Manifest {
    /// Published generation.
    pub generation: u64,
    /// Compression policy the partition files are encoded under.
    pub policy: CompressionPolicy,
    /// The active WAL file.
    pub wal_file: String,
    /// Sequence number of the WAL file's first (`Publish`) record.
    pub first_seq: u64,
    /// Partition file names, in layout order.
    pub files: Vec<String>,
}

fn policy_tag(policy: CompressionPolicy) -> u8 {
    match policy {
        CompressionPolicy::Default => 0,
        CompressionPolicy::Dictionary => 1,
        CompressionPolicy::None => 2,
    }
}

fn policy_from_tag(tag: u8) -> Result<CompressionPolicy, StorageError> {
    match tag {
        0 => Ok(CompressionPolicy::Default),
        1 => Ok(CompressionPolicy::Dictionary),
        2 => Ok(CompressionPolicy::None),
        other => Err(StorageError::Corrupt(format!("unknown policy tag {other}"))),
    }
}

/// An image: `magic ‖ FORMAT_VERSION u32 ‖ crc u32 ‖ payload`, the CRC
/// filled in over what `write_payload` appends.
fn frame(magic: &[u8; 4], write_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(magic);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    write_payload(&mut out);
    let crc = crc32(&out[12..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

fn unframe<'a>(magic: &[u8; 4], bytes: &'a [u8], what: &str) -> Result<&'a [u8], StorageError> {
    let mut buf = bytes;
    let found = take_bytes(&mut buf, 4)?;
    if found != magic {
        return Err(StorageError::Corrupt(format!("{what}: bad magic")));
    }
    let version = take_u32(&mut buf)?;
    if version != FORMAT_VERSION {
        return Err(StorageError::Corrupt(format!(
            "{what}: unsupported version {version}"
        )));
    }
    let crc = take_u32(&mut buf)?;
    if crc32(buf) != crc {
        return Err(StorageError::Corrupt(format!("{what}: checksum mismatch")));
    }
    Ok(buf)
}

pub(crate) fn encode_manifest(m: &Manifest) -> Vec<u8> {
    frame(MANIFEST_MAGIC, |payload| {
        payload.extend_from_slice(&m.generation.to_le_bytes());
        payload.push(policy_tag(m.policy));
        put_str(payload, &m.wal_file);
        payload.extend_from_slice(&m.first_seq.to_le_bytes());
        payload.extend_from_slice(&(m.files.len() as u32).to_le_bytes());
        for f in &m.files {
            put_str(payload, f);
        }
    })
}

pub(crate) fn decode_manifest(bytes: &[u8]) -> Result<Manifest, StorageError> {
    let mut buf = unframe(MANIFEST_MAGIC, bytes, "manifest")?;
    let generation = take_u64(&mut buf)?;
    let policy = policy_from_tag(take_u8(&mut buf)?)?;
    let wal_file = take_str(&mut buf, usize::MAX)?;
    let first_seq = take_u64(&mut buf)?;
    let n = take_u32(&mut buf)?.into();
    let files = take_vec(&mut buf, n, FILES, |b| take_str(b, usize::MAX))?;
    if !buf.is_empty() {
        return Err(StorageError::Corrupt("manifest: trailing bytes".into()));
    }
    Ok(Manifest {
        generation,
        policy,
        wal_file,
        first_seq,
        files,
    })
}

// --- partition file image ---------------------------------------------

fn codec_tag(codec: Codec) -> u8 {
    match codec {
        Codec::Plain => 0,
        Codec::Dictionary => 1,
        Codec::Delta => 2,
        Codec::Lz => 3,
    }
}

fn codec_from_tag(tag: u8) -> Result<Codec, StorageError> {
    match tag {
        0 => Ok(Codec::Plain),
        1 => Ok(Codec::Dictionary),
        2 => Ok(Codec::Delta),
        3 => Ok(Codec::Lz),
        other => Err(StorageError::Corrupt(format!("unknown codec tag {other}"))),
    }
}

pub(crate) fn encode_partition_file(file: &PartitionFile) -> Vec<u8> {
    frame(PART_MAGIC, |payload| {
        payload.extend_from_slice(&(file.rows as u64).to_le_bytes());
        payload.extend_from_slice(&(file.segments.len() as u32).to_le_bytes());
        for (aid, seg) in &file.segments {
            payload.extend_from_slice(&(aid.index() as u32).to_le_bytes());
            payload.push(codec_tag(seg.codec));
            payload.extend_from_slice(&(seg.rows as u64).to_le_bytes());
            payload.extend_from_slice(&(seg.dict_entries as u64).to_le_bytes());
            payload.extend_from_slice(&(seg.raw_width as u64).to_le_bytes());
            put_blob(payload, &seg.bytes);
            put_blob(payload, &seg.dict_bytes);
        }
        // Pruning metadata, one run of chunk stats per segment, in segment
        // order: fixed-width records (min, max, 4 bloom words) so the
        // decoder never has to trust a length it cannot bound.
        for prune in &file.prune {
            payload.extend_from_slice(&(prune.chunks.len() as u64).to_le_bytes());
            for c in &prune.chunks {
                payload.extend_from_slice(&c.min_key.to_le_bytes());
                payload.extend_from_slice(&c.max_key.to_le_bytes());
                for w in c.bloom {
                    payload.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
    })
}

pub(crate) fn decode_partition_file(bytes: &[u8]) -> Result<PartitionFile, StorageError> {
    let mut buf = unframe(PART_MAGIC, bytes, "partition file")?;
    let rows = take_u64(&mut buf)? as usize;
    let n = take_u32(&mut buf)?.into();
    let mut attrs = AttrSet::default();
    let segments = take_vec(&mut buf, n, SEGMENTS, |buf| {
        let aid = AttrId(take_u32(buf)? as u16);
        attrs.insert(aid);
        let segment = EncodedColumn {
            codec: codec_from_tag(take_u8(buf)?)?,
            rows: take_u64(buf)? as usize,
            dict_entries: take_u64(buf)? as usize,
            raw_width: take_u64(buf)? as usize,
            bytes: Bytes::from(take_blob(buf)?.to_vec()),
            dict_bytes: Bytes::from(take_blob(buf)?.to_vec()),
        };
        Ok::<_, StorageError>((aid, segment))
    })?;
    let prune = (0..segments.len())
        .map(|_| {
            let count = take_u64(&mut buf)?;
            let chunks = take_vec(&mut buf, count, CHUNKS, |b| {
                Ok::<_, DecodeError>(ChunkStats {
                    min_key: take_i64(b)?,
                    max_key: take_i64(b)?,
                    bloom: [take_u64(b)?, take_u64(b)?, take_u64(b)?, take_u64(b)?],
                })
            })?;
            Ok(ColumnPrune { chunks })
        })
        .collect::<Result<_, StorageError>>()?;
    if !buf.is_empty() {
        return Err(StorageError::Corrupt(
            "partition file: trailing bytes".into(),
        ));
    }
    Ok(PartitionFile {
        attrs,
        segments,
        rows,
        prune,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::encode;
    use crate::data::{ColumnData, TableData};

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Publish { generation: 3 },
            WalRecord::Ingest(IngestBatch {
                appends: Some(TableData {
                    columns: vec![
                        ColumnData::Int(vec![7, 8]),
                        ColumnData::Text(vec!["a".into(), "bc".into()]),
                    ],
                    rows: 2,
                }),
                deletes: vec![],
            }),
            WalRecord::Ingest(IngestBatch {
                appends: None,
                deletes: vec![0, 5],
            }),
            WalRecord::Ingest(IngestBatch {
                appends: Some(TableData {
                    columns: vec![ColumnData::Decimal(vec![1]), ColumnData::Date(vec![30])],
                    rows: 1,
                }),
                deletes: vec![2],
            }),
        ]
    }

    fn encode_all(records: &[WalRecord], first_seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, r) in records.iter().enumerate() {
            out.extend_from_slice(&encode_record(first_seq + i as u64, r));
        }
        out
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_type_roundtrips() {
        let records = sample_records();
        let stream = encode_all(&records, 10);
        let (decoded, next_seq, torn) = decode_wal(&stream, 10);
        assert_eq!(decoded, records);
        assert_eq!(next_seq, 14);
        assert_eq!(torn, None);
    }

    #[test]
    fn every_bit_flip_is_rejected_without_panicking() {
        let records = sample_records();
        let stream = encode_all(&records, 0);
        // Record boundaries, to know how many records precede each byte.
        let mut boundaries = vec![0usize];
        for (i, r) in records.iter().enumerate() {
            boundaries.push(boundaries[i] + encode_record(i as u64, r).len());
        }
        for pos in 0..stream.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut corrupt = stream.clone();
                corrupt[pos] ^= bit;
                let (decoded, _, torn) = decode_wal(&corrupt, 0);
                // Everything before the corrupted record must survive;
                // the corrupted record and its suffix must be dropped.
                let intact = boundaries.iter().filter(|&&b| b <= pos).count() - 1;
                assert!(
                    decoded.len() <= intact,
                    "flip at {pos} kept a corrupted record"
                );
                assert_eq!(&decoded[..], &records[..decoded.len()]);
                let torn = torn.expect("corruption must be reported");
                assert_eq!(torn.valid_bytes + torn.discarded_bytes, stream.len());
                assert!(!torn.reason.is_empty());
            }
        }
    }

    #[test]
    fn truncation_at_every_byte_keeps_exactly_the_intact_prefix() {
        let records = sample_records();
        let stream = encode_all(&records, 0);
        let mut boundaries = vec![0usize];
        for (i, r) in records.iter().enumerate() {
            boundaries.push(boundaries[i] + encode_record(i as u64, r).len());
        }
        for cut in 0..stream.len() {
            let (decoded, next_seq, torn) = decode_wal(&stream[..cut], 0);
            let intact = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(decoded.len(), intact, "cut at {cut}");
            assert_eq!(&decoded[..], &records[..intact]);
            assert_eq!(next_seq, intact as u64);
            if cut == boundaries[intact] {
                assert_eq!(torn, None, "clean cut at {cut} is not torn");
            } else {
                let torn = torn.expect("mid-record cut must be reported");
                assert_eq!(torn.valid_bytes, boundaries[intact]);
                assert_eq!(torn.discarded_bytes, cut - boundaries[intact]);
            }
        }
    }

    #[test]
    fn sequence_gaps_are_rejected() {
        let mut stream = encode_record(0, &WalRecord::Publish { generation: 0 });
        stream.extend_from_slice(&encode_record(
            2, // gap: 1 skipped
            &WalRecord::Ingest(IngestBatch {
                appends: None,
                deletes: vec![4],
            }),
        ));
        let (decoded, next_seq, torn) = decode_wal(&stream, 0);
        assert_eq!(decoded.len(), 1);
        assert_eq!(next_seq, 1);
        assert!(torn.unwrap().reason.contains("sequence gap"));
        // A stream starting at the wrong seq drops everything.
        let (none, _, torn) = decode_wal(&stream, 5);
        assert!(none.is_empty());
        assert!(torn.unwrap().reason.contains("sequence gap"));
    }

    #[test]
    fn manifest_roundtrips_and_rejects_corruption() {
        let m = Manifest {
            generation: 7,
            policy: CompressionPolicy::Dictionary,
            wal_file: wal_name(7),
            first_seq: 42,
            files: vec![part_name(7, 0), part_name(3, 1)],
        };
        let bytes = encode_manifest(&m);
        assert_eq!(decode_manifest(&bytes).unwrap(), m);
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(decode_manifest(&corrupt).is_err(), "flip at {pos} accepted");
        }
        assert!(decode_manifest(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn partition_file_roundtrips() {
        let col = ColumnData::Text(vec!["alpha".into(), "beta".into(), "alpha".into()]);
        let ints = ColumnData::Int(vec![1, 2, 3]);
        let file = PartitionFile {
            attrs: [AttrId(0), AttrId(2)].into_iter().collect(),
            segments: vec![
                (AttrId(0), encode(&ints, Codec::Delta)),
                (AttrId(2), encode(&col, Codec::Dictionary)),
            ],
            rows: 3,
            prune: vec![ColumnPrune::build(&ints), ColumnPrune::build(&col)],
        };
        let bytes = encode_partition_file(&file);
        let back = decode_partition_file(&bytes).unwrap();
        assert_eq!(back.attrs, file.attrs);
        assert_eq!(back.rows, file.rows);
        assert_eq!(back.segments.len(), 2);
        assert_eq!(back.prune, file.prune, "pruning metadata must persist");
        for ((a1, s1), (a2, s2)) in file.segments.iter().zip(&back.segments) {
            assert_eq!(a1, a2);
            assert_eq!(s1.codec, s2.codec);
            assert_eq!(s1.bytes.as_ref(), s2.bytes.as_ref());
            assert_eq!(s1.dict_bytes.as_ref(), s2.dict_bytes.as_ref());
            assert_eq!(s1.rows, s2.rows);
            assert_eq!(s1.dict_entries, s2.dict_entries);
            assert_eq!(s1.raw_width, s2.raw_width);
        }
        let mut corrupt = bytes.clone();
        corrupt[16] ^= 0xFF;
        assert!(decode_partition_file(&corrupt).is_err());
    }
}
