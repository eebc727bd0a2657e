//! The row-store delta: validated ingest batches layered over the
//! columnar base snapshot until a repartition folds them in.
//!
//! Writes do not touch the compressed partition files. An
//! [`IngestBatch`] (appended rows and/or deleted row ids) is validated
//! against the schema, normalized (text trimmed to its stored image so
//! fingerprints survive the eventual encode/decode round-trip), logged as
//! one WAL record, and layered onto the snapshot as a [`DeltaState`]:
//! immutable append batches plus a sorted tombstone set, `Arc`-shared so
//! publishing a new delta generation is a pointer-swap away. Scans merge
//! the delta over the base columns; [`fold_data`] materializes the merge
//! when a repartition compacts the delta into fresh partition files.
//!
//! **Row ids are positional per fold generation**: the rows visible after
//! a fold renumber densely from zero (base rows in order, then surviving
//! delta rows in append order). Deletes always address the *current*
//! generation's ids.

use crate::backend::StorageError;
use crate::data::{ColumnData, TableData};
use crate::encoding::{
    put_flag, put_str, take_flag, take_i32, take_i64, take_str, take_u32, take_u64, take_u8,
    take_vec, Count,
};
use slicer_model::{AttrKind, TableSchema};
use std::sync::Arc;

/// One atomic unit of ingest: rows to append and/or row ids to delete.
/// Applied all-or-nothing — it is logged as a single WAL record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestBatch {
    /// Rows to append, one column per schema attribute (may be `None`
    /// for a delete-only batch).
    pub appends: Option<TableData>,
    /// Row ids (positional, current generation) to delete.
    pub deletes: Vec<u64>,
}

impl IngestBatch {
    /// An append-only batch.
    pub fn append(rows: TableData) -> IngestBatch {
        IngestBatch {
            appends: Some(rows),
            deletes: Vec::new(),
        }
    }

    /// A delete-only batch.
    pub fn delete(row_ids: Vec<u64>) -> IngestBatch {
        IngestBatch {
            appends: None,
            deletes: row_ids,
        }
    }

    /// Rows this batch appends.
    pub fn appended_rows(&self) -> usize {
        self.appends.as_ref().map_or(0, |d| d.rows)
    }

    /// True iff the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.appended_rows() == 0 && self.deletes.is_empty()
    }
}

/// One immutable appended run: `data.rows` rows whose ids are
/// `first_row_id..first_row_id + rows`.
#[derive(Debug)]
pub struct DeltaBatch {
    /// Row id of the batch's first row.
    pub first_row_id: u64,
    /// The appended rows, one column per schema attribute.
    pub data: TableData,
}

/// The delta pinned with a [`crate::engine::TableSnapshot`]: append
/// batches plus tombstones, both immutable and `Arc`-shared across
/// generations.
#[derive(Debug, Clone, Default)]
pub struct DeltaState {
    batches: Vec<Arc<DeltaBatch>>,
    /// Deleted row ids, sorted ascending, unique. May address base rows
    /// (< base row count) or delta rows.
    deleted: Arc<Vec<u64>>,
    rows: usize,
    stored_bytes: u64,
}

impl DeltaState {
    /// True iff there is nothing to merge: no appended rows, no
    /// tombstones.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 && self.deleted.is_empty()
    }

    /// Total appended rows (including any that were later deleted).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of tombstones.
    pub fn deletes(&self) -> usize {
        self.deleted.len()
    }

    /// The sorted tombstone set.
    pub fn deleted_ids(&self) -> &[u64] {
        &self.deleted
    }

    /// The append batches, oldest first.
    pub fn batches(&self) -> &[Arc<DeltaBatch>] {
        &self.batches
    }

    /// Raw bytes a scan must read to merge this delta: the row-store
    /// byte image of every appended value plus 8 bytes per tombstone.
    /// Deterministic (data-derived, no padding), so the naive and
    /// vectorized scan paths account identically.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// True iff `row_id` is tombstoned.
    pub fn is_deleted(&self, row_id: u64) -> bool {
        self.deleted.binary_search(&row_id).is_ok()
    }

    /// Layer one validated batch on top: a new `DeltaState` sharing every
    /// existing batch by pointer. `next_row_id` is the id the first
    /// appended row receives (base rows + delta rows so far).
    pub(crate) fn with_batch(&self, batch: &IngestBatch, next_row_id: u64) -> DeltaState {
        let mut batches = self.batches.clone();
        let mut rows = self.rows;
        let mut stored = self.stored_bytes;
        if let Some(data) = &batch.appends {
            if data.rows > 0 {
                rows += data.rows;
                stored += raw_row_bytes(data);
                batches.push(Arc::new(DeltaBatch {
                    first_row_id: next_row_id,
                    data: data.clone(),
                }));
            }
        }
        let deleted = if batch.deletes.is_empty() {
            Arc::clone(&self.deleted)
        } else {
            let mut d: Vec<u64> = (*self.deleted).clone();
            d.extend_from_slice(&batch.deletes);
            d.sort_unstable();
            stored += 8 * batch.deletes.len() as u64;
            Arc::new(d)
        };
        DeltaState {
            batches,
            deleted,
            rows,
            stored_bytes: stored,
        }
    }
}

/// The exact raw byte image of a row-store batch (4 B ints/dates, 8 B
/// decimals, unpadded UTF-8 text).
fn raw_row_bytes(data: &TableData) -> u64 {
    data.columns
        .iter()
        .map(|c| match c {
            ColumnData::Int(v) => 4 * v.len() as u64,
            ColumnData::Date(v) => 4 * v.len() as u64,
            ColumnData::Decimal(v) => 8 * v.len() as u64,
            ColumnData::Text(v) => v.iter().map(|s| s.len() as u64).sum(),
        })
        .sum()
}

/// Validate `batch` against `schema` and the currently visible rows, and
/// normalize it to its stored image: text is right-trimmed (the padded
/// fixed-width encoding cannot represent trailing spaces) and width-checked,
/// column kinds and lengths must match the schema, deletes must address
/// live rows exactly once. Returns the normalized batch ready for the WAL.
pub(crate) fn validate_batch(
    schema: &TableSchema,
    batch: &IngestBatch,
    total_rows: u64,
    delta: &DeltaState,
) -> Result<IngestBatch, StorageError> {
    let appends = match &batch.appends {
        None => None,
        Some(data) => {
            if data.columns.len() != schema.attr_count() {
                return Err(StorageError::InvalidBatch(format!(
                    "batch has {} columns, schema {} needs {}",
                    data.columns.len(),
                    schema.name(),
                    schema.attr_count()
                )));
            }
            let mut columns = Vec::with_capacity(data.columns.len());
            for (idx, (col, attr)) in data.columns.iter().zip(schema.attributes()).enumerate() {
                if col.len() != data.rows {
                    return Err(StorageError::InvalidBatch(format!(
                        "column {idx} has {} rows, batch claims {}",
                        col.len(),
                        data.rows
                    )));
                }
                let normalized = match (col, attr.kind) {
                    (ColumnData::Int(_), AttrKind::Int)
                    | (ColumnData::Decimal(_), AttrKind::Decimal)
                    | (ColumnData::Date(_), AttrKind::Date) => col.clone(),
                    (ColumnData::Text(v), AttrKind::Text) => {
                        let width = attr.size as usize;
                        let mut out = Vec::with_capacity(v.len());
                        for s in v {
                            let trimmed = s.trim_end();
                            if trimmed.len() > width {
                                return Err(StorageError::InvalidBatch(format!(
                                    "text value of {} bytes exceeds {}'s width {width}",
                                    trimmed.len(),
                                    attr.name
                                )));
                            }
                            out.push(trimmed.to_string());
                        }
                        ColumnData::Text(out)
                    }
                    _ => {
                        return Err(StorageError::InvalidBatch(format!(
                            "column {idx} kind does not match attribute {} ({:?})",
                            attr.name, attr.kind
                        )));
                    }
                };
                columns.push(normalized);
            }
            Some(TableData {
                columns,
                rows: data.rows,
            })
        }
    };
    let mut deletes = batch.deletes.clone();
    deletes.sort_unstable();
    for pair in deletes.windows(2) {
        if pair[0] == pair[1] {
            return Err(StorageError::InvalidBatch(format!(
                "row {} deleted twice in one batch",
                pair[0]
            )));
        }
    }
    for &rid in &deletes {
        if rid >= total_rows {
            return Err(StorageError::InvalidBatch(format!(
                "delete of row {rid} past the last row id {total_rows}"
            )));
        }
        if delta.is_deleted(rid) {
            return Err(StorageError::InvalidBatch(format!(
                "row {rid} is already deleted"
            )));
        }
    }
    Ok(IngestBatch { appends, deletes })
}

/// Materialize the merge: base rows (minus tombstones) followed by delta
/// rows (minus tombstones), renumbered densely — the data a delta-folding
/// repartition encodes into fresh partition files.
pub(crate) fn fold_data(base: &TableData, delta: &DeltaState) -> TableData {
    let keep_base: Vec<usize> = (0..base.rows)
        .filter(|&r| !delta.is_deleted(r as u64))
        .collect();
    let kept_batches: Vec<(&Arc<DeltaBatch>, Vec<usize>)> = delta
        .batches()
        .iter()
        .map(|b| {
            let keep: Vec<usize> = (0..b.data.rows)
                .filter(|&i| !delta.is_deleted(b.first_row_id + i as u64))
                .collect();
            (b, keep)
        })
        .collect();
    let rows = keep_base.len() + kept_batches.iter().map(|(_, k)| k.len()).sum::<usize>();
    let columns = base
        .columns
        .iter()
        .enumerate()
        .map(|(ci, col)| {
            fn gather<T: Clone>(out: &mut Vec<T>, src: &[T], keep: &[usize]) {
                out.extend(keep.iter().map(|&i| src[i].clone()));
            }
            match col {
                ColumnData::Int(v) => {
                    let mut out = Vec::with_capacity(rows);
                    gather(&mut out, v, &keep_base);
                    for (b, keep) in &kept_batches {
                        let ColumnData::Int(bv) = &b.data.columns[ci] else {
                            unreachable!("validated batch kind");
                        };
                        gather(&mut out, bv, keep);
                    }
                    ColumnData::Int(out)
                }
                ColumnData::Date(v) => {
                    let mut out = Vec::with_capacity(rows);
                    gather(&mut out, v, &keep_base);
                    for (b, keep) in &kept_batches {
                        let ColumnData::Date(bv) = &b.data.columns[ci] else {
                            unreachable!("validated batch kind");
                        };
                        gather(&mut out, bv, keep);
                    }
                    ColumnData::Date(out)
                }
                ColumnData::Decimal(v) => {
                    let mut out = Vec::with_capacity(rows);
                    gather(&mut out, v, &keep_base);
                    for (b, keep) in &kept_batches {
                        let ColumnData::Decimal(bv) = &b.data.columns[ci] else {
                            unreachable!("validated batch kind");
                        };
                        gather(&mut out, bv, keep);
                    }
                    ColumnData::Decimal(out)
                }
                ColumnData::Text(v) => {
                    let mut out = Vec::with_capacity(rows);
                    gather(&mut out, v, &keep_base);
                    for (b, keep) in &kept_batches {
                        let ColumnData::Text(bv) = &b.data.columns[ci] else {
                            unreachable!("validated batch kind");
                        };
                        gather(&mut out, bv, keep);
                    }
                    ColumnData::Text(out)
                }
            }
        })
        .collect();
    TableData { columns, rows }
}

// --- binary (de)serialization of row batches --------------------------
//
// An ingest-batch image is `appends flag u8 ‖ [row image] ‖ deletes u64 ‖
// row id u64 …`; a row image is `rows u64 ‖ columns u32` then, per column,
// a kind tag and its values (`i32`, `i64` or `len u32 ‖ UTF-8`). The WAL
// logs a batch as this image, and a wire client sends it.

const COL_INT: u8 = 0;
const COL_DECIMAL: u8 = 1;
const COL_DATE: u8 = 2;
const COL_TEXT: u8 = 3;

const COLUMNS: Count = Count::new("column count", 1, u16::MAX as usize);
/// Rows of a column of `i32`s, or of strings (each a `u32` length first).
const ROWS_4: Count = Count::new("row count", 4, usize::MAX);
/// Rows of a column of `i64`s.
const ROWS_8: Count = Count::new("row count", 8, usize::MAX);
const DELETES: Count = Count::new("delete count", 8, usize::MAX);

/// Append the self-describing binary image of `data` to `out`.
pub(crate) fn encode_table_data(data: &TableData, out: &mut Vec<u8>) {
    out.extend_from_slice(&(data.rows as u64).to_le_bytes());
    out.extend_from_slice(&(data.columns.len() as u32).to_le_bytes());
    for col in &data.columns {
        match col {
            ColumnData::Int(v) => {
                out.push(COL_INT);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Decimal(v) => {
                out.push(COL_DECIMAL);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Date(v) => {
                out.push(COL_DATE);
                for x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            ColumnData::Text(v) => {
                out.push(COL_TEXT);
                for s in v {
                    put_str(out, s);
                }
            }
        }
    }
}

/// Consume one encoded [`TableData`] from the front of `buf`. Every
/// column's row count is checked against the bytes left before its
/// values are allocated.
pub(crate) fn decode_table_data(buf: &mut &[u8]) -> Result<TableData, StorageError> {
    let rows = take_u64(buf)?;
    let cols = take_u32(buf)?.into();
    let columns = take_vec(buf, cols, COLUMNS, |buf| {
        Ok(match take_u8(buf)? {
            COL_INT => ColumnData::Int(take_vec(buf, rows, ROWS_4, take_i32)?),
            COL_DECIMAL => ColumnData::Decimal(take_vec(buf, rows, ROWS_8, take_i64)?),
            COL_DATE => ColumnData::Date(take_vec(buf, rows, ROWS_4, take_i32)?),
            COL_TEXT => ColumnData::Text(take_vec(buf, rows, ROWS_4, |b| take_str(b, usize::MAX))?),
            other => return Err(StorageError::Corrupt(format!("unknown column tag {other}"))),
        })
    })?;
    Ok(TableData {
        columns,
        rows: rows as usize,
    })
}

/// Append the binary image of one [`IngestBatch`] to `out`: the one
/// encoder behind both the WAL's ingest record and
/// [`encode_ingest_batch`].
pub(crate) fn put_ingest_batch(batch: &IngestBatch, out: &mut Vec<u8>) {
    if let Some(data) = put_flag(out, batch.appends.as_ref()) {
        encode_table_data(data, out);
    }
    out.extend_from_slice(&(batch.deletes.len() as u64).to_le_bytes());
    for rid in &batch.deletes {
        out.extend_from_slice(&rid.to_le_bytes());
    }
}

/// Self-describing binary image of one [`IngestBatch`]: the payload a
/// network tier carries inside a wire frame, byte for byte the payload of
/// the WAL record the server logs for it. Unframed: the carrier provides
/// length and checksum.
pub fn encode_ingest_batch(batch: &IngestBatch) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_ingest_batch(batch, &mut out);
    out
}

/// Decode one [`encode_ingest_batch`] image. Structural validation only
/// (the schema-aware checks run in [`crate::StoredTable::ingest`]);
/// rejects trailing bytes, implausible counts, and truncation with a
/// typed [`StorageError::Corrupt`] — never panics on arbitrary input,
/// and allocates no more than the input's length warrants.
pub fn decode_ingest_batch(bytes: &[u8]) -> Result<IngestBatch, StorageError> {
    let mut buf = bytes;
    let appends = match take_flag(&mut buf, "appends")? {
        true => Some(decode_table_data(&mut buf)?),
        false => None,
    };
    let n = take_u64(&mut buf)?;
    let deletes = take_vec(&mut buf, n, DELETES, take_u64)?;
    if !buf.is_empty() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes in ingest batch",
            buf.len()
        )));
    }
    Ok(IngestBatch { appends, deletes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicer_model::TableSchema;

    fn schema() -> TableSchema {
        TableSchema::builder("T", 10)
            .attr("K", 4, AttrKind::Int)
            .attr("V", 8, AttrKind::Decimal)
            .attr("S", 6, AttrKind::Text)
            .build()
            .unwrap()
    }

    fn rows(n: usize, salt: i32) -> TableData {
        TableData {
            columns: vec![
                ColumnData::Int((0..n as i32).map(|i| i + salt).collect()),
                ColumnData::Decimal((0..n as i64).map(|i| i * 100).collect()),
                ColumnData::Text((0..n).map(|i| format!("s{i}")).collect()),
            ],
            rows: n,
        }
    }

    #[test]
    fn ingest_batch_roundtrips_and_rejects_garbage() {
        for batch in [
            IngestBatch::append(rows(5, 1)),
            IngestBatch::delete(vec![0, 7, 9]),
            IngestBatch {
                appends: Some(rows(2, 9)),
                deletes: vec![3],
            },
            IngestBatch::default(),
        ] {
            let bytes = encode_ingest_batch(&batch);
            let back = decode_ingest_batch(&bytes).unwrap();
            assert_eq!(back.appends, batch.appends);
            assert_eq!(back.deletes, batch.deletes);
            // Truncation at every byte is a typed error, never a panic.
            for cut in 0..bytes.len() {
                assert!(decode_ingest_batch(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            // Trailing garbage is rejected.
            let mut padded = bytes.clone();
            padded.push(0);
            assert!(decode_ingest_batch(&padded).is_err());
        }
        assert!(decode_ingest_batch(&[2]).is_err(), "bad appends flag");
        // A 14-byte batch declaring 2^40 (abort on allocation) or 2^61
        // (capacity overflow) decimal rows is refused before any
        // allocation.
        for rows in [1u64 << 40, 1u64 << 61] {
            let mut crafted = vec![1];
            crafted.extend_from_slice(&rows.to_le_bytes());
            crafted.extend_from_slice(&1u32.to_le_bytes());
            crafted.push(1);
            assert_eq!(crafted.len(), 14);
            match decode_ingest_batch(&crafted) {
                Err(StorageError::Corrupt(m)) => assert!(m.contains("row count"), "{m}"),
                other => panic!("{rows} rows: expected a typed refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn table_data_roundtrips() {
        let data = rows(7, 3);
        let mut buf = Vec::new();
        encode_table_data(&data, &mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(decode_table_data(&mut slice).unwrap(), data);
        assert!(slice.is_empty());
    }

    #[test]
    fn validation_normalizes_text_and_rejects_bad_batches() {
        let s = schema();
        let delta = DeltaState::default();
        let padded = IngestBatch::append(TableData {
            columns: vec![
                ColumnData::Int(vec![1]),
                ColumnData::Decimal(vec![2]),
                ColumnData::Text(vec!["ab  ".into()]),
            ],
            rows: 1,
        });
        let ok = validate_batch(&s, &padded, 10, &delta).unwrap();
        match &ok.appends.unwrap().columns[2] {
            ColumnData::Text(v) => assert_eq!(v[0], "ab"),
            other => panic!("unexpected {other:?}"),
        }
        let too_wide = IngestBatch::append(TableData {
            columns: vec![
                ColumnData::Int(vec![1]),
                ColumnData::Decimal(vec![2]),
                ColumnData::Text(vec!["sevenchars".into()]),
            ],
            rows: 1,
        });
        assert!(validate_batch(&s, &too_wide, 10, &delta).is_err());
        let wrong_kind = IngestBatch::append(TableData {
            columns: vec![
                ColumnData::Date(vec![1]),
                ColumnData::Decimal(vec![2]),
                ColumnData::Text(vec!["x".into()]),
            ],
            rows: 1,
        });
        assert!(validate_batch(&s, &wrong_kind, 10, &delta).is_err());
        assert!(validate_batch(&s, &IngestBatch::delete(vec![10]), 10, &delta).is_err());
        assert!(validate_batch(&s, &IngestBatch::delete(vec![3, 3]), 10, &delta).is_err());
        let once = delta.with_batch(&IngestBatch::delete(vec![3]), 10);
        assert!(validate_batch(&s, &IngestBatch::delete(vec![3]), 10, &once).is_err());
    }

    #[test]
    fn fold_drops_tombstoned_rows_and_renumbers() {
        let base = rows(4, 0);
        let mut delta = DeltaState::default();
        delta = delta.with_batch(&IngestBatch::append(rows(3, 100)), 4);
        // Delete base row 1 and the middle delta row (id 5).
        delta = delta.with_batch(&IngestBatch::delete(vec![1, 5]), 7);
        assert_eq!(delta.rows(), 3);
        assert_eq!(delta.deletes(), 2);
        let folded = fold_data(&base, &delta);
        assert_eq!(folded.rows, 5);
        match &folded.columns[0] {
            ColumnData::Int(v) => assert_eq!(v, &[0, 2, 3, 100, 102]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delta_bytes_track_raw_image() {
        let delta = DeltaState::default().with_batch(&IngestBatch::append(rows(2, 0)), 0);
        // 2×(4 + 8) fixed + "s0" + "s1" = 28.
        assert_eq!(delta.stored_bytes(), 28);
        let with_del = delta.with_batch(&IngestBatch::delete(vec![0]), 2);
        assert_eq!(with_del.stored_bytes(), 36);
    }
}
