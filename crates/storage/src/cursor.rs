//! Prepared segment cursors: the bridge between encoded column segments
//! and the executor's blocked tuple reconstruction.
//!
//! A [`PreparedSegment`] is a segment in fingerprint-ready form. Preparing
//! one costs exactly the decode work its codec and the scan's [`Demand`]
//! call for — and nothing more:
//!
//! * **Plain** — zero-copy: the cursor keeps the stored [`Bytes`] (an
//!   `Arc` clone) and fingerprints each cell straight out of the raw
//!   little-endian image; no decode at all.
//! * **Dictionary** — the code stream and the dictionary are kept
//!   zero-copy. A scan that will read at least as many rows as the
//!   dictionary has entries (every unpredicated scan) fingerprints the
//!   dictionary *once per entry* into a lookup table, so per-row work is
//!   one table index; a pruned scan reading fewer rows than that
//!   fingerprints the entry bytes of each row it asks for instead.
//! * **Delta / LZ** (variable-width) — the segment is streamed through
//!   [`delta_for_each`] / [`lz_decompress_exact`] into executor-owned
//!   scratch, up to the last row the scan will read, and reduced to one
//!   `u64` fingerprint per row; no `ColumnData`, no per-row `String`.
//!
//! Fixed-width cursors also read exact values ([`PreparedSegment::value`])
//! for residual predicate evaluation; a variable-width driver's kept
//! chunks are packed into a plain image by [`pack_kept`] and read the
//! same way.
//!
//! Every fingerprint reproduces [`ColumnData::fingerprint`] bit-for-bit
//! (that is property-tested against the naive scan in
//! `tests/scan_executor.rs`), so the executor's checksums are identical to
//! the oracle path's.

use crate::compress::{
    delta_for_each, delta_walk, dict_code, lz_decompress_exact, lz_walk, Codec, DictLayout,
    EncodedColumn,
};
use crate::data::{fnv1a_n, text_fingerprint};
use crate::prune::CHUNK_ROWS;
use bytes::Bytes;
use slicer_model::AttrKind;

/// How a fixed-width cell image maps to a fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// 4-byte little-endian integer (ints and dates).
    I32,
    /// 8-byte little-endian integer (decimals).
    I64,
    /// Space-padded text of the segment's fixed width.
    Text,
}

impl CellKind {
    /// The cell kind for a schema attribute kind.
    pub fn of(kind: AttrKind) -> CellKind {
        match kind {
            AttrKind::Int | AttrKind::Date => CellKind::I32,
            AttrKind::Decimal => CellKind::I64,
            AttrKind::Text => CellKind::Text,
        }
    }

    /// Fingerprint of one cell image of this kind.
    #[inline]
    fn fingerprint(self, cell: &[u8]) -> u64 {
        match self {
            CellKind::Text => text_fingerprint(cell),
            CellKind::I32 => fnv1a_n::<4>(cell.try_into().expect("4-byte cell")),
            CellKind::I64 => fnv1a_n::<8>(cell.try_into().expect("8-byte cell")),
        }
    }

    /// Exact value of one cell image of this kind.
    #[inline]
    fn value(self, cell: &[u8]) -> Cell<'_> {
        match self {
            CellKind::Text => Cell::Text(cell),
            CellKind::I32 => {
                Cell::Num(i32::from_le_bytes(cell.try_into().expect("4-byte cell")) as i64)
            }
            CellKind::I64 => Cell::Num(i64::from_le_bytes(cell.try_into().expect("8-byte cell"))),
        }
    }
}

/// One exact stored value, in the form residual clauses compare
/// ([`crate::prune::clause_matches_cell`]): numerics widened to `i64` as
/// [`crate::prune::clause_matches`] widens a decoded column's, text as its
/// stored space-padded image (trimmed at comparison time, like a decoded
/// `String`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell<'a> {
    /// An int, date or decimal.
    Num(i64),
    /// A padded text cell.
    Text(&'a [u8]),
}

/// The rows one scan will read from a cursor: the two facts that size its
/// preparation. An unpredicated scan reads every row; a pruned scan reads
/// its kept chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Demand {
    /// How many rows will be read.
    pub rows: usize,
    /// One past the last row that will be read.
    pub upto: usize,
}

impl Demand {
    /// Every one of `rows` rows.
    pub fn all(rows: usize) -> Demand {
        Demand { rows, upto: rows }
    }

    /// The rows of the chunks `keep` keeps, of `rows` in all; `None` when
    /// it keeps none.
    pub fn kept(keep: &[bool], rows: usize) -> Option<Demand> {
        let last = keep.iter().rposition(|&k| k)?;
        let upto = ((last + 1) * CHUNK_ROWS).min(rows);
        let kept = keep.iter().filter(|&&k| k).count();
        Some(Demand {
            // Only the last chunk can be short.
            rows: kept * CHUNK_ROWS - ((last + 1) * CHUNK_ROWS - upto),
            upto,
        })
    }
}

/// Append the fingerprint of every cell in `raw` to `out`, unrolling the
/// FNV loop for the const-width numeric kinds. Numeric cells are always
/// 4/8 bytes (exactly how the naive decoder consumes the raw image);
/// `width` is the text cell width.
fn fill_cell_fps(raw: &[u8], width: usize, cell: CellKind, out: &mut Vec<u64>) {
    match cell {
        CellKind::Text => out.extend(raw.chunks_exact(width).map(text_fingerprint)),
        CellKind::I32 => out.extend(
            raw.chunks_exact(4)
                .map(|c| fnv1a_n::<4>(c.try_into().expect("4-byte cell"))),
        ),
        CellKind::I64 => out.extend(
            raw.chunks_exact(8)
                .map(|c| fnv1a_n::<8>(c.try_into().expect("8-byte cell"))),
        ),
    }
}

/// Fill `out[j]` with the table fingerprint of row `start + j`: the
/// per-row work of every unpredicated dictionary scan. A function of its
/// own so that the loop compiles the same whatever `fill_fps`' other arms
/// hold (written inline there it ran ~10 % slower). [`dict_code`]
/// dispatches on the code width per row; hoisting that out is a measured
/// follow-up of its own (ROADMAP, "Then spend the measurements").
fn gather_fps(codes: &[u8], code_width: usize, fps: &[u64], start: usize, out: &mut [u64]) {
    for (j, o) in out.iter_mut().enumerate() {
        *o = fps[dict_code(codes, code_width, start + j)];
    }
}

/// A segment readied for blocked fingerprinting. See the module docs for
/// the per-codec representations.
#[derive(Debug)]
pub enum PreparedSegment {
    /// Zero-copy view over a plain fixed-width segment.
    Fixed {
        /// The stored bytes (shared, not copied).
        bytes: Bytes,
        /// Fixed bytes per row.
        width: usize,
        /// How to hash a cell.
        kind: CellKind,
    },
    /// Zero-copy code stream and dictionary, plus — when the scan it was
    /// prepared for read enough rows to pay for it — a one-time
    /// dictionary fingerprint table. Correct for any row either way.
    Dict {
        /// The stored code stream (shared, not copied).
        codes: Bytes,
        /// The stored dictionary entries (shared, not copied).
        dict: Bytes,
        /// Code, entry-count and entry widths.
        layout: DictLayout,
        /// How to hash or read an entry.
        kind: CellKind,
        /// Fingerprint of each dictionary entry, indexed by code; empty
        /// when the table was not built.
        fps: Vec<u64>,
    },
    /// Variable-width segment reduced to per-row fingerprints at decode
    /// time (delta / LZ).
    Fps(
        /// One fingerprint per row of the prefix that was streamed.
        Vec<u64>,
    ),
}

impl PreparedSegment {
    /// Prepare `enc` for the rows in `demand`. `kind` is the attribute's
    /// schema kind; `fp_buf` and `lz_scratch` are caller-owned arenas
    /// (capacity is reused, contents overwritten).
    pub fn prepare(
        enc: &EncodedColumn,
        kind: AttrKind,
        demand: Demand,
        mut fp_buf: Vec<u64>,
        lz_scratch: &mut Vec<u8>,
    ) -> PreparedSegment {
        let cell = CellKind::of(kind);
        fp_buf.clear();
        match enc.codec {
            Codec::Plain => PreparedSegment::Fixed {
                bytes: enc.bytes.clone(),
                width: fixed_width_of(enc, cell),
                kind: cell,
            },
            Codec::Dictionary => {
                let layout = DictLayout::of(enc);
                // The table costs one fingerprint per entry, direct reads
                // one per row: build it only when it is the cheaper side.
                if demand.rows >= layout.entries {
                    fill_cell_fps(
                        &enc.dict_bytes[..layout.entries * layout.value_width],
                        layout.value_width,
                        cell,
                        &mut fp_buf,
                    );
                }
                PreparedSegment::Dict {
                    codes: enc.bytes.clone(),
                    dict: enc.dict_bytes.clone(),
                    layout,
                    kind: cell,
                    fps: fp_buf,
                }
            }
            Codec::Delta => {
                fp_buf.reserve(demand.upto.min(enc.rows));
                match cell {
                    // Naive decode narrows to i32 before fingerprinting;
                    // reproduce that exactly.
                    CellKind::I32 => delta_for_each(enc, demand.upto, |v| {
                        fp_buf.push(fnv1a_n((v as i32).to_le_bytes()));
                    }),
                    _ => delta_for_each(enc, demand.upto, |v| {
                        fp_buf.push(fnv1a_n(v.to_le_bytes()));
                    }),
                }
                PreparedSegment::Fps(fp_buf)
            }
            Codec::Lz => {
                let (w, upto) = lz_image(enc, demand.upto, lz_scratch);
                fill_cell_fps(&lz_scratch[..upto * w], w, cell, &mut fp_buf);
                PreparedSegment::Fps(fp_buf)
            }
        }
    }

    /// Walk the row-addressing work of a segment's first `upto` rows
    /// without materializing values: the variable-width
    /// whole-partition-decode penalty, measured as a stream over the
    /// encoded bytes (every byte up to the last row the scan reads is
    /// still visited to locate row boundaries — what reading *any*
    /// attribute of a variable-width partition forces — but nothing is
    /// expanded). Fixed-width codecs are individually addressable and
    /// cost nothing to skip.
    pub fn walk(enc: &EncodedColumn, upto: usize) {
        match enc.codec {
            Codec::Plain | Codec::Dictionary => {}
            Codec::Delta => {
                std::hint::black_box(delta_walk(enc, upto));
            }
            Codec::Lz => {
                // An unknown raw width cannot bound the walk in bytes.
                let want = match enc.raw_width {
                    0 => u64::MAX,
                    w => (upto.min(enc.rows) * w) as u64,
                };
                std::hint::black_box(lz_walk(&enc.bytes, want));
            }
        }
    }

    /// True iff this cursor can serve `demand` as cheaply as a fresh
    /// [`PreparedSegment::prepare`] would: a table-less dictionary cursor
    /// answers any row but is due its table once a scan reads at least as
    /// many rows as it has entries; a streamed prefix must reach the last
    /// row read.
    pub fn serves(&self, demand: Demand) -> bool {
        match self {
            PreparedSegment::Fixed { .. } => true,
            PreparedSegment::Dict { layout, fps, .. } => {
                !fps.is_empty() || demand.rows < layout.entries
            }
            PreparedSegment::Fps(fps) => fps.len() >= demand.upto,
        }
    }

    /// Fill `out[j]` with the fingerprint of row `start + j` for each `j`.
    #[inline]
    pub fn fill_fps(&self, start: usize, out: &mut [u64]) {
        match self {
            PreparedSegment::Fixed { bytes, width, kind } => {
                let w = *width;
                let block = &bytes[start * w..(start + out.len()) * w];
                match kind {
                    CellKind::Text => {
                        for (o, cell) in out.iter_mut().zip(block.chunks_exact(w)) {
                            *o = text_fingerprint(cell);
                        }
                    }
                    CellKind::I32 => {
                        for (o, cell) in out.iter_mut().zip(block.chunks_exact(4)) {
                            *o = fnv1a_n::<4>(cell.try_into().expect("4-byte cell"));
                        }
                    }
                    CellKind::I64 => {
                        for (o, cell) in out.iter_mut().zip(block.chunks_exact(8)) {
                            *o = fnv1a_n::<8>(cell.try_into().expect("8-byte cell"));
                        }
                    }
                }
            }
            PreparedSegment::Dict {
                codes,
                dict,
                layout,
                kind,
                fps,
            } => {
                let w = layout.code_width;
                if fps.is_empty() {
                    for (j, o) in out.iter_mut().enumerate() {
                        let code = dict_code(codes, w, start + j);
                        *o = kind.fingerprint(layout.entry(dict, code));
                    }
                } else {
                    gather_fps(codes, w, fps, start, out);
                }
            }
            PreparedSegment::Fps(fps) => {
                out.copy_from_slice(&fps[start..start + out.len()]);
            }
        }
    }

    /// The exact value of `row`, for residual predicate evaluation.
    /// Fixed-width cursors are row-addressable; a streamed variable-width
    /// one keeps fingerprints only and answers `None` (see [`pack_kept`]).
    #[inline]
    pub fn value(&self, row: usize) -> Option<Cell<'_>> {
        match self {
            PreparedSegment::Fixed { bytes, width, kind } => {
                Some(kind.value(&bytes[row * width..(row + 1) * width]))
            }
            PreparedSegment::Dict {
                codes,
                dict,
                layout,
                kind,
                ..
            } => {
                let code = dict_code(codes, layout.code_width, row);
                Some(kind.value(layout.entry(dict, code)))
            }
            PreparedSegment::Fps(_) => None,
        }
    }

    /// Dictionary entries this cursor fingerprinted into its table.
    pub(crate) fn table_entries(&self) -> usize {
        match self {
            PreparedSegment::Dict { fps, .. } => fps.len(),
            _ => 0,
        }
    }

    /// Rows this cursor streamed out of a variable-width segment.
    pub(crate) fn streamed_rows(&self) -> usize {
        match self {
            PreparedSegment::Fps(fps) => fps.len(),
            _ => 0,
        }
    }

    /// Reclaim the owned fingerprint buffer (for arena reuse); zero-copy
    /// variants have none.
    pub fn into_fp_buf(self) -> Option<Vec<u64>> {
        match self {
            PreparedSegment::Fixed { .. } => None,
            PreparedSegment::Dict { fps, .. } | PreparedSegment::Fps(fps) => Some(fps),
        }
    }
}

/// Decompress the raw fixed-width image of the first `upto` rows of an LZ
/// segment into `lz_scratch`; returns the cell width and the rows covered.
fn lz_image(enc: &EncodedColumn, upto: usize, lz_scratch: &mut Vec<u8>) -> (usize, usize) {
    let upto = upto.min(enc.rows);
    lz_decompress_exact(
        &enc.bytes,
        enc.rows * enc.raw_width,
        upto * enc.raw_width,
        lz_scratch,
    );
    let w = lz_scratch.len().checked_div(enc.rows).unwrap_or(1).max(1);
    (w, upto)
}

/// The exact values of a variable-width segment's kept chunks, packed in
/// row order into a plain fixed-width image: row `k` of the returned
/// cursor is the `k`-th row of the chunks `keep` keeps. Rows are not
/// individually addressable, so the segment streams from the start — but
/// only to the last kept chunk, and rows of skipped chunks are dropped as
/// they pass, never materialized. The image holds what the naive decoder
/// would decode (delta ints narrowed to `i32`).
pub(crate) fn pack_kept(
    enc: &EncodedColumn,
    kind: AttrKind,
    keep: &[bool],
    lz_scratch: &mut Vec<u8>,
) -> PreparedSegment {
    let cell = CellKind::of(kind);
    let Some(demand) = Demand::kept(keep, enc.rows) else {
        return PreparedSegment::Fixed {
            bytes: Bytes::new(),
            width: 1,
            kind: cell,
        };
    };
    let mut packed = Vec::new();
    let width = if enc.codec == Codec::Lz {
        let (w, upto) = lz_image(enc, demand.upto, lz_scratch);
        packed.reserve(demand.rows * w);
        for (c, _) in keep.iter().enumerate().filter(|&(_, &k)| k) {
            let end = ((c + 1) * CHUNK_ROWS).min(upto);
            packed.extend_from_slice(&lz_scratch[c * CHUNK_ROWS * w..end * w]);
        }
        w
    } else {
        debug_assert_eq!(enc.codec, Codec::Delta);
        let w = if cell == CellKind::I32 { 4 } else { 8 };
        packed.reserve(demand.rows * w);
        let mut row = 0usize;
        delta_for_each(enc, demand.upto, |v| {
            if keep[row / CHUNK_ROWS] {
                match cell {
                    CellKind::I32 => packed.extend_from_slice(&(v as i32).to_le_bytes()),
                    _ => packed.extend_from_slice(&v.to_le_bytes()),
                }
            }
            row += 1;
        });
        w
    };
    PreparedSegment::Fixed {
        bytes: Bytes::from(packed),
        width,
        kind: cell,
    }
}

/// The fixed byte width of a plain segment, recovered exactly as the naive
/// decoder recovers it.
fn fixed_width_of(enc: &EncodedColumn, cell: CellKind) -> usize {
    match cell {
        CellKind::I32 => 4,
        CellKind::I64 => 8,
        CellKind::Text => enc.bytes.len().checked_div(enc.rows).unwrap_or(1).max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::encode;
    use crate::data::ColumnData;

    fn fps_of(seg: &PreparedSegment, rows: usize) -> Vec<u64> {
        let mut out = vec![0u64; rows];
        // Two chunks to exercise non-zero `start`.
        let mid = rows / 2;
        let (lo, hi) = out.split_at_mut(mid);
        seg.fill_fps(0, lo);
        seg.fill_fps(mid, hi);
        out
    }

    fn assert_matches_column(col: &ColumnData, codec: Codec, kind: AttrKind) {
        let enc = encode(col, codec);
        let mut lz = Vec::new();
        let seg = PreparedSegment::prepare(&enc, kind, Demand::all(enc.rows), Vec::new(), &mut lz);
        let expect: Vec<u64> = (0..col.len()).map(|i| col.fingerprint(i)).collect();
        assert_eq!(fps_of(&seg, col.len()), expect, "{codec:?} {kind:?}");
    }

    #[test]
    fn every_codec_reproduces_column_fingerprints() {
        let ints = ColumnData::Int(vec![7, -2, 900_000, 7, 0]);
        let decs = ColumnData::Decimal(vec![12345, -9, i64::MAX / 7, 12345]);
        let dates = ColumnData::Date(vec![0, 2526, 100, 100]);
        let text = ColumnData::Text(vec![
            "AIR".into(),
            "DELIVER IN PERSON".into(),
            "AIR".into(),
            "x".into(),
        ]);
        for codec in [Codec::Plain, Codec::Dictionary, Codec::Delta, Codec::Lz] {
            assert_matches_column(&ints, codec, AttrKind::Int);
            assert_matches_column(&dates, codec, AttrKind::Date);
        }
        for codec in [Codec::Plain, Codec::Dictionary, Codec::Lz] {
            assert_matches_column(&text, codec, AttrKind::Text);
        }
        for codec in [Codec::Plain, Codec::Dictionary, Codec::Delta, Codec::Lz] {
            assert_matches_column(&decs, codec, AttrKind::Decimal);
        }
    }

    /// One sample column per kind, spanning two chunks and a short tail
    /// (negative numbers, shared values, padded text).
    fn sample_columns() -> Vec<(ColumnData, AttrKind)> {
        let n = 2 * CHUNK_ROWS + 37;
        vec![
            (
                ColumnData::Int((0..n).map(|i| (i as i32 % 300) - 150).collect()),
                AttrKind::Int,
            ),
            (
                ColumnData::Decimal((0..n).map(|i| i as i64 * 40_000_000_003 - 9).collect()),
                AttrKind::Decimal,
            ),
            (
                ColumnData::Date((0..n).map(|i| (i / 3) as i32).collect()),
                AttrKind::Date,
            ),
            (
                ColumnData::Text((0..n).map(|i| format!("w{}", i % 41)).collect()),
                AttrKind::Text,
            ),
        ]
    }

    /// What a decoded column holds at `row`, in [`Cell`] form.
    fn decoded_cell(col: &ColumnData, row: usize) -> (Option<i64>, Option<&str>) {
        match col {
            ColumnData::Int(v) | ColumnData::Date(v) => (Some(v[row] as i64), None),
            ColumnData::Decimal(v) => (Some(v[row]), None),
            ColumnData::Text(v) => (None, Some(v[row].as_str())),
        }
    }

    fn assert_cell_is(cell: Option<Cell<'_>>, col: &ColumnData, row: usize) {
        match (cell, decoded_cell(col, row)) {
            (Some(Cell::Num(got)), (Some(want), _)) => assert_eq!(got, want, "row {row}"),
            (Some(Cell::Text(got)), (_, Some(want))) => {
                assert_eq!(String::from_utf8_lossy(got).trim_end(), want, "row {row}")
            }
            other => panic!("row {row}: {other:?}"),
        }
    }

    #[test]
    fn fixed_width_cursors_read_exact_values_with_or_without_a_table() {
        for (col, kind) in sample_columns() {
            let n = col.len();
            let expect: Vec<u64> = (0..n).map(|i| col.fingerprint(i)).collect();
            for codec in [Codec::Plain, Codec::Dictionary] {
                let enc = encode(&col, codec);
                let mut lz = Vec::new();
                // One row asked for: a dictionary cursor skips its table.
                let few = Demand { rows: 1, upto: n };
                let seg = PreparedSegment::prepare(&enc, kind, few, Vec::new(), &mut lz);
                assert_eq!(seg.table_entries(), 0);
                assert_eq!(fps_of(&seg, n), expect, "{codec:?} {kind:?}");
                for row in [0, 1, CHUNK_ROWS, n - 1] {
                    assert_cell_is(seg.value(row), &col, row);
                }
                // It answers any row, but is due its table once a scan
                // reads as many rows as it has entries.
                assert!(seg.serves(few));
                assert_eq!(seg.serves(Demand::all(n)), codec == Codec::Plain);
                let full =
                    PreparedSegment::prepare(&enc, kind, Demand::all(n), Vec::new(), &mut lz);
                assert_eq!(full.table_entries(), enc.dict_entries);
                assert!(full.serves(few) && full.serves(Demand::all(n)));
                assert_eq!(fps_of(&full, n), expect);
            }
        }
    }

    #[test]
    fn variable_width_cursors_stream_no_further_than_the_demand() {
        for (col, kind) in sample_columns() {
            let n = col.len();
            let codec = crate::compress::default_codec(kind);
            let enc = encode(&col, codec);
            let mut lz = Vec::new();
            let demand = Demand {
                rows: CHUNK_ROWS,
                upto: CHUNK_ROWS + 5,
            };
            let seg = PreparedSegment::prepare(&enc, kind, demand, Vec::new(), &mut lz);
            assert_eq!(seg.streamed_rows(), demand.upto, "{codec:?}");
            let mut got = vec![0u64; demand.upto];
            seg.fill_fps(0, &mut got);
            let expect: Vec<u64> = (0..demand.upto).map(|i| col.fingerprint(i)).collect();
            assert_eq!(got, expect, "{codec:?} {kind:?}");
            assert!(seg.value(0).is_none());
            // The prefix serves scans inside it, not ones past it.
            assert!(seg.serves(Demand::all(demand.upto)));
            assert!(!seg.serves(Demand::all(n)));
            PreparedSegment::walk(&enc, demand.upto);
        }
    }

    #[test]
    fn packed_kept_chunks_hold_the_decoded_values() {
        let keep = [true, false, true];
        for (col, kind) in sample_columns() {
            let n = col.len();
            let enc = encode(&col, crate::compress::default_codec(kind));
            let mut lz = Vec::new();
            let packed = pack_kept(&enc, kind, &keep, &mut lz);
            let kept_rows = (0..CHUNK_ROWS).chain(2 * CHUNK_ROWS..n);
            for (rank, row) in kept_rows.enumerate() {
                assert_cell_is(packed.value(rank), &col, row);
            }
            // Only the first chunk kept: the stream stops after it.
            let first = pack_kept(&enc, kind, &[true, false, false], &mut lz);
            assert_cell_is(first.value(CHUNK_ROWS - 1), &col, CHUNK_ROWS - 1);
        }
    }

    #[test]
    fn demand_counts_kept_rows_and_the_last_row_read() {
        let rows = 2 * CHUNK_ROWS + 37;
        assert_eq!(Demand::kept(&[false, false, false], rows), None);
        assert_eq!(
            Demand::kept(&[true, false, false], rows),
            Some(Demand {
                rows: CHUNK_ROWS,
                upto: CHUNK_ROWS
            })
        );
        assert_eq!(
            Demand::kept(&[true, false, true], rows),
            Some(Demand {
                rows: CHUNK_ROWS + 37,
                upto: rows
            })
        );
        assert_eq!(
            Demand::kept(&[true, true, true], rows),
            Some(Demand::all(rows))
        );
    }

    #[test]
    fn plain_and_dict_are_zero_copy() {
        let col = ColumnData::Int(vec![1, 2, 3]);
        let enc = encode(&col, Codec::Plain);
        let mut lz = Vec::new();
        let seg =
            PreparedSegment::prepare(&enc, AttrKind::Int, Demand::all(3), Vec::new(), &mut lz);
        match seg {
            PreparedSegment::Fixed { bytes, .. } => {
                assert_eq!(bytes.as_ptr(), enc.bytes.as_ptr(), "must share storage")
            }
            other => panic!("expected Fixed, got {other:?}"),
        }
    }
}
