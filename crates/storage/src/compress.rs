//! Column compression codecs.
//!
//! DBMS-X (paper Table 7) defaults to LZO for strings/floats and delta
//! encoding for integers/dates, with dictionary encoding as the forced
//! fixed-width alternative. We implement the same three families:
//!
//! * [`Codec::Plain`] — fixed-width raw bytes;
//! * [`Codec::Dictionary`] — fixed-width codes into a per-column dictionary
//!   (the dictionary is charged to the stored size: near-unique columns
//!   gain nothing, matching real systems);
//! * [`Codec::Delta`] — zigzag-varint deltas for integers/dates
//!   (variable-width);
//! * [`Codec::Lz`] — an LZ77-class byte compressor with a 64 KB window and
//!   greedy hash matching, standing in for LZO (variable-width).
//!
//! The property that drives Table 7 is *fixed versus variable width*:
//! fixed-width codecs allow direct per-row offsets into a column-group
//! segment, while variable-width codecs force decoding the whole segment
//! to reconstruct any tuple. [`Codec::fixed_width`] exposes that bit.

use crate::data::ColumnData;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Compression scheme applied to one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Raw fixed-width values.
    Plain,
    /// Fixed-width dictionary codes.
    Dictionary,
    /// Zigzag-varint delta encoding (ints/dates only).
    Delta,
    /// LZ77-style byte compression (stand-in for LZO).
    Lz,
}

impl Codec {
    /// True iff rows are individually addressable (fixed byte width per
    /// row) without decoding predecessors.
    pub fn fixed_width(self) -> bool {
        matches!(self, Codec::Plain | Codec::Dictionary)
    }
}

/// One encoded column: bytes plus enough metadata to decode.
#[derive(Debug, Clone)]
pub struct EncodedColumn {
    /// Codec used.
    pub codec: Codec,
    /// Encoded payload.
    pub bytes: Bytes,
    /// Dictionary payload (values in code order), if dictionary-encoded.
    pub dict_bytes: Bytes,
    /// Number of rows.
    pub rows: usize,
    /// Number of dictionary entries (0 unless dictionary-encoded). Segment
    /// metadata, not charged to the stored size; lets cursors recover the
    /// dictionary layout without an O(rows) walk of the code stream.
    pub dict_entries: usize,
    /// Bytes per row of the raw fixed-width image this segment encodes
    /// (0 when unknown, e.g. delta). Segment metadata: lets the executor
    /// size decode scratch exactly instead of growing it token by token.
    pub raw_width: usize,
}

impl EncodedColumn {
    /// Stored size in bytes (payload + dictionary).
    pub fn stored_bytes(&self) -> u64 {
        (self.bytes.len() + self.dict_bytes.len()) as u64
    }
}

// --- fixed-width raw encoding helpers ---------------------------------

fn raw_bytes(col: &ColumnData) -> (BytesMut, usize) {
    match col {
        ColumnData::Int(v) => {
            let mut b = BytesMut::with_capacity(v.len() * 4);
            for x in v {
                b.put_i32_le(*x);
            }
            (b, 4)
        }
        ColumnData::Date(v) => {
            let mut b = BytesMut::with_capacity(v.len() * 4);
            for x in v {
                b.put_i32_le(*x);
            }
            (b, 4)
        }
        ColumnData::Decimal(v) => {
            let mut b = BytesMut::with_capacity(v.len() * 8);
            for x in v {
                b.put_i64_le(*x);
            }
            (b, 8)
        }
        ColumnData::Text(v) => {
            // Pad to the max observed width so rows stay addressable.
            let w = v.iter().map(|s| s.len()).max().unwrap_or(0).max(1);
            let mut b = BytesMut::with_capacity(v.len() * w);
            for s in v {
                b.put_slice(s.as_bytes());
                b.put_bytes(b' ', w - s.len());
            }
            (b, w)
        }
    }
}

fn decode_raw(bytes: &Bytes, rows: usize, template: &ColumnData) -> ColumnData {
    let mut buf = bytes.clone();
    match template {
        ColumnData::Int(_) => ColumnData::Int((0..rows).map(|_| buf.get_i32_le()).collect()),
        ColumnData::Date(_) => ColumnData::Date((0..rows).map(|_| buf.get_i32_le()).collect()),
        ColumnData::Decimal(_) => {
            ColumnData::Decimal((0..rows).map(|_| buf.get_i64_le()).collect())
        }
        ColumnData::Text(_) => {
            let w = bytes.len().checked_div(rows).unwrap_or(1).max(1);
            ColumnData::Text(
                (0..rows)
                    .map(|i| {
                        let s = &bytes[i * w..(i + 1) * w];
                        String::from_utf8_lossy(s).trim_end().to_string()
                    })
                    .collect(),
            )
        }
    }
}

// --- varint / zigzag ---------------------------------------------------

fn put_varint(b: &mut BytesMut, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            b.put_u8(byte);
            return;
        }
        b.put_u8(byte | 0x80);
    }
}

/// Varint read over a plain slice with an external position — the
/// streaming cursors' primitive (no per-byte view bookkeeping).
#[inline]
fn get_varint_at(data: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0;
    loop {
        let byte = data[*pos];
        *pos += 1;
        x |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(x: i64) -> u64 {
    // Shift in u64 space: `x << 1` overflows i64 for large |x|.
    ((x as u64) << 1) ^ ((x >> 63) as u64)
}

#[inline]
fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

// --- LZ77-class byte compressor ----------------------------------------

const LZ_MIN_MATCH: usize = 4;
const LZ_WINDOW: usize = 1 << 16;

/// Greedy hash-chain LZ77: tokens are `(literal_len varint, literals,
/// match_len varint, match_dist varint)`; a final token may have
/// `match_len = 0`.
pub fn lz_compress(input: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(input.len() / 2 + 16);
    let mut head: Vec<u32> = vec![u32::MAX; 1 << 15];
    let hash = |w: &[u8]| -> usize {
        let x = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        ((x.wrapping_mul(2654435761)) >> 17) as usize & ((1 << 15) - 1)
    };
    let mut i = 0;
    let mut lit_start = 0;
    while i + LZ_MIN_MATCH <= input.len() {
        let h = hash(&input[i..i + 4]);
        let cand = head[h];
        head[h] = i as u32;
        let mut match_len = 0;
        let mut match_pos = 0usize;
        if cand != u32::MAX {
            let c = cand as usize;
            if i - c <= LZ_WINDOW && input[c..c + 4] == input[i..i + 4] {
                let max = input.len() - i;
                let mut l = 4;
                while l < max && input[c + l] == input[i + l] {
                    l += 1;
                }
                match_len = l;
                match_pos = c;
            }
        }
        if match_len >= LZ_MIN_MATCH {
            put_varint(&mut out, (i - lit_start) as u64);
            out.put_slice(&input[lit_start..i]);
            put_varint(&mut out, match_len as u64);
            put_varint(&mut out, (i - match_pos) as u64);
            i += match_len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    // Trailing literals.
    put_varint(&mut out, (input.len() - lit_start) as u64);
    out.put_slice(&input[lit_start..]);
    put_varint(&mut out, 0); // match_len 0 = end
    put_varint(&mut out, 0);
    out.freeze()
}

/// Inverse of [`lz_compress`].
pub fn lz_decompress(input: &Bytes, expected_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(expected_len);
    lz_decompress_into(input, &mut out);
    out
}

/// Inverse of [`lz_compress`], decompressing into a caller-owned scratch
/// buffer (cleared first, capacity retained). The executor reuses one
/// scratch per partition across scans so variable-width decode allocates
/// nothing in steady state.
///
/// Copies in bulk: literals are one `extend_from_slice`, matches are
/// `extend_from_within` runs (an overlapping match — `dist < len`, the
/// RLE case — amplifies the available window per round instead of
/// copying byte-at-a-time).
pub fn lz_decompress_into(input: &Bytes, out: &mut Vec<u8>) {
    out.clear();
    let data: &[u8] = input;
    let mut pos = 0usize;
    loop {
        let lit = get_varint_at(data, &mut pos) as usize;
        out.extend_from_slice(&data[pos..pos + lit]);
        pos += lit;
        let mlen = get_varint_at(data, &mut pos) as usize;
        let dist = get_varint_at(data, &mut pos) as usize;
        if mlen == 0 {
            break;
        }
        let mut src = out.len() - dist;
        let mut remaining = mlen;
        while remaining > 0 {
            let n = remaining.min(out.len() - src);
            out.extend_from_within(src..src + n);
            src += n;
            remaining -= n;
        }
    }
}

/// Inverse of [`lz_compress`] into an exactly-sized scratch buffer: when
/// the decompressed length is known up front (`EncodedColumn::raw_width ×
/// rows`), the output is written in place through slice copies — no
/// per-token length bookkeeping or growth checks at all. Falls back to
/// the growing path when `expected` is 0 (unknown).
///
/// `want` (≤ `expected`) is how many leading bytes the caller will read:
/// decompression stops at the first token boundary at or past it, so a
/// pruned scan pays for the stream up to its last kept chunk and no
/// further. Bytes of `out` past the stop are unspecified.
pub fn lz_decompress_exact(input: &Bytes, expected: usize, want: usize, out: &mut Vec<u8>) {
    if expected == 0 {
        return lz_decompress_into(input, out);
    }
    out.resize(expected, 0);
    let data: &[u8] = input;
    let mut pos = 0usize;
    let mut w = 0usize;
    while w < want {
        let lit = get_varint_at(data, &mut pos) as usize;
        // Typical tokens are short: blind 16-byte copies (two register
        // moves, no memcpy dispatch) whenever there is slack; the extra
        // bytes are overwritten by the next token.
        if lit <= 16 && pos + 16 <= data.len() && w + 16 <= out.len() {
            let chunk: [u8; 16] = data[pos..pos + 16].try_into().expect("16-byte chunk");
            out[w..w + 16].copy_from_slice(&chunk);
        } else {
            out[w..w + lit].copy_from_slice(&data[pos..pos + lit]);
        }
        pos += lit;
        w += lit;
        let mlen = get_varint_at(data, &mut pos) as usize;
        let dist = get_varint_at(data, &mut pos) as usize;
        if mlen == 0 {
            break;
        }
        if dist >= mlen && w + mlen + 16 <= out.len() && mlen <= 64 {
            // Non-overlapping short match with slack: 16-byte strides.
            let mut k = 0;
            while k < mlen {
                let chunk: [u8; 16] = out[w - dist + k..w - dist + k + 16]
                    .try_into()
                    .expect("16-byte chunk");
                out[w + k..w + k + 16].copy_from_slice(&chunk);
                k += 16;
            }
            w += mlen;
        } else {
            let mut src = w - dist;
            let mut remaining = mlen;
            while remaining > 0 {
                // An overlapping match (dist < len) amplifies per round.
                let n = remaining.min(w - src);
                out.copy_within(src..src + n, w);
                src += n;
                w += n;
                remaining -= n;
            }
        }
    }
    debug_assert!(
        w == expected || (want..expected).contains(&w),
        "decompressed length mismatch"
    );
}

/// Walk an LZ token stream without expanding it: parses every token and
/// accumulates the decompressed length. This is the minimal work a reader
/// must do to recover row addresses inside a variable-width segment (the
/// whole-partition-decode penalty for segments whose *values* nobody
/// asked for): every encoded byte is still visited, nothing is
/// materialized. The walk stops at the first token boundary at or past
/// `want` decompressed bytes (`u64::MAX` walks the whole stream) — rows
/// past a pruned scan's last kept chunk need no address.
pub fn lz_walk(input: &Bytes, want: u64) -> u64 {
    // Slice-narrowing cursor: single-byte varints (the overwhelmingly
    // common case for token lengths) take the one-compare fast path.
    #[inline]
    fn varint(s: &mut &[u8]) -> usize {
        let b = s[0];
        *s = &s[1..];
        if b < 0x80 {
            return b as usize;
        }
        let mut x = (b & 0x7f) as usize;
        let mut shift = 7;
        loop {
            let b = s[0];
            *s = &s[1..];
            x |= ((b & 0x7f) as usize) << shift;
            if b < 0x80 {
                return x;
            }
            shift += 7;
        }
    }
    let mut s: &[u8] = input;
    let mut total = 0u64;
    while total < want {
        let lit = varint(&mut s);
        s = &s[lit..];
        total += lit as u64;
        let mlen = varint(&mut s);
        let _dist = varint(&mut s);
        if mlen == 0 {
            break;
        }
        total += mlen as u64;
    }
    total
}

/// Stream the first `rows` decoded values of a delta segment through `f`
/// with a slice-narrowing cursor (single-byte varints — small deltas, the
/// common case for sorted keys and clustered dates — take a one-compare
/// fast path). Semantically identical to iterating [`DeltaCursor`]; this
/// is the executor's fingerprint-producing hot loop.
pub fn delta_for_each(enc: &EncodedColumn, rows: usize, mut f: impl FnMut(i64)) {
    debug_assert_eq!(enc.codec, Codec::Delta);
    let mut s: &[u8] = &enc.bytes;
    let mut prev = 0i64;
    for _ in 0..rows.min(enc.rows) {
        let b = s[0];
        s = &s[1..];
        let raw = if b < 0x80 {
            b as u64
        } else {
            let mut x = (b & 0x7f) as u64;
            let mut shift = 7;
            loop {
                let b = s[0];
                s = &s[1..];
                x |= ((b & 0x7f) as u64) << shift;
                if b < 0x80 {
                    break x;
                }
                shift += 7;
            }
        };
        prev = prev.wrapping_add(unzigzag(raw));
        f(prev);
    }
}

/// Walk a delta varint stream without decoding it: counts the first
/// `rows` value boundaries (terminal varint bytes), i.e. the
/// row-addressing work for a delta segment whose values are not
/// referenced. A whole-segment walk keeps the unbounded (vectorizable)
/// count.
pub fn delta_walk(enc: &EncodedColumn, rows: usize) -> u64 {
    let ends = enc.bytes.iter().filter(|&&b| b & 0x80 == 0);
    if rows >= enc.rows {
        ends.count() as u64
    } else {
        ends.take(rows).count() as u64
    }
}

// --- streaming cursors --------------------------------------------------

/// Streaming decoder over a [`Codec::Delta`] segment: yields the decoded
/// `i64` values one at a time with O(1) state (byte position + running
/// prefix sum), so the executor can fingerprint a delta column without
/// ever materializing a `ColumnData`.
#[derive(Debug, Clone)]
pub struct DeltaCursor {
    buf: Bytes,
    pos: usize,
    prev: i64,
    remaining: usize,
}

impl DeltaCursor {
    /// Open a cursor over `enc` (must be delta-encoded).
    pub fn new(enc: &EncodedColumn) -> DeltaCursor {
        debug_assert_eq!(enc.codec, Codec::Delta);
        DeltaCursor {
            buf: enc.bytes.clone(),
            pos: 0,
            prev: 0,
            remaining: enc.rows,
        }
    }
}

impl Iterator for DeltaCursor {
    type Item = i64;

    #[inline]
    fn next(&mut self) -> Option<i64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let delta = unzigzag(get_varint_at(&self.buf, &mut self.pos));
        self.prev = self.prev.wrapping_add(delta);
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Physical layout of a [`Codec::Dictionary`] segment: code width from
/// the code stream size, entry count from the segment metadata (falling
/// back to an O(rows) walk of the code stream for hand-built segments,
/// which is how the naive decoder always recovers it), value width from
/// the dictionary size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DictLayout {
    /// Bytes per code in the code stream (1, 2 or 4).
    pub code_width: usize,
    /// Number of dictionary entries.
    pub entries: usize,
    /// Bytes per dictionary entry (the column's fixed value width).
    pub value_width: usize,
}

impl DictLayout {
    /// Recover the layout of `enc` (must be dictionary-encoded).
    pub fn of(enc: &EncodedColumn) -> DictLayout {
        debug_assert_eq!(enc.codec, Codec::Dictionary);
        let code_width = enc.bytes.len().checked_div(enc.rows).unwrap_or(1).max(1);
        let entries = if enc.dict_entries > 0 {
            enc.dict_entries
        } else {
            dict_entry_count(&enc.bytes, enc.rows, code_width)
        };
        let value_width = enc
            .dict_bytes
            .len()
            .checked_div(entries)
            .unwrap_or(1)
            .max(1);
        DictLayout {
            code_width,
            entries,
            value_width,
        }
    }

    /// The dictionary entry bytes for code `c`.
    #[inline]
    pub fn entry<'a>(&self, dict_bytes: &'a [u8], c: usize) -> &'a [u8] {
        &dict_bytes[c * self.value_width..(c + 1) * self.value_width]
    }
}

/// Read the `i`-th code from a dictionary code stream of `code_width`.
#[inline]
pub fn dict_code(codes: &[u8], code_width: usize, i: usize) -> usize {
    match code_width {
        1 => codes[i] as usize,
        2 => u16::from_le_bytes([codes[2 * i], codes[2 * i + 1]]) as usize,
        _ => u32::from_le_bytes([
            codes[4 * i],
            codes[4 * i + 1],
            codes[4 * i + 2],
            codes[4 * i + 3],
        ]) as usize,
    }
}

// --- public encode / decode --------------------------------------------

/// Encode `col` with `codec`. Delta on text falls back to LZ; delta on
/// decimals uses 64-bit deltas.
pub fn encode(col: &ColumnData, codec: Codec) -> EncodedColumn {
    let rows = col.len();
    match codec {
        Codec::Plain => {
            let (b, w) = raw_bytes(col);
            EncodedColumn {
                codec,
                bytes: b.freeze(),
                dict_bytes: Bytes::new(),
                rows,
                dict_entries: 0,
                raw_width: w,
            }
        }
        Codec::Dictionary => {
            // Build value dictionary over the raw fixed-width form.
            let (raw, w) = raw_bytes(col);
            let raw = raw.freeze();
            let mut dict: Vec<&[u8]> = Vec::new();
            let mut codes: Vec<u32> = Vec::with_capacity(rows);
            let mut index: std::collections::HashMap<&[u8], u32> = std::collections::HashMap::new();
            for i in 0..rows {
                let v = &raw[i * w..(i + 1) * w];
                let code = *index.entry(v).or_insert_with(|| {
                    dict.push(v);
                    (dict.len() - 1) as u32
                });
                codes.push(code);
            }
            let code_width: usize = match dict.len() {
                0..=0xFF => 1,
                0x100..=0xFFFF => 2,
                _ => 4,
            };
            let mut bytes = BytesMut::with_capacity(rows * code_width);
            for c in &codes {
                match code_width {
                    1 => bytes.put_u8(*c as u8),
                    2 => bytes.put_u16_le(*c as u16),
                    _ => bytes.put_u32_le(*c),
                }
            }
            let mut dict_bytes = BytesMut::with_capacity(dict.len() * w);
            for v in &dict {
                dict_bytes.put_slice(v);
            }
            EncodedColumn {
                codec,
                bytes: bytes.freeze(),
                dict_bytes: dict_bytes.freeze(),
                rows,
                dict_entries: dict.len(),
                raw_width: w,
            }
        }
        Codec::Delta => match col {
            ColumnData::Int(v) => delta_encode(v.iter().map(|&x| x as i64), rows, codec),
            ColumnData::Date(v) => delta_encode(v.iter().map(|&x| x as i64), rows, codec),
            ColumnData::Decimal(v) => delta_encode(v.iter().copied(), rows, codec),
            ColumnData::Text(_) => encode(col, Codec::Lz),
        },
        Codec::Lz => {
            let (raw, w) = raw_bytes(col);
            EncodedColumn {
                codec,
                bytes: lz_compress(&raw),
                dict_bytes: Bytes::new(),
                rows,
                dict_entries: 0,
                raw_width: w,
            }
        }
    }
}

fn delta_encode(values: impl Iterator<Item = i64>, rows: usize, codec: Codec) -> EncodedColumn {
    let mut b = BytesMut::new();
    let mut prev = 0i64;
    for x in values {
        // Wrapping difference: lossless over the full i64 range because the
        // decoder adds back with the same wrapping semantics.
        put_varint(&mut b, zigzag(x.wrapping_sub(prev)));
        prev = x;
    }
    EncodedColumn {
        codec,
        bytes: b.freeze(),
        dict_bytes: Bytes::new(),
        rows,
        dict_entries: 0,
        raw_width: 0,
    }
}

/// Decode a column previously produced by [`encode`]. `template` supplies
/// the value type (an empty column of the right variant suffices).
pub fn decode(enc: &EncodedColumn, template: &ColumnData) -> ColumnData {
    match enc.codec {
        Codec::Plain => decode_raw(&enc.bytes, enc.rows, template),
        Codec::Dictionary => {
            // Seed-era recovery, kept verbatim: code width from the
            // payload size, entry count from an O(rows) walk for the
            // highest code (the naive path's cost profile — cursors use
            // the recorded `dict_entries` instead).
            let rows = enc.rows;
            let w = enc.bytes.len().checked_div(rows).unwrap_or(1).max(1);
            let entries = dict_entry_count(&enc.bytes, rows, w);
            let value_w = enc
                .dict_bytes
                .len()
                .checked_div(entries)
                .unwrap_or(1)
                .max(1);
            let mut out_raw = BytesMut::with_capacity(rows * value_w);
            for i in 0..rows {
                let code = dict_code(&enc.bytes, w, i);
                out_raw.put_slice(&enc.dict_bytes[code * value_w..(code + 1) * value_w]);
            }
            decode_raw(&out_raw.freeze(), rows, template)
        }
        Codec::Delta => {
            let vals: Vec<i64> = DeltaCursor::new(enc).collect();
            match template {
                ColumnData::Int(_) => ColumnData::Int(vals.iter().map(|&x| x as i32).collect()),
                ColumnData::Date(_) => ColumnData::Date(vals.iter().map(|&x| x as i32).collect()),
                ColumnData::Decimal(_) => ColumnData::Decimal(vals),
                ColumnData::Text(_) => unreachable!("delta never encodes text"),
            }
        }
        Codec::Lz => {
            let raw = lz_decompress(&enc.bytes, 0);
            decode_raw(&Bytes::from(raw), enc.rows, template)
        }
    }
}

fn dict_entry_count(codes: &Bytes, rows: usize, code_width: usize) -> usize {
    let mut max = 0usize;
    for i in 0..rows {
        let code = match code_width {
            1 => codes[i] as usize,
            2 => u16::from_le_bytes([codes[2 * i], codes[2 * i + 1]]) as usize,
            _ => u32::from_le_bytes([
                codes[4 * i],
                codes[4 * i + 1],
                codes[4 * i + 2],
                codes[4 * i + 3],
            ]) as usize,
        };
        max = max.max(code + 1);
    }
    max
}

/// DBMS-X's default scheme for a column kind: delta for ints/dates, LZ for
/// strings and decimals (paper Table 7, "Default (LZO or Delta)").
pub fn default_codec(kind: slicer_model::AttrKind) -> Codec {
    match kind {
        slicer_model::AttrKind::Int | slicer_model::AttrKind::Date => Codec::Delta,
        slicer_model::AttrKind::Decimal | slicer_model::AttrKind::Text => Codec::Lz,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(col: &ColumnData, codec: Codec) {
        let enc = encode(col, codec);
        let template = match col {
            ColumnData::Int(_) => ColumnData::Int(vec![]),
            ColumnData::Decimal(_) => ColumnData::Decimal(vec![]),
            ColumnData::Date(_) => ColumnData::Date(vec![]),
            ColumnData::Text(_) => ColumnData::Text(vec![]),
        };
        let dec = decode(&enc, &template);
        assert_eq!(col, &dec, "roundtrip failed for {codec:?}");
    }

    #[test]
    fn plain_roundtrips_all_types() {
        roundtrip(&ColumnData::Int(vec![1, -5, 1000, i32::MAX]), Codec::Plain);
        roundtrip(&ColumnData::Decimal(vec![0, -1, 123456789]), Codec::Plain);
        roundtrip(&ColumnData::Date(vec![0, 2526]), Codec::Plain);
        roundtrip(
            &ColumnData::Text(vec!["hello".into(), "a".into(), "world wide".into()]),
            Codec::Plain,
        );
    }

    #[test]
    fn dictionary_roundtrips() {
        roundtrip(&ColumnData::Int(vec![5, 5, 7, 5, 7, 9]), Codec::Dictionary);
        roundtrip(
            &ColumnData::Text(vec!["AIR".into(), "RAIL".into(), "AIR".into()]),
            Codec::Dictionary,
        );
    }

    #[test]
    fn delta_roundtrips() {
        roundtrip(&ColumnData::Int((1..500).collect()), Codec::Delta);
        roundtrip(&ColumnData::Date(vec![10, 8, 9, 2000, 1999]), Codec::Delta);
        roundtrip(
            &ColumnData::Decimal(vec![100, 90, 80, 1_000_000]),
            Codec::Delta,
        );
    }

    #[test]
    fn lz_roundtrips() {
        roundtrip(
            &ColumnData::Text(vec![
                "the quick brown fox".into(),
                "the quick brown fox".into(),
                "jumps over the lazy dog".into(),
            ]),
            Codec::Lz,
        );
        roundtrip(&ColumnData::Int(vec![42; 1000]), Codec::Lz);
    }

    #[test]
    fn lz_compresses_repetitive_data() {
        let data: Vec<u8> = b"carefully final deposits ".repeat(100);
        let c = lz_compress(&data);
        assert!(c.len() < data.len() / 3, "{} vs {}", c.len(), data.len());
        assert_eq!(lz_decompress(&c, data.len()), data);
    }

    #[test]
    fn lz_handles_incompressible_and_tiny_inputs() {
        let data: Vec<u8> = (0..=255).collect();
        let c = lz_compress(&data);
        assert_eq!(lz_decompress(&c, data.len()), data);
        let tiny = b"ab";
        let c = lz_compress(tiny);
        assert_eq!(lz_decompress(&c, 2), tiny);
        let empty = lz_compress(b"");
        assert_eq!(lz_decompress(&empty, 0), b"");
    }

    #[test]
    fn delta_beats_plain_on_sequential_keys() {
        let keys = ColumnData::Int((1..10_000).collect());
        let plain = encode(&keys, Codec::Plain).stored_bytes();
        let delta = encode(&keys, Codec::Delta).stored_bytes();
        assert!(delta < plain / 3, "delta {delta} vs plain {plain}");
    }

    #[test]
    fn dictionary_beats_plain_on_enums_but_not_unique_text() {
        let enums = ColumnData::Text(
            (0..5000)
                .map(|i| ["AIR", "RAIL", "SHIP"][i % 3].to_string())
                .collect(),
        );
        let d = encode(&enums, Codec::Dictionary).stored_bytes();
        let p = encode(&enums, Codec::Plain).stored_bytes();
        assert!(d < p / 2, "dict {d} vs plain {p}");

        let unique = ColumnData::Text((0..2000).map(|i| format!("comment-{i:06}")).collect());
        let d = encode(&unique, Codec::Dictionary).stored_bytes();
        let p = encode(&unique, Codec::Plain).stored_bytes();
        assert!(
            d > p,
            "unique text should not benefit: dict {d} vs plain {p}"
        );
    }

    #[test]
    fn default_codecs_match_dbmsx() {
        use slicer_model::AttrKind::*;
        assert_eq!(default_codec(Int), Codec::Delta);
        assert_eq!(default_codec(Date), Codec::Delta);
        assert_eq!(default_codec(Text), Codec::Lz);
        assert_eq!(default_codec(Decimal), Codec::Lz);
    }

    #[test]
    fn delta_cursor_streams_decoded_values() {
        let col = ColumnData::Int(vec![5, 3, 100, -40, i32::MAX, i32::MIN]);
        let enc = encode(&col, Codec::Delta);
        let streamed: Vec<i64> = DeltaCursor::new(&enc).collect();
        assert_eq!(
            streamed,
            vec![5, 3, 100, -40, i32::MAX as i64, i32::MIN as i64]
        );
    }

    #[test]
    fn dict_layout_recovers_widths() {
        let col = ColumnData::Text(vec!["AIR".into(), "RAIL".into(), "AIR".into()]);
        let enc = encode(&col, Codec::Dictionary);
        let l = DictLayout::of(&enc);
        assert_eq!(l.code_width, 1);
        assert_eq!(l.entries, 2);
        assert_eq!(l.value_width, 4); // padded to max observed width
        assert_eq!(dict_code(&enc.bytes, l.code_width, 2), 0);
        assert_eq!(l.entry(&enc.dict_bytes, 1), b"RAIL");
    }

    #[test]
    fn lz_decompress_into_reuses_scratch() {
        let data: Vec<u8> = b"pending deposits boost ".repeat(50);
        let c = lz_compress(&data);
        let mut scratch = Vec::new();
        lz_decompress_into(&c, &mut scratch);
        assert_eq!(scratch, data);
        // Second use with stale contents: cleared, not appended.
        lz_decompress_into(&c, &mut scratch);
        assert_eq!(scratch, data);
    }

    #[test]
    fn bounded_streams_stop_at_the_bound() {
        let col = ColumnData::Int((0..5000).map(|i| i * 7 - 900).collect());
        let enc = encode(&col, Codec::Delta);
        let mut seen = Vec::new();
        delta_for_each(&enc, 1200, |v| seen.push(v));
        let expect: Vec<i64> = (0..1200).map(|i| i * 7 - 900).collect();
        assert_eq!(seen, expect);
        assert_eq!(delta_walk(&enc, 1200), 1200);
        assert_eq!(delta_walk(&enc, usize::MAX), 5000);

        // Scrambled digits: short matches, so tokens end near any bound.
        let text = ColumnData::Text(
            (0..5000u64)
                .map(|i| format!("{:07}", i * 2_654_435_761 % 10_000_000))
                .collect(),
        );
        let enc = encode(&text, Codec::Lz);
        let (total, want) = (enc.rows * enc.raw_width, 1200 * enc.raw_width);
        let mut whole = Vec::new();
        lz_decompress_exact(&enc.bytes, total, total, &mut whole);
        let mut prefix = Vec::new();
        lz_decompress_exact(&enc.bytes, total, want, &mut prefix);
        assert_eq!(prefix[..want], whole[..want]);
        assert_eq!(lz_walk(&enc.bytes, u64::MAX), total as u64);
        let walked = lz_walk(&enc.bytes, want as u64);
        assert!((want as u64..total as u64).contains(&walked), "{walked}");
    }

    #[test]
    fn fixed_width_flag() {
        assert!(Codec::Plain.fixed_width());
        assert!(Codec::Dictionary.fixed_width());
        assert!(!Codec::Delta.fixed_width());
        assert!(!Codec::Lz.fixed_width());
    }
}
