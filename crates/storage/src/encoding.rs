//! The byte rules every binary format in the workspace shares: the
//! CRC-32, the record frame, and the little-endian cursor.
//!
//! Four formats are built from this kit: the WAL, the manifest and
//! partition-file images (all in [`crate::wal`]), the ingest-batch image
//! ([`crate::delta::encode_ingest_batch`]) and the wire frames of
//! `slicer-net`. Each keeps its own tags, bounds, version check and error
//! type; decoders convert a [`DecodeError`] into theirs with `?`.
//!
//! # Record frame
//!
//! ```text
//! ┌─────────┬─────────┬──────────────────────────────┐
//! │ len u32 │ crc u32 │ body: u64 ‖ kind u8 ‖ …      │
//! └─────────┴─────────┴──────────────────────────────┘
//!              └──────── crc32 covers ─────────────┘
//! ```
//!
//! `len` counts the body. Both users open the body with a `u64` (the WAL
//! sequence number, the wire request id) and a one-byte kind, so a body
//! is at least 9 bytes. A WAL file is a run of these
//! records; so is a connection's byte stream.
//!
//! # Cursor
//!
//! Integers are little-endian; an `f64` travels as its IEEE bits; a string
//! is `len u32 ‖ UTF-8 bytes`. The `take_*` readers consume from the front
//! of a `&mut &[u8]` and fail, never panic, when the bytes run out. Every
//! declared element count is read through [`take_vec`], which checks it
//! against the bytes left before anything is allocated, so a short
//! hostile input cannot ask for a huge buffer. The small readers and
//! writers are `#[inline]`: the workspace builds without LTO, and they
//! sit on every frame decoder's per-field path in other crates.

use std::fmt;

// --- CRC-32 (IEEE) ----------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3 polynomial), the checksum guarding every WAL
/// record, manifest, partition file and wire frame.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --- record frame -----------------------------------------------------

/// Bytes of the record header: `len u32 ‖ crc u32`.
pub const RECORD_HEADER: usize = 8;

/// The shortest body a record may declare: its `u64` and its kind byte.
const MIN_RECORD_BODY: u32 = 9;

/// Build one record: `write_body` appends the body, then the header is
/// filled in over it. The first allocation holds every fixed-size wire
/// frame (scan requests and replies are 65–107 bytes).
pub fn seal_record(write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(&[0; RECORD_HEADER]);
    write_body(&mut out);
    let len = (out.len() - RECORD_HEADER) as u32;
    let crc = crc32(&out[RECORD_HEADER..]);
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..RECORD_HEADER].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Why the front of a byte run is not one intact record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unseal {
    /// Fewer than [`RECORD_HEADER`] bytes.
    ShortHeader,
    /// The header declares a body length outside
    /// `MIN_RECORD_BODY..=max_len`.
    BadLength(u32),
    /// The body is cut short: `have` of its `len` bytes are present.
    ShortBody {
        /// Body bytes present.
        have: usize,
        /// Body bytes declared.
        len: usize,
    },
    /// The body does not match its CRC.
    Checksum,
}

impl fmt::Display for Unseal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unseal::ShortHeader => write!(f, "truncated record header"),
            Unseal::BadLength(len) => write!(f, "implausible record length {len}"),
            Unseal::ShortBody { have, len } => {
                write!(f, "truncated record body ({have} of {len} bytes)")
            }
            Unseal::Checksum => write!(f, "record checksum mismatch"),
        }
    }
}

/// Check the record at the front of `bytes` and return its body (the
/// record spans `RECORD_HEADER + body.len()` bytes). The checks run in
/// order (header, length bounds, body, CRC), so a length beyond
/// `max_len` is refused before its body is awaited.
#[inline]
pub fn unseal_record(bytes: &[u8], max_len: u32) -> Result<&[u8], Unseal> {
    let mut header = bytes.get(..RECORD_HEADER).ok_or(Unseal::ShortHeader)?;
    let len = take_u32(&mut header).map_err(|_| Unseal::ShortHeader)?;
    let crc = take_u32(&mut header).map_err(|_| Unseal::ShortHeader)?;
    if !(MIN_RECORD_BODY..=max_len).contains(&len) {
        return Err(Unseal::BadLength(len));
    }
    let have = bytes.len() - RECORD_HEADER;
    let len = len as usize;
    if have < len {
        return Err(Unseal::ShortBody { have, len });
    }
    let body = &bytes[RECORD_HEADER..RECORD_HEADER + len];
    if crc32(body) != crc {
        return Err(Unseal::Checksum);
    }
    Ok(body)
}

// --- cursor -----------------------------------------------------------

/// A malformed image; the message names the first violation. Each format
/// converts it into its own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Append `s` as `len u32 ‖ UTF-8 bytes`.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Append `bytes` as `len u64 ‖ bytes`.
#[inline]
pub fn put_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Append the `0 | 1` flag byte saying whether `value` is present, and
/// hand `value` back for its body to follow.
pub fn put_flag<T>(out: &mut Vec<u8>, value: Option<T>) -> Option<T> {
    out.push(u8::from(value.is_some()));
    value
}

/// Consume the next `n` bytes.
#[inline]
pub fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < n {
        return Err(DecodeError(format!(
            "truncated: wanted {n} bytes, {} left",
            buf.len()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let mut out = [0; N];
    out.copy_from_slice(take_bytes(buf, N)?);
    Ok(out)
}

/// Consume one byte.
#[inline]
pub fn take_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    Ok(take_bytes(buf, 1)?[0])
}

/// Consume a little-endian `u16`.
#[inline]
pub fn take_u16(buf: &mut &[u8]) -> Result<u16, DecodeError> {
    take_array(buf).map(u16::from_le_bytes)
}

/// Consume a little-endian `u32`.
#[inline]
pub fn take_u32(buf: &mut &[u8]) -> Result<u32, DecodeError> {
    take_array(buf).map(u32::from_le_bytes)
}

/// Consume a little-endian `u64`.
#[inline]
pub fn take_u64(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    take_array(buf).map(u64::from_le_bytes)
}

/// Consume a little-endian two's-complement `i32`.
#[inline]
pub fn take_i32(buf: &mut &[u8]) -> Result<i32, DecodeError> {
    take_array(buf).map(i32::from_le_bytes)
}

/// Consume a little-endian two's-complement `i64`.
#[inline]
pub fn take_i64(buf: &mut &[u8]) -> Result<i64, DecodeError> {
    take_array(buf).map(i64::from_le_bytes)
}

/// Consume an `f64` from its little-endian IEEE bits.
#[inline]
pub fn take_f64(buf: &mut &[u8]) -> Result<f64, DecodeError> {
    take_u64(buf).map(f64::from_bits)
}

/// Consume a `len u32 ‖ UTF-8 bytes` string of at most `max_len` bytes.
#[inline]
pub fn take_str(buf: &mut &[u8], max_len: usize) -> Result<String, DecodeError> {
    let len = take_u32(buf)? as usize;
    if len > max_len {
        return Err(DecodeError(format!("implausible string ({len} B)")));
    }
    std::str::from_utf8(take_bytes(buf, len)?)
        .map(str::to_string)
        .map_err(|_| DecodeError("non-UTF-8 string".into()))
}

/// Consume a `len u64 ‖ bytes` blob.
#[inline]
pub fn take_blob<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
    let len = take_u64(buf)?;
    take_bytes(buf, usize::try_from(len).unwrap_or(usize::MAX))
}

/// Consume a `0 | 1` flag byte; `what` names the flag in the error.
#[inline]
pub fn take_flag(buf: &mut &[u8], what: &str) -> Result<bool, DecodeError> {
    match take_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(DecodeError(format!("bad {what} flag {other}"))),
    }
}

/// How a format bounds one declared element count: what it counts (for
/// errors), the fewest bytes one element takes, and a cap.
#[derive(Debug, Clone, Copy)]
pub struct Count {
    what: &'static str,
    min_bytes: usize,
    max: usize,
}

impl Count {
    /// A count of `what`, each element at least `min_bytes` long (at
    /// least 1), at most `max` of them.
    pub const fn new(what: &'static str, min_bytes: usize, max: usize) -> Count {
        assert!(min_bytes > 0, "every element takes a byte");
        Count {
            what,
            min_bytes,
            max,
        }
    }
}

/// Consume `count` elements with `take`. The declared count is checked
/// against `bound` first, before anything is allocated: at most its cap,
/// and `count` elements of its least size must fit in the bytes left.
pub fn take_vec<T, E: From<DecodeError>>(
    buf: &mut &[u8],
    count: u64,
    bound: Count,
    mut take: impl FnMut(&mut &[u8]) -> Result<T, E>,
) -> Result<Vec<T>, E> {
    if count > bound.max.min(buf.len() / bound.min_bytes) as u64 {
        let what = bound.what;
        return Err(DecodeError(format!("implausible {what} {count}")).into());
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        out.push(take(buf)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sealed_record_unseals_and_every_damage_is_named() {
        let rec = seal_record(|b| b.extend_from_slice(&[7; 12]));
        assert_eq!(rec.len(), RECORD_HEADER + 12);
        assert_eq!(unseal_record(&rec, u32::MAX), Ok(&rec[RECORD_HEADER..]));
        assert_eq!(unseal_record(&rec[..7], u32::MAX), Err(Unseal::ShortHeader));
        assert_eq!(
            unseal_record(&rec[..15], u32::MAX),
            Err(Unseal::ShortBody { have: 7, len: 12 })
        );
        assert_eq!(unseal_record(&rec, 11), Err(Unseal::BadLength(12)));
        let mut flipped = rec.clone();
        flipped[RECORD_HEADER] ^= 1;
        assert_eq!(unseal_record(&flipped, u32::MAX), Err(Unseal::Checksum));
        let short = seal_record(|b| b.extend_from_slice(&[0; 8]));
        assert_eq!(unseal_record(&short, u32::MAX), Err(Unseal::BadLength(8)));
    }

    #[test]
    fn the_cursor_reads_what_was_written_and_fails_on_short_input() {
        let mut out = Vec::new();
        out.push(9);
        out.extend_from_slice(&0xBEEFu16.to_le_bytes());
        out.extend_from_slice(&7u32.to_le_bytes());
        out.extend_from_slice(&u64::MAX.to_le_bytes());
        out.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        put_str(&mut out, "knife");
        let mut buf = out.as_slice();
        assert_eq!(take_u8(&mut buf), Ok(9));
        assert_eq!(take_u16(&mut buf), Ok(0xBEEF));
        assert_eq!(take_u32(&mut buf), Ok(7));
        assert_eq!(take_u64(&mut buf), Ok(u64::MAX));
        assert_eq!(take_f64(&mut buf), Ok(1.5));
        assert_eq!(take_str(&mut buf, 5).as_deref(), Ok("knife"));
        assert!(buf.is_empty());
        assert!(take_u8(&mut buf).is_err());
        let mut long = &out[out.len() - 9..];
        assert!(take_str(&mut long, 4).is_err(), "over its bound");
        let mut bad = &[1, 0, 0, 0, 0xFF][..];
        assert!(take_str(&mut bad, 8).is_err(), "not UTF-8");
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left_and_the_cap() {
        let bytes = [0u8; 16];
        let take = |count, max| take_vec(&mut &bytes[..], count, Count::new("n", 8, max), take_u64);
        assert_eq!(take(2, usize::MAX), Ok(vec![0, 0]));
        assert!(take(3, usize::MAX).is_err());
        assert!(take(2, 1).is_err());
        assert!(take(1 << 40, usize::MAX).is_err());
        assert!(take(u64::MAX, usize::MAX).is_err());
    }

    #[test]
    fn flags_are_zero_or_one() {
        assert_eq!(take_flag(&mut &[0u8][..], "f"), Ok(false));
        assert_eq!(take_flag(&mut &[1u8][..], "f"), Ok(true));
        assert!(take_flag(&mut &[2u8][..], "f").is_err());
    }
}
