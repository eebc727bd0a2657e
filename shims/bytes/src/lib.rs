//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply-cloneable view into shared immutable bytes whose
//! [`Buf`] accessors consume from the front (advancing the view, like the
//! real crate). [`BytesMut`] is an append-only builder that freezes into
//! [`Bytes`]. Only the little-endian accessors the storage codecs use are
//! provided.

#![forbid(unsafe_code)]

use std::ops::Deref;
use std::sync::Arc;

/// Shared immutable byte buffer; clones share the allocation.
#[derive(Debug, Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Bytes remaining in the view.
    pub fn len(&self) -> usize {
        self.data.len() - self.start
    }

    /// True iff no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes {
            data: Arc::new(v),
            start: 0,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Read-cursor operations (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);
    /// Pop one byte.
    fn get_u8(&mut self) -> u8;

    /// Pop a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        for x in &mut b {
            *x = self.get_u8();
        }
        u16::from_le_bytes(b)
    }

    /// Pop a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        for x in &mut b {
            *x = self.get_u8();
        }
        u32::from_le_bytes(b)
    }

    /// Pop a little-endian `i32`.
    fn get_i32_le(&mut self) -> i32 {
        self.get_u32_le() as i32
    }

    /// Pop a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        for x in &mut b {
            *x = self.get_u8();
        }
        u64::from_le_bytes(b)
    }

    /// Pop a little-endian `i64`.
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of Bytes");
        self.start += n;
    }

    fn get_u8(&mut self) -> u8 {
        let b = self.data[self.start];
        self.start += 1;
        b
    }
}

/// Growable byte builder (subset of `bytes::BytesMut`).
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    v: Vec<u8>,
}

impl BytesMut {
    /// Empty builder.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Builder with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            v: Vec::with_capacity(cap),
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Convert to an immutable shared [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.v)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.v
    }
}

/// Append operations (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Append one byte.
    fn put_u8(&mut self, b: u8);
    /// Append a slice.
    fn put_slice(&mut self, s: &[u8]);

    /// Append `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, x: u16) {
        self.put_slice(&x.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, x: u32) {
        self.put_slice(&x.to_le_bytes());
    }

    /// Append a little-endian `i32`.
    fn put_i32_le(&mut self, x: i32) {
        self.put_slice(&x.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, x: u64) {
        self.put_slice(&x.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    fn put_i64_le(&mut self, x: i64) {
        self.put_slice(&x.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, b: u8) {
        self.v.push(b);
    }

    fn put_slice(&mut self, s: &[u8]) {
        self.v.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_little_endian() {
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(7);
        b.put_u16_le(0x1234);
        b.put_u32_le(0xdeadbeef);
        b.put_i32_le(-5);
        b.put_i64_le(-6_000_000_000);
        b.put_slice(b"xy");
        b.put_bytes(b' ', 3);
        let mut r = b.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0x1234);
        assert_eq!(r.get_u32_le(), 0xdeadbeef);
        assert_eq!(r.get_i32_le(), -5);
        assert_eq!(r.get_i64_le(), -6_000_000_000);
        assert_eq!(&r[..2], b"xy");
        assert_eq!(r.remaining(), 5);
    }

    #[test]
    fn clones_are_independent_cursors() {
        let b: Bytes = vec![1, 2, 3].into();
        let mut c = b.clone();
        assert_eq!(c.get_u8(), 1);
        assert_eq!(b.len(), 3, "original view unaffected");
        assert_eq!(c.len(), 2);
    }
}
