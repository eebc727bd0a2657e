//! Chunk-granular pruning metadata: zone maps and bloom filters.
//!
//! Every column segment of a partition file carries one [`ChunkStats`] per
//! [`CHUNK_ROWS`]-row chunk (the executor's block size, so a skipped chunk
//! is exactly a skipped block): the min/max *zone key* of the chunk's
//! values plus a 256-bit bloom filter of their fingerprints. A scan with a
//! predicate tests each clause against the chunk stats of the segment
//! storing the clause's attribute; a chunk that cannot match is skipped
//! before any decode, and because all partition files of a snapshot share
//! the row order, the per-clause verdicts AND together into one global
//! keep-mask over chunks.
//!
//! # Zone keys
//!
//! Values are mapped to an `i64` key whose order *weakly* agrees with the
//! value order (`a ≤ b ⇒ key(a) ≤ key(b)`):
//!
//! * `Int`/`Date` — the value widened to `i64`;
//! * `Decimal` — the fixed-point `i64` itself;
//! * `Text` — the first 8 bytes of the trimmed string, zero-padded,
//!   read big-endian and shifted into signed order. Truncation collapses
//!   long shared prefixes to *equal* keys, which can only make pruning
//!   keep more chunks — never drop a matching one.
//!
//! Range clauses prune on keys alone: `attr ≤ lit` can only match inside a
//! chunk whose `min_key ≤ key(lit)`; `attr ≥ lit` needs `max_key ≥
//! key(lit)`. Equality additionally probes the bloom filter with the
//! value's exact fingerprint (the same FNV-1a image the scan checksums
//! hash), so low-cardinality columns prune even when the zone straddles
//! the literal. All tests are conservative: a kept chunk may hold no
//! matching row, but a skipped chunk provably cannot hold one.

use crate::cursor::Cell;
use crate::data::{fnv1a, ColumnData};
use slicer_model::{AttrKind, Literal, PredClause, PredOp};

/// Rows per pruning chunk. Equal to the executor's scan block size, so the
/// keep-mask granularity and the blocked-scan granularity coincide.
pub const CHUNK_ROWS: usize = 2048;

/// Pruning statistics of one [`CHUNK_ROWS`]-row chunk of one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkStats {
    /// Smallest zone key in the chunk (`i64::MAX` when empty).
    pub min_key: i64,
    /// Largest zone key in the chunk (`i64::MIN` when empty).
    pub max_key: i64,
    /// 256-bit bloom filter over value fingerprints, two probes per value.
    pub bloom: [u64; 4],
}

impl ChunkStats {
    /// Stats of an empty chunk: an impossible zone, an empty filter.
    pub fn empty() -> ChunkStats {
        ChunkStats {
            min_key: i64::MAX,
            max_key: i64::MIN,
            bloom: [0; 4],
        }
    }

    /// Fold one value (its zone key and fingerprint) into the stats.
    #[inline]
    pub fn add(&mut self, key: i64, fp: u64) {
        self.min_key = self.min_key.min(key);
        self.max_key = self.max_key.max(key);
        for bit in bloom_bits(fp) {
            self.bloom[bit >> 6] |= 1u64 << (bit & 63);
        }
    }

    /// True unless the filter proves no value with fingerprint `fp` was
    /// added. False positives possible, false negatives not.
    #[inline]
    pub fn bloom_may_contain(&self, fp: u64) -> bool {
        bloom_bits(fp)
            .iter()
            .all(|&bit| self.bloom[bit >> 6] & (1u64 << (bit & 63)) != 0)
    }

    /// Conservative clause test: can any row of this chunk satisfy
    /// `attr op value`, where `key`/`fp` describe the literal? A `false`
    /// verdict is a proof; `true` merely fails to prove otherwise.
    #[inline]
    pub fn may_match(&self, op: PredOp, key: i64, fp: u64) -> bool {
        match op {
            PredOp::Eq => self.min_key <= key && key <= self.max_key && self.bloom_may_contain(fp),
            PredOp::Le => self.min_key <= key,
            PredOp::Ge => self.max_key >= key,
        }
    }
}

/// The two bloom bit positions (0..256) probed for a fingerprint: the low
/// byte and the low byte of the high half — independent enough for a
/// 256-bit filter, and trivially recomputable anywhere.
#[inline]
fn bloom_bits(fp: u64) -> [usize; 2] {
    [(fp & 255) as usize, ((fp >> 32) & 255) as usize]
}

/// Pruning metadata of one column segment: [`ChunkStats`] per chunk, in
/// row order. Built at encode time, persisted in the partition-file image,
/// carried verbatim when an incremental repartition reuses the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnPrune {
    /// Per-chunk stats, `ceil(rows / CHUNK_ROWS)` entries.
    pub chunks: Vec<ChunkStats>,
}

impl ColumnPrune {
    /// Build stats for `col`, chunked on the storage row order.
    pub fn build(col: &ColumnData) -> ColumnPrune {
        let rows = col.len();
        let mut chunks = Vec::with_capacity(rows.div_ceil(CHUNK_ROWS));
        for base in (0..rows).step_by(CHUNK_ROWS) {
            let mut s = ChunkStats::empty();
            for i in base..(base + CHUNK_ROWS).min(rows) {
                s.add(value_key(col, i), value_fingerprint(col, i));
            }
            chunks.push(s);
        }
        ColumnPrune { chunks }
    }
}

/// Zone key of a text value: first 8 trimmed bytes, zero-padded,
/// big-endian, mapped into signed order.
#[inline]
fn text_key(trimmed: &[u8]) -> i64 {
    let mut raw = [0u8; 8];
    let n = trimmed.len().min(8);
    raw[..n].copy_from_slice(&trimmed[..n]);
    (u64::from_be_bytes(raw) ^ (1u64 << 63)) as i64
}

/// Zone key of row `i` of `col`.
#[inline]
pub fn value_key(col: &ColumnData, i: usize) -> i64 {
    match col {
        ColumnData::Int(v) => v[i] as i64,
        ColumnData::Date(v) => v[i] as i64,
        ColumnData::Decimal(v) => v[i],
        ColumnData::Text(v) => text_key(v[i].trim_end().as_bytes()),
    }
}

/// Fingerprint of row `i` of `col` in its *stored* (trailing-whitespace
/// trimmed) form — the image a decoded scan hashes, which is what bloom
/// probes must agree with even when the in-memory source text still
/// carries padding.
#[inline]
pub fn value_fingerprint(col: &ColumnData, i: usize) -> u64 {
    match col {
        ColumnData::Text(v) => fnv1a(v[i].trim_end().as_bytes()),
        other => other.fingerprint(i),
    }
}

/// Zone key of a literal, on the same scale as [`value_key`].
#[inline]
pub fn literal_key(lit: &Literal) -> i64 {
    match lit.kind {
        AttrKind::Int | AttrKind::Date | AttrKind::Decimal => lit.num,
        AttrKind::Text => text_key(lit.text.trim_end().as_bytes()),
    }
}

/// Fingerprint of a literal, on the same scale as [`value_fingerprint`].
#[inline]
pub fn literal_fingerprint(lit: &Literal) -> u64 {
    match lit.kind {
        AttrKind::Int | AttrKind::Date => fnv1a(&(lit.num as i32).to_le_bytes()),
        AttrKind::Decimal => fnv1a(&lit.num.to_le_bytes()),
        AttrKind::Text => fnv1a(lit.text.trim_end().as_bytes()),
    }
}

#[inline]
fn cmp<T: Ord>(op: PredOp, v: T, lit: T) -> bool {
    match op {
        PredOp::Eq => v == lit,
        PredOp::Le => v <= lit,
        PredOp::Ge => v >= lit,
    }
}

/// Exact residual evaluation of one clause against row `i` of the
/// clause's column — the ground truth the chunk tests conservatively
/// approximate. Text compares trimmed forms (the stored canonical form).
#[inline]
pub fn clause_matches(clause: &PredClause, col: &ColumnData, i: usize) -> bool {
    match col {
        ColumnData::Int(v) => cmp(clause.op, v[i] as i64, clause.value.num),
        ColumnData::Date(v) => cmp(clause.op, v[i] as i64, clause.value.num),
        ColumnData::Decimal(v) => cmp(clause.op, v[i], clause.value.num),
        ColumnData::Text(v) => cmp(clause.op, v[i].trim_end(), clause.value.text.trim_end()),
    }
}

/// [`clause_matches`] on a stored cell instead of a decoded column: the
/// same verdict the clause gets on the row the naive decoder would
/// produce from that cell (text decodes UTF-8-lossy, then trims), without
/// materializing it.
#[inline]
pub(crate) fn clause_matches_cell(clause: &PredClause, cell: Cell<'_>) -> bool {
    match cell {
        Cell::Num(v) => cmp(clause.op, v, clause.value.num),
        Cell::Text(padded) => cmp(
            clause.op,
            String::from_utf8_lossy(padded).trim_end(),
            clause.value.text.trim_end(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use slicer_model::AttrId;

    fn clause(op: PredOp, value: Literal) -> PredClause {
        PredClause::new(AttrId(0), op, value)
    }

    /// The load-bearing invariant: for every column shape, operator and
    /// literal, a chunk whose stats reject the clause holds no matching
    /// row.
    #[test]
    fn chunk_rejection_is_a_proof() {
        let mut rng = StdRng::seed_from_u64(42);
        let rows = CHUNK_ROWS * 2 + 137;
        let cols = vec![
            ColumnData::Int((0..rows).map(|_| rng.gen_range(-50i32..50)).collect()),
            ColumnData::Date((0..rows).map(|_| rng.gen_range(0i32..2526)).collect()),
            ColumnData::Decimal((0..rows).map(|_| rng.gen_range(-1000i64..1000)).collect()),
            ColumnData::Text(
                (0..rows)
                    .map(|_| {
                        ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL  "][rng.gen_range(0..5usize)]
                            .to_string()
                    })
                    .collect(),
            ),
        ];
        for col in &cols {
            let prune = ColumnPrune::build(col);
            assert_eq!(prune.chunks.len(), rows.div_ceil(CHUNK_ROWS));
            let literals: Vec<Literal> = match col {
                ColumnData::Int(_) => (-60..60).step_by(7).map(Literal::int).collect(),
                ColumnData::Date(_) => (0..2526).step_by(211).map(Literal::date).collect(),
                ColumnData::Decimal(_) => (-1100..1100).step_by(93).map(Literal::decimal).collect(),
                ColumnData::Text(_) => ["AIR", "MAIL", "FOB", "Z", ""]
                    .iter()
                    .map(|s| Literal::text(*s))
                    .collect(),
            };
            for lit in &literals {
                for op in [PredOp::Eq, PredOp::Le, PredOp::Ge] {
                    let c = clause(op, lit.clone());
                    let (key, fp) = (literal_key(lit), literal_fingerprint(lit));
                    for (ci, stats) in prune.chunks.iter().enumerate() {
                        if stats.may_match(op, key, fp) {
                            continue;
                        }
                        let lo = ci * CHUNK_ROWS;
                        let hi = (lo + CHUNK_ROWS).min(rows);
                        for i in lo..hi {
                            assert!(
                                !clause_matches(&c, col, i),
                                "skipped chunk {ci} holds matching row {i} for {op:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zone_keys_weakly_preserve_text_order() {
        let words = ["", "A", "AIR", "AIRPLANE", "RAIL", "RAILWAYSTATION", "Z"];
        for a in words {
            for b in words {
                if a <= b {
                    assert!(
                        text_key(a.as_bytes()) <= text_key(b.as_bytes()),
                        "{a:?} vs {b:?}"
                    );
                }
            }
        }
        // Truncation beyond 8 bytes collapses to equality, never inverts.
        assert_eq!(text_key(b"prefixes-one"), text_key(b"prefixes-two"),);
    }

    #[test]
    fn bloom_equality_never_false_negative() {
        let col = ColumnData::Text(vec!["AIR".into(), "RAIL".into(), "MAIL ".into()]);
        let prune = ColumnPrune::build(&col);
        // Stored (trimmed) form must probe positive, padding and all.
        for lit in ["AIR", "RAIL", "MAIL", "MAIL   "] {
            let l = Literal::text(lit);
            assert!(
                prune.chunks[0].may_match(PredOp::Eq, literal_key(&l), literal_fingerprint(&l)),
                "{lit:?}"
            );
        }
    }

    #[test]
    fn equality_zone_and_bloom_prune_disjoint_literals() {
        let col = ColumnData::Int((0..100).collect());
        let prune = ColumnPrune::build(&col);
        let miss = Literal::int(1000);
        assert!(!prune.chunks[0].may_match(
            PredOp::Eq,
            literal_key(&miss),
            literal_fingerprint(&miss)
        ));
        let below = Literal::int(-1);
        assert!(!prune.chunks[0].may_match(
            PredOp::Le,
            literal_key(&below),
            literal_fingerprint(&below)
        ));
        let above = Literal::int(100);
        assert!(!prune.chunks[0].may_match(
            PredOp::Ge,
            literal_key(&above),
            literal_fingerprint(&above)
        ));
    }

    #[test]
    fn empty_chunk_matches_nothing() {
        let s = ChunkStats::empty();
        let l = Literal::int(0);
        for op in [PredOp::Eq, PredOp::Le, PredOp::Ge] {
            assert!(!s.may_match(op, literal_key(&l), literal_fingerprint(&l)));
        }
    }

    #[test]
    fn residual_matches_semantics() {
        let ints = ColumnData::Int(vec![5, 10]);
        let c = clause(PredOp::Le, Literal::int(5));
        assert!(clause_matches(&c, &ints, 0));
        assert!(!clause_matches(&c, &ints, 1));
        let text = ColumnData::Text(vec!["AIR  ".into()]);
        let c = clause(PredOp::Eq, Literal::text("AIR"));
        assert!(clause_matches(&c, &text, 0));
    }
}
