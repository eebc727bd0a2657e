//! The vectorized scan executor: streaming cursors, blocked tuple
//! reconstruction, explicit decode-cache modes, parallel decode — and a
//! shared (`&self`) scan entry point so N threads scan concurrently.
//!
//! [`ScanExecutor`] replaces the engine's original materialize-then-iterate
//! scan. It has one entry point, [`ScanExecutor::scan_query_snapshot`]:
//! a bare projection is a query without a predicate, and the snapshot is
//! one the caller pinned. Per scan it:
//!
//! 1. computes the touched files of the pinned [`TableSnapshot`] and their
//!    simulated I/O exactly as the naive path does (identical
//!    `bytes_read` / `io_seconds`);
//! 2. **prepares** each touched partition — in parallel across partitions
//!    via rayon (gracefully sequential on one core) — turning every
//!    referenced segment into a [`PreparedSegment`] cursor (zero-copy for
//!    fixed-width codecs, streamed into reusable scratch for
//!    variable-width ones) and *walking* the unreferenced segments of
//!    variable-width partitions so the paper's whole-partition-decode
//!    penalty stays measured;
//! 3. **reconstructs** tuples in cache-sized row blocks: per block, each
//!    cursor fills a fingerprint lane and the row hashes are combined
//!    across lanes — the same FNV mix as the naive row-at-a-time loop,
//!    reordered but bit-identical.
//!
//! A predicate scan does the same over the chunks its keep-mask keeps,
//! and its CPU work follows them (see [`Demand`]); only the modeled
//! `bytes_read` / `io_seconds` keep the coarser select-then-fetch
//! accounting.
//!
//! # Shared plan, per-thread scratch
//!
//! The executor itself is immutable per scan: the mutable state — decode
//! arenas, fingerprint lanes, cursor keys — lives in [`ScanScratch`]
//! units checked in and out of an internal pool. Each concurrent scan
//! owns one scratch for its duration, so the warm arenas are never
//! aliased between threads (the PR-2 executor tied them to `&mut self`,
//! which made concurrent scans unexpressible). A scratch remembers the
//! snapshot generation it was shaped against and rebuilds itself whenever
//! it is handed a scan over a different snapshot, so warm state never
//! leaks across a re-partition.
//!
//! The per-file arenas double as the decode cache. [`CacheMode::Cold`]
//! (the paper's testbed: caches dropped before every query) resets the
//! cached state at the start of each scan while keeping buffer capacity,
//! so the decode and reconstruction paths allocate nothing in steady
//! state; [`CacheMode::Warm`] keeps prepared segments across the scans
//! that reuse a scratch, modeling a warmed decode cache.
//!
//! The original executor survives as
//! [`crate::engine::scan_naive_query_snapshot`], the oracle the property
//! tests and the benchmark hold this module to.

use crate::cursor::{pack_kept, Demand, PreparedSegment};
use crate::data::{TableData, FNV_OFFSET, FNV_PRIME};
use crate::delta::DeltaState;
use crate::engine::{
    chunk_keep_mask, touched_and_io, touched_and_io_query, ScanResult, StoredTable, TableSnapshot,
};
use crate::prune::{clause_matches, clause_matches_cell, CHUNK_ROWS};
use rayon::prelude::*;
use slicer_cost::DiskParams;
use slicer_model::{AttrId, AttrSet, Predicate, Query};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rows per reconstruction block: 2048 rows × 8 B/fingerprint = 16 KiB per
/// lane, two lanes live — comfortably inside L1/L2.
const BLOCK_ROWS: usize = 2048;

// Pruning verdicts are per CHUNK_ROWS-row chunk; the blocked loop skips a
// whole block on a negative verdict, which only lines up if the two
// granularities are the same.
const _: () = assert!(BLOCK_ROWS == CHUNK_ROWS);

/// Decode-cache behavior across scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Drop cached decoded state before every scan (the paper's cold-cache
    /// testbed). Buffer capacity is retained, contents are not.
    Cold,
    /// Keep prepared segments across scans: repeated projections over the
    /// same partitions skip decode entirely.
    Warm,
}

/// What one scan did, counted rather than timed: a pruned scan's counts
/// scale with its kept chunks, an unpredicated scan's with the table.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct ScanWork {
    /// Exact driver values read to evaluate residual clauses.
    driver_values: u64,
    /// Dictionary entries fingerprinted into per-entry tables.
    dict_entries: u64,
    /// Rows streamed out of variable-width segments.
    streamed_rows: u64,
    /// Row fingerprints the cursors produced for reconstruction.
    row_fps: u64,
}

/// What one scan asks of each touched file.
#[derive(Clone, Copy)]
struct Plan<'a> {
    referenced: AttrSet,
    /// The rows that will be read.
    demand: Demand,
    /// Predicate drivers and chunk keep-mask; empty without a predicate.
    drivers: AttrSet,
    keep: &'a [bool],
}

/// Cached state for one partition file: one slot per segment plus the
/// file's reusable decode scratch.
#[derive(Debug, Default)]
struct FileArena {
    /// Per-segment cache slot, aligned with `PartitionFile::segments`.
    slots: Vec<SegSlot>,
    /// LZ decompression scratch, reused across segments and scans.
    lz_scratch: Vec<u8>,
    /// Retired fingerprint buffers awaiting reuse.
    spare: Vec<Vec<u64>>,
    /// This scan's variable-width predicate drivers, by segment index:
    /// the exact values of their kept chunks ([`pack_kept`]).
    kept: Vec<(usize, PreparedSegment)>,
    /// Decode work the last [`prepare_file`] did here.
    work: ScanWork,
}

#[derive(Debug, Default)]
enum SegSlot {
    /// Nothing cached.
    #[default]
    Cold,
    /// Variable-width decode walked (penalty paid), result not kept.
    Walked,
    /// Fingerprint-ready cursor.
    Ready(PreparedSegment),
}

impl FileArena {
    /// Drop cached state, harvesting buffers for reuse.
    fn reset(&mut self) {
        for slot in &mut self.slots {
            if let SegSlot::Ready(seg) = std::mem::take(slot) {
                if let Some(mut buf) = seg.into_fp_buf() {
                    buf.clear();
                    self.spare.push(buf);
                }
            }
        }
    }
}

/// One scan's worth of mutable state: decode arenas, fingerprint lanes,
/// cursor bookkeeping. Owned exclusively by one in-flight scan, then
/// returned to the executor's pool.
#[derive(Debug, Default)]
struct ScanScratch {
    /// The exact snapshot the arenas are shaped (and possibly warmed)
    /// against; a scan over any other snapshot reshapes them. Identity is
    /// by allocation: the held `Weak` keeps the allocation alive, so the
    /// pointer comparison cannot be fooled by an address reused after a
    /// free — and a bare generation number could not distinguish two
    /// *tables* both at generation 0 if a caller hands this executor a
    /// foreign snapshot.
    snapshot: Option<std::sync::Weak<TableSnapshot>>,
    files: Vec<FileArena>,
    row_hash: Vec<u64>,
    fp_lane: Vec<u64>,
    /// `(attr, file index, segment index)` of each referenced cursor,
    /// reused across scans.
    cursor_keys: Vec<(AttrId, usize, usize)>,
    /// What the scan in flight has done so far.
    work: ScanWork,
}

impl ScanScratch {
    /// Make the scratch fit `snapshot` for a new scan: warm state that
    /// belongs to any other snapshot — or, in cold mode, all of it — is
    /// dropped (arena buffers are recycled).
    fn shape_for(&mut self, snapshot: &Arc<TableSnapshot>, mode: CacheMode) {
        self.work = ScanWork::default();
        let same = self
            .snapshot
            .as_ref()
            .is_some_and(|held| std::ptr::eq(held.as_ptr(), Arc::as_ptr(snapshot)));
        if !same || mode == CacheMode::Cold {
            for arena in &mut self.files {
                arena.reset();
            }
        }
        if same {
            return;
        }
        // Reshape the arenas positionally so allocations are reused
        // across snapshots.
        self.files
            .resize_with(snapshot.files.len(), FileArena::default);
        for (arena, file) in self.files.iter_mut().zip(&snapshot.files) {
            arena
                .slots
                .resize_with(file.segments.len(), SegSlot::default);
        }
        self.row_hash.resize(BLOCK_ROWS, 0);
        self.fp_lane.resize(BLOCK_ROWS, 0);
        self.snapshot = Some(Arc::downgrade(snapshot));
    }
}

/// A reusable, shareable scan executor over one [`StoredTable`].
///
/// Scans take `&self`: clone the reference across worker threads and
/// scan concurrently — each scan checks a private [`ScanScratch`] out of
/// the pool, so threads never alias each other's warm arenas.
pub struct ScanExecutor<'t> {
    table: &'t StoredTable,
    mode: CacheMode,
    pool: Mutex<Vec<ScanScratch>>,
}

impl<'t> ScanExecutor<'t> {
    /// A cold-cache executor (the paper's configuration).
    pub fn new(table: &'t StoredTable) -> ScanExecutor<'t> {
        ScanExecutor::with_mode(table, CacheMode::Cold)
    }

    /// An executor with an explicit cache mode.
    pub fn with_mode(table: &'t StoredTable, mode: CacheMode) -> ScanExecutor<'t> {
        ScanExecutor {
            table,
            mode,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The executor's cache mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The body behind [`ScanExecutor::scan_query_snapshot`]: checks a
    /// scratch out of the pool, runs the plain scan (no predicate) or the
    /// pruning scan on it, and returns the work tally beside the result.
    /// The two bodies stay apart so the plain scan's hot loop carries no
    /// per-row clause work.
    fn scan_tallied(
        &self,
        snapshot: &Arc<TableSnapshot>,
        referenced: AttrSet,
        predicate: Option<&Predicate>,
        disk: &DiskParams,
    ) -> (ScanResult, ScanWork) {
        let mut scratch = self
            .pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        let result = match predicate {
            None => self.scan_with(&mut scratch, snapshot, referenced, disk),
            Some(p) => self.scan_query_with(&mut scratch, snapshot, referenced, p, disk),
        };
        let work = scratch.work;
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(scratch);
        (result, work)
    }

    /// The scan body, on a checked-out scratch.
    fn scan_with(
        &self,
        scratch: &mut ScanScratch,
        snapshot: &Arc<TableSnapshot>,
        referenced: AttrSet,
        disk: &DiskParams,
    ) -> ScanResult {
        let (touched, bytes_read, io_seconds) = touched_and_io(snapshot, referenced, disk);

        let start = Instant::now();
        scratch.shape_for(snapshot, self.mode);
        let rows = snapshot.source.rows;
        let plan = Plan {
            referenced,
            demand: Demand::all(rows),
            drivers: AttrSet::default(),
            keep: &[],
        };
        self.prepare_touched(scratch, snapshot, &touched, plan);
        let cursors: &[(AttrId, usize, usize)] = &scratch.cursor_keys;
        scratch.work.row_fps = (rows * cursors.len()) as u64;

        // Blocked tuple reconstruction over the columnar base. Rows fold
        // into the checksum rotated by their *visible* position (rank
        // among non-tombstoned rows) — identical to physical position
        // when the delta is empty, and invariant under delta folding
        // otherwise, matching the naive oracle bit-for-bit.
        let delta = &snapshot.delta;
        let deleted = delta.deleted_ids();
        let merge = !delta.is_empty();
        let row_hash = &mut scratch.row_hash;
        let fp_lane = &mut scratch.fp_lane;
        let mut checksum = 0u64;
        let mut base = 0usize;
        let mut visible = 0usize;
        let mut next_del = 0usize;
        while base < rows {
            let len = BLOCK_ROWS.min(rows - base);
            row_hash[..len].fill(FNV_OFFSET);
            for &(_, fi, si) in cursors {
                ready(&scratch.files, fi, si).fill_fps(base, &mut fp_lane[..len]);
                for (h, fp) in row_hash[..len].iter_mut().zip(&fp_lane[..len]) {
                    *h = (*h ^ fp).wrapping_mul(FNV_PRIME);
                }
            }
            if merge {
                for (j, h) in row_hash[..len].iter().enumerate() {
                    if next_del < deleted.len() && deleted[next_del] == (base + j) as u64 {
                        next_del += 1;
                        continue;
                    }
                    checksum ^= h.rotate_left((visible % 63) as u32);
                    visible += 1;
                }
            } else {
                for (j, h) in row_hash[..len].iter().enumerate() {
                    checksum ^= h.rotate_left(((base + j) % 63) as u32);
                }
            }
            base += len;
        }
        // The row-store side hashes the referenced attributes ascending —
        // the same order the cursor lanes combined in.
        let attrs = cursors.iter().map(|&(aid, _, _)| aid);
        fold_delta(delta, attrs, |_, _| true, &mut checksum, &mut visible);
        let cpu_seconds = start.elapsed().as_secs_f64();

        ScanResult {
            checksum,
            io_seconds,
            cpu_seconds,
            bytes_read,
        }
    }

    /// Execute `query` — a projection plus an optional conjunctive
    /// predicate — against a snapshot the caller pinned with
    /// [`StoredTable::snapshot`]. The scan never stalls a concurrent
    /// re-partition, and the caller knows exactly which snapshot it
    /// observed (e.g. to compare it against
    /// [`crate::engine::scan_naive_query_snapshot`] on the same pin).
    ///
    /// Tuples are reconstructed across partitions. Without a predicate
    /// every row is read; with one, chunks the zone maps / bloom filters
    /// prove empty of matches are skipped before any decode, and
    /// `bytes_read`/`io_seconds` follow the select-then-fetch pruning
    /// accounting. Checksum, `bytes_read` and `io_seconds` are
    /// bit-identical to the oracle on the same snapshot; `cpu_seconds`
    /// measures this executor's actual decode + reconstruction work.
    ///
    /// The pin is taken by `Arc` so the scratch pool can key its warm
    /// state on snapshot *identity* (two distinct tables both at
    /// generation 0 must never share decode state).
    pub fn scan_query_snapshot(
        &self,
        snapshot: &Arc<TableSnapshot>,
        query: &Query,
        disk: &DiskParams,
    ) -> ScanResult {
        let predicate = query.predicate.as_ref();
        self.scan_tallied(snapshot, query.referenced, predicate, disk)
            .0
    }

    /// The pruning scan body, on a checked-out scratch. CPU work follows
    /// the kept chunks, not the table: fixed-width cursors are read at
    /// kept rows only, variable-width ones stream to the last kept chunk.
    fn scan_query_with(
        &self,
        scratch: &mut ScanScratch,
        snapshot: &Arc<TableSnapshot>,
        referenced: AttrSet,
        predicate: &Predicate,
        disk: &DiskParams,
    ) -> ScanResult {
        let drivers = predicate.attrs();
        let keep = chunk_keep_mask(snapshot, predicate);
        let (touched, bytes_read, io_seconds) =
            touched_and_io_query(snapshot, referenced, drivers, &keep, disk);

        let start = Instant::now();
        scratch.shape_for(snapshot, self.mode);
        let rows = snapshot.source.rows;
        let delta = &snapshot.delta;
        let mut checksum = 0u64;
        let mut qualifying = 0usize;

        // When every chunk is pruned, the whole base — driver segments
        // included — is skipped before any decode or walk.
        if let Some(demand) = Demand::kept(&keep, rows) {
            let plan = Plan {
                referenced,
                demand,
                drivers,
                keep: &keep,
            };
            self.prepare_touched(scratch, snapshot, &touched, plan);
            let cursors: &[(AttrId, usize, usize)] = &scratch.cursor_keys;
            let files = &scratch.files;

            // Residual clauses evaluate on exact values (fingerprints
            // could collide a wrong row in), read from the driver's own
            // cursor by row — or, for a variable-width driver, from its
            // packed kept chunks by rank among kept rows. Invariant: a
            // driver is referenced (`Workload` and the wire both validate
            // it), so its cursor is among the gathered ones. A foreign or
            // hand-built query that breaks this must not panic a
            // connection thread: its clause keeps every row, as
            // `chunk_keep_mask` keeps every chunk for a clause it finds
            // no stats for.
            let sources: Vec<Option<(&PreparedSegment, bool)>> = predicate
                .clauses
                .iter()
                .map(|clause| {
                    let found = cursors.binary_search_by_key(&clause.attr, |&(a, _, _)| a);
                    debug_assert!(found.is_ok(), "predicate driver must be referenced");
                    let (_, fi, si) = cursors[found.ok()?];
                    let packed = files[fi].kept.iter().find(|(at, _)| *at == si);
                    Some(packed.map_or((ready(files, fi, si), false), |(_, seg)| (seg, true)))
                })
                .collect();

            let deleted = delta.deleted_ids();
            let work = &mut scratch.work;
            let row_hash = &mut scratch.row_hash;
            let fp_lane = &mut scratch.fp_lane;
            let mut kept_base = 0usize;
            for base in (0..rows)
                .step_by(CHUNK_ROWS)
                .filter(|b| keep[b / CHUNK_ROWS])
            {
                let len = BLOCK_ROWS.min(rows - base);
                row_hash[..len].fill(FNV_OFFSET);
                for &(_, fi, si) in cursors {
                    ready(files, fi, si).fill_fps(base, &mut fp_lane[..len]);
                    for (h, fp) in row_hash[..len].iter_mut().zip(&fp_lane[..len]) {
                        *h = (*h ^ fp).wrapping_mul(FNV_PRIME);
                    }
                }
                work.row_fps += (len * cursors.len()) as u64;
                // Tombstones inside skipped chunks are never visited.
                let mut next_del = deleted.partition_point(|&d| d < base as u64);
                for (j, h) in row_hash[..len].iter().enumerate() {
                    if deleted.get(next_del) == Some(&((base + j) as u64)) {
                        next_del += 1;
                        continue;
                    }
                    let matches = predicate.clauses.iter().zip(&sources).all(|(c, source)| {
                        let Some((seg, by_rank)) = source else {
                            return true;
                        };
                        work.driver_values += 1;
                        seg.value(if *by_rank { kept_base + j } else { base + j })
                            .is_none_or(|cell| clause_matches_cell(c, cell))
                    });
                    if matches {
                        checksum ^= h.rotate_left((qualifying % 63) as u32);
                        qualifying += 1;
                    }
                }
                kept_base += len;
            }
        }

        // The row store is never chunk-prunable: every row is filtered by
        // exact clause evaluation, then hashed as the oracle does.
        let accept = |data: &TableData, i: usize| {
            let matches = |c| clause_matches(c, &data.columns[c.attr.index()], i);
            predicate.clauses.iter().all(matches)
        };
        fold_delta(
            delta,
            referenced.iter(),
            accept,
            &mut checksum,
            &mut qualifying,
        );
        let cpu_seconds = start.elapsed().as_secs_f64();

        ScanResult {
            checksum,
            io_seconds,
            cpu_seconds,
            bytes_read,
        }
    }

    /// Decode the touched partitions as `plan` asks and gather their
    /// cursors — rayon-parallel when there is both more than one
    /// partition and more than one core (each task owns its file's arena
    /// for the duration, moved out and back, so scratch reuse and
    /// parallelism compose without locks); in-place and allocation-free
    /// otherwise.
    fn prepare_touched(
        &self,
        scratch: &mut ScanScratch,
        snapshot: &Arc<TableSnapshot>,
        touched: &[usize],
        plan: Plan<'_>,
    ) {
        let table = self.table;
        if touched.len() > 1 && rayon::current_num_threads() > 1 {
            let tasks: Vec<(usize, FileArena)> = touched
                .iter()
                .map(|&i| (i, std::mem::take(&mut scratch.files[i])))
                .collect();
            let prepared: Vec<(usize, FileArena)> = tasks
                .into_par_iter()
                .map(|(i, mut arena)| {
                    prepare_file(table, snapshot, i, plan, &mut arena);
                    (i, arena)
                })
                .collect();
            for (i, arena) in prepared {
                scratch.files[i] = arena;
            }
        } else {
            for &i in touched {
                prepare_file(table, snapshot, i, plan, &mut scratch.files[i]);
            }
        }
        for &i in touched {
            scratch.work.dict_entries += scratch.files[i].work.dict_entries;
            scratch.work.streamed_rows += scratch.files[i].work.streamed_rows;
        }
        gather_cursors(scratch, snapshot, touched, plan.referenced);
    }
}

/// The prepared cursor in slot `(fi, si)`; cursor keys only index `Ready`
/// slots.
#[inline]
fn ready(files: &[FileArena], fi: usize, si: usize) -> &PreparedSegment {
    let SegSlot::Ready(seg) = &files[fi].slots[si] else {
        unreachable!("cursor keys only index Ready slots");
    };
    seg
}

/// The delta epilogue of both scan bodies: the row store merges after the
/// base in append order. Each visible row `accept` keeps is hashed over
/// `attrs` and folded into `checksum` rotated by `rank`, which carries on
/// from the base rows' count.
fn fold_delta(
    delta: &DeltaState,
    attrs: impl Iterator<Item = AttrId> + Clone,
    accept: impl Fn(&TableData, usize) -> bool,
    checksum: &mut u64,
    rank: &mut usize,
) {
    for batch in delta.batches() {
        for i in 0..batch.data.rows {
            if delta.is_deleted(batch.first_row_id + i as u64) || !accept(&batch.data, i) {
                continue;
            }
            let mut h = FNV_OFFSET;
            for aid in attrs.clone() {
                h = (h ^ batch.data.columns[aid.index()].fingerprint(i)).wrapping_mul(FNV_PRIME);
            }
            *checksum ^= h.rotate_left((*rank % 63) as u32);
            *rank += 1;
        }
    }
}

/// Gather the referenced cursors in ascending attribute order (the naive
/// path's reconstruction order) into `scratch.cursor_keys`, reusing the
/// key buffer.
fn gather_cursors(
    scratch: &mut ScanScratch,
    snapshot: &TableSnapshot,
    touched: &[usize],
    referenced: AttrSet,
) {
    let cursor_keys = &mut scratch.cursor_keys;
    cursor_keys.clear();
    for &fi in touched {
        for (si, (aid, _)) in snapshot.files[fi].segments.iter().enumerate() {
            if referenced.contains(*aid) && matches!(scratch.files[fi].slots[si], SegSlot::Ready(_))
            {
                cursor_keys.push((*aid, fi, si));
            }
        }
    }
    cursor_keys.sort_by_key(|(a, _, _)| *a);
}

/// Prepare one touched file as `plan` asks: ready every referenced
/// segment, walk the unreferenced ones if the file is variable-width
/// (rows not individually addressable ⇒ the whole partition must be
/// decoded, up to the last row read). A warm cursor is reused only if it
/// [`PreparedSegment::serves`] the demand — one left behind by a more
/// selective scan is re-prepared, recycling its buffer.
fn prepare_file(
    table: &StoredTable,
    snapshot: &TableSnapshot,
    file_idx: usize,
    plan: Plan<'_>,
    arena: &mut FileArena,
) {
    let file = &snapshot.files[file_idx];
    let need_all = !file.fixed_width();
    let FileArena {
        slots,
        lz_scratch,
        spare,
        kept,
        work,
    } = arena;
    kept.clear();
    *work = ScanWork::default();
    for (si, (aid, enc)) in file.segments.iter().enumerate() {
        let slot = &mut slots[si];
        if plan.referenced.contains(*aid) {
            let kind = table.schema.attribute(*aid).kind;
            if !matches!(slot, SegSlot::Ready(seg) if seg.serves(plan.demand)) {
                let stale = match std::mem::take(slot) {
                    SegSlot::Ready(seg) => seg.into_fp_buf(),
                    _ => None,
                };
                // Plain segments are zero-copy and never use the buffer.
                let fp_buf = if enc.codec == crate::compress::Codec::Plain {
                    Vec::new()
                } else {
                    stale.or_else(|| spare.pop()).unwrap_or_default()
                };
                let seg = PreparedSegment::prepare(enc, kind, plan.demand, fp_buf, lz_scratch);
                work.dict_entries += seg.table_entries() as u64;
                work.streamed_rows += seg.streamed_rows() as u64;
                *slot = SegSlot::Ready(seg);
            }
            if plan.drivers.contains(*aid) && !enc.codec.fixed_width() {
                kept.push((si, pack_kept(enc, kind, plan.keep, lz_scratch)));
                work.streamed_rows += plan.demand.upto as u64;
            }
        } else if need_all && matches!(slot, SegSlot::Cold) {
            PreparedSegment::walk(enc, plan.demand.upto);
            *slot = SegSlot::Walked;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate_table;
    use crate::engine::{scan_naive_query_snapshot, CompressionPolicy};
    use slicer_model::{AttrKind, Partitioning, TableSchema};

    fn schema() -> TableSchema {
        TableSchema::builder("Orders", 1500)
            .attr("OrdersKey", 4, AttrKind::Int)
            .attr("CustKey", 4, AttrKind::Int)
            .attr("TotalPrice", 8, AttrKind::Decimal)
            .attr("OrderDate", 4, AttrKind::Date)
            .attr("ShipMode", 10, AttrKind::Text)
            .attr("Comment", 60, AttrKind::Text)
            .build()
            .unwrap()
    }

    fn layouts(s: &TableSchema) -> Vec<Partitioning> {
        vec![
            Partitioning::row(s),
            Partitioning::column(s),
            Partitioning::new(
                s,
                vec![
                    s.attr_set(&["OrdersKey", "Comment"]).unwrap(),
                    s.attr_set(&["CustKey", "TotalPrice", "OrderDate", "ShipMode"])
                        .unwrap(),
                ],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn executor_matches_naive_everywhere() {
        let s = schema();
        let data = generate_table(&s, 1500, 11);
        let disk = DiskParams::paper_testbed();
        let projections = [
            AttrSet::default(),
            s.attr_set(&["OrdersKey"]).unwrap(),
            s.attr_set(&["CustKey", "Comment"]).unwrap(),
            s.all_attrs(),
        ];
        for policy in [
            CompressionPolicy::None,
            CompressionPolicy::Default,
            CompressionPolicy::Dictionary,
        ] {
            for layout in layouts(&s) {
                let t = StoredTable::load(&s, &data, &layout, policy);
                let exec = ScanExecutor::new(&t);
                for &p in &projections {
                    let naive =
                        scan_naive_query_snapshot(&t.snapshot(), &Query::new("q", p), &disk);
                    let fast = exec.scan_query_snapshot(&t.snapshot(), &Query::new("q", p), &disk);
                    assert_eq!(naive.checksum, fast.checksum, "{policy:?} {layout:?}");
                    assert_eq!(naive.bytes_read, fast.bytes_read);
                    assert_eq!(naive.io_seconds, fast.io_seconds);
                }
            }
        }
    }

    #[test]
    fn warm_mode_returns_identical_results_across_repeats() {
        let s = schema();
        let data = generate_table(&s, 1500, 3);
        let disk = DiskParams::paper_testbed();
        let t = StoredTable::load(
            &s,
            &data,
            &Partitioning::row(&s),
            CompressionPolicy::Default,
        );
        let p = s.attr_set(&["CustKey", "ShipMode"]).unwrap();
        let oracle = scan_naive_query_snapshot(&t.snapshot(), &Query::new("q", p), &disk);
        let warm = ScanExecutor::with_mode(&t, CacheMode::Warm);
        for _ in 0..3 {
            let r = warm.scan_query_snapshot(&t.snapshot(), &Query::new("q", p), &disk);
            assert_eq!(r.checksum, oracle.checksum);
            assert_eq!(r.bytes_read, oracle.bytes_read);
        }
        // Widening the projection after warming must still be correct.
        let wide = s.attr_set(&["CustKey", "ShipMode", "Comment"]).unwrap();
        assert_eq!(
            warm.scan_query_snapshot(&t.snapshot(), &Query::new("q", wide), &disk)
                .checksum,
            scan_naive_query_snapshot(&t.snapshot(), &Query::new("q", wide), &disk).checksum
        );
    }

    #[test]
    fn cold_mode_reuses_capacity_but_not_contents() {
        let s = schema();
        let data = generate_table(&s, 1500, 5);
        let disk = DiskParams::paper_testbed();
        let t = StoredTable::load(
            &s,
            &data,
            &Partitioning::column(&s),
            CompressionPolicy::Default,
        );
        let p = s.attr_set(&["Comment"]).unwrap();
        let exec = ScanExecutor::new(&t);
        let a = exec.scan_query_snapshot(&t.snapshot(), &Query::new("q", p), &disk);
        let b = exec.scan_query_snapshot(&t.snapshot(), &Query::new("q", p), &disk);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.bytes_read, b.bytes_read);
    }

    #[test]
    fn warm_scratch_invalidates_across_repartitions() {
        // A warm executor must not serve decode state that belongs to a
        // superseded snapshot — and a scan over a *pinned* old snapshot
        // after the table moved on must still be exact.
        let s = schema();
        let data = generate_table(&s, 1500, 9);
        let disk = DiskParams::paper_testbed();
        let t = StoredTable::load(
            &s,
            &data,
            &Partitioning::row(&s),
            CompressionPolicy::Default,
        );
        let p = s.attr_set(&["CustKey", "Comment"]).unwrap();
        let warm = ScanExecutor::with_mode(&t, CacheMode::Warm);
        let old_snap = t.snapshot();
        let before = warm.scan_query_snapshot(&t.snapshot(), &Query::new("q", p), &disk);
        t.repartition(&Partitioning::column(&s), &disk);
        // Live scan: new snapshot, fresh decode state, fewer bytes.
        let live = warm.scan_query_snapshot(&t.snapshot(), &Query::new("q", p), &disk);
        assert_eq!(live.checksum, before.checksum);
        assert!(live.bytes_read < before.bytes_read);
        // Pinned scan: the superseded snapshot still reads exactly.
        let pinned = warm.scan_query_snapshot(&old_snap, &Query::new("q", p), &disk);
        assert_eq!(pinned.checksum, before.checksum);
        assert_eq!(pinned.bytes_read, before.bytes_read);
    }

    #[test]
    fn warm_scratch_never_leaks_across_tables_at_equal_generations() {
        // Two distinct tables, both at generation 0, same schema and file
        // shape but different data: a warm executor for table A that is
        // handed table B's snapshot must rebuild its decode state, not
        // serve A's cached fingerprints as B's answer.
        let s = schema();
        let data_a = generate_table(&s, 1500, 21);
        let data_b = generate_table(&s, 1500, 22);
        let disk = DiskParams::paper_testbed();
        let layout = Partitioning::row(&s);
        let a = StoredTable::load(&s, &data_a, &layout, CompressionPolicy::Default);
        let b = StoredTable::load(&s, &data_b, &layout, CompressionPolicy::Default);
        let p = s.attr_set(&["CustKey", "Comment"]).unwrap();
        let warm = ScanExecutor::with_mode(&a, CacheMode::Warm);
        let from_a = warm.scan_query_snapshot(&a.snapshot(), &Query::new("q", p), &disk);
        let snap_b = b.snapshot();
        assert_eq!(snap_b.generation, a.snapshot().generation);
        let from_b = warm.scan_query_snapshot(&snap_b, &Query::new("q", p), &disk);
        assert_eq!(
            from_b.checksum,
            scan_naive_query_snapshot(&b.snapshot(), &Query::new("q", p), &disk).checksum
        );
        assert_ne!(from_b.checksum, from_a.checksum, "different data");
    }

    #[test]
    fn predicate_scans_match_oracle_and_read_fewer_bytes() {
        use slicer_model::{Literal, PredClause, PredOp, Predicate, Query};
        let s = schema();
        let data = generate_table(&s, 1500, 11);
        let disk = DiskParams::paper_testbed();
        let referenced = s.attr_set(&["CustKey", "OrderDate", "ShipMode"]).unwrap();
        let date = s.attr_id("OrderDate").unwrap();
        let cust = s.attr_id("CustKey").unwrap();
        let ship = s.attr_id("ShipMode").unwrap();
        let queries =
            [
                // Range on the clustered date column: most chunks prune.
                Query::new("range", referenced).with_predicate(Predicate::new(vec![
                    PredClause::new(date, PredOp::Le, Literal::date(40)),
                ])),
                // Equality on a text driver (dictionary-friendly, bloom path).
                Query::new("text", referenced).with_predicate(Predicate::new(vec![
                    PredClause::new(ship, PredOp::Eq, Literal::text("AIR")),
                ])),
                // Conjunction mixing int range with text equality.
                Query::new("both", referenced).with_predicate(Predicate::new(vec![
                    PredClause::new(cust, PredOp::Ge, Literal::int(10)),
                    PredClause::new(ship, PredOp::Eq, Literal::text("RAIL")),
                ])),
                // Impossible range: every chunk pruned, nothing decoded.
                Query::new("empty", referenced).with_predicate(Predicate::new(vec![
                    PredClause::new(date, PredOp::Le, Literal::date(-1)),
                ])),
            ];
        let mut any_pruned = false;
        for policy in [CompressionPolicy::None, CompressionPolicy::Default] {
            for layout in layouts(&s) {
                let t = StoredTable::load(&s, &data, &layout, policy);
                let exec = ScanExecutor::with_mode(&t, CacheMode::Warm);
                for q in &queries {
                    let oracle = scan_naive_query_snapshot(&t.snapshot(), q, &disk);
                    // Warm repeats must be as exact as the cold first scan.
                    for _ in 0..2 {
                        let fast = exec.scan_query_snapshot(&t.snapshot(), q, &disk);
                        assert_eq!(
                            fast.checksum, oracle.checksum,
                            "{policy:?} {layout:?} {}",
                            q.name
                        );
                        assert!(fast.bytes_read <= oracle.bytes_read);
                        if fast.bytes_read < oracle.bytes_read {
                            any_pruned = true;
                        }
                    }
                }
            }
        }
        assert!(any_pruned, "no layout ever skipped a byte");
    }

    #[test]
    fn predicate_scans_filter_the_delta_too() {
        use crate::delta::IngestBatch;
        use slicer_model::{Literal, PredClause, PredOp, Predicate, Query};
        let s = schema();
        let data = generate_table(&s, 1500, 17);
        let disk = DiskParams::paper_testbed();
        let t = StoredTable::load(
            &s,
            &data,
            &Partitioning::column(&s),
            CompressionPolicy::Default,
        );
        let extra = generate_table(&s, 300, 18);
        t.ingest(&IngestBatch::append(extra), &disk).unwrap();
        t.ingest(&IngestBatch::delete(vec![2, 40, 1501]), &disk)
            .unwrap();
        let referenced = s.attr_set(&["OrdersKey", "OrderDate"]).unwrap();
        let date = s.attr_id("OrderDate").unwrap();
        let q = Query::new("q", referenced).with_predicate(Predicate::new(vec![PredClause::new(
            date,
            PredOp::Ge,
            Literal::date(2400),
        )]));
        let exec = ScanExecutor::new(&t);
        let oracle = scan_naive_query_snapshot(&t.snapshot(), &q, &disk);
        let fast = exec.scan_query_snapshot(&t.snapshot(), &q, &disk);
        assert_eq!(fast.checksum, oracle.checksum);
        assert!(fast.bytes_read <= oracle.bytes_read);
        // And the predicate-free path stays the plain scan.
        let bare = Query::new("bare", referenced);
        assert_eq!(
            exec.scan_query_snapshot(&t.snapshot(), &bare, &disk)
                .checksum,
            scan_naive_query_snapshot(&t.snapshot(), &Query::new("q", referenced), &disk).checksum
        );
    }

    /// A range on the sequential key keeping rows `lo..=hi` (1-based key
    /// values), projected with a random decimal, a date and two texts.
    fn key_range(s: &TableSchema, lo: usize, hi: usize) -> Query {
        use slicer_model::{Literal, PredClause, PredOp, Predicate};
        let key = s.attr_id("OrdersKey").unwrap();
        let referenced = s
            .attr_set(&[
                "OrdersKey",
                "TotalPrice",
                "OrderDate",
                "ShipMode",
                "Comment",
            ])
            .unwrap();
        Query::new("range", referenced).with_predicate(Predicate::new(vec![
            PredClause::new(key, PredOp::Ge, Literal::int(lo as i32)),
            PredClause::new(key, PredOp::Le, Literal::int(hi as i32)),
        ]))
    }

    #[test]
    fn warm_scratch_left_by_a_selective_scan_answers_any_later_scan() {
        // A cursor prepared for one kept chunk — a table-less dictionary
        // cursor, a variable-width prefix — must not answer a later scan
        // that reads other rows from what it happened to cover.
        let s = schema();
        let rows = 5 * CHUNK_ROWS + 100;
        let data = generate_table(&s, rows, 29);
        let disk = DiskParams::paper_testbed();
        let full = Query::new("full", key_range(&s, 1, 1).referenced);
        let sequence = [
            key_range(&s, CHUNK_ROWS + 10, CHUNK_ROWS + 900), // chunk 1
            full.clone(),
            key_range(&s, 3 * CHUNK_ROWS + 5, 3 * CHUNK_ROWS + 6), // chunk 3
            key_range(&s, 7, 300),                                 // chunk 0
            key_range(&s, rows - 50, rows + 10),                   // the tail
            key_range(&s, rows + 1, rows + 2),                     // all pruned
            full,
        ];
        for policy in [
            CompressionPolicy::None,
            CompressionPolicy::Default,
            CompressionPolicy::Dictionary,
        ] {
            for layout in layouts(&s) {
                let t = StoredTable::load(&s, &data, &layout, policy);
                let warm = ScanExecutor::with_mode(&t, CacheMode::Warm);
                for (i, q) in sequence.iter().enumerate() {
                    let oracle = scan_naive_query_snapshot(&t.snapshot(), q, &disk);
                    let got = warm.scan_query_snapshot(&t.snapshot(), q, &disk);
                    assert_eq!(got.checksum, oracle.checksum, "{policy:?} step {i}");
                    assert!(got.bytes_read <= oracle.bytes_read);
                }
            }
        }
    }

    #[test]
    fn pruned_scan_work_follows_the_kept_chunk_not_the_table() {
        let s = schema();
        let rows = 50 * CHUNK_ROWS;
        let data = generate_table(&s, rows, 31);
        let disk = DiskParams::paper_testbed();
        let q = key_range(&s, 20 * CHUNK_ROWS + 100, 20 * CHUNK_ROWS + 600);
        let attrs = q.referenced.len() as u64;
        let kept = CHUNK_ROWS as u64;

        let t = StoredTable::load(
            &s,
            &data,
            &Partitioning::column(&s),
            CompressionPolicy::Dictionary,
        );
        let snap = t.snapshot();
        // Entries of every referenced dictionary, and of those small
        // enough that one chunk's rows pay for a fingerprint table.
        let dicts: Vec<u64> = snap
            .files
            .iter()
            .flat_map(|f| &f.segments)
            .filter(|(aid, _)| q.referenced.contains(*aid))
            .map(|(_, enc)| enc.dict_entries as u64)
            .collect();
        let small: u64 = dicts.iter().filter(|&&e| e <= kept).sum();
        assert!(small > 0 && dicts.iter().any(|&e| e > kept));

        let exec = ScanExecutor::new(&t);
        let (_, pruned) = exec.scan_tallied(&snap, q.referenced, q.predicate.as_ref(), &disk);
        assert_eq!(pruned.row_fps, kept * attrs);
        assert!(pruned.driver_values <= kept * 2, "{pruned:?}");
        assert_eq!(pruned.dict_entries, small);
        assert_eq!(pruned.streamed_rows, 0);
        // An unpredicated scan does the full work it always did.
        let (_, full) = exec.scan_tallied(&snap, q.referenced, None, &disk);
        let expect = ScanWork {
            driver_values: 0,
            dict_entries: dicts.iter().sum(),
            streamed_rows: 0,
            row_fps: rows as u64 * attrs,
        };
        assert_eq!(full, expect);
        // Warm table-less cursors left by the pruned scan are upgraded,
        // not reused, once a scan reads that many rows (the small tables
        // it did build are kept).
        let warm = ScanExecutor::with_mode(&t, CacheMode::Warm);
        warm.scan_tallied(&snap, q.referenced, q.predicate.as_ref(), &disk);
        let (_, upgraded) = warm.scan_tallied(&snap, q.referenced, None, &disk);
        assert_eq!(upgraded.dict_entries, expect.dict_entries - small);

        // Variable-width segments stream from the start, but stop at the
        // end of the last kept chunk: each referenced segment once, the
        // driver once more for its exact values (shared by both clauses).
        let t = StoredTable::load(
            &s,
            &data,
            &Partitioning::column(&s),
            CompressionPolicy::Default,
        );
        let (_, pruned) = ScanExecutor::new(&t).scan_tallied(
            &t.snapshot(),
            q.referenced,
            q.predicate.as_ref(),
            &disk,
        );
        assert_eq!(pruned.streamed_rows, 21 * kept * (attrs + 1));
        assert_eq!(pruned.row_fps, kept * attrs);
        assert_eq!(pruned.dict_entries, 0);
    }

    /// Drivers are validated to be referenced before a query reaches the
    /// executor; one that is not trips the debug assertion, and in a
    /// release build keeps every row rather than panic a serving thread.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "driver must be referenced"))]
    fn unreferenced_driver_keeps_every_row_instead_of_panicking() {
        use slicer_model::{Literal, PredClause, PredOp, Predicate};
        let s = schema();
        let data = generate_table(&s, 1500, 37);
        let disk = DiskParams::paper_testbed();
        let t = StoredTable::load(
            &s,
            &data,
            &Partitioning::column(&s),
            CompressionPolicy::Dictionary,
        );
        let referenced = s.attr_set(&["OrdersKey"]).unwrap();
        // CustKey is uniform: the zone maps keep the chunk, and an
        // evaluated clause would reject about half its rows.
        let q = Query::new("unreferenced-driver", referenced).with_predicate(Predicate::new(vec![
            PredClause::new(s.attr_id("CustKey").unwrap(), PredOp::Ge, Literal::int(750)),
        ]));
        let got = ScanExecutor::new(&t).scan_query_snapshot(&t.snapshot(), &q, &disk);
        assert_eq!(
            got.checksum,
            scan_naive_query_snapshot(&t.snapshot(), &Query::new("q", referenced), &disk).checksum
        );
    }

    #[test]
    fn concurrent_scans_share_one_executor() {
        let s = schema();
        let data = generate_table(&s, 1500, 13);
        let disk = DiskParams::paper_testbed();
        let t = StoredTable::load(
            &s,
            &data,
            &Partitioning::column(&s),
            CompressionPolicy::Default,
        );
        let exec = ScanExecutor::with_mode(&t, CacheMode::Warm);
        let projections: Vec<AttrSet> = vec![
            s.attr_set(&["OrdersKey"]).unwrap(),
            s.attr_set(&["CustKey", "Comment"]).unwrap(),
            s.all_attrs(),
        ];
        let oracles: Vec<ScanResult> = projections
            .iter()
            .map(|&p| scan_naive_query_snapshot(&t.snapshot(), &Query::new("q", p), &disk))
            .collect();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let exec = &exec;
                let t = &t;
                let projections = &projections;
                let oracles = &oracles;
                let disk = &disk;
                scope.spawn(move || {
                    for i in 0..32 {
                        let k = (worker + i) % projections.len();
                        let r = exec.scan_query_snapshot(
                            &t.snapshot(),
                            &Query::new("q", projections[k]),
                            disk,
                        );
                        assert_eq!(r.checksum, oracles[k].checksum);
                        assert_eq!(r.bytes_read, oracles[k].bytes_read);
                    }
                });
            }
        });
    }
}
