//! The read path every serve front shares: **pin → stamp → scan → book**.
//!
//! [`ScanTarget::pin`] is the one place a query meets a snapshot. It
//! discards the caller's `kept_fraction`, validates the query against the
//! schema, pins the table's current snapshot, and re-stamps the predicate
//! from *that* pin. The caller scans the pin with
//! [`ScanExecutor::scan_query_snapshot`] and books the stamped query, so
//! the window prices exactly what the scan read.
//! [`crate::TableManager::serve`], both `serve_batch_with` drains and the
//! network server all go through it.
//!
//! The drain kernel behind [`crate::TableManager::serve_batch_with`] and
//! [`crate::TableFleet::serve_batch_with`] also lives here: worker threads
//! claim events off an atomic queue, pin and stamp per scan, and scan
//! through one shared per-table [`ScanExecutor`], while the caller's
//! `overlap` closure runs on the calling thread. The two fronts differ
//! only in routing (a manager is a one-table fleet here), so the claim
//! loop, timing, and report fold live once.

use crate::manager::ServeBatchReport;
use slicer_cost::DiskParams;
use slicer_model::{ModelError, Query};
use slicer_storage::{ScanExecutor, ScanResult, StoredTable, TableSnapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One table's scan endpoint: what a serve front needs to run the read
/// path without holding a reference to its manager or fleet (see
/// [`crate::TableFleet::scan_target`]).
#[derive(Clone)]
pub struct ScanTarget {
    /// Shared handle to the stored table; valid across repartitions.
    pub table: Arc<StoredTable>,
    /// The simulated disk scans of this table are priced on.
    pub disk: DiskParams,
}

impl ScanTarget {
    /// Check `query` against the table's schema, after discarding the
    /// caller's `kept_fraction`: it is an untrusted estimate that
    /// [`ScanTarget::pin`] replaces, so it must not even be able to fail
    /// validation. Batch fronts call this on every query up front, so a
    /// bad batch serves nothing.
    pub(crate) fn validate(&self, mut query: Query) -> Result<Query, ModelError> {
        if let Some(p) = &mut query.predicate {
            p.kept_fraction = 1.0;
        }
        query.validate(&self.table.schema)?;
        Ok(query)
    }

    /// Discard the caller's `kept_fraction`, validate `query` against the
    /// schema, pin the table's current snapshot, and stamp the predicate's
    /// `kept_fraction` with that snapshot's
    /// [`TableSnapshot::prune_fraction`]. Returns the stamped query — the
    /// one to scan and to book — with its pin, so the cost layer prices
    /// the skip the scan of this very snapshot makes. Queries without a
    /// predicate pass through unstamped.
    pub fn pin(&self, query: Query) -> Result<(Query, Arc<TableSnapshot>), ModelError> {
        let mut query = self.validate(query)?;
        let snapshot = self.table.snapshot();
        if let Some(p) = &mut query.predicate {
            p.kept_fraction = snapshot.prune_fraction(p);
        }
        Ok((query, snapshot))
    }
}

/// One scan through the read path, in the form every front books it: the
/// stamped query, what the scan read, and the snapshot it pinned. The
/// snapshot is kept (an `Arc` clone, usually of the same few snapshots) so
/// booking can attribute each scan to the layout it *actually* read — a
/// move landing mid-drain must not be credited for the scans that
/// preceded it.
#[derive(Clone)]
pub struct ServedScan {
    /// The query as stamped from `snapshot`.
    pub query: Query,
    /// What the scan read.
    pub result: ScanResult,
    /// The snapshot the scan pinned.
    pub snapshot: Arc<TableSnapshot>,
}

/// Drain `queries` (event `i` routed to `targets[routed[i]]`) across
/// `threads` workers while `overlap` runs on the calling thread. Every
/// query must already have passed [`ScanTarget::validate`].
///
/// `wall_seconds` measures the drain itself — start to the *last worker's
/// last scan* — so an `overlap` that outlives the drain (a slow advise
/// round, a deliberate sleep) does not dilute the throughput number.
pub(crate) fn drain_batch<R>(
    targets: &[ScanTarget],
    routed: &[usize],
    queries: &[Query],
    threads: usize,
    overlap: impl FnOnce() -> R,
) -> (Vec<ServedScan>, f64, R) {
    let threads = threads.max(1);
    let executors: Vec<ScanExecutor<'_>> = targets
        .iter()
        .map(|t| ScanExecutor::new(&t.table))
        .collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut per_worker: Vec<(Vec<(usize, ServedScan)>, f64)> = Vec::new();
    let mut overlap_out = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let executors = &executors;
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            break;
                        }
                        let t = routed[i];
                        let (query, snapshot) = targets[t]
                            .pin(queries[i].clone())
                            .expect("validated before the drain");
                        let result =
                            executors[t].scan_query_snapshot(&snapshot, &query, &targets[t].disk);
                        out.push((
                            i,
                            ServedScan {
                                query,
                                result,
                                snapshot,
                            },
                        ));
                    }
                    // Per-worker finish time: the drain is over when the
                    // slowest worker ran dry, not when `overlap` returns.
                    (out, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        overlap_out = Some(overlap());
        per_worker = handles
            .into_iter()
            .map(|h| h.join().expect("scan worker panicked"))
            .collect();
    });
    let wall_seconds = per_worker
        .iter()
        .map(|(_, elapsed)| *elapsed)
        .fold(0.0f64, f64::max);

    let mut ordered: Vec<Option<ServedScan>> = vec![None; queries.len()];
    for (i, ev) in per_worker.into_iter().flat_map(|(out, _)| out) {
        ordered[i] = Some(ev);
    }
    let events: Vec<ServedScan> = ordered
        .into_iter()
        .map(|ev| ev.expect("every index was drained"))
        .collect();
    (events, wall_seconds, overlap_out.expect("overlap ran"))
}

/// Fold drained events into a [`ServeBatchReport`]. `fallback_generation`
/// fills the generation span for an empty batch.
pub(crate) fn fold_report(
    events: &[ServedScan],
    threads: usize,
    wall_seconds: f64,
    fallback_generation: u64,
) -> ServeBatchReport {
    let mut report = ServeBatchReport {
        queries: events.len() as u64,
        threads: threads.max(1),
        wall_seconds,
        queries_per_second: if events.is_empty() {
            0.0
        } else {
            events.len() as f64 / wall_seconds.max(f64::MIN_POSITIVE)
        },
        checksum: 0,
        scan_io_seconds: 0.0,
        scan_cpu_seconds: 0.0,
        bytes_read: 0,
        min_generation: fallback_generation,
        max_generation: fallback_generation,
    };
    for (
        i,
        ServedScan {
            result, snapshot, ..
        },
    ) in events.iter().enumerate()
    {
        report.checksum ^= result.checksum.rotate_left((i % 63) as u32);
        report.scan_io_seconds += result.io_seconds;
        report.scan_cpu_seconds += result.cpu_seconds;
        report.bytes_read += result.bytes_read;
        if i == 0 {
            report.min_generation = snapshot.generation;
            report.max_generation = snapshot.generation;
        } else {
            report.min_generation = report.min_generation.min(snapshot.generation);
            report.max_generation = report.max_generation.max(snapshot.generation);
        }
    }
    report
}
