//! Offline stand-in for `rayon`.
//!
//! Provides eager, order-preserving data parallelism over
//! `std::thread::scope`: [`ParIter`] materializes its input, `map` fans the
//! closure out across all available cores in contiguous chunks, and the
//! terminal adapters (`collect`, `min_by`, `reduce`, …) run sequentially on
//! the order-preserved results. That matches how this workspace uses rayon —
//! one expensive `map` over a candidate list followed by a deterministic
//! reduction — while keeping the implementation dependency-free.
//!
//! Determinism contract: `map` preserves input order exactly, so
//! `par_iter().map(f).collect::<Vec<_>>()` equals the sequential
//! `iter().map(f).collect()` whenever `f` is pure.

#![deny(unsafe_code)]

use std::ops::Range;

/// Entry points (mirrors `rayon::prelude`).
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

/// Conversion into a parallel iterator (owning).
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Convert.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

/// Conversion into a parallel iterator over references.
pub trait IntoParallelRefIterator<'a> {
    /// Item type.
    type Item: Send + 'a;
    /// Convert.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// Number of worker threads to fan out across: the `RAYON_NUM_THREADS`
/// environment variable, else the hardware parallelism. As in real rayon,
/// the variable is resolved once per process (this sits on the per-scan
/// hot path — no env lock or allocation per call).
pub fn current_num_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(hardware_parallelism)
    })
}

/// The hardware thread count (the pool's worker-spawn upper bound).
fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An order-preserving parallel iterator over a materialized item list.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map: applies `f` across all cores, preserving input order.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: par_map(self.items, f),
        }
    }

    /// Parallel filter-map (order-preserving).
    pub fn filter_map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> Option<R> + Sync,
    {
        ParIter {
            items: par_map(self.items, f).into_iter().flatten().collect(),
        }
    }

    /// Parallel side effects.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        let _ = par_map(self.items, |x| {
            f(x);
        });
    }

    /// Collect the (already computed) items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sequential minimum by comparator over the materialized items; the
    /// first of equal minima wins (stable, deterministic).
    pub fn min_by<F>(self, mut cmp: F) -> Option<T>
    where
        F: FnMut(&T, &T) -> std::cmp::Ordering,
    {
        let mut best: Option<T> = None;
        for item in self.items {
            best = match best {
                None => Some(item),
                Some(b) => {
                    if cmp(&item, &b) == std::cmp::Ordering::Less {
                        Some(item)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }

    /// Left-to-right reduction (deterministic).
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T,
        OP: Fn(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), op)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<T: Send> ParIter<T>
where
    T: std::iter::Sum<T>,
{
    /// Sum the items (sequential, deterministic order).
    pub fn sum(self) -> T {
        self.items.into_iter().sum()
    }
}

/// The parallel kernel: map `items` through `f` on the persistent worker
/// pool, preserving order. Falls back to a sequential map for tiny inputs
/// (pool dispatch costs a few microseconds per chunk; below this size a
/// sequential loop wins).
fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let threads = current_num_threads();
    let n = items.len();
    // Nested parallelism runs sequentially: a pool worker dispatching to
    // the pool and blocking on the results would deadlock against itself
    // (real rayon nests via work-stealing; this shim does not).
    if threads <= 1 || n < 2 || pool::on_pool_worker() {
        return items.into_iter().map(f).collect();
    }
    pool::run_chunked(items, threads, &f)
}

/// A lazily-started persistent worker pool. Spawning OS threads per
/// parallel call costs tens of microseconds — fatal for the workspace's
/// sub-millisecond optimizer scans — so workers are spawned once and jobs
/// are dispatched over channels as erased closures.
///
/// Soundness of the borrow erasure: `run_chunked` transmutes the borrowed
/// closure (and through it any `T`/`R` borrows) to `'static` to ship it to
/// the workers, and is sound because the function cannot return, unwind or
/// otherwise invalidate the borrow before every dispatched job has
/// reported: the caller's own chunk runs under `catch_unwind`, and the
/// result loop waits for all jobs (workers run jobs under `catch_unwind`
/// too, so a panicking job drops its result sender rather than wedging the
/// pool — the chunk-count assertion then surfaces the failure).
mod pool {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Mutex, OnceLock};

    type Job = Box<dyn FnOnce() + Send + 'static>;

    thread_local! {
        /// True on pool worker threads; guards against nested dispatch.
        static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// True iff the current thread is one of the pool's workers.
    pub(super) fn on_pool_worker() -> bool {
        IS_POOL_WORKER.with(|w| w.get())
    }

    static POOL: OnceLock<Mutex<Vec<Sender<Job>>>> = OnceLock::new();

    fn workers() -> &'static Mutex<Vec<Sender<Job>>> {
        POOL.get_or_init(|| {
            // Spawn up to the hardware parallelism; `current_num_threads`
            // only bounds how many chunks a dispatch fans out.
            let n = super::hardware_parallelism().saturating_sub(1).max(1);
            let mut senders = Vec::with_capacity(n);
            for i in 0..n {
                let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || {
                        IS_POOL_WORKER.with(|w| w.set(true));
                        while let Ok(job) = rx.recv() {
                            // Contain job panics so one bad closure does
                            // not wedge the shared pool.
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn rayon-shim worker");
                senders.push(tx);
            }
            Mutex::new(senders)
        })
    }

    /// Map `items` in contiguous chunks across the pool, the caller
    /// processing the first chunk itself. Order-preserving.
    pub(super) fn run_chunked<T: Send, R: Send>(
        items: Vec<T>,
        threads: usize,
        f: &(impl Fn(T) -> R + Sync),
    ) -> Vec<R> {
        let n = items.len();
        let nchunks = threads.min(n);
        let chunk = n.div_ceil(nchunks);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(nchunks);
        let mut it = items.into_iter();
        loop {
            let c: Vec<T> = it.by_ref().take(chunk).collect();
            if c.is_empty() {
                break;
            }
            chunks.push(c);
        }
        let nchunks = chunks.len();
        let (done_tx, done_rx) = channel::<(usize, Vec<R>)>();
        let mut chunks = chunks.into_iter().enumerate();
        let first_chunk = chunks.next();
        let mut dispatched = 0usize;
        {
            let senders = workers().lock().expect("pool lock");
            for (ci, c) in chunks {
                let done = done_tx.clone();
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let out: Vec<R> = c.into_iter().map(f).collect();
                    let _ = done.send((ci, out));
                });
                // SAFETY: only the lifetime bound is erased (the closure
                // type itself is already opaque behind the fat pointer, so
                // the layouts are identical). The borrow of `f` — and any
                // borrows inside T/R — outlives every job because this
                // call blocks until all jobs have reported before
                // returning or unwinding; see the module docs.
                #[allow(unsafe_code)]
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                senders[dispatched % senders.len()]
                    .send(job)
                    .expect("worker alive");
                dispatched += 1;
            }
        }
        drop(done_tx);
        // Caller does chunk 0 while workers run the rest; a panic here must
        // still wait for the workers before unwinding (borrow soundness).
        let own = first_chunk.map(|(ci, c)| {
            (
                ci,
                catch_unwind(AssertUnwindSafe(|| {
                    c.into_iter().map(f).collect::<Vec<R>>()
                })),
            )
        });
        let mut results: Vec<(usize, Vec<R>)> = Vec::with_capacity(nchunks);
        for r in done_rx.iter() {
            results.push(r);
        }
        match own {
            Some((ci, Ok(v))) => results.push((ci, v)),
            Some((_, Err(payload))) => resume_unwind(payload),
            None => {}
        }
        assert_eq!(results.len(), nchunks, "a rayon-shim worker job panicked");
        results.sort_by_key(|(i, _)| *i);
        results.into_iter().flat_map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = v.clone().into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, v.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice_refs() {
        let v = vec![3usize, 1, 2];
        let out: Vec<usize> = v.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![4, 2, 3]);
    }

    #[test]
    fn range_and_min_by() {
        let min = (0..100usize)
            .into_par_iter()
            .map(|i| (i as i64 - 40).abs())
            .min_by(|a, b| a.cmp(b));
        assert_eq!(min, Some(0));
    }

    #[test]
    fn nested_parallelism_does_not_deadlock() {
        let out: Vec<usize> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                // Nested par_iter from inside a pool job must complete
                // (it degrades to sequential).
                (0..8usize)
                    .into_par_iter()
                    .map(|j| i + j)
                    .collect::<Vec<_>>()
                    .len()
            })
            .collect();
        assert_eq!(out, vec![8; 64]);
    }

    #[test]
    fn first_of_equal_minima_wins() {
        let items = vec![(1.0f64, 'a'), (1.0, 'b'), (0.5, 'c'), (0.5, 'd')];
        let min = items
            .into_par_iter()
            .min_by(|x, y| x.0.partial_cmp(&y.0).unwrap())
            .unwrap();
        assert_eq!(min.1, 'c');
    }
}
