//! The shape every workload shares: a closed loop of identical cycles,
//! grouped into identical blocks, each cycle a fixed interleaving of a
//! `main` and a `side` op class.

use crate::stats::{cpu_seconds, median, percentile};
use crate::trace::Tracer;
use crate::Facts;
use std::collections::BTreeMap;
use std::time::Instant;

/// Metric name → value. Units and bounds live in `BENCHMARK.json`.
pub type Metrics = BTreeMap<String, f64>;

/// Insert the median of `sample` x `factor` under `name`, if there is one.
pub fn put_median(out: &mut Metrics, name: &str, sample: &[f64], factor: f64) {
    if !sample.is_empty() {
        out.insert(name.to_string(), median(sample) * factor);
    }
}

/// Run `f` and record its wall seconds under `name`.
pub fn timed<R>(out: &mut Metrics, name: &str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = f();
    out.insert(name.to_string(), start.elapsed().as_secs_f64());
    result
}

/// Seconds per call of `f`, over `n` calls.
pub fn time_per_call<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() / n as f64
}

/// How big a run is. `full()` is what `BENCHMARK.json` gates; `smoke()`
/// walks the same code path and gates at ~1/50 of the size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Table row counts are divided by this.
    pub rows_div: usize,
    /// When the warm-up ends.
    pub warmup: Stop,
    /// When the measured window ends.
    pub window: Stop,
}

/// A window always ends on a block boundary, so every block it holds is
/// whole and every per-op and per-cycle figure is independent of how many
/// blocks fitted.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the first block that ends at or past this many seconds.
    Seconds(f64),
    /// After exactly this many blocks.
    Blocks(usize),
}

impl Stop {
    pub fn scaled(self, factor: f64) -> Stop {
        match self {
            Stop::Seconds(s) => Stop::Seconds(s * factor),
            Stop::Blocks(n) => Stop::Blocks(((n as f64 * factor).ceil() as usize).max(1)),
        }
    }
}

impl Scale {
    pub fn full(seconds: f64) -> Scale {
        Scale {
            rows_div: 1,
            // The first ~100 requests of a process run 30-50 % slow on
            // this host, and the first fold settles the layout.
            warmup: Stop::Seconds(2.0),
            window: Stop::Seconds(seconds),
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            rows_div: 50,
            warmup: Stop::Blocks(1),
            window: Stop::Blocks(2),
        }
    }

    pub fn rows(&self, full: usize) -> usize {
        full / self.rows_div
    }
}

/// Samples and counts of one op class.
#[derive(Debug, Default)]
pub struct Class {
    /// Caller-side latency of every successful op, ms.
    pub ms: Vec<f64>,
    /// Sum of the cost model's seconds over the successful ops.
    pub model_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Class {
    pub fn p50_ms(&self) -> f64 {
        median(&self.ms)
    }

    /// The cost model's seconds per op. Blocks are identical and whole,
    /// so this mean does not depend on how many of them ran.
    pub fn model_s_per_op(&self) -> f64 {
        self.model_s / self.ms.len() as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Main,
    Side,
}

/// What a workload records into while it runs.
#[derive(Debug, Default)]
pub struct Recorder {
    pub main: Class,
    pub side: Class,
    /// Present in the traced run only.
    pub tracer: Option<Tracer>,
    paused_wall_s: f64,
    paused_cpu_s: f64,
    complaints: u32,
}

impl Recorder {
    /// Run one op of `class`, timed from the caller's side. `op` returns
    /// its reply and the cost model's seconds for it, or why it failed —
    /// a wrong checksum, a typed error, an exhausted retry, a round that
    /// was not applied. A failed op is counted, not timed.
    ///
    /// Returns the reply and, in the traced run, its root span.
    pub fn op<T>(
        &mut self,
        class: OpClass,
        root: &'static str,
        op: impl FnOnce() -> Result<(T, f64), String>,
    ) -> Option<(T, Option<usize>)> {
        let start = Instant::now();
        let outcome = op();
        let end = Instant::now();
        let slot = match class {
            OpClass::Main => &mut self.main,
            OpClass::Side => &mut self.side,
        };
        slot.attempted += 1;
        match outcome {
            Ok((reply, model_s)) => {
                slot.ms.push(end.duration_since(start).as_secs_f64() * 1e3);
                slot.model_s += model_s;
                let span = self.tracer.as_mut().map(|t| t.root(root, start, end));
                Some((reply, span))
            }
            Err(why) => {
                slot.failed += 1;
                self.complain(format!("{root} failed: {why}"));
                None
            }
        }
    }

    /// Count a correctness miss that belongs to no single timed op (a
    /// round that was not applied, a replay that diverged) as one more op,
    /// attempted and failed.
    pub fn fail(&mut self, class: OpClass, why: String) {
        let slot = match class {
            OpClass::Main => &mut self.main,
            OpClass::Side => &mut self.side,
        };
        slot.attempted += 1;
        slot.failed += 1;
        self.complain(why);
    }

    fn complain(&mut self, why: String) {
        self.complaints += 1;
        if self.complaints <= 5 {
            eprintln!("FAILED OP: {why}");
        }
    }

    /// Run `f` with the block clock and the CPU clock stopped: oracle
    /// checks and trace replays are the benchmark's work, not the system's.
    pub fn paused<R>(&mut self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let (wall, cpu) = (Instant::now(), cpu_seconds());
        let out = f(self);
        self.paused_wall_s += wall.elapsed().as_secs_f64();
        self.paused_cpu_s += cpu_seconds() - cpu;
        out
    }
}

/// One of the four workloads, set up and ready to cycle.
pub trait Workload {
    /// Cycles in one block.
    fn block_cycles(&self) -> usize;
    /// Run one cycle: the fixed interleaving of main and side ops.
    fn cycle(&mut self, rec: &mut Recorder);
    /// Per-block background round and correctness gate.
    fn end_block(&mut self, _rec: &mut Recorder) {}
    /// Facts for the environment stamp: row count, flush policy.
    fn facts(&self) -> Facts;
    /// This workload's per-layer metrics: what set-up measured, what the
    /// traced window's spans hold, and layer calls timed on their own.
    fn layer_metrics(&mut self, traced: &Window, out: &mut Metrics);
    /// Stop the server, remove temp files.
    fn teardown(self: Box<Self>);
}

/// What one window measured.
#[derive(Debug)]
pub struct Window {
    pub main: Class,
    pub side: Class,
    /// Cycles per second of each block, its background round included.
    pub block_rates: Vec<f64>,
    pub cycles: u64,
    pub wall_s: f64,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    pub tracer: Option<Tracer>,
}

impl Window {
    pub fn failed(&self) -> u64 {
        self.main.failed + self.side.failed
    }

    pub fn attempted(&self) -> u64 {
        self.main.attempted + self.side.attempted
    }
}

/// Run whole blocks of `w` until `stop`.
pub fn run_window(w: &mut dyn Workload, stop: Stop, traced: bool) -> Window {
    let mut rec = Recorder {
        tracer: traced.then(Tracer::new),
        ..Recorder::default()
    };
    let per_block = w.block_cycles();
    let mut block_rates = Vec::new();
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    loop {
        let (block_start, paused_before) = (Instant::now(), rec.paused_wall_s);
        for _ in 0..per_block {
            w.cycle(&mut rec);
        }
        w.end_block(&mut rec);
        let block_s = block_start.elapsed().as_secs_f64() - (rec.paused_wall_s - paused_before);
        block_rates.push(per_block as f64 / block_s);
        let done = match stop {
            Stop::Seconds(s) => start.elapsed().as_secs_f64() - rec.paused_wall_s >= s,
            Stop::Blocks(n) => block_rates.len() >= n,
        };
        if done {
            break;
        }
    }
    Window {
        cycles: (per_block * block_rates.len()) as u64,
        wall_s: start.elapsed().as_secs_f64() - rec.paused_wall_s,
        cpu_s: cpu_seconds() - cpu_start - rec.paused_cpu_s,
        main: rec.main,
        side: rec.side,
        block_rates,
        tracer: rec.tracer,
    }
}

/// The eight end-to-end metrics of a window.
pub fn end_to_end(window: &Window, setup_s: f64, peak_rss_mb: f64) -> Metrics {
    Metrics::from([
        ("setup_s".to_string(), setup_s),
        ("main_p50_ms".to_string(), window.main.p50_ms()),
        ("side_p50_ms".to_string(), window.side.p50_ms()),
        ("cycles_per_s".to_string(), median(&window.block_rates)),
        ("main_model_s".to_string(), window.main.model_s_per_op()),
        ("side_model_s".to_string(), window.side.model_s_per_op()),
        (
            "cpu_ms_per_cycle".to_string(),
            window.cpu_s * 1e3 / window.cycles as f64,
        ),
        ("peak_rss_mb".to_string(), peak_rss_mb),
    ])
}

/// The per-layer metrics every workload shares: the caller-side tails of
/// the untraced `reference` window, and what tracing cost.
pub fn shared_layer_metrics(reference: &Window, traced: &Window, out: &mut Metrics) {
    for (class, sample) in [("main", &reference.main.ms), ("side", &reference.side.ms)] {
        out.insert(format!("client.{class}_p90_ms"), percentile(sample, 0.90));
        out.insert(format!("client.{class}_p99_ms"), percentile(sample, 0.99));
        out.insert(format!("client.{class}_max_ms"), percentile(sample, 1.0));
    }
    let (plain, with_trace) = (reference.main.p50_ms(), traced.main.p50_ms());
    out.insert(
        "trace.overhead_pct".into(),
        (with_trace - plain) / plain * 100.0,
    );
    let spans = traced.tracer.as_ref().map_or(0, Tracer::len);
    out.insert("trace.spans".into(), spans as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two ops per cycle, three cycles per block; every seventh main op
    /// fails its gate.
    struct Toy {
        mains: u64,
        blocks_ended: u64,
    }

    impl Workload for Toy {
        fn block_cycles(&self) -> usize {
            3
        }
        fn cycle(&mut self, rec: &mut Recorder) {
            self.mains += 1;
            let bad = self.mains.is_multiple_of(7);
            rec.op(OpClass::Main, "toy.main", || {
                if bad {
                    Err("gate".into())
                } else {
                    Ok(((), 0.5))
                }
            });
            rec.op(OpClass::Side, "toy.side", || Ok(((), 0.25)));
        }
        fn end_block(&mut self, rec: &mut Recorder) {
            self.blocks_ended += 1;
            rec.paused(|_| std::thread::sleep(std::time::Duration::from_millis(20)));
        }
        fn facts(&self) -> Facts {
            Facts {
                rows: 0,
                table: String::new(),
                flush_policy: String::new(),
                cycle: String::new(),
            }
        }
        fn layer_metrics(&mut self, _: &Window, _: &mut Metrics) {}
        fn teardown(self: Box<Self>) {}
    }

    #[test]
    fn window_counts_whole_blocks_and_failed_ops() {
        let mut toy = Toy {
            mains: 0,
            blocks_ended: 0,
        };
        let w = run_window(&mut toy, Stop::Blocks(5), true);
        assert_eq!(w.cycles, 15);
        assert_eq!(w.block_rates.len(), 5);
        assert_eq!(toy.blocks_ended, 5);
        assert_eq!((w.main.attempted, w.main.failed), (15, 2));
        assert_eq!(w.main.ms.len(), 13);
        assert_eq!((w.side.attempted, w.side.failed), (15, 0));
        assert_eq!(w.main.model_s_per_op(), 0.5);
        assert_eq!(w.side.model_s_per_op(), 0.25);
        // Paused time is outside the window: 5 x 20 ms of sleep.
        assert!(w.wall_s < 0.05, "paused time leaked in: {}", w.wall_s);
        // Failed ops leave no span; every other op is a root.
        assert_eq!(w.tracer.as_ref().map(Tracer::len), Some(28));
    }

    #[test]
    fn a_seconds_stop_ends_on_a_block_boundary() {
        let mut toy = Toy {
            mains: 0,
            blocks_ended: 0,
        };
        let w = run_window(&mut toy, Stop::Seconds(0.0), false);
        assert_eq!(w.cycles, 3);
        assert!(w.tracer.is_none());
    }
}
