//! The repo's one benchmark. See `benchmark/README.md` for the metric and
//! workload dictionary; `BENCHMARK.json` at the repo root fixes the metric
//! names, units and bounds this program prints.
//!
//! ```text
//! slicer-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! slicer-benchmark [--repeat N] [--smoke] [--seed N]               the whole suite, N times
//! ```

mod advise;
mod harness;
mod ingest;
mod scan;
mod stats;
mod suite;
mod tables;
mod trace;
mod wire;

use harness::{end_to_end, run_window, shared_layer_metrics, Metrics, Scale, Window, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Workers the crates' data-parallel paths get (executor decode, advisor
/// candidate scans, data generation), so that the busy threads are the
/// client and one server connection thread. On this 2-vCPU VM the second
/// vCPU comes and goes for minutes at a time: with two workers the same
/// scan ran at 9.4 or 12 ms and the same sweep at 150 or 221 ms, at equal
/// CPU time. One worker takes the slower figure always.
const RAYON_WORKERS: usize = 1;
/// Where traces and temp tables go (ignored by git).
pub const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, Deserialize)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

/// `BENCHMARK.json`: the one place metric names, units and bounds are
/// written down. The program prints exactly the metrics it lists.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
    }
}

#[derive(Serialize, Deserialize)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
}

/// The last line of a run's standard output.
#[derive(Serialize, Deserialize)]
pub struct Verdict {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Measurements,
}

/// Metric name → measurement. The offline `serde` stand-in has no map
/// impls, so these two are written out.
pub struct Measurements(pub BTreeMap<String, Measured>);

impl Serialize for Measurements {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut fields = Vec::with_capacity(self.0.len());
        for (name, m) in &self.0 {
            fields.push((name.clone(), serde::to_value(m).map_err(S::Error::from)?));
        }
        serializer.serialize_value(serde::Value::Map(fields))
    }
}

impl<'de> Deserialize<'de> for Measurements {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let serde::Value::Map(fields) = deserializer.take_value()? else {
            return Err(D::Error::custom("metrics is not an object"));
        };
        fields
            .into_iter()
            .map(|(name, v)| Ok((name, serde::from_value(v).map_err(D::Error::custom)?)))
            .collect::<Result<_, _>>()
            .map(Measurements)
    }
}

/// What a workload says about its own inputs, for the stamp.
#[derive(Debug, Serialize)]
pub struct Facts {
    pub rows: usize,
    pub table: String,
    pub flush_policy: String,
    pub cycle: String,
}

/// Where and on what a run was measured: the line before the verdict.
#[derive(Serialize)]
struct Stamp {
    workload: String,
    seed: u64,
    traced: bool,
    git_sha: String,
    nproc: usize,
    rayon_workers: usize,
    load_average_before: f64,
    load_average_after: f64,
    facts: Facts,
    window_s: f64,
    blocks: usize,
    cycles: u64,
    main_samples: usize,
    side_samples: usize,
    main_p90_over_p50: f64,
    side_p90_over_p50: f64,
    main_attempted: u64,
    main_failed: u64,
    side_attempted: u64,
    side_failed: u64,
    /// Warm-up and, in a traced run, the reference window.
    untimed_attempted: u64,
    untimed_failed: u64,
}

/// Command-line flags as `--name value` pairs; a flag without a value
/// reads as `"1"`.
pub struct Flags(Vec<String>);

impl Flags {
    pub fn get(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        match self.0.get(at + 1) {
            Some(v) if !v.starts_with("--") => Some(v),
            _ => Some("1"),
        }
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name} {v}: not a number")),
        }
    }
}

fn set_up(workload: &str, seed: u64, scale: &Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "scan_wide" => Box::new(scan::scan_wide(seed, scale)),
        "scan_selective" => Box::new(scan::scan_selective(seed, scale)),
        "ingest_mix" => Box::new(ingest::ingest_mix(seed, scale)),
        "advise" => Box::new(advise::advise(seed, scale)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Pick from `measured` exactly the metrics `listed`, with their units.
/// A measured name the list does not have is a bug in this program; a
/// listed per-layer name a workload did not measure reads 0 — that layer
/// does no work in that workload.
fn select(
    listed: &[MetricSpec],
    measured: &Metrics,
    all_required: bool,
    known: &[MetricSpec],
) -> Result<Measurements, String> {
    if let Some(stray) = measured
        .keys()
        .find(|k| !known.iter().any(|m| &m.name == *k))
    {
        return Err(format!(
            "measured `{stray}`, which BENCHMARK.json does not list"
        ));
    }
    listed
        .iter()
        .map(|m| {
            let value = match measured.get(&m.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("{} measured as {v}", m.name)),
                None if all_required => return Err(format!("{} was not measured", m.name)),
                None => 0.0,
            };
            let unit = m.unit.clone();
            Ok((m.name.clone(), Measured { value, unit }))
        })
        .collect::<Result<_, _>>()
        .map(Measurements)
}

fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

/// One run of one workload: the driver's contract. Prints the stamp and
/// the metrics for a reader, then the verdict as the last line.
fn run_one(spec: &Spec, flags: &Flags, workload: &str) -> Result<bool, String> {
    let seed: u64 = flags.number("--seed", 2013)?;
    let seconds: f64 = flags.number("--seconds", spec.run_seconds)?;
    let traced = flags.number("--trace", 0u8)? != 0;
    let scale = if flags.get("--smoke").is_some() {
        Scale::smoke()
    } else {
        Scale::full(seconds)
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load_before = stats::load_average();
    if load_before > nproc as f64 {
        eprintln!(
            "WARNING: load average {load_before} exceeds nproc {nproc}; timings will be noisy"
        );
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    // Set up several times and report the median: one set-up is ~1-3 s of
    // single-threaded work and moves by a tenth from run to run.
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..(if traced { 1 } else { SETUPS }) {
        if let Some(previous) = live.take() {
            Workload::teardown(previous);
        }
        let start = Instant::now();
        live = Some(set_up(workload, seed, &scale)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = live.expect("at least one set-up");

    // Untimed ops still count as attempted, and fail the run if they fail.
    let mut untimed = vec![run_window(w.as_mut(), scale.warmup, false)];
    let window = if traced {
        // Fewer cycles: a short untraced reference, then the traced
        // window, which replays every op it times.
        untimed.push(run_window(w.as_mut(), scale.window.scaled(0.3), false));
        run_window(w.as_mut(), scale.window.scaled(0.4), true)
    } else {
        run_window(w.as_mut(), scale.window, false)
    };
    let facts = w.facts();
    let untimed_attempted: u64 = untimed.iter().map(Window::attempted).sum();
    let untimed_failed: u64 = untimed.iter().map(Window::failed).sum();
    if let Some(empty) = untimed
        .iter()
        .chain([&window])
        .find(|win| win.main.ms.is_empty() || win.side.ms.is_empty())
    {
        w.teardown();
        return Err(format!(
            "{workload}: no op of a class succeeded in a window ({} of {} failed)",
            empty.failed(),
            empty.attempted()
        ));
    }
    let measured = if traced {
        let mut measured = Metrics::new();
        let reference = untimed.last().expect("pushed above");
        shared_layer_metrics(reference, &window, &mut measured);
        w.layer_metrics(&window, &mut measured);
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}.jsonl"));
        let tracer = window.tracer.as_ref().expect("traced window");
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans in {}", tracer.len(), path.display());
        measured
    } else {
        end_to_end(&window, stats::median(&setup_s), stats::peak_rss_mb())
    };
    w.teardown();

    let listed = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let known: Vec<MetricSpec> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .cloned()
        .collect();
    let metrics = select(listed, &measured, !traced, &known)?;
    let tail = |c: &harness::Class| stats::percentile(&c.ms, 0.9) / c.p50_ms();
    let stamp = Stamp {
        workload: workload.to_string(),
        seed,
        traced,
        git_sha: git_sha(),
        nproc,
        rayon_workers: RAYON_WORKERS,
        load_average_before: load_before,
        load_average_after: stats::load_average(),
        facts,
        window_s: window.wall_s,
        blocks: window.block_rates.len(),
        cycles: window.cycles,
        main_samples: window.main.ms.len(),
        side_samples: window.side.ms.len(),
        main_p90_over_p50: tail(&window.main),
        side_p90_over_p50: tail(&window.side),
        main_attempted: window.main.attempted,
        main_failed: window.main.failed,
        side_attempted: window.side.attempted,
        side_failed: window.side.failed,
        untimed_attempted,
        untimed_failed,
    };

    // For a reader: every metric by name, with unit, sample count and
    // bound. For a program: the stamp, then the verdict, one line each.
    println!(
        "{workload} (seed {seed}): {} cycles in {} blocks over {:.2} s",
        stamp.cycles, stamp.blocks, stamp.window_s
    );
    // A per-layer metric this workload did not measure is in the verdict
    // as 0 and is left out here.
    for m in listed.iter().filter(|m| measured.contains_key(&m.name)) {
        let samples = match m.name.as_str() {
            "main_p50_ms" | "main_model_s" => format!("  n={}", stamp.main_samples),
            "side_p50_ms" | "side_model_s" => format!("  n={}", stamp.side_samples),
            "cycles_per_s" => format!("  n={} blocks", stamp.blocks),
            "setup_s" => format!("  n={} set-ups", setup_s.len()),
            _ => String::new(),
        };
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("  bound {} %", b * 100.0));
        println!(
            "  {:38} {:>16.6} {}{samples}{bound}",
            m.name, metrics.0[&m.name].value, m.unit
        );
    }
    let to_line = |e: serde_json::Error| e.to_string();
    println!("{}", serde_json::to_string(&stamp).map_err(to_line)?);
    let verdict = Verdict {
        correct: untimed_failed + window.failed() == 0,
        attempted: untimed_attempted + window.attempted(),
        failed: untimed_failed + window.failed(),
        metrics,
    };
    println!("{}", serde_json::to_string(&verdict).map_err(to_line)?);
    Ok(verdict.correct)
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        std::process::exit(2);
    }
    // Read once by the rayon stand-in, on its first use; no thread has
    // been started yet.
    std::env::set_var("RAYON_NUM_THREADS", RAYON_WORKERS.to_string());
    let flags = Flags(std::env::args().skip(1).collect());
    let outcome = Spec::load().and_then(|spec| match flags.get("--workload") {
        Some(workload) => run_one(&spec, &flags, workload),
        None => suite::run(&spec, &flags),
    });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("error: {why}");
            std::process::exit(2);
        }
    }
}
