//! The whole suite in one command: every workload in a process of its
//! own (peak RSS is per process, and this is how the PR driver runs them),
//! untraced then traced, `--repeat N` times, with the spread of every
//! end-to-end metric set against its bound.

use crate::stats::{median, quartiles};
use crate::{Flags, Spec, Verdict};
use std::collections::BTreeMap;
use std::process::Command;

/// Run one workload in a child process; echo what it printed when `echo`,
/// and parse the verdict off its last line.
fn child(
    workload: &str,
    seed: u64,
    traced: bool,
    spec: &Spec,
    smoke: bool,
    echo: bool,
) -> Result<Verdict, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &spec.run_seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr is passed through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if echo {
        // The reader's lines; the stamp is for programs.
        for line in report.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
    }
    let verdict: Verdict = serde_json::from_str(last)
        .map_err(|e| format!("{workload} printed no verdict ({}): {e}", out.status))?;
    if !out.status.success() || !verdict.correct {
        return Err(format!(
            "{workload} seed {seed}: {} of {} ops failed ({})",
            verdict.failed, verdict.attempted, out.status
        ));
    }
    Ok(verdict)
}

pub fn run(spec: &Spec, flags: &Flags) -> Result<bool, String> {
    let repeat: usize = flags.number("--repeat", 1)?;
    let seed: u64 = flags.number("--seed", 2013)?;
    let smoke = flags.get("--smoke").is_some();
    if repeat == 0 {
        return Err("--repeat 0 runs nothing".into());
    }
    // values[workload][metric] = one value per repetition.
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for rep in 0..repeat {
        for w in &spec.workloads {
            if rep == 0 {
                println!("== {}: {}", w.name, w.why);
            }
            // Another seed each repetition, as the PR driver does.
            let verdict = child(&w.name, seed + rep as u64, false, spec, smoke, rep == 0)?;
            let per_metric = values.entry(&w.name).or_default();
            for (name, m) in verdict.metrics.0 {
                per_metric.entry(name).or_default().push(m.value);
            }
            if rep == 0 {
                child(&w.name, seed, true, spec, smoke, true)?;
            } else {
                println!("repetition {} of {repeat}: {} done", rep + 1, w.name);
            }
        }
    }
    if repeat == 1 {
        return Ok(true);
    }
    println!(
        "\n== {repeat} repetitions, seeds {seed}..={}",
        seed + repeat as u64 - 1
    );
    println!(
        "{:15} {:17} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "workload", "metric", "median", "min", "max", "range/med", "iqr/med", "bound"
    );
    // The exit code follows the PR driver's rule, IQR / median against the
    // bound: quartiles shrug off the one run in five that lands in another
    // of this host's speed modes, which max - min does not.
    let mut steady = true;
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let v = &values[w.name.as_str()][&m.name];
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let mid = median(v);
            let (q1, q3) = quartiles(v);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (range, iqr) = ((hi - lo) / mid, (q3 - q1) / mid);
            steady &= iqr <= bound;
            println!(
                "{:15} {:17} {:>12.6} {:>12.6} {:>12.6} {:>8.3}% {:>8.3}% {:>5}%{}",
                w.name,
                m.name,
                mid,
                lo,
                hi,
                range * 100.0,
                iqr * 100.0,
                bound * 100.0,
                match (iqr <= bound, range <= bound) {
                    (false, _) => "  IQR EXCEEDS",
                    (true, false) => "  (range exceeds)",
                    (true, true) => "",
                }
            );
        }
    }
    Ok(steady)
}
