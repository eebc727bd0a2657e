//! Order statistics and `/proc` readers. Every gated number the benchmark
//! prints goes through one of these, so they are unit-tested here.

/// Sorted copy of `v` (total order; the benchmark never records a NaN).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile (`p` in 0..=1) of a non-empty sample: the
/// smallest value with at least `p` of the sample at or below it.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let s = sorted(v);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median with the two middle values averaged on an even count — the
/// statistic behind every `*_p50_ms` and the per-block `cycles_per_s`.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default, exclusive method) gives
/// them — the rule the PR driver applies to ten runs. Needs two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two values");
    let s = sorted(v);
    let m = s.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Process CPU seconds (user + system, all threads) from the text of
/// `/proc/self/stat`. The command name may hold spaces and parentheses,
/// so fields are counted from the last `)`; `utime` and `stime` are
/// fields 14 and 15, in clock ticks. Linux reports them at `USER_HZ`,
/// which is 100 on every architecture Rust supports.
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    const USER_HZ: f64 = 100.0;
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// `VmHWM` (peak resident set) in MB from the text of `/proc/self/status`.
pub fn peak_rss_mb_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_seconds_from_stat(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| peak_rss_mb_from_status(&s))
        .expect("/proc/self/status is readable on Linux")
}

/// 1-minute load average.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    /// One preempted block must not move the block-median rate.
    #[test]
    fn block_median_ignores_one_slow_block() {
        let mut rates = vec![20.0; 15];
        rates[7] = 2.0;
        assert_eq!(median(&rates), 20.0);
    }

    /// Reference values from CPython 3.11:
    /// `statistics.quantiles([1, 2, 4, 7, 11], n=4)` is `[1.5, 4.0, 9.0]`,
    /// and for `range(1, 11)` it is `[2.75, 5.5, 8.25]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        assert_eq!(quartiles(&[11.0, 1.0, 7.0, 2.0, 4.0]), (1.5, 9.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let stat = "4242 (slicer (bench) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(cpu_seconds_from_stat(stat), Some(13.0));
        assert_eq!(cpu_seconds_from_stat("no parenthesis"), None);
        assert_eq!(cpu_seconds_from_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mb() {
        let status = "Name:\tx\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(peak_rss_mb_from_status(status), Some(200.0));
        assert_eq!(peak_rss_mb_from_status("Name:\tx\n"), None);
    }

    #[test]
    fn proc_readers_work_on_this_host() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
