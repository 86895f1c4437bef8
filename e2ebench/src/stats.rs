//! Small order statistics and process readings from `/proc/self`.

use std::time::Duration;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of `samples`; sorts in place.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Whole nanoseconds of `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// User plus system CPU time of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu() -> Duration {
    const TICKS_PER_SECOND: u64 = 100;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // The command name (field 2) may hold spaces; fields after it start
    // past the closing parenthesis, with field 3 first.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 { fields.get(n - 3).and_then(|f| f.parse().ok()).unwrap_or(0) };
    let ticks = field(14) + field(15);
    Duration::from_millis(ticks * 1000 / TICKS_PER_SECOND)
}

/// Peak resident set size of this process (`VmHWM` in
/// `/proc/self/status`), in KiB.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut s, 0.5), 50);
        assert_eq!(percentile(&mut s, 0.99), 99);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }

    #[test]
    fn proc_readings_are_live() {
        assert!(peak_rss_kib() > 0);
        let start = process_cpu();
        let mut x = 0u64;
        while process_cpu() == start {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu() > start);
    }
}
