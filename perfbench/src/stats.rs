//! Sample statistics, the process's peak RSS, and run digests.

use elastisched_metrics::RunMetrics;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-quantile of `samples`, reported only when at
/// least [`MIN_BEYOND`] samples lie beyond it (so a median needs 20
/// samples and a p90 needs 100). Returns `None` otherwise.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&p), "percentile must be in [0, 1)");
    let n = samples.len();
    // The epsilon keeps `0.9 × 100` from rounding up to rank 91.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).max(1);
    if n < rank || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The plain median (mean of the middle two for even counts); for
/// repeated set-up timings, where the percentile rule does not apply.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text, in KiB.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line.split_whitespace().skip(1);
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak resident set, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Reset this process's peak resident set to its current resident set
/// (Linux `clear_refs` value 5), so the next [`peak_rss_mb`] reads the
/// peak since now.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in one word.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mix in a string (length-prefixed).
    pub fn text(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A digest of every simulated quantity `RunMetrics` equality compares:
/// wall-clock fields and engine-loop diagnostics are left out, floats
/// enter by their bits, so two runs digest equal exactly when their
/// simulated statistics are identical.
pub fn digest(m: &RunMetrics) -> u64 {
    let mut h = Fnv::default();
    h.text(&m.scheduler).word(m.jobs as u64);
    for x in [
        m.utilization,
        m.mean_wait,
        m.slowdown,
        m.mean_bounded_slowdown,
        m.mean_runtime,
        m.mean_dedicated_delay,
        m.makespan,
        m.wait_summary.mean,
        m.wait_summary.std_dev,
        m.wait_summary.min,
        m.wait_summary.median,
        m.wait_summary.p95,
        m.wait_summary.max,
    ] {
        h.word(x.to_bits());
    }
    for n in [
        m.wait_summary.n as u64,
        m.dedicated_jobs as u64,
        m.dedicated_on_time as u64,
        m.eccs_applied,
        m.reconfig_grows,
        m.reconfig_shrinks,
        m.reconfig_procs_granted,
        m.reconfig_procs_reclaimed,
        m.reconfig_cost_secs,
        m.dp_cache_hits,
        m.dp_cache_misses,
        m.dp_incremental_hits,
        m.dp_incremental_rebuilds,
    ] {
        h.word(n);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        // Deliberately unsorted: 0, n-1, 1, n-2, …
        (0..n)
            .map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 } as f64)
            .collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(percentile(&series(19), 0.5), None);
        assert_eq!(percentile(&series(20), 0.5), Some(9.0));
        assert_eq!(percentile(&series(99), 0.9), None);
        assert_eq!(percentile(&series(100), 0.9), Some(89.0));
        assert_eq!(percentile(&series(1000), 0.9), Some(899.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Exactly ten samples lie beyond each reported value.
        let s = series(100);
        let p90 = percentile(&s, 0.9).unwrap();
        assert_eq!(s.iter().filter(|&&x| x > p90).count(), MIN_BEYOND);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn vm_hwm_parses_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    7364 kB\nVmRSS:\t 7000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(7364));
        assert_eq!(vm_hwm_kb("VmRSS:\t 7000 kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t 12 MB\n"), None, "unit must be kB");
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        let mb = peak_rss_mb().unwrap();
        assert!(mb > 0.1 && mb < 64.0 * 1024.0, "{mb}");
    }

    #[test]
    fn peak_rss_resets_to_the_current_resident_set() {
        const MIB: usize = 1024 * 1024;
        let mut big = vec![0u8; 256 * MIB];
        for i in (0..big.len()).step_by(4096) {
            big[i] = 1;
        }
        std::hint::black_box(&big);
        let high = peak_rss_mb().unwrap();
        drop(big);
        reset_peak_rss().unwrap();
        let low = peak_rss_mb().unwrap();
        assert!(low < high - 200.0, "peak {high} MiB, after reset {low} MiB");
    }

    #[test]
    fn digest_tracks_simulated_fields_only() {
        use elastisched::prelude::*;
        let w = generate(&GeneratorConfig::paper_batch(0.5).with_jobs(80).with_seed(4));
        let a = Experiment::new(Algorithm::Easy).run(&w).unwrap();
        let mut b = a.clone();
        b.engine_nanos += 12345;
        b.dp_nanos += 1;
        assert_eq!(digest(&a), digest(&b), "wall-clock fields are ignored");
        b.mean_wait = f64::from_bits(b.mean_wait.to_bits() ^ 1);
        assert_ne!(digest(&a), digest(&b), "one ulp of a simulated field shows");
        let c = Experiment::new(Algorithm::DelayedLos).run(&w).unwrap();
        assert_ne!(digest(&a), digest(&c));
    }
}
