//! The benchmark's own arithmetic: percentiles under the "at least ten
//! samples beyond" rule, failure counting, and open-loop due-time latency.

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise a single outlier would decide the figure.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (in `(0, 1)`) over `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly after the nearest-rank position of `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// Whether `n` samples support percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Fewest samples that support percentile `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..).find(|&n| supports(n, p)).unwrap_or(usize::MAX)
}

/// The highest of `candidates` that `n` samples support.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| supports(n, p))
        .fold(None, |best: Option<f64>, p| {
            Some(best.map_or(p, |b| b.max(p)))
        })
}

/// Nearest-rank percentile of an ascending slice (`None` when empty).
#[cfg(test)]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        None
    } else {
        Some(sorted[rank(sorted.len(), p)])
    }
}

/// Kernel estimate of percentile `p` of an ascending slice: the mean of
/// the order statistics weighted by a Beta((m+1)p, (m+1)(1-p)) density
/// over their ranks (midpoint rule, normalised), with `m` the sample count
/// capped at [`KERNEL_SAMPLES`]. With `m` = n this is the Harrell–Davis
/// estimator; the cap keeps the kernel a few query shapes wide, in rank,
/// however long the stream. A workload made of a few query shapes
/// with different costs has gaps in its latency distribution, and a single
/// order statistic jumps across a gap when one sample moves; this does not.
pub fn kernel_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied();
    }
    let m = n.min(KERNEL_SAMPLES) as f64;
    let (a, b) = ((m + 1.0) * p, (m + 1.0) * (1.0 - p));
    let logw: Vec<f64> = (0..n)
        .map(|i| {
            let t = (i as f64 + 0.5) / n as f64;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let top = logw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut num, mut den) = (0.0, 0.0);
    for (x, lw) in sorted.iter().zip(&logw) {
        let w = (lw - top).exp();
        num += w * x;
        den += w;
    }
    Some(num / den)
}

/// Sample count at which the kernel of [`kernel_percentile`] stops
/// narrowing: its standard deviation is then 5% of the ranks at p50 and
/// 3% at p90. A cap of 50 smoothed `lowsel`'s median no better on this
/// host but pulled `point`'s p90 up by 40% towards its heavy tail.
pub const KERNEL_SAMPLES: usize = 100;

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latency samples in milliseconds, with each sample's completion time
/// and the sample counts at which the stream's blocks ended.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
    at: Vec<Instant>,
    block_ends: Vec<usize>,
}

/// Throughput and latency of a phase, each the median over its windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Per-window throughput, in order.
    pub window_qps: Vec<f64>,
    /// Completed operations per second.
    pub qps: f64,
    /// Median latency, ms.
    pub p50: f64,
    /// 90th-percentile latency, ms.
    pub p90: f64,
}

impl Samples {
    /// Record one latency that completed now.
    pub fn push(&mut self, d: Duration) {
        self.push_at(d, Instant::now());
    }

    /// Record one latency that completed at `at`.
    pub fn push_at(&mut self, d: Duration, at: Instant) {
        self.ms.push(d.as_secs_f64() * 1e3);
        self.at.push(at);
    }

    /// Mark the end of a block of the stream.
    pub fn end_block(&mut self) {
        if self.block_ends.last() != Some(&self.ms.len()) {
            self.block_ends.push(self.ms.len());
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    /// Percentile `p` in ms, or an error naming `what` when the sample
    /// count cannot support it.
    pub fn pct(&self, p: f64, what: &str) -> Result<f64, String> {
        pct_of(&self.ms, p, what)
    }

    /// Split the phase that began at `start` into `windows` runs of whole
    /// blocks, and report the median over the windows of each one's
    /// throughput, median and p90. A burst of noise from outside the
    /// program then moves one window, not the figure.
    pub fn summary(&self, start: Instant, windows: usize) -> Result<Summary, String> {
        let mut ends = self.block_ends.clone();
        if ends.last() != Some(&self.ms.len()) {
            ends.push(self.ms.len());
        }
        let k = windows.clamp(1, ends.len());
        let (mut qps, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
        let mut lo = 0;
        for w in 0..k {
            let hi = ends[(w + 1) * ends.len() / k - 1];
            let t0 = if lo == 0 { start } else { self.at[lo - 1] };
            let secs = self.at[hi - 1].saturating_duration_since(t0).as_secs_f64();
            let part = &self.ms[lo..hi];
            qps.push((hi - lo) as f64 / secs);
            p50.push(pct_of(part, 0.5, "window latency")?);
            p90.push(pct_of(part, 0.9, "window latency")?);
            lo = hi;
        }
        Ok(Summary {
            qps: median(&qps),
            window_qps: qps.clone(),
            p50: median(&p50),
            p90: median(&p90),
        })
    }

    /// One-line summary: count, median and the highest supported
    /// percentile.
    pub fn describe(&self) -> String {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        let p50 = kernel_percentile(&v, 0.5).unwrap_or(f64::NAN);
        match highest_supported(v.len(), &[0.9, 0.99, 0.999]) {
            Some(p) => format!(
                "n={} p50={p50:.3}ms p{}={:.3}ms",
                v.len(),
                p * 100.0,
                kernel_percentile(&v, p).unwrap_or(f64::NAN)
            ),
            None => format!("n={} p50={p50:.3}ms", v.len()),
        }
    }
}

fn pct_of(ms: &[f64], p: f64, what: &str) -> Result<f64, String> {
    if p > 0.5 && !supports(ms.len(), p) {
        return Err(format!(
            "{what}: {} samples cannot support p{} (need {MIN_BEYOND} beyond it)",
            ms.len(),
            p * 100.0
        ));
    }
    let mut v = ms.to_vec();
    v.sort_by(f64::total_cmp);
    kernel_percentile(&v, p).ok_or_else(|| format!("{what}: no samples"))
}

/// Attempted and failed operations. A failure is an error, a timeout or a
/// rejection; a wrong answer is not counted here, it aborts the run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored, timed out or were rejected.
    pub failed: u64,
}

impl Tally {
    /// Count one operation and whether it failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sum of two tallies (reads and commits together).
    pub fn plus(self, other: Tally) -> Tally {
        Tally {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// An open-loop schedule: operation `k` is due at `start + k / rate`,
/// whether or not earlier operations have finished.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    interval: Duration,
}

impl OpenLoop {
    /// Schedule at `rate` operations per second from `start`.
    pub fn new(start: Instant, rate: f64) -> OpenLoop {
        OpenLoop {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When operation `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.interval.mul_f64(k as f64)
    }

    /// Latency of operation `k` that completed at `done`, charged from its
    /// due time, so a stall also delays the operations queued behind it.
    pub fn latency(&self, k: u64, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(k))
    }

    /// How late operation `k` started (zero when it started on time).
    pub fn lateness(&self, k: u64, started: Instant) -> Duration {
        started.saturating_duration_since(self.due(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(min_samples_for(0.9), 100);
        assert!(!supports(99, 0.9));
        assert!(supports(100, 0.9));
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(highest_supported(50, &[0.9, 0.99]), None);
        assert_eq!(highest_supported(500, &[0.9, 0.99]), Some(0.9));
        assert_eq!(highest_supported(5000, &[0.99, 0.9, 0.999]), Some(0.99));
        assert_eq!(highest_supported(20_000, &[0.9, 0.99, 0.999]), Some(0.999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(100.0));
        assert_eq!(percentile(&v, 0.9), Some(180.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut s = Samples::default();
        for i in 1..=50 {
            s.push(Duration::from_millis(i));
        }
        assert!(s.pct(0.9, "x").is_err(), "50 samples must not yield a p90");
        assert!((s.pct(0.5, "x").unwrap() - 25.5).abs() < 0.01);
    }

    #[test]
    fn kernel_percentile_tracks_the_quantile_without_jumping_at_gaps() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((kernel_percentile(&v, 0.5).unwrap() - 51.0).abs() < 0.01);
        assert!((kernel_percentile(&v, 0.9).unwrap() - 91.0).abs() < 0.5);
        assert_eq!(kernel_percentile(&[7.0], 0.5), Some(7.0));
        // Two groups of 60 samples, 80 ms and 90 ms: the median sits on the
        // gap. One 80 ms sample turning into a 120 ms outlier moves the
        // nearest-rank median by a whole group; the kernel estimate barely
        // moves.
        let mut a: Vec<f64> = [80.0; 60].iter().chain(&[90.0; 60]).copied().collect();
        let hd_a = kernel_percentile(&a, 0.5).unwrap();
        let nr_a = percentile(&a, 0.5).unwrap();
        a[0] = 120.0;
        a.sort_by(f64::total_cmp);
        let hd_b = kernel_percentile(&a, 0.5).unwrap();
        let nr_b = percentile(&a, 0.5).unwrap();
        assert_eq!((nr_a, nr_b), (80.0, 90.0));
        assert!((hd_b - hd_a).abs() / hd_a < 0.02, "{hd_a} -> {hd_b}");
        // Past KERNEL_SAMPLES the kernel keeps its width in rank: the same
        // gap over 100 times more samples is smoothed just as much.
        let big: Vec<f64> = [80.0; 6000].iter().chain(&[90.0; 6000]).copied().collect();
        assert!((kernel_percentile(&big, 0.5).unwrap() - hd_a).abs() < 0.5);
    }

    #[test]
    fn windowed_summary_takes_the_median_window() {
        let t0 = Instant::now();
        let mut s = Samples::default();
        // Five windows of 200 samples, 1 ms each and one every 1 ms; the
        // third window is ten times slower.
        for w in 0..5u64 {
            let lat = if w == 2 { 10 } else { 1 };
            for i in 0..200u64 {
                let at = t0 + Duration::from_millis(w * 200 + i + 1);
                s.push_at(Duration::from_millis(lat), at);
                if i % 50 == 49 {
                    s.end_block();
                }
            }
        }
        let sum = s.summary(t0, 5).unwrap();
        assert!((sum.qps - 1000.0).abs() < 1.0, "{sum:?}");
        assert!(
            (sum.p50 - 1.0).abs() < 1e-9 && (sum.p90 - 1.0).abs() < 1e-9,
            "{sum:?}"
        );
        let whole = s.summary(t0, 1).unwrap();
        assert!(
            whole.p90 > 5.0,
            "one window sees the slow samples: {whole:?}"
        );
        // Windows hold whole blocks: 20 blocks over 3 windows still covers
        // every sample, and too few samples for a p90 is an error.
        assert!(s.summary(t0, 3).is_ok());
        let mut few = Samples::default();
        few.push_at(Duration::from_millis(1), t0 + Duration::from_millis(1));
        assert!(few.summary(t0, 1).is_err());
    }

    #[test]
    fn error_frac_counts_failures_over_attempts() {
        let mut reads = Tally::default();
        for ok in [true, true, false, true] {
            reads.record(ok);
        }
        let mut commits = Tally::default();
        commits.record(false);
        let all = reads.plus(commits);
        assert_eq!((all.attempted, all.failed), (5, 2));
        assert!((all.error_frac() - 0.4).abs() < 1e-12);
        assert_eq!(Tally::default().error_frac(), 0.0);
    }

    #[test]
    fn open_loop_charges_from_due_time() {
        let t0 = Instant::now();
        let ol = OpenLoop::new(t0, 5.0); // one op every 200 ms
        assert_eq!(ol.due(3), t0 + Duration::from_millis(600));
        // Op 1 started on time and took 30 ms.
        let done1 = ol.due(1) + Duration::from_millis(30);
        assert_eq!(ol.latency(1, done1), Duration::from_millis(30));
        // A stall made op 2 start 150 ms late; its 30 ms of work is charged
        // 180 ms, and the generator reports the 150 ms it ran behind.
        let start2 = ol.due(2) + Duration::from_millis(150);
        assert_eq!(ol.lateness(2, start2), Duration::from_millis(150));
        assert_eq!(
            ol.latency(2, start2 + Duration::from_millis(30)),
            Duration::from_millis(180)
        );
        // Starting early is not negative lateness.
        assert_eq!(ol.lateness(3, t0), Duration::ZERO);
    }
}
