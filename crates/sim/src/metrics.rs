//! Metric sinks used by the experiment harness.
//!
//! Three collectors cover everything the paper reports:
//!
//! * [`LatencyStats`] — per-request latencies with mean / percentile queries
//!   (Figs. 9, 11, 12, 13, Tables II–IV).
//! * [`TimeSeries`] — values sampled over simulated time, with windowed
//!   averaging (Fig. 13's latency-over-time curves, Fig. 14's sandbox and
//!   memory curves).
//! * [`GbSecondMeter`] — the GB·second cost integral used for the serverless
//!   cost comparison in §VI-C.

use std::cell::RefCell;

use crate::time::{SimDuration, SimTime};

/// Lazily maintained sorted view of the samples, shared by every percentile
/// query.  Samples are append-only (`record` / `merge` never remove), so a
/// length mismatch with the live sample vector is a complete staleness test.
#[derive(Clone, Debug, Default)]
struct SortCache {
    sorted: Vec<SimDuration>,
    sorts: u64,
}

/// Collects duration samples and answers mean / percentile queries.
///
/// Percentile queries sort lazily and cache the sorted order, so a report
/// that asks for p50/p95/p99 over the same samples pays for a single sort.
/// The cache lives behind a [`RefCell`] (queries take `&self`), which makes
/// the type `Send` but not `Sync`; simulation results are moved across
/// threads, never shared, so this costs nothing in practice.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    samples: Vec<SimDuration>,
    cache: RefCell<SortCache>,
}

impl LatencyStats {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.samples.push(latency);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, or zero if empty.
    ///
    /// The accumulator is 128-bit: a saturated multi-hour run can hold
    /// millions of samples whose queueing latencies reach thousands of
    /// seconds, and summing those nanosecond counts overflows `u64` (a panic
    /// in debug builds, silent nonsense in release).
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|d| u128::from(d.as_nanos())).sum();
        let mean = total / self.samples.len() as u128;
        SimDuration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX))
    }

    /// The `q`-quantile (0.0 ..= 1.0) using nearest-rank interpolation.
    /// Total on degenerate inputs: an empty collector returns zero for every
    /// quantile, a single sample is every quantile, and `q = 1.0` equals
    /// [`LatencyStats::max`].
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]` (including NaN) — a caller bug, not
    /// a data-dependent condition.
    #[must_use]
    pub fn percentile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let mut cache = self.cache.borrow_mut();
        if cache.sorted.len() != self.samples.len() {
            cache.sorted.clear();
            cache.sorted.extend_from_slice(&self.samples);
            cache.sorted.sort_unstable();
            cache.sorts += 1;
        }
        let rank = ((cache.sorted.len() as f64 - 1.0) * q).round() as usize;
        cache.sorted[rank.min(cache.sorted.len() - 1)]
    }

    /// Number of sorts performed by percentile queries so far — the cached
    /// order is rebuilt only when samples arrived since the last query, so a
    /// full percentile report over settled samples counts exactly one sort.
    #[must_use]
    pub fn sorts_performed(&self) -> u64 {
        self.cache.borrow().sorts
    }

    /// Median latency.
    #[must_use]
    pub fn p50(&self) -> SimDuration {
        self.percentile(0.50)
    }

    /// 95th-percentile latency (the paper's headline metric for Fig. 12).
    #[must_use]
    pub fn p95(&self) -> SimDuration {
        self.percentile(0.95)
    }

    /// 99th-percentile latency.
    #[must_use]
    pub fn p99(&self) -> SimDuration {
        self.percentile(0.99)
    }

    /// Maximum latency, or zero if empty.
    #[must_use]
    pub fn max(&self) -> SimDuration {
        self.samples
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Minimum latency, or zero if empty.
    #[must_use]
    pub fn min(&self) -> SimDuration {
        self.samples
            .iter()
            .copied()
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Merges another collector's samples into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Read-only access to the raw samples.
    #[must_use]
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }
}

/// A `(time, value)` series with helpers for windowed averaging, used to plot
/// curves over the workload duration.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point.  Points may be appended out of order; queries sort a
    /// copy internally.
    pub fn record(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw points.
    #[must_use]
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Buckets the series into windows of `window` length starting at time
    /// zero and returns `(window_start, mean_value)` for every non-empty
    /// window.  This is how the "average latency over time" curves of Fig. 13
    /// are produced.
    #[must_use]
    pub fn windowed_mean(&self, window: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(window > SimDuration::ZERO, "window must be positive");
        if self.points.is_empty() {
            return Vec::new();
        }
        let mut sorted = self.points.clone();
        sorted.sort_by_key(|(t, _)| *t);
        let window_nanos = window.as_nanos();
        let mut out = Vec::new();
        let mut bucket = 0u64;
        let mut sum = 0.0;
        let mut count = 0usize;
        for (t, v) in sorted {
            // Bucket index computed arithmetically: a sparse series jumps
            // straight to the next occupied window instead of stepping over
            // every empty one in between.
            let b = t.as_nanos() / window_nanos;
            if b != bucket && count > 0 {
                out.push((
                    SimTime::from_nanos(bucket * window_nanos),
                    sum / count as f64,
                ));
                sum = 0.0;
                count = 0;
            }
            bucket = b;
            sum += v;
            count += 1;
        }
        if count > 0 {
            out.push((
                SimTime::from_nanos(bucket * window_nanos),
                sum / count as f64,
            ));
        }
        out
    }
}

/// Integrates memory consumption over time to produce the GB·second cost
/// metric used by serverless platforms ("the integral of enclave memory
/// consumption over the workload duration", §VI-C).
#[derive(Clone, Debug)]
pub struct GbSecondMeter {
    last_update: SimTime,
    current_bytes: u64,
    accumulated_gb_seconds: f64,
    peak_bytes: u64,
}

impl Default for GbSecondMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl GbSecondMeter {
    /// Creates a meter starting at time zero with zero allocated memory.
    #[must_use]
    pub fn new() -> Self {
        GbSecondMeter {
            last_update: SimTime::ZERO,
            current_bytes: 0,
            accumulated_gb_seconds: 0.0,
            peak_bytes: 0,
        }
    }

    fn integrate_to(&mut self, now: SimTime) {
        let elapsed = now.duration_since(self.last_update).as_secs_f64();
        self.accumulated_gb_seconds += self.current_bytes as f64 / 1e9 * elapsed;
        self.last_update = now;
    }

    /// Records that total memory changed to `bytes` at time `now`.
    pub fn set_memory(&mut self, now: SimTime, bytes: u64) {
        self.integrate_to(now);
        self.current_bytes = bytes;
        self.peak_bytes = self.peak_bytes.max(bytes);
    }

    /// Finalizes the integral at time `now` and returns GB·seconds.
    #[must_use]
    pub fn finish(mut self, now: SimTime) -> f64 {
        self.integrate_to(now);
        self.accumulated_gb_seconds
    }

    /// Currently tracked memory in bytes.
    #[must_use]
    pub fn current_bytes(&self) -> u64 {
        self.current_bytes
    }

    /// Peak tracked memory in bytes.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn latency_stats_basic_queries() {
        let mut stats = LatencyStats::new();
        for ms in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            stats.record(SimDuration::from_millis(ms));
        }
        assert_eq!(stats.count(), 10);
        assert_eq!(stats.mean(), SimDuration::from_millis(55));
        assert_eq!(stats.min(), SimDuration::from_millis(10));
        assert_eq!(stats.max(), SimDuration::from_millis(100));
        // Nearest-rank on 10 samples: rank round(4.5) = 5 -> the 6th sample.
        assert_eq!(stats.p50(), SimDuration::from_millis(60));
        assert!(stats.p95() >= SimDuration::from_millis(90));
    }

    #[test]
    fn empty_stats_return_zero() {
        let stats = LatencyStats::new();
        assert!(stats.is_empty());
        assert_eq!(stats.mean(), SimDuration::ZERO);
        assert_eq!(stats.p95(), SimDuration::ZERO);
        assert_eq!(stats.max(), SimDuration::ZERO);
    }

    #[test]
    fn a_single_sample_is_every_percentile() {
        let mut stats = LatencyStats::new();
        stats.record(SimDuration::from_millis(42));
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(
                stats.percentile(q),
                SimDuration::from_millis(42),
                "quantile {q}"
            );
        }
        assert_eq!(stats.mean(), SimDuration::from_millis(42));
        assert_eq!(stats.min(), stats.max());
    }

    #[test]
    fn identical_samples_make_p95_equal_p100() {
        let mut stats = LatencyStats::new();
        for _ in 0..100 {
            stats.record(SimDuration::from_millis(7));
        }
        assert_eq!(stats.p95(), stats.percentile(1.0));
        assert_eq!(stats.percentile(1.0), stats.max());
        assert_eq!(stats.p50(), stats.p99());
    }

    #[test]
    fn extreme_quantiles_hit_min_and_max() {
        let mut stats = LatencyStats::new();
        for ms in [5u64, 1, 9, 3] {
            stats.record(SimDuration::from_millis(ms));
        }
        assert_eq!(stats.percentile(0.0), stats.min());
        assert_eq!(stats.percentile(1.0), stats.max());
    }

    #[test]
    fn mean_does_not_overflow_on_huge_latency_sums() {
        // Three samples of ~292 years each: the nanosecond sum exceeds u64.
        let mut stats = LatencyStats::new();
        for _ in 0..3 {
            stats.record(SimDuration::from_nanos(u64::MAX / 2));
        }
        assert_eq!(stats.mean(), SimDuration::from_nanos(u64::MAX / 2));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn out_of_range_quantiles_are_rejected() {
        let mut stats = LatencyStats::new();
        stats.record(SimDuration::from_millis(1));
        let _ = stats.percentile(1.5);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn nan_quantiles_are_rejected() {
        let stats = LatencyStats::new();
        let _ = stats.percentile(f64::NAN);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyStats::new();
        a.record(SimDuration::from_millis(10));
        let mut b = LatencyStats::new();
        b.record(SimDuration::from_millis(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_millis(20));
    }

    #[test]
    fn windowed_mean_buckets_correctly() {
        let mut series = TimeSeries::new();
        series.record(SimTime::from_secs(0), 1.0);
        series.record(SimTime::from_secs(1), 3.0);
        series.record(SimTime::from_secs(5), 10.0);
        let windows = series.windowed_mean(SimDuration::from_secs(2));
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0], (SimTime::ZERO, 2.0));
        assert_eq!(windows[1], (SimTime::from_secs(4), 10.0));
    }

    #[test]
    fn windowed_mean_handles_out_of_order_points() {
        let mut series = TimeSeries::new();
        series.record(SimTime::from_secs(5), 10.0);
        series.record(SimTime::from_secs(0), 2.0);
        let windows = series.windowed_mean(SimDuration::from_secs(10));
        assert_eq!(windows, vec![(SimTime::ZERO, 6.0)]);
    }

    #[test]
    fn gb_second_meter_integrates_rectangles() {
        let mut meter = GbSecondMeter::new();
        // 1 GB held for 10 seconds, then 2 GB for 5 seconds = 20 GB-s.
        meter.set_memory(SimTime::ZERO, 1_000_000_000);
        meter.set_memory(SimTime::from_secs(10), 2_000_000_000);
        assert_eq!(meter.current_bytes(), 2_000_000_000);
        let total = meter.finish(SimTime::from_secs(15));
        assert!((total - 20.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn gb_second_meter_add_release_and_peak() {
        let mut meter = GbSecondMeter::new();
        meter.set_memory(SimTime::ZERO, 500_000_000);
        meter.set_memory(SimTime::from_secs(2), 1_000_000_000);
        meter.set_memory(SimTime::from_secs(4), 0);
        assert_eq!(meter.peak_bytes(), 1_000_000_000);
        assert_eq!(meter.current_bytes(), 0);
        // 0.5 GB * 2s + 1 GB * 2s = 3 GB-s
        let total = meter.finish(SimTime::from_secs(10));
        assert!((total - 3.0).abs() < 1e-9, "total = {total}");
    }

    #[test]
    fn a_million_sample_percentile_report_sorts_exactly_once() {
        // Regression for the clone-and-sort-per-query percentile path: a
        // full p50/p95/p99/max report over a settled million-sample
        // collector must reuse one cached sorted order.
        let mut stats = LatencyStats::new();
        for i in 0u64..1_000_000 {
            stats.record(SimDuration::from_nanos(
                i.wrapping_mul(2_654_435_761) % 1_000_000,
            ));
        }
        assert_eq!(stats.sorts_performed(), 0);
        let p50 = stats.p50();
        let p95 = stats.p95();
        let p99 = stats.p99();
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(stats.sorts_performed(), 1);
        // New samples invalidate the cache: the next query pays one more
        // sort, and only one.
        stats.record(SimDuration::from_millis(1));
        let _ = stats.p50();
        let _ = stats.p99();
        assert_eq!(stats.sorts_performed(), 2);
    }

    #[test]
    fn merged_samples_invalidate_the_percentile_cache() {
        let mut a = LatencyStats::new();
        a.record(SimDuration::from_millis(10));
        assert_eq!(a.p99(), SimDuration::from_millis(10));
        let mut b = LatencyStats::new();
        b.record(SimDuration::from_millis(30));
        a.merge(&b);
        assert_eq!(a.p99(), SimDuration::from_millis(30));
        assert_eq!(a.sorts_performed(), 2);
    }

    #[test]
    fn windowed_mean_skips_empty_windows_arithmetically() {
        // A two-point series spanning ~32 years with a 1 ms window: the old
        // one-empty-window-at-a-time loop would iterate ~10^12 times here.
        let mut series = TimeSeries::new();
        series.record(SimTime::ZERO, 4.0);
        series.record(SimTime::from_secs(1_000_000_000), 8.0);
        let windows = series.windowed_mean(SimDuration::from_millis(1));
        assert_eq!(
            windows,
            vec![
                (SimTime::ZERO, 4.0),
                (SimTime::from_secs(1_000_000_000), 8.0),
            ]
        );
    }

    proptest! {
        #[test]
        fn percentiles_are_monotone(samples in proptest::collection::vec(0u64..1_000_000, 1..100)) {
            let mut stats = LatencyStats::new();
            for s in &samples {
                stats.record(SimDuration::from_nanos(*s));
            }
            prop_assert!(stats.p50() <= stats.p95());
            prop_assert!(stats.p95() <= stats.p99());
            prop_assert!(stats.p99() <= stats.max());
            prop_assert!(stats.min() <= stats.p50());
            prop_assert!(stats.mean() <= stats.max());
            prop_assert!(stats.mean() >= stats.min());
        }
    }
}
