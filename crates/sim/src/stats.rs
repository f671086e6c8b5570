//! Measurement utilities: latency histograms and throughput summaries.
//!
//! Every experiment in EXPERIMENTS.md reports through these types, so they
//! favour reproducibility (integer bucket math) over extreme precision.

use crate::time::SimTime;

const SUBBUCKET_BITS: u32 = 6; // 64 linear sub-buckets per power of two
const SUBBUCKETS: u64 = 1 << SUBBUCKET_BITS;
const BUCKETS: usize = (64 - SUBBUCKET_BITS as usize) * SUBBUCKETS as usize;

/// A log₂-bucketed histogram of raw `u64` values with linear sub-bucket
/// resolution — the HdrHistogram layout (64 linear sub-buckets per power
/// of two, ≤1.6 % relative error), and the only bucket implementation in
/// the workspace: [`Histogram`] is its [`SimTime`] view.
///
/// * **Pre-sized storage** — `new()` allocates every bucket up front, so
///   `record` never allocates.
/// * **Integer state only** — counts, a `u128` sum, and `u64` extremes.
///   No float accumulates, so merging in any grouping or order reproduces
///   the unsplit histogram *exactly*, bucket for bucket (pinned, for both
///   views, by `crates/sim/tests/prop_histogram_merge.rs`).
/// * **Deterministic export** — [`LogHistogram::nonzero_buckets`] walks
///   buckets in index order, giving byte-stable CSV/JSON rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl LogHistogram {
    /// A fresh, empty histogram with every bucket pre-allocated.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    #[inline]
    fn index(value: u64) -> usize {
        let v = value.max(1);
        let msb = 63 - v.leading_zeros();
        if msb < SUBBUCKET_BITS {
            v as usize
        } else {
            let shift = msb - SUBBUCKET_BITS;
            let sub = (v >> shift) & (SUBBUCKETS - 1);
            ((((msb - SUBBUCKET_BITS + 1) as u64 * SUBBUCKETS) + sub) as usize).min(BUCKETS - 1)
        }
    }

    /// Lower bound of bucket `index` (the value quantiles report).
    #[inline]
    pub fn bucket_floor(index: usize) -> u64 {
        let i = index as u64;
        if i < SUBBUCKETS {
            i
        } else {
            let exp = (i / SUBBUCKETS) as u32 + SUBBUCKET_BITS - 1;
            let sub = i % SUBBUCKETS;
            (1u64 << exp) + (sub << (exp - SUBBUCKET_BITS))
        }
    }

    /// Record one value. Never allocates.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean (integer division; zero when empty).
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum / self.total as u128) as u64
        }
    }

    /// Largest recorded value (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded value. Empty histograms — including merges of
    /// empty histograms, where the internal minimum is still the
    /// `u64::MAX` sentinel — report zero.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the lower bound of the
    /// containing bucket, clamped into `[min, max]` (≤1.6 % error).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one: element-wise bucket add
    /// plus sum/extreme folds. Exact — no information beyond the shared
    /// bucketing is lost, so merge order and grouping never matter.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Occupied buckets as `(bucket_floor, count)` in ascending bucket
    /// order — the deterministic export walk.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A latency histogram: the [`SimTime`] view of a [`LogHistogram`] of
/// picosecond durations, sized for values from 1 ps to ~584 years.
#[derive(Clone, Default)]
pub struct Histogram(LogHistogram);

/// The text the struct printed before it became a view: `EngineStats`'s
/// `Debug` output is hashed into `pricing_matrix`'s state digests.
impl core::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Histogram")
            .field("counts", &self.0.counts)
            .field("total", &self.0.total)
            .field("sum_ps", &self.0.sum)
            .field("max_ps", &self.0.max)
            .field("min_ps", &self.0.min)
            .finish()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[inline]
    pub fn new() -> Self {
        Histogram(LogHistogram::new())
    }

    /// Record one duration.
    #[inline]
    pub fn record(&mut self, d: SimTime) {
        self.0.record(d.as_ps());
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count()
    }

    /// Arithmetic mean of all samples.
    #[inline]
    pub fn mean(&self) -> SimTime {
        SimTime::from_ps(self.0.mean())
    }

    /// Largest recorded sample.
    #[inline]
    pub fn max(&self) -> SimTime {
        SimTime::from_ps(self.0.max())
    }

    /// Smallest recorded sample (zero when empty).
    #[inline]
    pub fn min(&self) -> SimTime {
        SimTime::from_ps(self.0.min())
    }

    /// Value at quantile `q` in `[0, 1]`, e.g. `0.99` for p99. Returns the
    /// lower bound of the containing bucket (≤1.6 % relative error).
    #[inline]
    pub fn quantile(&self, q: f64) -> SimTime {
        SimTime::from_ps(self.0.quantile(q))
    }

    /// Condensed summary, the unit most experiments print.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }

    /// Merge another histogram into this one.
    #[inline]
    pub fn merge(&mut self, other: &Histogram) {
        self.0.merge(&other.0);
    }
}

/// Condensed latency summary: count, mean, and the min/p50/p95/p99/max
/// order statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: SimTime,
    /// Minimum (zero when empty, matching [`Histogram::min`]).
    pub min: SimTime,
    /// Median.
    pub p50: SimTime,
    /// 95th percentile.
    pub p95: SimTime,
    /// 99th percentile.
    pub p99: SimTime,
    /// Maximum.
    pub max: SimTime,
}

impl core::fmt::Display for Summary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "n={} mean={} min={} p50={} p95={} p99={} max={}",
            self.count, self.mean, self.min, self.p50, self.p95, self.p99, self.max
        )
    }
}

/// Throughput helper: operations completed over a simulated interval.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Completed operations.
    pub ops: u64,
    /// Elapsed simulated time.
    pub elapsed: SimTime,
}

impl Throughput {
    /// Operations per simulated second.
    pub fn per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, SimTime::ZERO);
        assert_eq!(s.p99, SimTime::ZERO);
        assert_eq!(s.min, SimTime::ZERO);
        assert_eq!(h.min(), SimTime::ZERO);
        // Merging empty histograms must not leak the u64::MAX min sentinel.
        let mut merged = Histogram::new();
        merged.merge(&h);
        assert_eq!(merged.min(), SimTime::ZERO);
        assert_eq!(merged.summary().min, SimTime::ZERO);
    }

    #[test]
    fn single_sample_summary() {
        let mut h = Histogram::new();
        h.record(SimTime::from_ns(100.0));
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean.as_ns(), 100.0);
        assert_eq!(s.min.as_ns(), 100.0);
        assert_eq!(s.max.as_ns(), 100.0);
        // bucket floor within 1.6% of the true value
        assert!((s.p50.as_ns() - 100.0).abs() / 100.0 < 0.017);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimTime::from_ns(10.0));
        b.record(SimTime::from_ns(1000.0));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max().as_ns(), 1000.0);
        assert_eq!(a.min().as_ns(), 10.0);
    }

    #[test]
    fn empty_log_histogram_reports_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.99), 0);
        let mut merged = LogHistogram::new();
        merged.merge(&h);
        assert_eq!(merged.min(), 0, "min sentinel must not leak through merge");
    }

    #[test]
    fn bucket_error_is_bounded() {
        for v in [1u64, 63, 64, 65, 1000, 123_456, 9_876_543_210] {
            let floor = LogHistogram::bucket_floor(LogHistogram::index(v));
            assert!(floor <= v, "floor {floor} > value {v}");
            assert!(
                (v - floor) as f64 / v as f64 <= 1.0 / 32.0,
                "v={v} floor={floor}"
            );
        }
    }

    #[test]
    fn quantiles_on_uniform_ramp() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1000);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.05, "p50={p50}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.05, "p99={p99}");
    }

    #[test]
    fn merge_combines_counts_sums_and_extremes() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 1010);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn nonzero_buckets_walk_in_ascending_order() {
        let mut h = LogHistogram::new();
        for v in [5u64, 5, 700, 123_456] {
            h.record(v);
        }
        let rows: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(rows.iter().map(|&(_, c)| c).sum::<u64>(), 4);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(rows[0], (5, 2));
    }

    #[test]
    fn record_path_does_not_allocate_after_new() {
        // The counts vec is fully sized at construction; recording the
        // largest representable value must stay in bounds.
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn throughput_math() {
        let t = Throughput {
            ops: 1_000,
            elapsed: SimTime::from_ms(10.0),
        };
        assert!((t.per_sec() - 100_000.0).abs() < 1e-6);
        let z = Throughput {
            ops: 5,
            elapsed: SimTime::ZERO,
        };
        assert_eq!(z.per_sec(), 0.0);
    }
}
