//! Log₂-bucketed histograms with quantile estimation.
//!
//! Bucket `0` holds the value `0`; bucket `b ≥ 1` holds the range
//! `[2^(b-1), 2^b - 1]`. 65 buckets cover the full `u64` domain, so
//! recording is a `leading_zeros` plus one array increment — cheap
//! enough for per-burst instrumentation in the DRAM scheduler's hot
//! loop. Quantiles report the *upper bound* of the bucket containing
//! the requested rank (a conservative estimate with < 2× relative
//! error; see [`crate::quantile`] for the bound).

use serde::{Deserialize, Serialize};

pub(crate) use crate::quantile::BUCKETS;
use crate::quantile::{bucket_index, quantile_from_counts};

/// A fixed-size log₂-bucketed histogram of `u64` samples.
///
/// Serializes its raw fields (the bucket array, count, sum, and the
/// untranslated `min` sentinel, `u64::MAX` when empty), so a
/// checkpoint image restores it exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records `n` identical samples.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (`0` when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the sample at rank
    /// fraction `q ∈ [0, 1]`. Returns `0` when empty.
    ///
    /// The rank is `ceil(q × count)` clamped to `[1, count]`, so
    /// `quantile(0.0)` is the minimum's bucket and `quantile(1.0)` the
    /// maximum.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.counts, self.count, self.min(), self.max, q)
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_small_values() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(0);
        }
        h.record(1);
        // Ranks 1..=99 land in bucket 0, rank 100 in bucket 1.
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.quantile(1.0), 1);
    }

    #[test]
    fn percentiles_on_uniform_data() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // p50 rank = 500 → value 500 → bucket 9 (256..511), upper 511.
        assert_eq!(h.p50(), 511);
        // p95 rank = 950 → bucket 10 (512..1023), capped at max 1000.
        assert_eq!(h.p95(), 1000);
        assert_eq!(h.p99(), 1000);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut c = Histogram::new();
        for v in 0..100u64 {
            a.record(v * 7);
            c.record(v * 7);
        }
        for v in 0..50u64 {
            b.record(v * 13 + 1);
            c.record(v * 13 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.sum(), c.sum());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(42, 10);
        for _ in 0..10 {
            b.record(42);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.p50(), b.p50());
    }
}
