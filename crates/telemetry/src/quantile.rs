//! Bucketing and rank math behind [`crate::Histogram`].
//!
//! # Bucketing and error bound
//!
//! Bucket `0` holds the value `0`; bucket `b ≥ 1` holds the range
//! `[2^(b-1), 2^b − 1]`. A quantile query returns the *upper bound* of
//! the bucket containing the requested rank, clamped to the observed
//! `[min, max]`. For a true quantile value `v ≥ 1` the estimate `e`
//! therefore satisfies
//!
//! ```text
//! v ≤ e ≤ 2·v − 1      (e / v < 2, i.e. < 1 bucket of relative error)
//! ```
//!
//! and is exact for `v ∈ {0, 1}` and whenever the rank lands in the
//! bucket holding the observed maximum or minimum. The estimate is
//! conservative (never under-reports a latency), which is the right
//! bias for tail-latency SLO reporting.

/// Number of log₂ buckets covering the full `u64` domain.
pub(crate) const BUCKETS: usize = 65;

/// Index of the bucket holding `v`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Largest value the bucket at `index` can hold.
#[inline]
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Upper-bound quantile estimate over raw bucket counts.
///
/// `q` is a rank fraction in `[0, 1]`; the rank is
/// `ceil(q × count)` clamped to `[1, count]`, so `quantile(0)` reports
/// the minimum's bucket and `quantile(1)` the maximum's. The result is
/// clamped to the observed `[min, max]` (see the module docs for the
/// error bound). Returns `0` when `count` is zero.
pub(crate) fn quantile_from_counts(counts: &[u64], count: u64, min: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = (q * count as f64).ceil() as u64;
    let rank = rank.clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper_bound(i).min(max).max(min);
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    /// Closed-form check on uniform data 1..=1000 at the rank extremes.
    #[test]
    fn closed_form_uniform() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p999: rank ceil(0.999 × 1000) = 999 → bucket 10 (512..=1023),
        // clamped to max 1000.
        assert_eq!(h.p999(), 1000);
        // q=0 reports the minimum's bucket (bucket 1 upper bound = 1),
        // q=1 the maximum itself.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1000);
    }

    /// The p999 rank must isolate a 1-in-1000 outlier exactly.
    #[test]
    fn closed_form_tail_outlier() {
        let mut h = Histogram::new();
        for _ in 0..999 {
            h.record(10);
        }
        h.record(100_000);
        // p99: rank ceil(0.99 × 1000) = 990 → bucket of 10 → upper 15,
        // clamped to min 10 ≤ 15 ≤ max: stays 15.
        assert_eq!(h.p99(), 15);
        // p999: rank 999 → still the 10s bucket.
        assert_eq!(h.p999(), 15);
        // Only rank 1000 of 1000 reaches the outlier.
        assert_eq!(h.quantile(1.0), 100_000);
    }

    /// Exact values at {0, 1} and single-sample histograms.
    #[test]
    fn closed_form_exact_small_values() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
        let mut h = Histogram::new();
        h.record(7);
        // Single sample: every quantile is clamped to min == max == 7.
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 7);
        }
    }

    /// The documented bound e/v < 2 holds across magnitudes.
    #[test]
    fn error_bound_holds() {
        for true_v in [1u64, 3, 7, 100, 1023, 1024, 1_000_000, 1 << 40] {
            let mut h = Histogram::new();
            // Surround with mass so no min/max clamp hides the bucket
            // estimate: half the samples below, half above.
            for _ in 0..500 {
                h.record(true_v / 2);
            }
            for _ in 0..500 {
                h.record(true_v.saturating_mul(4));
            }
            for _ in 0..1000 {
                h.record(true_v);
            }
            let e = h.p50();
            assert!(e >= true_v, "p50 {e} under-reports {true_v}");
            assert!(
                (e as f64) < 2.0 * true_v as f64,
                "p50 {e} breaks the 2x bound for {true_v}"
            );
        }
    }

    /// Bucket-count addition is exact, so every rank — the p999 tail
    /// included — agrees with recording both streams into one histogram.
    #[test]
    fn merge_equals_combined_recording() {
        let (mut a, mut b, mut c) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..200u64 {
            a.record(v * 3);
            c.record(v * 3);
        }
        for v in 0..77u64 {
            b.record(v * 11 + 5);
            c.record(v * 11 + 5);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.sum(), c.sum());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }

    /// No samples: every rank reports 0, even with the empty histogram's
    /// `min = u64::MAX` sentinel that a clamp would otherwise return.
    #[test]
    fn empty_is_sane() {
        let counts = [0u64; BUCKETS];
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(quantile_from_counts(&counts, 0, u64::MAX, 0, q), 0);
        }
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }
}
