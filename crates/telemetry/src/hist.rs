//! Lock-free log2-bucketed histograms.
//!
//! Bucket 0 counts observations of exactly 0; bucket `i ≥ 1` counts
//! values in `[2^(i-1), 2^i)`. 65 buckets cover the whole `u64`
//! domain and recording is one relaxed `fetch_add` — which is what
//! makes recording from several threads equivalent to single-threaded
//! recording of the same observation multiset (property-tested below).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

/// Bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the last).
pub fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < BUCKETS, "bucket index out of range");
    if index == 0 {
        0
    } else if index == BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A log2-bucketed histogram with atomic buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, in bucket order.
    pub fn snapshot(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..BUCKETS - 1 {
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_of(hi), i, "upper bound stays in bucket {i}");
            assert_eq!(bucket_of(hi + 1), i + 1, "next value leaves bucket {i}");
            let lo = 1u64 << (i - 1);
            assert_eq!(bucket_of(lo), i, "lower bound enters bucket {i}");
        }
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    #[allow(clippy::cast_nan_to_int)] // the NaN edge is the point
    fn saturating_float_casts_feed_the_extreme_buckets() {
        // The priority scheduler maps f64 residuals onto this
        // histogram's u64 domain with an `as u64` cast. Rust saturates
        // float→int casts, so the behavior at the edges is
        // well-defined and pinned here: NaN and everything below 1.0
        // (subnormals included) truncate to bucket 0, ±overflow
        // saturates into the top bucket instead of wrapping.
        assert_eq!(bucket_of(f64::NAN as u64), 0);
        assert_eq!(bucket_of(0.0f64 as u64), 0);
        assert_eq!(bucket_of((-1.0f64) as u64), 0);
        assert_eq!(bucket_of(0.999_999_f64 as u64), 0);
        assert_eq!(bucket_of(f64::MIN_POSITIVE as u64), 0);
        assert_eq!(bucket_of(f64::INFINITY as u64), BUCKETS - 1);
        assert_eq!(bucket_of(f64::MAX as u64), BUCKETS - 1);
        assert_eq!(bucket_of(1.0f64 as u64), 1);
    }

    #[test]
    fn extreme_observations_do_not_distort_buckets() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        let snap = h.snapshot();
        assert_eq!(snap[0], 1);
        assert_eq!(snap[BUCKETS - 1], 1);
    }

    #[test]
    fn observe_tracks_count_sum_mean() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 106);
        let snap = h.snapshot();
        assert_eq!(snap[0], 1); // 0
        assert_eq!(snap[1], 1); // 1
        assert_eq!(snap[2], 2); // 2, 3
        assert_eq!(snap[7], 1); // 100 ∈ [64, 128)
        assert_eq!(snap.iter().sum::<u64>(), 5);
    }

    proptest! {
        #[test]
        fn split_recording_equals_sequential_recording(
            values in prop_vec(any::<u64>(), 0..200),
            split in 0usize..200,
        ) {
            let split = split.min(values.len());
            // One histogram fed sequentially...
            let whole = Histogram::new();
            for &v in &values {
                whole.observe(v);
            }
            // ...versus one fed a partition of the same multiset from
            // two threads at once.
            let shared = Histogram::new();
            std::thread::scope(|s| {
                for part in [&values[..split], &values[split..]] {
                    let shared = &shared;
                    s.spawn(move || part.iter().for_each(|&v| shared.observe(v)));
                }
            });
            prop_assert_eq!(shared.snapshot(), whole.snapshot());
            prop_assert_eq!(shared.count(), whole.count());
            prop_assert_eq!(shared.sum(), whole.sum());
        }
    }
}
