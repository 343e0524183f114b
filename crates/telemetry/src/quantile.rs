//! Mergeable log-linear quantile sketches (HDR-histogram style).
//!
//! The log2 histogram in [`crate::hist`] answers quantile queries only
//! to bucket resolution — a factor of two. That is fine for inbox
//! depths; it is useless for latency SLOs, where p99 = 180 ms and
//! p99 = 350 ms are different verdicts. This sketch subdivides every
//! octave into [`SUBBUCKETS`] linear sub-buckets, so any reported
//! quantile is within `1/SUBBUCKETS` (~3.1%) of the exact order
//! statistic — property-tested against a
//! sorted oracle below.
//!
//! Layout: values `0..SUBBUCKETS` index directly (exact); a larger
//! value with `floor(log2 v) = e` lands in group `e - B + 1` (where
//! `B = log2 SUBBUCKETS`), sub-indexed by the [`SUBBUCKETS`] bits
//! after the leading one. Each bucket of group `g ≥ 1` spans
//! `2^(g-1)` values, so the width-to-magnitude ratio — the relative
//! error — never exceeds `1/SUBBUCKETS`.
//!
//! Two sketches over disjoint observation sets merge by bucket-wise
//! addition, which makes per-window recording equivalent to one big
//! sketch of the union — the property SLO windowing relies on
//! (associativity/commutativity are property-tested too).

/// Number of linear sub-buckets per octave (a power of two).
pub const SUBBUCKETS: u64 = 32;

/// `log2(SUBBUCKETS)`.
const SUB_BITS: u32 = SUBBUCKETS.trailing_zeros();

/// Total bucket count: 59 groups of [`SUBBUCKETS`] cover all of `u64`.
pub const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUBBUCKETS as usize;

/// Bucket index of a value.
pub fn index_of(v: u64) -> usize {
    if v < SUBBUCKETS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS
    let group = (e - SUB_BITS + 1) as u64;
    let sub = (v >> (e - SUB_BITS)) & (SUBBUCKETS - 1);
    (group * SUBBUCKETS + sub) as usize
}

/// Highest value contained in bucket `index` (the sketch's quantile
/// representative: reporting it can only overshoot, never undershoot,
/// the exact order statistic in the same bucket).
pub fn bucket_high(index: usize) -> u64 {
    let index = index as u64;
    if index < SUBBUCKETS {
        return index;
    }
    let group = index / SUBBUCKETS;
    let sub = index % SUBBUCKETS;
    let width = 1u64 << (group - 1);
    let low = (SUBBUCKETS + sub) << (group - 1);
    low.wrapping_add(width - 1)
}

/// A mergeable log-linear quantile sketch with bounded relative error.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[index_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self`, bucket-wise. The result is
    /// indistinguishable from one sketch fed both observation sets.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile estimate: the high edge of the bucket holding
    /// the `ceil(q·n)`-th smallest observation, clamped to the exact
    /// observed maximum. Within `1/SUBBUCKETS` of the exact
    /// order statistic; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// p50 / p95 / p99 / p999, in that order.
    pub fn latency_quantiles(&self) -> [u64; 4] {
        [
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.quantile(0.999),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The worst-case relative error of any quantile estimate.
    const BOUND: f64 = 1.0 / SUBBUCKETS as f64;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUBBUCKETS {
            assert_eq!(index_of(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn indexing_is_monotone_and_contiguous_across_the_domain() {
        // Every bucket's high edge maps back to that bucket, and the
        // next value starts the next bucket.
        for i in 0..NUM_BUCKETS - 1 {
            let hi = bucket_high(i);
            assert_eq!(index_of(hi), i, "high edge of bucket {i}");
            if hi < u64::MAX {
                assert_eq!(index_of(hi + 1), i + 1, "successor of bucket {i}");
            }
        }
        assert_eq!(index_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_width_bounds_relative_error() {
        for i in SUBBUCKETS as usize..NUM_BUCKETS {
            let hi = bucket_high(i);
            let group = i as u64 / SUBBUCKETS;
            let width = 1u64 << (group - 1);
            let low = hi - (width - 1);
            assert!(
                (width - 1) as f64 <= BOUND * low as f64,
                "bucket {i}: width {width} low {low}"
            );
        }
    }

    #[test]
    fn quantiles_on_known_data() {
        let mut s = QuantileSketch::new();
        for v in 1..=1000u64 {
            s.observe(v);
        }
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max, 1000);
        let [p50, p95, p99, p999] = s.latency_quantiles();
        for (q, exact, est) in [
            (0.50, 500u64, p50),
            (0.95, 950, p95),
            (0.99, 990, p99),
            (0.999, 999, p999),
        ] {
            let rel = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(
                est >= exact && rel <= BOUND,
                "q{q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(s.quantile(1.0), 1000, "p100 clamps to the exact max");
        assert_eq!(QuantileSketch::new().quantile(0.99), 0);
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[target - 1]
    }

    proptest! {
        #[test]
        fn relative_error_guarantee_vs_sorted_oracle(
            values in prop_vec(0u64..u64::MAX / 2, 1..300),
            q in 0.001f64..1.0,
        ) {
            let mut s = QuantileSketch::new();
            for &v in &values {
                s.observe(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let exact = exact_quantile(&sorted, q);
            let est = s.quantile(q);
            // The estimate never undershoots (bucket high edge) and
            // overshoots by at most the guaranteed relative error.
            prop_assert!(est >= exact, "est {est} < exact {exact}");
            let slack = BOUND * exact as f64;
            prop_assert!(
                est as f64 - exact as f64 <= slack.max(0.0),
                "est {est} exact {exact} slack {slack}"
            );
        }

        #[test]
        fn merge_is_commutative_and_associative(
            a in prop_vec(any::<u64>(), 0..100),
            b in prop_vec(any::<u64>(), 0..100),
            c in prop_vec(any::<u64>(), 0..100),
        ) {
            let mk = |vals: &[u64]| {
                let mut s = QuantileSketch::new();
                for &v in vals {
                    s.observe(v);
                }
                s
            };
            // (a ∪ b) = (b ∪ a)
            let mut ab = mk(&a);
            ab.merge(&mk(&b));
            let mut ba = mk(&b);
            ba.merge(&mk(&a));
            prop_assert_eq!(&ab.buckets, &ba.buckets);
            prop_assert_eq!(ab.count(), ba.count());
            prop_assert_eq!(ab.max, ba.max);
            // ((a ∪ b) ∪ c) = (a ∪ (b ∪ c)) = one sketch of everything
            let mut abc = ab;
            abc.merge(&mk(&c));
            let mut bc = mk(&b);
            bc.merge(&mk(&c));
            let mut a_bc = mk(&a);
            a_bc.merge(&bc);
            prop_assert_eq!(&abc.buckets, &a_bc.buckets);
            let mut whole = QuantileSketch::new();
            for &v in a.iter().chain(&b).chain(&c) {
                whole.observe(v);
            }
            prop_assert_eq!(&abc.buckets, &whole.buckets);
            prop_assert_eq!(abc.sum(), whole.sum());
        }
    }
}
